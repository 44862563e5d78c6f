//! Experiment registry, job scheduler and run manifest for the resilient
//! `all_figures` harness.
//!
//! The harness binary owns process-level concerns (argument parsing,
//! figure emission, exit codes); this module owns the deterministic
//! parts: the ordered registry of every figure job, the `--only`/`--skip`
//! selection logic, the job scheduler ([`run_registry`]), and the
//! `manifest.json` text ([`manifest_json`]), serialized through
//! [`crate::json`] so equal run outcomes always produce byte-identical
//! manifests.
//!
//! ## Parallel determinism
//!
//! [`run_registry`] runs the selected jobs on `jobs` threads of the
//! harness's one pool (`crate::sweep::pool`), the calling thread
//! included. The jobs are sized in decreasing registry order and the
//! calling thread claims the largest remaining job, so a lone worker runs
//! them in registry order. Each job builds its own [`sgx_sim::Machine`]s,
//! whose cost model is a pure function of (profile, experiment) — no
//! global mutable state — so *which* thread runs a job affects neither its
//! figures nor its counters. Results come back in registry order. Each
//! job runs inside a `crate::sweep::capture`, which hands back the
//! session (counter totals and machine profiles) of the machines dropped
//! on its thread while it ran. The manifest's `seconds` field is the only
//! legitimately nondeterministic output.
//!
//! A job shares its independent points among helper threads of the same
//! pool through `crate::sweep`, which captures each point the same way
//! and appends the sessions to the worker's in list order before it
//! returns, so the job's counters and profile equal a sequential run's.
//! Its thread budget (`sweep_threads`) splits the host's cores among the
//! registry's workers, so a run never has more busy threads than cores.

use std::cell::Cell;
#[expect(clippy::disallowed_types, reason = "harness-only wall-clock for manifest timings")]
use std::time::Instant;

use crate::json::Value;
use crate::profiles::BenchProfile;
use crate::report::Figure;
use crate::experiments as ex;
use crate::sweep::{capture, pool};
use sgx_sim::counters::Session;
use sgx_sim::Counters;

/// One registered figure job: an id (usually the figure id; `fig04`
/// produces two figures) and the experiment function behind it.
pub struct FigureJob {
    /// Stable job identifier used by `--only`/`--skip` and the manifest.
    pub id: &'static str,
    /// Runs the experiment(s) and returns the figure(s) to emit.
    pub run: fn(&BenchProfile) -> Vec<Figure>,
}

/// Every table/figure the suite can produce, in the paper's order.
pub fn registry() -> Vec<FigureJob> {
    fn one(f: Figure) -> Vec<Figure> {
        vec![f]
    }
    vec![
        FigureJob { id: "table1", run: |p| one(ex::table1(p)) },
        FigureJob { id: "fig01", run: |p| one(ex::fig01_intro(p)) },
        FigureJob { id: "fig03", run: |p| one(ex::fig03_overview(p)) },
        FigureJob {
            id: "fig04",
            run: |p| {
                let (a, b) = ex::fig04_pht(p);
                vec![a, b]
            },
        },
        FigureJob { id: "fig05", run: |p| one(ex::fig05_random_access(p)) },
        FigureJob { id: "fig06", run: |p| one(ex::fig06_rho_breakdown(p)) },
        FigureJob { id: "fig07", run: |p| one(ex::fig07_histogram(p)) },
        FigureJob { id: "fig08", run: |p| one(ex::fig08_optimized(p)) },
        FigureJob { id: "fig09", run: |p| one(ex::fig09_numa_join(p)) },
        FigureJob { id: "fig10", run: |p| one(ex::fig10_queues(p)) },
        FigureJob { id: "fig11", run: |p| one(ex::fig11_edmm(p)) },
        FigureJob { id: "fig12", run: |p| one(ex::fig12_scan_single(p)) },
        FigureJob { id: "fig13", run: |p| one(ex::fig13_scan_scaling(p)) },
        FigureJob { id: "fig14", run: |p| one(ex::fig14_selectivity(p)) },
        FigureJob { id: "fig15", run: |p| one(ex::fig15_linear(p)) },
        FigureJob { id: "fig16", run: |p| one(ex::fig16_numa_scan(p)) },
        FigureJob { id: "fig17", run: |p| one(ex::fig17_tpch(p)) },
        FigureJob { id: "ablation_sgxv1", run: |p| one(ex::sgxv1_ablation(p)) },
        FigureJob { id: "ext_skew", run: |p| one(ex::ext_skew(p)) },
        FigureJob { id: "ext_aggregation", run: |p| one(ex::ext_aggregation(p)) },
        FigureJob { id: "ext_dual_socket", run: |p| one(ex::ext_dual_socket_scan(p)) },
        FigureJob { id: "ext_packed", run: |p| one(ex::ext_packed_scan(p)) },
        FigureJob { id: "ablation_swwcb", run: |p| one(ex::ablation_swwcb(p)) },
        FigureJob { id: "ablation_radix_bits", run: |p| one(ex::ablation_radix_bits(p)) },
        FigureJob { id: "ext_aex_storm", run: |p| one(ex::ext_aex_storm(p)) },
        FigureJob { id: "ext_service_tail", run: ex::ext_service_tail },
        FigureJob { id: "ext_storage_path", run: |p| one(ex::ext_storage_path(p)) },
    ]
}

/// Everything one finished job hands back to the harness: status and
/// diagnostics for the manifest, the figures to emit (in emission
/// order), and the job's counter totals for the aggregate table.
#[derive(Debug)]
pub struct JobOutcome {
    /// Job id from the [`registry`].
    pub id: String,
    /// What happened.
    pub status: JobStatus,
    /// Wall-clock seconds the job took (0 for skipped jobs).
    pub seconds: f64,
    /// Panic message for failed jobs.
    pub error: Option<String>,
    /// Figures produced by the job (empty for failed/skipped jobs).
    pub figures: Vec<Figure>,
    /// Counter totals of every `Machine` the job created.
    pub counters: Counters,
    /// Cycle-attribution profile of the job (`Some` only when
    /// [`RunConfig::profile`] was set; `None` for skipped jobs).
    pub profile: Option<sgx_sim::Profile>,
}

impl JobOutcome {
    fn skipped(id: &str) -> JobOutcome {
        JobOutcome {
            id: id.to_string(),
            status: JobStatus::Skipped,
            seconds: 0.0,
            error: None,
            figures: Vec::new(),
            counters: Counters::default(),
            profile: None,
        }
    }
}

/// Scheduler configuration for [`run_registry`].
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Worker threads (clamped to at least 1). 1 = sequential on the
    /// calling thread, exactly like the pre-parallel harness.
    pub jobs: usize,
    /// `--only`/`--skip` selection.
    pub filter: JobFilter,
    /// Deterministic failure hook: the job with this id panics before its
    /// experiment runs (the CI negative test sets `ALL_FIGURES_FAIL`).
    pub fail_injection: Option<String>,
    /// Collect a per-job cycle-attribution profile (see
    /// [`sgx_sim::profile`]). Off by default; the figures themselves are
    /// byte-identical either way.
    pub profile: bool,
}

/// Default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

thread_local! {
    /// Sweep thread budget of a registry worker; 0 outside the registry.
    static SWEEP_BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Threads a sweep started on this thread may use in total, itself
/// included: `max(1, N / W)` on a worker of a [`run_registry`] call with
/// `W` workers, and `N` anywhere else, where `N` is [`default_jobs`].
pub(crate) fn sweep_threads() -> usize {
    match SWEEP_BUDGET.with(Cell::get) {
        0 => default_jobs(),
        budget => budget,
    }
}

/// Run every selected registry job on `cfg.jobs` worker threads and
/// return one [`JobOutcome`] per registered job, in registry order.
///
/// Thread assignment is timing-dependent, but each job owns its own
/// deterministic `Machine`s, so its figures and counters are identical
/// whatever thread ran it (the equivalence suite proves this
/// byte-for-byte). A panicking job is isolated with `catch_unwind` and
/// recorded as [`JobStatus::Failed`].
///
/// The calling thread participates as a worker and runs the jobs it
/// claims in registry order; for `jobs <= 1` it is the only worker. Each
/// job runs inside a `crate::sweep::capture`, which sets the caller's
/// session aside, so an open outer measurement session survives a
/// registry run intact; the caller's profiling flag and sweep budget are
/// restored on exit.
pub fn run_registry(registry: &[FigureJob], profile: &BenchProfile, cfg: &RunConfig) -> Vec<JobOutcome> {
    let saved_enabled = sgx_sim::profile::enabled();
    let selected: Vec<&FigureJob> = registry.iter().filter(|job| cfg.filter.selects(job.id)).collect();
    let workers = cfg.jobs.max(1).min(selected.len().max(1));
    let budget = (default_jobs() / workers).max(1);
    // Sizes decrease in registry order, and the caller claims the largest
    // remaining job, so it runs its jobs in registry order.
    let sizes: Vec<usize> = (0..selected.len()).rev().collect();
    let mut ran = pool(workers, &sizes, &|k| {
        let outer = SWEEP_BUDGET.with(|b| b.replace(budget));
        let outcome = run_one(selected[k], profile, cfg);
        SWEEP_BUDGET.with(|b| b.set(outer));
        outcome
    })
    .into_iter();
    sgx_sim::profile::set_enabled(saved_enabled);
    registry
        .iter()
        .map(|job| {
            let outcome = if cfg.filter.selects(job.id) { ran.next() } else { None };
            outcome.unwrap_or_else(|| JobOutcome::skipped(job.id))
        })
        .collect()
}

/// Run one job on the current thread with panic isolation and per-job
/// counter capture.
fn run_one(job: &FigureJob, profile: &BenchProfile, cfg: &RunConfig) -> JobOutcome {
    eprintln!("[{}] running...", job.id);
    #[expect(clippy::disallowed_types, reason = "harness-only wall-clock for manifest timings")]
    let started = Instant::now();
    // Arm (or disarm) cycle attribution for the machines this job builds.
    // The capture holds exactly the sessions of the machines dropped
    // during the job (or during its unwind), its sweeps' helpers included.
    sgx_sim::profile::set_enabled(cfg.profile);
    let run = job.run;
    let inject = cfg.fail_injection.as_deref() == Some(job.id);
    let (outcome, Session { counters, profiles }) = capture(|| {
        #[expect(clippy::panic, reason = "fault-injection hook, caught by the capture")]
        if inject {
            panic!("injected failure via ALL_FIGURES_FAIL={}", job.id);
        }
        run(profile)
    });
    let prof = cfg.profile.then(|| sgx_sim::Profile::fold(&profiles));
    sgx_sim::profile::set_enabled(false);
    let seconds = started.elapsed().as_secs_f64();
    match outcome {
        Ok(figures) => {
            eprintln!("[{}] ok ({seconds:.2}s)", job.id);
            JobOutcome {
                id: job.id.to_string(),
                status: JobStatus::Ok,
                seconds,
                error: None,
                figures,
                counters,
                profile: prof,
            }
        }
        Err(cause) => {
            let message = if let Some(s) = cause.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = cause.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            eprintln!("[{}] FAILED ({seconds:.2}s): {message}", job.id);
            JobOutcome {
                id: job.id.to_string(),
                status: JobStatus::Failed,
                seconds,
                error: Some(message),
                figures: Vec::new(),
                counters,
                profile: prof,
            }
        }
    }
}

/// Outcome of one figure job in a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job ran to completion and its figures were emitted.
    Ok,
    /// The job panicked; the harness isolated it and moved on.
    Failed,
    /// The job was excluded by `--only`/`--skip`.
    Skipped,
}

impl JobStatus {
    /// Manifest string form.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
            JobStatus::Skipped => "skipped",
        }
    }
}

/// The `sgx-bench-manifest/1` JSON of a [`run_registry`] result: one
/// entry per registered job, in registry order, with its status, its
/// seconds rounded to the millisecond (so the serialization is stable),
/// its panic message and the ids of the figures it emitted, then the
/// count of each status. A later invocation can resume with `--only`
/// over the failed ids.
pub fn manifest_json(outcomes: &[JobOutcome]) -> String {
    let entry = |o: &JobOutcome| {
        Value::Obj(vec![
            ("id".into(), Value::Str(o.id.clone())),
            ("status".into(), Value::Str(o.status.as_str().into())),
            ("seconds".into(), Value::Num((o.seconds * 1000.0).round() / 1000.0)),
            (
                "error".into(),
                o.error.as_ref().map_or(Value::Null, |m| Value::Str(m.clone())),
            ),
            (
                "outputs".into(),
                Value::Arr(o.figures.iter().map(|f| Value::Str(f.id.clone())).collect()),
            ),
        ])
    };
    let count = |status| Value::Num(outcomes.iter().filter(|o| o.status == status).count() as f64);
    Value::Obj(vec![
        ("schema".into(), Value::Str("sgx-bench-manifest/1".into())),
        ("jobs".into(), Value::Arr(outcomes.iter().map(entry).collect())),
        ("n_ok".into(), count(JobStatus::Ok)),
        ("n_failed".into(), count(JobStatus::Failed)),
        ("n_skipped".into(), count(JobStatus::Skipped)),
    ])
    .pretty()
}

/// `--only`/`--skip` selection. `only` empty means "everything"; `skip`
/// always wins over `only`.
#[derive(Debug, Clone, Default)]
pub struct JobFilter {
    /// Job ids to run exclusively (empty = all).
    pub only: Vec<String>,
    /// Job ids to exclude.
    pub skip: Vec<String>,
}

impl JobFilter {
    /// Should the job with this id run?
    pub fn selects(&self, id: &str) -> bool {
        if self.skip.iter().any(|s| s == id) {
            return false;
        }
        self.only.is_empty() || self.only.iter().any(|o| o == id)
    }

    /// Ids in `only`/`skip` that match no registered job — surfaced as a
    /// usage error so a typo'd `--only fig7` cannot silently run nothing.
    pub fn unknown_ids(&self, registry: &[FigureJob]) -> Vec<String> {
        self.only
            .iter()
            .chain(self.skip.iter())
            .filter(|id| !registry.iter().any(|j| j.id == id.as_str()))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{counters_digest, figure_digest, profile_digest, Goldens};
    use sgx_sim::{Machine, Setting};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A cheap machine-touching job: charges work so the scheduler's
    /// per-job counter capture has something real to capture.
    fn probe_job(profile: &BenchProfile) -> Vec<Figure> {
        let mut m = Machine::new(profile.hw.clone(), Setting::SgxDataInEnclave);
        let ops = m.run(|c| {
            c.compute(1000);
            42.0
        });
        let mut f = Figure::new("probe", "scheduler probe", "x", "ops");
        f.xs.push(format!("{ops}"));
        f.notes.push(format!("wall={:.1}", m.wall_cycles()));
        vec![f]
    }

    fn boom_job(_profile: &BenchProfile) -> Vec<Figure> {
        panic!("synthetic failure for scheduler tests");
    }

    fn test_registry() -> Vec<FigureJob> {
        vec![
            FigureJob { id: "alpha", run: probe_job },
            FigureJob { id: "boom", run: boom_job },
            FigureJob { id: "omega", run: probe_job },
        ]
    }

    fn outcome_fingerprint(outcomes: &[JobOutcome]) -> Vec<String> {
        outcomes
            .iter()
            .map(|o| {
                let figs: Vec<String> = o.figures.iter().map(|f| f.to_json()).collect();
                format!("{}|{}|{}|{}", o.id, o.status.as_str(), figs.join(";"), o.counters.report())
            })
            .collect()
    }

    #[test]
    fn scheduler_commits_in_registry_order_with_isolation() {
        let reg = test_registry();
        let cfg = RunConfig { jobs: 2, ..RunConfig::default() };
        let out = run_registry(&reg, &BenchProfile::tiny(), &cfg);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].id, "alpha");
        assert_eq!(out[1].id, "boom");
        assert_eq!(out[2].id, "omega");
        assert_eq!(out[0].status, JobStatus::Ok);
        assert_eq!(out[1].status, JobStatus::Failed);
        assert!(out[1].error.as_deref().is_some_and(|e| e.contains("synthetic failure")));
        assert_eq!(out[2].status, JobStatus::Ok);
        // Per-job counters come from the job's own machines.
        assert_eq!(out[0].counters.alu_ops, 1000);
        assert_eq!(out[2].counters.alu_ops, 1000);
    }

    #[test]
    fn scheduler_results_are_jobs_invariant() {
        let reg = test_registry();
        let profile = BenchProfile::tiny();
        let runs: Vec<Vec<String>> = [1usize, 2, 8]
            .iter()
            .map(|&jobs| {
                let cfg = RunConfig { jobs, ..RunConfig::default() };
                outcome_fingerprint(&run_registry(&reg, &profile, &cfg))
            })
            .collect();
        assert_eq!(runs[0], runs[1], "--jobs 2 must reproduce sequential results");
        assert_eq!(runs[0], runs[2], "--jobs 8 must reproduce sequential results");
    }

    #[test]
    fn scheduler_honors_filter_and_fail_injection() {
        let reg = test_registry();
        let profile = BenchProfile::tiny();
        let cfg = RunConfig {
            jobs: 4,
            filter: JobFilter { only: vec!["alpha".into(), "omega".into()], skip: vec![] },
            fail_injection: Some("omega".into()),
            profile: false,
        };
        let out = run_registry(&reg, &profile, &cfg);
        assert_eq!(out[0].status, JobStatus::Ok);
        assert_eq!(out[1].status, JobStatus::Skipped);
        assert_eq!(out[1].seconds, 0.0);
        assert_eq!(out[2].status, JobStatus::Failed);
        assert!(out[2].error.as_deref().is_some_and(|e| e.contains("ALL_FIGURES_FAIL")));
        let with = |status| out.iter().filter(move |o| o.status == status).map(|o| o.id.as_str());
        assert_eq!(with(JobStatus::Ok).count(), 1);
        assert_eq!(with(JobStatus::Skipped).count(), 1);
        assert_eq!(with(JobStatus::Failed).collect::<Vec<_>>(), vec!["omega"]);
    }

    /// Start tickets handed out to [`order_job`]s, in the order they start.
    static STARTS: AtomicUsize = AtomicUsize::new(0);

    /// A job that records when it started, relative to the other
    /// `order_job`s.
    fn order_job(_profile: &BenchProfile) -> Vec<Figure> {
        let mut f = Figure::new("order", "start order probe", "x", "ticket");
        f.notes.push(STARTS.fetch_add(1, Ordering::SeqCst).to_string());
        vec![f]
    }

    #[test]
    fn one_worker_runs_the_jobs_in_registry_order() {
        let ids = ["a", "b", "c", "d", "e", "f", "g"];
        let reg: Vec<FigureJob> = ids.iter().map(|&id| FigureJob { id, run: order_job }).collect();
        let cfg = RunConfig {
            jobs: 1,
            filter: JobFilter { only: vec![], skip: vec!["b".into(), "e".into()] },
            ..RunConfig::default()
        };
        let out = run_registry(&reg, &BenchProfile::tiny(), &cfg);
        let ran: Vec<&str> =
            out.iter().filter(|o| o.status == JobStatus::Ok).map(|o| o.id.as_str()).collect();
        assert_eq!(ran, ["a", "c", "d", "f", "g"]);
        let tickets: Vec<usize> = out
            .iter()
            .filter_map(|o| o.figures.first())
            .map(|f| f.notes[0].parse().expect("a ticket"))
            .collect();
        assert!(
            tickets.windows(2).all(|w| w[0] < w[1]),
            "the jobs must start in registry order: {tickets:?}"
        );
    }

    #[test]
    fn run_registry_preserves_callers_open_sessions() {
        // Regression test: run_registry used to drain the calling thread's
        // session accumulators (every job resets them), silently losing an
        // outer measurement in progress.
        let _ = sgx_sim::counters::session_take();
        sgx_sim::profile::set_enabled(true);
        let _ = sgx_sim::profile::session_take();
        {
            let mut m = Machine::new(BenchProfile::tiny().hw.clone(), Setting::SgxDataInEnclave);
            let _scope = m.phase("outer");
            m.run(|c| c.compute(7));
        }
        let reg = test_registry();
        let cfg = RunConfig {
            jobs: 2,
            filter: JobFilter { only: vec!["alpha".into()], skip: vec![] },
            ..RunConfig::default()
        };
        let out = run_registry(&reg, &BenchProfile::tiny(), &cfg);
        assert_eq!(out[0].counters.alu_ops, 1000, "the job still measures its own work");
        assert!(sgx_sim::profile::enabled(), "caller's profiling flag must be restored");
        sgx_sim::profile::set_enabled(false);
        let outer = sgx_sim::counters::session_take();
        assert_eq!(outer.alu_ops, 7, "caller's counter session must survive run_registry");
        let outer_prof = sgx_sim::profile::session_take();
        assert_eq!(outer_prof.total_counters().alu_ops, 7);
        assert!(outer_prof.phases.contains_key("outer"));
    }

    #[test]
    fn scheduler_collects_profiles_only_when_asked() {
        let reg = test_registry();
        let profile = BenchProfile::tiny();
        let off = run_registry(&reg, &profile, &RunConfig { jobs: 1, ..RunConfig::default() });
        assert!(off.iter().all(|o| o.profile.is_none()));
        let cfg = RunConfig { jobs: 1, profile: true, ..RunConfig::default() };
        let on = run_registry(&reg, &profile, &cfg);
        let p = on[0].profile.as_ref().expect("profiled job carries a profile");
        assert_eq!(p.total_counters().alu_ops, on[0].counters.alu_ops);
        assert!(!sgx_sim::profile::enabled(), "profiling flag must not leak out");
        // Profiles are jobs-invariant like everything else.
        let cfg2 = RunConfig { jobs: 8, profile: true, ..RunConfig::default() };
        let on2 = run_registry(&reg, &profile, &cfg2);
        assert_eq!(
            format!("{:?}", on[0].profile),
            format!("{:?}", on2[0].profile),
            "profiles must be identical across --jobs values"
        );
    }

    fn budget_job(_profile: &BenchProfile) -> Vec<Figure> {
        let mut f = Figure::new("budget", "sweep budget probe", "x", "threads");
        f.notes.push(sweep_threads().to_string());
        vec![f]
    }

    #[test]
    fn sweep_budget_splits_the_cores_among_workers() {
        let reg = [FigureJob { id: "a", run: budget_job }, FigureJob { id: "b", run: budget_job }];
        let profile = BenchProfile::tiny();
        let budgets = |jobs: usize| -> Vec<String> {
            run_registry(&reg, &profile, &RunConfig { jobs, ..RunConfig::default() })
                .iter()
                .map(|o| o.figures[0].notes[0].clone())
                .collect()
        };
        let n = default_jobs();
        assert_eq!(budgets(1), vec![n.to_string(); 2], "one worker may use every core");
        assert_eq!(budgets(2), vec![(n / 2).max(1).to_string(); 2]);
        assert_eq!(budgets(8), vec![(n / 2).max(1).to_string(); 2], "two jobs make two workers");
        assert_eq!(sweep_threads(), n, "the budget ends with the registry run");
    }

    #[test]
    fn sharded_figures_stream_jobs_reproduce_goldens() {
        // A budget of two threads makes each sweep below spawn a helper,
        // even on a one-core host, and the jobs run profiled, so their
        // profiles check the list-order fold of the helpers' machine
        // profiles. ext_service_tail's EPC calibrations build two machines
        // per point.
        const GOLDENS: &str =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens/figure_digests.json");
        let text = std::fs::read_to_string(GOLDENS).expect("golden file is readable");
        let goldens = Goldens::from_json(&text).expect("golden file parses");
        assert_eq!(goldens.profile, BenchProfile::golden_tag());
        let (reg, profile) = (registry(), BenchProfile::golden());
        let saved_budget = SWEEP_BUDGET.with(|b| b.replace(2));
        sgx_sim::profile::set_enabled(true);
        for id in [
            "fig12",
            "fig13",
            "fig15",
            "fig16",
            "fig17",
            "ext_dual_socket",
            "ext_packed",
            "ext_service_tail",
            "ext_storage_path",
        ] {
            let job = reg.iter().find(|j| j.id == id).expect("registered job");
            let golden = goldens.jobs.iter().find(|g| g.id == id).expect("golden job");
            let _ = sgx_sim::counters::session_take();
            let _ = sgx_sim::profile::session_take();
            let figures = (job.run)(&profile);
            let counters = sgx_sim::counters::session_take();
            let prof = sgx_sim::profile::session_take();
            let got: Vec<(String, String)> =
                figures.iter().map(|f| (f.id.clone(), figure_digest(f))).collect();
            assert_eq!(got, golden.figures, "{id}: figure bytes drifted when sharded");
            assert_eq!(counters_digest(&counters), golden.counters, "{id}: counters drifted");
            assert_eq!(profile_digest(id, &prof), golden.profile, "{id}: profile drifted");
        }
        sgx_sim::profile::set_enabled(false);
        SWEEP_BUDGET.with(|b| b.set(saved_budget));
    }

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let jobs = registry();
        assert_eq!(jobs.len(), 27);
        for (i, a) in jobs.iter().enumerate() {
            for b in &jobs[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate job id");
            }
        }
        assert!(jobs.iter().any(|j| j.id == "ext_aex_storm"));
        assert!(jobs.iter().any(|j| j.id == "ext_service_tail"));
        assert!(jobs.iter().any(|j| j.id == "ext_storage_path"));
    }

    #[test]
    fn manifest_json_is_byte_stable() {
        let outcome = |id: &str, status, seconds, error: Option<&str>, outputs: &[&str]| JobOutcome {
            id: id.into(),
            status,
            seconds,
            error: error.map(String::from),
            figures: outputs.iter().map(|&f| Figure::new(f, "t", "x", "y")).collect(),
            counters: Counters::default(),
            profile: None,
        };
        let outcomes = [
            outcome("fig04", JobStatus::Ok, 1.23456, None, &["fig04a", "fig04b"]),
            outcome("fig07", JobStatus::Failed, 0.5, Some("panicked: shape assertion"), &[]),
            outcome("fig08", JobStatus::Skipped, 0.0, None, &[]),
        ];
        // Seconds are rounded to the millisecond on write.
        let expected = r#"{
  "schema": "sgx-bench-manifest/1",
  "jobs": [
    {
      "id": "fig04",
      "status": "ok",
      "seconds": 1.235,
      "error": null,
      "outputs": [
        "fig04a",
        "fig04b"
      ]
    },
    {
      "id": "fig07",
      "status": "failed",
      "seconds": 0.5,
      "error": "panicked: shape assertion",
      "outputs": []
    },
    {
      "id": "fig08",
      "status": "skipped",
      "seconds": 0.0,
      "error": null,
      "outputs": []
    }
  ],
  "n_ok": 1.0,
  "n_failed": 1.0,
  "n_skipped": 1.0
}"#;
        assert_eq!(manifest_json(&outcomes), expected);
    }

    #[test]
    fn filter_semantics() {
        let jobs = registry();
        let all = JobFilter::default();
        assert!(all.selects("fig05"));
        assert!(all.unknown_ids(&jobs).is_empty());
        let only = JobFilter { only: vec!["fig05".into(), "fig07".into()], skip: vec![] };
        assert!(only.selects("fig05"));
        assert!(!only.selects("fig06"));
        let skip = JobFilter { only: vec![], skip: vec!["fig05".into()] };
        assert!(!skip.selects("fig05"));
        assert!(skip.selects("fig06"));
        // skip beats only; unknown ids are reported.
        let both = JobFilter { only: vec!["fig05".into()], skip: vec!["fig05".into()] };
        assert!(!both.selects("fig05"));
        let typo = JobFilter { only: vec!["fig7".into()], skip: vec![] };
        assert_eq!(typo.unknown_ids(&jobs), vec!["fig7".to_string()]);
    }
}
