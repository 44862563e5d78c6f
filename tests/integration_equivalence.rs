//! Refactor-equivalence suite: proves the layered machine pipeline
//! (DESIGN.md §10) and the parallel figure scheduler changed *nothing*
//! about the model.
//!
//! `tests/goldens/figure_digests.json` was recorded by
//! `cargo run --release -p bench --bin record_goldens` on the
//! pre-refactor (monolithic `machine.rs`, sequential harness) tree under
//! `BenchProfile::golden()`. These tests re-run the full registry three
//! times — profiled on one worker, whose jobs share the host's cores
//! among their points, unprofiled on 4 worker threads, and unprofiled on
//! one worker — and assert each run reproduces every golden digest
//! exactly: every figure's JSON bytes,
//! every job's counter report, and (profiled) every job's
//! `<job>.profile.json` bytes, so a hot-path rewrite cannot shift cycles
//! between `CostCategory` bins unnoticed. Runs that match the same
//! digests match each other, so no run is compared against another. A
//! mismatch means the cost model drifted; re-record goldens only for a
//! *deliberate* model change.

use sgx_bench_core::golden::{counters_digest, figure_digest, profile_digest, Goldens};
use sgx_bench_core::runner::{
    registry, run_registry, FigureJob, JobFilter, JobOutcome, JobStatus, RunConfig,
};
use sgx_bench_core::sgx_sim::counters;
use sgx_bench_core::sgx_sim::{Counters, Machine};
use sgx_bench_core::{BenchProfile, Figure};

const GOLDENS_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens/figure_digests.json");

fn load_goldens() -> Goldens {
    let text = std::fs::read_to_string(GOLDENS_PATH)
        .expect("tests/goldens/figure_digests.json must exist (see record_goldens)");
    Goldens::from_json(&text).expect("golden file must parse")
}

/// Assert one run's outcomes match the goldens job-for-job, profiles
/// included when the run was profiled, and that each figure's SVG follows
/// from its pinned JSON: the goldens digest the JSON only, so the figure
/// parsed back from it must render the same SVG bytes.
fn assert_matches_goldens(goldens: &Goldens, outcomes: &[JobOutcome], cfg: &RunConfig, label: &str) {
    assert_eq!(goldens.jobs.len(), outcomes.len(), "{label}: registry size changed — re-record goldens deliberately");
    for (g, o) in goldens.jobs.iter().zip(outcomes) {
        assert_eq!(g.id, o.id, "{label}: registry order changed");
        assert_eq!(o.status, JobStatus::Ok, "{label}: job {} did not complete", o.id);
        assert_eq!(
            counters_digest(&o.counters),
            g.counters,
            "{label}: counter totals of job {} drifted from the pre-refactor model",
            o.id
        );
        assert_eq!(o.profile.is_some(), cfg.profile, "{label}: job {} profile", o.id);
        if let Some(prof) = &o.profile {
            assert_eq!(
                profile_digest(&o.id, prof),
                g.profile,
                "{label}: cycle attribution of job {} shifted between CostCategory bins",
                o.id
            );
        }
        let got: Vec<(String, String)> =
            o.figures.iter().map(|f| (f.id.clone(), figure_digest(f))).collect();
        assert_eq!(
            got, g.figures,
            "{label}: figure bytes of job {} drifted from the pre-refactor model",
            o.id
        );
        for f in &o.figures {
            let back = Figure::from_json(&f.to_json()).expect("a figure's JSON parses back");
            assert_eq!(
                back.to_svg(),
                f.to_svg(),
                "{label}: the SVG of {} does not follow from its JSON",
                f.id
            );
        }
    }
}

#[test]
fn sequential_and_parallel_runs_reproduce_pre_refactor_goldens() {
    let goldens = load_goldens();
    assert_eq!(
        goldens.profile,
        BenchProfile::golden_tag(),
        "golden profile drift — goldens and BenchProfile::golden() must agree"
    );
    let reg = registry();
    let profile = BenchProfile::golden();
    // One worker gives each job every core, so on a host with two or more
    // cores the profiled run's sweeps shard, and its profile digests check
    // the list-order fold of the helpers' machine profiles.
    for (cfg, label) in [
        (RunConfig { jobs: 1, profile: true, ..RunConfig::default() }, "profiled, 1 worker"),
        (RunConfig { jobs: 4, ..RunConfig::default() }, "unprofiled, 4 workers"),
    ] {
        let outcomes = run_registry(&reg, &profile, &cfg);
        assert_matches_goldens(&goldens, &outcomes, &cfg, label);
    }
}

#[test]
fn unprofiled_one_worker_registry_reproduces_goldens() {
    // The configuration of `all_figures --jobs 1`: one worker, so each
    // job shares every core among its points, and no profiling. Its
    // sweeps take the same path as the profiled one-worker run above, but
    // only this run checks that the profiling flag moves no figure or
    // counter digest on that path.
    let goldens = load_goldens();
    let cfg = RunConfig { jobs: 1, ..RunConfig::default() };
    let outcomes = run_registry(&registry(), &BenchProfile::golden(), &cfg);
    assert_matches_goldens(&goldens, &outcomes, &cfg, "unprofiled, 1 worker");
}

#[test]
fn per_job_counters_merge_to_whole_run_totals() {
    // Conservation: the scheduler's per-job counter capture partitions
    // the stream of dropped machines; merging the parts must equal a
    // whole-run accumulation of the same jobs. Uses a fast job subset so
    // the property check stays cheap next to the golden sweep above.
    let reg = registry();
    let profile = BenchProfile::golden();
    let filter = JobFilter {
        only: vec!["fig07".into(), "fig12".into(), "ext_aggregation".into()],
        skip: vec![],
    };
    let cfg = RunConfig { jobs: 2, filter: filter.clone(), ..RunConfig::default() };
    let outcomes = run_registry(&reg, &profile, &cfg);
    let mut merged = Counters::default();
    for o in &outcomes {
        merged.merge(&o.counters);
    }
    // Whole-run reference: run the same jobs inline on this thread and
    // take the session accumulator once at the end.
    counters::session_take();
    for job in reg.iter().filter(|j| filter.selects(j.id)) {
        let run = job.run;
        let figures = run(&profile);
        drop(figures);
    }
    let whole = counters::session_take();
    assert_eq!(
        format!("{merged:?}"),
        format!("{whole:?}"),
        "merge of per-job counters must equal whole-run counters"
    );
    assert!(whole.accesses() > 0, "the conservation check must cover real work");
}

#[test]
fn machine_and_registry_are_send_clean() {
    // Compile-time proof behind the scheduler: jobs (and the machines
    // they build) may run on any worker thread.
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Machine>();
    assert_send::<Counters>();
    assert_send::<FigureJob>();
    assert_sync::<FigureJob>();
    assert_send::<BenchProfile>();
    assert_sync::<BenchProfile>();
}
