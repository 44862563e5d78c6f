//! Refactor-equivalence suite: proves the layered machine pipeline
//! (DESIGN.md §10) and the parallel figure scheduler changed *nothing*
//! about the model.
//!
//! `tests/goldens/figure_digests.json` was recorded by
//! `cargo run --release -p bench --bin record_goldens` on the
//! pre-refactor (monolithic `machine.rs`, sequential harness) tree under
//! `BenchProfile::golden()`. These tests re-run the full registry — once
//! sequentially and once on 4 worker threads, with per-job cycle
//! profiling on, then once unprofiled on one worker — and assert each run
//! reproduces every golden digest exactly: every figure's JSON bytes,
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

/// Assert one run's outcomes match the goldens job-for-job, and that each
/// figure's SVG follows from its pinned JSON: the goldens digest the JSON
/// only, so the figure parsed back from it must render the same SVG bytes.
fn assert_matches_goldens(goldens: &Goldens, outcomes: &[JobOutcome], label: &str) {
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
        let prof = o.profile.as_ref().expect("equivalence runs are profiled");
        assert_eq!(
            profile_digest(&o.id, prof),
            g.profile,
            "{label}: cycle attribution of job {} shifted between CostCategory bins",
            o.id
        );
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
    let seq = run_registry(&reg, &profile, &RunConfig { jobs: 1, profile: true, ..RunConfig::default() });
    let par = run_registry(&reg, &profile, &RunConfig { jobs: 4, profile: true, ..RunConfig::default() });
    assert_matches_goldens(&goldens, &seq, "sequential");
    assert_matches_goldens(&goldens, &par, "parallel(4)");
}

#[test]
fn unprofiled_one_worker_registry_reproduces_goldens() {
    // The golden sweep above runs profiled, which keeps every sweep's
    // points on one thread. Unprofiled, a one-worker run gives each job
    // every core to share its points among, and must still reproduce
    // every job's figure and counter digests.
    let goldens = load_goldens();
    let cfg = RunConfig { jobs: 1, ..RunConfig::default() };
    let outcomes = run_registry(&registry(), &BenchProfile::golden(), &cfg);
    assert_eq!(goldens.jobs.len(), outcomes.len(), "registry size changed");
    for (golden, o) in goldens.jobs.iter().zip(&outcomes) {
        let id = &o.id;
        assert_eq!(&golden.id, id, "registry order changed");
        assert_eq!(o.status, JobStatus::Ok, "{id} failed: {:?}", o.error);
        assert!(o.profile.is_none());
        assert_eq!(counters_digest(&o.counters), golden.counters, "{id} counters drifted");
        let got: Vec<(String, String)> =
            o.figures.iter().map(|f| (f.id.clone(), figure_digest(f))).collect();
        assert_eq!(got, golden.figures, "{id} figure bytes drifted");
    }
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
