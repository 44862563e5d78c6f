//! Record the refactor-equivalence goldens (`tests/goldens/`).
//!
//! Runs the full figure registry on one worker under the dedicated golden
//! profile (`BenchProfile::golden()`) with per-job cycle-attribution
//! profiling on, digests every figure's JSON bytes, every job's counter
//! report, and every job's `<job>.profile.json` bytes, and writes
//! `tests/goldens/figure_digests.json`. The digests pin the cost model —
//! including where each cycle lands across the nine `CostCategory` bins:
//! `tests/integration_equivalence.rs` asserts that later trees — and
//! parallel `--jobs N` runs — reproduce them bit-for-bit.
//!
//! Re-run this bin ONLY when a PR deliberately changes the model (new
//! experiment, recalibrated constant) — never to paper over an
//! unexplained mismatch; that mismatch is the tool working.

use std::process::ExitCode;

use sgx_bench_core::golden::{counters_digest, figure_digest, profile_digest, GoldenJob, Goldens};
use sgx_bench_core::runner::{registry, run_registry, JobStatus, RunConfig};
use sgx_bench_core::BenchProfile;

const GOLDENS_PATH: &str = "tests/goldens/figure_digests.json";

fn main() -> ExitCode {
    let jobs = registry();
    let profile = BenchProfile::golden();
    eprintln!("recording goldens under profile: {}", BenchProfile::golden_tag());
    // One worker on purpose: the goldens define the reference outcome,
    // and `jobs: 1` runs the jobs one after another. Each job's sweeps
    // still share the host's cores among their points, but a sweep
    // returns its results in list order and appends its points' sessions
    // (counters and machine profiles) in list order, which is the order
    // the pre-parallel harness built and dropped their machines in. So the
    // goldens this writes do not change with the host's core count.
    // Profiling on so the goldens also pin per-bin cycle attribution.
    let cfg = RunConfig { jobs: 1, profile: true, ..RunConfig::default() };
    let outcomes = run_registry(&jobs, &profile, &cfg);
    let failed: Vec<&str> =
        outcomes.iter().filter(|o| o.status != JobStatus::Ok).map(|o| o.id.as_str()).collect();
    if !failed.is_empty() {
        eprintln!("error: goldens need every job ok; failed/skipped: {}", failed.join(", "));
        return ExitCode::FAILURE;
    }
    let goldens = Goldens {
        profile: BenchProfile::golden_tag().to_string(),
        jobs: outcomes
            .iter()
            .map(|o| GoldenJob {
                id: o.id.clone(),
                counters: counters_digest(&o.counters),
                profile: profile_digest(
                    &o.id,
                    o.profile.as_ref().expect("profiled run carries a profile per ok job"),
                ),
                figures: o.figures.iter().map(|f| (f.id.clone(), figure_digest(f))).collect(),
            })
            .collect(),
    };
    let write = std::fs::create_dir_all("tests/goldens")
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::write(GOLDENS_PATH, goldens.to_json()).map_err(|e| e.to_string()));
    if let Err(e) = write {
        eprintln!("error: could not write {GOLDENS_PATH}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {GOLDENS_PATH} ({} jobs)", goldens.jobs.len());
    ExitCode::SUCCESS
}
