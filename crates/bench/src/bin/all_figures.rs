//! Regenerate every table and figure of the paper — resiliently and in
//! parallel.
//!
//! Figure jobs run on a work-stealing-lite thread pool
//! (`sgx_bench_core::runner::run_registry`): `--jobs N` worker threads
//! pull jobs from a shared cursor, each job owns its own deterministic
//! `Machine`s, and results are committed in registry order — so every
//! figure JSON is byte-identical for any `--jobs` value
//! (`tests/integration_equivalence.rs` checks runs on one and on four
//! workers against the same golden digests). A panicking experiment (a
//! violated shape assertion, a model regression) is isolated and
//! recorded, the run continues, and the process exits nonzero if
//! anything failed. The outcome of every registered job lands in
//! `target/figures/manifest.json` (schema `sgx-bench-manifest/1`).
//!
//! The options are listed in [`USAGE`], which `--help` prints; an
//! unknown option exits 2 before any job runs.

use std::process::ExitCode;

use sgx_bench_core::runner::{
    default_jobs, registry, JobFilter, JobStatus, Manifest, RunConfig,
};
use sgx_bench_core::sgx_sim::Counters;
use sgx_bench_core::RunOpts;

const MANIFEST_PATH: &str = "target/figures/manifest.json";

const USAGE: &str = "\
usage: all_figures [options]
  --full | --reps N | --scale N   profile selection
  --jobs N|max                    worker threads (default: all cores)
  --only id[,id...]               run only the named jobs
  --skip id[,id...]               exclude the named jobs
  --retry-failed                  --only = failed ids of the last manifest
  --profile                       collect per-phase cycle attribution and
                                  write <id>.profile.json / .profile.svg
  --list                          print registered job ids and exit
  --help                          print this text and exit";

/// Everything the harness-specific flags parse into; the remainder of
/// argv goes to `RunOpts::parse_from` (which rejects what it does not
/// know).
struct HarnessArgs {
    help: bool,
    filter: JobFilter,
    jobs: usize,
    list: bool,
    retry_failed: bool,
    profile: bool,
    rest: Vec<String>,
}

fn parse_harness_args(args: impl IntoIterator<Item = String>) -> Result<HarnessArgs, String> {
    let mut parsed = HarnessArgs {
        help: false,
        filter: JobFilter::default(),
        jobs: default_jobs(),
        list: false,
        retry_failed: false,
        profile: false,
        rest: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" | "--skip" => {
                let val = it.next().ok_or_else(|| format!("{arg} needs a job id list"))?;
                let dst =
                    if arg == "--only" { &mut parsed.filter.only } else { &mut parsed.filter.skip };
                dst.extend(
                    val.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from),
                );
            }
            "--jobs" => {
                let val = it.next().ok_or_else(|| "--jobs needs a thread count".to_string())?;
                parsed.jobs = match val.as_str() {
                    "max" => default_jobs(),
                    n => n
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs needs a positive integer or 'max', got {n:?}"))?,
                };
            }
            "--help" | "-h" => parsed.help = true,
            "--list" => parsed.list = true,
            "--retry-failed" => parsed.retry_failed = true,
            "--profile" => parsed.profile = true,
            _ => parsed.rest.push(arg),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let mut args = match parse_harness_args(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // Parsed before any mode runs, so an unknown option always exits 2.
    let opts = RunOpts::parse_from(std::mem::take(&mut args.rest));
    let jobs = registry();
    if args.list {
        for job in &jobs {
            println!("{}", job.id);
        }
        return ExitCode::SUCCESS;
    }
    if args.retry_failed {
        let prev = std::fs::read_to_string(MANIFEST_PATH)
            .map_err(|e| e.to_string())
            .and_then(|t| Manifest::from_json(&t));
        match prev {
            Ok(prev) => {
                let failed = prev.failed_ids();
                if failed.is_empty() {
                    eprintln!("--retry-failed: previous manifest has no failed jobs; nothing to do");
                    return ExitCode::SUCCESS;
                }
                eprintln!("--retry-failed: re-running {}", failed.join(", "));
                args.filter.only.extend(failed);
            }
            Err(e) => {
                eprintln!("error: --retry-failed could not read {MANIFEST_PATH}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let unknown = args.filter.unknown_ids(&jobs);
    if !unknown.is_empty() {
        eprintln!("error: unknown job id(s): {} (see --list)", unknown.join(", "));
        return ExitCode::FAILURE;
    }

    let profile = opts.profile();
    eprintln!(
        "profile: {} (data 1/{}, {} reps, {} jobs)",
        profile.hw.name, profile.data_div, profile.reps, args.jobs
    );

    let cfg = RunConfig {
        jobs: args.jobs,
        filter: args.filter,
        profile: args.profile,
        // Deterministic failure hook for the CI negative test.
        fail_injection: std::env::var("ALL_FIGURES_FAIL").ok(),
    };
    let outcomes = sgx_bench_core::runner::run_registry(&jobs, &profile, &cfg);

    // Emission happens on the main thread in registry order, after all
    // jobs finished — output files never depend on scheduling.
    for outcome in &outcomes {
        for figure in &outcome.figures {
            figure.emit();
        }
        if let Some(p) = &outcome.profile {
            sgx_bench_core::report::emit_profile(&outcome.id, p);
        }
    }

    let manifest = Manifest::from_outcomes(&outcomes);
    let (n_ok, n_failed, n_skipped) = (
        manifest.count(JobStatus::Ok),
        manifest.count(JobStatus::Failed),
        manifest.count(JobStatus::Skipped),
    );
    let write = std::fs::create_dir_all("target/figures")
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::write(MANIFEST_PATH, manifest.to_json()).map_err(|e| e.to_string()));
    if let Err(e) = write {
        eprintln!("error: could not write {MANIFEST_PATH}: {e}");
        return ExitCode::FAILURE;
    }

    // Aggregate counter table: the merged totals of every machine every
    // job created — harness-level observability for "where did the run's
    // simulated work go".
    let mut total = Counters::default();
    for outcome in &outcomes {
        total.merge(&outcome.counters);
    }
    println!("== aggregate simulated counters ({n_ok} jobs ok) ==");
    print!("{}", total.report());

    eprintln!("manifest: {MANIFEST_PATH} ({n_ok} ok, {n_failed} failed, {n_skipped} skipped)");
    if n_failed > 0 {
        eprintln!("failed jobs: {}", manifest.failed_ids().join(", "));
        eprintln!("re-run just these with: all_figures --retry-failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
