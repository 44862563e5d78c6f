//! perfbench worker: one measured pass per process.
//!
//! `run.py` starts a fresh process for every measured pass, so work cached
//! across passes can only show up in `setup_s` or `peak_rss_mb`. Modes:
//!
//! * `setup` — parse the goldens, build the profile and registry, report
//!   `setup_s` and exit;
//! * `run` — untraced: run the workload's registry jobs on one worker
//!   thread, check every figure and counter digest against the goldens,
//!   and report host seconds, simulated events and peak memory;
//! * `trace` — run every registry job and every layer kernel under spans,
//!   write the spans as Chrome trace-event JSON, report per-layer rows.
//!
//! Each mode prints one JSON object on stdout and exits 0 when every check
//! passed, 1 when a job failed or a digest or count differed, 2 on a usage
//! error or a golden file that cannot be used.
//!
//! ```text
//! perfbench setup|run|trace --workload NAME [--goldens PATH] [--seed N] [--trace-out PATH]
//! ```

mod layers;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use sgx_bench_core::golden::{counters_digest, figure_digest, Goldens};
use sgx_bench_core::runner::{
    registry, run_registry, FigureJob, JobFilter, JobOutcome, JobStatus, RunConfig,
};
use sgx_bench_core::BenchProfile;

use crate::layers::{counter_args, events, Layers};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Registry worker threads: one, so `wall_s` is the sum of job costs.
const WORKERS: usize = 1;

enum Mode {
    Setup,
    Run,
    Trace,
}

struct Args {
    mode: Mode,
    workload: &'static Workload,
    goldens: String,
    seed: u64,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = match it.next().as_deref() {
        Some("setup") => Mode::Setup,
        Some("run") => Mode::Run,
        Some("trace") => Mode::Trace,
        other => return Err(format!("expected a mode (setup|run|trace), got {other:?}")),
    };
    let mut workload = None;
    let mut goldens = "tests/goldens/figure_digests.json".to_string();
    let mut seed = 1u64;
    let mut trace_out = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--goldens" => goldens = value,
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value:?}"))?
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        mode,
        workload,
        goldens,
        seed,
        trace_out,
    })
}

/// Read the golden file and refuse it unless it was recorded under the
/// golden profile.
fn load_goldens(path: &str) -> Result<Goldens, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let goldens = Goldens::from_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
    if goldens.profile != BenchProfile::golden_tag() {
        return Err(format!(
            "{path} was recorded under profile {:?}, not {:?}",
            goldens.profile,
            BenchProfile::golden_tag()
        ));
    }
    Ok(goldens)
}

/// Check one job's outcome against its golden record.
fn verdict(outcome: &JobOutcome, goldens: &Goldens) -> Result<(), String> {
    let id = &outcome.id;
    if outcome.status != JobStatus::Ok {
        return Err(format!(
            "{id}: {}",
            outcome.error.as_deref().unwrap_or("did not run")
        ));
    }
    let golden = goldens
        .jobs
        .iter()
        .find(|g| &g.id == id)
        .ok_or_else(|| format!("{id}: no golden record"))?;
    let figures: Vec<(String, String)> = outcome
        .figures
        .iter()
        .map(|f| (f.id.clone(), figure_digest(f)))
        .collect();
    if figures != golden.figures {
        return Err(format!("{id}: figure digests differ from the goldens"));
    }
    if counters_digest(&outcome.counters) != golden.counters {
        return Err(format!("{id}: counter digest differs from the goldens"));
    }
    Ok(())
}

/// Run the selected registry jobs sequentially on this thread.
fn run_jobs(registry: &[FigureJob], profile: &BenchProfile, ids: &[&str]) -> Vec<JobOutcome> {
    let cfg = RunConfig {
        jobs: WORKERS,
        filter: JobFilter {
            only: ids.iter().map(|s| s.to_string()).collect(),
            skip: Vec::new(),
        },
        fail_injection: None,
        profile: false,
    };
    run_registry(registry, profile, &cfg)
        .into_iter()
        .filter(|o| o.status != JobStatus::Skipped)
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One job's record in a report: id, host seconds, counter digest.
fn job_json(outcome: &JobOutcome, secs: f64) -> String {
    format!(
        "{{\"id\": {}, \"s\": {}, \"counters\": {}}}",
        json_str(&outcome.id),
        json_num(secs),
        json_str(&counters_digest(&outcome.counters))
    )
}

fn list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let goldens = match load_goldens(&args.goldens) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            return ExitCode::from(2);
        }
    };
    let profile = BenchProfile::golden();
    let registry = registry();
    let setup_s = started.elapsed().as_secs_f64();
    let (report, failed) = match args.mode {
        Mode::Setup => (format!("{{\"setup_s\": {}}}", json_num(setup_s)), 0),
        Mode::Run => run_pass(&args, &goldens, &registry, &profile, setup_s),
        Mode::Trace => trace_pass(&args, &goldens, &registry, &profile),
    };
    println!("{report}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Untraced pass over the workload's jobs; returns the report and the
/// number of failed jobs.
fn run_pass(
    args: &Args,
    goldens: &Goldens,
    registry: &[FigureJob],
    profile: &BenchProfile,
    setup_s: f64,
) -> (String, u64) {
    let t = Instant::now();
    let outcomes = run_jobs(registry, profile, args.workload.jobs);
    let problems: Vec<String> = outcomes
        .iter()
        .filter_map(|o| verdict(o, goldens).err())
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    let job_max_s = outcomes.iter().map(|o| o.seconds).fold(0.0, f64::max);
    let sim_events: u64 = outcomes.iter().map(|o| events(&o.counters)).sum();
    let report = format!(
        "{{\"mode\": \"run\", \"workload\": {}, \"workers\": {WORKERS}, \"setup_s\": {}, \"wall_s\": {}, \
         \"job_max_s\": {}, \"sim_events\": {sim_events}, \"peak_rss_mb\": {}, \"attempted\": {}, \
         \"failed\": {}, \"problems\": {}, \"jobs\": {}}}",
        json_str(args.workload.name),
        json_num(setup_s),
        json_num(wall_s),
        json_num(job_max_s),
        json_num(peak_rss_mb()),
        outcomes.len(),
        problems.len(),
        list(problems.iter().map(|p| json_str(p))),
        list(outcomes.iter().map(|o| job_json(o, o.seconds))),
    );
    (report, problems.len() as u64)
}

/// Traced pass: every registry job under its own span (job rows exist for
/// every workload), then every layer kernel.
fn trace_pass(
    args: &Args,
    goldens: &Goldens,
    registry: &[FigureJob],
    profile: &BenchProfile,
) -> (String, u64) {
    let mut tr = Tracer::new(args.seed);
    let root = tr.open("run");
    let mut jobs = Vec::new();
    let mut problems = Vec::new();
    for job in registry {
        let ((outcome, verdict), id) = tr.span(&format!("job.{}", job.id), |_| {
            let outcome = run_jobs(registry, profile, &[job.id]).pop();
            let verdict = outcome.as_ref().map_or_else(
                || Err(format!("{}: did not run", job.id)),
                |o| verdict(o, goldens),
            );
            (outcome, verdict)
        });
        if let Err(p) = verdict {
            problems.push(p);
        }
        if let Some(o) = outcome {
            tr.set_args(id, counter_args(&o.counters));
            jobs.push(job_json(&o, tr.secs(id)));
        }
    }
    let job_attempts = registry.len() as u64;
    let mut layers = Layers::new(&mut tr, args.seed);
    layers.run_all();
    let (rows, attempted) = (std::mem::take(&mut layers.rows), layers.attempted);
    problems.extend(std::mem::take(&mut layers.problems));
    tr.close(root);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, tr.to_chrome_json()) {
            problems.push(format!("write {path}: {e}"));
        }
    }
    let failed = problems.len() as u64;
    let report = format!(
        "{{\"mode\": \"trace\", \"workload\": {}, \"seed\": {}, \"workers\": {WORKERS}, \"peak_rss_mb\": {}, \
         \"attempted\": {}, \"failed\": {failed}, \"problems\": {}, \"jobs\": {}, \"rows\": {{{}}}}}",
        json_str(args.workload.name),
        args.seed,
        json_num(peak_rss_mb()),
        job_attempts + attempted,
        list(problems.iter().map(|p| json_str(p))),
        list(jobs),
        rows.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v))).collect::<Vec<_>>().join(", "),
    );
    (report, failed)
}
