//! Perf-trajectory smoke: `BENCH_pr<N>.json` seeder.
//!
//! Measures coarse host-side throughput numbers and writes them in a
//! `BENCHMARK_DATA`-style document (schema patterned on the
//! github-action-benchmark `data.js` format, minus the `window.` JS
//! wrapper):
//!
//! * `join-smoke` — simulator events/sec while running the PHT join on a
//!   small relation pair;
//! * `scan-smoke` — simulator events/sec for a parallel linear read;
//! * `service-smoke` — queries/sec through the `sgx-serve` DES on a
//!   synthetic cost table (host-side discrete-event throughput);
//! * `service-events` — DES events/sec for the same run.
//!
//! "Events" are simulated micro-operations (loads + stores + scalar +
//! vector ops), so events/sec tracks how fast the *host* grinds through
//! simulated work — the number optimization PRs move. Every row is one
//! warmup run plus median-of-N (default N = 5) with the real min–max
//! spread in the `range` field (`sgx_bench_core::simbench::sample`);
//! simulated results stay bit-deterministic, only the wall-clock side
//! varies per host, which is why these numbers live in a checked-in
//! trajectory file rather than a test. The deeper per-kernel suite lives
//! in `sim_bench`; this bin stays the cheap cross-layer smoke whose row
//! names (`join-smoke`, `scan-smoke`) the CI trend gate watches.
//!
//! Usage: `cargo run --release -p bench --bin bench_events -- [--out FILE]
//! [--commit ID] [--reps N]` (default `--out` is stdout).

use sgx_bench_core::simbench::{document, sample, BenchRow};
use sgx_joins::common::JoinConfig;
use sgx_joins::data::{gen_fk_relation, gen_pk_relation};
use sgx_joins::pht::pht_join;
use sgx_scans::linear::{linear_read, LinearConfig, Width};
use sgx_sim::config::scaled_profile;
use sgx_sim::counters::Counters;
use sgx_sim::machine::Machine;
use sgx_sim::mem::Setting;
use std::path::PathBuf;
#[expect(
    clippy::disallowed_types,
    reason = "host wall-clock IS the metric here — events/sec of the simulator itself"
)]
use std::time::Instant;

/// Simulated micro-operations in a counter delta.
fn events(d: &Counters) -> u64 {
    d.loads + d.stores + d.alu_ops + d.vec_ops
}

/// Time one run of `f` on a machine and return events/sec.
fn rate(m: &mut Machine, f: impl FnOnce(&mut Machine)) -> f64 {
    let before = m.counters().clone();
    #[expect(
        clippy::disallowed_types,
        reason = "timing the host's simulation rate is the benchmark"
    )]
    let t0 = Instant::now();
    f(m);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    events(&m.counters().delta(&before)) as f64 / secs
}

/// PHT join smoke: events/sec at a small, fixed scale (fresh machine and
/// relations per repetition, so every run replays identical sim work).
fn join_smoke() -> f64 {
    let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
    let r = gen_pk_relation(&mut m, 1 << 14, 0xC0FFEE);
    let s = gen_fk_relation(&mut m, 1 << 16, 1 << 14, 0xBEEF);
    let cfg = JoinConfig::new(2);
    rate(&mut m, |m| {
        std::hint::black_box(pht_join(m, &r, &s, &cfg));
    })
}

/// Linear-scan smoke: events/sec over a parallel 64-bit read.
fn scan_smoke() -> f64 {
    let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
    let v = m.alloc::<u64>(1 << 18);
    let cfg = LinearConfig::new(2).with_warmup(0).with_repeats(2);
    rate(&mut m, |m| {
        std::hint::black_box(linear_read(m, &v, Width::Bits64, &cfg));
    })
}

/// One DES service run on a synthetic cost table; returns
/// (queries/sec, DES events/sec). No machine calibration — this measures
/// the event loop itself.
fn service_smoke() -> (f64, f64) {
    let costs = sgx_serve::CostTable::synthetic(64);
    let m = costs.mean_total(sgx_serve::PlanVariant::Normal);
    let mut cfg = sgx_serve::ServiceConfig::new(0xBE7C);
    cfg.sockets = 2;
    cfg.horizon_cycles = (m * 2000.0) as u64;
    cfg.faults = Some(sgx_sim::OcallFaults {
        failure_prob: 0.1,
        max_retries: 3,
        backoff_cycles: m * 0.02,
    });
    let tenants = vec![
        sgx_serve::TenantSpec {
            name: "interactive".into(),
            sessions: 64,
            arrival: sgx_serve::Arrival::Closed { think_cycles: (m * 8.0) as u64 },
            mix: vec![(sgx_tpch::Query::Q12, 3), (sgx_tpch::Query::Q19, 1)],
            deadline_cycles: (m * 40.0) as u64,
        },
        sgx_serve::TenantSpec {
            name: "analytics".into(),
            sessions: 32,
            arrival: sgx_serve::Arrival::Open { mean_gap_cycles: (m * 12.0) as u64 },
            mix: vec![(sgx_tpch::Query::Q3, 1), (sgx_tpch::Query::Q10, 1)],
            deadline_cycles: (m * 300.0) as u64,
        },
    ];
    #[expect(clippy::disallowed_types, reason = "timing the host's DES rate is the benchmark")]
    let t0 = Instant::now();
    let out = sgx_serve::run_service(&cfg, &tenants, &costs);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    if let Err(e) = out.reconcile() {
        eprintln!("bench_events: service smoke failed to reconcile: {e}");
        std::process::exit(1);
    }
    (out.total.submitted as f64 / secs, out.events_processed as f64 / secs)
}

fn main() {
    let mut out_path: Option<PathBuf> = None;
    let mut commit = "worktree".to_string();
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().map(PathBuf::from),
            "--commit" => {
                if let Some(c) = args.next() {
                    commit = c;
                }
            }
            "--reps" => {
                reps = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bench_events: --reps needs a number");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("bench_events: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let mut rows: Vec<BenchRow> = Vec::new();
    let mut push = |name: &str, s: sgx_bench_core::simbench::Sample, unit: &str| {
        eprintln!(
            "bench_events: {name:<14} {:>14.1} {unit}  (min {:.1}, max {:.1}, N={reps})",
            s.median, s.min, s.max
        );
        rows.push(BenchRow { name: name.into(), value: s.median, range: s.range(), unit: unit.into() });
    };

    push("join-smoke", sample(1, reps, join_smoke), "events/sec");
    push("scan-smoke", sample(1, reps, scan_smoke), "events/sec");

    // The two service metrics come from the same run; sample each
    // independently so the medians stay honest per metric.
    push("service-smoke", sample(1, reps, || service_smoke().0), "queries/sec");
    push("service-events", sample(1, reps, || service_smoke().1), "events/sec");

    let doc = document(&commit, "cross-layer perf smoke (median-of-N)", &rows);
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, doc.pretty() + "\n") {
                eprintln!("bench_events: write {}: {e}", p.display());
                std::process::exit(1);
            }
            eprintln!("bench_events: wrote {}", p.display());
        }
        None => println!("{}", doc.pretty()),
    }
}
