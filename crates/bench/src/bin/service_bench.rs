//! Standalone driver for the `sgx-serve` multi-tenant service model.
//!
//! Calibrates the four §6 TPC-H plans on a real simulated machine at one
//! stress point (AEX interrupt rate + EPC pressure level), then serves
//! the fixed two-tenant workload through the deterministic DES and
//! reports counters and exact latency percentiles. The simulated side of
//! the report is byte-identical across runs and hosts; host-side rates
//! (DES events/sec, queries/sec) go to stderr only.
//!
//! Usage:
//!   service_bench [--scale N] [--aex RATE] [--epc LEVEL] [--native]
//!                 [--no-admission] [--no-degrade] [--overload X]
//!                 [--expect-shedding] [--json FILE]
//!
//! `--scale N` takes an integer N >= 1 (1 is paper scale). `--aex RATE`
//! takes a finite RATE >= 0 (AEX interrupts per million cycles), and
//! `--epc LEVEL` a finite LEVEL in [0, 1) (the share of the calm
//! high-water mark the pressure balloon takes away; at 1 only the 4 KB
//! floor the calibration clamps to would be left). `--overload X` divides
//! every tenant's think/gap time by a finite X > 0 to push the offered
//! load past capacity. Any other value exits 2.
//! `--expect-shedding` exits nonzero unless the run rejected at least one
//! query — the CI overload gate runs this twice: once as a positive
//! check, once with `--no-admission` expecting the check itself to fail
//! (a service that cannot shed must not pass).

use sgx_bench_core::experiments::service::{calibrate, service_config, tenants, StressPoint};
use sgx_bench_core::json::Value;
use sgx_bench_core::percentile::Histogram;
use sgx_bench_core::profiles::BenchProfile;
use sgx_serve::{run_service, Arrival, ServiceOutcome};
use sgx_sim::config::xeon_gold_6326;
use sgx_sim::Setting;
#[expect(
    clippy::disallowed_types,
    reason = "host wall-clock feeds stderr rates only, never the JSON report"
)]
use std::time::Instant;

/// Print `message` and exit 2, the status of a usage error.
fn usage_error(message: &str) -> ! {
    eprintln!("service_bench: {message}");
    std::process::exit(2);
}

fn parse_f64(v: Option<String>, what: &str) -> f64 {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{what} needs a numeric value")))
}

fn main() {
    let mut scale: usize = 512;
    let mut stress = StressPoint { aex_per_mcycle: 0.0, epc_level: 0.0 };
    let mut setting = Setting::SgxDataInEnclave;
    let mut admission = true;
    let mut degrade = true;
    let mut overload = 1.0f64;
    let mut expect_shedding = false;
    let mut json_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--scale needs an integer >= 1"));
            }
            "--aex" => {
                stress.aex_per_mcycle = parse_f64(args.next(), "--aex");
                if !(stress.aex_per_mcycle.is_finite() && stress.aex_per_mcycle >= 0.0) {
                    usage_error("--aex needs a finite value >= 0");
                }
            }
            "--epc" => {
                stress.epc_level = parse_f64(args.next(), "--epc");
                if !(0.0..1.0).contains(&stress.epc_level) {
                    usage_error("--epc needs a finite value in [0, 1)");
                }
            }
            "--native" => setting = Setting::PlainCpu,
            "--no-admission" => admission = false,
            "--no-degrade" => degrade = false,
            "--overload" => {
                overload = parse_f64(args.next(), "--overload");
                if !(overload.is_finite() && overload > 0.0) {
                    usage_error("--overload needs a finite value > 0");
                }
            }
            "--expect-shedding" => expect_shedding = true,
            "--json" => json_out = args.next(),
            other => usage_error(&format!("unknown argument {other}")),
        }
    }

    let p = BenchProfile { hw: xeon_gold_6326().scaled(scale), data_div: scale, reps: 1 };
    eprintln!(
        "service_bench: calibrating at scale {scale}, aex={}/Mcycle, epc={}, {}",
        stress.aex_per_mcycle,
        stress.epc_level,
        setting.label()
    );
    #[expect(clippy::disallowed_types, reason = "calibration wall-clock goes to stderr only")]
    let t0 = Instant::now();
    let cal = calibrate(&p, setting, stress);
    eprintln!("service_bench: calibration took {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    // The workload is sized from THIS table's mean so the bin is useful
    // standalone at any scale; the registry experiment instead anchors
    // every point to the calm enclave mean.
    let m = cal.costs.mean_total(sgx_serve::PlanVariant::Normal);
    eprintln!(
        "service_bench: mean plan cost {:.0} cycles normal, {:.0} degraded ({} byte footprint)",
        m,
        cal.costs.mean_total(sgx_serve::PlanVariant::Degraded),
        cal.db_bytes
    );
    let mut cfg = service_config(m, stress.epc_level, degrade);
    cfg.admission.enabled = admission;
    let mut ts = tenants(m);
    if overload != 1.0 {
        for t in &mut ts {
            t.arrival = match t.arrival {
                Arrival::Open { mean_gap_cycles } => Arrival::Open {
                    mean_gap_cycles: ((mean_gap_cycles as f64 / overload) as u64).max(1),
                },
                Arrival::Closed { think_cycles } => Arrival::Closed {
                    think_cycles: ((think_cycles as f64 / overload) as u64).max(1),
                },
            };
        }
    }

    #[expect(
        clippy::disallowed_types,
        reason = "DES wall-clock feeds the stderr events/sec rate only"
    )]
    let t0 = Instant::now();
    let out = run_service(&cfg, &ts, &cal.costs);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    if let Err(e) = out.reconcile() {
        eprintln!("service_bench: counters failed to reconcile: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "service_bench: {} events, {} queries in {:.1} ms ({:.0} events/sec, {:.0} queries/sec)",
        out.events_processed,
        out.total.submitted,
        secs * 1e3,
        out.events_processed as f64 / secs,
        out.total.submitted as f64 / secs,
    );
    let c = &out.total;
    eprintln!(
        "service_bench: submitted={} admitted={} rejected={} completed={} timed_out={} \
         retries={} degraded={}",
        c.submitted, c.admitted, c.rejected, c.completed, c.timed_out, c.retries, c.degraded
    );
    for (q, lats) in &out.latencies {
        let h: Histogram = lats.iter().copied().collect();
        eprintln!(
            "service_bench: {q:?} n={} p50={} p95={} p99={} cycles",
            h.len(),
            h.p50().unwrap_or(0),
            h.p95().unwrap_or(0),
            h.p99().unwrap_or(0),
        );
    }

    let doc = report(scale, &stress, setting, &out);
    match &json_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, doc.pretty() + "\n") {
                eprintln!("service_bench: write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("service_bench: wrote {path}");
        }
        None => println!("{}", doc.pretty()),
    }

    if expect_shedding && out.total.rejected == 0 {
        eprintln!("service_bench: FAIL — expected admission control to shed load, rejected=0");
        std::process::exit(1);
    }
}

/// The byte-stable simulated-side report (no wall-clock anywhere).
fn report(scale: usize, stress: &StressPoint, setting: Setting, out: &ServiceOutcome) -> Value {
    let counters = |c: &sgx_serve::ServiceCounters| {
        Value::Obj(vec![
            ("submitted".into(), Value::Num(c.submitted as f64)),
            ("admitted".into(), Value::Num(c.admitted as f64)),
            ("rejected".into(), Value::Num(c.rejected as f64)),
            ("completed".into(), Value::Num(c.completed as f64)),
            ("timed_out".into(), Value::Num(c.timed_out as f64)),
            ("retries".into(), Value::Num(c.retries as f64)),
            ("degraded".into(), Value::Num(c.degraded as f64)),
        ])
    };
    let classes: Vec<Value> = out
        .latencies
        .iter()
        .map(|(q, lats)| {
            let h: Histogram = lats.iter().copied().collect();
            Value::Obj(vec![
                ("class".into(), Value::Str(format!("{q:?}"))),
                ("n".into(), Value::Num(h.len() as f64)),
                ("p50_cycles".into(), Value::Num(h.p50().unwrap_or(0) as f64)),
                ("p95_cycles".into(), Value::Num(h.p95().unwrap_or(0) as f64)),
                ("p99_cycles".into(), Value::Num(h.p99().unwrap_or(0) as f64)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("scale".into(), Value::Num(scale as f64)),
        ("setting".into(), Value::Str(setting.label().into())),
        ("aex_per_mcycle".into(), Value::Num(stress.aex_per_mcycle)),
        ("epc_level".into(), Value::Num(stress.epc_level)),
        ("events_processed".into(), Value::Num(out.events_processed as f64)),
        ("end_cycles".into(), Value::Num(out.end_cycles as f64)),
        ("total".into(), counters(&out.total)),
        ("classes".into(), Value::Arr(classes)),
    ])
}
