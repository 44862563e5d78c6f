//! Service-tail extension: the robustness question behind the paper.
//!
//! The paper measures batch kernels on a quiet machine; a production
//! enclave engine (the DuckDB-SGX2 / Polars-in-SGX2 endgame of the
//! related work) is a *service* — thousands of concurrent client
//! sessions multiplexed over a bounded worker pool, where AEX storms and
//! EPC pressure surface as tail latency and shed load, not just
//! throughput loss. `ext_service_tail` makes that measurable:
//!
//! 1. **Calibrate.** For each stress point (AEX interrupt rate or EPC
//!    pressure level) and each setting (native / enclave), run the four
//!    §6 TPC-H plans through [`run_query`] on a real [`Machine`] with
//!    that fault profile installed, keeping the exact per-operator
//!    cycles of `QueryStats::ops` — every cost the service model uses was
//!    charged through the simulator's `Core::commit(Charge)` choke
//!    point and is covered by its conservation tests.
//! 2. **Serve.** Feed those [`CostTable`]s to the deterministic
//!    discrete-event service in `sgx-serve`: one fixed multi-tenant
//!    workload (open- and closed-loop sessions, per-tenant query mixes,
//!    deadlines) replayed identically at every stress point, with
//!    admission control, bounded-backoff retries for injected transient
//!    step faults, and EPC-triggered plan degradation.
//! 3. **Report.** Exact (nearest-rank) p50/p95/p99 latency and
//!    goodput/shed/timeout fractions vs stress — the degradation curves
//!    an operator would use to pick an admission threshold.

use crate::percentile::Histogram;
use crate::profiles::BenchProfile;
use crate::report::{Figure, Stat};
use crate::sweep::sweep;
use sgx_serve::{
    run_service, AdmissionPolicy, Arrival, CostTable, DegradePolicy, PlanCost, PlanVariant,
    ServiceConfig, ServiceOutcome, TenantSpec,
};
use sgx_sim::{FaultProfile, Machine, OcallFaults, Setting};
use sgx_tpch::{cost_estimate, generate, run_query, Query, QueryConfig, TpchDb};
use std::collections::BTreeMap;

/// AEX interrupt rates swept, per million cycles; the first, 0, is the
/// calm baseline.
const AEX_RATES: [f64; 3] = [0.0, 80.0, 320.0];
/// EPC pressure levels swept: fraction of the database's footprint the
/// balloon steals once inflated; the first, 0, is no balloon.
const EPC_LEVELS: [f64; 3] = [0.0, 0.4, 0.7];
/// Paper-scale TPC-H factor the service plans run at.
const PAPER_SF: f64 = 4.0;
/// One fixed seed: the workload replays identically at every stress
/// point, so the curves isolate the fault response.
const SEED: u64 = 0x5E12_71CE;

/// Transient step-fault parameters injected into the service: per-step
/// kill probability, bounded retries, base backoff as a fraction of the
/// calm mean plan cost.
const STEP_FAILURE_PROB: f64 = 0.15;
const STEP_MAX_RETRIES: u32 = 4;
const BACKOFF_FRACTION_OF_MEAN: f64 = 0.02;

/// One stress point of the sweep (public so `service_bench` can drive
/// the same calibration + service pipeline from the command line).
#[derive(Debug, Clone, Copy)]
pub struct StressPoint {
    /// AEX interrupts per million cycles (0 = calm).
    pub aex_per_mcycle: f64,
    /// Fraction of the calm pass's allocation high-water mark the EPC
    /// balloon steals (0 = off).
    pub epc_level: f64,
}

/// Exact byte footprint of the generated columns (the EPC balloon is
/// sized relative to this so pressure levels mean the same thing at any
/// benchmark scale).
fn db_bytes(db: &TpchDb) -> usize {
    let cust = db.customer.custkey.len();
    let ord = db.orders.orderkey.len();
    let li = db.lineitem_len();
    let part = db.part.partkey.len();
    4 * (3 * cust + 3 * ord + 11 * li + 4 * part + 25)
}

/// Run one plan and return its exact per-operator cycle costs, each
/// clamped to at least one cycle.
fn measure_steps(m: &mut Machine, db: &TpchDb, q: Query, threads: usize, optimized: bool) -> Vec<u64> {
    let cfg = QueryConfig::new(threads).with_optimization(optimized);
    run_query(m, db, q, &cfg).ops.iter().map(|&(_, c)| (c.max(0.0) as u64).max(1)).collect()
}

/// Calibrate a [`CostTable`] for one (setting, stress point): real plans,
/// real machine, the stress point's fault profile installed. The
/// admission estimate comes from [`cost_estimate`]'s cardinality model,
/// scaled into cycles with one table-wide factor — deliberately coarser
/// than the measured steps, like a planner's estimate would be.
///
/// Native calibrations ignore `stress.epc_level`: the pressure balloon
/// pages through the SGXv1-style pager, which only exists in enclave
/// mode, so a native table at any EPC level equals the calm one.
pub fn calibrate(p: &BenchProfile, setting: Setting, stress: StressPoint) -> Calibration {
    // The EPC balloon must be sized against the calm pass's allocation
    // high-water mark, not the table footprint: the simulator's bump
    // allocator never frees, so the pager prices pages of everything
    // the eight plan runs ever allocate (intermediates included). A
    // balloon below the table size alone would thrash at any level.
    let resident = (stress.epc_level > 0.0).then(|| {
        let dry = measure_all(p, setting, None);
        ((dry.high_water as f64 * (1.0 - stress.epc_level)) as usize).max(4096)
    });
    let mut fp = FaultProfile::new(0xFA17_5E12 ^ SEED);
    if stress.aex_per_mcycle > 0.0 {
        fp = fp.with_aex_storm(1.0e6 / stress.aex_per_mcycle);
    }
    if let Some(r) = resident {
        fp = fp.with_epc_pressure(0.0, r);
    }
    let run = measure_all(p, setting, Some(fp));

    // One cycles-per-estimate-unit factor across classes.
    let total_cycles: u64 = run.steps.values().map(|(n, _)| n.iter().sum::<u64>()).sum();
    let total_units: f64 = run.estimate_units.values().sum();
    let k = total_cycles as f64 / total_units.max(1.0);
    let mut table = CostTable::new();
    for (q, (normal, degraded)) in run.steps {
        let estimate = (run.estimate_units[&q] * k) as u64;
        table.insert(q, PlanCost { normal_steps: normal, degraded_steps: degraded, estimate });
    }
    Calibration { costs: table, db_bytes: run.db_bytes, high_water: run.high_water }
}

/// One full measurement pass: fresh machine, fresh database, all four
/// plans in both variants.
struct MeasuredPass {
    steps: BTreeMap<Query, (Vec<u64>, Vec<u64>)>,
    estimate_units: BTreeMap<Query, f64>,
    db_bytes: usize,
    high_water: u64,
}

fn measure_all(p: &BenchProfile, setting: Setting, fp: Option<FaultProfile>) -> MeasuredPass {
    let threads = 16.min(p.hw.cores_per_socket);
    let mut m = Machine::new(p.hw.clone(), setting);
    let db = generate(&mut m, p.tpch_sf(PAPER_SF), SEED);
    if let Some(fp) = fp {
        m.install_faults(fp);
    }
    let mut steps = BTreeMap::new();
    let mut estimate_units = BTreeMap::new();
    for &q in Query::all().iter() {
        let normal = measure_steps(&mut m, &db, q, threads, false);
        let degraded = measure_steps(&mut m, &db, q, threads, true);
        steps.insert(q, (normal, degraded));
        estimate_units.insert(q, cost_estimate(&db, q, false));
    }
    MeasuredPass { steps, estimate_units, db_bytes: db_bytes(&db), high_water: m.allocated_bytes() }
}

/// A calibrated cost table plus the table footprint it was measured
/// against (what EPC pressure levels are relative to).
pub struct Calibration {
    /// Per-class measured step costs.
    pub costs: CostTable,
    /// Exact byte footprint of the generated columns.
    pub db_bytes: usize,
    /// Allocation high-water mark of the measurement pass (what EPC
    /// pressure levels shrink the balloon relative to).
    pub high_water: u64,
}

/// The fixed multi-tenant workload, sized relative to the calm enclave
/// mean plan cost `m` so offered load is ~75% of the 8-worker capacity:
/// a closed-loop interactive tenant and an open-loop analytics tenant.
pub fn tenants(m: f64) -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "interactive".into(),
            sessions: 800,
            arrival: Arrival::Closed { think_cycles: (333.0 * m) as u64 },
            mix: vec![(Query::Q12, 3), (Query::Q19, 1)],
            // Tight SLO: feasible for the degraded plan under heavy EPC
            // pressure, infeasible for the normal one — the point where
            // degrade-to-admit visibly rescues a tenant.
            deadline_cycles: (40.0 * m) as u64,
        },
        TenantSpec {
            name: "analytics".into(),
            sessions: 400,
            arrival: Arrival::Open { mean_gap_cycles: (111.0 * m) as u64 },
            mix: vec![(Query::Q3, 2), (Query::Q10, 2), (Query::Q19, 1)],
            // Loose SLO: survives moderate stress; under collapse the
            // admission slack check sheds what cannot finish in time.
            deadline_cycles: (300.0 * m) as u64,
        },
    ]
}

/// Service configuration at one stress point (`m` = calm enclave mean
/// plan cost, shared by both settings so the comparison is like for
/// like).
pub fn service_config(m: f64, epc_level: f64, degrade_on: bool) -> ServiceConfig {
    ServiceConfig {
        seed: SEED,
        sockets: 2,
        workers_per_socket: 4,
        horizon_cycles: (600.0 * m) as u64,
        admission: AdmissionPolicy { enabled: true, queue_cap: 32 },
        degrade: DegradePolicy { enabled: degrade_on, epc_threshold: 0.35, queue_watermark: 24 },
        faults: Some(OcallFaults {
            failure_prob: STEP_FAILURE_PROB,
            max_retries: STEP_MAX_RETRIES,
            backoff_cycles: BACKOFF_FRACTION_OF_MEAN * m,
        }),
        epc_pressure_level: epc_level,
    }
}

/// One stress point, one setting: the drained outcome plus exact latency
/// histograms.
pub struct PointResult {
    /// The drained service outcome (counters reconciled).
    pub out: ServiceOutcome,
    /// All classes merged.
    pub hist: Histogram,
    /// Per-class latency histograms.
    pub per_class: BTreeMap<Query, Histogram>,
}

/// Serve the fixed workload against one calibrated cost table.
pub fn run_point(costs: &CostTable, m: f64, epc_level: f64, degrade_on: bool) -> PointResult {
    let cfg = service_config(m, epc_level, degrade_on);
    let out = run_service(&cfg, &tenants(m), costs);
    let reconciled = out.reconcile();
    assert!(reconciled.is_ok(), "service point failed to reconcile: {reconciled:?}");
    let mut hist = Histogram::new();
    let mut per_class = BTreeMap::new();
    for (&q, lats) in &out.latencies {
        let h: Histogram = lats.iter().copied().collect();
        hist.merge(&h);
        per_class.insert(q, h);
    }
    PointResult { out, hist, per_class }
}

/// Exact percentile in milliseconds (0 when no sample completed).
fn pct_ms(p: &BenchProfile, h: &Histogram, permille: u64) -> f64 {
    h.percentile_permille(permille).map_or(0.0, |c| p.hw.cycles_to_secs(c as f64) * 1e3)
}

fn stat(v: f64) -> Option<Stat> {
    Some(Stat { mean: v, stddev: 0.0 })
}

/// Fraction of submitted queries, guarded against empty runs.
fn frac(n: u64, d: u64) -> f64 {
    if d == 0 { 0.0 } else { n as f64 / d as f64 }
}

/// Push the six p50/p95/p99 × setting latency series for one sweep.
fn push_latency_series(fig: &mut Figure, p: &BenchProfile, results: &[(Setting, Vec<PointResult>)]) {
    for (setting, points) in results {
        for (pm, label) in [(500u64, "p50"), (950, "p95"), (990, "p99")] {
            let series: Vec<Option<Stat>> =
                points.iter().map(|r| stat(pct_ms(p, &r.hist, pm))).collect();
            fig.push_series(&format!("{label}, {}", setting.label()), series);
        }
    }
}

/// Push goodput/rejected/timed-out/degraded fraction series for one sweep.
fn push_goodput_series(fig: &mut Figure, results: &[(Setting, Vec<PointResult>)]) {
    for (setting, points) in results {
        let s = setting.label();
        let g: Vec<Option<Stat>> = points
            .iter()
            .map(|r| stat(frac(r.out.total.completed, r.out.total.submitted)))
            .collect();
        fig.push_series(&format!("goodput, {s}"), g);
        for (name, pick) in [
            ("rejected", (|c: &sgx_serve::ServiceCounters| c.rejected) as fn(&_) -> u64),
            ("timed out", |c| c.timed_out),
            ("degraded", |c| c.degraded),
        ] {
            let series: Vec<Option<Stat>> = points
                .iter()
                .map(|r| stat(frac(pick(&r.out.total), r.out.total.submitted)))
                .collect();
            fig.push_series(&format!("{name}, {s}"), series);
        }
    }
}

fn p99(p: &BenchProfile, r: &PointResult) -> f64 {
    pct_ms(p, &r.hist, 990)
}

/// Tentpole experiment: multi-tenant service degradation curves — tail
/// latency and goodput vs AEX-storm rate and EPC-pressure level, native
/// vs enclave, with admission control, bounded-backoff retries, and
/// EPC-triggered plan degradation active.
pub fn ext_service_tail(p: &BenchProfile) -> Vec<Figure> {
    // Calm calibrations anchor the workload sizing and serve as the
    // first point of both sweeps. A native table is EPC-invariant (the
    // pager only exists in enclave mode), so the native EPC sweep reuses
    // the calm native table and only the policy response differs.
    let (enc, nat) = (Setting::SgxDataInEnclave, Setting::PlainCpu);
    let calm = StressPoint { aex_per_mcycle: 0.0, epc_level: 0.0 };
    let epc = |l| StressPoint { aex_per_mcycle: 0.0, epc_level: l };
    let aex = |r| StressPoint { aex_per_mcycle: r, epc_level: 0.0 };
    // Every calibration builds machines of its own, so all of them run as
    // one `crate::sweep`. A profiled sweep runs them inline in list order,
    // and profile bins add f64s in machine-drop order, so the golden
    // profile pins this order: calm enclave and native, the enclave EPC
    // levels, then the native and the enclave AEX rates.
    let mut points = vec![(enc, calm), (nat, calm)];
    points.extend(EPC_LEVELS[1..].iter().map(|&l| (enc, epc(l))));
    points.extend(AEX_RATES[1..].iter().map(|&r| (nat, aex(r))));
    points.extend(AEX_RATES[1..].iter().map(|&r| (enc, aex(r))));
    let calibrations =
        sweep(&points, |_| 0, |&(setting, stress)| calibrate(p, setting, stress));
    let (calm_enc, calm_nat) = (&calibrations[0], &calibrations[1]);
    let (epc_enc, rest) = calibrations[2..].split_at(EPC_LEVELS.len() - 1);
    let (aex_nat, aex_enc) = rest.split_at(AEX_RATES.len() - 1);
    // One sweep's tables: the calm one, then its stressed points' in order.
    let axis = |calm: &Calibration, stressed: &[Calibration]| -> Vec<CostTable> {
        std::iter::once(calm).chain(stressed).map(|c| c.costs.clone()).collect()
    };
    let epc_tables_enc = axis(calm_enc, epc_enc);
    let m = calm_enc.costs.mean_total(PlanVariant::Normal);
    assert!(m > 0.0, "calm calibration must produce nonzero plan costs");

    let settings = [nat, enc];
    let aex_results: Vec<(Setting, Vec<PointResult>)> = settings
        .into_iter()
        .zip([axis(calm_nat, aex_nat), axis(calm_enc, aex_enc)])
        .map(|(s, tables)| (s, tables.iter().map(|t| run_point(t, m, 0.0, true)).collect()))
        .collect();
    let epc_results: Vec<(Setting, Vec<PointResult>)> = settings
        .iter()
        .map(|&s| {
            let pts = EPC_LEVELS
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let t = if s == Setting::PlainCpu { &calm_nat.costs } else { &epc_tables_enc[i] };
                    run_point(t, m, l, true)
                })
                .collect();
            (s, pts)
        })
        .collect();

    // ---- figures -------------------------------------------------------
    let mut fig_aex = Figure::new(
        "ext_service_tail_aex",
        "Service tail latency vs AEX interrupt storm (multi-tenant, admission + retries on)",
        "interrupts per Mcycle",
        "latency (ms)",
    )
    .with_xs(AEX_RATES.iter().map(|r| format!("{r:.0}")));
    push_latency_series(&mut fig_aex, p, &aex_results);

    let mut fig_aex_good = Figure::new(
        "ext_service_tail_aex_goodput",
        "Service goodput and shed load vs AEX interrupt storm",
        "interrupts per Mcycle",
        "fraction of submitted",
    )
    .with_xs(AEX_RATES.iter().map(|r| format!("{r:.0}")));
    push_goodput_series(&mut fig_aex_good, &aex_results);

    let mut fig_epc = Figure::new(
        "ext_service_tail_epc",
        "Service tail latency vs EPC pressure (balloon steals a fraction of the working set)",
        "EPC pressure level",
        "latency (ms)",
    )
    .with_xs(EPC_LEVELS.iter().map(|l| format!("{l:.1}")));
    push_latency_series(&mut fig_epc, p, &epc_results);

    let mut fig_epc_good = Figure::new(
        "ext_service_tail_epc_goodput",
        "Service goodput, shed load, and plan degradation vs EPC pressure",
        "EPC pressure level",
        "fraction of submitted",
    )
    .with_xs(EPC_LEVELS.iter().map(|l| format!("{l:.1}")));
    push_goodput_series(&mut fig_epc_good, &epc_results);

    // Per-class percentiles, calm vs top storm, in the enclave.
    let enclave_aex = &aex_results[1].1;
    let mut fig_classes = Figure::new(
        "ext_service_tail_classes",
        "Per-query-class latency percentiles in the enclave (calm vs top AEX storm)",
        "query",
        "latency (ms)",
    )
    .with_xs(Query::all().iter().map(|q| q.label()));
    for (point, tag) in [(0usize, "calm"), (AEX_RATES.len() - 1, "storm")] {
        for (pm, label) in [(500u64, "p50"), (950, "p95"), (990, "p99")] {
            let series: Vec<Option<Stat>> = Query::all()
                .iter()
                .map(|q| {
                    enclave_aex[point]
                        .per_class
                        .get(q)
                        .map(|h| stat(pct_ms(p, h, pm)))
                        .unwrap_or(stat(0.0))
                })
                .collect();
            fig_classes.push_series(&format!("{label} {tag}"), series);
        }
    }

    // ---- shape assertions ---------------------------------------------
    for (setting, points) in aex_results.iter().chain(epc_results.iter()) {
        for r in points {
            let (a, b, c) =
                (pct_ms(p, &r.hist, 500), pct_ms(p, &r.hist, 950), pct_ms(p, &r.hist, 990));
            assert!(a <= b && b <= c, "{}: percentiles must be ordered", setting.label());
            assert!(r.out.total.completed > 0, "{}: every point must complete work", setting.label());
            assert!(r.out.total.retries > 0, "{}: injected step faults must force retries", setting.label());
        }
    }
    let (native_aex, enclave_aexp) = (&aex_results[0].1, &aex_results[1].1);
    let last = AEX_RATES.len() - 1;
    for i in 1..=last {
        assert!(
            p99(p, &enclave_aexp[i]) >= p99(p, &enclave_aexp[i - 1]),
            "enclave p99 must not improve as the storm intensifies"
        );
    }
    assert!(
        p99(p, &enclave_aexp[last]) > p99(p, &native_aex[last]),
        "the same storm must hurt the enclave's tail more than native's"
    );
    assert!(
        enclave_aexp[last].out.total.rejected > 0,
        "the top storm must overload the enclave service into shedding load"
    );
    let (native_epc, enclave_epc) = (&epc_results[0].1, &epc_results[1].1);
    let top = EPC_LEVELS.len() - 1;
    let native_growth = p99(p, &native_epc[top]) / p99(p, &native_epc[0]).max(1e-12);
    let enclave_growth = p99(p, &enclave_epc[top]) / p99(p, &enclave_epc[0]).max(1e-12);
    assert!(
        enclave_growth > native_growth,
        "EPC pressure must stretch the enclave tail more than native \
         (enclave x{enclave_growth:.2} vs native x{native_growth:.2})"
    );
    for (i, &l) in EPC_LEVELS.iter().enumerate() {
        let c = &enclave_epc[i].out.total;
        if l >= 0.35 {
            assert_eq!(c.degraded, c.admitted, "ambient pressure {l} must degrade every admitted query");
        } else {
            assert!(c.degraded < c.admitted, "calm points must mostly run the normal plan");
        }
    }

    // Degradation-policy ablation at the mid EPC point (where plenty of
    // queries still complete, so the comparison is not event-ordering
    // noise): turning the policy off must not complete more work within
    // deadline, since the degraded plan is strictly cheaper.
    let mid = 1;
    let off = run_point(&epc_tables_enc[mid], m, EPC_LEVELS[mid], false);
    let on = &enclave_epc[mid].out;
    assert_eq!(off.out.total.degraded, 0, "disabled policy must never degrade");
    assert!(
        on.total.completed >= off.out.total.completed,
        "plan degradation must not lose goodput under pressure ({} vs {})",
        on.total.completed,
        off.out.total.completed
    );

    // ---- notes ---------------------------------------------------------
    let calm_r = &enclave_aexp[0];
    let storm_r = &enclave_aexp[last];
    fig_aex.note(format!(
        "workload: 800 closed-loop + 400 open-loop sessions over 2 sockets x 4 workers; \
         step faults p={STEP_FAILURE_PROB} (max {STEP_MAX_RETRIES} retries, capped exponential \
         backoff); admission queue cap 32; deadlines 40x/300x the calm mean plan cost"
    ));
    fig_aex.note(format!(
        "counters reconcile exactly (submitted = admitted + rejected; admitted = completed + \
         timed_out): calm enclave {:?}; top-storm enclave {:?}",
        calm_r.out.total, storm_r.out.total
    ));
    fig_aex_good.note(format!(
        "goodput = completed-within-deadline / submitted; top-storm enclave sheds {} of {} \
         submissions and times out {}",
        storm_r.out.total.rejected, storm_r.out.total.submitted, storm_r.out.total.timed_out
    ));
    fig_epc.note(format!(
        "EPC level L shrinks the balloon residency to (1-L) of the calm pass's {}-byte \
         allocation high-water mark ({}-byte table footprint); the degradation policy \
         (threshold 0.35) downgrades every query to the SS4.2-optimized plan above it — \
         result-identical, proven in sgx-tpch",
        calm_enc.high_water, calm_enc.db_bytes
    ));
    fig_epc_good.note(format!(
        "ablation at L={}: policy off completes {} vs {} with degradation on (never more)",
        EPC_LEVELS[mid],
        off.out.total.completed,
        on.total.completed
    ));
    fig_classes.note(
        "exact nearest-rank percentiles over integer cycle latencies; every value is a \
         latency the service actually recorded (no interpolation)",
    );

    vec![fig_aex, fig_aex_good, fig_epc, fig_epc_good, fig_classes]
}
