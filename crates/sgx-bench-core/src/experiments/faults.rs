//! Fault-injection extension: the §4.4 adverse events made measurable.
//!
//! `ext_aex_storm` sweeps a deterministic AEX interrupt storm
//! (Stress-SGX-style perturbation) over a join and a scan, in and out of
//! the enclave, with transient OCALL failures layered on top. The paper
//! measures enclaves on a quiet, frequency-pinned machine; this extension
//! asks the follow-up question operators actually face: what happens to
//! those curves when the host is noisy? The shape the fault model
//! predicts — and the assertions pin — is that enclave throughput
//! collapses super-linearly with the interrupt rate while native mode
//! shrugs, because every AEX costs a full enclave round trip (the
//! `transitions` counter) plus the L1/TLB refill on resume.

use crate::profiles::BenchProfile;
use crate::rep_seeds;
use crate::report::{Figure, Stat};
use crate::sweep::sweep;
use sgx_joins::rho::rho_join;
use sgx_joins::{gen_fk_relation, gen_pk_relation, JoinConfig, Row};
use sgx_scans::{column_scan, ScanConfig, ScanOutput};
use sgx_sim::{Counters, FaultProfile, Machine, Setting};

/// Interrupt rates swept by the storm, in events per million cycles of
/// core time (0 = the calm baseline each series is normalized to).
const RATES_PER_MCYCLE: [f64; 4] = [0.0, 20.0, 80.0, 320.0];

/// Transient-OCALL fault parameters layered onto every run: 20 % failure
/// probability per attempt, at most 4 retries, 5k-cycle base backoff.
const OCALL_FAILURE_PROB: f64 = 0.2;
const OCALL_MAX_RETRIES: u32 = 4;
const OCALL_BACKOFF_CYCLES: f64 = 5_000.0;
/// Result-delivery OCALLs issued after each measured phase.
const OCALLS_PER_RUN: usize = 8;

/// The storm profile for one repetition: schedule seeded from the rep
/// seed, AEX at the given rate, OCALL faults always on.
fn storm_profile(seed: u64, rate_per_mcycle: f64) -> FaultProfile {
    let mut fp = FaultProfile::new(0xFA17_0000 ^ seed);
    if rate_per_mcycle > 0.0 {
        fp = fp.with_aex_storm(1.0e6 / rate_per_mcycle);
    }
    fp.with_ocall_faults(OCALL_FAILURE_PROB, OCALL_MAX_RETRIES, OCALL_BACKOFF_CYCLES)
}

/// One RHO-join run under the storm: measured wall cycles (ECALL + join +
/// result OCALLs) and the machine's final counters.
fn join_run(p: &BenchProfile, setting: Setting, rate: f64, seed: u64) -> (f64, Counters) {
    let (nr, ns) = (p.rel_rows(100), p.rel_rows(400));
    let threads = 16.min(p.hw.cores_per_socket);
    let bits = JoinConfig::auto_radix_bits(nr * 8, p.hw.l2.size);
    let mut m = Machine::new(p.hw.clone(), setting);
    m.install_faults(storm_profile(seed, rate));
    let r = gen_pk_relation(&mut m, nr, seed);
    let s = gen_fk_relation(&mut m, ns, nr, seed + 1);
    let before = m.wall_cycles();
    m.ecall();
    let cfg = JoinConfig::new(threads).with_radix_bits(bits);
    let stats = rho_join(&mut m, &r, &s, &cfg);
    assert_eq!(stats.matches, ns as u64);
    for _ in 0..OCALLS_PER_RUN {
        m.ocall();
    }
    (m.wall_cycles() - before, m.counters().clone())
}

/// One column-scan run under the storm: measured wall cycles and counters.
fn scan_run(p: &BenchProfile, setting: Setting, rate: f64, seed: u64) -> (f64, Counters) {
    let bytes = p.mb(1024);
    let threads = 16.min(p.hw.cores_per_socket);
    let mut m = Machine::new(p.hw.clone(), setting);
    m.install_faults(storm_profile(seed, rate));
    let mut col = m.alloc::<u8>(bytes);
    let mut x = seed | 1;
    for i in 0..col.len() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        col.poke(i, (x >> 33) as u8);
    }
    let before = m.wall_cycles();
    m.ecall();
    column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &ScanConfig::new(threads));
    for _ in 0..OCALLS_PER_RUN {
        m.ocall();
    }
    (m.wall_cycles() - before, m.counters().clone())
}

/// Tentpole experiment: join + scan throughput vs AEX interrupt rate,
/// native vs enclave, normalized per series to its calm (rate-0) mean.
///
/// Every run builds one machine of its own, so all of them, the two
/// attribution runs included, go through one `crate::sweep`.
pub fn ext_aex_storm(p: &BenchProfile) -> Figure {
    let mut fig = Figure::new(
        "ext_aex_storm",
        "Throughput under AEX interrupt storms + transient OCALL failures (fault injection)",
        "interrupts per Mcycle",
        "relative throughput",
    )
    .with_xs(RATES_PER_MCYCLE.iter().map(|r| format!("{r:.0}")));
    type Runner = fn(&BenchProfile, Setting, f64, u64) -> (f64, Counters);
    // Each workload's input bytes size its runs for the sweep's claims.
    let join_bytes = (p.rel_rows(100) + p.rel_rows(400)) * std::mem::size_of::<Row>();
    let workloads: [(&str, Runner, usize); 2] =
        [("join", join_run, join_bytes), ("scan", scan_run, p.mb(1024))];
    let settings = [Setting::PlainCpu, Setting::SgxDataInEnclave];
    let last = RATES_PER_MCYCLE.len() - 1;
    // The attribution runs repeat the enclave join calm and stormed with
    // one fixed seed.
    let attribution_seed = 0xC0FFEE;

    // The runs in the order a sequential loop builds their machines: by
    // workload, setting, rate and repetition, then the two attribution
    // runs.
    let mut runs: Vec<(Runner, usize, Setting, f64, u64)> = workloads
        .iter()
        .flat_map(|&(_, runner, bytes)| {
            settings.into_iter().flat_map(move |setting| {
                RATES_PER_MCYCLE.iter().flat_map(move |&rate| {
                    rep_seeds(p.reps).map(move |seed| (runner, bytes, setting, rate, seed))
                })
            })
        })
        .collect();
    runs.extend([0.0, RATES_PER_MCYCLE[last]].map(|rate| {
        (join_run as Runner, join_bytes, Setting::SgxDataInEnclave, rate, attribution_seed)
    }));
    let results = sweep(
        &runs,
        |&(_, bytes, ..)| bytes,
        |&(runner, _, setting, rate, seed)| runner(p, setting, rate, seed),
    );
    let (storm_runs, attribution) = results.split_at(results.len() - 2);

    let mut per_rate = storm_runs.chunks_exact(rep_seeds(p.reps).count());
    for (wname, ..) in workloads {
        for setting in settings {
            let raw: Vec<Stat> = per_rate
                .by_ref()
                .take(RATES_PER_MCYCLE.len())
                .map(|reps| Stat::from_runs(&reps.iter().map(|r| 1.0 / r.0).collect::<Vec<_>>()))
                .collect();
            // Normalize to the calm baseline so the two workloads share an
            // axis and the figure reads as "fraction of calm throughput".
            let base = raw[0].mean;
            let points = raw
                .iter()
                .map(|s| Some(Stat { mean: s.mean / base, stddev: s.stddev / base }))
                .collect();
            fig.push_series(&format!("{wname}, {}", setting.label()), points);
        }
    }

    // Shape assertions: the enclave collapses first, and super-linearly.
    let val = |fig: &Figure, label: &str, i: usize| -> f64 {
        fig.series_by_label(label).and_then(|s| s.points[i]).map_or(f64::NAN, |st| st.mean)
    };
    for wname in ["join", "scan"] {
        let native = format!("{wname}, {}", Setting::PlainCpu.label());
        let enclave = format!("{wname}, {}", Setting::SgxDataInEnclave.label());
        for i in 1..=last {
            assert!(
                val(&fig, &enclave, i) <= val(&fig, &enclave, i - 1) + 1e-9,
                "{wname}: enclave throughput must fall as the storm intensifies"
            );
            assert!(
                val(&fig, &enclave, i) < val(&fig, &native, i),
                "{wname}: the same interrupt rate must hurt the enclave more"
            );
        }
        let native_loss = 1.0 - val(&fig, &native, last);
        let enclave_loss = 1.0 - val(&fig, &enclave, last);
        assert!(
            enclave_loss > 2.0 * native_loss,
            "{wname}: enclave degradation must be super-linear vs native \
             (enclave lost {enclave_loss:.2}, native lost {native_loss:.2})"
        );
    }

    // Attribution: the enclave join calm and stormed with one fixed seed;
    // the wall-time delta must be carried by the transitions counter (each
    // AEX = 2 crossings; refill and backoff come on top).
    let threads = 16.min(p.hw.cores_per_socket) as f64;
    let (calm_cycles, calm) = &attribution[0];
    let (storm_cycles, storm) = &attribution[1];
    let aex = storm.aex_events - calm.aex_events;
    assert!(aex > 0, "the top storm rate must deliver AEX events");
    assert!(
        storm.transitions >= calm.transitions + 2 * aex,
        "each AEX must charge a full enclave round trip into `transitions`"
    );
    let attributed = aex as f64 * 2.0 * p.hw.transitions.transition_cycles;
    assert!(
        storm_cycles - calm_cycles >= 0.5 * attributed / threads,
        "the slowdown must be attributable to transition charges: delta {:.3e} vs {:.3e}",
        storm_cycles - calm_cycles,
        attributed / threads
    );
    fig.note(format!(
        "fault model: each AEX charges a full enclave round trip (2 transitions) and flushes the \
         core's L1/TLB/stream state; a native interrupt costs {:.0} cycles; OCALLs fail \
         transiently with p={OCALL_FAILURE_PROB} (max {OCALL_MAX_RETRIES} retries, {:.0}-cycle \
         base backoff, doubling)",
        p.hw.interrupts.native_interrupt_cycles, OCALL_BACKOFF_CYCLES
    ));
    fig.note(format!(
        "attribution (enclave join at {:.0}/Mcycle, one seed): aex_events={}, ocall_retries={}, \
         transitions={} (calm: {}) — the wall-time delta is carried by the transitions counter",
        RATES_PER_MCYCLE[last], storm.aex_events, storm.ocall_retries, storm.transitions,
        calm.transitions
    ));
    fig
}
