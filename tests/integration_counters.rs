//! Counter-attribution tests: every `Counters` field the simulator charges
//! is surfaced and constrained here, so a counter cannot silently decouple
//! from the figures. `every_counter_and_cost_bin_is_written` replays the
//! scenarios below under one profiled session and requires every counter
//! and every `CategoryCycles` bin to be nonzero: a dead counter fails it.

use sgx_bench_core::prelude::*;
use sgx_bench_core::sgx_scans::ScanStats;
use sgx_bench_core::sgx_sim::config::xeon_gold_6326;
use sgx_bench_core::sgx_sim::FaultProfile;

fn tiny_hw() -> HwConfig {
    xeon_gold_6326().scaled(16)
}

/// A store-heavy random workload whose footprint spills every cache level.
fn churn(m: &mut Machine, n: usize, ops: usize) {
    let mut v = m.alloc::<u64>(n);
    m.run(|c| {
        let mut x = 9u64;
        for _ in 0..ops {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (x >> 33) as usize % n;
            if x & 1 == 0 {
                v.set(c, i, x);
            } else {
                let _ = v.get(c, i);
            }
        }
    });
}

/// Enclave churn over a footprint that spills every cache level and the TLB.
fn hierarchy_run() -> Counters {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    churn(&mut m, 200_000, 120_000);
    m.counters().clone()
}

/// Memory-hierarchy conservation: every charged access resolves in at most
/// one cache level, fill sub-categories never exceed total fills, and the
/// enclave working set really pays MEE fills.
#[test]
fn hierarchy_counters_conserve() {
    let c = hierarchy_run();
    assert_eq!(c.accesses(), c.loads + c.stores);
    assert!(c.loads > 0 && c.stores > 0);
    let resolved = c.l1_hits + c.l2_hits + c.l3_hits + c.dram_fills;
    assert!(resolved > 0, "accesses must resolve somewhere");
    assert!(resolved <= c.accesses(), "one resolution per access: {resolved} vs {}", c.accesses());
    assert!(c.l1_hits > 0 && c.l2_hits > 0 && c.l3_hits > 0, "footprint spans all levels");
    assert!(c.dram_fills > 0);
    assert!(c.epc_fills <= c.dram_fills, "MEE fills are a subset of DRAM fills");
    assert!(c.epc_fills > 0, "enclave-resident data must pay MEE fills");
    assert!(c.prefetched_fills <= c.dram_fills);
    assert!(c.remote_fills <= c.dram_fills);
    assert!(c.writebacks > 0, "dirty lines must eventually write back");
    assert!(c.writebacks <= c.stores, "a write-back needs at least one dirtying store");
    assert!(c.tlb_misses > 0, "200k-element footprint exceeds the TLB");
    assert!(c.tlb_misses <= c.accesses());
}

/// 123 ALU ops, 45 vector ops and 7 enclave issue groups.
fn compute_run() -> Counters {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    let v = m.alloc::<u64>(1024);
    m.run(|c| {
        c.compute(123);
        c.vec_compute(45);
        for _ in 0..7 {
            c.group(|c| {
                let _ = v.get(c, 3);
                let _ = v.get(c, 700);
            });
        }
    });
    m.counters().clone()
}

/// Compute counters are exact: `compute`/`vec_compute` attribute one op
/// per op, and issue groups are counted per enclave close.
#[test]
fn compute_and_group_counters_are_exact() {
    let c = compute_run();
    assert_eq!(c.alu_ops, 123);
    assert_eq!(c.vec_ops, 45);
    assert_eq!(c.enclave_groups, 7, "one count per closed enclave issue group");
}

const STREAM_ELEMS: usize = 64_000;

/// A native sequential stream over `STREAM_ELEMS` u64s.
fn stream_run() -> Counters {
    let mut m = Machine::new(tiny_hw(), Setting::PlainCpu);
    let v = m.alloc::<u64>(STREAM_ELEMS);
    m.run(|c| {
        v.read_stream(c, 0..STREAM_ELEMS, |_, _, _| {});
    });
    m.counters().clone()
}

/// Stream reads move whole cache lines: the `stream_lines` counter tracks
/// the streamed footprint, and sequential fills engage the prefetcher.
#[test]
fn stream_lines_cover_the_streamed_footprint() {
    let n = STREAM_ELEMS;
    let c = stream_run();
    let lines = (n * 8 / 64) as u64;
    assert!(c.stream_lines >= lines, "streamed {} of {lines} lines", c.stream_lines);
    assert!(c.stream_lines <= 2 * lines + 2, "streamed {} of {lines} lines", c.stream_lines);
    assert!(c.prefetched_fills > 0, "sequential streaming must engage the prefetcher");
    assert!(c.prefetched_fills <= c.dram_fills);
}

/// Transition accounting: an ECALL is an entry/exit pair, a fault-free
/// OCALL is exactly two crossings, and native mode never transitions.
#[test]
fn transition_counters_are_exact() {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    m.ecall();
    assert_eq!(m.counters().transitions, 2);
    m.run(|c| {
        let retries = c.ocall();
        assert_eq!(retries, 0, "no fault engine, no retries");
    });
    let c = m.counters();
    assert_eq!(c.transitions, 4, "ECALL pair + OCALL pair");
    assert_eq!(c.ocall_retries, 0);

    let mut native = Machine::new(tiny_hw(), Setting::PlainCpu);
    native.ecall();
    churn(&mut native, 10_000, 5_000);
    assert_eq!(native.counters().transitions, 0, "native code never crosses");
    assert_eq!(native.counters().aex_events, 0);
}

/// Four enclave workers contending for one SDK mutex.
fn futex_run() -> Counters {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    let v = m.alloc::<u64>(4096);
    m.parallel_tasks(&[0, 1, 2, 3], QueueKind::SdkMutex, 400, |c, t| {
        let _ = v.get(c, (t * 13) % 4096);
    });
    m.counters().clone()
}

/// SDK-mutex contention: every futex sleep in enclave mode is an OCALL
/// round trip, so `transitions >= 2 * futex_waits`.
#[test]
fn futex_waits_are_charged_under_contention() {
    let c = futex_run();
    assert!(c.futex_waits > 0, "4 workers on one mutex must contend");
    assert!(
        c.transitions >= 2 * c.futex_waits,
        "each enclave futex sleep is an OCALL out + transition back ({} vs {})",
        c.transitions,
        c.futex_waits
    );
}

const EDMM_ELEMS: usize = 16_384; // 128 KiB = 32 pages of u64s

/// Seal after some churn, then touch `EDMM_ELEMS` freshly allocated u64s.
/// Returns the EDMM page count at sealing and the final counters.
fn edmm_run() -> (u64, Counters) {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    churn(&mut m, 8_192, 4_000);
    m.seal_enclave();
    let at_seal = m.counters().edmm_pages;
    let mut v = m.alloc::<u64>(EDMM_ELEMS);
    m.run(|c| {
        for i in 0..EDMM_ELEMS {
            v.set(c, i, i as u64);
        }
    });
    (at_seal, m.counters().clone())
}

/// EDMM: pages allocated after sealing are committed on first touch, one
/// count per page; pre-seal pages are free.
#[test]
fn edmm_pages_count_post_seal_touches() {
    let (at_seal, c) = edmm_run();
    assert_eq!(at_seal, 0, "sealing alone commits nothing");
    let pages = (EDMM_ELEMS * 8 / 4096) as u64;
    assert!(c.edmm_pages >= pages, "touched {pages} post-seal pages, counted {}", c.edmm_pages);
    assert!(c.edmm_pages <= pages + 2);
}

/// SGXv1 churn over twice the resident EPC budget.
fn paging_run() -> Counters {
    let hw = tiny_hw().sgxv1();
    let over_budget = hw.paging.resident_bytes / 8 * 2;
    let mut m = Machine::new(hw, Setting::SgxDataInEnclave);
    churn(&mut m, over_budget, 60_000);
    m.counters().clone()
}

/// SGXv1 paging: a working set beyond the resident budget faults.
#[test]
fn epc_page_faults_fire_beyond_residency() {
    let c = paging_run();
    assert!(c.epc_page_faults > 0, "working set 2x the resident budget must page");
}

/// Random reads from socket 0 of data homed on node 1.
fn remote_run() -> Counters {
    let mut m = Machine::new(tiny_hw(), Setting::PlainCpu);
    let n = 100_000usize;
    let v = m.alloc_on::<u64>(n, Region::Untrusted(1));
    m.run_on(0, |c| {
        let mut x = 5u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let _ = v.get(c, (x >> 33) as usize % n);
        }
    });
    m.counters().clone()
}

/// NUMA: data homed on the remote socket fills over UPI.
#[test]
fn remote_fills_cross_sockets() {
    let c = remote_run();
    assert!(c.remote_fills > 0, "remote-homed data must fill over UPI");
    assert!(c.remote_fills <= c.dram_fills);
}

// ---------------------------------------------------------------------------
// Cycle-attribution profiler conservation suite: with `--profile` semantics
// (profiling enabled on the session), the per-phase counter deltas must
// partition the machine's counters *exactly*, and the phase × category
// cycle sums must reconcile with the total charged cycles.
// ---------------------------------------------------------------------------

use sgx_bench_core::sgx_sim::profile::CostCategory;
use sgx_bench_core::sgx_sim::{counters, profile};

/// Run `work` under a fresh enabled profile + counter session; returns the
/// captured profile, the counter totals of every machine dropped inside,
/// and `work`'s result.
fn with_profile<R>(work: impl FnOnce() -> R) -> (profile::Profile, Counters, R) {
    profile::set_enabled(true);
    let _ = profile::session_take();
    let _ = counters::session_take();
    let r = work();
    profile::set_enabled(false);
    let p = profile::session_take();
    let c = counters::session_take();
    (p, c, r)
}

/// The two conservation invariants of `sgx_sim::profile`.
fn assert_conserves(p: &profile::Profile, c: &Counters, label: &str) {
    // u64 counters: the snapshot deltas telescope, so the partition is
    // exact — field for field.
    assert_eq!(
        format!("{:?}", p.total_counters()),
        format!("{c:?}"),
        "{label}: per-phase counter deltas must partition the machine counters"
    );
    // f64 cycles: binning regroups the same additions, so only float
    // re-association separates the two sums.
    let total = p.total_cycles();
    let charged = p.charged_cycles;
    let eps = charged.abs().max(1.0) * 1e-9;
    assert!(
        (total - charged).abs() <= eps,
        "{label}: phase x category cycles {total} drifted from charged {charged}"
    );
    assert!(charged > 0.0, "{label}: the workload must charge real cycles");
}

/// An enclave RHO join of 4,000 × 16,000 rows.
fn rho_join_run(threads: usize, radix_bits: u32) -> JoinStats {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    let r = gen_pk_relation(&mut m, 4000, 1);
    let s = gen_fk_relation(&mut m, 16_000, 4000, 2);
    sgx_bench_core::sgx_joins::rho::rho_join(
        &mut m,
        &r,
        &s,
        &JoinConfig::new(threads).with_radix_bits(radix_bits),
    )
}

/// Join workload: every RHO phase appears, and the whole run conserves.
#[test]
fn profile_conserves_for_rho_join() {
    let (p, c, stats) = with_profile(|| rho_join_run(2, 6));
    assert!(stats.matches > 0);
    assert_conserves(&p, &c, "rho_join");
    for phase in ["hist_r", "copy_r", "hist_s", "copy_s", "build", "probe"] {
        assert!(p.phases.contains_key(phase), "phase {phase} missing: {:?}", p.phases.keys());
    }
    // An enclave join must spend real cycles in the MEE bin somewhere.
    let mee: f64 = p.phases.values().map(|ph| ph.cycles.get(CostCategory::Mee)).sum();
    assert!(mee > 0.0, "enclave-resident join data must pay MEE cycles");
}

/// A two-thread enclave bit-vector scan with one warm-up pass.
fn column_scan_run() -> ScanStats {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    let col = gen_column(&mut m, 1 << 20, 3);
    column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &ScanConfig::new(2).with_warmup(1))
}

/// Scan workload: measured passes land in the "scan" scope, warm-up work
/// stays unscoped, and the run conserves.
#[test]
fn profile_conserves_for_column_scan() {
    let (p, c, stats) = with_profile(column_scan_run);
    assert!(stats.matches > 0);
    assert_conserves(&p, &c, "column_scan");
    let scan = p.phases.get("scan").expect("measured passes carry the scan scope");
    assert!(scan.cycles.total() > 0.0);
    assert!(
        p.phases.contains_key("(unscoped)"),
        "warm-up charges stay outside the scan scope: {:?}",
        p.phases.keys()
    );
}

/// Enclave churn under an AEX storm, optionally after one ECALL.
fn aex_storm_run(ecall: bool) -> Counters {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    m.install_faults(FaultProfile::new(11).with_aex_storm(20_000.0));
    if ecall {
        m.ecall();
    }
    churn(&mut m, 50_000, 80_000);
    m.counters().clone()
}

/// Faulted run: AEX handler time lands in the fault bin, transitions in
/// the transition bin, and the storm still conserves exactly.
#[test]
fn profile_conserves_under_aex_storm() {
    let (p, c, _) = with_profile(|| aex_storm_run(true));
    assert!(c.aex_events > 0, "the storm must fire for this test to mean anything");
    assert_conserves(&p, &c, "aex_storm");
    let fault: f64 = p.phases.values().map(|ph| ph.cycles.get(CostCategory::Fault)).sum();
    assert!(fault > 0.0, "AEX handler time must land in the fault bin");
    let transition: f64 = p.phases.values().map(|ph| ph.cycles.get(CostCategory::Transition)).sum();
    assert!(transition > 0.0, "the ECALL must land in the transition bin");
}

/// Fig 6 cross-check: the profiler's "build" total equals the busy-cycle
/// delta the join's own phase breakdown measures (same commits, so only
/// float re-association separates them); "probe" is bounded by the
/// breakdown's probe figure, which additionally includes dequeue waits.
#[test]
fn profile_build_phase_matches_fig6_breakdown() {
    let (p, _c, stats) = with_profile(|| rho_join_run(1, 4));
    let build_prof = p.phases["build"].cycles.total();
    let build_stat = stats.phase("build");
    assert!(build_stat > 0.0);
    let rel = (build_prof - build_stat).abs() / build_stat;
    assert!(rel < 1e-9, "profile build {build_prof} vs breakdown build {build_stat} (rel {rel})");
    let probe_prof = p.phases["probe"].cycles.total();
    let probe_stat = stats.phase("probe");
    assert!(probe_prof > 0.0);
    assert!(
        probe_prof <= probe_stat * (1.0 + 1e-9),
        "profile probe {probe_prof} must not exceed breakdown probe {probe_stat}"
    );
}

/// Fault engine: an AEX storm delivers interrupts, and every AEX is a
/// two-crossing enclave round trip.
#[test]
fn aex_events_attribute_their_transitions() {
    let c = aex_storm_run(false);
    assert!(c.aex_events > 0, "a storm over a long phase must fire");
    assert!(
        c.transitions >= 2 * c.aex_events,
        "each AEX exits and resumes ({} vs {})",
        c.transitions,
        c.aex_events
    );
}

/// Sixteen OCALLs against a fault engine that fails half of the attempts.
fn ocall_retry_run() -> Counters {
    let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
    m.install_faults(FaultProfile::new(11).with_ocall_faults(0.5, 3, 2_000.0));
    m.run(|c| {
        for _ in 0..16 {
            c.ocall();
        }
    });
    m.counters().clone()
}

/// Every counter and every cost-category bin is written by some scenario
/// of this file. The scenarios run under one profiled session, so their
/// machines' counters and phase bins add up there. The test walks the one
/// counter list (`Counters::fields`) and `CostCategory::ALL`, so a new
/// counter or bin is covered as soon as it exists, and a dead one fails.
#[test]
fn every_counter_and_cost_bin_is_written() {
    let (p, c, _) = with_profile(|| {
        hierarchy_run();
        compute_run();
        stream_run();
        futex_run();
        edmm_run();
        paging_run();
        remote_run();
        aex_storm_run(true);
        ocall_retry_run();
        rho_join_run(2, 6);
        column_scan_run();
    });
    for (name, _, v) in c.fields() {
        assert!(v > 0, "counter `{name}` is never written");
    }

    let mut bins = profile::CategoryCycles::default();
    for phase in p.phases.values() {
        bins.merge(&phase.cycles);
    }
    for cat in CostCategory::ALL {
        assert!(bins.get(cat) > 0.0, "cost bin `{}` is never written", cat.label());
    }
}
