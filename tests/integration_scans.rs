//! Integration tests for the scan kernels across settings, plus property
//! tests on scan invariants.

use proptest::prelude::*;
use sgx_bench_core::prelude::*;
use sgx_bench_core::sgx_scans::{reference_filter, reference_scan_digest};
use sgx_bench_core::sgx_sim::config::xeon_gold_6326;

fn tiny_hw() -> HwConfig {
    xeon_gold_6326().scaled(64)
}

#[test]
fn scan_counts_are_setting_independent() {
    let mut reference = None;
    for setting in Setting::all() {
        let mut m = Machine::new(tiny_hw(), setting);
        let col = gen_column(&mut m, 100_000, 7);
        for output in [ScanOutput::BitVector, ScanOutput::Indexes] {
            let stats = column_scan(&mut m, &col, 40, 200, output, &ScanConfig::new(8));
            match reference {
                None => reference = Some(stats.matches),
                Some(r) => assert_eq!(stats.matches, r, "{setting:?} {output:?}"),
            }
        }
    }
    assert!(reference.unwrap() > 0);
}

#[test]
fn enclave_scan_stays_within_single_digit_overhead() {
    let run = |setting: Setting| {
        let mut m = Machine::new(tiny_hw(), setting);
        let col = gen_column(&mut m, 8 << 20, 3);
        column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &ScanConfig::new(8)).cycles
    };
    let overhead = run(Setting::SgxDataInEnclave) / run(Setting::PlainCpu) - 1.0;
    assert!(
        (0.0..0.10).contains(&overhead),
        "paper §5: scans lose only a few percent; got {:.1}%",
        overhead * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: the vectorized scans agree with the scalar reference
    /// filter for arbitrary predicates and column sizes, in their match
    /// counts and in the outputs they write.
    #[test]
    fn scans_match_reference_filter(
        n in 1usize..50_000,
        lo in 0u8..=255,
        span in 0u8..=255,
        seed in 0u64..500,
        threads in 1usize..16,
    ) {
        let hi = lo.saturating_add(span);
        let mut m = Machine::new(tiny_hw(), Setting::SgxDataInEnclave);
        let col = gen_column(&mut m, n, seed);
        let expected = reference_filter(&col, lo, hi).len() as u64;
        for output in [ScanOutput::BitVector, ScanOutput::Indexes] {
            let stats = column_scan(&mut m, &col, lo, hi, output, &ScanConfig::new(threads));
            prop_assert_eq!(stats.matches, expected);
            prop_assert_eq!(stats.digest, reference_scan_digest(&col, lo, hi, output, threads));
        }
    }

    /// Property: selectivity only adds write cost — never reduces it —
    /// and full-range scans match everything.
    #[test]
    fn wider_predicates_cost_more_to_materialize(n in 10_000usize..60_000, seed in 0u64..100) {
        let mut m = Machine::new(tiny_hw(), Setting::PlainCpu);
        let col = gen_column(&mut m, n, seed);
        let narrow = column_scan(&mut m, &col, 0, 10, ScanOutput::Indexes, &ScanConfig::new(4));
        let full = column_scan(&mut m, &col, 0, 255, ScanOutput::Indexes, &ScanConfig::new(4));
        prop_assert_eq!(full.matches, n as u64);
        prop_assert!(full.cycles > narrow.cycles,
            "100% selectivity must write more: {} vs {}", full.cycles, narrow.cycles);
    }
}
