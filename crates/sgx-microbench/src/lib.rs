//! # sgx-microbench — the paper's micro-benchmarks
//!
//! Reusable implementations of the micro-benchmarks the paper uses to
//! isolate SGXv2 overheads:
//!
//! * [`pointer_chase`](fn@pointer_chase) — dependent random reads (pmbw pointer chasing,
//!   §4.1, Fig 5 left),
//! * [`random_write`](fn@random_write) — independent random 8-byte stores driven by an LCG
//!   (§4.1, Fig 5 right),
//! * [`histogram_bench`] — the radix-histogram kernel in naive, manually
//!   unrolled, and SIMD-unrolled forms (§4.2, Fig 7, Listings 1/2),
//! * [`increment_bench`] — the cache-resident increment loop the paper
//!   used to rule out the increments themselves as the §4.2 culprit.
//!
//! The crate-level calibration tests (`tests/calibration.rs`) assert that
//! the simulator reproduces the paper's measured ratios, which is the
//! load-bearing evidence for every higher-level experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod pointer_chase;
pub mod random_write;

pub use histogram::{histogram_bench, histogram_kernel, HistKernel, HistResult};
pub use pointer_chase::{build_cycle, pointer_chase, ChaseResult};
pub use random_write::{lcg_next, random_write, WriteResult};

use sgx_sim::{HwConfig, Machine, Setting};

/// Measured cost of enclave boundary crossings (the ECALL/OCALL round
/// trips behind §4.4's mutex and memory-allocation findings): issue `n`
/// OCALL round trips from a worker and return the average cycles per
/// round trip (0 in native mode — there is no boundary to cross).
pub fn transition_bench(cfg: HwConfig, setting: Setting, n: u64) -> f64 {
    let mut machine = Machine::new(cfg, setting);
    machine.run(|c| {
        for _ in 0..n {
            c.transition(); // OCALL out
            c.transition(); // EENTER back
        }
    });
    machine.wall_cycles() / n as f64
}

/// The isolating check from §4.2: increment random slots of one
/// cache-resident array, with ALU-generated indexes. The paper observed no
/// enclave slowdown here, pinning the histogram regression on the
/// interleaving of table loads and histogram updates.
pub fn increment_bench(cfg: HwConfig, setting: Setting, bins: usize, n: u64, seed: u64) -> f64 {
    let mut machine = Machine::new(cfg, setting);
    let mut hist = machine.alloc::<u32>(bins);
    machine.run(|c| {
        let mut x = seed | 1;
        for _ in 0..n {
            x = lcg_next(x);
            c.compute(3);
            hist.rmw(c, (x >> 33) as usize % bins, |e| *e += 1);
        }
    });
    machine.wall_cycles()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;

    #[test]
    fn transitions_cost_tens_of_thousands_of_cycles_only_in_enclave() {
        let native = transition_bench(scaled_profile(), Setting::PlainCpu, 100);
        assert_eq!(native, 0.0, "no boundary to cross natively");
        let sgx = transition_bench(scaled_profile(), Setting::SgxDataInEnclave, 100);
        // TEEBench/sgx-perf report ~8k-14k cycles per one-way crossing.
        assert!((15_000.0..30_000.0).contains(&sgx), "round trip {sgx}");
    }

    #[test]
    fn increment_bench_near_parity_in_enclave() {
        let native = increment_bench(scaled_profile(), Setting::PlainCpu, 1024, 100_000, 3);
        let enclave = increment_bench(scaled_profile(), Setting::SgxDataInEnclave, 1024, 100_000, 3);
        let rel = enclave / native;
        assert!(rel < 1.25, "increment-only loop should be near-native, got {rel:.2}");
    }
}
