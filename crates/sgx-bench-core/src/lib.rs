//! # sgx-bench-core — benchmark framework and public facade
//!
//! Reproduction of *"Benchmarking Analytical Query Processing in Intel
//! SGXv2"* (EDBT 2025). This crate ties the substrate crates together:
//!
//! * [`sgx_sim`] — the deterministic SGXv2 platform simulator,
//! * [`sgx_joins`] — PHT, RHO, MWAY, INL and CrkJoin,
//! * [`sgx_scans`] — AVX-512-style column scans and linear kernels,
//! * [`sgx_microbench`] — pointer chase, random writes, histograms,
//! * [`sgx_index`] — the B+-tree behind the INL join,
//! * [`sgx_tpch`] — the TPC-H subset and queries Q3/Q10/Q12/Q19,
//!
//! and adds the experiment plumbing: benchmark [`profiles`] (paper-exact
//! vs proportionally scaled), repetition statistics, and the
//! [`report::Figure`] data model each `bench/src/bin/figNN` harness emits.
//!
//! ## Quickstart
//!
//! ```
//! use sgx_bench_core::prelude::*;
//!
//! // A machine in the paper's "SGX (Data in Enclave)" setting.
//! let profile = BenchProfile::tiny();
//! let mut machine = Machine::new(profile.hw.clone(), Setting::SgxDataInEnclave);
//!
//! // TEEBench-style inputs and an optimized RHO join.
//! let r = gen_pk_relation(&mut machine, 10_000, 1);
//! let s = gen_fk_relation(&mut machine, 40_000, 10_000, 2);
//! let cfg = JoinConfig::new(4).with_radix_bits(6).with_optimization(true);
//! let stats = sgx_joins::rho::rho_join(&mut machine, &r, &s, &cfg);
//! assert_eq!(stats.matches, 40_000);
//! println!("throughput: {:.1} M rows/s", stats.mrows_per_sec(r.len(), s.len(), 2.9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod experiments;
pub mod golden;
pub mod json;
pub mod percentile;
pub mod profiles;
pub mod report;
pub mod runner;
pub mod simbench;
mod sweep;

pub use percentile::Histogram;
pub use profiles::{BenchProfile, RunOpts};
pub use report::{Figure, Series, Stat};

// Re-export the substrate crates as a single facade.
pub use sgx_index;
pub use sgx_joins;
pub use sgx_microbench;
pub use sgx_scans;
pub use sgx_serve;
pub use sgx_sim;
pub use sgx_tpch;

/// Everything a benchmark or example typically needs.
pub mod prelude {
    pub use crate::profiles::{BenchProfile, RunOpts};
    pub use crate::report::{Figure, Series, Stat};
    pub use sgx_joins::{
        gen_fk_relation, gen_pk_relation, reference_join, JoinConfig, JoinStats, QueueKind, Row,
    };
    pub use sgx_microbench::{histogram_bench, pointer_chase, random_write, HistKernel};
    pub use sgx_scans::{column_scan, gen_column, ScanConfig, ScanOutput};
    pub use sgx_sim::{config, Core, Counters, ExecMode, HwConfig, Machine, Region, Setting, SimVec};
    pub use sgx_tpch::{run_query, Query, QueryConfig};
}

/// Run `f` `reps` times with distinct seeds and aggregate the returned
/// metric (the paper reports arithmetic mean and standard deviation over
/// 10 runs).
pub fn repeat(reps: usize, f: impl FnMut(u64) -> f64) -> Stat {
    let runs: Vec<f64> = rep_seeds(reps).map(f).collect();
    Stat::from_runs(&runs)
}

/// The seeds [`repeat`] passes, in order: one per repetition, at least one.
pub(crate) fn rep_seeds(reps: usize) -> impl Iterator<Item = u64> {
    (0..reps.max(1) as u64).map(|r| 0xC0FFEE + r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_aggregates_with_distinct_seeds() {
        let mut seeds = Vec::new();
        let s = repeat(3, |seed| {
            seeds.push(seed);
            seed as f64
        });
        assert_eq!(seeds.len(), 3);
        assert!(seeds.windows(2).all(|w| w[0] != w[1]));
        assert!(s.stddev > 0.0);
        let one = repeat(0, |_| 7.0);
        assert_eq!(one.mean, 7.0);
    }
}
