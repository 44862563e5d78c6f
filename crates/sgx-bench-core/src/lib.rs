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
//! [`report::Figure`] data model every `all_figures` job emits.
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

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]
#![warn(missing_docs)]

/// `write!` into a `&mut String` through [`put`], for the text writers
/// (`chart`, `json`, `report`).
macro_rules! put {
    ($out:expr, $($fmt:tt)+) => {
        $crate::put($out, format_args!($($fmt)+))
    };
}

/// Append formatted text to `out`. The one place the text writers drop a
/// `fmt::Result`, because `fmt::Write` for `String` cannot fail.
pub(crate) fn put(out: &mut String, args: std::fmt::Arguments<'_>) {
    #[expect(clippy::let_underscore_must_use, reason = "fmt::Write for String cannot fail")]
    let _ = std::fmt::Write::write_fmt(out, args);
}

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

/// The seeds of a point's repetitions, in order: one per repetition, at
/// least one.
pub(crate) fn rep_seeds(reps: usize) -> impl Iterator<Item = u64> {
    (0..reps.max(1) as u64).map(|r| 0xC0FFEE + r)
}

/// Run `point` `reps` times with distinct seeds for every configuration
/// of a grid, as one `sweep` on the job's thread budget, and aggregate
/// each configuration's runs into one [`Stat`] (the paper reports
/// arithmetic mean and standard deviation over 10 runs). The stats are
/// bitwise what a sequential loop over the configurations and seeds
/// gives. The points are listed configuration-major, then by seed, which
/// is the order such a loop builds their machines in; `bytes` sizes a
/// configuration's points for the sweep's claim order.
pub(crate) fn repeat_grid<C: Sync>(
    reps: usize,
    configs: &[C],
    bytes: impl Fn(&C) -> usize,
    point: impl Fn(&C, u64) -> f64 + Sync,
) -> Vec<Stat> {
    repeat_grid_on(runner::sweep_threads(), reps, configs, bytes, point)
}

/// [`repeat_grid`] on at most `threads` threads in total, the caller
/// included.
pub(crate) fn repeat_grid_on<C: Sync>(
    threads: usize,
    reps: usize,
    configs: &[C],
    bytes: impl Fn(&C) -> usize,
    point: impl Fn(&C, u64) -> f64 + Sync,
) -> Vec<Stat> {
    let points: Vec<(&C, u64)> =
        configs.iter().flat_map(|c| rep_seeds(reps).map(move |seed| (c, seed))).collect();
    let runs = sweep::sweep_on(threads, &points, |&(c, _)| bytes(c), |&(c, seed)| point(c, seed));
    runs.chunks_exact(rep_seeds(reps).count()).map(Stat::from_runs).collect()
}

/// Run `f` `reps` times with distinct seeds and aggregate the returned
/// metric, on the calling thread: the sequential oracle of
/// [`repeat_grid`]'s tests.
#[cfg(test)]
pub(crate) fn repeat(reps: usize, f: impl FnMut(u64) -> f64) -> Stat {
    let runs: Vec<f64> = rep_seeds(reps).map(f).collect();
    Stat::from_runs(&runs)
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
