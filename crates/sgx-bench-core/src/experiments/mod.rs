//! One function per paper table/figure, each returning a renderable
//! [`Figure`](crate::report::Figure).
//!
//! Every function is parameterized by a [`BenchProfile`](crate::profiles::BenchProfile), so the same code
//! runs the paper-exact sizes (`--full`) and the proportionally scaled
//! default. The `bench` crate's `all_figures` harness runs them through
//! the [`runner`](crate::runner) registry; the workspace integration tests
//! run these functions on a tiny profile and assert the qualitative shapes
//! (who wins, orderings, crossovers) hold.
//!
//! Where every point of a figure builds a machine of its own, the points
//! run as one `crate::sweep` on the job's thread budget, listed in the
//! order a sequential loop builds their machines: through
//! `crate::repeat_grid` for configurations × repetitions, or directly.
//! A point returns plain numbers, never an operator's stats, so nothing
//! it built (such as a materialized join result) outlives it.

pub mod extensions;
pub mod faults;
pub mod joins;
pub mod micro;
pub mod scans;
pub mod service;
pub mod storage;
pub mod table1;
pub mod tpch;

pub use extensions::{
    ablation_radix_bits, ablation_swwcb, ext_aggregation, ext_dual_socket_scan,
    ext_packed_scan, ext_skew,
};
pub use faults::ext_aex_storm;
pub use joins::{
    fig01_intro, fig03_overview, fig04_pht, fig06_rho_breakdown, fig08_optimized,
    fig09_numa_join, fig10_queues, fig11_edmm, sgxv1_ablation,
};
pub use micro::{fig05_random_access, fig07_histogram};
pub use scans::{
    fig12_scan_single, fig13_scan_scaling, fig14_selectivity, fig15_linear, fig16_numa_scan,
};
pub use service::ext_service_tail;
pub use storage::ext_storage_path;
pub use table1::table1;
pub use tpch::fig17_tpch;

use crate::report::Stat;

/// Push one series per label, in order, each taking the next x-axis's
/// worth of `stats`: a `repeat_grid` result whose configurations are
/// listed series-major.
pub(crate) fn push_grid(fig: &mut crate::report::Figure, labels: &[&str], stats: &[Stat]) {
    assert_eq!(stats.len(), labels.len() * fig.xs.len(), "one x-axis of points per series");
    for (label, row) in labels.iter().zip(stats.chunks_exact(fig.xs.len())) {
        fig.push_series(label, row.iter().copied().map(Some).collect());
    }
}
