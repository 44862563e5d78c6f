//! # sgx-tpch — TPC-H subset generator and materializing query engine
//!
//! Implements §6 of the paper: TPC-H queries Q3, Q10, Q12 and Q19 as
//! scan/join plans with full operator materialization ("as in
//! MonetDB"), over an integer-encoded TPC-H subset generated at an
//! arbitrary scale factor. The joins are the RHO implementations from
//! `sgx-joins`, so the §4.2 optimization can be toggled per query — the
//! experiment behind Fig 17. Beyond the paper's `count(*)` cut-off,
//! Q3/Q10 run real grouped + ordered tails through the operator zoo of
//! ROADMAP item 3: external merge sort ([`sort`]), dictionary/RLE
//! compression ([`compress`]), and the sealed storage data path
//! ([`storage`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod compress;
pub mod gen;
pub mod ops;
pub mod queries;
pub mod sort;
pub mod storage;

pub use aggregate::{
    group_count, group_mask, group_sum_tuples, reference_group_count, GroupCounts, GroupSums,
};
pub use compress::{DictColumn, RleColumn};
pub use gen::{date, generate, TpchDb};
pub use queries::{
    cost_estimate, q1_pricing_summary, q6_forecast_revenue, reference_count,
    reference_q10_revenue, reference_q3_topk, run_query, Query, QueryConfig, QueryStats,
    ESTIMATE_SPREAD_TOLERANCE, Q3_TOP_K,
};
pub use sort::{external_merge_sort, reference_sort, SortRow, SortStats};
pub use storage::{
    clustered_column, reference_storage_query, reference_unseal, seal_column, storage_path_query,
    unseal, SealedColumn, StorageFormat, StoragePathStats, UnsealedColumn,
};
