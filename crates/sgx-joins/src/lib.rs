//! # sgx-joins — parallel in-memory join algorithms for the SGXv2 study
//!
//! Implementations of the five join algorithms §4 of the paper evaluates,
//! all running against the `sgx-sim` machine model:
//!
//! * [`pht::pht_join`] — Parallel Hash Table join (Blanas et al.): shared
//!   chaining hash table, latched buckets.
//! * [`rho::rho_join`] — Radix Hash Optimized join (Manegold et al. /
//!   Balkesen et al.): multi-pass parallel radix partitioning with
//!   software write-combining buffers, then cache-resident hash joins.
//! * [`mway::mway_join`] — Multi-Way Sort-Merge join (Kim et al.).
//! * [`inl::inl_join`] — Index Nested Loop join over the `sgx-index`
//!   B+-tree.
//! * [`crkjoin::crk_join`] — CrkJoin (Maliszewski et al.), the
//!   SGXv1-optimized cracking join that partitions in place one radix bit
//!   at a time with two-pointer swaps.
//!
//! Every join computes real matches over real tuples; the returned
//! [`JoinStats`] carry simulated timings, per-phase breakdowns
//! (Figs 4 & 6), and a checksum tests verify against [`data::reference_join`].

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

pub mod common;
pub mod crkjoin;
pub mod data;
pub mod inl;
pub mod mway;
pub mod pht;
pub mod rho;

pub use common::{JoinConfig, JoinStats, JoinTuple, QueueKind, Row};
pub use data::{gen_fk_relation, gen_fk_zipf, gen_pk_relation, reference_join};
