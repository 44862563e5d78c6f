//! # sgx-sim — a deterministic Intel SGXv2 platform performance simulator
//!
//! This crate is the hardware substrate of the reproduction of
//! *"Benchmarking Analytical Query Processing in Intel SGXv2"* (EDBT 2025).
//! The paper measures real SGXv2 silicon; this environment has none, so the
//! crate models the platform characteristics the paper identifies:
//!
//! * a three-level cache hierarchy with a stream prefetcher ([`cache`]),
//! * DRAM plus the memory-encryption engine (MEE) that makes random EPC
//!   accesses expensive but hides behind prefetching for sequential scans
//!   (§4.1, §5.1),
//! * the enclave-mode instruction-scheduling restriction that manual loop
//!   unrolling repairs (§4.2) — expressed as *issue groups*
//!   ([`Core::group`]),
//! * two NUMA nodes connected by UPI links with the SGXv2 UPI Crypto
//!   Engine (§5.5),
//! * enclave transitions, the SDK mutex sleep/wake path (§4.4), EDMM
//!   dynamic page commits (Fig 11), and an optional SGXv1-style EPC pager.
//!
//! Operator code runs *for real* on real data held in [`SimVec`]s — only
//! time is simulated. See `DESIGN.md` at the workspace root for the full
//! substitution argument and `tests/calibration.rs` for the measurements
//! that pin the model to the paper.
//!
//! ## Example
//!
//! ```
//! use sgx_sim::{Machine, Setting, config};
//!
//! let mut machine = Machine::new(config::scaled_profile(), Setting::SgxDataInEnclave);
//! let mut data = machine.alloc::<u64>(1 << 16);
//! machine.run(|core| {
//!     for i in 0..data.len() {
//!         data.set(core, i, i as u64);
//!     }
//! });
//! assert!(machine.wall_cycles() > 0.0);
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

pub mod cache;
pub mod config;
pub mod counters;
pub(crate) mod fastdiv;
pub mod faults;
pub mod machine;
pub mod mem;
pub mod paging;
pub mod profile;
pub mod sync;
mod tokenizer;

pub use config::HwConfig;
pub use counters::Counters;
pub use faults::{
    ocall_cost, stream_draw, stream_unit, AexStorm, EpcPressure, FaultEvent, FaultKind,
    FaultProfile, OcallFaults, MAX_BACKOFF_EXP,
};
pub use machine::{
    worker_range, AccessKind, Core, Machine, PhaseStats, SinkWriter, StreamReader, StreamWriter,
    Unroll,
};
pub use mem::{ExecMode, Region, Setting, SimSink, SimVec, VecSlot};
pub use profile::{CategoryCycles, CostCategory, PhaseGuard, PhaseProfile, Profile};
