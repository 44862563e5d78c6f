//! The simulated machine: cores, caches, memory, enclave state, and the
//! cost model that turns memory accesses into cycles.
//!
//! # Execution model
//!
//! Operators run *functionally* on real data (they compute real join and
//! scan results) while every charged access drives this model. Workers of a
//! parallel phase execute sequentially in simulation, each accumulating its
//! own cycle count; the phase's wall time is the maximum worker time,
//! additionally bounded from below by the DRAM- and UPI-bandwidth caps
//! (shared-resource regulation).
//!
//! # Layered pipeline
//!
//! The model is split into layers, one module per hardware concern; this
//! file holds the shared state (`Machine`, `Core`, calibrated constants)
//! and each layer contributes `impl` blocks:
//!
//! * [`core`](self) — pipeline aggregation (ILP/MLP pooling, issue groups,
//!   dependency chains), branch and compute charges, phase orchestration
//!   and the per-core busy clocks. Owns the `core::Charge` choke point:
//!   every layer commits cycles through `Core::commit`, which is the only
//!   place (besides the fault engine's own exempt path) that advances the
//!   busy clock and ticks the fault engine.
//! * `access` — the load/store/stream entry points: random-pattern
//!   accesses, non-temporal stores, stream touches, and the charged
//!   `SimVec`/`StreamReader`/`StreamWriter` APIs.
//! * `hierarchy` — the L1/L2/L3 walk, TLB, installs/spills/write-backs,
//!   and the DRAM bandwidth cap.
//! * `epc` — the enclave memory boundary: EPC allocation limits, EDMM
//!   commits, SGXv1 paging, and MEE bus inflation.
//! * `numa` — UPI interconnect accounting and its bandwidth cap.
//! * `transitions` — ECALL/OCALL round trips, enclave boundary
//!   crossings, and AEX delivery (the fault tick itself).
//!
//! Layer files carry the `sgx-lint: fault-tick-module` pragma, so the
//! workspace lint proves every cycle-charging function in the set reaches
//! `fault_tick` — directly or through `commit`.
//!
//! The `commit` choke point is also where the opt-in cycle-attribution
//! profiler ([`crate::profile`]) observes the machine: every charge
//! carries a [`crate::profile::CostCategory`] (via `core::Tally`), and a
//! machine built while profiling is enabled attributes each charge to the
//! current phase scope (see [`Machine::phase`]).
//!
//! # Cost model summary (anchored to the paper)
//!
//! * Cache hit: level latency, overlapped by the out-of-order engine
//!   (`ilp_*`); *loads outside explicit issue groups serialize in enclave
//!   mode* — this is the §4.2 instruction-reordering restriction that makes
//!   naive histogram loops 225 % slower and that manual unrolling (issue
//!   groups) repairs.
//! * Random DRAM fill: full latency; loads overlap up to `mlp_*`
//!   outstanding misses (natively) but serialize in enclave mode unless
//!   grouped; EPC fills add MEE decrypt latency (§4.1), stores add the MEE
//!   write penalty, remote fills add UPI (+UCE in enclave mode) latency.
//! * Sequential (prefetched) traffic: bandwidth-bound per line with a small
//!   MEE tax (§5.1/§5.4) — the stream detector recognizes sequential fill
//!   patterns automatically, and the explicit `read_stream`/`StreamWriter`
//!   APIs model scan-style code.

use crate::cache::{Cache, StreamDetector};
use crate::config::HwConfig;
use crate::counters::Counters;
use crate::faults::FaultEngine;
use crate::mem::{ExecMode, RegionAlloc, Setting};
use crate::paging::Pager;
use std::collections::BTreeSet;

mod access;
mod core;
mod epc;
mod hierarchy;
mod numa;
mod transitions;

pub use self::access::{StreamReader, StreamWriter};

/// Per-line transfer cost when the line is found in a given cache level
/// during streaming (bytes-per-cycle limits of the level).
const L1_STREAM_LINE: f64 = 1.0;
const L2_STREAM_LINE: f64 = 2.5;
const L3_STREAM_LINE: f64 = 6.0;
/// Near-cost attributed to a prefetched DRAM fill (the demand access only
/// pays an L2-ish latency because the prefetcher ran ahead).
const PREFETCHED_NEAR: f64 = 2.0;
/// Issue cost per scalar element of a stream access.
const STREAM_ELEM_ISSUE: f64 = 0.5;
/// Extra per-load-instruction cost for stream loads in enclave mode;
/// calibrated against Fig 15 (64-bit linear reads −5.5 %, 512-bit ≈ −3 %).
const ENCLAVE_STREAM_LOAD_TAX: f64 = 0.08;
/// Issue cost of one 512-bit vector load/store.
const VEC_ISSUE: f64 = 1.0;
/// Pipeline-flush cost of one mispredicted branch (Ice Lake: ~17 cycles).
const BRANCH_MISS_CYCLES: f64 = 17.0;
/// Sentinel meaning "no random-access context": set at phase start and
/// whenever a stream element is consumed. The §4.2 enclave serialization
/// penalty only strikes loads issued in this state (the paper's Listing 1
/// pattern: scan the table, then use the value for an irregular access);
/// the paper verified that a loop incrementing a cache-resident array
/// alone — no interleaved stream — shows no enclave slowdown.
const CTX_POISON: u64 = u64::MAX;

/// Classification of a charged access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain load.
    Load,
    /// Plain store (fire-and-forget through the store buffer).
    Store,
    /// Read-modify-write of one location (load + dependent store).
    Rmw,
}

/// Resolved cost of one access before pipeline aggregation.
#[derive(Debug, Clone, Copy)]
struct AccessCost {
    /// Short-latency portion (cache-hit latency / miss-handling overhead).
    near: f64,
    /// DRAM-latency portion (overlappable through MLP).
    far: f64,
    /// True when the access is a read-modify-write whose dependency chain
    /// serializes in enclave mode unless it is inside an explicit issue
    /// group (pure loads stay speculatively overlapped — the paper's PHT
    /// *probe* phase degrades only mildly while the *build* phase
    /// collapses, Fig 4).
    serial_load: bool,
    /// Cost category of the level/region that served the access
    /// (cache hit / local DRAM / MEE / UPI), for profile attribution.
    cat: crate::profile::CostCategory,
}

/// Accumulator for an explicit issue group (a manual unroll).
#[derive(Debug, Default, Clone, Copy)]
struct GroupAcc {
    near_sum: f64,
    near_max: f64,
    far_sum: f64,
    count: u32,
    /// Raw (near+far) cycles per cost category, indexed by
    /// `CostCategory::index`; the pooled charge of the group is attributed
    /// to the dominant category at close time.
    cats: [f64; 9],
}

/// Aggregated outcome of a parallel phase.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Wall-clock cycles of the phase after bandwidth regulation.
    pub wall_cycles: f64,
    /// Busy cycles per participating worker.
    pub core_cycles: Vec<f64>,
    /// True when a DRAM or UPI bandwidth cap (not core time) set the wall
    /// time.
    pub bandwidth_bound: bool,
}

/// Per-core hardware state.
struct CoreHw {
    l1: Cache,
    l2: Cache,
    streams: StreamDetector,
    /// Direct-mapped second-level TLB (page tags; `u64::MAX` = invalid).
    tlb: Vec<u64>,
    /// Precomputed exact `page % tlb.len()` (the TLB entry counts of the
    /// shipped profiles — 1536 full, 96 scaled — are not powers of two).
    tlb_fm: crate::fastdiv::FastMod,
}

/// The simulated machine. Construct one per experiment repetition.
pub struct Machine {
    cfg: HwConfig,
    setting: Setting,
    mode: ExecMode,
    allocs: Vec<RegionAlloc>,
    cores: Vec<CoreHw>,
    l3: Vec<Cache>,
    counters: Counters,
    wall: f64,
    sealed: bool,
    seal_watermark: Vec<u64>,
    committed_pages: BTreeSet<u64>,
    pager: Option<Pager>,
    faults: Option<FaultEngine>,
    /// Cumulative busy cycles per hardware core across finished phases —
    /// the per-core local clock the fault engine schedules against.
    core_clock: Vec<f64>,
    /// Cycle-attribution context, installed at construction when
    /// `profile::enabled()` is set on this thread; `None` (one branch per
    /// commit) otherwise.
    prof: Option<Box<crate::profile::ProfCtx>>,
    /// Testing/measurement hook: when set, stream touches always take the
    /// per-line slow path (the fast path's oracle); see
    /// [`Machine::force_stream_oracle`].
    stream_oracle: bool,
}

/// Handle through which operator code charges work while running on one
/// simulated core. Obtained from [`Machine::run`] / [`Machine::parallel`].
pub struct Core<'m> {
    m: &'m mut Machine,
    id: usize,
    socket: usize,
    cycles: f64,
    dram_bytes: Vec<f64>,
    upi_bytes: f64,
    group: Option<GroupAcc>,
    dependent_depth: u32,
    windex: usize,
    /// EPC page faults raised by this worker in the current phase (SGXv1
    /// paging serializes globally; see `finish_phase`).
    faults: u64,
    /// EDMM pages this worker committed in the current phase (EAUG goes
    /// through the globally locked EPC page-management path).
    edmm_pages: u64,
    /// Last random-access address, for object-alternation detection.
    last_rand_addr: u64,
}

#[cfg(test)]
mod tests;
