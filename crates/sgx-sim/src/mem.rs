//! Virtual address space, memory regions and the typed `SimVec` container.
//!
//! Every byte an operator touches lives in a [`Region`]: untrusted DRAM or
//! the Enclave Page Cache (EPC), each pinned to a NUMA node. The region an
//! access targets — together with the machine's [`ExecMode`] — determines
//! which costs the memory model charges (MEE encryption, UPI/UCE crossing,
//! EDMM page commits, SGXv1 paging).

use crate::config::CACHE_LINE;

/// Whether the simulated CPU executes in enclave mode or natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Normal (unprotected) execution.
    Native,
    /// Execution inside an SGX enclave (after EENTER).
    Enclave,
}

/// Regions are laid out 1 TiB apart: `addr >> REGION_SHIFT` identifies
/// the region of any simulated address.
const REGION_SHIFT: u32 = 40;

/// Where data physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Ordinary untrusted DRAM on the given NUMA node.
    Untrusted(u8),
    /// Encrypted EPC memory on the given NUMA node.
    Epc(u8),
}

impl Region {
    /// NUMA node the region's memory is attached to.
    pub fn node(self) -> usize {
        match self {
            Region::Untrusted(n) | Region::Epc(n) => n as usize,
        }
    }

    /// True for EPC regions (data encrypted at rest).
    pub fn is_epc(self) -> bool {
        matches!(self, Region::Epc(_))
    }

    /// Dense index used for allocator bookkeeping: `node * 2 + is_epc`.
    pub(crate) fn index(self) -> usize {
        self.node() * 2 + usize::from(self.is_epc())
    }

    pub(crate) fn from_index(i: usize) -> Region {
        let node = (i / 2) as u8;
        if i % 2 == 1 { Region::Epc(node) } else { Region::Untrusted(node) }
    }

    /// Base virtual address of the region (1 TiB apart, so a region is
    /// recoverable from any address).
    pub(crate) fn base(self) -> u64 {
        ((self.index() as u64) + 1) << REGION_SHIFT
    }

    /// Recover the region an address belongs to.
    #[inline]
    pub(crate) fn of_addr(addr: u64) -> Region {
        Region::from_index(((addr >> REGION_SHIFT) - 1) as usize)
    }
}

/// The three benchmark settings of the paper (§3):
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// (1) Native code, data in untrusted memory; no protection, no cost.
    PlainCpu,
    /// (2) Enclave code, data stored inside the enclave (EPC).
    SgxDataInEnclave,
    /// (3) Enclave code, data in untrusted memory: isolates code-execution
    /// effects from memory-encryption effects.
    SgxDataOutside,
}

impl Setting {
    /// Execution mode implied by the setting.
    pub fn mode(self) -> ExecMode {
        match self {
            Setting::PlainCpu => ExecMode::Native,
            _ => ExecMode::Enclave,
        }
    }

    /// Default placement region for working data on `node`.
    pub fn data_region(self, node: u8) -> Region {
        match self {
            Setting::SgxDataInEnclave => Region::Epc(node),
            _ => Region::Untrusted(node),
        }
    }

    /// Short label used in reports, mirroring the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Setting::PlainCpu => "Plain CPU",
            Setting::SgxDataInEnclave => "SGX (Data in Enclave)",
            Setting::SgxDataOutside => "SGX (Data outside Enclave)",
        }
    }

    /// All three settings in the paper's presentation order.
    pub fn all() -> [Setting; 3] {
        [Setting::PlainCpu, Setting::SgxDataInEnclave, Setting::SgxDataOutside]
    }
}

/// Bump allocator state for one region.
#[derive(Debug, Default, Clone)]
pub(crate) struct RegionAlloc {
    /// Bytes handed out so far.
    pub used: u64,
}

impl RegionAlloc {
    /// Allocate `bytes` aligned to a cache line; returns region-relative
    /// offset.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let off = (self.used + (CACHE_LINE as u64 - 1)) & !(CACHE_LINE as u64 - 1);
        self.used = off + bytes;
        off
    }
}

/// A typed array living in simulated memory.
///
/// `SimVec` owns real backing storage (operators compute real results) and
/// knows its simulated address, so charged accessors (`get`, `set`, `rmw`,
/// `iter_stream`, …) drive the machine's cache/memory model while `peek` /
/// `poke` bypass accounting for test setup and verification.
pub struct SimVec<T> {
    buf: Vec<T>,
    base: u64,
    region: Region,
}

impl<T: Copy + Default> SimVec<T> {
    /// Internal constructor; use `Machine::alloc`.
    pub(crate) fn new(len: usize, base: u64, region: Region) -> Self {
        SimVec { buf: vec![T::default(); len], base, region }
    }
}

/// The simulated addresses of a `SimVec` that has no host memory yet.
///
/// `Machine::reserve_vec` takes the addresses `alloc` would at that point,
/// so every later allocation keeps its address; [`VecSlot::alloc`] makes
/// the `SimVec` when it is needed. Scratch that a phase's workers use one
/// at a time can thus be reserved for every worker up front and be
/// resident for one worker at a time.
pub struct VecSlot<T> {
    len: usize,
    base: u64,
    region: Region,
    elem: std::marker::PhantomData<T>,
}

impl<T: Copy + Default> VecSlot<T> {
    /// Internal constructor; use `Machine::reserve_vec`.
    pub(crate) fn new(len: usize, base: u64, region: Region) -> Self {
        VecSlot { len, base, region, elem: std::marker::PhantomData }
    }

    /// Back the reserved addresses with a default-filled `SimVec`.
    pub fn alloc(self) -> SimVec<T> {
        SimVec::new(self.len, self.base, self.region)
    }
}

impl<T: Copy> SimVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Size of the backing storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<T>()
    }

    /// Region this vector was allocated in.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Simulated virtual address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.base + (i * std::mem::size_of::<T>()) as u64
    }

    /// Uncharged read for setup/verification code.
    #[inline]
    pub fn peek(&self, i: usize) -> T {
        self.buf[i]
    }

    /// Uncharged write for setup code.
    #[inline]
    pub fn poke(&mut self, i: usize, v: T) {
        self.buf[i] = v;
    }

    /// Uncharged view of the backing storage — **bypasses the event
    /// stream**, so nothing read through it is priced by the cost model.
    ///
    /// Legitimate uses, and only these:
    /// * test/verification code comparing results against a reference,
    /// * data-generation/setup code outside the timed region,
    /// * simulator internals that already charged the access another way
    ///   (e.g. [`read_stream`](crate::Machine) batches).
    ///
    /// In operator hot paths this is a model-integrity bug. `clippy.toml`
    /// lists it under `disallowed-methods`, so every call outside this
    /// crate needs an `#[expect(clippy::disallowed_methods, reason = …)]`
    /// that says why the read is not timed work.
    pub fn as_slice_untracked(&self) -> &[T] {
        &self.buf
    }

    /// Uncharged mutable view of the backing storage (setup only) — same
    /// contract and `disallowed-methods` entry as
    /// [`SimVec::as_slice_untracked`].
    pub fn as_mut_slice_untracked(&mut self) -> &mut [T] {
        &mut self.buf
    }

    pub(crate) fn elem_size() -> usize {
        std::mem::size_of::<T>()
    }
}

/// A write-only array of `u64` slots in simulated memory, for operator
/// outputs nothing reads back.
///
/// `Machine::alloc_sink` reserves its slots exactly as `alloc::<u64>`
/// would, and its [`SinkWriter`](crate::SinkWriter) charges exactly as
/// [`SimVec::stream_writer`]'s does, so a sink is indistinguishable from a
/// `SimVec<u64>` to the cost model. It keeps no backing storage: every
/// write adds [`SimSink::slot_digest`] of its (position, value) to a
/// wrapping sum, which an oracle can recompute. Because the sum wraps,
/// one pass's digest is the `wrapping_sub` of the reads after and before
/// it.
pub struct SimSink {
    len: usize,
    base: u64,
    digest: u64,
}

/// Fault-engine stream id [`SimSink::slot_digest`] draws from.
const SINK_DIGEST_STREAM: u64 = 0x5141_D16E;

impl SimSink {
    /// Bytes per slot, as in a `SimVec<u64>`.
    pub(crate) const SLOT_BYTES: usize = 8;

    /// Internal constructor; use `Machine::alloc_sink`.
    pub(crate) fn new(len: usize, base: u64) -> Self {
        SimSink { len, base, digest: 0 }
    }

    /// Simulated virtual address of slot `i`.
    #[inline]
    pub(crate) fn addr(&self, i: usize) -> u64 {
        self.base + (i * Self::SLOT_BYTES) as u64
    }

    /// Wrapping sum of [`SimSink::slot_digest`] over every write so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// What writing `value` to slot `pos` adds to a sink's digest: the
    /// fault engine's SplitMix64 draw ([`stream_draw`](crate::stream_draw))
    /// keyed by the pair. Oracles fold the same function over the slots
    /// they expect an operator to write.
    pub fn slot_digest(pos: usize, value: u64) -> u64 {
        crate::faults::stream_draw(value, SINK_DIGEST_STREAM, pos as u64)
    }

    /// Fold one write into the digest (the charged writer's job).
    #[inline]
    pub(crate) fn record(&mut self, pos: usize, value: u64) {
        assert!(pos < self.len, "sink write at slot {pos} of {}", self.len);
        self.digest = self.digest.wrapping_add(Self::slot_digest(pos, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_roundtrip() {
        for i in 0..8 {
            let r = Region::from_index(i);
            assert_eq!(r.index(), i);
            assert_eq!(Region::of_addr(r.base()), r);
            assert_eq!(Region::of_addr(r.base() + 123_456_789), r);
        }
    }

    #[test]
    fn region_properties() {
        assert!(Region::Epc(0).is_epc());
        assert!(!Region::Untrusted(1).is_epc());
        assert_eq!(Region::Epc(1).node(), 1);
        assert_eq!(Region::Untrusted(0).node(), 0);
    }

    #[test]
    fn settings_imply_modes_and_regions() {
        assert_eq!(Setting::PlainCpu.mode(), ExecMode::Native);
        assert_eq!(Setting::SgxDataInEnclave.mode(), ExecMode::Enclave);
        assert_eq!(Setting::SgxDataOutside.mode(), ExecMode::Enclave);
        assert_eq!(Setting::SgxDataInEnclave.data_region(1), Region::Epc(1));
        assert_eq!(Setting::SgxDataOutside.data_region(0), Region::Untrusted(0));
        assert_eq!(Setting::PlainCpu.data_region(0), Region::Untrusted(0));
    }

    #[test]
    fn bump_allocator_aligns_and_never_overlaps() {
        let mut a = RegionAlloc::default();
        let x = a.alloc(10);
        let y = a.alloc(100);
        let z = a.alloc(1);
        assert_eq!(x % CACHE_LINE as u64, 0);
        assert_eq!(y % CACHE_LINE as u64, 0);
        assert_eq!(z % CACHE_LINE as u64, 0);
        assert!(x + 10 <= y);
        assert!(y + 100 <= z);
    }
}
