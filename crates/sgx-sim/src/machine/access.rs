//! Access layer: the load/store/stream entry points — random-pattern
//! accesses, non-temporal stores, stream touches, and the charged
//! `SimVec`/[`StreamReader`]/[`StreamWriter`]/[`SinkWriter`] APIs (kept
//! here so the cost model stays private).

use crate::cache::line_of;
use crate::config::CACHE_LINE;
use crate::mem::{ExecMode, Region, SimSink, SimVec};
use crate::profile::CostCategory;

use super::core::{Charge, Tally};
use super::hierarchy::{dram_category, prefetched_line_cycles};
use super::{
    AccessKind, Core, CTX_POISON, ENCLAVE_STREAM_LOAD_TAX, STREAM_ELEM_ISSUE, VEC_ISSUE,
};

impl<'m> Core<'m> {
    /// Cost of issuing one scalar stream-element access in the current
    /// mode (used by the incremental stream reader/writer helpers).
    fn stream_issue_cost(&self, write: bool) -> f64 {
        if !write && self.m.mode == ExecMode::Enclave {
            STREAM_ELEM_ISSUE + ENCLAVE_STREAM_LOAD_TAX
        } else {
            STREAM_ELEM_ISSUE
        }
    }

    /// Charge one appended element store at `addr`: a stream-store line
    /// touch when it opens a line other than `*line_open`, then the scalar
    /// issue cost. The one charging rule of [`StreamWriter`] and
    /// [`SinkWriter`].
    #[inline]
    fn stream_store_elem(&mut self, addr: u64, line_open: &mut u64) {
        let line = line_of(addr);
        if line != *line_open {
            self.stream_touch(addr, 0, true, false);
            *line_open = line;
        }
        self.charge(STREAM_ELEM_ISSUE);
    }

    /// Resolve + charge a random-pattern access of `bytes` at `addr`.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64, bytes: usize, kind: AccessKind) {
        debug_assert!(bytes <= CACHE_LINE);
        match kind {
            AccessKind::Load => self.m.counters.loads += 1,
            AccessKind::Store => self.m.counters.stores += 1,
            AccessKind::Rmw => {
                self.m.counters.loads += 1;
                self.m.counters.stores += 1;
            }
        }
        // Context-switch detection: the enclave serialization penalty
        // strikes the first load after a stream element was consumed (the
        // Listing 1 pattern: scan a table, then use the loaded value for an
        // irregular access). Later loads of the same chain — and loops that
        // only touch one object, like the paper's increment-only check —
        // overlap normally.
        let switched = self.last_rand_addr == CTX_POISON;
        if kind != AccessKind::Store {
            self.last_rand_addr = addr;
        }
        let first = line_of(addr);
        let last = line_of(addr + bytes as u64 - 1);
        for line in first..=last {
            let mut cost = self.resolve_line(line, kind);
            cost.serial_load &= switched;
            self.post(cost);
        }
    }

    /// Invalidate the random-access context (called per stream element so
    /// interleaved random accesses count as object switches).
    #[inline]
    fn poison_context(&mut self) {
        self.last_rand_addr = CTX_POISON;
    }

    /// Charge one non-temporal 64-byte store to `addr` (software
    /// write-combining buffer flush, materialization). Unlike a regular
    /// store, an NT store writes the full line without a read-for-ownership
    /// fill and bypasses the caches — half the bus traffic of a
    /// write-allocate miss, and no pollution.
    pub fn stream_store_line(&mut self, addr: u64) {
        let region = Region::of_addr(addr);
        self.pre_touch(addr, region);
        let walk = self.tlb_walk(addr);
        self.m.counters.stores += 1;
        self.m.counters.stream_lines += 1;
        let line = line_of(addr);
        // NT semantics: any cached copy is invalidated, uncharged.
        let hw = &mut self.m.cores[self.id];
        hw.l1.invalidate(line);
        hw.l2.invalidate(line);
        self.m.l3[self.socket].invalidate(line);
        let remote = region.node() != self.socket;
        let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
        let per_line = prefetched_line_cycles(&self.m.cfg, enc, remote, true);
        self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
        if remote {
            self.upi_line();
        }
        self.commit(Charge {
            cycles: per_line + VEC_ISSUE + walk / self.m.cfg.mem.mlp_native,
            tally: Tally::Cycles(dram_category(enc, remote)),
        });
    }

    /// Charge a streaming touch of the cache line holding `addr`, plus
    /// `elems` element-level load/store issues, using the vector flag to
    /// pick scalar or 512-bit issue costs. Used by the `SimVec` stream
    /// APIs, which touch one line per call: the line resolves through
    /// `resolve_stream_line` and the touch makes one pooled charge
    /// (DESIGN.md §15).
    pub(crate) fn stream_touch(&mut self, addr: u64, elems: u64, write: bool, vector: bool) {
        if write {
            self.m.counters.stores += elems;
        } else {
            self.m.counters.loads += elems;
        }
        self.m.counters.stream_lines += 1;
        let kind = if write { AccessKind::Store } else { AccessKind::Load };
        let (c, dram, cat) = self.resolve_stream_line(line_of(addr), kind);
        let issue = if vector { VEC_ISSUE } else { STREAM_ELEM_ISSUE };
        // The enclave per-load tax only applies to demand fills the MEE
        // touches: cache-resident streams run at parity (Fig 12/15).
        let per_elem_tax = if !write && dram && self.m.mode == ExecMode::Enclave {
            ENCLAVE_STREAM_LOAD_TAX
        } else {
            0.0
        };
        let n_issues = if vector { 1 } else { elems };
        let issue_cost = n_issues as f64 * (issue + per_elem_tax);
        self.commit(Charge {
            cycles: c + issue_cost,
            tally: Tally::Cycles(touch_category(c, issue_cost, cat)),
        });
    }
}

/// Category of a stream touch's pooled charge: the served line's own
/// category when its cycles exceed the issue cycles, else `Compute`. This
/// is `CostCategory::dominant` over the touch's nine bins, where only
/// `Compute` and the line's category are populated and a tie goes to the
/// lower index, `Compute`.
pub(super) fn touch_category(line: f64, issue: f64, line_cat: CostCategory) -> CostCategory {
    if line > issue {
        line_cat
    } else {
        CostCategory::Compute
    }
}

impl super::Machine {
    /// Does nothing. Its only caller is perfbench, whose
    /// `sim.stream.oracle_line_ns` row still sets it; every stream touch
    /// resolves one line, so there is no second path to force. It goes
    /// when that row does.
    pub fn force_stream_oracle(&mut self, _slow: bool) {}
}

// ---------------------------------------------------------------------------
// Charged accessors on SimVec (kept here so the cost model stays private).
// ---------------------------------------------------------------------------

impl<T: Copy> SimVec<T> {
    /// Charged random-pattern read of element `i`.
    #[inline]
    pub fn get(&self, core: &mut Core<'_>, i: usize) -> T {
        core.access(self.addr(i), Self::elem_size(), AccessKind::Load);
        self.peek(i)
    }

    /// Charged random-pattern write of element `i`.
    #[inline]
    pub fn set(&mut self, core: &mut Core<'_>, i: usize, v: T) {
        core.access(self.addr(i), Self::elem_size(), AccessKind::Store);
        self.poke(i, v);
    }

    /// Charged read-modify-write of element `i`.
    #[inline]
    pub fn rmw(&mut self, core: &mut Core<'_>, i: usize, f: impl FnOnce(&mut T)) {
        core.access(self.addr(i), Self::elem_size(), AccessKind::Rmw);
        let mut v = self.peek(i);
        f(&mut v);
        self.poke(i, v);
    }

    /// Charged sequential scalar read of `range`, invoking
    /// `f(core, index, value)` per element; charging is interleaved line by
    /// line so the closure can issue further charged work (e.g. histogram
    /// increments). Models a forward scan the prefetcher covers.
    pub fn read_stream(
        &self,
        core: &mut Core<'_>,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Core<'_>, usize, T),
    ) {
        if range.is_empty() {
            return;
        }
        let per_line = (CACHE_LINE / Self::elem_size()).max(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "each line is charged through stream_touch before the closure sees its elements"
        )]
        let data = self.as_slice_untracked();
        let mut i = range.start;
        while i < range.end {
            // Elements up to the next line boundary.
            let line_end = (i / per_line + 1) * per_line;
            let hi = line_end.min(range.end);
            core.stream_touch(self.addr(i), (hi - i) as u64, false, false);
            // One bounds check per line, not per element.
            for (k, &x) in data[i..hi].iter().enumerate() {
                core.poison_context();
                f(core, i + k, x);
            }
            i = hi;
        }
    }

    /// Charged sequential *vectorized* read (512-bit loads): `f` receives
    /// the core, the starting element index, and the slice covered by each
    /// 64-byte vector.
    pub fn read_stream_vec(
        &self,
        core: &mut Core<'_>,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Core<'_>, usize, &[T]),
    ) {
        if range.is_empty() {
            return;
        }
        let per_line = (CACHE_LINE / Self::elem_size()).max(1);
        let mut i = range.start;
        while i < range.end {
            let line_end = (i / per_line + 1) * per_line;
            let hi = line_end.min(range.end);
            core.stream_touch(self.addr(i), (hi - i) as u64, false, true);
            core.poison_context();
            #[expect(
                clippy::disallowed_methods,
                reason = "the vector's line was charged through stream_touch just above"
            )]
            f(core, i, &self.as_slice_untracked()[i..hi]);
            i = hi;
        }
    }

    /// Sequential writer that charges stream-store costs as it advances.
    pub fn stream_writer(&mut self, start: usize) -> StreamWriter<'_, T> {
        StreamWriter { vec: self, pos: start, line_open: u64::MAX }
    }

    /// Charged sequential fill of `range` with `val` (a memset): one
    /// [`stream_writer`](Self::stream_writer) push per element.
    pub fn fill(&mut self, core: &mut Core<'_>, range: std::ops::Range<usize>, val: T) {
        let mut w = self.stream_writer(range.start);
        for _ in range {
            w.push(core, val);
        }
    }

    /// Incremental sequential reader over `range`, for interleaved
    /// consumption of several streams at once (merge joins, two-pointer
    /// partitioning). Each stream charges like `read_stream`.
    pub fn stream_reader(&self, range: std::ops::Range<usize>) -> StreamReader<'_, T> {
        StreamReader { vec: self, pos: range.start, end: range.end, line_open: u64::MAX }
    }
}

/// Pull-style sequential reader over a `SimVec` (see
/// [`SimVec::stream_reader`]).
pub struct StreamReader<'v, T> {
    vec: &'v SimVec<T>,
    pos: usize,
    end: usize,
    line_open: u64,
}

impl<'v, T: Copy> StreamReader<'v, T> {
    /// Read the next element, or `None` at the end of the range.
    #[inline]
    pub fn next(&mut self, core: &mut Core<'_>) -> Option<T> {
        if self.pos >= self.end {
            return None;
        }
        let addr = self.vec.addr(self.pos);
        let line = line_of(addr);
        if line != self.line_open {
            core.stream_touch(addr, 0, false, false);
            self.line_open = line;
        }
        let cost = core.stream_issue_cost(false);
        core.charge(cost);
        core.poison_context();
        let v = self.vec.peek(self.pos);
        self.pos += 1;
        Some(v)
    }

    /// Peek the next element without consuming or charging (the merge
    /// loop's comparison re-reads a register-resident value).
    #[inline]
    pub fn peek_next(&self) -> Option<T> {
        (self.pos < self.end).then(|| self.vec.peek(self.pos))
    }

    /// Current read position.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

/// Append-style sequential writer over a `SimVec` (join/scan
/// materialization). Charges one stream-store line cost per 64-byte line
/// crossed plus a per-element issue cost.
pub struct StreamWriter<'v, T> {
    vec: &'v mut SimVec<T>,
    pos: usize,
    line_open: u64,
}

impl<'v, T: Copy> StreamWriter<'v, T> {
    /// Write the next element.
    #[inline]
    pub fn push(&mut self, core: &mut Core<'_>, v: T) {
        core.stream_store_elem(self.vec.addr(self.pos), &mut self.line_open);
        self.vec.poke(self.pos, v);
        self.pos += 1;
    }

    /// Elements written so far (next write position).
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl SimSink {
    /// Sequential writer from slot `start`, charging exactly like
    /// [`SimVec::stream_writer`].
    pub fn stream_writer(&mut self, start: usize) -> SinkWriter<'_> {
        SinkWriter { sink: self, pos: start, line_open: u64::MAX }
    }
}

/// Append-style writer over a [`SimSink`]: the charges of a
/// [`StreamWriter`] over a `SimVec<u64>`, with each write folded into the
/// sink's digest instead of stored.
pub struct SinkWriter<'s> {
    sink: &'s mut SimSink,
    pos: usize,
    line_open: u64,
}

impl SinkWriter<'_> {
    /// Write the next slot.
    #[inline]
    pub fn push(&mut self, core: &mut Core<'_>, v: u64) {
        core.stream_store_elem(self.sink.addr(self.pos), &mut self.line_open);
        self.sink.record(self.pos, v);
        self.pos += 1;
    }
}
