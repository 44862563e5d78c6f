//! Access layer: the load/store/stream entry points — random-pattern
//! accesses, non-temporal stores, stream touches, and the charged
//! `SimVec`/[`StreamReader`]/[`StreamWriter`]/[`SinkWriter`] APIs (kept
//! here so the cost model stays private).

use crate::cache::line_of;
use crate::config::CACHE_LINE;
use crate::mem::{ExecMode, Region, SimSink, SimVec, REGION_SHIFT};
use crate::profile::CostCategory;

use super::core::{Charge, Tally};
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
            self.stream_touch(addr, 1, 0, true, false);
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
        let cfg = &self.m.cfg;
        let mut per_line = cfg.mem.stream_line_cycles;
        if remote {
            per_line += cfg.upi.remote_stream_extra;
            if enc {
                per_line += cfg.upi.uce_stream_extra;
            }
        }
        if enc {
            per_line *= cfg.mem.mee_stream_write_factor;
        }
        self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
        if remote {
            self.upi_line();
        }
        let cat = if enc {
            CostCategory::Mee
        } else if remote {
            CostCategory::Upi
        } else {
            CostCategory::Dram
        };
        self.commit(Charge {
            cycles: per_line + VEC_ISSUE + walk / self.m.cfg.mem.mlp_native,
            tally: Tally::Cycles(cat),
        });
    }

    /// Charge a streaming touch of `lines` consecutive cache lines starting
    /// at `addr`, plus `elems` element-level load/store issues, using the
    /// vector flag to pick scalar or 512-bit issue costs. Used by the
    /// `SimVec` stream APIs.
    ///
    /// Two equivalent resolution paths feed the one pooled charge (see
    /// DESIGN.md §15): the fast path hoists the run's region
    /// classification and per-line cost constants out of the line loop,
    /// and is selected only when that hoist is provably invariant — no
    /// fault engine installed (an AEX can flush the TLB/L1, and the EPC
    /// balloon can install a pager, between any two committed lines) and
    /// every line of the run in one region. Otherwise the historical
    /// per-line loop runs verbatim; it is the oracle the fast path is
    /// checked against (`machine::tests` drives both over identical
    /// sequences via [`Machine::force_stream_oracle`]).
    pub(crate) fn stream_touch(
        &mut self,
        addr: u64,
        lines: u64,
        elems: u64,
        write: bool,
        vector: bool,
    ) {
        if write {
            self.m.counters.stores += elems;
        } else {
            self.m.counters.loads += elems;
        }
        self.m.counters.stream_lines += lines;
        let first = line_of(addr);
        if lines == 1 {
            // Single-line touch — the cadence `read_stream` and the
            // incremental reader/writer produce for every line. The
            // per-line resolver is the fast path *and* the oracle here
            // (nothing to hoist over one line), and the dominant-category
            // pick collapses: only Compute (issue cost) and the one
            // category that served the line are populated, so the
            // first-strictly-greater scan reduces to a two-way compare
            // with the lowest-index (Compute) tie-break.
            let kind = if write { AccessKind::Store } else { AccessKind::Load };
            let (c, dram, cat) = self.resolve_stream_line(first, kind);
            let issue = if vector { VEC_ISSUE } else { STREAM_ELEM_ISSUE };
            let per_elem_tax = if !write && dram && self.m.mode == ExecMode::Enclave {
                ENCLAVE_STREAM_LOAD_TAX
            } else {
                0.0
            };
            let n_issues = if vector { 1 } else { elems };
            let issue_cost = n_issues as f64 * (issue + per_elem_tax);
            let dom = if c > issue_cost { cat } else { CostCategory::Compute };
            self.commit(Charge { cycles: c + issue_cost, tally: Tally::Cycles(dom) });
            return;
        }
        let last_addr = addr + lines.saturating_sub(1) * CACHE_LINE as u64;
        let fast = self.m.faults.is_none()
            && !self.m.stream_oracle
            && (addr >> REGION_SHIFT) == (last_addr >> REGION_SHIFT);
        let mut cats = [0.0f64; 9];
        let (line_cost_total, any_dram) = if fast {
            let run = self.resolve_stream_run(first, lines, write);
            // The partial sums were folded per line in line order, so the
            // rebuilt category array is bitwise what the slow loop's
            // per-line `cats[cat.index()] += c` would hold.
            cats[CostCategory::Cache.index()] = run.cache_sum;
            cats[run.dram_cat.index()] += run.dram_sum;
            (run.total, run.any_dram)
        } else {
            let kind = if write { AccessKind::Store } else { AccessKind::Load };
            let mut total = 0.0;
            let mut any_dram = false;
            for line in first..first + lines {
                let (c, dram, cat) = self.resolve_stream_line(line, kind);
                total += c;
                any_dram |= dram;
                cats[cat.index()] += c;
            }
            (total, any_dram)
        };
        let issue = if vector { VEC_ISSUE } else { STREAM_ELEM_ISSUE };
        // The enclave per-load tax only applies to demand fills the MEE
        // touches: cache-resident streams run at parity (Fig 12/15).
        let per_elem_tax = if !write && any_dram && self.m.mode == ExecMode::Enclave {
            ENCLAVE_STREAM_LOAD_TAX
        } else {
            0.0
        };
        let n_issues = if vector { lines.max(1) } else { elems };
        let issue_cost = n_issues as f64 * (issue + per_elem_tax);
        cats[CostCategory::Compute.index()] += issue_cost;
        // One pooled charge for the touch; attribute it to the dominant
        // contributor (deterministic lowest-index tie-break).
        self.commit(Charge {
            cycles: line_cost_total + issue_cost,
            tally: Tally::Cycles(CostCategory::dominant(&cats)),
        });
    }
}

impl super::Machine {
    /// Force every stream touch down the per-line slow path — the fast
    /// path's oracle. Verification/measurement hook: the machine property
    /// tests drive a forced-slow machine and a default machine over
    /// identical access sequences and require bit-identical clocks and
    /// counters, and perfbench's `sim.stream.oracle_line_ns` row times the
    /// oracle path. Simulated results are unaffected by construction.
    pub fn force_stream_oracle(&mut self, slow: bool) {
        self.stream_oracle = slow;
    }
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
            core.stream_touch(self.addr(i), 1, (hi - i) as u64, false, false);
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
            core.stream_touch(self.addr(i), 1, (hi - i) as u64, false, true);
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
            core.stream_touch(addr, 1, 0, false, false);
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

    /// Elements remaining.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
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
