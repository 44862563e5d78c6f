//! Hierarchy layer: the L1/L2/L3 walk, TLB, installs/spills/write-backs,
//! and the per-socket DRAM bandwidth cap.

use crate::cache::Evicted;
use crate::config::{HwConfig, CACHE_LINE, PAGE_SIZE};
use crate::mem::{ExecMode, Region};
use crate::profile::CostCategory;

use super::core::{Charge, Tally};
use super::{
    AccessCost, AccessKind, Core, Machine, L1_STREAM_LINE, L2_STREAM_LINE, L3_STREAM_LINE,
    PREFETCHED_NEAR,
};

/// Cache level an access hit in (DRAM fills return early).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HitLevel {
    L1,
    L2,
    L3,
}

/// Attribution category of a line DRAM served (fill or write-back): its
/// dominant latency source. MEE decryption beats the UPI hop (UCE extras
/// ride on the MEE path), which beats plain DRAM.
pub(super) fn dram_category(enc: bool, remote: bool) -> CostCategory {
    if enc {
        CostCategory::Mee
    } else if remote {
        CostCategory::Upi
    } else {
        CostCategory::Dram
    }
}

/// Bandwidth-bound cycles of one prefetched or non-temporal DRAM line: the
/// stream rate, plus the UPI extra (and in enclave mode the UCE extra) for
/// a remote line, all scaled by the MEE factor for EPC data. A demand
/// write's write-back share is the caller's to add.
pub(super) fn prefetched_line_cycles(cfg: &HwConfig, enc: bool, remote: bool, write: bool) -> f64 {
    let mut per_line = cfg.mem.stream_line_cycles;
    if remote {
        per_line += cfg.upi.remote_stream_extra;
        if enc {
            per_line += cfg.upi.uce_stream_extra;
        }
    }
    if enc {
        per_line *= if write { cfg.mem.mee_stream_write_factor } else { cfg.mem.mee_stream_factor };
    }
    per_line
}

impl Machine {
    /// Cycles the per-socket DRAM bus needs to move `bytes` — the
    /// shared-resource floor `finish_phase` regulates against.
    pub(super) fn dram_cap(&self, bytes: f64) -> f64 {
        bytes * self.cfg.mem.socket_bw_cycles_per_byte
    }
}

impl<'m> Core<'m> {
    /// Walk the cache hierarchy for one line; fills caches and accounts
    /// bandwidth.
    pub(super) fn resolve_line(&mut self, line: u64, kind: AccessKind) -> AccessCost {
        let write = kind != AccessKind::Load;
        let addr = line * CACHE_LINE as u64;
        let region = Region::of_addr(addr);
        self.pre_touch(addr, region);
        let walk = self.tlb_walk(addr);

        let cfg = &self.m.cfg;
        let (l1_lat, l2_lat, l3_lat) = (cfg.l1d.latency, cfg.l2.latency, cfg.l3.latency);
        let hw = &mut self.m.cores[self.id];
        let level;
        if hw.l1.access(line, write) {
            self.m.counters.l1_hits += 1;
            level = HitLevel::L1;
        } else if hw.l2.access(line, write) {
            self.m.counters.l2_hits += 1;
            level = HitLevel::L2;
            self.install_l1(line, write);
        } else if self.m.l3[self.socket].access(line, write) {
            self.m.counters.l3_hits += 1;
            level = HitLevel::L3;
            self.install_l1(line, write);
        } else {
            // DRAM fill.
            self.m.counters.dram_fills += 1;
            let prefetched = self.m.cores[self.id].streams.observe(line);
            if prefetched {
                self.m.counters.prefetched_fills += 1;
            }
            let remote = region.node() != self.socket;
            if remote {
                self.remote_fill();
            }
            let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
            if enc {
                self.m.counters.epc_fills += 1;
            }
            self.dram_bytes[region.node()] += self.line_bus_bytes(enc, false);
            // Install bottom-up so evictions cascade.
            self.install_l3(line, write);
            self.install_l1(line, write);
            let cat = dram_category(enc, remote);
            let cfg = &self.m.cfg;
            let cost = if prefetched {
                let mut per_line = prefetched_line_cycles(cfg, enc, remote, write);
                if write {
                    per_line += cfg.mem.writeback_line_cycles;
                    // Write-allocate: the eventual write-back consumes
                    // bandwidth too.
                    self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
                    if remote {
                        self.upi_line();
                    }
                }
                return AccessCost {
                    near: PREFETCHED_NEAR,
                    far: per_line + walk,
                    serial_load: false,
                    cat,
                };
            } else {
                let mut far = cfg.mem.dram_latency - cfg.l3.latency + walk;
                if remote {
                    far += cfg.upi.remote_latency;
                }
                if enc {
                    far += cfg.mem.mee_fill_latency;
                    if remote {
                        far += cfg.upi.uce_latency;
                    }
                    if write {
                        far += cfg.mem.mee_write_penalty;
                    }
                }
                AccessCost { near: cfg.l3.latency, far, serial_load: kind == AccessKind::Rmw, cat }
            };
            return cost;
        }
        let near = match level {
            HitLevel::L1 => l1_lat,
            HitLevel::L2 => l2_lat,
            HitLevel::L3 => l3_lat,
        };
        AccessCost {
            near,
            far: walk,
            serial_load: kind == AccessKind::Rmw,
            cat: CostCategory::Cache,
        }
    }

    /// Walk the hierarchy for the one line of a `stream_touch`. Returns the
    /// line's pooled cycles, whether DRAM served it, and the category of
    /// the level or region that did (for profile attribution). A DRAM fill
    /// here is always prefetched, so the stream detector is not consulted.
    /// `resolve_line` stays a separate walk because its detector
    /// observation must precede the installs: a write-back commit inside
    /// `install_l3` can deliver an AEX, which resets the detector.
    pub(super) fn resolve_stream_line(
        &mut self,
        line: u64,
        kind: AccessKind,
    ) -> (f64, bool, CostCategory) {
        let write = kind != AccessKind::Load;
        let addr = line * CACHE_LINE as u64;
        let region = Region::of_addr(addr);
        self.pre_touch(addr, region);
        // Page walks on stream paths overlap well (one per 64 lines);
        // charge them pooled like the rest of the line cost.
        let walk = self.tlb_walk(addr) / self.m.cfg.mem.mlp_native;
        let hw = &mut self.m.cores[self.id];
        if hw.l1.access(line, write) {
            self.m.counters.l1_hits += 1;
            return (L1_STREAM_LINE + walk, false, CostCategory::Cache);
        }
        if hw.l2.access(line, write) {
            self.m.counters.l2_hits += 1;
            self.install_l1(line, write);
            return (L2_STREAM_LINE + walk, false, CostCategory::Cache);
        }
        if self.m.l3[self.socket].access(line, write) {
            self.m.counters.l3_hits += 1;
            self.install_l1(line, write);
            return (L3_STREAM_LINE + walk, false, CostCategory::Cache);
        }
        self.m.counters.dram_fills += 1;
        self.m.counters.prefetched_fills += 1;
        let remote = region.node() != self.socket;
        let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
        if enc {
            self.m.counters.epc_fills += 1;
        }
        self.dram_bytes[region.node()] += self.line_bus_bytes(enc, false);
        if remote {
            self.remote_fill();
        }
        self.install_l3(line, write);
        self.install_l1(line, write);
        let cfg = &self.m.cfg;
        let mut per_line = prefetched_line_cycles(cfg, enc, remote, write);
        if write {
            per_line += cfg.mem.writeback_line_cycles;
            self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
            if remote {
                self.upi_line();
            }
        }
        (per_line + walk, true, dram_category(enc, remote))
    }

    /// Probe the per-core TLB for `addr`'s page; returns the page-walk
    /// cycles (0 on a hit). Walks are pooled with the far/DRAM portion of
    /// the access (they overlap with other outstanding misses).
    #[inline]
    pub(super) fn tlb_walk(&mut self, addr: u64) -> f64 {
        let page = addr / PAGE_SIZE as u64;
        let hw = &mut self.m.cores[self.id];
        let slot = hw.tlb_fm.rem(page) as usize;
        if hw.tlb[slot] == page {
            0.0
        } else {
            hw.tlb[slot] = page;
            self.m.counters.tlb_misses += 1;
            self.m.cfg.mem.tlb_walk_cycles
        }
    }

    fn install_l1(&mut self, line: u64, dirty: bool) {
        // Every install follows this resolve's own L1 probe miss of the
        // same line, with only L2/L3 work in between — the rescan-free
        // insert applies.
        let hw = &mut self.m.cores[self.id];
        if let Evicted::Dirty(v) = hw.l1.insert_miss(line, dirty) {
            self.spill_l2(v);
        }
    }

    fn spill_l2(&mut self, victim: u64) {
        let hw = &mut self.m.cores[self.id];
        if let Evicted::Dirty(v) = hw.l2.insert(victim, true) {
            self.spill_l3(v);
        }
    }

    fn install_l3(&mut self, line: u64, dirty: bool) {
        // Only reached on the DRAM path: both the L2 and L3 probes of
        // `line` just missed, and the only same-cache op in between — the
        // L3 insert of the L2's dirty victim — inserts a *different* line,
        // so `line` is still absent from both and the rescan-free insert
        // applies (its victim is whatever sits at the set's tail then).
        let hw = &mut self.m.cores[self.id];
        if let Evicted::Dirty(v) = hw.l2.insert_miss(line, dirty) {
            if let Evicted::Dirty(v2) = self.m.l3[self.socket].insert(v, true) {
                self.writeback(v2);
            }
        }
        if let Evicted::Dirty(v) = self.m.l3[self.socket].insert_miss(line, dirty) {
            self.writeback(v);
        }
    }

    fn spill_l3(&mut self, victim: u64) {
        if let Evicted::Dirty(v) = self.m.l3[self.socket].insert(victim, true) {
            self.writeback(v);
        }
    }

    /// Account a dirty L3 eviction: write-back bandwidth plus a small
    /// latency share folded into the evicting access. Kept out of line:
    /// inlined, it grows `install_l1` and `install_l3`, and every install
    /// then pays the larger frame, whether a dirty victim falls out or not.
    #[inline(never)]
    fn writeback(&mut self, line: u64) {
        self.m.counters.writebacks += 1;
        let region = Region::of_addr(line * CACHE_LINE as u64);
        let enc = region.is_epc() && self.m.mode == ExecMode::Enclave;
        let remote = region.node() != self.socket;
        self.dram_bytes[region.node()] += self.line_bus_bytes(enc, true);
        if remote {
            self.upi_line();
        }
        self.commit(Charge {
            cycles: self.m.cfg.mem.writeback_line_cycles
                / self.m.cfg.mem.mlp_native.max(1.0),
            tally: Tally::Cycles(dram_category(enc, remote)),
        });
    }
}
