//! Set-associative, write-back, write-allocate cache model with LRU
//! replacement.
//!
//! The simulator keeps an inclusive three-level hierarchy (private L1d and
//! L2 per core, shared L3 per socket). Only tags are stored — data lives in
//! the `SimVec` backing buffers — so a cache access is a handful of array
//! probes.
//!
//! # Hot-path layout
//!
//! All replacement metadata lives in one `u64` blob, one fixed-stride
//! block per set: `[tags; ways][lru; ways][dirty bitmask]`, padded to a
//! 64-byte multiple. A probe scans the dense tag run; a victim scan reads
//! the adjacent LRU run — the whole set is a handful of *contiguous* host
//! cache lines, which matters because the L3 model's metadata is far
//! larger than the host L1/L2 and random probes into three scattered
//! parallel arrays cost three distant host misses each. Set selection is
//! a mask when the set count is a power of two (every shipped profile),
//! with a plain `%` fallback so arbitrary `scaled()` factors stay exact.
//!
//! # Victim selection invariant
//!
//! Invalid ways keep `lru == 0` and valid ways always have `lru >= 1`
//! (the stamp pre-increments from 0), so the historical selection rule —
//! tag match > first invalid way > first minimal-LRU valid way — reduces
//! to *first strict minimum of the LRU run*: every invalid way ties at 0
//! ahead of any valid way, and valid stamps are unique. That makes the
//! victim scan a branchless running minimum, with no per-way invalid
//! test. [`Cache::flush`] and [`Cache::invalidate`] re-zero the LRU word
//! when they clear a tag to uphold the invariant. The selection and the
//! stamp sequence are bit-identical to the historical three-pass
//! implementation, which the golden digests and the property tests in
//! `tests/proptest_cache.rs` pin down.

use crate::config::{CacheConfig, CACHE_LINE};

/// Tag value marking an invalid way. Real tags are line addresses, which
/// stay far below `2^40` (region bases top out at `9 << 40` bytes).
const INVALID: u64 = u64::MAX;

/// One cache level.
#[derive(Debug)]
pub struct Cache {
    ways: usize,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two, else `usize::MAX` to
    /// select the modulo fallback in [`Cache::set_of`].
    set_mask: usize,
    /// Words per set block: `2 * ways + 1` rounded up to a multiple of 8,
    /// so blocks stay 64-byte aligned relative to the blob start.
    stride: usize,
    /// Per-set metadata blocks: `[tags; ways][lru; ways][dirty mask]`.
    meta: Vec<u64>,
    stamp: u64,
}

/// What happened to a line evicted by an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// No line was displaced.
    None,
    /// A clean line was dropped.
    Clean(u64),
    /// A dirty line must be written back (line address).
    Dirty(u64),
}

impl Cache {
    /// Build a cache level from its configuration.
    pub fn new(cfg: &CacheConfig) -> Cache {
        let sets = cfg.sets();
        let ways = cfg.ways;
        let set_mask = if sets.is_power_of_two() { sets - 1 } else { usize::MAX };
        assert!(ways <= 64, "dirty bitmask holds at most 64 ways");
        let stride = (2 * ways + 1).next_multiple_of(8);
        let mut meta = vec![0u64; sets * stride];
        for set in 0..sets {
            meta[set * stride..set * stride + ways].fill(INVALID);
        }
        Cache { ways, sets, set_mask, stride, meta, stamp: 0 }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.set_mask != usize::MAX {
            (line as usize) & self.set_mask
        } else {
            (line as usize) % self.sets
        }
    }

    /// Offset of the set block holding `line`.
    #[inline]
    fn base_of(&self, line: u64) -> usize {
        self.set_of(line) * self.stride
    }

    /// Probe for `line`; on hit, refresh LRU and optionally mark dirty.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> bool {
        let base = self.base_of(line);
        self.stamp += 1;
        let tags = &self.meta[base..base + self.ways];
        for (i, &t) in tags.iter().enumerate() {
            if t == line {
                self.meta[base + self.ways + i] = self.stamp;
                self.meta[base + 2 * self.ways] |= (write as u64) << i;
                return true;
            }
        }
        false
    }

    /// Probe without updating replacement state (used by tests/inspection).
    pub fn contains(&self, line: u64) -> bool {
        let base = self.base_of(line);
        self.meta[base..base + self.ways].contains(&line)
    }

    /// First strict minimum of the set's LRU run — the victim the
    /// historical match > invalid > min-LRU selection would pick (see the
    /// module docs for why the zero-LRU invariant collapses the three
    /// rules into one branchless scan).
    #[inline]
    fn victim_way(&self, base: usize) -> usize {
        let lru = &self.meta[base + self.ways..base + 2 * self.ways];
        let mut vi = 0;
        let mut vl = lru[0];
        for (i, &l) in lru.iter().enumerate().skip(1) {
            if l < vl {
                vl = l;
                vi = i;
            }
        }
        vi
    }

    /// Fill `way` of the set at `base` with `line`, returning what it
    /// displaced.
    #[inline]
    fn place(&mut self, base: usize, way: usize, line: u64, dirty: bool) -> Evicted {
        let old = self.meta[base + way];
        let mask = self.meta[base + 2 * self.ways];
        let evicted = if old == INVALID {
            Evicted::None
        } else if mask & (1 << way) != 0 {
            Evicted::Dirty(old)
        } else {
            Evicted::Clean(old)
        };
        self.meta[base + way] = line;
        self.meta[base + self.ways + way] = self.stamp;
        self.meta[base + 2 * self.ways] = (mask & !(1 << way)) | ((dirty as u64) << way);
        evicted
    }

    /// Insert `line` (after a miss), evicting the LRU way if the set is
    /// full. Returns what was displaced.
    ///
    /// Reuses the line's own way if it is somehow present already (spilled
    /// victims can race their own earlier copies), else places at
    /// `Cache::victim_way`.
    #[inline]
    pub fn insert(&mut self, line: u64, dirty: bool) -> Evicted {
        let base = self.base_of(line);
        self.stamp += 1;
        let tags = &self.meta[base..base + self.ways];
        for (i, &t) in tags.iter().enumerate() {
            if t == line {
                self.meta[base + self.ways + i] = self.stamp;
                self.meta[base + 2 * self.ways] |= (dirty as u64) << i;
                return Evicted::None;
            }
        }
        let way = self.victim_way(base);
        self.place(base, way, line, dirty)
    }

    /// [`Cache::insert`] for a line the caller has just probed and missed,
    /// with no intervening operations on this cache: the tag-match rescan
    /// is skipped (the line cannot be present). Stamp sequence and victim
    /// choice are identical to `insert`.
    #[inline]
    pub fn insert_miss(&mut self, line: u64, dirty: bool) -> Evicted {
        debug_assert!(!self.contains(line), "insert_miss caller guarantees absence");
        let base = self.base_of(line);
        self.stamp += 1;
        let way = self.victim_way(base);
        self.place(base, way, line, dirty)
    }

    /// Remove a line if present, reporting whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let base = self.base_of(line);
        for i in 0..self.ways {
            if self.meta[base + i] == line {
                self.meta[base + i] = INVALID;
                // Uphold the victim-selection invariant: invalid ways keep
                // a zero LRU word.
                self.meta[base + self.ways + i] = 0;
                return self.meta[base + 2 * self.ways] & (1 << i) != 0;
            }
        }
        false
    }

    /// Number of currently valid lines (test helper).
    pub fn occupancy(&self) -> usize {
        (0..self.sets)
            .map(|s| {
                self.meta[s * self.stride..s * self.stride + self.ways]
                    .iter()
                    .filter(|&&t| t != INVALID)
                    .count()
            })
            .sum()
    }

    /// Maximum number of lines the cache can hold.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Drop all contents (used between experiment repetitions).
    pub fn flush(&mut self) {
        self.meta.fill(0);
        for set in 0..self.sets {
            self.meta[set * self.stride..set * self.stride + self.ways].fill(INVALID);
        }
    }
}
/// Per-core stream-prefetcher model: tracks up to `SLOTS` independent
/// sequential streams; a DRAM fill that continues a tracked stream is
/// considered prefetched (bandwidth-bound instead of latency-bound).
#[derive(Debug)]
pub struct StreamDetector {
    last_lines: [u64; Self::SLOTS],
    next: usize,
}

impl StreamDetector {
    /// Hardware prefetchers track a limited number of streams; 16 covers
    /// the per-core stream count of Ice Lake's L2 prefetcher.
    pub const SLOTS: usize = 16;

    /// Fresh detector with no streams.
    pub fn new() -> Self {
        StreamDetector { last_lines: [u64::MAX; Self::SLOTS], next: 0 }
    }

    /// Record a DRAM fill of `line`; returns true when the fill continues a
    /// tracked stream (i.e. would have been prefetched). Both ascending and
    /// descending streams are tracked — hardware prefetchers lock onto
    /// either direction (CrkJoin's two-pointer partitioning relies on the
    /// descending one).
    pub fn observe(&mut self, line: u64) -> bool {
        for l in &mut self.last_lines {
            // Accept strides of up to two lines in either direction:
            // prefetchers lock on even when the access skips a line.
            if *l != u64::MAX && line != *l && line.abs_diff(*l) <= 2 {
                *l = line;
                return true;
            }
        }
        self.last_lines[self.next] = line;
        self.next = (self.next + 1) % Self::SLOTS;
        false
    }

    /// Forget all streams (phase boundaries).
    pub fn reset(&mut self) {
        *self = StreamDetector::new();
    }
}

impl Default for StreamDetector {
    fn default() -> Self {
        Self::new()
    }
}

/// Convert a byte address to its cache-line address.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr / CACHE_LINE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(&CacheConfig { size: 4 * CACHE_LINE, ways: 2, latency: 1.0 })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(!c.access(10, false));
        c.insert(10, false);
        assert!(c.access(10, false));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even lines).
        c.insert(0, false);
        c.insert(2, false);
        c.access(0, false); // 0 now MRU, 2 is LRU
        let ev = c.insert(4, false);
        assert_eq!(ev, Evicted::Clean(2));
        assert!(c.contains(0));
        assert!(c.contains(4));
        assert!(!c.contains(2));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(0, true);
        c.insert(2, false);
        c.access(2, false);
        let ev = c.insert(4, false);
        assert_eq!(ev, Evicted::Dirty(0));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.insert(0, false);
        assert!(c.access(0, true));
        c.insert(2, false);
        c.access(2, false);
        assert_eq!(c.insert(4, false), Evicted::Dirty(0));
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for line in 0..100 {
            c.insert(line, line % 3 == 0);
            assert!(c.occupancy() <= c.capacity_lines());
        }
        assert_eq!(c.occupancy(), c.capacity_lines());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.insert(0, true);
        c.insert(1, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(1));
        assert!(!c.invalidate(99));
        assert!(!c.contains(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.insert(0, true);
        c.insert(1, true);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn reinserting_present_line_does_not_evict() {
        let mut c = tiny();
        c.insert(0, false);
        c.insert(2, false);
        assert_eq!(c.insert(0, true), Evicted::None);
        assert!(c.contains(2));
    }

    #[test]
    fn stream_detector_tracks_sequential() {
        let mut d = StreamDetector::new();
        assert!(!d.observe(100));
        assert!(d.observe(101));
        assert!(d.observe(102));
        assert!(d.observe(104)); // stride-2 tolerated
        assert!(!d.observe(200)); // new stream
        assert!(d.observe(201));
        // Old stream still tracked.
        assert!(d.observe(105));
    }

    #[test]
    fn stream_detector_tracks_descending() {
        let mut d = StreamDetector::new();
        assert!(!d.observe(1000));
        assert!(d.observe(999));
        assert!(d.observe(998));
        assert!(d.observe(996)); // stride-2 down
    }

    #[test]
    fn stream_detector_capacity_bounded() {
        let mut d = StreamDetector::new();
        // Start more streams than slots; earliest stream gets evicted.
        for s in 0..(StreamDetector::SLOTS as u64 + 4) {
            assert!(!d.observe(s * 1000));
        }
        // Stream 0 was evicted, continuing it is a miss first.
        assert!(!d.observe(1));
    }

    #[test]
    fn random_accesses_not_streams() {
        let mut d = StreamDetector::new();
        let mut x: u64 = 12345;
        let mut hits = 0;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if d.observe(x >> 20) {
                hits += 1;
            }
        }
        assert!(hits < 20, "random pattern detected as stream too often: {hits}");
    }
}
