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
//! block per set: `[tags; ways][dirty mask]`, padded to a 64-byte
//! multiple (two host lines for a 12-way set, three for 20 ways). The
//! tags are kept in recency order, so there are no LRU stamps: a probe
//! scans the tags from the most recently used one, a hit moves its tag to
//! the front, and an insert pushes the new tag at the front and drops the
//! last one, which is the victim. Each update moves at most `ways - 1`
//! tags with one `copy_within` and shifts the dirty mask to match;
//! nothing scans for a victim. Set selection is a mask when the set count
//! is a power of two (every shipped profile), with a plain `%` fallback so
//! arbitrary `scaled()` factors stay exact.
//!
//! # Recency-order invariant
//!
//! In every set the valid ways form a prefix ordered by last use, most
//! recent first, and the invalid ways fill the tail. Bit `p` of the dirty
//! mask belongs to the tag at position `p`; it is clear for invalid
//! positions and for positions at or past `ways`. Every operation keeps
//! this: a hit moves the tags ahead of it back one position and takes the
//! front, an insert moves every tag back one and drops the last,
//! [`Cache::invalidate`] closes the gap and appends an invalid way, and
//! [`Cache::flush`] invalidates everything. The last way is therefore the
//! least recently used valid line when the set is full and an invalid way
//! otherwise. That is the victim the historical stamp-based selection
//! (tag match > first invalid way > first minimal-LRU valid way) picks,
//! so every hit, eviction and dirty report is unchanged. The golden
//! digests and the property tests in `tests/proptest_cache.rs`, which
//! drive that historical three-pass model in lockstep with this one, pin
//! it down.

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
    /// Words per set block: `ways + 1` rounded up to a multiple of 8, so
    /// blocks stay 64-byte aligned relative to the blob start.
    stride: usize,
    /// Per-set metadata blocks: `[tags, most recent first; ways][dirty
    /// mask]`.
    meta: Vec<u64>,
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
        let stride = (ways + 1).next_multiple_of(8);
        let mut c = Cache { ways, sets, set_mask, stride, meta: vec![0; sets * stride] };
        c.flush();
        c
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

    /// Find `line` in the set at `base`; on a hit, move it to the front
    /// and OR `dirty` into its bit.
    #[inline]
    fn touch(&mut self, base: usize, line: u64, dirty: bool) -> bool {
        let ways = self.ways;
        let tags = &mut self.meta[base..base + ways];
        let Some(i) = tags.iter().position(|&t| t == line) else {
            return false;
        };
        tags.copy_within(0..i, 1);
        tags[0] = line;
        // Bits below `i` move up one, bit `i` moves to 0, bits above stay.
        // `i < 64`, and the double shift keeps `i == 63` in range.
        let mask = self.meta[base + ways];
        let below = mask & ((1 << i) - 1);
        let above = mask & (u64::MAX << i << 1);
        self.meta[base + ways] = above | (below << 1) | ((mask >> i) & 1) | dirty as u64;
        true
    }

    /// Push `line` at the front of the set at `base`, dropping the tail —
    /// the least recently used way, or an invalid one — and report it.
    #[inline]
    fn push_front(&mut self, base: usize, line: u64, dirty: bool) -> Evicted {
        let ways = self.ways;
        let tags = &mut self.meta[base..base + ways];
        let tail = tags[ways - 1];
        tags.copy_within(0..ways - 1, 1);
        tags[0] = line;
        // Dropping the tail's bit before the shift keeps bits past `ways`
        // clear.
        let mask = self.meta[base + ways];
        let tail_bit = 1 << (ways - 1);
        self.meta[base + ways] = ((mask & !tail_bit) << 1) | dirty as u64;
        if tail == INVALID {
            Evicted::None
        } else if mask & tail_bit != 0 {
            Evicted::Dirty(tail)
        } else {
            Evicted::Clean(tail)
        }
    }

    /// Probe for `line`; on hit, refresh LRU and optionally mark dirty.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> bool {
        let base = self.base_of(line);
        self.touch(base, line, write)
    }

    /// Probe without updating replacement state (used by tests/inspection).
    pub fn contains(&self, line: u64) -> bool {
        let base = self.base_of(line);
        self.meta[base..base + self.ways].contains(&line)
    }

    /// Insert `line` (after a miss), evicting the LRU way if the set is
    /// full. Returns what was displaced.
    ///
    /// Moves the line to the front instead if it is somehow present
    /// already (spilled victims can race their own earlier copies).
    #[inline]
    pub fn insert(&mut self, line: u64, dirty: bool) -> Evicted {
        let base = self.base_of(line);
        if self.touch(base, line, dirty) {
            return Evicted::None;
        }
        self.push_front(base, line, dirty)
    }

    /// [`Cache::insert`] for a line the caller has just probed and missed,
    /// with no intervening operations on this cache: the tag-match rescan
    /// is skipped (the line cannot be present). Victim choice is identical
    /// to `insert`.
    #[inline]
    pub fn insert_miss(&mut self, line: u64, dirty: bool) -> Evicted {
        debug_assert!(!self.contains(line), "insert_miss caller guarantees absence");
        let base = self.base_of(line);
        self.push_front(base, line, dirty)
    }

    /// Remove a line if present, reporting whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let base = self.base_of(line);
        let ways = self.ways;
        let tags = &mut self.meta[base..base + ways];
        let Some(i) = tags.iter().position(|&t| t == line) else {
            return false;
        };
        tags.copy_within(i + 1.., i);
        tags[ways - 1] = INVALID;
        // Bits above `i` move down one; the appended invalid way's bit
        // comes from past `ways`, which is clear.
        let mask = self.meta[base + ways];
        let below = mask & ((1 << i) - 1);
        self.meta[base + ways] = below | ((mask >> 1) & (u64::MAX << i));
        mask & (1 << i) != 0
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
        for block in self.meta.chunks_exact_mut(self.stride) {
            block[..self.ways].fill(INVALID);
            block[self.ways] = 0;
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
