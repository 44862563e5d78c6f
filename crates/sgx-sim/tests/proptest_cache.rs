//! Randomized property tests for the recency-ordered cache model
//! (`cache.rs`).
//!
//! `Cache` keeps each set's tags in recency order and evicts the tail,
//! with no LRU stamps and no victim scan. These tests pin the claim that
//! nothing observable changed from the historical stamp-based model: a
//! naive reference implementing the *historical* three-pass selection
//! (tag match > first invalid way > first minimal-LRU valid way) with
//! scattered parallel arrays is driven through hundreds of thousands of
//! randomized operations in lockstep with `Cache`, and every return value
//! — hits, evictions and their dirtiness, invalidation reports, occupancy
//! — must agree at every step. The geometries cover the simulated
//! machine's own L1d/L2/L3 at the scales the figures run, and 64 ways,
//! the widest dirty mask. Dependency-free: randomness comes from a seeded
//! LCG, so every run replays the same operation streams.

use sgx_sim::cache::{Cache, Evicted, StreamDetector};
use sgx_sim::config::{xeon_gold_6326, CacheConfig, CACHE_LINE};

/// Deterministic LCG (same constants as `sgx_microbench::random_write`).
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 16
}

/// Naive reference model: the historical cache implementation with
/// parallel `tags`/`lru`/`dirty` arrays and the literal three-pass victim
/// selection. Deliberately simple — correctness is obvious by inspection.
struct RefCache {
    ways: usize,
    sets: usize,
    tags: Vec<Option<u64>>,
    lru: Vec<u64>,
    dirty: Vec<bool>,
    stamp: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> RefCache {
        let sets = cfg.sets();
        RefCache {
            ways: cfg.ways,
            sets,
            tags: vec![None; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            dirty: vec![false; sets * cfg.ways],
            stamp: 0,
        }
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let s = (line as usize) % self.sets;
        s * self.ways..(s + 1) * self.ways
    }

    fn access(&mut self, line: u64, write: bool) -> bool {
        self.stamp += 1;
        for i in self.set_range(line) {
            if self.tags[i] == Some(line) {
                self.lru[i] = self.stamp;
                self.dirty[i] |= write;
                return true;
            }
        }
        false
    }

    fn contains(&self, line: u64) -> bool {
        self.set_range(line).any(|i| self.tags[i] == Some(line))
    }

    fn insert(&mut self, line: u64, dirty: bool) -> Evicted {
        self.stamp += 1;
        // Pass 1: refresh a present line.
        for i in self.set_range(line) {
            if self.tags[i] == Some(line) {
                self.lru[i] = self.stamp;
                self.dirty[i] |= dirty;
                return Evicted::None;
            }
        }
        // Pass 2: first invalid way.
        // Pass 3: first strict-minimum LRU among valid ways.
        let range = self.set_range(line);
        let victim = range
            .clone()
            .find(|&i| self.tags[i].is_none())
            .unwrap_or_else(|| range.clone().reduce(|a, b| if self.lru[b] < self.lru[a] { b } else { a }).unwrap());
        let evicted = match self.tags[victim] {
            None => Evicted::None,
            Some(old) if self.dirty[victim] => Evicted::Dirty(old),
            Some(old) => Evicted::Clean(old),
        };
        self.tags[victim] = Some(line);
        self.lru[victim] = self.stamp;
        self.dirty[victim] = dirty;
        evicted
    }

    fn invalidate(&mut self, line: u64) -> bool {
        for i in self.set_range(line) {
            if self.tags[i] == Some(line) {
                self.tags[i] = None;
                // The historical model did NOT reset the stale LRU word —
                // invalid ways were excluded by pass 2 instead. Keeping it
                // stale here is the point: the cache under test must agree
                // anyway, however it orders its invalid ways.
                return std::mem::replace(&mut self.dirty[i], false);
            }
        }
        false
    }

    fn occupancy(&self) -> usize {
        self.tags.iter().filter(|t| t.is_some()).count()
    }

    fn flush(&mut self) {
        self.tags.fill(None);
        self.lru.fill(0);
        self.dirty.fill(false);
        self.stamp = 0;
    }
}

/// Drive the cache and the reference model through one randomized
/// operation stream over the lines in `pool`, asserting observable
/// agreement at every step.
fn lockstep(cfg: &CacheConfig, seed: u64, ops: usize, pool: &[u64], allow_insert_miss: bool) {
    let mut cache = Cache::new(cfg);
    let mut model = RefCache::new(cfg);
    let mut x = seed | 1;
    for op in 0..ops {
        let line = pool[(lcg(&mut x) % pool.len() as u64) as usize];
        let dirty = lcg(&mut x).is_multiple_of(2);
        // Per mille: a flush is rare enough that wide sets fill up and
        // evict between two flushes.
        match lcg(&mut x) % 1000 {
            // Probes dominate, like the real resolve path.
            0..=449 => {
                assert_eq!(
                    cache.access(line, dirty),
                    model.access(line, dirty),
                    "op {op}: access({line}, write={dirty}) diverged (seed {seed})"
                );
            }
            450..=849 => {
                // insert_miss is insert with the caller-proven-absent
                // shortcut; exercising it against the reference's full
                // insert IS the equivalence claim from the module docs.
                let miss =
                    allow_insert_miss && !cache.contains(line) && lcg(&mut x).is_multiple_of(2);
                let got =
                    if miss { cache.insert_miss(line, dirty) } else { cache.insert(line, dirty) };
                let want = model.insert(line, dirty);
                assert_eq!(got, want, "op {op}: insert({line}, dirty={dirty}) diverged (seed {seed}, miss-path {miss})");
            }
            850..=949 => {
                assert_eq!(
                    cache.invalidate(line),
                    model.invalidate(line),
                    "op {op}: invalidate({line}) diverged (seed {seed})"
                );
            }
            950..=998 => {
                assert_eq!(cache.contains(line), model.contains(line), "op {op}: contains({line}) diverged (seed {seed})");
            }
            _ => {
                cache.flush();
                model.flush();
            }
        }
        if op % 64 == 0 {
            assert_eq!(cache.occupancy(), model.occupancy(), "op {op}: occupancy diverged (seed {seed})");
        }
    }
    // Final state sweep: membership must agree line-for-line.
    for &line in pool {
        assert_eq!(cache.contains(line), model.contains(line), "final contains({line}) diverged (seed {seed})");
    }
    assert_eq!(cache.occupancy(), model.occupancy(), "final occupancy diverged (seed {seed})");
}

/// Lines `0..n`.
fn span(n: u64) -> Vec<u64> {
    (0..n).collect()
}

/// `3 * ways` distinct lines in each of the first, middle and last set of
/// `cfg`, so those sets see constant eviction traffic however many sets
/// the geometry has.
fn hot_sets(cfg: &CacheConfig) -> Vec<u64> {
    let sets = cfg.sets() as u64;
    let mut picks = vec![0, sets / 2, sets - 1];
    picks.dedup();
    picks.iter().flat_map(|&set| (0..3 * cfg.ways as u64).map(move |k| set + k * sets)).collect()
}

/// Small geometry with heavy set contention: every victim-selection path
/// is hit constantly.
#[test]
fn packed_cache_matches_three_pass_reference_small() {
    let cfg = CacheConfig { size: 4 * 4 * CACHE_LINE, ways: 4, latency: 1.0 };
    for seed in [1, 0xBEEF, 0xC0FFEE, 0x5EED5EED] {
        lockstep(&cfg, seed, 40_000, &span(64), true);
    }
}

/// Power-of-two set count at L2-like geometry (mask-based set selection).
#[test]
fn packed_cache_matches_three_pass_reference_pow2() {
    let cfg = CacheConfig { size: 64 * 20 * CACHE_LINE, ways: 20, latency: 1.0 };
    lockstep(&cfg, 0xDEAD_BEEF, 60_000, &span(64 * 20 * 3), true);
}

/// Non-power-of-two set count (modulo fallback, e.g. odd `scaled()`
/// factors) and a ways=1 degenerate geometry.
#[test]
fn packed_cache_matches_three_pass_reference_odd_geometries() {
    let odd = CacheConfig { size: 3 * 5 * CACHE_LINE, ways: 5, latency: 1.0 };
    lockstep(&odd, 7, 40_000, &span(48), true);
    let direct = CacheConfig { size: 8 * CACHE_LINE, ways: 1, latency: 1.0 };
    lockstep(&direct, 11, 20_000, &span(32), true);
}

/// The simulated machine's own L1d, L2 and L3 at full size, at the
/// default 1/16 profile and at the golden 1/512 profile, where L1d is a
/// single 12-way set and L2 two 20-way sets.
#[test]
fn packed_cache_matches_three_pass_reference_machine_geometries() {
    for k in [1, 16, 512] {
        let hw = xeon_gold_6326().scaled(k);
        for cfg in [&hw.l1d, &hw.l2, &hw.l3] {
            let pool = hot_sets(cfg);
            for seed in [3, 0xA11CE] {
                lockstep(cfg, seed ^ k as u64, 20_000, &pool, true);
            }
        }
    }
    let golden = xeon_gold_6326().scaled(512);
    assert_eq!((golden.l1d.sets(), golden.l1d.ways), (1, 12));
    assert_eq!((golden.l2.sets(), golden.l2.ways), (2, 20));
}

/// 64 ways, the widest set the dirty mask holds: only here do a hit and
/// an eviction at the last position touch the mask's top bit. Three sets
/// also take the modulo set selection.
#[test]
fn packed_cache_matches_three_pass_reference_64_ways() {
    let cfg = CacheConfig { size: 3 * 64 * CACHE_LINE, ways: 64, latency: 1.0 };
    for seed in [5, 0x6464] {
        lockstep(&cfg, seed, 100_000, &span(3 * 64 * 3), true);
    }
}

/// LRU ordering: after touching a full set in a known order, inserts must
/// evict in exactly that order (oldest first), each with the dirtiness it
/// was inserted with. At 64 ways the touches hit every position of the
/// dirty mask, the top bit included.
#[test]
fn lru_evicts_in_recency_order() {
    for ways in [8u64, 64] {
        let cfg =
            CacheConfig { size: 2 * ways as usize * CACHE_LINE, ways: ways as usize, latency: 1.0 };
        let mut c = Cache::new(&cfg);
        let mut x = 0x1234u64;
        for round in 0..200 {
            c.flush();
            // Fill set 0 (even lines; sets = 2), every third line dirty,
            // then re-touch in a random order.
            let lines: Vec<u64> = (0..ways).map(|i| i * 2).collect();
            let dirty = |l: u64| (l / 2).is_multiple_of(3);
            for &l in &lines {
                assert_eq!(c.insert(l, dirty(l)), Evicted::None, "round {round}: filling an empty set evicts nothing");
            }
            let mut order = lines.clone();
            // Fisher-Yates with the LCG.
            for i in (1..order.len()).rev() {
                order.swap(i, (lcg(&mut x) % (i as u64 + 1)) as usize);
            }
            for &l in &order {
                assert!(c.access(l, false), "round {round}: touched line must hit");
            }
            // Fresh conflicting lines must now evict in exactly touch order.
            for (k, &expect) in order.iter().enumerate() {
                let fresh = 1000 + 2 * (round * ways + k as u64);
                let want = if dirty(expect) { Evicted::Dirty(expect) } else { Evicted::Clean(expect) };
                assert_eq!(
                    c.insert(fresh, false),
                    want,
                    "{ways} ways, round {round}: eviction {k} must follow the recency order"
                );
            }
        }
    }
}

/// Dirty bits survive spill cascades: chain two caches the way the
/// hierarchy spills L1 victims into L2 (`Evicted::Dirty` re-inserted
/// dirty, `Evicted::Clean` clean). Every `Dirty(line)` surfacing from the
/// bottom of the chain must correspond to a line whose last write is
/// still unflushed; cross-check against the reference-model chain.
#[test]
fn dirty_bits_propagate_through_eviction_cascades() {
    let l1cfg = CacheConfig { size: 2 * 2 * CACHE_LINE, ways: 2, latency: 1.0 };
    let l2cfg = CacheConfig { size: 4 * 4 * CACHE_LINE, ways: 4, latency: 1.0 };
    let (mut l1, mut l2) = (Cache::new(&l1cfg), Cache::new(&l2cfg));
    let (mut r1, mut r2) = (RefCache::new(&l1cfg), RefCache::new(&l2cfg));
    let mut x = 0xFEEDu64;
    let mut writebacks = 0u32;
    for op in 0..60_000 {
        let line = lcg(&mut x) % 96;
        let write = lcg(&mut x).is_multiple_of(3);
        let hit = l1.access(line, write);
        assert_eq!(hit, r1.access(line, write), "op {op}: L1 hit state diverged");
        if !hit {
            // Miss path: install into L1, spill its victim into L2, and
            // mirror the same cascade on the reference chain.
            let spill = |ev: Evicted, l2: &mut dyn FnMut(u64, bool) -> Evicted| match ev {
                Evicted::None => Evicted::None,
                Evicted::Clean(v) => l2(v, false),
                Evicted::Dirty(v) => l2(v, true),
            };
            let got = spill(l1.insert_miss(line, write), &mut |v, d| l2.insert(v, d));
            let want = spill(r1.insert(line, write), &mut |v, d| r2.insert(v, d));
            assert_eq!(got, want, "op {op}: cascade outcome diverged");
            if let Evicted::Dirty(_) = got {
                writebacks += 1;
            }
        }
    }
    assert!(writebacks > 100, "cascade test must actually produce write-backs, got {writebacks}");
}

/// `StreamDetector::observe` is a pure function of the observation
/// sequence: replaying any sequence on a fresh detector reproduces the
/// verdicts exactly, and `reset()` is indistinguishable from fresh.
#[test]
fn stream_detector_observe_is_replay_pure() {
    let mut x = 0xABCDu64;
    for trial in 0..50 {
        // Mix of sequential runs and random jumps.
        let mut seq = Vec::new();
        let mut cur = lcg(&mut x) % 10_000;
        for _ in 0..400 {
            match lcg(&mut x) % 4 {
                0 => cur = lcg(&mut x) % 10_000,
                1 => cur = cur.saturating_sub(1 + lcg(&mut x) % 2),
                _ => cur += 1 + lcg(&mut x) % 2,
            }
            seq.push(cur);
        }
        let mut a = StreamDetector::new();
        let va: Vec<bool> = seq.iter().map(|&l| a.observe(l)).collect();
        let mut b = StreamDetector::new();
        let vb: Vec<bool> = seq.iter().map(|&l| b.observe(l)).collect();
        assert_eq!(va, vb, "trial {trial}: fresh replay diverged");
        // A reset detector must behave exactly like a fresh one, however
        // polluted it was before.
        a.reset();
        let vc: Vec<bool> = seq.iter().map(|&l| a.observe(l)).collect();
        assert_eq!(va, vc, "trial {trial}: reset() is not equivalent to fresh");
    }
}
