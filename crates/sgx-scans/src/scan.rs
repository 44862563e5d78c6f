//! Vectorized column scans (§5.1–§5.3).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sgx_sim::{worker_range, Core, Machine, SimSink, SimVec};

/// What the scan materializes. Either output is written, with its full
/// simulated cost, into a write-only [`SimSink`]: nothing reads it back,
/// so the scan keeps only its digest ([`ScanStats::digest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutput {
    /// One result bit per value, packed into 64-bit words (§5.1: the
    /// read-heavy configuration).
    BitVector,
    /// One 64-bit row index per matching value (§5.3: the write rate is
    /// `8 × selectivity` bytes per byte read).
    Indexes,
}

/// Scan execution parameters.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Hardware cores executing the scan.
    pub cores: Vec<usize>,
    /// Number of times the column is scanned (the paper runs 10 warm-up +
    /// 1000 measured scans for cache-residency experiments).
    pub repeats: usize,
    /// Untimed warm-up scans beforehand.
    pub warmup: usize,
}

impl ScanConfig {
    /// `threads` cores on socket 0, one measured pass, no warm-up.
    pub fn new(threads: usize) -> ScanConfig {
        ScanConfig { cores: (0..threads).collect(), repeats: 1, warmup: 0 }
    }

    /// Builder-style: measured repeats.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats;
        self
    }

    /// Builder-style: warm-up passes.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Builder-style: explicit core pinning.
    pub fn on_cores(mut self, cores: Vec<usize>) -> Self {
        self.cores = cores;
        self
    }
}

/// Result of a scan benchmark.
#[derive(Debug, Clone)]
pub struct ScanStats {
    /// Simulated wall cycles of the measured repeats.
    pub cycles: f64,
    /// Matching values per pass.
    pub matches: u64,
    /// Digest of the output slots the first measured pass wrote
    /// ([`SimSink::digest`]), which [`reference_scan_digest`] recomputes;
    /// the output itself is not kept.
    pub digest: u64,
    /// Bytes read per pass (column size).
    pub bytes_read: u64,
    /// Measured repeats.
    pub repeats: usize,
}

impl ScanStats {
    /// Effective read throughput in GB/s at the given clock.
    pub fn gb_per_sec(&self, freq_ghz: f64) -> f64 {
        let total = self.bytes_read as f64 * self.repeats as f64;
        total / (self.cycles / (freq_ghz * 1e9)) / 1e9
    }
}

/// Generate a column of `n` uniform byte values.
pub fn gen_column(machine: &mut Machine, n: usize, seed: u64) -> SimVec<u8> {
    let mut col = machine.alloc::<u8>(n);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        col.poke(i, rng.random::<u8>());
    }
    col
}

/// The predicate over one 64-byte vector: bit `k` is set when
/// `lo <= vals[k] <= hi`.
fn match_mask(vals: &[u8], lo: u8, hi: u8) -> u64 {
    debug_assert!(vals.len() <= 64, "one vector holds at most 64 values");
    vals.iter().enumerate().fold(0, |m, (k, &v)| m | u64::from(v >= lo && v <= hi) << k)
}

/// One worker's share of a bitvector scan: 64 values per AVX-512 step,
/// two compares and a mask-AND, one 64-bit mask store per step.
fn scan_bitvector_range(
    c: &mut Core<'_>,
    col: &SimVec<u8>,
    range: std::ops::Range<usize>,
    lo: u8,
    hi: u8,
    bits: &mut SimSink,
) -> u64 {
    // 64-aligned ranges make every vector of byte values one mask word.
    debug_assert_eq!(range.start % 64, 0, "worker ranges are 64-aligned");
    let mut matches = 0u64;
    let mut writer = bits.stream_writer(range.start / 64);
    col.read_stream_vec(c, range, |c, _, vals| {
        // VPCMPUB x2 + KAND on a 64-byte vector.
        c.vec_compute(3);
        let mask = match_mask(vals, lo, hi);
        matches += u64::from(mask.count_ones());
        writer.push(c, mask);
    });
    matches
}

/// One worker's share of an index-materializing scan: compress-store the
/// row ids of matching values (VPCOMPRESSQ), making the write volume
/// proportional to selectivity.
fn scan_indexes_range(
    c: &mut Core<'_>,
    col: &SimVec<u8>,
    range: std::ops::Range<usize>,
    lo: u8,
    hi: u8,
    out: &mut SimSink,
    out_start: usize,
) -> u64 {
    let mut matches = 0u64;
    let mut writer = out.stream_writer(out_start);
    col.read_stream_vec(c, range, |c, base, vals| {
        // Compare + 8 compress-stores (64 u8 lanes → 8 × 8 u64 lanes).
        c.vec_compute(10);
        let mut mask = match_mask(vals, lo, hi);
        matches += u64::from(mask.count_ones());
        while mask != 0 {
            writer.push(c, (base + mask.trailing_zeros() as usize) as u64);
            mask &= mask - 1;
        }
    });
    matches
}

/// Run a multi-threaded column scan with predicate `lo <= v <= hi`.
/// Output sinks are allocated in the machine's default data region; only
/// the measured repeats advance the wall clock.
pub fn column_scan(
    machine: &mut Machine,
    col: &SimVec<u8>,
    lo: u8,
    hi: u8,
    output: ScanOutput,
    cfg: &ScanConfig,
) -> ScanStats {
    let t = cfg.cores.len();
    let n = col.len();
    // Both outputs are reserved, whichever one is written, so later
    // allocations keep their simulated addresses.
    let mut bits = machine.alloc_sink(n.div_ceil(64));
    let mut indexes = machine.alloc_sink(n);
    let out = match output {
        ScanOutput::BitVector => &mut bits,
        ScanOutput::Indexes => &mut indexes,
    };

    // One pass over the column: its matches and its output digest.
    let mut pass = |machine: &mut Machine| -> (u64, u64) {
        let before = out.digest();
        let mut count = 0u64;
        machine.parallel(&cfg.cores, |c| {
            let range = worker_range(n, t, 64, c.worker());
            if range.is_empty() {
                return;
            }
            count += match output {
                ScanOutput::BitVector => scan_bitvector_range(c, col, range, lo, hi, out),
                ScanOutput::Indexes => {
                    let start = range.start;
                    scan_indexes_range(c, col, range, lo, hi, out, start)
                }
            };
        });
        (count, out.digest().wrapping_sub(before))
    };

    for _ in 0..cfg.warmup {
        pass(machine);
    }
    machine.reset_wall();
    let start = machine.wall_cycles();
    // Only the measured passes carry the "scan" profile scope; warm-up
    // work above stays unscoped, mirroring the wall-clock accounting.
    let _scan_scope = machine.phase("scan");
    let (mut matches, mut digest) = (0, 0);
    for rep in 0..cfg.repeats {
        let first = pass(machine);
        if rep == 0 {
            (matches, digest) = first;
        }
    }
    ScanStats {
        cycles: machine.wall_cycles() - start,
        matches,
        digest,
        bytes_read: n as u64,
        repeats: cfg.repeats.max(1),
    }
}

/// Uncharged reference filter for verification.
#[expect(clippy::disallowed_methods, reason = "uncharged reference oracle for verification")]
pub fn reference_filter(col: &SimVec<u8>, lo: u8, hi: u8) -> Vec<u64> {
    col.as_slice_untracked()
        .iter()
        .enumerate()
        .filter(|(_, &v)| v >= lo && v <= hi)
        .map(|(i, _)| i as u64)
        .collect()
}

/// Uncharged oracle for [`ScanStats::digest`]: the digest of the slots one
/// pass of a `threads`-worker [`column_scan`] writes. Bitvector word `i`
/// holds the matches among values `64i..64i + 64`. Each worker writes the
/// row ids of its chunk's matches from the slot where its chunk starts.
pub fn reference_scan_digest(
    col: &SimVec<u8>,
    lo: u8,
    hi: u8,
    output: ScanOutput,
    threads: usize,
) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "uncharged reference oracle for verification")]
    let vals = col.as_slice_untracked();
    let hit = |i: usize| vals[i] >= lo && vals[i] <= hi;
    let add = |d: u64, (slot, v): (usize, u64)| d.wrapping_add(SimSink::slot_digest(slot, v));
    match output {
        ScanOutput::BitVector => (0..vals.len().div_ceil(64))
            .map(|word| {
                let rows = 64 * word..(64 * word + 64).min(vals.len());
                (word, rows.filter(|&i| hit(i)).fold(0u64, |m, i| m | 1 << (i % 64)))
            })
            .fold(0, add),
        ScanOutput::Indexes => (0..threads)
            .flat_map(|w| {
                let range = worker_range(vals.len(), threads, 64, w);
                (range.start..).zip(range.filter(|&i| hit(i)).map(|i| i as u64))
            })
            .fold(0, add),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn machine(setting: Setting) -> Machine {
        Machine::new(scaled_profile(), setting)
    }

    /// One pass, and fig12's two warm-up plus four measured passes, on 1,
    /// 4 and 16 threads.
    fn configs() -> Vec<ScanConfig> {
        [1, 4, 16]
            .into_iter()
            .flat_map(|t| [ScanConfig::new(t), ScanConfig::new(t).with_warmup(2).with_repeats(4)])
            .collect()
    }

    /// Scan `col` in every [`configs`] configuration, checking the
    /// matches and the output digest against the oracles.
    fn assert_scans_match_oracles(
        m: &mut Machine,
        col: &SimVec<u8>,
        lo: u8,
        hi: u8,
        output: ScanOutput,
    ) {
        let expected = reference_filter(col, lo, hi).len() as u64;
        for cfg in configs() {
            let threads = cfg.cores.len();
            let label = format!("{output:?}, {threads} threads, {} warm-up passes", cfg.warmup);
            let stats = column_scan(m, col, lo, hi, output, &cfg);
            assert_eq!(stats.matches, expected, "{label}: matches");
            assert_eq!(
                stats.digest,
                reference_scan_digest(col, lo, hi, output, threads),
                "{label}: output digest"
            );
        }
    }

    #[test]
    fn bitvector_scan_counts_correctly() {
        let mut m = machine(Setting::PlainCpu);
        let col = gen_column(&mut m, 100_000, 1);
        assert_scans_match_oracles(&mut m, &col, 50, 150, ScanOutput::BitVector);
    }

    #[test]
    fn index_scan_materializes_matches() {
        let mut m = machine(Setting::PlainCpu);
        let col = gen_column(&mut m, 50_000, 2);
        assert_scans_match_oracles(&mut m, &col, 0, 127, ScanOutput::Indexes);
        // ~50% selectivity on uniform bytes.
        let sel = reference_filter(&col, 0, 127).len() as f64 / 50_000.0;
        assert!((0.45..0.55).contains(&sel), "selectivity {sel}");
        // Each worker writes from its own chunk's start, so the index
        // slots, unlike the bitvector's, depend on the thread count.
        assert_ne!(
            reference_scan_digest(&col, 0, 127, ScanOutput::Indexes, 1),
            reference_scan_digest(&col, 0, 127, ScanOutput::Indexes, 4)
        );
    }

    #[test]
    fn selectivity_extremes() {
        let mut m = machine(Setting::PlainCpu);
        let col = gen_column(&mut m, 10_000, 3);
        for output in [ScanOutput::BitVector, ScanOutput::Indexes] {
            // 0% and 100% selectivity.
            assert_scans_match_oracles(&mut m, &col, 10, 9, output);
            assert_scans_match_oracles(&mut m, &col, 0, 255, output);
        }
        let none = column_scan(&mut m, &col, 10, 9, ScanOutput::Indexes, &ScanConfig::new(2));
        assert_eq!((none.matches, none.digest), (0, 0), "no match writes no index");
        let all = column_scan(&mut m, &col, 0, 255, ScanOutput::Indexes, &ScanConfig::new(2));
        assert_eq!(all.matches, 10_000);
        // An all-zero bitvector is still written, word by word.
        let zeros = column_scan(&mut m, &col, 10, 9, ScanOutput::BitVector, &ScanConfig::new(2));
        assert_ne!(zeros.digest, 0);
    }

    #[test]
    fn enclave_scan_overhead_is_small() {
        // §5.1/Fig 12: out-of-cache scans lose only ~3 % inside the
        // enclave.
        let run = |setting: Setting| {
            let mut m = machine(setting);
            let col = gen_column(&mut m, 8 << 20, 4); // 8 MB >> scaled L3
            let stats = column_scan(
                &mut m,
                &col,
                32,
                96,
                ScanOutput::BitVector,
                &ScanConfig::new(1).with_warmup(1),
            );
            stats.cycles
        };
        let native = run(Setting::PlainCpu);
        let enclave = run(Setting::SgxDataInEnclave);
        let overhead = enclave / native - 1.0;
        assert!(
            (0.0..0.10).contains(&overhead),
            "scan overhead should be a few percent, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn in_cache_scan_at_parity_and_faster() {
        let run = |setting: Setting, n: usize| {
            let mut m = machine(setting);
            let col = gen_column(&mut m, n, 5);
            column_scan(
                &mut m,
                &col,
                32,
                96,
                ScanOutput::BitVector,
                &ScanConfig::new(1).with_warmup(2).with_repeats(10),
            )
        };
        // 32 KB fits the scaled L2 (80 KB).
        let small_native = run(Setting::PlainCpu, 32 << 10);
        let small_enclave = run(Setting::SgxDataInEnclave, 32 << 10);
        let rel = small_enclave.cycles / small_native.cycles;
        assert!(rel < 1.02, "in-cache scan should be at parity, got {rel:.3}");
        // And much faster per byte than the DRAM-sized scan.
        let big_native = run(Setting::PlainCpu, 8 << 20);
        let small_rate = small_native.gb_per_sec(2.9);
        let big_rate = big_native.gb_per_sec(2.9);
        assert!(small_rate > 1.5 * big_rate, "cache {small_rate} vs dram {big_rate}");
    }

    #[test]
    fn thread_scaling_saturates_bandwidth() {
        // Fig 13: scan throughput scales with threads until the memory
        // bandwidth cap, identically in and out of the enclave.
        let run = |setting: Setting, threads: usize| {
            let mut m = machine(setting);
            let col = gen_column(&mut m, 16 << 20, 6);
            column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &ScanConfig::new(threads))
                .gb_per_sec(2.9)
        };
        let t1 = run(Setting::PlainCpu, 1);
        let t4 = run(Setting::PlainCpu, 4);
        let t16 = run(Setting::PlainCpu, 16);
        assert!(t4 > 3.0 * t1, "near-linear early scaling: {t1} -> {t4}");
        assert!(t16 < 16.0 * t1 * 0.9, "saturation at high threads: {t16} vs {t1}");
        let e16 = run(Setting::SgxDataInEnclave, 16);
        assert!(e16 / t16 > 0.9, "enclave scaling should match: {e16} vs {t16}");
    }

    #[test]
    fn higher_write_rate_does_not_widen_enclave_gap() {
        // Fig 14: increasing selectivity (write rate) does not increase
        // the relative enclave overhead.
        let gap = |sel_hi: u8| {
            let run = |setting: Setting| {
                let mut m = machine(setting);
                let col = gen_column(&mut m, 4 << 20, 7);
                column_scan(&mut m, &col, 0, sel_hi, ScanOutput::Indexes, &ScanConfig::new(8))
                    .cycles
            };
            run(Setting::SgxDataInEnclave) / run(Setting::PlainCpu)
        };
        let low = gap(25); // ~10% selectivity
        let high = gap(255); // 100% selectivity
        assert!(
            high <= low * 1.05,
            "write-heavy scan gap {high:.3} should not exceed read-heavy {low:.3}"
        );
    }
}
