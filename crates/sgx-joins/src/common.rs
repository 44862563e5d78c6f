//! Shared types for all join implementations.

pub use sgx_sim::sync::QueueKind;

/// An 8-byte join tuple: 32-bit key, 32-bit payload (§4 "Join data").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    /// Join key.
    pub key: u32,
    /// Payload (row id in our generators).
    pub payload: u32,
}

/// A materialized join result pair (the payload columns of both sides).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinTuple {
    /// Payload of the build-side (R) row.
    pub r_payload: u32,
    /// Payload of the probe-side (S) row.
    pub s_payload: u32,
}

/// Configuration shared by all joins.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Hardware core ids executing the join (thread pinning, §3).
    pub cores: Vec<usize>,
    /// Total radix bits for partitioning joins (RHO, CrkJoin).
    pub radix_bits: u32,
    /// Apply the paper's §4.2 unroll-and-reorder optimization (issue
    /// groups around the irregular inner loops).
    pub optimized: bool,
    /// Task-queue implementation for task-distributed phases.
    pub queue: QueueKind,
    /// Materialize the join result (allocates an output table and writes
    /// one [`JoinTuple`] per match).
    pub materialize: bool,
}

impl JoinConfig {
    /// Default configuration on cores `0..threads` of socket 0.
    pub fn new(threads: usize) -> JoinConfig {
        JoinConfig {
            cores: (0..threads).collect(),
            radix_bits: 10,
            optimized: false,
            queue: QueueKind::LockFree,
            materialize: false,
        }
    }

    /// Builder-style: set total radix bits.
    pub fn with_radix_bits(mut self, bits: u32) -> Self {
        self.radix_bits = bits;
        self
    }

    /// Builder-style: enable the §4.2 optimization.
    pub fn with_optimization(mut self, on: bool) -> Self {
        self.optimized = on;
        self
    }

    /// Builder-style: choose the task queue.
    pub fn with_queue(mut self, q: QueueKind) -> Self {
        self.queue = q;
        self
    }

    /// Builder-style: materialize results.
    pub fn with_materialization(mut self, on: bool) -> Self {
        self.materialize = on;
        self
    }

    /// Builder-style: pin to explicit hardware cores.
    pub fn on_cores(mut self, cores: Vec<usize>) -> Self {
        self.cores = cores;
        self
    }

    /// Pick radix bits so the average final R partition fits in half the
    /// given cache budget (the classic radix-join sizing rule).
    pub fn auto_radix_bits(r_bytes: usize, cache_bytes: usize) -> u32 {
        let target = (cache_bytes / 2).max(1);
        let mut bits = 0u32;
        while (r_bytes >> bits) > target && bits < 16 {
            bits += 1;
        }
        bits.max(2)
    }
}

/// Timing and result summary of one join execution.
pub struct JoinStats {
    /// Number of matching tuple pairs.
    pub matches: u64,
    /// Order-independent checksum: sum of `r.payload + s.payload` over all
    /// matches (verified against the reference join in tests).
    pub checksum: u64,
    /// Total simulated wall cycles of the join.
    pub wall_cycles: f64,
    /// Per-phase wall cycles, in execution order.
    pub phases: Vec<(&'static str, f64)>,
    /// The materialized result table when `JoinConfig::materialize` was
    /// set. Valid entries live in `output_runs` (one dense run per
    /// partition/worker); slots outside the runs are unwritten.
    pub output: Option<sgx_sim::SimVec<JoinTuple>>,
    /// Dense ranges of valid entries within `output`.
    pub output_runs: Vec<std::ops::Range<usize>>,
}

impl JoinStats {
    /// Throughput in input rows per cycle: `(|R| + |S|) / cycles` — the
    /// paper's metric ("sum of input cardinalities divided by the join
    /// execution time").
    pub fn rows_per_cycle(&self, r_rows: usize, s_rows: usize) -> f64 {
        (r_rows + s_rows) as f64 / self.wall_cycles
    }

    /// Throughput in million rows per second at the given clock.
    pub fn mrows_per_sec(&self, r_rows: usize, s_rows: usize, freq_ghz: f64) -> f64 {
        self.rows_per_cycle(r_rows, s_rows) * freq_ghz * 1e3
    }

    /// Cycles spent in the named phase (0 if absent).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases.iter().filter(|(n, _)| *n == name).map(|(_, c)| c).sum()
    }
}

/// Multiplicative (Knuth) hash used by the hash joins: maps a key into
/// `2^bits` buckets. `bits` must be in `1..=32`.
#[inline]
pub fn hash32(key: u32, bits: u32) -> u32 {
    debug_assert!((1..=32).contains(&bits));
    key.wrapping_mul(2654435761) >> (32 - bits)
}

/// Radix of a key for partitioning: bits `[shift, shift+bits)`.
#[inline]
pub fn radix(key: u32, shift: u32, mask: u32) -> u32 {
    (key >> shift) & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_radix_bits_targets_half_cache() {
        // 100 MB relation, 1.25 MB L2: need 2^8 partitions of ~400 KB...
        let bits = JoinConfig::auto_radix_bits(100 << 20, 1280 << 10);
        assert!((100 << 20) >> bits <= (1280 << 10) / 2);
        assert!(bits <= 16);
        // Tiny relation needs the minimum.
        assert_eq!(JoinConfig::auto_radix_bits(1024, 1 << 20), 2);
    }

    #[test]
    fn hash32_stays_in_range_and_spreads() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..10_000u32 {
            let h = hash32(k, 8);
            assert!(h < 256);
            seen.insert(h);
        }
        assert_eq!(seen.len(), 256, "multiplicative hash should cover all buckets");
        // Full-width hash is the multiply itself.
        assert_eq!(hash32(1, 32), 2654435761);
    }

    #[test]
    fn radix_extracts_bit_ranges() {
        assert_eq!(radix(0b1011_0110, 2, 0b1111), 0b1101);
        assert_eq!(radix(u32::MAX, 28, 0xF), 0xF);
        assert_eq!(radix(0, 0, 0xFF), 0);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = JoinConfig::new(4)
            .with_radix_bits(12)
            .with_optimization(true)
            .with_queue(QueueKind::SdkMutex)
            .with_materialization(true)
            .on_cores(vec![3, 5]);
        assert_eq!(cfg.radix_bits, 12);
        assert!(cfg.optimized);
        assert_eq!(cfg.queue, QueueKind::SdkMutex);
        assert!(cfg.materialize);
        assert_eq!(cfg.cores, vec![3, 5]);
    }

    #[test]
    fn phase_lookup_sums_repeated_names() {
        let s = JoinStats {
            matches: 0,
            checksum: 0,
            wall_cycles: 10.0,
            phases: vec![("part", 3.0), ("join", 5.0), ("part", 2.0)],
            output: None,
            output_runs: vec![],
        };
        assert_eq!(s.phase("part"), 5.0);
        assert_eq!(s.phase("missing"), 0.0);
    }

    #[test]
    fn throughput_metric_matches_paper_definition() {
        let s = JoinStats {
            matches: 0,
            checksum: 0,
            wall_cycles: 2.9e9,
            phases: vec![],
            output: None,
            output_runs: vec![],
        };
        // 29 M rows joined in one second at 2.9 GHz = 29 M rows/s.
        let m = s.mrows_per_sec(9_000_000, 20_000_000, 2.9);
        assert!((m - 29.0).abs() < 1e-9);
    }
}
