//! Bit-packed column scans — the actual SIMD-scan algorithm of Willhalm
//! et al. \[38\], which the paper's §5 scan family descends from.
//!
//! Values are packed at `k` bits each into 64-bit words (no value spans a
//! word boundary: `64 / k` values per word, upper bits padded). The scan
//! unpacks 64 bytes at a time with shift/mask vector operations and
//! compares against the predicate range, producing the same outputs as the
//! byte-column scans in [`crate::scan`]. Packing reduces the bytes the MEE
//! must decrypt per value — on the paper's hardware this is the cheapest
//! way to buy scan throughput inside an enclave.

use sgx_sim::{worker_range, Core, Machine, SimVec};

/// A column of `k`-bit unsigned values packed into 64-bit words.
pub struct PackedColumn {
    words: SimVec<u64>,
    /// Bits per value (1..=32).
    bits: u32,
    /// Logical number of values.
    len: usize,
}

impl PackedColumn {
    /// Values stored per 64-bit word.
    pub fn per_word(bits: u32) -> usize {
        (64 / bits) as usize
    }

    /// Pack `values` (each `< 2^bits`) into a new column in the machine's
    /// default data region.
    pub fn pack(machine: &mut Machine, values: &[u32], bits: u32) -> PackedColumn {
        Self::pack_with(machine, values.len(), bits, |i| values[i])
    }

    /// Pack `len` values (each `< 2^bits`) into a new column in the
    /// machine's default data region, taking value `i` from `value(i)` as
    /// it is packed. `value` is called once per index, in index order, so
    /// a generator can produce the column without a host copy of it.
    pub fn pack_with(
        machine: &mut Machine,
        len: usize,
        bits: u32,
        mut value: impl FnMut(usize) -> u32,
    ) -> PackedColumn {
        assert!((1..=32).contains(&bits), "1..=32 bits per value");
        let pw = Self::per_word(bits);
        let n_words = len.div_ceil(pw).max(1);
        let mut words = machine.alloc::<u64>(n_words);
        for i in 0..len {
            let v = value(i);
            assert!(u64::from(v) < (1u64 << bits), "value {v} exceeds {bits} bits");
            let word = i / pw;
            let shift = (i % pw) as u32 * bits;
            let mut w = words.peek(word);
            w |= u64::from(v) << shift;
            words.poke(word, w);
        }
        PackedColumn { words, bits, len }
    }

    /// Logical length in values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Physical size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.size_bytes()
    }

    /// Uncharged read of value `i` (verification).
    pub fn peek(&self, i: usize) -> u32 {
        let pw = Self::per_word(self.bits);
        let w = self.words.peek(i / pw);
        let shift = (i % pw) as u32 * self.bits;
        ((w >> shift) & ((1u64 << self.bits) - 1)) as u32
    }

    /// Charged range scan `lo <= v <= hi` over `range`, invoking `f(index)`
    /// per match. One 64-byte vector load plus `unpack_ops` shift/mask/
    /// compare vector operations per cache line (Willhalm-style in-register
    /// unpacking).
    pub fn scan_range(
        &self,
        core: &mut Core<'_>,
        range: std::ops::Range<usize>,
        lo: u32,
        hi: u32,
        mut f: impl FnMut(&mut Core<'_>, usize),
    ) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let pw = Self::per_word(self.bits);
        let word_range = range.start / pw..(range.end - 1) / pw + 1;
        let mask = (1u64 << self.bits) - 1;
        let mut matches = 0u64;
        // Unpack cost per 64-byte line: one shift+and+two-compares round
        // per packed lane position (Willhalm's shuffle/shift networks).
        let unpack_ops = 3 + self.bits as u64 / 8;
        self.words.read_stream_vec(core, word_range, |c, word_base, words| {
            c.vec_compute(unpack_ops);
            for (k, &w) in words.iter().enumerate() {
                let base = (word_base + k) * pw;
                for lane in 0..pw {
                    let i = base + lane;
                    if i < range.start || i >= range.end {
                        continue;
                    }
                    let v = ((w >> (lane as u32 * self.bits)) & mask) as u32;
                    if v >= lo && v <= hi {
                        matches += 1;
                        f(c, i);
                    }
                }
            }
        });
        matches
    }
}

/// Multi-threaded packed scan counting matches (bitvector-free variant;
/// the match positions are handed to `per-worker` counters only).
pub fn packed_scan_count(
    machine: &mut Machine,
    col: &PackedColumn,
    lo: u32,
    hi: u32,
    cores: &[usize],
) -> (u64, f64) {
    let t = cores.len();
    let pw = PackedColumn::per_word(col.bits());
    let mut total = 0u64;
    let start = machine.wall_cycles();
    machine.parallel(cores, |c| {
        // Chunk on word boundaries so workers never split a word.
        let range = worker_range(col.len(), t, pw, c.worker());
        total += col.scan_range(c, range, lo, hi, |_, _| {});
    });
    (total, machine.wall_cycles() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn machine(setting: Setting) -> Machine {
        Machine::new(scaled_profile(), setting)
    }

    fn random_values(n: usize, bits: u32, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..(1u32 << bits.min(31)))).collect()
    }

    #[test]
    fn pack_roundtrip_all_widths() {
        let mut m = machine(Setting::PlainCpu);
        for bits in [1u32, 3, 7, 8, 12, 16, 21, 32] {
            let vals = random_values(1000, bits, bits as u64);
            let col = PackedColumn::pack(&mut m, &vals, bits);
            assert_eq!(col.len(), 1000);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(col.peek(i), v, "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn pack_with_generates_in_index_order() {
        let mut m = machine(Setting::PlainCpu);
        let vals = random_values(1000, 12, 11);
        let mut order = Vec::new();
        let col = PackedColumn::pack_with(&mut m, vals.len(), 12, |i| {
            order.push(i);
            vals[i]
        });
        assert_eq!(order, (0..vals.len()).collect::<Vec<_>>());
        assert!(vals.iter().enumerate().all(|(i, &v)| col.peek(i) == v));
    }

    #[test]
    fn packed_scan_matches_reference() {
        let mut m = machine(Setting::PlainCpu);
        let vals = random_values(50_000, 12, 7);
        let col = PackedColumn::pack(&mut m, &vals, 12);
        let (lo, hi) = (100u32, 2000u32);
        let expected = vals.iter().filter(|&&v| v >= lo && v <= hi).count() as u64;
        for threads in [1usize, 4, 16] {
            let (count, cycles) =
                packed_scan_count(&mut m, &col, lo, hi, &(0..threads).collect::<Vec<_>>());
            assert_eq!(count, expected, "{threads} threads");
            assert!(cycles > 0.0);
        }
    }

    #[test]
    fn packing_shrinks_storage_and_scan_bytes() {
        let mut m = machine(Setting::PlainCpu);
        let vals = random_values(64_000, 8, 3);
        let col8 = PackedColumn::pack(&mut m, &vals, 8);
        let col12 = PackedColumn::pack(&mut m, &vals, 12);
        assert!(col8.size_bytes() < col12.size_bytes());
        // 8-bit packing: 8 values/word; 12-bit: 5 values/word.
        assert_eq!(col8.size_bytes(), 64_000 / 8 * 8);
    }

    #[test]
    fn narrower_packing_scans_faster_in_enclave() {
        // The [38] motivation, amplified by the MEE: fewer bytes per value
        // = fewer lines to decrypt = faster enclave scans.
        let mut m = machine(Setting::SgxDataInEnclave);
        let vals: Vec<u32> = random_values(4_000_000, 8, 9);
        let col8 = PackedColumn::pack(&mut m, &vals, 8);
        let col32 = PackedColumn::pack(&mut m, &vals, 32);
        let cores: Vec<usize> = (0..8).collect();
        let (c8, t8) = packed_scan_count(&mut m, &col8, 10, 200, &cores);
        let (c32, t32) = packed_scan_count(&mut m, &col32, 10, 200, &cores);
        assert_eq!(c8, c32);
        assert!(t8 < 0.6 * t32, "8-bit scan should be much faster: {t8} vs {t32}");
    }

    #[test]
    fn scan_subranges_respect_bounds() {
        let mut m = machine(Setting::PlainCpu);
        let vals: Vec<u32> = (0..100).collect();
        let col = PackedColumn::pack(&mut m, &vals, 7);
        m.run(|c| {
            let mut seen = Vec::new();
            let n = col.scan_range(c, 10..20, 0, 127, |_, i| seen.push(i));
            assert_eq!(n, 10);
            assert_eq!(seen, (10..20).collect::<Vec<_>>());
        });
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn pack_rejects_oversized_values() {
        let mut m = machine(Setting::PlainCpu);
        PackedColumn::pack(&mut m, &[256], 8);
    }
}
