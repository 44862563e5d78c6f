//! Dictionary + RLE columnar compression with decompress-inside-enclave
//! scan kernels (ROADMAP item 3).
//!
//! Compression trades bytes for compute, and the simulator already
//! prices both sides: a compressed column moves fewer cache lines
//! through the DRAM/MEE path (cheap in the enclave, where every line
//! pays MEE decryption), but every scan spends extra ALU work decoding.
//! Encoding happens uncharged on the data-owner side — the enclave
//! receives already-encoded columns — while decompression and scans are
//! fully charged enclave kernels.
//!
//! Both encodings are verified by round-trip and scan-equivalence
//! oracles (unit tests here, lockstep proptests in
//! `tests/proptest_operators.rs`).

use sgx_sim::{Core, Machine, SimVec};

/// Dictionary-encoded i32 column: `codes[i]` indexes into `dict`.
/// 16-bit codes halve (vs i32) the bytes a scan streams; the dictionary
/// itself is small enough to stay cache-resident.
pub struct DictColumn {
    codes: SimVec<u16>,
    dict: SimVec<i32>,
    len: usize,
}

impl DictColumn {
    /// Assemble a column from already-built parts (the storage path
    /// rebuilds encoded columns from unsealed bytes).
    pub(crate) fn from_parts(codes: SimVec<u16>, dict: SimVec<i32>) -> DictColumn {
        let len = codes.len();
        DictColumn { codes, dict, len }
    }

    /// Encode `values` (uncharged — runs on the data owner, outside the
    /// simulated machine's cost envelope). The dictionary is the sorted
    /// set of distinct values, so encoding is deterministic. Panics if
    /// the column has more than 2^16 distinct values; callers pick
    /// dictionary encoding only for low-cardinality columns.
    pub fn encode(machine: &mut Machine, values: &[i32]) -> DictColumn {
        let mut rank = std::collections::BTreeMap::new();
        for &v in values {
            rank.entry(v).or_insert(0u16);
        }
        assert!(rank.len() <= usize::from(u16::MAX) + 1, "dictionary overflows 16-bit codes");
        let mut dict = machine.alloc::<i32>(rank.len());
        for (i, (v, code)) in rank.iter_mut().enumerate() {
            *code = i as u16;
            dict.poke(i, *v);
        }
        let mut codes = machine.alloc::<u16>(values.len());
        for (i, v) in values.iter().enumerate() {
            codes.poke(i, rank[v]);
        }
        DictColumn { codes, dict, len: values.len() }
    }

    /// Encoded rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct values in the dictionary.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Bytes of the encoded representation (codes + dictionary).
    pub fn payload_bytes(&self) -> usize {
        self.codes.len() * 2 + self.dict.len() * 4
    }

    /// Charged scan over `range`: loads the dictionary once (it is
    /// small enough to stay cache-resident for the whole scan), then
    /// streams the codes — half the bytes of an i32 column — decoding
    /// each and feeding the value to `f`.
    pub fn scan(&self, c: &mut Core, range: std::ops::Range<usize>, f: &mut dyn FnMut(&mut Core, usize, i32)) {
        let mut table = Vec::with_capacity(self.dict.len());
        self.dict.read_stream(c, 0..self.dict.len(), |c, _, v| {
            c.compute(1);
            table.push(v);
        });
        self.codes.read_stream(c, range, |c, i, code| {
            c.compute(1);
            f(c, i, table[usize::from(code)]);
        });
    }

    /// Charged full decompression into a plain column inside the machine.
    pub fn decompress(&self, machine: &mut Machine) -> SimVec<i32> {
        let mut out = machine.alloc::<i32>(self.len);
        machine.run(|c| {
            let mut writer = out.stream_writer(0);
            self.scan(c, 0..self.len, &mut |c, _, v| writer.push(c, v));
        });
        out
    }
}

/// Run-length-encoded i32 column: run `r` repeats `values[r]` for
/// `lengths[r]` rows. The win for scans is twofold: fewer bytes
/// streamed, and aggregates can consume whole runs at once via
/// [`RleColumn::scan_runs`].
pub struct RleColumn {
    values: SimVec<i32>,
    lengths: SimVec<u32>,
    len: usize,
}

impl RleColumn {
    /// Assemble a column from already-built parts (the storage path
    /// rebuilds encoded columns from unsealed bytes).
    pub(crate) fn from_parts(values: SimVec<i32>, lengths: SimVec<u32>, len: usize) -> RleColumn {
        RleColumn { values, lengths, len }
    }

    /// Encode `values` (uncharged — data-owner side, deterministic).
    pub fn encode(machine: &mut Machine, values: &[i32]) -> RleColumn {
        let mut vs: Vec<i32> = Vec::new();
        let mut ls: Vec<u32> = Vec::new();
        for &v in values {
            match (vs.last(), ls.last_mut()) {
                (Some(&last), Some(l)) if last == v && *l < u32::MAX => *l += 1,
                _ => {
                    vs.push(v);
                    ls.push(1);
                }
            }
        }
        let mut values_sv = machine.alloc::<i32>(vs.len());
        let mut lengths_sv = machine.alloc::<u32>(ls.len());
        for (i, &v) in vs.iter().enumerate() {
            values_sv.poke(i, v);
        }
        for (i, &l) in ls.iter().enumerate() {
            lengths_sv.poke(i, l);
        }
        RleColumn { values: values_sv, lengths: lengths_sv, len: values.len() }
    }

    /// Decoded rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the encoded representation (values + lengths).
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * 4 + self.lengths.len() * 4
    }

    /// Charged whole-run scan: streams `(value, run_len)` pairs — the
    /// shape aggregates want, paying per run rather than per row.
    pub fn scan_runs(&self, c: &mut Core, f: &mut dyn FnMut(&mut Core, i32, u32)) {
        let mut lengths = self.lengths.stream_reader(0..self.lengths.len());
        self.values.read_stream(c, 0..self.values.len(), |c, _, v| {
            if let Some(l) = lengths.next(c) {
                c.compute(1);
                f(c, v, l);
            }
        });
    }

    /// Charged full decompression into a plain column inside the machine.
    pub fn decompress(&self, machine: &mut Machine) -> SimVec<i32> {
        let mut out = machine.alloc::<i32>(self.len);
        machine.run(|c| {
            let mut writer = out.stream_writer(0);
            self.scan_runs(c, &mut |c, v, l| {
                for _ in 0..l {
                    writer.push(c, v);
                }
            });
        });
        out
    }
}

/// Uncharged reference: decoded contents of a dictionary column.
#[expect(clippy::disallowed_methods, reason = "uncharged reference oracle for verification")]
pub fn reference_dict_decode(col: &DictColumn) -> Vec<i32> {
    let dict = col.dict.as_slice_untracked();
    col.codes.as_slice_untracked().iter().map(|&code| dict[usize::from(code)]).collect()
}

/// Uncharged reference: decoded contents of an RLE column.
#[expect(clippy::disallowed_methods, reason = "uncharged reference oracle for verification")]
pub fn reference_rle_decode(col: &RleColumn) -> Vec<i32> {
    let mut out = Vec::with_capacity(col.len);
    let values = col.values.as_slice_untracked();
    for (v, l) in values.iter().zip(col.lengths.as_slice_untracked()) {
        out.extend(std::iter::repeat_n(*v, *l as usize));
    }
    out
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use sgx_sim::config::xeon_gold_6326;
    use sgx_sim::Setting;

    fn clustered(n: usize) -> Vec<i32> {
        let mut x = 0xD1C7u64 | 1;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 64) as i32;
            let run = 1 + ((x >> 17) % 6) as usize;
            for _ in 0..run.min(n - out.len()) {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn dict_round_trip_and_scan_match_plain() {
        let mut m = Machine::new(xeon_gold_6326().scaled(64), Setting::SgxDataInEnclave);
        let plain = clustered(5000);
        let col = DictColumn::encode(&mut m, &plain);
        assert!(col.payload_bytes() < plain.len() * 4, "dict must shrink a 64-value column");
        assert_eq!(reference_dict_decode(&col), plain);
        let decoded = col.decompress(&mut m);
        assert_eq!(decoded.as_slice_untracked(), plain.as_slice());
        let mut sum = 0i64;
        m.run(|c| {
            col.scan(c, 100..4000, &mut |_, _, v| sum += i64::from(v));
        });
        let expect: i64 = plain[100..4000].iter().map(|&v| i64::from(v)).sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn rle_round_trip_and_run_scan_match_plain() {
        let mut m = Machine::new(xeon_gold_6326().scaled(64), Setting::SgxDataInEnclave);
        let plain = clustered(5000);
        let col = RleColumn::encode(&mut m, &plain);
        assert!(col.run_count() < plain.len(), "clustered data must form multi-row runs");
        assert_eq!(reference_rle_decode(&col), plain);
        let decoded = col.decompress(&mut m);
        assert_eq!(decoded.as_slice_untracked(), plain.as_slice());
        let (mut sum, mut rows) = (0i64, 0u64);
        m.run(|c| {
            col.scan_runs(c, &mut |_, v, l| {
                sum += i64::from(v) * i64::from(l);
                rows += u64::from(l);
            });
        });
        let expect: i64 = plain.iter().map(|&v| i64::from(v)).sum();
        assert_eq!(sum, expect);
        assert_eq!(rows, plain.len() as u64);
    }

    #[test]
    fn compressed_scans_cost_less_than_plain_in_enclave() {
        // The point of the exercise: fewer MEE-priced lines streamed.
        let n = 200_000;
        let plain_vals = clustered(n);
        let mut m = Machine::new(xeon_gold_6326().scaled(64), Setting::SgxDataInEnclave);
        let mut plain = m.alloc::<i32>(n);
        for (i, &v) in plain_vals.iter().enumerate() {
            plain.poke(i, v);
        }
        let dict = DictColumn::encode(&mut m, &plain_vals);
        let rle = RleColumn::encode(&mut m, &plain_vals);

        m.reset_wall();
        let mut s0 = 0i64;
        m.run(|c| {
            plain.read_stream(c, 0..n, |c, _, v| {
                c.compute(1);
                s0 += i64::from(v);
            });
        });
        let plain_cost = m.wall_cycles();

        m.reset_wall();
        let mut s1 = 0i64;
        m.run(|c| dict.scan(c, 0..n, &mut |_, _, v| s1 += i64::from(v)));
        let dict_cost = m.wall_cycles();

        m.reset_wall();
        let mut s2 = 0i64;
        m.run(|c| rle.scan_runs(c, &mut |_, v, l| s2 += i64::from(v) * i64::from(l)));
        let rle_cost = m.wall_cycles();

        assert_eq!(s0, s1);
        assert_eq!(s0, s2);
        assert!(dict_cost < plain_cost, "dict scan {dict_cost} !< plain {plain_cost}");
        assert!(rle_cost < dict_cost, "rle scan {rle_cost} !< dict {dict_cost}");
    }

    #[test]
    fn empty_and_constant_columns_encode() {
        let mut m = Machine::new(xeon_gold_6326().scaled(64), Setting::PlainCpu);
        let empty = RleColumn::encode(&mut m, &[]);
        assert!(empty.is_empty());
        assert_eq!(reference_rle_decode(&empty), Vec::<i32>::new());
        let konst = DictColumn::encode(&mut m, &[7; 100]);
        assert_eq!(konst.dict_len(), 1);
        assert_eq!(reference_dict_decode(&konst), vec![7; 100]);
    }
}
