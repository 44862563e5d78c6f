//! Dictionary + RLE columnar compression with decompress-inside-enclave
//! scan kernels.
//!
//! Compression trades bytes for compute, and the simulator already
//! prices both sides: a compressed column moves fewer cache lines
//! through the DRAM/MEE path (cheap in the enclave, where every line
//! pays MEE decryption), but every scan spends extra ALU work decoding.
//! Encoding happens uncharged on the data-owner side, in the one host
//! encoder per format (`rank_dictionary`, `split_runs`) that
//! [`seal_column`](crate::storage::seal_column) calls — the enclave
//! receives already-encoded columns — while scans are fully charged
//! enclave kernels.
//!
//! Both encodings are verified by round-trip and scan-equivalence
//! oracles (unit tests here, lockstep proptests in
//! `tests/proptest_operators.rs`).

use sgx_sim::{Core, SimVec};

/// Dictionary-encode `values` on the host: the sorted distinct values
/// and each row's code, its value's rank among them (deterministic).
/// Panics if the column has more than 2^16 distinct values; callers pick
/// dictionary encoding only for low-cardinality columns.
pub(crate) fn rank_dictionary(values: &[i32]) -> (Vec<i32>, Vec<u16>) {
    let mut rank = std::collections::BTreeMap::new();
    for &v in values {
        rank.entry(v).or_insert(0u16);
    }
    assert!(rank.len() <= usize::from(u16::MAX) + 1, "dictionary overflows 16-bit codes");
    for (i, code) in rank.values_mut().enumerate() {
        *code = i as u16;
    }
    let codes = values.iter().map(|v| rank[v]).collect();
    (rank.into_keys().collect(), codes)
}

/// Run-length-encode `values` on the host: `(value, run length)` pairs
/// in row order, a run capped at `u32::MAX` rows.
pub(crate) fn split_runs(values: &[i32]) -> Vec<(i32, u32)> {
    let mut runs: Vec<(i32, u32)> = Vec::new();
    for &v in values {
        match runs.last_mut() {
            Some((last, l)) if *last == v && *l < u32::MAX => *l += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

/// Dictionary-encoded i32 column: `codes[i]` indexes into `dict`.
/// 16-bit codes halve (vs i32) the bytes a scan streams; the dictionary
/// itself is small enough to stay cache-resident.
pub struct DictColumn {
    codes: SimVec<u16>,
    dict: SimVec<i32>,
}

impl DictColumn {
    /// Assemble a column from already-built parts (the storage path
    /// rebuilds encoded columns from unsealed bytes).
    pub(crate) fn from_parts(codes: SimVec<u16>, dict: SimVec<i32>) -> DictColumn {
        DictColumn { codes, dict }
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
}

/// Run-length-encoded i32 column: run `r` repeats `values[r]` for
/// `lengths[r]` rows. The win for scans is twofold: fewer bytes
/// streamed, and aggregates can consume whole runs at once via
/// [`RleColumn::scan_runs`].
pub struct RleColumn {
    values: SimVec<i32>,
    lengths: SimVec<u32>,
}

impl RleColumn {
    /// Assemble a column from already-built parts (the storage path
    /// rebuilds encoded columns from unsealed bytes).
    pub(crate) fn from_parts(values: SimVec<i32>, lengths: SimVec<u32>) -> RleColumn {
        RleColumn { values, lengths }
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
    let mut out = Vec::new();
    let values = col.values.as_slice_untracked();
    for (v, l) in values.iter().zip(col.lengths.as_slice_untracked()) {
        out.extend(std::iter::repeat_n(*v, *l as usize));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::config::xeon_gold_6326;
    use sgx_sim::{Machine, Setting};

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

    /// Copy host values into a fresh machine vector, uncharged.
    fn sim_vec<T: Copy + Default>(
        m: &mut Machine,
        xs: impl ExactSizeIterator<Item = T>,
    ) -> SimVec<T> {
        let mut v = m.alloc::<T>(xs.len());
        for (i, x) in xs.enumerate() {
            v.poke(i, x);
        }
        v
    }

    fn dict_column(m: &mut Machine, dict: &[i32], codes: &[u16]) -> DictColumn {
        let dict = sim_vec(m, dict.iter().copied());
        DictColumn::from_parts(sim_vec(m, codes.iter().copied()), dict)
    }

    fn rle_column(m: &mut Machine, runs: &[(i32, u32)]) -> RleColumn {
        let values = sim_vec(m, runs.iter().map(|r| r.0));
        RleColumn::from_parts(values, sim_vec(m, runs.iter().map(|r| r.1)))
    }

    #[test]
    fn dict_round_trip_and_scan_match_plain() {
        let mut m = Machine::new(xeon_gold_6326().scaled(64), Setting::SgxDataInEnclave);
        let plain = clustered(5000);
        let (dict, codes) = rank_dictionary(&plain);
        assert!(
            codes.len() * 2 + dict.len() * 4 < plain.len() * 4,
            "dict must shrink a 64-value column"
        );
        let col = dict_column(&mut m, &dict, &codes);
        assert_eq!(reference_dict_decode(&col), plain);
        let mut decoded = Vec::new();
        m.run(|c| col.scan(c, 0..plain.len(), &mut |_, _, v| decoded.push(v)));
        assert_eq!(decoded, plain);
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
        let runs = split_runs(&plain);
        assert!(runs.len() < plain.len(), "clustered data must form multi-row runs");
        let col = rle_column(&mut m, &runs);
        assert_eq!(reference_rle_decode(&col), plain);
        let (mut decoded, mut sum, mut rows) = (Vec::new(), 0i64, 0u64);
        m.run(|c| {
            col.scan_runs(c, &mut |_, v, l| {
                decoded.extend(std::iter::repeat_n(v, l as usize));
                sum += i64::from(v) * i64::from(l);
                rows += u64::from(l);
            });
        });
        assert_eq!(decoded, plain);
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
        let plain = sim_vec(&mut m, plain_vals.iter().copied());
        let (dict, codes) = rank_dictionary(&plain_vals);
        let dict = dict_column(&mut m, &dict, &codes);
        let rle = rle_column(&mut m, &split_runs(&plain_vals));

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
        let runs = split_runs(&[]);
        assert!(runs.is_empty());
        assert_eq!(reference_rle_decode(&rle_column(&mut m, &runs)), Vec::<i32>::new());
        let (dict, codes) = rank_dictionary(&[7; 100]);
        assert_eq!(dict.len(), 1);
        assert_eq!(reference_dict_decode(&dict_column(&mut m, &dict, &codes)), vec![7; 100]);
    }
}
