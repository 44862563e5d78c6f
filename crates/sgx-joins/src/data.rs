//! Join input generation (TEEBench-style) and the reference join used to
//! verify every algorithm's output.
//!
//! §4 "Join data": rows are 8 bytes (32-bit key + 32-bit payload), all
//! joins are foreign-key joins, keys follow a uniform distribution. The
//! primary-key relation holds each key `1..=n` exactly once (shuffled);
//! the foreign-key relation draws uniformly from the primary keys, so
//! every probe row matches exactly one build row.

use crate::common::Row;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sgx_sim::{Machine, Region, SimVec};
use std::collections::BTreeMap;

/// Generate a primary-key relation of `n` rows: keys `1..=n` shuffled,
/// payload = original row position. Placed in the machine's default data
/// region (setting-dependent).
pub fn gen_pk_relation(machine: &mut Machine, n: usize, seed: u64) -> SimVec<Row> {
    let region = machine.setting().data_region(0);
    gen_pk_relation_on(machine, n, seed, region)
}

/// [`gen_pk_relation`] with explicit region placement (NUMA experiments).
pub fn gen_pk_relation_on(
    machine: &mut Machine,
    n: usize,
    seed: u64,
    region: Region,
) -> SimVec<Row> {
    assert!(n < u32::MAX as usize - 1, "keys must fit u32");
    let mut keys: Vec<u32> = (1..=n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher-Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        keys.swap(i, j);
    }
    let mut rel = machine.alloc_on::<Row>(n, region);
    for (i, k) in keys.into_iter().enumerate() {
        rel.poke(i, Row { key: k, payload: i as u32 });
    }
    rel
}

/// Generate a foreign-key relation of `n` rows with keys drawn uniformly
/// from `1..=pk_max` (every row matches exactly one PK row).
pub fn gen_fk_relation(machine: &mut Machine, n: usize, pk_max: usize, seed: u64) -> SimVec<Row> {
    let region = machine.setting().data_region(0);
    gen_fk_relation_on(machine, n, pk_max, seed, region)
}

/// [`gen_fk_relation`] with explicit region placement.
pub fn gen_fk_relation_on(
    machine: &mut Machine,
    n: usize,
    pk_max: usize,
    seed: u64,
    region: Region,
) -> SimVec<Row> {
    assert!(pk_max >= 1 && pk_max < u32::MAX as usize - 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = machine.alloc_on::<Row>(n, region);
    for i in 0..n {
        let k = rng.random_range(1..=pk_max as u32);
        rel.poke(i, Row { key: k, payload: i as u32 });
    }
    rel
}

/// Generate a foreign-key relation with Zipf-distributed keys over
/// `1..=pk_max` (reproduction extension: TEEBench \[24\] also evaluates
/// skewed workloads; the paper's §4 uses uniform keys). `theta = 0` is
/// uniform; `theta ≈ 1` is the classic heavy Zipf.
pub fn gen_fk_zipf(
    machine: &mut Machine,
    n: usize,
    pk_max: usize,
    theta: f64,
    seed: u64,
) -> SimVec<Row> {
    assert!(pk_max >= 1 && pk_max < u32::MAX as usize - 1);
    assert!(theta >= 0.0, "zipf exponent must be non-negative");
    // Inverse-CDF sampling over the generalized harmonic numbers.
    let mut cdf = Vec::with_capacity(pk_max);
    let mut acc = 0.0f64;
    for k in 1..=pk_max {
        acc += 1.0 / (k as f64).powf(theta);
        cdf.push(acc);
    }
    let total = acc;
    let mut rng = StdRng::seed_from_u64(seed);
    let region = machine.setting().data_region(0);
    let mut rel = machine.alloc_on::<Row>(n, region);
    for i in 0..n {
        let u: f64 = rng.random::<f64>() * total;
        let rank = cdf.partition_point(|&c| c < u).min(pk_max - 1);
        // Scatter ranks over the key domain so hot keys are not clustered
        // (the PK side is shuffled anyway, but this keeps radix bins fair).
        let key = (rank as u64 * 2654435761 % pk_max as u64) as u32 + 1;
        rel.poke(i, Row { key, payload: i as u32 });
    }
    rel
}

/// Number of 8-byte rows that make up `mb` megabytes (the paper sizes
/// relations by bytes: "100 MB" = 13.1 M rows).
pub const fn rows_for_mb(mb: usize) -> usize {
    mb * (1 << 20) / std::mem::size_of::<Row>()
}

/// Uncharged reference join (build a std BTreeMap over R, probe with S).
/// Returns `(matches, checksum)` where the checksum is the sum of
/// `r.payload + s.payload` over all matching pairs — the same quantities
/// every join implementation reports.
#[expect(
    clippy::disallowed_methods,
    reason = "uncharged reference oracle, runs outside the timed region"
)]
pub fn reference_join(r: &SimVec<Row>, s: &SimVec<Row>) -> (u64, u64) {
    let mut table: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for row in r.as_slice_untracked() {
        table.entry(row.key).or_default().push(row.payload);
    }
    let mut matches = 0u64;
    let mut checksum = 0u64;
    for row in s.as_slice_untracked() {
        if let Some(payloads) = table.get(&row.key) {
            matches += payloads.len() as u64;
            for &p in payloads {
                checksum += p as u64 + row.payload as u64;
            }
        }
    }
    (matches, checksum)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn machine() -> Machine {
        Machine::new(scaled_profile(), Setting::PlainCpu)
    }

    #[test]
    fn pk_relation_is_a_permutation() {
        let mut m = machine();
        let r = gen_pk_relation(&mut m, 10_000, 1);
        let mut seen = vec![false; 10_001];
        for row in r.as_slice_untracked() {
            assert!(!seen[row.key as usize], "duplicate PK {}", row.key);
            seen[row.key as usize] = true;
        }
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn fk_join_matches_probe_cardinality() {
        let mut m = machine();
        let r = gen_pk_relation(&mut m, 1000, 1);
        let s = gen_fk_relation(&mut m, 4000, 1000, 2);
        let (matches, _) = reference_join(&r, &s);
        // FK semantics: every probe row matches exactly one PK row.
        assert_eq!(matches, 4000);
    }

    #[test]
    fn fk_keys_within_pk_domain() {
        let mut m = machine();
        let s = gen_fk_relation(&mut m, 5000, 300, 7);
        assert!(s.as_slice_untracked().iter().all(|r| (1..=300).contains(&r.key)));
    }

    #[test]
    fn generation_is_deterministic() {
        let mut m1 = machine();
        let mut m2 = machine();
        let a = gen_pk_relation(&mut m1, 1000, 9);
        let b = gen_pk_relation(&mut m2, 1000, 9);
        assert_eq!(a.as_slice_untracked(), b.as_slice_untracked());
        let a = gen_fk_relation(&mut m1, 1000, 500, 9);
        let b = gen_fk_relation(&mut m2, 1000, 500, 9);
        assert_eq!(a.as_slice_untracked(), b.as_slice_untracked());
    }

    #[test]
    fn reference_join_counts_duplicates() {
        let mut m = machine();
        let mut r = m.alloc::<Row>(3);
        r.poke(0, Row { key: 5, payload: 10 });
        r.poke(1, Row { key: 5, payload: 20 });
        r.poke(2, Row { key: 7, payload: 30 });
        let mut s = m.alloc::<Row>(2);
        s.poke(0, Row { key: 5, payload: 1 });
        s.poke(1, Row { key: 9, payload: 2 });
        let (matches, checksum) = reference_join(&r, &s);
        assert_eq!(matches, 2);
        assert_eq!(checksum, (10 + 1) + (20 + 1));
    }

    #[test]
    fn zipf_theta_zero_is_uniformish_and_high_theta_is_skewed() {
        let mut m = machine();
        let flat = gen_fk_zipf(&mut m, 20_000, 1000, 0.0, 5);
        let skew = gen_fk_zipf(&mut m, 20_000, 1000, 1.2, 5);
        let top_share = |rel: &sgx_sim::SimVec<Row>| {
            let mut counts = std::collections::BTreeMap::new();
            for r in rel.as_slice_untracked() {
                *counts.entry(r.key).or_insert(0usize) += 1;
            }
            let mut v: Vec<usize> = counts.into_values().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(10).sum::<usize>() as f64 / rel.len() as f64
        };
        let flat_share = top_share(&flat);
        let skew_share = top_share(&skew);
        assert!(flat_share < 0.05, "uniform top-10 share {flat_share}");
        assert!(skew_share > 0.3, "zipf(1.2) top-10 share {skew_share}");
        // Keys stay within the PK domain, so FK joins still match fully.
        assert!(skew.as_slice_untracked().iter().all(|r| (1..=1000).contains(&r.key)));
    }

    #[test]
    fn zipf_join_still_matches_every_probe_row() {
        let mut m = machine();
        let r = gen_pk_relation(&mut m, 500, 1);
        let s = gen_fk_zipf(&mut m, 5000, 500, 1.0, 2);
        let (matches, _) = reference_join(&r, &s);
        assert_eq!(matches, 5000);
    }

    #[test]
    fn rows_for_mb_matches_paper_sizing() {
        // 100 MB of 8-byte tuples = 13.1 M rows.
        assert_eq!(rows_for_mb(100), 13_107_200);
        assert_eq!(rows_for_mb(0), 0);
    }
}
