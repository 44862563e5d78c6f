//! MWAY — Multi-Way Sort-Merge join (Kim et al. \[17\], via TEEBench).
//!
//! Each worker sorts its chunk of both relations (cache-sized runs +
//! multi-way merge), then workers split the key domain into disjoint
//! ranges and each merge-joins its range across all sorted chunks. All
//! large-data traffic is sequential, which is why MWAY shows only a small
//! enclave penalty in Fig 3.

use crate::common::{JoinConfig, JoinStats, Row};
use crate::pht::chunk_range;
use sgx_sim::{Core, Machine, SimVec};

/// Sort `src[range]` into `dst[range]` charging cache-sized run formation
/// plus one multi-way merge pass, and performing the real sort.
fn sort_chunk(
    c: &mut Core<'_>,
    src: &SimVec<Row>,
    dst: &mut SimVec<Row>,
    range: std::ops::Range<usize>,
    run_rows: usize,
) {
    let n = range.len();
    if n == 0 {
        return;
    }
    // Run formation: stream the chunk in, sort runs in cache, stream out.
    // An in-cache quicksort costs ~n log2(run) compare/swap pairs, and the
    // comparisons on uniform keys are data-dependent branches the
    // predictor misses about a quarter of the time.
    let log_run = (run_rows.max(2) as f64).log2();
    src.read_stream(c, range.clone(), |c, _, _| c.compute(2));
    c.compute((n as f64 * log_run * 2.0) as u64);
    c.charge(n as f64 * log_run * 0.25 * 17.0);
    // Multi-way merge of the runs with a loser tree: one sequential pass,
    // log2(k) comparisons per element.
    let k = n.div_ceil(run_rows).max(1);
    if k > 1 {
        let log_k = (k as f64).log2().ceil();
        src.read_stream(c, range.clone(), |c, _, _| c.compute(log_k as u64));
    }
    // The real sort (functional result), written out as a stream.
    let mut rows: Vec<Row> = range.clone().map(|i| src.peek(i)).collect();
    rows.sort_unstable_by_key(|r| r.key);
    let mut w = dst.stream_writer(range.start);
    for row in rows {
        w.push(c, row);
    }
}

/// Binary-search the first index in sorted `v[range]` with `key >= bound`.
fn lower_bound(c: &mut Core<'_>, v: &SimVec<Row>, range: &std::ops::Range<usize>, bound: u32) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    c.dependent(|c| {
        while lo < hi {
            let mid = (lo + hi) / 2;
            let row = v.get(c, mid);
            c.compute(2);
            if row.key < bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
    });
    lo
}

/// Execute the MWAY sort-merge join of `r` and `s`.
pub fn mway_join(
    machine: &mut Machine,
    r: &SimVec<Row>,
    s: &SimVec<Row>,
    cfg: &JoinConfig,
) -> JoinStats {
    let t = cfg.cores.len();
    let run_rows = (machine.cfg().l2.size / 2 / std::mem::size_of::<Row>()).max(64);
    let mut r_sorted = machine.alloc::<Row>(r.len());
    let mut s_sorted = machine.alloc::<Row>(s.len());

    let start = machine.wall_cycles();
    // ------------------------------------------------------- sort phase
    let sort_stats = machine.parallel(&cfg.cores, |c| {
        let w = c.worker();
        sort_chunk(c, r, &mut r_sorted, chunk_range(r.len(), t, w), run_rows);
        sort_chunk(c, s, &mut s_sorted, chunk_range(s.len(), t, w), run_rows);
    });

    // ------------------------------------------------------ merge-join
    // Workers own disjoint key ranges; each merge-joins its range across
    // all sorted chunks with a k-way merge (k = number of chunks).
    let mut matches = 0u64;
    let mut checksum = 0u64;
    let splitter = |w: usize| -> u32 {
        // Uniform keys: equal-width key ranges balance well.
        ((u32::MAX as u64 + 1) * w as u64 / t as u64) as u32
    };
    let merge_stats = machine.parallel(&cfg.cores, |c| {
        let w = c.worker();
        let (key_lo, key_hi) =
            (splitter(w), if w + 1 == t { u32::MAX } else { splitter(w + 1) });
        // Locate this worker's key range in every sorted chunk.
        let mut r_readers = Vec::with_capacity(t);
        let mut s_readers = Vec::with_capacity(t);
        for ch in 0..t {
            let rr = chunk_range(r.len(), t, ch);
            let lo = lower_bound(c, &r_sorted, &rr, key_lo);
            let hi = if w + 1 == t { rr.end } else { lower_bound(c, &r_sorted, &rr, key_hi) };
            r_readers.push(r_sorted.stream_reader(lo..hi));
            let sr = chunk_range(s.len(), t, ch);
            let lo = lower_bound(c, &s_sorted, &sr, key_lo);
            let hi = if w + 1 == t { sr.end } else { lower_bound(c, &s_sorted, &sr, key_hi) };
            s_readers.push(s_sorted.stream_reader(lo..hi));
        }
        let log_k = (t.max(2) as f64).log2().ceil() as u64;
        // k-way "next smallest" pop across readers.
        let pop = |c: &mut Core<'_>, readers: &mut Vec<sgx_sim::StreamReader<'_, Row>>| {
            c.compute(log_k);
            // Loser-tree updates branch on key comparisons.
            c.branch(0.25);
            let mut best: Option<usize> = None;
            let mut best_key = u32::MAX;
            for (i, rd) in readers.iter().enumerate() {
                if let Some(row) = rd.peek_next() {
                    if best.is_none() || row.key < best_key {
                        best = Some(i);
                        best_key = row.key;
                    }
                }
            }
            best.and_then(|i| readers[i].next(c))
        };
        // Merge-join: advance R runs of equal keys against S runs.
        let mut r_cur = pop(c, &mut r_readers);
        let mut s_cur = pop(c, &mut s_readers);
        while let (Some(rrow), Some(srow)) = (r_cur, s_cur) {
            c.compute(2);
            match rrow.key.cmp(&srow.key) {
                std::cmp::Ordering::Less => r_cur = pop(c, &mut r_readers),
                std::cmp::Ordering::Greater => s_cur = pop(c, &mut s_readers),
                std::cmp::Ordering::Equal => {
                    // Gather the full R run for this key, then match every
                    // S row with the same key against it.
                    let key = rrow.key;
                    let mut r_run = vec![rrow];
                    loop {
                        r_cur = pop(c, &mut r_readers);
                        match r_cur {
                            Some(next) if next.key == key => r_run.push(next),
                            _ => break,
                        }
                    }
                    while let Some(srow) = s_cur {
                        if srow.key != key {
                            break;
                        }
                        for rrow in &r_run {
                            matches += 1;
                            checksum += rrow.payload as u64 + srow.payload as u64;
                        }
                        s_cur = pop(c, &mut s_readers);
                    }
                }
            }
        }
    });

    JoinStats {
        matches,
        checksum,
        wall_cycles: machine.wall_cycles() - start,
        phases: vec![("sort", sort_stats.wall_cycles), ("merge", merge_stats.wall_cycles)],
        output: None,
        output_runs: vec![],
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use crate::data::{gen_fk_relation, gen_pk_relation, reference_join};
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn join_correct(threads: usize, nr: usize, ns: usize) {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, nr, 1);
        let s = gen_fk_relation(&mut m, ns, nr, 2);
        let stats = mway_join(&mut m, &r, &s, &JoinConfig::new(threads));
        let (m_ref, c_ref) = reference_join(&r, &s);
        assert_eq!(stats.matches, m_ref);
        assert_eq!(stats.checksum, c_ref);
    }

    #[test]
    fn correct_single_thread() {
        join_correct(1, 5000, 20_000);
    }

    #[test]
    fn correct_multi_thread() {
        join_correct(8, 5000, 20_000);
        join_correct(3, 777, 3001);
    }

    #[test]
    fn correct_with_duplicates_in_both() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut r = m.alloc::<Row>(60);
        for i in 0..60 {
            r.poke(i, Row { key: (i % 20 + 1) as u32, payload: i as u32 });
        }
        let mut s = m.alloc::<Row>(90);
        for i in 0..90 {
            s.poke(i, Row { key: (i % 30 + 1) as u32, payload: i as u32 });
        }
        let stats = mway_join(&mut m, &r, &s, &JoinConfig::new(4));
        let (m_ref, c_ref) = reference_join(&r, &s);
        assert_eq!(stats.matches, m_ref);
        assert_eq!(stats.checksum, c_ref);
    }

    #[test]
    fn sorted_output_is_actually_sorted() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 4096, 7);
        let mut dst = m.alloc::<Row>(4096);
        m.run(|c| sort_chunk(c, &r, &mut dst, 0..4096, 256));
        assert!(dst.as_slice_untracked().windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn small_enclave_penalty_versus_hash_joins() {
        // Fig 3: MWAY's in-enclave reduction is much smaller than PHT's.
        let run = |setting: Setting| {
            let mut m = Machine::new(scaled_profile(), setting);
            let r = gen_pk_relation(&mut m, 100_000, 1);
            let s = gen_fk_relation(&mut m, 400_000, 100_000, 2);
            let mw = mway_join(&mut m, &r, &s, &JoinConfig::new(1)).wall_cycles;
            let ph = crate::pht::pht_join(&mut m, &r, &s, &JoinConfig::new(1)).wall_cycles;
            (mw, ph)
        };
        let (mw_n, ph_n) = run(Setting::PlainCpu);
        let (mw_e, ph_e) = run(Setting::SgxDataInEnclave);
        let mway_slowdown = mw_e / mw_n;
        let pht_slowdown = ph_e / ph_n;
        assert!(
            mway_slowdown < pht_slowdown,
            "MWAY {mway_slowdown:.2}x should be gentler than PHT {pht_slowdown:.2}x"
        );
    }

    #[test]
    fn empty_inputs() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = m.alloc::<Row>(0);
        let s = gen_fk_relation(&mut m, 100, 50, 2);
        let stats = mway_join(&mut m, &r, &s, &JoinConfig::new(2));
        assert_eq!(stats.matches, 0);
    }
}
