//! CrkJoin — the SGXv1-optimized cracking join (Maliszewski et al. \[23\]).
//!
//! CrkJoin radix-partitions both inputs *in place*, one bit at a time:
//! two pointers move from the ends of a segment towards each other,
//! swapping tuples whose current radix bit is on the wrong side. This
//! avoids random scattered writes entirely (only two sequential streams
//! per segment) and keeps the working set to a handful of EPC pages —
//! exactly what SGXv1's tiny, paging-prone EPC rewarded. After
//! partitioning, partition pairs are joined with the same cache-resident
//! hash join as RHO.
//!
//! On SGXv2 these properties no longer pay: the paper's Fig 3 shows
//! CrkJoin as the *slowest* join (the repeated full passes cost more than
//! the scatter they avoid), which this implementation reproduces; the
//! `sgxv1` machine profile reproduces why it used to win.

use crate::common::{JoinConfig, JoinStats, Row};
use crate::rho::join_partition;
use sgx_sim::{Core, Machine, SimVec};

/// In-place two-pointer partition of `v[range]` by bit `bit` of the key.
/// Returns the index of the first row with the bit set.
fn crack_segment(
    c: &mut Core<'_>,
    v: &mut SimVec<Row>,
    range: std::ops::Range<usize>,
    bit: u32,
) -> usize {
    if range.is_empty() {
        return range.start;
    }
    let mut lo = range.start;
    let mut hi = range.end - 1;
    let mask = 1u32 << bit;
    loop {
        // Advance the low pointer over rows with the bit clear (ascending
        // stream) ...
        while lo <= hi {
            let row = v.get(c, lo);
            c.compute(2);
            // The tested bit is uniformly random: the branch predictor
            // misses half the time — a major cost of bit-at-a-time
            // cracking on wide out-of-order cores.
            c.branch(0.5);
            if row.key & mask != 0 {
                break;
            }
            lo += 1;
        }
        // ... and the high pointer over rows with the bit set (descending
        // stream).
        while hi > lo {
            let row = v.get(c, hi);
            c.compute(2);
            c.branch(0.5);
            if row.key & mask == 0 {
                break;
            }
            hi -= 1;
        }
        if lo >= hi {
            break;
        }
        // Swap the misplaced pair.
        let a = v.peek(lo);
        let b = v.peek(hi);
        v.set(c, lo, b);
        v.set(c, hi, a);
        c.compute(2);
        lo += 1;
        if hi == 0 {
            break;
        }
        hi -= 1;
    }
    lo
}

/// Execute CrkJoin. Partitions `r` and `s` **in place** (callers that need
/// the inputs preserved should regenerate or copy them), then joins
/// partition pairs.
pub fn crk_join(
    machine: &mut Machine,
    r: &mut SimVec<Row>,
    s: &mut SimVec<Row>,
    cfg: &JoinConfig,
) -> JoinStats {
    let t = cfg.cores.len();
    let bits = cfg.radix_bits.clamp(1, 16);
    let start = machine.wall_cycles();
    let mut phases: Vec<(&'static str, f64)> = Vec::new();

    // Phase 1 — breadth-first cracking of the top levels, just far enough
    // to feed all cores (level d has 2^d segments; the early levels
    // underutilize the cores — inherent to cracking). [23]
    let bfs_target = (4 * t).max(2);
    let mut r_bounds = vec![0usize, r.len()];
    let mut s_bounds = vec![0usize, s.len()];
    let mut crack_cycles = 0.0;
    let mut depth = 0u32;
    while depth < bits && r_bounds.len() - 1 < bfs_target {
        let bit = depth; // partition by least significant bits first [23]
        for (v, bounds) in [(&mut *r, &mut r_bounds), (&mut *s, &mut s_bounds)] {
            let n_segments = bounds.len() - 1;
            let mut splits = vec![0usize; n_segments];
            let stats = machine.parallel_tasks(&cfg.cores, cfg.queue, n_segments, |c, seg| {
                splits[seg] = crack_segment(c, v, bounds[seg]..bounds[seg + 1], bit);
            });
            crack_cycles += stats.wall_cycles;
            let mut new_bounds = Vec::with_capacity(2 * n_segments + 1);
            for seg in 0..n_segments {
                new_bounds.push(bounds[seg]);
                new_bounds.push(splits[seg]);
            }
            #[expect(
                clippy::expect_used,
                reason = "bounds always ends with n by construction (seeded two lines up, re-pushed here)"
            )]
            new_bounds.push(*bounds.last().expect("bounds never empty"));
            *bounds = new_bounds;
        }
        depth += 1;
    }

    // Phase 2 — depth-first per segment: each task fully cracks its R and
    // S segments through the remaining bits and joins the partition pairs
    // immediately. This is CrkJoin's tree traversal: once a segment drops
    // below cache (or, on SGXv1, below the resident EPC) all its deeper
    // levels run over warm memory, which is exactly what made the design
    // viable on the old hardware.
    let n_segments = r_bounds.len() - 1;
    let max_r_seg =
        (0..n_segments).map(|g| r_bounds[g + 1] - r_bounds[g]).max().unwrap_or(0);
    let ht_cap = (max_r_seg.next_power_of_two() * 2).max(8);
    let mut heads: Vec<SimVec<u32>> = (0..t).map(|_| machine.alloc::<u32>(ht_cap)).collect();
    let mut links: Vec<SimVec<u32>> =
        (0..t).map(|_| machine.alloc::<u32>(max_r_seg.max(1))).collect();
    let mut matches = 0u64;
    let mut checksum = 0u64;
    let mut build_busy = 0.0;
    let dfs_stats = machine.parallel_tasks(&cfg.cores, cfg.queue, n_segments, |c, seg| {
        let w = c.worker();
        // DFS-crack both segments; identical recursion order yields the
        // final partitions in matching radix order.
        let mut r_parts = Vec::new();
        crack_dfs(c, r, r_bounds[seg]..r_bounds[seg + 1], depth, bits, &mut r_parts);
        let mut s_parts = Vec::new();
        crack_dfs(c, s, s_bounds[seg]..s_bounds[seg + 1], depth, bits, &mut s_parts);
        debug_assert_eq!(r_parts.len(), s_parts.len());
        for (rp, sp) in r_parts.into_iter().zip(s_parts) {
            join_partition(
                c,
                (&*r, rp),
                (&*s, sp),
                &mut heads[w],
                &mut links[w],
                cfg.optimized,
                &mut build_busy,
                |_c, rpay, spay| {
                    matches += 1;
                    checksum += rpay as u64 + spay as u64;
                },
            );
        }
    });
    crack_cycles += dfs_stats.wall_cycles;
    phases.push(("crack", crack_cycles));
    phases.push(("join", build_busy));

    JoinStats {
        matches,
        checksum,
        wall_cycles: machine.wall_cycles() - start,
        phases,
        output: None,
        output_runs: vec![],
    }
}

/// Depth-first cracking of `range` from `bit` (exclusive of `end_bit`);
/// appends the final partition ranges in radix order.
fn crack_dfs(
    c: &mut Core<'_>,
    v: &mut SimVec<Row>,
    range: std::ops::Range<usize>,
    bit: u32,
    end_bit: u32,
    out: &mut Vec<std::ops::Range<usize>>,
) {
    if bit >= end_bit {
        out.push(range);
        return;
    }
    let split = crack_segment(c, v, range.clone(), bit);
    crack_dfs(c, v, range.start..split, bit + 1, end_bit, out);
    crack_dfs(c, v, split..range.end, bit + 1, end_bit, out);
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use crate::data::{gen_fk_relation, gen_pk_relation, reference_join};
    use crate::rho::rho_join;
    use sgx_sim::config::{scaled_profile, xeon_gold_6326};
    use sgx_sim::Setting;

    fn join_correct(threads: usize, bits: u32, nr: usize, ns: usize) {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut r = gen_pk_relation(&mut m, nr, 1);
        let mut s = gen_fk_relation(&mut m, ns, nr, 2);
        let (m_ref, c_ref) = reference_join(&r, &s);
        let stats =
            crk_join(&mut m, &mut r, &mut s, &JoinConfig::new(threads).with_radix_bits(bits));
        assert_eq!(stats.matches, m_ref);
        assert_eq!(stats.checksum, c_ref);
    }

    #[test]
    fn correct_various_configs() {
        join_correct(1, 4, 3000, 12_000);
        join_correct(8, 6, 3000, 12_000);
        join_correct(3, 5, 777, 3001);
    }

    #[test]
    fn cracking_actually_partitions() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut v = gen_pk_relation(&mut m, 10_000, 3);
        let split = m.run(|c| crack_segment(c, &mut v, 0..10_000, 0));
        for i in 0..split {
            assert_eq!(v.peek(i).key & 1, 0, "row {i} below split has bit set");
        }
        for i in split..10_000 {
            assert_eq!(v.peek(i).key & 1, 1, "row {i} above split has bit clear");
        }
    }

    #[test]
    fn crack_preserves_multiset() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut v = gen_pk_relation(&mut m, 5000, 4);
        let mut before: Vec<u32> = v.as_slice_untracked().iter().map(|r| r.key).collect();
        m.run(|c| crack_segment(c, &mut v, 0..5000, 3));
        let mut after: Vec<u32> = v.as_slice_untracked().iter().map(|r| r.key).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn slower_than_rho_on_sgxv2() {
        // Fig 3: CrkJoin is the slowest join on SGXv2 hardware with all 16
        // cores of a socket — its bit-at-a-time sweep serializes the early
        // levels (1, 2, 4, ... active tasks) while RHO parallelizes every
        // phase across all cores.
        let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
        let r = gen_pk_relation(&mut m, 50_000, 1);
        let s = gen_fk_relation(&mut m, 200_000, 50_000, 2);
        let rho = rho_join(&mut m, &r, &s, &JoinConfig::new(16).with_radix_bits(8));
        let mut r2 = gen_pk_relation(&mut m, 50_000, 1);
        let mut s2 = gen_fk_relation(&mut m, 200_000, 50_000, 2);
        // CrkJoin cracks down to L1-sized partitions by design (minimal
        // working set), i.e. deeper than RHO's L2-sized ones.
        let crk = crk_join(&mut m, &mut r2, &mut s2, &JoinConfig::new(16).with_radix_bits(12));
        assert!(
            crk.wall_cycles > 1.7 * rho.wall_cycles,
            "CrkJoin {} should be well behind RHO {}",
            crk.wall_cycles,
            rho.wall_cycles
        );
    }

    #[test]
    fn wins_on_sgxv1_epc_model() {
        // The reproduction extension: with an SGXv1-sized, paging EPC the
        // ordering flips. CrkJoin partitions *in place*, so its working set
        // stays at 1x the data and fits the resident EPC; RHO's
        // out-of-place passes need 2x and thrash the pager (the reason
        // CrkJoin existed [23]).
        let cfg = xeon_gold_6326().scaled(16).sgxv1();
        // Data (R+S ≈ 4.8 MB) fits the scaled resident budget (5.75 MB);
        // data + partition copies (≥ 9.6 MB) does not.
        let make = |m: &mut Machine| {
            let r = gen_pk_relation(m, 120_000, 1);
            let s = gen_fk_relation(m, 480_000, 120_000, 2);
            (r, s)
        };
        let mut m = Machine::new(cfg.clone(), Setting::SgxDataInEnclave);
        let (r, s) = make(&mut m);
        let rho = rho_join(&mut m, &r, &s, &JoinConfig::new(16).with_radix_bits(8));
        assert!(m.counters().epc_page_faults > 0, "RHO should page on SGXv1");
        let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
        let (mut r, mut s) = make(&mut m);
        let crk = crk_join(&mut m, &mut r, &mut s, &JoinConfig::new(16).with_radix_bits(8));
        assert!(
            crk.wall_cycles < rho.wall_cycles,
            "on SGXv1 CrkJoin {} should beat RHO {}",
            crk.wall_cycles,
            rho.wall_cycles
        );
    }

    #[test]
    fn empty_inputs() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut r = m.alloc::<Row>(0);
        let mut s = m.alloc::<Row>(0);
        let stats = crk_join(&mut m, &mut r, &mut s, &JoinConfig::new(2));
        assert_eq!(stats.matches, 0);
    }
}
