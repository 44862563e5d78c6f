//! Grouped aggregation operator (reproduction extension).
//!
//! The paper simplifies its queries by replacing the final aggregation
//! with `count(*)` (§6). This module adds the operator the paper elides: a
//! parallel array-based group-by-count over a `Row` table, and a grouped
//! sum over a join result, in naive and unroll-optimized variants. The
//! group-counter update is exactly the radix-histogram pattern of §4.2,
//! so both count through [`sgx_microbench::count_bins`], and the same
//! enclave penalty (and the same repair) applies to aggregation. Both
//! share one plan: private per-worker counters, zero-filled, counted
//! into, then reduced by one streamed pass on worker 0.

use sgx_joins::{JoinTuple, Row};
use sgx_microbench::count_bins;
use sgx_sim::{worker_range, Core, Machine, SimVec};

/// Checked radix mask for a power-of-two group domain. One shared
/// helper so the operator and its reference oracle can never disagree:
/// the old per-site `groups as u32 - 1` silently truncated for
/// `groups > 2^32` (the cast wrapped before the subtraction).
pub fn group_mask(groups: usize) -> u32 {
    assert!(groups.is_power_of_two(), "group domain must be a power of two");
    debug_assert!(
        groups - 1 <= u32::MAX as usize,
        "group domain {groups} exceeds the u32 key space"
    );
    (groups - 1) as u32
}

/// Result of a grouped count.
#[derive(Debug, Clone)]
pub struct GroupCounts {
    /// `counts[g]` = number of rows whose `key % groups == g`… more
    /// precisely, whose `key & (groups-1)` equals `g` (groups are a power
    /// of two, as radix group ids).
    pub counts: Vec<u64>,
    /// Wall cycles of the aggregation.
    pub cycles: f64,
}

/// Parallel grouped count over `rows`: group id = `key & (groups - 1)`.
/// Each worker accumulates a private counter array (the standard
/// contention-free plan), then worker arrays are reduced.
pub fn group_count(
    machine: &mut Machine,
    cores: &[usize],
    rows: &SimVec<Row>,
    groups: usize,
    optimized: bool,
) -> GroupCounts {
    let mask = group_mask(groups);
    let t = cores.len();
    let (counts, cycles) = private_counters(machine, cores, groups, |c, local| {
        let range = worker_range(rows.len(), t, 1, c.worker());
        count_bins(c, rows, range, local, 2, optimized, |_, row| ((row.key & mask) as usize, 1));
    });
    GroupCounts { counts, cycles }
}

/// The plan both aggregations share: one private counter array per
/// worker, each zero-filled and then filled by `count` on its worker,
/// then reduced by one streamed pass over each on worker 0. Returns the
/// group totals and the wall cycles from the fills to the reduction's
/// end.
fn private_counters(
    machine: &mut Machine,
    cores: &[usize],
    groups: usize,
    mut count: impl FnMut(&mut Core<'_>, &mut SimVec<u64>),
) -> (Vec<u64>, f64) {
    let mut locals: Vec<SimVec<u64>> = cores.iter().map(|_| machine.alloc::<u64>(groups)).collect();
    let start = machine.wall_cycles();
    machine.parallel(cores, |c| {
        let local = &mut locals[c.worker()];
        local.fill(c, 0..groups, 0);
        count(c, local);
    });
    let mut totals = vec![0u64; groups];
    machine.run(|c| {
        for local in &locals {
            local.read_stream(c, 0..groups, |c, g, v| {
                c.compute(1);
                totals[g] += v;
            });
        }
    });
    (totals, machine.wall_cycles() - start)
}

/// Uncharged reference grouping for verification.
pub fn reference_group_count(rows: &SimVec<Row>, groups: usize) -> Vec<u64> {
    let mask = group_mask(groups);
    let mut counts = vec![0u64; groups];
    #[expect(clippy::disallowed_methods, reason = "uncharged reference oracle for verification")]
    for r in rows.as_slice_untracked() {
        counts[(r.key & mask) as usize] += 1;
    }
    counts
}

/// Result of a grouped sum over join output.
#[derive(Debug, Clone)]
pub struct GroupSums {
    /// `sums[g]` = Σ value over tuples whose group id is `g`.
    pub sums: Vec<u64>,
    /// Wall cycles of the aggregation.
    pub cycles: f64,
}

/// Parallel grouped sum over a materialized join result: `val` maps each
/// tuple to `(group, value)` (doing any charged gathers it needs), and
/// workers accumulate into private counter arrays before a streamed
/// reduction — the same §4.2 histogram pattern as [`group_count`], so the
/// same enclave penalty and the same unroll repair apply.
pub fn group_sum_tuples(
    machine: &mut Machine,
    cores: &[usize],
    jt: &SimVec<JoinTuple>,
    runs: &[std::ops::Range<usize>],
    groups: usize,
    optimized: bool,
    val: &dyn Fn(&mut Core, JoinTuple) -> (usize, u64),
) -> GroupSums {
    let mask = group_mask(groups) as usize;
    let t = cores.len();
    let (sums, cycles) = private_counters(machine, cores, groups, |c, local| {
        for run in runs.iter().skip(c.worker()).step_by(t) {
            count_bins(c, jt, run.clone(), local, 2, optimized, |c, tup| {
                let (g, v) = val(c, tup);
                (g & mask, v)
            });
        }
    });
    GroupSums { sums, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn machine(setting: Setting) -> Machine {
        Machine::new(scaled_profile(), setting)
    }

    fn rows(m: &mut Machine, n: usize) -> SimVec<Row> {
        let mut v = m.alloc::<Row>(n);
        for i in 0..n {
            v.poke(i, Row { key: (i as u32).wrapping_mul(2654435761), payload: i as u32 });
        }
        v
    }

    #[test]
    fn counts_match_reference() {
        let mut m = machine(Setting::PlainCpu);
        let r = rows(&mut m, 50_000);
        for groups in [8usize, 64, 1024] {
            for optimized in [false, true] {
                for threads in [1usize, 4, 16] {
                    let g = group_count(
                        &mut m,
                        &(0..threads).collect::<Vec<_>>(),
                        &r,
                        groups,
                        optimized,
                    );
                    assert_eq!(
                        g.counts,
                        reference_group_count(&r, groups),
                        "groups={groups} optimized={optimized} threads={threads}"
                    );
                    assert_eq!(g.counts.iter().sum::<u64>(), 50_000);
                }
            }
        }
    }

    #[test]
    fn aggregation_shows_the_section_4_2_effect() {
        // The group-counter loop is the histogram pattern: naive collapses
        // in the enclave, unrolling recovers it.
        let run = |setting: Setting, optimized: bool| {
            let mut m = machine(setting);
            let r = rows(&mut m, 400_000);
            group_count(&mut m, &[0], &r, 4096, optimized).cycles
        };
        let native = run(Setting::PlainCpu, false);
        let naive = run(Setting::SgxDataInEnclave, false);
        let opt = run(Setting::SgxDataInEnclave, true);
        assert!(naive > 2.0 * native, "naive group-by collapses: {:.2}x", naive / native);
        assert!(opt < 1.45 * native, "unrolled group-by recovers: {:.2}x", opt / native);
    }

    #[test]
    fn grouped_sums_match_reference() {
        let mut m = machine(Setting::PlainCpu);
        let n = 20_000;
        let mut jt = m.alloc::<JoinTuple>(n);
        for i in 0..n {
            let k = (i as u32).wrapping_mul(2654435761);
            jt.poke(i, JoinTuple { r_payload: k, s_payload: (i as u32) % 97 });
        }
        let runs = vec![0..7000usize, 7000..7000, 7000..n];
        let groups = 64usize;
        let mut expect = vec![0u64; groups];
        for i in 0..n {
            let t = jt.peek(i);
            expect[(t.r_payload & group_mask(groups)) as usize] += u64::from(t.s_payload);
        }
        for optimized in [false, true] {
            for threads in [1usize, 4] {
                let g = group_sum_tuples(
                    &mut m,
                    &(0..threads).collect::<Vec<_>>(),
                    &jt,
                    &runs,
                    groups,
                    optimized,
                    &|c, tup| {
                        c.compute(1);
                        (tup.r_payload as usize, u64::from(tup.s_payload))
                    },
                );
                assert_eq!(g.sums, expect, "optimized={optimized} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_groups() {
        let mut m = machine(Setting::PlainCpu);
        let r = rows(&mut m, 10);
        group_count(&mut m, &[0], &r, 12, false);
    }
}
