//! External merge sort under EPC pressure.
//!
//! The paper's queries stop at `count(*)` (§6), so nothing in the
//! original suite ever orders data. Real analytical plans do — and an
//! enclave sort is exactly where the EPC working-set budget bites: runs
//! must be formed at a size the effective enclave working set can hold,
//! spilled, and merged back with charged reloads. Everything flows
//! through the existing EPC/MEE cost model: run formation streams the
//! input (charged reads), sorts in the working-set-sized buffer (charged
//! compares), spills sorted runs to a scratch table (charged stream
//! writes — MEE-priced when the scratch lives in the EPC), and the k-way
//! merge reloads every run through incremental stream readers (charged)
//! while writing the final order (charged).
//!
//! Output is verified against an uncharged `sort_unstable` oracle
//! ([`reference_sort`], plus the lockstep proptests in
//! `tests/proptest_operators.rs`).

use sgx_joins::JoinTuple;
use sgx_sim::{Machine, SimVec};

/// A 16-byte sort record: 64-bit key plus a 32-bit tie-breaking tag
/// (row id, group id, …). Records are ordered by `(key, tag)`, so the
/// sort is a deterministic total order whenever tags are distinct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortRow {
    /// Primary sort key.
    pub key: u64,
    /// Secondary key / payload handle.
    pub tag: u32,
}

/// Shape of one external sort execution.
#[derive(Debug, Clone)]
pub struct SortStats {
    /// Wall cycles of the whole sort (formation + spill + merge).
    pub cycles: f64,
    /// Number of sorted runs formed (and merged).
    pub runs: usize,
    /// Bytes spilled to the scratch table (== reloaded by the merge).
    pub spilled_bytes: usize,
}

/// Elements per run: half the effective enclave working set (we budget
/// the L3 because the EPC itself is large on SGXv2 — what limits run
/// size is how much of the buffer stays cheap to touch while sorting).
fn run_elems(machine: &Machine) -> usize {
    let budget = machine.cfg().l3.size / 2;
    (budget / std::mem::size_of::<SortRow>()).next_multiple_of(64).max(64)
}

/// Sort the first `len` elements of `input` by `(key, tag)` ascending,
/// returning the sorted table and the sort's cost shape. Run contents
/// and the merged output are independent of `cores` (workers form
/// disjoint runs; the merge is one charged pass), so results are
/// byte-identical across thread counts.
pub fn external_merge_sort(
    machine: &mut Machine,
    cores: &[usize],
    input: &SimVec<SortRow>,
    len: usize,
) -> (SimVec<SortRow>, SortStats) {
    let n = len.min(input.len());
    let start = machine.wall_cycles();
    if n == 0 {
        let out = machine.alloc::<SortRow>(0);
        return (out, SortStats { cycles: machine.wall_cycles() - start, runs: 0, spilled_bytes: 0 });
    }
    let per_run = run_elems(machine);
    let k = n.div_ceil(per_run);
    let t = cores.len().max(1);

    // Run formation: worker w forms runs w, w+t, … Each run is streamed
    // in (charged), sorted in the working-set buffer (charged compares:
    // ~log2(run) per element), and spilled to its fixed scratch slot
    // (charged stream writes).
    let mut scratch = machine.alloc::<SortRow>(n);
    machine.parallel(cores, |c| {
        let w = c.worker();
        for r in (w..k).step_by(t) {
            let lo = r * per_run;
            let hi = ((r + 1) * per_run).min(n);
            let cmp_per_elem = (usize::BITS - (hi - lo).leading_zeros()) as u64;
            let mut buf: Vec<SortRow> = Vec::with_capacity(hi - lo);
            input.read_stream(c, lo..hi, |c, _, row| {
                c.compute(cmp_per_elem);
                buf.push(row);
            });
            buf.sort_unstable_by_key(|row| (row.key, row.tag));
            let mut writer = scratch.stream_writer(lo);
            for row in buf {
                writer.push(c, row);
            }
        }
    });

    // k-way merge: reload every run through an incremental stream reader
    // and emit the global order (~log2(k) compares per output element via
    // a tournament over the run heads).
    let mut out = machine.alloc::<SortRow>(n);
    machine.run(|c| {
        let mut readers: Vec<_> = (0..k)
            .map(|r| scratch.stream_reader(r * per_run..((r + 1) * per_run).min(n)))
            .collect();
        let mut heads: Vec<Option<SortRow>> = Vec::with_capacity(k);
        for reader in readers.iter_mut() {
            heads.push(reader.next(c));
        }
        let cmp_per_elem = (usize::BITS - (k.max(2) - 1).leading_zeros()) as u64;
        let mut writer = out.stream_writer(0);
        loop {
            let mut best: Option<(SortRow, usize)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(v) = head {
                    let better = match best {
                        None => true,
                        Some((b, bi)) => (v.key, v.tag, i) < (b.key, b.tag, bi),
                    };
                    if better {
                        best = Some((*v, i));
                    }
                }
            }
            let Some((v, i)) = best else { break };
            c.compute(cmp_per_elem);
            writer.push(c, v);
            heads[i] = readers[i].next(c);
        }
    });
    let stats = SortStats {
        cycles: machine.wall_cycles() - start,
        runs: k,
        spilled_bytes: n * std::mem::size_of::<SortRow>(),
    };
    (out, stats)
}

/// Reshape a materialized join result into a sort input table: one
/// [`SortRow`] per join tuple via `f` (the sort-side analogue of
/// [`crate::ops::retuple`]). Returns the table and its wall cycles.
pub(crate) fn sort_input_from_join(
    machine: &mut Machine,
    cores: &[usize],
    jt: &SimVec<JoinTuple>,
    runs: &[std::ops::Range<usize>],
    f: &dyn Fn(JoinTuple) -> SortRow,
) -> (SimVec<SortRow>, f64) {
    let t = cores.len();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = machine.alloc::<SortRow>(total);
    let mut run_offsets = Vec::with_capacity(runs.len());
    let mut acc = 0usize;
    for r in runs {
        run_offsets.push(acc);
        acc += r.len();
    }
    let start_wall = machine.wall_cycles();
    machine.parallel(cores, |c| {
        let w = c.worker();
        for (ri, run) in runs.iter().enumerate().skip(w).step_by(t) {
            let mut writer = out.stream_writer(run_offsets[ri]);
            jt.read_stream(c, run.clone(), |c, _, tup| {
                c.compute(2);
                writer.push(c, f(tup));
            });
        }
    });
    let cycles = machine.wall_cycles() - start_wall;
    (out, cycles)
}

/// Uncharged reference sort for verification.
pub fn reference_sort(input: &SimVec<SortRow>, len: usize) -> Vec<SortRow> {
    #[expect(clippy::disallowed_methods, reason = "uncharged reference oracle for verification")]
    let mut v = input.as_slice_untracked()[..len.min(input.len())].to_vec();
    v.sort_unstable_by_key(|row| (row.key, row.tag));
    v
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

    fn rows(m: &mut Machine, n: usize) -> SimVec<SortRow> {
        let mut v = m.alloc::<SortRow>(n);
        let mut x = 0x5EEDu64 | 1;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v.poke(i, SortRow { key: x >> 32, tag: i as u32 });
        }
        v
    }

    #[test]
    fn multi_run_sort_matches_reference_across_threads() {
        // 1/4096-scale machine: tiny L3, so even 10k records need many runs.
        let mut m = Machine::new(xeon_gold_6326().scaled(4096), Setting::SgxDataInEnclave);
        let v = rows(&mut m, 10_000);
        let expect = reference_sort(&v, v.len());
        for threads in [1usize, 4] {
            let (sorted, stats) =
                external_merge_sort(&mut m, &(0..threads).collect::<Vec<_>>(), &v, v.len());
            assert!(stats.runs > 2, "scaled machine must force an external sort, got {} runs", stats.runs);
            assert_eq!(stats.spilled_bytes, 10_000 * std::mem::size_of::<SortRow>());
            assert_eq!(sorted.as_slice_untracked(), expect.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn single_run_and_empty_inputs_sort() {
        let mut m = Machine::new(xeon_gold_6326().scaled(16), Setting::PlainCpu);
        let v = rows(&mut m, 500);
        let (sorted, stats) = external_merge_sort(&mut m, &[0], &v, v.len());
        assert_eq!(stats.runs, 1);
        assert_eq!(sorted.as_slice_untracked(), reference_sort(&v, 500).as_slice());
        let empty = m.alloc::<SortRow>(0);
        let (out, stats) = external_merge_sort(&mut m, &[0], &empty, 0);
        assert_eq!(out.len(), 0);
        assert_eq!(stats.runs, 0);
    }

    #[test]
    fn prefix_sort_respects_len() {
        let mut m = Machine::new(xeon_gold_6326().scaled(16), Setting::PlainCpu);
        let v = rows(&mut m, 1000);
        let (sorted, _) = external_merge_sort(&mut m, &[0, 1], &v, 300);
        assert_eq!(sorted.len(), 300);
        assert_eq!(sorted.as_slice_untracked(), reference_sort(&v, 300).as_slice());
    }

    #[test]
    fn enclave_sort_costs_more_than_native() {
        let run = |setting: Setting| {
            let mut m = Machine::new(xeon_gold_6326().scaled(4096), setting);
            let v = rows(&mut m, 20_000);
            m.reset_wall();
            external_merge_sort(&mut m, &[0, 1], &v, v.len()).1.cycles
        };
        let native = run(Setting::PlainCpu);
        let sgx = run(Setting::SgxDataInEnclave);
        assert!(sgx > native, "spill/reload through the MEE must cost more in the enclave");
    }
}
