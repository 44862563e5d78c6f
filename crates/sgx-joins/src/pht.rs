//! PHT — the Parallel Hash Table join (Blanas et al. \[4\], "no
//! partitioning" join).
//!
//! Multiple threads build one shared chaining hash table over the smaller
//! relation (latched buckets), then probe it with partitions of the larger
//! relation. Its build phase performs latched random read-modify-writes
//! into a DRAM-sized bucket array — exactly the pattern §4.1 identifies as
//! the worst case inside an enclave ("the hash table build phase in the
//! PHT join is even 9 times slower than native").

use crate::common::{hash32, JoinConfig, JoinStats, JoinTuple, Row};
use sgx_sim::{Core, Machine, SimVec, Unroll};

/// Chained hash-table entry (12 bytes).
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    key: u32,
    payload: u32,
    /// Index of the next entry in the bucket chain; `u32::MAX` terminates.
    next: u32,
}

/// Empty-bucket marker.
const EMPTY: u32 = u32::MAX;

/// Split `0..n` into `parts` near-equal chunks; returns chunk `i`.
pub(crate) fn chunk_range(n: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    let base = n / parts;
    let rem = n % parts;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    start..start + len
}

/// The probe loop of both hash joins: hash each row of `s[range]` into
/// one of the `2^bits` buckets of `heads` and hand `walk` the bucket's
/// first entry with the row. Optimized, the head loads of every 8 rows
/// go out as one issue group (Listing 2) before their walks, and the
/// remainder probes one row at a time.
pub(crate) fn probe_heads(
    c: &mut Core<'_>,
    s: &SimVec<Row>,
    range: std::ops::Range<usize>,
    heads: &SimVec<u32>,
    bits: u32,
    optimized: bool,
    mut walk: impl FnMut(&mut Core<'_>, u32, Row),
) {
    if optimized {
        let mut batch = Unroll::<(Row, u32), 8>::default();
        s.read_stream(c, range, |c, _, srow| {
            c.compute(3);
            batch.push(c, (srow, hash32(srow.key, bits)), |c, probes| {
                let mut firsts = [EMPTY; 8];
                c.group(|c| {
                    for (bi, &(_, h)) in probes.iter().enumerate() {
                        firsts[bi] = heads.get(c, h as usize);
                    }
                });
                for (bi, &(srow, _)) in probes.iter().enumerate() {
                    walk(c, firsts[bi], srow);
                }
            });
        });
        for &(srow, h) in batch.rest() {
            let first = heads.get(c, h as usize);
            walk(c, first, srow);
        }
    } else {
        s.read_stream(c, range, |c, _, srow| {
            c.compute(4);
            let first = heads.get(c, hash32(srow.key, bits) as usize);
            walk(c, first, srow);
        });
    }
}

/// Execute the PHT join of `r` (build side) and `s` (probe side).
pub fn pht_join(
    machine: &mut Machine,
    r: &SimVec<Row>,
    s: &SimVec<Row>,
    cfg: &JoinConfig,
) -> JoinStats {
    let t = cfg.cores.len();
    let bits = (usize::BITS - r.len().next_power_of_two().leading_zeros() - 1).max(4);
    let nbuckets = 1usize << bits;
    let mut heads = machine.alloc::<u32>(nbuckets);
    let mut entries = machine.alloc::<Entry>(r.len());
    let mut output = cfg.materialize.then(|| machine.alloc::<JoinTuple>(s.len()));

    let start = machine.wall_cycles();
    // ------------------------------------------------------------- build
    // Clearing the bucket array must complete on all workers before any
    // insert lands in a foreign worker's share, so it is its own barrier
    // phase (as in the original implementation).
    let build_scope = machine.phase("build");
    let init = machine.parallel(&cfg.cores, |c| {
        let w = c.worker();
        heads.fill(c, chunk_range(nbuckets, t, w), EMPTY);
    });
    let build = machine.parallel(&cfg.cores, |c| {
        let w = c.worker();
        // Insert this worker's chunk of R. Entry i corresponds to R row i,
        // so entry writes are sequential and need no atomic counter.
        let range = chunk_range(r.len(), t, w);
        let mut ew = entries.stream_writer(range.start);
        if cfg.optimized {
            let mut issue = |c: &mut Core<'_>, batch: &[(usize, Row, u32)]| {
                // All bucket updates issued together (Listing 2 pattern).
                let mut nexts = [EMPTY; 8];
                c.group(|c| {
                    for (bi, &(i, _, h)) in batch.iter().enumerate() {
                        c.compute(2); // latch acquire/release
                        heads.rmw(c, h as usize, |head| {
                            nexts[bi] = *head;
                            *head = i as u32;
                        });
                    }
                });
                for (bi, &(_, row, _)) in batch.iter().enumerate() {
                    ew.push(c, Entry { key: row.key, payload: row.payload, next: nexts[bi] });
                }
            };
            let mut batch = Unroll::<(usize, Row, u32), 8>::default();
            r.read_stream(c, range, |c, i, row| {
                c.compute(3);
                batch.push(c, (i, row, hash32(row.key, bits)), &mut issue);
            });
            issue(c, batch.rest());
        } else {
            r.read_stream(c, range, |c, i, row| {
                c.compute(5); // hash + latch
                let h = hash32(row.key, bits) as usize;
                let mut next = EMPTY;
                heads.rmw(c, h, |head| {
                    next = *head;
                    *head = i as u32;
                });
                ew.push(c, Entry { key: row.key, payload: row.payload, next });
            });
        }
    });

    // ------------------------------------------------------------- probe
    drop(build_scope);
    let probe_scope = machine.phase("probe");
    let mut matches = 0u64;
    let mut checksum = 0u64;
    let mut overflow = false;
    let mut output_runs: Vec<std::ops::Range<usize>> = Vec::new();
    let probe = machine.parallel(&cfg.cores, |c| {
        let w = c.worker();
        let range = chunk_range(s.len(), t, w);
        let mut out = output.as_mut().map(|o| (o.stream_writer(range.start), range.clone()));
        let mut emit = |c: &mut Core<'_>, e: &Entry, srow: &Row| {
            matches += 1;
            checksum += e.payload as u64 + srow.payload as u64;
            if let Some((ow, range)) = out.as_mut() {
                if ow.pos() < range.end {
                    ow.push(c, JoinTuple { r_payload: e.payload, s_payload: srow.payload });
                } else {
                    overflow = true;
                }
            }
        };
        // The chain walk is dependent *within* one probe, but the
        // out-of-order engine overlaps entry loads across consecutive
        // probes (different s rows are independent), so the entry loads go
        // through the normal pooled path rather than `Core::dependent`.
        let walk = |c: &mut Core<'_>, first: u32, srow: Row| {
            let mut e = first;
            while e != EMPTY {
                let ent = entry_get(c, &entries, e);
                c.compute(2);
                if ent.key == srow.key {
                    emit(c, &ent, &srow);
                }
                e = ent.next;
            }
        };
        probe_heads(c, s, range.clone(), &heads, bits, cfg.optimized, walk);
        if let Some((ow, _)) = out {
            output_runs.push(range.start..ow.pos());
        }
    });
    assert!(!overflow, "PHT materialization overflowed a worker range (non-FK duplicates?)");
    drop(probe_scope);

    JoinStats {
        matches,
        checksum,
        wall_cycles: machine.wall_cycles() - start,
        phases: vec![
            ("build", init.wall_cycles + build.wall_cycles),
            ("probe", probe.wall_cycles),
        ],
        output,
        output_runs,
    }
}

/// Charged read of one 12-byte entry (may straddle two cache lines).
#[inline]
fn entry_get(c: &mut Core<'_>, entries: &SimVec<Entry>, idx: u32) -> Entry {
    entries.get(c, idx as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gen_fk_relation, gen_pk_relation, reference_join};
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn join_correct(threads: usize, optimized: bool, nr: usize, ns: usize) {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, nr, 1);
        let s = gen_fk_relation(&mut m, ns, nr, 2);
        let cfg = JoinConfig::new(threads).with_optimization(optimized);
        let stats = pht_join(&mut m, &r, &s, &cfg);
        let (m_ref, c_ref) = reference_join(&r, &s);
        assert_eq!(stats.matches, m_ref);
        assert_eq!(stats.checksum, c_ref);
        assert!(stats.wall_cycles > 0.0);
    }

    #[test]
    fn correct_single_thread() {
        join_correct(1, false, 5000, 20_000);
    }

    #[test]
    fn correct_multi_thread() {
        join_correct(8, false, 5000, 20_000);
    }

    #[test]
    fn correct_optimized() {
        join_correct(8, true, 5000, 20_000);
        join_correct(1, true, 777, 3001); // non-multiple-of-8 remainders
    }

    #[test]
    fn correct_with_duplicate_build_keys() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut r = m.alloc::<Row>(100);
        for i in 0..100 {
            // Keys repeat 4x.
            r.poke(i, Row { key: (i % 25 + 1) as u32, payload: i as u32 });
        }
        let s = gen_fk_relation(&mut m, 1000, 25, 3);
        let stats = pht_join(&mut m, &r, &s, &JoinConfig::new(4));
        let (m_ref, c_ref) = reference_join(&r, &s);
        assert_eq!(stats.matches, m_ref);
        assert_eq!(stats.checksum, c_ref);
    }

    #[test]
    fn materialization_produces_all_pairs() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 1000, 1);
        let s = gen_fk_relation(&mut m, 4000, 1000, 2);
        let cfg = JoinConfig::new(4).with_materialization(true);
        let stats = pht_join(&mut m, &r, &s, &cfg);
        assert_eq!(stats.matches, 4000);
    }

    #[test]
    fn enclave_build_phase_suffers_most() {
        // §4.1/Fig 4: the build phase has a much higher in-enclave penalty
        // than the probe phase.
        let run = |setting: Setting| {
            let mut m = Machine::new(scaled_profile(), setting);
            let r = gen_pk_relation(&mut m, 200_000, 1); // 1.6 MB table > scaled L3
            let s = gen_fk_relation(&mut m, 800_000, 200_000, 2);
            pht_join(&mut m, &r, &s, &JoinConfig::new(1))
        };
        let native = run(Setting::PlainCpu);
        let sgx = run(Setting::SgxDataInEnclave);
        let build_slowdown = sgx.phase("build") / native.phase("build");
        let probe_slowdown = sgx.phase("probe") / native.phase("probe");
        assert!(
            build_slowdown > probe_slowdown,
            "build {build_slowdown:.2}x should exceed probe {probe_slowdown:.2}x"
        );
        assert!(build_slowdown > 2.0, "build should be heavily penalized, got {build_slowdown:.2}x");
    }

    #[test]
    fn empty_inputs() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 100, 1);
        let empty = m.alloc::<Row>(0);
        let stats = pht_join(&mut m, &r, &empty, &JoinConfig::new(2));
        assert_eq!(stats.matches, 0);
    }
}
