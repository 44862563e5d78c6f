//! RHO — the Radix Hash Optimized join (Manegold et al. \[25\], Balkesen et
//! al. \[2\], Kim et al. \[17\] two-phase parallel partitioning).
//!
//! Both inputs are radix-partitioned into cache-sized partitions (up to
//! two passes, with software write-combining buffers), then each partition
//! pair is joined with a small bucket-chained hash table that stays
//! cache-resident. Partition and join tasks are distributed over a task
//! queue (§4.4 studies the queue's lock implementation).
//!
//! `JoinConfig::optimized` applies the paper's §4.2 unroll-and-reorder
//! optimization to all three irregular phases — histogram, scatter, and
//! hash-table build — exactly the phases Fig 6 shows improving, and to
//! the probe's bucket-head loads. The histograms are the §4.2 counting
//! loop, [`sgx_microbench::count_bins`]; the other phases batch their
//! items through Listing 2's [`sgx_sim::Unroll`], and the probe loop is
//! the one PHT runs.

use crate::common::{hash32, radix, JoinConfig, JoinStats, JoinTuple, Row};
use crate::pht::{chunk_range, probe_heads};
use sgx_microbench::count_bins;
use sgx_sim::{Core, Machine, PhaseStats, SimVec, Unroll};

/// Maximum radix bits resolved per partitioning pass (swwcb fan-out limit).
pub const MAX_PASS_BITS: u32 = 8;
/// Rows per software write-combining buffer slot (one cache line).
const WCB_ROWS: usize = 8;
/// Empty bucket marker in the per-partition hash table.
const EMPTY: u32 = u32::MAX;

/// Flush one write-combining buffer line (`rows`) to `dst[at..]` as a
/// single non-temporal 64-byte store.
fn flush_line(c: &mut Core<'_>, dst: &mut SimVec<Row>, at: usize, rows: &[Row]) {
    c.stream_store_line(dst.addr(at));
    for (k, &row) in rows.iter().enumerate() {
        dst.poke(at + k, row);
    }
}

/// Scatter `src[range]` into `dst` using software write-combining buffers.
/// `offsets[p]` is the next free slot of partition `p` for this worker and
/// is advanced in place. `counts`/`buffers` are this worker's scratch
/// (≥ fanout entries / fanout*WCB_ROWS rows).
#[allow(clippy::too_many_arguments)]
pub fn seq_scatter(
    c: &mut Core<'_>,
    src: &SimVec<Row>,
    range: std::ops::Range<usize>,
    dst: &mut SimVec<Row>,
    offsets: &mut [usize],
    counts: &mut SimVec<u32>,
    buffers: &mut SimVec<Row>,
    shift: u32,
    mask: u32,
    optimized: bool,
) {
    let fanout = mask as usize + 1;
    // Reset the per-partition fill counters (cache-resident scratch).
    counts.fill(c, 0..fanout, 0);
    let mut drain = |c: &mut Core<'_>, p: usize, dst: &mut SimVec<Row>, buffers: &SimVec<Row>| {
        // Copy the full buffer line out to the partition.
        let rows: Vec<Row> =
            (0..WCB_ROWS).map(|k| buffers.peek(p * WCB_ROWS + k)).collect();
        flush_line(c, dst, offsets[p], &rows);
        offsets[p] += WCB_ROWS;
    };
    let mut push_row = |c: &mut Core<'_>,
                        p: usize,
                        row: Row,
                        fill: u32,
                        dst: &mut SimVec<Row>,
                        buffers: &mut SimVec<Row>| {
        buffers.set(c, p * WCB_ROWS + fill as usize, row);
        if fill as usize + 1 == WCB_ROWS {
            drain(c, p, dst, buffers);
        }
    };
    if optimized {
        let mut issue = |c: &mut Core<'_>, batch: &[(Row, usize)]| {
            // All counter RMWs first (one issue group), then the buffer
            // stores and any full-line drains.
            let mut fills = [0u32; 8];
            c.group(|c| {
                for (bi, &(_, p)) in batch.iter().enumerate() {
                    counts.rmw(c, p, |f| {
                        fills[bi] = *f % WCB_ROWS as u32;
                        *f += 1;
                    });
                }
            });
            for (bi, &(row, p)) in batch.iter().enumerate() {
                push_row(c, p, row, fills[bi], dst, buffers);
            }
        };
        let mut batch = Unroll::<(Row, usize), 8>::default();
        src.read_stream(c, range, |c, _, row| {
            c.compute(3);
            batch.push(c, (row, radix(row.key, shift, mask) as usize), &mut issue);
        });
        issue(c, batch.rest());
    } else {
        src.read_stream(c, range, |c, _, row| {
            c.compute(4);
            let p = radix(row.key, shift, mask) as usize;
            let mut fill = 0u32;
            counts.rmw(c, p, |f| {
                fill = *f % WCB_ROWS as u32;
                *f += 1;
            });
            push_row(c, p, row, fill, dst, buffers);
        });
    }
    // Flush partial buffers.
    for (p, offset) in offsets.iter_mut().enumerate().take(fanout) {
        let rem = (counts.peek(p) as usize) % WCB_ROWS;
        if rem > 0 {
            let rows: Vec<Row> = (0..rem).map(|k| buffers.peek(p * WCB_ROWS + k)).collect();
            flush_line(c, dst, *offset, &rows);
            *offset += rem;
        }
    }
}

/// Direct (non-write-combining) scatter: every tuple is stored straight to
/// its partition cursor — the textbook radix partitioning that software
/// write-combining buffers replace. Kept public for the swwcb ablation
/// bench; RHO itself always uses [`seq_scatter`].
pub fn seq_scatter_direct(
    c: &mut Core<'_>,
    src: &SimVec<Row>,
    range: std::ops::Range<usize>,
    dst: &mut SimVec<Row>,
    cursors: &mut SimVec<u32>,
    shift: u32,
    mask: u32,
) {
    src.read_stream(c, range, |c, _, row| {
        c.compute(4);
        let p = radix(row.key, shift, mask) as usize;
        // The cursor bump is a charged RMW on the cursor array; the tuple
        // store goes wherever the partition cursor points.
        let mut at = 0u32;
        cursors.rmw(c, p, |v| {
            at = *v;
            *v += 1;
        });
        dst.set(c, at as usize, row);
    });
}

/// One parallel partitioning pass over a whole relation. Returns partition
/// start offsets (length `fanout + 1`) and records the histogram and
/// scatter phases.
#[allow(clippy::too_many_arguments)]
fn parallel_partition_pass(
    machine: &mut Machine,
    src: &SimVec<Row>,
    dst: &mut SimVec<Row>,
    shift: u32,
    bits: u32,
    cfg: &JoinConfig,
    phases: &mut Vec<(&'static str, f64)>,
    names: (&'static str, &'static str),
) -> Vec<usize> {
    let t = cfg.cores.len();
    let fanout = 1usize << bits;
    let mask = fanout as u32 - 1;
    let mut hists: Vec<SimVec<u32>> = (0..t).map(|_| machine.alloc::<u32>(fanout)).collect();

    let hist_stats = {
        let _scope = machine.phase(names.0);
        machine.parallel(&cfg.cores, |c| {
            let w = c.worker();
            let range = chunk_range(src.len(), t, w);
            hists[w].fill(c, 0..fanout, 0);
            count_bins(c, src, range, &mut hists[w], 3, cfg.optimized, |_, row| {
                (radix(row.key, shift, mask) as usize, 1)
            });
        })
    };
    phases.push((names.0, hist_stats.wall_cycles));

    // Prefix sums over (partition, worker) — small metadata, charged as
    // compute on core 0.
    let mut starts = vec![0usize; fanout + 1];
    let mut worker_offsets = vec![vec![0usize; fanout]; t];
    machine.run(|c| {
        c.compute((fanout * t * 2) as u64);
        let mut acc = 0usize;
        for p in 0..fanout {
            starts[p] = acc;
            for (w, h) in hists.iter().enumerate() {
                worker_offsets[w][p] = acc;
                acc += h.get(c, p) as usize;
            }
        }
        starts[fanout] = acc;
    });

    // Per-worker write-combining scratch.
    let mut counts: Vec<SimVec<u32>> = (0..t).map(|_| machine.alloc::<u32>(fanout)).collect();
    let mut buffers: Vec<SimVec<Row>> =
        (0..t).map(|_| machine.alloc::<Row>(fanout * WCB_ROWS)).collect();
    let copy_stats = {
        let _scope = machine.phase(names.1);
        machine.parallel(&cfg.cores, |c| {
            let w = c.worker();
            seq_scatter(
                c,
                src,
                chunk_range(src.len(), t, w),
                dst,
                &mut worker_offsets[w],
                &mut counts[w],
                &mut buffers[w],
                shift,
                mask,
                cfg.optimized,
            );
        })
    };
    phases.push((names.1, copy_stats.wall_cycles));
    starts
}

/// Per-partition chained hash table build + probe, cache-resident.
/// `heads`/`links` are worker scratch sized for the largest partition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn join_partition(
    c: &mut Core<'_>,
    r_part: (&SimVec<Row>, std::ops::Range<usize>),
    s_part: (&SimVec<Row>, std::ops::Range<usize>),
    heads: &mut SimVec<u32>,
    links: &mut SimVec<u32>,
    optimized: bool,
    build_busy: &mut f64,
    mut emit: impl FnMut(&mut Core<'_>, u32, u32),
) {
    let (r, r_range) = r_part;
    let (s, s_range) = s_part;
    let n = r_range.len();
    if n == 0 || s_range.is_empty() {
        return;
    }
    let bits = (usize::BITS - n.next_power_of_two().leading_zeros()).max(3);
    let ht_size = 1usize << bits;
    debug_assert!(ht_size <= heads.len(), "scratch table too small for partition");

    // ------------------------------------------------------------- build
    let build_start = c.busy_cycles();
    // The "build" profile scope covers exactly the busy-cycle window the
    // Fig 6 breakdown measures, so profile vs. phase stats cross-check.
    let build_scope = c.phase("build");
    heads.fill(c, 0..ht_size, EMPTY);
    let r_base = r_range.start;
    if optimized {
        let mut issue = |c: &mut Core<'_>, batch: &[(usize, u32)]| {
            c.group(|c| {
                for &(i, h) in batch {
                    let mut next = EMPTY;
                    heads.rmw(c, h as usize, |head| {
                        next = *head;
                        *head = i as u32;
                    });
                    links.set(c, i, next);
                }
            });
        };
        let mut batch = Unroll::<(usize, u32), 8>::default();
        r.read_stream(c, r_range.clone(), |c, i, row| {
            c.compute(3);
            batch.push(c, (i - r_base, hash32(row.key, bits)), &mut issue);
        });
        issue(c, batch.rest());
    } else {
        r.read_stream(c, r_range.clone(), |c, i, row| {
            c.compute(4);
            let h = hash32(row.key, bits) as usize;
            let mut next = EMPTY;
            heads.rmw(c, h, |head| {
                next = *head;
                *head = i as u32 - r_base as u32;
            });
            links.set(c, i - r_base, next);
        });
    }
    drop(build_scope);
    *build_busy += c.busy_cycles() - build_start;

    // ------------------------------------------------------------- probe
    let _probe_scope = c.phase("probe");
    let walk = |c: &mut Core<'_>, first: u32, srow: Row| {
        let mut e = first;
        c.dependent(|c| {
            while e != EMPTY {
                let rrow = r.get(c, r_base + e as usize);
                c.compute(2);
                if rrow.key == srow.key {
                    emit(c, rrow.payload, srow.payload);
                }
                e = links.get(c, e as usize);
            }
        });
    };
    probe_heads(c, s, s_range, heads, bits, optimized, walk);
}

/// Execute the RHO join of `r` (build side) and `s` (probe side).
pub fn rho_join(
    machine: &mut Machine,
    r: &SimVec<Row>,
    s: &SimVec<Row>,
    cfg: &JoinConfig,
) -> JoinStats {
    let t = cfg.cores.len();
    let total_bits = cfg.radix_bits.clamp(2, 2 * MAX_PASS_BITS);
    let pass1_bits = total_bits.min(MAX_PASS_BITS);
    let pass2_bits = total_bits - pass1_bits;

    // Partition destinations (ping-pong buffers for two passes).
    let mut r1 = machine.alloc::<Row>(r.len());
    let mut s1 = machine.alloc::<Row>(s.len());
    let mut output = cfg.materialize.then(|| machine.alloc::<JoinTuple>(s.len()));

    let start = machine.wall_cycles();
    let mut phases: Vec<(&'static str, f64)> = Vec::new();

    // Pass 1 over both relations (Fig 6: Hist 1 / Copy 1 / Hist 2 / Copy 2).
    let r_starts =
        parallel_partition_pass(machine, r, &mut r1, 0, pass1_bits, cfg, &mut phases, ("hist_r", "copy_r"));
    let s_starts =
        parallel_partition_pass(machine, s, &mut s1, 0, pass1_bits, cfg, &mut phases, ("hist_s", "copy_s"));

    // Pass 2 (task-per-partition, queue-distributed).
    let fanout1 = 1usize << pass1_bits;
    let (r_final, s_final, r_bounds, s_bounds) = if pass2_bits > 0 {
        let mut r2 = machine.alloc::<Row>(r.len());
        let mut s2 = machine.alloc::<Row>(s.len());
        let fanout2 = 1usize << pass2_bits;
        let mask2 = fanout2 as u32 - 1;
        let mut r_bounds = vec![0usize; fanout1 * fanout2 + 1];
        let mut s_bounds = vec![0usize; fanout1 * fanout2 + 1];
        // Worker scratch for the second pass.
        let mut hists: Vec<SimVec<u32>> = (0..t).map(|_| machine.alloc::<u32>(fanout2)).collect();
        let mut counts: Vec<SimVec<u32>> = (0..t).map(|_| machine.alloc::<u32>(fanout2)).collect();
        let mut buffers: Vec<SimVec<Row>> =
            (0..t).map(|_| machine.alloc::<Row>(fanout2 * WCB_ROWS)).collect();
        // Each task repartitions one pass-1 partition of R and S.
        let _scope = machine.phase("part2");
        let stats = machine.parallel_tasks(&cfg.cores, cfg.queue, fanout1, |c, p| {
            let w = c.worker();
            for (src, dst, starts, bounds) in [
                (&r1, &mut r2, &r_starts, &mut r_bounds),
                (&s1, &mut s2, &s_starts, &mut s_bounds),
            ] {
                let range = starts[p]..starts[p + 1];
                hists[w].fill(c, 0..fanout2, 0);
                count_bins(c, src, range.clone(), &mut hists[w], 3, cfg.optimized, |_, row| {
                    (radix(row.key, pass1_bits, mask2) as usize, 1)
                });
                let mut offsets = vec![0usize; fanout2];
                let mut acc = range.start;
                c.compute(2 * fanout2 as u64);
                for sp in 0..fanout2 {
                    bounds[p * fanout2 + sp] = acc;
                    offsets[sp] = acc;
                    acc += hists[w].get(c, sp) as usize;
                }
                seq_scatter(
                    c,
                    src,
                    range,
                    dst,
                    &mut offsets,
                    &mut counts[w],
                    &mut buffers[w],
                    pass1_bits,
                    mask2,
                    cfg.optimized,
                );
            }
        });
        phases.push(("part2", stats.wall_cycles));
        r_bounds[fanout1 * fanout2] = r.len();
        s_bounds[fanout1 * fanout2] = s.len();
        (r2, s2, r_bounds, s_bounds)
    } else {
        (r1, s1, r_starts, s_starts)
    };

    // Join phase: one task per final partition.
    let n_parts = r_bounds.len() - 1;
    let max_r_part = (0..n_parts).map(|p| r_bounds[p + 1] - r_bounds[p]).max().unwrap_or(0);
    let ht_cap = (max_r_part.next_power_of_two() * 2).max(8);
    let mut heads: Vec<SimVec<u32>> = (0..t).map(|_| machine.alloc::<u32>(ht_cap)).collect();
    let mut links: Vec<SimVec<u32>> =
        (0..t).map(|_| machine.alloc::<u32>(max_r_part.max(1))).collect();

    let mut matches = 0u64;
    let mut checksum = 0u64;
    let mut build_busy = 0.0f64;
    let mut overflow = false;
    let mut output_runs: Vec<std::ops::Range<usize>> = Vec::new();
    let join_stats: PhaseStats =
        machine.parallel_tasks(&cfg.cores, cfg.queue, n_parts, |c, p| {
            let w = c.worker();
            let s_range = s_bounds[p]..s_bounds[p + 1];
            let mut out = output
                .as_mut()
                .map(|o| (o.stream_writer(s_range.start), s_range.clone()));
            join_partition(
                c,
                (&r_final, r_bounds[p]..r_bounds[p + 1]),
                (&s_final, s_range.clone()),
                &mut heads[w],
                &mut links[w],
                cfg.optimized,
                &mut build_busy,
                |c, rp, sp| {
                    matches += 1;
                    checksum += rp as u64 + sp as u64;
                    if let Some((ow, range)) = out.as_mut() {
                        if ow.pos() < range.end {
                            ow.push(c, JoinTuple { r_payload: rp, s_payload: sp });
                        } else {
                            overflow = true;
                        }
                    }
                },
            );
            if let Some((ow, _)) = out {
                let run = s_range.start..ow.pos();
                if !run.is_empty() {
                    output_runs.push(run);
                }
            }
        });
    assert!(!overflow, "RHO materialization overflowed a partition range (non-FK duplicates?)");
    let probe_busy: f64 = join_stats.core_cycles.iter().sum::<f64>() - build_busy;
    phases.push(("build", build_busy));
    phases.push(("probe", probe_busy.max(0.0)));

    output_runs.sort_by_key(|r| r.start);
    JoinStats { matches, checksum, wall_cycles: machine.wall_cycles() - start, phases, output, output_runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::QueueKind;
    use crate::data::{gen_fk_relation, gen_pk_relation, reference_join};
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn join_correct(cfg: JoinConfig, nr: usize, ns: usize) {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, nr, 1);
        let s = gen_fk_relation(&mut m, ns, nr, 2);
        let stats = rho_join(&mut m, &r, &s, &cfg);
        let (m_ref, c_ref) = reference_join(&r, &s);
        assert_eq!(stats.matches, m_ref, "matches");
        assert_eq!(stats.checksum, c_ref, "checksum");
    }

    #[test]
    fn correct_single_pass_single_thread() {
        join_correct(JoinConfig::new(1).with_radix_bits(4), 5000, 20_000);
    }

    #[test]
    fn correct_single_pass_multi_thread() {
        join_correct(JoinConfig::new(8).with_radix_bits(6), 5000, 20_000);
    }

    #[test]
    fn correct_two_pass() {
        join_correct(JoinConfig::new(4).with_radix_bits(10), 5000, 20_000);
    }

    #[test]
    fn correct_optimized() {
        join_correct(JoinConfig::new(4).with_radix_bits(6).with_optimization(true), 5000, 20_000);
        join_correct(JoinConfig::new(3).with_radix_bits(10).with_optimization(true), 777, 3001);
    }

    #[test]
    fn correct_with_mutex_queue() {
        join_correct(JoinConfig::new(8).with_radix_bits(8).with_queue(QueueKind::SdkMutex), 4000, 16_000);
        join_correct(JoinConfig::new(8).with_radix_bits(8).with_queue(QueueKind::SpinLock), 4000, 16_000);
    }

    #[test]
    fn materialization_counts_match() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 2000, 1);
        let s = gen_fk_relation(&mut m, 8000, 2000, 2);
        let cfg = JoinConfig::new(4).with_radix_bits(6).with_materialization(true);
        let stats = rho_join(&mut m, &r, &s, &cfg);
        assert_eq!(stats.matches, 8000);
    }

    #[test]
    fn phases_cover_fig6_breakdown() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 5000, 1);
        let s = gen_fk_relation(&mut m, 20_000, 5000, 2);
        let stats = rho_join(&mut m, &r, &s, &JoinConfig::new(1).with_radix_bits(4));
        for name in ["hist_r", "copy_r", "hist_s", "copy_s", "build", "probe"] {
            assert!(stats.phase(name) > 0.0, "phase {name} missing");
        }
    }

    #[test]
    fn optimization_speeds_up_enclave_execution() {
        let run = |optimized: bool| {
            let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
            let r = gen_pk_relation(&mut m, 100_000, 1);
            let s = gen_fk_relation(&mut m, 400_000, 100_000, 2);
            let cfg = JoinConfig::new(1).with_radix_bits(6).with_optimization(optimized);
            rho_join(&mut m, &r, &s, &cfg).wall_cycles
        };
        let naive = run(false);
        let optimized = run(true);
        assert!(
            optimized < 0.8 * naive,
            "§4.2 optimization should cut enclave run time: {optimized} !< 0.8*{naive}"
        );
    }

    #[test]
    fn empty_probe_side() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 1000, 1);
        let s = m.alloc::<Row>(0);
        let stats = rho_join(&mut m, &r, &s, &JoinConfig::new(2).with_radix_bits(4));
        assert_eq!(stats.matches, 0);
    }
}
