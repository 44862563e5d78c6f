//! Reproduction extensions beyond the paper's figures: skewed join keys,
//! grouped aggregation (the operator §6 elides), and dual-socket EPC
//! scans (the capacity/parallelism opportunity §5.5 mentions but does not
//! measure).

use crate::profiles::BenchProfile;
use crate::repeat;
use crate::report::Figure;
use sgx_joins::rho::{rho_join, seq_scatter_direct};
use sgx_joins::{gen_fk_relation, gen_fk_zipf, gen_pk_relation, JoinConfig, Row};
use sgx_scans::{column_scan, packed_scan_count, PackedColumn, ScanConfig, ScanOutput};
use sgx_sim::{Machine, Region, Setting, SimVec};
use sgx_tpch::group_count;

/// Extension: RHO and PHT join throughput under Zipf-skewed foreign keys
/// (TEEBench evaluates skew; the paper's §4 uses uniform keys only).
pub fn ext_skew(p: &BenchProfile) -> Figure {
    let thetas = [0.0f64, 0.5, 0.75, 1.0];
    let (nr, ns) = (p.rel_rows(100), p.rel_rows(400));
    let bits = JoinConfig::auto_radix_bits(nr * 8, p.hw.l2.size);
    let threads = 16.min(p.hw.cores_per_socket);
    let mut fig = Figure::new(
        "ext_skew",
        "RHO join under Zipf-skewed probe keys (extension)",
        "zipf theta",
        "M rows/s",
    )
    .with_xs(thetas.iter().map(|t| format!("{t:.2}")));
    for setting in [Setting::PlainCpu, Setting::SgxDataInEnclave] {
        let points = thetas
            .iter()
            .map(|&theta| {
                Some(repeat(p.reps, |seed| {
                    let mut m = Machine::new(p.hw.clone(), setting);
                    let r = gen_pk_relation(&mut m, nr, seed);
                    let s = gen_fk_zipf(&mut m, ns, nr, theta, seed + 1);
                    let cfg = JoinConfig::new(threads).with_radix_bits(bits);
                    let stats = rho_join(&mut m, &r, &s, &cfg);
                    assert_eq!(stats.matches, ns as u64);
                    stats.mrows_per_sec(nr, ns, p.hw.freq_ghz)
                }))
            })
            .collect();
        fig.push_series(setting.label(), points);
    }
    fig.note("two competing effects: hot keys concentrate probes on cached buckets (a native win at heavy skew), while the dominant partition overloads one thread — a penalty the MEE amplifies, so the enclave curve dips at theta=1");
    fig
}

/// Extension: grouped aggregation (count per group) — the §4.2 histogram
/// effect applies verbatim to group-by counters.
pub fn ext_aggregation(p: &BenchProfile) -> Figure {
    let group_domains = [16usize, 256, 4096];
    let n = p.rel_rows(400);
    let threads = 16.min(p.hw.cores_per_socket);
    let mut fig = Figure::new(
        "ext_aggregation",
        "Grouped count(*) over a Row table (extension)",
        "groups",
        "M rows/s",
    )
    .with_xs(group_domains.iter().map(|g| g.to_string()));
    for (label, setting, optimized) in [
        ("Plain CPU", Setting::PlainCpu, false),
        ("SGX naive", Setting::SgxDataInEnclave, false),
        ("SGX optimized", Setting::SgxDataInEnclave, true),
    ] {
        let points = group_domains
            .iter()
            .map(|&groups| {
                Some(repeat(p.reps, |seed| {
                    let mut m = Machine::new(p.hw.clone(), setting);
                    let mut rows: SimVec<Row> = m.alloc(n);
                    for i in 0..n {
                        rows.poke(
                            i,
                            Row {
                                key: (i as u32).wrapping_mul(2654435761).wrapping_add(seed as u32),
                                payload: i as u32,
                            },
                        );
                    }
                    let g = group_count(&mut m, &(0..threads).collect::<Vec<_>>(), &rows, groups, optimized);
                    assert_eq!(g.counts.iter().sum::<u64>(), n as u64);
                    n as f64 / g.cycles * p.hw.freq_ghz * 1e3
                }))
            })
            .collect();
        fig.push_series(label, points);
    }
    fig.note("the enclave penalty and the unroll repair of Fig 7 carry over to aggregation");
    fig
}

/// Design-choice ablation: software write-combining buffers vs direct
/// scatter in radix partitioning. The swwcb turns the fan-out's random
/// stores into full-line streaming stores — inside the enclave that also
/// sidesteps the MEE write penalty.
pub fn ablation_swwcb(p: &BenchProfile) -> Figure {
    let n = p.rel_rows(400);
    let threads = 16.min(p.hw.cores_per_socket);
    // Sweep the fan-out: small fan-outs keep every partition cursor line
    // cache-resident (direct scatter is fine); large fan-outs overflow the
    // L2 and direct stores degenerate to random misses — the regime
    // write-combining buffers exist for.
    let bits_choices = [6u32, 10, 13];
    let mut fig = Figure::new(
        "ablation_swwcb",
        "Radix scatter strategy across fan-outs",
        "fan-out (radix bits)",
        "M rows/s",
    )
    .with_xs(bits_choices.iter().map(|b| b.to_string()));
    for (label, wcb, setting) in [
        ("direct, native", false, Setting::PlainCpu),
        ("swwcb, native", true, Setting::PlainCpu),
        ("direct, SGX", false, Setting::SgxDataInEnclave),
        ("swwcb, SGX", true, Setting::SgxDataInEnclave),
    ] {
        let points = bits_choices
            .iter()
            .map(|&bits| {
                Some(repeat(p.reps, |seed| {
                    let fanout = 1usize << bits;
                    let mask = fanout as u32 - 1;
                    let mut m = Machine::new(p.hw.clone(), setting);
                    let src = gen_pk_relation(&mut m, n, seed);
                    let mut dst: SimVec<Row> = m.alloc(n);
                    // Exact per-partition cursors (uncharged metadata).
                    let mut counts = vec![0usize; fanout];
                    for row in src.as_slice_untracked() {
                        counts[(row.key & mask) as usize] += 1;
                    }
                    let mut starts = vec![0usize; fanout + 1];
                    for g in 0..fanout {
                        starts[g + 1] = starts[g] + counts[g];
                    }
                    let per = n.div_ceil(threads);
                    let cores: Vec<usize> = (0..threads).collect();
                    // Per-worker write-combining scratch. The direct variant
                    // never reads it, but still allocates it so the arrays
                    // after it keep their simulated addresses; the filter
                    // drops its host buffers at once.
                    let mut wcb_counts: Vec<SimVec<u32>> =
                        (0..threads).map(|_| m.alloc(fanout)).filter(|_| wcb).collect();
                    let mut wcb_bufs: Vec<SimVec<Row>> =
                        (0..threads).map(|_| m.alloc(fanout * 8)).filter(|_| wcb).collect();
                    // The direct variant keeps its partition cursors in a
                    // charged array of the same shape (the last allocation,
                    // so the write-combining variant skips it).
                    let mut cursor_vecs: Vec<SimVec<u32>> = if wcb {
                        Vec::new()
                    } else {
                        (0..threads).map(|_| m.alloc(fanout)).collect()
                    };
                    // A worker's cursors start past every earlier worker's
                    // rows. `parallel` runs each worker once, in core order,
                    // so one running array yields every worker's start.
                    let mut running = starts[..fanout].to_vec();
                    let mut offsets = vec![0usize; fanout];
                    let before = m.wall_cycles();
                    m.parallel(&cores, |c| {
                        let w = c.worker();
                        let range = (w * per).min(n)..((w + 1) * per).min(n);
                        offsets.copy_from_slice(&running);
                        for i in range.clone() {
                            running[(src.peek(i).key & mask) as usize] += 1;
                        }
                        if wcb {
                            sgx_joins::rho::seq_scatter(
                                c,
                                &src,
                                range,
                                &mut dst,
                                &mut offsets,
                                &mut wcb_counts[w],
                                &mut wcb_bufs[w],
                                0,
                                mask,
                                false,
                            );
                        } else {
                            let cursors = &mut cursor_vecs[w];
                            for (g, &at) in offsets.iter().enumerate() {
                                cursors.poke(g, at as u32);
                            }
                            seq_scatter_direct(c, &src, range, &mut dst, cursors, 0, mask);
                        }
                    });
                    let cycles = m.wall_cycles() - before;
                    n as f64 / cycles * p.hw.freq_ghz * 1e3
                }))
            })
            .collect();
        fig.push_series(label, points);
    }
    fig.note("with cursor maintenance charged fairly, the buffers win across fan-outs: full-line non-temporal flushes skip the RFO fill and the TLB walks that per-tuple scatter stores pay — the margin is largest inside the enclave");
    fig
}

/// Design-choice ablation: total radix bits (final partition size vs
/// cache) for the RHO join — the cache-residency cliff behind the
/// paper's "aggressive partitioning" lesson (§4.1).
pub fn ablation_radix_bits(p: &BenchProfile) -> Figure {
    let auto = JoinConfig::auto_radix_bits(p.rel_rows(100) * 8, p.hw.l2.size);
    let choices: Vec<u32> = [auto.saturating_sub(4).max(2), auto.saturating_sub(2).max(2), auto, (auto + 2).min(16)]
        .into_iter()
        .collect();
    let (nr, ns) = (p.rel_rows(100), p.rel_rows(400));
    let threads = 16.min(p.hw.cores_per_socket);
    let mut fig = Figure::new(
        "ablation_radix_bits",
        "RHO total radix bits (final partition size vs cache)",
        "radix bits",
        "M rows/s",
    )
    .with_xs(choices.iter().map(|b| b.to_string()));
    for setting in [Setting::PlainCpu, Setting::SgxDataInEnclave] {
        let points = choices
            .iter()
            .map(|&bits| {
                Some(repeat(p.reps, |seed| {
                    let mut m = Machine::new(p.hw.clone(), setting);
                    let r = gen_pk_relation(&mut m, nr, seed);
                    let s = gen_fk_relation(&mut m, ns, nr, seed + 1);
                    let cfg = JoinConfig::new(threads).with_radix_bits(bits);
                    rho_join(&mut m, &r, &s, &cfg).mrows_per_sec(nr, ns, p.hw.freq_ghz)
                }))
            })
            .collect();
        fig.push_series(setting.label(), points);
    }
    fig.note("too few bits leave partitions bigger than cache (random-access-bound build); the cliff is steeper inside the enclave (§4.1 lesson)");
    fig
}

/// Extension: bit-packed column scans (Willhalm et al. \[38\], the paper's
/// scan-algorithm citation): throughput per *value* rises as the packing
/// narrows, because fewer bytes cross the MEE.
pub fn ext_packed_scan(p: &BenchProfile) -> Figure {
    let widths = [4u32, 8, 12, 16, 32];
    let n = p.mb(2048); // values; physical size shrinks with the width
    let threads = 16.min(p.hw.cores_per_socket);
    let mut fig = Figure::new(
        "ext_packed",
        "Bit-packed column scan (Willhalm-style), billion values/s",
        "bits per value",
        "G values/s",
    )
    .with_xs(widths.iter().map(|b| b.to_string()));
    for setting in [Setting::PlainCpu, Setting::SgxDataInEnclave] {
        let points = widths
            .iter()
            .map(|&bits| {
                Some(repeat(p.reps, |seed| {
                    let mut m = Machine::new(p.hw.clone(), setting);
                    let mut x = seed | 1;
                    let vals: Vec<u32> = (0..n)
                        .map(|_| {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            ((x >> 33) as u32) & ((1u32 << bits.min(31)) - 1)
                        })
                        .collect();
                    let col = PackedColumn::pack(&mut m, &vals, bits);
                    let cores: Vec<usize> = (0..threads).collect();
                    let (_, cycles) = packed_scan_count(&mut m, &col, 1, 100, &cores);
                    n as f64 / (cycles / (p.hw.freq_ghz * 1e9)) / 1e9
                }))
            })
            .collect();
        fig.push_series(setting.label(), points);
    }
    fig.note("narrower packing = fewer MEE-decrypted lines per value; the enclave gap stays a few percent at every width");
    fig
}

/// Extension: scanning data striped across both sockets' EPC with local
/// threads on each — the aggregated-EPC deployment §5.5 raises.
pub fn ext_dual_socket_scan(p: &BenchProfile) -> Figure {
    let bytes = p.mb(2048);
    let t = p.hw.cores_per_socket;
    let mut fig = Figure::new(
        "ext_dual_socket",
        "Aggregate EPC scan across sockets (extension)",
        "deployment",
        "GB/s",
    )
    .with_xs(["1 socket, local EPC", "2 sockets, striped EPC (NUMA-aware)", "2 sockets, all EPC on node 0"]);
    let run = |regions_cores: Vec<(Region, Vec<usize>)>, seed: u64| -> f64 {
        let mut m = Machine::new(p.hw.clone(), Setting::SgxDataInEnclave);
        let mut total_bytes = 0usize;
        let mut cycles = 0.0;
        // Each (region, cores) pair scans its own column; deployments run
        // their parts concurrently, so the wall is the max part time.
        let mut parts = Vec::new();
        for (region, cores) in regions_cores {
            let mut col = m.alloc_on::<u8>(bytes / 2, region);
            let mut x = seed | 1;
            for i in 0..col.len() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                col.poke(i, (x >> 33) as u8);
            }
            let before = m.wall_cycles();
            let cfg = ScanConfig::new(cores.len()).on_cores(cores);
            column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &cfg);
            parts.push(m.wall_cycles() - before);
            total_bytes += bytes / 2;
        }
        cycles += parts.iter().cloned().fold(0.0, f64::max);
        total_bytes as f64 / (cycles / (p.hw.freq_ghz * 1e9)) / 1e9
    };
    let single = repeat(p.reps, |seed| {
        // One socket scans both halves locally (sequentially).
        let mut m = Machine::new(p.hw.clone(), Setting::SgxDataInEnclave);
        let mut col = m.alloc_on::<u8>(bytes, Region::Epc(0));
        let mut x = seed | 1;
        for i in 0..col.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            col.poke(i, (x >> 33) as u8);
        }
        let cfg = ScanConfig::new(t);
        let stats = column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &cfg);
        stats.gb_per_sec(p.hw.freq_ghz)
    });
    let striped = repeat(p.reps, |seed| {
        run(
            vec![
                (Region::Epc(0), (0..t).collect()),
                (Region::Epc(1), (t..2 * t).collect()),
            ],
            seed,
        )
    });
    let lopsided = repeat(p.reps, |seed| {
        run(
            vec![
                (Region::Epc(0), (0..t).collect()),
                (Region::Epc(0), (t..2 * t).collect()),
            ],
            seed,
        )
    });
    fig.push_series("throughput", vec![Some(single), Some(striped), Some(lopsided)]);
    fig.note("NUMA-aware striping doubles aggregate scan bandwidth; when allocations land on one node (the §4.3 placement problem) the remote half pays the UPI/UCE path and drags the aggregate down");
    fig
}
