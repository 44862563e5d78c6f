#![cfg(test)]
//! Behavioural tests of the layered machine pipeline. `super` is the
//! `machine` facade, exactly as when these lived inline there.

use super::*;
use crate::config::{scaled_profile, xeon_gold_6326};
use crate::faults::FaultProfile;
use crate::mem::{Region, SimSink, SimVec, VecSlot};
use crate::profile::{CategoryCycles, CostCategory};

fn machine(setting: Setting) -> Machine {
    Machine::new(scaled_profile(), setting)
}

#[test]
fn wall_advances_with_work() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1024);
    assert_eq!(m.wall_cycles(), 0.0);
    m.run(|c| {
        let mut s = 0u64;
        for i in 0..1024 {
            s = s.wrapping_add(v.get(c, i));
        }
        assert_eq!(s, 0);
    });
    assert!(m.wall_cycles() > 0.0);
}

#[test]
fn repeated_access_hits_cache_and_gets_cheaper() {
    let mut m = machine(Setting::PlainCpu);
    // 2 KB fits the scaled 3 KB L1d; access in a scrambled order so the
    // stream detector cannot kick in.
    let v = m.alloc::<u64>(256);
    let pass = |m: &mut Machine, v: &SimVec<u64>| {
        m.run(|c| {
            for k in 0..10_000usize {
                v.get(c, (k * 97) % v.len());
            }
            c.busy_cycles()
        })
    };
    let cold = pass(&mut m, &v);
    let warm = pass(&mut m, &v);
    assert!(warm < cold, "warm {warm} !< cold {cold}");
    assert!(m.counters().l1_hits > 0);
}

#[test]
fn enclave_epc_random_access_slower_than_native() {
    let run = |setting: Setting| {
        let mut m = machine(setting);
        let mut v = m.alloc::<u64>(1 << 20); // 8 MB >> scaled L3 (1.5 MB)
        m.run(|c| {
            let mut x = 12345u64;
            for _ in 0..100_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let i = (x >> 33) as usize % v.len();
                v.rmw(c, i, |e| *e += 1);
            }
        });
        m.wall_cycles()
    };
    let native = run(Setting::PlainCpu);
    let enclave = run(Setting::SgxDataInEnclave);
    assert!(
        enclave > 1.5 * native,
        "EPC random access should be much slower: native {native}, enclave {enclave}"
    );
}

#[test]
fn streaming_is_much_cheaper_than_random_per_byte() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1 << 20);
    let stream = m.run(|c| {
        v.read_stream(c, 0..v.len(), |_, _, _| {});
        c.busy_cycles()
    });
    m.flush_caches();
    let random = m.run(|c| {
        let mut x = 9u64;
        for _ in 0..v.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.get(c, (x >> 33) as usize % v.len());
        }
        c.busy_cycles()
    });
    assert!(
        random > 3.0 * stream,
        "random {random} should dwarf stream {stream} for same element count"
    );
}

#[test]
fn groups_help_only_in_enclave_mode() {
    // The paper's Listing 1/2 pattern: scan a key array sequentially
    // and bump a cache-resident histogram per key. The naive loop
    // alternates objects every iteration and suffers the enclave
    // serialization penalty; the 8x-unrolled variant (issue groups)
    // recovers it.
    let run = |setting: Setting, grouped: bool| {
        let mut m = machine(setting);
        let mut keys = m.alloc::<u64>(16 * 1024);
        for i in 0..keys.len() {
            keys.poke(i, (i as u64).wrapping_mul(2654435761) % 512);
        }
        let mut hist = m.alloc::<u32>(512); // cache-resident
        m.run(|c| {
            if grouped {
                let mut batch = [0usize; 8];
                let mut fill = 0;
                keys.read_stream(c, 0..keys.len(), |c, _, k| {
                    batch[fill] = k as usize;
                    fill += 1;
                    if fill == 8 {
                        c.group(|c| {
                            for &i in &batch {
                                hist.rmw(c, i, |e| *e += 1);
                            }
                        });
                        fill = 0;
                    }
                });
            } else {
                keys.read_stream(c, 0..keys.len(), |c, _, k| {
                    hist.rmw(c, k as usize, |e| *e += 1);
                });
            }
        });
        m.wall_cycles()
    };
    let native_plain = run(Setting::PlainCpu, false);
    let native_grouped = run(Setting::PlainCpu, true);
    let enclave_plain = run(Setting::SgxDataInEnclave, false);
    let enclave_grouped = run(Setting::SgxDataInEnclave, true);
    // Native: grouping is irrelevant (the OOO engine already reorders).
    assert!((native_plain - native_grouped).abs() / native_plain < 0.05);
    // Enclave: ungrouped far slower; grouping recovers most of it.
    assert!(enclave_plain > 2.0 * native_plain);
    assert!(enclave_grouped < 0.6 * enclave_plain);
}

#[test]
fn unroll_issues_only_full_batches_in_push_order() {
    fn check<const N: usize>(c: &mut Core<'_>) {
        for n in [0, 1, N - 1, N, N + 1, 3 * N + 5] {
            let mut batch = Unroll::<usize, N>::default();
            let mut issued = Vec::new();
            for i in 0..n {
                batch.push(c, i, |_, items| {
                    assert_eq!(items.len(), N, "only full batches are issued");
                    issued.extend_from_slice(items);
                });
            }
            let full = n / N * N;
            assert_eq!(issued, (0..full).collect::<Vec<_>>(), "n={n}");
            assert_eq!(batch.rest(), (full..n).collect::<Vec<_>>(), "n={n}");
        }
    }
    let mut m = machine(Setting::PlainCpu);
    m.run(|c| {
        check::<8>(c);
        check::<32>(c);
    });
    assert_eq!(m.wall_cycles(), 0.0, "batching charges nothing itself");
}

#[test]
fn worker_range_partitions_aligned_and_keeps_the_packed_word_split() {
    for n in 0..2_000usize {
        for t in 1..=16usize {
            for align in [1usize, 8, 64] {
                let ranges: Vec<_> = (0..t).map(|w| worker_range(n, t, align, w)).collect();
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[t - 1].end, n, "n={n} t={t} align={align}");
                for r in &ranges {
                    assert!(r.start <= r.end);
                    assert!(r.start % align == 0 || r.start == n, "n={n} t={t} {r:?}");
                }
                assert!(ranges.windows(2).all(|p| p[0].end == p[1].start));
            }
            // `packed_scan_count`'s word split: ⌈⌈n/p⌉/t⌉ words per worker.
            for p in [2usize, 5, 8, 16, 64] {
                let words_per = n.div_ceil(p).div_ceil(t);
                for w in 0..t {
                    let old = (w * words_per * p).min(n)..((w + 1) * words_per * p).min(n);
                    assert_eq!(worker_range(n, t, p, w), old, "n={n} t={t} p={p} w={w}");
                }
            }
        }
    }
}

#[test]
fn same_object_increments_have_no_enclave_penalty() {
    // §4.2: "incrementing the values inside a cache-resident histogram
    // alone is not the cause of the slowdown" — an LCG-indexed
    // increment loop over one small array runs at native speed.
    let run = |setting: Setting| {
        let mut m = machine(setting);
        let mut hist = m.alloc::<u32>(512);
        m.run(|c| {
            let mut x = 7u64;
            for _ in 0..8000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                c.compute(3);
                hist.rmw(c, (x >> 33) as usize % 512, |e| *e += 1);
            }
        });
        m.wall_cycles()
    };
    let native = run(Setting::PlainCpu);
    let enclave = run(Setting::SgxDataInEnclave);
    assert!(
        enclave < 1.3 * native,
        "increment-only loop should be near-native: native {native}, enclave {enclave}"
    );
}

#[test]
fn data_outside_enclave_avoids_mee_but_keeps_execution_penalty() {
    // Histogram-like pattern over a large table: the execution penalty
    // (object-alternating loads) hits both SGX settings; the MEE fill
    // latency additionally hits only the data-in-enclave setting.
    let run = |setting: Setting| {
        let mut m = machine(setting);
        let keys = m.alloc::<u64>(64 * 1024);
        let mut table = m.alloc::<u64>(1 << 20); // 8 MB >> scaled L3
        m.run(|c| {
            keys.read_stream(c, 0..keys.len(), |c, i, _| {
                let idx = (i as u64).wrapping_mul(2654435761) as usize % table.len();
                table.rmw(c, idx, |e| *e += 1);
            });
        });
        m.wall_cycles()
    };
    let native = run(Setting::PlainCpu);
    let outside = run(Setting::SgxDataOutside);
    let inside = run(Setting::SgxDataInEnclave);
    assert!(outside > 1.2 * native, "enclave execution penalty missing");
    assert!(inside > 1.1 * outside, "MEE penalty missing");
}

#[test]
fn remote_access_slower_and_counts_upi() {
    let mut m = Machine::new(xeon_gold_6326().scaled(16), Setting::PlainCpu);
    let local = m.alloc_on::<u64>(1 << 18, Region::Untrusted(0));
    let remote = m.alloc_on::<u64>(1 << 18, Region::Untrusted(1));
    let t_local = m.run(|c| {
        let mut x = 5u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            local.get(c, (x >> 33) as usize % local.len());
        }
        c.busy_cycles()
    });
    assert_eq!(m.counters().remote_fills, 0);
    let t_remote = m.run(|c| {
        let mut x = 5u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            remote.get(c, (x >> 33) as usize % remote.len());
        }
        c.busy_cycles()
    });
    assert!(m.counters().remote_fills > 0);
    assert!(t_remote > t_local, "remote {t_remote} !> local {t_local}");
}

#[test]
fn parallel_phase_wall_is_max_of_workers() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1 << 16);
    let stats = m.parallel(&[0, 1, 2, 3], |c| {
        // Worker i does i+1 chunks of work.
        let n = (c.id() + 1) * 1000;
        for i in 0..n {
            v.get(c, i % v.len());
        }
    });
    assert_eq!(stats.core_cycles.len(), 4);
    let max = stats.core_cycles.iter().cloned().fold(0.0, f64::max);
    assert!(stats.wall_cycles >= max);
    assert!(stats.core_cycles[3] > stats.core_cycles[0]);
}

#[test]
fn bandwidth_regulation_caps_parallel_streams() {
    // 16 cores all streaming: aggregate demand exceeds the socket cap,
    // so wall time must exceed a single worker's busy time.
    let mut m = machine(Setting::PlainCpu);
    let vs: Vec<SimVec<u64>> = (0..16).map(|_| m.alloc::<u64>(1 << 18)).collect();
    let stats = m.parallel(&(0..16).collect::<Vec<_>>(), |c| {
        let v = &vs[c.id()];
        v.read_stream(c, 0..v.len(), |_, _, _| {});
    });
    assert!(stats.bandwidth_bound, "16 streaming cores should hit the BW cap");
}

#[test]
fn saturated_phase_wall_equals_bandwidth_bound() {
    let mut m = machine(Setting::PlainCpu);
    let vs: Vec<SimVec<u64>> = (0..16).map(|_| m.alloc::<u64>(1 << 18)).collect();
    let stats = m.parallel(&(0..16).collect::<Vec<_>>(), |c| {
        let v = &vs[c.id()];
        v.read_stream_vec(c, 0..v.len(), |_, _, _| {});
    });
    assert!(stats.bandwidth_bound);
    let bytes = 16.0 * (1u64 << 18) as f64 * 8.0;
    let bound = bytes * m.cfg().mem.socket_bw_cycles_per_byte;
    assert!(
        (stats.wall_cycles - bound).abs() / bound < 1e-9,
        "wall {} should equal the exact bandwidth bound {}",
        stats.wall_cycles,
        bound
    );
}

#[test]
fn edmm_commit_charged_once_per_page() {
    let mut m = machine(Setting::SgxDataInEnclave);
    let _static_heap = m.alloc::<u64>(1024);
    m.seal_enclave();
    let mut dyn_vec = m.alloc::<u64>(2048); // 16 KB = 4 pages
    m.run(|c| {
        for i in 0..dyn_vec.len() {
            dyn_vec.set(c, i, 1);
        }
    });
    assert_eq!(m.counters().edmm_pages, 4);
    let w1 = m.wall_cycles();
    // Second pass: pages already committed, no further EDMM cost.
    m.run(|c| {
        for i in 0..dyn_vec.len() {
            dyn_vec.set(c, i, 2);
        }
    });
    assert_eq!(m.counters().edmm_pages, 4);
    assert!(m.wall_cycles() - w1 < w1);
}

#[test]
fn edmm_not_charged_without_seal_or_in_native() {
    let mut m = machine(Setting::SgxDataInEnclave);
    let mut v = m.alloc::<u64>(2048);
    m.run(|c| {
        for i in 0..v.len() {
            v.set(c, i, 1);
        }
    });
    assert_eq!(m.counters().edmm_pages, 0);
    let mut m = machine(Setting::PlainCpu);
    m.seal_enclave();
    let mut v = m.alloc::<u64>(2048);
    m.run(|c| {
        for i in 0..v.len() {
            v.set(c, i, 1);
        }
    });
    assert_eq!(m.counters().edmm_pages, 0);
}

#[test]
fn sgxv1_pager_charges_faults() {
    let cfg = xeon_gold_6326().scaled(16).sgxv1();
    let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
    // Allocate far more than the scaled resident budget (92 MB/16 ≈ 5.75 MB).
    let v = m.alloc::<u64>(4 << 20); // 32 MB
    m.run(|c| {
        v.read_stream(c, 0..v.len(), |_, _, _| {});
    });
    assert!(m.counters().epc_page_faults > 0);
}

#[test]
fn tlb_misses_charged_for_page_spread_working_sets() {
    let mut m = machine(Setting::PlainCpu);
    // One value per page over far more pages than the scaled TLB (96
    // entries at 1/16 scale).
    let v = m.alloc::<u64>(512 * 512); // 2 MB = 512 pages
    let spread = m.run(|c| {
        for p in 0..512 {
            let _ = v.get(c, p * 512);
        }
        c.busy_cycles()
    });
    assert!(m.counters().tlb_misses >= 512);
    // Same number of accesses inside a few pages: no walks after the
    // first touches.
    m.flush_caches();
    let before = m.counters().tlb_misses;
    let dense = m.run(|c| {
        for k in 0..512 {
            let _ = v.get(c, (k * 7) % 512);
        }
        c.busy_cycles()
    });
    assert!(m.counters().tlb_misses - before <= 8);
    assert!(spread > dense, "page-spread accesses must cost more: {spread} vs {dense}");
}

#[test]
fn nt_store_bypasses_cache_and_halves_bus_traffic() {
    let mut m = machine(Setting::PlainCpu);
    let mut v = m.alloc::<u64>(8192);
    m.run(|c| {
        c.stream_store_line(v.addr(0));
        for k in 0..8 {
            v.poke(k, 7);
        }
    });
    // The line is not cached afterwards: the next read misses.
    let fills_before = m.counters().dram_fills;
    m.run(|c| {
        let _ = v.get(c, 0);
    });
    assert_eq!(m.counters().dram_fills, fills_before + 1, "NT store must not install");
}

#[test]
fn epc_capacity_is_enforced() {
    let mut cfg = scaled_profile();
    cfg.epc_per_socket = 1 << 20; // 1 MB EPC
    let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
    assert!(m.try_alloc_on::<u64>(64 * 1024, Region::Epc(0)).is_some()); // 512 KB
    assert!(m.try_alloc_on::<u64>(128 * 1024, Region::Epc(0)).is_none()); // would exceed
    // The other socket's EPC and untrusted memory are unaffected.
    assert!(m.try_alloc_on::<u64>(64 * 1024, Region::Epc(1)).is_some());
    assert!(m.try_alloc_on::<u64>(10 << 20, Region::Untrusted(0)).is_some());
    assert!(m.region_used(Region::Epc(0)) <= 1 << 20);
}

#[test]
#[should_panic(expected = "EPC capacity exceeded")]
fn epc_overflow_panics_on_infallible_alloc() {
    let mut cfg = scaled_profile();
    cfg.epc_per_socket = 4096;
    let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
    let _ = m.alloc_on::<u64>(1024, Region::Epc(0));
}

#[test]
fn transition_costs_only_in_enclave() {
    let mut m = machine(Setting::SgxDataInEnclave);
    m.ecall();
    assert!(m.wall_cycles() > 0.0);
    assert_eq!(m.counters().transitions, 2);
    let mut m = machine(Setting::PlainCpu);
    m.ecall();
    assert_eq!(m.wall_cycles(), 0.0);
    assert_eq!(m.counters().transitions, 0);
}

/// The enclave-transition micro-benchmark behind §4.4's mutex and
/// memory-allocation findings: the average cost of an OCALL round trip
/// issued from a worker.
#[test]
fn transitions_cost_tens_of_thousands_of_cycles_only_in_enclave() {
    let round_trip = |setting| {
        let n = 100;
        let mut m = machine(setting);
        m.run(|c| {
            for _ in 0..n {
                c.transition(); // OCALL out
                c.transition(); // EENTER back
            }
        });
        m.wall_cycles() / n as f64
    };
    let native = round_trip(Setting::PlainCpu);
    assert_eq!(native, 0.0, "no boundary to cross natively");
    let sgx = round_trip(Setting::SgxDataInEnclave);
    // TEEBench/sgx-perf report ~8k-14k cycles per one-way crossing.
    assert!((15_000.0..30_000.0).contains(&sgx), "round trip {sgx}");
}

#[test]
fn stream_writer_charges_and_writes() {
    let mut m = machine(Setting::PlainCpu);
    let mut v = m.alloc::<u64>(4096);
    m.run(|c| {
        let mut w = v.stream_writer(0);
        for i in 0..4096u64 {
            w.push(c, i * 2);
        }
    });
    assert!(m.wall_cycles() > 0.0);
    assert_eq!(v.peek(17), 34);
    assert!(m.counters().stream_lines >= 4096 * 8 / 64);
}

/// Slots of the sink lockstep test's output array: deliberately not a
/// whole number of cache lines, so the next allocation's alignment shows.
const SINK_SLOTS: usize = 12_003;

/// One machine writes scattered runs the way a scan's workers do: worker
/// `w` of four writes runs `3w..3w + 3`, each from a fresh writer at a
/// non-line-aligned start slot. Through a `SimVec<u64>` stream writer
/// (`sink == false`) or a sink writer, it returns the counters, the wall
/// clock's bits, the next allocation's address and the digest of what was
/// written: the sink's own, or a host-side fold over the `SimVec`.
fn sink_lockstep(
    setting: Setting,
    remote: bool,
    faults: bool,
    sink: bool,
) -> (Counters, u64, u64, u64) {
    let mut m = Machine::new(xeon_gold_6326().scaled(16), setting);
    if faults {
        let storm = FaultProfile::new(7).with_aex_storm(2_000.0);
        m.install_faults(storm.with_epc_pressure(0.0, 64 << 10));
    }
    let _column = m.alloc::<u8>(777);
    let first = if remote { m.cfg().cores_per_socket } else { 0 };
    let cores: Vec<usize> = (first..first + 4).collect();
    let runs: Vec<(usize, usize)> =
        (0..12).map(|k| (k * 1000 + k * 37 % 61, 1 + k * 113 % 600)).collect();
    let value = |slot: usize| (slot as u64).wrapping_mul(0x9E37_79B9) ^ 0xA5;
    let digest = if sink {
        let mut out = m.alloc_sink(SINK_SLOTS);
        m.parallel(&cores, |c| {
            for &(start, count) in &runs[3 * c.worker()..][..3] {
                let mut w = out.stream_writer(start);
                for slot in start..start + count {
                    w.push(c, value(slot));
                }
            }
        });
        out.digest()
    } else {
        let mut out = m.alloc::<u64>(SINK_SLOTS);
        m.parallel(&cores, |c| {
            for &(start, count) in &runs[3 * c.worker()..][..3] {
                let mut w = out.stream_writer(start);
                for slot in start..start + count {
                    w.push(c, value(slot));
                }
            }
        });
        runs.iter()
            .flat_map(|&(start, count)| start..start + count)
            .fold(0u64, |d, slot| d.wrapping_add(SimSink::slot_digest(slot, out.peek(slot))))
    };
    let next = m.alloc::<u64>(1).addr(0);
    (m.counters().clone(), m.wall_cycles().to_bits(), next, digest)
}

/// A sink is a `SimVec<u64>` to the cost model: the same writes give
/// bit-identical clocks and counters and leave the allocator at the same
/// address, with and without a fault engine installed, for untrusted,
/// EPC and remote-node data. Its digest equals the fold of
/// [`SimSink::slot_digest`] over what the `SimVec` holds.
#[test]
fn sink_writer_charges_exactly_like_a_stream_writer() {
    for (name, setting, remote) in [
        ("native untrusted", Setting::PlainCpu, false),
        ("enclave untrusted", Setting::SgxDataOutside, false),
        ("epc", Setting::SgxDataInEnclave, false),
        ("remote epc", Setting::SgxDataInEnclave, true),
    ] {
        for faults in [true, false] {
            let vec = sink_lockstep(setting, remote, faults, false);
            let sink = sink_lockstep(setting, remote, faults, true);
            let label = format!("{name}, {}", if faults { "fault engine" } else { "no faults" });
            let counters = |s: &(Counters, u64, u64, u64)| format!("{:?}", s.0);
            assert_eq!(counters(&vec), counters(&sink), "{label}: counters diverge");
            assert_eq!(
                vec.1,
                sink.1,
                "{label}: wall clock diverges ({} vs {})",
                f64::from_bits(vec.1),
                f64::from_bits(sink.1)
            );
            assert_eq!(vec.2, sink.2, "{label}: the next allocation moved");
            assert_eq!(vec.3, sink.3, "{label}: sink digest differs from the written values");
            assert_ne!(sink.3, 0, "{label}: the runs must write something");
            // The variants exercise what they are named for.
            assert_eq!(sink.0.remote_fills > 0, remote, "{label}: remote fills");
            if faults && setting != Setting::PlainCpu {
                assert!(sink.0.aex_events > 0, "{label}: the storm must strike mid-run");
            }
            if faults && setting == Setting::SgxDataInEnclave {
                assert!(sink.0.epc_page_faults > 0, "{label}: the balloon must page");
            }
        }
    }
}

/// An 8-byte element shaped like a join relation's row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Row {
    key: u32,
    payload: u32,
}

/// Elements per worker array in the reservation lockstep test: not a
/// whole number of cache lines, so every array's alignment shows.
const SCRATCH_ROWS: usize = 1_003;

/// Four workers of one phase each fill and re-read a `SimVec<Row>` of
/// their own with scattered stores, loads and read-modify-writes, after
/// an odd-sized input array. The arrays are allocated up front
/// (`deferred == false`), or reserved up front and backed by their worker
/// when it runs. With `seal`, the enclave is sealed before the arrays, so
/// their first touches are EDMM commits. Returns the counters, the wall
/// clock's bits, every array's first and last element address, and the
/// next allocation's address.
fn reserve_lockstep(
    setting: Setting,
    seal: bool,
    deferred: bool,
) -> (Counters, u64, Vec<u64>, u64) {
    let mut m = Machine::new(xeon_gold_6326().scaled(16), setting);
    let _input = m.alloc::<u8>(777);
    if seal {
        m.seal_enclave();
    }
    let cores: Vec<usize> = (0..4).collect();
    fn work(c: &mut Core, v: &mut SimVec<Row>) {
        let w = c.worker() as u32;
        for k in 0..SCRATCH_ROWS {
            let i = k * 389 % SCRATCH_ROWS;
            v.set(c, i, Row { key: i as u32 ^ w, payload: k as u32 });
        }
        for k in 0..SCRATCH_ROWS / 3 {
            let i = k * 7 % SCRATCH_ROWS;
            let row = v.get(c, i);
            v.rmw(c, (i + row.payload as usize) % SCRATCH_ROWS, |r| r.key += 1);
        }
    }
    let ends = |v: &SimVec<Row>| [v.addr(0), v.addr(SCRATCH_ROWS - 1)];
    let mut addrs = Vec::new();
    if deferred {
        let mut slots: Vec<Option<VecSlot<Row>>> =
            (0..4).map(|_| Some(m.reserve_vec(SCRATCH_ROWS))).collect();
        m.parallel(&cores, |c| {
            let mut v = slots[c.worker()].take().expect("each worker backs its slot once").alloc();
            work(c, &mut v);
            addrs.extend(ends(&v));
        });
    } else {
        let mut vecs: Vec<SimVec<Row>> = (0..4).map(|_| m.alloc(SCRATCH_ROWS)).collect();
        m.parallel(&cores, |c| {
            let v = &mut vecs[c.worker()];
            work(c, v);
            addrs.extend(ends(v));
        });
    }
    let next = m.alloc::<u64>(1).addr(0);
    (m.counters().clone(), m.wall_cycles().to_bits(), addrs, next)
}

/// A reserved vector backed inside its worker's closure is the vector
/// `alloc` would have made at the reservation: the same accesses give
/// bit-identical clocks, counters and addresses, and leave the allocator
/// at the same address, natively, in the EPC and after the seal (EDMM).
#[test]
fn reserved_vecs_backed_per_worker_charge_exactly_like_allocated_ones() {
    for (name, setting, seal) in [
        ("native", Setting::PlainCpu, false),
        ("epc", Setting::SgxDataInEnclave, false),
        ("epc after seal", Setting::SgxDataInEnclave, true),
    ] {
        let up_front = reserve_lockstep(setting, seal, false);
        let deferred = reserve_lockstep(setting, seal, true);
        assert_eq!(
            format!("{:?}", up_front.0),
            format!("{:?}", deferred.0),
            "{name}: counters diverge"
        );
        assert_eq!(
            up_front.1,
            deferred.1,
            "{name}: wall clock diverges ({} vs {})",
            f64::from_bits(up_front.1),
            f64::from_bits(deferred.1)
        );
        assert_eq!(up_front.2, deferred.2, "{name}: element addresses differ");
        assert_eq!(up_front.3, deferred.3, "{name}: the next allocation moved");
        // The variants exercise what they are named for.
        assert_eq!(deferred.0.epc_fills > 0, setting == Setting::SgxDataInEnclave, "{name}");
        assert_eq!(deferred.0.edmm_pages > 0, seal, "{name}: EDMM commits");
    }
}

#[test]
#[should_panic(expected = "EPC capacity exceeded on node 0")]
fn reservation_past_epc_capacity_panics_like_alloc_on() {
    let mut cfg = scaled_profile();
    cfg.epc_per_socket = 4096;
    let mut m = Machine::new(cfg, Setting::SgxDataInEnclave);
    let _ = m.reserve_vec::<u64>(1024);
}

#[test]
#[should_panic(expected = "sink write at slot 4 of 4")]
fn sink_writes_past_the_end_panic() {
    let mut m = machine(Setting::PlainCpu);
    let mut out = m.alloc_sink(4);
    m.run(|c| {
        let mut w = out.stream_writer(0);
        for v in 0..5 {
            w.push(c, v);
        }
    });
}

#[test]
fn vec_stream_charges_fewer_issues_than_scalar() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u32>(1 << 16);
    let scalar = m.run(|c| {
        v.read_stream(c, 0..v.len(), |_, _, _| {});
        c.busy_cycles()
    });
    m.flush_caches();
    let vector = m.run(|c| {
        v.read_stream_vec(c, 0..v.len(), |_, _, _| {});
        c.busy_cycles()
    });
    assert!(vector < scalar, "vector {vector} !< scalar {scalar}");
}

#[test]
fn dependent_chains_serialize_natively_too() {
    let mut m = machine(Setting::PlainCpu);
    let v = m.alloc::<u64>(1 << 20);
    let pooled = m.run(|c| {
        let mut x = 5u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.get(c, (x >> 33) as usize % v.len());
        }
        c.busy_cycles()
    });
    m.flush_caches();
    let serial = m.run(|c| {
        c.dependent(|c| {
            let mut x = 5u64;
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                v.get(c, (x >> 33) as usize % v.len());
            }
        });
        c.busy_cycles()
    });
    assert!(serial > 2.0 * pooled, "serial {serial} !> 2x pooled {pooled}");
}

/// The single-line touch's two-way category pick is the nine-bin
/// `CostCategory::dominant` scan over the bins the touch fills: the served
/// line's category and `Compute`. Covers every category, a line cost above
/// and below the issue cost, a tie, and the zero-issue touch of a stream
/// store (`stream_store_elem` passes `elems = 0`).
#[test]
fn touch_category_is_dominant_over_the_touch_bins() {
    for cat in CostCategory::ALL {
        for (line, issue) in [(6.0, 4.0), (1.0, 4.0), (2.5, 2.5), (1.0, 0.0)] {
            let mut bins = CategoryCycles::default();
            bins.add(cat, line);
            bins.add(CostCategory::Compute, issue);
            assert_eq!(
                access::touch_category(line, issue, cat),
                CostCategory::dominant(&bins),
                "{cat:?}: line {line}, issue {issue}"
            );
        }
    }
}

#[test]
fn run_on_pins_to_socket() {
    let mut m = Machine::new(xeon_gold_6326().scaled(16), Setting::PlainCpu);
    let remote_core = m.cfg().cores_per_socket; // first core of socket 1
    m.run_on(remote_core, |c| {
        assert_eq!(c.socket(), 1);
    });
}
