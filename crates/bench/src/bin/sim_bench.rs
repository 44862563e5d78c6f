//! sim_bench — first-class simulator-throughput suite.
//!
//! Measures how fast the *host* grinds through simulated work
//! (events/sec, where an event is a simulated load/store/ALU/vector op)
//! on the kernels the hot-path rewrite targets:
//!
//! * `join-smoke` / `scan-smoke` — the exact legacy `bench_events`
//!   workloads, kept under the same row names so the `BENCH_*.json`
//!   trajectory stays comparable across PRs;
//! * `pht-build` / `pht-probe` — PHT join shapes dominated by the build
//!   (random RMW) and probe (stream + random read) phases respectively;
//! * `radix-join` — the RHO radix join (partitioning streams);
//! * `linear-scan` — a parallel 64-bit linear read;
//! * `random-access` — an LCG-driven random-store microloop (the
//!   `Core::access` path with no stream component);
//! * `tpch-q3` — the TPC-H Q3 plan at SF 0.01 (mixed operator soup);
//! * `ext-sort` — external merge sort (run formation + k-way merge with
//!   charged spill/reload);
//! * `dict-scan` / `rle-scan` — decompress-inside-enclave scan kernels
//!   over dictionary- and RLE-coded columns;
//! * `storage-path` — the sealed storage data path (GCM unseal + filter
//!   + grouped aggregate over a dict-coded column).
//!
//! Every row is warmup + median-of-N (N ≥ 5) with a real `±` spread from
//! the min–max of the repetitions (see `sgx_bench_core::simbench`).
//! Simulated results stay bit-deterministic; only wall-clock varies per
//! host, which is why these numbers live in checked-in `BENCH_pr<N>.json`
//! trajectory files rather than tests.
//!
//! Usage:
//!   sim_bench [--out FILE] [--commit ID] [--reps N] [--filter SUB]
//!             [--oracle]
//!   sim_bench --trend OLD.json NEW.json [--warn-only]
//!
//! `--oracle` forces every stream touch down the per-line slow path
//! (`Machine::force_stream_oracle`), so fast-path speedups can be
//! measured directly. `--trend` is the CI perf-trend gate: it compares
//! the watched rows (`join-smoke`, `scan-smoke`) of two trajectory files
//! and fails on a >30 % events/sec regression (`--warn-only` downgrades
//! that to a warning for 1-CPU or otherwise unsuitable hosts).

use sgx_bench_core::simbench::{compare_trend, document, load_rows, sample, BenchRow};
use sgx_joins::common::JoinConfig;
use sgx_joins::data::{gen_fk_relation, gen_pk_relation};
use sgx_joins::pht::pht_join;
use sgx_joins::rho::rho_join;
use sgx_bench_core::sgx_microbench::random_write::lcg_next;
use sgx_scans::linear::{linear_read, LinearConfig, Width};
use sgx_sim::config::scaled_profile;
use sgx_sim::counters::Counters;
use sgx_sim::machine::Machine;
use sgx_sim::mem::Setting;
use std::path::PathBuf;
#[expect(
    clippy::disallowed_types,
    reason = "host wall-clock IS the metric here — events/sec of the simulator itself"
)]
use std::time::Instant;

/// Simulated micro-operations in a counter delta.
fn events(d: &Counters) -> u64 {
    d.loads + d.stores + d.alu_ops + d.vec_ops
}

/// Fresh enclave-mode machine at the /16-scaled profile, optionally
/// forced onto the stream slow path.
fn machine(oracle: bool) -> Machine {
    let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
    m.force_stream_oracle(oracle);
    m
}

/// Time `f` on `m` and return events/sec of the simulated work it did.
fn rate(m: &mut Machine, f: impl FnOnce(&mut Machine)) -> f64 {
    let before = m.counters().clone();
    #[expect(
        clippy::disallowed_types,
        reason = "timing the host's simulation rate is the benchmark"
    )]
    let t0 = Instant::now();
    f(m);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    events(&m.counters().delta(&before)) as f64 / secs
}

fn join_smoke(oracle: bool) -> f64 {
    let mut m = machine(oracle);
    let r = gen_pk_relation(&mut m, 1 << 14, 0xC0FFEE);
    let s = gen_fk_relation(&mut m, 1 << 16, 1 << 14, 0xBEEF);
    let cfg = JoinConfig::new(2);
    rate(&mut m, |m| {
        std::hint::black_box(pht_join(m, &r, &s, &cfg));
    })
}

fn scan_smoke(oracle: bool) -> f64 {
    let mut m = machine(oracle);
    let v = m.alloc::<u64>(1 << 18);
    let cfg = LinearConfig::new(2).with_warmup(0).with_repeats(2);
    rate(&mut m, |m| {
        std::hint::black_box(linear_read(m, &v, Width::Bits64, &cfg));
    })
}

fn pht_build(oracle: bool) -> f64 {
    // Build-dominated shape: the build side outweighs the probe side 8:1,
    // so the latched random-RMW insert path sets the rate.
    let mut m = machine(oracle);
    let r = gen_pk_relation(&mut m, 1 << 17, 0xC0FFEE);
    let s = gen_fk_relation(&mut m, 1 << 14, 1 << 17, 0xBEEF);
    let cfg = JoinConfig::new(2);
    rate(&mut m, |m| {
        std::hint::black_box(pht_join(m, &r, &s, &cfg));
    })
}

fn pht_probe(oracle: bool) -> f64 {
    // Probe-dominated shape: a small table probed by a 64x larger outer
    // relation (stream reads + random table lookups).
    let mut m = machine(oracle);
    let r = gen_pk_relation(&mut m, 1 << 12, 0xC0FFEE);
    let s = gen_fk_relation(&mut m, 1 << 18, 1 << 12, 0xBEEF);
    let cfg = JoinConfig::new(2);
    rate(&mut m, |m| {
        std::hint::black_box(pht_join(m, &r, &s, &cfg));
    })
}

fn radix_join(oracle: bool) -> f64 {
    let mut m = machine(oracle);
    let r = gen_pk_relation(&mut m, 1 << 14, 0xC0FFEE);
    let s = gen_fk_relation(&mut m, 1 << 16, 1 << 14, 0xBEEF);
    let cfg = JoinConfig::new(2).with_radix_bits(8).with_optimization(true);
    rate(&mut m, |m| {
        std::hint::black_box(rho_join(m, &r, &s, &cfg));
    })
}

fn linear_scan(oracle: bool) -> f64 {
    // 8 MB — far beyond the scaled L3, so the stream fast path resolves
    // DRAM fills for most lines.
    let mut m = machine(oracle);
    let v = m.alloc::<u64>(1 << 20);
    let cfg = LinearConfig::new(2).with_warmup(0).with_repeats(2);
    rate(&mut m, |m| {
        std::hint::black_box(linear_read(m, &v, Width::Bits64, &cfg));
    })
}

fn random_access(oracle: bool) -> f64 {
    // LCG-driven independent stores over a 512 KB array: pure
    // `Core::access` random path, no stream component.
    let mut m = machine(oracle);
    let n = 1usize << 16;
    let mut v = m.alloc::<u64>(n);
    rate(&mut m, |m| {
        m.run(|c| {
            let mut x = 0x5EEDu64 | 1;
            for i in 0..(1u64 << 18) {
                x = lcg_next(x);
                v.set(c, (x >> 16) as usize % n, i);
            }
        });
    })
}

fn tpch_q3(oracle: bool) -> f64 {
    let mut m = machine(oracle);
    let db = sgx_tpch::gen::generate(&mut m, 0.01, 0x7C3);
    let cfg = sgx_tpch::queries::QueryConfig::new(2);
    rate(&mut m, |m| {
        std::hint::black_box(sgx_tpch::queries::q3(m, &db, &cfg));
    })
}

fn ext_sort(oracle: bool) -> f64 {
    // ~2 MB of SortRows against the /16-scaled L3: several spilled runs,
    // so both run formation and the k-way merge are on the clock.
    let mut m = machine(oracle);
    let n = 1usize << 17;
    let mut v = m.alloc::<sgx_tpch::SortRow>(n);
    let mut x = 0x5EEDu64 | 1;
    for i in 0..n {
        x = lcg_next(x);
        v.poke(i, sgx_tpch::SortRow { key: x, tag: i as u32 });
    }
    rate(&mut m, |m| {
        std::hint::black_box(sgx_tpch::external_merge_sort(m, &[0, 1], &v, n));
    })
}

fn dict_scan(oracle: bool) -> f64 {
    let mut m = machine(oracle);
    let values = sgx_tpch::storage::clustered_column(1 << 18, 0xD1C7);
    let col = sgx_tpch::DictColumn::encode(&mut m, &values);
    rate(&mut m, |m| {
        m.run(|c| {
            let mut acc = 0u64;
            col.scan(c, 0..col.len(), &mut |_c, _i, x| acc = acc.wrapping_add(x as u64));
            std::hint::black_box(acc);
        });
    })
}

fn rle_scan(oracle: bool) -> f64 {
    let mut m = machine(oracle);
    let values = sgx_tpch::storage::clustered_column(1 << 18, 0x41E5);
    let col = sgx_tpch::RleColumn::encode(&mut m, &values);
    rate(&mut m, |m| {
        m.run(|c| {
            let mut acc = 0u64;
            col.scan_runs(c, &mut |_c, v, l| acc = acc.wrapping_add(v as u64 * l as u64));
            std::hint::black_box(acc);
        });
    })
}

fn storage_path(oracle: bool) -> f64 {
    // Unseal (GCM-charged stream) + filter + group-count, dict layout.
    let mut m = machine(oracle);
    let values = sgx_tpch::storage::clustered_column(1 << 18, 0x5EA1);
    let col = sgx_tpch::seal_column(&mut m, &values, sgx_tpch::StorageFormat::Dict);
    rate(&mut m, |m| {
        std::hint::black_box(sgx_tpch::storage_path_query(m, &[0, 1], &col, 128, 64));
    })
}

/// One kernel: takes the `--oracle` flag, returns events/sec.
type Kernel = fn(bool) -> f64;

/// The suite, in reporting order.
const KERNELS: &[(&str, Kernel)] = &[
    ("join-smoke", join_smoke),
    ("scan-smoke", scan_smoke),
    ("pht-build", pht_build),
    ("pht-probe", pht_probe),
    ("radix-join", radix_join),
    ("linear-scan", linear_scan),
    ("random-access", random_access),
    ("tpch-q3", tpch_q3),
    ("ext-sort", ext_sort),
    ("dict-scan", dict_scan),
    ("rle-scan", rle_scan),
    ("storage-path", storage_path),
];

/// Rows the CI perf-trend gate watches across PRs.
const WATCHED: &[&str] = &["join-smoke", "scan-smoke"];
/// Allowed events/sec drop before the trend gate trips.
const ALLOWED_DROP: f64 = 0.30;

fn run_trend(old_path: &str, new_path: &str, warn_only: bool) -> ! {
    let load = |p: &str| -> Vec<BenchRow> {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("sim_bench: read {p}: {e}");
            std::process::exit(2);
        });
        load_rows(&text).unwrap_or_else(|e| {
            eprintln!("sim_bench: parse {p}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    let problems = compare_trend(&old, &new, WATCHED, ALLOWED_DROP);
    if problems.is_empty() {
        eprintln!("sim_bench: trend ok ({old_path} -> {new_path})");
        std::process::exit(0);
    }
    for p in &problems {
        eprintln!("sim_bench: perf-trend regression: {p}");
    }
    if warn_only {
        eprintln!(
            "sim_bench: WARNING ONLY — host unsuitable for trend enforcement (e.g. 1 CPU); \
             re-measure {new_path} on the trajectory's host class"
        );
        std::process::exit(0);
    }
    std::process::exit(1);
}

fn main() {
    let mut out_path: Option<PathBuf> = None;
    let mut commit = "worktree".to_string();
    let mut reps = 5usize;
    let mut filter: Option<String> = None;
    let mut oracle = false;
    let mut warn_only = false;
    let mut trend: Option<(String, String)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().map(PathBuf::from),
            "--commit" => {
                if let Some(c) = args.next() {
                    commit = c;
                }
            }
            "--reps" => {
                reps = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("sim_bench: --reps needs a number");
                    std::process::exit(2);
                });
            }
            "--filter" => filter = args.next(),
            "--oracle" => oracle = true,
            "--warn-only" => warn_only = true,
            "--trend" => {
                let (Some(o), Some(n)) = (args.next(), args.next()) else {
                    eprintln!("sim_bench: --trend needs OLD.json NEW.json");
                    std::process::exit(2);
                };
                trend = Some((o, n));
            }
            other => {
                eprintln!("sim_bench: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some((o, n)) = trend {
        run_trend(&o, &n, warn_only);
    }

    let mut rows: Vec<BenchRow> = Vec::new();
    for (name, kernel) in KERNELS {
        if let Some(f) = &filter {
            if !name.contains(f.as_str()) {
                continue;
            }
        }
        let s = sample(1, reps, || kernel(oracle));
        eprintln!(
            "sim_bench: {name:<14} {:>14.1} events/sec  (min {:.1}, max {:.1}, N={reps}{})",
            s.median,
            s.min,
            s.max,
            if oracle { ", oracle" } else { "" }
        );
        rows.push(BenchRow {
            name: name.to_string(),
            value: s.median,
            range: s.range(),
            unit: "events/sec".into(),
        });
    }

    if rows.is_empty() {
        // A typo'd --filter would otherwise emit an empty document that
        // downstream tooling happily records as "measured nothing, fine".
        eprintln!(
            "sim_bench: --filter {:?} matched no kernel (have: {})",
            filter.as_deref().unwrap_or(""),
            KERNELS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }

    let doc = document(&commit, "sim_bench hot-path suite", &rows);
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, doc.pretty() + "\n") {
                eprintln!("sim_bench: write {}: {e}", p.display());
                std::process::exit(1);
            }
            eprintln!("sim_bench: wrote {}", p.display());
        }
        None => println!("{}", doc.pretty()),
    }
}
