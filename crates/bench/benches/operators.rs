//! Criterion benches over the operator implementations (small inputs).
//!
//! These measure the *simulator's* execution speed per operator — useful
//! for keeping the reproduction fast — while `all_figures` reports the
//! *simulated* (paper-comparable) numbers. One bench group per
//! experiment family.

use criterion::{criterion_group, criterion_main, Criterion};
use sgx_bench_core::prelude::*;
use sgx_bench_core::sgx_joins::{
    cht::cht_join, crkjoin::crk_join, inl::inl_join, mway::mway_join, pht::pht_join,
    rho::rho_join,
};
use sgx_bench_core::sgx_microbench;
use sgx_bench_core::sgx_scans::{linear_read, LinearConfig, PackedColumn, packed_scan_count, Width};
use sgx_bench_core::sgx_tpch::group_count;
use std::hint::black_box;

const NR: usize = 20_000;
const NS: usize = 80_000;

fn bench_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("joins");
    g.sample_size(10);
    for setting in [Setting::PlainCpu, Setting::SgxDataInEnclave] {
        let tag = match setting {
            Setting::PlainCpu => "native",
            _ => "sgx",
        };
        g.bench_function(format!("rho/{tag}"), |b| {
            b.iter(|| {
                let mut m = Machine::new(config::scaled_profile(), setting);
                let r = gen_pk_relation(&mut m, NR, 1);
                let s = gen_fk_relation(&mut m, NS, NR, 2);
                let cfg = JoinConfig::new(8).with_radix_bits(6);
                black_box(rho_join(&mut m, &r, &s, &cfg).matches)
            })
        });
        g.bench_function(format!("pht/{tag}"), |b| {
            b.iter(|| {
                let mut m = Machine::new(config::scaled_profile(), setting);
                let r = gen_pk_relation(&mut m, NR, 1);
                let s = gen_fk_relation(&mut m, NS, NR, 2);
                black_box(pht_join(&mut m, &r, &s, &JoinConfig::new(8)).matches)
            })
        });
    }
    g.bench_function("mway/native", |b| {
        b.iter(|| {
            let mut m = Machine::new(config::scaled_profile(), Setting::PlainCpu);
            let r = gen_pk_relation(&mut m, NR, 1);
            let s = gen_fk_relation(&mut m, NS, NR, 2);
            black_box(mway_join(&mut m, &r, &s, &JoinConfig::new(8)).matches)
        })
    });
    g.bench_function("inl/native", |b| {
        b.iter(|| {
            let mut m = Machine::new(config::scaled_profile(), Setting::PlainCpu);
            let r = gen_pk_relation(&mut m, NR, 1);
            let s = gen_fk_relation(&mut m, NS, NR, 2);
            black_box(inl_join(&mut m, &r, &s, &JoinConfig::new(8)).matches)
        })
    });
    g.bench_function("crk/native", |b| {
        b.iter(|| {
            let mut m = Machine::new(config::scaled_profile(), Setting::PlainCpu);
            let mut r = gen_pk_relation(&mut m, NR, 1);
            let mut s = gen_fk_relation(&mut m, NS, NR, 2);
            black_box(crk_join(&mut m, &mut r, &mut s, &JoinConfig::new(8).with_radix_bits(8)).matches)
        })
    });
    g.bench_function("cht/sgx", |b| {
        b.iter(|| {
            let mut m = Machine::new(config::scaled_profile(), Setting::SgxDataInEnclave);
            let r = gen_pk_relation(&mut m, NR, 1);
            let s = gen_fk_relation(&mut m, NS, NR, 2);
            black_box(cht_join(&mut m, &r, &s, &JoinConfig::new(8)).matches)
        })
    });
    g.finish();
}

fn bench_packed_and_linear(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan_kernels");
    g.sample_size(10);
    g.bench_function("packed12/sgx", |b| {
        let mut m = Machine::new(config::scaled_profile(), Setting::SgxDataInEnclave);
        let vals: Vec<u32> = (0..1_000_000u32).map(|i| i.wrapping_mul(2654435761) & 4095).collect();
        let col = PackedColumn::pack(&mut m, &vals, 12);
        b.iter(|| black_box(packed_scan_count(&mut m, &col, 1, 100, &[0, 1, 2, 3])))
    });
    g.bench_function("linear512/sgx", |b| {
        let mut m = Machine::new(config::scaled_profile(), Setting::SgxDataInEnclave);
        let v = m.alloc::<u64>(1 << 20);
        b.iter(|| black_box(linear_read(&mut m, &v, Width::Bits512, &LinearConfig::new(8))))
    });
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation");
    g.sample_size(10);
    for optimized in [false, true] {
        let tag = if optimized { "opt" } else { "naive" };
        g.bench_function(format!("group_count/{tag}"), |b| {
            let mut m = Machine::new(config::scaled_profile(), Setting::SgxDataInEnclave);
            let mut rows = m.alloc::<Row>(500_000);
            for i in 0..rows.len() {
                rows.poke(i, Row { key: (i as u32).wrapping_mul(2654435761), payload: 0 });
            }
            b.iter(|| {
                black_box(group_count(&mut m, &[0, 1, 2, 3], &rows, 1024, optimized).counts)
            })
        });
    }
    g.finish();
}

fn bench_scans(c: &mut Criterion) {
    let mut g = c.benchmark_group("scans");
    g.sample_size(10);
    for setting in [Setting::PlainCpu, Setting::SgxDataInEnclave] {
        let tag = match setting {
            Setting::PlainCpu => "native",
            _ => "sgx",
        };
        g.bench_function(format!("bitvector/{tag}"), |b| {
            b.iter(|| {
                let mut m = Machine::new(config::scaled_profile(), setting);
                let col = gen_column(&mut m, 1 << 20, 3);
                let stats =
                    column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &ScanConfig::new(8));
                black_box(stats.matches)
            })
        });
    }
    g.finish();
}

fn bench_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro");
    g.sample_size(10);
    g.bench_function("histogram/naive", |b| {
        b.iter(|| {
            let r = histogram_bench(
                config::scaled_profile(),
                Setting::SgxDataInEnclave,
                200_000,
                1024,
                HistKernel::Naive,
                5,
            );
            black_box(r.cycles)
        })
    });
    g.bench_function("pointer_chase", |b| {
        b.iter(|| {
            let r = sgx_microbench::pointer_chase(
                config::scaled_profile(),
                Setting::SgxDataInEnclave,
                4 << 20,
                50_000,
                5,
            );
            black_box(r.cycles)
        })
    });
    g.finish();
}

fn bench_tpch(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpch");
    g.sample_size(10);
    g.bench_function("q3/sf0.005", |b| {
        b.iter(|| {
            let mut m = Machine::new(config::scaled_profile(), Setting::SgxDataInEnclave);
            let db = sgx_bench_core::sgx_tpch::generate(&mut m, 0.005, 42);
            let stats = run_query(&mut m, &db, Query::Q3, &QueryConfig::new(8));
            black_box(stats.count)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_joins,
    bench_scans,
    bench_micro,
    bench_tpch,
    bench_packed_and_linear,
    bench_aggregation
);
criterion_main!(benches);
