//! Micro-benchmark experiments: Figs 5 and 7.

use crate::experiments::push_grid;
use crate::profiles::BenchProfile;
use crate::report::{Figure, Stat};
use crate::sweep::sweep;
use crate::{rep_seeds, repeat_grid};
use sgx_microbench::{histogram_bench, pointer_chase, random_write, HistKernel};
use sgx_sim::Setting;

/// Array sizes for Fig 5, expressed relative to the profile's caches so
/// the cache-residency transitions land in the same places as the paper's
/// 256 KB … 16 GB sweep.
fn fig05_sizes(p: &BenchProfile) -> Vec<(String, usize)> {
    let l2 = p.hw.l2.size;
    let l3 = p.hw.l3.size;
    vec![
        ("L2/2".to_string(), l2 / 2),
        ("L3/2".to_string(), l3 / 2),
        ("2xL3".to_string(), 2 * l3),
        ("8xL3".to_string(), 8 * l3),
        ("32xL3".to_string(), 32 * l3),
        ("128xL3".to_string(), 128 * l3),
    ]
}

/// Fig 5: random read (pointer chasing) and random write performance in
/// the enclave relative to the plain CPU, across array sizes.
///
/// Every (kernel, size, repetition, setting) point builds one machine of
/// its own, so the points run as one `crate::sweep` and can share the
/// host's cores; the figure, counters and profile equal a sequential run's.
pub fn fig05_random_access(p: &BenchProfile) -> Figure {
    let sizes = fig05_sizes(p);
    let mut fig = Figure::new(
        "fig05",
        "Random memory access in SGX relative to plain CPU",
        "array size",
        "relative",
    )
    .with_xs(sizes.iter().map(|(l, _)| l.clone()));

    // The points in the order a sequential loop builds their machines:
    // every pointer chase, then every random write; within a kernel by
    // size, then repetition, then plain CPU before enclave.
    let points: Vec<(bool, usize, u64, Setting)> = [false, true]
        .into_iter()
        .flat_map(|write| {
            sizes.iter().flat_map(move |&(_, bytes)| {
                rep_seeds(p.reps).flat_map(move |seed| {
                    [Setting::PlainCpu, Setting::SgxDataInEnclave]
                        .map(|setting| (write, bytes, seed, setting))
                })
            })
        })
        .collect();
    let cycles = sweep(
        &points,
        |&(_, bytes, _, _)| bytes,
        |&(write, bytes, seed, setting)| {
            if write {
                random_write(p.hw.clone(), setting, bytes, 1_000_000, seed).cycles
            } else {
                pointer_chase(p.hw.clone(), setting, bytes, 150_000, seed).cycles
            }
        },
    );

    // One chunk per (kernel, size): each repetition's (native, enclave).
    let mut per_size = cycles.chunks_exact(2 * rep_seeds(p.reps).count());
    for label in ["random reads (pointer chase)", "random writes (LCG)"] {
        let series = per_size
            .by_ref()
            .take(sizes.len())
            .map(|runs| {
                let rel: Vec<f64> = runs.chunks_exact(2).map(|pair| pair[0] / pair[1]).collect();
                Some(Stat::from_runs(&rel))
            })
            .collect();
        fig.push_series(label, series);
    }
    fig.note("paper: in-cache parity; reads bottom out near 53%, writes below 40%");
    fig
}

/// Fig 7: the radix-histogram micro-benchmark over typical bin counts,
/// comparing the three settings and the unrolled kernels (§4.2).
pub fn fig07_histogram(p: &BenchProfile) -> Figure {
    // "Typical numbers of histogram bins" must stay cache-resident like
    // the paper's: cap the sweep so the largest histogram fits the L2.
    let max_bins = (p.hw.l2.size / 8).next_power_of_two() / 2;
    let bins: Vec<usize> =
        [1 << 6, 1 << 9, 1 << 12, 1 << 15].iter().map(|&b: &usize| b.min(max_bins)).collect();
    let n_keys = p.rel_rows(100).min(4_000_000);
    let mut fig = Figure::new(
        "fig07",
        "Histogram creation time over bin counts",
        "bins",
        "cycles / key",
    )
    .with_xs(bins.iter().map(|b| b.to_string()));
    let series = [
        ("Plain CPU", Setting::PlainCpu, HistKernel::Naive),
        ("SGX Data in Enclave", Setting::SgxDataInEnclave, HistKernel::Naive),
        ("SGX Data outside Enclave", Setting::SgxDataOutside, HistKernel::Naive),
        ("SGX unrolled x8", Setting::SgxDataInEnclave, HistKernel::Unrolled8),
        ("SGX SIMD x32", Setting::SgxDataInEnclave, HistKernel::Simd32),
    ];
    let configs: Vec<(Setting, HistKernel, usize)> = series
        .iter()
        .flat_map(|&(_, setting, kernel)| bins.iter().map(move |&b| (setting, kernel, b)))
        .collect();
    let stats = repeat_grid(p.reps, &configs, |&(.., b)| b, |&(setting, kernel, b), seed| {
        let r = histogram_bench(p.hw.clone(), setting, n_keys, b, kernel, seed);
        r.cycles / r.keys as f64
    });
    push_grid(&mut fig, &series.map(|(label, ..)| label), &stats);
    fig.note("paper: naive 225% slower in enclave mode regardless of data location; unrolling brings it to ~20%");
    fig
}
