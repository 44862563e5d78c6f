//! Scan experiments: Figs 12–16.

use crate::experiments::push_grid;
use crate::profiles::BenchProfile;
use crate::report::Figure;
use crate::repeat_grid;
use sgx_scans::linear::{linear_read, linear_write, LinearConfig, Width};
use sgx_scans::{column_scan, gen_column, ScanConfig, ScanOutput};
use sgx_sim::{Machine, Setting};

/// Fig 12: single-threaded AVX-512 scan throughput across data sizes and
/// the three settings.
pub fn fig12_scan_single(p: &BenchProfile) -> Figure {
    let l2 = p.hw.l2.size;
    let l3 = p.hw.l3.size;
    let sizes = [("L2/2", l2 / 2), ("L3/2", l3 / 2), ("4xL3", 4 * l3), ("32xL3", 32 * l3)];
    let mut fig = Figure::new(
        "fig12",
        "Single-threaded column scan read throughput",
        "column size",
        "GB/s",
    )
    .with_xs(sizes.iter().map(|(l, _)| *l));
    let settings = Setting::all();
    let configs: Vec<(Setting, usize)> = settings
        .iter()
        .flat_map(|&setting| sizes.map(|(_, bytes)| (setting, bytes)))
        .collect();
    let stats = repeat_grid(p.reps, &configs, |&(_, bytes)| bytes, |&(setting, bytes), seed| {
        let mut m = Machine::new(p.hw.clone(), setting);
        let col = gen_column(&mut m, bytes, seed);
        // The paper warms up 10x and measures 1000 scans; a handful of
        // measured passes give identical means in the deterministic
        // simulator.
        let cfg = ScanConfig::new(1).with_warmup(2).with_repeats(4);
        column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &cfg).gb_per_sec(p.hw.freq_ghz)
    });
    push_grid(&mut fig, &settings.map(Setting::label), &stats);
    fig.note("paper: in-cache parity; ~3% slowdown for EPC data beyond L3");
    fig
}

/// Fig 13: scan throughput scaling with threads, in and out of the
/// enclave.
pub fn fig13_scan_scaling(p: &BenchProfile) -> Figure {
    let threads = [1usize, 2, 4, 8, 16];
    let bytes = p.mb(2048);
    let mut fig =
        Figure::new("fig13", "Column scan thread scaling", "threads", "GB/s")
            .with_xs(threads.iter().map(|t| t.to_string()));
    let settings = [Setting::PlainCpu, Setting::SgxDataInEnclave];
    let configs: Vec<(Setting, usize)> =
        settings.iter().flat_map(|&setting| threads.map(|t| (setting, t))).collect();
    let stats = repeat_grid(p.reps, &configs, |_| bytes, |&(setting, t), seed| {
        let mut m = Machine::new(p.hw.clone(), setting);
        let col = gen_column(&mut m, bytes, seed);
        let cfg = ScanConfig::new(t.min(p.hw.cores_per_socket));
        column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &cfg).gb_per_sec(p.hw.freq_ghz)
    });
    push_grid(&mut fig, &settings.map(Setting::label), &stats);
    fig.note("paper: identical scaling; both saturate the memory bandwidth at 16 threads");
    fig
}

/// Fig 14: index-materializing scan under increasing selectivity (write
/// rate up to 800%), 16 threads. The scan keeps its indexes only as a
/// digest, so the points can run side by side.
pub fn fig14_selectivity(p: &BenchProfile) -> Figure {
    let sels = [(1u8, "1%"), (25, "10%"), (127, "50%"), (191, "75%"), (255, "100%")];
    let settings = [Setting::PlainCpu, Setting::SgxDataInEnclave];
    let bytes = p.mb(4096);
    let mut fig = Figure::new(
        "fig14",
        "Index-returning scan with varying selectivity (write rate)",
        "selectivity",
        "GB/s read",
    )
    .with_xs(sels.iter().map(|(_, l)| *l));
    let configs: Vec<(Setting, u8)> =
        settings.iter().flat_map(|&setting| sels.map(|(hi, _)| (setting, hi))).collect();
    let stats = repeat_grid(p.reps, &configs, |_| bytes, |&(setting, hi), seed| {
        let mut m = Machine::new(p.hw.clone(), setting);
        let col = gen_column(&mut m, bytes, seed);
        let cfg = ScanConfig::new(16.min(p.hw.cores_per_socket));
        column_scan(&mut m, &col, 0, hi, ScanOutput::Indexes, &cfg).gb_per_sec(p.hw.freq_ghz)
    });
    push_grid(&mut fig, &settings.map(Setting::label), &stats);
    fig.note("paper: throughput falls with write volume, but equally inside and outside the enclave");
    fig
}

/// Fig 15: pmbw-style linear read/write kernels, 64-bit vs 512-bit,
/// enclave relative to plain CPU.
pub fn fig15_linear(p: &BenchProfile) -> Figure {
    let l2 = p.hw.l2.size / 8;
    let l3 = p.hw.l3.size / 8;
    let sizes = [("L2/2", l2 / 2), ("L3/2", l3 / 2), ("4xL3", 4 * l3), ("32xL3", 32 * l3)];
    let threads = 8.min(p.hw.cores_per_socket);
    let mut fig = Figure::new(
        "fig15",
        "Linear reads/writes in SGX relative to plain CPU",
        "array size",
        "relative",
    )
    .with_xs(sizes.iter().map(|(l, _)| *l));
    let kernels = [
        ("64-bit read", true, Width::Bits64),
        ("512-bit read", true, Width::Bits512),
        ("64-bit write", false, Width::Bits64),
        ("512-bit write", false, Width::Bits512),
    ];
    let configs: Vec<(bool, Width, usize)> = kernels
        .iter()
        .flat_map(|&(_, read, width)| sizes.map(|(_, elems)| (read, width, elems.max(64))))
        .collect();
    // A point builds the plain machine, then the enclave machine, and
    // returns their ratio.
    let stats = repeat_grid(p.reps, &configs, |&(.., elems)| elems * 8, |&(read, width, elems), _| {
        let run = |setting: Setting| {
            let mut m = Machine::new(p.hw.clone(), setting);
            let mut v = m.alloc::<u64>(elems);
            let cfg = LinearConfig::new(threads).with_warmup(1);
            if read {
                linear_read(&mut m, &v, width, &cfg)
            } else {
                linear_write(&mut m, &mut v, width, &cfg)
            }
        };
        run(Setting::PlainCpu) / run(Setting::SgxDataInEnclave)
    });
    push_grid(&mut fig, &kernels.map(|(label, ..)| label), &stats);
    fig.note("paper: worst case 5.5% for 64-bit reads, ~2% for linear writes");
    fig
}

/// Fig 16: cross-NUMA scans — local native vs cross-NUMA native vs
/// cross-NUMA SGX, over thread counts.
pub fn fig16_numa_scan(p: &BenchProfile) -> Figure {
    let threads = [1usize, 2, 4, 8, 16];
    let bytes = p.mb(2048);
    let mut fig =
        Figure::new("fig16", "Cross-NUMA column scan throughput", "threads", "GB/s")
            .with_xs(threads.iter().map(|t| t.to_string()));
    let series = [
        ("local, plain CPU", Setting::PlainCpu, false),
        ("cross-NUMA, plain CPU", Setting::PlainCpu, true),
        ("cross-NUMA, SGX", Setting::SgxDataInEnclave, true),
    ];
    let configs: Vec<(Setting, bool, usize)> = series
        .iter()
        .flat_map(|&(_, setting, remote)| {
            threads.map(|t| (setting, remote, t.min(p.hw.cores_per_socket)))
        })
        .collect();
    let stats = repeat_grid(p.reps, &configs, |_| bytes, |&(setting, remote, t), seed| {
        let mut m = Machine::new(p.hw.clone(), setting);
        // Data always lives on node 0; remote runs pin the scan threads to
        // socket 1, crossing the UPI.
        let col = gen_column(&mut m, bytes, seed);
        let cores: Vec<usize> = if remote { p.socket1(t) } else { (0..t).collect() };
        let cfg = ScanConfig::new(t).on_cores(cores);
        column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &cfg).gb_per_sec(p.hw.freq_ghz)
    });
    push_grid(&mut fig, &series.map(|(label, ..)| label), &stats);
    fig.note("paper: UCE costs 23% at 1 thread, shrinking to 4% at 16 threads where the UPI itself is the bound (67.2 GB/s)");
    fig
}
