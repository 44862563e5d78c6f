//! Join experiments: Figs 1, 3, 4, 6, 8, 9, 10, 11 and the SGXv1
//! ablation extension.

use std::ops::Range;

use crate::experiments::push_grid;
use crate::profiles::BenchProfile;
use crate::report::{Figure, Stat};
use crate::sweep::sweep;
use crate::{rep_seeds, repeat_grid};
use sgx_joins::crkjoin::crk_join;
use sgx_joins::inl::inl_join;
use sgx_joins::mway::mway_join;
use sgx_joins::pht::pht_join;
use sgx_joins::rho::rho_join;
use sgx_joins::{gen_fk_relation, gen_pk_relation, JoinConfig, JoinStats, QueueKind};
use sgx_sim::{Machine, Setting};

/// The five join algorithms of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Parallel hash table join.
    Pht,
    /// Radix hash optimized join.
    Rho,
    /// Multi-way sort merge join.
    Mway,
    /// Index nested loop join.
    Inl,
    /// SGXv1-optimized cracking join.
    Crk,
}

impl JoinAlgo {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            JoinAlgo::Pht => "PHT",
            JoinAlgo::Rho => "RHO",
            JoinAlgo::Mway => "MWAY",
            JoinAlgo::Inl => "INL",
            JoinAlgo::Crk => "CrkJoin",
        }
    }
}

/// Radix bits that size RHO's final partitions to half the L2 (the classic
/// rule); CrkJoin cracks four bits deeper (L1-sized working sets, its
/// design point).
fn auto_bits(p: &BenchProfile, r_rows: usize, algo: JoinAlgo) -> u32 {
    let base = JoinConfig::auto_radix_bits(r_rows * 8, p.hw.l2.size);
    match algo {
        JoinAlgo::Crk => (base + 4).min(16),
        _ => base,
    }
}

/// Run one join in one setting and return `(stats, |R|, |S|)`.
#[allow(clippy::too_many_arguments)]
pub fn run_join(
    p: &BenchProfile,
    setting: Setting,
    algo: JoinAlgo,
    r_mb: usize,
    s_mb: usize,
    threads: usize,
    tune: impl FnOnce(JoinConfig) -> JoinConfig,
    seed: u64,
) -> (JoinStats, usize, usize) {
    let mut machine = Machine::new(p.hw.clone(), setting);
    let (nr, ns) = (p.rel_rows(r_mb), p.rel_rows(s_mb));
    let cfg = tune(
        JoinConfig::new(threads.min(p.hw.cores_per_socket))
            .with_radix_bits(auto_bits(p, nr, algo)),
    );
    let mut r = gen_pk_relation(&mut machine, nr, seed);
    let mut s = gen_fk_relation(&mut machine, ns, nr, seed + 1);
    machine.ecall();
    let stats = match algo {
        JoinAlgo::Pht => pht_join(&mut machine, &r, &s, &cfg),
        JoinAlgo::Rho => rho_join(&mut machine, &r, &s, &cfg),
        JoinAlgo::Mway => mway_join(&mut machine, &r, &s, &cfg),
        JoinAlgo::Inl => inl_join(&mut machine, &r, &s, &cfg),
        JoinAlgo::Crk => crk_join(&mut machine, &mut r, &mut s, &cfg),
    };
    assert_eq!(stats.matches, ns as u64, "FK join must match every probe row");
    (stats, nr, ns)
}

/// Throughput in M rows/s (the paper's join metric).
fn mrows(p: &BenchProfile, stats: &JoinStats, nr: usize, ns: usize) -> f64 {
    stats.mrows_per_sec(nr, ns, p.hw.freq_ghz)
}

/// Fig 1: the introduction's motivating comparison — an SGXv1-optimized
/// join vs a state-of-the-art radix join, inside the enclave, against the
/// native radix join (100 MB ⋈ 400 MB, 16 threads).
pub fn fig01_intro(p: &BenchProfile) -> Figure {
    let mut fig = Figure::new(
        "fig01",
        "Join of 100 MB ⋈ 400 MB inside SGXv2 (16 threads)",
        "join",
        "M rows/s",
    )
    .with_xs(["SGXv1-optimized (CrkJoin)", "Radix join (RHO)", "SGXv2-optimized RHO", "RHO outside enclave"]);
    let configs = [
        (Setting::SgxDataInEnclave, JoinAlgo::Crk, false),
        (Setting::SgxDataInEnclave, JoinAlgo::Rho, false),
        (Setting::SgxDataInEnclave, JoinAlgo::Rho, true),
        (Setting::PlainCpu, JoinAlgo::Rho, true),
    ];
    let stats = repeat_grid(p.reps, &configs, |_| 0, |&(setting, algo, opt), seed| {
        let (s, nr, ns) =
            run_join(p, setting, algo, 100, 400, 16, |c| c.with_optimization(opt), seed);
        mrows(p, &s, nr, ns)
    });
    push_grid(&mut fig, &["throughput"], &stats);
    fig.note("paper: CrkJoin slowest; optimized RHO approaches native (Fig 1)");
    fig
}

/// Fig 3: throughput of all five joins, plain CPU vs SGX-data-in-enclave.
pub fn fig03_overview(p: &BenchProfile) -> Figure {
    let algos = [JoinAlgo::Crk, JoinAlgo::Pht, JoinAlgo::Rho, JoinAlgo::Mway, JoinAlgo::Inl];
    let mut fig = Figure::new(
        "fig03",
        "Join overview, 100 MB ⋈ 400 MB, 16 threads",
        "join",
        "M rows/s",
    )
    .with_xs(algos.iter().map(|a| a.label()));
    let settings = [Setting::PlainCpu, Setting::SgxDataInEnclave];
    let configs: Vec<(Setting, JoinAlgo)> =
        settings.iter().flat_map(|&setting| algos.map(|algo| (setting, algo))).collect();
    let stats = repeat_grid(p.reps, &configs, |_| 0, |&(setting, algo), seed| {
        let (s, nr, ns) = run_join(p, setting, algo, 100, 400, 16, |c| c, seed);
        mrows(p, &s, nr, ns)
    });
    push_grid(&mut fig, &settings.map(Setting::label), &stats);
    fig.note("paper: CrkJoin slowest; hash joins suffer the largest enclave reduction");
    fig
}

/// Fig 4: single-threaded PHT — relative in-enclave throughput vs build
/// size (left) and the phase breakdown at the largest size (right).
pub fn fig04_pht(p: &BenchProfile) -> (Figure, Figure) {
    let sizes_mb = [1usize, 8, 50, 100];
    let mut left = Figure::new(
        "fig04a",
        "PHT single-thread: SGX throughput relative to plain CPU",
        "build size",
        "relative",
    )
    .with_xs(sizes_mb.iter().map(|m| format!("{m} MB")));
    // The points in the order a sequential loop builds their machines: by
    // size, then repetition, then plain CPU before enclave. Each returns
    // its throughput and its build and probe phase cycles.
    let points: Vec<(usize, u64, Setting)> = sizes_mb
        .iter()
        .flat_map(|&mb| {
            rep_seeds(p.reps).flat_map(move |seed| {
                [Setting::PlainCpu, Setting::SgxDataInEnclave].map(|setting| (mb, seed, setting))
            })
        })
        .collect();
    let runs = sweep(
        &points,
        |&(mb, ..)| p.mb(mb + 400),
        |&(mb, seed, setting)| {
            let (stats, nr, ns) = run_join(p, setting, JoinAlgo::Pht, mb, 400, 1, |c| c, seed);
            [mrows(p, &stats, nr, ns), stats.phase("build"), stats.phase("probe")]
        },
    );
    // One chunk per size: each repetition's (native, enclave).
    let series = runs
        .chunks_exact(2 * rep_seeds(p.reps).count())
        .map(|size| {
            let rel: Vec<f64> = size.chunks_exact(2).map(|pair| pair[1][0] / pair[0][0]).collect();
            Some(Stat::from_runs(&rel))
        })
        .collect();
    left.push_series("SGX / plain CPU", series);
    left.note("paper: ~95% at cache-resident sizes, ~51% at 100 MB");

    // The right-hand figure shows the last size's final (native, enclave)
    // pair.
    let (native, sgx) = (runs[runs.len() - 2], runs[runs.len() - 1]);
    let mut right = Figure::new(
        "fig04b",
        "PHT phase run times at 100 MB build size (single thread)",
        "phase",
        "cycles",
    )
    .with_xs(["build", "probe"]);
    right.push_series(
        "Plain CPU",
        vec![Some(Stat::exact(native[1])), Some(Stat::exact(native[2]))],
    );
    right.push_series(
        "SGX (Data in Enclave)",
        vec![Some(Stat::exact(sgx[1])), Some(Stat::exact(sgx[2]))],
    );
    right.note("paper: the build phase suffers far more than the probe phase (writes vs reads)");
    (left, right)
}

/// Fig 6: single-threaded RHO phase breakdown, naive vs unroll-optimized.
pub fn fig06_rho_breakdown(p: &BenchProfile) -> Figure {
    let phases = ["hist_r", "copy_r", "hist_s", "copy_s", "build", "probe"];
    let mut fig = Figure::new(
        "fig06",
        "RHO phase breakdown, 100 MB ⋈ 400 MB, single thread",
        "phase",
        "cycles",
    )
    .with_xs(phases);
    let series = [
        ("Plain CPU", Setting::PlainCpu, false),
        ("SGX naive", Setting::SgxDataInEnclave, false),
        ("SGX optimized", Setting::SgxDataInEnclave, true),
    ];
    let cycles = sweep(
        &series,
        |_| 0,
        |&(_, setting, opt)| {
            let (stats, ..) =
                run_join(p, setting, JoinAlgo::Rho, 100, 400, 1, |c| c.with_optimization(opt), 7);
            phases.map(|ph| stats.phase(ph))
        },
    );
    for ((label, ..), cycles) in series.iter().zip(cycles) {
        fig.push_series(label, cycles.iter().map(|&c| Some(Stat::exact(c))).collect());
    }
    fig.note("paper: histogram up to 4x slower naive; unrolling repairs hist/copy/build");
    fig
}

/// Fig 8: RHO and PHT with 16 threads, before/after the §4.2 optimization.
pub fn fig08_optimized(p: &BenchProfile) -> Figure {
    let mut fig = Figure::new(
        "fig08",
        "Optimization effect, 100 MB ⋈ 400 MB, 16 threads",
        "join",
        "M rows/s",
    )
    .with_xs(["RHO", "PHT"]);
    let series = [
        ("Plain CPU", Setting::PlainCpu, false),
        ("SGX naive", Setting::SgxDataInEnclave, false),
        ("SGX optimized", Setting::SgxDataInEnclave, true),
    ];
    let configs: Vec<(Setting, bool, JoinAlgo)> = series
        .iter()
        .flat_map(|&(_, setting, opt)| {
            [JoinAlgo::Rho, JoinAlgo::Pht].map(|algo| (setting, opt, algo))
        })
        .collect();
    let stats = repeat_grid(p.reps, &configs, |_| 0, |&(setting, opt, algo), seed| {
        let (s, nr, ns) =
            run_join(p, setting, algo, 100, 400, 16, |c| c.with_optimization(opt), seed);
        mrows(p, &s, nr, ns)
    });
    push_grid(&mut fig, &series.map(|(label, ..)| label), &stats);
    fig.note("paper: optimized RHO reaches 83% of native; PHT improves 94% but stays random-access-bound");
    fig
}

/// Fig 9: NUMA extremes for an RHO join (§4.3).
pub fn fig09_numa_join(p: &BenchProfile) -> Figure {
    let t = p.hw.cores_per_socket;
    let (nr, ns) = (p.rel_rows(100), p.rel_rows(400));
    let bits = auto_bits(p, nr, JoinAlgo::Rho);

    let run = |&(setting, ref cores, data_node, seed): &(Setting, Range<usize>, u8, u64)| -> f64 {
        let mut machine = Machine::new(p.hw.clone(), setting);
        let region = setting.data_region(data_node);
        let r = sgx_joins::data::gen_pk_relation_on(&mut machine, nr, seed, region);
        let s = sgx_joins::data::gen_fk_relation_on(&mut machine, ns, nr, seed + 1, region);
        let cfg = JoinConfig::new(1).on_cores(cores.clone().collect()).with_radix_bits(bits);
        let stats = rho_join(&mut machine, &r, &s, &cfg);
        stats.mrows_per_sec(nr, ns, p.hw.freq_ghz)
    };

    let mut fig = Figure::new("fig09", "RHO join on a NUMA system", "setup", "M rows/s")
        .with_xs([
            "SGX Join Single Node",
            "SGX Join Fully Remote",
            "SGX Join Half Local",
            "Native Join NUMA local",
        ]);
    // The runs in the order a sequential loop builds their machines: the
    // three enclave series by repetition (single node, fully remote, half
    // local), then the optimal baseline. That baseline has both tables
    // pre-partitioned per node and one join per socket running
    // concurrently, so its aggregate throughput is the sum of two
    // NUMA-local halves, a and b, listed in that order per repetition.
    let enclave = [0..t, t..2 * t, 0..2 * t];
    let mut runs: Vec<(Setting, Range<usize>, u8, u64)> = enclave
        .iter()
        .flat_map(|cores| {
            rep_seeds(p.reps).map(move |seed| (Setting::SgxDataInEnclave, cores.clone(), 0, seed))
        })
        .collect();
    runs.extend(rep_seeds(p.reps).flat_map(|seed| {
        [(Setting::PlainCpu, 0..t, 0, seed), (Setting::PlainCpu, t..2 * t, 1, seed + 100)]
    }));
    let throughput = sweep(&runs, |_| 0, run);
    let reps = rep_seeds(p.reps).count();
    let (enclave_runs, local_runs) = throughput.split_at(enclave.len() * reps);
    let mut points: Vec<Option<Stat>> =
        enclave_runs.chunks_exact(reps).map(|runs| Some(Stat::from_runs(runs))).collect();
    let local2: Vec<f64> = local_runs.chunks_exact(2).map(|ab| ab[0] + ab[1]).collect();
    points.push(Some(Stat::from_runs(&local2)));
    fig.push_series("throughput", points);
    fig.note("paper: fully remote loses ~25%; adding the second socket's cores does not help; both < 50% of the NUMA-local optimum");
    fig
}

/// Fig 10: task-queue contention — lock-free vs SDK mutex (§4.4), with
/// tiny partitions to force contention.
pub fn fig10_queues(p: &BenchProfile) -> Figure {
    // Deep radix partitioning makes tasks very small (~128 rows each, the
    // paper's "very small partitions"), independent of the profile scale;
    // the floor of 9 bits forces the two-pass path so both the second
    // partitioning pass and the join pull tasks from the contended queue.
    let nr = p.rel_rows(100);
    let bits = (usize::BITS - (nr / 128).max(4).leading_zeros()).clamp(9, 16);
    let queues = [QueueKind::LockFree, QueueKind::SdkMutex];
    let mut fig = Figure::new(
        "fig10",
        "RHO with forced task-queue contention (16 threads, tiny partitions)",
        "queue",
        "M rows/s",
    )
    .with_xs(queues.map(QueueKind::label));
    let settings = [Setting::PlainCpu, Setting::SgxDataInEnclave];
    let configs: Vec<(Setting, QueueKind)> = settings
        .iter()
        .flat_map(|&setting| queues.map(|queue| (setting, queue)))
        .collect();
    let stats = repeat_grid(p.reps, &configs, |_| 0, |&(setting, queue), seed| {
        let (s, nr, ns) = run_join(
            p,
            setting,
            JoinAlgo::Rho,
            100,
            400,
            16,
            |c| c.with_radix_bits(bits).with_queue(queue),
            seed,
        );
        mrows(p, &s, nr, ns)
    });
    push_grid(&mut fig, &settings.map(Setting::label), &stats);
    fig.note("paper: outside the enclave the queue choice is noise; inside, the mutex costs ~75%");
    fig
}

/// Fig 11: statically sized enclave vs dynamic EDMM growth during a
/// materializing join (§4.4).
pub fn fig11_edmm(p: &BenchProfile) -> Figure {
    let (nr, ns) = (p.rel_rows(100), p.rel_rows(400));
    let bits = auto_bits(p, nr, JoinAlgo::Rho);
    let run = |&dynamic: &bool, seed: u64| -> f64 {
        let mut machine = Machine::new(p.hw.clone(), Setting::SgxDataInEnclave);
        let r = gen_pk_relation(&mut machine, nr, seed);
        let s = gen_fk_relation(&mut machine, ns, nr, seed + 1);
        if dynamic {
            // Everything the join allocates from here on (partition
            // copies, result table) must be EAUG'd page by page.
            machine.seal_enclave();
        }
        let cfg = JoinConfig::new(16.min(p.hw.cores_per_socket))
            .with_radix_bits(bits)
            .with_optimization(true)
            .with_materialization(true);
        let stats = rho_join(&mut machine, &r, &s, &cfg);
        stats.mrows_per_sec(nr, ns, p.hw.freq_ghz)
    };
    let mut fig = Figure::new(
        "fig11",
        "Materializing RHO join: static vs dynamically grown enclave",
        "enclave sizing",
        "M rows/s",
    )
    .with_xs(["statically sized", "dynamic (EDMM)"]);
    let stats = repeat_grid(p.reps, &[false, true], |_| 0, run);
    push_grid(&mut fig, &["SGX (Data in Enclave)"], &stats);
    fig.note("paper: the dynamically growing enclave reaches only ~4.5% of the static one");
    fig
}

/// Reproduction extension (not a paper figure): the same CrkJoin-vs-RHO
/// comparison on an SGXv1-style EPC (small, paging) shows the ordering the
/// TEEBench/CrkJoin papers reported — and why SGXv1 designs became
/// obsolete on SGXv2.
pub fn sgxv1_ablation(p: &BenchProfile) -> Figure {
    let hw_v1 = p.hw.clone().sgxv1();
    // The regime in which SGXv1 designs paid off: the inputs fit the
    // resident EPC, but out-of-place partitioning (2x the data plus the
    // result) does not. In-place cracking stays within the EPC after its
    // top-level sweeps; RHO's partition copies page on every pass.
    let budget_rows = hw_v1.paging.resident_bytes * 8 / 10 / 8;
    let nr = (budget_rows / 5).max(64);
    let ns = 4 * nr;
    let run = |&(hw, algo): &(&sgx_sim::HwConfig, JoinAlgo), seed: u64| -> f64 {
        let mut machine = Machine::new(hw.clone(), Setting::SgxDataInEnclave);
        let mut r = gen_pk_relation(&mut machine, nr, seed);
        let mut s = gen_fk_relation(&mut machine, ns, nr, seed + 1);
        let bits = JoinConfig::auto_radix_bits(nr * 8, p.hw.l2.size)
            + if algo == JoinAlgo::Crk { 4 } else { 0 };
        let bits = bits.min(16);
        let cfg = JoinConfig::new(16.min(p.hw.cores_per_socket)).with_radix_bits(bits);
        let stats = match algo {
            JoinAlgo::Rho => rho_join(&mut machine, &r, &s, &cfg),
            JoinAlgo::Crk => crk_join(&mut machine, &mut r, &mut s, &cfg),
            _ => unreachable!("ablation compares RHO and CrkJoin"),
        };
        stats.mrows_per_sec(nr, ns, p.hw.freq_ghz)
    };
    let mut fig = Figure::new(
        "ablation_sgxv1",
        "CrkJoin vs RHO under SGXv1 and SGXv2 EPC models (extension)",
        "join",
        "M rows/s",
    )
    .with_xs(["RHO", "CrkJoin"]);
    let configs: Vec<(&sgx_sim::HwConfig, JoinAlgo)> = [&p.hw, &hw_v1]
        .iter()
        .flat_map(|&hw| [JoinAlgo::Rho, JoinAlgo::Crk].map(|algo| (hw, algo)))
        .collect();
    let stats = repeat_grid(p.reps, &configs, |_| 0, run);
    push_grid(&mut fig, &["SGXv2 EPC (large)", "SGXv1 EPC (small, paging)"], &stats);
    fig.note("capacity-pressure regime (inputs ~80% of resident EPC): the ordering flips because RHO's out-of-place copies overflow the SGXv1 EPC while in-place cracking fits");
    fig
}
