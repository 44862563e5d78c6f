//! Secure storage data path extension: sealed blocks decrypted,
//! filtered and aggregated inside the enclave.
//!
//! The paper benchmarks operators over data already resident in plain
//! EPC memory; a protected analytical engine additionally pays to move
//! data through *sealed storage* — AES-GCM-decrypting 4 KiB blocks as
//! they stream in, then scanning the decoded column. This experiment
//! measures that full path (unseal → filter → grouped aggregate) for
//! three on-disk layouts — plain i32, dictionary-coded, RLE-coded —
//! native vs enclave. Compression earns its keep twice inside the
//! enclave: fewer sealed bytes to decrypt *and* fewer EPC lines to
//! stream during the scan.

use crate::experiments::push_grid;
use crate::profiles::BenchProfile;
use crate::repeat_grid;
use crate::report::{Figure, Stat};
use sgx_sim::{Machine, Setting};
use sgx_tpch::storage::{clustered_column, seal_column, storage_path_query, StorageFormat};

/// Paper-scale column sizes in MB (scaled by the profile's divisor).
const PAPER_MB: [usize; 3] = [4, 16, 64];
/// Filter threshold: values are 0..256, so 128 keeps ~half the rows.
const THRESHOLD: i32 = 128;
/// Group-count fan-out for the aggregation stage.
const GROUPS: usize = 64;

/// Storage-path runtime for one (setting, format, size, seed).
fn run_once(p: &BenchProfile, setting: Setting, format: StorageFormat, elems: usize, seed: u64) -> f64 {
    let threads = 8.min(p.hw.cores_per_socket);
    let cores: Vec<usize> = (0..threads).collect();
    let mut m = Machine::new(p.hw.clone(), setting);
    let values = clustered_column(elems, seed);
    let col = seal_column(&mut m, &values, format);
    m.reset_wall();
    let stats = storage_path_query(&mut m, &cores, &col, THRESHOLD, GROUPS);
    p.hw.cycles_to_secs(stats.total_cycles) * 1e3
}

/// Extension figure: sealed-storage query path runtime by column format,
/// native vs enclave, across column sizes.
pub fn ext_storage_path(p: &BenchProfile) -> Figure {
    let mut fig = Figure::new(
        "ext_storage_path",
        "Sealed storage data path: unseal + filter + group-count by column format",
        "column size (MB, paper scale)",
        "ms",
    )
    .with_xs(PAPER_MB.iter().map(|mb| format!("{mb}")));

    let formats = [StorageFormat::Plain, StorageFormat::Dict, StorageFormat::Rle];
    let settings = [Setting::PlainCpu, Setting::SgxDataInEnclave];
    let configs: Vec<(Setting, StorageFormat, usize)> = settings
        .iter()
        .flat_map(|&setting| {
            formats.iter().flat_map(move |&format| PAPER_MB.map(|mb| (setting, format, mb)))
        })
        .collect();
    let column_bytes = |&(.., mb): &(Setting, StorageFormat, usize)| p.mb(mb);
    let stats = repeat_grid(p.reps, &configs, column_bytes, |&(setting, format, mb), seed| {
        run_once(p, setting, format, (p.mb(mb) / 4).max(64), seed)
    });
    let labels: Vec<String> = settings
        .iter()
        .flat_map(|s| formats.map(|format| format!("{}, {}", format.label(), s.label())))
        .collect();
    push_grid(&mut fig, &labels.iter().map(String::as_str).collect::<Vec<_>>(), &stats);
    // means[si][fi][xi] backs the shape assertions below.
    let row_means = |row: &[Stat]| row.iter().map(|s| s.mean).collect::<Vec<f64>>();
    let means: Vec<Vec<Vec<f64>>> = stats
        .chunks_exact(formats.len() * PAPER_MB.len())
        .map(|by_format| by_format.chunks_exact(PAPER_MB.len()).map(row_means).collect())
        .collect();

    // Shape assertions at the largest size: the enclave pays for the
    // path, and compression pays for itself inside the enclave.
    let top = PAPER_MB.len() - 1;
    for fi in 0..formats.len() {
        assert!(
            means[1][fi][top] > means[0][fi][top],
            "{}: enclave must cost more than native",
            formats[fi].label()
        );
    }
    // Dict halves the sealed bytes (u16 codes) and keeps the parallel
    // scan, so it must win in the enclave at every profile scale. RLE
    // compresses harder but scans its runs serially, so its wall-cycle
    // win only materializes once columns dwarf the worker count — the
    // figure shows the crossover rather than asserting it.
    assert!(
        means[1][1][top] < means[1][0][top],
        "dictionary layout must beat plain inside the enclave (fewer sealed bytes and EPC lines)"
    );
    let overhead = |fi: usize| means[1][fi][top] / means[0][fi][top].max(1e-12);
    fig.note(format!(
        "enclave/native overhead at {} MB: plain x{:.2}, dict x{:.2}, rle x{:.2}",
        PAPER_MB[top],
        overhead(0),
        overhead(1),
        overhead(2)
    ));
    fig.note(
        "sealing model: AES-GCM charged per 4 KiB block (setup) plus per cache line \
         (throughput) from the calibration constants in sgx-sim's config; every decrypt, \
         scan and aggregate cycle flows through the simulator's charge choke point",
    );
    fig.note(format!(
        "filter keeps values >= {THRESHOLD} of 0..256 (~50% selectivity), then group-counts \
         matches into {GROUPS} buckets; results are verified against uncharged oracles in \
         sgx-tpch's storage tests"
    ));
    fig
}
