//! Full-query experiment: Fig 17 (TPC-H Q3, Q10, Q12, Q19 at SF 10).

use crate::experiments::push_grid;
use crate::profiles::BenchProfile;
use crate::repeat_grid;
use crate::report::Figure;
use sgx_sim::{Machine, Setting};
use sgx_tpch::{generate, run_query, Query, QueryConfig};

/// Fig 17: runtimes of the four simplified TPC-H queries using the RHO
/// join — outside the enclave, inside naive, and inside with the §4.2
/// optimization.
pub fn fig17_tpch(p: &BenchProfile) -> Figure {
    let sf = p.tpch_sf(10.0);
    let threads = 16.min(p.hw.cores_per_socket);
    let mut fig = Figure::new(
        "fig17",
        format!("TPC-H queries at SF {sf:.3} ({threads} threads, RHO join)").as_str(),
        "query",
        "ms",
    )
    .with_xs(Query::all().iter().map(|q| q.label()));
    let series = [
        ("Plain CPU", Setting::PlainCpu, false),
        ("SGX naive", Setting::SgxDataInEnclave, false),
        ("SGX optimized", Setting::SgxDataInEnclave, true),
    ];
    let configs: Vec<(Setting, bool, Query)> = series
        .iter()
        .flat_map(|&(_, setting, optimized)| Query::all().map(|q| (setting, optimized, q)))
        .collect();
    // Every point generates the same database.
    let stats = repeat_grid(p.reps, &configs, |_| 0, |&(setting, optimized, q), seed| {
        let mut m = Machine::new(p.hw.clone(), setting);
        let db = generate(&mut m, sf, seed);
        m.reset_wall();
        let cfg = QueryConfig::new(threads).with_optimization(optimized);
        let stats = run_query(&mut m, &db, q, &cfg);
        p.hw.cycles_to_secs(stats.wall_cycles) * 1e3
    });
    push_grid(&mut fig, &series.map(|(label, ..)| label), &stats);
    fig.note("paper: optimization cuts query time by 7-30%; average enclave overhead falls from 42% to 15%");
    fig
}
