//! Layer kernels: each drives one layer's public functions alone, at
//! golden-profile sizes, under a span per call.
//!
//! Every kernel repeats its call on fresh state, so the counts recorded at
//! the span boundary (simulator counters, cache hits, DES events) must
//! repeat bit-for-bit; a differing count is reported as a failure. The
//! seed drives the kernel data, the LCG traces and the fault and DES
//! seeds.

use std::hint::black_box;

use sgx_bench_core::experiments::service::{calibrate, service_config, tenants, StressPoint};
use sgx_bench_core::golden::counters_digest;
use sgx_bench_core::BenchProfile;
use sgx_joins::common::JoinConfig;
use sgx_joins::data::{gen_fk_relation, gen_pk_relation};
use sgx_joins::{pht::pht_join, rho::rho_join};
use sgx_microbench::{lcg_next, pointer_chase, random_write};
use sgx_scans::{
    column_scan, gen_column, linear_read, packed_scan_count, LinearConfig, PackedColumn,
};
use sgx_scans::{ScanConfig, ScanOutput, Width};
use sgx_serve::{run_service, PlanVariant};
use sgx_sim::cache::Cache;
use sgx_sim::{Counters, FaultProfile, Machine, Setting};
use sgx_tpch::storage::{clustered_column, seal_column, storage_path_query, StorageFormat};
use sgx_tpch::{generate, QueryConfig, QueryStats, TpchDb};

use sgx_bench_core::{sgx_joins, sgx_microbench, sgx_scans, sgx_serve, sgx_sim, sgx_tpch};

use crate::trace::{SpanId, Tracer};

/// Repetitions per kernel; the reported value is the median.
const REPS: usize = 5;
/// Repetitions for the kernels that take a few hundred ms per call.
const SLOW_REPS: usize = 3;
/// Simulated cores the multi-threaded operators run on.
const THREADS: usize = 8;
/// AEX rate of the storm kernels and of the stressed calibration (per
/// million cycles), the heaviest point of `ext_service_tail`'s sweep.
const AEX_PER_MCYCLE: f64 = 320.0;
/// Random accesses and `Core::compute(1)` calls per repetition.
const RANDOM_ACCESSES: u64 = 1 << 20;
const COMMITS: u64 = 1 << 22;
/// Cache lookups per repetition.
const LOOKUPS: u64 = 1 << 22;

/// Simulated micro-operations in a counter delta: loads + stores + scalar
/// and vector ops, the numerator of `sim_events_per_s`.
pub fn events(c: &Counters) -> u64 {
    c.loads + c.stores + c.alu_ops + c.vec_ops
}

/// The counts a span carries in the trace file.
pub fn counter_args(c: &Counters) -> Vec<(&'static str, u64)> {
    vec![
        ("events", events(c)),
        ("loads", c.loads),
        ("stores", c.stores),
        ("alu_ops", c.alu_ops),
        ("vec_ops", c.vec_ops),
        ("dram_fills", c.dram_fills),
        ("tlb_misses", c.tlb_misses),
        ("stream_lines", c.stream_lines),
        ("aex_events", c.aex_events),
    ]
}

/// One repetition of a kernel: its timed span and the counts taken at the
/// span boundary.
struct Rep {
    span: SpanId,
    counters: Counters,
    extra: Vec<(&'static str, u64)>,
}

impl Rep {
    fn of(span: SpanId, counters: Counters) -> Rep {
        Rep {
            span,
            counters,
            extra: Vec::new(),
        }
    }

    fn with(mut self, name: &'static str, value: u64) -> Rep {
        self.extra.push((name, value));
        self
    }

    fn count(&self, name: &str) -> u64 {
        self.extra
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// A layer kernel.
type Kernel<'t> = fn(&mut Layers<'t>);
/// A TPC-H plan entry point.
type QueryFn = fn(&mut Machine, &TpchDb, &QueryConfig) -> QueryStats;

/// Per-layer rows and the exact-count verdicts of one traced run.
pub struct Layers<'t> {
    tr: &'t mut Tracer,
    p: BenchProfile,
    seed: u64,
    /// `(metric name, value)` in emission order.
    pub rows: Vec<(String, f64)>,
    /// Repetitions run.
    pub attempted: u64,
    /// One line per kernel whose counts differed between repetitions.
    pub problems: Vec<String>,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn fresh(p: &BenchProfile) -> Machine {
    Machine::new(p.hw.clone(), Setting::SgxDataInEnclave)
}

impl<'t> Layers<'t> {
    /// Kernels record into `tr`; `seed` drives their inputs.
    pub fn new(tr: &'t mut Tracer, seed: u64) -> Layers<'t> {
        Layers {
            tr,
            p: BenchProfile::golden(),
            seed,
            rows: Vec::new(),
            attempted: 0,
            problems: Vec::new(),
        }
    }

    /// Run every kernel, each under a parent span named after its layer.
    pub fn run_all(&mut self) {
        let kernels: [(&str, Kernel<'t>); 11] = [
            ("layer.sim.cache", Self::cache),
            ("layer.sim.access", Self::random_access),
            ("layer.sim.stream", Self::stream),
            ("layer.sim.commit", Self::commit_and_fault_tick),
            ("layer.sim.machine_new", Self::machine_new),
            ("layer.joins", Self::joins),
            ("layer.micro", Self::micro),
            ("layer.scans", Self::scans),
            ("layer.tpch", Self::tpch),
            ("layer.tpch.storage", Self::storage),
            ("layer.service", Self::calibration_and_des),
        ];
        for (layer, kernel) in kernels {
            eprintln!("[{layer}] running...");
            let id = self.tr.open(layer);
            kernel(self);
            self.tr.close(id);
        }
    }

    /// Run `reps` repetitions of `f` and [`Layers::check`] them.
    fn repeat(
        &mut self,
        name: &str,
        reps: usize,
        mut f: impl FnMut(&mut Tracer, u64) -> Rep,
    ) -> Vec<Rep> {
        let seed = self.seed;
        let out: Vec<Rep> = (0..reps).map(|_| f(self.tr, seed)).collect();
        self.check(name, &out);
        out
    }

    /// Check that the repetitions' counts agree bit-for-bit, and attach the
    /// counts to each repetition's span.
    fn check(&mut self, name: &str, reps: &[Rep]) {
        self.attempted += reps.len() as u64;
        let key = |r: &Rep| (counters_digest(&r.counters), r.extra.clone());
        if reps.iter().any(|r| key(r) != key(&reps[0])) {
            self.problems
                .push(format!("{name}: counts differ between repetitions"));
        }
        for r in reps {
            let mut args = counter_args(&r.counters);
            args.extend(r.extra.iter().copied());
            self.tr.set_args(r.span, args);
        }
    }

    fn row(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), value));
    }

    /// Median over repetitions of span nanoseconds per unit of `per`.
    fn ns_per(&self, reps: &[Rep], per: impl Fn(&Rep) -> u64) -> f64 {
        median(
            reps.iter()
                .map(|r| self.tr.secs(r.span) * 1e9 / per(r).max(1) as f64)
                .collect(),
        )
    }

    fn ns_per_event(&self, reps: &[Rep]) -> f64 {
        self.ns_per(reps, |r| events(&r.counters))
    }

    /// `Cache::access` / `insert_miss` on the golden L3 geometry over an
    /// LCG line trace spanning four times its capacity.
    fn cache(&mut self) {
        let cfg = self.p.hw.l3;
        let span = Cache::new(&cfg).capacity_lines() as u64 * 4;
        let mut x = self.seed | 1;
        let trace: Vec<u64> = (0..LOOKUPS)
            .map(|_| {
                x = lcg_next(x);
                (x >> 20) % span
            })
            .collect();
        let reps = self.repeat("sim.cache", REPS, |tr, _| {
            let mut cache = Cache::new(&cfg);
            let (hits, id) = tr.span("sim.cache.lookup", |_| {
                let mut hits = 0u64;
                for &line in &trace {
                    if cache.access(line, false) {
                        hits += 1;
                    } else {
                        black_box(cache.insert_miss(line, false));
                    }
                }
                hits
            });
            Rep::of(id, Counters::default())
                .with("lookups", LOOKUPS)
                .with("hits", hits)
        });
        let v = self.ns_per(&reps, |r| r.count("lookups"));
        self.row("sim.cache.lookup_ns", v);
        self.row(
            "sim.cache.hit_ratio",
            reps[0].count("hits") as f64 / LOOKUPS as f64,
        );
    }

    /// `SimVec::get`/`set` in `Machine::run`, enclave setting, over an
    /// array far larger than the L3.
    fn random_access(&mut self) {
        let p = self.p.clone();
        let n = 1usize << 20;
        let reps = self.repeat("sim.access", REPS, |tr, seed| {
            let mut m = fresh(&p);
            let mut v = m.alloc::<u64>(n);
            let before = m.counters().clone();
            let (_, id) = tr.span("sim.access.random", |_| {
                m.run(|c| {
                    let mut x = seed | 1;
                    let mut acc = 0u64;
                    for i in 0..RANDOM_ACCESSES {
                        x = lcg_next(x);
                        let k = (x >> 16) as usize % n;
                        if x >> 63 == 1 {
                            v.set(c, k, i);
                        } else {
                            acc = acc.wrapping_add(v.get(c, k));
                        }
                    }
                    black_box(acc)
                })
            });
            Rep::of(id, m.counters().delta(&before))
        });
        let c = &reps[0].counters;
        let (fills, tlb, accesses) = (c.dram_fills, c.tlb_misses, c.accesses().max(1));
        let v = self.ns_per(&reps, |r| r.counters.accesses());
        self.row("sim.access.random_ns", v);
        self.row("sim.access.dram_fill_ratio", fills as f64 / accesses as f64);
        self.row("sim.access.tlb_miss_ratio", tlb as f64 / accesses as f64);
    }

    /// `SimVec::read_stream` over a 16 MB array, on the default path and
    /// with the per-line oracle forced.
    fn stream(&mut self) {
        let p = self.p.clone();
        let n = 1usize << 21;
        for (metric, oracle) in [
            ("sim.stream.line_ns", false),
            ("sim.stream.oracle_line_ns", true),
        ] {
            let reps = self.repeat(metric, REPS, |tr, seed| {
                let mut m = fresh(&p);
                m.force_stream_oracle(oracle);
                let mut v = m.alloc::<u64>(n);
                v.as_mut_slice_untracked()
                    .iter_mut()
                    .enumerate()
                    .for_each(|(i, x)| *x = seed ^ i as u64);
                let before = m.counters().clone();
                let (_, id) = tr.span(metric, |_| {
                    m.run(|c| {
                        let mut acc = 0u64;
                        v.read_stream(c, 0..n, |_, _, x| acc = acc.wrapping_add(x));
                        black_box(acc)
                    })
                });
                Rep::of(id, m.counters().delta(&before))
            });
            let v = self.ns_per(&reps, |r| r.counters.stream_lines);
            self.row(metric, v);
        }
    }

    /// `Core::compute(1)` loops: profiler off, profiler on, and with an
    /// AEX storm installed (fault tick = that loop minus the plain one).
    fn commit_and_fault_tick(&mut self) {
        let p = self.p.clone();
        let loop_ns = |me: &mut Self, name: &str, profiled: bool, storm: bool| {
            let reps = me.repeat(name, REPS, |tr, seed| {
                sgx_sim::profile::set_enabled(profiled);
                let mut m = fresh(&p);
                if storm {
                    m.install_faults(
                        FaultProfile::new(seed).with_aex_storm(1.0e6 / AEX_PER_MCYCLE),
                    );
                }
                let before = m.counters().clone();
                let (_, id) = tr.span(name, |_| {
                    m.run(|c| {
                        for _ in 0..COMMITS {
                            c.compute(1);
                        }
                    })
                });
                let delta = m.counters().delta(&before);
                drop(m);
                sgx_sim::profile::set_enabled(false);
                sgx_sim::profile::session_take();
                Rep::of(id, delta)
            });
            let aex = reps[0].counters.aex_events;
            (me.ns_per(&reps, |_| COMMITS), aex)
        };
        let (plain, _) = loop_ns(self, "sim.commit", false, false);
        let (profiled, _) = loop_ns(self, "sim.commit.profiled", true, false);
        let (stormy, aex) = loop_ns(self, "sim.fault_tick", false, true);
        self.row("sim.commit.ns", plain);
        self.row("sim.commit.profiled_ns", profiled);
        self.row("sim.fault_tick.ns", stormy - plain);
        self.row(
            "sim.fault_tick.aex_per_mcommit",
            aex as f64 * 1e6 / COMMITS as f64,
        );
    }

    /// `Machine::new` on the golden machine, 16 constructions per span.
    fn machine_new(&mut self) {
        let p = self.p.clone();
        let reps = self.repeat("sim.machine_new", REPS, |tr, _| {
            let (_, id) = tr.span("sim.machine_new", |_| {
                for _ in 0..16 {
                    black_box(fresh(&p));
                }
            });
            Rep::of(id, Counters::default()).with("machines", 16)
        });
        let v = self.ns_per(&reps, |r| r.count("machines")) * 1e-6;
        self.row("sim.machine_new_ms", v);
    }

    /// `gen_pk_relation`/`gen_fk_relation`, then `pht_join` and `rho_join`
    /// on 100 MB ⋈ 400 MB relations (paper scale).
    fn joins(&mut self) {
        let p = self.p.clone();
        let (nr, ns) = (p.rel_rows(100), p.rel_rows(400));
        let mut gen = Vec::new();
        for (name, radix) in [("joins.pht", false), ("joins.rho", true)] {
            let reps = self.repeat(name, REPS, |tr, seed| {
                let mut m = fresh(&p);
                let before = m.counters().clone();
                let ((r, s), gen_id) = tr.span("joins.gen", |_| {
                    (
                        gen_pk_relation(&mut m, nr, seed),
                        gen_fk_relation(&mut m, ns, nr, seed ^ 0xF00D),
                    )
                });
                gen.push(tr.secs(gen_id) * 1e3);
                let mid = m.counters().clone();
                let cfg = JoinConfig::new(THREADS);
                let (matches, id) = tr.span(name, |_| {
                    let stats = if radix {
                        rho_join(&mut m, &r, &s, &cfg)
                    } else {
                        pht_join(&mut m, &r, &s, &cfg)
                    };
                    stats.matches
                });
                Rep::of(id, m.counters().delta(&mid))
                    .with("matches", matches)
                    .with("gen_events", events(&mid.delta(&before)))
            });
            let v = self.ns_per_event(&reps);
            self.row(&format!("{name}.ns_per_event"), v);
        }
        self.row("joins.gen_ms", median(gen));
    }

    /// `pointer_chase` and `random_write` at fig05's largest size (128× L3).
    fn micro(&mut self) {
        let p = self.p.clone();
        let bytes = 128 * p.hw.l3.size;
        for (name, write) in [("micro.pointer_chase", false), ("micro.random_write", true)] {
            let reps = self.repeat(name, SLOW_REPS, |tr, seed| {
                sgx_sim::counters::session_take();
                let (_, id) = tr.span(name, |_| {
                    if write {
                        black_box(
                            random_write(
                                p.hw.clone(),
                                Setting::SgxDataInEnclave,
                                bytes,
                                1_000_000,
                                seed,
                            )
                            .cycles,
                        )
                    } else {
                        black_box(
                            pointer_chase(
                                p.hw.clone(),
                                Setting::SgxDataInEnclave,
                                bytes,
                                150_000,
                                seed,
                            )
                            .cycles,
                        )
                    }
                });
                Rep::of(id, sgx_sim::counters::session_take())
            });
            let v = self.ns_per_event(&reps);
            self.row(&format!("{name}.ns_per_event"), v);
        }
    }

    /// `linear_read`, `column_scan` and `packed_scan_count` over 2 GB
    /// columns (paper scale).
    fn scans(&mut self) {
        let p = self.p.clone();
        let bytes = p.mb(2048);
        let cores: Vec<usize> = (0..THREADS).collect();
        let reps = self.repeat("scans.linear", REPS, |tr, seed| {
            let mut m = fresh(&p);
            let mut v = m.alloc::<u64>(bytes / 8);
            v.as_mut_slice_untracked()
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = seed ^ i as u64);
            let cfg = LinearConfig::new(THREADS).with_warmup(0).with_repeats(1);
            let before = m.counters().clone();
            let (_, id) = tr.span("scans.linear", |_| {
                black_box(linear_read(&mut m, &v, Width::Bits64, &cfg))
            });
            Rep::of(id, m.counters().delta(&before))
        });
        let linear = self.ns_per_event(&reps);
        let reps = self.repeat("scans.column", REPS, |tr, seed| {
            let mut m = fresh(&p);
            let col = gen_column(&mut m, bytes, seed);
            let cfg = ScanConfig::new(THREADS).with_warmup(0).with_repeats(1);
            let before = m.counters().clone();
            let (matches, id) = tr.span("scans.column", |_| {
                column_scan(&mut m, &col, 32, 96, ScanOutput::BitVector, &cfg).matches
            });
            Rep::of(id, m.counters().delta(&before)).with("matches", matches)
        });
        let column = self.ns_per_event(&reps);
        let reps = self.repeat("scans.packed", REPS, |tr, seed| {
            let mut m = fresh(&p);
            let mut x = seed | 1;
            let vals: Vec<u32> = (0..bytes)
                .map(|_| {
                    x = lcg_next(x);
                    ((x >> 33) as u32) & 0xFF
                })
                .collect();
            let col = PackedColumn::pack(&mut m, &vals, 8);
            let before = m.counters().clone();
            let (matches, id) = tr.span("scans.packed", |_| {
                packed_scan_count(&mut m, &col, 1, 100, &cores).0
            });
            Rep::of(id, m.counters().delta(&before)).with("matches", matches)
        });
        let packed = self.ns_per_event(&reps);
        self.row("scans.linear.ns_per_event", linear);
        self.row("scans.column.ns_per_event", column);
        self.row("scans.packed.ns_per_event", packed);
    }

    /// `generate` at paper SF 10, then `q3`, `q10`, `q12`, `q19` on it.
    fn tpch(&mut self) {
        let p = self.p.clone();
        let sf = p.tpch_sf(10.0);
        let queries: [(&str, QueryFn); 4] = [
            ("tpch.q3", sgx_tpch::queries::q3),
            ("tpch.q10", sgx_tpch::queries::q10),
            ("tpch.q12", sgx_tpch::queries::q12),
            ("tpch.q19", sgx_tpch::queries::q19),
        ];
        let mut gen = Vec::new();
        let mut per_query: Vec<Vec<Rep>> = (0..queries.len()).map(|_| Vec::new()).collect();
        self.repeat("tpch.gen", REPS, |tr, seed| {
            let mut m = fresh(&p);
            let (db, gen_id) = tr.span("tpch.gen", |_| generate(&mut m, sf, seed));
            gen.push(tr.secs(gen_id) * 1e3);
            let generated = m.counters().clone();
            let cfg = QueryConfig::new(THREADS);
            for (slot, (name, q)) in per_query.iter_mut().zip(queries) {
                let before = m.counters().clone();
                let (count, id) = tr.span(name, |_| q(&mut m, &db, &cfg).count);
                slot.push(Rep::of(id, m.counters().delta(&before)).with("count", count));
            }
            Rep::of(gen_id, generated)
        });
        self.row("tpch.gen_ms", median(gen));
        for ((name, _), reps) in queries.iter().zip(per_query) {
            self.check(name, &reps);
            let v = self.ns_per_event(&reps);
            self.row(&format!("{name}.ns_per_event"), v);
        }
    }

    /// `storage_path_query` over a sealed dictionary-coded 64 MB column.
    fn storage(&mut self) {
        let p = self.p.clone();
        let elems = (p.mb(64) / 4).max(64);
        let cores: Vec<usize> = (0..THREADS).collect();
        let reps = self.repeat("tpch.storage", REPS, |tr, seed| {
            let mut m = fresh(&p);
            let values = clustered_column(elems, seed);
            let col = seal_column(&mut m, &values, StorageFormat::Dict);
            let before = m.counters().clone();
            let (matches, id) = tr.span("tpch.storage", |_| {
                storage_path_query(&mut m, &cores, &col, 128, 64).matches
            });
            Rep::of(id, m.counters().delta(&before)).with("matches", matches)
        });
        let v = self.ns_per_event(&reps);
        self.row("tpch.storage.ns_per_event", v);
    }

    /// `calibrate` at the calm point and under the AEX storm, then
    /// `run_service` on the calm table.
    fn calibration_and_des(&mut self) {
        let p = self.p.clone();
        let calm = StressPoint {
            aex_per_mcycle: 0.0,
            epc_level: 0.0,
        };
        let storm = StressPoint {
            aex_per_mcycle: AEX_PER_MCYCLE,
            epc_level: 0.0,
        };
        let mut table = None;
        let reps = self.repeat("service.calibrate", SLOW_REPS, |tr, _| {
            sgx_sim::counters::session_take();
            let ((cal, _), id) = tr.span("service.calibrate", |tr| {
                let (c, _) = tr.span("service.calibrate.calm", |_| {
                    calibrate(&p, Setting::SgxDataInEnclave, calm)
                });
                let (s, _) = tr.span("service.calibrate.aex", |_| {
                    calibrate(&p, Setting::SgxDataInEnclave, storm)
                });
                (c, s)
            });
            let rep =
                Rep::of(id, sgx_sim::counters::session_take()).with("high_water", cal.high_water);
            table = Some(cal.costs);
            rep
        });
        // Each repetition calibrates twice.
        let calibrate_ms = median(
            reps.iter()
                .map(|r| self.tr.secs(r.span) * 1e3 / 2.0)
                .collect(),
        );
        let Some(costs) = table else { return };
        let m = costs.mean_total(PlanVariant::Normal);
        let reps = self.repeat("serve.des", REPS, |tr, seed| {
            let mut cfg = service_config(m, 0.0, true);
            cfg.seed = seed;
            let (out, id) = tr.span("serve.des", |_| run_service(&cfg, &tenants(m), &costs));
            Rep::of(id, Counters::default())
                .with("des_events", out.events_processed)
                .with("submitted", out.total.submitted)
                .with("completed", out.total.completed)
        });
        let des = self.ns_per(&reps, |r| r.count("des_events"));
        let qps = median(
            reps.iter()
                .map(|r| r.count("submitted") as f64 / self.tr.secs(r.span))
                .collect(),
        );
        self.row("service.calibrate_ms", calibrate_ms);
        self.row("serve.des.ns_per_event", des);
        self.row("serve.queries_per_s", qps);
    }
}
