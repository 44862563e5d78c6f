//! Deterministic point sweep: run a figure's independent single-machine
//! points on up to the job's thread budget, and hand back exactly what a
//! sequential loop over them would.
//!
//! * **Results in list order.** The caller receives one result per item,
//!   in the order of the item list, whichever thread ran it.
//! * **Sessions in list order.** Each point runs inside a [`capture`],
//!   which sets the thread's counter and profile sessions aside, so it
//!   returns the point's result together with the counters and the
//!   machine profiles of the machines the point dropped. After every
//!   thread has joined, the caller appends the captures to its own
//!   sessions in list order, which is the order a sequential loop drops
//!   the points' machines in. `u64` counters are exact in any order, and
//!   profile sessions fold their `f64` bins only when taken, in that
//!   order, so the job's counters and profile equal a sequential run's
//!   bit for bit. A budget of one thread runs the same code with no
//!   helper.
//! * **Helpers start clean.** A helper thread starts with the caller's
//!   profiling flag and an empty phase stack. No job opens a phase scope
//!   around a sweep; one that did would attribute its helpers' points
//!   outside that scope, and the profiled golden run would catch it.
//! * **Claims by size.** The calling thread claims the largest remaining
//!   item, helpers the smallest. The largest machines therefore run one
//!   after another on the caller, never side by side, while helpers work
//!   through the small ones; this keeps the job's peak memory near a
//!   sequential run's.
//! * **Failures as before.** A thread stops claiming after a point
//!   panics. The caller still absorbs every captured session, the
//!   panicking point's included, and then re-raises the panic of the
//!   first failed item in list order, so the registry's `catch_unwind`
//!   records the job as failed.
//!
//! DESIGN.md §17 gives the argument and the measured claim orders.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::runner::{sweep_threads, WORKER_STACK};
use sgx_sim::{Counters, Profile};

/// What one [`capture`] ran: its result, or its panic, and the sessions
/// of the machines it dropped.
pub(crate) struct Capture<R> {
    /// The closure's result, or its panic payload.
    pub(crate) result: std::thread::Result<R>,
    /// Counter totals of the machines dropped while it ran.
    pub(crate) counters: Counters,
    /// Profiles of those machines, in drop order (empty unless profiled).
    pub(crate) profiles: Vec<Profile>,
}

impl<R> Capture<R> {
    /// Append the captured sessions to the current thread's and hand back
    /// the result.
    fn absorb(self) -> std::thread::Result<R> {
        sgx_sim::counters::session_absorb(&self.counters);
        sgx_sim::profile::session_extend(self.profiles);
        self.result
    }
}

/// Run `f` with this thread's counter and profile sessions set aside,
/// catching a panic, and return what it produced and dropped. The
/// thread's sessions are as before on return.
pub(crate) fn capture<R>(f: impl FnOnce() -> R) -> Capture<R> {
    let outer_counters = sgx_sim::counters::session_take();
    let outer_profiles = sgx_sim::profile::session_take_list();
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    let captured = Capture {
        result,
        counters: sgx_sim::counters::session_take(),
        profiles: sgx_sim::profile::session_take_list(),
    };
    sgx_sim::counters::session_absorb(&outer_counters);
    sgx_sim::profile::session_extend(outer_profiles);
    captured
}

/// Run `point` on every item, sharing the items among up to the calling
/// job's thread budget ([`sweep_threads`]); `bytes` sizes an item for the
/// claim order. Returns the results in list order.
pub(crate) fn sweep<T: Sync, R: Send>(
    items: &[T],
    bytes: impl Fn(&T) -> usize,
    point: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    sweep_on(sweep_threads(), items, bytes, point)
}

/// [`sweep`] on at most `threads` threads in total, the caller included.
pub(crate) fn sweep_on<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    bytes: impl Fn(&T) -> usize,
    point: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let sizes: Vec<usize> = items.iter().map(bytes).collect();
    sweep_indices(threads, &sizes, &|i| point(&items[i]))
}

/// [`sweep_on`] over item indices, given each item's size. Calling the
/// point only through a trait object keeps one copy of each figure's
/// point body, and one copy of the thread machinery per result type.
fn sweep_indices<R: Send>(
    threads: usize,
    sizes: &[usize],
    point: &(dyn Fn(usize) -> R + Sync),
) -> Vec<R> {
    let n = sizes.len();
    let by_size = smallest_first(sizes);
    // Every successful claim takes one item from exactly one end, and at
    // most `n` claims succeed, so the two ends never cross. The counters
    // publish no data: results travel back through `join`.
    let claims = AtomicUsize::new(0);
    let (smallest, largest) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let claim = |largest_first: bool| {
        (claims.fetch_add(1, Ordering::Relaxed) < n).then(|| {
            if largest_first {
                by_size[n - 1 - largest.fetch_add(1, Ordering::Relaxed)]
            } else {
                by_size[smallest.fetch_add(1, Ordering::Relaxed)]
            }
        })
    };
    // One thread's claims, each captured; the thread stops at a panic.
    let drain = |largest_first: bool| {
        let mut mine = Vec::new();
        while let Some(i) = claim(largest_first) {
            let captured = capture(|| point(i));
            let failed = captured.result.is_err();
            mine.push((i, captured));
            if failed {
                break;
            }
        }
        mine
    };
    let profiled = sgx_sim::profile::enabled();
    let parts = std::thread::scope(|s| {
        let mut helpers = Vec::new();
        for _ in 1..threads.min(n) {
            let spawned = std::thread::Builder::new()
                .stack_size(WORKER_STACK)
                .spawn_scoped(s, || {
                    sgx_sim::profile::set_enabled(profiled);
                    drain(false)
                });
            match spawned {
                Ok(h) => helpers.push(h),
                // The caller still drains every item below, so a failed
                // spawn only costs parallelism.
                Err(e) => eprintln!("warning: could not spawn sweep helper: {e}"),
            }
        }
        let mut parts = vec![drain(true)];
        for h in helpers {
            parts.push(h.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        parts
    });
    let mut slots: Vec<Option<Capture<R>>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, captured) in parts.into_iter().flatten() {
        slots[i] = Some(captured);
    }
    // Absorb in list order, a failed point's sessions included. Without a
    // panic every item was claimed exactly once.
    let mut results = Vec::with_capacity(n);
    let mut failure = None;
    for captured in slots.into_iter().flatten() {
        match captured.absorb() {
            Ok(r) => results.push(r),
            Err(p) => {
                failure.get_or_insert(p);
            }
        }
    }
    if let Some(p) = failure {
        panic::resume_unwind(p);
    }
    results
}

/// Item indices from the smallest item to the largest; ties keep list
/// order.
fn smallest_first(sizes: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| sizes[i]);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::BenchProfile;
    use crate::report::{Figure, Stat};
    use crate::runner::{run_registry, FigureJob, JobStatus, RunConfig};
    use crate::{rep_seeds, repeat, repeat_grid_on};
    use sgx_sim::{CostCategory, Machine, Setting};
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    /// Item sizes in list order: unsorted, with a tie, and a unique
    /// smallest (1) and largest (40) item.
    const SIZES: [usize; 10] = [3, 40, 7, 1, 12, 12, 5, 9, 2, 30];

    /// One single-machine point: stores over an array of `k` lines.
    fn point(&k: &usize) -> (usize, f64) {
        let mut m = Machine::new(BenchProfile::tiny().hw, Setting::SgxDataInEnclave);
        let mut v = m.alloc::<u64>(k * 8);
        m.run(|c| {
            for i in 0..v.len() {
                v.set(c, i, i as u64);
            }
        });
        (k, m.wall_cycles())
    }

    #[test]
    fn results_and_counters_match_the_sequential_loop() {
        let _ = sgx_sim::counters::session_take();
        let want: Vec<(usize, f64)> = SIZES.iter().map(point).collect();
        let want_counters = sgx_sim::counters::session_take().report();
        assert!(!want_counters.is_empty());
        for threads in [1, 2, 8] {
            // With helpers, the caller's first claim (40) waits until a
            // helper has reached its own first claim (1), so a helper
            // always runs points.
            let gate = Barrier::new(2);
            let got = sweep_on(
                threads,
                &SIZES,
                |&k| k,
                |&k| {
                    if threads > 1 && (k == 1 || k == 40) {
                        gate.wait();
                    }
                    point(&k)
                },
            );
            let counters = sgx_sim::counters::session_take().report();
            assert_eq!(
                got, want,
                "{threads} threads: results must come back in list order"
            );
            assert_eq!(
                counters, want_counters,
                "{threads} threads: counters must be conserved"
            );
        }
    }

    /// Grid configurations in list order: unequal array lines with a
    /// unique smallest (3) and largest (30), in both settings.
    const GRID: [(usize, Setting); 4] = [
        (12, Setting::PlainCpu),
        (3, Setting::SgxDataInEnclave),
        (30, Setting::SgxDataInEnclave),
        (5, Setting::PlainCpu),
    ];

    /// One grid point: stores over `k` lines, fewer for some seeds, so the
    /// repetitions of one configuration differ.
    fn grid_point(&(k, setting): &(usize, Setting), seed: u64) -> f64 {
        let mut m = Machine::new(BenchProfile::tiny().hw, setting);
        let mut v = m.alloc::<u64>(k * 8);
        let stores = v.len() - (seed % 5) as usize;
        m.run(|c| {
            for i in 0..stores {
                v.set(c, i, seed);
            }
        });
        m.wall_cycles()
    }

    fn stat_bits(stats: &[Stat]) -> Vec<(u64, u64)> {
        stats
            .iter()
            .map(|s| (s.mean.to_bits(), s.stddev.to_bits()))
            .collect()
    }

    #[test]
    fn grid_gives_nested_repeat_stats_and_conserves_counters() {
        for reps in [1, 3] {
            let _ = sgx_sim::counters::session_take();
            let want: Vec<Stat> = GRID
                .iter()
                .map(|cfg| repeat(reps, |seed| grid_point(cfg, seed)))
                .collect();
            let want_counters = sgx_sim::counters::session_take().report();
            assert_eq!(want.iter().any(|s| s.stddev > 0.0), reps > 1);
            let seeds: Vec<u64> = rep_seeds(reps).collect();
            let (first, last) = (seeds[0], seeds[seeds.len() - 1]);
            for threads in [1, 2, 8] {
                // With helpers, the caller's first claim (the largest
                // configuration's last seed) waits until a helper has
                // reached its own first claim (the smallest's first seed).
                let gate = Barrier::new(2);
                let got = repeat_grid_on(
                    threads,
                    reps,
                    &GRID,
                    |&(k, _)| k,
                    |cfg, seed| {
                        let (k, _) = *cfg;
                        if threads > 1 && ((k == 3 && seed == first) || (k == 30 && seed == last)) {
                            gate.wait();
                        }
                        grid_point(cfg, seed)
                    },
                );
                let counters = sgx_sim::counters::session_take().report();
                let label = format!("{threads} threads, {reps} reps");
                assert_eq!(stat_bits(&got), stat_bits(&want), "{label}: stats differ");
                assert_eq!(
                    counters, want_counters,
                    "{label}: counters must be conserved"
                );
            }
        }
    }

    /// A profiled point that builds one machine for even `k` and two for
    /// odd `k`, each with work in two phases, and returns its wall cycles.
    fn profiled_point(k: usize, seed: u64) -> f64 {
        let settings = [Setting::SgxDataInEnclave, Setting::PlainCpu];
        let mut wall = 0.0;
        for &setting in &settings[..1 + k % 2] {
            let mut m = Machine::new(BenchProfile::tiny().hw, setting);
            let mut v = m.alloc::<u64>(k * 8);
            {
                let _fill = m.phase("fill");
                m.run(|c| {
                    for i in 0..v.len() {
                        v.set(c, i, seed ^ i as u64);
                    }
                });
            }
            let _sum = m.phase("sum");
            let reads = v.len() - (seed % 5) as usize;
            m.run(|c| {
                let mut acc = 0u64;
                for i in 0..reads {
                    acc = acc.wrapping_add(v.get(c, i));
                }
                c.compute(acc % 7 + 1);
            });
            wall += m.wall_cycles();
        }
        wall
    }

    /// One line per phase with the bits of every bin and the phase
    /// counters, then the bits of `charged_cycles`.
    fn profile_bits(p: &Profile) -> Vec<String> {
        let mut lines: Vec<String> = p
            .phases
            .iter()
            .map(|(path, ph)| {
                let bins: Vec<u64> =
                    CostCategory::ALL.iter().map(|&c| ph.cycles.get(c).to_bits()).collect();
                format!("{path} {bins:?} {}", ph.counters.report())
            })
            .collect();
        lines.push(format!("charged {}", p.charged_cycles.to_bits()));
        lines
    }

    /// The counter report and profile bits the sessions hold, taken.
    fn take_sessions() -> (String, Vec<String>) {
        let counters = sgx_sim::counters::session_take().report();
        (counters, profile_bits(&sgx_sim::profile::session_take()))
    }

    #[test]
    fn profiled_sweeps_and_grids_match_the_sequential_loop() {
        sgx_sim::profile::set_enabled(true);
        let _ = take_sessions();
        let want: Vec<u64> = SIZES.iter().map(|&k| profiled_point(k, 0).to_bits()).collect();
        let want_sessions = take_sessions();
        assert!(want_sessions.1.len() > 2, "the profile covers several phases");
        let reps = 3;
        let want_grid: Vec<Stat> =
            GRID.iter().map(|&(k, _)| repeat(reps, |seed| profiled_point(k, seed))).collect();
        let want_grid_sessions = take_sessions();
        let seeds: Vec<u64> = rep_seeds(reps).collect();
        let (first, last) = (seeds[0], seeds[seeds.len() - 1]);
        for threads in [1, 2, 8] {
            // With helpers, the caller's first claim waits until a helper
            // has reached its own first claim, so a helper always runs
            // points.
            let gate = Barrier::new(2);
            let got: Vec<u64> = sweep_on(
                threads,
                &SIZES,
                |&k| k,
                |&k| {
                    if threads > 1 && (k == 1 || k == 40) {
                        gate.wait();
                    }
                    profiled_point(k, 0).to_bits()
                },
            );
            assert_eq!(got, want, "{threads} threads: sweep results differ");
            assert_eq!(take_sessions(), want_sessions, "{threads} threads: sweep sessions differ");
            let got_grid = repeat_grid_on(
                threads,
                reps,
                &GRID,
                |&(k, _)| k,
                |&(k, _), seed| {
                    if threads > 1 && ((k == 3 && seed == first) || (k == 30 && seed == last)) {
                        gate.wait();
                    }
                    profiled_point(k, seed)
                },
            );
            assert_eq!(stat_bits(&got_grid), stat_bits(&want_grid), "{threads} threads: grid stats differ");
            assert_eq!(
                take_sessions(),
                want_grid_sessions,
                "{threads} threads: grid sessions differ"
            );
        }
        sgx_sim::profile::set_enabled(false);
    }

    #[test]
    fn a_failed_point_keeps_every_dropped_machines_sessions() {
        sgx_sim::profile::set_enabled(true);
        let _ = take_sessions();
        // The caller's first claim (3) waits for the helper to reach 1,
        // which fails after its machine has run; the caller then runs 2.
        let gate = Barrier::new(2);
        let failed = panic::catch_unwind(AssertUnwindSafe(|| {
            sweep_on(
                2,
                &[1u64, 2, 3],
                |&k| k as usize,
                |&k| {
                    if k == 1 || k == 3 {
                        gate.wait();
                    }
                    let mut m = Machine::new(BenchProfile::tiny().hw, Setting::PlainCpu);
                    m.run(|c| c.compute(1000 * k));
                    assert!(k != 1, "helper point {k} failed");
                    k
                },
            )
        }));
        sgx_sim::profile::set_enabled(false);
        let cause = failed.expect_err("the helper's panic reaches the caller");
        assert!(cause.downcast_ref::<String>().is_some_and(|e| e.contains("helper point 1 failed")));
        let counters = sgx_sim::counters::session_take();
        assert_eq!(counters.alu_ops, 6000, "every point's machine counts, the failed one's too");
        assert_eq!(sgx_sim::profile::session_take().total_counters().alu_ops, 6000);
    }

    #[test]
    fn caller_claims_from_the_largest_helpers_from_the_smallest() {
        let me = thread::current().id();
        let ran: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        // The caller's first claim (9) waits until the helper has reached
        // its own first claim (1), so both threads work at once.
        let gate = Barrier::new(2);
        sweep_on(
            2,
            &[5usize, 9, 1, 7, 3, 8],
            |&k| k,
            |&k| {
                if k == 1 || k == 9 {
                    gate.wait();
                }
                ran.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((k, thread::current().id()));
            },
        );
        let ran = ran.into_inner().unwrap_or_else(|e| e.into_inner());
        let on = |caller: bool| -> Vec<usize> {
            ran.iter()
                .filter(|r| (r.1 == me) == caller)
                .map(|r| r.0)
                .collect()
        };
        let (caller, helper) = (on(true), on(false));
        assert_eq!(caller.first(), Some(&9));
        assert_eq!(helper.first(), Some(&1));
        assert!(
            caller.windows(2).all(|w| w[0] > w[1]),
            "caller claims descend: {caller:?}"
        );
        assert!(
            helper.windows(2).all(|w| w[0] < w[1]),
            "helper claims ascend: {helper:?}"
        );
        assert_eq!(caller.len() + helper.len(), 6);
    }

    fn probe_job(profile: &BenchProfile) -> Vec<Figure> {
        let mut m = Machine::new(profile.hw.clone(), Setting::PlainCpu);
        m.run(|c| c.compute(1000));
        vec![Figure::new("probe", "probe", "x", "y")]
    }

    /// A sweep whose smallest item, always a helper's first claim, panics.
    fn helper_panic_job(threads: usize) -> Vec<Figure> {
        let gate = Barrier::new(2);
        sweep_on(
            threads,
            &[1usize, 2, 3],
            |&k| k,
            |&k| {
                // The caller's first claim (3) waits for a helper to reach 1.
                if k == 1 || k == 3 {
                    gate.wait();
                }
                assert!(k != 1, "helper point {k} failed");
                k
            },
        );
        Vec::new()
    }

    fn helper_panic_2(_: &BenchProfile) -> Vec<Figure> {
        helper_panic_job(2)
    }

    fn helper_panic_8(_: &BenchProfile) -> Vec<Figure> {
        helper_panic_job(8)
    }

    #[test]
    fn helper_panics_fail_only_their_job() {
        for (threads, boom) in [
            (2, helper_panic_2 as fn(&BenchProfile) -> Vec<Figure>),
            (8, helper_panic_8),
        ] {
            let reg = [
                FigureJob {
                    id: "alpha",
                    run: probe_job,
                },
                FigureJob {
                    id: "boom",
                    run: boom,
                },
                FigureJob {
                    id: "omega",
                    run: probe_job,
                },
            ];
            let out = run_registry(
                &reg,
                &BenchProfile::tiny(),
                &RunConfig {
                    jobs: 1,
                    ..RunConfig::default()
                },
            );
            assert_eq!(out[0].status, JobStatus::Ok);
            assert_eq!(out[1].status, JobStatus::Failed, "{threads} threads");
            assert!(out[1]
                .error
                .as_deref()
                .is_some_and(|e| e.contains("helper point 1 failed")));
            assert_eq!(out[2].status, JobStatus::Ok);
            assert_eq!(out[2].counters.alu_ops, 1000);
        }
    }
}
