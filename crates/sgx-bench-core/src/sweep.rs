//! Deterministic point sweep: run a figure's independent single-machine
//! points on up to the job's thread budget, and hand back exactly what a
//! sequential loop over them would.
//!
//! * **Results in list order.** The caller receives one result per item,
//!   in the order of the item list, whichever thread ran it.
//! * **Inline when order is observable.** With cycle profiling on for the
//!   calling thread, or a budget of one thread, the items run inline in
//!   list order, which is also the order their machines are built and
//!   dropped. Profile sessions add `f64`s in machine-drop order, so only
//!   this order reproduces a profile byte for byte.
//! * **Counters conserved.** Each helper thread's counter session is
//!   folded into the caller's before the sweep returns; `u64` addition is
//!   exact in any order, so the job's counters equal a sequential run's.
//! * **Claims by size.** The calling thread claims the largest remaining
//!   item, helpers the smallest. The largest machines therefore run one
//!   after another on the caller, never side by side, while helpers work
//!   through the small ones; this keeps the job's peak memory near a
//!   sequential run's.
//! * **Failures as before.** A panic on a helper is re-raised on the
//!   caller after every thread has joined, so the registry's
//!   `catch_unwind` records the job as failed.
//!
//! DESIGN.md §17 gives the argument and the measured claim orders.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::runner::{sweep_threads, WORKER_STACK};

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
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 || sgx_sim::profile::enabled() {
        return items.iter().map(point).collect();
    }
    // Item indices from smallest to largest; ties keep list order.
    let mut by_size: Vec<usize> = (0..n).collect();
    by_size.sort_by_key(|&i| bytes(&items[i]));
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
    // One thread's claims and results; a panic is held until every
    // thread has joined.
    let drain = |largest_first: bool| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut mine = Vec::new();
            while let Some(i) = claim(largest_first) {
                mine.push((i, point(&items[i])));
            }
            mine
        }))
    };
    let parts = std::thread::scope(|s| {
        let mut helpers = Vec::new();
        for _ in 1..threads {
            let spawned = std::thread::Builder::new()
                .stack_size(WORKER_STACK)
                .spawn_scoped(s, || (drain(false), sgx_sim::counters::session_take()));
            match spawned {
                Ok(h) => helpers.push(h),
                // The caller still drains every item below, so a failed
                // spawn only costs parallelism.
                Err(e) => eprintln!("warning: could not spawn sweep helper: {e}"),
            }
        }
        let mut parts = vec![drain(true)];
        for h in helpers {
            let (part, counters) = h.join().unwrap_or_else(|p| panic::resume_unwind(p));
            sgx_sim::counters::session_absorb(&counters);
            parts.push(part);
        }
        parts
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for part in parts {
        for (i, r) in part.unwrap_or_else(|p| panic::resume_unwind(p)) {
            slots[i] = Some(r);
        }
    }
    // Without a panic every item was claimed exactly once.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::BenchProfile;
    use crate::report::Figure;
    use crate::runner::{run_registry, FigureJob, JobStatus, RunConfig};
    use sgx_sim::{Machine, Setting};
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

    #[test]
    fn profiled_sweeps_run_inline_in_list_order() {
        let ran: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        sgx_sim::profile::set_enabled(true);
        let got = sweep_on(
            8,
            &SIZES,
            |&k| k,
            |&k| {
                ran.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((k, thread::current().id()));
                k
            },
        );
        sgx_sim::profile::set_enabled(false);
        let _ = sgx_sim::profile::session_take();
        let me = thread::current().id();
        let ran = ran.into_inner().unwrap_or_else(|e| e.into_inner());
        assert_eq!(got, SIZES);
        assert_eq!(ran, SIZES.iter().map(|&k| (k, me)).collect::<Vec<_>>());
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
