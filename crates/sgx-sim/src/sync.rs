//! Models of the thread-synchronization primitives whose costs §4.4 of the
//! paper analyzes: the SGX SDK mutex (which sleeps threads *outside* the
//! enclave, paying two transitions plus a futex syscall on every contended
//! acquire), a spinlock, and a lock-free (Michael-Scott style) queue.
//!
//! A [`QueueKind`] names one of them. A phase's task queue owns a virtual
//! timeline: `dequeue(now)` maps a worker's local clock to the time its
//! dequeue completes, serializing conflicting critical sections and
//! charging mode-dependent costs. The scheduler in
//! `Machine::parallel_tasks` interleaves workers by advancing whichever has
//! the smallest local clock, so contention (and the §4.4 avalanche effect)
//! plays out the same way it would under real concurrent execution.

use crate::config::TransitionConfig;
use crate::counters::Counters;
use crate::mem::ExecMode;

/// Task-queue implementation used to distribute partition/join tasks
/// (§4.4, Fig 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Lock-free MPMC queue (the paper's fix; Boost lock-free queue).
    /// Contention only costs bounded CAS retries; no OS or enclave-boundary
    /// interaction ever happens.
    LockFree,
    /// The SGX SDK mutex (`sgx_thread_mutex_*`): a contended acquire
    /// performs an OCALL so the OS can put the thread to sleep, and the
    /// release performs an OCALL to wake a sleeper — four enclave
    /// crossings per handover (§4.4). In native mode the same structure
    /// degenerates to a futex-based mutex.
    SdkMutex,
    /// An in-enclave spinlock: contended acquires busy-wait inside the
    /// enclave. No transitions, but the waiting time is real (the core
    /// burns cycles).
    SpinLock,
}

impl QueueKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::LockFree => "lock-free queue",
            QueueKind::SdkMutex => "SDK mutex queue",
            QueueKind::SpinLock => "spinlock queue",
        }
    }
}

/// Cycles a lock-free queue pop costs when uncontended (atomic load + CAS).
const LOCKFREE_POP_CYCLES: f64 = 40.0;
/// Extra cycles for a CAS retry when another pop landed almost
/// simultaneously.
const LOCKFREE_RETRY_CYCLES: f64 = 30.0;
/// Window within which two pops conflict on the head pointer.
const LOCKFREE_CONFLICT_WINDOW: f64 = 25.0;
/// Cycles the critical section of a mutex-guarded pop takes (pointer
/// manipulation under the lock).
const MUTEX_CS_CYCLES: f64 = 60.0;
/// Fast-path (uncontended) lock+unlock cost.
const MUTEX_FAST_CYCLES: f64 = 50.0;

/// One phase's task queue: the hand-out of tasks `0..n_tasks` in order,
/// priced by its kind on a virtual timeline.
pub(crate) struct TaskQueue {
    kind: QueueKind,
    next_task: usize,
    n_tasks: usize,
    /// When the last pop completed: the lock-free queue's head-pointer
    /// conflict reference, and the time a lock becomes free again.
    last_done: f64,
}

impl TaskQueue {
    /// A queue handing out `n_tasks` tasks. Nothing has popped from the
    /// lock-free queue yet, and a lock starts free.
    pub(crate) fn new(kind: QueueKind, n_tasks: usize) -> TaskQueue {
        let last_done = match kind {
            QueueKind::LockFree => f64::NEG_INFINITY,
            QueueKind::SdkMutex | QueueKind::SpinLock => 0.0,
        };
        TaskQueue { kind, next_task: 0, n_tasks, last_done }
    }

    /// A worker whose local clock reads `now` tries to pop a task.
    /// Returns `(completion_time, Some(task))` or `(completion_time, None)`
    /// when the queue is empty.
    pub(crate) fn dequeue(
        &mut self,
        now: f64,
        mode: ExecMode,
        t: &TransitionConfig,
        counters: &mut Counters,
    ) -> (f64, Option<usize>) {
        let done = match self.kind {
            QueueKind::LockFree => {
                let mut done = now + LOCKFREE_POP_CYCLES;
                if (now - self.last_done).abs() < LOCKFREE_CONFLICT_WINDOW {
                    done += LOCKFREE_RETRY_CYCLES;
                }
                done
            }
            QueueKind::SdkMutex => {
                let free_at = self.last_done;
                let acquired = if now >= free_at {
                    // Uncontended fast path: stays inside the enclave.
                    now + MUTEX_FAST_CYCLES
                } else if mode == ExecMode::Native && free_at - now < t.futex_cycles {
                    // Native glibc-style mutexes spin briefly before
                    // sleeping; short critical sections are handed over
                    // without any syscall, which is why the paper measures
                    // no native difference between the mutex and the
                    // lock-free queue.
                    free_at + MUTEX_FAST_CYCLES
                } else {
                    counters.futex_waits += 1;
                    // The waiter goes to sleep — in enclave mode this means
                    // an OCALL out plus a transition back in once woken.
                    let (out_cost, in_cost) = match mode {
                        ExecMode::Enclave => {
                            counters.transitions += 2;
                            (t.transition_cycles + t.futex_cycles, t.transition_cycles)
                        }
                        ExecMode::Native => (t.futex_cycles, 0.0),
                    };
                    let asleep_at = now + out_cost;
                    // The wake-up itself is performed by the releasing
                    // thread; the waiter additionally pays the futex wake
                    // latency and the transition back into the enclave.
                    // Crucially, the lock stays logically unavailable while
                    // the next owner wakes up — this is the avalanche
                    // effect: transitions stretch the effective critical
                    // section.
                    asleep_at.max(free_at) + t.futex_cycles + in_cost
                };
                acquired + MUTEX_CS_CYCLES
            }
            // Spin until the lock frees, then take it; the cache-line
            // bounce on handover costs roughly one coherence miss.
            QueueKind::SpinLock => now.max(self.last_done) + MUTEX_FAST_CYCLES + MUTEX_CS_CYCLES,
        };
        self.last_done = done;
        if self.next_task < self.n_tasks {
            self.next_task += 1;
            (done, Some(self.next_task - 1))
        } else {
            (done, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::xeon_gold_6326;

    fn drain(kind: QueueKind, mode: ExecMode, workers: usize, n: usize) -> f64 {
        let cfg = xeon_gold_6326();
        let mut counters = Counters::default();
        let mut q = TaskQueue::new(kind, n);
        // Simple round-robin interleave with zero work per task.
        let mut clocks = vec![0.0f64; workers];
        let mut live = vec![true; workers];
        while let Some(w) = (0..workers)
            .filter(|&w| live[w])
            .min_by(|&a, &b| clocks[a].total_cmp(&clocks[b]))
        {
            let (t, task) = q.dequeue(clocks[w], mode, &cfg.transitions, &mut counters);
            clocks[w] = t;
            if task.is_none() {
                live[w] = false;
            }
        }
        clocks.iter().cloned().fold(0.0, f64::max)
    }

    #[test]
    fn all_queues_hand_out_each_task_once() {
        let cfg = xeon_gold_6326();
        let mut counters = Counters::default();
        for kind in [QueueKind::LockFree, QueueKind::SdkMutex, QueueKind::SpinLock] {
            let mut q = TaskQueue::new(kind, 10);
            let mut seen = [false; 10];
            let mut now = 0.0;
            loop {
                let (t, task) = q.dequeue(now, ExecMode::Enclave, &cfg.transitions, &mut counters);
                assert!(t >= now);
                now = t;
                match task {
                    Some(i) => {
                        assert!(!seen[i], "task {i} handed out twice by {}", kind.label());
                        seen[i] = true;
                    }
                    None => break,
                }
            }
            assert!(seen.iter().all(|&s| s), "{} dropped tasks", kind.label());
        }
    }

    #[test]
    fn sdk_mutex_contention_is_catastrophic_only_in_enclave() {
        let native = drain(QueueKind::SdkMutex, ExecMode::Native, 16, 1000);
        let enclave = drain(QueueKind::SdkMutex, ExecMode::Enclave, 16, 1000);
        let lockfree = drain(QueueKind::LockFree, ExecMode::Enclave, 16, 1000);
        // Inside the enclave the mutex pays transitions on contended
        // acquires; the lock-free queue never does.
        assert!(enclave > 5.0 * lockfree, "enclave {enclave} vs lock-free {lockfree}");
        assert!(enclave > 3.0 * native, "enclave {enclave} vs native {native}");
    }

    #[test]
    fn lock_free_cost_mode_independent() {
        let native = drain(QueueKind::LockFree, ExecMode::Native, 16, 1000);
        let enclave = drain(QueueKind::LockFree, ExecMode::Enclave, 16, 1000);
        assert!((native - enclave).abs() < 1e-6);
    }

    #[test]
    fn uncontended_mutex_is_cheap() {
        let cfg = xeon_gold_6326();
        let mut counters = Counters::default();
        let mut q = TaskQueue::new(QueueKind::SdkMutex, 100);
        // Single worker: never contended, never transitions.
        let mut now = 0.0;
        for _ in 0..100 {
            let (t, task) = q.dequeue(now, ExecMode::Enclave, &cfg.transitions, &mut counters);
            assert!(task.is_some());
            // Leave a gap so the lock is always free on arrival.
            now = t + 1000.0;
        }
        assert_eq!(counters.transitions, 0);
        assert_eq!(counters.futex_waits, 0);
    }

    #[test]
    fn spinlock_serializes_without_transitions() {
        let cfg = xeon_gold_6326();
        let mut counters = Counters::default();
        let mut q = TaskQueue::new(QueueKind::SpinLock, 2);
        let (t1, _) = q.dequeue(0.0, ExecMode::Enclave, &cfg.transitions, &mut counters);
        // Second worker arrives while first still holds the lock.
        let (t2, _) = q.dequeue(1.0, ExecMode::Enclave, &cfg.transitions, &mut counters);
        assert!(t2 >= t1, "critical sections must serialize");
        assert_eq!(counters.transitions, 0);
    }
}
