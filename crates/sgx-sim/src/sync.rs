//! Models of the thread-synchronization primitives whose costs §4.4 of the
//! paper analyzes: the SGX SDK mutex (which sleeps threads *outside* the
//! enclave, paying two transitions plus a futex syscall on every contended
//! acquire), a spinlock, and a lock-free (Michael-Scott style) queue.
//!
//! A queue model owns a virtual timeline: `dequeue(now)` maps a worker's
//! local clock to the time its dequeue completes, serializing conflicting
//! critical sections and charging mode-dependent costs. The scheduler in
//! `Machine::parallel_tasks` interleaves workers by advancing whichever has
//! the smallest local clock, so contention (and the §4.4 avalanche effect)
//! plays out the same way it would under real concurrent execution.

use crate::config::HwConfig;
use crate::counters::Counters;
use crate::mem::ExecMode;

/// A task-distribution queue with a simulated cost model.
pub trait QueueModel {
    /// Prepare for a phase distributing `n_tasks` tasks.
    fn reset(&mut self, n_tasks: usize);

    /// A worker whose local clock reads `now` tries to pop a task.
    /// Returns `(completion_time, Some(task))` or `(completion_time, None)`
    /// when the queue is empty.
    fn dequeue(
        &mut self,
        now: f64,
        mode: ExecMode,
        cfg: &HwConfig,
        counters: &mut Counters,
    ) -> (f64, Option<usize>);

    /// Display name used in reports.
    fn name(&self) -> &'static str;
}

/// Cycles a lock-free queue pop costs when uncontended (atomic load + CAS).
const LOCKFREE_POP_CYCLES: f64 = 40.0;
/// Extra cycles for a CAS retry when another pop landed almost
/// simultaneously.
const LOCKFREE_RETRY_CYCLES: f64 = 30.0;
/// Window within which two pops conflict on the head pointer.
const LOCKFREE_CONFLICT_WINDOW: f64 = 25.0;

/// Lock-free MPMC queue (the Boost lock-free queue the paper substitutes
/// for the SDK mutex). Contention only costs bounded CAS retries; no OS or
/// enclave-boundary interaction ever happens.
#[derive(Debug, Default)]
pub struct LockFreeQueue {
    next_task: usize,
    n_tasks: usize,
    last_pop_at: f64,
}

impl QueueModel for LockFreeQueue {
    fn reset(&mut self, n_tasks: usize) {
        self.next_task = 0;
        self.n_tasks = n_tasks;
        self.last_pop_at = f64::NEG_INFINITY;
    }

    fn dequeue(
        &mut self,
        now: f64,
        _mode: ExecMode,
        _cfg: &HwConfig,
        _counters: &mut Counters,
    ) -> (f64, Option<usize>) {
        let mut done = now + LOCKFREE_POP_CYCLES;
        if (now - self.last_pop_at).abs() < LOCKFREE_CONFLICT_WINDOW {
            done += LOCKFREE_RETRY_CYCLES;
        }
        self.last_pop_at = done;
        if self.next_task < self.n_tasks {
            self.next_task += 1;
            (done, Some(self.next_task - 1))
        } else {
            (done, None)
        }
    }

    fn name(&self) -> &'static str {
        "lock-free queue"
    }
}

/// Cycles the critical section of a mutex-guarded pop takes (pointer
/// manipulation under the lock).
const MUTEX_CS_CYCLES: f64 = 60.0;
/// Fast-path (uncontended) lock+unlock cost.
const MUTEX_FAST_CYCLES: f64 = 50.0;

/// The SGX SDK mutex (`sgx_thread_mutex_*`): a contended acquire performs an
/// OCALL so the OS can put the thread to sleep, and the release performs an
/// OCALL to wake a sleeper — four enclave crossings per handover (§4.4).
/// In native mode the same structure degenerates to a futex-based mutex.
#[derive(Debug, Default)]
pub struct SdkMutexQueue {
    next_task: usize,
    n_tasks: usize,
    /// Virtual time at which the lock becomes free.
    free_at: f64,
}

impl QueueModel for SdkMutexQueue {
    fn reset(&mut self, n_tasks: usize) {
        self.next_task = 0;
        self.n_tasks = n_tasks;
        self.free_at = 0.0;
    }

    fn dequeue(
        &mut self,
        now: f64,
        mode: ExecMode,
        cfg: &HwConfig,
        counters: &mut Counters,
    ) -> (f64, Option<usize>) {
        let t = &cfg.transitions;
        let acquired;
        if now >= self.free_at {
            // Uncontended fast path: stays inside the enclave.
            acquired = now + MUTEX_FAST_CYCLES;
        } else if mode == ExecMode::Native && self.free_at - now < t.futex_cycles {
            // Native glibc-style mutexes spin briefly before sleeping;
            // short critical sections are handed over without any syscall,
            // which is why the paper measures no native difference between
            // the mutex and the lock-free queue.
            acquired = self.free_at + MUTEX_FAST_CYCLES;
        } else {
            counters.futex_waits += 1;
            // The waiter goes to sleep — in enclave mode this means an
            // OCALL out plus a transition back in once woken.
            let (out_cost, in_cost) = match mode {
                ExecMode::Enclave => {
                    counters.transitions += 2;
                    (t.transition_cycles + t.futex_cycles, t.transition_cycles)
                }
                ExecMode::Native => (t.futex_cycles, 0.0),
            };
            let asleep_at = now + out_cost;
            // The wake-up itself is performed by the releasing thread; the
            // waiter additionally pays the futex wake latency and the
            // transition back into the enclave. Crucially, the lock stays
            // logically unavailable while the next owner wakes up — this is
            // the avalanche effect: transitions stretch the effective
            // critical section.
            acquired = asleep_at.max(self.free_at) + t.futex_cycles + in_cost;
        }
        let done = acquired + MUTEX_CS_CYCLES;
        self.free_at = done;
        if self.next_task < self.n_tasks {
            self.next_task += 1;
            (done, Some(self.next_task - 1))
        } else {
            (done, None)
        }
    }

    fn name(&self) -> &'static str {
        "SDK mutex queue"
    }
}

/// Spinlock-guarded queue: contended acquires busy-wait inside the enclave.
/// No transitions, but the waiting time is real (the core burns cycles).
#[derive(Debug, Default)]
pub struct SpinLockQueue {
    next_task: usize,
    n_tasks: usize,
    free_at: f64,
}

impl QueueModel for SpinLockQueue {
    fn reset(&mut self, n_tasks: usize) {
        self.next_task = 0;
        self.n_tasks = n_tasks;
        self.free_at = 0.0;
    }

    fn dequeue(
        &mut self,
        now: f64,
        _mode: ExecMode,
        _cfg: &HwConfig,
        _counters: &mut Counters,
    ) -> (f64, Option<usize>) {
        // Spin until the lock frees, then take it; the cache-line bounce on
        // handover costs roughly one coherence miss.
        let acquired = now.max(self.free_at) + MUTEX_FAST_CYCLES;
        let done = acquired + MUTEX_CS_CYCLES;
        self.free_at = done;
        if self.next_task < self.n_tasks {
            self.next_task += 1;
            (done, Some(self.next_task - 1))
        } else {
            (done, None)
        }
    }

    fn name(&self) -> &'static str {
        "spinlock queue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::xeon_gold_6326;

    fn drain(q: &mut dyn QueueModel, mode: ExecMode, workers: usize, n: usize) -> f64 {
        let cfg = xeon_gold_6326();
        let mut counters = Counters::default();
        q.reset(n);
        // Simple round-robin interleave with zero work per task.
        let mut clocks = vec![0.0f64; workers];
        let mut live = vec![true; workers];
        while let Some(w) = (0..workers)
            .filter(|&w| live[w])
            .min_by(|&a, &b| clocks[a].total_cmp(&clocks[b]))
        {
            let (t, task) = q.dequeue(clocks[w], mode, &cfg, &mut counters);
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
        for q in [
            &mut LockFreeQueue::default() as &mut dyn QueueModel,
            &mut SdkMutexQueue::default(),
            &mut SpinLockQueue::default(),
        ] {
            q.reset(10);
            let mut seen = [false; 10];
            let mut now = 0.0;
            loop {
                let (t, task) = q.dequeue(now, ExecMode::Enclave, &cfg, &mut counters);
                assert!(t >= now);
                now = t;
                match task {
                    Some(i) => {
                        assert!(!seen[i], "task {i} handed out twice by {}", q.name());
                        seen[i] = true;
                    }
                    None => break,
                }
            }
            assert!(seen.iter().all(|&s| s), "{} dropped tasks", q.name());
        }
    }

    #[test]
    fn sdk_mutex_contention_is_catastrophic_only_in_enclave() {
        let native = drain(&mut SdkMutexQueue::default(), ExecMode::Native, 16, 1000);
        let enclave = drain(&mut SdkMutexQueue::default(), ExecMode::Enclave, 16, 1000);
        let lockfree = drain(&mut LockFreeQueue::default(), ExecMode::Enclave, 16, 1000);
        // Inside the enclave the mutex pays transitions on contended
        // acquires; the lock-free queue never does.
        assert!(enclave > 5.0 * lockfree, "enclave {enclave} vs lock-free {lockfree}");
        assert!(enclave > 3.0 * native, "enclave {enclave} vs native {native}");
    }

    #[test]
    fn lock_free_cost_mode_independent() {
        let native = drain(&mut LockFreeQueue::default(), ExecMode::Native, 16, 1000);
        let enclave = drain(&mut LockFreeQueue::default(), ExecMode::Enclave, 16, 1000);
        assert!((native - enclave).abs() < 1e-6);
    }

    #[test]
    fn uncontended_mutex_is_cheap() {
        let cfg = xeon_gold_6326();
        let mut counters = Counters::default();
        let mut q = SdkMutexQueue::default();
        q.reset(100);
        // Single worker: never contended, never transitions.
        let mut now = 0.0;
        for _ in 0..100 {
            let (t, task) = q.dequeue(now, ExecMode::Enclave, &cfg, &mut counters);
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
        let mut q = SpinLockQueue::default();
        q.reset(2);
        let (t1, _) = q.dequeue(0.0, ExecMode::Enclave, &cfg, &mut counters);
        // Second worker arrives while first still holds the lock.
        let (t2, _) = q.dequeue(1.0, ExecMode::Enclave, &cfg, &mut counters);
        assert!(t2 >= t1, "critical sections must serialize");
        assert_eq!(counters.transitions, 0);
    }
}
