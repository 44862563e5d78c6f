//! The deterministic discrete-event service simulation.
//!
//! Pure integer arithmetic over a totally ordered event queue: every
//! event carries a unique `(time, seq)` key, every random decision is a
//! [`sgx_sim::stream_unit`] draw indexed by a deterministic cursor, and
//! the engine is single-threaded — so two runs with the same
//! [`ServiceConfig`], tenants, and [`CostTable`] produce byte-identical
//! outcomes on any host at any outer `--jobs` level.
//!
//! ## Semantics
//!
//! * **Arrivals.** Each session draws inter-arrival (open loop) or think
//!   (closed loop) gaps jittered in `[0.5, 1.5)` of the mean. Arrivals
//!   stop at the horizon; everything in flight is drained.
//! * **Admission.** A query is shed when its socket's bounded queue is
//!   full, or when the backlog estimate plus its own cost estimate
//!   cannot meet the deadline (`now + backlog/workers + est > deadline`).
//! * **Dispatch.** Sockets run bounded worker pools; an idle worker
//!   implies an empty queue. Queued queries whose deadline expires
//!   before dispatch are abandoned (`timed_out`) without service.
//! * **Execution.** A dispatched query runs its plan steps back to back.
//!   Each step suffers `r` transient kills drawn with
//!   [`sgx_sim::OcallFaults::draw_retries`] (bounded, forced through at
//!   the cap) and pays `(r+1)·step + Σ backoff_wait(k)` cycles — a
//!   killed step loses its work and sleeps the capped exponential
//!   backoff before retrying. Deadlines are enforced at every step
//!   boundary: the first boundary past the deadline abandons the query
//!   (the worker stays occupied until that boundary — work already
//!   sunk).
//! * **Degradation.** When the policy is armed and either the ambient
//!   EPC-pressure level or the socket queue depth crosses its threshold,
//!   new queries run the degraded (cheaper, result-identical) variant.

use crate::costs::{CostTable, PlanVariant};
use crate::counters::ServiceCounters;
use crate::spec::{Arrival, ServiceConfig, TenantSpec};
use sgx_sim::stream_unit;
use sgx_tpch::Query;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Stream tags for the service-level random sequences (disjoint from the
/// fault engine's machine-level tags by construction — different odd
/// constants, different seeds in practice).
const STREAM_ARRIVAL: u64 = 0x5E7E_AD11_C0FF_EE01;
const STREAM_MIX: u64 = 0x5E7E_AD11_0DD5_EED3;
const STREAM_FAULT: u64 = 0x5E7E_AD11_FA17_0005;

/// Result of a drained service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Global counters (sum of `per_tenant`).
    pub total: ServiceCounters,
    /// Per-tenant counters, in tenant order.
    pub per_tenant: Vec<ServiceCounters>,
    /// Completed-in-deadline latencies (cycles) per query class, in
    /// completion order.
    pub latencies: BTreeMap<Query, Vec<u64>>,
    /// Discrete events processed (the DES throughput denominator).
    pub events_processed: u64,
    /// Configured arrival horizon.
    pub horizon_cycles: u64,
    /// Simulated time at which the last event fired (drain end).
    pub end_cycles: u64,
}

impl ServiceOutcome {
    /// Check every conservation law: per-tenant sums equal the global
    /// counters, each tenant's counters balance, and the latency
    /// histograms hold exactly the completed queries.
    pub fn reconcile(&self) -> Result<(), String> {
        let mut sum = ServiceCounters::default();
        for t in &self.per_tenant {
            t.reconcile()?;
            sum.add(t);
        }
        if sum != self.total {
            return Err(format!("tenant sum {sum:?} != total {:?}", self.total));
        }
        self.total.reconcile()?;
        let recorded: u64 = self.latencies.values().map(|v| v.len() as u64).sum();
        if recorded != self.total.completed {
            return Err(format!(
                "latency samples {recorded} != completed {}",
                self.total.completed
            ));
        }
        Ok(())
    }
}

/// One query in flight.
#[derive(Debug, Clone)]
struct Job {
    tenant: usize,
    session: usize,
    class: Query,
    variant: PlanVariant,
    submit_at: u64,
    deadline_at: u64,
    estimate: u64,
}

/// How a dispatched job ended.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Completed,
    TimedOut,
}

/// A finished execution waiting for its `JobDone` event.
#[derive(Debug, Clone)]
struct Running {
    job: Job,
    outcome: Outcome,
    retries: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    Arrive { tenant: usize, session: usize },
    JobDone { socket: usize, worker: usize },
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

/// Per-socket scheduler state.
struct Socket {
    queue: VecDeque<Job>,
    /// Sum of `estimate` over queued jobs (admission backlog pricing).
    backlog: u64,
    /// `running[w]` holds worker `w`'s in-flight execution.
    running: Vec<Option<Running>>,
}

impl Socket {
    fn idle_worker(&self) -> Option<usize> {
        self.running.iter().position(|r| r.is_none())
    }
}

struct Engine<'a> {
    cfg: &'a ServiceConfig,
    tenants: &'a [TenantSpec],
    costs: &'a CostTable,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    sockets: Vec<Socket>,
    per_tenant: Vec<ServiceCounters>,
    latencies: BTreeMap<Query, Vec<u64>>,
    /// Per-session draw cursors: [arrival, mix].
    session_k: Vec<[u64; 2]>,
    /// Global fault-stream cursor (advances `retries + 1` per step).
    fault_k: u64,
    /// First global session id of each tenant (socket assignment).
    session_base: Vec<usize>,
    events: u64,
    end: u64,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a ServiceConfig, tenants: &'a [TenantSpec], costs: &'a CostTable) -> Engine<'a> {
        let mut session_base = Vec::with_capacity(tenants.len());
        let mut n_sessions = 0usize;
        for t in tenants {
            session_base.push(n_sessions);
            n_sessions += t.sessions;
        }
        Engine {
            cfg,
            tenants,
            costs,
            heap: BinaryHeap::new(),
            seq: 0,
            sockets: (0..cfg.sockets.max(1))
                .map(|_| Socket {
                    queue: VecDeque::new(),
                    backlog: 0,
                    running: vec![None; cfg.workers_per_socket.max(1)],
                })
                .collect(),
            per_tenant: vec![ServiceCounters::default(); tenants.len()],
            latencies: BTreeMap::new(),
            session_k: vec![[0, 0]; n_sessions],
            fault_k: 0,
            session_base,
            events: 0,
            end: 0,
        }
    }

    /// Global session id (stable across runs; salts the draw streams).
    fn sid(&self, tenant: usize, session: usize) -> usize {
        self.session_base[tenant] + session
    }

    /// One uniform draw from `stream`, salted per session, at this
    /// session's cursor for that stream (cursor 0 = arrival, 1 = mix).
    fn draw(&mut self, stream: u64, cursor: usize, tenant: usize, session: usize) -> f64 {
        let sid = self.sid(tenant, session) as u64;
        let k = self.session_k[sid as usize][cursor];
        self.session_k[sid as usize][cursor] += 1;
        stream_unit(self.cfg.seed, stream ^ sid.wrapping_mul(0xD134_2543_DE82_EF95), k)
    }

    /// Jittered gap around `mean` in `[0.5, 1.5) * mean`, at least 1.
    fn gap(&mut self, mean: u64, tenant: usize, session: usize) -> u64 {
        let u = self.draw(STREAM_ARRIVAL, 0, tenant, session);
        ((mean as f64 * (0.5 + u)) as u64).max(1)
    }

    fn push(&mut self, at: u64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
    }

    /// Schedule the session's next submission, if it lands within the
    /// horizon.
    fn schedule_arrival(&mut self, now: u64, tenant: usize, session: usize) {
        let mean = match self.tenants[tenant].arrival {
            Arrival::Open { mean_gap_cycles } => mean_gap_cycles,
            Arrival::Closed { think_cycles } => think_cycles,
        };
        let at = now + self.gap(mean, tenant, session);
        if at <= self.cfg.horizon_cycles {
            self.push(at, EvKind::Arrive { tenant, session });
        }
    }

    /// Weighted query-class pick from the tenant's mix.
    fn pick_class(&mut self, tenant: usize, session: usize) -> Query {
        let total: u32 = self.tenants[tenant].mix.iter().map(|(_, w)| *w).sum();
        let u = self.draw(STREAM_MIX, 1, tenant, session);
        let mut x = (u * total.max(1) as f64) as u32;
        for &(q, w) in &self.tenants[tenant].mix {
            if x < w {
                return q;
            }
            x -= w;
        }
        // Empty or all-zero mix: default to the lightest class.
        self.tenants[tenant].mix.first().map(|&(q, _)| q).unwrap_or(Query::Q12)
    }

    /// Compute a dispatched job's full execution trajectory: per-step
    /// bounded-retry draws, backoff waits, and the step-boundary deadline
    /// check. Returns the finish record and its completion time.
    fn execute(&mut self, job: Job, now: u64) -> (Running, u64) {
        let steps: Vec<u64> = self
            .costs
            .get(job.class)
            .map(|c| c.steps(job.variant).to_vec())
            .unwrap_or_default();
        let mut t = now;
        let mut retries = 0u64;
        let mut outcome = Outcome::Completed;
        for &step in &steps {
            let r = match self.cfg.faults {
                Some(of) => {
                    let r = of.draw_retries(self.cfg.seed, STREAM_FAULT, self.fault_k);
                    self.fault_k += r as u64 + 1;
                    r
                }
                None => 0,
            };
            retries += r as u64;
            let mut cost = (r as u64 + 1).saturating_mul(step);
            if let Some(of) = self.cfg.faults {
                for attempt in 1..=r {
                    cost += of.backoff_wait(attempt) as u64;
                }
            }
            t = t.saturating_add(cost);
            if t > job.deadline_at {
                outcome = Outcome::TimedOut;
                break;
            }
        }
        (Running { job, outcome, retries }, t)
    }

    /// Dispatch `job` on `socket`'s worker `w` starting now.
    fn dispatch(&mut self, socket: usize, w: usize, job: Job, now: u64) {
        let (running, done_at) = self.execute(job, now);
        self.sockets[socket].running[w] = Some(running);
        self.push(done_at, EvKind::JobDone { socket, worker: w });
    }

    fn on_arrive(&mut self, now: u64, tenant: usize, session: usize) {
        // Closed-loop sessions re-arm on response; open-loop immediately.
        if matches!(self.tenants[tenant].arrival, Arrival::Open { .. }) {
            self.schedule_arrival(now, tenant, session);
        }
        let class = self.pick_class(tenant, session);
        self.per_tenant[tenant].submitted += 1;

        let spec = &self.tenants[tenant];
        let deadline_at = now + spec.deadline_cycles;
        let socket_ix = self.sid(tenant, session) % self.sockets.len();

        // Degradation decision (policy looks at ambient EPC pressure and
        // the target queue's depth at submission time).
        let d = &self.cfg.degrade;
        let degraded = d.enabled
            && (self.cfg.epc_pressure_level >= d.epc_threshold
                || self.sockets[socket_ix].queue.len() >= d.queue_watermark);
        let variant = if degraded { PlanVariant::Degraded } else { PlanVariant::Normal };
        // Admission prices the plan variant that will actually run: a
        // degraded query is cheaper, so degradation can rescue work that
        // would be deadline-infeasible on the normal plan
        // ("degrade-to-admit").
        let estimate = self
            .costs
            .get(class)
            .map(|c| match variant {
                PlanVariant::Normal => c.estimate,
                PlanVariant::Degraded => {
                    let n = c.total(PlanVariant::Normal).max(1);
                    ((c.estimate as u128 * c.total(PlanVariant::Degraded) as u128 / n as u128)
                        as u64)
                        .max(1)
                }
            })
            .unwrap_or(0);
        let job = Job {
            tenant,
            session,
            class,
            variant,
            submit_at: now,
            deadline_at,
            estimate,
        };

        // Admission control.
        if self.cfg.admission.enabled {
            let s = &self.sockets[socket_ix];
            let queue_full = s.queue.len() >= self.cfg.admission.queue_cap;
            let workers = s.running.len() as u64;
            let wait_est = s.backlog / workers.max(1);
            let infeasible = s.idle_worker().is_none()
                && now + wait_est + job.estimate > job.deadline_at;
            if queue_full || infeasible {
                self.per_tenant[tenant].rejected += 1;
                if matches!(spec.arrival, Arrival::Closed { .. }) {
                    self.schedule_arrival(now, tenant, session);
                }
                return;
            }
        }
        self.per_tenant[tenant].admitted += 1;
        if degraded {
            self.per_tenant[tenant].degraded += 1;
        }

        match self.sockets[socket_ix].idle_worker() {
            Some(w) => self.dispatch(socket_ix, w, job, now),
            None => {
                self.sockets[socket_ix].backlog += job.estimate;
                self.sockets[socket_ix].queue.push_back(job);
            }
        }
    }

    fn on_job_done(&mut self, now: u64, socket_ix: usize, w: usize) {
        let Some(run) = self.sockets[socket_ix].running[w].take() else {
            return;
        };
        let tenant = run.job.tenant;
        self.per_tenant[tenant].retries += run.retries;
        match run.outcome {
            Outcome::Completed => {
                self.per_tenant[tenant].completed += 1;
                self.latencies
                    .entry(run.job.class)
                    .or_default()
                    .push(now - run.job.submit_at);
            }
            Outcome::TimedOut => self.per_tenant[tenant].timed_out += 1,
        }
        if matches!(self.tenants[tenant].arrival, Arrival::Closed { .. }) {
            self.schedule_arrival(now, tenant, run.job.session);
        }

        // Refill the freed worker: skip queued jobs whose deadline has
        // already passed (abandoned without service).
        while let Some(job) = self.sockets[socket_ix].queue.pop_front() {
            self.sockets[socket_ix].backlog =
                self.sockets[socket_ix].backlog.saturating_sub(job.estimate);
            if now >= job.deadline_at {
                self.per_tenant[job.tenant].timed_out += 1;
                if matches!(self.tenants[job.tenant].arrival, Arrival::Closed { .. }) {
                    self.schedule_arrival(now, job.tenant, job.session);
                }
                continue;
            }
            self.dispatch(socket_ix, w, job, now);
            break;
        }
    }

    fn run(mut self) -> ServiceOutcome {
        // Seed every session's first arrival.
        for tenant in 0..self.tenants.len() {
            for session in 0..self.tenants[tenant].sessions {
                self.schedule_arrival(0, tenant, session);
            }
        }
        while let Some(Reverse(ev)) = self.heap.pop() {
            self.events += 1;
            self.end = ev.at;
            match ev.kind {
                EvKind::Arrive { tenant, session } => self.on_arrive(ev.at, tenant, session),
                EvKind::JobDone { socket, worker } => self.on_job_done(ev.at, socket, worker),
            }
        }
        let mut total = ServiceCounters::default();
        for t in &self.per_tenant {
            total.add(t);
        }
        ServiceOutcome {
            total,
            per_tenant: self.per_tenant,
            latencies: self.latencies,
            events_processed: self.events,
            horizon_cycles: self.cfg.horizon_cycles,
            end_cycles: self.end,
        }
    }
}

/// Run the service simulation to drain and return its outcome.
pub fn run_service(
    cfg: &ServiceConfig,
    tenants: &[TenantSpec],
    costs: &CostTable,
) -> ServiceOutcome {
    Engine::new(cfg, tenants, costs).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::PlanCost;
    use crate::spec::{AdmissionPolicy, DegradePolicy};
    use sgx_sim::OcallFaults;

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "olap".into(),
                sessions: 40,
                arrival: Arrival::Open { mean_gap_cycles: 40_000_000 },
                mix: vec![(Query::Q3, 2), (Query::Q10, 1), (Query::Q19, 1)],
                deadline_cycles: 40_000_000,
            },
            TenantSpec {
                name: "dash".into(),
                sessions: 60,
                arrival: Arrival::Closed { think_cycles: 20_000_000 },
                mix: vec![(Query::Q12, 3), (Query::Q19, 1)],
                deadline_cycles: 20_000_000,
            },
        ]
    }

    /// A fixed, plausible table: arbitrary-but-stable cycles per plan
    /// step scaled by `scale`, and a degraded variant uniformly ~25%
    /// cheaper.
    fn synthetic(scale: u64) -> CostTable {
        let scale = scale.max(1);
        let mut t = CostTable::new();
        let base: [(Query, &[u64]); 4] = [
            (Query::Q3, &[40, 110, 220, 60, 170, 260, 140, 80, 30]),
            (Query::Q10, &[45, 90, 210, 55, 150, 280, 65, 20, 120, 95, 25]),
            (Query::Q12, &[80, 190, 240]),
            (Query::Q19, &[70, 160, 230, 90]),
        ];
        for (q, steps) in base {
            let normal: Vec<u64> = steps.iter().map(|s| s * scale * 1_000).collect();
            let degraded: Vec<u64> = normal.iter().map(|s| s * 3 / 4).collect();
            let estimate = normal.iter().sum();
            t.insert(q, PlanCost { normal_steps: normal, degraded_steps: degraded, estimate });
        }
        t
    }

    fn base_cfg(seed: u64) -> ServiceConfig {
        let mut c = ServiceConfig::new(seed);
        c.sockets = 2;
        c.workers_per_socket = 4;
        c.horizon_cycles = 400_000_000;
        c
    }

    #[test]
    fn identical_configs_replay_identical_outcomes() {
        let costs = synthetic(1);
        let a = run_service(&base_cfg(7), &tenants(), &costs);
        let b = run_service(&base_cfg(7), &tenants(), &costs);
        assert_eq!(a, b, "the DES must be a pure function of its inputs");
        assert!(a.total.completed > 0, "calm run must complete queries");
        assert_eq!(format!("{:?}", a.latencies), format!("{:?}", b.latencies));
        let c = run_service(&base_cfg(8), &tenants(), &costs);
        assert_ne!(a, c, "a different seed must change the schedule");
    }

    #[test]
    fn counters_reconcile_after_drain() {
        let costs = synthetic(2);
        let mut cfg = base_cfg(11);
        cfg.faults = Some(OcallFaults { failure_prob: 0.3, max_retries: 4, backoff_cycles: 50_000.0 });
        let out = run_service(&cfg, &tenants(), &costs);
        out.reconcile().expect("conservation laws must hold");
        assert_eq!(out.per_tenant.len(), 2);
        assert!(out.total.retries > 0, "p=0.3 faults must force retries");
        assert!(out.events_processed > out.total.submitted, "done events add to arrivals");
        assert!(out.end_cycles >= out.horizon_cycles / 2);
    }

    #[test]
    fn overload_sheds_load_only_with_admission_control() {
        let costs = synthetic(8);
        let mut storm = tenants();
        // Open-loop overload: arrivals far beyond capacity.
        storm[0].arrival = Arrival::Open { mean_gap_cycles: 2_000_000 };
        storm[0].sessions = 100;
        let mut cfg = base_cfg(3);
        cfg.horizon_cycles = 200_000_000;
        let shed = run_service(&cfg, &storm, &costs);
        shed.reconcile().expect("reconciles");
        assert!(shed.total.rejected > 0, "overload must trigger shedding");
        assert!(shed.total.completed > 0, "admitted work still completes");

        let mut naive = cfg.clone();
        naive.admission.enabled = false;
        let unshed = run_service(&naive, &storm, &costs);
        unshed.reconcile().expect("reconciles");
        assert_eq!(unshed.total.rejected, 0, "no admission control, no rejections");
        assert!(
            unshed.total.timed_out > shed.total.timed_out,
            "without shedding the backlog turns into timeouts ({} <= {})",
            unshed.total.timed_out,
            shed.total.timed_out
        );
    }

    #[test]
    fn tight_deadlines_time_out_and_latencies_respect_slo() {
        let costs = synthetic(4);
        let mut ts = tenants();
        ts[0].deadline_cycles = 6_000_000; // below a single plan's cost
        let cfg = base_cfg(5);
        let out = run_service(&cfg, &ts, &costs);
        out.reconcile().expect("reconciles");
        assert!(out.per_tenant[0].timed_out > 0, "impossible SLO must time out");
        for (q, lats) in &out.latencies {
            for (i, &l) in lats.iter().enumerate() {
                // Every recorded latency belongs to some tenant's completed
                // query, so it is bounded by the loosest SLO in play.
                let max_deadline = ts.iter().map(|t| t.deadline_cycles).max().unwrap_or(0);
                assert!(l <= max_deadline, "{q:?}[{i}]: latency {l} exceeds every deadline");
            }
        }
    }

    #[test]
    fn epc_pressure_degrades_new_queries_and_helps_tails() {
        let costs = synthetic(6);
        let mut cfg = base_cfg(9);
        cfg.epc_pressure_level = 0.9; // above the default 0.7 threshold
        let on = run_service(&cfg, &tenants(), &costs);
        on.reconcile().expect("reconciles");
        assert!(on.total.degraded > 0, "pressure above threshold must degrade");
        assert_eq!(on.total.degraded, on.total.admitted, "ambient trigger applies to all");

        let mut off_cfg = cfg.clone();
        off_cfg.degrade.enabled = false;
        let off = run_service(&off_cfg, &tenants(), &costs);
        assert_eq!(off.total.degraded, 0);
        // The degraded variant is cheaper, so the policy-on run completes
        // at least as many queries within deadline.
        assert!(on.total.completed >= off.total.completed);
    }

    #[test]
    fn faults_inflate_latency_through_bounded_backoff() {
        let costs = synthetic(2);
        let calm_out = run_service(&base_cfg(13), &tenants(), &costs);
        let mut cfg = base_cfg(13);
        cfg.faults =
            Some(OcallFaults { failure_prob: 0.5, max_retries: 5, backoff_cycles: 100_000.0 });
        let stormy = run_service(&cfg, &tenants(), &costs);
        stormy.reconcile().expect("reconciles");
        assert!(stormy.total.retries > 0);
        let mean = |o: &ServiceOutcome| -> f64 {
            let (mut n, mut s) = (0u64, 0u64);
            for v in o.latencies.values() {
                n += v.len() as u64;
                s += v.iter().sum::<u64>();
            }
            if n == 0 { 0.0 } else { s as f64 / n as f64 }
        };
        assert!(
            mean(&stormy) > mean(&calm_out),
            "retries + backoff must push mean latency up"
        );
    }

    #[test]
    fn queue_watermark_triggers_load_reactive_degradation() {
        let costs = synthetic(8);
        let mut storm = tenants();
        storm[0].arrival = Arrival::Open { mean_gap_cycles: 3_000_000 };
        storm[0].deadline_cycles = 400_000_000; // keep admission from shedding first
        storm[1].deadline_cycles = 400_000_000;
        let mut cfg = base_cfg(17);
        cfg.admission = AdmissionPolicy { enabled: true, queue_cap: 64 };
        cfg.degrade = DegradePolicy { enabled: true, epc_threshold: 2.0, queue_watermark: 8 };
        let out = run_service(&cfg, &storm, &costs);
        out.reconcile().expect("reconciles");
        assert!(out.total.degraded > 0, "deep queues must trigger degradation");
        assert!(out.total.degraded < out.total.admitted, "calm moments stay on the normal plan");
    }
}
