//! Pipeline layer: compute/branch charges, ILP/MLP pooling, issue groups,
//! dependency chains, phase orchestration and the per-core busy clocks —
//! plus the [`Charge`] choke point every other layer commits through, and
//! the fault tick it runs.
//!
//! The three cycle stores — [`Busy`], [`Wall`] and [`CoreClocks`] — keep
//! their fields private to this module. Outside it a clock can only be
//! read, or advanced through the named mutators below, so the compiler
//! rejects a charge that bypasses `commit` and the fault tick.

// The counters this layer bumps are exact u64 totals: a narrowing cast
// would wrap one.
#![deny(clippy::cast_possible_truncation)]

use crate::cache::{Cache, StreamDetector};
use crate::config::{HwConfig, SgxGeneration};
use crate::counters::Counters;
use crate::faults::{FaultEngine, FaultEvent, FaultProfile};
use crate::mem::{ExecMode, RegionAlloc, Setting};
use crate::paging::Pager;
use crate::profile::{CostCategory, PhaseGuard, ProfCtx};
use crate::sync::QueueModel;
use std::collections::BTreeSet;

use super::{
    AccessCost, Core, CoreHw, GroupAcc, Machine, PhaseStats, BRANCH_MISS_CYCLES, CTX_POISON,
};

/// A worker's busy cycles in the current phase. Only [`Core::commit`] and
/// AEX delivery (`fault_tick_slow`) add to it, and both run the fault
/// tick, so every busy cycle is one the fault engine has seen.
pub(super) struct Busy(f64);

/// The machine's wall clock. It advances only at a phase barrier (by the
/// regulated phase time, after every worker's cycles went through
/// `commit`) and by a machine-level ECALL/OCALL, which runs outside any
/// core phase.
pub(super) struct Wall(f64);

impl Wall {
    /// Advance by an ECALL/OCALL round trip charged to the wall clock.
    pub(super) fn transition(&mut self, cost: f64) {
        self.0 += cost;
    }

    /// Advance by a finished phase's regulated duration.
    fn phase_barrier(&mut self, bound: f64) {
        self.0 += bound;
    }
}

/// Cumulative busy cycles per hardware core across finished phases — the
/// per-core local clock the fault engine schedules against.
pub(super) struct CoreClocks(Vec<f64>);

impl CoreClocks {
    /// Fold a finished worker's busy cycles into its core's clock. A
    /// [`Busy`] can only be built and grown here, so only committed cycles
    /// reach the clocks.
    fn merge_worker(&mut self, id: usize, busy: Busy) {
        self.0[id] += busy.0;
    }
}

/// One quantum of charged work, built by a layer and committed through
/// [`Core::commit`] — the single place that advances a worker's busy
/// clock for charged work and gives the fault engine its tick.
pub(super) struct Charge {
    /// Cycles to add to the worker's busy clock.
    pub cycles: f64,
    /// Counter bumps attributed together with the cycles.
    pub tally: Tally,
}

/// Counter attribution carried by a [`Charge`]. Counters are plain sums,
/// so applying the tally before the clock advance is equivalent to the
/// historical inline order — the fault tick never reads these counters.
/// Every variant maps to a [`CostCategory`], so the cycle-attribution
/// profiler can bin each committed charge; the type system forces every
/// charge site to pick one.
pub(super) enum Tally {
    /// Pure cycle charge attributed to the given cost category; any
    /// counters were already bumped by the caller.
    Cycles(CostCategory),
    /// `n` scalar ALU operations.
    AluOps(u64),
    /// `n` 512-bit vector operations.
    VecOps(u64),
    /// `n` enclave boundary crossings.
    Transitions(u64),
    /// An OCALL round trip: crossings plus transient-failure retries.
    Ocall { transitions: u64, retries: u64 },
    /// One EDMM page committed on first touch.
    EdmmPage,
    /// One SGXv1 EPC page fault.
    EpcPageFault,
}

impl Machine {
    /// Build a machine for one of the paper's three settings.
    pub fn new(cfg: HwConfig, setting: Setting) -> Machine {
        let n_regions = cfg.sockets * 2;
        let cores = (0..cfg.total_cores())
            .map(|_| CoreHw {
                l1: Cache::new(&cfg.l1d),
                l2: Cache::new(&cfg.l2),
                streams: StreamDetector::new(),
                tlb: vec![u64::MAX; cfg.mem.tlb_entries.max(1)],
                tlb_fm: crate::fastdiv::FastMod::new(cfg.mem.tlb_entries.max(1) as u64),
            })
            .collect();
        let l3 = (0..cfg.sockets).map(|_| Cache::new(&cfg.l3)).collect();
        let pager = (cfg.generation == SgxGeneration::V1 && setting.mode() == ExecMode::Enclave)
            .then(|| Pager::new(&cfg.paging));
        Machine {
            mode: setting.mode(),
            setting,
            allocs: vec![RegionAlloc::default(); n_regions],
            cores,
            l3,
            counters: Counters::default(),
            wall: Wall(0.0),
            sealed: false,
            seal_watermark: vec![0; n_regions],
            committed_pages: BTreeSet::new(),
            pager,
            faults: None,
            core_clock: CoreClocks(vec![0.0; cfg.total_cores()]),
            prof: crate::profile::enabled().then(|| Box::new(ProfCtx::new())),
            cfg,
        }
    }

    /// Total simulated bytes handed out by the bump allocators across
    /// all regions — the allocation high-water mark. Nothing is ever
    /// freed, so this is also the footprint the SGXv1-style pager (and
    /// the EPC pressure balloon) prices pages against.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocs.iter().map(|a| a.used).sum()
    }

    /// Push a named phase scope for cycle attribution (see
    /// [`crate::profile`]); the scope ends when the returned guard drops.
    /// Flushes the pending counter delta first, so the push boundary is
    /// exact. Inert (and allocation-free) unless this machine was built
    /// with profiling enabled.
    pub fn phase(&mut self, name: &'static str) -> PhaseGuard {
        if let Some(prof) = self.prof.as_deref_mut() {
            prof.flush(&self.counters);
        }
        let guard = crate::profile::phase(name);
        if let Some(prof) = self.prof.as_deref_mut() {
            prof.refresh_scope();
        }
        guard
    }

    /// Attribute a wall-clock charge that does not flow through
    /// [`Core::commit`] (machine-level ECALL/OCALL costs).
    pub(super) fn prof_record(&mut self, cat: CostCategory, cycles: f64) {
        if let Some(prof) = self.prof.as_deref_mut() {
            prof.record(&self.counters, cat, cycles);
        }
    }

    /// Install a deterministic fault-injection profile (AEX storms, EPC
    /// pressure, transient OCALL failures — see [`crate::faults`]). The
    /// resulting fault schedule is a pure function of the profile and its
    /// seed: replaying the same workload reproduces the identical trace,
    /// counters, and wall time.
    pub fn install_faults(&mut self, profile: FaultProfile) {
        self.faults = Some(FaultEngine::new(profile, self.cfg.total_cores()));
    }

    /// Events the fault engine has applied so far, in application order
    /// (empty without [`Machine::install_faults`]).
    pub fn fault_trace(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], |engine| engine.trace())
    }

    /// The hardware configuration.
    pub fn cfg(&self) -> &HwConfig {
        &self.cfg
    }

    /// The benchmark setting this machine models.
    pub fn setting(&self) -> Setting {
        self.setting
    }

    /// Execution mode (derived from the setting).
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Accumulated wall-clock cycles over all phases so far.
    pub fn wall_cycles(&self) -> f64 {
        self.wall.0
    }

    /// Reset the wall clock (e.g. after untimed setup).
    pub fn reset_wall(&mut self) {
        self.wall.0 = 0.0;
    }

    /// Event counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Drop all cache contents (between experiment repetitions).
    pub fn flush_caches(&mut self) {
        for c in &mut self.cores {
            c.l1.flush();
            c.l2.flush();
            c.streams.reset();
            c.tlb.fill(u64::MAX);
        }
        for l3 in &mut self.l3 {
            l3.flush();
        }
    }

    /// Run single-threaded code on core 0, advancing the wall clock.
    pub fn run<R>(&mut self, f: impl FnOnce(&mut Core) -> R) -> R {
        self.run_on(0, f)
    }

    /// Run single-threaded code on a specific core.
    #[expect(
        clippy::expect_used,
        reason = "FnOnce-through-Option shim; parallel() calls each worker exactly once, so the one-element core list ran exactly once"
    )]
    pub fn run_on<R>(&mut self, core_id: usize, f: impl FnOnce(&mut Core) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.parallel(&[core_id], |core| {
            let f = f.take().expect("single-core phase runs the closure once");
            out = Some(f(core));
        });
        out.expect("single-core closure always runs")
    }

    /// Execute one parallel phase on the given hardware cores. The closure
    /// is invoked once per worker (sequentially, in core order); wall time
    /// advances by the regulated phase duration.
    pub fn parallel(&mut self, cores: &[usize], mut f: impl FnMut(&mut Core)) -> PhaseStats {
        assert!(!cores.is_empty(), "a phase needs at least one core");
        let sockets = self.cfg.sockets;
        let mut core_cycles = Vec::with_capacity(cores.len());
        let mut dram_bytes = vec![0.0; sockets];
        let mut upi_bytes = 0.0;
        let mut faults = 0u64;
        let mut edmm_pages = 0u64;
        for (w, &id) in cores.iter().enumerate() {
            assert!(id < self.cfg.total_cores(), "core id {id} out of range");
            let mut core = Core::new(self, id);
            core.windex = w;
            f(&mut core);
            core_cycles.push(core.cycles.0);
            for (total, &b) in dram_bytes.iter_mut().zip(&core.dram_bytes) {
                *total += b;
            }
            upi_bytes += core.upi_bytes;
            faults += core.faults;
            let busy = core.cycles;
            edmm_pages += core.edmm_pages;
            self.core_clock.merge_worker(id, busy);
        }
        self.finish_phase(core_cycles, dram_bytes, upi_bytes, faults, edmm_pages)
    }

    /// Execute a task-queue-driven phase: workers repeatedly pop tasks from
    /// `queue` (whose cost model serializes contended critical sections)
    /// and process them. Workers are interleaved by their local clocks, so
    /// queue contention plays out realistically (§4.4, Fig 10).
    pub fn parallel_tasks(
        &mut self,
        cores: &[usize],
        queue: &mut dyn QueueModel,
        n_tasks: usize,
        mut f: impl FnMut(&mut Core, usize),
    ) -> PhaseStats {
        assert!(!cores.is_empty(), "a phase needs at least one core");
        queue.reset(n_tasks);
        let sockets = self.cfg.sockets;
        let mut clocks = vec![0.0f64; cores.len()];
        let mut live = vec![true; cores.len()];
        let mut dram_bytes = vec![0.0; sockets];
        let mut upi_bytes = 0.0;
        let mut faults = 0u64;
        let mut edmm_pages = 0u64;
        let cfg = self.cfg.clone();
        while let Some(w) = (0..cores.len())
            .filter(|&w| live[w])
            .min_by(|&a, &b| clocks[a].total_cmp(&clocks[b]))
        {
            let mode = self.mode;
            let (t, task) = queue.dequeue(clocks[w], mode, &cfg, &mut self.counters);
            clocks[w] = t;
            match task {
                None => live[w] = false,
                Some(task) => {
                    let mut core = Core::new(self, cores[w]);
                    core.windex = w;
                    f(&mut core, task);
                    clocks[w] += core.cycles.0;
                    for (total, &b) in dram_bytes.iter_mut().zip(&core.dram_bytes) {
                        *total += b;
                    }
                    upi_bytes += core.upi_bytes;
                    faults += core.faults;
                    let busy = core.cycles;
                    edmm_pages += core.edmm_pages;
                    self.core_clock.merge_worker(cores[w], busy);
                }
            }
        }
        self.finish_phase(clocks, dram_bytes, upi_bytes, faults, edmm_pages)
    }

    fn finish_phase(
        &mut self,
        core_cycles: Vec<f64>,
        dram_bytes: Vec<f64>,
        upi_bytes: f64,
        faults: u64,
        edmm_pages: u64,
    ) -> PhaseStats {
        let busiest = core_cycles.iter().cloned().fold(0.0, f64::max);
        let mut bound = busiest;
        let mut bandwidth_bound = false;
        for &bytes in &dram_bytes {
            let cap = self.dram_cap(bytes);
            if cap > bound {
                bound = cap;
                bandwidth_bound = true;
            }
        }
        let upi_cap = self.upi_cap(upi_bytes);
        if upi_cap > bound {
            bound = upi_cap;
            bandwidth_bound = true;
        }
        // SGXv1 EPC paging is globally serialized (the kernel driver's
        // EWB/ELDU path holds a global lock), so concurrent workers cannot
        // overlap their faults: the phase can never finish faster than the
        // serial fault train.
        let fault_cap = self.fault_train_cap(faults);
        if fault_cap > bound {
            bound = fault_cap;
            bandwidth_bound = true;
        }
        // EDMM page adds serialize the same way: EAUG/EACCEPT go through
        // the driver's global EPC page-management lock, so concurrent
        // workers cannot overlap their enclave growth (this is what makes
        // Fig 11's dynamically grown enclave reach only ~4.5 % of the
        // statically sized one even with 16 threads).
        let edmm_cap = self.edmm_train_cap(edmm_pages);
        if edmm_cap > bound {
            bound = edmm_cap;
            bandwidth_bound = true;
        }
        self.wall.phase_barrier(bound);
        PhaseStats { wall_cycles: bound, core_cycles, bandwidth_bound }
    }
}

impl Drop for Machine {
    /// Fold this machine's counter totals into the thread-local counter
    /// session and, when profiling, append its finished cycle-attribution
    /// profile to the profile session (see
    /// [`crate::counters::session_take`] and
    /// [`crate::profile::session_take`]), so the figure harness can
    /// attribute work per job without plumbing a collector through every
    /// experiment.
    fn drop(&mut self) {
        crate::counters::session_absorb(&self.counters);
        if let Some(prof) = self.prof.as_deref_mut() {
            prof.flush(&self.counters);
            crate::profile::session_absorb(prof.take_profile());
        }
    }
}

impl<'m> Core<'m> {
    fn new(m: &'m mut Machine, id: usize) -> Core<'m> {
        let socket = m.cfg.socket_of_core(id);
        let sockets = m.cfg.sockets;
        Core {
            m,
            id,
            socket,
            cycles: Busy(0.0),
            dram_bytes: vec![0.0; sockets],
            upi_bytes: 0.0,
            group: None,
            dependent_depth: 0,
            windex: 0,
            faults: 0,
            edmm_pages: 0,
            last_rand_addr: CTX_POISON,
        }
    }

    /// Apply a [`Charge`]: attribute its counters, advance this worker's
    /// busy clock, and give the fault engine its tick. Every layer's
    /// cycle charge funnels through here (the only other clock advance is
    /// AEX delivery in `fault_tick_slow`, which runs the tick). This choke
    /// point is also where the cycle-attribution profiler observes every
    /// charge; counter bumps and float ordering are unchanged from the
    /// unprofiled path, and a machine without a profiler pays two `None`
    /// branches.
    #[inline]
    pub(super) fn commit(&mut self, charge: Charge) {
        let m = &mut *self.m;
        if let Some(prof) = m.prof.as_deref_mut() {
            // Sync scopes *before* the tally so counters bumped since the
            // last charge flush into the bucket they accrued under.
            prof.resync_scope(&m.counters);
        }
        let cat = match charge.tally {
            Tally::Cycles(cat) => cat,
            Tally::AluOps(n) => {
                m.counters.alu_ops += n;
                CostCategory::Compute
            }
            Tally::VecOps(n) => {
                m.counters.vec_ops += n;
                CostCategory::Compute
            }
            Tally::Transitions(n) => {
                m.counters.transitions += n;
                CostCategory::Transition
            }
            Tally::Ocall { transitions, retries } => {
                m.counters.transitions += transitions;
                m.counters.ocall_retries += retries;
                CostCategory::Transition
            }
            Tally::EdmmPage => {
                m.counters.edmm_pages += 1;
                CostCategory::Edmm
            }
            Tally::EpcPageFault => {
                m.counters.epc_page_faults += 1;
                CostCategory::EpcPaging
            }
        };
        if let Some(prof) = m.prof.as_deref_mut() {
            prof.add(cat, charge.cycles);
        }
        self.cycles.0 += charge.cycles;
        self.fault_tick();
    }

    /// Fault-injection hook, called after every cycle-advancing charge:
    /// delivers asynchronous interrupts that came due on this core and
    /// inflates the EPC pressure balloon once its threshold is crossed. A
    /// machine without faults installed pays a single branch.
    #[inline]
    fn fault_tick(&mut self) {
        if self.m.faults.is_some() {
            self.fault_tick_slow();
        }
    }

    #[cold]
    fn fault_tick_slow(&mut self) {
        let base = self.m.core_clock.0[self.id];
        // EPC pressure: once the balloon inflates, every touch beyond the
        // shrunken residency pages through the SGXv1-style pager
        // (`pre_touch`), and `finish_phase` serializes the fault train.
        if self.m.mode == ExecMode::Enclave && self.m.pager.is_none() {
            let clock = base + self.cycles.0;
            let resident = self.m.faults.as_mut().and_then(|engine| engine.poll_balloon(clock));
            if let Some(resident_bytes) = resident {
                let mut paging = self.m.cfg.paging;
                paging.resident_bytes = resident_bytes;
                self.m.pager = Some(Pager::new(&paging));
            }
        }
        // Interrupt delivery. Interrupts stay masked while one is serviced
        // (the next event is scheduled from the post-handler clock), so a
        // storm whose handler outlasts the mean interval cannot livelock.
        loop {
            let clock = base + self.cycles.0;
            let due = self
                .m
                .faults
                .as_ref()
                .is_some_and(|engine| engine.interrupt_due(self.id, clock));
            if !due {
                return;
            }
            let cost = match self.m.mode {
                ExecMode::Enclave => {
                    // An AEX: scrub state, exit, kernel handler, ERESUME —
                    // a full enclave round trip — and the core resumes with
                    // cold L1/TLB/stream state, so the refill cost emerges
                    // organically from the cache model.
                    self.m.counters.aex_events += 1;
                    self.m.counters.transitions += 2;
                    let hw = &mut self.m.cores[self.id];
                    hw.l1.flush();
                    hw.streams.reset();
                    hw.tlb.fill(u64::MAX);
                    2.0 * self.m.cfg.transitions.transition_cycles
                }
                // A native interrupt is just a kernel round trip: no
                // enclave state to scrub, no TLB flush.
                ExecMode::Native => self.m.cfg.interrupts.native_interrupt_cycles,
            };
            self.cycles.0 += cost;
            // The interrupt bypasses `commit` (it is the tick's own
            // charge), so attribute its cycles to the profiler here.
            {
                let m = &mut *self.m;
                if let Some(prof) = m.prof.as_deref_mut() {
                    prof.record(&m.counters, CostCategory::Fault, cost);
                }
            }
            if let Some(engine) = self.m.faults.as_mut() {
                engine.interrupt_fired(self.id, clock, base + self.cycles.0);
            }
        }
    }

    /// This core's local clock: its finished phases plus this worker's
    /// busy cycles so far — the time the fault engine schedules against.
    pub(super) fn local_clock(&self) -> f64 {
        self.m.core_clock.0[self.id] + self.cycles.0
    }

    /// Hardware core id this worker is pinned to.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Index of this worker within the phase's core list (0-based), for
    /// indexing per-worker scratch structures.
    pub fn worker(&self) -> usize {
        self.windex
    }

    /// Socket (NUMA node) of this core.
    pub fn socket(&self) -> usize {
        self.socket
    }

    /// Execution mode of the machine.
    pub fn mode(&self) -> ExecMode {
        self.m.mode
    }

    /// Cycles this worker has accumulated in the current phase.
    pub fn busy_cycles(&self) -> f64 {
        self.cycles.0
    }

    /// Charge `n` scalar ALU operations.
    #[inline]
    pub fn compute(&mut self, n: u64) {
        self.commit(Charge {
            cycles: n as f64 * self.m.cfg.pipeline.cycles_per_op,
            tally: Tally::AluOps(n),
        });
    }

    /// Charge `n` 512-bit vector operations.
    #[inline]
    pub fn vec_compute(&mut self, n: u64) {
        self.commit(Charge {
            cycles: n as f64 * self.m.cfg.pipeline.cycles_per_vec_op,
            tally: Tally::VecOps(n),
        });
    }

    /// Charge raw cycles (e.g. a modelled library call).
    #[inline]
    pub fn charge(&mut self, cycles: f64) {
        self.commit(Charge { cycles, tally: Tally::Cycles(CostCategory::Compute) });
    }

    /// Push a named phase scope for cycle attribution from inside a
    /// parallel phase (see [`Machine::phase`]); the scope ends when the
    /// returned guard drops.
    pub fn phase(&mut self, name: &'static str) -> PhaseGuard {
        self.m.phase(name)
    }

    /// Charge the expected cost of a data-dependent branch that the
    /// predictor misses with probability `miss_prob` (e.g. CrkJoin's
    /// two-pointer comparison on a random key bit: 0.5).
    #[inline]
    pub fn branch(&mut self, miss_prob: f64) {
        self.commit(Charge {
            cycles: miss_prob.clamp(0.0, 1.0) * BRANCH_MISS_CYCLES,
            tally: Tally::Cycles(CostCategory::Compute),
        });
    }

    /// Open an explicit issue group: all accesses inside `f` are declared
    /// independent of one another (the paper's Listing 2 manual unroll —
    /// compute N indexes first, then issue N memory operations). Native
    /// mode is insensitive to grouping; enclave mode only overlaps
    /// *within* a group.
    pub fn group<R>(&mut self, f: impl FnOnce(&mut Core) -> R) -> R {
        assert!(self.group.is_none(), "issue groups do not nest");
        self.group = Some(GroupAcc::default());
        let r = f(self);
        #[expect(
            clippy::expect_used,
            reason = "set to Some two lines above; groups cannot nest (asserted on entry)"
        )]
        let g = self.group.take().expect("group still open");
        self.close_group(g);
        r
    }

    /// Mark the accesses inside `f` as a serial dependency chain (pointer
    /// chasing): each access waits for the full latency of the previous
    /// one, in both modes.
    pub fn dependent<R>(&mut self, f: impl FnOnce(&mut Core) -> R) -> R {
        self.dependent_depth += 1;
        let r = f(self);
        self.dependent_depth -= 1;
        r
    }

    fn close_group(&mut self, g: GroupAcc) {
        if g.count == 0 {
            return;
        }
        if self.m.mode == ExecMode::Enclave {
            self.m.counters.enclave_groups += 1;
        }
        let p = &self.m.cfg.pipeline;
        let mem = &self.m.cfg.mem;
        let cost = match self.m.mode {
            ExecMode::Native => {
                (g.near_sum / p.ilp_native).max(g.far_sum / mem.mlp_native)
            }
            ExecMode::Enclave => {
                let near = g.near_max + (g.near_sum - g.near_max) / p.ilp_enclave_group;
                near.max(g.far_sum / mem.mlp_enclave) + p.enclave_group_overhead
            }
        };
        // The group's accesses pooled into one charge; attribute it to the
        // category that contributed the most raw cycles (deterministic
        // lowest-index tie-break).
        self.commit(Charge { cycles: cost, tally: Tally::Cycles(CostCategory::dominant(&g.cats)) });
    }

    /// Commit a resolved access cost to the pipeline model.
    pub(super) fn post(&mut self, c: AccessCost) {
        if self.dependent_depth > 0 {
            // Serial dependency chain: no overlap in either mode. No extra
            // enclave overhead — the paper's in-cache pointer chase runs at
            // parity (Fig 5), and on DRAM chases the MEE fill latency in
            // `far` already carries the whole penalty.
            self.commit(Charge { cycles: c.near + c.far, tally: Tally::Cycles(c.cat) });
            return;
        }
        if let Some(g) = &mut self.group {
            g.near_sum += c.near;
            g.near_max = g.near_max.max(c.near);
            g.far_sum += c.far;
            g.count += 1;
            g.cats[c.cat.index()] += c.near + c.far;
            return;
        }
        // References, not struct copies — `post` runs once per random
        // access and the config blocks are ~20 fields wide.
        let p = &self.m.cfg.pipeline;
        let mem = &self.m.cfg.mem;
        let cost = match self.m.mode {
            ExecMode::Native => (c.near / p.ilp_native).max(c.far / mem.mlp_native),
            ExecMode::Enclave => {
                if c.serial_load {
                    // The §4.2 restriction: ungrouped loads do not overlap
                    // across iterations in enclave mode.
                    c.near + mem.enclave_serial_far_fraction * c.far + p.enclave_group_overhead
                } else {
                    // Pooled path: never overlaps *better* than native
                    // (`ilp_enclave_group` only applies within explicit
                    // issue groups).
                    (c.near / p.ilp_native.min(p.ilp_enclave_group))
                        .max(c.far / mem.mlp_enclave)
                }
            }
        };
        self.commit(Charge { cycles: cost, tally: Tally::Cycles(c.cat) });
    }
}
