//! Opt-in cycle-attribution profiler (DESIGN.md §11).
//!
//! The machine charges every cycle through the `Core::commit(Charge)`
//! choke point; this module answers *where in a workload's lifetime*
//! those cycles went. Experiments push named phase scopes
//! ([`Machine::phase`](crate::Machine::phase) /
//! [`Core::phase`](crate::Core::phase), RAII [`PhaseGuard`]), and every
//! committed charge is attributed to the pair *(phase stack, cost
//! category)*. The result is a [`Profile`]: a map from phase path
//! (`"build"`, `"join/probe"`, …) to a [`CategoryCycles`] cycle breakdown
//! plus the [`Counters`] delta that accrued under that phase.
//!
//! ## Conservation
//!
//! Counter attribution works by snapshot deltas: the per-machine
//! `ProfCtx` remembers the last-seen [`Counters`] and flushes the
//! field-wise difference into the current phase bucket at every phase
//! transition (and at machine drop). The deltas telescope, so the sum of
//! the per-phase counters equals the machine's end-of-run totals
//! *exactly* (u64 arithmetic; witnessed in `tests/integration_counters.rs`).
//! Cycle attribution adds each charge to exactly one `(phase, category)`
//! bin, so the bin sum equals the arrival-order total
//! [`Profile::charged_cycles`] up to float re-association.
//!
//! ## Attribution boundaries
//!
//! Attribution is *commit-granular*: counters bumped between a phase
//! transition and the next committed charge land in the bucket that is
//! current at flush time, so a phase boundary can smear at most one
//! operation's counters into the neighbouring phase. Pushing a scope via
//! `Machine::phase`/`Core::phase` flushes eagerly, which makes *push*
//! boundaries exact. Queue wait cycles (the task hand-out in
//! `Machine::parallel_tasks`) are deliberately not attributed — they are
//! idle time, not charged work.
//!
//! ## Determinism
//!
//! Profiles are [`BTreeMap`]-backed (sorted, no hash iteration), and
//! phase stacks are thread-local. Cycle bins are `f64`, so a fold of
//! several machines' profiles depends on its order. The thread's record
//! of dropped machines ([`crate::counters::Session`]) therefore keeps each
//! machine's profile, in drop order, and [`session_take`] folds them only
//! when it is called, with the same sequence of `+=` as merging each
//! profile as it arrives. A job whose points run on several threads
//! appends each point's record to the job's in the points' list order,
//! which is the order a sequential loop drops their machines in. A job's
//! profile is thus a pure function of the job, byte-identical at any
//! `--jobs` value and thread budget.
//!
//! When profiling is disabled (the default) a machine carries no
//! `ProfCtx`, and every commit pays two `None` branches on it.

// Profile counters are exact u64 totals: a narrowing cast would wrap one.
#![deny(clippy::cast_possible_truncation)]

use crate::counters::Counters;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Cost category a committed charge is attributed to. Categories are
/// derived from the charge's `Tally` (compute/transition/EDMM/EPC-fault
/// charges) or from the memory level and region that served the access
/// (cache/DRAM/MEE/UPI), mirroring the decomposition the paper uses to
/// explain enclave slowdowns (§4–§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostCategory {
    /// Scalar/vector ALU work, branches, issue costs, modelled library
    /// calls.
    Compute,
    /// Accesses served by L1/L2/L3 (plus their TLB-walk share).
    Cache,
    /// Plain local DRAM fills and write-backs.
    Dram,
    /// DRAM traffic through the memory-encryption engine (EPC data in
    /// enclave mode).
    Mee,
    /// SGXv1-style EPC page faults (EWB/ELDU round trips).
    EpcPaging,
    /// EDMM dynamic page commits (EAUG + EACCEPT).
    Edmm,
    /// Enclave boundary crossings: ECALLs, OCALLs, retries.
    Transition,
    /// Remote-socket fills and their UPI/UCE latency.
    Upi,
    /// Asynchronous exits and native interrupts delivered by the fault
    /// engine.
    Fault,
}

impl CostCategory {
    /// Every category, in the fixed report order.
    pub const ALL: [CostCategory; 9] = [
        CostCategory::Compute,
        CostCategory::Cache,
        CostCategory::Dram,
        CostCategory::Mee,
        CostCategory::EpcPaging,
        CostCategory::Edmm,
        CostCategory::Transition,
        CostCategory::Upi,
        CostCategory::Fault,
    ];

    /// Stable label used in `profile.json` and chart legends.
    pub fn label(self) -> &'static str {
        match self {
            CostCategory::Compute => "compute",
            CostCategory::Cache => "cache",
            CostCategory::Dram => "dram",
            CostCategory::Mee => "mee",
            CostCategory::EpcPaging => "epc_paging",
            CostCategory::Edmm => "edmm",
            CostCategory::Transition => "transition",
            CostCategory::Upi => "upi",
            CostCategory::Fault => "fault",
        }
    }

    /// Index of this category in [`CostCategory::ALL`] (its declaration
    /// order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The category holding the largest share of `sums`; ties break
    /// towards the lowest index, so the choice is deterministic. Used for
    /// pooled charges (issue groups, stream touches) that aggregate
    /// several accesses into one commit.
    pub fn dominant(sums: &CategoryCycles) -> CostCategory {
        let mut best = CostCategory::ALL[0];
        for cat in CostCategory::ALL {
            if sums.get(cat) > sums.get(best) {
                best = cat;
            }
        }
        best
    }
}

/// Cycles attributed to each [`CostCategory`]: one bin per category,
/// indexed by [`CostCategory::index`]. Every consumer (merging, totals,
/// the profile JSON, the chart) walks [`CostCategory::ALL`], so a new
/// category needs only its variant, its place in `ALL` and its label,
/// and `tests/integration_counters.rs` checks that every bin is written.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CategoryCycles([f64; CostCategory::ALL.len()]);

impl CategoryCycles {
    /// Add `cycles` to the bin for `cat`.
    #[inline]
    pub fn add(&mut self, cat: CostCategory, cycles: f64) {
        self.0[cat.index()] += cycles;
    }

    /// The bin for `cat`.
    pub fn get(&self, cat: CostCategory) -> f64 {
        self.0[cat.index()]
    }

    /// Each category with its bin, in [`CostCategory::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (CostCategory, f64)> + '_ {
        CostCategory::ALL.into_iter().map(|cat| (cat, self.get(cat)))
    }

    /// Bin-wise sum: add every bin of `other` into `self`.
    pub fn merge(&mut self, other: &CategoryCycles) {
        for (cat, cycles) in other.iter() {
            self.add(cat, cycles);
        }
    }

    /// Total cycles over all bins (fixed summation order).
    pub fn total(&self) -> f64 {
        self.iter().map(|(_, cycles)| cycles).sum()
    }
}

/// Everything attributed to one phase path: the cycle breakdown and the
/// counter events that accrued while the phase was current.
#[derive(Debug, Default, Clone)]
pub struct PhaseProfile {
    /// Cycles per cost category.
    pub cycles: CategoryCycles,
    /// Counter delta of the phase (sums exactly to the run totals).
    pub counters: Counters,
}

/// A cycle-attribution profile: phase path → attributed work. Phase paths
/// are `/`-joined scope stacks; work charged outside any scope lands under
/// `"(unscoped)"`.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Per-phase attribution, sorted by path (deterministic iteration).
    pub phases: BTreeMap<String, PhaseProfile>,
    /// Arrival-order sum of every attributed cycle charge — the
    /// conservation witness for [`Profile::total_cycles`], which re-sums
    /// the same charges grouped by bin.
    pub charged_cycles: f64,
}

impl Profile {
    /// Fold `other` into `self`, phase by phase.
    pub fn merge(&mut self, other: &Profile) {
        for (path, ph) in &other.phases {
            let e = self.phases.entry(path.clone()).or_default();
            e.cycles.merge(&ph.cycles);
            e.counters.merge(&ph.counters);
        }
        self.charged_cycles += other.charged_cycles;
    }

    /// Merge `parts` into an empty profile, in list order. Bins are
    /// `f64`, so the order is part of the result.
    pub fn fold(parts: &[Profile]) -> Profile {
        let mut total = Profile::default();
        for p in parts {
            total.merge(p);
        }
        total
    }

    /// Sum of all cycle bins over all phases. Equals
    /// [`Profile::charged_cycles`] up to float re-association.
    pub fn total_cycles(&self) -> f64 {
        self.phases.values().map(|p| p.cycles.total()).sum()
    }

    /// Merged counter totals over all phases. Exactly equal (u64) to the
    /// run totals of the machines that produced this profile.
    pub fn total_counters(&self) -> Counters {
        let mut c = Counters::default();
        for p in self.phases.values() {
            c.merge(&p.counters);
        }
        c
    }

    /// True when nothing was attributed.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

thread_local! {
    /// Whether machines built on this thread attribute their charges.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Bumped on every phase push/pop; `ProfCtx` uses it to notice scope
    /// changes without comparing stacks.
    static VERSION: Cell<u64> = const { Cell::new(0) };
    /// The current phase scope stack.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Enable or disable profiling for machines subsequently built on this
/// thread (existing machines keep their setting). Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Is profiling enabled on this thread?
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

fn version() -> u64 {
    VERSION.with(|v| v.get())
}

fn bump_version() {
    VERSION.with(|v| v.set(v.get().wrapping_add(1)));
}

fn current_path() -> String {
    STACK.with(|s| {
        let s = s.borrow();
        if s.is_empty() {
            "(unscoped)".to_string()
        } else {
            s.join("/")
        }
    })
}

/// Push a named phase scope on this thread's stack; the scope ends when
/// the returned guard drops. Inert (and free) while profiling is
/// disabled. Prefer [`Machine::phase`](crate::Machine::phase) /
/// [`Core::phase`](crate::Core::phase), which additionally flush the
/// machine's pending counter delta so the push boundary is exact; this
/// free function serves contexts without a machine at hand.
pub fn phase(name: &'static str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard { active: false };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    bump_version();
    PhaseGuard { active: true }
}

/// RAII guard for a phase scope (see [`phase`]). Guards must nest:
/// dropping them out of order pops the wrong scope.
#[must_use = "binding the guard keeps the phase scope open; dropping it immediately closes the scope"]
pub struct PhaseGuard {
    active: bool,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _popped = STACK.with(|s| s.borrow_mut().pop());
        bump_version();
    }
}

/// Take the profiles of the current thread's session (see
/// [`crate::counters::Session`]), folded into one profile in drop order.
pub fn session_take() -> Profile {
    let profiles = crate::counters::SESSION.with(|s| std::mem::take(&mut s.borrow_mut().profiles));
    Profile::fold(&profiles)
}

/// Per-machine attribution context, installed by `Machine::new` when
/// [`enabled`] is set. Keeps the profile under construction plus the
/// state needed to attribute incrementally: the last-seen counter
/// snapshot, the cached phase path, and flat cycle bins for the current
/// phase (so the hot path touches no map).
pub(crate) struct ProfCtx {
    /// Thread-local [`VERSION`] at the last scope sync.
    version: u64,
    /// Cached phase path (valid for `version`).
    path: String,
    /// Counter values already flushed into `profile`.
    snapshot: Counters,
    /// Cycle bins of the current phase, merged into `profile` on flush.
    cur: CategoryCycles,
    /// The profile under construction.
    profile: Profile,
}

impl ProfCtx {
    pub(crate) fn new() -> ProfCtx {
        ProfCtx {
            version: version(),
            path: current_path(),
            snapshot: Counters::default(),
            cur: CategoryCycles::default(),
            profile: Profile::default(),
        }
    }

    /// Merge the pending cycle bins and the counter delta since the last
    /// flush into the bucket of the cached phase path. Cheap when nothing
    /// is pending; otherwise one map lookup per phase transition.
    pub(crate) fn flush(&mut self, counters: &Counters) {
        let delta = counters.delta(&self.snapshot);
        let dirty = self.cur != CategoryCycles::default() || delta.any();
        if !dirty {
            return;
        }
        self.snapshot = counters.clone();
        let e = self.profile.phases.entry(self.path.clone()).or_default();
        e.cycles.merge(&self.cur);
        e.counters.merge(&delta);
        self.cur = CategoryCycles::default();
    }

    /// Re-cache the thread-local scope path after a push/pop performed by
    /// the caller (who has already flushed).
    pub(crate) fn refresh_scope(&mut self) {
        self.version = version();
        self.path = current_path();
    }

    /// Notice phase pushes/pops since the last sync: flush pending work to
    /// the old scope, then adopt the new one. Call before applying a
    /// charge's counter tally so pre-charge counter bumps land in the
    /// scope they accrued under.
    #[inline]
    pub(crate) fn resync_scope(&mut self, counters: &Counters) {
        if version() != self.version {
            self.flush(counters);
            self.refresh_scope();
        }
    }

    /// Attribute `cycles` to the `cat` bin of the current phase (counters
    /// flow via snapshot deltas at flush time). The hot path of
    /// `Core::commit`: two field adds, no map access.
    #[inline]
    pub(crate) fn add(&mut self, cat: CostCategory, cycles: f64) {
        self.cur.add(cat, cycles);
        self.profile.charged_cycles += cycles;
    }

    /// Attribute one out-of-band charge: [`ProfCtx::resync_scope`] +
    /// [`ProfCtx::add`], for cycle advances that bypass `Core::commit`
    /// (machine-level ECALL/OCALL wall charges, fault-engine interrupts).
    #[inline]
    pub(crate) fn record(&mut self, counters: &Counters, cat: CostCategory, cycles: f64) {
        self.resync_scope(counters);
        self.add(cat, cycles);
    }

    /// Take the finished profile (call [`ProfCtx::flush`] first).
    pub(crate) fn take_profile(&mut self) -> Profile {
        std::mem::take(&mut self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{session_replace, Session};

    fn ctx_with(cats: &[(CostCategory, f64)]) -> ProfCtx {
        let mut ctx = ProfCtx::new();
        let c = Counters::default();
        for &(cat, v) in cats {
            ctx.record(&c, cat, v);
        }
        ctx
    }

    #[test]
    fn categories_have_stable_order_labels_and_indexes() {
        assert_eq!(CostCategory::ALL.len(), 9);
        for (i, cat) in CostCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
        }
        let labels: Vec<&str> = CostCategory::ALL.iter().map(|c| c.label()).collect();
        let mut sorted = labels.clone();
        sorted.dedup();
        assert_eq!(labels.len(), sorted.len(), "labels must be unique");
    }

    #[test]
    fn dominant_breaks_ties_towards_lowest_index() {
        let mut sums = CategoryCycles::default();
        assert_eq!(CostCategory::dominant(&sums), CostCategory::Compute);
        sums.add(CostCategory::Mee, 5.0);
        sums.add(CostCategory::Upi, 5.0);
        assert_eq!(CostCategory::dominant(&sums), CostCategory::Mee);
        sums.add(CostCategory::Upi, 1.0);
        assert_eq!(CostCategory::dominant(&sums), CostCategory::Upi);
    }

    #[test]
    fn category_cycles_add_get_merge_total_cover_every_bin() {
        let mut a = CategoryCycles::default();
        for (i, &cat) in CostCategory::ALL.iter().enumerate() {
            a.add(cat, (i + 1) as f64);
        }
        for (i, &cat) in CostCategory::ALL.iter().enumerate() {
            assert_eq!(a.get(cat), (i + 1) as f64);
        }
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.total(), 2.0 * a.total());
        assert_eq!(a.total(), 45.0);
    }

    #[test]
    fn guard_is_inert_when_disabled() {
        set_enabled(false);
        let before = version();
        {
            let _g = phase("dead");
            assert_eq!(version(), before);
            assert_eq!(current_path(), "(unscoped)");
        }
        assert_eq!(version(), before);
    }

    #[test]
    fn scopes_nest_and_version_tracks_transitions() {
        set_enabled(true);
        let v0 = version();
        {
            let _a = phase("outer");
            assert_eq!(current_path(), "outer");
            {
                let _b = phase("inner");
                assert_eq!(current_path(), "outer/inner");
            }
            assert_eq!(current_path(), "outer");
        }
        assert_eq!(current_path(), "(unscoped)");
        assert_eq!(version(), v0 + 4, "two pushes + two pops");
        set_enabled(false);
    }

    #[test]
    fn profctx_attributes_by_scope_and_conserves() {
        set_enabled(true);
        let mut ctx = ProfCtx::new();
        let mut counters = Counters::default();
        counters.loads += 3;
        ctx.record(&counters, CostCategory::Cache, 10.0);
        {
            let _g = phase("hot");
            ctx.flush(&counters);
            ctx.refresh_scope();
            counters.loads += 2;
            counters.epc_fills += 1;
            ctx.record(&counters, CostCategory::Mee, 32.0);
        }
        // The pop is noticed lazily at the next record.
        counters.stores += 1;
        ctx.record(&counters, CostCategory::Compute, 1.0);
        ctx.flush(&counters);
        let p = ctx.take_profile();
        assert_eq!(p.phases.len(), 2);
        assert_eq!(p.phases["hot"].cycles.get(CostCategory::Mee), 32.0);
        // Commit-granular smear: the store bumped before the first
        // post-pop record flushes with the "hot" bucket.
        assert_eq!(p.phases["hot"].counters.loads, 2);
        assert_eq!(p.phases["hot"].counters.stores, 1);
        assert_eq!(p.phases["(unscoped)"].cycles.get(CostCategory::Cache), 10.0);
        assert_eq!(p.phases["(unscoped)"].cycles.get(CostCategory::Compute), 1.0);
        let totals = p.total_counters();
        assert_eq!(format!("{totals:?}"), format!("{counters:?}"), "deltas telescope exactly");
        assert_eq!(p.total_cycles(), p.charged_cycles);
        set_enabled(false);
    }

    /// Record a machine drop with `p` on this thread's session.
    fn record(p: Profile) {
        crate::counters::SESSION.with(|s| s.borrow_mut().record(&Counters::default(), Some(p)));
    }

    #[test]
    fn session_accumulator_merges_and_resets() {
        let _ = session_take();
        let mut ctx = ctx_with(&[(CostCategory::Compute, 4.0)]);
        let c = Counters::default();
        ctx.flush(&c);
        record(ctx.take_profile());
        let mut ctx2 = ctx_with(&[(CostCategory::Compute, 6.0)]);
        ctx2.flush(&c);
        record(ctx2.take_profile());
        let got = session_take();
        assert_eq!(got.phases["(unscoped)"].cycles.get(CostCategory::Compute), 10.0);
        assert_eq!(got.charged_cycles, 10.0);
        assert!(session_take().is_empty());
    }

    #[test]
    fn session_keeps_machine_profiles_and_folds_them_in_drop_order() {
        let _ = session_take();
        let c = Counters::default();
        for v in [1e16, 1.0, -1e16] {
            let mut ctx = ctx_with(&[(CostCategory::Mee, v)]);
            ctx.flush(&c);
            record(ctx.take_profile());
        }
        let taken = session_replace(Session::default());
        assert_eq!(taken.profiles.len(), 3);
        assert!(session_replace(Session::default()).profiles.is_empty());
        session_replace(taken);
        // (1e16 + 1) - 1e16 rounds the 1 away; (1e16 - 1e16) + 1 would not.
        let got = session_take();
        assert_eq!(got.phases["(unscoped)"].cycles.get(CostCategory::Mee), 0.0);
        assert_eq!(got.charged_cycles, 0.0);
    }

    #[test]
    fn empty_flushes_create_no_phase_entries() {
        let mut ctx = ProfCtx::new();
        let c = Counters::default();
        ctx.flush(&c);
        ctx.flush(&c);
        assert!(ctx.take_profile().is_empty());
    }
}
