//! Seeded, deterministic fault injection: AEX interrupt storms, EPC
//! pressure ballooning, and transient OCALL failures.
//!
//! The paper's §4.4 findings (transition avalanche, EDMM stalls) describe
//! how enclaves behave under *adverse events*, and Stress-SGX-style
//! perturbation is how the real cliffs are found — yet a simulator models
//! only the happy path unless faults are injected on purpose. This module
//! drives three fault classes from a schedule that is a pure function of
//! `(FaultProfile, seed)`:
//!
//! * **AEX interrupt storms** — asynchronous enclave exits at a
//!   configurable mean rate. In enclave mode each event charges a full
//!   enclave round trip (2 × [`TransitionConfig::transition_cycles`], the
//!   `transitions` counter moves) and invalidates the interrupted core's
//!   L1/TLB/stream state, so the refill cost on resume emerges organically
//!   from the cache model. Native mode pays only the small
//!   [`InterruptConfig::native_interrupt_cycles`] handler cost — which is
//!   what makes enclave throughput degrade super-linearly with the rate.
//! * **EPC pressure ballooning** — once a run crosses a cycle threshold,
//!   the effective EPC shrinks to a configured residency and overflow is
//!   routed through the existing SGXv1-style pager
//!   ([`crate::paging::Pager`]): every spilled touch pays an EWB/ELDU
//!   round trip and the globally serialized fault train of `finish_phase`.
//! * **Transient OCALL failures** — [`crate::Machine::ocall`] /
//!   [`crate::Core::ocall`] draw from a deterministic failure stream and
//!   retry with bounded exponential backoff in *simulated* cycles; the
//!   `ocall_retries` counter surfaces how often the boundary misbehaved.
//!
//! Every applied event is recorded in a bounded in-order trace
//! ([`crate::Machine::fault_trace`]): identical seeds reproduce the trace
//! byte-for-byte, different seeds diverge — the regression tests pin both.
//!
//! [`TransitionConfig::transition_cycles`]: crate::config::TransitionConfig::transition_cycles
//! [`InterruptConfig::native_interrupt_cycles`]: crate::config::InterruptConfig::native_interrupt_cycles

/// Upper bound on recorded fault events; beyond it events still *charge*
/// (and count) but are no longer appended to the trace.
const MAX_TRACE_EVENTS: usize = 1 << 16;

/// Cap on the exponential-backoff doubling (2^6 = 64× the base backoff).
pub const MAX_BACKOFF_EXP: u32 = 6;

/// Stream tags separating the per-class random sequences drawn from one
/// seed (arbitrary odd constants).
const STREAM_AEX: u64 = 0xA5A5_17E4_0DD5_EED1;
const STREAM_OCALL: u64 = 0x0CA1_1FA1_1B0F_F5E7;

/// AEX interrupt-storm parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AexStorm {
    /// Mean cycles between interrupts on each core. Individual gaps jitter
    /// deterministically in `[0.5, 1.5)` of the mean.
    pub mean_interval_cycles: f64,
}

/// EPC pressure-balloon parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpcPressure {
    /// Per-core cycle count after which the balloon inflates.
    pub after_cycles: f64,
    /// Usable EPC bytes once inflated; overflow pages fault through the
    /// SGXv1-style pager.
    pub resident_bytes: usize,
}

/// Transient OCALL-failure parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcallFaults {
    /// Probability (0..1) that any single OCALL attempt fails transiently.
    pub failure_prob: f64,
    /// Retries before the call is forced through (bounded recovery).
    pub max_retries: u32,
    /// Base backoff in simulated cycles; attempt `k` waits `2^(k-1)` times
    /// this (capped), modeling the SDK's escalating sleep.
    pub backoff_cycles: f64,
}

/// A complete fault-injection plan. All schedules derive from `seed`
/// alone, so a machine with the same profile, seed, and workload replays
/// the exact same fault history.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Seed for every fault schedule.
    pub seed: u64,
    /// AEX interrupt storm, if enabled.
    pub aex: Option<AexStorm>,
    /// EPC pressure balloon, if enabled.
    pub epc_pressure: Option<EpcPressure>,
    /// Transient OCALL failures, if enabled.
    pub ocall: Option<OcallFaults>,
}

impl OcallFaults {
    /// Backoff wait in simulated cycles before retry `attempt` (1-based):
    /// `backoff_cycles * 2^min(attempt-1, MAX_BACKOFF_EXP)` — the SDK's
    /// escalating sleep, capped so the schedule stays bounded.
    pub fn backoff_wait(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(MAX_BACKOFF_EXP);
        // Shift-safe: the exponent is clamped to MAX_BACKOFF_EXP (6).
        self.backoff_cycles * (1u64 << exp) as f64
    }

    /// Total simulated cost of one OCALL under this fault setting that
    /// suffered `retries` transient failures (see [`ocall_cost`]).
    pub fn call_cost(&self, retries: u32, transition_cycles: f64) -> f64 {
        ocall_cost(retries, transition_cycles, self.backoff_cycles)
    }

    /// Deterministically decide how many transient failures an attempt
    /// stream starting at index `k` suffers, mirroring the engine's
    /// `FaultEngine::plan_ocall` semantics exactly: one uniform draw per
    /// attempt, bounded by `max_retries`, with the final forced-through
    /// attempt still consuming a draw. Returns the retry count; the stream
    /// position always advances by `retries + 1` indices, so external
    /// schedulers (e.g. `sgx-serve`) can replay the same schedule the
    /// machine would.
    pub fn draw_retries(&self, seed: u64, stream: u64, k: u64) -> u32 {
        let mut retries = 0u32;
        while retries < self.max_retries {
            if unit(mix(seed, stream, k + retries as u64)) >= self.failure_prob {
                return retries;
            }
            retries += 1;
        }
        retries
    }
}

impl FaultProfile {
    /// An empty profile (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultProfile {
        FaultProfile { seed, aex: None, epc_pressure: None, ocall: None }
    }

    /// Enable an AEX storm with the given mean interrupt interval in
    /// cycles (clamped to at least 1).
    pub fn with_aex_storm(mut self, mean_interval_cycles: f64) -> FaultProfile {
        self.aex = Some(AexStorm { mean_interval_cycles: mean_interval_cycles.max(1.0) });
        self
    }

    /// Enable EPC-pressure ballooning: after `after_cycles` of per-core
    /// work, usable EPC shrinks to `resident_bytes`.
    pub fn with_epc_pressure(mut self, after_cycles: f64, resident_bytes: usize) -> FaultProfile {
        self.epc_pressure = Some(EpcPressure { after_cycles, resident_bytes });
        self
    }

    /// Enable transient OCALL failures.
    pub fn with_ocall_faults(
        mut self,
        failure_prob: f64,
        max_retries: u32,
        backoff_cycles: f64,
    ) -> FaultProfile {
        self.ocall = Some(OcallFaults {
            failure_prob: failure_prob.clamp(0.0, 1.0),
            max_retries,
            backoff_cycles: backoff_cycles.max(0.0),
        });
        self
    }
}

/// What kind of fault an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An asynchronous interrupt delivered to a core (an AEX when the
    /// machine runs in enclave mode).
    Interrupt {
        /// Hardware core the interrupt hit.
        core: usize,
    },
    /// One transient OCALL failure forcing retry number `attempt`.
    OcallRetry {
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// The EPC pressure balloon inflated (pager installed).
    EpcBalloon,
}

/// One applied fault event, in application order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The fault class and its payload.
    pub kind: FaultKind,
    /// Local clock (cycles) at which the event struck: the core's
    /// cumulative busy cycles for interrupts, the call-site clock for
    /// OCALL retries and the balloon.
    pub at_cycles: f64,
}

/// SplitMix64 finalizer over a seed/stream/index triple: the single
/// source of randomness for every schedule (pure, no state).
fn mix(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z = seed
        ^ stream
        ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map 64 uniform bits to a uniform f64 in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Public clock/stream hook: one 64-bit draw from the deterministic
/// per-stream sequence the fault engine itself uses (SplitMix64 finalizer
/// over `(seed, stream, k)`). Pure function — schedulers layered on the
/// simulator (arrival processes, per-tenant mixes in `sgx-serve`) draw
/// from here so their randomness composes with fault schedules without
/// sharing state.
pub fn stream_draw(seed: u64, stream: u64, k: u64) -> u64 {
    mix(seed, stream, k)
}

/// [`stream_draw`] mapped to a uniform f64 in `[0, 1)`.
pub fn stream_unit(seed: u64, stream: u64, k: u64) -> f64 {
    unit(mix(seed, stream, k))
}

/// Total simulated cost of one OCALL that needed `retries` redo round
/// trips: the initial crossing pair, one more pair per retry, plus the
/// capped exponential backoff waits. Public so service schedulers can
/// price boundary crossings with the exact machine formula.
pub fn ocall_cost(retries: u32, transition_cycles: f64, backoff_cycles: f64) -> f64 {
    let mut cost = 2.0 * transition_cycles;
    for attempt in 0..retries {
        cost += 2.0 * transition_cycles;
        // Shift-safe under overflow checks: the exponent is clamped to
        // MAX_BACKOFF_EXP (6), far below u64's 64-bit shift limit, for any
        // `retries` value.
        cost += backoff_cycles * (1u64 << attempt.min(MAX_BACKOFF_EXP)) as f64;
    }
    cost
}

/// Live fault-injection state attached to a [`crate::Machine`].
#[derive(Debug, Clone)]
pub(crate) struct FaultEngine {
    profile: FaultProfile,
    /// Per-core local-clock threshold of the next interrupt.
    next_interrupt: Vec<f64>,
    /// Per-core count of interrupts already scheduled (jitter stream index).
    interrupt_draws: Vec<u64>,
    /// Machine-wide OCALL attempt counter (failure stream index).
    ocall_draws: u64,
    /// Whether the EPC balloon has already inflated.
    ballooned: bool,
    trace: Vec<FaultEvent>,
}

impl FaultEngine {
    pub(crate) fn new(profile: FaultProfile, n_cores: usize) -> FaultEngine {
        let mut engine = FaultEngine {
            next_interrupt: vec![f64::INFINITY; n_cores],
            interrupt_draws: vec![0; n_cores],
            ocall_draws: 0,
            ballooned: false,
            trace: Vec::new(),
            profile,
        };
        if engine.profile.aex.is_some() {
            for core in 0..n_cores {
                engine.next_interrupt[core] = engine.next_gap(core);
            }
        }
        engine
    }

    pub(crate) fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    pub(crate) fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Jittered gap to the next interrupt on `core` (consumes one draw).
    fn next_gap(&mut self, core: usize) -> f64 {
        let Some(aex) = self.profile.aex else { return f64::INFINITY };
        let k = self.interrupt_draws[core];
        self.interrupt_draws[core] += 1;
        // `<<` binds tighter than `^`, so this already shifted the core id
        // before XORing; parenthesized to make that explicit. The constant
        // 32-bit shift on a u64 can never trip the shift-width check.
        let u = unit(mix(self.profile.seed, STREAM_AEX ^ ((core as u64) << 32), k));
        aex.mean_interval_cycles * (0.5 + u)
    }

    /// Is an interrupt due on `core` at local clock `clock`?
    pub(crate) fn interrupt_due(&self, core: usize, clock: f64) -> bool {
        clock >= self.next_interrupt[core]
    }

    /// Record an applied interrupt and schedule the next one *after* the
    /// handler finished (`resume`): interrupts are masked while one is
    /// being serviced, which also guarantees forward progress when the
    /// event cost exceeds the mean interval.
    pub(crate) fn interrupt_fired(&mut self, core: usize, at: f64, resume: f64) {
        self.record(FaultEvent { kind: FaultKind::Interrupt { core }, at_cycles: at });
        let gap = self.next_gap(core);
        self.next_interrupt[core] = resume + gap;
    }

    /// Returns the balloon's residency exactly once, when pressure is
    /// configured and `clock` has crossed the threshold.
    pub(crate) fn poll_balloon(&mut self, clock: f64) -> Option<usize> {
        let pressure = self.profile.epc_pressure?;
        if self.ballooned || clock < pressure.after_cycles {
            return None;
        }
        self.ballooned = true;
        self.record(FaultEvent { kind: FaultKind::EpcBalloon, at_cycles: clock });
        Some(pressure.resident_bytes)
    }

    /// Decide how many transient failures the next OCALL suffers (0 when
    /// no OCALL faults are configured). Consumes one draw per attempt so
    /// the stream position — and with it every later decision — is a pure
    /// function of the number of OCALLs issued so far.
    pub(crate) fn plan_ocall(&mut self, at: f64) -> u32 {
        let Some(ocall) = self.profile.ocall else { return 0 };
        let mut retries = 0u32;
        while retries < ocall.max_retries {
            let draw = mix(self.profile.seed, STREAM_OCALL, self.ocall_draws);
            self.ocall_draws += 1;
            if unit(draw) >= ocall.failure_prob {
                return retries;
            }
            retries += 1;
            self.record(FaultEvent { kind: FaultKind::OcallRetry { attempt: retries }, at_cycles: at });
        }
        // The final (forced-through) attempt still consumes a draw so the
        // stream advances uniformly per attempt.
        self.ocall_draws += 1;
        retries
    }

    fn record(&mut self, e: FaultEvent) {
        if self.trace.len() < MAX_TRACE_EVENTS {
            self.trace.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::scaled_profile;
    use crate::{Machine, Setting};

    fn storm(seed: u64) -> FaultProfile {
        FaultProfile::new(seed)
            .with_aex_storm(30_000.0)
            .with_ocall_faults(0.5, 3, 4_000.0)
    }

    /// A fixed random-access workload that exercises charged accesses,
    /// streams, and OCALLs.
    fn workload(m: &mut Machine) -> f64 {
        let mut v = m.alloc::<u64>(1 << 16);
        m.ecall();
        m.run(|c| {
            let mut x = 1u64;
            for _ in 0..60_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let i = (x >> 33) as usize % (1 << 16);
                v.rmw(c, i, |e| *e += 1);
            }
        });
        for _ in 0..16 {
            m.ocall();
        }
        m.wall_cycles()
    }

    #[test]
    fn identical_seeds_replay_identical_traces_and_counters() {
        let run = || {
            let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
            m.install_faults(storm(42));
            let wall = workload(&mut m);
            (wall.to_bits(), m.fault_trace().to_vec(), m.counters().clone())
        };
        let (w1, t1, c1) = run();
        let (w2, t2, c2) = run();
        assert_eq!(w1, w2);
        assert_eq!(t1, t2);
        assert_eq!(c1.aex_events, c2.aex_events);
        assert_eq!(c1.ocall_retries, c2.ocall_retries);
        assert_eq!(c1.transitions, c2.transitions);
        assert!(!t1.is_empty(), "storm workload must record events");
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
            m.install_faults(storm(seed));
            workload(&mut m);
            m.fault_trace().to_vec()
        };
        let a = run(1);
        let b = run(2);
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(a, b, "fault schedules must depend on the seed");
    }

    #[test]
    fn empty_profile_is_a_no_op() {
        let base = {
            let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
            workload(&mut m)
        };
        let with_empty = {
            let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
            m.install_faults(FaultProfile::new(7));
            workload(&mut m)
        };
        assert_eq!(base.to_bits(), with_empty.to_bits());
    }

    #[test]
    fn aex_storm_charges_transitions_and_hits_enclave_harder() {
        let run = |setting: Setting, with_faults: bool| {
            let mut m = Machine::new(scaled_profile(), setting);
            if with_faults {
                m.install_faults(FaultProfile::new(9).with_aex_storm(25_000.0));
            }
            let wall = workload(&mut m);
            (wall, m.counters().clone())
        };
        let (encl_calm, _) = run(Setting::SgxDataInEnclave, false);
        let (encl_storm, c) = run(Setting::SgxDataInEnclave, true);
        let (native_calm, cn) = run(Setting::PlainCpu, false);
        let (native_storm, _) = run(Setting::PlainCpu, true);
        assert!(c.aex_events > 0, "storm must deliver AEX events");
        assert_eq!(cn.aex_events, 0, "aex_events counts enclave exits only");
        // Each AEX charges a full round trip into `transitions`.
        assert!(c.transitions >= 2 * c.aex_events);
        let encl_slow = encl_storm / encl_calm;
        let native_slow = native_storm / native_calm;
        assert!(
            encl_slow > 1.5 * native_slow,
            "the same interrupt rate must hit the enclave far harder: \
             enclave {encl_slow:.2}x vs native {native_slow:.2}x"
        );
        // Attribution: the enclave wall grows at least by the pure
        // transition charge of the delivered AEX events.
        let min_charge = c.aex_events as f64 * 2.0 * 10_000.0;
        assert!(encl_storm - encl_calm >= 0.9 * min_charge);
    }

    #[test]
    fn epc_balloon_routes_overflow_through_the_pager() {
        let run = |with_pressure: bool| {
            let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
            if with_pressure {
                // Inflate almost immediately; residency far below the
                // 8 MB working set.
                m.install_faults(FaultProfile::new(3).with_epc_pressure(1_000.0, 256 * 1024));
            }
            let wall = workload(&mut m);
            (wall, m.counters().epc_page_faults, m.fault_trace().to_vec())
        };
        let (calm, calm_faults, _) = run(false);
        let (pressured, faults, trace) = run(true);
        assert_eq!(calm_faults, 0);
        assert!(faults > 0, "shrunken EPC must page");
        assert!(pressured > calm, "paging must cost wall time");
        assert!(
            trace.iter().any(|e| e.kind == FaultKind::EpcBalloon),
            "balloon inflation must be recorded"
        );
    }

    #[test]
    fn ocall_retries_are_bounded_and_counted() {
        let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
        m.install_faults(FaultProfile::new(11).with_ocall_faults(0.6, 3, 2_000.0));
        let before = m.wall_cycles();
        let mut total = 0u64;
        for _ in 0..64 {
            let r = m.ocall();
            assert!(r <= 3, "retries must respect the bound");
            total += r as u64;
        }
        assert!(total > 0, "p=0.6 over 64 calls must retry");
        assert_eq!(m.counters().ocall_retries, total);
        // Every crossing pair is accounted: 64 base calls + retries.
        assert_eq!(m.counters().transitions, 2 * (64 + total));
        assert!(m.wall_cycles() > before);
        // Natively an OCALL is an uninstrumented host call.
        let mut n = Machine::new(scaled_profile(), Setting::PlainCpu);
        n.install_faults(FaultProfile::new(11).with_ocall_faults(0.6, 3, 2_000.0));
        assert_eq!(n.ocall(), 0);
        assert_eq!(n.counters().ocall_retries, 0);
    }

    #[test]
    fn ocall_cost_grows_with_retries() {
        let base = ocall_cost(0, 10_000.0, 1_000.0);
        let one = ocall_cost(1, 10_000.0, 1_000.0);
        let two = ocall_cost(2, 10_000.0, 1_000.0);
        assert_eq!(base, 20_000.0);
        assert_eq!(one, 41_000.0);
        assert_eq!(two, 63_000.0);
    }

    #[test]
    fn backoff_schedule_is_bounded_exponential() {
        let of = OcallFaults { failure_prob: 1.0, max_retries: 32, backoff_cycles: 100.0 };
        // Doubles per attempt, then saturates at 2^MAX_BACKOFF_EXP = 64x.
        let expected = [100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0, 6_400.0];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(of.backoff_wait(i as u32 + 1), want, "attempt {}", i + 1);
        }
        for attempt in 8..40 {
            assert_eq!(of.backoff_wait(attempt), 6_400.0, "cap must hold at attempt {attempt}");
        }
        // The closed-form cost is the sum of crossing pairs plus exactly
        // these waits: each extra retry adds one round trip + one wait.
        let t = 10_000.0;
        for retries in 1..=12u32 {
            let delta = of.call_cost(retries, t) - of.call_cost(retries - 1, t);
            assert_eq!(delta, 2.0 * t + of.backoff_wait(retries));
        }
    }

    #[test]
    fn certain_failure_always_hits_the_retry_bound() {
        let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
        m.install_faults(FaultProfile::new(5).with_ocall_faults(1.0, 5, 1_000.0));
        for _ in 0..16 {
            assert_eq!(m.ocall(), 5, "p=1.0 must exhaust the bound on every call");
        }
        assert_eq!(m.counters().ocall_retries, 16 * 5);
        assert_eq!(m.counters().transitions, 2 * (16 + 16 * 5));
    }

    #[test]
    fn draw_retries_replays_the_engine_schedule() {
        // The public hook must reproduce the machine's own plan: same seed,
        // same stream, cursor advancing by retries+1 per call.
        let profile = FaultProfile::new(11).with_ocall_faults(0.6, 3, 2_000.0);
        let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
        m.install_faults(profile.clone());
        let engine: Vec<u32> = (0..64).map(|_| m.ocall()).collect();
        let of = profile.ocall.unwrap_or(OcallFaults {
            failure_prob: 0.0,
            max_retries: 0,
            backoff_cycles: 0.0,
        });
        let mut k = 0u64;
        let replayed: Vec<u32> = (0..64)
            .map(|_| {
                let r = of.draw_retries(profile.seed, STREAM_OCALL, k);
                k += r as u64 + 1;
                r
            })
            .collect();
        assert_eq!(engine, replayed);
        assert!(replayed.iter().any(|&r| r > 0), "p=0.6 must produce retries");
    }

    #[test]
    fn fault_trace_is_byte_deterministic_for_one_profile_and_seed() {
        // Two runs with the same (profile, seed) must render the identical
        // byte sequence — the trace is part of the reproducibility surface.
        let run = || {
            let mut m = Machine::new(scaled_profile(), Setting::SgxDataInEnclave);
            m.install_faults(storm(0xD15EA5E));
            workload(&mut m);
            format!("{:?}", m.fault_trace())
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty() && a.contains("Interrupt"));
        assert_eq!(a.as_bytes(), b.as_bytes(), "trace bytes must replay exactly");
    }
}
