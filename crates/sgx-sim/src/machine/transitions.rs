//! Transition layer: ECALL/OCALL round trips and enclave boundary
//! crossings. Asynchronous exits (AEX) are delivered by the fault tick,
//! which lives next to `commit` in the core layer.

use crate::faults::ocall_cost;
use crate::mem::ExecMode;
use crate::profile::CostCategory;

use super::core::{Charge, Tally};
use super::{Core, Machine};

impl Machine {
    /// Charge an enclave entry/exit pair to the wall clock (no-op in native
    /// mode), e.g. the ECALL that launches a query.
    pub fn ecall(&mut self) {
        if self.mode == ExecMode::Enclave {
            let cost = 2.0 * self.cfg.transitions.transition_cycles;
            self.wall.transition(cost);
            self.counters.transitions += 2;
            self.prof_record(CostCategory::Transition, cost);
        }
    }

    /// Perform one OCALL round trip on the wall clock: the exit/re-entry
    /// pair, plus deterministic transient-failure retries with bounded
    /// exponential backoff (in simulated cycles) when an OCALL fault
    /// profile is installed. Returns the number of retries, also summed
    /// into `Counters::ocall_retries`. Native mode is a plain host call:
    /// free and infallible here.
    pub fn ocall(&mut self) -> u32 {
        if self.mode != ExecMode::Enclave {
            return 0;
        }
        let (retries, cost) = self.plan_ocall(self.wall_cycles());
        self.wall.transition(cost);
        self.counters.transitions += 2 * (1 + retries as u64);
        self.counters.ocall_retries += retries as u64;
        self.prof_record(CostCategory::Transition, cost);
        retries
    }

    /// The retries of one OCALL made at clock `at`, drawn by the fault
    /// engine (none without OCALL faults), and the OCALL's cost.
    fn plan_ocall(&mut self, at: f64) -> (u32, f64) {
        let (retries, backoff) = match &mut self.faults {
            Some(engine) => {
                (engine.plan_ocall(at), engine.profile().ocall.map_or(0.0, |o| o.backoff_cycles))
            }
            None => (0, 0.0),
        };
        (retries, ocall_cost(retries, self.cfg.transitions.transition_cycles, backoff))
    }
}

impl<'m> Core<'m> {
    /// Perform one OCALL round trip from this core, charging the worker's
    /// cycle clock instead of the machine wall clock; otherwise identical
    /// to [`Machine::ocall`] (deterministic transient failures, bounded
    /// backoff, `ocall_retries` accounting).
    pub fn ocall(&mut self) -> u32 {
        if self.m.mode != ExecMode::Enclave {
            return 0;
        }
        let at = self.local_clock();
        let (retries, cycles) = self.m.plan_ocall(at);
        self.commit(Charge {
            cycles,
            tally: Tally::Ocall {
                transitions: 2 * (1 + retries as u64),
                retries: retries as u64,
            },
        });
        retries
    }

    /// Charge one enclave boundary crossing (no-op natively).
    pub fn transition(&mut self) {
        if self.m.mode == ExecMode::Enclave {
            self.commit(Charge {
                cycles: self.m.cfg.transitions.transition_cycles,
                tally: Tally::Transitions(1),
            });
        }
    }
}
