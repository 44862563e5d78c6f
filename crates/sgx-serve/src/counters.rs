//! Service-level robustness counters with exact conservation laws.
//!
//! Named `ServiceCounters` (not `Counters`) on purpose: the simulator's
//! machine counters flow through `Core::commit(Charge)` and are checked
//! by the existing conservation tests; these count *scheduler decisions*
//! (queries, not cycles) and carry their own conservation laws, checked
//! by [`ServiceCounters::reconcile`].

// The conservation laws need exact u64 totals: a narrowing cast would
// wrap one.
#![deny(clippy::cast_possible_truncation)]

/// Per-tenant (and, summed, global) service decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Queries submitted by sessions (before admission).
    pub submitted: u64,
    /// Queries accepted into a queue or dispatched directly.
    pub admitted: u64,
    /// Queries shed by admission control (queue full or deadline
    /// infeasible).
    pub rejected: u64,
    /// Queries that finished all plan steps within their deadline.
    pub completed: u64,
    /// Queries abandoned at a deadline — in the queue or mid-plan.
    pub timed_out: u64,
    /// Transient-fault step retries performed across all executed
    /// queries (bounded exponential backoff each).
    pub retries: u64,
    /// Queries dispatched with the degraded (cheaper) plan variant.
    pub degraded: u64,
}

impl ServiceCounters {
    /// Every counter as `(JSON name, value)`, in field order: the one
    /// list of the counters. The destructuring names every field, so a
    /// new counter does not compile (E0027) until it is listed here, and
    /// [`ServiceCounters::add`] and the reports follow from this list.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 7] {
        let ServiceCounters {
            submitted,
            admitted,
            rejected,
            completed,
            timed_out,
            retries,
            degraded,
        } = self;
        [
            ("submitted", submitted),
            ("admitted", admitted),
            ("rejected", rejected),
            ("completed", completed),
            ("timed_out", timed_out),
            ("retries", retries),
            ("degraded", degraded),
        ]
    }

    /// Every counter as `(JSON name, value)`, in field order. The JSON
    /// name is the field's name.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        let mut c = *self;
        c.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, other: &ServiceCounters) {
        for ((_, total), (_, v)) in self.fields_mut().into_iter().zip(other.fields()) {
            *total += v;
        }
    }

    /// Check this counter set's internal conservation laws (valid after
    /// a drained run): every submitted query was either admitted or
    /// rejected, and every admitted query either completed or timed out
    /// — nothing is lost, nothing is double-counted. The destructuring
    /// names every field, so a new counter does not compile until it is
    /// either checked here or waived with its reason.
    pub fn reconcile(&self) -> Result<(), String> {
        let ServiceCounters {
            submitted,
            admitted,
            rejected,
            completed,
            timed_out,
            // Retry attempts are informational (surfaced in the
            // tail-latency report), not conserved: retried work is
            // counted once at completion.
            retries: _,
            degraded,
        } = *self;
        if submitted != admitted + rejected {
            return Err(format!(
                "submitted {submitted} != admitted {admitted} + rejected {rejected}"
            ));
        }
        if admitted != completed + timed_out {
            return Err(format!(
                "admitted {admitted} != completed {completed} + timed_out {timed_out} (run not drained?)"
            ));
        }
        if degraded > admitted {
            return Err(format!("degraded {degraded} > admitted {admitted}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_accepts_conserved_counts() {
        let c = ServiceCounters {
            submitted: 10,
            admitted: 7,
            rejected: 3,
            completed: 5,
            timed_out: 2,
            retries: 4,
            degraded: 1,
        };
        assert!(c.reconcile().is_ok());
    }

    #[test]
    fn reconcile_rejects_lost_queries() {
        let mut c = ServiceCounters { submitted: 10, admitted: 7, rejected: 3, ..Default::default() };
        c.completed = 5;
        c.timed_out = 1; // one query vanished
        assert!(c.reconcile().is_err());
        c.timed_out = 2;
        assert!(c.reconcile().is_ok());
        c.rejected = 2; // now submission side is off
        assert!(c.reconcile().is_err());
    }

    #[test]
    fn add_is_elementwise() {
        let mut a = ServiceCounters { submitted: 1, retries: 2, ..Default::default() };
        let b = ServiceCounters { submitted: 3, retries: 5, degraded: 1, ..Default::default() };
        a.add(&b);
        assert_eq!(a.submitted, 4);
        assert_eq!(a.retries, 7);
        assert_eq!(a.degraded, 1);
    }
}
