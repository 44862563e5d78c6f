//! Per-class plan costs the scheduler prices work with.
//!
//! The DES never invents service times: a [`CostTable`] is calibrated by
//! running the real plans ([`sgx_tpch::run_query`]) on a real
//! [`sgx_sim::Machine`] under the stress point being studied and keeping
//! their per-operator cycles ([`sgx_tpch::QueryStats::ops`]), so every
//! cycle here was charged through the simulator's commit choke point.
//! [`CostTable::synthetic`] exists for standalone tools and tests that
//! need plausible, fixed numbers without running a calibration.

use sgx_tpch::Query;
use std::collections::BTreeMap;

/// Which plan shape a query executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanVariant {
    /// The paper's baseline plan.
    Normal,
    /// The §4.2-optimized plan shape — result-identical, cheaper in the
    /// enclave; what the degradation policy downgrades to.
    Degraded,
}

/// Calibrated per-step service costs for one query class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCost {
    /// Cycles per operator step, normal variant (plan order).
    pub normal_steps: Vec<u64>,
    /// Cycles per operator step, degraded variant.
    pub degraded_steps: Vec<u64>,
    /// Admission-control estimate of total work (normal variant), in
    /// cycles. May be coarser than `normal_steps.sum()` when it comes
    /// from [`sgx_tpch::cost_estimate`] scaling rather than measurement.
    pub estimate: u64,
}

impl PlanCost {
    /// The step schedule for `variant`.
    pub fn steps(&self, variant: PlanVariant) -> &[u64] {
        match variant {
            PlanVariant::Normal => &self.normal_steps,
            PlanVariant::Degraded => &self.degraded_steps,
        }
    }

    /// Total fault-free service cycles for `variant`.
    pub fn total(&self, variant: PlanVariant) -> u64 {
        self.steps(variant).iter().sum()
    }
}

/// Per-class cost table (BTreeMap so iteration order is deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostTable {
    classes: BTreeMap<Query, PlanCost>,
}

impl CostTable {
    /// An empty table.
    pub fn new() -> CostTable {
        CostTable::default()
    }

    /// Insert (or replace) one class entry.
    pub fn insert(&mut self, q: Query, cost: PlanCost) {
        self.classes.insert(q, cost);
    }

    /// Look up one class.
    pub fn get(&self, q: Query) -> Option<&PlanCost> {
        self.classes.get(&q)
    }

    /// Classes present, in deterministic order.
    pub fn classes(&self) -> impl Iterator<Item = Query> + '_ {
        self.classes.keys().copied()
    }

    /// Mean fault-free total cost across classes for `variant` (load
    /// planning: pick arrival rates relative to capacity).
    pub fn mean_total(&self, variant: PlanVariant) -> f64 {
        if self.classes.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.classes.values().map(|c| c.total(variant)).sum();
        sum as f64 / self.classes.len() as f64
    }

    /// A fixed, plausible table for standalone tools: step counts match
    /// the real plans ([`sgx_tpch::Query::steps_total`]), costs are
    /// arbitrary-but-stable cycles scaled by `scale`, and the degraded
    /// variant is uniformly ~25% cheaper.
    pub fn synthetic(scale: u64) -> CostTable {
        let scale = scale.max(1);
        let mut t = CostTable::new();
        let base: [(Query, &[u64]); 4] = [
            (Query::Q3, &[40, 110, 220, 60, 170, 260, 140, 80, 30]),
            (Query::Q10, &[45, 90, 210, 55, 150, 280, 65, 20, 120, 95, 25]),
            (Query::Q12, &[80, 190, 240]),
            (Query::Q19, &[70, 160, 230, 90]),
        ];
        for (q, steps) in base {
            assert_eq!(steps.len(), q.steps_total());
            let normal: Vec<u64> = steps.iter().map(|s| s * scale * 1_000).collect();
            let degraded: Vec<u64> = normal.iter().map(|s| s * 3 / 4).collect();
            let estimate = normal.iter().sum();
            t.insert(q, PlanCost { normal_steps: normal, degraded_steps: degraded, estimate });
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_table_covers_all_classes_with_real_step_counts() {
        let t = CostTable::synthetic(2);
        let classes: Vec<Query> = t.classes().collect();
        assert_eq!(classes.len(), 4);
        for q in Query::all() {
            let c = t.get(q).expect("class present");
            assert_eq!(c.normal_steps.len(), q.steps_total());
            assert_eq!(c.degraded_steps.len(), c.normal_steps.len());
            assert!(c.total(PlanVariant::Degraded) < c.total(PlanVariant::Normal));
            assert!(c.estimate > 0);
        }
        assert!(t.mean_total(PlanVariant::Normal) > t.mean_total(PlanVariant::Degraded));
    }
}
