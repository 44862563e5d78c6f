//! Per-class plan costs the scheduler prices work with.
//!
//! The DES never invents service times: a [`CostTable`] is calibrated by
//! running the real plans ([`sgx_tpch::run_query`]) on a real
//! [`sgx_sim::Machine`] under the stress point being studied and keeping
//! their per-operator cycles ([`sgx_tpch::QueryStats::ops`]), so every
//! cycle here was charged through the simulator's commit choke point.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_looks_up_classes_and_sums_their_steps() {
        let mut t = CostTable::new();
        assert_eq!(t.mean_total(PlanVariant::Normal), 0.0);
        let cost = |steps: &[u64]| PlanCost {
            normal_steps: steps.to_vec(),
            degraded_steps: steps.iter().map(|s| s * 3 / 4).collect(),
            estimate: steps.iter().sum(),
        };
        t.insert(Query::Q12, cost(&[80, 190, 240]));
        t.insert(Query::Q3, cost(&[40, 110, 220, 60]));
        assert_eq!(t.classes().collect::<Vec<_>>(), [Query::Q3, Query::Q12]);
        assert!(t.get(Query::Q10).is_none());
        let q12 = t.get(Query::Q12).expect("class present");
        assert_eq!(q12.total(PlanVariant::Normal), 510);
        assert_eq!(q12.total(PlanVariant::Degraded), 60 + 142 + 180);
        assert_eq!(q12.steps(PlanVariant::Degraded).len(), q12.normal_steps.len());
        assert_eq!(t.mean_total(PlanVariant::Normal), (510 + 430) as f64 / 2.0);
        assert!(t.mean_total(PlanVariant::Normal) > t.mean_total(PlanVariant::Degraded));
    }
}
