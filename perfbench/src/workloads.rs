//! The two workloads: a partition of the 27 `all_figures` registry jobs
//! by the simulator layer that does most of their work.

/// One benchmark workload: a named subset of the figure registry.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Registry job ids, in registry order.
    pub jobs: &'static [&'static str],
}

/// Every workload; together their job lists cover the registry exactly once.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        // Per-access random path: cache lookup, hierarchy/TLB walk,
        // EPC/MEE, one `Core::commit` per access.
        name: "figures-random",
        jobs: &[
            "fig01",
            "fig03",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "ablation_sgxv1",
            "ext_skew",
            "ext_aggregation",
            "ablation_swwcb",
            "ablation_radix_bits",
        ],
    },
    Workload {
        // Stream path, with and without a fault engine: millions of streamed
        // loads per job. In table1, fig17, ext_aex_storm and
        // ext_service_tail every machine has a fault engine, so each commit
        // ticks it and every stream takes the per-line path; TPC-H plans,
        // calibration and the service DES run only there.
        name: "figures-stream",
        jobs: &[
            "table1",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "ext_dual_socket",
            "ext_packed",
            "ext_aex_storm",
            "ext_service_tail",
            "ext_storage_path",
        ],
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_bench_core::runner::registry;

    #[test]
    fn workloads_partition_the_registry() {
        let mut listed: Vec<&str> = WORKLOADS
            .iter()
            .flat_map(|w| w.jobs.iter().copied())
            .collect();
        let registered: Vec<&str> = registry().iter().map(|j| j.id).collect();
        assert_eq!(
            listed.len(),
            registered.len(),
            "every job in exactly one workload"
        );
        listed.sort_unstable();
        let mut sorted = registered.clone();
        sorted.sort_unstable();
        assert_eq!(listed, sorted);
    }

    #[test]
    fn job_lists_follow_registry_order() {
        let order: Vec<&str> = registry().iter().map(|j| j.id).collect();
        for w in WORKLOADS {
            let pos: Vec<usize> = w
                .jobs
                .iter()
                .map(|id| order.iter().position(|o| o == id).expect("known id"))
                .collect();
            assert!(
                pos.windows(2).all(|p| p[0] < p[1]),
                "{} out of registry order",
                w.name
            );
        }
    }
}
