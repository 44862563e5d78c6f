//! INL — Index Nested Loop join (TEEBench \[24\]).
//!
//! Probes an *existing* B+-tree index on the build relation once per probe
//! row. Index construction is untimed (the paper: "uses an existing B-Tree
//! index"), matching TEEBench's setup. The probe pattern — a dependent
//! pointer chase through the tree per row — explains INL's behaviour in
//! Fig 3: slow in absolute terms, but with a comparatively small enclave
//! penalty because only the leaf levels fall out of cache.

use crate::common::{JoinConfig, JoinStats, Row};
use crate::pht::chunk_range;
use sgx_index::{BPlusTree, IndexRow};
use sgx_sim::{Machine, SimVec};

/// Build the (untimed) index over `r`, then probe it with every row of
/// `s`.
pub fn inl_join(
    machine: &mut Machine,
    r: &SimVec<Row>,
    s: &SimVec<Row>,
    cfg: &JoinConfig,
) -> JoinStats {
    // Untimed setup: sort R and bulk-load the tree, as if the index
    // already existed before the query.
    #[expect(
        clippy::disallowed_methods,
        reason = "untimed setup: bulk_load builds the index the measured query finds in place"
    )]
    let mut indexed: Vec<IndexRow> = r
        .as_slice_untracked()
        .iter()
        .map(|row| IndexRow { key: row.key, payload: row.payload })
        .collect();
    indexed.sort_unstable_by_key(|r| r.key);
    let tree = BPlusTree::bulk_load(machine, &indexed);

    let t = cfg.cores.len();
    let mut matches = 0u64;
    let mut checksum = 0u64;
    let start = machine.wall_cycles();
    let probe = machine.parallel(&cfg.cores, |c| {
        let range = chunk_range(s.len(), t, c.worker());
        s.read_stream(c, range, |c, _, srow| {
            c.compute(2);
            tree.for_each_match(c, srow.key, |r_payload| {
                matches += 1;
                checksum += r_payload as u64 + srow.payload as u64;
                true
            });
        });
    });

    JoinStats {
        matches,
        checksum,
        wall_cycles: machine.wall_cycles() - start,
        phases: vec![("probe", probe.wall_cycles)],
        output: None,
        output_runs: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gen_fk_relation, gen_pk_relation, reference_join};
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn join_correct(threads: usize, nr: usize, ns: usize) {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, nr, 1);
        let s = gen_fk_relation(&mut m, ns, nr, 2);
        let stats = inl_join(&mut m, &r, &s, &JoinConfig::new(threads));
        let (m_ref, c_ref) = reference_join(&r, &s);
        assert_eq!(stats.matches, m_ref);
        assert_eq!(stats.checksum, c_ref);
    }

    #[test]
    fn correct_single_and_multi_thread() {
        join_correct(1, 3000, 12_000);
        join_correct(8, 3000, 12_000);
    }

    #[test]
    fn correct_with_duplicate_index_keys() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut r = m.alloc::<Row>(100);
        for i in 0..100 {
            r.poke(i, Row { key: (i % 10 + 1) as u32, payload: i as u32 });
        }
        let s = gen_fk_relation(&mut m, 500, 10, 3);
        let stats = inl_join(&mut m, &r, &s, &JoinConfig::new(4));
        let (m_ref, c_ref) = reference_join(&r, &s);
        assert_eq!(stats.matches, m_ref);
        assert_eq!(stats.checksum, c_ref);
    }

    #[test]
    fn probe_cost_dominated_by_dependent_chains() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 100_000, 1);
        let s = gen_fk_relation(&mut m, 10_000, 100_000, 2);
        let stats = inl_join(&mut m, &r, &s, &JoinConfig::new(1));
        // Each probe descends ≥3 levels; leaves miss cache.
        assert!(stats.wall_cycles / 10_000.0 > 100.0);
    }

    #[test]
    fn empty_probe() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let r = gen_pk_relation(&mut m, 100, 1);
        let s = m.alloc::<Row>(0);
        assert_eq!(inl_join(&mut m, &r, &s, &JoinConfig::new(2)).matches, 0);
    }
}
