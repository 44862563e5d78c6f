//! Pointer-chasing micro-benchmark (pmbw's `PermutationWalk64`), used by
//! the paper to measure worst-case random *read* latency (§4.1, Fig 5).
//!
//! An array of pointers forms one random cycle, so every load depends on
//! the previous one — out-of-order execution cannot overlap the misses.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sgx_sim::{HwConfig, Machine, Setting, SimVec};

/// Result of one pointer-chase run.
#[derive(Debug, Clone, Copy)]
pub struct ChaseResult {
    /// Total simulated cycles.
    pub cycles: f64,
    /// Chase steps executed.
    pub steps: u64,
}

impl ChaseResult {
    /// Average latency per dependent load.
    pub fn cycles_per_step(&self) -> f64 {
        self.cycles / self.steps as f64
    }
}

/// Fill `v` with a single random cycle over all its slots (Sattolo's
/// algorithm), so a chase visits every element exactly once per lap. The
/// swaps run in place on `v`, so setup needs no second array.
pub fn build_cycle(v: &mut SimVec<u64>, seed: u64) {
    let n = v.len();
    for i in 0..n {
        v.poke(i, i as u64);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Sattolo: single-cycle permutation.
    for i in (1..n).rev() {
        let j = rng.random_range(0..i);
        let (vi, vj) = (v.peek(i), v.peek(j));
        v.poke(i, vj);
        v.poke(j, vi);
    }
}

/// Run a pointer chase of `steps` dependent loads over an array of
/// `array_bytes` in the given setting.
pub fn pointer_chase(
    cfg: HwConfig,
    setting: Setting,
    array_bytes: usize,
    steps: u64,
    seed: u64,
) -> ChaseResult {
    let n = (array_bytes / 8).max(2);
    let mut machine = Machine::new(cfg, setting);
    let mut v = machine.alloc::<u64>(n);
    build_cycle(&mut v, seed);
    // Warm-up lap (untimed), as pmbw's repeated runs do: the measurement
    // should reflect the steady state, not first-touch fills. For arrays
    // far beyond cache capacity a bounded prefix suffices (every timed
    // access misses regardless).
    let warmup = n.min(2_000_000);
    let start = machine.run(|c| {
        c.dependent(|c| {
            let mut idx = 0usize;
            for _ in 0..warmup {
                idx = v.get(c, idx) as usize;
            }
            idx
        })
    });
    machine.reset_wall();
    machine.run(|c| {
        c.dependent(|c| {
            let mut idx = start;
            for _ in 0..steps {
                idx = v.get(c, idx) as usize;
            }
            // The chain result must be used, like pmbw's assembly does.
            c.compute(1);
            assert!(idx < v.len());
        });
    });
    ChaseResult { cycles: machine.wall_cycles(), steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;

    #[test]
    fn cycle_is_a_single_cycle() {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let mut v = m.alloc::<u64>(1024);
        build_cycle(&mut v, 42);
        let mut seen = vec![false; 1024];
        let mut idx = 0usize;
        for _ in 0..1024 {
            assert!(!seen[idx], "cycle revisited {idx} early");
            seen[idx] = true;
            idx = v.peek(idx) as usize;
        }
        assert_eq!(idx, 0, "walk must return to the start");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn in_place_cycle_matches_the_permutation_construction() {
        // Reference: the same swaps on a host Vec, copied in afterwards.
        fn via_perm(n: usize, seed: u64) -> Vec<u64> {
            let mut perm: Vec<u64> = (0..n as u64).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                let j = rng.random_range(0..i);
                perm.swap(i, j);
            }
            perm
        }
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        for n in [1, 2, 3, 17, 1024, 4099] {
            for seed in [0, 1, 42, 0xC0FFEE] {
                let mut v = m.alloc::<u64>(n);
                build_cycle(&mut v, seed);
                let got: Vec<u64> = (0..n).map(|i| v.peek(i)).collect();
                assert_eq!(got, via_perm(n, seed), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn in_cache_chase_has_no_sgx_penalty() {
        // 16 KB fits every cache level of the scaled profile's L2.
        let native = pointer_chase(scaled_profile(), Setting::PlainCpu, 16 << 10, 50_000, 1);
        let sgx = pointer_chase(scaled_profile(), Setting::SgxDataInEnclave, 16 << 10, 50_000, 1);
        let rel = native.cycles / sgx.cycles;
        assert!(rel > 0.9, "in-cache chase should be near parity, got {rel:.2}");
    }

    #[test]
    fn dram_chase_is_much_slower_in_enclave() {
        // 8 MB >> scaled L3 (1.5 MB).
        let native = pointer_chase(scaled_profile(), Setting::PlainCpu, 8 << 20, 50_000, 1);
        let sgx = pointer_chase(scaled_profile(), Setting::SgxDataInEnclave, 8 << 20, 50_000, 1);
        let rel = sgx.cycles / native.cycles;
        assert!(rel > 1.4, "MEE fill latency should show, got {rel:.2}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = pointer_chase(scaled_profile(), Setting::SgxDataInEnclave, 1 << 20, 10_000, 7);
        let b = pointer_chase(scaled_profile(), Setting::SgxDataInEnclave, 1 << 20, 10_000, 7);
        assert_eq!(a.cycles, b.cycles);
    }
}
