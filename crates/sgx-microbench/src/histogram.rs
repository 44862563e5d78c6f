//! Radix-histogram micro-benchmark (§4.2, Fig 7 and Listings 1/2).
//!
//! The kernel scans a table of keys and counts how many fall into each
//! radix bin — the first phase of every radix join. The paper found this
//! loop 225 % slower inside an enclave *regardless of data location*, and
//! repaired it with manual 8× unrolling that computes all indexes before
//! issuing the increments (plus an AVX variant unrolling 32×).
//!
//! [`count_bins`] is that counting loop, naive or unrolled, for any
//! element and counter type. Besides [`histogram_kernel`], RHO's
//! partitioning histograms and sgx-tpch's grouped aggregations count
//! through it, so the §4.2 penalty and its repair are one piece of code.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sgx_sim::{Core, HwConfig, Machine, Setting, SimVec, Unroll};
use std::ops::AddAssign;

/// Which histogram kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKernel {
    /// Listing 1: index and increment interleaved per element.
    Naive,
    /// Listing 2: 8 indexes computed, then 8 increments issued.
    Unrolled8,
    /// AVX-512 variant: 32 indexes gathered into vector registers, then 32
    /// increments issued.
    Simd32,
}

impl HistKernel {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            HistKernel::Naive => "naive",
            HistKernel::Unrolled8 => "unrolled x8",
            HistKernel::Simd32 => "SIMD x32",
        }
    }
}

/// Result of one histogram run.
#[derive(Debug, Clone)]
pub struct HistResult {
    /// Total simulated cycles.
    pub cycles: f64,
    /// Keys processed.
    pub keys: u64,
    /// The computed histogram (for correctness checks).
    pub histogram: Vec<u32>,
}

/// The §4.2 counting loop over `src[range]`: per element, `ops` ALU
/// operations, then `bin` (which may charge work of its own) names a bin
/// of `hist` and an increment, then a charged read-modify-write adds the
/// increment to the bin. Naive, each update directly follows its load
/// (Listing 1); `unrolled`, every 8 updates, and the remainder, go out
/// as one issue group (Listing 2).
pub fn count_bins<T: Copy, C: Copy + Default + AddAssign>(
    core: &mut Core<'_>,
    src: &SimVec<T>,
    range: std::ops::Range<usize>,
    hist: &mut SimVec<C>,
    ops: u64,
    unrolled: bool,
    mut bin: impl FnMut(&mut Core<'_>, T) -> (usize, C),
) {
    if unrolled {
        let mut issue = |c: &mut Core<'_>, updates: &[(usize, C)]| {
            c.group(|c| {
                for &(b, inc) in updates {
                    hist.rmw(c, b, |e| *e += inc);
                }
            });
        };
        let mut batch = Unroll::<(usize, C), 8>::default();
        src.read_stream(core, range, |c, _, x| {
            c.compute(ops);
            let update = bin(c, x);
            batch.push(c, update, &mut issue);
        });
        issue(core, batch.rest());
    } else {
        src.read_stream(core, range, |c, _, x| {
            c.compute(ops);
            let (b, inc) = bin(c, x);
            hist.rmw(c, b, |e| *e += inc);
        });
    }
}

/// Build the histogram of `(key & mask) >> shift` over `keys` into `hist`,
/// charging the chosen kernel's cost shape.
pub fn histogram_kernel(
    core: &mut Core<'_>,
    keys: &SimVec<u64>,
    range: std::ops::Range<usize>,
    hist: &mut SimVec<u32>,
    mask: u64,
    shift: u32,
    kernel: HistKernel,
) {
    let bin = |k: u64| ((k & mask) >> shift) as usize;
    match kernel {
        // Mask, shift, and the increment's address arithmetic.
        HistKernel::Naive | HistKernel::Unrolled8 => {
            count_bins(core, keys, range, hist, 3, kernel == HistKernel::Unrolled8, |_, k| {
                (bin(k), 1)
            });
        }
        HistKernel::Simd32 => {
            let mut issue = |c: &mut Core<'_>, idxs: &[usize]| {
                c.group(|c| {
                    for &idx in idxs {
                        hist.rmw(c, idx, |e| *e += 1);
                    }
                });
            };
            let mut batch = Unroll::<usize, 32>::default();
            keys.read_stream_vec(core, range, |c, _, vals| {
                // One AND + one shift vector op per 8 keys.
                c.vec_compute(2);
                for &k in vals {
                    batch.push(c, bin(k), &mut issue);
                }
            });
            issue(core, batch.rest());
        }
    }
}

/// Run the histogram micro-benchmark: `n_keys` random keys, `bins`
/// power-of-two bins, chosen kernel, one of the paper's three settings.
pub fn histogram_bench(
    cfg: HwConfig,
    setting: Setting,
    n_keys: usize,
    bins: usize,
    kernel: HistKernel,
    seed: u64,
) -> HistResult {
    assert!(bins.is_power_of_two(), "radix bins must be a power of two");
    let mut machine = Machine::new(cfg, setting);
    let mut keys = machine.alloc::<u64>(n_keys);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n_keys {
        keys.poke(i, rng.random::<u64>());
    }
    let mut hist = machine.alloc::<u32>(bins);
    let mask = (bins - 1) as u64;
    machine.run(|c| {
        histogram_kernel(c, &keys, 0..n_keys, &mut hist, mask, 0, kernel);
    });
    #[expect(
        clippy::disallowed_methods,
        reason = "result extraction after the timed region closed"
    )]
    let histogram = hist.as_slice_untracked().to_vec();
    HistResult { cycles: machine.wall_cycles(), keys: n_keys as u64, histogram }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;

    #[test]
    fn all_kernels_compute_the_same_histogram() {
        let naive = histogram_bench(scaled_profile(), Setting::PlainCpu, 10_000, 256, HistKernel::Naive, 9);
        let unrolled =
            histogram_bench(scaled_profile(), Setting::PlainCpu, 10_000, 256, HistKernel::Unrolled8, 9);
        let simd =
            histogram_bench(scaled_profile(), Setting::PlainCpu, 10_000, 256, HistKernel::Simd32, 9);
        assert_eq!(naive.histogram, unrolled.histogram);
        assert_eq!(naive.histogram, simd.histogram);
        assert_eq!(naive.histogram.iter().map(|&c| c as u64).sum::<u64>(), 10_000);
    }

    #[test]
    fn naive_kernel_suffers_in_enclave_unrolled_recovers() {
        let run = |setting, kernel| {
            histogram_bench(scaled_profile(), setting, 100_000, 1024, kernel, 5).cycles
        };
        let native = run(Setting::PlainCpu, HistKernel::Naive);
        let enclave_naive = run(Setting::SgxDataInEnclave, HistKernel::Naive);
        let enclave_unrolled = run(Setting::SgxDataInEnclave, HistKernel::Unrolled8);
        let enclave_simd = run(Setting::SgxDataInEnclave, HistKernel::Simd32);
        assert!(enclave_naive > 2.0 * native, "naive should collapse in enclave");
        assert!(enclave_unrolled < 0.6 * enclave_naive, "unrolling should recover");
        assert!(enclave_simd <= enclave_unrolled * 1.05, "SIMD at least as good");
    }

    #[test]
    fn unrolling_is_noise_natively() {
        let naive =
            histogram_bench(scaled_profile(), Setting::PlainCpu, 100_000, 1024, HistKernel::Naive, 5);
        let unrolled = histogram_bench(
            scaled_profile(),
            Setting::PlainCpu,
            100_000,
            1024,
            HistKernel::Unrolled8,
            5,
        );
        let rel = unrolled.cycles / naive.cycles;
        assert!((0.9..1.1).contains(&rel), "native unroll effect should be small, got {rel:.2}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_bins() {
        histogram_bench(scaled_profile(), Setting::PlainCpu, 10, 3, HistKernel::Naive, 1);
    }
}
