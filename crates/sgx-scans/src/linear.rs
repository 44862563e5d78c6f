//! pmbw-style linear read/write kernels (§5.4, Fig 15).
//!
//! The paper extended pmbw with 512-bit AVX variants; reads and writes are
//! pure assembly loops over sequential addresses. Here the 64-bit variants
//! issue one scalar access per 8 bytes and the 512-bit variants one vector
//! access per cache line, which is what produces the paper's observation
//! that narrow reads suffer slightly more (−5.5 %) than wide ones (−3 %)
//! inside the enclave.

use crate::scan::ScanConfig;
use sgx_sim::{worker_range, Core, Machine, SimVec};

/// Access width of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// Scalar 64-bit loads/stores.
    Bits64,
    /// AVX-512 64-byte loads/stores.
    Bits512,
}

impl Width {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Width::Bits64 => "64-bit",
            Width::Bits512 => "512-bit",
        }
    }
}

/// Kernel configuration: the cores, measured passes and warm-up passes
/// of a column scan.
pub type LinearConfig = ScanConfig;

/// Linear read of the whole array, returning wall cycles of the measured
/// passes. The checksum of the final pass is computed for real (pmbw keeps
/// the loads live the same way).
pub fn linear_read(machine: &mut Machine, v: &SimVec<u64>, width: Width, cfg: &LinearConfig) -> f64 {
    let t = cfg.cores.len();
    let mut sink = 0u64;
    let pass = |machine: &mut Machine, sink: &mut u64| {
        machine.parallel(&cfg.cores, |c| {
            // Cache-line aligned: 8 u64 per line.
            let range = worker_range(v.len(), t, 8, c.worker());
            match width {
                Width::Bits64 => {
                    v.read_stream(c, range, |_, _, x| *sink = sink.wrapping_add(x));
                }
                Width::Bits512 => {
                    v.read_stream_vec(c, range, |c, _, vals| {
                        c.vec_compute(1);
                        for &x in vals {
                            *sink = sink.wrapping_add(x);
                        }
                    });
                }
            }
        });
    };
    for _ in 0..cfg.warmup {
        pass(machine, &mut sink);
    }
    machine.reset_wall();
    for _ in 0..cfg.repeats {
        pass(machine, &mut sink);
    }
    std::hint::black_box(sink);
    machine.wall_cycles()
}

/// Linear write of the whole array.
pub fn linear_write(
    machine: &mut Machine,
    v: &mut SimVec<u64>,
    width: Width,
    cfg: &LinearConfig,
) -> f64 {
    let t = cfg.cores.len();
    let mut pass = |machine: &mut Machine, val: u64| {
        machine.parallel(&cfg.cores, |c| {
            let range = worker_range(v.len(), t, 8, c.worker());
            match width {
                Width::Bits64 => v.fill(c, range, val),
                Width::Bits512 => write_stream_vec(c, v, range, val),
            }
        });
    };
    for i in 0..cfg.warmup {
        pass(machine, i as u64);
    }
    machine.reset_wall();
    for i in 0..cfg.repeats {
        pass(machine, 0xA5A5_0000 + i as u64);
    }
    machine.wall_cycles()
}

/// 512-bit streaming stores: one vector store per cache line.
fn write_stream_vec(c: &mut Core<'_>, v: &mut SimVec<u64>, range: std::ops::Range<usize>, val: u64) {
    let mut i = range.start;
    while i < range.end {
        let hi = (i + 8).min(range.end);
        c.stream_store_line(v.addr(i));
        for j in i..hi {
            v.poke(j, val);
        }
        i = hi;
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn machine(setting: Setting) -> Machine {
        Machine::new(scaled_profile(), setting)
    }

    #[test]
    fn writes_actually_write() {
        let mut m = machine(Setting::PlainCpu);
        let mut v = m.alloc::<u64>(10_000);
        linear_write(&mut m, &mut v, Width::Bits64, &LinearConfig::new(4));
        assert!(v.as_slice_untracked().iter().all(|&x| x == 0xA5A5_0000));
        linear_write(&mut m, &mut v, Width::Bits512, &LinearConfig::new(4).with_repeats(2));
        assert!(v.as_slice_untracked().iter().all(|&x| x == 0xA5A5_0001));
    }

    #[test]
    fn wide_reads_are_faster_than_narrow() {
        let mut m = machine(Setting::PlainCpu);
        let v = m.alloc::<u64>(1 << 20);
        let narrow = linear_read(&mut m, &v, Width::Bits64, &LinearConfig::new(1));
        let wide = linear_read(&mut m, &v, Width::Bits512, &LinearConfig::new(1));
        assert!(wide < narrow, "512-bit {wide} should beat 64-bit {narrow}");
    }

    #[test]
    fn enclave_overheads_match_fig15_shape() {
        // Fig 15: 64-bit reads lose the most (~5.5 %), 512-bit reads ~3 %,
        // writes ~2 %; everything stays single-digit.
        // 8 cores: per-core issue costs still matter (the width split);
        // the 16-core saturated case is covered by the Fig 15 harness,
        // where the MEE bus tax keeps a uniform few-percent gap.
        let overhead = |read: bool, width: Width| {
            let run = |setting: Setting| {
                let mut m = machine(setting);
                let mut v = m.alloc::<u64>(4 << 20); // 32 MB >> scaled L3
                let cfg = LinearConfig::new(8).with_warmup(1);
                if read {
                    linear_read(&mut m, &v, width, &cfg)
                } else {
                    linear_write(&mut m, &mut v, width, &cfg)
                }
            };
            run(Setting::SgxDataInEnclave) / run(Setting::PlainCpu) - 1.0
        };
        let r64 = overhead(true, Width::Bits64);
        let r512 = overhead(true, Width::Bits512);
        let w64 = overhead(false, Width::Bits64);
        let w512 = overhead(false, Width::Bits512);
        assert!((0.02..0.09).contains(&r64), "64-bit read overhead {r64:.3}");
        assert!((0.005..0.06).contains(&r512), "512-bit read overhead {r512:.3}");
        assert!(r512 < r64, "wide reads should suffer less: {r512:.3} vs {r64:.3}");
        assert!((0.0..0.045).contains(&w64), "64-bit write overhead {w64:.3}");
        assert!((0.0..0.045).contains(&w512), "512-bit write overhead {w512:.3}");
    }

    #[test]
    fn in_cache_kernels_at_parity() {
        let run = |setting: Setting| {
            let mut m = machine(setting);
            let v = m.alloc::<u64>(4 << 10); // 32 KB fits scaled L2
            linear_read(&mut m, &v, Width::Bits512, &LinearConfig::new(1).with_warmup(2))
        };
        let native = run(Setting::PlainCpu);
        let enclave = run(Setting::SgxDataInEnclave);
        let rel = enclave / native;
        assert!(rel < 1.02, "in-cache linear reads should be at parity, got {rel:.3}");
    }
}
