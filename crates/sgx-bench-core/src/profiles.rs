//! Benchmark profiles and harness options.
//!
//! The default profile shrinks the Table 1 machine and all paper data
//! sizes by the same factor (16), preserving every cache-vs-data-size
//! relationship while keeping the whole suite runnable in minutes.
//! `--full` selects paper-exact sizes on the unscaled machine.

use sgx_sim::config::{scaled_profile, xeon_gold_6326};
use sgx_sim::HwConfig;

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Run paper-exact sizes on the unscaled machine (slow).
    pub full: bool,
    /// Repetitions per data point (the paper uses 10).
    pub reps: usize,
    /// Machine/data scale divisor for the scaled profile.
    pub scale: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts { full: false, reps: 3, scale: 16 }
    }
}

impl RunOpts {
    /// The options [`RunOpts::parse_from`] accepts, as `--help` prints them.
    pub const USAGE: &'static str = "options: --full | --reps N | --scale N";

    /// Parse `--full`, `--reps N`, `--scale N` from an argument iterator.
    /// `--help` prints [`RunOpts::USAGE`] and exits 0; an unknown option or
    /// a bad value exits 2.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> RunOpts {
        let mut opts = RunOpts::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--reps" => {
                    opts.reps = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("error: --reps needs an integer");
                        std::process::exit(2);
                    });
                }
                "--scale" => {
                    opts.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("error: --scale needs an integer");
                        std::process::exit(2);
                    });
                }
                "--help" | "-h" => {
                    println!("{}", RunOpts::USAGE);
                    std::process::exit(0);
                }
                other => {
                    eprintln!("error: unknown option {other} ({})", RunOpts::USAGE);
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// Parse from the process arguments.
    pub fn parse() -> RunOpts {
        RunOpts::parse_from(std::env::args().skip(1))
    }

    /// Resolve to a benchmark profile.
    pub fn profile(&self) -> BenchProfile {
        if self.full {
            BenchProfile { hw: xeon_gold_6326(), data_div: 1, reps: self.reps.max(1) }
        } else if self.scale == 16 {
            BenchProfile { hw: scaled_profile(), data_div: 16, reps: self.reps.max(1) }
        } else {
            BenchProfile {
                hw: xeon_gold_6326().scaled(self.scale.max(1)),
                data_div: self.scale.max(1),
                reps: self.reps.max(1),
            }
        }
    }
}

/// A resolved benchmark profile: machine + data scaling + repetitions.
#[derive(Debug, Clone)]
pub struct BenchProfile {
    /// The simulated machine.
    pub hw: HwConfig,
    /// Paper data sizes are divided by this.
    pub data_div: usize,
    /// Repetitions per data point.
    pub reps: usize,
}

impl BenchProfile {
    /// The paper machine at 1/16 scale with 3 repetitions (test default).
    pub fn quick() -> BenchProfile {
        BenchProfile { hw: scaled_profile(), data_div: 16, reps: 1 }
    }

    /// A tiny profile for integration tests (1/64 machine and data).
    pub fn tiny() -> BenchProfile {
        BenchProfile { hw: xeon_gold_6326().scaled(64), data_div: 64, reps: 1 }
    }

    /// The refactor-equivalence profile (1/512 machine and data): the
    /// smallest scale at which every registered figure job passes its
    /// shape assertions, so the equivalence suite can afford to run the
    /// full registry. `record_goldens`, `tests/integration_equivalence.rs`
    /// and the goldens in `tests/goldens/` must all agree on this
    /// profile; [`BenchProfile::golden_tag`] is embedded in the golden
    /// file to catch accidental drift.
    pub fn golden() -> BenchProfile {
        BenchProfile { hw: xeon_gold_6326().scaled(512), data_div: 512, reps: 1 }
    }

    /// Identity string for [`BenchProfile::golden`], recorded in and
    /// checked against the golden file.
    pub fn golden_tag() -> &'static str {
        "xeon_gold_6326/512 data_div=512 reps=1"
    }

    /// Scale a paper size in megabytes to bytes under this profile.
    pub fn mb(&self, paper_mb: usize) -> usize {
        (paper_mb << 20) / self.data_div
    }

    /// Scale a paper row count under this profile.
    pub fn rows(&self, paper_rows: usize) -> usize {
        (paper_rows / self.data_div).max(64)
    }

    /// Rows of an 8-byte-tuple relation that the paper sizes as
    /// `paper_mb` megabytes.
    pub fn rel_rows(&self, paper_mb: usize) -> usize {
        (self.mb(paper_mb) / 8).max(64)
    }

    /// TPC-H scale factor equivalent to the paper's SF under this profile.
    pub fn tpch_sf(&self, paper_sf: f64) -> f64 {
        paper_sf / self.data_div as f64
    }

    /// Core ids `0..n` on socket 0.
    pub fn socket0(&self, n: usize) -> Vec<usize> {
        assert!(n <= self.hw.cores_per_socket);
        (0..n).collect()
    }

    /// Core ids `0..n` on socket 1.
    pub fn socket1(&self, n: usize) -> Vec<usize> {
        assert!(n <= self.hw.cores_per_socket);
        (self.hw.cores_per_socket..self.hw.cores_per_socket + n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> RunOpts {
        RunOpts::parse_from(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_flags() {
        let o = args(&["--full", "--reps", "7"]);
        assert!(o.full);
        assert_eq!(o.reps, 7);
        let o = args(&["--scale", "32"]);
        assert!(!o.full);
        assert_eq!(o.scale, 32);
    }

    #[test]
    fn profiles_scale_consistently() {
        let p = args(&[]).profile();
        assert_eq!(p.mb(100), 100 << 20 >> 4);
        assert_eq!(p.rel_rows(100), (100 << 20) / 16 / 8);
        assert_eq!(p.hw.l3.size, 24 * 1024 * 1024 / 16);
        let f = args(&["--full"]).profile();
        assert_eq!(f.mb(100), 100 << 20);
        assert_eq!(f.data_div, 1);
    }

    #[test]
    fn socket_helpers_pin_correctly() {
        let p = BenchProfile::quick();
        assert_eq!(p.socket0(3), vec![0, 1, 2]);
        assert_eq!(p.socket1(2), vec![16, 17]);
    }

    #[test]
    fn tpch_sf_scales() {
        let p = BenchProfile::quick();
        assert!((p.tpch_sf(10.0) - 0.625).abs() < 1e-12);
    }
}
