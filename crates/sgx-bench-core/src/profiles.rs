//! Benchmark profiles and harness options.
//!
//! The default profile shrinks the Table 1 machine and all paper data
//! sizes by the same factor (16), preserving every cache-vs-data-size
//! relationship while keeping the whole suite runnable in minutes.
//! `--full` is `--scale 1`: paper-exact sizes on the unscaled machine.

use sgx_sim::config::xeon_gold_6326;
use sgx_sim::HwConfig;

/// The profile options of `all_figures` (`--full`, `--reps N`,
/// `--scale N`).
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Repetitions per data point (the paper uses 10); at least 1.
    pub reps: usize,
    /// Machine and data scale divisor; at least 1, and 1 is paper scale.
    pub scale: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts { reps: 3, scale: 16 }
    }
}

impl RunOpts {
    /// The options [`RunOpts::parse_from`] accepts, as `--help` prints them.
    pub const USAGE: &'static str = "options: --full | --reps N | --scale N";

    /// Parse `--full`, `--reps N`, `--scale N` from an argument iterator.
    /// `--help` prints [`RunOpts::USAGE`] and exits 0; an unknown option or
    /// a bad value (`--reps`/`--scale` not an integer >= 1) exits 2.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> RunOpts {
        let mut opts = RunOpts::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => opts.scale = 1,
                "--reps" => opts.reps = positive(&a, it.next()),
                "--scale" => opts.scale = positive(&a, it.next()),
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

    /// Resolve to a benchmark profile.
    pub fn profile(&self) -> BenchProfile {
        BenchProfile {
            hw: xeon_gold_6326().scaled(self.scale),
            data_div: self.scale,
            reps: self.reps,
        }
    }
}

/// The value of option `opt`, which must be an integer >= 1; anything
/// else exits 2.
fn positive(opt: &str, value: Option<String>) -> usize {
    let value = value.unwrap_or_default();
    value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
        eprintln!("error: {opt} needs an integer >= 1, got {value:?}");
        std::process::exit(2);
    })
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
    /// A tiny profile for integration tests (1/64 machine and data).
    pub fn tiny() -> BenchProfile {
        BenchProfile { hw: xeon_gold_6326().scaled(64), data_div: 64, reps: 1 }
    }

    /// The refactor-equivalence profile (1/512 machine and data), small
    /// enough that the equivalence suite can afford to run the full
    /// registry several times. It is not where the figures' shapes are
    /// checked: `tests/integration_figures.rs` asserts them at 1/256, and
    /// at 1/512 two of them fail (`ext_skew_shape_two_competing_effects`
    /// and `ext_aex_storm_shape_enclave_collapses_first`).
    /// `record_goldens`, `tests/integration_equivalence.rs`
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
        assert_eq!(o.scale, 1);
        assert_eq!(o.reps, 7);
        let o = args(&["--scale", "32"]);
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
    fn default_and_full_profiles_are_the_scaled_machine() {
        // `HwConfig` has no `PartialEq`; its `Debug` text lists every field.
        let hw = |o: &[&str]| format!("{:?}", args(o).profile().hw);
        assert_eq!(hw(&[]), format!("{:?}", xeon_gold_6326().scaled(16)));
        assert_eq!(hw(&["--full"]), format!("{:?}", xeon_gold_6326().scaled(1)));
    }

    #[test]
    fn socket_helpers_pin_correctly() {
        let p = RunOpts::default().profile();
        assert_eq!(p.socket1(2), vec![16, 17]);
    }

    #[test]
    fn tpch_sf_scales() {
        let p = RunOpts::default().profile();
        assert!((p.tpch_sf(10.0) - 0.625).abs() < 1e-12);
    }
}
