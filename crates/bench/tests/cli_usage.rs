//! Usage handling of `all_figures`: `--help` prints the options and
//! exits 0, an unknown option exits 2, and neither runs a figure.
//!
//! Each case runs in a directory of its own, so a figure the binary
//! wrongly emitted would show up there as `target/figures/`.

use std::path::PathBuf;
use std::process::{Command, Output};

const ALL_FIGURES: &str = env!("CARGO_BIN_EXE_all_figures");

/// Run `all_figures` with `args` in a fresh directory named after `case`;
/// return its output and whether it left any figure output behind.
fn run(case: &str, args: &[&str]) -> (Output, bool) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cli-usage-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the case directory");
    let out = Command::new(ALL_FIGURES)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn the binary");
    let emitted = dir.join("target").exists();
    let _ = std::fs::remove_dir_all(&dir);
    (out, emitted)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_prints_the_options_and_runs_nothing() {
    // `--only`/`--scale` keep a regression that ignores --help short.
    let (out, emitted) = run("help", &["--only", "fig05", "--scale", "512", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for option in ["--jobs", "--only", "--profile", "--reps", "--scale"] {
        assert!(
            text.contains(option),
            "all_figures --help must list {option}: {text}"
        );
    }
    assert!(
        !text.contains("Random memory access"),
        "no figure may be printed: {text}"
    );
    assert!(!emitted, "no figure may be written");
}

#[test]
fn unknown_options_exit_2_and_run_nothing() {
    // `--job` is a typo of `--jobs` (a harness option), `--rep` one of
    // `--reps` (a profile option).
    for (case, typo, value) in [("job-typo", "--job", "2"), ("rep-typo", "--rep", "1")] {
        let (out, emitted) = run(case, &["--only", "fig05", "--scale", "512", typo, value]);
        assert_eq!(out.status.code(), Some(2), "{typo}");
        assert!(
            stdout(&out).is_empty(),
            "no figure may be printed: {}",
            stdout(&out)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(typo),
            "the error must name the option {typo}"
        );
        assert!(!emitted, "no figure may be written");
    }
}
