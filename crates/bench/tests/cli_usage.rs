//! Usage handling of the figure binaries: `--help` prints the options and
//! exits 0, an unknown option exits 2, and neither runs a figure.
//!
//! Each case runs in a directory of its own, so a figure the binary
//! wrongly emitted would show up there as `target/figures/`.

use std::path::PathBuf;
use std::process::{Command, Output};

const ALL_FIGURES: &str = env!("CARGO_BIN_EXE_all_figures");
const FIG05: &str = env!("CARGO_BIN_EXE_fig05_random_access_micro");

/// Run `bin` with `args` in a fresh directory named after `case`; return
/// its output and whether it left any figure output behind.
fn run(case: &str, bin: &str, args: &[&str]) -> (Output, bool) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cli-usage-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the case directory");
    let out = Command::new(bin)
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
    let (out, emitted) = run(
        "all-help",
        ALL_FIGURES,
        &["--only", "fig05", "--scale", "512", "--help"],
    );
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for option in ["--jobs", "--only", "--profile", "--scale"] {
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

    let (out, emitted) = run("fig05-help", FIG05, &["--scale", "512", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(
        text.contains("--reps"),
        "the figure binary's --help must list --reps: {text}"
    );
    assert!(
        !text.contains("Random memory access"),
        "no figure may be printed: {text}"
    );
    assert!(!emitted, "no figure may be written");
}

#[test]
fn unknown_options_exit_2_and_run_nothing() {
    // `--job` is a typo of `--jobs`.
    let (out, emitted) = run(
        "all-typo",
        ALL_FIGURES,
        &["--only", "fig05", "--scale", "512", "--job", "2"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stdout(&out).is_empty(),
        "no figure may be printed: {}",
        stdout(&out)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--job"),
        "the error must name the option"
    );
    assert!(!emitted, "no figure may be written");

    let (out, emitted) = run("fig05-typo", FIG05, &["--scale", "512", "--rep", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stdout(&out).is_empty(),
        "no figure may be printed: {}",
        stdout(&out)
    );
    assert!(!emitted, "no figure may be written");
}
