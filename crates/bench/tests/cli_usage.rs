//! Usage handling of `all_figures` and `service_bench`: `--help` prints
//! the options and exits 0; an unknown option, a bad value or an unknown
//! job id exits 2; and none of them runs a figure or a calibration.
//!
//! Each case runs in an empty directory of its own, so anything the
//! binary wrongly wrote there (`target/figures/`, a `--json` report)
//! would be left behind in it.

use std::path::PathBuf;
use std::process::{Command, Output};

const ALL_FIGURES: &str = env!("CARGO_BIN_EXE_all_figures");
const SERVICE_BENCH: &str = env!("CARGO_BIN_EXE_service_bench");

/// Run `bin` with `args` in a fresh directory named after `case`; return
/// its output and whether it left anything in that directory.
fn run(bin: &str, case: &str, args: &[&str]) -> (Output, bool) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cli-usage-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the case directory");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn the binary");
    let emitted = std::fs::read_dir(&dir).expect("list the case directory").next().is_some();
    let _ = std::fs::remove_dir_all(&dir);
    (out, emitted)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_the_options_and_runs_nothing() {
    // `--only`/`--scale` keep a regression that ignores --help short.
    let (out, emitted) = run(ALL_FIGURES, "help", &["--only", "fig05", "--scale", "512", "--help"]);
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
        let (out, emitted) =
            run(ALL_FIGURES, case, &["--only", "fig05", "--scale", "512", typo, value]);
        assert_eq!(out.status.code(), Some(2), "{typo}");
        assert!(
            stdout(&out).is_empty(),
            "no figure may be printed: {}",
            stdout(&out)
        );
        assert!(
            stderr(&out).contains(typo),
            "the error must name the option {typo}"
        );
        assert!(!emitted, "no figure may be written");
    }
}

#[test]
fn bad_values_and_unknown_jobs_exit_2_and_run_nothing() {
    // `--only table1` keeps a regression that accepts a bad value short:
    // table1 builds no machine, even at paper scale.
    for (case, args, named) in [
        ("scale-0", &["--only", "table1", "--scale", "0"][..], "--scale"),
        ("reps-0", &["--only", "table1", "--scale", "512", "--reps", "0"], "--reps"),
        ("jobs-0", &["--only", "table1", "--scale", "512", "--jobs", "0"], "--jobs"),
        ("only-without-ids", &["--scale", "512", "--only"], "--only"),
        ("unknown-job", &["--only", "fig7", "--scale", "512"], "fig7"),
    ] {
        let (out, emitted) = run(ALL_FIGURES, case, args);
        assert_eq!(out.status.code(), Some(2), "{case}: {}", stderr(&out));
        assert!(
            stdout(&out).is_empty(),
            "{case}: no figure may be printed: {}",
            stdout(&out)
        );
        assert!(stderr(&out).contains(named), "{case}: the error must name {named}");
        assert!(!emitted, "{case}: no figure may be written");
    }
}

#[test]
fn service_bench_bad_values_exit_2_before_calibrating() {
    for (case, args, named) in [
        ("svc-scale-0", &["--scale", "0"][..], "--scale"),
        ("svc-scale-negative", &["--scale", "-4"], "--scale"),
        ("svc-scale-fraction", &["--scale", "0.5"], "--scale"),
        ("svc-scale-nan", &["--scale", "nan"], "--scale"),
        ("svc-overload-0", &["--scale", "512", "--overload", "0"], "--overload"),
        ("svc-overload-negative", &["--scale", "512", "--overload", "-1"], "--overload"),
        ("svc-overload-inf", &["--scale", "512", "--overload", "inf"], "--overload"),
        ("svc-aex-negative", &["--scale", "512", "--aex", "-5"], "--aex"),
        ("svc-aex-nan", &["--scale", "512", "--aex", "nan"], "--aex"),
        ("svc-epc-negative", &["--scale", "512", "--epc", "-1"], "--epc"),
        ("svc-epc-above-1", &["--scale", "512", "--epc", "1.5"], "--epc"),
        ("svc-epc-inf", &["--scale", "512", "--epc", "inf"], "--epc"),
        ("svc-json-missing", &["--scale", "512", "--json"], "--json"),
        ("svc-json-option", &["--scale", "512", "--json", "--native"], "--json"),
    ] {
        let (out, emitted) = run(SERVICE_BENCH, case, args);
        assert_eq!(out.status.code(), Some(2), "{case}: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("calibrating"),
            "{case}: nothing may be calibrated: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains(named), "{case}: the error must name {named}");
        assert!(stdout(&out).is_empty(), "{case}: no report may be printed");
        assert!(!emitted, "{case}: nothing may be written");
    }
}
