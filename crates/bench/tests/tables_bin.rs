//! Smoke tests for the `tables` harness binary: each selected experiment
//! must run, print its table, and exit cleanly.

use std::process::Command;

fn tables(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn quick_calibration_and_mounting_print_tables() {
    let (ok, stdout) = tables(&["--quick", "calibration", "mounting"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[calibration]"), "{stdout}");
    assert!(stdout.contains("max IR (mV)"), "{stdout}");
    assert!(stdout.contains("[mounting]"), "{stdout}");
    assert!(stdout.contains("on-chip (shared PDN)"), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
}

#[test]
fn quick_table7_matches_the_paper_shape() {
    let (ok, stdout) = tables(&["--quick", "table7"]);
    assert!(ok, "{stdout}");
    // All six cases appear.
    for case in 1..=6 {
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_start().starts_with(&case.to_string())),
            "case {case} missing:\n{stdout}"
        );
    }
}

/// Runs `tables` with `args` and returns its exit code and stderr.
fn rejected(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_experiment_names_exit_2_with_usage() {
    let (code, stderr) = rejected(&["--quick", "no-such-experiment"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no-such-experiment"), "{stderr}");
    assert!(stderr.contains("usage: tables"), "{stderr}");
    for name in ["calibration", "policies-x", "table9"] {
        assert!(stderr.contains(name), "{name} not listed:\n{stderr}");
    }
}

#[test]
fn unknown_flags_and_bad_values_exit_2_with_usage() {
    for args in [
        &["--bogus", "calibration"][..],
        &["--quick", "--threads"],
        &["--threads", "0", "calibration"],
        &["--threads", "many", "calibration"],
        &["--log-level", "loud", "calibration"],
        &["--metrics-out", "--quick", "calibration"],
    ] {
        let (code, stderr) = rejected(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tables"), "{args:?}: {stderr}");
    }
}

#[test]
fn closed_stdout_stops_quietly() {
    // The read end is gone before the child starts, so its very first
    // write fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["--quick", "calibration"])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
