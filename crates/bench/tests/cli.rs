//! Pins the `repro` CLI's exit-code contract.
//!
//! The codes are part of the scripting interface (`ci.sh` and the serve
//! smoke test branch on them): 0 success, 1 runtime failure (validation
//! fail, HTTP non-200), 2 usage error. Malformed invocations — unknown
//! flags, unparseable `--seeds`/`--jobs` values, missing flag arguments —
//! must all land on 2 with a usage message, never start a simulation, and
//! never panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Runs `repro` with stdout on a pipe whose reader has already exited, so
/// its first write meets a broken pipe every time (no race with a reader
/// that might still be draining).
#[cfg(unix)]
fn repro_into_closed_pipe(args: &[&str]) -> Output {
    use std::process::Stdio;
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("`true` runs");
    let write_end = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("`true` exits");
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::from(write_end))
        .output()
        .expect("repro binary runs")
}

/// `repro --help | true` and `repro --list | head -1` end quietly: a
/// closed stdout is not a panic (exit 101) but a clean exit.
#[cfg(unix)]
#[test]
fn closed_stdout_ends_quietly() {
    for args in [
        &["--help"][..],
        &["--list"][..],
        &["--scale", "smoke", "tdma"][..],
    ] {
        let out = repro_into_closed_pipe(args);
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
        assert_eq!(out.status.code(), Some(0), "args {args:?}: {err}");
    }
}

#[test]
fn list_exits_zero() {
    let out = repro(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("table2"));
    assert!(stdout.contains("hidden-terminal"));
}

#[test]
fn help_exits_zero() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn unknown_artifact_exits_two() {
    let out = repro(&["--scale", "smoke", "no-such-artifact"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown artifact"));
    assert!(err.contains("valid artifacts"), "lists the valid names");
}

#[test]
fn unknown_flag_exits_two_with_usage() {
    for args in [
        &["--frobnicate"][..],
        &["--scale", "smoke", "--frobnicate", "tdma"][..],
        &["-x"][..],
        &["--timing-json", "timing.json"][..],
        &["--serve-bench", "serve.json", "tdma"][..],
        &["--capture-bench", "capture.json", "table2"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown flag"), "args: {args:?}");
        assert!(err.contains("usage:"), "args: {args:?}");
    }
}

#[test]
fn malformed_seeds_exits_two_with_usage() {
    for bad in ["abc", "0", "-3", "1.5", ""] {
        let out = repro(&["--validate", "--seeds", bad]);
        assert_eq!(out.status.code(), Some(2), "--seeds {bad:?}");
        assert!(stderr(&out).contains("usage:"), "--seeds {bad:?}");
    }
    // Missing value entirely.
    let out = repro(&["--validate", "--seeds"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn malformed_jobs_exits_two_with_usage() {
    for bad in ["abc", "-1", "2.5"] {
        let out = repro(&["--jobs", bad, "tdma"]);
        assert_eq!(out.status.code(), Some(2), "--jobs {bad:?}");
        assert!(stderr(&out).contains("usage:"), "--jobs {bad:?}");
    }
}

#[test]
fn malformed_scale_and_format_exit_two() {
    assert_eq!(repro(&["--scale", "huge"]).status.code(), Some(2));
    assert_eq!(repro(&["--format", "xml"]).status.code(), Some(2));
    assert_eq!(repro(&["--scale"]).status.code(), Some(2));
}

#[test]
fn validate_rejects_artifact_arguments() {
    let out = repro(&["--validate", "table2"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn check_json_exit_codes() {
    let dir = std::env::temp_dir();
    let good = dir.join("repro_cli_good.json");
    let bad = dir.join("repro_cli_bad.json");
    std::fs::write(&good, "{\"ok\": [1, 2, 3]}\n").expect("write");
    std::fs::write(&bad, "{\"ok\": [1, 2\n").expect("write");
    assert_eq!(
        repro(&["--check-json", good.to_str().expect("utf-8")])
            .status
            .code(),
        Some(0)
    );
    assert_eq!(
        repro(&["--check-json", bad.to_str().expect("utf-8")])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        repro(&["--check-json", "/no/such/file.json"]).status.code(),
        Some(2)
    );
    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
}

#[test]
fn http_get_requires_a_real_url() {
    // Not a URL at all → usage error (2).
    let out = repro(&["--http-get", "not-a-url"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    // Well-formed URL, nothing listening → runtime failure (1).
    let out = repro(&["--http-get", "http://127.0.0.1:9/healthz"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn serve_rejects_unknown_flags() {
    for args in [
        &["serve", "--frobnicate"][..],
        &["serve", "--peers", "127.0.0.1:1,127.0.0.1:2"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(stderr(&out).contains("usage:"), "args: {args:?}");
    }
    let out = repro(&["serve", "--workers", "abc"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_store_flag_without_value_exits_two() {
    assert_eq!(repro(&["serve", "--store"]).status.code(), Some(2));
}

/// Pins the usage text: every subcommand and flag the scripting surface
/// depends on must be listed, so `repro --help` stays the one place the
/// whole CLI is discoverable.
#[test]
fn usage_text_lists_every_subcommand_and_flag() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "--scale smoke|reduced|paper",
        "--seed N",
        "--jobs N",
        "--format text|json",
        "--list",
        "--trace-out FILE",
        "repro reanalyze FILE",
        "repro trace-info FILE",
        "--scenario NAME",
        "--validate",
        "--seeds N",
        "repro sweep --space NAME|PATH",
        "--points N",
        "repro serve",
        "--addr HOST:PORT",
        "--workers N",
        "--queue N",
        "--cache N",
        "--timeout-ms N",
        "--addr-file PATH",
        "--store DIR",
        "--http-get URL",
        "--check-json PATH",
    ] {
        assert!(usage.contains(needle), "usage must mention {needle:?}:\n{usage}");
    }
}
