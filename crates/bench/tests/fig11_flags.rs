//! `fig11 --smoke` fills only the settings that no explicit flag chose, so
//! the order of the flags does not change what runs.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs `fig11` with `args` and returns its JSON artifact without the
/// wall-clock `"solve_ms"` line.
fn sweep_json(args: &[&str], tag: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fig11_flags_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("sweep.json");
    let status = Command::new(env!("CARGO_BIN_EXE_fig11"))
        .args(args)
        .arg("--json")
        .arg(&json)
        .arg("--csv")
        .arg(dir.join("sweep.csv"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("fig11 runs");
    assert!(status.success(), "fig11 {args:?} failed: {status}");
    let text = std::fs::read_to_string(&json).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    text.lines()
        .filter(|line| !line.contains("\"solve_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn smoke_keeps_explicit_settings_in_any_order() {
    let explicit = ["small", "--seeds", "7", "--kinds", "scatter,mcph"];
    let smoke_first: Vec<&str> = std::iter::once("--smoke").chain(explicit).collect();
    let smoke_last: Vec<&str> = explicit.into_iter().chain(["--smoke"]).collect();
    let first = sweep_json(&smoke_first, "first");
    let last = sweep_json(&smoke_last, "last");
    assert_eq!(first, last);
    assert!(first.contains("\"seed\": 7,"), "{first}");
    assert!(
        first.contains("\"kinds\": [\"scatter\", \"mcph\"],"),
        "{first}"
    );
    // What no flag chose still comes from the smoke configuration.
    assert!(first.contains("\"platforms\": 1,"), "{first}");
    assert!(first.contains("\"density\": 0.5,"), "{first}");
}

/// Seeds reach the artifacts as JSON numbers (`f64`), so a seed is written
/// exactly only up to 2^53: larger ones are a usage error, before any work.
#[test]
fn seeds_above_two_to_the_53_are_usage_errors() {
    let too_big = "9007199254740993";
    for args in [
        vec!["--seed", too_big],
        vec!["--seeds", &format!("42,{too_big}")],
        vec!["--chaos", "--chaos-seed", too_big],
        vec!["--seed", "not-a-seed"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_fig11"))
            .args(&args)
            .args(["--json", "/dev/null", "--csv", "/dev/null"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("fig11 runs");
        assert_eq!(status.code(), Some(2), "fig11 {args:?}");
    }
    let json = sweep_json(&["small", "--smoke", "--seed", "9007199254740992"], "max");
    assert!(json.contains("\"seed\": 9007199254740992,"), "{json}");
}

/// A malformed number after `--platforms`, `--densities` or `--steps` is a
/// usage error that names the flag (exit 2), not a panic (exit 101).
#[test]
fn malformed_numbers_are_usage_errors() {
    for args in [
        vec!["--platforms", "x"],
        vec!["--densities", "0.5,abc"],
        vec!["--drift", "--steps", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig11"))
            .args(&args)
            .args(["--json", "/dev/null", "--csv", "/dev/null"])
            .stdout(Stdio::null())
            .output()
            .expect("fig11 runs");
        assert_eq!(out.status.code(), Some(2), "fig11 {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[args.len() - 2]),
            "fig11 {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "fig11 {args:?}: {stderr}");
    }
}
