//! End-to-end checks of the `avatar` command-line front end.

use std::path::Path;
use std::process::Command;

fn avatar(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_avatar"))
        .args(args)
        .output()
        .expect("avatar binary runs");
    assert!(
        out.status.success(),
        "avatar {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Replays `trace` on `policy` and returns its stats line split at the
/// label: `("CAST-only", "112530 cycles | …")`.
fn replay(trace: &Path, policy: &str) -> (String, String) {
    let path = trace.to_str().expect("temp path is UTF-8");
    let line = avatar(&["replay", path, "--sms", "2", "--warps", "4", "--config", policy]);
    let (label, stats) = line.trim_end().split_once(": ").expect("`label: stats` line");
    (label.to_string(), stats.to_string())
}

#[test]
fn replay_runs_the_selected_policy() {
    let trace = std::env::temp_dir().join(format!("avatar_cli_{}.trace", std::process::id()));
    let path = trace.to_str().expect("temp path is UTF-8");
    avatar(&["trace", "GEMM", "--sms", "2", "--warps", "4", "--scale", "0.02", "--out", path]);
    let cast = replay(&trace, "cast");
    let promotion = replay(&trace, "promotion");
    let _ = std::fs::remove_file(&trace);

    assert_eq!(cast.0, "CAST-only");
    assert_eq!(promotion.0, "Promotion");
    // CAST speculates on top of promotion; the same stats under both
    // labels would mean replay ignored `--config`.
    assert_ne!(cast.1, promotion.1, "replay ran the same system for cast and promotion");
}

#[test]
fn replay_rejects_a_trace_larger_than_its_geometry() {
    let trace = std::env::temp_dir().join(format!("avatar_cli_fit_{}.trace", std::process::id()));
    let path = trace.to_str().expect("temp path is UTF-8");
    avatar(&["trace", "GEMM", "--sms", "4", "--warps", "4", "--scale", "0.02", "--out", path]);
    let small = Command::new(env!("CARGO_BIN_EXE_avatar"))
        .args(["replay", path, "--sms", "2", "--warps", "2"])
        .output()
        .expect("avatar binary runs");
    // A geometry at least as large as the trace replays as before.
    let larger = avatar(&["replay", path, "--sms", "4", "--warps", "8"]);
    let _ = std::fs::remove_file(&trace);

    let stderr = String::from_utf8_lossy(&small.stderr);
    assert!(
        !small.status.success(),
        "replay dropped the ops outside 2x2 and still succeeded: {}",
        String::from_utf8_lossy(&small.stdout)
    );
    assert!(stderr.contains("4 SMs x 4 warps") && stderr.contains("2 SMs x 2 warps"), "{stderr}");
    assert!(larger.contains(" cycles | "), "{larger}");
}

#[test]
fn usage_errors_exit_2_with_one_line() {
    let trace = std::env::temp_dir().join(format!("avatar_cli_usage_{}.trace", std::process::id()));
    let path = trace.to_str().expect("temp path is UTF-8");
    avatar(&["trace", "GEMM", "--sms", "2", "--warps", "2", "--scale", "0.02", "--out", path]);
    // Small geometry on every `run`, so a build that accepts the bad
    // argument finishes quickly instead of hiding the failure.
    let run = ["run", "GEMM", "--sms", "2", "--warps", "2", "--scale", "0.01"];
    let cases: Vec<Vec<&str>> = vec![
        vec!["replay", path, "--sms", "2", "--warps", "2", "--bogus", "7"],
        vec!["replay", path, "--sms", "2", "--warps", "2", "--oversub", "1.5"],
        vec!["replay", path, "--sms", "2", "--warps", "2", "--scale", "1"],
        vec!["replay", path, "--sms", "2", "--warps", "2", "--compress", "1.5"],
        vec!["replay", path, "--sms", "2", "--warps", "2", "extra"],
        [&run[..], &["extra"]].concat(),
        [&run[..], &["--compress", "0.5"]].concat(),
        [&run[..], &["--out", "x"]].concat(),
        vec!["run", "GEMM", "--sms", "0"],
        vec!["run", "GEMM", "--warps", "0"],
        [&run[..], &["--scale", "-1"]].concat(),
        [&run[..], &["--scale", "0"]].concat(),
        [&run[..], &["--scale", "nan"]].concat(),
        [&run[..], &["--oversub", "0"]].concat(),
        [&run[..], &["--oversub", "-2"]].concat(),
        vec!["list", "extra"],
    ];
    let results: Vec<_> = cases
        .iter()
        .map(|args| {
            let out = Command::new(env!("CARGO_BIN_EXE_avatar"))
                .args(args)
                .output()
                .expect("avatar binary runs");
            (args, out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
        })
        .collect();
    let _ = std::fs::remove_file(&trace);
    for (args, code, stderr) in results {
        assert_eq!(code, Some(2), "avatar {args:?} must be a usage error: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "avatar {args:?}: one-line error, got: {stderr}");
    }
}
