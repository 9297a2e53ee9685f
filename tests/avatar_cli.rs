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
