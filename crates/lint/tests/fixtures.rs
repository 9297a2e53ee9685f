//! Golden fixture tests for every lint rule.
//!
//! Each `tests/fixtures/*_violation.rs` file seeds exactly one violation
//! of one rule; its `*_clean.rs` counterpart shows the sanctioned way to
//! write the same code and must scan clean. Fixtures are linted *as if*
//! they lived in `crates/sim/src/` so crate-scoped rules fire. The final
//! test lints the real workspace: the tree must be deny-clean so that a
//! freshly seeded violation is attributable to the patch that added it.

use avatar_lint::{lint_source, lint_sources, lint_workspace, Config, Finding};
use std::fs;
use std::path::Path;

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lints one fixture under the hot-path crate scope (local rules only).
fn lint_fixture(name: &str) -> Vec<Finding> {
    let source = read_fixture(name);
    let mut out = Vec::new();
    lint_source(&format!("crates/sim/src/{name}"), &source, &Config::default(), &mut out);
    out
}

/// Lints one fixture as a one-file workspace under the hot-path crate
/// scope, so the semantic rules (item graph, call graph) run too.
fn lint_fixture_semantic(name: &str) -> Vec<Finding> {
    let files = vec![(format!("crates/sim/src/{name}"), read_fixture(name))];
    lint_sources(&files, &Config::default()).findings
}

/// Asserts the semantic fixture produces exactly one deny finding of
/// `rule` at `line`, and that its clean twin produces nothing at all.
fn assert_semantic_golden(stem: &str, rule: &str, line: usize) {
    let found = lint_fixture_semantic(&format!("{stem}_violation.rs"));
    assert_eq!(
        found.len(),
        1,
        "{stem}_violation.rs must seed exactly one finding, got: {found:#?}"
    );
    assert_eq!(found[0].rule, rule, "wrong rule for {stem}");
    assert_eq!(found[0].line, line, "wrong line for {stem}");
    assert!(!found[0].allowed, "seeded violation must be deny-level");

    let clean = lint_fixture_semantic(&format!("{stem}_clean.rs"));
    assert!(clean.is_empty(), "{stem}_clean.rs must scan clean, got: {clean:#?}");
}

/// Asserts the fixture produces exactly one deny finding of `rule` at
/// `line`, and that its clean twin produces nothing at all.
fn assert_golden(stem: &str, rule: &str, line: usize) {
    let found = lint_fixture(&format!("{stem}_violation.rs"));
    assert_eq!(
        found.len(),
        1,
        "{stem}_violation.rs must seed exactly one finding, got: {found:#?}"
    );
    assert_eq!(found[0].rule, rule, "wrong rule for {stem}");
    assert_eq!(found[0].line, line, "wrong line for {stem}");
    assert!(!found[0].allowed, "seeded violation must be deny-level");

    let clean = lint_fixture(&format!("{stem}_clean.rs"));
    assert!(clean.is_empty(), "{stem}_clean.rs must scan clean, got: {clean:#?}");
}

#[test]
fn default_collections_golden() {
    assert_golden("default_collections", "default-collections", 4);
}

#[test]
fn hot_path_panic_golden() {
    assert_golden("hot_path_panic", "hot-path-panic", 4);
}

#[test]
fn weak_expect_golden() {
    assert_golden("weak_expect", "weak-expect", 4);
}

#[test]
fn nondeterminism_golden() {
    assert_golden("nondeterminism", "nondeterminism", 5);
}

#[test]
fn vec_vec_golden() {
    assert_golden("vec_vec", "vec-vec", 4);
}

#[test]
fn float_stats_golden() {
    assert_golden("float_stats", "float-stats", 6);
}

#[test]
fn module_doc_golden() {
    assert_golden("module_doc", "module-doc", 1);
}

#[test]
fn zero_delta_schedule_golden() {
    assert_golden("zero_delta_schedule", "zero-delta-schedule", 5);
}

#[test]
fn probe_span_balance_golden() {
    assert_golden("probe_span_balance", "probe-span-balance", 3);
}

#[test]
fn map_iteration_determinism_golden() {
    assert_semantic_golden("map_iteration_determinism", "map-iteration-determinism", 12);
}

#[test]
fn shard_reachability_golden() {
    // The rule needs the workspace call graph, so these fixtures are
    // directories of cooperating files, linted together under their
    // shard-domain / helper / shared-domain paths.
    let lint_dir = |dir: &str, sm_as: &str| -> Vec<Finding> {
        let files: Vec<(String, String)> = ["sm.rs", "addr.rs", "dram.rs"]
            .iter()
            .map(|name| {
                let rel =
                    if *name == "sm.rs" { sm_as.to_string() } else { format!("crates/sim/src/{name}") };
                (rel, read_fixture(&format!("{dir}/{name}")))
            })
            .collect();
        lint_sources(&files, &Config::default()).findings
    };
    let found = lint_dir("shard_reachability_violation", "crates/sim/src/sm.rs");
    assert_eq!(found.len(), 1, "exactly one seeded finding, got: {found:#?}");
    assert_eq!(found[0].rule, "shard-reachability");
    assert_eq!(found[0].file, "crates/sim/src/sm.rs");
    assert_eq!(found[0].line, 6, "anchored at the first hop's call site");
    assert!(!found[0].allowed);
    assert!(
        found[0].message.contains("Dram::service"),
        "message must name the shared-domain method: {}",
        found[0].message
    );
    let clean = lint_dir("shard_reachability_clean", "crates/sim/src/sm.rs");
    assert!(clean.is_empty(), "clean twin must scan clean, got: {clean:#?}");
    // The same entry chain outside the shard-domain file list is out of
    // scope: only sm.rs/cache.rs/tlb.rs entry points are constrained.
    let elsewhere = lint_dir("shard_reachability_violation", "crates/sim/src/walker.rs");
    assert!(elsewhere.is_empty(), "rule fired outside shard-domain files: {elsewhere:#?}");
}

#[test]
fn shard_worker_reachability_golden() {
    // ShardLane worker entry points are BFS roots wherever they are
    // defined: this pair lints as `crates/sim/src/engine.rs`, which is
    // NOT in the shard-domain file list, and must still fire when the
    // worker fn transitively reaches Dram.
    let lint_dir = |dir: &str| -> Vec<Finding> {
        let files: Vec<(String, String)> = ["engine.rs", "addr.rs", "dram.rs"]
            .iter()
            .map(|name| {
                (format!("crates/sim/src/{name}"), read_fixture(&format!("{dir}/{name}")))
            })
            .collect();
        lint_sources(&files, &Config::default()).findings
    };
    let found = lint_dir("shard_worker_reachability_violation");
    assert_eq!(found.len(), 1, "exactly one seeded finding, got: {found:#?}");
    assert_eq!(found[0].rule, "shard-reachability");
    assert_eq!(found[0].file, "crates/sim/src/engine.rs");
    assert_eq!(found[0].line, 14, "anchored at the first hop out of the worker entry point");
    assert!(!found[0].allowed);
    assert!(
        found[0].message.contains("lane entry point")
            && found[0].message.contains("Dram::service"),
        "message must name the root kind and the shared-domain method: {}",
        found[0].message
    );
    let clean = lint_dir("shard_worker_reachability_clean");
    assert!(clean.is_empty(), "clean twin must scan clean, got: {clean:#?}");
}

#[test]
fn cache_key_completeness_golden() {
    // This rule is scoped to the cache-key owner file *list*, so the
    // fixture is linted as if it were `crates/sim/src/config.rs`.
    let lint_as = |name: &str, rel: &str| -> Vec<Finding> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
        let source = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        let mut out = Vec::new();
        lint_source(rel, &source, &Config::default(), &mut out);
        out
    };
    let found = lint_as("cache_key_completeness_violation.rs", "crates/sim/src/config.rs");
    assert_eq!(found.len(), 1, "exactly one seeded finding, got: {found:#?}");
    assert_eq!(found[0].rule, "cache-key-completeness");
    assert_eq!(found[0].line, 12);
    assert!(!found[0].allowed);
    let clean = lint_as("cache_key_completeness_clean.rs", "crates/sim/src/config.rs");
    assert!(clean.is_empty(), "clean twin must scan clean, got: {clean:#?}");
    // Outside the key-owner file list the violation is out of scope.
    let elsewhere =
        lint_as("cache_key_completeness_violation.rs", "crates/sim/src/engine.rs");
    assert!(elsewhere.is_empty(), "rule fired outside key-owner files: {elsewhere:#?}");
}

#[test]
fn lint_allow_escape_downgrades_one_site() {
    let found = lint_fixture("escaped_site.rs");
    assert_eq!(found.len(), 1, "escape still reports the site: {found:#?}");
    assert_eq!(found[0].rule, "hot-path-panic");
    assert_eq!(found[0].line, 6);
    assert!(found[0].allowed, "lint:allow on the preceding line must downgrade");
}

#[test]
fn fixtures_outside_hot_crates_do_not_fire_scoped_rules() {
    // The same unwrap fixture linted as a bench-crate file: hot-path
    // rules are a sim/core discipline and must not fire there.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hot_path_panic_violation.rs");
    let source = fs::read_to_string(&path).expect("fixture file exists in the repo");
    let mut out = Vec::new();
    lint_source("crates/bench/src/fixture.rs", &source, &Config::default(), &mut out);
    assert!(out.is_empty(), "scoped rule fired outside sim/core: {out:#?}");
}

/// The real workspace must be deny-clean. This is the same scan CI's
/// lint gate performs; keeping it in the test suite means `cargo test`
/// alone catches a regression without running the binary.
#[test]
fn workspace_is_deny_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Config::default()).expect("workspace root is scannable");
    let deny: Vec<&Finding> = report.deny().collect();
    assert!(
        deny.is_empty(),
        "workspace has deny-level lint findings:\n{}",
        report.to_text(false)
    );
    assert!(report.files_scanned > 50, "scan missed most of the workspace");
}
