//! Golden fixture tests for every lint rule.
//!
//! Each `tests/fixtures/*_violation.rs` file seeds exactly one violation
//! of one rule; its `*_clean.rs` counterpart shows the sanctioned way to
//! write the same code and must scan clean. Fixtures are linted *as if*
//! they lived in `crates/sim/src/` so crate-scoped rules fire. The final
//! test lints the real workspace: the tree must be deny-clean so that a
//! freshly seeded violation is attributable to the patch that added it.

use avatar_lint::{lint_source, lint_workspace, Config, Finding};
use std::fs;
use std::path::Path;

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lints one fixture under the hot-path crate scope.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let source = read_fixture(name);
    let mut out = Vec::new();
    lint_source(&format!("crates/sim/src/{name}"), &source, &Config::default(), &mut out);
    out
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
    assert_golden("zero_delta_schedule", "zero-delta-schedule", 6);
}

#[test]
fn probe_span_balance_golden() {
    assert_golden("probe_span_balance", "probe-span-balance", 3);
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
