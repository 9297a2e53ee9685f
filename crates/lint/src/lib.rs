//! `avatar-lint`: an in-repo, zero-dependency source analyzer for the
//! workspace's hand-rolled hot-path disciplines.
//!
//! PR 1–2 replaced every external dependency and every `Vec<Vec<_>>` hot
//! structure with hand-rolled substitutes (FxHash maps, a slab-backed
//! event calendar, stride-indexed cache/TLB arrays). Those disciplines
//! are easy to erode one innocuous-looking patch at a time, so this
//! crate machine-enforces them. Two layers of analysis run over every
//! file:
//!
//! * **Local rules** work on a comment/literal-stripped view of each
//!   file (built from the [`lexer`] token stream, so raw/byte/byte-raw
//!   strings and nested block comments are modeled exactly), with
//!   `#[cfg(test)]` items skipped and identifier-boundary matching (so
//!   `FxHashMap` is not a `HashMap` hit).
//! * **Semantic rules** parse each file into an item model (structs +
//!   fields, impls, fns), stitch a workspace item graph and an
//!   intra-workspace call graph, and check cross-cutting invariants:
//!   lane→shared-domain reachability and hash-map iteration order at
//!   order-sensitive sinks.
//!
//! Findings print as `file:line: [rule-id] message` and can also be
//! written as a JSON report for CI. Escapes, most specific first:
//!
//! * `// lint:allow(rule-id)` on the offending line or the line above
//!   suppresses one *local*-rule site (still reported as `allowed`);
//! * semantic rules demand a reasoned marker instead —
//!   `// lint:exempt(rule-id: reason)` — whose reason is held to the
//!   same ≥ [`MIN_EXPECT_LEN`]-char standard as `expect` messages;
//! * the `AVATAR_LINT_ALLOW=rule-a,rule-b` environment variable (or the
//!   `--allow` flag) downgrades whole rules for local iteration;
//! * a rule's scope (which crates it applies to) is part of the rule
//!   itself — see [`RULES`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod items;
pub mod lexer;
mod semantic;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule id: default-hasher `std::collections::{HashMap,HashSet}` in
/// non-test code. Hot-path maps must use `avatar_sim::fxhash`.
pub const DEFAULT_COLLECTIONS: &str = "default-collections";
/// Rule id: `.unwrap()` / `panic!`-family macros in `sim`/`core`
/// non-test code. Use `expect("<invariant>")` naming what was violated.
pub const HOT_PATH_PANIC: &str = "hot-path-panic";
/// Rule id: `.expect("…")` whose message is too short to name the
/// violated invariant (`"spec"`, `"checked"`, …) in `sim`/`core`.
pub const WEAK_EXPECT: &str = "weak-expect";
/// Rule id: wall-clock / OS-entropy sources anywhere outside the bench
/// crate's sanctioned timer. Simulations must be bit-deterministic.
pub const NONDETERMINISM: &str = "nondeterminism";
/// Rule id: `Vec<Vec<…>>` in `sim`/`core` non-test code — the PR 2
/// packed-layout rule (per-element heap boxes wreck locality).
pub const VEC_VEC: &str = "vec-vec";
/// Rule id: `f32`/`f64` fields inside `*Stats*`/`*Counts*` structs.
/// Counters must be integers; float accumulation is order-sensitive.
pub const FLOAT_STATS: &str = "float-stats";
/// Rule id: every source file must open with a `//!` module doc.
pub const MODULE_DOC: &str = "module-doc";
/// Rule id: `schedule(now, …)` / `schedule_in(0, …)` in `sim`/`core`
/// non-test code. A zero-delta self-schedule pays a full calendar
/// round-trip (insert, pop, dispatch) to run code the caller could have
/// invoked directly in the same cycle — the PR 4 fast-path work removed
/// every such site from the engine.
pub const ZERO_DELTA_SCHEDULE: &str = "zero-delta-schedule";
/// Rule id: unbalanced `.span_enter(` / `.span_exit(` probe calls inside
/// one function in `sim`/`core` non-test code. A begin with no end (or
/// vice versa) renders as a malformed nesting in the Chrome-trace viewer
/// and usually means an early return skipped the close; the engine keeps
/// every pair in one function so this is statically checkable.
pub const PROBE_SPAN_BALANCE: &str = "probe-span-balance";
/// Rule id (semantic): a call path from a fn defined in a shard-domain
/// module (`sm.rs`, `cache.rs`, `tlb.rs`) — or from a lane entry point,
/// an inherent method of a [`SHARD_ENTRY_TYPES`] type such as
/// `ShardLane`, wherever it is defined — reaching a method of a
/// shared-domain type (`PageWalkSystem`/`PwCache`/`Dram`/`Uvm`), or (in
/// shard-domain modules) a direct mention of one. In the windowed
/// engine, SM-side code runs inside a window and may only reach the
/// shared domain through scheduled events, which pay the modeled
/// window latency — a direct access (even through helper fns in other
/// modules, which the retired file-scoped `shard-shared-state` rule
/// could not see) would skip that latency and read state from a
/// different logical time. Sanctioned exceptions (ideal-TLB mode, which
/// models instant translation) carry
/// `lint:exempt(shard-reachability): <reason>` at the call site.
pub const SHARD_REACHABILITY: &str = "shard-reachability";
/// Rule id (semantic): iteration over an `FxHashMap`/`FxHashSet` (or a
/// std hash map) inside an order-sensitive fn — one that digests,
/// schedules events, or serializes state — without a sorted
/// adapter. Hash iteration order is layout-dependent; leaking it into
/// those sinks breaks bit-determinism across allocator/seed changes.
pub const MAP_ITERATION_DETERMINISM: &str = "map-iteration-determinism";
/// Rule id: `..` rest patterns inside `key_digest` functions of the
/// cache-key owner files. The result cache's content-addressing is only
/// sound if *every* field of `GpuConfig`/`RunOptions`/`Workload` folds
/// into the key: the digests destructure exhaustively so that adding a
/// field without folding it is a compile error, and a `..` would
/// silently reopen that hole — a new field could then change results
/// while stale cache entries keep replaying.
pub const CACHE_KEY_COMPLETENESS: &str = "cache-key-completeness";

/// Minimum length for an `.expect("…")` message in hot crates — and for
/// the reason string of a semantic-rule exemption marker; anything
/// shorter cannot plausibly name the violated invariant.
pub const MIN_EXPECT_LEN: usize = 8;

/// The one file allowed to touch wall-clock time directly: everything
/// else in the bench crate routes timing through it or carries an
/// explicit `lint:allow`.
const TIMER_FILE: &str = "crates/bench/src/timer.rs";

/// The shard-domain modules: code here executes inside the SM lane's
/// window, so it must never reach shared-domain structures, directly or
/// through helpers (see [`SHARD_REACHABILITY`]).
pub(crate) const SHARD_DOMAIN_FILES: &[&str] =
    &["crates/sim/src/sm.rs", "crates/sim/src/cache.rs", "crates/sim/src/tlb.rs"];

/// Lane entry-point types: inherent methods of these types run inside
/// the SM lane's window, so every one of them is a first-class BFS root
/// for [`SHARD_REACHABILITY`] regardless of which file defines it (the
/// engine module also hosts the shared lane, so a file-scoped list
/// cannot express this). The entry-point
/// audit is call-graph only — the engine file legitimately *names*
/// shared-domain types on the shared-lane side.
pub(crate) const SHARD_ENTRY_TYPES: &[&str] = &["ShardLane"];

/// Shared-domain type names whose methods must be unreachable from
/// shard-domain code.
pub(crate) const SHARED_DOMAIN_TYPES: &[&str] = &["PageWalkSystem", "PwCache", "Dram", "Uvm"];

/// The files owning a result-cache `key_digest` function; only here does
/// the [`CACHE_KEY_COMPLETENESS`] rule apply.
const KEY_OWNER_FILES: &[&str] = &[
    "crates/sim/src/config.rs",
    "crates/core/src/policy.rs",
    "crates/core/src/system.rs",
    "crates/workloads/src/spec.rs",
];

/// Static description of one lint rule (for `--list-rules` and JSON).
pub struct RuleInfo {
    /// Stable rule identifier, as written in `lint:allow(…)`.
    pub id: &'static str,
    /// Which crates the rule scans (`"all"` or a crate list).
    pub scope: &'static str,
    /// One-line summary of what the rule forbids and why.
    pub summary: &'static str,
}

/// The rule catalogue, in the order rules are applied.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: DEFAULT_COLLECTIONS,
        scope: "all crates",
        summary: "std::collections::HashMap/HashSet use SipHash (~10x slower on small integer keys); use avatar_sim::fxhash::FxHashMap/FxHashSet",
    },
    RuleInfo {
        id: HOT_PATH_PANIC,
        scope: "sim, core",
        summary: "no .unwrap()/panic!/unreachable!/todo!/unimplemented! in engine hot paths; use expect(\"<invariant>\") or restructure",
    },
    RuleInfo {
        id: WEAK_EXPECT,
        scope: "sim, core",
        summary: "expect() messages must name the violated invariant (>= 8 chars), not restate the Option",
    },
    RuleInfo {
        id: NONDETERMINISM,
        scope: "all crates except bench::timer",
        summary: "no Instant/SystemTime/thread_rng/RandomState: simulations must be bit-deterministic across runs and thread counts",
    },
    RuleInfo {
        id: VEC_VEC,
        scope: "sim, core",
        summary: "no Vec<Vec<..>> hot structures; use a packed flat array with stride indexing (PR 2 layout rule)",
    },
    RuleInfo {
        id: FLOAT_STATS,
        scope: "sim, core",
        summary: "no f32/f64 fields in *Stats*/*Counts* structs; integer counters only (float accumulation is summation-order-sensitive)",
    },
    RuleInfo {
        id: MODULE_DOC,
        scope: "all crates",
        summary: "every source file opens with a //! module doc comment",
    },
    RuleInfo {
        id: ZERO_DELTA_SCHEDULE,
        scope: "sim, core",
        summary: "no schedule(now, ..)/schedule_in(0, ..) zero-delta self-schedules; call the handler directly instead of paying a calendar round-trip",
    },
    RuleInfo {
        id: PROBE_SPAN_BALANCE,
        scope: "sim, core",
        summary: "every probe .span_enter( must have a matching .span_exit( in the same function (an unclosed span corrupts trace nesting)",
    },
    RuleInfo {
        id: SHARD_REACHABILITY,
        scope: "sim shard-domain modules (sm.rs, cache.rs, tlb.rs) + ShardLane entry points + workspace call graph",
        summary: "no call path (and no direct reference) from shard-domain code or a ShardLane entry point to shared-domain state (PageWalkSystem/PwCache/Dram/Uvm); cross-domain work goes through scheduled events that pay the window latency (DESIGN.md \u{a7}11, \u{a7}13)",
    },
    RuleInfo {
        id: MAP_ITERATION_DETERMINISM,
        scope: "all crates (order-sensitive fns)",
        summary: "hash-map iteration feeding digests, event scheduling, or state serialization must go through a sorted adapter (collect+sort or fxhash::sorted_*) (DESIGN.md \u{a7}13)",
    },
    RuleInfo {
        id: CACHE_KEY_COMPLETENESS,
        scope: "cache-key owner files (config.rs, policy.rs, system.rs, spec.rs)",
        summary: "no `..` rest patterns inside key_digest functions; destructure exhaustively so a new field that is not folded into the result-cache key is a compile error (DESIGN.md \u{a7}12)",
    },
];

/// One lint hit, suppressed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of the `pub const` ids above).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// `true` if suppressed by `lint:allow` / a reasoned exemption
    /// marker / rule-level config; such findings are reported in JSON
    /// but do not fail the run.
    pub allowed: bool,
}

/// Rule-level allow configuration (from `--allow` / `AVATAR_LINT_ALLOW`).
#[derive(Debug, Default, Clone)]
pub struct Config {
    allowed_rules: Vec<String>,
}

impl Config {
    /// Reads `AVATAR_LINT_ALLOW` (comma-separated rule ids, or `all`).
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("AVATAR_LINT_ALLOW") {
            cfg.allow_list(&v);
        }
        cfg
    }

    /// Adds a comma-separated list of rule ids to the allow set.
    pub fn allow_list(&mut self, list: &str) {
        for id in list.split(',') {
            let id = id.trim();
            if !id.is_empty() {
                self.allowed_rules.push(id.to_string());
            }
        }
    }

    /// Whether `rule` has been downgraded to allow.
    pub fn is_allowed(&self, rule: &str) -> bool {
        self.allowed_rules.iter().any(|r| r == rule || r == "all")
    }
}

/// Result of a lint run.
#[derive(Debug)]
pub struct Report {
    /// All findings, deny and allowed, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Analysis wall time in milliseconds (filled by the CLI; 0 in
    /// library use).
    pub wall_ms: u64,
}

impl Report {
    /// Findings that fail the run (not suppressed).
    pub fn deny(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.deny().count()
    }

    /// Number of suppressed findings.
    pub fn allowed_count(&self) -> usize {
        self.findings.len() - self.deny_count()
    }

    /// `(deny, allowed)` finding counts for one rule id.
    pub fn rule_counts(&self, rule: &str) -> (usize, usize) {
        let mut deny = 0;
        let mut allowed = 0;
        for f in &self.findings {
            if f.rule == rule {
                if f.allowed {
                    allowed += 1;
                } else {
                    deny += 1;
                }
            }
        }
        (deny, allowed)
    }

    /// `file:line: [rule-id] message` lines; deny findings always,
    /// suppressed ones too when `show_allowed`.
    pub fn to_text(&self, show_allowed: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.allowed && !show_allowed {
                continue;
            }
            let tag = if f.allowed { " (allowed)" } else { "" };
            out.push_str(&format!("{}:{}: [{}] {}{}\n", f.file, f.line, f.rule, f.message, tag));
        }
        out
    }

    /// Machine-readable report for CI archival, with per-rule counts
    /// and analysis wall time.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": \"avatar-lint/3\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"deny\": {},\n", self.deny_count()));
        s.push_str(&format!("  \"allowed\": {},\n", self.allowed_count()));
        s.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        s.push_str("  \"rules\": [\n");
        for (i, r) in RULES.iter().enumerate() {
            let (deny, allowed) = self.rule_counts(r.id);
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"deny\": {}, \"allowed\": {}}}{}\n",
                r.id,
                deny,
                allowed,
                if i + 1 == RULES.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let level = if f.allowed { "allowed" } else { "deny" };
            s.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"level\": \"{}\", \"message\": \"{}\"}}{}\n",
                json_escape(&f.file),
                f.line,
                f.rule,
                level,
                json_escape(&f.message),
                if i + 1 == self.findings.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Source preprocessing: test-block marking and marker parsing. The
// comment/string stripping itself lives in [`lexer::strip_lines`].
// ---------------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Marks lines belonging to `#[cfg(test)]` items (the attribute line
/// through the item's closing brace, or its `;` for non-block items).
pub(crate) fn mark_tests(code: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        let Some(pos) = code[i].find("#[cfg(test)]") else {
            i += 1;
            continue;
        };
        let start = i;
        let mut depth: i64 = 0;
        let mut entered = false;
        let mut end = code.len() - 1; // unterminated item: to EOF
        let mut j = i;
        'scan: while j < code.len() {
            let line = &code[j];
            let skip = if j == i { (pos + "#[cfg(test)]".len()).min(line.len()) } else { 0 };
            for &b in line.as_bytes()[skip..].iter() {
                match b {
                    b'{' => {
                        depth += 1;
                        entered = true;
                    }
                    b'}' => {
                        depth -= 1;
                        if entered && depth <= 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    b';' if !entered => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        for t in is_test.iter_mut().take(end + 1).skip(start) {
            *t = true;
        }
        i = end + 1;
    }
    is_test
}

/// Rule ids named by `lint:allow(a, b)` markers on this raw line.
fn parse_allows(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(p) = rest.find("lint:allow(") {
        let after = &rest[p + "lint:allow(".len()..];
        let Some(close) = after.find(')') else { break };
        for id in after[..close].split(',') {
            let id = id.trim();
            if !id.is_empty() {
                out.push(id.to_string());
            }
        }
        rest = &after[close..];
    }
    out
}

/// First boundary-checked occurrence of identifier-ish token `tok`.
fn find_token(line: &str, tok: &str) -> Option<usize> {
    let lb = line.as_bytes();
    let mut from = 0usize;
    while let Some(p) = line[from..].find(tok) {
        let at = from + p;
        let end = at + tok.len();
        let pre_ok = at == 0 || !is_ident_byte(lb[at - 1]);
        let post_ok = end >= lb.len() || !is_ident_byte(lb[end]);
        if pre_ok && post_ok {
            return Some(at);
        }
        from = end;
    }
    None
}

pub(crate) fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return &rest[..slash];
        }
    }
    "root"
}

// ---------------------------------------------------------------------------
// Rule application.
// ---------------------------------------------------------------------------

/// Lints a single source file (given as text) into `out`, applying the
/// *local* rules only — the semantic rules need the whole workspace and
/// run in [`lint_sources`]. `rel` is the workspace-relative path and
/// determines which crate-scoped rules fire.
pub fn lint_source(rel: &str, source: &str, cfg: &Config, out: &mut Vec<Finding>) {
    let raw: Vec<&str> = source.lines().collect();
    let lexed = lexer::lex(source);
    let code = lexer::strip_lines(source, &lexed);
    let is_test = mark_tests(&code);
    let allows: Vec<Vec<String>> = raw.iter().map(|l| parse_allows(l)).collect();
    let krate = crate_of(rel);
    let hot = matches!(krate, "sim" | "core");

    let mut emit = |rule: &'static str, line: usize, message: String| {
        let l0 = line - 1;
        let escaped = allows
            .get(l0)
            .map(|a| a.iter().any(|r| r == rule || r == "all"))
            .unwrap_or(false)
            || (l0 > 0
                && allows
                    .get(l0 - 1)
                    .map(|a| a.iter().any(|r| r == rule || r == "all"))
                    .unwrap_or(false));
        out.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            message,
            allowed: escaped || cfg.is_allowed(rule),
        });
    };

    // module-doc: first non-blank line must open a `//!` doc comment.
    if let Some((idx, first)) = raw.iter().enumerate().find(|(_, l)| !l.trim().is_empty()) {
        if !first.trim_start().starts_with("//!") {
            emit(
                MODULE_DOC,
                idx + 1,
                "source file must open with a //! module doc comment".to_string(),
            );
        }
    }

    for (idx, cl) in code.iter().enumerate() {
        if is_test[idx] {
            continue;
        }
        let n = idx + 1;

        if find_token(cl, "HashMap").is_some() || find_token(cl, "HashSet").is_some() {
            emit(
                DEFAULT_COLLECTIONS,
                n,
                "default-hasher std collection; use avatar_sim::fxhash::FxHashMap/FxHashSet (SipHash is ~10x slower on integer keys)"
                    .to_string(),
            );
        }

        if rel != TIMER_FILE {
            for tok in ["Instant", "SystemTime", "thread_rng", "RandomState", "from_entropy"] {
                if find_token(cl, tok).is_some() {
                    emit(
                        NONDETERMINISM,
                        n,
                        format!("`{tok}` breaks bit-determinism; wall-clock/entropy belongs in bench::timer only"),
                    );
                    break;
                }
            }
        }

        if hot {
            if cl.contains(".unwrap()") {
                emit(
                    HOT_PATH_PANIC,
                    n,
                    "unwrap() in a hot-path crate; use expect(\"<invariant>\") naming the violated invariant, or restructure"
                        .to_string(),
                );
            }
            for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
                if find_token(cl, mac).is_some() {
                    emit(
                        HOT_PATH_PANIC,
                        n,
                        format!("`{mac}` in a hot-path crate; engine code must degrade via expect(\"<invariant>\") or Result"),
                    );
                    break;
                }
            }

            let mut from = 0usize;
            while let Some(p) = cl[from..].find(".expect(\"") {
                let at = from + p + ".expect(\"".len();
                match cl[at..].find('"') {
                    Some(close) => {
                        if close < MIN_EXPECT_LEN {
                            emit(
                                WEAK_EXPECT,
                                n,
                                format!(
                                    "expect message is {close} chars; name the violated invariant (>= {MIN_EXPECT_LEN} chars)"
                                ),
                            );
                        }
                        from = at + close + 1;
                    }
                    None => break,
                }
            }

            let compact: String = cl.chars().filter(|c| !c.is_whitespace()).collect();
            if compact.contains("Vec<Vec<") {
                emit(
                    VEC_VEC,
                    n,
                    "Vec<Vec<..>> hot structure; use a packed flat array with stride indexing (see DESIGN.md)".to_string(),
                );
            }

            // zero-delta-schedule: `schedule(now, ..)` / `schedule_in(0, ..)`
            // on the whitespace-compacted line, with an identifier boundary
            // before `schedule` so `schedule_l1_access(now, ..)` (a direct
            // call that happens to take the clock) is not a hit. Note
            // `schedule(now + 1, ..)` compacts to `schedule(now+1,` and
            // misses the pattern, as intended.
            'zds: for pat in ["schedule(now,", "schedule_in(0,"] {
                let cb = compact.as_bytes();
                let mut from = 0usize;
                while let Some(p) = compact[from..].find(pat) {
                    let at = from + p;
                    if at == 0 || !is_ident_byte(cb[at - 1]) {
                        emit(
                            ZERO_DELTA_SCHEDULE,
                            n,
                            "zero-delta self-schedule; a same-cycle event pays a calendar round-trip for no model effect — call the handler directly"
                                .to_string(),
                        );
                        break 'zds;
                    }
                    from = at + pat.len();
                }
            }
        }
    }

    // cache-key-completeness: scoped to the files that own a result-cache
    // key_digest — rest patterns are fine everywhere else.
    if KEY_OWNER_FILES.contains(&rel) {
        for (line, message) in cache_key_findings(&code, &is_test) {
            emit(CACHE_KEY_COMPLETENESS, line, message);
        }
    }

    if hot {
        for (line, message) in float_stats_findings(&code, &is_test) {
            emit(FLOAT_STATS, line, message);
        }
        for (line, message) in probe_span_balance_findings(&code, &is_test) {
            emit(PROBE_SPAN_BALANCE, line, message);
        }
    }
}

/// Lints a set of source files as one workspace: local rules per file,
/// then the semantic rules (item graph, call graph) across the set.
/// `files` holds `(workspace-relative path, source text)` pairs.
pub fn lint_sources(files: &[(String, String)], cfg: &Config) -> Report {
    let mut findings = Vec::new();
    for (rel, src) in files {
        lint_source(rel, src, cfg, &mut findings);
    }
    semantic::lint(files, cfg, &mut findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Report { findings, files_scanned: files.len(), wall_ms: 0 }
}

/// `..` rest patterns inside `fn key_digest` bodies (brace-tracked,
/// non-test lines only). A rest pattern's `..` always immediately
/// precedes the closing `}` of its struct pattern, so the detector is
/// `..}` on the whitespace-compacted line — range expressions
/// (`0..n`, `..=hi`, `&x[..]`) never put `}` directly after the dots.
fn cache_key_findings(code: &[String], is_test: &[bool]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    let mut active = false; // inside a key_digest fn
    let mut entered = false; // its body brace seen
    let mut depth_at: i64 = 0; // depth where the fn keyword appeared
    for (idx, line) in code.iter().enumerate() {
        if is_test[idx] {
            continue;
        }
        if !active {
            if let Some(p) = find_token(line, "fn") {
                if line[p + 2..].trim_start().starts_with("key_digest") {
                    active = true;
                    entered = false;
                    depth_at = depth;
                }
            }
        }
        if active {
            let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
            if compact.contains("..}") {
                out.push((
                    idx + 1,
                    "rest pattern `..` inside a cache-key digest; destructure every field \
                     so a new field that is not folded into the key fails to compile"
                        .to_string(),
                ));
            }
        }
        for b in line.bytes() {
            match b {
                b'{' => {
                    depth += 1;
                    if active && !entered && depth == depth_at + 1 {
                        entered = true;
                    }
                }
                b'}' => {
                    depth -= 1;
                    if active && entered && depth <= depth_at {
                        active = false;
                    }
                }
                b';' if active && !entered && depth == depth_at => {
                    // Bodyless declaration (trait method): no body to scan.
                    active = false;
                }
                _ => {}
            }
        }
    }
    out
}

/// Functions whose `.span_enter(` and `.span_exit(` call counts differ
/// (brace-tracked, non-test lines only). Findings anchor at the `fn`
/// keyword's line, so a `lint:allow` above the signature escapes the
/// whole function (forwarding shims).
fn probe_span_balance_findings(code: &[String], is_test: &[bool]) -> Vec<(usize, String)> {
    struct Frame {
        line: usize,
        depth_at: i64,
        entered: bool,
        enters: u32,
        exits: u32,
    }
    let mut out = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut depth: i64 = 0;
    for (idx, line) in code.iter().enumerate() {
        if is_test[idx] {
            continue;
        }
        let lb = line.as_bytes();
        let mut i = 0usize;
        while i < lb.len() {
            if lb[i] == b'f'
                && line[i..].starts_with("fn")
                && (i == 0 || !is_ident_byte(lb[i - 1]))
                && (i + 2 >= lb.len() || !is_ident_byte(lb[i + 2]))
            {
                stack.push(Frame {
                    line: idx + 1,
                    depth_at: depth,
                    entered: false,
                    enters: 0,
                    exits: 0,
                });
                i += 2;
            } else if lb[i] == b'.' && line[i..].starts_with(".span_enter(") {
                if let Some(top) = stack.last_mut() {
                    top.enters += 1;
                }
                i += ".span_enter(".len();
            } else if lb[i] == b'.' && line[i..].starts_with(".span_exit(") {
                if let Some(top) = stack.last_mut() {
                    top.exits += 1;
                }
                i += ".span_exit(".len();
            } else {
                match lb[i] {
                    b'{' => {
                        depth += 1;
                        if let Some(top) = stack.last_mut() {
                            if !top.entered && depth == top.depth_at + 1 {
                                top.entered = true;
                            }
                        }
                    }
                    b'}' => {
                        depth -= 1;
                        if let Some(top) = stack.last() {
                            if top.entered && depth <= top.depth_at {
                                let f = stack.pop().expect("frame stack top just observed");
                                if f.enters != f.exits {
                                    out.push((
                                        f.line,
                                        format!(
                                            "function has {} span_enter but {} span_exit probe calls; every span must open and close in the same function",
                                            f.enters, f.exits
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                    b';' => {
                        // A bodyless `fn` item (trait method declaration,
                        // `fn`-pointer type alias) terminates its frame.
                        if let Some(top) = stack.last() {
                            if !top.entered && depth == top.depth_at {
                                stack.pop();
                            }
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    out
}

/// `f32`/`f64` fields inside `struct` declarations whose name contains
/// `Stats` or `Counts` (brace-tracked, non-test lines only).
fn float_stats_findings(code: &[String], is_test: &[bool]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut active: Option<(i64, bool)> = None; // (brace depth, body entered)
    for (idx, line) in code.iter().enumerate() {
        if is_test[idx] {
            continue;
        }
        if active.is_none() {
            if let Some(p) = find_token(line, "struct") {
                let rest = &line[p + "struct".len()..];
                let name: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if name.contains("Stats") || name.contains("Counts") {
                    active = Some((0, false));
                }
            }
        }
        if let Some((ref mut depth, ref mut entered)) = active {
            let mut unit_struct = false;
            for b in line.bytes() {
                match b {
                    b'{' => {
                        *depth += 1;
                        *entered = true;
                    }
                    b'}' => *depth -= 1,
                    b';' if !*entered => unit_struct = true,
                    _ => {}
                }
            }
            if *entered
                && *depth > 0
                && (find_token(line, "f32").is_some() || find_token(line, "f64").is_some())
            {
                out.push((
                    idx + 1,
                    "float field in a Stats/Counts struct; counters must be integers (float accumulation is summation-order-sensitive)"
                        .to_string(),
                ));
            }
            if (*entered && *depth <= 0) || unit_struct {
                active = None;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// All `.rs` files under `<root>/src` and `<root>/crates/*/src`, sorted.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        dirs.push(src);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        members.sort();
        for m in members {
            let s = m.join("src");
            if s.is_dir() {
                dirs.push(s);
            }
        }
    }
    let mut files = Vec::new();
    for d in &dirs {
        collect_rs(d, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace source file under `root` (local + semantic
/// rules), as `(workspace-relative path, contents)` pairs sorted by path.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let rel = match f.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => f.to_string_lossy().replace('\\', "/"),
        };
        sources.push((rel, fs::read_to_string(f)?));
    }
    Ok(lint_sources(&sources, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_source(rel, src, &Config::default(), &mut out);
        out
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = "//! Doc mentioning HashMap and Instant.\n\
                   // std::collections::HashMap in a comment\n\
                   pub fn f() -> &'static str { \"HashMap Instant panic!\" }\n";
        assert!(findings("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn byte_raw_strings_and_nested_comments_do_not_trip_rules() {
        // The PR 3 scanner documented these as unmodeled gaps; the
        // lexer-backed stripper must see through both.
        let src = "//! Doc.\n\
                   pub fn f() -> &'static [u8] { br\"HashMap Instant\" }\n\
                   pub fn g() -> &'static [u8] { br#\"Vec<Vec<u8>> panic!\"# }\n\
                   /* outer /* SystemTime inner */ still stripped */\n\
                   pub fn h() -> u64 { 0 }\n";
        assert!(findings("crates/sim/src/x.rs", src).is_empty(), "{:#?}", findings("crates/sim/src/x.rs", src));
    }

    #[test]
    fn fx_prefixed_names_are_not_hits() {
        let src = "//! Doc.\nuse avatar_sim::fxhash::FxHashMap;\ntype M = FxHashMap<u64, u64>;\n";
        assert!(findings("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "//! Doc.\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       fn f() { let x: Option<u32> = None; x.unwrap(); }\n\
                   }\n";
        assert!(findings("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn lint_allow_suppresses_but_reports() {
        let src = "//! Doc.\n\
                   // lint:allow(default-collections)\n\
                   use std::collections::HashMap;\n";
        let f = findings("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
        assert_eq!(f[0].rule, DEFAULT_COLLECTIONS);
    }

    #[test]
    fn weak_expect_measures_blanked_span() {
        let src = "//! Doc.\nfn f(x: Option<u32>) -> u32 { x.expect(\"spec\") }\n";
        let f = findings("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, WEAK_EXPECT);
        assert_eq!(f[0].line, 2);
        let src_ok = "//! Doc.\nfn f(x: Option<u32>) -> u32 { x.expect(\"spec table has an entry per in-flight req\") }\n";
        assert!(findings("crates/sim/src/x.rs", src_ok).is_empty());
    }

    #[test]
    fn scoped_rules_skip_cold_crates() {
        // unwrap/Vec<Vec< are a sim/core discipline; bpc is out of scope.
        let src = "//! Doc.\nfn f(x: Option<u32>) -> u32 { let _v: Vec<Vec<u8>> = vec![]; x.unwrap() }\n";
        assert!(findings("crates/bpc/src/x.rs", src).is_empty());
        assert_eq!(findings("crates/sim/src/x.rs", src).len(), 2);
    }

    #[test]
    fn float_stats_only_fires_inside_stats_structs() {
        let src = "//! Doc.\n\
                   pub struct Stats {\n\
                       pub hits: u64,\n\
                       pub rate: f64,\n\
                   }\n\
                   pub struct Point {\n\
                       pub x: f64,\n\
                   }\n";
        let f = findings("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, FLOAT_STATS);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn env_style_config_downgrades_rules() {
        let mut cfg = Config::default();
        cfg.allow_list("nondeterminism, vec-vec");
        let mut out = Vec::new();
        lint_source(
            "crates/sim/src/x.rs",
            "//! Doc.\nuse std::time::Instant;\n",
            &cfg,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].allowed);
    }

    #[test]
    fn zero_delta_schedule_boundaries() {
        // Zero-delta forms fire, whether or not spaces appear.
        let bad = "//! Doc.\nfn f(&mut self, now: u64) { self.q.schedule(now, Ev::Tick); }\n";
        let f = findings("crates/sim/src/x.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, ZERO_DELTA_SCHEDULE);
        let bad2 = "//! Doc.\nfn f(&mut self) { self.q.schedule_in( 0 , Ev::Tick); }\n";
        assert_eq!(findings("crates/sim/src/x.rs", bad2).len(), 1);
        // Non-zero deltas, direct calls that take the clock, and cold
        // crates are all out of scope.
        for ok in [
            "//! Doc.\nfn f(&mut self, now: u64) { self.q.schedule(now + 1, Ev::Tick); }\n",
            "//! Doc.\nfn f(&mut self, now: u64) { self.schedule_l1_access(now, 7); }\n",
            "//! Doc.\nfn f(&mut self) { self.q.schedule_in(1, Ev::Tick); }\n",
        ] {
            assert!(findings("crates/sim/src/x.rs", ok).is_empty(), "false hit on: {ok}");
        }
        let cold = "//! Doc.\nfn f(&mut self, now: u64) { self.q.schedule(now, Ev::Tick); }\n";
        assert!(findings("crates/bench/src/x.rs", cold).is_empty());
    }

    #[test]
    fn probe_span_balance_catches_unclosed_spans() {
        let bad = "//! Doc.\n\
                   fn f(&mut self, now: u64) {\n\
                       self.probe.span_enter(SpanPoint::FastPath, t, now);\n\
                   }\n";
        let f = findings("crates/sim/src/x.rs", bad);
        assert_eq!(f.len(), 1, "unbalanced: {f:#?}");
        assert_eq!(f[0].rule, PROBE_SPAN_BALANCE);
        assert_eq!(f[0].line, 2, "finding anchors at the fn keyword");
        // Balanced pairs — even across branches — are fine.
        let ok = "//! Doc.\n\
                  fn f(&mut self, now: u64, done: u64) {\n\
                      self.probe.span_enter(SpanPoint::FastPath, t, now);\n\
                      if done > now {\n\
                          self.probe.span_exit(SpanPoint::FastPath, t, done);\n\
                      } else {\n\
                          self.probe.span_exit(SpanPoint::FastPath, t, now);\n\
                      }\n\
                  }\n";
        let f = findings("crates/sim/src/x.rs", ok);
        assert_eq!(f.len(), 1, "two exits for one enter is also an imbalance");
        // An exit with no enter fires too.
        let exit_only = "//! Doc.\nfn f(&mut self) { self.probe.span_exit(p, t, 0); }\n";
        assert_eq!(findings("crates/sim/src/x.rs", exit_only).len(), 1);
    }

    #[test]
    fn probe_span_balance_scopes_and_shapes() {
        // Trait declarations (bodyless fns) and fn names *called*
        // without a dot are not call pairs.
        let decls = "//! Doc.\n\
                     pub trait Probe {\n\
                         fn span_enter(&mut self, at: u64);\n\
                         fn span_exit(&mut self, at: u64);\n\
                     }\n\
                     fn span_enter_shim(x: u64) -> u64 { x }\n";
        assert!(findings("crates/sim/src/x.rs", decls).is_empty());
        // Nested functions balance independently: the outer is clean,
        // the inner leaks.
        let nested = "//! Doc.\n\
                      fn outer(&mut self) {\n\
                          self.probe.span_enter(p, t, 0);\n\
                          fn inner(h: &mut Hub) {\n\
                              h.span_exit(p, t, 1);\n\
                          }\n\
                          self.probe.span_exit(p, t, 2);\n\
                      }\n";
        let f = findings("crates/sim/src/x.rs", nested);
        assert_eq!(f.len(), 1, "inner fn imbalance: {f:#?}");
        assert_eq!(f[0].line, 4);
        // lint:allow above the fn signature escapes the whole function
        // (a forwarding shim that passes one half of a span to a sink).
        let shim = "//! Doc.\n\
                    // lint:allow(probe-span-balance)\n\
                    pub fn span_enter(&mut self, at: u64) {\n\
                        if let Some(s) = &mut self.sink { s.span_enter(at); }\n\
                    }\n";
        let f = findings("crates/sim/src/x.rs", shim);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed, "allow above the signature must downgrade");
        // Cold crates are out of scope.
        let bad = "//! Doc.\nfn f(&mut self) { self.probe.span_enter(p, t, 0); }\n";
        assert!(findings("crates/bench/src/x.rs", bad).is_empty());
    }

    #[test]
    fn cache_key_completeness_scopes_and_shapes() {
        let bad = "//! Doc.\n\
                   pub fn key_digest(c: &Cfg) -> u64 {\n\
                       let Cfg { sms, .. } = c;\n\
                       *sms\n\
                   }\n";
        // Fires in every key-owner file...
        for file in [
            "crates/sim/src/config.rs",
            "crates/core/src/policy.rs",
            "crates/core/src/system.rs",
            "crates/workloads/src/spec.rs",
        ] {
            let f = findings(file, bad);
            assert_eq!(f.len(), 1, "must fire in {file}: {f:#?}");
            assert_eq!(f[0].rule, CACHE_KEY_COMPLETENESS);
            assert_eq!(f[0].line, 3);
        }
        // ...but nowhere else, even in the same crates.
        for file in ["crates/sim/src/engine.rs", "crates/core/src/cast.rs", "crates/bench/src/cache.rs"]
        {
            assert!(findings(file, bad).is_empty(), "false hit in {file}");
        }
        // Rest patterns outside key_digest in a key-owner file are fine.
        let other_fn = "//! Doc.\n\
                        pub fn label(c: &Cfg) -> u64 {\n\
                            let Cfg { sms, .. } = c;\n\
                            *sms\n\
                        }\n";
        assert!(findings("crates/sim/src/config.rs", other_fn).is_empty());
        // Range expressions inside key_digest are not rest patterns.
        let ranges = "//! Doc.\n\
                      pub fn key_digest(v: &[u64]) -> u64 {\n\
                          let mut h = 0u64;\n\
                          for x in v[..v.len()].iter() { h ^= x; }\n\
                          for i in 0..4 { h = h.rotate_left(i); }\n\
                          h\n\
                      }\n";
        assert!(findings("crates/sim/src/config.rs", ranges).is_empty(), "ranges are clean");
        // The exhaustive form — every field named — is the sanctioned shape.
        let clean = "//! Doc.\n\
                     pub fn key_digest(c: &Cfg) -> u64 {\n\
                         let Cfg { sms, warps } = c;\n\
                         sms ^ warps\n\
                     }\n";
        assert!(findings("crates/sim/src/config.rs", clean).is_empty());
        // lint:allow escapes per site, as everywhere.
        let escaped = "//! Doc.\n\
                       pub fn key_digest(c: &Cfg) -> u64 {\n\
                           // lint:allow(cache-key-completeness)\n\
                           let Cfg { sms, .. } = c;\n\
                           *sms\n\
                       }\n";
        let f = findings("crates/sim/src/config.rs", escaped);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed);
        // A second fn after key_digest closes is out of scope again.
        let after = "//! Doc.\n\
                     pub fn key_digest(c: &Cfg) -> u64 {\n\
                         let Cfg { sms, warps } = c;\n\
                         sms ^ warps\n\
                     }\n\
                     pub fn unrelated(c: &Cfg) -> u64 {\n\
                         let Cfg { sms, .. } = c;\n\
                         *sms\n\
                     }\n";
        assert!(findings("crates/sim/src/config.rs", after).is_empty());
    }

    #[test]
    fn raw_strings_and_char_literals_survive_stripping() {
        let src = "//! Doc.\n\
                   fn f() -> (char, char, &'static str) { ('\\'', '}', r#\"Instant {\"#) }\n\
                   pub struct S<'a> { pub r: &'a str }\n";
        assert!(findings("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn lint_sources_runs_semantic_rules_and_sorts() {
        let files = vec![
            (
                "crates/sim/src/x.rs".to_string(),
                "//! Doc.\n\
                 pub struct S { pub slots: FxHashMap<u64, u64> }\n\
                 impl S {\n\
                     pub fn digest(&self) -> u64 {\n\
                         let mut h = 0u64;\n\
                         for (k, v) in self.slots.iter() { h ^= k ^ v; }\n\
                         h\n\
                     }\n\
                 }\n"
                    .to_string(),
            ),
            ("crates/sim/src/y.rs".to_string(), "//! Doc.\nuse std::time::Instant;\n".to_string()),
        ];
        let report = lint_sources(&files, &Config::default());
        assert_eq!(report.files_scanned, 2);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![MAP_ITERATION_DETERMINISM, NONDETERMINISM], "{:#?}", report.findings);
        let (deny, allowed) = report.rule_counts(MAP_ITERATION_DETERMINISM);
        assert_eq!((deny, allowed), (1, 0));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"avatar-lint/3\""));
        assert!(json.contains("\"rule\": \"map-iteration-determinism\", \"deny\": 1"));
    }
}
