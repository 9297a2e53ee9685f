//! Workspace-level semantic rules over the item graph and call graph.
//!
//! The per-file [`crate::items`] models are stitched into a workspace
//! view: struct definitions indexed by name, methods indexed by
//! `(impl target, name)`, free functions by name. Call sites are
//! extracted from body token streams and resolved *by name with typed
//! context* — `self.field.m(…)` follows declared field types,
//! `x.m(…)` follows typed params and `let x: T` locals, `T::m(…)` and
//! `crate::module::f(…)` follow the path. Receivers whose type cannot
//! be derived this way produce no edge: the analysis deliberately
//! under-approximates rather than guess (documented in DESIGN.md §13).
//!
//! Two rules run on top:
//!
//! * `shard-reachability` — no call path from a fn defined in a
//!   shard-domain module to a method of a shared-domain type (and no
//!   direct mention of one, subsuming the retired `shard-shared-state`
//!   line rule).
//! * `map-iteration-determinism` — hash-map iteration inside a fn whose
//!   results can flow into digests, event scheduling, or serialized
//!   state must go through a sorted adapter.
//!
//! Escapes for these rules are *reasoned* markers —
//! `lint:exempt(rule-id: reason)` on the flagged line or the line
//! above, with the reason held to the same ≥ [`MIN_EXPECT_LEN`]-character
//! standard as `expect` messages. A bare `lint:allow(…)` does not
//! silence them.

use crate::items::{self, FileModel, StructDef};
use crate::lexer::{self, Kind, Lexed, Token};
use crate::{
    crate_of, mark_tests, Config, Finding, MAP_ITERATION_DETERMINISM, MIN_EXPECT_LEN,
    SHARD_DOMAIN_FILES, SHARD_ENTRY_TYPES, SHARD_REACHABILITY, SHARED_DOMAIN_TYPES,
};
use std::collections::{BTreeMap, BTreeSet};

/// Hash-map heads whose iteration order is seed/layout dependent.
const MAP_HEADS: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Iterator-producing methods that expose a map's internal order.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter"];

/// Order-insensitive chain terminals: a statement ending in one of
/// these cannot leak iteration order.
const ORDER_FREE_TERMINALS: &[&str] =
    &["sum", "count", "min", "max", "min_by_key", "max_by_key", "all", "any", "len", "product"];

/// Idents whose presence in a fn body marks it as an order-sensitive
/// sink (results can flow into digests or the event calendar).
const SINK_BODY_IDENTS: &[&str] = &["schedule", "schedule_in", "digest", "key_digest"];

/// Fn names that are sinks by themselves (serialization order is part
/// of the saved format; digests fold in visit order).
const SINK_FN_NAMES: &[&str] = &["save_state", "load_state", "digest", "key_digest"];

/// Everything the semantic pass needs about one file.
struct FileCtx<'s> {
    rel: &'s str,
    src: &'s str,
    lexed: Lexed,
    /// Per-line `#[cfg(test)]` marks (0-based index = line - 1).
    is_test: Vec<bool>,
    model: FileModel,
    /// Per-line reasoned exemption markers: `(rule-id, reason)`.
    exempts: Vec<Vec<(String, String)>>,
}

impl FileCtx<'_> {
    fn line_is_test(&self, line: u32) -> bool {
        self.is_test.get(line as usize - 1).copied().unwrap_or(false)
    }

    /// `sm.rs` from `crates/sim/src/sm.rs` (for path rendering).
    fn file_name(&self) -> &str {
        self.rel.rsplit('/').next().unwrap_or(self.rel)
    }

    /// `sm` from `crates/sim/src/sm.rs` (for module-path hints).
    fn stem(&self) -> &str {
        self.file_name().strip_suffix(".rs").unwrap_or(self.file_name())
    }

    /// Whether the 0-based line holds nothing but a `//` comment — used
    /// to let an exemption marker sit at the head of a multi-line
    /// explanation block above the flagged line.
    fn line_is_comment(&self, l0: usize) -> bool {
        self.src.lines().nth(l0).is_some_and(|l| l.trim_start().starts_with("//"))
    }
}

/// `(file index, fn index within that file's model)`.
type FnId = (usize, usize);

/// The stitched workspace view plus the extracted call graph.
struct Workspace<'s> {
    files: Vec<FileCtx<'s>>,
    /// Struct name → every definition site.
    structs: BTreeMap<String, Vec<(usize, usize)>>,
    /// `(impl target, method name)` → definition sites.
    methods: BTreeMap<(String, String), Vec<FnId>>,
    /// Free fn name → definition sites.
    free_fns: BTreeMap<String, Vec<FnId>>,
    /// Call edges: caller → `(callee, call-site line)` in body order.
    calls: BTreeMap<FnId, Vec<(FnId, u32)>>,
}

/// Parses reasoned exemption markers from one raw source line:
/// `lint:exempt(rule-id: reason)` and the trailing-reason form
/// `lint:exempt(rule-id): reason`.
fn parse_exempts(raw: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(p) = rest.find("lint:exempt(") {
        let after = &rest[p + "lint:exempt(".len()..];
        let Some(close) = after.find(')') else { break };
        let inner = &after[..close];
        if let Some((rule, reason)) = inner.split_once(':') {
            out.push((rule.trim().to_string(), reason.trim().to_string()));
        } else {
            // Bare rule id inside the parens: the reason may trail the
            // closing paren — `lint:exempt(rule): reason…` — and spill
            // onto the following comment lines.
            let reason = after[close + 1..]
                .trim_start()
                .strip_prefix([':', '—', '-'])
                .unwrap_or("")
                .trim();
            out.push((inner.trim().to_string(), reason.to_string()));
        }
        rest = &after[close..];
    }
    out
}

/// Runs the semantic pass over a set of files (workspace-relative path,
/// source text) and appends findings.
pub(crate) fn lint(files: &[(String, String)], cfg: &Config, out: &mut Vec<Finding>) {
    let mut ctxs = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let lexed = lexer::lex(src);
        let code = lexer::strip_lines(src, &lexed);
        let is_test = mark_tests(&code);
        let model = items::parse(src, &lexed, &is_test);
        let exempts = src.lines().map(parse_exempts).collect();
        ctxs.push(FileCtx { rel, src, lexed, is_test, model, exempts });
    }
    let ws = Workspace::build(ctxs);
    ws.shard_reachability(cfg, out);
    ws.map_iteration_determinism(cfg, out);
}

impl<'s> Workspace<'s> {
    fn build(files: Vec<FileCtx<'s>>) -> Self {
        let mut ws = Workspace {
            files,
            structs: BTreeMap::new(),
            methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            calls: BTreeMap::new(),
        };
        for (fi, ctx) in ws.files.iter().enumerate() {
            for (si, s) in ctx.model.structs.iter().enumerate() {
                if !s.is_test {
                    ws.structs.entry(s.name.clone()).or_default().push((fi, si));
                }
            }
            for (ni, f) in ctx.model.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                match &f.self_type {
                    Some(t) => ws
                        .methods
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push((fi, ni)),
                    None => ws.free_fns.entry(f.name.clone()).or_default().push((fi, ni)),
                }
            }
        }
        let mut calls = BTreeMap::new();
        for fi in 0..ws.files.len() {
            for ni in 0..ws.files[fi].model.fns.len() {
                let edges = ws.extract_calls((fi, ni));
                if !edges.is_empty() {
                    calls.insert((fi, ni), edges);
                }
            }
        }
        ws.calls = calls;
        ws
    }

    /// Looks up a struct definition by name with locality preference:
    /// same file, then same crate, then a globally unique definition.
    fn struct_def(&self, name: &str, from_file: usize) -> Option<&StructDef> {
        let sites = self.structs.get(name)?;
        let here = self.files[from_file].rel;
        if let Some(&(fi, si)) = sites.iter().find(|&&(fi, _)| self.files[fi].rel == here) {
            return Some(&self.files[fi].model.structs[si]);
        }
        let my_crate = crate_of(here);
        let in_crate: Vec<_> =
            sites.iter().filter(|&&(fi, _)| crate_of(self.files[fi].rel) == my_crate).collect();
        if let [&(fi, si)] = in_crate.as_slice() {
            return Some(&self.files[fi].model.structs[si]);
        }
        if let [(fi, si)] = sites.as_slice() {
            return Some(&self.files[*fi].model.structs[*si]);
        }
        None
    }

    /// Resolves a free-fn call by name. `module_hint` is the last
    /// lowercase path segment before the name (`crate::addr::f` →
    /// `addr`), matched against file stems.
    fn resolve_free(&self, name: &str, from_file: usize, module_hint: Option<&str>) -> Vec<FnId> {
        let Some(sites) = self.free_fns.get(name) else { return Vec::new() };
        if let Some(hint) = module_hint {
            let hinted: Vec<FnId> = sites
                .iter()
                .copied()
                .filter(|&(fi, _)| self.files[fi].stem() == hint)
                .collect();
            if !hinted.is_empty() {
                return hinted;
            }
        }
        let same_file: Vec<FnId> =
            sites.iter().copied().filter(|&(fi, _)| fi == from_file).collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let my_crate = crate_of(self.files[from_file].rel);
        let in_crate: Vec<FnId> = sites
            .iter()
            .copied()
            .filter(|&(fi, _)| crate_of(self.files[fi].rel) == my_crate)
            .collect();
        if in_crate.len() == 1 {
            return in_crate;
        }
        if sites.len() == 1 {
            return sites.clone();
        }
        Vec::new() // ambiguous: no edge rather than a guessed one
    }

    /// The head identifier of a type, seen through references and the
    /// standard single-element containers: `&mut Vec<Walker>` → `Walker`
    /// when `unwrap_containers`, `Walker`/`Vec` otherwise.
    fn ty_head(ty: &str, unwrap_containers: bool) -> Option<String> {
        let mut t = ty.trim();
        loop {
            t = t.trim_start_matches(['&', ' ']).trim();
            if let Some(rest) = t.strip_prefix("mut ") {
                t = rest;
            } else if let Some(rest) = t.strip_prefix("dyn ") {
                t = rest;
            } else if t.starts_with('\'') {
                // Lifetime: skip the ident run.
                let end = t[1..]
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .map_or(t.len(), |p| p + 1);
                t = &t[end..];
            } else if let Some(inner) = t.strip_prefix('[') {
                // Array/slice: recurse on the element type.
                let end = inner.find([';', ']']).unwrap_or(inner.len());
                return Self::ty_head(&inner[..end], unwrap_containers);
            } else {
                break;
            }
        }
        // Path: take the last `::` segment before any generics.
        let head_end = t.find('<').unwrap_or(t.len());
        let path = &t[..head_end];
        let head = path.rsplit("::").next().unwrap_or(path).trim();
        if head.is_empty() || !head.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
            return None;
        }
        if unwrap_containers && matches!(head, "Vec" | "Option" | "Box" | "VecDeque") {
            if let Some(open) = t.find('<') {
                // First top-level generic argument.
                let args = &t[open + 1..t.rfind('>').unwrap_or(t.len())];
                let mut depth = 0i64;
                let mut end = args.len();
                for (i, c) in args.char_indices() {
                    match c {
                        '<' | '(' | '[' => depth += 1,
                        '>' | ')' | ']' => depth -= 1,
                        ',' if depth == 0 => {
                            end = i;
                            break;
                        }
                        _ => {}
                    }
                }
                return Self::ty_head(&args[..end], true);
            }
        }
        Some(head.to_string())
    }

    /// Explicitly-typed `let` locals of a fn body: `let [mut] name: T`.
    fn typed_locals(&self, id: FnId) -> BTreeMap<String, String> {
        let ctx = &self.files[id.0];
        let mut out = BTreeMap::new();
        let Some((lo, hi)) = ctx.model.fns[id.1].body else { return out };
        let toks = &ctx.lexed.tokens[lo..hi];
        let mut i = 0;
        while i < toks.len() {
            if toks[i].kind == Kind::Ident && toks[i].text(ctx.src) == "let" {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.kind == Kind::Ident && t.text(ctx.src) == "mut") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind == Kind::Ident)
                    && toks.get(j + 1).is_some_and(|t| {
                        t.kind == Kind::Punct
                            && t.text(ctx.src) == ":"
                            && !toks
                                .get(j + 2)
                                .is_some_and(|n| n.kind == Kind::Punct && n.text(ctx.src) == ":")
                    })
                {
                    let name = toks[j].text(ctx.src).to_string();
                    // Type tokens until `=` or `;` at relative depth 0.
                    let from = j + 2;
                    let mut k = from;
                    let mut depth = 0i64;
                    while k < toks.len() {
                        match toks[k].kind {
                            Kind::Open => depth += 1,
                            Kind::Close => depth -= 1,
                            Kind::Punct if depth <= 0 => {
                                let t = toks[k].text(ctx.src);
                                if t == "=" || t == ";" {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    let ty = items::join_tokens(ctx.src, &toks[from..k]);
                    out.insert(name, ty);
                    i = k;
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    /// Resolves the declared type head of `root(.field)*` inside fn
    /// `id`. `locals` may be pre-computed via [`Self::typed_locals`].
    fn chain_type(
        &self,
        id: FnId,
        root: &str,
        fields: &[&str],
        locals: &BTreeMap<String, String>,
        unwrap_last: bool,
    ) -> Option<String> {
        let ctx = &self.files[id.0];
        let def = &ctx.model.fns[id.1];
        let root_unwrap = !fields.is_empty() || unwrap_last;
        let mut cur: String = if root == "self" {
            def.self_type.clone()?
        } else if let Some((_, ty)) = def.params.iter().find(|(n, _)| n == root) {
            Self::ty_head(ty, root_unwrap)?
        } else if let Some(ty) = locals.get(root) {
            Self::ty_head(ty, root_unwrap)?
        } else {
            return None;
        };
        for (k, field) in fields.iter().enumerate() {
            let s = self.struct_def(&cur, id.0)?;
            let f = s.fields.iter().find(|f| &f.name == field)?;
            let last = k + 1 == fields.len();
            cur = Self::ty_head(&f.ty, !last || unwrap_last)?;
        }
        Some(cur)
    }

    /// Walks a receiver chain backwards from `at` (the token *before*
    /// the `.` of a method call): returns `(root, fields)` for
    /// `root.f1.f2` shapes, skipping `[…]` index groups. Returns `None`
    /// for receivers that are themselves call results or parenthesized
    /// expressions.
    fn walk_receiver(ctx: &FileCtx, lo: usize, mut j: isize) -> Option<(String, Vec<String>)> {
        let toks = &ctx.lexed.tokens;
        let mut segs: Vec<String> = Vec::new();
        loop {
            if j < lo as isize {
                return None;
            }
            let t = &toks[j as usize];
            match t.kind {
                Kind::Close if t.text(ctx.src) == "]" => {
                    // Skip the index group back to its opener.
                    let mut depth = 0i64;
                    while j >= lo as isize {
                        match toks[j as usize].kind {
                            Kind::Close => depth += 1,
                            Kind::Open => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j -= 1;
                    }
                    j -= 1;
                }
                Kind::Ident => {
                    segs.push(t.text(ctx.src).to_string());
                    let prev = (j > lo as isize).then(|| &toks[(j - 1) as usize]);
                    if prev.is_some_and(|p| p.kind == Kind::Punct && p.text(ctx.src) == ".") {
                        j -= 2;
                    } else {
                        segs.reverse();
                        let root = segs.remove(0);
                        return Some((root, segs));
                    }
                }
                _ => return None,
            }
        }
    }

    /// Extracts resolvable call edges from one fn body.
    fn extract_calls(&self, id: FnId) -> Vec<(FnId, u32)> {
        let ctx = &self.files[id.0];
        let def = &ctx.model.fns[id.1];
        let Some((lo, hi)) = def.body else { return Vec::new() };
        if def.is_test {
            return Vec::new();
        }
        let toks = &ctx.lexed.tokens;
        let locals = self.typed_locals(id);
        let mut edges = Vec::new();
        for i in lo..hi.saturating_sub(1) {
            if toks[i].kind != Kind::Ident {
                continue;
            }
            let next = &toks[i + 1];
            if next.kind != Kind::Open || next.text(ctx.src) != "(" {
                continue;
            }
            let name = toks[i].text(ctx.src);
            if matches!(
                name,
                "if" | "while" | "for" | "match" | "return" | "loop" | "in" | "as" | "let"
                    | "else" | "move" | "fn" | "self"
            ) {
                continue;
            }
            let line = toks[i].line;
            if ctx.line_is_test(line) {
                continue;
            }
            let targets: Vec<FnId> = if i > lo
                && toks[i - 1].kind == Kind::Punct
                && toks[i - 1].text(ctx.src) == "."
            {
                // Method call: resolve the receiver chain's type.
                match Self::walk_receiver(ctx, lo, i as isize - 2) {
                    Some((root, fields)) => {
                        let fs: Vec<&str> = fields.iter().map(String::as_str).collect();
                        match self.chain_type(id, &root, &fs, &locals, true) {
                            Some(ty) => self
                                .methods
                                .get(&(ty, name.to_string()))
                                .cloned()
                                .unwrap_or_default(),
                            None => Vec::new(),
                        }
                    }
                    None => Vec::new(),
                }
            } else if i >= lo + 2
                && toks[i - 1].kind == Kind::Punct
                && toks[i - 1].text(ctx.src) == ":"
                && toks[i - 2].kind == Kind::Punct
                && toks[i - 2].text(ctx.src) == ":"
            {
                // Path call `Seg::name(…)`: a capitalized segment is a
                // type fn, a lowercase one a module-qualified free fn.
                if i >= lo + 3 && toks[i - 3].kind == Kind::Ident {
                    let seg = toks[i - 3].text(ctx.src);
                    if seg.chars().next().is_some_and(char::is_uppercase) {
                        self.methods
                            .get(&(seg.to_string(), name.to_string()))
                            .cloned()
                            .unwrap_or_default()
                    } else {
                        self.resolve_free(name, id.0, Some(seg))
                    }
                } else {
                    Vec::new()
                }
            } else {
                self.resolve_free(name, id.0, None)
            };
            for t in targets {
                if t != id {
                    edges.push((t, line));
                }
            }
        }
        edges
    }

    /// Reports a semantic finding, honoring reasoned exemption markers
    /// on the flagged line or the line above.
    fn emit(
        &self,
        file: usize,
        line: u32,
        rule: &'static str,
        mut message: String,
        cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let ctx = &self.files[file];
        let l0 = line as usize - 1;
        // The marker may sit on the flagged line, the line directly
        // above, or at the head of the contiguous comment block ending
        // directly above (a multi-line exemption explanation).
        let mut candidates = vec![l0];
        let mut k = l0;
        while k > 0 {
            k -= 1;
            candidates.push(k);
            if !ctx.line_is_comment(k) {
                break;
            }
        }
        let marker = candidates
            .into_iter()
            .filter_map(|l| ctx.exempts.get(l))
            .flatten()
            .find(|(r, _)| r == rule);
        let mut allowed = false;
        match marker {
            Some((_, reason)) if reason.trim().len() >= MIN_EXPECT_LEN => allowed = true,
            Some((_, reason)) => {
                message.push_str(&format!(
                    " (exemption reason `{reason}` is too short; name the invariant in >= {MIN_EXPECT_LEN} chars)"
                ));
            }
            None => {}
        }
        out.push(Finding {
            file: ctx.rel.to_string(),
            line: line as usize,
            rule,
            message,
            allowed: allowed || cfg.is_allowed(rule),
        });
    }

    /// Renders a fn for call-path messages: `sm.rs::tick` for free fns
    /// and inherent methods of non-shared types, `Dram::service` once
    /// the path lands in the shared domain.
    fn fn_label(&self, id: FnId) -> String {
        let ctx = &self.files[id.0];
        let f = &ctx.model.fns[id.1];
        match &f.self_type {
            Some(t) if SHARED_DOMAIN_TYPES.contains(&t.as_str()) => format!("{t}::{}", f.name),
            _ => format!("{}::{}", ctx.file_name(), f.name),
        }
    }

    // -- rule: shard-reachability ------------------------------------------

    fn shard_reachability(&self, cfg: &Config, out: &mut Vec<Finding>) {
        // Target set: every method implemented on a shared-domain type.
        let mut targets: BTreeSet<FnId> = BTreeSet::new();
        for ((ty, _), ids) in &self.methods {
            if SHARED_DOMAIN_TYPES.contains(&ty.as_str()) {
                targets.extend(ids.iter().copied());
            }
        }
        // Lane entry points: every inherent method of a
        // SHARD_ENTRY_TYPES type is a first-class BFS root, wherever it
        // is defined.
        let mut entry_roots: BTreeSet<FnId> = BTreeSet::new();
        for ((ty, _), ids) in &self.methods {
            if SHARD_ENTRY_TYPES.contains(&ty.as_str()) {
                entry_roots.extend(ids.iter().copied());
            }
        }
        for (fi, ctx) in self.files.iter().enumerate() {
            if !SHARD_DOMAIN_FILES.contains(&ctx.rel) {
                continue;
            }
            // Direct mentions (signatures, fields, bodies) — the retired
            // line rule's check, now token-accurate.
            let mut seen_lines = BTreeSet::new();
            for t in &ctx.lexed.tokens {
                if t.kind == Kind::Ident
                    && SHARED_DOMAIN_TYPES.contains(&t.text(ctx.src))
                    && !ctx.line_is_test(t.line)
                    && seen_lines.insert(t.line)
                {
                    self.emit(
                        fi,
                        t.line,
                        SHARD_REACHABILITY,
                        format!(
                            "shared-domain type `{}` referenced directly from a shard-domain \
                             module; in the windowed engine, cross-domain work must go \
                             through scheduled events",
                            t.text(ctx.src)
                        ),
                        cfg,
                        out,
                    );
                }
            }
            // Call-graph reachability from every fn defined here.
            for (ni, f) in ctx.model.fns.iter().enumerate() {
                if f.is_test || f.body.is_none() {
                    continue;
                }
                let entry = (fi, ni);
                if let Some((path, first_line)) =
                    self.reach_shared(entry, &targets, &BTreeSet::new())
                {
                    let rendered: Vec<String> =
                        path.iter().map(|&id| self.fn_label(id)).collect();
                    self.emit(
                        fi,
                        first_line,
                        SHARD_REACHABILITY,
                        format!(
                            "call path from shard-domain fn reaches shared-domain state: {}",
                            rendered.join(" -> ")
                        ),
                        cfg,
                        out,
                    );
                }
            }
        }
        // Lane entry points, audited call-graph only (their file also
        // hosts shared-lane code, so the direct-mention scan would
        // drown in legitimate references). Paths through *other* entry
        // points are pruned: the inner root is audited — and, for the
        // sanctioned ideal-mode calls, exempted — at its own call site.
        for &entry in &entry_roots {
            let (fi, ni) = entry;
            let ctx = &self.files[fi];
            if SHARD_DOMAIN_FILES.contains(&ctx.rel) {
                continue; // already covered by the file-scoped pass
            }
            let f = &ctx.model.fns[ni];
            if f.is_test || f.body.is_none() {
                continue;
            }
            if let Some((path, first_line)) =
                self.reach_shared(entry, &targets, &entry_roots)
            {
                let rendered: Vec<String> = path.iter().map(|&id| self.fn_label(id)).collect();
                self.emit(
                    fi,
                    first_line,
                    SHARD_REACHABILITY,
                    format!(
                        "call path from lane entry point reaches shared-domain state: {}",
                        rendered.join(" -> ")
                    ),
                    cfg,
                    out,
                );
            }
        }
    }

    /// BFS from `entry`; on reaching a target returns the call path and
    /// the line of the first hop out of `entry`. Fns in `stop` are not
    /// traversed *through* (they are independent audit roots), though
    /// `entry` itself may be one.
    fn reach_shared(
        &self,
        entry: FnId,
        targets: &BTreeSet<FnId>,
        stop: &BTreeSet<FnId>,
    ) -> Option<(Vec<FnId>, u32)> {
        let mut parent: BTreeMap<FnId, (FnId, u32)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(entry);
        let mut visited = BTreeSet::new();
        visited.insert(entry);
        while let Some(cur) = queue.pop_front() {
            if let Some(edges) = self.calls.get(&cur) {
                for &(next, line) in edges {
                    if stop.contains(&next) {
                        continue;
                    }
                    if targets.contains(&next) {
                        // Reconstruct entry → … → cur → next.
                        let mut path = vec![next, cur];
                        let mut walk = cur;
                        while let Some(&(p, _)) = parent.get(&walk) {
                            path.push(p);
                            walk = p;
                        }
                        path.reverse();
                        let first_line = if path.len() >= 2 {
                            parent.get(&path[1]).map_or(line, |&(_, l)| l)
                        } else {
                            line
                        };
                        return Some((path, first_line));
                    }
                    if visited.insert(next) {
                        parent.insert(next, (cur, line));
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }

    // -- rule: map-iteration-determinism -----------------------------------

    /// Whether fn `id` is an order-sensitive sink.
    fn is_sink(&self, id: FnId) -> bool {
        let ctx = &self.files[id.0];
        let f = &ctx.model.fns[id.1];
        if SINK_FN_NAMES.contains(&f.name.as_str()) {
            return true;
        }
        if f.params.iter().any(|(_, ty)| ty.contains("Writer")) {
            return true;
        }
        let Some((lo, hi)) = f.body else { return false };
        ctx.lexed.tokens[lo..hi]
            .iter()
            .any(|t| t.kind == Kind::Ident && SINK_BODY_IDENTS.contains(&t.text(ctx.src)))
    }

    fn map_iteration_determinism(&self, cfg: &Config, out: &mut Vec<Finding>) {
        for fi in 0..self.files.len() {
            for ni in 0..self.files[fi].model.fns.len() {
                let id = (fi, ni);
                let f = &self.files[fi].model.fns[ni];
                if f.is_test || f.body.is_none() || !self.is_sink(id) {
                    continue;
                }
                self.map_sites_in_fn(id, cfg, out);
            }
        }
    }

    /// Scans one sink fn's body for hash-map iteration sites.
    fn map_sites_in_fn(&self, id: FnId, cfg: &Config, out: &mut Vec<Finding>) {
        let ctx = &self.files[id.0];
        let (lo, hi) = ctx.model.fns[id.1].body.expect("sink fns are body-filtered");
        let toks = &ctx.lexed.tokens;
        let locals = self.typed_locals(id);
        let text = |i: usize| toks[i].text(ctx.src);

        // (a) `for pat in <expr> {` where <expr> is a bare map reference
        // (no iterator-method call: those are caught by (b)).
        let mut i = lo;
        while i < hi {
            if toks[i].kind == Kind::Ident && text(i) == "for" && !ctx.line_is_test(toks[i].line) {
                // Find `in` at relative depth 0, then the body `{`.
                let mut j = i + 1;
                let mut depth = 0i64;
                let mut in_at = None;
                while j < hi {
                    match toks[j].kind {
                        Kind::Open => depth += 1,
                        Kind::Close => depth -= 1,
                        Kind::Ident if depth == 0 && text(j) == "in" => {
                            in_at = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let Some(in_at) = in_at else {
                    i += 1;
                    continue;
                };
                let mut k = in_at + 1;
                let mut depth = 0i64;
                let mut body_at = hi;
                while k < hi {
                    match toks[k].kind {
                        Kind::Open if depth == 0 && text(k) == "{" => {
                            body_at = k;
                            break;
                        }
                        Kind::Open => depth += 1,
                        Kind::Close => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                let expr = &toks[in_at + 1..body_at];
                self.check_for_expr(id, expr, toks[i].line, &locals, cfg, out);
                i = body_at;
                continue;
            }
            i += 1;
        }

        // (b) `.iter()/.keys()/…` calls on map-typed receivers.
        let mut i = lo;
        while i + 1 < hi {
            let is_site = toks[i].kind == Kind::Punct
                && text(i) == "."
                && toks[i + 1].kind == Kind::Ident
                && ITER_METHODS.contains(&text(i + 1))
                && toks.get(i + 2).is_some_and(|t| t.kind == Kind::Open && t.text(ctx.src) == "(")
                && !ctx.line_is_test(toks[i + 1].line);
            if !is_site {
                i += 1;
                continue;
            }
            let recv = Self::walk_receiver(ctx, lo, i as isize - 1);
            let Some((root, fields)) = recv else {
                i += 1;
                continue;
            };
            let fs: Vec<&str> = fields.iter().map(String::as_str).collect();
            let head = self.chain_type(id, &root, &fs, &locals, false);
            if !head.as_deref().is_some_and(|h| MAP_HEADS.contains(&h)) {
                i += 1;
                continue;
            }
            if !self.statement_is_order_safe(id, lo, hi, i, &locals) {
                self.emit(
                    id.0,
                    toks[i + 1].line,
                    MAP_ITERATION_DETERMINISM,
                    format!(
                        "iteration over hash-map `{}` in an order-sensitive fn; route it \
                         through a sorted adapter (collect + sort, or fxhash::sorted_*) or \
                         mark the site `lint:exempt({MAP_ITERATION_DETERMINISM}: <reason>)`",
                        std::iter::once(root.as_str())
                            .chain(fs.iter().copied())
                            .collect::<Vec<_>>()
                            .join(".")
                    ),
                    cfg,
                    out,
                );
            }
            i += 3;
        }
    }

    /// Checks a bare for-loop expression (`&self.map`, `self.map`) —
    /// iterator-method chains are handled by the statement scanner.
    fn check_for_expr(
        &self,
        id: FnId,
        expr: &[Token],
        for_line: u32,
        locals: &BTreeMap<String, String>,
        cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let ctx = &self.files[id.0];
        // Any sorted-adapter call in the expression sanctions it; any
        // iterator-method call defers to the chain scanner (b).
        for (k, t) in expr.iter().enumerate() {
            if t.kind == Kind::Ident {
                let tx = t.text(ctx.src);
                if tx.contains("sorted") {
                    return;
                }
                if ITER_METHODS.contains(&tx)
                    && expr.get(k + 1).is_some_and(|n| n.kind == Kind::Open)
                {
                    return;
                }
            }
        }
        // Strip leading `&`/`mut`, then expect a plain `root(.field)*`.
        let mut s = 0;
        while s < expr.len()
            && ((expr[s].kind == Kind::Punct && expr[s].text(ctx.src) == "&")
                || (expr[s].kind == Kind::Ident && expr[s].text(ctx.src) == "mut"))
        {
            s += 1;
        }
        let chain = &expr[s..];
        if chain.is_empty() || chain[0].kind != Kind::Ident {
            return;
        }
        let root = chain[0].text(ctx.src);
        let mut fields = Vec::new();
        let mut k = 1;
        while k + 1 < chain.len() {
            if chain[k].kind == Kind::Punct
                && chain[k].text(ctx.src) == "."
                && chain[k + 1].kind == Kind::Ident
            {
                fields.push(chain[k + 1].text(ctx.src));
                k += 2;
            } else {
                return; // not a plain field chain (calls, indexing, …)
            }
        }
        if k != chain.len() {
            return;
        }
        let head = self.chain_type(id, root, &fields, locals, false);
        if head.as_deref().is_some_and(|h| MAP_HEADS.contains(&h)) {
            self.emit(
                id.0,
                for_line,
                MAP_ITERATION_DETERMINISM,
                format!(
                    "iteration over hash-map `{}` in an order-sensitive fn; route it through \
                     a sorted adapter (collect + sort, or fxhash::sorted_*) or mark the site \
                     `lint:exempt({MAP_ITERATION_DETERMINISM}: <reason>)`",
                    std::iter::once(root).chain(fields.iter().copied()).collect::<Vec<_>>().join(".")
                ),
                cfg,
                out,
            );
        }
    }

    /// Whether the statement containing the iter call at token `at` is
    /// order-safe: ends in an order-insensitive terminal, passes through
    /// a `sorted` adapter, or collects into a local that is later
    /// sorted.
    fn statement_is_order_safe(
        &self,
        id: FnId,
        lo: usize,
        hi: usize,
        at: usize,
        _locals: &BTreeMap<String, String>,
    ) -> bool {
        let ctx = &self.files[id.0];
        let toks = &ctx.lexed.tokens;
        let text = |i: usize| toks[i].text(ctx.src);
        // Scan the statement tail: from the iter call to `;`/`{` at
        // relative depth 0 (or the end of the enclosing block).
        let mut j = at + 1;
        let mut depth = 0i64;
        let mut collects = false;
        while j < hi {
            match toks[j].kind {
                Kind::Open => {
                    if depth == 0 && text(j) == "{" {
                        break;
                    }
                    depth += 1;
                }
                Kind::Close => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                Kind::Punct if depth == 0 && text(j) == ";" => break,
                Kind::Ident if depth == 0 => {
                    let tx = text(j);
                    if tx.contains("sorted") {
                        return true;
                    }
                    if ORDER_FREE_TERMINALS.contains(&tx)
                        && j > 0
                        && toks[j - 1].kind == Kind::Punct
                        && text(j - 1) == "."
                    {
                        return true;
                    }
                    if tx == "collect" {
                        collects = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !collects {
            return false;
        }
        // `let [mut] NAME … = ….collect…;` — sanctioned if NAME is
        // later sorted anywhere in this fn body.
        // Walk back to the statement start, skipping balanced groups so
        // a tuple in the type annotation (`Vec<(u32, u64)>`) does not
        // read as a statement boundary.
        // A `}` at depth 0 is a statement boundary too (a block
        // statement — for/if/match — directly precedes the `let`);
        // type annotations only ever nest ()/[]/<>.
        let mut s = at;
        let mut bdepth = 0i64;
        while s > lo {
            let t = &toks[s - 1];
            match t.kind {
                Kind::Close => {
                    if bdepth == 0 && t.text(ctx.src) == "}" {
                        break;
                    }
                    bdepth += 1;
                }
                Kind::Open => {
                    if bdepth == 0 {
                        break;
                    }
                    bdepth -= 1;
                }
                Kind::Punct if bdepth == 0 && t.text(ctx.src) == ";" => break,
                _ => {}
            }
            s -= 1;
        }
        let mut k = s;
        if !(toks[k].kind == Kind::Ident && text(k) == "let") {
            return false;
        }
        k += 1;
        if toks.get(k).is_some_and(|t| t.kind == Kind::Ident && t.text(ctx.src) == "mut") {
            k += 1;
        }
        let Some(name_tok) = toks.get(k) else { return false };
        if name_tok.kind != Kind::Ident {
            return false;
        }
        let name = name_tok.text(ctx.src);
        let mut m = j;
        while m + 2 < hi {
            if toks[m].kind == Kind::Ident
                && text(m) == name
                && toks[m + 1].kind == Kind::Punct
                && text(m + 1) == "."
                && toks[m + 2].kind == Kind::Ident
                && text(m + 2).starts_with("sort")
            {
                return true;
            }
            m += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(a, b)| ((*a).to_string(), (*b).to_string())).collect();
        let mut out = Vec::new();
        lint(&owned, &Config::default(), &mut out);
        out
    }

    #[test]
    fn shard_reachability_follows_cross_file_calls() {
        let sm = "//! d\n\
            pub fn tick(now: u64) {\n\
                crate::addr::poke(now);\n\
            }\n";
        let addr = "//! d\n\
            pub fn poke(now: u64) {\n\
                let mut d: crate::dram::Dram = crate::dram::Dram::default();\n\
                d.service(now);\n\
            }\n";
        let dram = "//! d\n\
            pub struct Dram { pub q: u64 }\n\
            impl Dram {\n\
                pub fn service(&mut self, now: u64) { self.q = now; }\n\
            }\n";
        let f = run(&[
            ("crates/sim/src/sm.rs", sm),
            ("crates/sim/src/addr.rs", addr),
            ("crates/sim/src/dram.rs", dram),
        ]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, SHARD_REACHABILITY);
        assert_eq!(f[0].file, "crates/sim/src/sm.rs");
        assert_eq!(f[0].line, 3, "anchored at the first hop's call site");
        assert!(f[0].message.contains("sm.rs::tick"), "{}", f[0].message);
        assert!(f[0].message.contains("Dram::service"), "{}", f[0].message);
    }

    #[test]
    fn shard_reachability_roots_at_worker_entry_types() {
        // A ShardLane method is a BFS root even though engine.rs is not
        // in the shard-domain file list.
        let engine = "//! d\n\
            pub struct ShardLane { pub now: u64 }\n\
            impl ShardLane {\n\
                pub fn drain_window(&mut self, horizon: u64) {\n\
                    self.now = horizon;\n\
                    crate::addr::poke(horizon);\n\
                }\n\
            }\n";
        let addr = "//! d\n\
            pub fn poke(now: u64) {\n\
                let mut d: crate::dram::Dram = crate::dram::Dram::default();\n\
                d.service(now);\n\
            }\n";
        let dram = "//! d\n\
            pub struct Dram { pub q: u64 }\n\
            impl Dram {\n\
                pub fn service(&mut self, now: u64) { self.q = now; }\n\
            }\n";
        let f = run(&[
            ("crates/sim/src/engine.rs", engine),
            ("crates/sim/src/addr.rs", addr),
            ("crates/sim/src/dram.rs", dram),
        ]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, SHARD_REACHABILITY);
        assert_eq!(f[0].file, "crates/sim/src/engine.rs");
        assert_eq!(f[0].line, 6, "anchored at the first hop's call site");
        assert!(!f[0].allowed);
        assert!(f[0].message.contains("lane entry point"), "{}", f[0].message);
        assert!(f[0].message.contains("Dram::service"), "{}", f[0].message);
    }

    #[test]
    fn shard_reachability_exempt_supports_trailing_reason_and_comment_blocks() {
        // The sanctioned ideal-mode shape: the call site carries a
        // multi-line `lint:exempt(rule): reason` comment whose marker
        // sits at the head of the block.
        let engine = "//! d\n\
            pub struct ShardLane { pub now: u64 }\n\
            impl ShardLane {\n\
                pub fn drain_window(&mut self, horizon: u64) {\n\
                    self.now = horizon;\n\
                    // lint:exempt(shard-reachability): ideal-TLB mode is\n\
                    // clamped to one lane, one worker; the shared lane\n\
                    // is handed in synchronously.\n\
                    crate::addr::poke(horizon);\n\
                }\n\
            }\n";
        let addr = "//! d\n\
            pub fn poke(now: u64) {\n\
                let mut d: crate::dram::Dram = crate::dram::Dram::default();\n\
                d.service(now);\n\
            }\n";
        let dram = "//! d\n\
            pub struct Dram { pub q: u64 }\n\
            impl Dram {\n\
                pub fn service(&mut self, now: u64) { self.q = now; }\n\
            }\n";
        let f = run(&[
            ("crates/sim/src/engine.rs", engine),
            ("crates/sim/src/addr.rs", addr),
            ("crates/sim/src/dram.rs", dram),
        ]);
        let shard: Vec<_> = f.iter().filter(|f| f.rule == SHARD_REACHABILITY).collect();
        assert_eq!(shard.len(), 1, "{shard:#?}");
        assert!(
            shard[0].allowed,
            "reasoned exemption at the head of the comment block must downgrade: {shard:#?}"
        );
    }

    #[test]
    fn shard_reachability_prunes_paths_through_other_entry_roots() {
        // lane_a -> lane_b -> Dram: the path is audited (and here
        // exempted) at lane_b's own call site; lane_a is not re-flagged
        // for reaching Dram through another root.
        let engine = "//! d\n\
            pub struct ShardLane { pub now: u64 }\n\
            impl ShardLane {\n\
                pub fn lane_a(&mut self) {\n\
                    self.lane_b();\n\
                }\n\
                pub fn lane_b(&mut self) {\n\
                    // lint:exempt(shard-reachability): ideal-TLB mode is clamped to one lane\n\
                    crate::addr::poke(self.now);\n\
                }\n\
            }\n";
        let addr = "//! d\n\
            pub fn poke(now: u64) {\n\
                let mut d: crate::dram::Dram = crate::dram::Dram::default();\n\
                d.service(now);\n\
            }\n";
        let dram = "//! d\n\
            pub struct Dram { pub q: u64 }\n\
            impl Dram {\n\
                pub fn service(&mut self, now: u64) { self.q = now; }\n\
            }\n";
        let f = run(&[
            ("crates/sim/src/engine.rs", engine),
            ("crates/sim/src/addr.rs", addr),
            ("crates/sim/src/dram.rs", dram),
        ]);
        let shard: Vec<_> = f.iter().filter(|f| f.rule == SHARD_REACHABILITY).collect();
        assert_eq!(shard.len(), 1, "only lane_b's own site is audited: {shard:#?}");
        assert_eq!(shard[0].line, 9);
        assert!(shard[0].allowed, "{shard:#?}");
    }

    #[test]
    fn shard_reachability_direct_mention_still_fires() {
        let sm = "//! d\npub fn f(d: &mut Dram) { let _ = d; }\n";
        let dram = "//! d\npub struct Dram { pub q: u64 }\n";
        let f = run(&[("crates/sim/src/sm.rs", sm), ("crates/sim/src/dram.rs", dram)]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, SHARD_REACHABILITY);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn map_iteration_fires_only_in_sinks() {
        let sink = "//! d\n\
            pub struct T { pub slots: FxHashMap<u64, u64> }\n\
            impl T {\n\
                pub fn digest(&self) -> u64 {\n\
                    let mut h = 0u64;\n\
                    for (k, v) in self.slots.iter() { h ^= k ^ v; }\n\
                    h\n\
                }\n\
            }\n";
        let f = run(&[("crates/sim/src/x.rs", sink)]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, MAP_ITERATION_DETERMINISM);
        assert_eq!(f[0].line, 6);
        // The same iteration in a non-sink fn is out of scope.
        let cold = sink.replace("pub fn digest", "pub fn tally");
        assert!(run(&[("crates/sim/src/x.rs", &cold)]).is_empty());
    }

    #[test]
    fn map_iteration_sorted_collect_is_clean() {
        let src = "//! d\n\
            pub struct T { pub slots: FxHashMap<u64, u64> }\n\
            impl T {\n\
                pub fn digest(&self) -> u64 {\n\
                    let mut ks: Vec<u64> = self.slots.keys().copied().collect();\n\
                    ks.sort_unstable();\n\
                    let mut h = 0u64;\n\
                    for k in ks { h = h.wrapping_mul(31) ^ k; }\n\
                    h\n\
                }\n\
            }\n";
        assert!(run(&[("crates/sim/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn map_iteration_sorted_collect_with_tuple_annotation_is_clean() {
        // Regression: neither the `(u32, u64)` tuple in the type
        // annotation nor a block statement directly before the `let`
        // may read as a statement boundary when walking back to `let`.
        let src = "//! d\n\
            pub struct T { pub slots: FxHashMap<(u32, u64), Vec<u64>> }\n\
            impl T {\n\
                pub fn save_state(&self, w: &mut Writer) {\n\
                    for x in 0..4u32 { w.u32(x); }\n\
                    let mut ks: Vec<(u32, u64)> = self.slots.keys().copied().collect();\n\
                    ks.sort_unstable();\n\
                    for k in ks { w.u32(k.0); w.u64(k.1); }\n\
                }\n\
            }\n";
        assert!(run(&[("crates/sim/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn map_iteration_order_free_terminals_are_clean() {
        let src = "//! d\n\
            pub struct T { pub slots: FxHashMap<u64, u64> }\n\
            impl T {\n\
                pub fn digest(&self) -> u64 {\n\
                    self.slots.values().sum::<u64>() ^ self.slots.keys().count() as u64\n\
                }\n\
            }\n";
        assert!(run(&[("crates/sim/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn map_iteration_bare_ref_loop_fires() {
        let src = "//! d\n\
            pub fn flush(pending: &FxHashSet<u64>, q: &mut Q) {\n\
                for r in pending {\n\
                    q.schedule_in(1, *r);\n\
                }\n\
            }\n";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn exempt_marker_with_reason_downgrades_semantic_rules() {
        let src = "//! d\n\
            pub fn flush(pending: &FxHashSet<u64>, q: &mut Q) {\n\
                // lint:exempt(map-iteration-determinism: every entry schedules at the same delta, order cannot reorder events)\n\
                for r in pending {\n\
                    q.schedule_in(1, *r);\n\
                }\n\
            }\n";
        let f = run(&[("crates/sim/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].allowed);
        // Plain lint:allow does NOT silence semantic rules.
        let src2 = src.replace(
            "lint:exempt(map-iteration-determinism: every entry schedules at the same delta, order cannot reorder events)",
            "lint:allow(map-iteration-determinism)",
        );
        let f = run(&[("crates/sim/src/x.rs", &src2)]);
        assert_eq!(f.len(), 1);
        assert!(!f[0].allowed, "bare allow must not silence semantic rules");
        // A too-short reason does not silence them either.
        let short = src.replace(
            "every entry schedules at the same delta, order cannot reorder events",
            "meh",
        );
        let f = run(&[("crates/sim/src/x.rs", &short)]);
        assert_eq!(f.len(), 1);
        assert!(!f[0].allowed && f[0].message.contains("too short"), "{f:#?}");
    }

    #[test]
    fn ty_head_sees_through_refs_and_containers() {
        assert_eq!(Workspace::ty_head("&mut FxHashMap<u64, u64>", false).as_deref(), Some("FxHashMap"));
        assert_eq!(Workspace::ty_head("Vec<Walker>", true).as_deref(), Some("Walker"));
        assert_eq!(Workspace::ty_head("&'a mut crate::dram::Dram", true).as_deref(), Some("Dram"));
        assert_eq!(Workspace::ty_head("[PwCache; 4]", true).as_deref(), Some("PwCache"));
        assert_eq!(Workspace::ty_head("Option<Box<Uvm>>", true).as_deref(), Some("Uvm"));
    }
}
