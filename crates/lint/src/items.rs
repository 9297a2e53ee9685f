//! Per-file item model: structs (with fields), functions (with params,
//! impl target, and body token span), and `use` edges, extracted from
//! the [`crate::lexer`] token stream.
//!
//! This is a *recognizer*, not a parser: it walks the token stream with
//! a cursor, descends into `mod`/`impl` bodies, and skips everything it
//! does not model (enums, traits, macros, expressions) by balanced
//! delimiters. The output is deliberately lossy — enough structure for
//! the semantic rules (field parity, call-graph reachability, map
//! iteration) without committing to full Rust grammar. Items whose
//! declaration line falls inside a `#[cfg(test)]` region are marked
//! `is_test` and skipped by every rule.

use crate::lexer::{Kind, Lexed, Token};

/// One named struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Rendered type text (tokens joined, e.g. `FxHashMap<u64, u64>`).
    pub ty: String,
}

/// One `struct` item with named fields (tuple/unit structs record no
/// fields).
#[derive(Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDef>,
    /// Declared inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// One `fn` item (free or inherent/trait-impl method).
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` target type name, if any.
    pub self_type: Option<String>,
    /// Named, explicitly-typed parameters (`self` excluded).
    pub params: Vec<(String, String)>,
    /// Token index range `[lo, hi)` of the body, braces included; `None`
    /// for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// Declared inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// The item model of one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// All structs, in declaration order.
    pub structs: Vec<StructDef>,
    /// All fns, in declaration order (impl methods carry `self_type`).
    pub fns: Vec<FnDef>,
    /// Rendered `use` paths (one per `use` item, glob/group text kept).
    pub uses: Vec<String>,
}

/// Renders a token slice back to compact text, inserting a space only
/// where two adjacent tokens would otherwise merge into one identifier.
pub fn join_tokens(src: &str, toks: &[Token]) -> String {
    let mut out = String::new();
    for t in toks {
        let text = t.text(src);
        if let (Some(last), Some(first)) = (out.chars().last(), text.chars().next()) {
            let glue = |c: char| c.is_ascii_alphanumeric() || c == '_';
            if glue(last) && glue(first) {
                out.push(' ');
            }
        }
        out.push_str(text);
    }
    out
}

struct Cursor<'s> {
    src: &'s str,
    toks: &'s [Token],
    i: usize,
    is_test_line: &'s [bool],
}

impl<'s> Cursor<'s> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.i)
    }

    fn text(&self, t: &Token) -> &'s str {
        t.text(self.src)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| {
            matches!(t.kind, Kind::Punct | Kind::Open | Kind::Close) && self.text(t).starts_with(c)
        })
    }

    fn at_ident(&self, word: &str) -> bool {
        self.peek().is_some_and(|t| t.kind == Kind::Ident && self.text(t) == word)
    }

    fn line_is_test(&self, line: u32) -> bool {
        self.is_test_line.get(line as usize - 1).copied().unwrap_or(false)
    }

    /// Skips one balanced `(`/`[`/`{` group (cursor on the opener).
    fn skip_group(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            match t.kind {
                Kind::Open => depth += 1,
                Kind::Close => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips a generic parameter list `<…>` (cursor on the `<`). `->`
    /// arrows never appear inside a generic list, so `>` decrements
    /// unconditionally; `>>` lexes as two `>` tokens and closes two
    /// levels as intended.
    fn skip_angles(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            if t.kind == Kind::Punct {
                match self.text(t) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth <= 0 {
                            self.bump();
                            return;
                        }
                    }
                    _ => {}
                }
            } else if matches!(t.kind, Kind::Open) {
                self.skip_group();
                continue;
            }
            self.bump();
        }
    }

    /// Skips to one past the next `;` at the current delimiter depth
    /// (used for `use`/`const`/`type`/`mod name;` items).
    fn skip_to_semi(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            match t.kind {
                Kind::Open => depth += 1,
                Kind::Close => depth -= 1,
                Kind::Punct if depth <= 0 && self.text(t) == ";" => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips attribute(s) `#[…]` / `#![…]` at the cursor.
    fn skip_attrs(&mut self) {
        while self.at_punct('#') {
            self.bump();
            if self.at_punct('!') {
                self.bump();
            }
            if self.peek().is_some_and(|t| t.kind == Kind::Open) {
                self.skip_group();
            }
        }
    }

    /// Skips `pub` / `pub(crate)` / `pub(in …)` visibility.
    fn skip_vis(&mut self) {
        if self.at_ident("pub") {
            self.bump();
            if self.peek().is_some_and(|t| t.kind == Kind::Open && self.text(t) == "(") {
                self.skip_group();
            }
        }
    }
}

/// Extracts the item model from a lexed file. `is_test_line[i]` marks
/// 1-based line `i+1` as part of a `#[cfg(test)]` region.
pub fn parse(src: &str, lexed: &Lexed, is_test_line: &[bool]) -> FileModel {
    let mut model = FileModel::default();
    let mut cur = Cursor { src, toks: &lexed.tokens, i: 0, is_test_line };
    parse_items(&mut cur, None, &mut model, 0);
    model
}

/// Parses items until `end` Close tokens outstanding (0 = to EOF; 1 =
/// until the enclosing body's closing brace).
fn parse_items(cur: &mut Cursor, self_type: Option<&str>, model: &mut FileModel, nested: u32) {
    while let Some(t) = cur.peek() {
        if t.kind == Kind::Close {
            // End of the enclosing mod/impl body.
            cur.bump();
            return;
        }
        if t.kind != Kind::Ident && !cur.at_punct('#') {
            if t.kind == Kind::Open {
                cur.skip_group();
            } else {
                cur.bump();
            }
            continue;
        }
        cur.skip_attrs();
        cur.skip_vis();
        let Some(t) = cur.peek() else { return };
        if t.kind != Kind::Ident {
            continue;
        }
        match cur.text(t) {
            "mod" => {
                cur.bump();
                // `mod name { … }` descends; `mod name;` is a file ref.
                if cur.peek().is_some_and(|t| t.kind == Kind::Ident) {
                    cur.bump();
                }
                if cur.peek().is_some_and(|t| t.kind == Kind::Open) {
                    cur.bump();
                    parse_items(cur, None, model, nested + 1);
                } else {
                    cur.skip_to_semi();
                }
            }
            "impl" => parse_impl(cur, model, nested),
            "struct" => parse_struct(cur, model),
            "fn" => parse_fn(cur, self_type, model),
            "use" => {
                cur.bump();
                let from = cur.i;
                cur.skip_to_semi();
                let upto = cur.i.saturating_sub(1); // drop the `;`
                model.uses.push(join_tokens(cur.src, &cur.toks[from..upto]));
            }
            "enum" | "trait" | "union" | "macro_rules" => {
                // Not modeled: skip the name/params, then the body.
                cur.bump();
                while let Some(t) = cur.peek() {
                    match t.kind {
                        Kind::Open if cur.text(t) == "{" => {
                            cur.skip_group();
                            break;
                        }
                        Kind::Punct if cur.text(t) == ";" => {
                            cur.bump();
                            break;
                        }
                        Kind::Punct if cur.text(t) == "<" => cur.skip_angles(),
                        Kind::Open => cur.skip_group(),
                        _ => cur.bump(),
                    }
                }
            }
            "const" => {
                // `const fn` is a fn modifier, not a const item.
                cur.bump();
                if !cur.at_ident("fn") {
                    cur.skip_to_semi();
                }
            }
            "extern" => {
                // `extern "C" { … }` block or `extern crate x;`.
                cur.bump();
                if cur.peek().is_some_and(|t| matches!(t.kind, Kind::Str)) {
                    cur.bump();
                }
                if cur.peek().is_some_and(|t| t.kind == Kind::Open) {
                    cur.skip_group();
                } else if !cur.at_ident("fn") {
                    cur.skip_to_semi();
                }
            }
            "static" | "type" => cur.skip_to_semi(),
            _ => cur.bump(),
        }
    }
}

/// Parses an `impl` header and descends into its body with the target
/// type bound. The target is the last angle-depth-0 identifier of the
/// implemented-for path (`impl fmt::Display for Stats` → `Stats`;
/// `impl<K> FxMap<K>` → `FxMap`), with `where` clauses excluded.
fn parse_impl(cur: &mut Cursor, model: &mut FileModel, nested: u32) {
    cur.bump(); // `impl`
    if cur.at_punct('<') {
        cur.skip_angles();
    }
    let mut target: Option<String> = None;
    let mut angle = 0i64;
    while let Some(t) = cur.peek() {
        match t.kind {
            Kind::Open if cur.text(t) == "{" => break,
            Kind::Open => {
                cur.skip_group();
                continue;
            }
            Kind::Punct => {
                match cur.text(t) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ";" => {
                        // `impl Trait for Type;` (not in this grammar, but
                        // stay tolerant).
                        cur.bump();
                        return;
                    }
                    _ => {}
                }
                cur.bump();
            }
            Kind::Ident => {
                let word = cur.text(t).to_string();
                if word == "where" {
                    // Skip the where clause up to the body brace.
                    while let Some(t) = cur.peek() {
                        if t.kind == Kind::Open && cur.text(t) == "{" {
                            break;
                        }
                        if t.kind == Kind::Open {
                            cur.skip_group();
                        } else {
                            cur.bump();
                        }
                    }
                    break;
                }
                if word == "for" {
                    target = None; // restart: the trait path was not the target
                } else if angle <= 0 && word != "dyn" && word != "mut" {
                    target = Some(word);
                }
                cur.bump();
            }
            _ => cur.bump(),
        }
    }
    if cur.peek().is_some_and(|t| t.kind == Kind::Open) {
        cur.bump();
        let t = target.unwrap_or_default();
        let st = if t.is_empty() { None } else { Some(t) };
        parse_items(cur, st.as_deref(), model, nested + 1);
    }
}

/// Parses a `struct` item, recording named fields.
fn parse_struct(cur: &mut Cursor, model: &mut FileModel) {
    cur.bump(); // `struct`
    let Some(name_tok) = cur.peek() else { return };
    if name_tok.kind != Kind::Ident {
        return;
    }
    let name = cur.text(name_tok).to_string();
    let line = name_tok.line;
    let is_test = cur.line_is_test(line);
    cur.bump();
    if cur.at_punct('<') {
        cur.skip_angles();
    }
    // Tuple struct `( … ) ;` or unit struct `;`: no named fields.
    if cur.peek().is_some_and(|t| t.kind == Kind::Open && cur.text(t) == "(") {
        cur.skip_group();
        cur.skip_to_semi();
        model.structs.push(StructDef { name, fields: Vec::new(), is_test });
        return;
    }
    if cur.at_punct(';') {
        cur.bump();
        model.structs.push(StructDef { name, fields: Vec::new(), is_test });
        return;
    }
    // `where` clause before the body.
    while let Some(t) = cur.peek() {
        if t.kind == Kind::Open && cur.text(t) == "{" {
            break;
        }
        if t.kind == Kind::Open {
            cur.skip_group();
        } else {
            cur.bump();
        }
    }
    let mut fields = Vec::new();
    if cur.peek().is_some_and(|t| t.kind == Kind::Open) {
        cur.bump(); // `{`
        loop {
            cur.skip_attrs();
            cur.skip_vis();
            let Some(t) = cur.peek() else { break };
            if t.kind == Kind::Close {
                cur.bump();
                break;
            }
            if t.kind != Kind::Ident {
                cur.bump();
                continue;
            }
            let fname = cur.text(t).to_string();
            cur.bump();
            if !cur.at_punct(':') {
                continue;
            }
            cur.bump(); // `:`
            // Type text: tokens up to the next `,` or `}` at field depth
            // (angle- and group-aware so `FxHashMap<u64, u64>` survives).
            let from = cur.i;
            let mut angle = 0i64;
            while let Some(t) = cur.peek() {
                match t.kind {
                    Kind::Open => {
                        cur.skip_group();
                        continue;
                    }
                    Kind::Close => break,
                    Kind::Punct => match cur.text(t) {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "," if angle <= 0 => break,
                        _ => {}
                    },
                    _ => {}
                }
                cur.bump();
            }
            let ty = join_tokens(cur.src, &cur.toks[from..cur.i]);
            fields.push(FieldDef { name: fname, ty });
            if cur.at_punct(',') {
                cur.bump();
            }
        }
    }
    model.structs.push(StructDef { name, fields, is_test });
}

/// Parses a `fn` item: name, typed params, and body token span.
fn parse_fn(cur: &mut Cursor, self_type: Option<&str>, model: &mut FileModel) {
    cur.bump(); // `fn`
    let Some(name_tok) = cur.peek() else { return };
    if name_tok.kind != Kind::Ident {
        return;
    }
    let name = cur.text(name_tok).to_string();
    let line = name_tok.line;
    let is_test = cur.line_is_test(line);
    cur.bump();
    if cur.at_punct('<') {
        cur.skip_angles();
    }
    let mut params = Vec::new();
    if cur.peek().is_some_and(|t| t.kind == Kind::Open && cur.text(t) == "(") {
        // Collect the parameter list token-by-token, splitting at
        // top-level commas (paren/bracket/angle aware).
        cur.bump();
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut part: Vec<Token> = Vec::new();
        while let Some(t) = cur.peek() {
            let done = match t.kind {
                Kind::Open => {
                    depth += 1;
                    false
                }
                Kind::Close => {
                    depth -= 1;
                    depth < 0
                }
                Kind::Punct => match cur.text(t) {
                    "<" => {
                        angle += 1;
                        false
                    }
                    ">" => {
                        angle -= 1;
                        false
                    }
                    "," if depth == 0 && angle <= 0 => {
                        push_param(cur.src, &part, &mut params);
                        part.clear();
                        cur.bump();
                        continue;
                    }
                    _ => false,
                },
                _ => false,
            };
            if done {
                cur.bump();
                break;
            }
            part.push(*t);
            cur.bump();
        }
        push_param(cur.src, &part, &mut params);
    }
    // Skip the return type / where clause to the body `{` or a `;`.
    let mut body = None;
    while let Some(t) = cur.peek() {
        match t.kind {
            Kind::Open if cur.text(t) == "{" => {
                let lo = cur.i;
                cur.skip_group();
                body = Some((lo, cur.i));
                break;
            }
            Kind::Open => cur.skip_group(),
            Kind::Punct if cur.text(t) == ";" => {
                cur.bump();
                break;
            }
            _ => cur.bump(),
        }
    }
    let _ = self_type;
    model.fns.push(FnDef {
        name,
        self_type: self_type.map(str::to_string),
        params,
        body,
        is_test,
    });
}

/// Extracts `name: Type` from one parameter's token slice. `self`
/// receivers and pure-pattern params (destructuring) are skipped.
fn push_param(src: &str, part: &[Token], params: &mut Vec<(String, String)>) {
    if part.is_empty() {
        return;
    }
    // Find the pattern/type split: the first `:` that is not part of a
    // `::` (adjacent colon pair).
    let mut split = None;
    let mut k = 0;
    while k < part.len() {
        let t = &part[k];
        if t.kind == Kind::Punct && t.text(src) == ":" {
            let next_is = |j: usize| {
                part.get(j)
                    .is_some_and(|n| n.kind == Kind::Punct && n.text(src) == ":" && n.lo == t.hi)
            };
            let prev_is = k > 0
                && part[k - 1].kind == Kind::Punct
                && part[k - 1].text(src) == ":"
                && part[k - 1].hi == t.lo;
            if next_is(k + 1) {
                k += 2;
                continue;
            }
            if !prev_is {
                split = Some(k);
                break;
            }
        }
        k += 1;
    }
    let Some(split) = split else { return }; // `self`, `&mut self`, …
    let pat = &part[..split];
    if pat.iter().any(|t| t.kind == Kind::Ident && t.text(src) == "self") {
        return;
    }
    // The bound name is the last identifier of the pattern (`mut x`,
    // plain `x`); destructuring patterns contain delimiters and are
    // skipped (no single name to bind).
    if pat.iter().any(|t| matches!(t.kind, Kind::Open | Kind::Close)) {
        return;
    }
    let Some(name_tok) = pat.iter().rev().find(|t| t.kind == Kind::Ident) else { return };
    let name = name_tok.text(src);
    if name == "mut" || name == "_" {
        return;
    }
    let ty = join_tokens(src, &part[split + 1..]);
    params.push((name.to_string(), ty));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(src: &str) -> FileModel {
        let lexed = lex(src);
        let is_test = vec![false; src.lines().count()];
        parse(src, &lexed, &is_test)
    }

    #[test]
    fn structs_fields_and_generics() {
        let src = "//! d\n\
            pub struct Stats {\n\
                pub hits: u64,\n\
                pub map: FxHashMap<u64, Vec<u64>>,\n\
            }\n\
            struct Unit;\n\
            struct Tup(u64, u64);\n";
        let m = model_of(src);
        assert_eq!(m.structs.len(), 3);
        let s = &m.structs[0];
        assert_eq!(s.name, "Stats");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "hits");
        assert_eq!(s.fields[1].name, "map");
        assert_eq!(s.fields[1].ty, "FxHashMap<u64,Vec<u64>>");
    }

    #[test]
    fn impl_target_and_methods() {
        let src = "//! d\n\
            impl Stats {\n\
                pub fn digest(&self) -> u64 { self.hits }\n\
            }\n\
            impl fmt::Display for Stats {\n\
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"x\") }\n\
            }\n\
            impl<K: Ord> Table<K> {\n\
                fn get(&self, k: K) -> u64 { 0 }\n\
            }\n";
        let m = model_of(src);
        let names: Vec<(String, Option<String>)> =
            m.fns.iter().map(|f| (f.name.clone(), f.self_type.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("digest".into(), Some("Stats".into())),
                ("fmt".into(), Some("Stats".into())),
                ("get".into(), Some("Table".into())),
            ]
        );
        assert!(m.fns[0].body.is_some());
    }

    #[test]
    fn fn_params_parse_names_and_types() {
        let src = "//! d\n\
            fn f(a: u64, mut b: &mut FxHashMap<u64, u64>, (x, y): (u64, u64), _: u8) -> u64 { a }\n";
        let m = model_of(src);
        assert_eq!(m.fns.len(), 1);
        let p = &m.fns[0].params;
        assert_eq!(p.len(), 2, "destructured and _ params are skipped: {p:?}");
        assert_eq!(p[0], ("a".to_string(), "u64".to_string()));
        assert_eq!(p[1].0, "b");
        assert_eq!(p[1].1, "&mut FxHashMap<u64,u64>");
    }

    #[test]
    fn nested_mods_and_trait_bodies() {
        let src = "//! d\n\
            mod inner {\n\
                pub struct A { pub x: u64 }\n\
                impl A { pub fn get(&self) -> u64 { self.x } }\n\
            }\n\
            pub trait T {\n\
                fn required(&self);\n\
            }\n\
            pub enum E { A, B }\n\
            fn after() {}\n";
        let m = model_of(src);
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.structs[0].name, "A");
        // Trait bodies are skipped wholesale; `after` must still parse.
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["get", "after"]);
    }

    #[test]
    fn where_clauses_and_bodyless_fns() {
        let src = "//! d\n\
            pub fn g<T>(x: T) -> u64 where T: Into<u64> { x.into() }\n\
            extern \"C\" { fn c_hook(); }\n";
        let m = model_of(src);
        assert_eq!(m.fns[0].name, "g");
        assert!(m.fns[0].body.is_some());
    }

    #[test]
    fn use_edges_are_recorded() {
        let src = "//! d\nuse crate::fxhash::{FxHashMap, FxHashSet};\nuse std::fmt;\n";
        let m = model_of(src);
        assert_eq!(m.uses.len(), 2);
        assert!(m.uses[0].contains("fxhash"));
    }
}
