//! The repo's deny-by-default lint rules. See `docs/static_analysis.md`
//! for the full rationale behind each rule.
//!
//! | rule | what it denies                                                      |
//! |------|---------------------------------------------------------------------|
//! | U1   | `unsafe` not immediately preceded by a `// SAFETY:` comment          |
//! | U2   | `unsafe` outside the allowlisted module set                          |
//! | F1   | `.partial_cmp(..)` float comparators outside `seesaw_vecstore`'s     |
//! |      | `hit_order` module (the PR 5 NaN ranking bug class)                  |
//! | F2   | `.unwrap()` / `.expect(..)` in server/service request-path modules   |
//! | K1   | FMA intrinsics / `mul_add` in kernel backends (bit-identity contract)|
//! | E1   | `SEESAW_*` env var read that is missing from the README registry,    |
//! |      | or a registry row that no source reads any more                      |
//!
//! Any finding can be suppressed inline with `// xtask-allow: <rule>`
//! on the same line or the line above; suppressions are counted and
//! reported so they stay visible in review.

use crate::lexer::{lex, Kind, Lexed};
use std::collections::{BTreeMap, BTreeSet};

/// All rule identifiers, for validating `xtask-allow:` directives.
pub const RULE_IDS: &[&str] = &["U1", "U2", "F1", "F2", "K1", "E1"];

/// Files (by workspace-relative path, `/`-separated) where `unsafe`
/// is permitted at all. U1 still applies inside these.
const UNSAFE_ALLOWLIST_PREFIXES: &[&str] = &["crates/linalg/src/simd/", "shims/"];
const UNSAFE_ALLOWLIST_FILES: &[&str] = &[
    "crates/server/src/poll.rs",
    "crates/vecstore/src/diskindex.rs",
];

/// The one module allowed to call `partial_cmp`: it defines the
/// NaN-safe total order (`hit_order`) everything else must use.
const F1_ALLOWLIST_FILES: &[&str] = &["crates/vecstore/src/lib.rs"];

/// Request-path modules where a stray panic kills a worker or a
/// connection: no `.unwrap()` / `.expect(..)` outside test code.
const F2_FILES: &[&str] = &[
    "crates/server/src/server.rs",
    "crates/server/src/conn.rs",
    "crates/server/src/event_loop.rs",
    "crates/server/src/queue.rs",
    "crates/server/src/poll.rs",
    "crates/core/src/service.rs",
    "crates/core/src/protocol.rs",
    "crates/core/src/session.rs",
];

/// Kernel backends covered by the bit-identity contract.
const K1_PATH_PREFIX: &str = "crates/linalg/src/";

/// Fused-multiply-add spellings that would change accumulation
/// rounding vs. the canonical scalar order.
const K1_DENY_IDENTS: &[&str] = &[
    "_mm_fmadd_ps",
    "_mm256_fmadd_ps",
    "_mm256_fmsub_ps",
    "_mm256_fnmadd_ps",
    "vfmaq_f32",
    "vfmaq_n_f32",
    "vfmaq_laneq_f32",
    "vmlaq_f32",
    "vmlaq_n_f32",
    "vmlaq_laneq_f32",
    "mul_add",
];

/// The linter's own crate: excluded from E1 because its rule
/// fixtures mention fake `SEESAW_*` names inside string literals.
const E1_EXCLUDE_PREFIX: &str = "crates/xtask/";

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub msg: String,
    /// True when an `xtask-allow:` directive suppressed this finding.
    pub allowed: bool,
}

impl Finding {
    pub fn render(&self) -> String {
        let tag = if self.allowed { " (allowed)" } else { "" };
        format!(
            "{}:{}: [{}]{} {}",
            self.path, self.line, self.rule, tag, self.msg
        )
    }
}

/// One file's lexed view plus the lint context derived from it.
pub struct FileLint {
    rel: String,
    lines: Vec<String>,
    lexed: Lexed,
    /// line -> rule ids suppressed on that line.
    allows: BTreeMap<u32, BTreeSet<String>>,
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(u32, u32)>,
}

impl FileLint {
    pub fn new(rel: &str, src: &str) -> Self {
        let lexed = lex(src);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let allows = collect_allows(&lexed);
        let test_regions = collect_test_regions(&lexed);
        FileLint {
            rel: rel.to_string(),
            lines,
            lexed,
            allows,
            test_regions,
        }
    }

    /// All findings for the file-local rules (U1, U2, F1, F2, K1).
    /// E1 needs cross-file state and runs in [`check_env_registry`].
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.rule_u1_u2(&mut out);
        self.rule_f1(&mut out);
        self.rule_f2(&mut out);
        self.rule_k1(&mut out);
        out
    }

    /// `SEESAW_*` names appearing in this file's string literals,
    /// with the line of first use.
    pub fn env_uses(&self) -> BTreeMap<String, u32> {
        let mut uses = BTreeMap::new();
        if self.rel.starts_with(E1_EXCLUDE_PREFIX) {
            return uses;
        }
        for t in &self.lexed.toks {
            if t.kind != Kind::Str {
                continue;
            }
            for name in extract_env_names(&t.text) {
                uses.entry(name).or_insert(t.line);
            }
        }
        uses
    }

    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, msg: String) {
        let allowed = self
            .allows
            .get(&line)
            .is_some_and(|rules| rules.contains(rule));
        out.push(Finding {
            rule,
            path: self.rel.clone(),
            line,
            msg,
            allowed,
        });
    }

    fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    fn unsafe_is_allowlisted(&self) -> bool {
        UNSAFE_ALLOWLIST_FILES.contains(&self.rel.as_str())
            || UNSAFE_ALLOWLIST_PREFIXES
                .iter()
                .any(|p| self.rel.starts_with(p))
    }

    fn rule_u1_u2(&self, out: &mut Vec<Finding>) {
        let allowlisted = self.unsafe_is_allowlisted();
        for t in &self.lexed.toks {
            if t.kind != Kind::Ident || t.text != "unsafe" {
                continue;
            }
            if !allowlisted {
                self.push(
                    out,
                    "U2",
                    t.line,
                    "`unsafe` outside the allowlisted module set (linalg/src/simd/*, \
                     server/src/poll.rs, vecstore/src/diskindex.rs, shims/*)"
                        .to_string(),
                );
            }
            if !self.has_safety_comment(t.line) {
                self.push(
                    out,
                    "U1",
                    t.line,
                    "`unsafe` site without an immediately preceding `// SAFETY:` comment"
                        .to_string(),
                );
            }
        }
    }

    /// Is there a `// SAFETY:` line comment attached to the unsafe
    /// site at `line`? Attached means: a trailing comment on the same
    /// line, or in the contiguous run of line comments directly above
    /// it, skipping over attribute lines (`#[...]`). Doc comments
    /// (`///`, `//!`) do not count — U1 wants the reviewer-facing
    /// proof obligation, not API docs.
    fn has_safety_comment(&self, line: u32) -> bool {
        if self.safety_comment_at(line) {
            return true;
        }
        let mut i = line.saturating_sub(1);
        while i >= 1 {
            if self.safety_comment_at(i) {
                return true;
            }
            let t = self
                .lines
                .get((i - 1) as usize)
                .map(|l| l.trim())
                .unwrap_or("");
            let skip = t.starts_with("#[") || t.starts_with("#![") || t.starts_with("//");
            if !skip {
                return false;
            }
            i -= 1;
        }
        false
    }

    fn safety_comment_at(&self, line: u32) -> bool {
        self.lexed.comments.iter().any(|c| {
            c.line == line
                && c.text.starts_with("//")
                && !c.text.starts_with("///")
                && !c.text.starts_with("//!")
                && c.text.contains("SAFETY:")
        })
    }

    fn rule_f1(&self, out: &mut Vec<Finding>) {
        if F1_ALLOWLIST_FILES.contains(&self.rel.as_str()) {
            return;
        }
        let toks = &self.lexed.toks;
        for i in 1..toks.len() {
            if toks[i].kind == Kind::Ident
                && toks[i].text == "partial_cmp"
                && toks[i - 1].kind == Kind::Punct
                && toks[i - 1].text == "."
            {
                self.push(
                    out,
                    "F1",
                    toks[i].line,
                    "float `partial_cmp` comparator — NaN breaks the ordering; use \
                     `f32::total_cmp`/`f64::total_cmp` or `seesaw_vecstore::hit_order`"
                        .to_string(),
                );
            }
        }
    }

    fn rule_f2(&self, out: &mut Vec<Finding>) {
        if !F2_FILES.contains(&self.rel.as_str()) {
            return;
        }
        let toks = &self.lexed.toks;
        for i in 1..toks.len() {
            let t = &toks[i];
            if t.kind != Kind::Ident || (t.text != "unwrap" && t.text != "expect") {
                continue;
            }
            if toks[i - 1].kind != Kind::Punct || toks[i - 1].text != "." {
                continue;
            }
            // `self.expect(b'"')` is the wire parser's own fallible
            // method, not `Option::expect`.
            if i >= 2 && toks[i - 2].kind == Kind::Ident && toks[i - 2].text == "self" {
                continue;
            }
            if self.in_test_region(t.line) {
                continue;
            }
            self.push(
                out,
                "F2",
                t.line,
                format!(
                    "`.{}()` in a request-path module — a panic here kills a worker or \
                     connection; propagate a typed error instead",
                    t.text
                ),
            );
        }
    }

    fn rule_k1(&self, out: &mut Vec<Finding>) {
        if !self.rel.starts_with(K1_PATH_PREFIX) {
            return;
        }
        for t in &self.lexed.toks {
            if t.kind == Kind::Ident && K1_DENY_IDENTS.contains(&t.text.as_str()) {
                self.push(
                    out,
                    "K1",
                    t.line,
                    format!(
                        "`{}` fuses the multiply-add rounding step — kernels must replay \
                         the canonical scalar accumulation order bit-identically",
                        t.text
                    ),
                );
            }
        }
    }
}

/// E1: every `SEESAW_*` name read from source must appear in the
/// README registry table, and every registry row (name → README line)
/// must still have a source read.
pub fn check_env_registry(
    uses: &BTreeMap<String, (String, u32)>,
    registry: &BTreeMap<String, u32>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, (path, line)) in uses {
        if !registry.contains_key(name) {
            findings.push(Finding {
                rule: "E1",
                path: path.clone(),
                line: *line,
                msg: format!(
                    "`{name}` is not in the README env-var registry table \
                     (between the `xtask:env-registry` markers)"
                ),
                allowed: false,
            });
        }
    }
    for (name, line) in registry {
        if !uses.contains_key(name) {
            findings.push(Finding {
                rule: "E1",
                path: "README.md".to_string(),
                line: *line,
                msg: format!("registry row `{name}` has no source read; delete the stale row"),
                allowed: false,
            });
        }
    }
    findings
}

/// Parse the registry table out of README.md: every `SEESAW_*` name
/// between the begin/end markers counts as registered, keyed to the
/// 1-based README line of its first mention.
pub fn parse_registry(readme: &str) -> Option<BTreeMap<String, u32>> {
    const BEGIN: &str = "<!-- xtask:env-registry:begin -->";
    const END: &str = "<!-- xtask:env-registry:end -->";
    let start = readme.find(BEGIN)? + BEGIN.len();
    let end = readme[start..].find(END)? + start;
    let first_line = readme[..start].matches('\n').count() as u32 + 1;
    let mut names = BTreeMap::new();
    for (i, row) in readme[start..end].lines().enumerate() {
        for name in extract_env_names(row) {
            names.entry(name).or_insert(first_line + i as u32);
        }
    }
    Some(names)
}

/// Maximal `SEESAW_[A-Z0-9_]+` substrings of `text`.
pub fn extract_env_names(text: &str) -> Vec<String> {
    const PREFIX: &str = "SEESAW_";
    let mut out = Vec::new();
    let b = text.as_bytes();
    let mut i = 0;
    while let Some(off) = text[i..].find(PREFIX) {
        let start = i + off;
        // Must not be the tail of a longer word (`XSEESAW_FOO`).
        if start > 0 && (b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
            i = start + PREFIX.len();
            continue;
        }
        let mut j = start + PREFIX.len();
        while j < b.len() && (b[j].is_ascii_uppercase() || b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
        if j > start + PREFIX.len() {
            out.push(text[start..j].trim_end_matches('_').to_string());
        }
        i = j;
    }
    out
}

/// `// xtask-allow: U1, F2` directives. A directive suppresses the
/// named rules on the comment's own line(s) and the line after it.
fn collect_allows(lexed: &Lexed) -> BTreeMap<u32, BTreeSet<String>> {
    let mut allows: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("xtask-allow:") else {
            continue;
        };
        let rest = &c.text[pos + "xtask-allow:".len()..];
        let rules: Vec<&str> = rest
            .split(|ch: char| !ch.is_ascii_alphanumeric())
            .filter(|w| RULE_IDS.contains(w))
            .collect();
        for l in c.line..=c.end_line + 1 {
            let entry = allows.entry(l).or_default();
            for r in &rules {
                entry.insert(r.to_string());
            }
        }
    }
    allows
}

/// Line ranges of `#[cfg(test)]`-gated items and `#[test]` fns,
/// found by matching the braces of the item following the attribute.
/// `#[cfg(not(test))]` is deliberately NOT a test region.
fn collect_test_regions(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].kind == Kind::Punct
            && toks[i].text == "#"
            && toks[i + 1].kind == Kind::Punct
            && toks[i + 1].text == "[")
        {
            i += 1;
            continue;
        }
        // Gather the attribute's identifiers up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match (toks[j].kind, toks[j].text.as_str()) {
                (Kind::Punct, "[") => depth += 1,
                (Kind::Punct, "]") => depth -= 1,
                (Kind::Ident, id) => idents.push(id),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = match idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Find the gated item's opening `{` (a `;` first means the
        // attribute gates a braceless item, e.g. `mod proptests;`).
        let mut k = j;
        let mut paren = 0isize;
        let mut open = None;
        while k < toks.len() {
            match (toks[k].kind, toks[k].text.as_str()) {
                (Kind::Punct, "(") | (Kind::Punct, "[") => paren += 1,
                (Kind::Punct, ")") | (Kind::Punct, "]") => paren -= 1,
                (Kind::Punct, "{") if paren == 0 => {
                    open = Some(k);
                    break;
                }
                (Kind::Punct, ";") if paren == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            i = j;
            continue;
        };
        // Match the braces.
        let mut braces = 0usize;
        let mut close = open;
        for (idx, t) in toks.iter().enumerate().skip(open) {
            if t.kind == Kind::Punct {
                if t.text == "{" {
                    braces += 1;
                } else if t.text == "}" {
                    braces -= 1;
                    if braces == 0 {
                        close = idx;
                        break;
                    }
                }
            }
        }
        regions.push((toks[i].line, toks[close].line));
        i = j;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        FileLint::new(rel, src).findings()
    }

    fn denied<'a>(f: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
        f.iter().filter(|x| x.rule == rule && !x.allowed).collect()
    }

    // ---- U1 fixtures -------------------------------------------------

    #[test]
    fn u1_flags_undocumented_unsafe() {
        let src = "pub fn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n";
        let f = lint("crates/linalg/src/simd/fix.rs", src);
        assert_eq!(denied(&f, "U1").len(), 1);
        assert_eq!(denied(&f, "U1")[0].line, 2);
    }

    #[test]
    fn u1_accepts_safety_comment_above() {
        let src = "pub fn f(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(denied(&lint("crates/linalg/src/simd/fix.rs", src), "U1").is_empty());
    }

    #[test]
    fn u1_accepts_trailing_and_multiline_safety() {
        let trailing = "unsafe impl Send for M {} // SAFETY: raw ptr is owned.\n";
        assert!(denied(&lint("crates/vecstore/src/diskindex.rs", trailing), "U1").is_empty());
        let multi = "// SAFETY: len was checked against the mmap bounds\n// and the section offset is 64-byte aligned.\nlet s = unsafe { from_raw_parts(p, n) };\n";
        assert!(denied(&lint("crates/vecstore/src/diskindex.rs", multi), "U1").is_empty());
    }

    #[test]
    fn u1_skips_attributes_between_comment_and_unsafe() {
        let src = "/// Docs.\n///\n/// # Safety\n/// Caller must check avx2.\n// SAFETY: dispatch verifies avx2 before calling.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn dot(a: &[f32]) -> f32 { 0.0 }\n";
        assert!(denied(&lint("crates/linalg/src/simd/fix.rs", src), "U1").is_empty());
    }

    #[test]
    fn u1_doc_safety_section_alone_does_not_count() {
        // `/// # Safety` documents the contract for callers; U1 wants
        // the site-local proof. Docs alone must still fail.
        let src = "/// # Safety\n/// Caller must pass a valid pointer.\npub unsafe fn f(p: *const f32) -> f32 { *p }\n";
        assert_eq!(
            denied(&lint("crates/linalg/src/simd/fix.rs", src), "U1").len(),
            1
        );
    }

    #[test]
    fn u1_ignores_unsafe_in_comments_and_strings() {
        let src = "// this mentions unsafe code\nlet s = \"unsafe\";\n";
        assert!(lint("crates/linalg/src/simd/fix.rs", src).is_empty());
    }

    #[test]
    fn u1_respects_xtask_allow() {
        let src = "// xtask-allow: U1\nunsafe { foo() }\n";
        let f = lint("crates/linalg/src/simd/fix.rs", src);
        assert!(denied(&f, "U1").is_empty());
        // ... but the suppression is still recorded.
        assert!(f.iter().any(|x| x.rule == "U1" && x.allowed));
    }

    // ---- U2 fixtures -------------------------------------------------

    #[test]
    fn u2_flags_unsafe_outside_allowlist() {
        let src = "// SAFETY: documented, but still in the wrong module.\nlet x = unsafe { *p };\n";
        let f = lint("crates/core/src/session.rs", src);
        assert_eq!(denied(&f, "U2").len(), 1);
        assert!(denied(&f, "U1").is_empty());
    }

    #[test]
    fn u2_accepts_allowlisted_modules() {
        let src = "// SAFETY: fine here.\nlet x = unsafe { *p };\n";
        for rel in [
            "crates/linalg/src/simd/avx2.rs",
            "crates/server/src/poll.rs",
            "crates/vecstore/src/diskindex.rs",
            "shims/rand/src/lib.rs",
        ] {
            assert!(denied(&lint(rel, src), "U2").is_empty(), "{rel}");
        }
    }

    // ---- F1 fixtures -------------------------------------------------

    #[test]
    fn f1_flags_partial_cmp_comparators() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(
            denied(&lint("crates/knn/src/weights.rs", src), "F1").len(),
            1
        );
    }

    #[test]
    fn f1_flags_tuple_field_receiver() {
        // Regression fixture for the lexer's number/dot handling:
        // `b.0.partial_cmp(&a.0)` must still be seen as a method call.
        let src = "v.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());\n";
        assert_eq!(
            denied(&lint("crates/bench/benches/x.rs", src), "F1").len(),
            1
        );
    }

    #[test]
    fn f1_allows_hit_order_module_and_total_cmp() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert!(denied(&lint("crates/vecstore/src/lib.rs", src), "F1").is_empty());
        let fixed = "v.sort_by(|a, b| a.total_cmp(b));\n";
        assert!(denied(&lint("crates/knn/src/weights.rs", fixed), "F1").is_empty());
    }

    #[test]
    fn f1_does_not_flag_fn_definitions() {
        // `fn partial_cmp(..)` in a PartialOrd impl is a definition,
        // not a float comparison.
        let src = "impl PartialOrd for Hit {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n}\n";
        assert!(denied(&lint("crates/vecstore/src/sharded.rs", src), "F1").is_empty());
    }

    // ---- F2 fixtures -------------------------------------------------

    #[test]
    fn f2_flags_unwrap_and_expect_in_request_path() {
        let src = "let v = queue.lock().unwrap();\nlet w = sess.get(&id).expect(\"session\");\n";
        let f = lint("crates/server/src/queue.rs", src);
        assert_eq!(denied(&f, "F2").len(), 2);
    }

    #[test]
    fn f2_ignores_non_request_path_files() {
        let src = "let v = x.unwrap();\n";
        assert!(lint("crates/bench/src/context.rs", src).is_empty());
    }

    #[test]
    fn f2_allows_test_code() {
        let src = "pub fn run() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { run(); Some(1).unwrap(); }\n}\n";
        assert!(denied(&lint("crates/server/src/queue.rs", src), "F2").is_empty());
    }

    #[test]
    fn f2_flags_code_before_and_after_test_mod() {
        let src = "pub fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\npub fn b() { z.unwrap(); }\n";
        let all = lint("crates/server/src/queue.rs", src);
        let f = denied(&all, "F2");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn f2_skips_parsers_own_expect_method() {
        let src = "self.expect(b'\"')?;\n";
        assert!(denied(&lint("crates/core/src/protocol.rs", src), "F2").is_empty());
    }

    #[test]
    fn f2_allows_unwrap_or_else_and_cfg_not_test() {
        let src = "let g = m.lock().unwrap_or_else(|p| p.into_inner());\n#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let all = lint("crates/server/src/queue.rs", src);
        let f = denied(&all, "F2");
        // unwrap_or_else is fine; the cfg(not(test)) fn is NOT a test
        // region, so its unwrap is still flagged.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    // ---- K1 fixtures -------------------------------------------------

    #[test]
    fn k1_flags_fma_in_kernels() {
        let src = "let acc = _mm256_fmadd_ps(a, b, acc);\nlet s = x.mul_add(y, z);\n";
        let all = lint("crates/linalg/src/simd/avx2.rs", src);
        let f = denied(&all, "K1");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn k1_ignores_fma_mentions_in_comments_and_other_crates() {
        let src = "// no FMA: _mm256_fmadd_ps would change rounding\nlet y = a * b + c;\n";
        assert!(lint("crates/linalg/src/simd/avx2.rs", src).is_empty());
        let elsewhere = "let s = x.mul_add(y, z);\n";
        assert!(lint("crates/optim/src/lib.rs", elsewhere).is_empty());
    }

    // ---- E1 fixtures -------------------------------------------------

    #[test]
    fn e1_flags_unregistered_env_reads() {
        let fl = FileLint::new(
            "crates/server/src/bin/serve.rs",
            "let v = std::env::var(\"SEESAW_FIXTURE_ONLY\");\n",
        );
        let mut uses = BTreeMap::new();
        for (name, line) in fl.env_uses() {
            uses.insert(name, (fl.rel.clone(), line));
        }
        let findings = check_env_registry(&uses, &BTreeMap::new());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("SEESAW_FIXTURE_ONLY"));
        assert_eq!(findings[0].path, "crates/server/src/bin/serve.rs");
    }

    #[test]
    fn e1_denies_registry_rows_with_no_source_read() {
        let readme = "x\n<!-- xtask:env-registry:begin -->\n| `SEESAW_SIMD` | ... |\n| `SEESAW_RETIRED` | ... |\n<!-- xtask:env-registry:end -->\n";
        let registry = parse_registry(readme).expect("markers present");
        let mut uses = BTreeMap::new();
        uses.insert(
            "SEESAW_SIMD".to_string(),
            ("crates/linalg/src/simd/mod.rs".to_string(), 7),
        );
        let findings = check_env_registry(&uses, &registry);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].allowed);
        assert!(findings[0].msg.contains("SEESAW_RETIRED"));
        assert_eq!(
            (findings[0].path.as_str(), findings[0].line),
            ("README.md", 4)
        );
    }

    #[test]
    fn e1_accepts_registered_reads_and_format_strings() {
        let fl = FileLint::new(
            "crates/bench/src/context.rs",
            "eprintln!(\"set SEESAW_SIMD={} before running\", tier);\n",
        );
        let mut uses = BTreeMap::new();
        for (name, line) in fl.env_uses() {
            uses.insert(name, (fl.rel.clone(), line));
        }
        assert!(uses.contains_key("SEESAW_SIMD"));
        let registry: BTreeMap<String, u32> =
            [("SEESAW_SIMD".to_string(), 1)].into_iter().collect();
        assert!(check_env_registry(&uses, &registry).is_empty());
    }

    #[test]
    fn e1_registry_parses_markers() {
        let readme = "intro\n<!-- xtask:env-registry:begin -->\n| `SEESAW_SIMD` | ... |\n| `SEESAW_THREADS` | ... |\n<!-- xtask:env-registry:end -->\n| `SEESAW_NOT_IN_TABLE` | outside markers |\n";
        let reg = parse_registry(readme).expect("markers present");
        assert!(reg.contains_key("SEESAW_SIMD"));
        assert!(reg.contains_key("SEESAW_THREADS"));
        assert!(!reg.contains_key("SEESAW_NOT_IN_TABLE"));
        assert_eq!(parse_registry("no markers here"), None);
    }

    // ---- cross-cutting -----------------------------------------------

    #[test]
    fn allow_directive_scopes_to_adjacent_line_only() {
        let src = "// xtask-allow: F2\nx.unwrap();\ny.unwrap();\n";
        let f = lint("crates/server/src/queue.rs", src);
        assert_eq!(denied(&f, "F2").len(), 1);
        assert_eq!(denied(&f, "F2")[0].line, 3);
    }

    #[test]
    fn allow_directive_only_suppresses_named_rules() {
        let src = "// xtask-allow: F1\nunsafe { p.read() }\n";
        // F1 allow does nothing for U1/U2.
        let f = lint("crates/core/src/session.rs", src);
        assert_eq!(denied(&f, "U1").len(), 1);
        assert_eq!(denied(&f, "U2").len(), 1);
    }
}
