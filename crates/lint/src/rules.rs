//! The five rule families and the per-file checking engine.
//!
//! Every rule has a stable ID used in diagnostics, the JSON report, and
//! `lint-baseline.toml`:
//!
//! | ID   | family       | what it enforces |
//! |------|--------------|------------------|
//! | U001 | unsafe       | `unsafe` only inside the simd-gated AVX2 module (or an explicit `#[allow(unsafe_code)]` dispatch site) of the one allowlisted file |
//! | U002 | unsafe       | every `unsafe` block/fn carries a `// SAFETY:` comment or `# Safety` doc section |
//! | U003 | unsafe       | crate roots carry `#![deny(unsafe_code)]` (or `forbid`) |
//! | D101 | determinism  | no entropy-seeded RNG (`thread_rng`, `from_entropy`, `OsRng`) |
//! | D102 | determinism  | no `SystemTime`; `Instant::now` only in timing paths or `lint: timing-ok` sites |
//! | D103 | determinism  | no direct `HashMap`/`HashSet` iteration without `lint: order-insensitive` |
//! | P201 | panic policy | no `.unwrap()` without `lint: panic-ok` |
//! | P202 | panic policy | no `panic!`/`todo!`/`unimplemented!` without `lint: panic-ok` |
//! | P203 | panic policy | `.expect(…)` must carry a non-empty string-literal invariant message |
//! | P204 | panic policy | no indexing by integer literal without `lint: index-ok` |
//! | F301 | feature gate | every positive `cfg(feature = "x")` has a `cfg(not(… feature = "x" …))` fallback in the same file |
//! | F302 | feature gate | every `target_feature(enable = …)` feature appears in an `is_x86_feature_detected!` check in the same file |
//! | C401 | concurrency  | no `static mut` |
//! | C402 | concurrency  | every `Ordering::Relaxed` carries `lint: relaxed-ok` |
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` fns) is exempt from all
//! families except U003 (a crate root attribute is file-global).

use crate::lexer::TokKind;
use crate::source::{any_ident_at, ident_at, matching_delim, punct_at, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule ID (`U001`, `D103`, …).
    pub rule: &'static str,
    /// Human-readable explanation with the escape hatch named.
    pub message: String,
}

/// How `unsafe` tokens are policed in a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafePolicy {
    /// No `unsafe` at all (every file except the kernel allowlist).
    Forbidden,
    /// `unsafe` allowed inside a feature-gated `mod <name>` carrying
    /// `#[allow(unsafe_code)]`, or at sites bearing that attribute
    /// directly (the runtime-dispatch pattern).
    GatedModule(&'static str),
}

/// Which rule families apply to a file, derived from its workspace role.
#[derive(Debug, Clone, Copy)]
pub struct FileContext {
    /// Apply U003 (the file is a crate root).
    pub crate_root: bool,
    /// Apply D101/D102/D103 (the file is in a result-producing crate).
    pub determinism: bool,
    /// Apply P201–P204 (the file is on the core/genome public path).
    pub panic_policy: bool,
    /// `Instant::now` allowed without annotation (stats/bench paths).
    pub timing_allowed: bool,
    /// How `unsafe` is policed.
    pub unsafe_policy: UnsafePolicy,
}

impl FileContext {
    /// The strictest context: every family on. Used for fixtures and for
    /// linting ad-hoc files passed on the command line.
    #[must_use]
    pub fn strict() -> Self {
        FileContext {
            crate_root: true,
            determinism: true,
            panic_policy: true,
            timing_allowed: false,
            unsafe_policy: UnsafePolicy::GatedModule("avx2"),
        }
    }
}

/// Checks one file and returns its findings sorted by line.
#[must_use]
pub fn check_source(path: &str, src: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, src);
    let mut diags = Vec::new();
    if ctx.crate_root {
        rule_u003(&file, &mut diags);
    }
    rules_unsafe(&file, ctx, &mut diags);
    if ctx.determinism {
        rule_d101(&file, &mut diags);
        rule_d102(&file, ctx, &mut diags);
        rule_d103(&file, &mut diags);
    }
    if ctx.panic_policy {
        rules_panic(&file, &mut diags);
    }
    rule_f301(&file, &mut diags);
    rule_f302(&file, &mut diags);
    rules_concurrency(&file, &mut diags);
    diags.sort();
    diags
}

fn push(
    diags: &mut Vec<Diagnostic>,
    file: &SourceFile,
    line: u32,
    rule: &'static str,
    msg: String,
) {
    diags.push(Diagnostic {
        file: file.path.clone(),
        line,
        rule,
        message: msg,
    });
}

// ---------------------------------------------------------------- U003

fn rule_u003(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let t = &file.toks;
    let found = (0..t.len()).any(|i| {
        punct_at(t, i, '#')
            && punct_at(t, i + 1, '!')
            && punct_at(t, i + 2, '[')
            && (ident_at(t, i + 3, "deny") || ident_at(t, i + 3, "forbid"))
            && punct_at(t, i + 4, '(')
            && ident_at(t, i + 5, "unsafe_code")
    });
    if !found {
        push(
            diags,
            file,
            1,
            "U003",
            "crate root lacks `#![deny(unsafe_code)]` (or `#![forbid(unsafe_code)]`)".to_string(),
        );
    }
}

// --------------------------------------------------------- U001 / U002

/// Token spans of modules named `gate` whose attribute stack carries both
/// a `cfg` mentioning the `simd` feature and `allow(unsafe_code)`.
fn gated_module_spans(file: &SourceFile, gate: &str) -> Vec<(usize, usize)> {
    let t = &file.toks;
    let mut spans = Vec::new();
    for m in 0..t.len() {
        if !ident_at(t, m, "mod") || !ident_at(t, m + 1, gate) {
            continue;
        }
        let Some(open) = (m + 2..t.len()).find(|&j| t[j].is_punct('{')) else {
            continue;
        };
        let Some(close) = matching_delim(t, open, '{', '}') else {
            continue;
        };
        if mod_attrs_gate_unsafe(file, m) {
            spans.push((open, close));
        }
    }
    spans
}

/// Walks the attribute stack directly above token `m` (a `mod` keyword)
/// looking for `allow(unsafe_code)` and a `cfg` attribute that names the
/// `simd` feature.
fn mod_attrs_gate_unsafe(file: &SourceFile, m: usize) -> bool {
    let t = &file.toks;
    let mut has_allow = false;
    let mut has_cfg_simd = false;
    let mut j = m;
    while j >= 1 && punct_at(t, j - 1, ']') {
        // Find the '[' matching this ']' by walking backwards.
        let close = j - 1;
        let mut depth = 0usize;
        let mut open = None;
        for k in (0..=close).rev() {
            if t[k].is_punct(']') {
                depth += 1;
            } else if t[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    open = Some(k);
                    break;
                }
            }
        }
        let Some(open) = open else { break };
        if open == 0 || !punct_at(t, open - 1, '#') {
            break;
        }
        let body = &t[open + 1..close];
        if body.first().is_some_and(|x| x.is_ident("allow"))
            && body.iter().any(|x| x.is_ident("unsafe_code"))
        {
            has_allow = true;
        }
        if body.first().is_some_and(|x| x.is_ident("cfg"))
            && body
                .iter()
                .any(|x| matches!(x.kind, TokKind::Str { .. }) && x.text == "simd")
        {
            has_cfg_simd = true;
        }
        j = open - 1;
    }
    has_allow && has_cfg_simd
}

/// Whether the tokens directly before index `i` include an
/// `#[allow(unsafe_code)]` attribute (the dispatch-site pattern
/// `#[allow(unsafe_code)] return unsafe { … }`).
fn allow_attr_before(file: &SourceFile, i: usize) -> bool {
    let t = &file.toks;
    let lo = i.saturating_sub(12);
    (lo..i).any(|j| {
        ident_at(t, j, "allow")
            && punct_at(t, j + 1, '(')
            && ident_at(t, j + 2, "unsafe_code")
            && j >= 2
            && punct_at(t, j - 1, '[')
            && punct_at(t, j - 2, '#')
    })
}

fn rules_unsafe(file: &SourceFile, ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    let t = &file.toks;
    let gated = match ctx.unsafe_policy {
        UnsafePolicy::GatedModule(gate) => gated_module_spans(file, gate),
        UnsafePolicy::Forbidden => Vec::new(),
    };
    for i in 0..t.len() {
        if !ident_at(t, i, "unsafe") || file.in_test(i) {
            continue;
        }
        let line = t[i].line;
        let in_gated = gated.iter().any(|&(lo, hi)| lo < i && i < hi);
        let contained = match ctx.unsafe_policy {
            UnsafePolicy::Forbidden => false,
            UnsafePolicy::GatedModule(_) => in_gated || allow_attr_before(file, i),
        };
        if !contained {
            push(
                diags,
                file,
                line,
                "U001",
                "`unsafe` outside the simd-gated AVX2 module (containment: keep unsafe in the \
                 allowlisted kernel module or an `#[allow(unsafe_code)]` dispatch site)"
                    .to_string(),
            );
        }
        if !file.safety_documented(line) {
            push(
                diags,
                file,
                line,
                "U002",
                "`unsafe` without a safety contract — add `// SAFETY: …` above the block or a \
                 `# Safety` doc section on the fn"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- D101

const ENTROPY_IDENTS: [&str; 3] = ["thread_rng", "from_entropy", "OsRng"];

fn rule_d101(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            // No escape hatch: entropy-seeded RNG breaks golden
            // reproducibility everywhere, tests included.
            let _ = i;
            push(
                diags,
                file,
                t.line,
                "D101",
                format!(
                    "entropy-seeded RNG (`{}`) — derive RNGs from an explicit seed instead",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- D102

fn rule_d102(file: &SourceFile, ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    let t = &file.toks;
    for i in 0..t.len() {
        if file.in_test(i) {
            continue;
        }
        if ident_at(t, i, "SystemTime") {
            push(
                diags,
                file,
                t[i].line,
                "D102",
                "`SystemTime` in a result-producing crate — wall-clock time must never reach a \
                 mapping decision"
                    .to_string(),
            );
        }
        if ident_at(t, i, "Instant")
            && punct_at(t, i + 1, ':')
            && punct_at(t, i + 2, ':')
            && ident_at(t, i + 3, "now")
            && !ctx.timing_allowed
            && !file.annotated(t[i].line, "timing-ok")
        {
            push(
                diags,
                file,
                t[i].line,
                "D102",
                "`Instant::now()` in a result-producing crate — allowed only in stats/bench \
                 paths; annotate `// lint: timing-ok — <why it cannot affect results>`"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- D103

const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Identifiers bound to `HashMap`/`HashSet` in this file: `name: HashMap`
/// type ascriptions (lets, params, struct fields) and
/// `let name = HashMap::…` initializers.
fn hash_bound_names(file: &SourceFile) -> BTreeSet<String> {
    let t = &file.toks;
    let is_hash = |i: usize| ident_at(t, i, "HashMap") || ident_at(t, i, "HashSet");
    let mut names = BTreeSet::new();
    for i in 0..t.len() {
        // `name : [& mut std::collections::] HashMap<…>`
        if any_ident_at(t, i) && punct_at(t, i + 1, ':') && !punct_at(t, i + 2, ':') {
            let mut j = i + 2;
            let mut hops = 0;
            while hops < 8 {
                if is_hash(j) {
                    names.insert(t[i].text.clone());
                    break;
                }
                let skippable = punct_at(t, j, '&')
                    || punct_at(t, j, ':')
                    || ident_at(t, j, "mut")
                    || ident_at(t, j, "std")
                    || ident_at(t, j, "collections")
                    || t.get(j).is_some_and(|x| x.kind == TokKind::Lifetime);
                if !skippable {
                    break;
                }
                j += 1;
                hops += 1;
            }
        }
        // `let [mut] name = [std::collections::] HashMap::new/default/with_capacity`
        if ident_at(t, i, "let") {
            let mut j = i + 1;
            if ident_at(t, j, "mut") {
                j += 1;
            }
            if any_ident_at(t, j) && punct_at(t, j + 1, '=') {
                let mut k = j + 2;
                let mut hops = 0;
                while hops < 6 && !is_hash(k) {
                    let skippable = punct_at(t, k, ':')
                        || ident_at(t, k, "std")
                        || ident_at(t, k, "collections");
                    if !skippable {
                        break;
                    }
                    k += 1;
                    hops += 1;
                }
                if is_hash(k) {
                    names.insert(t[j].text.clone());
                }
            }
        }
    }
    names
}

fn rule_d103(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let names = hash_bound_names(file);
    if names.is_empty() {
        return;
    }
    let t = &file.toks;
    let flag = |file: &SourceFile, line: u32, what: &str, diags: &mut Vec<Diagnostic>| {
        if !file.annotated(line, "order-insensitive") {
            push(
                diags,
                file,
                line,
                "D103",
                format!(
                    "direct iteration over hash collection `{what}` — iteration order is \
                     unspecified; sort first, use a BTree collection, or annotate \
                     `// lint: order-insensitive — <why order cannot change the result>`"
                ),
            );
        }
    };
    for i in 0..t.len() {
        if file.in_test(i) {
            continue;
        }
        // `name.iter()` / `name.keys()` / …
        if any_ident_at(t, i)
            && names.contains(&t[i].text)
            && punct_at(t, i + 1, '.')
            && t.get(i + 2).is_some_and(|x| {
                x.kind == TokKind::Ident && HASH_ITER_METHODS.contains(&x.text.as_str())
            })
            && punct_at(t, i + 3, '(')
        {
            flag(file, t[i].line, &t[i].text, diags);
        }
        // `for pat in [&[mut]] name {`
        if ident_at(t, i, "for") {
            let limit = (i + 1..t.len().min(i + 14)).find(|&j| ident_at(t, j, "in"));
            if let Some(j) = limit {
                let mut k = j + 1;
                while punct_at(t, k, '&') || ident_at(t, k, "mut") {
                    k += 1;
                }
                if any_ident_at(t, k) && names.contains(&t[k].text) && punct_at(t, k + 1, '{') {
                    flag(file, t[k].line, &t[k].text, diags);
                }
            }
        }
    }
}

// --------------------------------------------------------- P201 – P204

const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

fn rules_panic(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let t = &file.toks;
    for i in 0..t.len() {
        if file.in_test(i) {
            continue;
        }
        let line = t.get(i).map_or(0, |x| x.line);
        // P201: `.unwrap()`
        if punct_at(t, i, '.')
            && ident_at(t, i + 1, "unwrap")
            && punct_at(t, i + 2, '(')
            && punct_at(t, i + 3, ')')
            && !file.annotated(t[i + 1].line, "panic-ok")
        {
            push(
                diags,
                file,
                t[i + 1].line,
                "P201",
                "`.unwrap()` on a public path — return a typed error, use a justified \
                 `.expect(\"invariant …\")`, or annotate `// lint: panic-ok — <reason>`"
                    .to_string(),
            );
        }
        // P202: panic!/todo!/unimplemented!
        if t.get(i)
            .is_some_and(|x| x.kind == TokKind::Ident && PANIC_MACROS.contains(&x.text.as_str()))
            && punct_at(t, i + 1, '!')
            && !file.annotated(line, "panic-ok")
        {
            push(
                diags,
                file,
                line,
                "P202",
                format!(
                    "`{}!` on a public path — return a typed error or annotate \
                     `// lint: panic-ok — <documented contract>`",
                    t[i].text
                ),
            );
        }
        // P203: `.expect(` must take a non-empty string literal.
        if punct_at(t, i, '.') && ident_at(t, i + 1, "expect") && punct_at(t, i + 2, '(') {
            let arg_ok = t
                .get(i + 3)
                .is_some_and(|x| matches!(x.kind, TokKind::Str { empty: false }));
            if !arg_ok && !file.annotated(t[i + 1].line, "panic-ok") {
                push(
                    diags,
                    file,
                    t[i + 1].line,
                    "P203",
                    "`.expect(…)` without a non-empty string-literal invariant message".to_string(),
                );
            }
        }
        // P204: indexing by integer literal, `expr[0]`.
        if punct_at(t, i, '[')
            && t.get(i + 1).is_some_and(|x| x.kind == TokKind::Int)
            && punct_at(t, i + 2, ']')
            && i >= 1
            && (any_ident_at(t, i - 1) || punct_at(t, i - 1, ')') || punct_at(t, i - 1, ']'))
            && !file.annotated(t[i + 1].line, "index-ok")
        {
            push(
                diags,
                file,
                t[i + 1].line,
                "P204",
                format!(
                    "indexing by literal `[{}]` — prefer `.first()`/`.get({})` or annotate \
                     `// lint: index-ok — <why it cannot be out of bounds>`",
                    t[i + 1].text,
                    t[i + 1].text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- F301

/// `(feature-name, negated, line)` occurrences in `cfg` attributes.
fn cfg_feature_occurrences(file: &SourceFile) -> Vec<(String, bool, u32, usize)> {
    let t = &file.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if punct_at(t, i, '#') {
            let open = i + 1 + usize::from(punct_at(t, i + 1, '!'));
            if punct_at(t, open, '[') {
                if let Some(close) = matching_delim(t, open, '[', ']') {
                    let body = &t[open + 1..close];
                    // `cfg(...)` only — a `cfg_attr` drops its attribute
                    // when the cfg is off, which is its own fallback.
                    if body.first().is_some_and(|x| x.is_ident("cfg"))
                        && !body.iter().any(|x| x.is_ident("test"))
                    {
                        let mut paren_not: Vec<bool> = Vec::new();
                        let mut prev_not = false;
                        for (bi, b) in body.iter().enumerate() {
                            if b.is_punct('(') {
                                paren_not.push(prev_not);
                            } else if b.is_punct(')') {
                                paren_not.pop();
                            } else if b.is_ident("feature")
                                && body.get(bi + 1).is_some_and(|x| x.is_punct('='))
                            {
                                if let Some(name) = body.get(bi + 2) {
                                    if matches!(name.kind, TokKind::Str { .. }) {
                                        let negated = paren_not.iter().any(|&n| n);
                                        out.push((name.text.clone(), negated, b.line, i));
                                    }
                                }
                            }
                            prev_not = b.is_ident("not");
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

fn rule_f301(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let occ = cfg_feature_occurrences(file);
    let negatives: BTreeSet<&str> = occ
        .iter()
        .filter(|(_, neg, _, _)| *neg)
        .map(|(f, _, _, _)| f.as_str())
        .collect();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for (feature, negated, line, tok_idx) in &occ {
        if *negated || negatives.contains(feature.as_str()) || reported.contains(feature.as_str()) {
            continue;
        }
        if file.in_test(*tok_idx) || file.annotated(*line, "cfg-fallback") {
            continue;
        }
        reported.insert(feature.as_str());
        push(
            diags,
            file,
            *line,
            "F301",
            format!(
                "`cfg(feature = \"{feature}\")` has no `cfg(not(… feature = \"{feature}\" …))` \
                 fallback in this file — gated items need a reachable non-feature path, or \
                 annotate `// lint: cfg-fallback — <where the fallback lives>`"
            ),
        );
    }
}

// ---------------------------------------------------------------- F302

fn rule_f302(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let t = &file.toks;
    let mut detected: BTreeSet<String> = BTreeSet::new();
    for i in 0..t.len() {
        if ident_at(t, i, "is_x86_feature_detected") && punct_at(t, i + 1, '!') {
            if let Some(s) = t.get(i + 3) {
                if matches!(s.kind, TokKind::Str { .. }) {
                    detected.insert(s.text.clone());
                }
            }
        }
    }
    for i in 0..t.len() {
        if ident_at(t, i, "target_feature")
            && punct_at(t, i + 1, '(')
            && ident_at(t, i + 2, "enable")
            && punct_at(t, i + 3, '=')
        {
            if let Some(list) = t.get(i + 4) {
                if matches!(list.kind, TokKind::Str { .. }) {
                    for feature in list
                        .text
                        .split(',')
                        .map(str::trim)
                        .filter(|f| !f.is_empty())
                    {
                        if !detected.contains(feature) {
                            push(
                                diags,
                                file,
                                list.line,
                                "F302",
                                format!(
                                    "`target_feature(enable = \"…{feature}…\")` but no \
                                     `is_x86_feature_detected!(\"{feature}\")` in this file — \
                                     every enabled feature bit must be runtime-verified \
                                     (independent CPUID bits; the PR 5 AVX2/POPCNT bug class)"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------- C401 / C402

fn rules_concurrency(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let t = &file.toks;
    for i in 0..t.len() {
        if file.in_test(i) {
            continue;
        }
        if ident_at(t, i, "static") && ident_at(t, i + 1, "mut") {
            push(
                diags,
                file,
                t[i].line,
                "C401",
                "`static mut` — use an atomic or a lock; there is no annotation escape".to_string(),
            );
        }
        if ident_at(t, i, "Relaxed")
            && i >= 1
            && punct_at(t, i - 1, ':')
            && !file.annotated(t[i].line, "relaxed-ok")
        {
            push(
                diags,
                file,
                t[i].line,
                "C402",
                "`Ordering::Relaxed` without justification — annotate \
                 `// lint: relaxed-ok — <why no ordering is needed>` or use a stronger ordering"
                    .to_string(),
            );
        }
    }
}

/// Groups diagnostics by `(rule, file)` — the granularity baseline
/// entries suppress at.
#[must_use]
pub fn group_counts(diags: &[Diagnostic]) -> BTreeMap<(String, String), usize> {
    let mut map = BTreeMap::new();
    for d in diags {
        *map.entry((d.rule.to_string(), d.file.clone())).or_insert(0) += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Diagnostic> {
        check_source("fixture.rs", src, &FileContext::strict())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    const ROOT: &str = "#![deny(unsafe_code)]\n";

    #[test]
    fn u003_missing_and_present() {
        assert!(rules_of(&strict("pub fn f() {}")).contains(&"U003"));
        assert!(!rules_of(&strict("#![forbid(unsafe_code)]\npub fn f() {}")).contains(&"U003"));
    }

    #[test]
    fn unwrap_flagged_unless_annotated_or_test() {
        let bad = format!("{ROOT}pub fn f(x: Option<u32>) -> u32 {{ x.unwrap() }}");
        assert!(rules_of(&strict(&bad)).contains(&"P201"));
        let annotated = format!(
            "{ROOT}pub fn f(x: Option<u32>) -> u32 {{\n    // lint: panic-ok — validated by caller.\n    x.unwrap()\n}}"
        );
        assert!(!rules_of(&strict(&annotated)).contains(&"P201"));
        let test = format!("{ROOT}#[cfg(test)]\nmod tests {{\n    fn f() {{ x.unwrap(); }}\n}}");
        assert!(!rules_of(&strict(&test)).contains(&"P201"));
    }

    #[test]
    fn expect_needs_a_message() {
        let bad = format!("{ROOT}pub fn f(x: Option<u32>) -> u32 {{ x.expect(\"\") }}");
        assert!(rules_of(&strict(&bad)).contains(&"P203"));
        let good = format!("{ROOT}pub fn f(x: Option<u32>) -> u32 {{ x.expect(\"set above\") }}");
        assert!(!rules_of(&strict(&good)).contains(&"P203"));
    }

    #[test]
    fn literal_index_vs_vec_macro_and_array_literal() {
        let bad = format!("{ROOT}pub fn f(xs: &[u32]) -> u32 {{ xs[0] }}");
        assert!(rules_of(&strict(&bad)).contains(&"P204"));
        let fine = format!("{ROOT}pub fn f() -> Vec<u32> {{ vec![0] }}");
        assert!(!rules_of(&strict(&fine)).contains(&"P204"));
        let arr = format!("{ROOT}pub fn f() -> [u64; 2] {{ [0, 1] }}");
        assert!(!rules_of(&strict(&arr)).contains(&"P204"));
    }

    #[test]
    fn hash_iteration_tracked_through_bindings() {
        let bad = format!(
            "{ROOT}use std::collections::HashMap;\npub fn f(votes: &HashMap<u32, u32>) -> u32 {{\n    votes.values().sum()\n}}"
        );
        assert!(rules_of(&strict(&bad)).contains(&"D103"));
        let bad_for = format!(
            "{ROOT}use std::collections::HashMap;\npub fn f() {{\n    let m = HashMap::new();\n    for (k, v) in &m {{ }}\n}}"
        );
        assert!(rules_of(&strict(&bad_for)).contains(&"D103"));
        // Lookup (not iteration) is fine; Vec iteration is fine.
        let fine = format!(
            "{ROOT}use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>, xs: &[u32]) -> u32 {{\n    xs.iter().sum::<u32>() + m.get(&0).copied().unwrap_or(0)\n}}"
        );
        assert!(!rules_of(&strict(&fine)).contains(&"D103"));
    }

    #[test]
    fn relaxed_needs_annotation() {
        let bad = format!("{ROOT}pub fn f(c: &AtomicU64) {{ c.fetch_add(1, Ordering::Relaxed); }}");
        assert!(rules_of(&strict(&bad)).contains(&"C402"));
        let good = format!(
            "{ROOT}pub fn f(c: &AtomicU64) {{ c.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — pure counter\n}}"
        );
        assert!(!rules_of(&strict(&good)).contains(&"C402"));
    }

    #[test]
    fn target_feature_must_match_detection() {
        let bad = format!(
            "{ROOT}#[cfg(all(feature = \"simd\", target_arch = \"x86_64\"))]\n#[allow(unsafe_code)]\nmod avx2 {{\n    /// # Safety\n    /// AVX2 verified.\n    #[target_feature(enable = \"avx2,popcnt\")]\n    pub unsafe fn f() {{}}\n}}\n#[cfg(not(all(feature = \"simd\", target_arch = \"x86_64\")))]\npub fn f() {{}}\nfn ok() -> bool {{ is_x86_feature_detected!(\"avx2\") }}"
        );
        let rules = rules_of(&strict(&bad));
        assert!(rules.contains(&"F302"), "{rules:?}");
        assert!(!rules.contains(&"U001"), "{rules:?}");
    }

    #[test]
    fn cfg_feature_without_fallback_flagged_once() {
        let bad = format!(
            "{ROOT}#[cfg(feature = \"turbo\")]\npub fn fast() {{}}\n#[cfg(feature = \"turbo\")]\npub fn fast2() {{}}"
        );
        let rules = rules_of(&strict(&bad));
        assert_eq!(rules.iter().filter(|r| **r == "F301").count(), 1);
        let good = format!(
            "{ROOT}#[cfg(feature = \"turbo\")]\npub fn fast() {{}}\n#[cfg(not(feature = \"turbo\"))]\npub fn fast() {{}}"
        );
        assert!(!rules_of(&strict(&good)).contains(&"F301"));
    }

    #[test]
    fn entropy_rng_and_wall_clock_flagged() {
        let rng = format!("{ROOT}pub fn f() {{ let mut r = rand::thread_rng(); }}");
        assert!(rules_of(&strict(&rng)).contains(&"D101"));
        let clock = format!("{ROOT}pub fn f() {{ let t = std::time::SystemTime::now(); }}");
        assert!(rules_of(&strict(&clock)).contains(&"D102"));
        let instant = format!(
            "{ROOT}pub fn f() {{ let t = Instant::now(); // lint: timing-ok — stats only\n}}"
        );
        assert!(!rules_of(&strict(&instant)).contains(&"D102"));
    }
}
