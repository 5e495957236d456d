//! The five tracelint rules.
//!
//! Each rule walks the token stream of one file with its scope map and
//! returns findings. Heuristics are tuned to the idioms actually used in
//! this workspace; where a rule cannot prove a site safe, the fix is either
//! to restructure the code or to carry an inline waiver with a reason
//! (see `docs/lints.md`).

use std::collections::BTreeSet;

use crate::config::Config;
use crate::lexer::{Token, TokenKind};
use crate::scope::ScopeMap;

/// One lint finding in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    /// The enclosing function, when known.
    pub function: Option<String>,
    pub message: String,
}

/// Rule names that an inline waiver may name.
pub const WAIVABLE_RULES: &[&str] = &[
    "nondet-iter",
    "hot-path-alloc",
    "serve-panic",
    "guard-across-call",
    "interrupt-poll",
];

/// Everything a rule needs to inspect one file.
pub struct FileCtx<'a> {
    pub src: &'a str,
    pub tokens: &'a [Token],
    pub scopes: &'a ScopeMap,
    /// Repo-relative path with `/` separators.
    pub rel_path: &'a str,
    pub config: &'a Config,
}

/// Manifest entries that matched a function somewhere in the scanned tree;
/// entries that never match are reported as stale by the engine.
#[derive(Debug, Default)]
pub struct MatchedEntries {
    pub hot: BTreeSet<String>,
    pub interrupt: BTreeSet<String>,
}

impl<'a> FileCtx<'a> {
    fn ident(&self, idx: usize) -> Option<&'a str> {
        let tok = self.tokens.get(idx)?;
        (tok.kind == TokenKind::Ident).then(|| tok.text(self.src))
    }

    fn punct(&self, idx: usize, ch: char) -> bool {
        self.tokens.get(idx).is_some_and(|t| t.is_punct(ch))
    }

    fn line(&self, idx: usize) -> u32 {
        self.tokens.get(idx).map_or(0, |t| t.line)
    }

    /// Brace depth before each token (precomputed by the engine walk).
    fn depths(&self) -> Vec<u32> {
        let mut depths = Vec::with_capacity(self.tokens.len());
        let mut depth = 0u32;
        for tok in self.tokens {
            depths.push(depth);
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                depth = depth.saturating_sub(1);
            }
        }
        depths
    }
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileCtx<'_>, matched: &mut MatchedEntries) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(nondet_iter(ctx));
    findings.extend(hot_path_alloc(ctx, matched));
    findings.extend(serve_panic(ctx));
    findings.extend(guard_across_call(ctx));
    findings.extend(interrupt_poll(ctx, matched));
    findings
}

// ---------------------------------------------------------------- rule 1 --

/// Hash-iteration methods whose visit order is unspecified.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers that make an iteration order-insensitive: either the result
/// is sorted/re-collected into an ordered structure, or the reduction is
/// commutative.
const ORDER_INSENSITIVE: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "all",
    "any",
    "count",
    "sum",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
];

/// Rule `nondet-iter`: in model-producing crates, iterating a `HashMap` /
/// `HashSet` is denied unless the site is provably order-insensitive.
/// Learned models must be byte-identical across runs and thread counts;
/// hash iteration order is the classic way that property silently breaks.
fn nondet_iter(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !Config::path_matches(ctx.rel_path, &ctx.config.determinism_paths) {
        return findings;
    }
    let hash_names = collect_hash_names(ctx);
    if hash_names.is_empty() {
        return findings;
    }

    let mut flagged: BTreeSet<(u32, String)> = BTreeSet::new();
    for idx in 0..ctx.tokens.len() {
        if ctx.scopes.is_test(idx) {
            continue;
        }
        let Some(name) = ctx.ident(idx) else { continue };
        if name == "for" {
            // `for pat in <header> {` — flag any hash name in the header.
            if ctx.punct(idx + 1, '<') {
                continue; // `for<'a>` higher-ranked bound
            }
            let mut j = idx + 1;
            let mut paren = 0usize;
            while j < ctx.tokens.len() {
                let tok = &ctx.tokens[j];
                if tok.is_punct('(') || tok.is_punct('[') {
                    paren += 1;
                } else if tok.is_punct(')') || tok.is_punct(']') {
                    paren = paren.saturating_sub(1);
                } else if tok.is_punct('{') && paren == 0 {
                    break;
                } else if tok.kind == TokenKind::Ident {
                    let word = tok.text(ctx.src);
                    if hash_names.contains(word) && !is_exempt_range(ctx, idx + 1, j) {
                        flagged.insert((tok.line, word.to_string()));
                    }
                }
                j += 1;
            }
            continue;
        }
        if !hash_names.contains(name) {
            continue;
        }
        // `name.iter()` / `name.keys()` / ... (also `self.name.iter()`).
        if ctx.punct(idx + 1, '.') {
            if let Some(method) = ctx.ident(idx + 2) {
                if ITER_METHODS.contains(&method) && ctx.punct(idx + 3, '(') {
                    let (lo, hi) = statement_range(ctx, idx);
                    if !is_exempt_range(ctx, lo, hi) {
                        flagged.insert((ctx.line(idx), name.to_string()));
                    }
                }
            }
        }
    }

    for (line, name) in flagged {
        findings.push(Finding {
            rule: "nondet-iter",
            line,
            function: None,
            message: format!(
                "iteration over hash-ordered `{name}` in a model-producing crate; \
                 sort the result, switch to a BTree collection, or waive with a reason"
            ),
        });
    }
    findings
}

/// Names in this file that are bound to `HashMap` / `HashSet`, from type
/// annotations (`name: HashMap<...>`, including struct fields and fn
/// parameters) and constructor bindings (`name = HashMap::new()`).
fn collect_hash_names(ctx: &FileCtx<'_>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for idx in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(idx) else { continue };
        if matches!(name, "HashMap" | "HashSet") {
            continue;
        }
        // `name : <type containing HashMap/HashSet>`
        if ctx.punct(idx + 1, ':') && !ctx.punct(idx + 2, ':') {
            let mut j = idx + 2;
            let mut angle = 0i32;
            while j < ctx.tokens.len() {
                let tok = &ctx.tokens[j];
                match tok.kind {
                    TokenKind::Punct('<') => angle += 1,
                    TokenKind::Punct('>') => {
                        let arrow = j > 0
                            && ctx.tokens[j - 1].is_punct('-')
                            && ctx.tokens[j - 1].end == tok.start;
                        if !arrow {
                            angle -= 1;
                            if angle < 0 {
                                break;
                            }
                        }
                    }
                    TokenKind::Punct(',')
                    | TokenKind::Punct(';')
                    | TokenKind::Punct('=')
                    | TokenKind::Punct(')')
                    | TokenKind::Punct('{')
                    | TokenKind::Punct('}')
                        if angle == 0 =>
                    {
                        break
                    }
                    TokenKind::Ident => {
                        let word = tok.text(ctx.src);
                        if matches!(word, "HashMap" | "HashSet") {
                            names.insert(name.to_string());
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `name = HashMap::new()` / `HashSet::with_capacity(...)`
        if ctx.punct(idx + 1, '=') {
            if let Some(ty) = ctx.ident(idx + 2) {
                if matches!(ty, "HashMap" | "HashSet") {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// The statement around token `idx`: back to the previous `;`/`{`/`}`,
/// forward through at most one `;` (so `let v: Vec<_> = m.iter().collect();
/// v.sort();` sees the sort) stopping at any brace.
fn statement_range(ctx: &FileCtx<'_>, idx: usize) -> (usize, usize) {
    let mut lo = idx;
    while lo > 0 {
        let tok = &ctx.tokens[lo - 1];
        if tok.is_punct(';') || tok.is_punct('{') || tok.is_punct('}') {
            break;
        }
        lo -= 1;
    }
    let mut hi = idx;
    let mut semis = 0usize;
    while hi + 1 < ctx.tokens.len() {
        let tok = &ctx.tokens[hi + 1];
        if tok.is_punct('{') || tok.is_punct('}') {
            break;
        }
        if tok.is_punct(';') {
            semis += 1;
            if semis == 2 {
                break;
            }
        }
        hi += 1;
    }
    (lo, hi)
}

fn is_exempt_range(ctx: &FileCtx<'_>, lo: usize, hi: usize) -> bool {
    (lo..=hi.min(ctx.tokens.len().saturating_sub(1)))
        .filter_map(|i| ctx.ident(i))
        .any(|word| ORDER_INSENSITIVE.contains(&word))
}

// ---------------------------------------------------------------- rule 2 --

/// Method calls that heap-allocate.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_string", "to_owned", "collect"];
/// Macros that heap-allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// `Type::constructor` pairs that heap-allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Rule `hot-path-alloc`: functions listed in the `[hot-path-alloc]`
/// manifest section must not contain allocating constructs. The serving
/// and solving hot paths promise zero steady-state allocation per event;
/// this rule keeps a refactor from quietly reintroducing one.
fn hot_path_alloc(ctx: &FileCtx<'_>, matched: &mut MatchedEntries) -> Vec<Finding> {
    let mut findings = Vec::new();
    for span in ctx.scopes.functions() {
        if !ctx.config.hot_functions.contains(&span.qualified) {
            continue;
        }
        matched.hot.insert(span.qualified.clone());
        if span.is_test {
            continue;
        }
        for idx in span.body_open..=span.body_close.min(ctx.tokens.len() - 1) {
            let Some(word) = ctx.ident(idx) else { continue };
            let hit = if ALLOC_METHODS.contains(&word) && ctx.punct(idx + 1, '(') {
                Some(format!("`{word}()` allocates"))
            } else if ALLOC_MACROS.contains(&word) && ctx.punct(idx + 1, '!') {
                Some(format!("`{word}!` allocates"))
            } else if ALLOC_TYPES.contains(&word)
                && ctx.punct(idx + 1, ':')
                && ctx.punct(idx + 2, ':')
            {
                match ctx.ident(idx + 3) {
                    Some(ctor) if ALLOC_CTORS.contains(&ctor) => {
                        Some(format!("`{word}::{ctor}` allocates"))
                    }
                    _ => None,
                }
            } else {
                None
            };
            if let Some(what) = hit {
                findings.push(Finding {
                    rule: "hot-path-alloc",
                    line: ctx.line(idx),
                    function: Some(span.qualified.clone()),
                    message: format!(
                        "{what} inside hot function `{}`; hoist it out of the \
                         per-event path or waive with a reason",
                        span.qualified
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 3 --

/// Keywords that can directly precede `[` without it being an index.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "box", "while", "for",
    "loop", "break", "continue", "unsafe", "async", "const", "static", "as", "dyn", "impl",
    "where", "pub", "fn", "use", "await",
];

/// Panicking macro names.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Rule `serve-panic`: under the `[serve-panic]` paths, non-test code must
/// not contain `unwrap()`, `expect()`, panicking macros, or slice/array
/// indexing. A long-running monitor degrades one stream on bad input; it
/// never takes the whole worker down.
fn serve_panic(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !Config::path_matches(ctx.rel_path, &ctx.config.panic_paths) {
        return findings;
    }
    for idx in 0..ctx.tokens.len() {
        if ctx.scopes.is_test(idx) {
            continue;
        }
        let tok = &ctx.tokens[idx];
        match tok.kind {
            TokenKind::Ident => {
                let word = tok.text(ctx.src);
                if matches!(word, "unwrap" | "expect") && ctx.punct(idx + 1, '(') {
                    findings.push(Finding {
                        rule: "serve-panic",
                        line: tok.line,
                        function: ctx.scopes.function_at(idx).map(str::to_string),
                        message: format!(
                            "`{word}()` in serve request-path code; return a per-stream \
                             error verdict instead of panicking the worker"
                        ),
                    });
                } else if PANIC_MACROS.contains(&word) && ctx.punct(idx + 1, '!') {
                    findings.push(Finding {
                        rule: "serve-panic",
                        line: tok.line,
                        function: ctx.scopes.function_at(idx).map(str::to_string),
                        message: format!(
                            "`{word}!` in serve request-path code; emit an error line and \
                             close the stream instead"
                        ),
                    });
                }
            }
            TokenKind::Punct('[') if idx > 0 => {
                let prev = &ctx.tokens[idx - 1];
                let is_index = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text(ctx.src)),
                    TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                    _ => false,
                };
                if is_index {
                    findings.push(Finding {
                        rule: "serve-panic",
                        line: tok.line,
                        function: ctx.scopes.function_at(idx).map(str::to_string),
                        message: "slice indexing in serve request-path code can panic on a \
                                  malformed frame; use `.get()` and handle the miss"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 4 --

/// Blocking calls a lock guard must not be held across.
fn is_blocking_call(word: &str) -> bool {
    matches!(
        word,
        "send" | "try_send" | "send_timeout" | "recv" | "try_recv" | "recv_timeout"
    ) || word.starts_with("solve")
}

/// Rule `guard-across-call`: a `Mutex`/`RwLock` guard binding that stays
/// live across a channel `send`/`recv` or a SAT `solve*` call serialises
/// the serving pool (at best) or deadlocks it (at worst). Scope the guard to
/// a block, clone out what you need, or `drop(guard)` first.
fn guard_across_call(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let depths = ctx.depths();
    for idx in 0..ctx.tokens.len() {
        if ctx.scopes.is_test(idx) {
            continue;
        }
        let Some(word) = ctx.ident(idx) else { continue };
        if !matches!(word, "lock" | "read" | "write") {
            continue;
        }
        if idx == 0 || !ctx.tokens[idx - 1].is_punct('.') || !ctx.punct(idx + 1, '(') {
            continue;
        }
        // Find the end of the `.lock(...)` call, then walk the adapter
        // chain. Only `unwrap` / `expect` / `unwrap_or_else` / `?` keep it
        // a guard; anything else (`.clone()`, a method on the inner value)
        // means the temporary dies at the end of the statement.
        let Some(mut after) = skip_balanced(ctx, idx + 1, '(', ')') else {
            continue;
        };
        loop {
            if ctx.punct(after, '?') {
                after += 1;
                continue;
            }
            if ctx.punct(after, '.') {
                if let Some(method) = ctx.ident(after + 1) {
                    if matches!(method, "unwrap" | "expect" | "unwrap_or_else")
                        && ctx.punct(after + 2, '(')
                    {
                        match skip_balanced(ctx, after + 2, '(', ')') {
                            Some(next) => {
                                after = next;
                                continue;
                            }
                            None => break,
                        }
                    }
                }
            }
            break;
        }
        if !ctx.punct(after, ';') {
            continue; // expression or temporary, not a live binding
        }
        // The statement must be `let [mut] NAME = ...` for a trackable guard.
        let mut lo = idx;
        while lo > 0 {
            let tok = &ctx.tokens[lo - 1];
            if tok.is_punct(';') || tok.is_punct('{') || tok.is_punct('}') {
                break;
            }
            lo -= 1;
        }
        if ctx.ident(lo) != Some("let") {
            continue;
        }
        let mut name_idx = lo + 1;
        if ctx.ident(name_idx) == Some("mut") {
            name_idx += 1;
        }
        let Some(guard_name) = ctx.ident(name_idx) else {
            continue; // tuple or struct pattern; give up rather than guess
        };
        // Live range: from the `;` to the end of the enclosing block, or to
        // an explicit `drop(guard)`.
        let binding_depth = depths[idx];
        let mut j = after + 1;
        while j < ctx.tokens.len() && depths[j] >= binding_depth {
            if ctx.ident(j) == Some("drop")
                && ctx.punct(j + 1, '(')
                && ctx.ident(j + 2) == Some(guard_name)
                && ctx.punct(j + 3, ')')
            {
                break;
            }
            if let Some(call) = ctx.ident(j) {
                if is_blocking_call(call)
                    && j > 0
                    && ctx.tokens[j - 1].is_punct('.')
                    && ctx.punct(j + 1, '(')
                    && !ctx.scopes.is_test(j)
                {
                    findings.push(Finding {
                        rule: "guard-across-call",
                        line: ctx.tokens[j].line,
                        function: ctx.scopes.function_at(j).map(str::to_string),
                        message: format!(
                            "lock guard `{guard_name}` (bound on line {}) is still live \
                             across this `.{call}(` call; drop the guard or scope it to \
                             a block first",
                            ctx.line(idx)
                        ),
                    });
                    break; // one finding per guard is enough
                }
            }
            j += 1;
        }
    }
    findings
}

/// From an opening delimiter at `open`, returns the index just past its
/// matching close.
fn skip_balanced(ctx: &FileCtx<'_>, open: usize, lhs: char, rhs: char) -> Option<usize> {
    if !ctx.punct(open, lhs) {
        return None;
    }
    let mut depth = 0usize;
    let mut i = open;
    while i < ctx.tokens.len() {
        if ctx.punct(i, lhs) {
            depth += 1;
        } else if ctx.punct(i, rhs) {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------- rule 5 --

/// Identifier fragments that count as polling an interrupt flag.
fn is_poll_ident(word: &str) -> bool {
    let lower = word.to_ascii_lowercase();
    lower.contains("interrupt") || lower.contains("cancel")
}

/// Rule `interrupt-poll`: functions listed in the `[interrupt-poll]`
/// manifest section are the serve pool's worker and supervisor loops; every
/// top-level `loop`/`while` in them must consult an interrupt/cancel flag,
/// or a condemned worker keeps running and a wedged one wedges its
/// supervisor.
fn interrupt_poll(ctx: &FileCtx<'_>, matched: &mut MatchedEntries) -> Vec<Finding> {
    let mut findings = Vec::new();
    for span in ctx.scopes.functions() {
        if !ctx.config.interrupt_functions.contains(&span.qualified) {
            continue;
        }
        matched.interrupt.insert(span.qualified.clone());
        if span.is_test {
            continue;
        }
        let close = span.body_close.min(ctx.tokens.len() - 1);
        let mut rel_depth = 0i32;
        let mut idx = span.body_open + 1;
        let mut loops = 0usize;
        while idx < close {
            let tok = &ctx.tokens[idx];
            if tok.is_punct('{') {
                rel_depth += 1;
            } else if tok.is_punct('}') {
                rel_depth -= 1;
            } else if rel_depth == 0 && tok.kind == TokenKind::Ident {
                let word = tok.text(ctx.src);
                if matches!(word, "loop" | "while") {
                    loops += 1;
                    // Find the loop body `{` (immediately next for `loop`,
                    // after the condition for `while`), then scan it.
                    let mut open = idx + 1;
                    let mut paren = 0usize;
                    while open < close {
                        if ctx.punct(open, '(') {
                            paren += 1;
                        } else if ctx.punct(open, ')') {
                            paren = paren.saturating_sub(1);
                        } else if ctx.punct(open, '{') && paren == 0 {
                            break;
                        }
                        open += 1;
                    }
                    let Some(end) = skip_balanced(ctx, open, '{', '}') else {
                        break;
                    };
                    let polls = (open..end).filter_map(|i| ctx.ident(i)).any(is_poll_ident);
                    if !polls {
                        findings.push(Finding {
                            rule: "interrupt-poll",
                            line: tok.line,
                            function: Some(span.qualified.clone()),
                            message: format!(
                                "top-level `{word}` in `{}` never polls an interrupt/cancel \
                                 flag, so cancelling it cannot stop it",
                                span.qualified
                            ),
                        });
                    }
                    // Skip past this loop body; nested loops inherit the
                    // poll obligation from the outer scan.
                    idx = end;
                    rel_depth = 0;
                    continue;
                }
            }
            idx += 1;
        }
        if loops == 0 {
            findings.push(Finding {
                rule: "interrupt-poll",
                line: span.line,
                function: Some(span.qualified.clone()),
                message: format!(
                    "`{}` is listed in [interrupt-poll] but has no top-level loop; \
                     update tracelint.conf",
                    span.qualified
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::scope;

    fn check(rel_path: &str, src: &str, config: &Config) -> Vec<Finding> {
        let tokens = lex(src);
        let scopes = scope(src, &tokens, false);
        let ctx = FileCtx {
            src,
            tokens: &tokens,
            scopes: &scopes,
            rel_path,
            config,
        };
        let mut matched = MatchedEntries::default();
        run_all(&ctx, &mut matched)
    }

    fn det_config() -> Config {
        Config {
            determinism_paths: vec!["crates/core/src".to_string()],
            ..Config::default()
        }
    }

    #[test]
    fn hash_iteration_fires_only_in_listed_paths() {
        let src = "fn f(m: &HashMap<u32, u32>) { for (k, v) in m { use_it(k, v); } }";
        let config = det_config();
        assert_eq!(check("crates/core/src/x.rs", src, &config).len(), 1);
        assert_eq!(check("crates/serve/src/x.rs", src, &config).len(), 0);
    }

    #[test]
    fn order_insensitive_reductions_are_exempt() {
        let src = "fn f(m: &HashMap<u32, u32>) -> bool { m.values().all(|v| *v < 3) }";
        assert_eq!(check("crates/core/src/x.rs", src, &det_config()).len(), 0);
    }

    #[test]
    fn collect_then_sort_is_exempt() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   let mut v: Vec<u32> = m.keys().copied().collect(); v.sort(); v }";
        assert_eq!(check("crates/core/src/x.rs", src, &det_config()).len(), 0);
    }

    #[test]
    fn hot_function_allocation_is_flagged() {
        let config = Config {
            hot_functions: vec!["Tracker::push".to_string()],
            ..Config::default()
        };
        let src = "impl Tracker { fn push(&mut self) { self.scratch = Vec::new(); } \
                   fn cold(&mut self) { self.scratch = Vec::new(); } }";
        let findings = check("crates/automaton/src/x.rs", src, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].function.as_deref(), Some("Tracker::push"));
    }

    #[test]
    fn serve_panic_catches_unwrap_and_indexing() {
        let config = Config {
            panic_paths: vec!["crates/serve/src".to_string()],
            ..Config::default()
        };
        let src = "fn f(v: &[u32]) -> u32 { let x = maybe().unwrap(); v[0] + x }";
        let findings = check("crates/serve/src/x.rs", src, &config);
        assert_eq!(findings.len(), 2);
        let src_ok = "fn f(v: &[u32]) -> Option<u32> { v.first().copied() }";
        assert_eq!(check("crates/serve/src/x.rs", src_ok, &config).len(), 0);
    }

    #[test]
    fn guard_across_send_is_flagged_but_scoped_guard_is_not() {
        let config = Config::default();
        let bad = "fn f() { let guard = shared.lock().unwrap(); tx.send(1); }";
        assert_eq!(check("crates/core/src/x.rs", bad, &config).len(), 1);
        let dropped = "fn f() { let guard = shared.lock().unwrap(); drop(guard); tx.send(1); }";
        assert_eq!(check("crates/core/src/x.rs", dropped, &config).len(), 0);
        let temporary = "fn f() { let snap = shared.lock().unwrap().clone(); tx.send(snap); }";
        assert_eq!(check("crates/core/src/x.rs", temporary, &config).len(), 0);
        let scoped =
            "fn f() { { let guard = shared.lock().unwrap(); use_it(&guard); } tx.send(1); }";
        assert_eq!(check("crates/core/src/x.rs", scoped, &config).len(), 0);
    }

    #[test]
    fn interrupt_poll_requires_a_flag_check() {
        let config = Config {
            interrupt_functions: vec!["Solver::propagate".to_string()],
            ..Config::default()
        };
        let bad = "impl Solver { fn propagate(&mut self) { while busy() { step(); } } }";
        let findings = check("crates/sat/src/x.rs", bad, &config);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "interrupt-poll");
        let good =
            "impl Solver { fn propagate(&mut self) { while busy() { if self.is_interrupted() \
             { return; } step(); } } }";
        assert_eq!(check("crates/sat/src/x.rs", good, &config).len(), 0);
    }

    #[test]
    fn manifest_entries_report_matches() {
        let config = Config {
            hot_functions: vec!["Tracker::push".to_string(), "ghost".to_string()],
            ..Config::default()
        };
        let src = "impl Tracker { fn push(&mut self) {} }";
        let tokens = lex(src);
        let scopes = scope(src, &tokens, false);
        let ctx = FileCtx {
            src,
            tokens: &tokens,
            scopes: &scopes,
            rel_path: "crates/automaton/src/x.rs",
            config: &config,
        };
        let mut matched = MatchedEntries::default();
        run_all(&ctx, &mut matched);
        assert!(matched.hot.contains("Tracker::push"));
        assert!(!matched.hot.contains("ghost"));
    }

    #[test]
    fn test_code_is_skipped_by_every_rule() {
        let config = Config {
            determinism_paths: vec!["crates/core/src".to_string()],
            panic_paths: vec!["crates/core/src".to_string()],
            ..Config::default()
        };
        let src = "#[cfg(test)] mod tests { fn f(m: &HashMap<u32, u32>) { \
                   for k in m.keys() { k.unwrap(); } } }";
        assert_eq!(check("crates/core/src/x.rs", src, &config).len(), 0);
    }
}
