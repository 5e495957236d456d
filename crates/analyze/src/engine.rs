//! File walking, waiver application, and report formatting.
//!
//! The engine lexes and scopes each workspace `.rs` file, runs every rule,
//! then applies inline waivers. A waiver suppresses findings of its named
//! rule on the same line or the line directly below it; a waiver that
//! suppresses nothing is itself a finding (`stale-waiver`), as is a
//! manifest entry that no longer names a real function (`manifest-stale`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lexer::{lex, TokenKind};
use crate::rules::{run_all, FileCtx, Finding, MatchedEntries, WAIVABLE_RULES};
use crate::scope::scope;

/// A finding located in a specific file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub function: Option<String>,
    pub message: String,
}

/// The result of analyzing a tree: all surviving findings plus counters.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Report>,
    pub files_scanned: usize,
    pub waivers_used: usize,
}

/// One inline waiver comment.
#[derive(Debug)]
struct Waiver {
    rule: String,
    line: u32,
    used: bool,
}

/// Directory names never descended into. `fixtures` holds the lint's own
/// deliberately-failing corpus; `tests` directories hold integration tests,
/// which every rule skips anyway.
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "fixtures", "tests", ".git", ".github", "corpus",
];

/// Analyzes every `.rs` file under `root`, skipping hidden directories and
/// the build, vendored, fixture and integration-test directories.
pub fn analyze_root(root: &Path, config: &Config) -> io::Result<Analysis> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    files.sort();

    let mut analysis = Analysis::default();
    let mut matched = MatchedEntries::default();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let rel = relative_path(root, &path);
        analysis.files_scanned += 1;
        let (mut findings, used) = analyze_source(&rel, &src, config, &mut matched);
        analysis.waivers_used += used;
        analysis.findings.append(&mut findings);
    }

    // Manifest hygiene: every listed function must still exist somewhere.
    for entry in &config.hot_functions {
        if !matched.hot.contains(entry) {
            analysis.findings.push(Report {
                file: "tracelint.conf".to_string(),
                line: 0,
                rule: "manifest-stale".to_string(),
                function: Some(entry.clone()),
                message: format!(
                    "[hot-path-alloc] entry `{entry}` matches no function in the \
                     scanned tree; fix or remove it"
                ),
            });
        }
    }
    for entry in &config.interrupt_functions {
        if !matched.interrupt.contains(entry) {
            analysis.findings.push(Report {
                file: "tracelint.conf".to_string(),
                line: 0,
                rule: "manifest-stale".to_string(),
                function: Some(entry.clone()),
                message: format!(
                    "[interrupt-poll] entry `{entry}` matches no function in the \
                     scanned tree; fix or remove it"
                ),
            });
        }
    }

    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(analysis)
}

/// Analyzes one file's source. Returns the surviving findings and how many
/// waivers were consumed. Public so fixture tests can drive single files.
pub fn analyze_source(
    rel_path: &str,
    src: &str,
    config: &Config,
    matched: &mut MatchedEntries,
) -> (Vec<Report>, usize) {
    let tokens = lex(src);
    let scopes = scope(src, &tokens, false);
    let ctx = FileCtx {
        src,
        tokens: &tokens,
        scopes: &scopes,
        rel_path,
        config,
    };
    let (mut waivers, mut waiver_findings) = parse_waivers(src, &tokens);
    let raw = run_all(&ctx, matched);

    let mut surviving: Vec<Finding> = Vec::new();
    for finding in raw {
        let waived = waivers.iter_mut().any(|w| {
            let applies =
                w.rule == finding.rule && (w.line == finding.line || w.line + 1 == finding.line);
            if applies {
                w.used = true;
            }
            applies
        });
        if !waived {
            surviving.push(finding);
        }
    }
    let used = waivers.iter().filter(|w| w.used).count();
    for waiver in &waivers {
        if !waiver.used {
            waiver_findings.push(Finding {
                rule: "stale-waiver",
                line: waiver.line,
                function: None,
                message: format!(
                    "waiver for `{}` suppresses nothing; remove it so waivers stay \
                     trustworthy",
                    waiver.rule
                ),
            });
        }
    }
    surviving.append(&mut waiver_findings);

    let reports = surviving
        .into_iter()
        .map(|f| Report {
            file: rel_path.to_string(),
            line: f.line,
            rule: f.rule.to_string(),
            function: f.function,
            message: f.message,
        })
        .collect();
    (reports, used)
}

/// Extracts `tracelint: allow(rule, reason)` waivers from comment tokens.
/// Malformed waivers (no reason, unknown rule) become `waiver-syntax`
/// findings rather than silently suppressing nothing.
fn parse_waivers(src: &str, tokens: &[crate::lexer::Token]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::Comment {
            continue;
        }
        // Only a comment whose body *starts* with the marker is a waiver;
        // prose that merely mentions the syntax (docs, rule messages) is not.
        let body = tok
            .text(src)
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim_start();
        let Some(rest) = body.strip_prefix("tracelint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let mut bad = |message: String| {
            findings.push(Finding {
                rule: "waiver-syntax",
                line: tok.line,
                function: None,
                message,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            bad(format!(
                "malformed tracelint comment; expected `tracelint: allow(rule, reason)`, \
                 got {rest:?}"
            ));
            continue;
        };
        let Some(close) = args.rfind(')') else {
            bad("unterminated waiver; expected `tracelint: allow(rule, reason)`".to_string());
            continue;
        };
        let inner = &args[..close];
        let Some((rule, reason)) = inner.split_once(',') else {
            bad(format!(
                "waiver for `{inner}` carries no reason; every waiver must say why \
                 the invariant holds anyway"
            ));
            continue;
        };
        let rule = rule.trim();
        let reason = reason.trim();
        if !WAIVABLE_RULES.contains(&rule) {
            bad(format!(
                "unknown rule `{rule}` in waiver; expected one of {WAIVABLE_RULES:?}"
            ));
            continue;
        }
        if reason.is_empty() {
            bad(format!(
                "waiver for `{rule}` carries an empty reason; every waiver must say \
                 why the invariant holds anyway"
            ));
            continue;
        }
        waivers.push(Waiver {
            rule: rule.to_string(),
            line: tok.line,
            used: false,
        });
    }
    (waivers, findings)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

// ------------------------------------------------------------- reporting --

/// Renders findings as `file:line: [rule] message` lines plus a summary.
pub fn render_text(analysis: &Analysis) -> String {
    let mut out = String::new();
    for f in &analysis.findings {
        let location = if f.line > 0 {
            format!("{}:{}", f.file, f.line)
        } else {
            f.file.clone()
        };
        let in_fn = match &f.function {
            Some(name) => format!(" (in `{name}`)"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{location}: [{rule}]{in_fn} {message}\n",
            rule = f.rule,
            message = f.message
        ));
    }
    out.push_str(&format!(
        "tracelint: {} finding(s) across {} file(s), {} waiver(s) in use\n",
        analysis.findings.len(),
        analysis.files_scanned,
        analysis.waivers_used
    ));
    out
}

/// Renders the analysis as JSON (hand-rolled; the vendored serde stub has
/// no serializer, same approach as `crates/bench`'s report writer).
pub fn render_json(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"waivers_used\": {},\n",
        analysis.files_scanned, analysis.waivers_used
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in analysis.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", ",
            escape_json(&f.file),
            f.line,
            escape_json(&f.rule)
        ));
        match &f.function {
            Some(name) => out.push_str(&format!("\"function\": \"{}\", ", escape_json(name))),
            None => out.push_str("\"function\": null, "),
        }
        out.push_str(&format!("\"message\": \"{}\"}}", escape_json(&f.message)));
    }
    if !analysis.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_config() -> Config {
        Config {
            panic_paths: vec!["crates/serve/src".to_string()],
            ..Config::default()
        }
    }

    #[test]
    fn waiver_suppresses_a_finding_and_counts_as_used() {
        let src = "fn f() {\n\
                   // tracelint: allow(serve-panic, demo reason)\n\
                   let x = maybe().unwrap();\n}";
        let mut matched = MatchedEntries::default();
        let (findings, used) =
            analyze_source("crates/serve/src/x.rs", src, &serve_config(), &mut matched);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn waiver_on_the_same_line_works() {
        let src = "fn f() { let x = maybe().unwrap(); } // tracelint: allow(serve-panic, demo)\n";
        let mut matched = MatchedEntries::default();
        let (findings, used) =
            analyze_source("crates/serve/src/x.rs", src, &serve_config(), &mut matched);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn stale_waiver_is_a_finding() {
        let src = "// tracelint: allow(serve-panic, nothing here needs this)\nfn f() {}\n";
        let mut matched = MatchedEntries::default();
        let (findings, _) =
            analyze_source("crates/serve/src/x.rs", src, &serve_config(), &mut matched);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "stale-waiver");
    }

    #[test]
    fn waiver_without_reason_is_rejected() {
        let src = "fn f() {\n\
                   // tracelint: allow(serve-panic)\n\
                   let x = maybe().unwrap();\n}";
        let mut matched = MatchedEntries::default();
        let (findings, _) =
            analyze_source("crates/serve/src/x.rs", src, &serve_config(), &mut matched);
        assert!(findings.iter().any(|f| f.rule == "waiver-syntax"));
        assert!(findings.iter().any(|f| f.rule == "serve-panic"));
    }

    #[test]
    fn unknown_rule_in_waiver_is_rejected() {
        let src = "// tracelint: allow(made-up-rule, because)\nfn f() {}\n";
        let mut matched = MatchedEntries::default();
        let (findings, _) =
            analyze_source("crates/serve/src/x.rs", src, &serve_config(), &mut matched);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "waiver-syntax");
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_output_is_well_formed_for_empty_findings() {
        let analysis = Analysis {
            findings: Vec::new(),
            files_scanned: 3,
            waivers_used: 0,
        };
        let json = render_json(&analysis);
        assert!(json.contains("\"findings\": []"));
    }
}
