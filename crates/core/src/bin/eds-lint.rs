//! `eds-lint` — static analysis of rewrite-rule knowledge bases.
//!
//! ```text
//! eds-lint [--deny] [--fix [--check]] [--verify [--seed N] [--seeds-file F]]
//!          [--format human|json|sarif] [FILE.rules ...]
//! ```
//!
//! With no files, lints the built-in knowledge base (every rule plus
//! the block/seq strategy). With files, loads the built-ins silently
//! and then lints each file *staged against* the state so far — later
//! files see earlier files' rules and blocks, matching how a shell
//! session would register them.
//!
//! `--fix` applies the machine-applicable suggestions carried by the
//! diagnostics, re-lints, and repeats until a pass changes nothing, then
//! writes the file back. With `--check` nothing is written: the tool
//! verifies that fixing converges and is idempotent (the contract CI
//! enforces over the example rules).
//!
//! `--verify` adds the semantic soundness tier on top of the static
//! passes: every rule in scope (the built-in KB, or the given files'
//! rules) goes through the bounded equivalence prover and the
//! differential fuzzer. Refutations surface as EDS030 errors whose
//! message carries the shrunk counterexample and the seed that replays
//! it; `--seed N` pins the fuzz stream and `--seeds-file F` replays one
//! full pass per seed listed in `F` (decimal or `0x` hex, `#` comments).
//!
//! `--format json` / `--format sarif` emit the diagnostics as a machine
//! document on stdout (SARIF 2.1.0 for code-scanning upload); the
//! human summary moves to stderr so the document stays parseable. Both
//! formats carry the suggested fixes — SARIF as `fix` objects with
//! `artifactChanges` whose replacement regions are resolved against the
//! linted source text.
//!
//! Exit status, independent of `--deny`'s *reporting* role:
//! * `0` — no error-severity findings (and, under `--deny`, no findings
//!   at all);
//! * `1` — at least one error-severity finding (including EDS030
//!   semantic refutations), or any finding under `--deny`;
//! * `2` — usage, I/O, or parse failure (including `--fix`
//!   non-convergence).

use std::collections::BTreeMap;
use std::process::ExitCode;

use eds_core::verify::DEFAULT_SEED;
use eds_core::{verify_rules, LintPolicy, QueryRewriter, VerifyOptions};
use eds_rewrite::{
    apply_fixes, parse_source, parse_source_spanned, Diagnostic, Severity, SourceItem,
};

const USAGE: &str = "\
usage: eds-lint [--deny] [--fix [--check]] [--verify [--seed N] [--seeds-file F]]
                [--format human|json|sarif] [FILE.rules ...]
  no files:        lint the built-in knowledge base
  --deny:          exit 1 on ANY finding (default: only error severity)
  --fix:           apply suggested fixes to the files until none remain
  --check:         with --fix, verify convergence/idempotence, write nothing
  --verify:        run the semantic tier (equivalence prover + differential
                   fuzzer) over the rules in scope
  --seed N:        base fuzz seed for --verify (decimal or 0x hex)
  --seeds-file F:  replay one --verify pass per seed listed in F
  --format FORMAT: human (default), json, or sarif (2.1.0) on stdout
exit codes: 0 = clean, 1 = findings (see --deny), 2 = usage or I/O error";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

/// How many lint→fix rounds a file gets before the tool declares the
/// suggestions non-convergent (each round must strictly reduce the
/// fixable set, so real sources converge in two or three).
const MAX_FIX_ROUNDS: usize = 8;

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut fix = false;
    let mut check = false;
    let mut verify = false;
    let mut seed = DEFAULT_SEED;
    let mut seeds_file: Option<String> = None;
    let mut format = Format::Human;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--fix" => fix = true,
            "--check" => check = true,
            "--verify" => verify = true,
            "--seed" => match args.next().as_deref().and_then(parse_seed) {
                Some(s) => seed = s,
                None => {
                    eprintln!("eds-lint: --seed expects an unsigned integer");
                    return ExitCode::from(2);
                }
            },
            "--seeds-file" => match args.next() {
                Some(path) => seeds_file = Some(path),
                None => {
                    eprintln!("eds-lint: --seeds-file expects a path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    let got = other.unwrap_or("nothing");
                    eprintln!("eds-lint: --format expects human|json|sarif, got {got}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("eds-lint: unknown flag {other}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => files.push(path.to_owned()),
        }
    }
    if check && !fix {
        eprintln!("eds-lint: --check only makes sense with --fix\n{USAGE}");
        return ExitCode::from(2);
    }
    if fix && files.is_empty() {
        eprintln!("eds-lint: --fix needs rule files (the built-in KB is read-only)");
        return ExitCode::from(2);
    }
    if (seeds_file.is_some() || seed != DEFAULT_SEED) && !verify {
        eprintln!("eds-lint: --seed/--seeds-file only make sense with --verify\n{USAGE}");
        return ExitCode::from(2);
    }
    let seeds: Vec<u64> = match &seeds_file {
        None => vec![seed],
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                let mut out = Vec::new();
                for line in text.lines() {
                    let line = line.split('#').next().unwrap_or("").trim();
                    if line.is_empty() {
                        continue;
                    }
                    match parse_seed(line) {
                        Some(s) => out.push(s),
                        None => {
                            eprintln!("eds-lint: {path}: bad seed line {line:?}");
                            return ExitCode::from(2);
                        }
                    }
                }
                if out.is_empty() {
                    eprintln!("eds-lint: {path}: no seeds");
                    return ExitCode::from(2);
                }
                out
            }
            Err(e) => {
                eprintln!("eds-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let mut rw = match QueryRewriter::with_default_rules() {
        Ok(rw) => rw,
        Err(e) => {
            eprintln!("eds-lint: failed to load built-in rules: {e}");
            return ExitCode::from(2);
        }
    };

    // (file, diagnostic) pairs; file is None for the built-in KB.
    let mut findings: Vec<(Option<String>, Diagnostic)> = Vec::new();
    // Linted source text per file, for span-resolving SARIF fixes.
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    if files.is_empty() {
        findings.extend(rw.lint(None).into_iter().map(|d| (None, d)));
        if verify {
            for (i, s) in seeds.iter().enumerate() {
                let opts = VerifyOptions {
                    seed: *s,
                    prove: i == 0, // the prover is deterministic; once is enough
                    ..VerifyOptions::default()
                };
                let report = rw.verify_with(&opts);
                findings.extend(report.diagnostics.into_iter().map(|d| (None, d)));
            }
        }
    } else {
        for path in &files {
            let src = match std::fs::read_to_string(path) {
                Ok(src) => src,
                Err(e) => {
                    eprintln!("eds-lint: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let final_src = if fix {
                match fix_to_convergence(&rw, path, &src) {
                    Ok(fixed) => fixed,
                    Err(code) => return code,
                }
            } else {
                src.clone()
            };
            if fix && !check && final_src != src {
                if let Err(e) = std::fs::write(path, &final_src) {
                    eprintln!("eds-lint: {path}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("eds-lint: {path}: fixes applied");
            }
            match rw.lint_source(&final_src, None) {
                Ok(found) => findings.extend(found.into_iter().map(|d| (Some(path.clone()), d))),
                Err(e) => {
                    eprintln!("eds-lint: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            // Commit so later files resolve this file's definitions.
            if let Err(e) = rw.add_source_checked(&final_src, LintPolicy::Off, None) {
                eprintln!("eds-lint: {path}: {e}");
                return ExitCode::from(2);
            }
            if verify {
                // Verify exactly this file's rules (the built-ins are
                // covered by the no-file invocation CI runs separately).
                let rules: Vec<_> = match parse_source(&final_src) {
                    Ok(items) => items
                        .into_iter()
                        .filter_map(|item| match item {
                            SourceItem::Rule(r) => Some(r),
                            _ => None,
                        })
                        .collect(),
                    Err(e) => {
                        eprintln!("eds-lint: {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                for (i, s) in seeds.iter().enumerate() {
                    let opts = VerifyOptions {
                        seed: *s,
                        prove: i == 0,
                        ..VerifyOptions::default()
                    };
                    let report = verify_rules(rules.iter(), rw.methods(), &opts);
                    findings.extend(
                        report
                            .diagnostics
                            .into_iter()
                            .map(|d| (Some(path.clone()), d)),
                    );
                }
            }
            sources.insert(path.clone(), final_src);
        }
    }

    match format {
        Format::Human => {
            for (file, d) in &findings {
                match file {
                    Some(path) => println!("{path}: {d}"),
                    None => println!("{d}"),
                }
                for f in &d.suggestions {
                    println!("  fix: {}", f.description);
                }
            }
        }
        Format::Json => println!("{}", render_json(&findings)),
        Format::Sarif => println!("{}", render_sarif(&findings, &sources)),
    }

    let errors = findings.iter().filter(|(_, d)| d.is_error()).count();
    let warnings = findings
        .iter()
        .filter(|(_, d)| d.severity == Severity::Warning)
        .count();
    let notes = findings
        .iter()
        .filter(|(_, d)| d.severity == Severity::Info)
        .count();
    eprintln!("eds-lint: {errors} error(s), {warnings} warning(s), {notes} note(s)");

    if errors > 0 || (deny && !findings.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run lint→apply rounds until a pass applies nothing, then prove the
/// result idempotent. Returns the converged source text.
fn fix_to_convergence(rw: &QueryRewriter, path: &str, src: &str) -> Result<String, ExitCode> {
    let mut text = src.to_owned();
    for _ in 0..MAX_FIX_ROUNDS {
        let diags = match rw.lint_source(&text, None) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("eds-lint: {path}: {e}");
                return Err(ExitCode::from(2));
            }
        };
        let out = match apply_fixes(&text, &diags) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("eds-lint: {path}: fix produced unparseable source: {e}");
                return Err(ExitCode::from(2));
            }
        };
        if out.applied == 0 {
            return Ok(text);
        }
        text = out.text;
    }
    eprintln!("eds-lint: {path}: fixes did not converge after {MAX_FIX_ROUNDS} rounds");
    Err(ExitCode::from(2))
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn severity_str(d: &Diagnostic) -> &'static str {
    match d.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "info",
    }
}

/// SARIF `level` values; `note` is the SARIF spelling of info severity.
fn sarif_level(d: &Diagnostic) -> &'static str {
    match d.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

fn render_json(findings: &[(Option<String>, Diagnostic)]) -> String {
    let mut items = Vec::with_capacity(findings.len());
    for (file, d) in findings {
        let mut obj = String::from("{");
        obj.push_str(&format!("\"code\":\"{}\"", esc(d.code)));
        obj.push_str(&format!(",\"severity\":\"{}\"", severity_str(d)));
        if let Some(f) = file {
            obj.push_str(&format!(",\"file\":\"{}\"", esc(f)));
        }
        if let Some(r) = &d.rule {
            obj.push_str(&format!(",\"rule\":\"{}\"", esc(r)));
        }
        if let Some(b) = &d.block {
            obj.push_str(&format!(",\"block\":\"{}\"", esc(b)));
        }
        obj.push_str(&format!(",\"part\":\"{}\"", esc(&d.part)));
        let path: Vec<String> = d.path.iter().map(ToString::to_string).collect();
        obj.push_str(&format!(",\"path\":[{}]", path.join(",")));
        obj.push_str(&format!(",\"message\":\"{}\"", esc(&d.message)));
        let fixes: Vec<String> = d
            .suggestions
            .iter()
            .map(|f| format!("{{\"description\":\"{}\"}}", esc(&f.description)))
            .collect();
        obj.push_str(&format!(",\"fixes\":[{}]", fixes.join(",")));
        obj.push('}');
        items.push(obj);
    }
    format!("[{}]", items.join(","))
}

/// Render a diagnostic's suggestions as SARIF `fix` objects. Replacement
/// regions come from re-parsing the linted source with spans and matching
/// each fix's target item; fixes whose target is not in this file (or
/// findings with no file at all) are omitted — SARIF requires a concrete
/// artifact to change.
fn sarif_fixes(file: &str, src: &str, d: &Diagnostic) -> Vec<String> {
    let Ok(items) = parse_source_spanned(src) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for f in &d.suggestions {
        let Some(spanned) = items.iter().find(|si| f.target.matches(&si.item)) else {
            continue;
        };
        let (start, len) = (spanned.span.start, spanned.span.end - spanned.span.start);
        out.push(format!(
            "{{\"description\":{{\"text\":\"{}\"}},\
             \"artifactChanges\":[{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"replacements\":[{{\"deletedRegion\":{{\"charOffset\":{start},\
             \"charLength\":{len}}},\"insertedContent\":{{\"text\":\"{}\"}}}}]}}]}}",
            esc(&f.description),
            esc(file),
            esc(&f.replacement)
        ));
    }
    out
}

/// SARIF 2.1.0, the static-analysis interchange format GitHub code
/// scanning ingests. Hand-rolled: the schema subset used here is flat.
fn render_sarif(
    findings: &[(Option<String>, Diagnostic)],
    sources: &BTreeMap<String, String>,
) -> String {
    let mut results = Vec::with_capacity(findings.len());
    for (file, d) in findings {
        let mut r = String::from("{");
        r.push_str(&format!("\"ruleId\":\"{}\"", esc(d.code)));
        r.push_str(&format!(",\"level\":\"{}\"", sarif_level(d)));
        r.push_str(&format!(
            ",\"message\":{{\"text\":\"{}\"}}",
            esc(&d.message)
        ));
        if let Some(f) = file {
            r.push_str(&format!(
                ",\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":\"{}\"}}}}}}]",
                esc(f)
            ));
            if let Some(src) = sources.get(f) {
                let fixes = sarif_fixes(f, src, d);
                if !fixes.is_empty() {
                    r.push_str(&format!(",\"fixes\":[{}]", fixes.join(",")));
                }
            }
        }
        r.push('}');
        results.push(r);
    }
    let mut codes: Vec<&str> = findings.iter().map(|(_, d)| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    let rules: Vec<String> = codes
        .iter()
        .map(|c| format!("{{\"id\":\"{}\"}}", esc(c)))
        .collect();
    format!(
        "{{\"version\":\"2.1.0\",\
         \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"eds-lint\",\
         \"rules\":[{}]}}}},\"results\":[{}]}}]}}",
        rules.join(","),
        results.join(",")
    )
}
