//! End-to-end tests of the `eds-lint` binary: machine formats must
//! carry the machine-applicable fixes (SARIF as `fix` objects with
//! resolvable `artifactChanges`), and `--verify` must surface semantic
//! refutations with the documented exit codes, deterministically under
//! a pinned seed.

use std::path::PathBuf;
use std::process::{Command, Output};

fn eds_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eds-lint"))
        .args(args)
        .output()
        .expect("eds-lint must spawn")
}

/// A unique temp file holding `content`; returns its path.
fn temp_rules(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("eds_lint_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

/// The canonical fixable finding: a growing rule in an unbounded block
/// (EDS010), whose suggestion rewrites the block with a finite limit.
const GROWING: &str = "Grow : A(x) / --> B(A(x), A(x)) / ;\nblock(g, {Grow}, INF) ;\n";

#[test]
fn sarif_output_carries_resolvable_fix_objects() {
    let path = temp_rules("growing.rules", GROWING);
    let out = eds_lint(&["--format", "sarif", path.to_str().unwrap()]);
    let doc = String::from_utf8(out.stdout).unwrap();
    assert!(doc.contains("\"version\":\"2.1.0\""), "{doc}");
    // The finding carries a SARIF fix with an artifactChange.
    assert!(doc.contains("\"fixes\":["), "{doc}");
    assert!(doc.contains("\"artifactChanges\":["), "{doc}");
    assert!(doc.contains("\"insertedContent\""), "{doc}");
    // The replacement is the bounded block, and the deleted region
    // resolves to the block item's exact byte span in the source.
    assert!(doc.contains("block(g, {Grow}, 100)"), "{doc}");
    let offset: usize = field(&doc, "\"charOffset\":").parse().unwrap();
    let length: usize = field(&doc, "\"charLength\":").parse().unwrap();
    let spanned = &GROWING[offset..offset + length];
    assert!(
        spanned.starts_with("block(g") && spanned.ends_with(';'),
        "deleted region resolves to {spanned:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// First value after `key` in a flat JSON string, up to the next
/// delimiter. Enough for the hand-rolled documents under test.
fn field<'a>(doc: &'a str, key: &str) -> &'a str {
    let start = doc.find(key).unwrap_or_else(|| panic!("{key} in {doc}")) + key.len();
    let rest = &doc[start..];
    let end = rest.find([',', '}']).unwrap();
    &rest[..end]
}

#[test]
fn json_output_carries_fix_descriptions() {
    let path = temp_rules("growing.json.rules", GROWING);
    let out = eds_lint(&["--format", "json", path.to_str().unwrap()]);
    let doc = String::from_utf8(out.stdout).unwrap();
    assert!(doc.contains("\"code\":\"EDS010\""), "{doc}");
    assert!(doc.contains("\"fixes\":[{\"description\":"), "{doc}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_refutes_an_unsound_rule_file_with_exit_one() {
    let path = temp_rules(
        "bad.rules",
        "BadDeMorgan : NOT(f AND g) / --> NOT(f) OR g / ;\n",
    );
    let out = eds_lint(&["--verify", "--seed", "7", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("EDS030"), "{text}");
    // Both instruments report: the prover's valuation and the fuzzer's
    // shrunk differential counterexample with its replay seed.
    assert!(text.contains("bounded equivalence prover"), "{text}");
    assert!(text.contains("differential fuzzing (seed "), "{text}");
    assert!(text.contains("minimal case:"), "{text}");

    // Same seed, same findings: the whole run is deterministic.
    let again = eds_lint(&["--verify", "--seed", "7", path.to_str().unwrap()]);
    assert_eq!(text, String::from_utf8(again.stdout).unwrap());
    std::fs::remove_file(&path).ok();
}

#[test]
fn seeds_file_drives_one_fuzz_pass_per_seed() {
    let rules = temp_rules(
        "seeded.rules",
        "BadDeMorgan : NOT(f AND g) / --> NOT(f) OR g / ;\n",
    );
    let seeds = temp_rules("seeds.txt", "# replay seeds\n7\n0xED5\n");
    let out = eds_lint(&[
        "--verify",
        "--seeds-file",
        seeds.to_str().unwrap(),
        rules.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    // One refutation per seed pass (the prover reports only once).
    assert_eq!(
        text.matches("differential fuzzing (seed ").count(),
        2,
        "{text}"
    );
    assert_eq!(
        text.matches("bounded equivalence prover").count(),
        1,
        "{text}"
    );
    std::fs::remove_file(&rules).ok();
    std::fs::remove_file(&seeds).ok();
}

#[test]
fn builtin_kb_passes_verify_with_default_exit_semantics() {
    // The shipped knowledge base must stay semantically clean: EDS032
    // side-condition warnings and EDS031 coverage notes are fine, any
    // EDS030 refutation fails the run.
    let out = eds_lint(&["--verify", "--format", "json"]);
    assert!(out.status.success(), "builtin KB failed --verify");
    let doc = String::from_utf8(out.stdout).unwrap();
    assert!(!doc.contains("\"code\":\"EDS030\""), "{doc}");
    // The info tier serializes with its own severity (SARIF: `note`).
    assert!(doc.contains("\"severity\":\"info\""), "{doc}");
    let sarif = eds_lint(&["--verify", "--format", "sarif"]);
    assert!(String::from_utf8(sarif.stdout)
        .unwrap()
        .contains("\"level\":\"note\""));
}

// --- the environment reader (`Dbms::new`), through `esql-shell` ----------
//
// Subprocesses, not in-process `set_var`: the environment is process-global
// and the harness runs tests on parallel threads.

const KNOBS: [&str; 4] = [
    "EDS_PARALLELISM",
    "EDS_OPT_LEVEL",
    "EDS_COLUMNAR",
    "EDS_LINT",
];

/// Run `esql-shell` with exactly `env` of the knobs set and `script` on
/// stdin. A shell that refuses to start exits before it reads stdin, so
/// a failed write (`BrokenPipe`) is not an error here.
fn esql_shell(env: &[(&str, &str)], script: &str) -> Output {
    use std::io::Write;
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esql-shell"));
    for k in KNOBS {
        cmd.env_remove(k);
    }
    let mut child = cmd
        .envs(env.iter().copied())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("esql-shell must spawn");
    let _ = child.stdin.take().unwrap().write_all(script.as_bytes());
    child.wait_with_output().unwrap()
}

#[test]
fn every_env_knob_is_honoured_and_the_retired_one_ignored() {
    const BROKEN: &str = ".rule Broken : SEARCH(l, f, a) / --> SEARCH(l, ghost, a) / ;\n";
    let script = format!(".stats\n{BROKEN}");

    // A retired knob is not read at all: even garbage is ignored.
    let out = esql_shell(&[("EDS_PLAN_CACHE_CAP", "garbage")], &script);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("parallelism 1, columnar on, opt level simple, lint warn"),
        "{stdout}"
    );
    assert!(stdout.contains("added."), "warn accepts: {stdout}");

    let out = esql_shell(
        &[
            ("EDS_PARALLELISM", "3"),
            ("EDS_OPT_LEVEL", "FULL"),
            ("EDS_COLUMNAR", "0"),
            ("EDS_LINT", "deny"),
        ],
        &script,
    );
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("parallelism 3, columnar off, opt level full, lint deny"),
        "{stdout}"
    );
    assert!(!stdout.contains("added."), "deny rejects: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("rejected by eds-lint"), "{stderr}");
}

#[test]
fn an_unparsable_env_value_exits_nonzero_naming_it() {
    for (var, value) in [
        ("EDS_PARALLELISM", "abc"),
        ("EDS_PARALLELISM", "0"),
        ("EDS_OPT_LEVEL", "ful"),
        ("EDS_COLUMNAR", "yes"),
        ("EDS_LINT", "denny"),
        ("EDS_LINT", ""),
    ] {
        let out = esql_shell(&[(var, value)], ".quit\n");
        assert!(!out.status.success(), "{var}={value} must not start");
        assert!(out.stdout.is_empty(), "{var}={value} printed a banner");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("{var}={value:?}")),
            "{var}={value}: {stderr}"
        );
    }
}

#[test]
fn a_bad_format_is_reported_without_debug_syntax() {
    let out = eds_lint(&["--format", "xml"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("got xml"), "{stderr}");
    assert!(!stderr.contains("Some("), "{stderr}");
}
