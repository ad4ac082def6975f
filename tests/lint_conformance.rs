//! Tier-1 conformance: the landed workspace is lint-clean, and every
//! library `pub fn` is named by some other file.
//!
//! This runs the exact same pass as `loadbal-lint --workspace` and the
//! CI `lint-invariants` job, so a determinism or safety regression
//! fails plain `cargo test -q` — no extra tooling required.

use loadbal_lint::scanner::TokenKind;
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = loadbal_lint::lint_workspace(root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "the workspace must be lint-clean; fix or waive (with a reason) each of:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn slab_hot_path_is_inside_the_lint_walk() {
    // The slab kernels are the hottest deterministic code
    // in the workspace; a walk that silently skipped them would let a
    // wall-clock read or HashMap iteration land in the demand path
    // unflagged. Pin both that the file is visited and that the
    // determinism rules fire on slab-shaped code.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = loadbal_lint::workspace_files(root).expect("workspace walk succeeds");
    assert!(
        files.iter().any(|f| f.ends_with("crates/grid/src/slab.rs")),
        "crates/grid/src/slab.rs must be covered by the workspace lint pass"
    );
    // Fixture: the same rules that keep slab.rs clean must flag a
    // planted violation in a file at its path.
    let planted =
        "pub fn aggregate_demand_slab_with() {\n    let t0 = std::time::Instant::now();\n}\n";
    let findings = loadbal_lint::lint_file("crates/grid/src/slab.rs", planted);
    assert!(
        findings.iter().any(|f| f.to_string().contains("det-time")),
        "det-time must fire on a wall-clock read planted in slab.rs: {findings:?}"
    );
}

#[test]
fn json_rendering_of_the_workspace_pass_is_well_formed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = loadbal_lint::lint_workspace(root).expect("workspace walk succeeds");
    let json = loadbal_lint::findings_to_json(&findings);
    // Clean tree renders as an empty JSON array either way.
    assert_eq!(json.trim(), "[]");
}

/// The library crates whose public functions the guard below checks.
const LIBRARY_SOURCES: [&str; 5] = [
    "crates/core/src/",
    "crates/grid/src/",
    "crates/sim/src/",
    "crates/desire/src/",
    "crates/archive/src/",
];

#[test]
fn every_library_pub_fn_is_named_outside_its_file() {
    // A library `pub fn` that no other file's code names is dead API, or
    // belongs private to its file. Callers are counted over the whole lint
    // walk (examples, tests, the bench crate and `loadbench/src` included),
    // and only identifier tokens count, so a comment, a doc example or a
    // string never keeps a function alive. A name that another item
    // shares (`new`, `run`) counts as named: the guard can miss a dead
    // function but never flags a called one.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for path in loadbal_lint::workspace_files(root).expect("workspace walk succeeds") {
        let src = std::fs::read_to_string(&path).expect("workspace file is UTF-8");
        let scan = loadbal_lint::scanner::scan(&src);
        let idents: Vec<&str> = scan
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| scan.text(t))
            .collect();
        let rel = loadbal_lint::rel_path(root, &path);
        let mut pub_fns = Vec::new();
        if LIBRARY_SOURCES.iter().any(|dir| rel.starts_with(dir)) {
            // `pub(crate) fn` leaves `crate` between the keywords, so only
            // plain `pub` visibility matches.
            for (i, _) in idents.iter().enumerate().filter(|&(_, t)| *t == "pub") {
                let mut rest = idents[i + 1..]
                    .iter()
                    .skip_while(|t| matches!(**t, "const" | "async" | "unsafe"));
                if rest.next() == Some(&"fn") {
                    pub_fns.extend(rest.next().map(|name| name.to_string()));
                }
            }
        }
        let named: BTreeSet<String> = idents.into_iter().map(str::to_string).collect();
        files.push((rel, named, pub_fns));
    }
    let mut unnamed = Vec::new();
    for (i, (rel, _, pub_fns)) in files.iter().enumerate() {
        for name in pub_fns {
            let named_elsewhere = files
                .iter()
                .enumerate()
                .any(|(j, (_, named, _))| j != i && named.contains(name));
            if !named_elsewhere {
                unnamed.push(format!("  {rel}: {name}"));
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "{} library `pub fn`s are named by no other file; delete each, or \
         narrow it to `pub(crate)` or private:\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}
