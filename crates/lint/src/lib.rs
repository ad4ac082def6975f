//! `loadbal-lint` — the workspace's determinism-and-safety invariants
//! as a source-level static-analysis pass.
//!
//! # Why byte-identity needs source-level enforcement
//!
//! Everything this repo reproduces from Brazier et al. rests on one
//! invariant: a campaign is **byte-identical** across thread counts and
//! execution modes (sync / distributed-clean). The property tests prove
//! it dynamically — but only on the inputs they sample. One stray
//! `HashMap` iteration, `Instant::now()` or environment read in a hot
//! path can break reproducibility only on inputs (or hosts) the tests
//! never see. This linter makes the invariant checkable on every line
//! of every commit: the sources of nondeterminism are *named*, and any
//! appearance outside test code either gets fixed or carries a written
//! waiver.
//!
//! # Rules
//!
//! | id | scope | fires on | sanctioned alternative |
//! |----|-------|----------|------------------------|
//! | `det-hash` | non-test code of `core`, `grid`, `sim`, `archive`, `desire`, facade | `HashMap` / `HashSet` | `BTreeMap` / `BTreeSet` / sorted `Vec` |
//! | `det-time` | same | `Instant` / `SystemTime` | simulated calendar time |
//! | `det-env` | same | `std::env`, `env!`, `option_env!` | explicit configuration |
//! | `det-entropy` | same | `thread_rng`, `from_entropy`, `RandomState`, `ThreadId`, `thread::current`, `getrandom` | seeded vendored `rand` |
//! | `unsafe-pool` | whole workspace (vendor excluded) | any `unsafe` | safe Rust, or a reasoned waiver (only the benchmark binaries' counting allocators have one) |
//! | `unsafe-safety` | whole workspace | `unsafe` block/impl/fn without an adjacent `// SAFETY:` (or `# Safety` doc) comment | write the safety argument |
//! | `unsafe-header` | every crate-root `lib.rs` | missing `#![forbid(unsafe_code)]` (a `deny` does not count: a local `allow` overrides it) | add the header |
//! | `panic-archive` | `crates/archive/src` (CLI excluded), non-test | `.unwrap()` / `.expect()` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` / slice indexing | typed `ArchiveError`, `.get(…)` |
//! | `waiver-reason` | everywhere | a waiver without `reason="…"` | say why |
//! | `waiver-unknown` | everywhere | a waiver naming no known rule | fix the rule id |
//!
//! Test code — anything under a `tests/`, `benches/` or `examples/`
//! directory, inside a `#[cfg(test)]` item, or inside a `mod tests`
//! block — is exempt from the `det-*` and `panic-archive` rules:
//! tests legitimately use `HashSet` to check uniqueness and `unwrap`
//! to fail loudly. The vendored dependency stand-ins
//! (`crates/vendor/*`) are third-party surrogates and are not scanned.
//! The bench crate is measurement tooling (wall-clock readings are its
//! purpose) and is outside the `det-*` scope, but its `unsafe` still
//! needs a reasoned waiver and a SAFETY comment like everyone else's.
//!
//! # Waivers
//!
//! ```text
//! // lint: allow(det-env) reason="CLI entry point legitimately reads its argv"
//! let args: Vec<String> = std::env::args().collect();
//! ```
//!
//! A waiver on its own line suppresses the named rule(s) on the next
//! code line; a trailing waiver suppresses its own line. Several rules
//! may be waived at once: `lint: allow(det-env, det-time) reason="…"`.
//! A waiver **without a reason is itself a finding** (`waiver-reason`),
//! so the judgment call behind every exception stays on the record.
//!
//! # Running the pass
//!
//! The same pass runs three ways, so it cannot rot:
//!
//! 1. `cargo run -p loadbal-lint -- --workspace` — the CLI (add
//!    `--json` for machine-readable findings);
//! 2. the `lint-invariants` CI job;
//! 3. `tests/lint_conformance.rs` — a tier-1 integration test, so a
//!    plain `cargo test -q` gates it.
//!
//! The experiments binary also runs the pass at startup and stamps
//! `lint_clean` into every `BENCH_E*.json` record, so the perf
//! trajectory records invariant status alongside timings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rules;
pub mod scanner;

pub use rules::{file_profile, lint_file, Finding, Rule};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned: build output, VCS, and the vendored
/// third-party stand-ins.
fn skip_dir(rel: &str) -> bool {
    rel == "target" || rel == ".git" || rel == "crates/vendor"
}

/// Collects every workspace `.rs` file under `root` (sorted, so output
/// order is deterministic), excluding `target/`, `.git/` and
/// `crates/vendor/`.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let rel = rel_path(root, &path);
            if path.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The workspace-relative path with forward slashes (rule scoping keys
/// off this form).
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints every workspace `.rs` file under `root`. Findings come back
/// sorted by (file, line, rule).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in workspace_files(root)? {
        let src = fs::read_to_string(&path)?;
        findings.extend(lint_file(&rel_path(root, &path), &src));
    }
    findings.sort();
    Ok(findings)
}

/// Renders findings as a JSON array (stable field order, valid even
/// when empty) for the `--json` output mode.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"rule\":{},\"message\":{},\"rationale\":{}}}",
            json_string(&f.file),
            f.line,
            json_string(f.rule.id()),
            json_string(&f.message),
            json_string(f.rule.rationale())
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        assert_eq!(findings_to_json(&[]), "[]");
    }
}
