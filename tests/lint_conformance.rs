//! Tier-1 conformance: the landed workspace is lint-clean.
//!
//! This runs the exact same pass as `loadbal-lint --workspace` and the
//! CI `lint-invariants` job, so a determinism or safety regression
//! fails plain `cargo test -q` — no extra tooling required.

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
