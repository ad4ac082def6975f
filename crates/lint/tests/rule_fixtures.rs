//! Fixture tests: every rule fires on a known-bad snippet and stays
//! silent on the sanctioned alternative, under the same path-derived
//! scoping the workspace pass uses.

use loadbal_lint::{lint_file, Rule};

/// Rule IDs firing for `src` at `path`, in output order.
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    lint_file(path, src)
        .into_iter()
        .map(|f| f.rule.id())
        .collect()
}

const CORE: &str = "crates/core/src/fixture.rs";
const ARCHIVE: &str = "crates/archive/src/fixture.rs";

// ---------------------------------------------------------------------
// det-hash
// ---------------------------------------------------------------------

#[test]
fn det_hash_fires_on_hashmap_in_core() {
    let findings = lint_file(CORE, "use std::collections::HashMap;\n");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::DetHash);
    assert_eq!(findings[0].line, 1);
    assert_eq!(findings[0].file, CORE);
}

#[test]
fn det_hash_silent_on_btreemap() {
    assert!(fired(CORE, "use std::collections::BTreeMap;\n").is_empty());
}

#[test]
fn det_hash_silent_in_cfg_test_module() {
    // The shape every workspace crate actually uses: a test-only
    // HashSet checking uniqueness inside #[cfg(test)] mod tests.
    let src = "pub fn real() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn unique() {\n\
                       let s: std::collections::HashSet<u32> = [1, 2].into_iter().collect();\n\
                       assert_eq!(s.len(), 2);\n\
                   }\n\
               }\n";
    assert!(fired(CORE, src).is_empty());
}

#[test]
fn det_hash_fires_after_test_module_closes() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
                   fn ok() { let _ = std::collections::HashSet::<u8>::new(); }\n\
               }\n\
               fn leak() { let _ = std::collections::HashSet::<u8>::new(); }\n";
    assert_eq!(fired(CORE, src), vec!["det-hash"]);
}

#[test]
fn det_rules_do_not_apply_to_bench_or_lint_crates() {
    assert!(fired(
        "crates/bench/src/fixture.rs",
        "use std::collections::HashMap;\n"
    )
    .is_empty());
    assert!(fired(
        "crates/lint/src/fixture.rs",
        "use std::collections::HashMap;\n"
    )
    .is_empty());
}

#[test]
fn det_rules_do_not_apply_to_integration_tests_or_examples() {
    assert!(fired("tests/fixture.rs", "use std::time::Instant;\n").is_empty());
    assert!(fired(
        "examples/fixture.rs",
        "fn f() { let _ = std::env::args(); }\n"
    )
    .is_empty());
}

// ---------------------------------------------------------------------
// det-time
// ---------------------------------------------------------------------

#[test]
fn det_time_fires_on_instant_now() {
    assert_eq!(
        fired(
            CORE,
            "fn f() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n"
        ),
        vec!["det-time"]
    );
}

#[test]
fn det_time_silent_inside_comments_and_strings() {
    let src = "// Instant::now() would break reproducibility.\n\
               /* SystemTime too */\n\
               fn f() -> &'static str { \"Instant::now()\" }\n";
    assert!(fired(CORE, src).is_empty());
}

// ---------------------------------------------------------------------
// det-env
// ---------------------------------------------------------------------

#[test]
fn det_env_fires_on_std_env() {
    assert_eq!(
        fired(
            CORE,
            "fn f() -> Vec<String> { std::env::args().collect() }\n"
        ),
        vec!["det-env"]
    );
}

#[test]
fn det_env_fires_on_env_macro() {
    assert_eq!(
        fired(CORE, "const DIR: &str = env!(\"CARGO_MANIFEST_DIR\");\n"),
        vec!["det-env"]
    );
}

#[test]
fn det_env_silent_on_doc_comment_mention() {
    assert!(fired(CORE, "//! let dir = std::env::temp_dir();\n").is_empty());
}

// ---------------------------------------------------------------------
// det-entropy
// ---------------------------------------------------------------------

#[test]
fn det_entropy_fires_on_thread_rng_and_thread_current() {
    assert_eq!(
        fired(CORE, "fn f() { let _ = rand::thread_rng(); }\n"),
        vec!["det-entropy"]
    );
    assert_eq!(
        fired(CORE, "fn f() { let _ = std::thread::current().id(); }\n"),
        vec!["det-entropy"]
    );
}

#[test]
fn det_entropy_silent_on_seeded_rng() {
    assert!(fired(
        CORE,
        "fn f(seed: u64) { let _ = rand::rngs::StdRng::seed_from_u64(seed); }\n"
    )
    .is_empty());
}

// ---------------------------------------------------------------------
// unsafe-pool / unsafe-safety
// ---------------------------------------------------------------------

#[test]
fn unsafe_outside_pool_fires_everywhere() {
    let src = "// SAFETY: fixture.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(
        fired("crates/grid/src/fixture.rs", src),
        vec!["unsafe-pool"]
    );
}

#[test]
fn unsafe_inside_mod_pool_of_sweep_rs_now_fires() {
    // No module of any file is a sanctioned home for `unsafe`, not
    // even `mod pool` in `sweep.rs`.
    let src = "mod pool {\n\
               \x20   // SAFETY: fixture argument.\n\
               \x20   pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n\
               }\n";
    assert_eq!(fired("crates/core/src/sweep.rs", src), vec!["unsafe-pool"]);
}

#[test]
fn unsafe_outside_mod_pool_in_sweep_rs_still_fires() {
    let src = "mod pool {}\n\
               // SAFETY: fixture.\n\
               fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(fired("crates/core/src/sweep.rs", src), vec!["unsafe-pool"]);
}

// The `unsafe-safety` fixtures waive `unsafe-pool` with a trailing
// reasoned waiver, so each isolates the SAFETY-comment rule alone.

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } } \
               // lint: allow(unsafe-pool) reason=\"fixture isolates unsafe-safety\"\n";
    assert_eq!(fired(CORE, src), vec!["unsafe-safety"]);
}

#[test]
fn adjacent_impls_need_their_own_safety_comments() {
    let src = "struct T(*const u8);\n\
               // SAFETY: fixture.\n\
               unsafe impl Send for T {} // lint: allow(unsafe-pool) reason=\"fixture\"\n\
               unsafe impl Sync for T {} // lint: allow(unsafe-pool) reason=\"fixture\"\n";
    let findings = lint_file(CORE, src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::UnsafeSafety);
    assert_eq!(
        findings[0].line, 4,
        "the Sync impl, not the commented Send one"
    );
}

#[test]
fn unsafe_fn_with_safety_doc_section_is_accepted() {
    let src = "/// Reads a byte.\n\
               ///\n\
               /// # Safety\n\
               ///\n\
               /// `p` must be valid.\n\
               pub unsafe fn f(p: *const u8) -> u8 { unsafe { *p } } \
               // lint: allow(unsafe-pool) reason=\"fixture isolates unsafe-safety\"\n";
    assert!(fired(CORE, src).is_empty());
}

// ---------------------------------------------------------------------
// unsafe-header
// ---------------------------------------------------------------------

#[test]
fn crate_root_without_unsafe_header_fires() {
    assert_eq!(
        fired("crates/grid/src/lib.rs", "pub fn f() {}\n"),
        vec!["unsafe-header"]
    );
}

#[test]
fn forbid_satisfies_the_header_and_deny_does_not() {
    assert!(fired(
        "crates/grid/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n"
    )
    .is_empty());
    // A local `#[allow(unsafe_code)]` overrides `deny`, so it is no
    // guarantee.
    assert_eq!(
        fired(
            "crates/grid/src/lib.rs",
            "#![deny(unsafe_code)]\npub fn f() {}\n"
        ),
        vec!["unsafe-header"]
    );
}

#[test]
fn non_root_files_are_not_header_checked() {
    assert!(fired("crates/grid/src/series.rs", "pub fn f() {}\n").is_empty());
}

// ---------------------------------------------------------------------
// panic-archive
// ---------------------------------------------------------------------

#[test]
fn panic_archive_fires_on_unwrap_expect_panic_and_indexing() {
    assert_eq!(
        fired(
            ARCHIVE,
            "fn f(v: Vec<u8>) -> u8 { v.first().copied().unwrap() }\n"
        ),
        vec!["panic-archive"]
    );
    assert_eq!(
        fired(
            ARCHIVE,
            "fn f(v: Vec<u8>) -> u8 { v.first().copied().expect(\"byte\") }\n"
        ),
        vec!["panic-archive"]
    );
    assert_eq!(
        fired(ARCHIVE, "fn f() { panic!(\"corrupt\"); }\n"),
        vec!["panic-archive"]
    );
    assert_eq!(
        fired(ARCHIVE, "fn f(v: &[u8]) -> u8 { v[0] }\n"),
        vec!["panic-archive"]
    );
}

#[test]
fn panic_archive_silent_on_typed_alternatives() {
    let src = "fn f(v: &[u8]) -> Option<u8> { v.get(0).copied() }\n\
               fn g(v: &[u8]) -> u8 { v.first().copied().unwrap_or(0) }\n\
               fn h<T>(m: &std::sync::Mutex<T>) { let _ = m.lock().unwrap_or_else(|p| p.into_inner()); }\n";
    assert!(fired(ARCHIVE, src).is_empty());
}

#[test]
fn panic_archive_silent_on_slice_patterns_and_types() {
    let src = "fn f(v: &[u8]) -> u8 {\n\
               \x20   let [a, _b]: [u8; 2] = [1, 2];\n\
               \x20   if let [x, ..] = v { *x } else { a }\n\
               }\n";
    assert!(fired(ARCHIVE, src).is_empty());
}

#[test]
fn panic_archive_scope_excludes_other_crates_tests_and_the_cli() {
    let src = "fn f(v: Vec<u8>) -> u8 { v.first().copied().unwrap() }\n";
    assert!(fired("crates/core/src/fixture.rs", src).is_empty());
    assert!(fired("crates/archive/tests/fixture.rs", src).is_empty());
    assert!(fired("crates/archive/src/bin/season_inspect.rs", src).is_empty());
    let test_mod = "#[cfg(test)]\nmod tests {\n    fn f(v: Vec<u8>) -> u8 { v.first().copied().unwrap() }\n}\n";
    assert!(fired(ARCHIVE, test_mod).is_empty());
}

// ---------------------------------------------------------------------
// waivers
// ---------------------------------------------------------------------

#[test]
fn reasoned_waiver_suppresses_the_next_code_line() {
    let src = "// lint: allow(det-env) reason=\"CLI entry point reads its own argv\"\n\
               fn f() -> Vec<String> { std::env::args().collect() }\n";
    assert!(fired(CORE, src).is_empty());
}

#[test]
fn trailing_waiver_suppresses_its_own_line() {
    let src =
        "fn f() -> Vec<String> { std::env::args().collect() } // lint: allow(det-env) reason=\"fixture\"\n";
    assert!(fired(CORE, src).is_empty());
}

#[test]
fn waiver_skips_attribute_lines_to_reach_the_item() {
    let src = "// SAFETY: fixture.\n\
               // lint: allow(unsafe-pool) reason=\"fixture trait impl\"\n\
               #[allow(unsafe_code)]\n\
               unsafe impl Send for () {}\n";
    assert!(fired("crates/grid/src/fixture.rs", src).is_empty());
}

#[test]
fn waiver_without_reason_is_itself_a_finding() {
    let src = "// lint: allow(det-env)\n\
               fn f() -> Vec<String> { std::env::args().collect() }\n";
    assert_eq!(fired(CORE, src), vec!["waiver-reason"]);
}

#[test]
fn waiver_for_unknown_rule_is_a_finding_and_suppresses_nothing() {
    let src = "// lint: allow(no-such-rule) reason=\"typo\"\n\
               fn f() -> Vec<String> { std::env::args().collect() }\n";
    assert_eq!(fired(CORE, src), vec!["waiver-unknown", "det-env"]);
}

#[test]
fn waiver_only_suppresses_the_named_rule() {
    let src = "// lint: allow(det-time) reason=\"wrong rule\"\n\
               fn f() -> Vec<String> { std::env::args().collect() }\n";
    assert_eq!(fired(CORE, src), vec!["det-env"]);
}

#[test]
fn one_waiver_can_name_several_rules() {
    let src = "// lint: allow(det-env, det-time) reason=\"fixture does both\"\n\
               fn f() -> u128 { let _ = std::env::args(); std::time::Instant::now().elapsed().as_nanos() }\n";
    assert!(fired(CORE, src).is_empty());
}

// ---------------------------------------------------------------------
// scanner-state interactions the rules depend on
// ---------------------------------------------------------------------

#[test]
fn raw_strings_do_not_swallow_following_code() {
    let src = "fn f(v: Vec<u8>) -> u8 {\n\
               \x20   let _s = r#\"quote \" and // comment markers\"#;\n\
               \x20   v.first().copied().unwrap()\n\
               }\n";
    assert_eq!(fired(ARCHIVE, src), vec!["panic-archive"]);
}

#[test]
fn nested_block_comments_do_not_hide_code_after_them() {
    let src = "/* outer /* inner */ still comment */\n\
               fn f(v: Vec<u8>) -> u8 { v.first().copied().unwrap() }\n";
    assert_eq!(fired(ARCHIVE, src), vec!["panic-archive"]);
}

#[test]
fn cfg_not_test_is_not_a_test_gate() {
    let src = "#[cfg(not(test))]\n\
               mod real {\n\
               \x20   pub fn f() { let _ = std::collections::HashSet::<u8>::new(); }\n\
               }\n";
    assert_eq!(fired(CORE, src), vec!["det-hash"]);
}
