//! The rule engine: repo-specific determinism and safety rules over the
//! [`scanner`](crate::scanner) token stream.
//!
//! Every rule, its scope, and its rationale is listed in the crate docs
//! ([`crate`]). This module implements:
//!
//! * per-file **scoping** (which crates each rule applies to),
//! * **test-region tracking** (`#[cfg(test)]` items and `mod tests`
//!   blocks are exempt from the determinism and panic rules),
//! * **waivers** (`// lint: allow(<rule>) reason="…"`), and
//! * the token-level matchers themselves.

use crate::scanner::{scan, Scan, Token, TokenKind};
use std::fmt;
use std::ops::Range;

/// Every rule the linter knows, by stable ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in deterministic non-test code.
    DetHash,
    /// `Instant`/`SystemTime` in deterministic non-test code.
    DetTime,
    /// `std::env` / `env!` in deterministic non-test code.
    DetEnv,
    /// Thread identity or OS entropy in deterministic non-test code.
    DetEntropy,
    /// Any `unsafe` without a reasoned waiver.
    UnsafePool,
    /// `unsafe` without an adjacent `// SAFETY:` / `# Safety` comment.
    UnsafeSafety,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    UnsafeHeader,
    /// Panic-capable token on an archive decode path.
    PanicArchive,
    /// A waiver comment without a `reason="…"`.
    WaiverReason,
    /// A waiver naming no known rule (or unparseable).
    WaiverUnknown,
}

impl Rule {
    /// All rules, for docs and waiver validation.
    pub const ALL: [Rule; 10] = [
        Rule::DetHash,
        Rule::DetTime,
        Rule::DetEnv,
        Rule::DetEntropy,
        Rule::UnsafePool,
        Rule::UnsafeSafety,
        Rule::UnsafeHeader,
        Rule::PanicArchive,
        Rule::WaiverReason,
        Rule::WaiverUnknown,
    ];

    /// The stable ID used in output and in waiver comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::DetHash => "det-hash",
            Rule::DetTime => "det-time",
            Rule::DetEnv => "det-env",
            Rule::DetEntropy => "det-entropy",
            Rule::UnsafePool => "unsafe-pool",
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::UnsafeHeader => "unsafe-header",
            Rule::PanicArchive => "panic-archive",
            Rule::WaiverReason => "waiver-reason",
            Rule::WaiverUnknown => "waiver-unknown",
        }
    }

    /// Why the rule exists — printed beside every finding.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::DetHash => {
                "HashMap/HashSet iteration order is seeded per process (RandomState); \
                 campaigns must be byte-identical across runs — use BTreeMap/BTreeSet \
                 or a sorted Vec"
            }
            Rule::DetTime => {
                "wall-clock reads differ per run; simulation logic must derive time \
                 from the simulated calendar, never the host clock"
            }
            Rule::DetEnv => {
                "the process environment varies per host and run; thread counts and \
                 paths must arrive through explicit configuration"
            }
            Rule::DetEntropy => {
                "thread identity and OS entropy are unseeded nondeterminism; derive \
                 randomness from an explicit seed (the vendored rand)"
            }
            Rule::UnsafePool => {
                "the workspace is safe Rust; unsafe needs a reasoned waiver, and only \
                 the benchmark binaries' counting allocators have one"
            }
            Rule::UnsafeSafety => {
                "every unsafe block/impl/fn must state its safety argument in an \
                 immediately preceding // SAFETY: (or # Safety doc) comment"
            }
            Rule::UnsafeHeader => {
                "crate roots must declare #![forbid(unsafe_code)] so new unsafe cannot \
                 land silently; a deny can be overridden by a local allow"
            }
            Rule::PanicArchive => {
                "archive decode paths parse untrusted bytes and must return typed \
                 ArchiveError, never unwrap/expect/panic!/index"
            }
            Rule::WaiverReason => "a waiver without a reason hides the judgment call it encodes",
            Rule::WaiverUnknown => "a waiver naming no known rule suppresses nothing",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding: where, which rule, and what was matched.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// What was matched, human-readable.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message,
            self.rule.rationale()
        )
    }
}

/// Which rules apply to a file, derived from its workspace-relative
/// path. See the crate docs for the scope table.
#[derive(Debug, Clone, Copy)]
pub struct FileProfile {
    /// Determinism rules (`det-*`) apply.
    pub deterministic: bool,
    /// `panic-archive` applies.
    pub panic_checked: bool,
    /// `unsafe-header` applies (the file is a crate root `lib.rs`).
    pub crate_root: bool,
    /// The whole file is test/bench/example code.
    pub test_file: bool,
}

/// The crates whose non-test code must be deterministic: everything on
/// the campaign byte-identity path, plus the facade.
const DETERMINISTIC_PREFIXES: [&str; 6] = [
    "crates/core/src/",
    "crates/grid/src/",
    "crates/sim/src/",
    "crates/archive/src/",
    "crates/desire/src/",
    "src/",
];

/// Classifies a workspace-relative path.
pub fn file_profile(rel_path: &str) -> FileProfile {
    let test_file = rel_path
        .split('/')
        .any(|part| part == "tests" || part == "benches" || part == "examples");
    let deterministic = !test_file
        && DETERMINISTIC_PREFIXES
            .iter()
            .any(|p| rel_path.starts_with(p));
    let panic_checked = !test_file
        && rel_path.starts_with("crates/archive/src/")
        && !rel_path.starts_with("crates/archive/src/bin/");
    let crate_root = rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs"));
    FileProfile {
        deterministic,
        panic_checked,
        crate_root,
        test_file,
    }
}

/// Lints one file's source text under the scoping its path implies.
///
/// `rel_path` must be workspace-relative with forward slashes (e.g.
/// `crates/core/src/sweep.rs`) — rule scoping keys off it.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let profile = file_profile(rel_path);
    let scan = scan(src);
    let file = FileContext::new(rel_path, &scan, profile);
    file.run()
}

// ---------------------------------------------------------------------
// Per-file context: significant tokens, line classes, regions, waivers
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineClass {
    Blank,
    CommentOnly,
    AttributeOnly,
    Code,
}

#[derive(Debug)]
struct Waiver {
    rules: Vec<String>,
    reason: bool,
    /// Line of the waiver comment itself (for waiver-* findings).
    at: u32,
    /// Line whose findings it suppresses.
    target: u32,
    parsed: bool,
}

struct FileContext<'a> {
    rel_path: &'a str,
    scan: &'a Scan<'a>,
    profile: FileProfile,
    /// Indices into `scan.tokens` of non-comment tokens.
    sig: Vec<usize>,
    /// Byte ranges of test-gated code.
    test_regions: Vec<Range<usize>>,
    line_class: Vec<LineClass>,
    /// Concatenated comment text per line (block comments contribute to
    /// every line they span).
    line_comments: Vec<String>,
    waivers: Vec<Waiver>,
}

impl<'a> FileContext<'a> {
    fn new(rel_path: &'a str, scan: &'a Scan<'a>, profile: FileProfile) -> FileContext<'a> {
        let sig: Vec<usize> = scan
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let line_count = scan.src.lines().count().max(1);
        let (line_class, line_comments) = classify_lines(scan, line_count);
        let test_regions = test_regions(scan, &sig);
        let waivers = collect_waivers(scan, &line_class);
        FileContext {
            rel_path,
            scan,
            profile,
            sig,
            test_regions,
            line_class,
            line_comments,
            waivers,
        }
    }

    fn in_test(&self, token: &Token) -> bool {
        self.profile.test_file || self.test_regions.iter().any(|r| r.contains(&token.start))
    }

    fn sig_token(&self, sig_index: usize) -> Option<&Token> {
        self.sig
            .get(sig_index)
            .and_then(|&i| self.scan.tokens.get(i))
    }

    fn sig_text(&self, sig_index: usize) -> &str {
        self.sig_token(sig_index).map_or("", |t| self.scan.text(t))
    }

    fn sig_is_ident(&self, sig_index: usize, name: &str) -> bool {
        self.sig_token(sig_index)
            .is_some_and(|t| t.kind == TokenKind::Ident && self.scan.text(t) == name)
    }

    fn sig_is_punct(&self, sig_index: usize, ch: char) -> bool {
        self.sig_token(sig_index)
            .is_some_and(|t| t.kind == TokenKind::Punct && self.scan.text(t).starts_with(ch))
    }

    /// `a :: b` starting at significant index `i` (where `a` already
    /// matched).
    fn path_seg_follows(&self, i: usize, seg: &str) -> bool {
        self.sig_is_punct(i + 1, ':')
            && self.sig_is_punct(i + 2, ':')
            && self.sig_is_ident(i + 3, seg)
    }

    fn run(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        self.rule_unsafe_header(&mut findings);
        for (si, &ti) in self.sig.iter().enumerate() {
            let token = &self.scan.tokens[ti];
            if self.profile.deterministic && !self.in_test(token) {
                self.det_rules(si, token, &mut findings);
            }
            if token.kind == TokenKind::Ident && self.scan.text(token) == "unsafe" {
                self.unsafe_rules(si, token, &mut findings);
            }
            if self.profile.panic_checked && !self.in_test(token) {
                self.panic_rules(si, token, &mut findings);
            }
        }
        self.apply_waivers(&mut findings);
        findings.sort();
        findings
    }

    fn push(&self, findings: &mut Vec<Finding>, line: u32, rule: Rule, message: String) {
        findings.push(Finding {
            file: self.rel_path.to_string(),
            line,
            rule,
            message,
        });
    }

    // -- determinism ---------------------------------------------------

    fn det_rules(&self, si: usize, token: &Token, findings: &mut Vec<Finding>) {
        if token.kind != TokenKind::Ident {
            return;
        }
        let text = self.scan.text(token);
        match text {
            "HashMap" | "HashSet" => self.push(
                findings,
                token.line,
                Rule::DetHash,
                format!("`{text}` in deterministic non-test code"),
            ),
            "Instant" | "SystemTime" => self.push(
                findings,
                token.line,
                Rule::DetTime,
                format!("`{text}` in deterministic non-test code"),
            ),
            "std" if self.path_seg_follows(si, "env") => self.push(
                findings,
                token.line,
                Rule::DetEnv,
                "`std::env` in deterministic non-test code".to_string(),
            ),
            "env" | "option_env" if self.sig_is_punct(si + 1, '!') => self.push(
                findings,
                token.line,
                Rule::DetEnv,
                format!("`{text}!` in deterministic non-test code"),
            ),
            "thread_rng" | "from_entropy" | "RandomState" | "ThreadId" | "getrandom" => self.push(
                findings,
                token.line,
                Rule::DetEntropy,
                format!("`{text}` in deterministic non-test code"),
            ),
            "thread" if self.path_seg_follows(si, "current") => self.push(
                findings,
                token.line,
                Rule::DetEntropy,
                "`thread::current` in deterministic non-test code".to_string(),
            ),
            _ => {}
        }
    }

    // -- unsafe --------------------------------------------------------

    fn unsafe_rules(&self, si: usize, token: &Token, findings: &mut Vec<Finding>) {
        let form = match self.sig_text(si + 1) {
            "impl" => "unsafe impl",
            "fn" => "unsafe fn",
            "trait" => "unsafe trait",
            _ => "unsafe block",
        };
        self.push(
            findings,
            token.line,
            Rule::UnsafePool,
            format!("{form} without a reasoned waiver"),
        );
        if !self.has_adjacent_safety_comment(token.line) {
            self.push(
                findings,
                token.line,
                Rule::UnsafeSafety,
                format!("{form} without an adjacent SAFETY comment"),
            );
        }
    }

    /// True when the contiguous comment/attribute lines directly above
    /// `line` (or a trailing comment on `line` itself) contain
    /// `SAFETY:` or a `# Safety` doc section.
    fn has_adjacent_safety_comment(&self, line: u32) -> bool {
        let idx = (line as usize).saturating_sub(1); // 0-based
        if self.comment_text_at(idx).contains("SAFETY:") {
            return true;
        }
        let mut cursor = idx;
        while cursor > 0 {
            cursor -= 1;
            match self.line_class.get(cursor) {
                Some(LineClass::CommentOnly) => {
                    let text = self.comment_text_at(cursor);
                    if text.contains("SAFETY:") || text.contains("# Safety") {
                        return true;
                    }
                }
                Some(LineClass::AttributeOnly) => {}
                _ => break,
            }
        }
        false
    }

    fn comment_text_at(&self, idx: usize) -> &str {
        self.line_comments.get(idx).map_or("", String::as_str)
    }

    fn rule_unsafe_header(&self, findings: &mut Vec<Finding>) {
        if !self.profile.crate_root {
            return;
        }
        // #![forbid(unsafe_code)] anywhere in the significant stream
        // (inner attributes sit near the top).
        let mut found = false;
        for w in 0..self.sig.len() {
            if self.sig_is_punct(w, '#')
                && self.sig_is_punct(w + 1, '!')
                && self.sig_is_punct(w + 2, '[')
                && self.sig_is_ident(w + 3, "forbid")
                && self.sig_is_punct(w + 4, '(')
                && self.sig_is_ident(w + 5, "unsafe_code")
            {
                found = true;
                break;
            }
        }
        if !found {
            self.push(
                findings,
                1,
                Rule::UnsafeHeader,
                "crate root lacks #![forbid(unsafe_code)]".to_string(),
            );
        }
    }

    // -- panic discipline ----------------------------------------------

    /// Identifiers that legitimately precede `[` without forming an
    /// index expression (`let [a, b] = …`, `&mut [T]`, `for [a, b] in`).
    const NON_INDEX_KEYWORDS: [&'static str; 16] = [
        "let", "mut", "ref", "in", "if", "else", "match", "while", "for", "loop", "return",
        "break", "continue", "move", "as", "where",
    ];

    fn panic_rules(&self, si: usize, token: &Token, findings: &mut Vec<Finding>) {
        match token.kind {
            TokenKind::Ident => {
                let text = self.scan.text(token);
                match text {
                    "unwrap" | "expect" if self.prev_sig_is_dot(si) => self.push(
                        findings,
                        token.line,
                        Rule::PanicArchive,
                        format!("`.{text}()` on an archive decode path"),
                    ),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if self.sig_is_punct(si + 1, '!') =>
                    {
                        self.push(
                            findings,
                            token.line,
                            Rule::PanicArchive,
                            format!("`{text}!` on an archive decode path"),
                        )
                    }
                    _ => {}
                }
            }
            TokenKind::Punct if self.scan.text(token).starts_with('[') => {
                if si == 0 {
                    return;
                }
                let Some(prev) = self.sig_token(si - 1) else {
                    return;
                };
                let prev_text = self.scan.text(prev);
                let indexes = match prev.kind {
                    TokenKind::Ident => !Self::NON_INDEX_KEYWORDS.contains(&prev_text),
                    TokenKind::Punct => prev_text.starts_with(')') || prev_text.starts_with(']'),
                    _ => false,
                };
                if indexes {
                    self.push(
                        findings,
                        token.line,
                        Rule::PanicArchive,
                        "slice/array index expression on an archive decode path (use .get)"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }

    fn prev_sig_is_dot(&self, si: usize) -> bool {
        si > 0
            && self
                .sig_token(si - 1)
                .is_some_and(|t| t.kind == TokenKind::Punct && self.scan.text(t) == ".")
    }

    // -- waivers -------------------------------------------------------

    fn apply_waivers(&self, findings: &mut Vec<Finding>) {
        let mut extra = Vec::new();
        for waiver in &self.waivers {
            if !waiver.parsed {
                self.push(
                    &mut extra,
                    waiver.at,
                    Rule::WaiverUnknown,
                    "malformed waiver comment (expected `lint: allow(<rule>) reason=\"…\"`)"
                        .to_string(),
                );
                continue;
            }
            for rule_id in &waiver.rules {
                if Rule::from_id(rule_id).is_none() {
                    self.push(
                        &mut extra,
                        waiver.at,
                        Rule::WaiverUnknown,
                        format!("waiver names unknown rule `{rule_id}`"),
                    );
                }
            }
            if !waiver.reason {
                self.push(
                    &mut extra,
                    waiver.at,
                    Rule::WaiverReason,
                    "waiver without a reason=\"…\"".to_string(),
                );
            }
        }
        findings.retain(|f| {
            !self
                .waivers
                .iter()
                .any(|w| w.parsed && w.target == f.line && w.rules.iter().any(|r| r == f.rule.id()))
        });
        findings.append(&mut extra);
    }
}

/// Splits the source into lines and classifies each, collecting the
/// comment text visible on every line.
fn classify_lines(scan: &Scan<'_>, line_count: usize) -> (Vec<LineClass>, Vec<String>) {
    let mut comments = vec![String::new(); line_count];
    let mut has_code = vec![false; line_count];
    let mut has_comment = vec![false; line_count];
    for token in &scan.tokens {
        let start = (token.line as usize).saturating_sub(1);
        match token.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                let end = (scan.end_line(token) as usize).saturating_sub(1);
                let text = scan.text(token);
                for (offset, piece) in text.lines().enumerate() {
                    let idx = start + offset;
                    if idx <= end && idx < comments.len() {
                        has_comment[idx] = true;
                        comments[idx].push_str(piece);
                        comments[idx].push(' ');
                    }
                }
            }
            _ => {
                let end = (scan.end_line(token) as usize).saturating_sub(1);
                for idx in start..=end.min(has_code.len().saturating_sub(1)) {
                    has_code[idx] = true;
                }
            }
        }
    }
    let line_texts: Vec<&str> = scan.src.lines().collect();
    let classes = (0..line_count)
        .map(|idx| {
            let text = line_texts.get(idx).copied().unwrap_or("").trim_start();
            if has_code[idx] {
                if text.starts_with("#[") || text.starts_with("#![") {
                    LineClass::AttributeOnly
                } else {
                    LineClass::Code
                }
            } else if has_comment[idx] {
                LineClass::CommentOnly
            } else {
                LineClass::Blank
            }
        })
        .collect();
    (classes, comments)
}

/// Byte ranges of test-gated code: the block of any item carrying
/// `#[cfg(test)]` (or a cfg predicate mentioning `test` without
/// `not(…)`), and any `mod tests { … }` block.
fn test_regions(scan: &Scan<'_>, sig: &[usize]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let mut pending_at_depth: Option<i32> = None;
    let mut depth: i32 = 0;
    let mut i = 0usize;
    while i < sig.len() {
        let token = &scan.tokens[sig[i]];
        let text = scan.text(token);
        match token.kind {
            TokenKind::Punct if text == "#" => {
                // Attribute: skip to its matching ']', inspecting cfg.
                let mut j = i + 1;
                if sig
                    .get(j)
                    .is_some_and(|&t| scan.text(&scan.tokens[t]) == "!")
                {
                    j += 1;
                }
                if sig
                    .get(j)
                    .is_some_and(|&t| scan.text(&scan.tokens[t]) == "[")
                {
                    let (end, is_test_cfg) = scan_attribute(scan, sig, j);
                    if is_test_cfg {
                        pending_at_depth = Some(depth);
                    }
                    i = end;
                    continue;
                }
            }
            TokenKind::Punct if text == "{" => {
                if pending_at_depth.take().is_some() {
                    if let Some(close) = matching_brace(scan, sig, i) {
                        regions.push(token.start..scan.tokens[sig[close]].end);
                    } else {
                        regions.push(token.start..scan.src.len());
                    }
                }
                depth += 1;
            }
            TokenKind::Punct if text == "}" => depth -= 1,
            TokenKind::Punct if text == ";" && pending_at_depth == Some(depth) => {
                pending_at_depth = None;
            }
            TokenKind::Ident
                if text == "mod"
                    && sig
                        .get(i + 1)
                        .is_some_and(|&t| scan.text(&scan.tokens[t]) == "tests") =>
            {
                pending_at_depth = Some(depth);
            }
            _ => {}
        }
        i += 1;
    }
    regions
}

/// From the significant index of an attribute's `[`, returns the index
/// one past its matching `]` and whether the attribute is a test cfg.
fn scan_attribute(scan: &Scan<'_>, sig: &[usize], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut i = open;
    while i < sig.len() {
        let text = scan.text(&scan.tokens[sig[i]]);
        match text {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, saw_cfg && saw_test && !saw_not);
                }
            }
            "cfg" => saw_cfg = true,
            "test" => saw_test = true,
            "not" => saw_not = true,
            _ => {}
        }
        i += 1;
    }
    (sig.len(), false)
}

/// From the significant index of a `{`, the index of its matching `}`.
fn matching_brace(scan: &Scan<'_>, sig: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (offset, &ti) in sig.iter().enumerate().skip(open) {
        match scan.text(&scan.tokens[ti]) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(offset);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts `lint: allow(…)` waivers from comment tokens. A trailing
/// waiver on a code line targets that line; a waiver on its own line
/// targets the next code line below it.
fn collect_waivers(scan: &Scan<'_>, line_class: &[LineClass]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for token in &scan.tokens {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let body = comment_body(scan.text(token));
        let Some(directive) = body.trim_start().strip_prefix("lint:") else {
            continue;
        };
        let at = token.line;
        let line_idx = (at as usize).saturating_sub(1);
        let target = if line_class.get(line_idx) == Some(&LineClass::Code) {
            at
        } else {
            // First code line below the comment, skipping blank,
            // comment and attribute lines (so a waiver above
            // `#[allow(…)] unsafe impl …` still reaches the impl).
            let mut idx = (scan.end_line(token) as usize).saturating_sub(1) + 1;
            while idx < line_class.len()
                && matches!(
                    line_class[idx],
                    LineClass::Blank | LineClass::CommentOnly | LineClass::AttributeOnly
                )
            {
                idx += 1;
            }
            (idx + 1) as u32
        };
        match parse_waiver(directive) {
            Some((rules, reason)) => waivers.push(Waiver {
                rules,
                reason,
                at,
                target,
                parsed: true,
            }),
            None => waivers.push(Waiver {
                rules: Vec::new(),
                reason: false,
                at,
                target,
                parsed: false,
            }),
        }
    }
    waivers
}

/// Strips comment delimiters: `//`, `///`, `//!`, `/* … */`.
fn comment_body(text: &str) -> &str {
    let text = text
        .strip_prefix("//")
        .map(|t| t.trim_start_matches(['/', '!']))
        .unwrap_or(text);
    let text = text.strip_prefix("/*").unwrap_or(text);
    text.strip_suffix("*/").unwrap_or(text)
}

/// Parses `allow(rule-a, rule-b) reason="…"` → (rules, has_reason).
fn parse_waiver(directive: &str) -> Option<(Vec<String>, bool)> {
    let rest = directive.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest
        .get(..close)?
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let tail = rest.get(close + 1..)?.trim_start();
    let reason = match tail.strip_prefix("reason=\"") {
        Some(quoted) => quoted
            .find('"')
            .is_some_and(|end| !quoted.get(..end).unwrap_or("").trim().is_empty()),
        None => false,
    };
    Some((rules, reason))
}
