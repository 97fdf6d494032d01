//! The lint engine: a comment/string-aware line scanner plus the rule
//! implementations described in the crate root docs.
//!
//! Deliberately std-only and token-based (no `syn`): the build container
//! is offline, and every invariant checked here is expressible on the
//! stripped token stream. The cost is a documented blind spot: `F1`
//! only sees comparisons with a float *literal* operand (variable ==
//! variable comparisons of `f64` need type knowledge), and test regions
//! are recognized as brace-delimited items under a `#[cfg(test)]`
//! attribute on its own line — anywhere in the file, not just the tail.
//!
//! The R4/R5 phase-graph checks live in [`crate::phasegraph`] and are
//! invoked from here as part of the same pass.

use crate::phasegraph::{ProtocolFinding, Stream};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// A lint rule identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Nondeterministic hash container in a deterministic path.
    D1,
    /// Float equality against a literal outside epsilon helpers.
    F1,
    /// Manual 64-bit id pack/unpack outside `key.rs`.
    F2,
    /// `unsafe` without a `// SAFETY:` comment.
    U1,
    /// `unwrap`/`expect` in non-test library code.
    P1,
    /// Crate-root doc invariants missing.
    C1,
    /// `ctx.exchange()` not paired with `finish` on the token stream:
    /// early `return`/`?`/`break` inside a phase, overlapping phases, or
    /// a phase whose scope ends before `finish`.
    R1,
    /// Collective call inside a rank-divergent conditional (a
    /// conditional whose condition reads rank-local data).
    R2,
    /// Atomic memory orderings outside `crates/runtime` (and the
    /// dependency shims) require a justified suppression.
    R3,
    /// Branch-arm protocol mismatch: the arms of a rank-divergent
    /// conditional (condition tainted by rank-local data, tracked
    /// through assignments) have different collective effect — either
    /// different collective sequences, or a divergent early exit
    /// (`return`/`break`/`continue`) that skips collectives some ranks
    /// still execute. Semantic generalization of the syntactic `R2`.
    R4,
    /// Collective inside a loop whose trip count derives from
    /// rank-local data rather than a replicated/allreduced value: ranks
    /// run different iteration counts and the protocol diverges.
    R5,
    /// Wall-clock reads (`Instant::now` / `SystemTime::now`) on traced
    /// solver/runtime paths outside the sanctioned `timing.rs` module:
    /// a wall-clock value reaching a trace or `BENCH_*.json` breaks the
    /// bit-identical determinism contract.
    T1,
    /// Collective/exchange payload classified `Unbounded` by the cost
    /// analysis: the shipped volume derives from no recognized solver
    /// quantity (no seed, no parameter, no bounded loop) — the
    /// per-file face of the `xtask cost` spec, like R4/R5 for the
    /// protocol spec.
    M1,
    /// Per-iteration allocation on a traced hot path: `Vec::new()` /
    /// `vec![]` grown with `push`/`extend` inside a loop of an
    /// `Event::Enter`/`Event::Exit`-bracketed phase region, without a
    /// dominating `reserve`/`with_capacity`.
    A1,
    /// Checkpoint I/O inside a traced phase region: a
    /// `CheckpointStore` access (`save_slot`/`read_slot`) or a
    /// checkpoint serialization helper called between `Event::Enter`
    /// and `Event::Exit`. Checkpointing is bookkeeping, not algorithm
    /// work — inside a phase bracket it distorts the per-phase clock
    /// attribution the paper's Figure 8 breakdown rests on, so it must
    /// happen at level boundaries outside every traced region.
    X1,
    /// Suppression comment without a reason.
    Sup,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 16] = [
        Rule::D1,
        Rule::F1,
        Rule::F2,
        Rule::U1,
        Rule::P1,
        Rule::C1,
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::T1,
        Rule::M1,
        Rule::A1,
        Rule::X1,
        Rule::Sup,
    ];

    /// Stable textual id (used in reports and suppression comments).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::F1 => "F1",
            Rule::F2 => "F2",
            Rule::U1 => "U1",
            Rule::P1 => "P1",
            Rule::C1 => "C1",
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::T1 => "T1",
            Rule::M1 => "M1",
            Rule::A1 => "A1",
            Rule::X1 => "X1",
            Rule::Sup => "SUP",
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

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// Serialize as a JSON object (std-only writer).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.path),
            self.line,
            self.rule,
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Version of the JSON report layout. Bump when the shape of the report
/// (not the rule set) changes, so downstream diffing of lint baselines
/// can detect incompatible layouts; adding rules only adds `counts`
/// keys. Version 2 introduced the field itself alongside rules R1–R3;
/// version 3 added `bench_snapshot_schema_version`; version 4 added the
/// phase-graph rules R4/R5 and `protocol_spec_schema_version`; version
/// 5 added the cost rules M1/A1 and `cost_spec_schema_version`; version
/// 6 added the checkpoint-placement rule X1.
pub const JSON_SCHEMA_VERSION: u32 = 6;

/// The `schema_version` of `BENCH_louvain.json` emitted by
/// `louvain-bench bench-snapshot`, republished here so `xtask --json`
/// consumers learn about snapshot compatibility from one report. Must
/// track `louvain_bench::snapshot::SCHEMA_VERSION` (xtask deliberately
/// has no dependencies, so a source-reading test enforces the match).
pub const BENCH_SNAPSHOT_SCHEMA_VERSION: u64 = 5;

/// Render findings as a JSON report: schema version, rule counts, and
/// the finding list.
#[must_use]
pub fn to_json_report(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for rule in Rule::ALL {
        counts.insert(rule.id(), 0);
    }
    for f in findings {
        *counts.entry(f.rule.id()).or_insert(0) += 1;
    }
    let counts_json: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let list: Vec<String> = findings
        .iter()
        .map(|f| format!("    {}", f.to_json()))
        .collect();
    format!(
        "{{\n  \"schema_version\": {},\n  \"bench_snapshot_schema_version\": {},\n  \"protocol_spec_schema_version\": {},\n  \"cost_spec_schema_version\": {},\n  \"total\": {},\n  \"counts\": {{{}}},\n  \"findings\": [\n{}\n  ]\n}}",
        JSON_SCHEMA_VERSION,
        BENCH_SNAPSHOT_SCHEMA_VERSION,
        crate::phasegraph::PROTOCOL_SPEC_SCHEMA_VERSION,
        crate::costgraph::COST_SPEC_SCHEMA_VERSION,
        findings.len(),
        counts_json.join(","),
        list.join(",\n")
    )
}

// ---------------------------------------------------------------------------
// Scanner: split source into per-line (code, comment) views.
// ---------------------------------------------------------------------------

/// One source line with comments/strings separated from code.
#[derive(Debug, Default, Clone)]
pub(crate) struct LineView {
    /// Code with comments removed and string contents blanked.
    pub(crate) code: String,
    /// Concatenated comment text on this line.
    pub(crate) comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ScanState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Strip comments and string contents, preserving line structure.
///
/// Handles nested block comments, escaped quotes, raw strings with up
/// to arbitrary `#` counts, char literals, and lifetimes.
pub(crate) fn scan_lines(src: &str) -> Vec<LineView> {
    let bytes: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LineView::default();
    let mut state = ScanState::Code;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            if state == ScanState::LineComment {
                state = ScanState::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            ScanState::Code => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = ScanState::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = ScanState::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = ScanState::Str;
                    i += 1;
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Possible raw string: r"..." or r#"..."# etc.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        cur.code.push('"');
                        state = ScanState::RawStr(hashes);
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    let n1 = bytes.get(i + 1).copied();
                    let n2 = bytes.get(i + 2).copied();
                    if n1 == Some('\\') {
                        // Escaped char literal: skip to closing quote.
                        cur.code.push_str("' '");
                        let mut j = i + 2;
                        while j < bytes.len() && bytes[j] != '\'' {
                            j += 1;
                        }
                        i = j + 1;
                    } else if n2 == Some('\'') {
                        // Plain char literal 'x'.
                        cur.code.push_str("' '");
                        i += 3;
                    } else {
                        // Lifetime.
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            ScanState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            ScanState::BlockComment(depth) => {
                let next = bytes.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        ScanState::Code
                    } else {
                        ScanState::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = ScanState::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            ScanState::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = ScanState::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            ScanState::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.code.push('"');
                        state = ScanState::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

// ---------------------------------------------------------------------------
// Path classification.
// ---------------------------------------------------------------------------

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone)]
struct FileClass {
    /// Test-adjacent file (`tests/`, `benches/`, `examples/`): most
    /// rules off.
    test_context: bool,
    /// D1 scope: deterministic solver/metrics source.
    deterministic_path: bool,
    /// P1 scope: library source of the four no-panic crates.
    p1_scope: bool,
    /// F1 exemption: approved epsilon-helper module.
    f1_exempt: bool,
    /// F2 exemption: the sanctioned pack/unpack module.
    f2_exempt: bool,
    /// C1 scope: crate-root file that must carry doc invariants.
    crate_root: bool,
    /// R1/R2 scope: everything except the dependency shims (which never
    /// touch the runtime's collective surface).
    race_scope: bool,
    /// R3 exemption: the runtime implementation and the shims are the
    /// only places allowed to use atomics without a suppression.
    r3_exempt: bool,
    /// T1 scope: traced solver/runtime/trace source, where wall-clock
    /// reads are banned outside the sanctioned `timing.rs` module.
    t1_scope: bool,
    /// M1/A1 scope: solver-crate source — the same surface the
    /// `xtask cost` spec classifies (runtime internals implement the
    /// collectives and are exempt by construction).
    cost_scope: bool,
}

fn classify(rel: &str) -> FileClass {
    let rel = rel.replace('\\', "/");
    let in_dir = |dir: &str| -> bool {
        rel.starts_with(&format!("{dir}/")) || rel.contains(&format!("/{dir}/"))
    };
    let test_context = in_dir("tests") || in_dir("benches") || in_dir("examples");
    let deterministic_path =
        rel.starts_with("crates/core/src/") || rel.starts_with("crates/metrics/src/");
    let p1_scope = ["core", "runtime", "hashtable", "graph"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    let f1_exempt = rel.ends_with("/dq.rs") || rel.ends_with("/modularity.rs");
    let f2_exempt = rel == "crates/hashtable/src/key.rs";
    let crate_root = !rel.starts_with("shims/")
        && (rel == "src/lib.rs"
            || (rel.starts_with("crates/")
                && rel.ends_with("/src/lib.rs")
                && rel.matches('/').count() == 3));
    let race_scope = !rel.starts_with("shims/");
    let r3_exempt = rel.starts_with("crates/runtime/src/") || rel.starts_with("shims/");
    let t1_scope = ["core", "runtime", "trace"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
        && rel != "crates/core/src/timing.rs";
    let cost_scope = rel.starts_with("crates/core/src/");
    FileClass {
        test_context,
        deterministic_path,
        p1_scope,
        f1_exempt,
        f2_exempt,
        crate_root,
        race_scope,
        r3_exempt,
        t1_scope,
        cost_scope,
    }
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

/// Suppressions active per line: rule → set of suppressed line numbers.
struct Suppressions {
    /// (line, rule) pairs; a suppression on line L covers L and L+1.
    allowed: Vec<(usize, Rule)>,
    /// `SUP` findings for malformed suppressions.
    malformed: Vec<(usize, String)>,
}

/// Parse suppression comments: `lint: allow(D1, F1) — reason`.
fn collect_suppressions(lines: &[LineView]) -> Suppressions {
    let mut allowed = Vec::new();
    let mut malformed = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.comment.find("lint: allow(") else {
            continue;
        };
        let rest = &line.comment[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            malformed.push((lineno, "unclosed `lint: allow(` suppression".to_string()));
            continue;
        };
        let ids = &rest[..close];
        let mut rules = Vec::new();
        let mut bad_id = None;
        for id in ids.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_id(id) {
                Some(r) => rules.push(r),
                None => bad_id = Some(id.to_string()),
            }
        }
        if let Some(id) = bad_id {
            malformed.push((lineno, format!("unknown rule `{id}` in suppression")));
            continue;
        }
        if rules.is_empty() {
            malformed.push((lineno, "suppression names no rules".to_string()));
            continue;
        }
        // Mandatory reason: non-separator text after the ')'.
        let reason: String = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
            .trim()
            .to_string();
        if reason.is_empty() {
            malformed.push((
                lineno,
                "suppression missing mandatory reason (`// lint: allow(RULE) — why`)".to_string(),
            ));
            continue;
        }
        for r in rules {
            allowed.push((lineno, r));
        }
    }
    Suppressions { allowed, malformed }
}

impl Suppressions {
    fn covers(&self, line: usize, rule: Rule) -> bool {
        self.allowed
            .iter()
            .any(|&(l, r)| r == rule && (l == line || l + 1 == line))
    }
}

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `code` contain `word` as a whole token?
fn has_token(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0 || !is_ident_char(code[..abs].chars().next_back().unwrap_or(' '));
        let after = code[abs + word.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// Does the text around position `at` (an operator site) involve a
/// floating-point literal? Scans outward to expression delimiters.
fn float_literal_near(code: &str, at: usize, op_len: usize) -> bool {
    let delims: &[char] = &[',', ';', '(', ')', '{', '}', '[', ']', '&', '|'];
    let left_start = code[..at].rfind(delims).map_or(0, |p| p + 1);
    let right_end = code[at + op_len..]
        .find(delims)
        .map_or(code.len(), |p| at + op_len + p);
    let left = &code[left_start..at];
    let right = &code[at + op_len..right_end];
    contains_float_literal(left) || contains_float_literal(right)
}

/// Detect a float literal (`1.0`, `0.5e3`, `1e-9`) that is not a tuple
/// field access (`e.0`) or a method call on an integer (`1.max(..)`).
fn contains_float_literal(s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            // Char before the digit run must not be ident-ish or '.'.
            let run_start = i;
            let before = if run_start == 0 {
                ' '
            } else {
                chars[run_start - 1]
            };
            let mut j = i;
            while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
            if !is_ident_char(before) && before != '.' {
                // `12.`, `12.3`, `12e-4`, `12E4` are float-literal shapes.
                if j < chars.len() && chars[j] == '.' {
                    // Exclude method calls like `1.max(2)`: float only if
                    // the char after '.' is a digit, whitespace, or end.
                    let after_dot = chars.get(j + 1).copied().unwrap_or(' ');
                    if after_dot.is_ascii_digit() || !is_ident_char(after_dot) {
                        return true;
                    }
                } else if j < chars.len() && (chars[j] == 'e' || chars[j] == 'E') {
                    let sign_or_digit = chars.get(j + 1).copied().unwrap_or(' ');
                    if sign_or_digit.is_ascii_digit()
                        || sign_or_digit == '+'
                        || sign_or_digit == '-'
                    {
                        return true;
                    }
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Cross-line passes (R1/R2): a flat character stream over the non-test
// code region, each character tagged with its 1-based line number.
// Comments and string contents are already stripped by the scanner, so
// token matching on the stream is sound.
// ---------------------------------------------------------------------------

fn code_stream(lines: &[LineView], end: usize) -> Vec<(char, usize)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().take(end).enumerate() {
        for c in line.code.chars() {
            out.push((c, idx + 1));
        }
        // Line boundary acts as whitespace so tokens never merge.
        out.push((' ', idx + 1));
    }
    out
}

/// Per-line mask: `true` when the line belongs to a `#[cfg(test)]`
/// region — the attribute line through the end of the item it gates
/// (matching close brace, or `;` for a braceless item). Recognizes such
/// regions anywhere in the file, not just the file-tail convention.
pub(crate) fn test_region_mask(lines: &[LineView]) -> Vec<bool> {
    let stream = code_stream(lines, lines.len());
    let mut mask = vec![false; lines.len()];
    for idx in 0..lines.len() {
        if lines[idx].code.trim() != "#[cfg(test)]" {
            continue;
        }
        let attr_line = idx + 1;
        let mut p = 0;
        while p < stream.len() && stream[p].1 <= attr_line {
            p += 1;
        }
        let mut end_line = lines.len();
        while p < stream.len() {
            match stream[p].0 {
                '{' => {
                    let close = block_end(&stream, p);
                    end_line = stream.get(close - 1).map_or(lines.len(), |&(_, l)| l);
                    break;
                }
                ';' => {
                    end_line = stream[p].1;
                    break;
                }
                _ => p += 1,
            }
        }
        for m in mask.iter_mut().take(end_line).skip(idx) {
            *m = true;
        }
    }
    mask
}

/// Like [`code_stream`], but lines masked as test regions are dropped
/// entirely (their line numbers simply never appear in the stream).
pub(crate) fn code_stream_masked(lines: &[LineView], mask: &[bool]) -> Vec<(char, usize)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for c in line.code.chars() {
            out.push((c, idx + 1));
        }
        out.push((' ', idx + 1));
    }
    out
}

/// Is `pat` present at `i` in the stream, character for character?
pub(crate) fn matches_at(stream: &[(char, usize)], i: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, pc)| stream.get(i + k).map(|&(c, _)| c) == Some(pc))
}

/// Is keyword `kw` at `i`, with identifier boundaries on both sides?
pub(crate) fn keyword_at(stream: &[(char, usize)], i: usize, kw: &str) -> bool {
    if !matches_at(stream, i, kw) {
        return false;
    }
    let before_ok = i == 0 || !is_ident_char(stream[i - 1].0);
    let after_ok = stream
        .get(i + kw.len())
        .is_none_or(|&(c, _)| !is_ident_char(c));
    before_ok && after_ok
}

pub(crate) fn skip_ws(stream: &[(char, usize)], mut i: usize) -> usize {
    while stream.get(i).is_some_and(|&(c, _)| c.is_whitespace()) {
        i += 1;
    }
    i
}

/// An open `Exchange` phase being tracked by the R1 state machine.
struct OpenPhase {
    start_line: usize,
    /// Brace depth at the `ctx.exchange()` call: the phase must `finish`
    /// before this scope closes.
    start_depth: i32,
    /// Brace depths (and optional labels) of loops opened *after* the
    /// phase started; a plain `break`/`continue` is fine while one is
    /// active, and a labeled one is fine when its target is in here —
    /// the jump lands after/at a loop that is still inside the phase,
    /// before `finish()`.
    loops: Vec<(i32, Option<String>)>,
    /// A `for`/`while`/`loop` keyword was seen and its body `{` is
    /// pending (armed at this paren depth, with the loop's label if it
    /// had one).
    pending_loop: Option<(i32, Option<String>)>,
}

/// The `'label` immediately preceding a loop keyword at `i`
/// (`'outer: for …`), if any.
fn label_before(stream: &[(char, usize)], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 && stream[j - 1].0.is_whitespace() {
        j -= 1;
    }
    if j == 0 || stream[j - 1].0 != ':' {
        return None;
    }
    j -= 1;
    let end = j;
    while j > 0 && is_ident_char(stream[j - 1].0) {
        j -= 1;
    }
    if j == end || j == 0 || stream[j - 1].0 != '\'' {
        return None;
    }
    Some(stream[j..end].iter().map(|&(c, _)| c).collect())
}

/// R1 — every `.exchange()` must reach exactly one `.finish()` with no
/// early exit in between. Token-level approximation of "paired on all
/// control-flow paths": flags `return`, `?`, `break`/`continue` whose
/// target loop encloses the phase (plain ones with no phase-interior
/// loop active, labeled ones whose label names no phase-interior loop),
/// plus overlapping phases and phases whose scope ends unfinished.
fn check_exchange_discipline(stream: &[(char, usize)]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut phase: Option<OpenPhase> = None;
    let mut depth = 0i32;
    let mut parens = 0i32;
    let mut i = 0usize;
    while i < stream.len() {
        let (c, line) = stream[i];
        if matches_at(stream, i, ".exchange(") {
            if let Some(ph) = &phase {
                out.push((
                    line,
                    format!(
                        "`exchange()` while the phase opened at line {} has not reached \
                         `finish()`: phases must not overlap",
                        ph.start_line
                    ),
                ));
            }
            phase = Some(OpenPhase {
                start_line: line,
                start_depth: depth,
                loops: Vec::new(),
                pending_loop: None,
            });
            i += ".exchange(".len();
            continue;
        }
        if matches_at(stream, i, ".finish(") {
            phase = None;
            i += ".finish(".len();
            continue;
        }
        let Some(ph) = phase.as_mut() else {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                '(' => parens += 1,
                ')' => parens -= 1,
                _ => {}
            }
            i += 1;
            continue;
        };
        for kw in ["for", "while", "loop"] {
            if keyword_at(stream, i, kw) {
                ph.pending_loop = Some((parens, label_before(stream, i)));
            }
        }
        if keyword_at(stream, i, "return") {
            out.push((
                line,
                format!(
                    "`return` inside the exchange phase opened at line {}: the phase \
                     never reaches `finish()` on this path and peer ranks deadlock",
                    ph.start_line
                ),
            ));
            i += "return".len();
            continue;
        }
        if keyword_at(stream, i, "break") || keyword_at(stream, i, "continue") {
            let kw_len = if stream[i].0 == 'b' { 5 } else { 8 };
            let j = skip_ws(stream, i + kw_len);
            let label: Option<String> = stream
                .get(j)
                .filter(|&&(c, _)| c == '\'')
                .map(|_| {
                    let mut k = j + 1;
                    let mut s = String::new();
                    while stream.get(k).is_some_and(|&(c, _)| is_ident_char(c)) {
                        s.push(stream[k].0);
                        k += 1;
                    }
                    s
                })
                .filter(|s| !s.is_empty());
            let escapes_phase = match &label {
                Some(l) => !ph.loops.iter().any(|(_, ll)| ll.as_deref() == Some(l)),
                None => ph.loops.is_empty(),
            };
            if escapes_phase {
                out.push((
                    line,
                    format!(
                        "`break`/`continue` jumps out of the exchange phase opened at \
                         line {}: `finish()` is skipped on this path",
                        ph.start_line
                    ),
                ));
            }
            i += kw_len;
            continue;
        }
        match c {
            '?' => out.push((
                line,
                format!(
                    "`?` early-exit inside the exchange phase opened at line {}: an \
                     error return skips `finish()` and deadlocks peer ranks",
                    ph.start_line
                ),
            )),
            '(' => parens += 1,
            ')' => parens -= 1,
            '{' => {
                depth += 1;
                if ph.pending_loop.as_ref().is_some_and(|&(p, _)| p == parens) {
                    let (_, lbl) = ph.pending_loop.take().expect("checked above");
                    ph.loops.push((depth, lbl));
                }
            }
            '}' => {
                if ph.loops.last().is_some_and(|&(d, _)| d == depth) {
                    ph.loops.pop();
                }
                depth -= 1;
                if depth < ph.start_depth {
                    out.push((
                        line,
                        format!(
                            "scope ends before the exchange phase opened at line {} \
                             reached `finish()`",
                            ph.start_line
                        ),
                    ));
                    phase = None;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if let Some(ph) = phase {
        out.push((
            ph.start_line,
            "exchange phase is never completed with `finish()`".to_string(),
        ));
    }
    out
}

/// The collective entry points of the runtime's `RankCtx`/`Exchange`
/// surface, as method-call prefixes.
const COLLECTIVE_CALLS: [&str; 7] = [
    ".barrier(",
    ".allreduce_",
    ".allgather_",
    ".sim_sync(",
    ".sim_time_units(",
    ".exchange(",
    ".finish(",
];

/// R2 — no collective inside a rank-divergent conditional. The
/// conservative "branches on rank-local data" heuristic: any
/// `if`/`while`/`match` whose condition mentions the token `rank` (the
/// universal spelling of rank-local identity in this workspace) is
/// considered divergent, and its branch bodies — including the attached
/// `else`/`else if` chain — must not enter a collective: ranks taking
/// different arms would enter different collective sequences.
fn check_rank_divergent_collectives(stream: &[(char, usize)]) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut i = 0usize;
    while i < stream.len() {
        let kw = ["if", "while", "match"]
            .into_iter()
            .find(|kw| keyword_at(stream, i, kw));
        let Some(kw) = kw else {
            i += 1;
            continue;
        };
        let cond_line = stream[i].1;
        // Condition: everything up to the body `{` at bracket depth 0.
        let mut j = i + kw.len();
        let mut cond = String::new();
        let mut nest = 0i32;
        while let Some(&(c, _)) = stream.get(j) {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                '{' if nest == 0 => break,
                ';' if nest == 0 => break, // not a block construct after all
                _ => {}
            }
            cond.push(c);
            j += 1;
        }
        if stream.get(j).map(|&(c, _)| c) != Some('{') || !has_token(&cond, "rank") {
            i += kw.len();
            continue;
        }
        // Scan the branch body and any else/else-if chain.
        let mut region_end = block_end(stream, j);
        scan_region_for_collectives(stream, j, region_end, kw, cond_line, &mut out);
        loop {
            let k = skip_ws(stream, region_end);
            if !keyword_at(stream, k, "else") {
                break;
            }
            let mut b = skip_ws(stream, k + "else".len());
            if keyword_at(stream, b, "if") {
                // Skip the else-if condition up to its body brace.
                let mut nest = 0i32;
                while let Some(&(c, _)) = stream.get(b) {
                    match c {
                        '(' | '[' => nest += 1,
                        ')' | ']' => nest -= 1,
                        '{' if nest == 0 => break,
                        _ => {}
                    }
                    b += 1;
                }
            }
            if stream.get(b).map(|&(c, _)| c) != Some('{') {
                break;
            }
            region_end = block_end(stream, b);
            scan_region_for_collectives(stream, b, region_end, kw, cond_line, &mut out);
        }
        i += kw.len();
    }
    out.sort();
    out.dedup_by_key(|(line, _)| *line);
    out
}

/// Index one past the `}` matching the `{` at `open`.
pub(crate) fn block_end(stream: &[(char, usize)], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(&(c, _)) = stream.get(i) {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    stream.len()
}

fn scan_region_for_collectives(
    stream: &[(char, usize)],
    start: usize,
    end: usize,
    kw: &str,
    cond_line: usize,
    out: &mut Vec<(usize, String)>,
) {
    for i in start..end {
        for call in COLLECTIVE_CALLS {
            if matches_at(stream, i, call) {
                out.push((
                    stream[i].1,
                    format!(
                        "collective `{call}..)` inside a rank-divergent `{kw}` (condition \
                         on line {cond_line} reads `rank`): ranks taking different \
                         branches enter different collective sequences and deadlock \
                         or corrupt the protocol"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The pass.
// ---------------------------------------------------------------------------

/// Marker that lets seeded fixture files masquerade as workspace files:
/// `// lint-fixture-path: crates/core/src/example.rs` on the first line.
const FIXTURE_PATH_MARKER: &str = "lint-fixture-path:";

/// One scanned file: the input of both the per-file rules and the
/// cross-file R4/R5 pass.
struct ScannedFile {
    rel_path: String,
    lines: Vec<LineView>,
    class: FileClass,
    /// Test regions: any brace-delimited `#[cfg(test)]` item — the usual
    /// file-tail `mod tests`, but also mid-file test modules.
    test_mask: Vec<bool>,
    /// The effective path (fixture marker applied) and non-test code
    /// stream of a file in the R1/R2/R4/R5 scope.
    race_stream: Option<(String, Vec<(char, usize)>)>,
}

impl ScannedFile {
    fn new(rel_path: &str, src: &str) -> Self {
        let lines = scan_lines(src);
        // Fixture masquerading (see FIXTURE_PATH_MARKER docs).
        let effective_path: String = lines
            .first()
            .and_then(|l| {
                l.comment.find(FIXTURE_PATH_MARKER).map(|p| {
                    l.comment[p + FIXTURE_PATH_MARKER.len()..]
                        .trim()
                        .to_string()
                })
            })
            .unwrap_or_else(|| rel_path.replace('\\', "/"));
        let class = classify(&effective_path);
        let test_mask = test_region_mask(&lines);
        let race_stream = (class.race_scope && !class.test_context)
            .then(|| (effective_path, code_stream_masked(&lines, &test_mask)));
        Self {
            rel_path: rel_path.to_string(),
            lines,
            class,
            test_mask,
            race_stream,
        }
    }
}

/// Lint one file's source. `rel_path` is the workspace-relative path
/// used for rule applicability (fixtures may override it via the
/// `lint-fixture-path` marker).
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_files(&[ScannedFile::new(rel_path, src)])
}

/// Lints a set of files together: R4/R5 resolve a callee defined in
/// another file of the set by name, every other rule is per file.
fn lint_files(files: &[ScannedFile]) -> Vec<Finding> {
    let streams: Vec<(&str, &Stream)> = files
        .iter()
        .filter_map(|f| {
            f.race_stream
                .as_ref()
                .map(|(p, s)| (p.as_str(), s.as_slice()))
        })
        .collect();
    let mut protocol = crate::phasegraph::check_streams(&streams).into_iter();
    files
        .iter()
        .flat_map(|f| {
            let pf = match f.race_stream {
                Some(_) => protocol.next().unwrap_or_default(),
                None => Vec::new(),
            };
            lint_scanned(f, pf)
        })
        .collect()
}

/// Every rule over one scanned file, with its precomputed R4/R5
/// findings.
fn lint_scanned(file: &ScannedFile, protocol: Vec<ProtocolFinding>) -> Vec<Finding> {
    let ScannedFile {
        rel_path,
        lines,
        class,
        test_mask,
        ..
    } = file;
    let sup = collect_suppressions(lines);
    let mut findings = Vec::new();

    for (lineno, msg) in &sup.malformed {
        findings.push(Finding {
            path: rel_path.to_string(),
            line: *lineno,
            rule: Rule::Sup,
            message: msg.clone(),
        });
    }

    let push = |lineno: usize, rule: Rule, message: String, findings: &mut Vec<Finding>| {
        if !sup.covers(lineno, rule) {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: lineno,
                rule,
                message,
            });
        }
    };

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        let in_test_region = class.test_context || test_mask[idx];

        // U1 — applies everywhere, test code included: unsafe is unsafe.
        if has_token(code, "unsafe") {
            let has_safety = (idx.saturating_sub(3)..=idx)
                .any(|k| lines.get(k).is_some_and(|l| l.comment.contains("SAFETY:")));
            if !has_safety {
                push(
                    lineno,
                    Rule::U1,
                    "`unsafe` without a `// SAFETY:` comment on or above the block".to_string(),
                    &mut findings,
                );
            }
        }

        if in_test_region {
            continue;
        }

        // D1 — deterministic solver/metrics paths must not touch
        // randomized-hasher containers at all.
        if class.deterministic_path && (has_token(code, "HashMap") || has_token(code, "HashSet")) {
            push(
                lineno,
                Rule::D1,
                "HashMap/HashSet in a deterministic solver/metrics path: iteration order \
                 follows the randomized hasher; use BTreeMap/BTreeSet or a sorted drain"
                    .to_string(),
                &mut findings,
            );
        }

        // F1 — float equality with a literal operand.
        if !class.f1_exempt {
            let mut search = 0usize;
            loop {
                let eq = code[search..].find("==");
                let ne = code[search..].find("!=");
                let pos = match (eq, ne) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => break,
                };
                let abs = search + pos;
                // Skip `<=`, `>=`, `!=` handled, and `===`-like runs.
                let prev = code[..abs].chars().next_back().unwrap_or(' ');
                if prev != '<' && prev != '>' && float_literal_near(code, abs, 2) {
                    push(
                        lineno,
                        Rule::F1,
                        "float `==`/`!=` outside the epsilon helpers in dq.rs/modularity.rs: \
                         compare via an epsilon helper or justify exact equality"
                            .to_string(),
                        &mut findings,
                    );
                    break; // one finding per line is enough
                }
                search = abs + 2;
            }
        }

        // F2 — manual id pack/unpack.
        if !class.f2_exempt && (code.contains("<< 32") || code.contains(">> 32")) {
            push(
                lineno,
                Rule::F2,
                "manual 64-bit id pack/unpack: use louvain_hash::key::{pack_key, unpack_key} \
                 so narrowing stays in one audited place"
                    .to_string(),
                &mut findings,
            );
        }

        // P1 — panicking calls in library code of the no-panic crates.
        if class.p1_scope && (code.contains(".unwrap()") || code.contains(".expect(")) {
            push(
                lineno,
                Rule::P1,
                "unwrap()/expect() in library code: return a Result, handle the case, or \
                 suppress with a reason why the panic is unreachable/fatal-by-design"
                    .to_string(),
                &mut findings,
            );
        }

        // R3 — raw atomics outside the runtime. All cross-rank
        // synchronization must go through the runtime's checked
        // collective surface; a stray Relaxed/SeqCst atomic elsewhere is
        // a side channel the protocol checker cannot see.
        if !class.r3_exempt {
            const ATOMIC_ORDERINGS: [&str; 5] = [
                "Ordering::Relaxed",
                "Ordering::SeqCst",
                "Ordering::Acquire",
                "Ordering::Release",
                "Ordering::AcqRel",
            ];
            if let Some(ord) = ATOMIC_ORDERINGS.iter().find(|o| code.contains(*o)) {
                push(
                    lineno,
                    Rule::R3,
                    format!(
                        "`{ord}` atomic outside crates/runtime: cross-rank state must go \
                         through the runtime's collective surface (or suppress with a \
                         justification for why this atomic cannot race the protocol)"
                    ),
                    &mut findings,
                );
            }
        }

        // T1 — no wall-clock reads on traced solver/runtime paths.
        // `timing.rs` is the single sanctioned wrapper (`Stopwatch`);
        // anywhere else, a wall-clock value is one assignment away from
        // leaking into a deterministic output.
        if class.t1_scope && (code.contains("Instant::now") || code.contains("SystemTime::now")) {
            push(
                lineno,
                Rule::T1,
                "wall-clock read on a traced solver/runtime path: route it through \
                 `louvain_core::timing::Stopwatch` (timing.rs is the only sanctioned \
                 wall-clock module) so no wall-clock value can reach a trace or \
                 BENCH_*.json snapshot"
                    .to_string(),
                &mut findings,
            );
        }
    }

    // R1/R2/R4/R5 — cross-line collective-discipline passes over the
    // non-test code region.
    if let Some((_, stream)) = &file.race_stream {
        for (lineno, message) in check_exchange_discipline(stream) {
            push(lineno, Rule::R1, message, &mut findings);
        }
        for (lineno, message) in check_rank_divergent_collectives(stream) {
            push(lineno, Rule::R2, message, &mut findings);
        }
        for pf in protocol {
            push(pf.line, pf.rule, pf.message, &mut findings);
        }
        // M1/A1 — communication-cost classification, solver crate only.
        if class.cost_scope {
            for pf in crate::costgraph::check_stream_cost(stream) {
                push(pf.line, pf.rule, pf.message, &mut findings);
            }
        }
    }

    // C1 — crate-root doc invariants.
    if class.crate_root {
        let has_missing_docs = lines.iter().any(|l| {
            l.code.contains("#![warn(missing_docs)]") || l.code.contains("#![deny(missing_docs)]")
        });
        let has_paper_ref = lines.iter().any(|l| {
            let t = &l.comment;
            t.contains('§')
                || t.contains("Section I")
                || t.contains("Section V")
                || t.contains("Section II")
                || t.contains("Section III")
                || t.contains("Section IV")
                || t.contains("Algorithm ")
                || t.contains("Equation ")
                || t.contains("Figure ")
                || t.contains("Table ")
        });
        if !has_missing_docs {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: 1,
                rule: Rule::C1,
                message: "crate root must carry `#![warn(missing_docs)]`".to_string(),
            });
        }
        if !has_paper_ref {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: 1,
                rule: Rule::C1,
                message: "crate root docs must cross-reference the paper (a `§`, Section, \
                          Algorithm, Equation, Figure or Table citation)"
                    .to_string(),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

// ---------------------------------------------------------------------------
// Workspace walk.
// ---------------------------------------------------------------------------

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "results"];

pub(crate) fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort(); // deterministic report order, of course
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `root` (excluding `target/`, fixture
/// directories and dotdirs). Returns findings sorted by path and line.
///
/// # Errors
/// Propagates I/O failures from the directory walk or file reads.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(ScannedFile::new(&rel, &std::fs::read_to_string(&path)?));
    }
    let mut findings = lint_files(&files);
    findings.sort_by_key(|f| (f.path.clone(), f.line, f.rule));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_strips_comments_and_strings() {
        let src = "let x = \"HashMap // not code\"; // HashMap in comment\nlet y = 1;";
        let lines = scan_lines(src);
        assert_eq!(lines.len(), 2);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("HashMap in comment"));
        assert!(lines[1].code.contains("let y"));
    }

    #[test]
    fn scanner_handles_raw_strings_and_chars() {
        let src = "let s = r#\"uns\"afe\"#; let c = '\"'; let l: &'static str = \"x\";";
        let lines = scan_lines(src);
        assert!(!lines[0].code.contains("afe"));
        assert!(lines[0].code.contains("&'static str"));
    }

    #[test]
    fn float_literal_detection() {
        assert!(contains_float_literal("x == 0.0"));
        assert!(contains_float_literal("1e-9 "));
        assert!(contains_float_literal("2.5"));
        assert!(!contains_float_literal("e.0"));
        assert!(!contains_float_literal("tuple.1"));
        assert!(!contains_float_literal("x == y"));
        assert!(!contains_float_literal("0x32"));
        assert!(!contains_float_literal("1.max(2)"));
    }

    #[test]
    fn d1_fires_only_in_deterministic_paths() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source("crates/core/src/foo.rs", src)
            .iter()
            .any(|f| f.rule == Rule::D1));
        assert!(lint_source("crates/graph/src/foo.rs", src)
            .iter()
            .all(|f| f.rule != Rule::D1));
    }

    #[test]
    fn suppression_with_reason_silences_and_bare_one_fires_sup() {
        let with_reason =
            "use std::collections::HashMap; // lint: allow(D1) — drained through a sorted Vec below\n";
        let fs = lint_source("crates/core/src/foo.rs", with_reason);
        assert!(fs.is_empty(), "{fs:?}");

        let bare = "use std::collections::HashMap; // lint: allow(D1)\n";
        let fs = lint_source("crates/core/src/foo.rs", bare);
        assert!(fs.iter().any(|f| f.rule == Rule::Sup));
        assert!(
            fs.iter().any(|f| f.rule == Rule::D1),
            "bare allow must not suppress"
        );
    }

    #[test]
    fn suppression_on_previous_line_covers_next_line() {
        let src = "// lint: allow(P1) — config parse failure is fatal by design\nlet x = parse().unwrap();\n";
        let fs = lint_source("crates/core/src/foo.rs", src);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn test_tail_is_exempt_from_p1_but_not_u1() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); unsafe { z() } }\n}\n";
        let fs = lint_source("crates/core/src/foo.rs", src);
        assert!(fs.iter().all(|f| f.rule != Rule::P1));
        assert!(fs.iter().any(|f| f.rule == Rule::U1));
    }

    #[test]
    fn fixture_marker_overrides_path() {
        let src = "// lint-fixture-path: crates/core/src/fake.rs\nuse std::collections::HashSet;\n";
        let fs = lint_source("crates/xtask/tests/fixtures/d1.rs", src);
        assert!(fs.iter().any(|f| f.rule == Rule::D1));
    }

    #[test]
    fn c1_checks_crate_roots() {
        let good = "//! Crate docs citing Section IV.\n#![warn(missing_docs)]\n";
        assert!(lint_source("crates/core/src/lib.rs", good).is_empty());
        let bad = "//! No citation.\n";
        let fs = lint_source("crates/core/src/lib.rs", bad);
        assert_eq!(fs.iter().filter(|f| f.rule == Rule::C1).count(), 2);
        // Non-root files unaffected.
        assert!(lint_source("crates/core/src/other.rs", bad).is_empty());
    }

    #[test]
    fn r1_accepts_well_formed_phase_and_loop_local_breaks() {
        let src = "fn f(ctx: &mut C) {\n    let mut ex = ctx.exchange();\n    for x in xs {\n        if x == 0 { continue; }\n        if x == 9 { break; }\n        ex.send(0, x);\n    }\n    ex.finish(|_| {});\n}\n";
        let fs = lint_source("crates/core/src/foo.rs", src);
        assert!(fs.iter().all(|f| f.rule != Rule::R1), "{fs:?}");
    }

    #[test]
    fn r1_accepts_labeled_break_targeting_phase_interior_loop() {
        // `break 'outer` lands right after the labeled loop — still
        // before `finish()`, so the phase is not leaked.
        let src = "fn f(ctx: &mut C) {\n    let mut ex = ctx.exchange();\n    'outer: for x in xs {\n        for y in ys {\n            if y == 0 { break 'outer; }\n            ex.send(0, x);\n        }\n    }\n    ex.finish(|_| {});\n}\n";
        let fs = lint_source("crates/core/src/foo.rs", src);
        assert!(fs.iter().all(|f| f.rule != Rule::R1), "{fs:?}");
    }

    #[test]
    fn r1_fires_on_labeled_break_escaping_the_phase() {
        // Here the labeled loop encloses the `.exchange()` itself, so the
        // jump skips `finish()`.
        let src = "fn f(ctx: &mut C) {\n    'outer: for x in xs {\n        let mut ex = ctx.exchange();\n        for y in ys {\n            if y == 0 { break 'outer; }\n            ex.send(0, x);\n        }\n        ex.finish(|_| {});\n    }\n}\n";
        let fs = lint_source("crates/core/src/foo.rs", src);
        assert_eq!(
            fs.iter().filter(|f| f.rule == Rule::R1).count(),
            1,
            "{fs:?}"
        );
    }

    #[test]
    fn r1_fires_on_question_mark_and_return_inside_phase() {
        let src = "fn f(ctx: &mut C) -> Result<(), E> {\n    let mut ex = ctx.exchange();\n    let v = parse(s)?;\n    if v == 0 { return Ok(()); }\n    ex.send(0, v);\n    ex.finish(|_| {});\n    Ok(())\n}\n";
        let fs = lint_source("crates/core/src/foo.rs", src);
        assert_eq!(fs.iter().filter(|f| f.rule == Rule::R1).count(), 2);
    }

    #[test]
    fn r1_fires_on_scope_exit_without_finish() {
        let src = "fn f(ctx: &mut C) {\n    {\n        let mut ex = ctx.exchange();\n        ex.send(0, 1);\n    }\n}\n";
        let fs = lint_source("crates/core/src/foo.rs", src);
        assert!(fs.iter().any(|f| f.rule == Rule::R1));
    }

    #[test]
    fn r2_needs_both_rank_condition_and_collective() {
        // rank-divergent branch without a collective: clean.
        let clean =
            "fn f(ctx: &C, rank: usize) {\n    if rank == 0 { log(); }\n    ctx.barrier();\n}\n";
        assert!(lint_source("crates/core/src/foo.rs", clean)
            .iter()
            .all(|f| f.rule != Rule::R2));
        // collective in a rank-independent branch: clean.
        let clean2 = "fn f(ctx: &C, n: usize) {\n    if n > 0 { ctx.barrier(); }\n}\n";
        assert!(lint_source("crates/core/src/foo.rs", clean2)
            .iter()
            .all(|f| f.rule != Rule::R2));
        // collective in the else-branch of a rank conditional: fires.
        let bad = "fn f(ctx: &C, rank: usize) {\n    if rank == 0 { log(); } else { ctx.barrier(); }\n}\n";
        assert!(lint_source("crates/core/src/foo.rs", bad)
            .iter()
            .any(|f| f.rule == Rule::R2));
    }

    #[test]
    fn r3_exempts_runtime_and_cmp_ordering() {
        let atomic = "let x = c.fetch_add(1, Ordering::Relaxed);\n";
        assert!(lint_source("crates/core/src/foo.rs", atomic)
            .iter()
            .any(|f| f.rule == Rule::R3));
        assert!(lint_source("crates/runtime/src/foo.rs", atomic)
            .iter()
            .all(|f| f.rule != Rule::R3));
        // `std::cmp::Ordering` never matches.
        let cmp = "match a.cmp(&b) { std::cmp::Ordering::Less => {} _ => {} }\n";
        assert!(lint_source("crates/core/src/foo.rs", cmp).is_empty());
    }

    #[test]
    fn t1_bans_wall_clock_outside_timing_module() {
        let src = "let t0 = std::time::Instant::now();\n";
        assert!(lint_source("crates/core/src/parallel.rs", src)
            .iter()
            .any(|f| f.rule == Rule::T1));
        assert!(lint_source("crates/runtime/src/sim.rs", src)
            .iter()
            .any(|f| f.rule == Rule::T1));
        assert!(lint_source("crates/trace/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == Rule::T1));
        // The sanctioned wall-clock module is exempt.
        assert!(lint_source("crates/core/src/timing.rs", src)
            .iter()
            .all(|f| f.rule != Rule::T1));
        // Out-of-scope crates (bench drives the harness on wall time).
        assert!(lint_source("crates/bench/src/report.rs", src)
            .iter()
            .all(|f| f.rule != Rule::T1));
        // SystemTime is just as banned.
        let st = "let now = std::time::SystemTime::now();\n";
        assert!(lint_source("crates/core/src/seq.rs", st)
            .iter()
            .any(|f| f.rule == Rule::T1));
    }

    #[test]
    fn t1_exempts_test_tail() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(lint_source("crates/core/src/parallel.rs", src)
            .iter()
            .all(|f| f.rule != Rule::T1));
    }

    #[test]
    fn json_report_shape() {
        let f = Finding {
            path: "a.rs".into(),
            line: 3,
            rule: Rule::F1,
            message: "msg with \"quote\"".into(),
        };
        let json = to_json_report(&[f]);
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"F1\":1"));
        assert!(json.contains("\\\"quote\\\""));
    }
}
