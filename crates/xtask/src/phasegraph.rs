//! Interprocedural phase-graph analysis: the static collective-protocol
//! verifier behind rules `R4`/`R5` and the `xtask protocol` subcommand.
//!
//! The distributed solver is a lockstep BSP computation: every rank must
//! execute the *identical* sequence of collectives (exchange/finish, the
//! allreduce family, shutdown) or the run deadlocks or silently corrupts
//! state — the dominant hazard reported for parallel Louvain (Section
//! IV-C of the paper; the same class PR 2's dynamic shadow checker
//! catches at run time). This module proves the communication skeleton
//! at analysis time:
//!
//! 1. a brace/scope-aware pass over the stripped token stream extracts,
//!    per function, the ordered collective-operation sequence as a
//!    protocol summary with sequence/branch/loop structure, walking
//!    conditions, scrutinees and loop headers in evaluation order. This
//!    tree is the crate's only syntax pass: its call nodes keep their
//!    argument spans and its `for` loops their iterator span, so the
//!    cost analysis (`costgraph`) classifies the same trees;
//! 2. a workspace call graph composes summaries interprocedurally from
//!    the solver entry point (`rank_main` in `crates/core/src/parallel.rs`)
//!    down through `crates/runtime`, resolving calls with `lookup`,
//!    which the cost analysis shares;
//! 3. four lint rules read the same trees: **R1** (every `exchange()`
//!    reaches `finish()` on every path), **R2** (no collective under a
//!    condition that mentions `rank`), and two that follow calls:
//!    * **R4** — a conditional whose condition depends on rank-local
//!      data must have equal protocol effect on every arm (including
//!      early exits: a divergent `return`/`break` that skips later
//!      collectives on some ranks only);
//!    * **R5** — no collective inside a loop whose trip count is not
//!      derived from a replicated/allreduced value.
//!
//! The canonicalized entry-point protocol is emitted as the
//! schema-versioned lockfile `results/protocol_spec.json`
//! (`xtask protocol`, with `--check` diffing against the committed
//! spec), and [`Nfa`] turns the spec into an acceptor so the runtime's
//! recorded collective sequences can be conformance-checked end to end.
//!
//! Like the lint engine, everything here is std-only and token-based:
//! no `syn`, no type information. The taint analysis is therefore a
//! documented heuristic: the token `rank`, the `.rank()` accessor, and
//! anything assigned from them are rank-local; *call results* are
//! treated as replicated (collectives return replicated values by
//! construction, and the false-positive cost of the opposite default
//! would be prohibitive).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lint::{
    block_end, code_stream_masked, is_ident_char, keyword_at, matches_at, scan_lines, skip_ws,
    test_region_mask, walk, Rule,
};

/// Schema version of `results/protocol_spec.json`. Bump when the node
/// grammar or the JSON layout changes.
pub const PROTOCOL_SPEC_SCHEMA_VERSION: u32 = 1;

/// File holding the solver entry point whose protocol becomes the spec.
pub const PROTOCOL_ENTRY_FILE: &str = "crates/core/src/parallel.rs";

/// Name of the entry-point function (the per-rank driver, Algorithm 2).
pub const PROTOCOL_ENTRY_FN: &str = "rank_main";

/// Directories scanned when composing the workspace-level spec. Fixed
/// order keeps the extraction byte-stable.
const SPEC_DIRS: [&str; 6] = [
    "crates/core/src",
    "crates/runtime/src",
    "crates/graph/src",
    "crates/hashtable/src",
    "crates/metrics/src",
    "crates/trace/src",
];

/// The communication surface of the runtime's `RankCtx`/`Exchange` API:
/// method name → the `CollectiveKind` sequence its call records (each
/// kind is one `enter_collective`, confirmed against the runtime
/// source). `exchange` opens a phase and the point-to-point sends fill
/// it, recording nothing; `finish` records the `Exchange` plus the
/// closing `SimSync`.
const BUILTIN_EFFECTS: [(&str, &[&str]); 11] = [
    ("barrier", &["Barrier"]),
    ("allreduce_sum", &["ReduceF64", "SimSync"]),
    ("allreduce_max", &["ReduceF64", "SimSync"]),
    ("allreduce_sum_u64", &["ReduceU64", "SimSync"]),
    ("allreduce_sum_vec", &["AllreduceSumVec", "SimSync"]),
    ("allgather_f64", &["AllgatherF64", "SimSync"]),
    ("sim_sync", &["SimSync"]),
    ("sim_time_units", &["SimSync"]),
    ("finish", &["Exchange", "SimSync"]),
    ("exchange", &[]),
    ("send", &[]),
];

/// Rust keywords the identifier passes must not mistake for variables.
const KEYWORDS: [&str; 29] = [
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "true", "while",
];

pub(crate) fn is_keyword(w: &str) -> bool {
    KEYWORDS.contains(&w)
        || w == "self"
        || w == "Self"
        || w == "super"
        || w == "use"
        || w == "where"
}

// ---------------------------------------------------------------------------
// The canonical protocol grammar.
// ---------------------------------------------------------------------------

/// One node of a canonicalized protocol summary. Fields are public so
/// tests can build seeded mutations of the spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecNode {
    /// One collective operation (a `CollectiveKind` name such as
    /// `"ReduceF64"`), exactly as the runtime's shadow state records it.
    Op(String),
    /// A call to a solver-crate function with protocol effect, kept as a
    /// named group so the spec stays readable and diffable.
    Call {
        /// Callee name as it appears at the call site.
        name: String,
        /// The callee's canonicalized protocol summary.
        body: Vec<SpecNode>,
    },
    /// A conditional with per-arm protocol summaries (an implicit empty
    /// arm represents a missing `else`). Only kept when the arms differ.
    Branch(Vec<Vec<SpecNode>>),
    /// A loop body executed zero or more times. Only kept when the body
    /// has protocol effect.
    Loop(Vec<SpecNode>),
    /// `break` out of the innermost enclosing loop.
    Break,
    /// `continue` with the innermost enclosing loop.
    Continue,
    /// Early exit from the enclosing function (`return` or `?`).
    Return,
}

/// The extracted workspace protocol: the entry point's canonicalized
/// collective skeleton, serialized as the spec lockfile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// `file::function` the protocol was composed from.
    pub entry: String,
    /// Canonicalized protocol nodes, ending in the runtime's implicit
    /// `Shutdown` collective.
    pub protocol: Vec<SpecNode>,
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push(' ');
    }
}

fn write_node(out: &mut String, node: &SpecNode, indent: usize) {
    match node {
        SpecNode::Op(kind) => {
            out.push('"');
            out.push_str(kind);
            out.push('"');
        }
        SpecNode::Break => out.push_str("\"!break\""),
        SpecNode::Continue => out.push_str("\"!continue\""),
        SpecNode::Return => out.push_str("\"!return\""),
        SpecNode::Call { name, body } => {
            out.push_str("{\"call\": \"");
            out.push_str(name);
            out.push_str("\", \"body\": ");
            write_nodes(out, body, indent);
            out.push('}');
        }
        SpecNode::Branch(arms) => {
            out.push_str("{\"branch\": [\n");
            for (i, arm) in arms.iter().enumerate() {
                pad(out, indent + 2);
                write_nodes(out, arm, indent + 2);
                if i + 1 < arms.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(out, indent);
            out.push_str("]}");
        }
        SpecNode::Loop(body) => {
            out.push_str("{\"loop\": ");
            write_nodes(out, body, indent);
            out.push('}');
        }
    }
}

fn write_nodes(out: &mut String, nodes: &[SpecNode], indent: usize) {
    if nodes.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push_str("[\n");
    for (i, node) in nodes.iter().enumerate() {
        pad(out, indent + 2);
        write_node(out, node, indent + 2);
        if i + 1 < nodes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    pad(out, indent);
    out.push(']');
}

impl ProtocolSpec {
    /// Serialize as the pretty-printed, byte-stable spec lockfile
    /// (std-only writer; 2-space indent, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {PROTOCOL_SPEC_SCHEMA_VERSION},\n"
        ));
        out.push_str(&format!("  \"entry\": \"{}\",\n", self.entry));
        out.push_str("  \"protocol\": ");
        write_nodes(&mut out, &self.protocol, 2);
        out.push_str("\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// NFA acceptor: turns the spec into a checker for observed sequences.
// ---------------------------------------------------------------------------

/// A Thompson-construction NFA over collective-kind names, built from a
/// [`ProtocolSpec`]. The dynamic conformance tests feed the runtime's
/// recorded per-rank sequences through [`Nfa::accepts`].
pub struct Nfa {
    /// ε-transitions per state.
    eps: Vec<Vec<usize>>,
    /// Labeled transitions per state: `(kind name, target)`.
    edges: Vec<Vec<(String, usize)>>,
    start: usize,
    accept: usize,
}

impl Nfa {
    fn new_state(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.edges.push(Vec::new());
        self.eps.len() - 1
    }

    /// Compile `nodes` starting at `from`; returns the end state.
    /// `ret` is where `Return` jumps (function/call exit); `loops` holds
    /// `(entry, exit)` states of enclosing loops for `Continue`/`Break`.
    fn compile(
        &mut self,
        nodes: &[SpecNode],
        mut from: usize,
        ret: usize,
        loops: &mut Vec<(usize, usize)>,
    ) -> usize {
        for node in nodes {
            match node {
                SpecNode::Op(kind) => {
                    let next = self.new_state();
                    self.edges[from].push((kind.clone(), next));
                    from = next;
                }
                SpecNode::Call { body, .. } => {
                    // A call's `Return` exits the callee, not the caller,
                    // and its loop context starts empty.
                    let join = self.new_state();
                    let end = self.compile(body, from, join, &mut Vec::new());
                    self.eps[end].push(join);
                    from = join;
                }
                SpecNode::Branch(arms) => {
                    let join = self.new_state();
                    for arm in arms {
                        let end = self.compile(arm, from, ret, loops);
                        self.eps[end].push(join);
                    }
                    from = join;
                }
                SpecNode::Loop(body) => {
                    let entry = self.new_state();
                    let exit = self.new_state();
                    self.eps[from].push(entry);
                    self.eps[entry].push(exit); // zero iterations
                    loops.push((entry, exit));
                    let end = self.compile(body, entry, ret, loops);
                    loops.pop();
                    self.eps[end].push(entry); // next iteration
                    from = exit;
                }
                SpecNode::Break => {
                    if let Some(&(_, exit)) = loops.last() {
                        self.eps[from].push(exit);
                    }
                    from = self.new_state(); // dead: nothing follows
                }
                SpecNode::Continue => {
                    if let Some(&(entry, _)) = loops.last() {
                        self.eps[from].push(entry);
                    }
                    from = self.new_state();
                }
                SpecNode::Return => {
                    self.eps[from].push(ret);
                    from = self.new_state();
                }
            }
        }
        from
    }

    /// Build the acceptor for a spec. The trailing `Shutdown` op is the
    /// function-exit collective: `Return` paths join right before it, so
    /// an early return still shuts down exactly once.
    #[must_use]
    pub fn from_spec(spec: &ProtocolSpec) -> Nfa {
        let mut nfa = Nfa {
            eps: Vec::new(),
            edges: Vec::new(),
            start: 0,
            accept: 0,
        };
        let start = nfa.new_state();
        nfa.start = start;
        let fn_exit = nfa.new_state();
        let body = match spec.protocol.last() {
            Some(SpecNode::Op(k)) if k == "Shutdown" => &spec.protocol[..spec.protocol.len() - 1],
            _ => &spec.protocol[..],
        };
        let end = nfa.compile(body, start, fn_exit, &mut Vec::new());
        nfa.eps[end].push(fn_exit);
        let accept = nfa.new_state();
        nfa.edges[fn_exit].push(("Shutdown".to_string(), accept));
        nfa.accept = accept;
        nfa
    }

    fn closure(&self, states: &mut BTreeSet<usize>) {
        let mut stack: Vec<usize> = states.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s] {
                if states.insert(t) {
                    stack.push(t);
                }
            }
        }
    }

    /// Does the NFA accept the observed sequence of collective-kind
    /// names (e.g. the runtime's recorded per-rank log, stringified)?
    pub fn accepts<S: AsRef<str>>(&self, seq: &[S]) -> bool {
        let mut states = BTreeSet::from([self.start]);
        self.closure(&mut states);
        for sym in seq {
            let sym = sym.as_ref();
            let mut next = BTreeSet::new();
            for &s in &states {
                for (label, target) in &self.edges[s] {
                    if label == sym {
                        next.insert(*target);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            self.closure(&mut next);
            states = next;
        }
        states.contains(&self.accept)
    }
}

// ---------------------------------------------------------------------------
// Token-stream parsing: functions, assignments, taint, and the walker
// that turns a function body into a protocol-summary tree.
// ---------------------------------------------------------------------------

pub(crate) type Stream = [(char, usize)];

/// A `[start, end)` range of stream indices.
pub(crate) type Span = (usize, usize);

/// Internal (pre-canonicalization) summary node: one tree per function
/// body, read by both verifiers. The protocol canonicalizes it; the cost
/// analysis (`costgraph`) classifies its `Api` sites, calls and loops
/// from the spans they keep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PNode {
    /// A collective op (kind name) recorded at this line.
    Op(String, usize),
    /// A method call into the runtime's communication API (a
    /// [`BUILTIN_EFFECTS`] name) with its argument span and the nodes of
    /// its arguments. The `Op`s it records follow it.
    Api {
        name: String,
        line: usize,
        args: Span,
        inner: Vec<PNode>,
    },
    /// An unresolved call site with its argument span and the nodes of
    /// its arguments, which evaluate before the callee runs.
    Call {
        name: String,
        method: bool,
        line: usize,
        args: Span,
        inner: Vec<PNode>,
    },
    /// A conditional; `tainted` = some condition reads rank-local data;
    /// `guarded` = the arm bodies that a condition mentioning `rank`
    /// guards (an `else if` guards the arms after it).
    Branch {
        arms: Vec<Vec<PNode>>,
        tainted: bool,
        line: usize,
        guarded: Vec<Span>,
    },
    /// A loop; `tainted` = header reads rank-local data; `iter` = the
    /// `for` iterator span (`None` for `while` and `loop`); `guarded` =
    /// the body of a `while` whose condition mentions `rank`.
    Loop {
        body: Vec<PNode>,
        tainted: bool,
        line: usize,
        iter: Option<Span>,
        label: Option<String>,
        guarded: Option<Span>,
    },
    /// `break`/`continue` with its optional `'label` and its line.
    Break(Option<String>, usize),
    Continue(Option<String>, usize),
    /// `return` or the error branch of `?`, at its line.
    Return(usize),
}

impl PNode {
    /// The node lists nested in this node: call arguments, arms, a body.
    pub(crate) fn children(&self) -> &[Vec<PNode>] {
        match self {
            PNode::Api { inner, .. } | PNode::Call { inner, .. } => std::slice::from_ref(inner),
            PNode::Loop { body, .. } => std::slice::from_ref(body),
            PNode::Branch { arms, .. } => arms,
            _ => &[],
        }
    }
}

/// One function found in a file's stream.
#[derive(Clone, Debug)]
pub(crate) struct FnDef {
    pub(crate) name: String,
    pub(crate) line: usize,
    pub(crate) has_self: bool,
    /// The names each argument position binds (see [`params_of`]).
    pub(crate) params: Vec<Vec<String>>,
    pub(crate) body_open: usize,
    pub(crate) body_end: usize,
}

/// Read the identifier starting at `i`; empty if none.
pub(crate) fn read_word(stream: &Stream, i: usize) -> String {
    let mut w = String::new();
    let mut j = i;
    while let Some(&(c, _)) = stream.get(j) {
        if is_ident_char(c) {
            w.push(c);
            j += 1;
        } else {
            break;
        }
    }
    w
}

/// Index one past the `)`/`]` matching the opener at `open`.
pub(crate) fn match_paren(stream: &Stream, open: usize) -> usize {
    let (open_c, _) = stream[open];
    let close_c = match open_c {
        '(' => ')',
        '[' => ']',
        '{' => '}',
        _ => return open + 1,
    };
    let mut depth = 0i32;
    let mut i = open;
    while let Some(&(c, _)) = stream.get(i) {
        if c == open_c {
            depth += 1;
        } else if c == close_c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    stream.len()
}

/// Is the character at `i` preceded by an identifier character (so a
/// keyword/identifier match at `i` would really be a suffix)?
pub(crate) fn prev_is_ident(stream: &Stream, i: usize) -> bool {
    i > 0 && is_ident_char(stream[i - 1].0)
}

/// The names the parameter list `stream[s..e)` binds, one `Vec` per
/// argument position (a tuple pattern binds several names to one
/// position), and whether it has a `self` receiver, which takes no
/// position so positions align with method-call arguments.
fn params_of(stream: &Stream, s: usize, e: usize) -> (Vec<Vec<String>>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut depth = 0i32;
    // The current parameter starts at `start`; its pattern ends at its
    // top-level `:` (not `::`).
    let (mut start, mut colon) = (s, None);
    for i in s..=e {
        let c = if i < e { stream[i].0 } else { ',' };
        let path_sep = c == ':' && (stream[i - 1].0 == ':' || stream[i + 1].0 == ':');
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' => depth -= 1,
            '>' if stream[i - 1].0 != '-' && stream[i - 1].0 != '=' => depth -= 1,
            ':' if depth == 0 && colon.is_none() && !path_sep => colon = Some(i),
            ',' if depth == 0 => {
                let end = colon.unwrap_or(i);
                if (start..end).any(|k| keyword_at(stream, k, "self")) {
                    has_self = true;
                } else {
                    let names = idents_in(stream, start, end);
                    if colon.is_some() || !names.is_empty() {
                        params.push(names);
                    }
                }
                (start, colon) = (i + 1, None);
            }
            _ => {}
        }
    }
    (params, has_self)
}

/// Extract every `fn` definition (including nested ones) from a stream.
pub(crate) fn extract_fns(stream: &Stream) -> Vec<FnDef> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < stream.len() {
        if !keyword_at(stream, i, "fn") {
            i += 1;
            continue;
        }
        let kw_at = i;
        let mut j = skip_ws(stream, i + 2);
        let name = read_word(stream, j);
        if name.is_empty() {
            // `fn(..)` pointer type, not a definition.
            i = j.max(kw_at + 2);
            continue;
        }
        j += name.len();
        j = skip_ws(stream, j);
        // Skip generic parameters, guarding `->`/`=>` arrows.
        if stream.get(j).map(|&(c, _)| c) == Some('<') {
            let mut depth = 0i32;
            while let Some(&(c, _)) = stream.get(j) {
                if c == '<' {
                    depth += 1;
                } else if c == '>' {
                    let prev = stream[j - 1].0;
                    if prev != '-' && prev != '=' {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                }
                j += 1;
            }
            j = skip_ws(stream, j);
        }
        if stream.get(j).map(|&(c, _)| c) != Some('(') {
            i = j;
            continue;
        }
        let params_end = match_paren(stream, j);
        let (params, has_self) = params_of(stream, j + 1, params_end.saturating_sub(1));
        // Find the body `{` (or `;` for a trait/extern declaration). The
        // `;` of an array type in the signature (`-> [f64; 2]`) ends
        // nothing.
        let mut k = params_end;
        let mut body_open = None;
        let mut brackets = 0i32;
        while let Some(&(c, _)) = stream.get(k) {
            match c {
                '{' => {
                    body_open = Some(k);
                    break;
                }
                '[' => brackets += 1,
                ']' => brackets -= 1,
                ';' if brackets == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(open) = body_open {
            fns.push(FnDef {
                name,
                line: stream[kw_at].1,
                has_self,
                params,
                body_open: open,
                body_end: block_end(stream, open),
            });
        }
        // Continue from the params so nested `fn`s are also extracted.
        i = params_end;
    }
    fns
}

/// One `lhs <- rhs` taint-propagation site inside a function body.
pub(crate) struct Assign {
    pub(crate) lhs: Vec<String>,
    pub(crate) rhs: (usize, usize),
}

/// Identifiers in `stream[s..e]` (skipping keywords, `_` and numbers).
pub(crate) fn idents_in(stream: &Stream, s: usize, e: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = s;
    while i < e {
        let c = stream[i].0;
        if is_ident_char(c) && !prev_is_ident(stream, i) {
            let w = read_word(stream, i);
            let len = w.len();
            if !w.is_empty()
                && !is_keyword(&w)
                && w != "_"
                && !w.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                out.push(w);
            }
            i += len;
        } else {
            i += 1;
        }
    }
    out
}

/// End index of the expression starting at `s`: the first `;` (or the
/// keyword `else`, for `let … else`) at nesting depth 0, capped at `e`.
fn expr_end(stream: &Stream, s: usize, e: usize) -> usize {
    let mut nest = 0i32;
    let mut i = s;
    while i < e {
        let c = stream[i].0;
        match c {
            '(' | '[' | '{' => nest += 1,
            ')' | ']' | '}' => nest -= 1,
            ';' if nest == 0 => return i,
            _ => {}
        }
        if nest == 0 && keyword_at(stream, i, "else") {
            return i;
        }
        i += 1;
    }
    e
}

/// Index of the `in` of the `for` loop whose keyword is at `i`: the
/// first `in` at nesting depth 0 before the body `{`, capped at `e`.
fn for_in(stream: &Stream, i: usize, e: usize) -> Option<usize> {
    let mut nest = 0i32;
    for j in i + 3..e {
        match stream[j].0 {
            '(' | '[' => nest += 1,
            ')' | ']' => nest -= 1,
            '{' if nest == 0 => return None,
            _ => {}
        }
        if nest == 0 && keyword_at(stream, j, "in") {
            return Some(j);
        }
    }
    None
}

/// Collect taint-propagation sites (`let`, `for` patterns, and plain or
/// compound assignments) in `stream[s..e]`.
pub(crate) fn collect_assignments(stream: &Stream, s: usize, e: usize) -> Vec<Assign> {
    let mut out = Vec::new();
    let mut i = s;
    while i < e {
        if keyword_at(stream, i, "let") {
            let pat_start = i + 3;
            // Pattern ends at the first `=` (not `==`) or `:` (not `::`)
            // at nesting depth 0; a `;` means no initializer.
            let mut nest = 0i32;
            let mut j = pat_start;
            let mut pat_end = None;
            let mut init = None;
            while j < e {
                let c = stream[j].0;
                match c {
                    '(' | '[' | '<' => nest += 1,
                    ')' | ']' => nest -= 1,
                    '>' if nest > 0 && stream[j - 1].0 != '-' && stream[j - 1].0 != '=' => {
                        nest -= 1;
                    }
                    ':' if nest == 0 => {
                        if stream.get(j + 1).map(|&(c, _)| c) == Some(':') {
                            j += 2;
                            continue;
                        }
                        if pat_end.is_none() {
                            pat_end = Some(j);
                        }
                    }
                    '=' if nest == 0 => {
                        let next = stream.get(j + 1).map(|&(c, _)| c);
                        if next != Some('=') {
                            if pat_end.is_none() {
                                pat_end = Some(j);
                            }
                            init = Some(j + 1);
                            break;
                        }
                        j += 2;
                        continue;
                    }
                    ';' if nest == 0 => break,
                    '{' if nest == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let (Some(pe), Some(rhs_start)) = (pat_end, init) {
                let rhs_end = expr_end(stream, rhs_start, e);
                out.push(Assign {
                    lhs: idents_in(stream, pat_start, pe),
                    rhs: (rhs_start, rhs_end),
                });
                i = rhs_end;
                continue;
            }
            i = j.max(i + 3);
            continue;
        }
        if keyword_at(stream, i, "for") {
            // `for <pat> in <header> {`
            if let Some(in_at) = for_in(stream, i, e) {
                out.push(Assign {
                    lhs: idents_in(stream, i + 3, in_at),
                    rhs: (in_at + 2, find_body_open(stream, in_at + 2, e).unwrap_or(e)),
                });
                i = in_at + 2;
                continue;
            }
            i += 3;
            continue;
        }
        // Plain / compound assignment: `ident =`, `ident +=`, …
        let c = stream[i].0;
        if is_ident_char(c) && !prev_is_ident(stream, i) && (i == 0 || stream[i - 1].0 != '.') {
            let w = read_word(stream, i);
            if !w.is_empty() && !is_keyword(&w) {
                let mut j = skip_ws(stream, i + w.len());
                let op0 = stream.get(j).map(|&(c, _)| c);
                let mut is_assign = false;
                match op0 {
                    Some('=') => {
                        let next = stream.get(j + 1).map(|&(c, _)| c);
                        if next != Some('=') && next != Some('>') {
                            is_assign = true;
                            j += 1;
                        }
                    }
                    Some('+') | Some('-') | Some('*') | Some('/') | Some('%') | Some('&')
                    | Some('|') | Some('^')
                        if stream.get(j + 1).map(|&(c, _)| c) == Some('=')
                            && stream.get(j + 2).map(|&(c, _)| c) != Some('=') =>
                    {
                        is_assign = true;
                        j += 2;
                    }
                    _ => {}
                }
                if is_assign {
                    let rhs_end = expr_end(stream, j, e);
                    out.push(Assign {
                        lhs: vec![w.clone()],
                        rhs: (j, rhs_end),
                    });
                    i = rhs_end;
                    continue;
                }
            }
            i += w.len().max(1);
            continue;
        }
        i += 1;
    }
    out
}

/// Is the expression `stream[s..e]` rank-local under the heuristic?
///
/// Tainted: the token `rank`, the `.rank` accessor/field, and any
/// identifier in `tainted`. *Untainted by fiat*: expressions containing
/// a block/struct literal, and call results (a call expression is
/// skipped entirely — collectives return replicated values, and general
/// calls default to replicated to keep false positives near zero; the
/// blind spot is documented in DESIGN.md §11).
pub(crate) fn expr_tainted(
    stream: &Stream,
    s: usize,
    e: usize,
    tainted: &BTreeSet<String>,
) -> bool {
    if stream[s..e.min(stream.len())]
        .iter()
        .any(|&(c, _)| c == '{')
    {
        return false;
    }
    let mut i = s;
    while i < e {
        let c = stream[i].0;
        if c == '.' {
            if stream.get(i + 1).map(|&(c, _)| c) == Some('.') {
                // Range syntax `..`: what follows is an operand, not a
                // field name — leave it to the identifier scan.
                i += 2;
                continue;
            }
            let w = read_word(stream, i + 1);
            if w == "rank" {
                return true;
            }
            let after = i + 1 + w.len();
            if stream.get(after).map(|&(c, _)| c) == Some('(') {
                // Method call: result treated as replicated.
                i = match_paren(stream, after);
            } else {
                i += 1 + w.len();
            }
            continue;
        }
        if is_ident_char(c) && !prev_is_ident(stream, i) {
            let w = read_word(stream, i);
            let after = i + w.len();
            if matches_at(stream, after, "::") {
                i = after + 2;
                continue;
            }
            if stream.get(after).map(|&(c, _)| c) == Some('(') {
                // Free-call result: replicated by fiat.
                i = match_paren(stream, after);
                continue;
            }
            if w == "rank" || tainted.contains(&w) {
                return true;
            }
            i = after;
            continue;
        }
        i += 1;
    }
    false
}

/// Fixed-point taint set for one function body: seeds from `rank`
/// spellings inside right-hand sides, propagates through assignments.
pub(crate) fn taint_set(stream: &Stream, s: usize, e: usize) -> BTreeSet<String> {
    let assigns = collect_assignments(stream, s, e);
    let mut tainted = BTreeSet::new();
    for _ in 0..16 {
        let mut changed = false;
        for a in &assigns {
            if expr_tainted(stream, a.rhs.0, a.rhs.1, &tainted) {
                for l in &a.lhs {
                    changed |= tainted.insert(l.clone());
                }
            }
        }
        if !changed {
            break;
        }
    }
    tainted
}

/// Pull the `CollectiveKind::Xxx` argument out of an
/// `enter_collective(..)` call (runtime internals only); `None` when the
/// kind is a variable.
fn parse_collective_kind(stream: &Stream, open: usize, end: usize) -> Option<String> {
    let mut i = open;
    while i + 1 < end {
        if matches_at(stream, i, "CollectiveKind")
            && matches_at(stream, i + "CollectiveKind".len(), "::")
        {
            let w = read_word(stream, i + "CollectiveKind".len() + 2);
            if !w.is_empty() {
                return Some(w);
            }
        }
        i += 1;
    }
    None
}

/// End of a `return`/`break` value expression: first `;`/`,` at nesting
/// depth 0 or an unbalanced closer (match-arm boundary), capped at `e`.
fn ret_expr_end(stream: &Stream, s: usize, e: usize) -> usize {
    let mut nest = 0i32;
    let mut i = s;
    while i < e {
        let c = stream[i].0;
        match c {
            '(' | '[' | '{' => nest += 1,
            ')' | ']' | '}' => {
                if nest == 0 {
                    return i;
                }
                nest -= 1;
            }
            ';' | ',' if nest == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    e
}

/// Scan from `s` to the body `{` at nesting depth 0 (for `if`/`while`/
/// `for`-header/`match`-scrutinee positions). `None` if a `;` intervenes.
pub(crate) fn find_body_open(stream: &Stream, s: usize, e: usize) -> Option<usize> {
    let mut nest = 0i32;
    let mut i = s;
    while i < e {
        let c = stream[i].0;
        match c {
            '(' | '[' => nest += 1,
            ')' | ']' => nest -= 1,
            '{' if nest == 0 => return Some(i),
            ';' if nest == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Does `stream[s..e)` mention the token `rank`? R2's trigger: unlike
/// taint, it sees `rank` passed to a call, but no assignments.
fn mentions_rank(stream: &Stream, s: usize, e: usize) -> bool {
    (s..e).any(|i| keyword_at(stream, i, "rank"))
}

/// The `'label:` right before the loop keyword at `i`, if any.
fn loop_label(stream: &Stream, i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 && stream[j - 1].0.is_whitespace() {
        j -= 1;
    }
    let colon = j.checked_sub(1).filter(|&k| stream[k].0 == ':')?;
    let mut k = colon;
    while k > 0 && is_ident_char(stream[k - 1].0) {
        k -= 1;
    }
    (k < colon && k > 0 && stream[k - 1].0 == '\'').then(|| read_word(stream, k))
}

/// The `'label` a `break`/`continue` ending at `i` names, if any.
fn jump_label(stream: &Stream, i: usize) -> Option<String> {
    let j = skip_ws(stream, i);
    let w = read_word(stream, j + 1);
    (stream.get(j).map(|&(c, _)| c) == Some('\'') && !w.is_empty()).then_some(w)
}

/// Parse an `if`/`else if`/`else` chain starting at the `if` keyword
/// into `out`, in evaluation order: the first condition, then one branch
/// whose later arms start with the `else if` conditions tested to reach
/// them. Returns the index one past the chain.
fn parse_if(
    stream: &Stream,
    start: usize,
    e: usize,
    tainted: &BTreeSet<String>,
    out: &mut Vec<PNode>,
) -> usize {
    let line = stream[start].1;
    let mut arms: Vec<Vec<PNode>> = Vec::new();
    let (mut any_tainted, mut guarding) = (false, false);
    let mut guarded = Vec::new();
    // Conditions evaluated on the way to the current arm.
    let mut conds: Vec<PNode> = Vec::new();
    let mut cur = start;
    let end = loop {
        let cond_start = cur + 2;
        let Some(body_open) = find_body_open(stream, cond_start, e) else {
            return cond_start;
        };
        any_tainted |= expr_tainted(stream, cond_start, body_open, tainted);
        guarding |= mentions_rank(stream, cond_start, body_open);
        conds.extend(walk_range(stream, cond_start, body_open, tainted));
        if arms.is_empty() {
            out.append(&mut conds);
        }
        let close = block_end(stream, body_open);
        let mut arm = conds.clone();
        arm.extend(walk_range(stream, body_open + 1, close - 1, tainted));
        arms.push(arm);
        guarded.extend(guarding.then_some((body_open, close)));
        let k = skip_ws(stream, close);
        if keyword_at(stream, k, "else") {
            let b = skip_ws(stream, k + 4);
            if keyword_at(stream, b, "if") {
                cur = b;
                continue;
            }
            if stream.get(b).map(|&(c, _)| c) == Some('{') {
                let c2 = block_end(stream, b);
                conds.extend(walk_range(stream, b + 1, c2 - 1, tainted));
                arms.push(conds);
                guarded.extend(guarding.then_some((b, c2)));
                break c2;
            }
        }
        // No else: an arm that only tests the conditions.
        arms.push(conds);
        break close;
    };
    out.push(PNode::Branch {
        arms,
        tainted: any_tainted,
        line,
        guarded,
    });
    end
}

/// Parse a `match` expression starting at the `match` keyword into
/// `out`: the scrutinee, then the branch. Returns the index one past it.
fn parse_match(
    stream: &Stream,
    start: usize,
    e: usize,
    tainted: &BTreeSet<String>,
    out: &mut Vec<PNode>,
) -> usize {
    let line = stream[start].1;
    let scrut_start = start + 5;
    let Some(body_open) = find_body_open(stream, scrut_start, e) else {
        return scrut_start;
    };
    let cond_tainted = expr_tainted(stream, scrut_start, body_open, tainted);
    out.extend(walk_range(stream, scrut_start, body_open, tainted));
    let close = block_end(stream, body_open);
    let guarded =
        Vec::from_iter(mentions_rank(stream, scrut_start, body_open).then_some((body_open, close)));
    let inner_end = close - 1;
    let mut arms: Vec<Vec<PNode>> = Vec::new();
    let mut j = body_open + 1;
    while j < inner_end {
        // Find the arm's `=>` at nesting depth 0.
        let mut nest = 0i32;
        let mut arrow = None;
        while j < inner_end {
            let c = stream[j].0;
            match c {
                '(' | '[' | '{' => nest += 1,
                ')' | ']' | '}' => nest -= 1,
                '=' if nest == 0
                    && stream.get(j + 1).map(|&(c, _)| c) == Some('>')
                    && (j == 0 || stream[j - 1].0 != '=') =>
                {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let b = skip_ws(stream, arrow + 2);
        if stream.get(b).map(|&(c, _)| c) == Some('{') {
            let end = block_end(stream, b);
            arms.push(walk_range(stream, b + 1, end - 1, tainted));
            j = skip_ws(stream, end);
            if stream.get(j).map(|&(c, _)| c) == Some(',') {
                j += 1;
            }
        } else {
            // Expression arm: up to the `,` at nesting depth 0.
            let mut nest = 0i32;
            let mut k = b;
            while k < inner_end {
                let c = stream[k].0;
                match c {
                    '(' | '[' | '{' => nest += 1,
                    ')' | ']' | '}' => nest -= 1,
                    ',' if nest == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            arms.push(walk_range(stream, b, k, tainted));
            j = k + 1;
        }
    }
    if !arms.is_empty() {
        out.push(PNode::Branch {
            arms,
            tainted: cond_tainted,
            line,
            guarded,
        });
    }
    close
}

/// A call node: the argument span `stream[open + 1..close - 1]` and its
/// walked nodes.
fn call_node(
    stream: &Stream,
    name: String,
    method: bool,
    line: usize,
    open: usize,
    close: usize,
    tainted: &BTreeSet<String>,
) -> PNode {
    PNode::Call {
        name,
        method,
        line,
        args: (open + 1, close - 1),
        inner: walk_range(stream, open + 1, close - 1, tainted),
    }
}

/// Walk `stream[s..e)` (one function-body region) into summary nodes.
fn walk_range(stream: &Stream, s: usize, e: usize, tainted: &BTreeSet<String>) -> Vec<PNode> {
    let mut out = Vec::new();
    let mut i = s;
    while i < e.min(stream.len()) {
        let (c, line) = stream[i];
        if c == '.' {
            let w = read_word(stream, i + 1);
            let after = i + 1 + w.len();
            if !w.is_empty() && stream.get(after).map(|&(c, _)| c) == Some('(') {
                let args_end = match_paren(stream, after);
                if w == "enter_collective" {
                    if let Some(kind) = parse_collective_kind(stream, after, args_end) {
                        out.push(PNode::Op(kind, line));
                    }
                } else if let Some((_, effects)) = BUILTIN_EFFECTS.iter().find(|(n, _)| *n == w) {
                    let args = (after + 1, args_end - 1);
                    out.push(PNode::Api {
                        name: w,
                        line,
                        args,
                        inner: walk_range(stream, args.0, args.1, tainted),
                    });
                    for k in *effects {
                        out.push(PNode::Op((*k).to_string(), line));
                    }
                } else {
                    out.push(call_node(stream, w, true, line, after, args_end, tainted));
                }
                i = args_end;
                continue;
            }
            i += 1;
            continue;
        }
        if is_ident_char(c) && !prev_is_ident(stream, i) {
            if keyword_at(stream, i, "if") {
                i = parse_if(stream, i, e, tainted, &mut out).max(i + 2);
                continue;
            }
            if keyword_at(stream, i, "match") {
                i = parse_match(stream, i, e, tainted, &mut out).max(i + 5);
                continue;
            }
            if keyword_at(stream, i, "while") {
                // Covers `while let` too: the header is scanned whole.
                // The condition runs before the first iteration and again
                // after every iteration.
                let cond_start = i + 5;
                if let Some(body_open) = find_body_open(stream, cond_start, e) {
                    let close = block_end(stream, body_open);
                    let cond = walk_range(stream, cond_start, body_open, tainted);
                    let mut body = walk_range(stream, body_open + 1, close - 1, tainted);
                    body.extend(cond.iter().cloned());
                    out.extend(cond);
                    out.push(PNode::Loop {
                        body,
                        tainted: expr_tainted(stream, cond_start, body_open, tainted),
                        line,
                        iter: None,
                        label: loop_label(stream, i),
                        guarded: mentions_rank(stream, cond_start, body_open)
                            .then_some((body_open, close)),
                    });
                    i = close;
                    continue;
                }
                i += 5;
                continue;
            }
            if keyword_at(stream, i, "loop") {
                let b = skip_ws(stream, i + 4);
                if stream.get(b).map(|&(c, _)| c) == Some('{') {
                    let close = block_end(stream, b);
                    out.push(PNode::Loop {
                        body: walk_range(stream, b + 1, close - 1, tainted),
                        tainted: false,
                        line,
                        iter: None,
                        label: loop_label(stream, i),
                        guarded: None,
                    });
                    i = close;
                    continue;
                }
                i += 4;
                continue;
            }
            if keyword_at(stream, i, "for") {
                // `for <pat> in <iterator> { .. }`: the iterator is
                // evaluated once, before the loop.
                if let Some(in_at) = for_in(stream, i, e) {
                    if let Some(body_open) = find_body_open(stream, in_at + 2, e) {
                        let close = block_end(stream, body_open);
                        out.extend(walk_range(stream, in_at + 2, body_open, tainted));
                        out.push(PNode::Loop {
                            body: walk_range(stream, body_open + 1, close - 1, tainted),
                            tainted: expr_tainted(stream, in_at + 2, body_open, tainted),
                            line,
                            iter: Some((in_at + 2, body_open)),
                            label: loop_label(stream, i),
                            guarded: None,
                        });
                        i = close;
                        continue;
                    }
                }
                i += 3;
                continue;
            }
            if keyword_at(stream, i, "return") {
                let end = ret_expr_end(stream, i + 6, e);
                out.extend(walk_range(stream, i + 6, end, tainted));
                out.push(PNode::Return(line));
                i = end;
                continue;
            }
            if keyword_at(stream, i, "break") {
                out.push(PNode::Break(jump_label(stream, i + 5), line));
                i += 5;
                continue;
            }
            if keyword_at(stream, i, "continue") {
                out.push(PNode::Continue(jump_label(stream, i + 8), line));
                i += 8;
                continue;
            }
            if keyword_at(stream, i, "fn") {
                // Nested item: analyzed as its own function; skip here.
                let mut j = i + 2;
                let mut nest = 0i32;
                let mut skipped = false;
                while j < e {
                    let c2 = stream[j].0;
                    match c2 {
                        '(' | '[' => nest += 1,
                        ')' | ']' => nest -= 1,
                        '{' if nest == 0 => {
                            i = block_end(stream, j);
                            skipped = true;
                            break;
                        }
                        ';' if nest == 0 => {
                            i = j + 1;
                            skipped = true;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if !skipped {
                    i = e;
                }
                continue;
            }
            if keyword_at(stream, i, "else") {
                // `let … else { diverging }`: a conditional divergence.
                let b = skip_ws(stream, i + 4);
                if stream.get(b).map(|&(c, _)| c) == Some('{') {
                    let close = block_end(stream, b);
                    out.push(PNode::Branch {
                        arms: vec![walk_range(stream, b + 1, close - 1, tainted), Vec::new()],
                        tainted: false,
                        line,
                        guarded: Vec::new(),
                    });
                    i = close;
                    continue;
                }
                i += 4;
                continue;
            }
            let w = read_word(stream, i);
            let after = i + w.len();
            if stream.get(after).map(|&(c, _)| c) == Some('!') && !w.is_empty() {
                // Macro invocation: walk the delimited interior.
                let d = skip_ws(stream, after + 1);
                if matches!(stream.get(d).map(|&(c, _)| c), Some('(' | '[' | '{')) {
                    let end = match_paren(stream, d);
                    out.extend(walk_range(stream, d + 1, end - 1, tainted));
                    i = end;
                    continue;
                }
                i = after + 1;
                continue;
            }
            if !w.is_empty() && !is_keyword(&w) && stream.get(after).map(|&(c, _)| c) == Some('(') {
                let args_end = match_paren(stream, after);
                out.push(call_node(stream, w, false, line, after, args_end, tainted));
                i = args_end;
                continue;
            }
            i = after.max(i + 1);
            continue;
        }
        if c == '{' {
            // Bare block or struct literal: transparent.
            let end = block_end(stream, i);
            out.extend(walk_range(stream, i + 1, end - 1, tainted));
            i = end;
            continue;
        }
        if c == '?' {
            out.push(PNode::Branch {
                arms: vec![vec![PNode::Return(line)], Vec::new()],
                tainted: false,
                line,
                guarded: Vec::new(),
            });
            i += 1;
            continue;
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Interprocedural analysis: call resolution, canonicalization, checks.
// ---------------------------------------------------------------------------

/// One analyzed file: its functions and their summary trees.
#[derive(Debug)]
pub(crate) struct FileInfo {
    pub(crate) path: String,
    pub(crate) fns: Vec<FnDef>,
    pub(crate) nodes: Vec<Vec<PNode>>,
}

/// Build per-function summaries for one stripped stream.
pub(crate) fn analyze_stream(path: &str, stream: &Stream) -> FileInfo {
    let fns = extract_fns(stream);
    let nodes = fns
        .iter()
        .map(|f| {
            let inner = (f.body_open + 1, f.body_end.saturating_sub(1));
            let taint = taint_set(stream, inner.0, inner.1);
            walk_range(stream, inner.0, inner.1, &taint)
        })
        .collect();
    FileInfo {
        path: path.to_string(),
        fns,
        nodes,
    }
}

enum Memo {
    InProgress,
    Done(Vec<SpecNode>),
}

/// A violation reported by the phase-graph checks (adapted into a lint
/// [`crate::lint::Finding`] by the caller).
pub(crate) struct ProtocolFinding {
    /// 1-based line of the offending construct.
    pub(crate) line: usize,
    /// [`Rule::R1`], [`Rule::R2`], [`Rule::R4`] or [`Rule::R5`].
    pub(crate) rule: Rule,
    /// Human-readable explanation.
    pub(crate) message: String,
}

/// Every function of a file set by name, as `(file, fn)` indices.
pub(crate) type FnIndex = BTreeMap<String, Vec<(usize, usize)>>;

pub(crate) fn index_fns(files: &[FileInfo]) -> FnIndex {
    let mut by_name = FnIndex::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            by_name.entry(g.name.clone()).or_default().push((fi, gi));
        }
    }
    by_name
}

/// The candidate definitions of a call to `name` from file `fi`: the
/// same-file definitions if there are any, else every same-named one
/// narrowed to the caller's crate when any live there. Either set first
/// keeps only the definitions whose `self`-ness matches the call, when
/// any does. The callers decide what several candidates mean.
pub(crate) fn lookup(
    files: &[FileInfo],
    by_name: &FnIndex,
    fi: usize,
    name: &str,
    method: bool,
) -> Vec<(usize, usize)> {
    let pick = |cands: Vec<(usize, usize)>| -> Vec<(usize, usize)> {
        let (with_self, without): (Vec<_>, Vec<_>) = cands
            .into_iter()
            .partition(|&(f, g)| files[f].fns[g].has_self);
        let (preferred, fallback) = if method {
            (with_self, without)
        } else {
            (without, with_self)
        };
        if preferred.is_empty() {
            fallback
        } else {
            preferred
        }
    };
    let same: Vec<(usize, usize)> = (0..files[fi].fns.len())
        .filter(|&g| files[fi].fns[g].name == name)
        .map(|g| (fi, g))
        .collect();
    if !same.is_empty() {
        return pick(same);
    }
    let krate = crate_of(&files[fi].path);
    let (in_crate, elsewhere): (Vec<_>, Vec<_>) =
        pick(by_name.get(name).cloned().unwrap_or_default())
            .into_iter()
            .partition(|&(f, _)| crate_of(&files[f].path) == krate);
    if in_crate.is_empty() {
        elsewhere
    } else {
        in_crate
    }
}

/// A file's workspace-relative path and its non-test code stream.
pub(crate) type PathStream = (String, Vec<(char, usize)>);

/// Read every `.rs` file under `dirs` (workspace-relative, visited in
/// order; a missing directory is skipped) as its path and non-test code
/// stream: the input of both spec extractions.
pub(crate) fn load_streams(root: &Path, dirs: &[&str]) -> Result<Vec<PathStream>, String> {
    let mut out = Vec::new();
    for dir in dirs {
        let abs = root.join(dir);
        if !abs.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk(&abs, &mut paths).map_err(|e| format!("walking {dir}: {e}"))?;
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&p).map_err(|e| format!("reading {rel}: {e}"))?;
            let lines = scan_lines(&src);
            let mask = test_region_mask(&lines);
            out.push((rel, code_stream_masked(&lines, &mask)));
        }
    }
    Ok(out)
}

struct Analyzer {
    files: Vec<FileInfo>,
    by_name: FnIndex,
    /// Workspace (spec) mode: treat ambiguity as a hard error. Lint mode
    /// gives an ambiguous callee no effect instead.
    spec_mode: bool,
    memo: BTreeMap<(usize, usize), Memo>,
}

fn spec_has_effect(nodes: &[SpecNode]) -> bool {
    nodes.iter().any(|n| match n {
        SpecNode::Op(_) | SpecNode::Call { .. } | SpecNode::Return => true,
        SpecNode::Branch(arms) => arms.iter().any(|a| spec_has_effect(a)),
        SpecNode::Loop(b) => spec_has_effect(b),
        SpecNode::Break | SpecNode::Continue => false,
    })
}

fn spec_has_op(nodes: &[SpecNode]) -> bool {
    nodes.iter().any(|n| match n {
        SpecNode::Op(_) => true,
        SpecNode::Call { body, .. } => spec_has_op(body),
        SpecNode::Branch(arms) => arms.iter().any(|a| spec_has_op(a)),
        SpecNode::Loop(b) => spec_has_op(b),
        _ => false,
    })
}

/// Serialize the *collective* content of a summary (markers stripped,
/// call bodies flattened) so two arms compare equal iff they enter the
/// same collective sequence.
fn ops_sig(nodes: &[SpecNode], out: &mut String) {
    for n in nodes {
        match n {
            SpecNode::Op(k) => {
                out.push_str(k);
                out.push(';');
            }
            SpecNode::Call { body, .. } => ops_sig(body, out),
            SpecNode::Branch(arms) => {
                out.push_str("B(");
                for a in arms {
                    ops_sig(a, out);
                    out.push('|');
                }
                out.push(')');
            }
            SpecNode::Loop(b) => {
                out.push_str("L(");
                ops_sig(b, out);
                out.push(')');
            }
            _ => {}
        }
    }
}

/// `return` reachable in this summary (not descending into calls: a
/// callee's return exits the callee, not this function).
fn spec_has_return(nodes: &[SpecNode]) -> bool {
    nodes.iter().any(|n| match n {
        SpecNode::Return => true,
        SpecNode::Branch(arms) => arms.iter().any(|a| spec_has_return(a)),
        SpecNode::Loop(b) => spec_has_return(b),
        _ => false,
    })
}

/// `break`/`continue` targeting an *enclosing* loop (not descending into
/// nested loops, which capture their own exits).
fn spec_has_loop_exit(nodes: &[SpecNode]) -> bool {
    nodes.iter().any(|n| match n {
        SpecNode::Break | SpecNode::Continue => true,
        SpecNode::Branch(arms) => arms.iter().any(|a| spec_has_loop_exit(a)),
        _ => false,
    })
}

/// The crate a workspace-relative path belongs to: `crates/<name>/`, or
/// `""` for the root package.
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.find('/'))
        .map_or("", |i| &path[..="crates/".len() + i])
}

impl Analyzer {
    fn new(files: Vec<FileInfo>, spec_mode: bool) -> Self {
        Analyzer {
            by_name: index_fns(&files),
            files,
            spec_mode,
            memo: BTreeMap::new(),
        }
    }

    /// Canonicalized protocol effect of one function (memoized;
    /// recursion is cut to the empty effect).
    fn effect_of(&mut self, fi: usize, gi: usize) -> Result<Vec<SpecNode>, String> {
        match self.memo.get(&(fi, gi)) {
            Some(Memo::Done(v)) => return Ok(v.clone()),
            Some(Memo::InProgress) => return Ok(Vec::new()),
            None => {}
        }
        self.memo.insert((fi, gi), Memo::InProgress);
        let nodes = self.files[fi].nodes[gi].clone();
        let mut canon = self.canon(fi, &nodes)?;
        // A callee that enters no collective contributes nothing to the
        // protocol; its internal control-flow markers are private to it.
        if !spec_has_op(&canon) {
            canon = Vec::new();
        }
        self.memo.insert((fi, gi), Memo::Done(canon.clone()));
        Ok(canon)
    }

    /// Resolve a call site to `(effect, defining file)` through
    /// [`lookup`]; spec mode errors out when the candidates disagree on
    /// effect.
    fn resolve(
        &mut self,
        fi: usize,
        name: &str,
        method: bool,
    ) -> Result<(Vec<SpecNode>, String), String> {
        let cands = lookup(&self.files, &self.by_name, fi, name, method);
        if cands.is_empty() {
            return Ok((Vec::new(), String::new()));
        }
        let mut effects = Vec::new();
        for &(f, g) in &cands {
            effects.push((self.effect_of(f, g)?, f, g));
        }
        if effects.iter().all(|(e, _, _)| *e == effects[0].0) {
            let f = effects[0].1;
            return Ok((effects.swap_remove(0).0, self.files[f].path.clone()));
        }
        if self.spec_mode {
            let locs: Vec<String> = effects
                .iter()
                .map(|&(_, f, g)| format!("{}:{}", self.files[f].path, self.files[f].fns[g].line))
                .collect();
            return Err(format!(
                "ambiguous call `{name}`: same-named candidates with different protocol \
                 effects at {}",
                locs.join(", ")
            ));
        }
        Ok((Vec::new(), String::new()))
    }

    /// Canonicalize a summary: expand calls (named wrapper for solver-
    /// crate callees, spliced otherwise), splice equal-armed branches,
    /// drop effect-free loops and calls.
    fn canon(&mut self, fi: usize, nodes: &[PNode]) -> Result<Vec<SpecNode>, String> {
        let mut out = Vec::new();
        for node in nodes {
            match node {
                PNode::Op(k, _) => out.push(SpecNode::Op(k.clone())),
                PNode::Api { inner, .. } => out.extend(self.canon(fi, inner)?),
                PNode::Call {
                    name,
                    method,
                    inner,
                    ..
                } => {
                    out.extend(self.canon(fi, inner)?);
                    let (effect, def_path) = self.resolve(fi, name, *method)?;
                    if effect.is_empty() {
                        continue;
                    }
                    // Solver-crate callees keep a named wrapper for spec
                    // readability; so does any effect carrying a `Return`
                    // marker, which must stay scoped to the callee (a
                    // spliced `!return` would read as exiting the caller).
                    if def_path.starts_with("crates/core/") || spec_has_return(&effect) {
                        out.push(SpecNode::Call {
                            name: name.clone(),
                            body: effect,
                        });
                    } else {
                        out.extend(effect);
                    }
                }
                PNode::Branch { arms, .. } => {
                    let mut carms = Vec::new();
                    for a in arms {
                        carms.push(self.canon(fi, a)?);
                    }
                    if carms.iter().all(|a| *a == carms[0]) {
                        out.extend(carms.swap_remove(0));
                    } else {
                        out.push(SpecNode::Branch(carms));
                    }
                }
                PNode::Loop { body, .. } => {
                    let cb = self.canon(fi, body)?;
                    if spec_has_effect(&cb) {
                        out.push(SpecNode::Loop(cb));
                    }
                }
                PNode::Break(..) => out.push(SpecNode::Break),
                PNode::Continue(..) => out.push(SpecNode::Continue),
                PNode::Return(_) => out.push(SpecNode::Return),
            }
        }
        Ok(out)
    }

    /// Does the resolved callee enter any collective?
    fn call_has_op(&mut self, fi: usize, name: &str, method: bool) -> bool {
        let effect = self.resolve(fi, name, method).map(|(e, _)| e);
        spec_has_op(&effect.unwrap_or_default())
    }

    /// Does this summary (calls resolved) enter any collective?
    fn pnodes_have_op(&mut self, fi: usize, nodes: &[PNode]) -> bool {
        nodes.iter().any(|n| match n {
            PNode::Op(..) => true,
            PNode::Call {
                name,
                method,
                inner,
                ..
            } => self.pnodes_have_op(fi, inner) || self.call_has_op(fi, name, *method),
            _ => n.children().iter().any(|c| self.pnodes_have_op(fi, c)),
        })
    }

    /// R2/R4/R5 over one function summary. `follow` = collectives happen
    /// after this node list in the enclosing context; `loops` = one
    /// entry per enclosing loop (true when its body has collectives).
    fn check_nodes(
        &mut self,
        fi: usize,
        nodes: &[PNode],
        follow: bool,
        loops: &mut Vec<bool>,
        out: &mut Vec<ProtocolFinding>,
    ) {
        let n = nodes.len();
        let mut suffix = vec![follow; n];
        let mut acc = follow;
        for i in (0..n).rev() {
            suffix[i] = acc;
            acc = acc || self.pnodes_have_op(fi, std::slice::from_ref(&nodes[i]));
        }
        for (i, node) in nodes.iter().enumerate() {
            match node {
                PNode::Branch {
                    arms,
                    tainted,
                    line,
                    guarded,
                } => {
                    for a in arms {
                        r2_sites(a, guarded, out);
                        self.check_nodes(fi, a, suffix[i], loops, out);
                    }
                    if !*tainted {
                        continue;
                    }
                    let mut carms = Vec::new();
                    for a in arms {
                        carms.push(self.canon(fi, a).unwrap_or_default());
                    }
                    let sigs: Vec<String> = carms
                        .iter()
                        .map(|a| {
                            let mut s = String::new();
                            ops_sig(a, &mut s);
                            s
                        })
                        .collect();
                    if sigs.iter().any(|s| *s != sigs[0]) {
                        out.push(ProtocolFinding {
                            line: *line,
                            rule: Rule::R4,
                            message: "arms of this rank-divergent conditional have \
                                      different collective sequences: ranks taking \
                                      different arms diverge on the protocol and \
                                      deadlock or corrupt state"
                                .to_string(),
                        });
                        continue;
                    }
                    let rets: Vec<bool> = carms.iter().map(|a| spec_has_return(a)).collect();
                    if rets.iter().any(|&r| r != rets[0]) && (suffix[i] || loops.iter().any(|&b| b))
                    {
                        out.push(ProtocolFinding {
                            line: *line,
                            rule: Rule::R4,
                            message: "rank-divergent early `return`: ranks leaving here \
                                      skip the collectives that follow, while the rest \
                                      block on them forever"
                                .to_string(),
                        });
                        continue;
                    }
                    let exits: Vec<bool> = carms.iter().map(|a| spec_has_loop_exit(a)).collect();
                    if exits.iter().any(|&x| x != exits[0]) && loops.last() == Some(&true) {
                        out.push(ProtocolFinding {
                            line: *line,
                            rule: Rule::R4,
                            message: "rank-divergent `break`/`continue` in a loop that \
                                      enters collectives: ranks exiting early run fewer \
                                      iterations of the collective sequence"
                                .to_string(),
                        });
                    }
                }
                PNode::Api { inner, .. } => self.check_nodes(fi, inner, suffix[i], loops, out),
                PNode::Call {
                    name,
                    method,
                    inner,
                    ..
                } => {
                    // The arguments run before the callee's collectives.
                    let follow = suffix[i] || self.call_has_op(fi, name, *method);
                    self.check_nodes(fi, inner, follow, loops, out);
                }
                PNode::Loop {
                    body,
                    tainted,
                    line,
                    guarded,
                    ..
                } => {
                    r2_sites(body, guarded.as_slice(), out);
                    let body_op = self.pnodes_have_op(fi, body);
                    if *tainted && body_op {
                        out.push(ProtocolFinding {
                            line: *line,
                            rule: Rule::R5,
                            message: "collective inside a loop whose trip count derives \
                                      from rank-local data: ranks run different numbers \
                                      of iterations and the collective sequences diverge \
                                      (derive the bound from a replicated/allreduced \
                                      value instead)"
                                .to_string(),
                        });
                    }
                    loops.push(body_op);
                    self.check_nodes(fi, body, suffix[i] || body_op, loops, out);
                    loops.pop();
                }
                _ => {}
            }
        }
    }
}

/// R2 over `nodes`: every collective `Api` at any depth (each builtin
/// but the point-to-point sends) whose call starts inside one of the
/// `guarded` bodies.
fn r2_sites(nodes: &[PNode], guarded: &[Span], out: &mut Vec<ProtocolFinding>) {
    if guarded.is_empty() {
        return;
    }
    for n in nodes {
        if let PNode::Api {
            name, line, args, ..
        } = n
        {
            let collective = name != "send";
            if collective && guarded.iter().any(|&(s, e)| s < args.0 && args.0 < e) {
                out.push(ProtocolFinding {
                    line: *line,
                    rule: Rule::R2,
                    message: format!(
                        "collective `{name}` under a condition that reads `rank`: ranks \
                         taking different branches enter different collective sequences \
                         and deadlock or corrupt the protocol"
                    ),
                });
            }
        }
        for kids in n.children() {
            r2_sites(kids, guarded, out);
        }
    }
}

/// An exchange phase open on R1's path walk: the line of its
/// `exchange()` and the number of loops around it.
#[derive(Clone, Copy, PartialEq)]
struct Phase {
    line: usize,
    depth: usize,
}

/// Report an R1 finding: `what` at `line` leaves the phase `ph` open.
fn r1(out: &mut Vec<ProtocolFinding>, line: usize, what: &str, ph: Phase) {
    out.push(ProtocolFinding {
        line,
        rule: Rule::R1,
        message: format!(
            "{what} before the exchange phase opened at line {} reaches `finish()`: \
             peer ranks deadlock on this path",
            ph.line
        ),
    });
}

/// R1 over `nodes` on every path: `exchange()` opens a phase and
/// `finish()` closes it. While it is open, a `return`/`?`, a
/// `break`/`continue` whose target loop encloses the `exchange()`, or a
/// second `exchange()` is flagged. `loops` holds the labels of the
/// enclosing loops. Returns the phase left open on some path.
fn r1_paths(
    nodes: &[PNode],
    mut phase: Option<Phase>,
    loops: &mut Vec<Option<String>>,
    out: &mut Vec<ProtocolFinding>,
) -> Option<Phase> {
    for n in nodes {
        match n {
            PNode::Api { name, line, .. } if name == "exchange" => {
                if let Some(ph) = phase {
                    r1(out, *line, "`exchange()`", ph);
                }
                phase = Some(Phase {
                    line: *line,
                    depth: loops.len(),
                });
            }
            PNode::Api { name, .. } if name == "finish" => phase = None,
            PNode::Return(line) => {
                if let Some(ph) = phase {
                    r1(out, *line, "`return`/`?`", ph);
                }
            }
            PNode::Break(label, line) | PNode::Continue(label, line) => {
                // Only a jump to a loop inside the phase stays in it.
                if let Some(ph) = phase {
                    let inside = &loops[ph.depth..];
                    let stays = match label {
                        Some(l) => inside.iter().any(|x| x.as_ref() == Some(l)),
                        None => !inside.is_empty(),
                    };
                    if !stays {
                        r1(out, *line, "`break`/`continue`", ph);
                    }
                }
            }
            PNode::Branch { arms, .. } => {
                let entry = phase.take();
                for a in arms {
                    phase = phase.or(r1_block(a, entry, loops, out));
                }
            }
            PNode::Loop { body, label, .. } => {
                loops.push(label.clone());
                r1_block(body, phase, loops, out);
                loops.pop();
            }
            _ => {}
        }
        // A call's arguments run after the phase change: the closure
        // handed to `finish` runs once the phase is flushed.
        if let PNode::Api { inner, .. } | PNode::Call { inner, .. } = n {
            phase = r1_paths(inner, phase, loops, out);
        }
    }
    phase
}

/// [`r1_paths`] over a block entered with `entry` open: a phase the
/// block opens must also finish in it.
fn r1_block(
    nodes: &[PNode],
    entry: Option<Phase>,
    loops: &mut Vec<Option<String>>,
    out: &mut Vec<ProtocolFinding>,
) -> Option<Phase> {
    let end = r1_paths(nodes, entry, loops, out);
    match end {
        Some(ph) if end != entry => {
            r1(out, ph.line, "the end of the block", ph);
            None
        }
        _ => end,
    }
}

/// Run the R1/R2/R4/R5 phase-graph checks over the stripped streams of a set
/// of files, each given with its workspace-relative path, returning per
/// stream its analyzed trees (for the cost rule M1) and its findings.
/// Calls resolve through [`lookup`]; an ambiguous or unknown callee
/// contributes no effect.
pub(crate) fn check_streams(streams: &[(&str, &Stream)]) -> Vec<(FileInfo, Vec<ProtocolFinding>)> {
    let files = streams.iter().map(|(p, s)| analyze_stream(p, s)).collect();
    let mut an = Analyzer::new(files, false);
    let findings: Vec<Vec<ProtocolFinding>> = (0..streams.len())
        .map(|fi| {
            let mut out = Vec::new();
            for gi in 0..an.files[fi].fns.len() {
                let nodes = an.files[fi].nodes[gi].clone();
                an.check_nodes(fi, &nodes, false, &mut Vec::new(), &mut out);
                r1_block(&nodes, None, &mut Vec::new(), &mut out);
            }
            out.sort_by_key(|a| (a.line, a.rule));
            out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
            out
        })
        .collect();
    an.files.into_iter().zip(findings).collect()
}

/// Extract the workspace protocol spec: analyze every solver/runtime
/// source file, compose summaries interprocedurally from the entry
/// point, and append the runtime's implicit `Shutdown`.
///
/// # Errors
/// I/O failures, a missing entry point, or an ambiguous call (same-named
/// functions with different protocol effects) abort the extraction.
pub fn extract_protocol_spec(root: &Path) -> Result<ProtocolSpec, String> {
    let files = load_streams(root, &SPEC_DIRS)?
        .iter()
        .map(|(p, s)| analyze_stream(p, s))
        .collect();
    let mut an = Analyzer::new(files, true);
    let fi = an
        .files
        .iter()
        .position(|f| f.path == PROTOCOL_ENTRY_FILE)
        .ok_or_else(|| format!("entry file `{PROTOCOL_ENTRY_FILE}` not found"))?;
    let gi = an.files[fi]
        .fns
        .iter()
        .position(|g| g.name == PROTOCOL_ENTRY_FN)
        .ok_or_else(|| {
            format!("entry `{PROTOCOL_ENTRY_FN}` not found in `{PROTOCOL_ENTRY_FILE}`")
        })?;
    let nodes = an.files[fi].nodes[gi].clone();
    let mut protocol = an.canon(fi, &nodes)?;
    protocol.push(SpecNode::Op("Shutdown".to_string()));
    Ok(ProtocolSpec {
        entry: format!("{PROTOCOL_ENTRY_FILE}::{PROTOCOL_ENTRY_FN}"),
        protocol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{code_stream_masked, scan_lines, test_region_mask};

    fn check_stream(stream: &Stream) -> Vec<ProtocolFinding> {
        check_streams(&[("test.rs", stream)]).remove(0).1
    }

    fn stream_of(src: &str) -> Vec<(char, usize)> {
        let lines = scan_lines(src);
        let mask = test_region_mask(&lines);
        code_stream_masked(&lines, &mask)
    }

    fn nodes_of(src: &str) -> Vec<Vec<PNode>> {
        analyze_stream("test.rs", &stream_of(src)).nodes
    }

    fn flat_ops(nodes: &[PNode]) -> Vec<String> {
        let mut out = Vec::new();
        fn go(nodes: &[PNode], out: &mut Vec<String>) {
            for n in nodes {
                match n {
                    PNode::Op(k, _) => out.push(k.clone()),
                    PNode::Branch { arms, .. } => arms.iter().for_each(|a| go(a, out)),
                    PNode::Loop { body, .. } => go(body, out),
                    PNode::Call { .. } => out.push("<call>".to_string()),
                    _ => {}
                }
            }
        }
        go(nodes, &mut out);
        out
    }

    #[test]
    fn extract_fns_finds_methods_and_free_fns() {
        let src = "impl Foo {\n    fn with_self(&mut self, x: u32) -> u32 { x }\n}\n\
                   fn free(y: u32) -> u32 { y }\n\
                   trait T { fn decl(&self) -> [u32; 2]; }\n\
                   fn array<const E: usize>(x: [f64; E]) -> (u32, [f64; E]) { (0, x) }\n";
        let fns = extract_fns(&stream_of(src));
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "with_self");
        assert!(fns[0].has_self);
        assert_eq!(fns[1].name, "free");
        assert!(!fns[1].has_self);
        // The declaration has no body; an array return type does not end
        // the signature.
        assert_eq!(fns[2].name, "array");
        assert_eq!(fns[2].params.len(), 1);
    }

    #[test]
    fn builtin_collectives_expand_to_their_effects() {
        let src = "fn f(ctx: &C) { ctx.barrier(); let s = ctx.allreduce_sum(1.0); }\n";
        let nodes = nodes_of(src);
        assert_eq!(flat_ops(&nodes[0]), vec!["Barrier", "ReduceF64", "SimSync"]);
    }

    #[test]
    fn exchange_finish_records_exchange_then_simsync() {
        let src = "fn f(ctx: &C) { let mut ex = ctx.exchange(); ex.finish(&mut |_, _| {}); }\n";
        let nodes = nodes_of(src);
        assert_eq!(flat_ops(&nodes[0]), vec!["Exchange", "SimSync"]);
    }

    #[test]
    fn if_else_chains_become_one_branch_with_all_arms() {
        let src = "fn f(x: u32, ctx: &C) {\n\
                   if x == 0 { ctx.barrier(); } else if x == 1 { ctx.sim_sync(); } else { }\n\
                   }\n";
        let nodes = nodes_of(src);
        assert_eq!(nodes[0].len(), 1);
        let PNode::Branch { arms, tainted, .. } = &nodes[0][0] else {
            panic!("expected branch, got {:?}", nodes[0]);
        };
        assert_eq!(arms.len(), 3);
        assert!(!tainted);
        assert_eq!(flat_ops(&arms[0]), vec!["Barrier"]);
        assert_eq!(flat_ops(&arms[1]), vec!["SimSync"]);
        assert!(arms[2].is_empty());
    }

    #[test]
    fn match_arms_split_without_fat_arrow_confusion() {
        let src = "fn f(x: Option<u32>, ctx: &C) {\n\
                   match x {\n\
                   Some(n) if n >= 2 => { ctx.barrier(); }\n\
                   Some(_) => ctx.sim_sync(),\n\
                   None => {}\n\
                   }\n\
                   }\n";
        let nodes = nodes_of(src);
        let PNode::Branch { arms, .. } = &nodes[0][0] else {
            panic!("expected branch, got {:?}", nodes[0]);
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(flat_ops(&arms[0]), vec!["Barrier"]);
        assert_eq!(flat_ops(&arms[1]), vec!["SimSync"]);
        assert!(arms[2].is_empty());
    }

    #[test]
    fn nested_fn_bodies_are_not_attributed_to_the_outer_fn() {
        let src = "fn outer(ctx: &C) {\n\
                   fn inner(ctx: &C) { ctx.barrier(); }\n\
                   inner(ctx);\n\
                   }\n";
        let fi = analyze_stream("test.rs", &stream_of(src));
        assert_eq!(fi.fns.len(), 2);
        let outer = fi.fns.iter().position(|f| f.name == "outer").unwrap();
        // The outer fn sees only the call; the barrier belongs to inner.
        assert_eq!(flat_ops(&fi.nodes[outer]), vec!["<call>"]);
    }

    #[test]
    fn trace_closures_let_else_and_macro_bodies_keep_their_protocol() {
        // Tracing closures still run in the protocol's view, `let .. else`
        // diverges on its `else` arm, and a macro body is walked.
        let src = "fn f(ctx: &C, x: Option<u32>) {\n\
                   louvain_trace::emit_with(|| { ctx.barrier(); Event::Mark });\n\
                   let Some(y) = x else { return };\n\
                   let v = vec![ctx.allreduce_sum(1.0)];\n\
                   }\n";
        let file = analyze_stream("test.rs", &stream_of(src));
        let mut an = Analyzer::new(vec![file], false);
        let nodes = an.files[0].nodes[0].clone();
        let op = |k: &str| SpecNode::Op(k.to_string());
        assert_eq!(
            an.canon(0, &nodes).unwrap(),
            vec![
                op("Barrier"),
                SpecNode::Branch(vec![vec![SpecNode::Return], vec![]]),
                op("ReduceF64"),
                op("SimSync"),
            ]
        );
    }

    #[test]
    fn conditions_scrutinees_and_loop_headers_walk_in_evaluation_order() {
        fn shape(nodes: &[PNode]) -> String {
            let parts: Vec<String> = nodes
                .iter()
                .filter_map(|n| match n {
                    PNode::Op(k, _) => Some(k.clone()),
                    PNode::Branch { arms, .. } => {
                        let arms: Vec<String> = arms.iter().map(|a| shape(a)).collect();
                        Some(format!("B[{}]", arms.join(" | ")))
                    }
                    PNode::Loop { body, .. } => Some(format!("L[{}]", shape(body))),
                    _ => None,
                })
                .collect();
            parts.join(" ")
        }
        let src = "fn f(ctx: &C) {\n\
                   if ctx.barrier() { ctx.sim_sync(); } \
                   else if ctx.allreduce_max(1.0) > 0.0 { ctx.sim_sync(); } else { }\n\
                   match ctx.allreduce_sum_u64(1) { _ => {} }\n\
                   while ctx.allreduce_sum(1.0) > 0.0 { ctx.sim_sync(); }\n\
                   for v in ctx.allgather_f64(&[1.0]) { ctx.sim_sync(); }\n\
                   }\n";
        assert_eq!(
            shape(&nodes_of(src)[0]),
            "Barrier B[SimSync | ReduceF64 SimSync SimSync | ReduceF64 SimSync] \
             ReduceU64 SimSync B[] \
             ReduceF64 SimSync L[SimSync ReduceF64 SimSync] \
             AllgatherF64 SimSync L[SimSync]"
        );
    }

    #[test]
    fn rank_taint_flows_through_assignments() {
        let src = "fn f(ctx: &C) {\n\
                   let r = ctx.rank();\n\
                   let two_hops = r + 1;\n\
                   if two_hops > 0 { ctx.barrier(); }\n\
                   }\n";
        let nodes = nodes_of(src);
        let PNode::Branch { tainted, .. } = nodes[0].last().unwrap() else {
            panic!("expected branch, got {:?}", nodes[0]);
        };
        assert!(tainted, "taint should flow r -> two_hops -> condition");
    }

    #[test]
    fn call_results_are_replicated_by_fiat() {
        let src = "fn f(ctx: &C) {\n\
                   let rounds = ctx.allreduce_sum_u64(3);\n\
                   if rounds > 0 { ctx.barrier(); }\n\
                   }\n";
        let nodes = nodes_of(src);
        let PNode::Branch { tainted, .. } = nodes[0].last().unwrap() else {
            panic!("expected branch, got {:?}", nodes[0]);
        };
        assert!(!tainted, "allreduce result is replicated, not rank-local");
    }

    #[test]
    fn canon_splices_equal_arms_and_drops_effect_free_loops() {
        let src = "fn f(x: u32, ctx: &C) {\n\
                   if x == 0 { ctx.barrier(); } else { ctx.barrier(); }\n\
                   for i in 0..x { let _ = i; }\n\
                   }\n";
        let file = analyze_stream("test.rs", &stream_of(src));
        let mut an = Analyzer::new(vec![file], false);
        let nodes = an.files[0].nodes[0].clone();
        let canon = an.canon(0, &nodes).unwrap();
        assert_eq!(canon, vec![SpecNode::Op("Barrier".to_string())]);
    }

    #[test]
    fn same_file_calls_resolve_interprocedurally() {
        let src = "fn helper(ctx: &C) { ctx.barrier(); }\n\
                   fn f(x: u32, ctx: &C) { if x == 0 { helper(ctx); } }\n";
        let file = analyze_stream("test.rs", &stream_of(src));
        let mut an = Analyzer::new(vec![file], false);
        let gi = an.files[0].fns.iter().position(|g| g.name == "f").unwrap();
        let nodes = an.files[0].nodes[gi].clone();
        let canon = an.canon(0, &nodes).unwrap();
        // helper's barrier shows up inside f's branch (spliced: non-core path).
        assert_eq!(
            canon,
            vec![SpecNode::Branch(vec![
                vec![SpecNode::Op("Barrier".to_string())],
                vec![],
            ])]
        );
    }

    #[test]
    fn r4_fires_on_asymmetric_tainted_branch() {
        let src = "fn f(ctx: &C) {\n\
                   let leader = ctx.rank() == 0;\n\
                   if leader { ctx.barrier(); }\n\
                   }\n";
        let findings = check_stream(&stream_of(src));
        assert_eq!(findings.len(), 1, "{:?}", findings.len());
        assert_eq!(findings[0].rule, Rule::R4);
    }

    #[test]
    fn r4_fires_on_divergent_early_return_before_collective() {
        let src = "fn f(ctx: &C) {\n\
                   let r = ctx.rank();\n\
                   if r > 0 { return; }\n\
                   ctx.barrier();\n\
                   }\n";
        let findings = check_stream(&stream_of(src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::R4);
    }

    #[test]
    fn r4_quiet_on_symmetric_arms_and_on_return_with_no_collective_after() {
        let src = "fn sym(ctx: &C) {\n\
                   let leader = ctx.rank() == 0;\n\
                   if leader { ctx.barrier(); } else { ctx.barrier(); }\n\
                   }\n\
                   fn tail(ctx: &C) {\n\
                   ctx.barrier();\n\
                   let r = ctx.rank();\n\
                   if r > 0 { return; }\n\
                   }\n";
        let findings = check_stream(&stream_of(src));
        assert!(findings.is_empty(), "unexpected: {}", findings.len());
    }

    #[test]
    fn r5_fires_on_rank_dependent_trip_count() {
        let src = "fn f(ctx: &C) {\n\
                   let mine = ctx.rank() + 1;\n\
                   for _ in 0..mine { ctx.barrier(); }\n\
                   }\n";
        let findings = check_stream(&stream_of(src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::R5);
    }

    #[test]
    fn r5_quiet_on_replicated_trip_count_and_op_free_body() {
        let src = "fn a(ctx: &C) {\n\
                   let rounds = ctx.allreduce_sum_u64(3);\n\
                   for _ in 0..rounds { ctx.barrier(); }\n\
                   }\n\
                   fn b(ctx: &C) {\n\
                   let mine = ctx.rank() + 1;\n\
                   let mut acc = 0;\n\
                   for i in 0..mine { acc += i; }\n\
                   let _ = acc;\n\
                   }\n";
        let findings = check_stream(&stream_of(src));
        assert!(findings.is_empty(), "unexpected: {}", findings.len());
    }

    #[test]
    fn spec_json_is_stable_and_round_trips_the_shape() {
        let spec = ProtocolSpec {
            entry: "crates/core/src/parallel.rs::rank_main".to_string(),
            protocol: vec![
                SpecNode::Op("ReduceF64".to_string()),
                SpecNode::Branch(vec![vec![SpecNode::Op("SimSync".to_string())], vec![]]),
                SpecNode::Loop(vec![
                    SpecNode::Call {
                        name: "refine".to_string(),
                        body: vec![SpecNode::Op("Exchange".to_string())],
                    },
                    SpecNode::Branch(vec![vec![SpecNode::Break], vec![]]),
                ]),
                SpecNode::Op("Shutdown".to_string()),
            ],
        };
        let a = spec.to_json();
        let b = spec.to_json();
        assert_eq!(a, b, "writer must be deterministic");
        assert!(a.starts_with('{') && a.ends_with('\n'));
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"!break\""));
        assert!(a.contains("\"call\": \"refine\""));
    }

    #[test]
    fn nfa_accepts_spec_traces_and_rejects_mutations() {
        let spec = ProtocolSpec {
            entry: "e".to_string(),
            protocol: vec![
                SpecNode::Op("ReduceF64".to_string()),
                SpecNode::Loop(vec![
                    SpecNode::Op("Exchange".to_string()),
                    SpecNode::Op("SimSync".to_string()),
                    SpecNode::Branch(vec![vec![SpecNode::Break], vec![]]),
                ]),
                SpecNode::Op("Shutdown".to_string()),
            ],
        };
        let nfa = Nfa::from_spec(&spec);
        // Zero, one, and two loop iterations all conform.
        assert!(nfa.accepts(&["ReduceF64", "Shutdown"]));
        assert!(nfa.accepts(&["ReduceF64", "Exchange", "SimSync", "Shutdown"]));
        assert!(nfa.accepts(&[
            "ReduceF64",
            "Exchange",
            "SimSync",
            "Exchange",
            "SimSync",
            "Shutdown"
        ]));
        // Mutations: dropped op, reorder, missing shutdown, trailing junk.
        assert!(!nfa.accepts(&["Exchange", "SimSync", "Shutdown"]));
        assert!(!nfa.accepts(&["ReduceF64", "SimSync", "Exchange", "Shutdown"]));
        assert!(!nfa.accepts(&["ReduceF64", "Exchange", "SimSync"]));
        assert!(!nfa.accepts(&["ReduceF64", "Shutdown", "Barrier"]));
        // Partial loop iteration (Exchange without SimSync) must not sneak out.
        assert!(!nfa.accepts(&["ReduceF64", "Exchange", "Shutdown"]));
    }

    #[test]
    fn nfa_handles_divergent_return_arm() {
        let spec = ProtocolSpec {
            entry: "e".to_string(),
            protocol: vec![
                SpecNode::Branch(vec![vec![SpecNode::Return], vec![]]),
                SpecNode::Op("Barrier".to_string()),
                SpecNode::Op("Shutdown".to_string()),
            ],
        };
        let nfa = Nfa::from_spec(&spec);
        // Returning arm skips the barrier but still shuts down.
        assert!(nfa.accepts(&["Shutdown"]));
        assert!(nfa.accepts(&["Barrier", "Shutdown"]));
        assert!(!nfa.accepts(&["Barrier"]));
    }
}
