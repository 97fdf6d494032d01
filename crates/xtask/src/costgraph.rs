//! Static communication-cost analysis: the symbolic volume verifier
//! behind rules `M1`/`A1` and the `xtask cost` subcommand.
//!
//! PR 5's phase graph proves the *order* of collectives; this module
//! proves their *volume*. The paper's scalability argument (Fig. 8)
//! rests on per-phase message counts — loading is O(|E|) once,
//! refinement traffic is O(n_local) per iteration, and PR 4's delta
//! compression cut state propagation from O(local_arcs) per iteration
//! to O(deltas). Nothing but a bench-drift snapshot guarded that last
//! property until now. Here an abstract interpretation over the phase
//! graph's own per-function trees (their call argument spans and `for`
//! iterator spans; this module builds no tree of its own) assigns every
//! collective/exchange call site a symbolic cost class:
//!
//! * **payload bound** — the lattice `O(1) ≤ O(deltas) ≤ O(n_local) ≤
//!   O(local_arcs) ≤ Unbounded`, derived from the provenance of the
//!   buffer (for vector collectives) or the enclosing data-bounded
//!   loops (for `send`);
//! * **invocation multiplicity** — `per_run`, `per_level` (inside the
//!   `max_levels` driver loop), `per_iteration` (inside the
//!   `max_inner_iterations` loop), or `rank_tainted_loop` (a loop whose
//!   trip count is rank-local — already an R5 finding, surfaced here so
//!   the spec never understates such a site).
//!
//! Buffer provenance is a deliberately *optimistic* heuristic, like the
//! taint analysis in `phasegraph`: an expression's class is the join of
//! its *recognized* components (a seed table of solver quantities,
//! function parameters, numeric literals, and a per-function assignment
//! fixpoint); unrecognized identifiers are ignored so that slice
//! plumbing such as `cache.out_srcs[off[li]..off[li + 1]]` still
//! classifies as `O(local_arcs)` via the `out_srcs` seed. Only an
//! expression in which *nothing* is recognized becomes `Unbounded` —
//! which is exactly when rule **M1** fires. Rule **A1** is a lexical
//! companion: a `Vec::new()`/`vec![]` grown with `push`/`extend` inside
//! a loop of an `Event::Enter`/`Event::Exit`-bracketed (traced) phase
//! region is a per-iteration allocation on the hot path.
//!
//! The interprocedural walk starts at the solver entry point
//! ([`crate::phasegraph::PROTOCOL_ENTRY_FN`] in
//! [`crate::phasegraph::PROTOCOL_ENTRY_FILE`]), resolves calls with the
//! protocol's `phasegraph::lookup`, and descends through
//! `crates/core/src` only: callees outside the solver crate are opaque
//! (their communication surface is the builtin collective API, which is
//! classified at the caller's call site). The result is emitted as the
//! schema-versioned lockfile `results/cost_spec.json` (`xtask cost`,
//! `--check`/`--update` like `xtask protocol`); the dynamic half of the
//! contract lives in `crates/xtask/tests/cost_conformance.rs`, which
//! maps each class to the solver's per-phase message counters and
//! rejects a seeded state-propagation volume past the O(deltas) bound.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lint::{block_end, is_ident_char, keyword_at, matches_at, skip_ws, Rule};
use crate::phasegraph::{
    analyze_stream, collect_assignments, idents_in, index_fns, is_keyword, load_streams, lookup,
    match_paren, prev_is_ident, read_word, FileInfo, FnDef, FnIndex, PNode, PathStream,
    ProtocolFinding, Span, Stream, PROTOCOL_ENTRY_FILE, PROTOCOL_ENTRY_FN,
};

/// Schema version of `results/cost_spec.json`. Bump when the class
/// lattice, the site grammar, or the JSON layout changes.
///
/// v2: the lattice gained `O(frontier)` between `O(deltas)` and
/// `O(n_local)` — the active-vertex worklist of the frontier-scheduled
/// local-move phase (DESIGN.md §13).
pub const COST_SPEC_SCHEMA_VERSION: u32 = 2;

/// Directories scanned for cost sites. Only the solver crate: runtime
/// internals implement the collectives and would otherwise contribute
/// their channel plumbing as bogus sites.
const COST_DIRS: [&str; 1] = ["crates/core/src"];

// ---------------------------------------------------------------------------
// The cost lattice.
// ---------------------------------------------------------------------------

/// Symbolic payload bound of one site, per phase (for point-to-point
/// sends: messages per exchange phase; for collectives: buffer length
/// per invocation, joined with any enclosing data-bounded loops).
/// Declaration order is lattice order, so `Ord::max` is the join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PayloadClass {
    /// Constant (scalars, rank counts, fixed histogram bins).
    O1,
    /// Bounded by the migration deltas of the iteration (vertices that
    /// changed community).
    ODeltas,
    /// Bounded by the iteration's active-vertex worklist (the frontier,
    /// DESIGN.md §13). Sits between `O(deltas)` and `O(n_local)`:
    /// every mover is active, and every active vertex is local.
    OFrontier,
    /// Bounded by the rank's vertex count at the current level.
    ONLocal,
    /// Bounded by the rank's arc (In-/Out-Table entry) count.
    OLocalArcs,
    /// No recognized bound — always a defect (rule `M1`).
    Unbounded,
}

impl PayloadClass {
    /// Spec spelling; also the vocabulary of the conformance tests.
    pub fn as_str(self) -> &'static str {
        match self {
            PayloadClass::O1 => "O(1)",
            PayloadClass::ODeltas => "O(deltas)",
            PayloadClass::OFrontier => "O(frontier)",
            PayloadClass::ONLocal => "O(n_local)",
            PayloadClass::OLocalArcs => "O(local_arcs)",
            PayloadClass::Unbounded => "Unbounded",
        }
    }
}

/// How often a site runs, relative to the solver driver loops.
/// Declaration order is lattice order (more often = higher).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Multiplicity {
    /// Outside every driver loop.
    PerRun,
    /// Inside the `max_levels` loop (Algorithm 2's outer loop).
    PerLevel,
    /// Inside the `max_inner_iterations` loop (Algorithm 3).
    PerIteration,
    /// Inside a loop with a rank-local trip count (an R5 hazard; the
    /// spec records it so the bound is never silently understated).
    RankTainted,
}

impl Multiplicity {
    /// Stable string form used in `cost_spec.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Multiplicity::PerRun => "per_run",
            Multiplicity::PerLevel => "per_level",
            Multiplicity::PerIteration => "per_iteration",
            Multiplicity::RankTainted => "rank_tainted_loop",
        }
    }
}

/// Abstract class of an expression: an optional ground bound joined
/// with the (still-unbound) function parameters it derives from. A
/// value with neither is *unknown* — nothing about it was recognized.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AbsClass {
    base: Option<PayloadClass>,
    params: BTreeSet<String>,
}

impl AbsClass {
    fn known(c: PayloadClass) -> Self {
        AbsClass {
            base: Some(c),
            params: BTreeSet::new(),
        }
    }

    /// Nothing recognized: no ground bound, no parameter provenance.
    fn is_unknown(&self) -> bool {
        self.base.is_none() && self.params.is_empty()
    }

    fn join(&mut self, other: &AbsClass) {
        self.base = match (self.base, other.base) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.params.extend(other.params.iter().cloned());
    }
}

/// Ground class of a recognized solver quantity. The table is the
/// analyzer's domain knowledge: it names the buffers and counts the
/// solver actually ships (DESIGN.md §12 documents the heuristic). An
/// identifier absent here is either bound through a parameter or an
/// assignment, or contributes nothing to its expression's class.
fn seed_class(w: &str) -> Option<PayloadClass> {
    Some(match w {
        // Migration deltas: the PR 4 steady-state currency.
        "migrated" | "deltas" | "moved" => PayloadClass::ODeltas,
        // The active-vertex worklist of the frontier scheduler (§13).
        "frontier" | "worklist" => PayloadClass::OFrontier,
        // Arc-shaped collections (In-/Out-Table rows, edge chunks).
        "in_table" | "out_table" | "chunk" | "edges" | "triples" | "pairs" | "out_srcs"
        | "arcs" => PayloadClass::OLocalArcs,
        // Vertex-shaped collections and counts. `loads` is the
        // per-vertex arc-load vector the balanced partition builder
        // allreduces once per level boundary (DESIGN.md §15).
        "local_n" | "label" | "labels" | "labels_f64" | "owned" | "distinct" | "local" | "best"
        | "orig_comm" | "srcs" | "tot" | "size_local" | "size_snap" | "internal" | "m_u" | "k"
        | "size" | "loads" => PayloadClass::ONLocal,
        // Constants: rank counts, fixed histogram geometry, scalars.
        "hist" | "bins" | "histogram_bins" | "p" | "ranks" | "num_ranks" | "counts" | "offsets"
        | "dest" | "rank" => PayloadClass::O1,
        _ => return None,
    })
}

/// Class of the expression `stream[s..e]`: the join of every
/// *recognized* component (seeds, environment entries, numeric
/// literals); unrecognized identifiers are skipped. Unknown only when
/// nothing at all is recognized.
fn expr_class(stream: &Stream, s: usize, e: usize, env: &BTreeMap<String, AbsClass>) -> AbsClass {
    let mut acc = AbsClass::default();
    let mut i = s;
    while i < e.min(stream.len()) {
        let c = stream[i].0;
        if is_ident_char(c) && !prev_is_ident(stream, i) {
            let w = read_word(stream, i);
            let len = w.len().max(1);
            if w.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                acc.join(&AbsClass::known(PayloadClass::O1));
            } else if !is_keyword(&w) && w != "_" {
                if let Some(cl) = seed_class(&w) {
                    acc.join(&AbsClass::known(cl));
                } else if let Some(a) = env.get(&w) {
                    acc.join(&a.clone());
                }
            }
            i += len;
        } else {
            i += 1;
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Per-function classification over the phase graph's trees.
// ---------------------------------------------------------------------------

/// Why a loop matters to the cost of the sites it encloses.
#[derive(Clone, Debug)]
enum LoopMark {
    /// The `max_levels` driver loop: multiplicity becomes `per_level`.
    Level,
    /// The `max_inner_iterations` loop: `per_iteration`.
    Iteration,
    /// Rank-local trip count: `rank_tainted_loop`.
    Tainted,
    /// Data-bounded loop: its class joins enclosed payload bounds.
    Data(AbsClass),
}

impl LoopMark {
    /// The multiplicity this loop gives the sites inside it (a
    /// data-bounded loop leaves it alone).
    fn multiplicity(&self) -> Multiplicity {
        match self {
            LoopMark::Level => Multiplicity::PerLevel,
            LoopMark::Iteration => Multiplicity::PerIteration,
            LoopMark::Tainted => Multiplicity::RankTainted,
            LoopMark::Data(_) => Multiplicity::PerRun,
        }
    }
}

/// The communication surface classified at [`PNode::Api`] sites: the
/// runtime API minus the structural `exchange`/`finish` pair. Each entry
/// carries whether its first argument is a payload buffer.
const SITE_OPS: [(&str, bool); 9] = [
    ("barrier", false),
    ("allreduce_sum", false),
    ("allreduce_max", false),
    ("allreduce_sum_u64", false),
    ("allreduce_sum_vec", true),
    ("allgather_f64", true),
    ("sim_sync", false),
    ("sim_time_units", false),
    ("send", false),
];

fn site_op(w: &str) -> Option<bool> {
    SITE_OPS
        .iter()
        .find(|&&(name, _)| name == w)
        .map(|&(_, vec_payload)| vec_payload)
}

/// Split a call's argument span `[s, e)` at top-level commas.
fn split_args(stream: &Stream, s: usize, e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = skip_ws(stream, s);
    if start >= e {
        return out;
    }
    let mut i = start;
    while i < e {
        let c = stream[i].0;
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push((start, i));
                start = skip_ws(stream, i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    if start < e {
        out.push((start, e));
    }
    out
}

/// Does the argument span hold an array literal (`&[..]`/`[..]`)? Those
/// are fixed-arity buffers — `O(1)` regardless of element provenance
/// (e.g. `&[owned.len() as f64]`).
fn is_array_literal(stream: &Stream, s: usize, e: usize) -> bool {
    let mut i = skip_ws(stream, s);
    if i < e && stream[i].0 == '&' {
        i = skip_ws(stream, i + 1);
    }
    i < e && stream[i].0 == '['
}

/// Mark for one loop: for a `for` loop, driver-loop identifiers in its
/// iterator first, then the R5 taint flag, then the iterator's data
/// class. A `while` trip count is opaque to the quantity seeds: a
/// tainted condition is an R5-class hazard, and any other `while` (or a
/// bare `loop`) is conservatively unknown-bounded.
fn loop_mark(
    stream: &Stream,
    iter: Option<Span>,
    tainted: bool,
    env: &BTreeMap<String, AbsClass>,
) -> LoopMark {
    let Some((s, e)) = iter else {
        return if tainted {
            LoopMark::Tainted
        } else {
            LoopMark::Data(AbsClass::default())
        };
    };
    let ids = idents_in(stream, s, e);
    if ids.iter().any(|w| w == "max_levels") {
        return LoopMark::Level;
    }
    if ids.iter().any(|w| w == "max_inner_iterations") {
        return LoopMark::Iteration;
    }
    if tainted {
        return LoopMark::Tainted;
    }
    LoopMark::Data(expr_class(stream, s, e, env))
}

/// Abstract payload of an [`PNode::Api`] call; `None` when the call is
/// not a cost site (the structural `exchange`/`finish` pair). For `send`
/// and scalar collectives: `O(1)` (a send's volume comes from the loop
/// marks). For vector collectives: the buffer argument's class.
fn site_payload(
    stream: &Stream,
    name: &str,
    args: Span,
    env: &BTreeMap<String, AbsClass>,
) -> Option<AbsClass> {
    let vec_payload = site_op(name)?;
    let args = split_args(stream, args.0, args.1);
    let fixed = |&(s, e): &Span| is_array_literal(stream, s, e);
    Some(if !vec_payload || args.first().is_some_and(fixed) {
        AbsClass::known(PayloadClass::O1)
    } else {
        args.first()
            .map(|&(s, e)| expr_class(stream, s, e, env))
            .unwrap_or_default()
    })
}

/// Walk a function's phase-graph tree the way the cost analysis sees
/// it: branches flatten (a site on any arm is a site), the arguments of
/// `emit_with` are skipped (tracing closures never run in a production
/// build), and `f` meets every `Api` node and every call, after the
/// call's argument nodes, with the marks of the loops around it.
fn cost_walk<'t, F: FnMut(&'t PNode, &[LoopMark])>(
    stream: &Stream,
    env: &BTreeMap<String, AbsClass>,
    nodes: &'t [PNode],
    marks: &mut Vec<LoopMark>,
    f: &mut F,
) {
    for n in nodes {
        match n {
            PNode::Call { name, .. } if name == "emit_with" => {}
            PNode::Loop {
                body,
                tainted,
                iter,
                ..
            } => {
                marks.push(loop_mark(stream, *iter, *tainted, env));
                cost_walk(stream, env, body, marks, f);
                marks.pop();
            }
            _ => {
                for kids in n.children() {
                    cost_walk(stream, env, kids, marks, f);
                }
                if let PNode::Api { .. } | PNode::Call { .. } = n {
                    f(n, marks);
                }
            }
        }
    }
}

/// Build the per-function environment: parameters are parametric (with
/// a seed bound when their name is a recognized quantity), then the
/// assignment fixpoint propagates classes through `let`/`for` patterns
/// and compound assignments. Seeds are immutable.
fn build_env(stream: &Stream, f: &FnDef) -> BTreeMap<String, AbsClass> {
    let mut env: BTreeMap<String, AbsClass> = BTreeMap::new();
    for names in &f.params {
        for n in names {
            let mut a = AbsClass {
                base: seed_class(n),
                params: BTreeSet::new(),
            };
            a.params.insert(n.clone());
            env.insert(n.clone(), a);
        }
    }
    let body = (f.body_open + 1, f.body_end.saturating_sub(1));
    let assigns = collect_assignments(stream, body.0, body.1);
    for _ in 0..16 {
        let mut changed = false;
        for a in &assigns {
            let cls = expr_class(stream, a.rhs.0, a.rhs.1, &env);
            if cls.is_unknown() {
                continue;
            }
            for l in &a.lhs {
                if seed_class(l).is_some() {
                    continue;
                }
                let entry = env.entry(l.clone()).or_default();
                let before = entry.clone();
                entry.join(&cls);
                changed |= *entry != before;
            }
        }
        if !changed {
            break;
        }
    }
    env
}

// ---------------------------------------------------------------------------
// Site resolution (shared by the spec walk and rule M1).
// ---------------------------------------------------------------------------

/// Resolve an abstract class against a caller binding: the ground base
/// joined with every *bound* parameter; `None` when nothing resolves.
fn resolve_abs(a: &AbsClass, binding: &BTreeMap<String, PayloadClass>) -> Option<PayloadClass> {
    let mut acc = a.base;
    for p in &a.params {
        if let Some(&c) = binding.get(p) {
            acc = Some(acc.map_or(c, |x| x.max(c)));
        }
    }
    acc
}

/// Is this site's payload `Unbounded` under the optimistic rule? Unbound
/// parameters are assumed caller-bounded; only a fully unknown
/// component (no base, no parameter provenance) is a defect.
fn site_unbounded(payload: &AbsClass, marks: &[LoopMark]) -> bool {
    payload.is_unknown()
        || marks
            .iter()
            .any(|m| matches!(m, LoopMark::Data(a) if a.is_unknown()))
}

// ---------------------------------------------------------------------------
// Lint rules M1 / A1 (single-file mode).
// ---------------------------------------------------------------------------

/// Rule M1 over one file's phase-graph trees.
fn check_m1(stream: &Stream, file: &FileInfo, out: &mut Vec<ProtocolFinding>) {
    for (f, tree) in file.fns.iter().zip(&file.nodes) {
        let env = build_env(stream, f);
        cost_walk(stream, &env, tree, &mut Vec::new(), &mut |node, marks| {
            let PNode::Api {
                name, line, args, ..
            } = node
            else {
                return;
            };
            let Some(payload) = site_payload(stream, name, *args, &env) else {
                return;
            };
            if site_unbounded(&payload, marks) {
                out.push(ProtocolFinding {
                    line: *line,
                    rule: Rule::M1,
                    message: format!(
                        "collective payload classified `Unbounded`: this `{name}` ships a \
                         volume derived from no recognized solver quantity (bound the \
                         buffer or loop by a seeded/parametric quantity, or extend the \
                         seed table in crates/xtask/src/costgraph.rs)"
                    ),
                });
            }
        });
    }
}

/// Locate every `emit_with(..)` argument span and classify it:
/// `Some(true)` for `Event::Enter`, `Some(false)` for `Event::Exit`,
/// `None` for counters and other events. Shared by the A1 and X1
/// passes, which both reason about `Enter`-to-`Exit` traced regions.
fn emit_spans(stream: &Stream) -> Vec<(usize, usize, Option<bool>)> {
    let mut spans: Vec<(usize, usize, Option<bool>)> = Vec::new(); // (open, close, enter?)
    let mut i = 0usize;
    while i < stream.len() {
        if is_ident_char(stream[i].0) && !prev_is_ident(stream, i) {
            let w = read_word(stream, i);
            if w == "emit_with" {
                let after = skip_ws(stream, i + w.len());
                if stream.get(after).map(|&(c, _)| c) == Some('(') {
                    let close = match_paren(stream, after);
                    let mut kind = None;
                    let mut j = after;
                    while j + 1 < close {
                        if stream[j].0 == ':' && stream[j + 1].0 == ':' {
                            let name = read_word(stream, skip_ws(stream, j + 2));
                            if name == "Enter" {
                                kind = Some(true);
                                break;
                            }
                            if name == "Exit" {
                                kind = Some(false);
                                break;
                            }
                        }
                        j += 1;
                    }
                    spans.push((after, close, kind));
                    i = close;
                    continue;
                }
            }
            i += w.len().max(1);
            continue;
        }
        i += 1;
    }
    spans
}

/// Find the first `{` at paren/bracket nesting depth 0 in `[s, e)`.
fn brace_at_depth0(stream: &Stream, s: usize, e: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = s;
    while i < e {
        match stream[i].0 {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '{' if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Rule A1: per-iteration allocation inside a traced phase region.
/// Lexical pass: regions are `emit_with(.. Event::Enter ..)` to the
/// next `emit_with(.. Event::Exit ..)`; inside, any loop body that
/// binds `Vec::new()`/`vec![]` and grows it with `push`/`extend`
/// without an intervening `reserve` is a hot-path allocation.
fn check_a1(stream: &Stream) -> Vec<ProtocolFinding> {
    let spans = emit_spans(stream);
    let in_emit_span = |pos: usize| spans.iter().any(|&(s, e, _)| pos >= s && pos < e);
    let mut out = Vec::new();
    for (ei, &(_, enter_end, kind)) in spans.iter().enumerate() {
        if kind != Some(true) {
            continue;
        }
        let Some(&(exit_start, _, _)) = spans[ei + 1..].iter().find(|&&(_, _, k)| k == Some(false))
        else {
            continue;
        };
        // Scan the bracketed region for loops.
        let mut i = enter_end;
        while i < exit_start {
            let is_loop = keyword_at(stream, i, "for")
                || keyword_at(stream, i, "while")
                || keyword_at(stream, i, "loop");
            if !is_loop {
                i += 1;
                continue;
            }
            let Some(open) = brace_at_depth0(stream, i + 3, exit_start) else {
                i += 3;
                continue;
            };
            let end = block_end(stream, open).min(exit_start);
            check_a1_loop_body(
                stream,
                open + 1,
                end.saturating_sub(1),
                &in_emit_span,
                &mut out,
            );
            // Step inside: nested loops get their own scan.
            i = open + 1;
        }
    }
    out
}

fn check_a1_loop_body(
    stream: &Stream,
    s: usize,
    e: usize,
    in_emit_span: &dyn Fn(usize) -> bool,
    out: &mut Vec<ProtocolFinding>,
) {
    let mut i = s;
    while i < e {
        if !keyword_at(stream, i, "let") || in_emit_span(i) {
            i += 1;
            continue;
        }
        // `let <pat> = Vec::new()` / `= vec![]` (empty literal only).
        let mut j = i + 3;
        let mut depth = 0i32;
        let mut eq = None;
        while j < e {
            match stream[j].0 {
                '(' | '[' | '<' => depth += 1,
                ')' | ']' => depth -= 1,
                '>' if stream[j - 1].0 != '-' && stream[j - 1].0 != '=' => depth -= 1,
                '=' if depth == 0 && stream.get(j + 1).map(|&(c, _)| c) != Some('=') => {
                    eq = Some(j);
                    break;
                }
                ';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i += 3;
            continue;
        };
        let names = idents_in(stream, i + 3, eq);
        let Some(name) = names.first() else {
            i = eq + 1;
            continue;
        };
        let r = skip_ws(stream, eq + 1);
        let empty_vec_new = matches_at(stream, r, "Vec")
            && matches_at(stream, skip_ws(stream, r + 3), "::")
            && matches_at(stream, skip_ws(stream, skip_ws(stream, r + 3) + 2), "new");
        let vec_macro_at = matches_at(stream, r, "vec")
            && stream.get(skip_ws(stream, r + 3)).map(|&(c, _)| c) == Some('!');
        let empty_vec_macro = vec_macro_at && {
            let bang = skip_ws(stream, r + 3);
            let open = skip_ws(stream, bang + 1);
            stream.get(open).map(|&(c, _)| c) == Some('[')
                && stream.get(skip_ws(stream, open + 1)).map(|&(c, _)| c) == Some(']')
        };
        if !empty_vec_new && !empty_vec_macro {
            i = eq + 1;
            continue;
        }
        // Growth without a dominating reserve, outside tracing spans.
        let stmt_end = expr_stmt_end(stream, eq + 1, e);
        let mut grown = None;
        let mut k = stmt_end;
        while k < e {
            if let Some(m) = method_on(stream, k, name) {
                if (m == "push" || m == "extend") && !in_emit_span(k) {
                    grown = Some(k);
                    break;
                }
                if m == "reserve" || m == "reserve_exact" {
                    break;
                }
            }
            k += 1;
        }
        if grown.is_some() {
            out.push(ProtocolFinding {
                line: stream[i].1,
                rule: Rule::A1,
                message: format!(
                    "`{name}` is allocated with `Vec::new`/`vec![]` and grown inside a loop \
                     of a traced phase region: this allocates every iteration on the hot \
                     path (hoist the buffer out of the loop, or size it up front with \
                     `with_capacity`/`reserve`)"
                ),
            });
        }
        i = stmt_end;
    }
}

/// The call names rule X1 treats as checkpoint I/O: the
/// `CheckpointStore` slot surface plus the solver's serialization
/// helpers. `checkpoint_due` is deliberately absent — the cadence
/// predicate is pure arithmetic and is *expected* inside the driver
/// loop.
const X1_CHECKPOINT_IO: [&str; 4] = [
    "save_slot",
    "read_slot",
    "write_level_checkpoint",
    "take_resume_state",
];

/// Rule X1: no checkpoint I/O inside a traced phase region. Regions
/// are the same `Event::Enter`-to-`Event::Exit` brackets the A1 pass
/// scans; inside one, any call to the checkpoint surface
/// ([`X1_CHECKPOINT_IO`]) serializes rank state on the measured hot
/// path and skews the per-phase clock attribution (Figure 8). The
/// solver takes checkpoints at level boundaries, after the
/// reconstruction `Exit` — this rule keeps it that way.
fn check_x1(stream: &Stream) -> Vec<ProtocolFinding> {
    let spans = emit_spans(stream);
    let mut out = Vec::new();
    for (ei, &(_, enter_end, kind)) in spans.iter().enumerate() {
        if kind != Some(true) {
            continue;
        }
        let Some(&(exit_start, _, _)) = spans[ei + 1..].iter().find(|&&(_, _, k)| k == Some(false))
        else {
            continue;
        };
        let mut i = enter_end;
        while i < exit_start {
            if !is_ident_char(stream[i].0) || prev_is_ident(stream, i) {
                i += 1;
                continue;
            }
            let w = read_word(stream, i);
            let after = skip_ws(stream, i + w.len());
            let is_call = stream.get(after).map(|&(c, _)| c) == Some('(');
            if is_call && X1_CHECKPOINT_IO.contains(&w.as_str()) {
                out.push(ProtocolFinding {
                    line: stream[i].1,
                    rule: Rule::X1,
                    message: format!(
                        "checkpoint I/O `{w}(..)` inside a traced phase region: \
                         serializing rank state between `Event::Enter` and \
                         `Event::Exit` charges bookkeeping to the phase clock and \
                         distorts the per-phase breakdown (move the call to the \
                         level boundary, outside every traced bracket)"
                    ),
                });
            }
            i += w.len().max(1);
        }
    }
    out
}

/// First `;` at depth 0 after `s` (statement end), capped at `e`.
fn expr_stmt_end(stream: &Stream, s: usize, e: usize) -> usize {
    let mut depth = 0i32;
    let mut i = s;
    while i < e {
        match stream[i].0 {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    e
}

/// If `stream[i..]` is `<name>.<method>(`, return the method name.
fn method_on(stream: &Stream, i: usize, name: &str) -> Option<String> {
    if !matches_at(stream, i, name) || prev_is_ident(stream, i) {
        return None;
    }
    let after = i + name.len();
    if stream.get(after).map(|&(c, _)| c) != Some('.') {
        return None;
    }
    let m = read_word(stream, after + 1);
    if m.is_empty() {
        return None;
    }
    let paren = skip_ws(stream, after + 1 + m.len());
    if stream.get(paren).map(|&(c, _)| c) == Some('(') {
        Some(m)
    } else {
        None
    }
}

/// Run the cost checks (M1 payload classification over the file's
/// phase-graph trees, A1 hot-loop allocation, X1 checkpoint placement)
/// over one file's stripped stream. Same-file scope only — the
/// interprocedural mode is the spec extraction.
pub(crate) fn check_stream_cost(stream: &Stream, file: &FileInfo) -> Vec<ProtocolFinding> {
    let mut out = Vec::new();
    check_m1(stream, file, &mut out);
    out.extend(check_a1(stream));
    out.extend(check_x1(stream));
    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

// ---------------------------------------------------------------------------
// The workspace cost spec.
// ---------------------------------------------------------------------------

/// One classified communication site of the committed spec. Fields are
/// public so the conformance tests can build seeded mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostSite {
    /// Stable identity: `<file>::<fn>#<source-order ordinal>`.
    pub site: String,
    /// The collective/exchange method classified at this site.
    pub op: String,
    /// Payload bound (a [`PayloadClass`] spelling).
    pub payload: String,
    /// Invocation multiplicity (a [`Multiplicity`] spelling).
    pub multiplicity: String,
}

/// The schema-versioned communication-cost spec, the `xtask cost`
/// lockfile (`results/cost_spec.json`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostSpec {
    /// `file::fn` of the analysis entry point.
    pub entry: String,
    /// Every reachable communication site, sorted by (file, fn, ordinal).
    pub sites: Vec<CostSite>,
}

impl CostSpec {
    /// Byte-stable serialization: fixed field order, 2-space indent,
    /// trailing newline — the committed artifact `xtask cost --check`
    /// byte-compares.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema_version\": {COST_SPEC_SCHEMA_VERSION},\n"
        ));
        s.push_str(&format!("  \"entry\": \"{}\",\n", self.entry));
        s.push_str("  \"sites\": [\n");
        for (i, site) in self.sites.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"site\": \"{}\",\n", site.site));
            s.push_str(&format!("      \"op\": \"{}\",\n", site.op));
            s.push_str(&format!("      \"payload\": \"{}\",\n", site.payload));
            s.push_str(&format!(
                "      \"multiplicity\": \"{}\"\n",
                site.multiplicity
            ));
            s.push_str(if i + 1 == self.sites.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Aggregated classification of one site across all call paths.
struct SiteAgg {
    op: String,
    payload: PayloadClass,
    mult: Multiplicity,
}

/// One function's classification context.
struct FnCost {
    env: BTreeMap<String, AbsClass>,
    /// Stream positions of its sites, ascending: a site's ordinal is its
    /// index here, so a site the tree holds twice (a `while` condition)
    /// keeps one identity.
    sites: Vec<usize>,
}

struct CostAnalysis {
    streams: Vec<PathStream>,
    files: Vec<FileInfo>,
    by_name: FnIndex,
    fns: Vec<Vec<FnCost>>,
}

impl CostAnalysis {
    fn new(streams: Vec<PathStream>) -> Self {
        let files: Vec<FileInfo> = streams.iter().map(|(p, s)| analyze_stream(p, s)).collect();
        let fns = files
            .iter()
            .zip(&streams)
            .map(|(file, (_, stream))| {
                file.fns
                    .iter()
                    .zip(&file.nodes)
                    .map(|(f, tree)| {
                        let env = build_env(stream, f);
                        let mut sites = Vec::new();
                        cost_walk(stream, &env, tree, &mut Vec::new(), &mut |n, _| {
                            if let PNode::Api { name, args, .. } = n {
                                if site_op(name).is_some() {
                                    sites.push(args.0);
                                }
                            }
                        });
                        sites.sort_unstable();
                        sites.dedup();
                        FnCost { env, sites }
                    })
                    .collect()
            })
            .collect();
        CostAnalysis {
            by_name: index_fns(&files),
            streams,
            files,
            fns,
        }
    }

    /// Classify every site reachable from function `(fi, gi)` into
    /// `out`. `binding` maps its parameters to their classes at this
    /// call, `inherited` holds the resolved data loops around the call,
    /// `mult` the call's multiplicity, and `stack` the active call chain
    /// (recursion is cut). Several candidate callees make a call opaque.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        fi: usize,
        gi: usize,
        binding: &BTreeMap<String, PayloadClass>,
        inherited: &[PayloadClass],
        mult: Multiplicity,
        stack: &mut Vec<(usize, usize)>,
        out: &mut BTreeMap<(String, String, usize), SiteAgg>,
    ) {
        let stream = &self.streams[fi].1;
        let fc = &self.fns[fi][gi];
        let tree = &self.files[fi].nodes[gi];
        let mut visit = |node: &PNode, marks: &[LoopMark]| {
            let mult = marks
                .iter()
                .fold(mult, |m, mark| m.max(mark.multiplicity()));
            let data = marks.iter().filter_map(|m| match m {
                LoopMark::Data(a) => {
                    Some(resolve_abs(a, binding).unwrap_or(PayloadClass::Unbounded))
                }
                _ => None,
            });
            match node {
                PNode::Api { name, args, .. } => {
                    let Some(payload) = site_payload(stream, name, *args, &fc.env) else {
                        return;
                    };
                    let p = resolve_abs(&payload, binding).unwrap_or(PayloadClass::Unbounded);
                    let p = data.fold(p, Ord::max);
                    let p = inherited.iter().fold(p, |a, &c| a.max(c));
                    let key = (
                        self.files[fi].path.clone(),
                        self.files[fi].fns[gi].name.clone(),
                        fc.sites.partition_point(|&s| s < args.0),
                    );
                    let agg = out.entry(key).or_insert_with(|| SiteAgg {
                        op: name.clone(),
                        payload: PayloadClass::O1,
                        mult: Multiplicity::PerRun,
                    });
                    agg.payload = agg.payload.max(p);
                    agg.mult = agg.mult.max(mult);
                }
                PNode::Call {
                    name, method, args, ..
                } => {
                    let cands = lookup(&self.files, &self.by_name, fi, name, *method);
                    let &[callee] = cands.as_slice() else {
                        return;
                    };
                    if stack.contains(&callee) {
                        return;
                    }
                    let args = split_args(stream, args.0, args.1);
                    let mut child_binding = BTreeMap::new();
                    let params = &self.files[callee.0].fns[callee.1].params;
                    for (names, &(s, e)) in params.iter().zip(&args) {
                        if let Some(c) = resolve_abs(&expr_class(stream, s, e, &fc.env), binding) {
                            for n in names {
                                child_binding.insert(n.clone(), c);
                            }
                        }
                    }
                    // Data loops around the call keep multiplying the
                    // callee's volume: pass them down resolved.
                    let child_inherited: Vec<PayloadClass> =
                        inherited.iter().copied().chain(data).collect();
                    stack.push(callee);
                    self.walk(
                        callee.0,
                        callee.1,
                        &child_binding,
                        &child_inherited,
                        mult,
                        stack,
                        out,
                    );
                    stack.pop();
                }
                _ => {}
            }
        };
        cost_walk(stream, &fc.env, tree, &mut Vec::new(), &mut visit);
    }
}

/// Extract the workspace cost spec: classify every communication site
/// reachable from the solver entry point, joined over all call paths.
///
/// # Errors
/// I/O failures or a missing entry point abort the extraction.
pub fn extract_cost_spec(root: &Path) -> Result<CostSpec, String> {
    let an = CostAnalysis::new(load_streams(root, &COST_DIRS)?);
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
    let mut out = BTreeMap::new();
    an.walk(
        fi,
        gi,
        &BTreeMap::new(),
        &[],
        Multiplicity::PerRun,
        &mut vec![(fi, gi)],
        &mut out,
    );
    let sites = out
        .into_iter()
        .map(|((file, fn_name, ordinal), agg)| CostSite {
            site: format!("{file}::{fn_name}#{ordinal}"),
            op: agg.op,
            payload: agg.payload.as_str().to_string(),
            multiplicity: agg.mult.as_str().to_string(),
        })
        .collect();
    Ok(CostSpec {
        entry: format!("{PROTOCOL_ENTRY_FILE}::{PROTOCOL_ENTRY_FN}"),
        sites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{code_stream_masked, scan_lines, test_region_mask};

    fn stream_of(src: &str) -> Vec<(char, usize)> {
        let lines = scan_lines(src);
        let mask = test_region_mask(&lines);
        code_stream_masked(&lines, &mask)
    }

    fn findings_of(src: &str) -> Vec<(usize, Rule)> {
        let stream = stream_of(src);
        check_stream_cost(&stream, &analyze_stream("", &stream))
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn payload_lattice_order_matches_volume_order() {
        assert!(PayloadClass::O1 < PayloadClass::ODeltas);
        assert!(PayloadClass::ODeltas < PayloadClass::OFrontier);
        assert!(PayloadClass::OFrontier < PayloadClass::ONLocal);
        assert!(PayloadClass::ONLocal < PayloadClass::OLocalArcs);
        assert!(PayloadClass::OLocalArcs < PayloadClass::Unbounded);
        assert!(Multiplicity::PerRun < Multiplicity::PerLevel);
        assert!(Multiplicity::PerLevel < Multiplicity::PerIteration);
        assert!(Multiplicity::PerIteration < Multiplicity::RankTainted);
    }

    #[test]
    fn send_in_seeded_loop_is_bounded_and_clean() {
        let src = r"
fn f(ctx: &mut Ctx, out_table: &Table) {
    let mut ex = ctx.exchange();
    for (key, w) in out_table.iter() {
        ex.send(0, key);
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn send_in_unrecognized_loop_fires_m1() {
        let src = r"
fn f(ctx: &mut Ctx) {
    let mut ex = ctx.exchange();
    for x in mystery_frontier.iter() {
        ex.send(0, x);
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), vec![(5, Rule::M1)]);
    }

    #[test]
    fn vec_collective_with_unrecognized_buffer_fires_m1() {
        let src = r"
fn f(ctx: &mut Ctx) {
    let gathered = ctx.allgather_f64(&scratchpad);
    let in_macro = vec![ctx.allgather_f64(&scratchpad)];
}
";
        // A macro body is code too: its site is classified like any other.
        assert_eq!(findings_of(src), vec![(3, Rule::M1), (4, Rule::M1)]);
    }

    #[test]
    fn array_literal_buffer_is_o1() {
        let src = r"
fn f(ctx: &mut Ctx, owned: &[u32]) {
    let counts = ctx.allgather_f64(&[owned.len() as f64]);
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn unbound_parameter_is_optimistically_clean() {
        // `buffer` is not a seed, but it is a parameter: the caller is
        // assumed to pass something bounded (M1 stays quiet, like the
        // call-results-are-replicated fiat in the taint analysis).
        let src = r"
fn gather(ctx: &mut Ctx, buffer: &[f64]) -> Vec<f64> {
    ctx.allgather_f64(buffer)
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn alloc_grown_in_traced_loop_fires_a1() {
        let src = r#"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    for e in edges.iter() {
        let mut acc = Vec::new();
        acc.push(e);
        consume(acc);
    }
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), vec![(5, Rule::A1)]);
    }

    #[test]
    fn reserve_before_growth_suppresses_a1() {
        let src = r#"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    for e in edges.iter() {
        let mut acc = Vec::new();
        acc.reserve(8);
        acc.push(e);
        consume(acc);
    }
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn alloc_outside_traced_region_is_not_a1() {
        let src = r"
fn f(edges: &[u32]) {
    for e in edges.iter() {
        let mut acc = Vec::new();
        acc.push(e);
        consume(acc);
    }
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn emit_with_closure_allocations_are_skipped() {
        // Allocations and collectives inside tracing closures never run
        // in production builds: neither M1 nor A1 may fire on them.
        let src = r#"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    louvain_trace::emit_with(|| Event::Enter { phase: "x", clock: 0 });
    for e in edges.iter() {
        louvain_trace::emit_with(|| {
            let mut dbg = Vec::new();
            dbg.push(e);
            let probe = ctx.allgather_f64(&scratchpad);
            Event::Count { name: "n", value: dbg.len() as u64 }
        });
        work(e);
    }
    louvain_trace::emit_with(|| Event::Exit { phase: "x", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn labeled_break_does_not_confuse_the_walker() {
        let src = r"
fn f(ctx: &mut Ctx, edges: &[u32]) {
    let mut ex = ctx.exchange();
    'outer: for e in edges.iter() {
        for d in edges.iter() {
            if d == e {
                break 'outer;
            }
            ex.send(0, d);
        }
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn while_loop_with_send_is_unbounded() {
        let src = r"
fn f(ctx: &mut Ctx) {
    let mut ex = ctx.exchange();
    while has_work() {
        ex.send(0, 1);
    }
    ex.finish(|_| {});
}
";
        assert_eq!(findings_of(src), vec![(5, Rule::M1)]);
    }

    #[test]
    fn assignment_fixpoint_propagates_classes() {
        // `snapshot` inherits O(n_local) from `labels` through a `let`,
        // so the allgather is bounded.
        let src = r"
fn f(ctx: &mut Ctx, labels: &[f64]) {
    let snapshot = labels.to_vec();
    let gathered = ctx.allgather_f64(&snapshot);
}
";
        assert_eq!(findings_of(src), Vec::new());
    }

    #[test]
    fn checkpoint_io_inside_traced_region_fires_x1() {
        let src = r#"
fn f(ctx: &mut Ctx, store: &CheckpointStore) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    let bytes = store.save_slot(&cp);
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), vec![(4, Rule::X1)]);
    }

    #[test]
    fn checkpoint_helper_call_inside_traced_region_fires_x1() {
        let src = r#"
fn f(ctx: &mut Ctx, store: &CheckpointStore) {
    louvain_trace::emit_with(|| Event::Enter { phase: "reconstruction", clock: 0 });
    let bytes = write_level_checkpoint(store, ctx);
    louvain_trace::emit_with(|| Event::Exit { phase: "reconstruction", clock: 0 });
}
"#;
        assert_eq!(findings_of(src), vec![(4, Rule::X1)]);
    }

    #[test]
    fn checkpoint_io_outside_traced_region_is_clean() {
        // The sanctioned placement: cadence predicate inside the loop,
        // I/O after the phase Exit — exactly the level-boundary hook.
        let src = r#"
fn f(ctx: &mut Ctx, store: &CheckpointStore) {
    louvain_trace::emit_with(|| Event::Enter { phase: "refine", clock: 0 });
    work(ctx);
    louvain_trace::emit_with(|| Event::Exit { phase: "refine", clock: 0 });
    if checkpoint_due(cfg, level_idx) {
        let bytes = write_level_checkpoint(store, ctx);
    }
}
"#;
        assert_eq!(findings_of(src), Vec::new());
    }

    /// The cost spec of a one-file workspace whose `src` holds the
    /// solver entry point, as `(site, op, payload, multiplicity)`.
    fn spec_sites(tag: &str, src: &str) -> Vec<(String, String, String, String)> {
        let root = std::env::temp_dir().join(format!("xtask-cost-{}-{tag}", std::process::id()));
        let entry = root.join(PROTOCOL_ENTRY_FILE);
        std::fs::create_dir_all(entry.parent().unwrap()).unwrap();
        std::fs::write(&entry, src).unwrap();
        let spec = extract_cost_spec(&root);
        std::fs::remove_dir_all(&root).unwrap();
        spec.unwrap()
            .sites
            .into_iter()
            .map(|s| (s.site, s.op, s.payload, s.multiplicity))
            .collect()
    }

    fn site(name: &str, op: &str, payload: &str, mult: &str) -> (String, String, String, String) {
        let site = format!("{PROTOCOL_ENTRY_FILE}::{name}");
        (site, op.to_string(), payload.to_string(), mult.to_string())
    }

    #[test]
    fn sites_in_call_arguments_keep_source_order_ordinals() {
        let src = r"
fn rank_main(ctx: &mut Ctx, labels: &[f64]) {
    ctx.barrier();
    consume(ctx.allgather_f64(labels));
    ctx.sim_sync();
}
";
        assert_eq!(
            spec_sites("args", src),
            vec![
                site("rank_main#0", "barrier", "O(1)", "per_run"),
                site("rank_main#1", "allgather_f64", "O(n_local)", "per_run"),
                site("rank_main#2", "sim_sync", "O(1)", "per_run"),
            ]
        );
    }

    #[test]
    fn loop_header_sites_count_and_nested_fn_sites_stay_in_their_fn() {
        // The `while` condition runs on every test (inside the rank-local
        // loop), the `for` iterator once, and `inner`'s barrier belongs
        // to `inner` alone.
        let src = r"
fn rank_main(ctx: &mut Ctx, labels: &[f64]) {
    fn inner(ctx: &mut Ctx) {
        ctx.barrier();
    }
    let mut left = ctx.rank();
    while left > 0 && ctx.allreduce_sum(1.0) > 0.0 {
        left -= 1;
    }
    for x in ctx.allgather_f64(labels) {
        consume(x);
    }
    inner(ctx);
}
";
        assert_eq!(
            spec_sites("headers", src),
            vec![
                site("inner#0", "barrier", "O(1)", "per_run"),
                site("rank_main#0", "allreduce_sum", "O(1)", "rank_tainted_loop"),
                site("rank_main#1", "allgather_f64", "O(n_local)", "per_run"),
            ]
        );
    }

    #[test]
    fn per_arc_send_in_the_inner_loop_is_local_arcs_per_iteration() {
        // A per-arc state rebuild — every local vertex announcing its
        // label along every out-arc, every inner iteration — is the
        // volume the delta path replaced: the spec must say so.
        let src = r"
fn rank_main(ctx: &mut Ctx, cfg: &Cfg, table: &Table, local_n: usize) {
    for iter in 1..=cfg.max_inner_iterations {
        let mut ex = ctx.exchange();
        for li in 0..local_n {
            for &s in table.out_srcs(li) {
                ex.send(owner(s), li);
            }
        }
        ex.finish(|_| {});
    }
}
";
        assert_eq!(
            spec_sites("per-arc", src),
            vec![site(
                "rank_main#0",
                "send",
                "O(local_arcs)",
                "per_iteration"
            )]
        );
    }

    #[test]
    fn spec_json_is_byte_stable_and_versioned() {
        let spec = CostSpec {
            entry: "a.rs::main".to_string(),
            sites: vec![
                CostSite {
                    site: "a.rs::main#0".to_string(),
                    op: "send".to_string(),
                    payload: "O(local_arcs)".to_string(),
                    multiplicity: "per_run".to_string(),
                },
                CostSite {
                    site: "a.rs::main#1".to_string(),
                    op: "allreduce_sum".to_string(),
                    payload: "O(1)".to_string(),
                    multiplicity: "per_level".to_string(),
                },
            ],
        };
        let j = spec.to_json();
        assert_eq!(j, spec.to_json());
        assert!(j.starts_with("{\n  \"schema_version\": 2,\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"site\": \"a.rs::main#0\""));
        assert!(j.contains("\"payload\": \"O(local_arcs)\""));
        assert!(j.contains("\"multiplicity\": \"per_level\""));
    }
}
