//! The interprocedural passes over the workspace symbol graph:
//!
//! * **determinism taint** — nondeterminism sources (hash-ordered iteration,
//!   thread identity, pointer-to-int casts) that a sim-critical crate's
//!   public API can reach through the call graph. The per-file token rules
//!   already police sources *inside* sim-critical crates; this pass catches
//!   the helper in `obs` (or any other support crate) that a sim-critical
//!   crate calls into, reporting the full call chain.
//! * **panic-path audit** — `panic!`-family macros, `unwrap`/`expect`, and
//!   (directly in handlers) indexing, reachable from DES event handlers —
//!   fns that schedule kernel events.
//!   Sites already audited with a justified `lint:allow(no-unwrap-in-lib)`
//!   are skipped silently: they were counted by the token rule's ledger.
//! * **lock-order** — mutexes acquired in opposite orders in two places.
//! * **relaxed-note-on-operation** — a `// relaxed:` note that satisfied the
//!   token rule's two-line window but does not bind to the line of the
//!   atomic operation it claims to justify.

use std::collections::BTreeMap;

use crate::allow::{collect_relaxed_notes, Allow};
use crate::diag::{Diagnostic, Note, RuleId};
use crate::rules::{hashmap_iteration_sites, FileKind, Scanner};
use crate::symgraph::{ParsedFile, SymbolGraph};
use crate::tokenizer::{Token, TokenKind};

/// Kernel methods whose callers are DES event handlers (the scheduled
/// closures live inside the scheduling fn, so calls inside them are
/// attributed to it by the parser).
const SCHEDULE_METHODS: &[&str] = &[
    "schedule",
    "schedule_in",
    "schedule_labeled",
    "schedule_in_labeled",
];

/// Atomic RMW / load / store operations a `// relaxed:` note must bind to.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Runs every structural pass; diagnostics are attributed to the file the
/// offending site lives in. The engine's allow layer runs afterwards.
#[must_use]
pub fn structural_passes(files: &[ParsedFile], graph: &SymbolGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    determinism_taint(files, graph, &mut out);
    panic_path(files, graph, &mut out);
    lock_order(files, graph, &mut out);
    relaxed_note_on_operation(files, &mut out);
    out
}

/// True when a justified allow for `rule` targets `line` in this file.
fn allowed_at(allows: &[Allow], rule: RuleId, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.justified && a.target_line == Some(line) && a.rules.contains(&rule))
}

/// Per-file helper: maps a source line to the innermost enclosing fn's
/// symbol id, using decl-line .. last-body-token-line ranges.
struct FnLocator {
    /// `(start_line, end_line, symbol_id)` per fn in this file.
    ranges: Vec<(u32, u32, usize)>,
}

impl FnLocator {
    fn new(file_idx: usize, pf: &ParsedFile, graph: &SymbolGraph) -> FnLocator {
        let mut ranges = Vec::new();
        for (id, s) in graph.symbols.iter().enumerate() {
            if s.file_idx != file_idx {
                continue;
            }
            let decl = &pf.ast.fns[s.fn_idx];
            let (b0, b1) = decl.body;
            let end = if b1 > b0 && b1 <= pf.tokens.len() {
                pf.tokens[b1 - 1].line
            } else {
                s.line
            };
            ranges.push((s.line, end, id));
        }
        FnLocator { ranges }
    }

    /// The innermost fn covering `line` (latest-starting covering range).
    fn locate(&self, line: u32) -> Option<usize> {
        self.ranges
            .iter()
            .filter(|(s, e, _)| *s <= line && line <= *e)
            .max_by_key(|(s, _, _)| *s)
            .map(|(_, _, id)| *id)
    }
}

/// One nondeterminism source site.
struct SourceSite {
    line: u32,
    col: u32,
    what: String,
}

/// Scans one file for taint sources. `include_randomness` gates the
/// hash-iteration / thread-identity sources (covered by token rules inside
/// sim-critical crates); pointer-to-int casts are collected everywhere.
fn taint_sources(pf: &ParsedFile, include_randomness: bool) -> Vec<SourceSite> {
    let scan = Scanner::new(&pf.tokens, pf.ctx.kind == FileKind::Test);
    let mut out = Vec::new();
    if include_randomness {
        for (i, what) in hashmap_iteration_sites(&scan) {
            if scan.in_test[i] {
                continue;
            }
            let t = scan.toks[i];
            out.push(SourceSite {
                line: t.line,
                col: t.col,
                what,
            });
        }
        for i in 0..scan.toks.len() {
            if scan.in_test[i] {
                continue;
            }
            if scan.ident_at(i, "current")
                && i >= 2
                && scan.ident_at(i - 2, "thread")
                && scan.punct_at(i - 1, "::")
                && scan.punct_at(i + 1, "(")
            {
                let t = scan.toks[i];
                out.push(SourceSite {
                    line: t.line,
                    col: t.col,
                    what: "`thread::current()` exposes OS-thread identity".into(),
                });
            }
        }
    }
    // Pointer-to-int casts: `… as usize` where the casted expression came
    // from `as_ptr`/`as_mut_ptr` or a raw-pointer cast a few tokens back.
    // Addresses vary per run under ASLR, so they are a randomness source.
    for i in 0..scan.toks.len() {
        if scan.in_test[i] || !scan.ident_at(i, "as") {
            continue;
        }
        let inty = scan.get(i + 1).is_some_and(|t| {
            t.is_ident("usize") || t.is_ident("u64") || t.is_ident("isize") || t.is_ident("i64")
        });
        if !inty {
            continue;
        }
        let window = i.saturating_sub(8)..i;
        let ptrish = window.clone().any(|k| {
            scan.ident_at(k, "as_ptr")
                || scan.ident_at(k, "as_mut_ptr")
                || (scan.punct_at(k, "*")
                    && (scan.ident_at(k + 1, "const") || scan.ident_at(k + 1, "mut")))
        });
        if ptrish {
            let t = scan.toks[i];
            out.push(SourceSite {
                line: t.line,
                col: t.col,
                what: "pointer-to-int cast (addresses vary per run under ASLR)".into(),
            });
        }
    }
    out
}

/// Reverse-BFS from each taint source over caller edges; report sources a
/// sim-critical crate's public API can reach, with the full chain.
fn determinism_taint(files: &[ParsedFile], graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    for (file_idx, pf) in files.iter().enumerate() {
        if pf.ctx.kind == FileKind::Test {
            continue;
        }
        // Inside sim-critical crates the token rules already fire at these
        // sites; seeding them again would double-report.
        let include_randomness = !pf.ctx.sim_critical();
        let sources = taint_sources(pf, include_randomness);
        if sources.is_empty() {
            continue;
        }
        let locator = FnLocator::new(file_idx, pf, graph);
        for src in sources {
            if allowed_at(&pf.allows, RuleId::NoHashmapIteration, src.line)
                || allowed_at(&pf.allows, RuleId::NoThreadIdentity, src.line)
            {
                continue; // audited under the token rule's ledger
            }
            let Some(start) = locator.locate(src.line) else {
                continue; // top-level const/static expression: no call path
            };
            if graph.symbols[start].in_test {
                continue;
            }
            let Some(chain) = chain_to_sim_critical_pub(graph, start) else {
                continue;
            };
            let notes = chain_notes(graph, &chain, &src.what);
            out.push(Diagnostic {
                file: pf.ctx.rel_path.clone(),
                line: src.line,
                col: src.col,
                rule: RuleId::DeterminismTaint,
                message: format!(
                    "{} is reachable from sim-critical public API `{}`",
                    src.what,
                    graph.symbols[chain[0]].qualified()
                ),
                suggestion: suggestion(RuleId::DeterminismTaint),
                notes,
            });
        }
    }
}

/// BFS upward through callers from `start`; returns the chain
/// `[sink, …, start]` for the nearest public sim-critical sink, or `None`.
fn chain_to_sim_critical_pub(graph: &SymbolGraph, start: usize) -> Option<Vec<usize>> {
    let sink_ok = |id: usize| {
        let s = &graph.symbols[id];
        s.is_pub && !s.in_test && crate::rules::SIM_CRITICAL_CRATES.contains(&s.krate.as_str())
    };
    if sink_ok(start) {
        return Some(vec![start]);
    }
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    let mut visited = vec![false; graph.symbols.len()];
    visited[start] = true;
    while let Some(id) = queue.pop_front() {
        for &caller in &graph.callers[id] {
            if visited[caller] || graph.symbols[caller].in_test {
                continue;
            }
            visited[caller] = true;
            parent.insert(caller, id);
            if sink_ok(caller) {
                // Walk back down: sink → … → start.
                let mut chain = vec![caller];
                let mut cur = caller;
                while cur != start {
                    cur = parent[&cur];
                    chain.push(cur);
                }
                return Some(chain);
            }
            queue.push_back(caller);
        }
    }
    None
}

/// Renders a `[sink, …, site_fn]` chain as diagnostic notes, one per hop.
fn chain_notes(graph: &SymbolGraph, chain: &[usize], what: &str) -> Vec<Note> {
    let mut notes = Vec::new();
    let sink = &graph.symbols[chain[0]];
    notes.push(Note {
        file: sink.file.clone(),
        line: sink.line,
        message: format!(
            "`{}` is a public API of sim-critical crate `{}`",
            sink.qualified(),
            sink.krate
        ),
    });
    for w in chain.windows(2) {
        let (src, dst) = (w[0], w[1]);
        let edge = graph.callees[src].iter().find(|e| e.to == dst);
        let line = edge.map_or(graph.symbols[src].line, |e| e.line);
        notes.push(Note {
            file: graph.symbols[src].file.clone(),
            line,
            message: format!("which calls `{}`", graph.symbols[dst].qualified()),
        });
    }
    let Some(&last_id) = chain.last() else {
        return notes;
    };
    let last = &graph.symbols[last_id];
    notes.push(Note {
        file: last.file.clone(),
        line: last.line,
        message: format!("`{}` contains the source: {}", last.qualified(), what),
    });
    notes
}

/// One potential panic site inside a fn body.
struct PanicSite {
    line: u32,
    col: u32,
    what: String,
    /// Indexing sites only count directly inside handler roots.
    is_indexing: bool,
}

/// Scans the body of one fn for panic sites (comment-filtered, test-aware).
fn panic_sites(pf: &ParsedFile, body: (usize, usize)) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let toks: Vec<&Token> = pf.tokens[body.0..body.1]
        .iter()
        .filter(|t| !t.is_comment())
        .collect();
    let at = |k: usize| -> Option<&&Token> { toks.get(k) };
    for i in 0..toks.len() {
        let t = toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_bang = at(i + 1).is_some_and(|n| n.is_punct("!"));
        if next_bang && ["panic", "unreachable", "todo", "unimplemented"].contains(&t.text.as_str())
        {
            out.push(PanicSite {
                line: t.line,
                col: t.col,
                what: format!("`{}!` aborts the event loop", t.text),
                is_indexing: false,
            });
            continue;
        }
        let after_dot = i >= 1 && toks[i - 1].is_punct(".");
        if after_dot && t.is_ident("unwrap") && at(i + 1).is_some_and(|n| n.is_punct("(")) {
            out.push(PanicSite {
                line: t.line,
                col: t.col,
                what: "`.unwrap()` panics on the error path".into(),
                is_indexing: false,
            });
        }
        if after_dot
            && t.is_ident("expect")
            && at(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i >= 2 && toks[i - 2].is_ident("self"))
        {
            out.push(PanicSite {
                line: t.line,
                col: t.col,
                what: "`.expect(…)` panics on the error path".into(),
                is_indexing: false,
            });
        }
        // `name[…]` indexing — panics when out of bounds. Direct-only: the
        // caller filters these to handler roots. Plain id-lookup indexing
        // (`pools[p]`, `peers[self.leader]`) is the arena idiom this
        // workspace is built on — ids are constructed valid — so only
        // *computed* indexes (literals, arithmetic, nesting, calls) are
        // reported; those are where off-by-one and empty-slice panics live.
        if at(i + 1).is_some_and(|n| n.is_punct("["))
            && !at(i + 2).is_some_and(|n| n.is_punct("]"))
            && !index_is_plain_path(&toks, i + 1)
        {
            out.push(PanicSite {
                line: t.line,
                col: t.col,
                what: format!("`{}[…]` computed-index panics when out of bounds", t.text),
                is_indexing: true,
            });
        }
    }
    out
}

/// True when the bracketed index expression starting at the `[` at `open`
/// is a plain path — idents joined by `.` (including `self`), nothing
/// computed. `xs[p]` and `xs[self.leader]` are plain; `xs[0]`, `xs[i + 1]`,
/// `xs[ids[k]]`, and `xs[f(k)]` are not.
fn index_is_plain_path(toks: &[&Token], open: usize) -> bool {
    debug_assert!(toks[open].is_punct("["));
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
            if depth > 1 {
                return false; // nested indexing is computed
            }
            continue;
        }
        if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return k > open + 1; // non-empty index expression
            }
            continue;
        }
        let plain = t.kind == TokenKind::Ident || t.is_punct(".");
        if !plain {
            return false;
        }
    }
    false // unbalanced: treat as computed
}

/// Forward BFS from DES handler roots; reports reachable panic sites.
fn panic_path(files: &[ParsedFile], graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    // Roots: fns that schedule kernel events — in sim-critical crates only,
    // outside tests.
    let mut roots = Vec::new();
    for (id, s) in graph.symbols.iter().enumerate() {
        if s.in_test || !crate::rules::SIM_CRITICAL_CRATES.contains(&s.krate.as_str()) {
            continue;
        }
        let decl = &files[s.file_idx].ast.fns[s.fn_idx];
        let schedules = decl
            .calls
            .iter()
            .any(|c| c.is_method && SCHEDULE_METHODS.contains(&c.path[0].as_str()));
        if schedules {
            roots.push(id);
        }
    }
    // BFS with parent pointers; first reach wins (shortest chain).
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut visited = vec![false; graph.symbols.len()];
    let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
    for &r in &roots {
        visited[r] = true;
    }
    while let Some(id) = queue.pop_front() {
        for e in &graph.callees[id] {
            if visited[e.to] || graph.symbols[e.to].in_test {
                continue;
            }
            visited[e.to] = true;
            parent.insert(e.to, id);
            queue.push_back(e.to);
        }
    }
    let is_root = |id: usize| roots.contains(&id);
    for (id, &reached) in visited.iter().enumerate() {
        if !reached {
            continue;
        }
        let s = &graph.symbols[id];
        let pf = &files[s.file_idx];
        if pf.ctx.kind == FileKind::Test {
            continue;
        }
        let decl = &pf.ast.fns[s.fn_idx];
        for site in panic_sites(pf, decl.body) {
            if site.is_indexing && !is_root(id) {
                continue; // transitive indexing would drown the report
            }
            if allowed_at(&pf.allows, RuleId::NoUnwrapInLib, site.line) {
                continue; // audited under the token rule's ledger
            }
            // Chain: root → … → this fn.
            let mut chain = vec![id];
            let mut cur = id;
            while let Some(&p) = parent.get(&cur) {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            let root = &graph.symbols[chain[0]];
            let mut notes = vec![Note {
                file: root.file.clone(),
                line: root.line,
                message: format!(
                    "`{}` is a DES event handler (schedules kernel events)",
                    root.qualified()
                ),
            }];
            for w in chain.windows(2) {
                let (src, dst) = (w[0], w[1]);
                let edge = graph.callees[src].iter().find(|e| e.to == dst);
                let line = edge.map_or(graph.symbols[src].line, |e| e.line);
                notes.push(Note {
                    file: graph.symbols[src].file.clone(),
                    line,
                    message: format!("which calls `{}`", graph.symbols[dst].qualified()),
                });
            }
            out.push(Diagnostic {
                file: pf.ctx.rel_path.clone(),
                line: site.line,
                col: site.col,
                rule: RuleId::PanicPath,
                message: format!(
                    "{} and is reachable from DES event handler `{}`",
                    site.what,
                    graph.symbols[chain[0]].qualified()
                ),
                suggestion: suggestion(RuleId::PanicPath),
                notes,
            });
        }
    }
}

/// One mutex acquisition inside a fn, in body token order.
struct LockAcq {
    name: String,
    line: u32,
    col: u32,
}

/// Collects `<recv>.lock()` acquisitions in body order for one fn.
fn lock_acquisitions(pf: &ParsedFile, body: (usize, usize)) -> Vec<LockAcq> {
    let toks: Vec<&Token> = pf.tokens[body.0..body.1]
        .iter()
        .filter(|t| !t.is_comment())
        .collect();
    let mut out = Vec::new();
    for i in 2..toks.len() {
        if !(toks[i].is_ident("lock")
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("(")))
        {
            continue;
        }
        // The receiver is the ident just before the dot (`self.a.lock()`
        // names the field, `REGISTRY.lock()` the static).
        if toks[i - 2].kind == TokenKind::Ident && !toks[i - 2].is_ident("self") {
            out.push(LockAcq {
                name: toks[i - 2].ident_name().to_string(),
                line: toks[i].line,
                col: toks[i].col,
            });
        }
    }
    out
}

/// Detects inconsistent pairwise mutex acquisition order across the
/// workspace (intra-fn sequences only — conservative, no drop tracking).
fn lock_order(files: &[ParsedFile], graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    // (first, second) → earliest witness site of that acquisition order.
    let mut edges: BTreeMap<(String, String), (String, u32, u32)> = BTreeMap::new();
    for s in &graph.symbols {
        if s.in_test {
            continue;
        }
        let pf = &files[s.file_idx];
        if pf.ctx.kind == FileKind::Test {
            continue;
        }
        let acqs = lock_acquisitions(pf, pf.ast.fns[s.fn_idx].body);
        for i in 0..acqs.len() {
            for j in i + 1..acqs.len() {
                if acqs[i].name == acqs[j].name {
                    continue;
                }
                edges
                    .entry((acqs[i].name.clone(), acqs[j].name.clone()))
                    .or_insert((pf.ctx.rel_path.clone(), acqs[j].line, acqs[j].col));
            }
        }
    }
    for ((a, b), (file, line, col)) in &edges {
        if a < b {
            continue; // visit each unordered pair once, from its b→a edge
        }
        if let Some((ofile, oline, _)) = edges.get(&(b.clone(), a.clone())) {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                col: *col,
                rule: RuleId::LockOrder,
                message: format!(
                    "mutex `{a}` is acquired before `{b}` here, but the opposite order \
                     exists elsewhere; inconsistent order can deadlock"
                ),
                suggestion: suggestion(RuleId::LockOrder),
                notes: vec![Note {
                    file: ofile.clone(),
                    line: *oline,
                    message: format!("`{b}` is acquired before `{a}` here"),
                }],
            });
        }
    }
}

/// Verifies each annotated `Ordering::Relaxed` binds its `// relaxed:` note
/// to the atomic operation's own line, not merely somewhere nearby.
fn relaxed_note_on_operation(files: &[ParsedFile], out: &mut Vec<Diagnostic>) {
    for pf in files {
        if pf.ctx.kind == FileKind::Test {
            continue;
        }
        let notes = collect_relaxed_notes(&pf.tokens);
        if notes.is_empty() {
            continue;
        }
        let scan = Scanner::new(&pf.tokens, false);
        for i in 0..scan.toks.len() {
            if scan.in_test[i]
                || !(scan.ident_at(i, "Ordering")
                    && scan.punct_at(i + 1, "::")
                    && scan.ident_at(i + 2, "Relaxed"))
            {
                continue;
            }
            let relaxed = scan.toks[i + 2];
            if allowed_at(&pf.allows, RuleId::AtomicsOrderingAnnotated, relaxed.line) {
                continue;
            }
            // Find the atomic operation this ordering parameterizes: the
            // nearest preceding `.op(` within a small window.
            let mut op_line = None;
            for back in 1..=40 {
                let Some(k) = i.checked_sub(back) else { break };
                if scan.toks[k].kind == TokenKind::Ident
                    && ATOMIC_OPS.contains(&scan.toks[k].text.as_str())
                    && k >= 1
                    && scan.punct_at(k - 1, ".")
                    && scan.punct_at(k + 1, "(")
                {
                    op_line = Some(scan.toks[k].line);
                    break;
                }
            }
            let Some(op_line) = op_line else { continue };
            let near = notes.iter().any(|n| {
                n.target_line
                    .is_some_and(|t| t <= relaxed.line && t + 2 >= relaxed.line)
            });
            if !near {
                continue; // the token rule already reported the bare site
            }
            let on_op = notes.iter().any(|n| n.target_line == Some(op_line));
            if !on_op {
                out.push(Diagnostic {
                    file: pf.ctx.rel_path.clone(),
                    line: relaxed.line,
                    col: relaxed.col,
                    rule: RuleId::RelaxedNoteOnOperation,
                    message: "the `// relaxed:` note near this Relaxed ordering does not \
                              bind to the atomic operation's line"
                        .into(),
                    suggestion: suggestion(RuleId::RelaxedNoteOnOperation),
                    notes: vec![Note {
                        file: pf.ctx.rel_path.clone(),
                        line: op_line,
                        message: "the atomic operation is here".into(),
                    }],
                });
            }
        }
    }
}

/// The structural rules reuse the token rules' canonical remedies.
fn suggestion(rule: RuleId) -> Option<String> {
    crate::rules::suggestion_for(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symgraph::parse_sources;

    fn run(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files = parse_sources(sources);
        let graph = SymbolGraph::build(&files);
        structural_passes(&files, &graph)
    }

    #[test]
    fn cross_crate_hashmap_taint_reports_full_chain() {
        let diags = run(&[
            (
                "crates/obs/src/agg.rs",
                "use std::collections::HashMap;\n\
                 pub fn summarize(m: &HashMap<u32, u32>) -> u32 {\n\
                 \x20   let mut total = 0;\n\
                 \x20   for v in m.values() { total += v; }\n\
                 \x20   total\n\
                 }\n",
            ),
            (
                "crates/core/src/sim.rs",
                "use fabricsim_obs::agg::summarize;\n\
                 pub fn tick(m: &std::collections::HashMap<u32, u32>) -> u32 {\n\
                 \x20   summarize(m)\n\
                 }\n",
            ),
        ]);
        let taints: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::DeterminismTaint)
            .collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        let d = taints[0];
        assert_eq!(d.file, "crates/obs/src/agg.rs");
        assert_eq!(d.line, 4);
        assert!(d.message.contains("fabricsim_core::sim::tick"));
        // Chain notes: sink decl, call hop, source fn.
        assert!(d.notes.len() >= 3, "{:?}", d.notes);
        assert_eq!(d.notes[0].file, "crates/core/src/sim.rs");
        assert!(d.notes[0].message.contains("public API"));
        assert!(d.notes[1].message.contains("summarize"));
        assert_eq!(d.notes[1].line, 3, "hop note points at the call site");
    }

    #[test]
    fn unreachable_helper_is_not_tainted() {
        let diags = run(&[(
            "crates/obs/src/agg.rs",
            "use std::collections::HashMap;\n\
             fn private_summarize(m: &HashMap<u32, u32>) -> u32 {\n\
             \x20   m.values().sum()\n\
             }\n",
        )]);
        assert!(
            diags.iter().all(|d| d.rule != RuleId::DeterminismTaint),
            "{diags:?}"
        );
    }

    #[test]
    fn audited_source_is_skipped_silently() {
        let diags = run(&[
            (
                "crates/obs/src/agg.rs",
                "use std::collections::HashMap;\n\
                 pub fn summarize(m: &HashMap<u32, u32>) -> u32 {\n\
                 \x20   // lint:allow(no-hashmap-iteration) -- summed, order cannot escape\n\
                 \x20   m.values().sum()\n\
                 }\n",
            ),
            (
                "crates/core/src/sim.rs",
                "use fabricsim_obs::agg::summarize;\n\
                 pub fn tick(m: &std::collections::HashMap<u32, u32>) -> u32 { summarize(m) }\n",
            ),
        ]);
        assert!(
            diags.iter().all(|d| d.rule != RuleId::DeterminismTaint),
            "{diags:?}"
        );
    }

    #[test]
    fn pointer_to_int_cast_is_a_source_even_in_sim_crates() {
        let diags = run(&[(
            "crates/core/src/sim.rs",
            "pub fn key_of(v: &[u8]) -> usize {\n    v.as_ptr() as usize\n}\n",
        )]);
        let taints: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::DeterminismTaint)
            .collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        assert!(taints[0].message.contains("pointer-to-int"));
    }

    #[test]
    fn panic_reachable_from_deliver_is_reported_with_chain() {
        let diags = run(&[(
            "crates/core/src/world.rs",
            "impl World {\n\
             \x20   fn deliver(&mut self, k: &mut Kernel, msg: u64) {\n\
             \x20       step(msg); k.schedule_in(1, move || next(msg));\n\
             \x20   }\n\
             }\n\
             fn step(m: u64) {\n\
             \x20   helper(m);\n\
             }\n\
             fn helper(m: u64) {\n\
             \x20   if m > 3 { panic!(\"bad msg\"); }\n\
             }\n",
        )]);
        let panics: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::PanicPath)
            .collect();
        assert_eq!(panics.len(), 1, "{diags:?}");
        let d = panics[0];
        assert_eq!(d.line, 10);
        assert!(d.message.contains("deliver"));
        assert!(d.notes[0].message.contains("schedules kernel events"));
        assert!(d.notes.iter().any(|n| n.message.contains("helper")));
    }

    #[test]
    fn indexing_counts_only_directly_in_handlers() {
        let diags = run(&[(
            "crates/core/src/world.rs",
            "pub fn arm(kernel: &mut Kernel, xs: &[u64]) {\n\
             \x20   let first = xs[0];\n\
             \x20   kernel.schedule(first, move || deep(first));\n\
             }\n\
             fn deep(v: u64) {\n\
             \x20   let ys = [1u64, 2];\n\
             \x20   let _ = ys[(v % 2) as usize];\n\
             }\n",
        )]);
        let panics: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::PanicPath)
            .collect();
        assert_eq!(panics.len(), 1, "{diags:?}");
        assert_eq!(panics[0].line, 2, "only the direct indexing in the root");
    }

    #[test]
    fn unwrap_with_justified_allow_is_silently_audited() {
        let diags = run(&[(
            "crates/core/src/world.rs",
            "impl World {\n\
             \x20   fn deliver(&mut self, k: &mut Kernel, msg: u64) {\n\
             \x20       // lint:allow(no-unwrap-in-lib) -- queue is non-empty: pushed above\n\
             \x20       self.q.pop().unwrap(); k.schedule_in(1, move || next(msg));\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(
            diags.iter().all(|d| d.rule != RuleId::PanicPath),
            "{diags:?}"
        );
    }

    #[test]
    fn opposite_lock_orders_are_reported_once_with_witness() {
        let diags = run(&[(
            "crates/des/src/pool.rs",
            "fn a(&self) {\n\
             \x20   let _x = self.foo.lock();\n\
             \x20   let _y = self.bar.lock();\n\
             }\n\
             fn b(&self) {\n\
             \x20   let _y = self.bar.lock();\n\
             \x20   let _x = self.foo.lock();\n\
             }\n",
        )]);
        let locks: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::LockOrder)
            .collect();
        assert_eq!(locks.len(), 1, "{diags:?}");
        assert_eq!(locks[0].notes.len(), 1);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let diags = run(&[(
            "crates/des/src/pool.rs",
            "fn a(&self) {\n\
             \x20   let _x = self.foo.lock();\n\
             \x20   let _y = self.bar.lock();\n\
             }\n\
             fn b(&self) {\n\
             \x20   let _x = self.foo.lock();\n\
             \x20   let _y = self.bar.lock();\n\
             }\n",
        )]);
        assert!(
            diags.iter().all(|d| d.rule != RuleId::LockOrder),
            "{diags:?}"
        );
    }

    #[test]
    fn relaxed_note_must_sit_on_the_operation_line() {
        // Note binds to the `self.hits` continuation line, not the
        // `fetch_add` line — accepted by the token rule's window, rejected
        // by the structural pass.
        let diags = run(&[(
            "crates/obs/src/reg.rs",
            "impl R {\n\
             \x20   fn bump(&self) {\n\
             \x20       self.hits.fetch_add(\n\
             \x20           1,\n\
             \x20           Ordering::Relaxed, // relaxed: monotonic counter\n\
             \x20       );\n\
             \x20   }\n\
             }\n",
        )]);
        let rel: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RuleId::RelaxedNoteOnOperation)
            .collect();
        assert_eq!(rel.len(), 1, "{diags:?}");
        assert_eq!(rel[0].notes[0].line, 3, "points at the fetch_add line");
    }

    #[test]
    fn relaxed_note_on_the_operation_is_clean() {
        let diags = run(&[(
            "crates/obs/src/reg.rs",
            "impl R {\n\
             \x20   fn bump(&self) {\n\
             \x20       self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(
            diags
                .iter()
                .all(|d| d.rule != RuleId::RelaxedNoteOnOperation),
            "{diags:?}"
        );
    }
}
