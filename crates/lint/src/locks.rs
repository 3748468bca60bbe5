//! Concurrency-safety passes over the threaded wire layer: SL201–SL203.
//!
//! The sans-IO protocol machines are covered by the model checker and
//! the panic pass, but the layer that *hosts* them — the sharded
//! reactors, the deployment harness, the completion sink — is real
//! threads holding real locks, and a mistake there stalls every peer an
//! event-loop thread owns. These passes give that layer the same static
//! treatment the protocol core already has:
//!
//! * **SL201 lock-order-cycle** — a per-crate lock registry is built
//!   from struct fields and `static`s whose declared types mention
//!   `Mutex`/`RwLock`/`Condvar`. Guard lifetimes are tracked through
//!   each function body (let-bound guards die at scope exit or
//!   `drop(guard)`; un-bound temporaries die at the end of their
//!   statement), acquisition sets propagate over the workspace call
//!   graph, and any cycle in the resulting lock-order graph is reported
//!   with one witness per edge, as SL103 names its `via` hop.
//! * **SL202 blocking-under-lock** — a guard scope that reaches a
//!   declared blocking sink ([`config::BLOCKING_SINKS`]), directly or
//!   through the call graph, pins the reactor thread for the duration
//!   of the wait. `Condvar::wait(guard)` gets the canonical carve-out:
//!   waiting *releases* the guard passed as its first argument, so only
//!   a wait under a second live guard is a finding.
//! * **SL203 callback-under-lock** — a protocol entry point
//!   ([`config::PROTOCOL_CALLBACK_FNS`]) invoked while a wire-layer
//!   guard is live runs sans-IO code inside a critical section it
//!   cannot see. Scoped to [`config::CALLBACK_SCOPE`]: the DES backend
//!   legitimately drives machines under its single-threaded world lock.
//!
//! Like the rest of the graph layer, resolution is name-based and
//! conservative: the lock identity is `(crate, field name)` — two
//! same-named fields in one crate merge, which over-approximates
//! cycles, never invents guard scopes. The deliberate false-negative
//! trades are documented in DESIGN.md "Concurrency invariants in the
//! wire layer": `match m.lock() { … }` scrutinee temporaries are
//! considered dead at the `{`, and guards returned from or passed into
//! helper functions are not tracked across the call boundary.

use std::collections::{BTreeMap, BTreeSet};

use crate::config;
use crate::graph::{CallGraph, SourceFile};
use crate::lexer::{Tok, TokKind};
use crate::parser::ItemKind;
use crate::rules::{Finding, Rule};

/// Lock identity: `(crate name, field-or-static name)`.
type LockKey = (String, String);

/// One registered lock declaration.
struct LockInfo {
    /// True when the declared type mentions `RwLock` — only then do
    /// `.read()`/`.write()` count as guard acquisitions.
    is_rwlock: bool,
}

/// Where a lock is (transitively) acquired — the witness half of an
/// SL201 edge and the payload of the interprocedural propagation.
#[derive(Clone)]
struct AcqSite {
    path: String,
    line: u32,
    fn_name: String,
    /// First-hop callee when the acquisition is reached through a call.
    via: Option<String>,
}

/// Where a blocking sink is (transitively) reached.
#[derive(Clone)]
struct BlockSite {
    sink: String,
    path: String,
    line: u32,
    via: Option<String>,
}

/// One lock-order edge `from → to` with its witness.
struct EdgeWit {
    path: String,
    line: u32,
    fn_name: String,
    /// Human description of how `to` was acquired under `from`.
    desc: String,
}

/// A guard live at some point of a function body.
#[derive(Clone)]
struct Guard {
    lock: LockKey,
    binding: Option<String>,
    /// Brace depth at acquisition; the guard dies when the depth drops
    /// below it.
    depth: i32,
    /// Statement temporary (no `let` binding): dies at the next `;` or
    /// at the next `{` — a temporary cannot outlive the statement (or
    /// loop/if header) that produced it, at the cost of missing `match
    /// m.lock() { … }` scrutinee extension.
    temp: bool,
    line: u32,
}

/// The guards live at a call site: each held lock with its
/// acquisition line.
type HeldLocks = Vec<(LockKey, u32)>;

/// Per-function facts feeding the interprocedural stage.
#[derive(Default)]
struct FnFacts {
    /// Locks this body acquires, with the first acquisition line.
    acquires: BTreeMap<LockKey, u32>,
    /// First blocking-sink call in the body (post carve-outs), from the
    /// perspective of a *caller* holding a guard — so the
    /// wait-releases-its-own-guard carve-out does not apply here.
    blocking: Option<(String, u32)>,
    /// Calls made while at least one guard is live:
    /// `(callee name, line, held locks with acquisition lines)`.
    guarded_calls: Vec<(String, u32, HeldLocks)>,
}

/// Runs all three passes. Findings are unsuppressed; the caller routes
/// them through the shared cross-file pragma machinery.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let registry = build_registry(files);
    if registry.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let mut dedup: BTreeSet<(String, u32, Rule, String)> = BTreeSet::new();
    let mut push = |findings: &mut Vec<Finding>, f: Finding| {
        if dedup.insert((f.path.clone(), f.line, f.rule, f.message.clone())) {
            findings.push(f);
        }
    };

    // Intra-function stage: guard tracking, direct SL202/SL203
    // findings, lock-order edges observed inside one body, and the
    // per-function facts for the interprocedural stage.
    let mut edges: BTreeMap<(LockKey, LockKey), EdgeWit> = BTreeMap::new();
    let mut facts: Vec<FnFacts> = Vec::with_capacity(graph.fns.len());
    for f in &graph.fns {
        if f.in_tests || config::matches_any(&f.path, config::TEST_TREE_MARKERS) {
            facts.push(FnFacts::default());
            continue;
        }
        let Some(file) = files.get(f.file) else {
            facts.push(FnFacts::default());
            continue;
        };
        facts.push(scan_fn(file, f, &registry, &mut edges, |fi| {
            push(&mut findings, fi);
        }));
    }

    // Interprocedural acquisition sets: fixpoint over the call graph.
    // Test functions neither seed nor relay (their facts are empty and
    // edges into them are skipped).
    let relay = |id: usize| {
        let f = &graph.fns[id];
        !f.in_tests && !config::matches_any(&f.path, config::TEST_TREE_MARKERS)
    };
    let mut reach_acq: Vec<BTreeMap<LockKey, AcqSite>> = graph
        .fns
        .iter()
        .zip(&facts)
        .map(|(f, fa)| {
            fa.acquires
                .iter()
                .map(|(k, line)| {
                    (
                        k.clone(),
                        AcqSite {
                            path: f.path.clone(),
                            line: *line,
                            fn_name: f.name.clone(),
                            via: None,
                        },
                    )
                })
                .collect()
        })
        .collect();
    let mut reach_blk: Vec<Option<BlockSite>> = graph
        .fns
        .iter()
        .zip(&facts)
        .map(|(f, fa)| {
            fa.blocking.as_ref().map(|(sink, line)| BlockSite {
                sink: sink.clone(),
                path: f.path.clone(),
                line: *line,
                via: None,
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for caller in 0..graph.fns.len() {
            if !relay(caller) {
                continue;
            }
            let mut add_acq = Vec::new();
            let mut add_blk = None;
            for &callee in &graph.edges[caller] {
                if !relay(callee) {
                    continue;
                }
                for (lock, site) in &reach_acq[callee] {
                    if !reach_acq[caller].contains_key(lock) {
                        let mut s = site.clone();
                        s.via = Some(graph.fns[callee].name.clone());
                        add_acq.push((lock.clone(), s));
                    }
                }
                if reach_blk[caller].is_none() && add_blk.is_none() {
                    if let Some(site) = &reach_blk[callee] {
                        let mut s = site.clone();
                        s.via = Some(graph.fns[callee].name.clone());
                        add_blk = Some(s);
                    }
                }
            }
            for (lock, site) in add_acq {
                // First writer wins: fn-id and sorted-callee order make
                // the winning witness deterministic.
                if let std::collections::btree_map::Entry::Vacant(e) = reach_acq[caller].entry(lock)
                {
                    e.insert(site);
                    changed = true;
                }
            }
            if let (None, Some(s)) = (&reach_blk[caller], add_blk) {
                reach_blk[caller] = Some(s);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Interprocedural findings and edges: every call made under a guard
    // is matched (by resolved call-graph edge) against what its targets
    // transitively acquire or block on.
    for (caller, fa) in facts.iter().enumerate() {
        let f = &graph.fns[caller];
        for (name, line, held) in &fa.guarded_calls {
            let targets: Vec<usize> = graph.edges[caller]
                .iter()
                .copied()
                .filter(|&t| graph.fns[t].name == *name && relay(t))
                .collect();
            for &t in &targets {
                for (lock2, site) in &reach_acq[t] {
                    for (g_lock, g_line) in held {
                        if g_lock == lock2 {
                            continue;
                        }
                        edges
                            .entry((g_lock.clone(), lock2.clone()))
                            .or_insert_with(|| EdgeWit {
                                path: f.path.clone(),
                                line: *line,
                                fn_name: f.name.clone(),
                                desc: format!(
                                    "`{}` calls `{}` which acquires `{}` at {}:{} in \
                                     `{}`{} while `{}` is held (since line {})",
                                    f.name,
                                    name,
                                    display(lock2),
                                    site.path,
                                    site.line,
                                    site.fn_name,
                                    via_suffix(&site.via),
                                    display(g_lock),
                                    g_line
                                ),
                            });
                    }
                }
            }
            if !config::BLOCKING_ALLOWED_FNS
                .iter()
                .any(|(p, n)| f.path.contains(p) && *n == f.name)
            {
                if let Some(t) = targets.iter().find(|&&t| reach_blk[t].is_some()) {
                    let site = reach_blk[*t].as_ref().expect("filtered Some");
                    let (g_lock, g_line) = &held[0];
                    push(
                        &mut findings,
                        Finding {
                            path: f.path.clone(),
                            line: *line,
                            rule: Rule::BlockingUnderLock,
                            message: format!(
                                "`{}` holds `{}` (guard since line {}) across a call to \
                                 `{}`, which reaches blocking `{}` at {}:{}{}",
                                f.name,
                                display(g_lock),
                                g_line,
                                name,
                                site.sink,
                                site.path,
                                site.line,
                                via_suffix(&site.via)
                            ),
                        },
                    );
                }
            }
        }
    }

    // Cycle detection over the lock-order graph: one finding per
    // distinct cycle, witnesses chained edge by edge.
    findings.extend(find_cycles(&edges));

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

fn display(lock: &LockKey) -> String {
    if lock.0.is_empty() {
        lock.1.clone()
    } else {
        format!("{}::{}", lock.0, lock.1)
    }
}

fn via_suffix(via: &Option<String>) -> String {
    via.as_ref()
        .map(|v| format!(" via `{v}`"))
        .unwrap_or_default()
}

// ---------------------------------------------------------------------
// Lock registry
// ---------------------------------------------------------------------

/// Registers every struct field and `static` whose declared type
/// mentions a [`config::LOCK_TYPE_NAMES`] entry, keyed by
/// `(crate, name)`. Same-named fields in one crate merge — identity is
/// conservative in the direction of *more* observed orderings.
fn build_registry(files: &[SourceFile]) -> BTreeMap<LockKey, LockInfo> {
    let mut reg: BTreeMap<LockKey, LockInfo> = BTreeMap::new();
    let mut add = |crate_name: &str, field: &str, is_rwlock: bool| {
        let entry = reg
            .entry((crate_name.to_string(), field.to_string()))
            .or_insert(LockInfo { is_rwlock: false });
        entry.is_rwlock |= is_rwlock;
    };
    for file in files {
        if config::matches_any(&file.path, config::TEST_TREE_MARKERS) {
            continue;
        }
        let krate = config::crate_name(&file.path).unwrap_or("");
        for item in &file.items {
            if item.kind != ItemKind::Struct || item.in_tests {
                continue;
            }
            scan_struct_fields(&file.toks, item.start, item.end, |field, is_rwlock| {
                add(krate, field, is_rwlock);
            });
        }
        scan_statics(&file.toks, &file.test_marks, |name, is_rwlock| {
            add(krate, name, is_rwlock);
        });
    }
    reg
}

/// Walks a struct item's token range reporting `(field name, mentions
/// RwLock)` for every named field whose type tokens mention a lock
/// type. Tuple structs have no field names and are skipped.
fn scan_struct_fields(toks: &[Tok], start: usize, end: usize, mut found: impl FnMut(&str, bool)) {
    let end = end.min(toks.len());
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => brace += 1,
                "}" => brace -= 1,
                "(" => paren += 1,
                ")" => paren -= 1,
                _ => {}
            },
            TokKind::Ident => {
                let field_head = brace == 1
                    && paren == 0
                    && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && !(i > start && toks[i - 1].is_punct(':'));
                if field_head {
                    // Scan the type tokens to the field-separating `,`
                    // (or the struct-closing `}`) for lock type names.
                    let mut angle = 0i32;
                    let mut p = 0i32;
                    let mut any = false;
                    let mut rw = false;
                    let mut j = i + 2;
                    while j < end {
                        let u = &toks[j];
                        match u.kind {
                            TokKind::Punct => match u.text.as_str() {
                                "<" => angle += 1,
                                ">" => angle -= 1,
                                "(" => p += 1,
                                ")" => p -= 1,
                                "," if angle <= 0 && p <= 0 => break,
                                "}" if p <= 0 => break,
                                _ => {}
                            },
                            TokKind::Ident
                                if config::LOCK_TYPE_NAMES.contains(&u.text.as_str()) =>
                            {
                                any = true;
                                rw |= u.text == "RwLock";
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if any {
                        found(&t.text, rw);
                    }
                    i = j;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Scans a whole file for `static NAME: …Lock… = …` declarations.
fn scan_statics(toks: &[Tok], test_marks: &[bool], mut found: impl FnMut(&str, bool)) {
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("static") || test_marks.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if !toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            i += 1;
            continue;
        }
        let mut any = false;
        let mut rw = false;
        let mut k = j + 2;
        while k < toks.len() {
            let u = &toks[k];
            if u.is_punct('=') || u.is_punct(';') {
                break;
            }
            if u.kind == TokKind::Ident && config::LOCK_TYPE_NAMES.contains(&u.text.as_str()) {
                any = true;
                rw |= u.text == "RwLock";
            }
            k += 1;
        }
        if any {
            found(&name_tok.text, rw);
        }
        i = k;
    }
}

// ---------------------------------------------------------------------
// Intra-function guard tracking
// ---------------------------------------------------------------------

/// Identifiers never taken as a `let` binding name: pattern wrappers
/// and the wildcard.
const NOT_A_BINDING: &[&str] = &["mut", "ref", "Ok", "Some", "Err", "_", "box"];

/// Walks one function body tracking live guards; emits direct SL202 and
/// SL203 findings and intra-function lock-order edges, and returns the
/// facts the interprocedural stage needs.
fn scan_fn(
    file: &SourceFile,
    f: &crate::graph::FnNode,
    registry: &BTreeMap<LockKey, LockInfo>,
    edges: &mut BTreeMap<(LockKey, LockKey), EdgeWit>,
    mut emit: impl FnMut(Finding),
) -> FnFacts {
    let krate = config::crate_name(&f.path).unwrap_or("").to_string();
    let toks = &file.toks;
    let end = f.end.min(toks.len());
    let in_callback_scope = config::matches_any(&f.path, config::CALLBACK_SCOPE);

    let mut facts = FnFacts::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // `let` statement state: collecting the binding name until `=`.
    let mut in_let = false;
    let mut collecting = false;
    let mut binding: Option<String> = None;

    let mut i = f.start;
    while i < end {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    depth += 1;
                    guards.retain(|g| !g.temp);
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                ";" => {
                    guards.retain(|g| !g.temp);
                    in_let = false;
                    collecting = false;
                    binding = None;
                }
                "=" if in_let => {
                    collecting = false;
                }
                // `let x: Type = …` — type tokens are not bindings.
                ":" if in_let => {
                    collecting = false;
                }
                _ => {}
            },
            TokKind::Ident => {
                if t.text == "let" {
                    in_let = true;
                    collecting = true;
                    binding = None;
                    i += 1;
                    continue;
                }
                // Guard acquisition: `recv.lock()` / `recv.read()` /
                // `recv.write()` where `recv` is a registered lock of
                // this crate.
                let next_is_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                let prev_dot = i > 0 && toks[i - 1].is_punct('.');
                if next_is_call && prev_dot && matches!(t.text.as_str(), "lock" | "read" | "write")
                {
                    let recv = (i >= 2)
                        .then(|| &toks[i - 2])
                        .filter(|r| r.kind == TokKind::Ident)
                        .map(|r| r.text.clone());
                    if let Some(recv) = recv {
                        let key = (krate.clone(), recv);
                        if let Some(info) = registry.get(&key) {
                            if t.text == "lock" || info.is_rwlock {
                                let bound = in_let
                                    && !collecting
                                    && binding.is_some()
                                    && guard_is_bound(toks, i, end);
                                for g in &guards {
                                    if g.lock != key {
                                        edges.entry((g.lock.clone(), key.clone())).or_insert_with(
                                            || EdgeWit {
                                                path: f.path.clone(),
                                                line: t.line,
                                                fn_name: f.name.clone(),
                                                desc: format!(
                                                    "`{}` acquires `{}` at {}:{} while `{}` \
                                                     is held (since line {})",
                                                    f.name,
                                                    display(&key),
                                                    f.path,
                                                    t.line,
                                                    display(&g.lock),
                                                    g.line
                                                ),
                                            },
                                        );
                                    }
                                }
                                facts.acquires.entry(key.clone()).or_insert(t.line);
                                guards.push(Guard {
                                    lock: key,
                                    binding: if bound { binding.clone() } else { None },
                                    depth,
                                    temp: !bound,
                                    line: t.line,
                                });
                                i += 1;
                                continue;
                            }
                        }
                    }
                }
                // `let` binding-name collection.
                if in_let && collecting && !NOT_A_BINDING.contains(&t.text.as_str()) {
                    binding = Some(t.text.clone());
                }
                // Explicit release: `drop(guard)`.
                if t.text == "drop"
                    && next_is_call
                    && !prev_dot
                    && !(i > 0 && toks[i - 1].is_punct(':'))
                {
                    if let (Some(arg), Some(close)) = (toks.get(i + 2), toks.get(i + 3)) {
                        if arg.kind == TokKind::Ident && close.is_punct(')') {
                            guards.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
                        }
                    }
                    i += 1;
                    continue;
                }
                // Call events.
                if next_is_call && !(i > 0 && toks[i - 1].is_ident("fn")) {
                    handle_call(
                        toks,
                        i,
                        t,
                        prev_dot,
                        f,
                        &guards,
                        in_callback_scope,
                        &mut facts,
                        &mut emit,
                    );
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// True when the `.lock()`/`.read()`/`.write()` call at ident index `i`
/// produces the value a surrounding `let` actually binds — i.e. the
/// only tokens between the call and the statement's `;`/`else`/`?` are
/// `.expect(…)`/`.unwrap()` tails. `let n = m.lock().items.len();`
/// binds a `usize`, not a guard: the guard is a statement temporary no
/// matter what the `let` says.
fn guard_is_bound(toks: &[Tok], i: usize, end: usize) -> bool {
    // Past the (empty) argument list of lock()/read()/write().
    let mut j = i + 1;
    let mut paren = 0i32;
    while j < end {
        if toks[j].is_punct('(') {
            paren += 1;
        } else if toks[j].is_punct(')') {
            paren -= 1;
            if paren == 0 {
                j += 1;
                break;
            }
        }
        j += 1;
    }
    loop {
        // Skip `.expect(…)` / `.unwrap()` tails.
        if toks.get(j).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(j + 1)
                .is_some_and(|t| matches!(t.text.as_str(), "expect" | "unwrap"))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            let mut p = 0i32;
            j += 2;
            while j < end {
                if toks[j].is_punct('(') {
                    p += 1;
                } else if toks[j].is_punct(')') {
                    p -= 1;
                    if p == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            continue;
        }
        break;
    }
    if toks.get(j).is_some_and(|t| t.is_punct('?')) {
        j += 1;
    }
    toks.get(j)
        .is_some_and(|t| t.is_punct(';') || t.is_ident("else"))
}

/// One call site inside a tracked body: classifies it against the sink
/// and callback tables, emits direct findings, and records the call for
/// the interprocedural stage when any guard is live.
#[allow(clippy::too_many_arguments)] // one in-param per tracked dimension
fn handle_call(
    toks: &[Tok],
    i: usize,
    t: &Tok,
    prev_dot: bool,
    f: &crate::graph::FnNode,
    guards: &[Guard],
    in_callback_scope: bool,
    facts: &mut FnFacts,
    emit: &mut impl FnMut(Finding),
) {
    let name = t.text.as_str();
    let receiver = (prev_dot && i >= 2)
        .then(|| &toks[i - 2])
        .filter(|r| r.kind == TokKind::Ident)
        .map(|r| r.text.clone());
    // Sinks must be method (`x.flush(`) or path (`thread::sleep(`)
    // calls: a *bare* sink-named call is a local closure or first-party
    // free function (the currency tokenizer's `flush(…)` closure), and
    // those the call graph covers on its own terms.
    let prev_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');

    if (prev_dot || prev_path) && config::BLOCKING_SINKS.contains(&name) {
        let exempt = receiver.as_deref().is_some_and(|r| {
            config::BLOCKING_SINK_RECEIVER_EXEMPT
                .iter()
                .any(|(s, recv)| *s == name && *recv == r)
        });
        if !exempt {
            // Caller-perspective blocking: a wait here blocks whoever
            // calls us while holding *their* guard, so no wait
            // carve-out applies to this fact.
            if facts.blocking.is_none() {
                facts.blocking = Some((name.to_string(), t.line));
            }
            // Direct finding: the canonical `cv.wait(guard)` releases
            // the guard it is handed, so that one guard does not count
            // as held across the wait.
            let waived = if matches!(name, "wait" | "wait_timeout") {
                toks.get(i + 2)
                    .filter(|a| a.kind == TokKind::Ident)
                    .map(|a| a.text.clone())
            } else {
                None
            };
            let allowlisted = config::BLOCKING_ALLOWED_FNS
                .iter()
                .any(|(p, n)| f.path.contains(p) && *n == f.name);
            if !allowlisted {
                if let Some(g) = guards
                    .iter()
                    .find(|g| g.binding.as_deref() != waived.as_deref() || g.binding.is_none())
                {
                    emit(Finding {
                        path: f.path.clone(),
                        line: t.line,
                        rule: Rule::BlockingUnderLock,
                        message: format!(
                            "`{}` calls blocking `{}` while `{}` guard (line {}) is live — \
                             the wait pins every peer on this reactor thread",
                            f.name,
                            name,
                            display(&g.lock),
                            g.line
                        ),
                    });
                }
            }
        }
    }

    if in_callback_scope
        && prev_dot
        && config::PROTOCOL_CALLBACK_FNS.contains(&name)
        && !guards.is_empty()
    {
        let g = &guards[0];
        emit(Finding {
            path: f.path.clone(),
            line: t.line,
            rule: Rule::CallbackUnderLock,
            message: format!(
                "`{}` invokes protocol callback `{}` while `{}` guard (line {}) is live — \
                 the sans-IO machine runs inside the wire critical section",
                f.name,
                name,
                display(&g.lock),
                g.line
            ),
        });
    }

    if !guards.is_empty() {
        facts.guarded_calls.push((
            name.to_string(),
            t.line,
            guards.iter().map(|g| (g.lock.clone(), g.line)).collect(),
        ));
    }
}

// ---------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------

/// One finding per distinct cycle in the lock-order graph, discovered
/// from the lexically-smallest participating lock and rendered with one
/// witness per edge.
fn find_cycles(edges: &BTreeMap<(LockKey, LockKey), EdgeWit>) -> Vec<Finding> {
    let mut adj: BTreeMap<&LockKey, Vec<&LockKey>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut findings = Vec::new();
    let mut in_cycle: BTreeSet<LockKey> = BTreeSet::new();
    let starts: Vec<&LockKey> = adj.keys().copied().collect();
    for start in starts {
        if in_cycle.contains(start) {
            continue;
        }
        // BFS from `start`; a discovered edge back into `start` closes
        // a cycle, reconstructed through the BFS parents.
        let mut parent: BTreeMap<&LockKey, &LockKey> = BTreeMap::new();
        let mut queue: Vec<&LockKey> = vec![start];
        let mut seen: BTreeSet<&LockKey> = BTreeSet::new();
        seen.insert(start);
        let mut closing: Option<&LockKey> = None;
        'bfs: while let Some(u) = queue.pop() {
            for v in adj.get(u).into_iter().flatten() {
                if *v == start {
                    closing = Some(u);
                    break 'bfs;
                }
                if seen.insert(v) {
                    parent.insert(v, u);
                    queue.push(v);
                }
            }
        }
        let Some(mut node) = closing else {
            continue;
        };
        let mut rev = vec![node];
        while node != start {
            node = parent[&node];
            rev.push(node);
        }
        rev.reverse(); // start → … → closing
        let mut path: Vec<&LockKey> = rev;
        path.push(start);
        for l in &path {
            in_cycle.insert((*l).clone());
        }
        let mut msg = String::from("lock-order cycle: ");
        let mut anchor: Option<(&str, u32)> = None;
        for w in path.windows(2) {
            let wit = &edges[&(w[0].clone(), w[1].clone())];
            if anchor.is_none() {
                anchor = Some((&wit.path, wit.line));
            }
            msg.push_str(&format!(
                "`{}` → `{}` ({} in `{}`); ",
                display(w[0]),
                display(w[1]),
                wit.desc,
                wit.fn_name
            ));
        }
        let msg = msg.trim_end_matches("; ").to_string();
        let (path_s, line) = anchor.expect("cycle has at least two edges");
        findings.push(Finding {
            path: path_s.to_string(),
            line,
            rule: Rule::LockOrderCycle,
            message: msg,
        });
    }
    findings
}
