//! The workspace call graph.
//!
//! Built once per run from every parsed file, then shared by the
//! cross-file passes: [`crate::reach`] walks it forward from the
//! panic-freedom scope, [`crate::locks`] follows it from guard scopes.
//! Nodes are functions; edges are *resolved* calls.
//!
//! Resolution is name-based and deliberately conservative — the linter
//! has no type information, so an edge is added only when the target is
//! unambiguous enough to be trusted:
//!
//! * `path::to::f(...)` / `Type::f(...)` — resolved against functions
//!   whose impl type or defining file stem matches the qualifier.
//! * `f(...)` — resolved to a free function named `f` in the same file,
//!   else to the unique workspace function of that name.
//! * `x.m(...)` — resolved to workspace methods named `m`, *except*
//!   names on the [`crate::config::METHOD_STOPLIST`] (std-colliding
//!   names like `get`/`insert`/`len`), which would wire unrelated
//!   crates together through `BTreeMap::get` and friends.
//!
//! Unresolvable calls contribute no edge: the graph under-approximates,
//! which for the panic pass means missed findings, never false ones.

use std::collections::{BTreeMap, BTreeSet};

use crate::config;
use crate::lexer::{Tok, TokKind};
use crate::parser::{Item, ItemKind};

/// One analyzed file: its path, token stream, and parsed items. The
/// walk produces these once ([`crate::collect_sources`]) and every pass
/// shares them.
pub struct SourceFile {
    /// Normalized (`/`-separated) path as given to the analyzer.
    pub path: String,
    /// The full token stream.
    pub toks: Vec<Tok>,
    /// Per-token `#[cfg(test)]` marks.
    pub test_marks: Vec<bool>,
    /// Parsed items.
    pub items: Vec<Item>,
}

/// Graph-wide function id: index into [`CallGraph::fns`].
pub type FnId = usize;

/// One function node.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Defining file (normalized path).
    pub path: String,
    /// File stem of the defining file (`reliable` for `.../reliable.rs`),
    /// used as the module qualifier in resolution.
    pub module: String,
    /// Impl self type, when the function is a method.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token range of the item in its file's stream.
    pub start: usize,
    /// Exclusive end of the token range.
    pub end: usize,
    /// Index of the owning file in the build input.
    pub file: usize,
    /// True for `#[cfg(test)]` / test-tree functions.
    pub in_tests: bool,
}

/// One unresolved call site, kept for the resolution step.
struct CallSite {
    caller: FnId,
    /// Qualifier: `Some("Type")` for `Type::f` paths, `None` for bare
    /// and method calls.
    qualifier: Option<String>,
    name: String,
    /// True for `.name(...)` method-call syntax.
    is_method: bool,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All function nodes.
    pub fns: Vec<FnNode>,
    /// Adjacency: caller → callees (sorted, deduplicated).
    pub edges: Vec<Vec<FnId>>,
}

impl CallGraph {
    /// Builds the graph over every parsed file.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let module = file
                .path
                .rsplit('/')
                .next()
                .and_then(|n| n.strip_suffix(".rs"))
                .unwrap_or("")
                .to_string();
            for item in &file.items {
                if item.kind != ItemKind::Fn {
                    continue;
                }
                fns.push(FnNode {
                    path: file.path.clone(),
                    module: module.clone(),
                    self_ty: item.self_ty.clone(),
                    name: item.name.clone(),
                    line: item.line,
                    start: item.start,
                    end: item.end,
                    file: fi,
                    in_tests: item.in_tests,
                });
            }
        }

        // Scan every body once for its call sites.
        let mut sites = Vec::new();
        for (id, f) in fns.iter().enumerate() {
            if let Some(file) = files.get(f.file) {
                scan_body(file, f, id, &mut sites);
            }
        }

        // Resolve call sites into edges.
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(id);
        }
        let mut edges: Vec<BTreeSet<FnId>> = vec![BTreeSet::new(); fns.len()];
        for site in &sites {
            for target in resolve(site, &fns, &by_name) {
                if target != site.caller {
                    if let Some(set) = edges.get_mut(site.caller) {
                        set.insert(target);
                    }
                }
            }
        }
        CallGraph {
            fns,
            edges: edges.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }
}

/// Scans one function body for call sites.
fn scan_body(file: &SourceFile, f: &FnNode, id: FnId, sites: &mut Vec<CallSite>) {
    let toks = &file.toks;
    for i in f.start.max(1)..f.end.min(toks.len()) {
        let t = &toks[i];
        let next_is_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if t.kind != TokKind::Ident || !next_is_call || toks[i - 1].is_ident("fn") {
            continue;
        }
        // The qualifier of `a::b::name(`-style calls.
        let prev_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        let qualifier = if prev_path {
            toks.get(i.wrapping_sub(3))
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.clone())
        } else {
            None
        };
        sites.push(CallSite {
            caller: id,
            qualifier,
            name: t.text.clone(),
            is_method: toks[i - 1].is_punct('.'),
        });
    }
}

/// True when crate layering permits `caller` to call `callee`: same
/// crate, or the callee's crate on a strictly lower layer (a crate the
/// caller can depend on). Paths outside the layer table (fixture trees)
/// are unconstrained. See [`config::CRATE_LAYERS`].
fn layer_permits(caller: &FnNode, callee: &FnNode) -> bool {
    if config::crate_name(&caller.path) == config::crate_name(&callee.path) {
        return true;
    }
    match (
        config::crate_layer(&caller.path),
        config::crate_layer(&callee.path),
    ) {
        (Some(from), Some(to)) => to < from,
        _ => true,
    }
}

/// Resolves one call site to zero or more workspace functions.
fn resolve(site: &CallSite, fns: &[FnNode], by_name: &BTreeMap<&str, Vec<FnId>>) -> Vec<FnId> {
    let Some(all) = by_name.get(site.name.as_str()) else {
        return Vec::new();
    };
    let caller = &fns[site.caller];
    let candidates: Vec<FnId> = all
        .iter()
        .copied()
        .filter(|&id| layer_permits(caller, &fns[id]))
        .collect();
    if let Some(q) = &site.qualifier {
        // `Type::name` or `module::name`: impl type or file stem match.
        return candidates
            .iter()
            .copied()
            .filter(|&id| {
                let f = &fns[id];
                f.self_ty.as_deref() == Some(q.as_str()) || f.module == *q
            })
            .collect();
    }
    if site.is_method {
        if config::METHOD_STOPLIST.contains(&site.name.as_str()) {
            return Vec::new();
        }
        // Methods resolve to every workspace method of that name — an
        // over-approximation kept honest by the stoplist.
        return candidates
            .iter()
            .copied()
            .filter(|&id| fns[id].self_ty.is_some())
            .collect();
    }
    // Bare call: same-file free fn first, else unique workspace-wide.
    let caller_file = fns[site.caller].file;
    let same_file: Vec<FnId> = candidates
        .iter()
        .copied()
        .filter(|&id| fns[id].file == caller_file && fns[id].self_ty.is_none())
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let free: Vec<FnId> = candidates
        .iter()
        .copied()
        .filter(|&id| fns[id].self_ty.is_none())
        .collect();
    if free.len() == 1 {
        return free;
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;
    use crate::rules::test_regions;

    fn file(path: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let test_marks = test_regions(&toks);
        let items = parse_items(&toks, &test_marks);
        SourceFile {
            path: path.into(),
            toks,
            test_marks,
            items,
        }
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = g.fns.iter().position(|n| n.name == from).unwrap();
        let t = g.fns.iter().position(|n| n.name == to).unwrap();
        g.edges[f].contains(&t)
    }

    #[test]
    fn bare_calls_resolve_same_file_then_unique() {
        let files = vec![
            file(
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn top() { helper(); other(); }",
            ),
            file("crates/b/src/lib.rs", "pub fn other() {}"),
        ];
        let g = CallGraph::build(&files);
        assert!(edge(&g, "top", "helper"));
        assert!(edge(&g, "top", "other"));
    }

    #[test]
    fn qualified_calls_match_impl_type_or_module() {
        let files = vec![
            file(
                "crates/a/src/widget.rs",
                "pub struct Widget;\nimpl Widget { pub fn build() {} }\npub fn free() {}",
            ),
            file(
                "crates/b/src/lib.rs",
                "fn go() { Widget::build(); widget::free(); }",
            ),
        ];
        let g = CallGraph::build(&files);
        assert!(edge(&g, "go", "build"));
        assert!(edge(&g, "go", "free"));
    }

    #[test]
    fn method_calls_resolve_by_name_with_stoplist() {
        let files = vec![
            file(
                "crates/a/src/lib.rs",
                "impl Engine { pub fn remote_fetch(&self) {} pub fn get(&self) {} }",
            ),
            file(
                "crates/b/src/lib.rs",
                "fn go(e: &Engine) { e.remote_fetch(); e.get(); }",
            ),
        ];
        let g = CallGraph::build(&files);
        assert!(edge(&g, "go", "remote_fetch"));
        assert!(
            !edge(&g, "go", "get"),
            "stoplisted std-colliding method name must not resolve"
        );
    }

    #[test]
    fn ambiguous_bare_calls_are_dropped() {
        let files = vec![
            file("crates/a/src/lib.rs", "pub fn dup() {}"),
            file("crates/b/src/lib.rs", "pub fn dup() {}"),
            file("crates/c/src/lib.rs", "fn go() { dup(); }"),
        ];
        let g = CallGraph::build(&files);
        let go = g.fns.iter().position(|n| n.name == "go").unwrap();
        assert!(g.edges[go].is_empty());
    }
}
