//! The Tags Path recorder and the three-rung extractor as they ran over
//! the old tree (ISSUE 22 replaced the per-step `Vec`, the recursive
//! relaxed walk and the candidate `Vec`), kept verbatim as the
//! differential oracle. The path types are the product's: a path is data.

use sheriff_html::tagspath::{MatchQuality, PathStep, TagsPath};

use super::dom::{Document, NodeId, NodeKind};

/// Builds the path for `target` in `doc`.
pub fn from_node(doc: &Document, target: NodeId) -> Option<TagsPath> {
    doc.name(target)?;
    let mut steps = Vec::new();
    let mut cur = target;
    loop {
        let name = doc.name(cur)?.to_string();
        let parent = doc.parent(cur)?;
        let nth_of_name = doc
            .children(parent)
            .iter()
            .filter(|&&c| doc.name(c) == Some(name.as_str()))
            .position(|&c| c == cur)
            .unwrap_or(0);
        steps.push(PathStep {
            class: doc.attr(cur, "class").map(str::to_string),
            id_attr: doc.attr(cur, "id").map(str::to_string),
            name,
            nth_of_name,
        });
        if matches!(doc.kind(parent), NodeKind::Document) {
            break;
        }
        cur = parent;
    }
    steps.reverse();
    Some(TagsPath { steps })
}

/// Extracts the node addressed by `path`, with the fallback ladder.
pub fn extract_by_path(doc: &Document, path: &TagsPath) -> Option<(NodeId, MatchQuality)> {
    if path.steps.is_empty() {
        return None;
    }
    if let Some(n) = walk_exact(doc, path) {
        return Some((n, MatchQuality::Exact));
    }
    if let Some(n) = walk_relaxed(doc, path) {
        return Some((n, MatchQuality::Relaxed));
    }
    global_search(doc, path).map(|n| (n, MatchQuality::Global))
}

fn step_matches(doc: &Document, id: NodeId, step: &PathStep, check_class: bool) -> bool {
    if doc.name(id) != Some(step.name.as_str()) {
        return false;
    }
    if check_class {
        if let Some(class) = &step.class {
            if doc.attr(id, "class") != Some(class.as_str()) {
                return false;
            }
        }
    }
    true
}

fn walk_exact(doc: &Document, path: &TagsPath) -> Option<NodeId> {
    let mut cur = doc.root();
    for step in &path.steps {
        let same_name: Vec<NodeId> = doc
            .children(cur)
            .iter()
            .copied()
            .filter(|&c| doc.name(c) == Some(step.name.as_str()))
            .collect();
        let cand = *same_name.get(step.nth_of_name)?;
        if !step_matches(doc, cand, step, true) {
            return None;
        }
        cur = cand;
    }
    Some(cur)
}

fn walk_relaxed(doc: &Document, path: &TagsPath) -> Option<NodeId> {
    fn rec(doc: &Document, cur: NodeId, steps: &[PathStep]) -> Option<NodeId> {
        let Some((step, rest)) = steps.split_first() else {
            return Some(cur);
        };
        for &c in doc.children(cur) {
            if step_matches(doc, c, step, true) {
                if let Some(hit) = rec(doc, c, rest) {
                    return Some(hit);
                }
            }
        }
        None
    }
    rec(doc, doc.root(), &path.steps)
}

fn global_search(doc: &Document, path: &TagsPath) -> Option<NodeId> {
    let last = path.steps.last()?;
    let candidates: Vec<NodeId> = doc
        .descendants(doc.root())
        .into_iter()
        .filter(|&id| {
            if doc.name(id) != Some(last.name.as_str()) {
                return false;
            }
            if let Some(idv) = &last.id_attr {
                if doc.attr(id, "id") == Some(idv.as_str()) {
                    return true;
                }
            }
            // Without any distinguishing attribute a bare global name
            // match is too weak to trust.
            match &last.class {
                Some(c) => doc.attr(id, "class") == Some(c.as_str()),
                None => false,
            }
        })
        .collect();
    // Prefer a candidate whose text looks like a price (contains a digit).
    candidates
        .iter()
        .copied()
        .find(|&id| doc.text_content(id).chars().any(|c| c.is_ascii_digit()))
        .or_else(|| candidates.first().copied())
}
