//! Tags Path construction and tolerant extraction (paper §3.3, Fig. 4).
//!
//! The add-on records, for the element the user highlighted, the chain of
//! tags leading to it. The paper describes the walk bottom-up ("Bottom,
//! `</html>`, `</body>`, `</div>`, `<span class="price">`"); we store the
//! equivalent root→target chain, with each step carrying the tag name,
//! distinguishing attributes, and the element's index among same-named
//! siblings.
//!
//! Replaying the path on pages fetched by *other* proxy clients must cope
//! with dynamically generated content — different ads, reordered
//! recommendation blocks, localized banners (§3.3's closing caveat). The
//! extractor therefore applies a fallback ladder:
//!
//! 1. **exact** — walk name + nth-of-name at every level;
//! 2. **relaxed** — walk name (+ class when recorded), ignoring indices;
//! 3. **global** — search the whole document for the final step's
//!    name/class/id, preferring candidates whose text contains a digit
//!    (prices do).

use serde::{Deserialize, Serialize};

use crate::dom::{Document, NodeId, NodeKind};

/// One step of a Tags Path.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathStep {
    /// Tag name (lower-case).
    pub name: String,
    /// `class` attribute, when present on the recorded element.
    pub class: Option<String>,
    /// `id` attribute, when present.
    pub id_attr: Option<String>,
    /// Index among same-named element siblings (0-based).
    pub nth_of_name: usize,
}

/// A recorded path from the document root to the price element.
///
/// ```
/// use sheriff_html::{Document, TagsPath};
/// use sheriff_html::tagspath::extract_text_by_path;
///
/// // The add-on records the path on the initiator's page…
/// let local = Document::parse(
///     r#"<html><body><div class="product"><span class="price">$10.00</span></div></body></html>"#,
/// );
/// let span = local.find_by_class("span", "price").unwrap();
/// let path = TagsPath::from_node(&local, span).unwrap();
/// assert!(path.to_paper_notation().starts_with("Bottom, </html>"));
///
/// // …and the Measurement server replays it on a proxy's page, which may
/// // show a different price.
/// let remote = Document::parse(
///     r#"<html><body><div class="ad">sale!</div><div class="product"><span class="price">$12.50</span></div></body></html>"#,
/// );
/// let (text, _quality) = extract_text_by_path(&remote, &path).unwrap();
/// assert_eq!(text, "$12.50");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagsPath {
    /// Steps, outermost first.
    pub steps: Vec<PathStep>,
}

impl TagsPath {
    /// Builds the path for `target` in `doc`.
    ///
    /// Returns `None` if `target` is not an element (text nodes are not
    /// directly selectable in the add-on).
    pub fn from_node(doc: &Document, target: NodeId) -> Option<TagsPath> {
        doc.name(target)?;
        let mut steps = Vec::new();
        let mut cur = target;
        loop {
            let name = doc.name(cur)?.to_string();
            let parent = doc.parent(cur)?;
            let nth_of_name = doc
                .children(parent)
                .filter(|&c| doc.name(c) == Some(name.as_str()))
                .position(|c| c == cur)
                .unwrap_or(0);
            steps.push(PathStep {
                class: doc.attr(cur, "class").map(str::to_string),
                id_attr: doc.attr(cur, "id").map(str::to_string),
                name,
                nth_of_name,
            });
            if doc.kind(parent) == NodeKind::Document {
                break;
            }
            cur = parent;
        }
        steps.reverse();
        Some(TagsPath { steps })
    }

    /// Renders the paper's bottom-up notation for display, e.g.
    /// `Bottom, </html>, </body>, </div>, <span class="price">`.
    pub fn to_paper_notation(&self) -> String {
        let mut parts = vec!["Bottom".to_string()];
        for (i, step) in self.steps.iter().enumerate() {
            if i + 1 == self.steps.len() {
                match &step.class {
                    Some(c) => parts.push(format!("<{} class=\"{}\">", step.name, c)),
                    None => parts.push(format!("<{}>", step.name)),
                }
            } else {
                parts.push(format!("</{}>", step.name));
            }
        }
        parts.join(", ")
    }

    /// Depth of the recorded path.
    pub fn depth(&self) -> usize {
        self.steps.len()
    }
}

/// How a path match was found — reported so analyses can weigh confidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchQuality {
    /// Exact structural walk succeeded.
    Exact,
    /// Indices had to be relaxed.
    Relaxed,
    /// Only the final step could be located globally.
    Global,
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

/// Extracts the price *text* addressed by `path`.
pub fn extract_text_by_path(doc: &Document, path: &TagsPath) -> Option<(String, MatchQuality)> {
    extract_by_path(doc, path).map(|(n, q)| (doc.text_content(n).trim().to_string(), q))
}

/// Name and, when the step recorded one, class.
fn step_matches(doc: &Document, id: NodeId, step: &PathStep) -> bool {
    let class_ok = |class: &String| doc.attr(id, "class") == Some(class.as_str());
    doc.name(id) == Some(step.name.as_str()) && step.class.as_ref().is_none_or(class_ok)
}

fn walk_exact(doc: &Document, path: &TagsPath) -> Option<NodeId> {
    let mut cur = doc.root();
    for step in &path.steps {
        let cand = doc
            .children(cur)
            .filter(|&c| doc.name(c) == Some(step.name.as_str()))
            .nth(step.nth_of_name)?;
        if !step_matches(doc, cand, step) {
            return None;
        }
        cur = cand;
    }
    Some(cur)
}

/// Depth-first, first hit: at every level any child matching the step may
/// carry the rest of the path. Backtracks over the parent links, so
/// neither the page's depth nor the path's costs call stack, and every
/// node is looked at once.
fn walk_relaxed(doc: &Document, path: &TagsPath) -> Option<NodeId> {
    // `cur` is the next candidate for `steps[depth]` among `parent`'s
    // children.
    let (mut depth, mut parent) = (0, doc.root());
    let mut cur = doc.first_child(parent);
    loop {
        match cur {
            Some(c) if step_matches(doc, c, path.steps.get(depth)?) => {
                if depth + 1 == path.steps.len() {
                    return Some(c);
                }
                (depth, parent, cur) = (depth + 1, c, doc.first_child(c));
            }
            Some(c) => cur = doc.next_sibling(c),
            // Nothing under this parent: resume after it, one level up.
            None => {
                depth = depth.checked_sub(1)?;
                (cur, parent) = (doc.next_sibling(parent), doc.parent(parent)?);
            }
        }
    }
}

fn global_search(doc: &Document, path: &TagsPath) -> Option<NodeId> {
    let last = path.steps.last()?;
    // The final step's name plus its id or class: without any
    // distinguishing attribute a bare global name match is too weak.
    let has =
        |id, key, want: &Option<String>| want.is_some() && doc.attr(id, key) == want.as_deref();
    let is_candidate = |id: NodeId| {
        doc.name(id) == Some(last.name.as_str())
            && (has(id, "id", &last.id_attr) || has(id, "class", &last.class))
    };
    // Prefer the first candidate whose text looks like a price (contains
    // a digit), else the first candidate. One backward pass: a subtree is
    // an index range, so it holds a digit iff the nearest digit-bearing
    // text node at or after the candidate lies inside it.
    let (mut first, mut first_with_digit) = (None, None);
    let mut digit_at = usize::MAX;
    for id in doc.descendants(doc.root()).rev() {
        if doc.kind(id) == NodeKind::Text {
            if doc.texts(id).any(|t| t.bytes().any(|b| b.is_ascii_digit())) {
                digit_at = id.0;
            }
        } else if is_candidate(id) {
            first = Some(id);
            if digit_at < doc.subtree_end(id) {
                first_with_digit = Some(id);
            }
        }
    }
    first_with_digit.or(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"<html><head><title>t</title></head><body>
<div class="nav">menu</div>
<div class="product">
  <img src="p.jpg">
  <span class="price">$10.00</span>
</div>
</body></html>"#;

    fn price_path(doc: &Document) -> TagsPath {
        let span = doc.find_by_class("span", "price").unwrap();
        TagsPath::from_node(doc, span).unwrap()
    }

    #[test]
    fn construct_and_extract_same_page() {
        let doc = Document::parse(PAGE);
        let path = price_path(&doc);
        let (text, q) = extract_text_by_path(&doc, &path).unwrap();
        assert_eq!(text, "$10.00");
        assert_eq!(q, MatchQuality::Exact);
    }

    #[test]
    fn paper_notation_shape() {
        let doc = Document::parse(PAGE);
        let path = price_path(&doc);
        let notation = path.to_paper_notation();
        assert!(
            notation.starts_with("Bottom, </html>, </body>"),
            "{notation}"
        );
        assert!(notation.ends_with(r#"<span class="price">"#), "{notation}");
    }

    #[test]
    fn extraction_survives_inserted_sibling() {
        // The remote page gained an ad block before the product div — the
        // exact index walk fails but the relaxed walk must recover.
        let doc = Document::parse(PAGE);
        let path = price_path(&doc);
        let remote = PAGE.replace(
            r#"<div class="product">"#,
            r#"<div class="ad">buy now!</div><div class="product">"#,
        );
        let rdoc = Document::parse(&remote);
        let (text, q) = extract_text_by_path(&rdoc, &path).unwrap();
        assert_eq!(text, "$10.00");
        assert!(q == MatchQuality::Relaxed || q == MatchQuality::Exact);
    }

    #[test]
    fn extraction_survives_full_restructure() {
        // Entirely different page structure, same price element markup.
        let doc = Document::parse(PAGE);
        let path = price_path(&doc);
        let remote = r#"<html><body><main><section><article>
            <span class="price">€9.50</span>
        </article></section></main></body></html>"#;
        let rdoc = Document::parse(remote);
        let (text, q) = extract_text_by_path(&rdoc, &path).unwrap();
        assert_eq!(text, "€9.50");
        assert_eq!(q, MatchQuality::Global);
    }

    #[test]
    fn global_prefers_digit_bearing_candidate() {
        let doc = Document::parse(PAGE);
        let path = price_path(&doc);
        let remote = r#"<html><body>
            <span class="price">see below</span>
            <span class="price">$42</span>
        </body></html>"#;
        let rdoc = Document::parse(remote);
        let (text, _) = extract_text_by_path(&rdoc, &path).unwrap();
        assert_eq!(text, "$42");
    }

    #[test]
    fn missing_element_returns_none() {
        let doc = Document::parse(PAGE);
        let path = price_path(&doc);
        let rdoc = Document::parse("<html><body><p>sold out</p></body></html>");
        assert!(extract_by_path(&rdoc, &path).is_none());
    }

    #[test]
    fn multiple_prices_resolved_by_structure() {
        // Recommendation blocks carry their own .price spans; the exact
        // walk must pick the recorded one.
        let page = r#"<html><body>
          <div class="reco"><span class="price">$1.00</span></div>
          <div class="product"><span class="price">$10.00</span></div>
          <div class="reco"><span class="price">$2.00</span></div>
        </body></html>"#;
        let doc = Document::parse(page);
        let product = doc.find_by_class("div", "product").unwrap();
        let span = doc
            .descendants(product)
            .find(|&id| doc.name(id) == Some("span"))
            .unwrap();
        let path = TagsPath::from_node(&doc, span).unwrap();
        let (text, q) = extract_text_by_path(&doc, &path).unwrap();
        assert_eq!(text, "$10.00");
        assert_eq!(q, MatchQuality::Exact);
    }

    #[test]
    fn text_node_has_no_path() {
        let doc = Document::parse("<p>just text</p>");
        let p = doc.elements_named("p")[0];
        let text_node = doc.children(p).next().unwrap();
        assert!(TagsPath::from_node(&doc, text_node).is_none());
    }

    #[test]
    fn empty_path_extracts_nothing() {
        let doc = Document::parse(PAGE);
        assert!(extract_by_path(&doc, &TagsPath { steps: vec![] }).is_none());
    }
}
