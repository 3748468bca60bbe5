//! A flat DOM: one node table in document order over one owned copy of
//! the page. A subtree is a contiguous index range, so child, sibling and
//! subtree walks are loops over indices — nesting depth costs no call
//! stack — and names, values and text are byte ranges, so parsing
//! allocates nothing per node. DESIGN.md ("HTML") has the reasoning.

use std::collections::BTreeMap;

use crate::tokenizer;

/// Handle to a node in a [`Document`] table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The document root (not a real element).
    Document,
    /// An element; see [`Document::name`] and [`Document::attrs`].
    Element,
    /// A text node; [`Document::text_content`] returns its text.
    Text,
}

/// A byte range of `Document::text`, or a row range of the attribute slab.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    pub(crate) fn new(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    kind: NodeKind,
    /// Element: lower-cased name. Text: entity-decoded text.
    text: Span,
    /// Rows of `Document::attrs`, sorted by name, one per name.
    attrs: Span,
    parent: u32,
    /// One past the last node of this subtree.
    end: u32,
}

/// A parsed HTML document.
#[derive(Clone, Debug)]
pub struct Document {
    /// The page (names lower-cased in place), then the entity-decoded
    /// copy of every run that contains an `&`.
    text: String,
    /// Nodes in document order; the root is node 0.
    nodes: Vec<Node>,
    /// `(name, value)` rows; each element owns a contiguous run.
    attrs: Vec<(Span, Span)>,
}

/// Longest page parsed; the rest is cut. Derived strings are never
/// longer than the source run they come from, so `text` stays below
/// `u32::MAX` and every `Span` is exact. (A wire frame is at most 8 MiB.)
const MAX_PAGE_BYTES: usize = (u32::MAX / 2) as usize;

/// Elements that never have children.
const VOID: [&str; 13] = [
    "img", "br", "hr", "input", "meta", "link", "area", "base", "col", "embed", "source", "track",
    "wbr",
];

/// The tree under construction: what [`tokenizer::tokenize`] feeds.
pub(crate) struct TreeBuilder {
    doc: Document,
    /// Open elements, root first.
    stack: Vec<u32>,
    /// Open elements per name, kept from the first end tag that does
    /// not close the innermost element: "is any `name` open?" without
    /// walking the stack, so unmatched end tags under deep nesting cost a
    /// lookup each, not a scan each. Well-nested pages never build it.
    open_names: Option<BTreeMap<String, u32>>,
}

impl TreeBuilder {
    /// The page's bytes `start..end` as a lower-cased name. The copy this
    /// document owns is lowered in place: nothing else reads a name's bytes.
    pub(crate) fn lowered(&mut self, start: usize, end: usize) -> Span {
        if let Some(name) = self.doc.text.get_mut(start..end) {
            name.make_ascii_lowercase();
        }
        Span::new(start, end)
    }

    /// The span of `s` (at byte `at` of the page) with entities decoded:
    /// the source range itself unless it holds an `&`.
    pub(crate) fn decoded(&mut self, at: usize, s: &str) -> Span {
        if !s.contains('&') {
            return Span::new(at, at + s.len());
        }
        let start = self.doc.text.len();
        tokenizer::decode_entities(s, &mut self.doc.text);
        Span::new(start, self.doc.text.len())
    }

    /// Records one attribute of the start tag being lexed.
    pub(crate) fn attr(&mut self, name: Span, value: Span) {
        self.doc.attrs.push((name, value));
    }

    /// Adds an element owning the last `n_attrs` recorded attributes.
    // In-place compaction of the sorted rows: `kept <= r < rows.len()`
    // throughout, and `n_attrs` counts rows this tag's lexer just pushed.
    // sheriff-lint: allow-item(transitive-panic)
    pub(crate) fn start_tag(&mut self, name: Span, n_attrs: usize, self_closing: bool) {
        // Rows in name order, first occurrence of a name wins (the sort
        // is stable): what `attr` searches and `serialize` prints.
        let from = self.doc.attrs.len() - n_attrs;
        if n_attrs > 1 {
            let text = &self.doc.text;
            let key = |row: &(Span, Span)| text.get(row.0.range()).unwrap_or_default();
            let rows = self.doc.attrs.get_mut(from..).unwrap_or_default();
            rows.sort_by(|a, b| key(a).cmp(key(b)));
            let mut kept = 1;
            for r in 1..rows.len() {
                if key(&rows[r]) != key(&rows[kept - 1]) {
                    rows[kept] = rows[r];
                    kept += 1;
                }
            }
            self.doc.attrs.truncate(from + kept);
        }
        let attrs = Span::new(from, self.doc.attrs.len());
        let id = self.push(NodeKind::Element, name, attrs);
        if !self_closing && !VOID.contains(&self.name_of(id)) {
            self.stack.push(id);
            self.count_open(id, 1);
        }
    }

    /// Closes the nearest open element called `name` (any case) and
    /// everything opened inside it; ignored when no such element is open.
    pub(crate) fn end_tag(&mut self, name: &str) {
        let innermost = self.stack.len() - 1;
        if self
            .stack
            .last()
            .is_some_and(|&id| self.name_of(id).eq_ignore_ascii_case(name))
        {
            return self.pop_to(innermost);
        }
        if self.open_names.is_none() {
            self.open_names = Some(BTreeMap::new());
            for id in self.stack.clone() {
                self.count_open(id, 1);
            }
        }
        let name = name.to_ascii_lowercase();
        let open = self.open_names.as_ref().and_then(|open| open.get(&name));
        if open.is_some_and(|&n| n > 0) {
            let pos = self.stack.iter().rposition(|&id| self.name_of(id) == name);
            self.pop_to(pos.unwrap_or(self.stack.len()));
        }
    }

    /// Adds a text node for `s`, which starts at byte `at` of the page.
    /// Between tags (`drop_blank`) whitespace-only text is no node.
    pub(crate) fn text(&mut self, at: usize, s: &str, drop_blank: bool) {
        let span = self.decoded(at, s);
        if !(drop_blank && self.doc.str(span).trim().is_empty()) {
            self.push(NodeKind::Text, span, Span::default());
        }
    }

    fn push(&mut self, kind: NodeKind, text: Span, attrs: Span) -> u32 {
        let id = self.doc.nodes.len() as u32;
        self.doc.nodes.push(Node {
            kind,
            text,
            attrs,
            parent: self.stack.last().copied().unwrap_or(0),
            end: id + 1,
        });
        id
    }

    /// Closes `stack[pos..]`: their subtrees end at the current table end.
    fn pop_to(&mut self, pos: usize) {
        let end = self.doc.nodes.len() as u32;
        while self.stack.len() > pos {
            let id = self.stack.pop().unwrap_or(0);
            self.count_open(id, -1);
            if let Some(node) = self.doc.nodes.get_mut(id as usize) {
                node.end = end;
            }
        }
    }

    fn name_of(&self, id: u32) -> &str {
        self.doc.name(NodeId(id as usize)).unwrap_or_default()
    }

    /// Keeps `open_names`, once built, in step with the stack.
    fn count_open(&mut self, id: u32, delta: i32) {
        if let Some(open) = &mut self.open_names {
            let name = self.doc.name(NodeId(id as usize)).unwrap_or_default();
            match open.get_mut(name) {
                Some(n) => *n = n.saturating_add_signed(delta),
                None => drop(open.insert(name.to_string(), 1)),
            }
        }
    }
}

impl Document {
    /// Parses HTML into a tree. Unclosed tags are closed implicitly;
    /// unmatched end tags are ignored — retailer markup demands tolerance.
    /// Time and memory are linear in the page length whatever the markup.
    pub fn parse(html: &str) -> Document {
        let cut = html.floor_char_boundary(MAX_PAGE_BYTES);
        let html = html.get(..cut).unwrap_or_default();
        let mut text = String::with_capacity(html.len() + html.len() / 16);
        text.push_str(html);
        let doc = Document {
            text,
            nodes: Vec::with_capacity(html.len() / 24 + 1),
            attrs: Vec::with_capacity(html.len() / 32),
        };
        let mut tree = TreeBuilder {
            doc,
            stack: Vec::new(),
            open_names: None,
        };
        let root = tree.push(NodeKind::Document, Span::default(), Span::default());
        tree.stack.push(root);
        tokenizer::tokenize(html, &mut tree);
        tree.pop_to(0);
        tree.doc
    }

    // NodeId is a table handle minted only by this same Document, so the
    // index is in range by construction; a handle from another document
    // is a caller bug that should fail loudly rather than silently
    // resolve to an arbitrary node.
    // sheriff-lint: allow-item(transitive-panic)
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    fn str(&self, span: Span) -> &str {
        self.text.get(span.range()).unwrap_or_default()
    }

    /// The document root.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// What `id` is.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.node(id).kind
    }

    /// Parent, `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        (id.0 != 0).then(|| NodeId(self.node(id).parent as usize))
    }

    /// One past the last node of the subtree rooted at `id`.
    pub(crate) fn subtree_end(&self, id: NodeId) -> usize {
        self.node(id).end as usize
    }

    /// The first child: the next record, unless the subtree ends there.
    pub(crate) fn first_child(&self, id: NodeId) -> Option<NodeId> {
        (id.0 + 1 < self.subtree_end(id)).then_some(NodeId(id.0 + 1))
    }

    /// The next sibling starts where this subtree ends, unless the
    /// parent's ends there too.
    pub(crate) fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let next = self.subtree_end(id);
        (next < self.subtree_end(self.parent(id)?)).then_some(NodeId(next))
    }

    /// Children in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.first_child(id), |&c| self.next_sibling(c))
    }

    /// Total node count (including root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document has no parsed content.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Element name, if `id` is an element.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        let node = self.node(id);
        (node.kind == NodeKind::Element).then(|| self.str(node.text))
    }

    /// Attributes of `id` as `(name, value)`, in name order (none unless
    /// `id` is an element).
    pub fn attrs(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> {
        let rows = self.attrs.get(self.node(id).attrs.range());
        rows.unwrap_or_default()
            .iter()
            .map(|&(name, value)| (self.str(name), self.str(value)))
    }

    /// Attribute value, if `id` is an element carrying it.
    pub fn attr(&self, id: NodeId, key: &str) -> Option<&str> {
        let rows = self.attrs.get(self.node(id).attrs.range())?;
        let at = rows.binary_search_by(|&(name, _)| self.str(name).cmp(key));
        rows.get(at.ok()?).map(|&(_, value)| self.str(value))
    }

    /// Concatenated text of the subtree rooted at `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        self.texts(id).collect()
    }

    /// The text nodes of the subtree rooted at `id`, in document order.
    pub(crate) fn texts(&self, id: NodeId) -> impl Iterator<Item = &str> {
        let subtree = self.nodes.get(id.0..self.subtree_end(id));
        let texts = subtree.unwrap_or_default().iter();
        texts
            .filter(|n| n.kind == NodeKind::Text)
            .map(|n| self.str(n.text))
    }

    /// All node ids of the subtree rooted at `id`, in document order.
    pub fn descendants(&self, id: NodeId) -> impl DoubleEndedIterator<Item = NodeId> {
        (id.0..self.subtree_end(id)).map(NodeId)
    }

    /// All elements with the given tag name, in document order.
    pub fn elements_named(&self, name: &str) -> Vec<NodeId> {
        self.descendants(self.root())
            .filter(|&id| self.name(id) == Some(name))
            .collect()
    }

    /// First element matching `name` and carrying class `class`.
    pub fn find_by_class(&self, name: &str, class: &str) -> Option<NodeId> {
        self.descendants(self.root()).find(|&id| {
            self.name(id) == Some(name)
                && self
                    .attr(id, "class")
                    .is_some_and(|c| c.split_whitespace().any(|t| t == class))
        })
    }

    /// Serializes the subtree at `id` back to HTML.
    pub fn serialize(&self, id: NodeId) -> String {
        let mut out = String::new();
        // Elements whose end tag is still owed, innermost last.
        let mut open: Vec<NodeId> = Vec::new();
        for n in self.descendants(id).chain([NodeId(usize::MAX)]) {
            while let Some(el) = open.pop_if(|el| self.subtree_end(*el) <= n.0) {
                out.push_str("</");
                out.push_str(self.name(el).unwrap_or_default());
                out.push('>');
            }
            let Some(node) = self.nodes.get(n.0) else {
                break;
            };
            match node.kind {
                NodeKind::Document => {}
                NodeKind::Text => escape_into(&mut out, self.str(node.text), false),
                NodeKind::Element => {
                    let name = self.str(node.text);
                    out.push('<');
                    out.push_str(name);
                    for (k, v) in self.attrs(n) {
                        out.push(' ');
                        out.push_str(k);
                        out.push_str("=\"");
                        escape_into(&mut out, v, true);
                        out.push('"');
                    }
                    out.push('>');
                    if !VOID.contains(&name) {
                        open.push(n);
                    }
                }
            }
        }
        out
    }
}

/// Re-escapes the characters that would change parsing: `&` and, in text,
/// the angle brackets; in an attribute value the quote.
fn escape_into(out: &mut String, s: &str, in_attr: bool) {
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' if !in_attr => out.push_str("&lt;"),
            '>' if !in_attr => out.push_str("&gt;"),
            '"' if in_attr => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"<!DOCTYPE html>
<html><head><title>Hi there</title></head>
<body>This is a simple web page
<div class="product">Here is the product image
<img src="product.jpg" alt="Product View">
<span class="price">$10.00</span>
</div>
</body></html>"#;

    #[test]
    fn parse_builds_expected_structure() {
        let doc = Document::parse(PAGE);
        let html = doc.children(doc.root()).next().unwrap();
        assert_eq!(doc.name(html), Some("html"));
        let span = doc.find_by_class("span", "price").unwrap();
        assert_eq!(doc.text_content(span), "$10.00");
    }

    #[test]
    fn find_by_class_handles_multiple_classes() {
        let doc = Document::parse(r#"<p class="a big price">x</p>"#);
        assert!(doc.find_by_class("p", "price").is_some());
        assert!(doc.find_by_class("p", "pric").is_none());
    }

    #[test]
    fn unclosed_tags_close_implicitly() {
        let doc = Document::parse("<div><p>one<p>two</div>after");
        // Both <p>s end up under the div; "after" under root.
        let ps = doc.elements_named("p");
        assert_eq!(ps.len(), 2);
        assert!(doc.text_content(doc.root()).contains("after"));
        let after = doc.children(doc.root()).last().unwrap();
        assert_eq!(doc.kind(after), NodeKind::Text);
    }

    #[test]
    fn unmatched_end_tag_ignored() {
        let doc = Document::parse("</div><p>ok</p>");
        assert_eq!(doc.elements_named("p").len(), 1);
        assert_eq!(doc.text_content(doc.root()), "ok");
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = Document::parse("<img src='a'><span>x</span>");
        let img = doc.elements_named("img")[0];
        assert!(doc.children(img).next().is_none());
        // span is a sibling, not a child of img.
        assert_eq!(doc.parent(doc.elements_named("span")[0]), Some(doc.root()));
    }

    #[test]
    fn serialize_roundtrips_structure() {
        let doc = Document::parse(PAGE);
        let html = doc.serialize(doc.root());
        let doc2 = Document::parse(&html);
        let span = doc2.find_by_class("span", "price").unwrap();
        assert_eq!(doc2.text_content(span), "$10.00");
        assert_eq!(doc.len(), doc2.len());
    }

    #[test]
    fn text_content_concatenates_subtree() {
        let doc = Document::parse("<div>a<span>b</span>c</div>");
        let div = doc.elements_named("div")[0];
        assert_eq!(doc.text_content(div), "abc");
    }

    #[test]
    fn descendants_in_document_order() {
        let doc = Document::parse("<a><b></b><c></c></a>");
        let names: Vec<&str> = doc
            .descendants(doc.root())
            .filter_map(|id| doc.name(id))
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_and_garbage_inputs() {
        assert!(Document::parse("").is_empty());
        let doc = Document::parse("<<<<");
        assert!(!doc.is_empty());
    }

    #[test]
    fn attributes_are_sorted_and_the_first_of_a_name_wins() {
        let doc = Document::parse(r#"<a id=x CLASS="one" href='/h' class="two" id=y>t</a>"#);
        let a = doc.elements_named("a")[0];
        let attrs: Vec<_> = doc.attrs(a).collect();
        assert_eq!(attrs, [("class", "one"), ("href", "/h"), ("id", "x")]);
        assert_eq!(doc.attr(a, "class"), Some("one"));
        assert_eq!(doc.attr(a, "missing"), None);
    }

    #[test]
    fn misnested_and_unmatched_end_tags_close_only_what_is_open() {
        // </i> matches nothing, </div> closes the open <b> with it, and
        // the second </b> finds no <b> left.
        let doc = Document::parse("<div><b>x</i>y</div></b><p>z</p>");
        let div = doc.elements_named("div")[0];
        assert_eq!(doc.text_content(div), "xy");
        let p = doc.elements_named("p")[0];
        assert_eq!(doc.parent(p), Some(doc.root()));
        assert_eq!(doc.serialize(doc.root()), "<div><b>xy</b></div><p>z</p>");
    }
}
