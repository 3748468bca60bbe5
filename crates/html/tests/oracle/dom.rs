//! The tree builder `sheriff_html::dom` replaced (ISSUE 22), kept verbatim
//! as the differential oracle: one `String` + `BTreeMap` + `Vec` per node,
//! built from the intermediate token stream of `super::tokenizer`.

use std::collections::BTreeMap;

use super::tokenizer::{tokenize, Token};

/// Handle to a node in a [`Document`] arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Node payload.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// The document root (not a real element).
    Document,
    /// An element with its attributes.
    Element {
        /// Lower-cased tag name.
        name: String,
        /// Attributes.
        attrs: BTreeMap<String, String>,
    },
    /// A text node.
    Text(String),
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// A parsed HTML document.
#[derive(Clone, Debug)]
pub struct Document {
    nodes: Vec<Node>,
}

/// Elements that never have children.
fn is_void(name: &str) -> bool {
    matches!(
        name,
        "img"
            | "br"
            | "hr"
            | "input"
            | "meta"
            | "link"
            | "area"
            | "base"
            | "col"
            | "embed"
            | "source"
            | "track"
            | "wbr"
    )
}

impl Document {
    /// Parses HTML into a tree. Unclosed tags are closed implicitly;
    /// unmatched end tags are ignored — retailer markup demands tolerance.
    pub fn parse(html: &str) -> Document {
        let mut doc = Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
            }],
        };
        let root = NodeId(0);
        let mut stack = vec![root];

        for tok in tokenize(html) {
            match tok {
                Token::StartTag {
                    name,
                    attrs,
                    self_closing,
                } => {
                    let leaf = self_closing || is_void(&name);
                    let parent = stack.last().copied().unwrap_or(root);
                    let id = doc.push(NodeKind::Element { name, attrs }, parent);
                    if !leaf {
                        stack.push(id);
                    }
                }
                Token::EndTag { name } => {
                    // Pop to the nearest matching open element, if any.
                    if let Some(pos) = stack.iter().rposition(|&id| {
                        matches!(&doc.node(id).kind, NodeKind::Element { name: n, .. } if *n == name)
                    }) {
                        if pos > 0 {
                            stack.truncate(pos);
                        }
                    }
                }
                Token::Text(t) => {
                    let parent = stack.last().copied().unwrap_or(root);
                    doc.push(NodeKind::Text(t), parent);
                }
                Token::Comment | Token::Doctype => {}
            }
        }
        doc
    }

    fn push(&mut self, kind: NodeKind, parent: NodeId) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        if let Some(p) = self.nodes.get_mut(parent.0) {
            p.children.push(id);
        }
        id
    }

    // NodeId is an arena handle minted only by `push`/`root` on this same
    // Document, so the index is in range by construction; a handle from
    // another document is a caller bug that should fail loudly rather
    // than silently resolve to an arbitrary node.
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The document root.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Node payload.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// Parent, `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Children in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
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
        match &self.node(id).kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attribute value, if `id` is an element carrying it.
    pub fn attr(&self, id: NodeId, key: &str) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs.get(key).map(String::as_str),
            _ => None,
        }
    }

    /// Concatenated text of the subtree rooted at `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text(t) => out.push_str(t),
            _ => {
                for &c in &self.node(id).children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Depth-first iterator over all node ids (document order).
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.node(n).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All elements with the given tag name, in document order.
    pub fn elements_named(&self, name: &str) -> Vec<NodeId> {
        self.descendants(self.root())
            .into_iter()
            .filter(|&id| self.name(id) == Some(name))
            .collect()
    }

    /// First element matching `name` and carrying class `class`.
    pub fn find_by_class(&self, name: &str, class: &str) -> Option<NodeId> {
        self.descendants(self.root()).into_iter().find(|&id| {
            self.name(id) == Some(name)
                && self
                    .attr(id, "class")
                    .is_some_and(|c| c.split_whitespace().any(|t| t == class))
        })
    }

    /// Serializes the subtree at `id` back to HTML.
    pub fn serialize(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.serialize_into(id, &mut out);
        out
    }

    fn serialize_into(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Document => {
                for &c in &self.node(id).children {
                    self.serialize_into(c, out);
                }
            }
            NodeKind::Text(t) => {
                // Re-escape the characters that would change parsing.
                for ch in t.chars() {
                    match ch {
                        '&' => out.push_str("&amp;"),
                        '<' => out.push_str("&lt;"),
                        '>' => out.push_str("&gt;"),
                        c => out.push(c),
                    }
                }
            }
            NodeKind::Element { name, attrs } => {
                out.push('<');
                out.push_str(name);
                for (k, v) in attrs {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    for ch in v.chars() {
                        match ch {
                            '&' => out.push_str("&amp;"),
                            '"' => out.push_str("&quot;"),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                out.push('>');
                if !is_void(name) {
                    for &c in &self.node(id).children {
                        self.serialize_into(c, out);
                    }
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
        }
    }
}
