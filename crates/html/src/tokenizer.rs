//! A pragmatic one-pass HTML scanner.
//!
//! Handles what retailer product pages actually contain: nested elements,
//! quoted/unquoted attributes, comments, doctype, self-closing tags, and
//! raw-text elements (`<script>`, `<style>`) whose bodies must not be parsed
//! as markup. It does not attempt full WHATWG conformance — the tree builder
//! in [`crate::dom`] is tolerant by design, mirroring how the deployed
//! add-on had to cope with "complex site layouts" (§2.1 req. 3).
//!
//! There is no token stream: each tag, attribute and text run is handed
//! to the [`TreeBuilder`] as a byte range the moment it is recognised.

use crate::dom::{Span, TreeBuilder};

/// For an element whose content is raw text, the prefix of its end tag.
fn raw_text_close(name: &str) -> Option<&'static str> {
    ["</script", "</style"]
        .into_iter()
        .find(|close| close.get(2..).is_some_and(|n| n.eq_ignore_ascii_case(name)))
}

/// Index of the first byte at or after `from` that `stop` accepts, else
/// the length.
fn scan(bytes: &[u8], from: usize, stop: impl Fn(u8) -> bool) -> usize {
    let rest = bytes.get(from..).unwrap_or_default();
    rest.iter()
        .position(|&b| stop(b))
        .map_or(bytes.len(), |p| from + p)
}

/// Scans `input` into `tree`. Never fails: malformed markup degrades to
/// text.
// Byte-cursor scanner: every `bytes[i]` below sits behind an `i < bytes.len()`
// loop guard, and the `stray_angle_brackets_survive` test exercises the
// malformed-input paths end to end.
// sheriff-lint: allow-item(transitive-panic)
pub(crate) fn tokenize(input: &str, tree: &mut TreeBuilder) {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            let end = scan(bytes, i, |b| b == b'<');
            tree.text(i, &input[i..end], true);
            i = end;
        } else if input[i..].starts_with("<!--") {
            i = input[i + 4..]
                .find("-->")
                .map_or(bytes.len(), |p| i + 4 + p + 3);
        } else if matches!(bytes.get(i + 1), Some(b'!' | b'?')) {
            i = (scan(bytes, i, |b| b == b'>') + 1).min(bytes.len());
        } else if bytes.get(i + 1) == Some(&b'/') {
            let end = scan(bytes, i, |b| b == b'>');
            let name = input[i + 2..end].trim();
            if !name.is_empty() {
                tree.end_tag(name);
            }
            i = (end + 1).min(bytes.len());
        } else if bytes.get(i + 1).is_some_and(u8::is_ascii_alphabetic) {
            i = lex_start_tag(input, i, tree);
        } else {
            // Stray '<' treated as text.
            tree.text(i, "<", false);
            i += 1;
        }
    }
}

// Byte-cursor scanner continuing `tokenize`'s stream: all indexing is
// behind `i < bytes.len()` guards; malformed tags fall out as text.
// sheriff-lint: allow-item(transitive-panic)
fn lex_start_tag(input: &str, start: usize, tree: &mut TreeBuilder) -> usize {
    // start points at '<'. Parse name.
    let bytes = input.as_bytes();
    let not_space = |b: u8| !b.is_ascii_whitespace();
    let name_end = scan(bytes, start + 1, |b| {
        !b.is_ascii_alphanumeric() && b != b'-'
    });
    let raw_name = &input[start + 1..name_end];
    let name = tree.lowered(start + 1, name_end);
    let (mut n_attrs, mut self_closing) = (0, false);
    let mut i = scan(bytes, name_end, not_space);
    while i < bytes.len() && bytes[i] != b'>' {
        if bytes[i] == b'/' {
            self_closing = true;
            i += 1;
        } else {
            let an_start = i;
            let an_end = scan(bytes, i, |b| {
                !not_space(b) || matches!(b, b'=' | b'>' | b'/')
            });
            i = scan(bytes, an_end, not_space);
            let mut value = Span::default();
            if i < bytes.len() && bytes[i] == b'=' {
                i = scan(bytes, i + 1, not_space);
                if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                    let end = scan(bytes, i + 1, |b| b == bytes[i]);
                    value = tree.decoded(i + 1, &input[i + 1..end]);
                    i = (end + 1).min(bytes.len());
                } else {
                    let end = scan(bytes, i, |b| !not_space(b) || b == b'>');
                    value = Span::new(i, end);
                    i = end;
                }
            }
            if an_end > an_start {
                let aname = tree.lowered(an_start, an_end);
                tree.attr(aname, value);
                n_attrs += 1;
            }
        }
        i = scan(bytes, i, not_space);
    }
    i = (i + 1).min(bytes.len());
    tree.start_tag(name, n_attrs, self_closing);

    // A raw-text element's body runs to its end tag, markup and all.
    let Some(close) = raw_text_close(raw_name).filter(|_| !self_closing && i < bytes.len()) else {
        return i;
    };
    let rest = &input[i..];
    let is_close = |at: &usize| {
        let tag = rest.as_bytes().get(*at..*at + close.len());
        tag.is_some_and(|t| t.eq_ignore_ascii_case(close.as_bytes()))
    };
    let body_len = rest.match_indices("</").map(|(at, _)| at).find(is_close);
    let body_len = body_len.unwrap_or(rest.len());
    if body_len > 0 {
        tree.text(i, &rest[..body_len], false);
    }
    if body_len == rest.len() {
        return bytes.len();
    }
    tree.end_tag(&close[2..]);
    (scan(bytes, i + body_len, |b| b == b'>') + 1).min(bytes.len())
}

/// The character a named or numeric entity (`amp`, `#36`, `#x24`, …: the
/// small set that matters for price text) stands for.
fn entity(name: &str) -> Option<char> {
    Some(match name {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        "nbsp" => '\u{a0}',
        "euro" => '€',
        "pound" => '£',
        "yen" => '¥',
        _ => {
            let code = match name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => name.strip_prefix('#')?.parse::<u32>(),
            };
            char::from_u32(code.ok()?)?
        }
    })
}

/// Appends `s` to `out` with entities decoded; anything that is not a
/// known entity (within 8 bytes of its `&`) stays as written.
pub(crate) fn decode_entities(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        let (before, at) = rest.split_at(pos);
        out.push_str(before);
        let end = at.find(';').filter(|&end| end <= 8);
        match end.and_then(|end| Some((entity(at.get(1..end)?)?, end))) {
            Some((c, end)) => {
                out.push(c);
                rest = at.get(end + 1..).unwrap_or_default();
            }
            None => {
                out.push('&');
                rest = at.get(1..).unwrap_or_default();
            }
        }
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::{Document, NodeId, NodeKind};

    /// The parsed tree as `(depth, what)` rows: `<name k=v …>` or `"text"`.
    fn outline(html: &str) -> Vec<(usize, String)> {
        let doc = Document::parse(html);
        let depth = |mut id: NodeId| {
            let mut d = 0;
            while let Some(p) = doc.parent(id) {
                (id, d) = (p, d + 1);
            }
            d
        };
        doc.descendants(doc.root())
            .skip(1)
            .map(|id| {
                let what = match doc.kind(id) {
                    NodeKind::Element => {
                        let attrs: String =
                            doc.attrs(id).map(|(k, v)| format!(" {k}={v}")).collect();
                        format!("<{}{attrs}>", doc.name(id).unwrap())
                    }
                    _ => format!("{:?}", doc.text_content(id)),
                };
                (depth(id), what)
            })
            .collect()
    }

    fn rows(expected: &[(usize, &str)]) -> Vec<(usize, String)> {
        expected.iter().map(|&(d, s)| (d, s.to_string())).collect()
    }

    fn decoded(s: &str) -> String {
        let mut out = String::new();
        decode_entities(s, &mut out);
        out
    }

    #[test]
    fn simple_document() {
        assert_eq!(
            outline("<html><body>hi</body></html>after"),
            rows(&[
                (1, "<html>"),
                (2, "<body>"),
                (3, "\"hi\""),
                (1, "\"after\"")
            ])
        );
    }

    #[test]
    fn attributes_parse() {
        assert_eq!(
            outline(r#"<span class="price" id=main data-x='7' hidden>$10</span>"#),
            rows(&[
                (1, "<span class=price data-x=7 hidden= id=main>"),
                (2, "\"$10\"")
            ])
        );
    }

    #[test]
    fn self_closing_and_void() {
        // Neither takes the text that follows as a child.
        assert_eq!(
            outline(r#"<img src="p.jpg"/>a<div/>b<br>c"#),
            rows(&[
                (1, "<img src=p.jpg>"),
                (1, "\"a\""),
                (1, "<div>"),
                (1, "\"b\""),
                (1, "<br>"),
                (1, "\"c\"")
            ])
        );
    }

    #[test]
    fn comments_and_doctype() {
        assert_eq!(
            outline("<!DOCTYPE html><?xml?><!-- hidden <b>price</b> -->text<!-- open"),
            rows(&[(1, "\"text\"")])
        );
    }

    #[test]
    fn script_body_is_raw() {
        assert_eq!(
            outline(
                r#"<script>if (a < b) { price = "<span>"; }</SCRIPT ><p>x</p><style> </style>"#
            ),
            rows(&[
                (1, "<script>"),
                (2, r#""if (a < b) { price = \"<span>\"; }""#),
                (1, "<p>"),
                (2, "\"x\""),
                (1, "<style>"),
                (2, "\" \"")
            ])
        );
        // An unclosed raw-text element swallows the rest of the page.
        assert_eq!(
            outline("<style>a<b>"),
            rows(&[(1, "<style>"), (2, "\"a<b>\"")])
        );
    }

    #[test]
    fn entities_decode() {
        assert_eq!(decoded("a&amp;b"), "a&b");
        assert_eq!(decoded("&euro;654"), "€654");
        assert_eq!(decoded("&#36;10"), "$10");
        assert_eq!(decoded("&#x24;10"), "$10");
        assert_eq!(decoded("1&nbsp;234"), "1\u{a0}234");
        assert_eq!(decoded("broken &unknown; stays"), "broken &unknown; stays");
        // In text and in quoted values, not in unquoted ones.
        assert_eq!(
            outline("<a t='&lt;' u=&lt;>&pound;5</a>"),
            rows(&[(1, "<a t=< u=&lt;>"), (2, "\"£5\"")])
        );
    }

    #[test]
    fn stray_angle_brackets_survive() {
        assert_eq!(
            outline("a < b"),
            rows(&[(1, "\"a \""), (1, "\"<\""), (1, "\" b\"")])
        );
        // Must not panic, must terminate.
        let _ = Document::parse("<<<>>><");
        let _ = Document::parse("<span");
        let _ = Document::parse("<span class='x");
        let _ = Document::parse("</");
    }

    #[test]
    fn case_insensitive_names() {
        assert_eq!(
            outline("<DIV CLASS='x'>t</Div>u"),
            rows(&[(1, "<div class=x>"), (2, "\"t\""), (1, "\"u\"")])
        );
    }

    #[test]
    fn whitespace_only_text_dropped() {
        assert_eq!(outline("<p>  </p> \n&nbsp;"), rows(&[(1, "<p>")]));
    }
}
