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

/// What a byte is to the scanner; [`CLASS`] holds the bits of each byte.
/// A scan ORs together the classes of the bytes it passes, so the caller
/// learns from the scan itself whether a name needs lowering, a run
/// needs entity decoding, or a run is blank.
type Class = u16;

/// ASCII whitespace (`u8::is_ascii_whitespace`): skipped inside a tag.
const WS: Class = 1 << 0;
/// A tag-name byte: ASCII alphanumeric or `-`.
const NAME: Class = 1 << 1;
/// ASCII upper case: the name holding it must be lowered.
const UPPER: Class = 1 << 2;
/// `&`: the run holding it must be entity-decoded.
const AMP: Class = 1 << 3;
/// Ends an attribute name: whitespace, `=`, `>` or `/`.
const NAME_END: Class = 1 << 4;
/// Ends an unquoted attribute value: whitespace or `>`.
const VALUE_END: Class = 1 << 5;
/// `<`: ends a text run.
const LT: Class = 1 << 6;
/// An ASCII byte that `str::trim` keeps: a run holding one (and no `&`)
/// is not blank.
const INK: Class = 1 << 7;
/// A byte of a multi-byte character, which may be a space `trim` strips.
const HIGH: Class = 1 << 8;

#[expect(clippy::indexing_slicing, reason = "checked at compile time")]
const CLASS: [Class; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        let ws = byte.is_ascii_whitespace();
        table[b] = (if ws { WS | NAME_END | VALUE_END } else { 0 })
            | (if byte.is_ascii_alphanumeric() || byte == b'-' { NAME } else { 0 })
            | (if byte.is_ascii_uppercase() { UPPER } else { 0 })
            | (if byte == b'&' { AMP } else { 0 })
            | (if matches!(byte, b'=' | b'>' | b'/') { NAME_END } else { 0 })
            | (if byte == b'>' { VALUE_END } else { 0 })
            | (if byte == b'<' { LT } else { 0 })
            // `trim` also strips U+000B, which `is_ascii_whitespace` does not.
            | (if byte.is_ascii() && !ws && byte != 0x0b { INK } else { 0 })
            | (if !byte.is_ascii() { HIGH } else { 0 });
        b += 1;
    }
    table
};

/// For an element whose content is raw text, the prefix of its end tag.
fn raw_text_close(name: &[u8]) -> Option<&'static str> {
    let close = match name.len() {
        6 => "</script",
        5 => "</style",
        _ => return None,
    };
    let matches = close
        .as_bytes()
        .get(2..)
        .is_some_and(|n| n.eq_ignore_ascii_case(name));
    matches.then_some(close)
}

/// Index of the first byte at or after `from` whose class `go` rejects
/// (else the length), and the union of the classes of the bytes before it.
fn scan(bytes: &[u8], from: usize, go: impl Fn(Class) -> bool) -> (usize, Class) {
    let mut seen = 0;
    let rest = bytes.get(from..).unwrap_or_default();
    for (n, &b) in rest.iter().enumerate() {
        let class = CLASS.get(usize::from(b)).copied().unwrap_or_default();
        if !go(class) {
            return (from + n, seen);
        }
        seen |= class;
    }
    (bytes.len(), seen)
}

/// Index of the first whitespace-free byte at or after `from`.
fn skip_ws(bytes: &[u8], from: usize) -> usize {
    scan(bytes, from, |c| c & WS != 0).0
}

/// Index of the first `byte` at or after `from`, else the length.
fn find_byte(bytes: &[u8], from: usize, byte: u8) -> usize {
    let rest = bytes.get(from..).unwrap_or_default();
    rest.iter()
        .position(|&b| b == byte)
        .map_or(bytes.len(), |p| from + p)
}

/// Offset of the first `quote` in `s` (else its length), and whether an
/// `&` comes before it. Eight bytes at a time (SWAR): `x - 0x01…01 & !x
/// & 0x80…80` sets the high bit of each zero byte of `x`, and the lowest
/// bit it sets is exact (a false hit only ever sits above a true one), so
/// with `x` the word XOR a byte repeated, the lowest hit is the first
/// occurrence of that byte.
fn find_quote(s: &[u8], quote: u8) -> (usize, bool) {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let hits = |word: u64, byte: u8| {
        let x = word ^ (ONES * u64::from(byte));
        x.wrapping_sub(ONES) & !x & HIGHS
    };
    let (words, tail) = s.as_chunks::<8>();
    let mut amp = false;
    for (n, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let (quotes, amps) = (hits(word, quote), hits(word, b'&'));
        if quotes != 0 {
            let first = quotes & quotes.wrapping_neg();
            let at = n * 8 + quotes.trailing_zeros() as usize / 8;
            return (at, amp || amps & (first - 1) != 0);
        }
        amp |= amps != 0;
    }
    for (n, &b) in tail.iter().enumerate() {
        if b == quote {
            return (s.len() - tail.len() + n, amp);
        }
        amp |= b == b'&';
    }
    (s.len(), amp)
}

/// Scans `input` into `tree`. Never fails: malformed markup degrades to
/// text.
pub(crate) fn tokenize(input: &str, tree: &mut TreeBuilder) {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        if b != b'<' {
            let (end, seen) = scan(bytes, i, |c| c & LT == 0);
            // A run of nothing but ASCII whitespace is no node. A byte of
            // ink with no `&` to decode survives `trim`; otherwise decoding
            // or a multi-byte space may still leave the run blank.
            if seen & (INK | HIGH | AMP) != 0 {
                let text = tree.decoded(i, input.get(i..end).unwrap_or_default(), seen & AMP != 0);
                tree.text(text, seen & (INK | AMP) != INK);
            }
            i = end;
            continue;
        }
        match bytes.get(i + 1) {
            Some(b) if b.is_ascii_alphabetic() => i = lex_start_tag(input, i, tree),
            Some(b'/') => {
                let end = find_byte(bytes, i, b'>');
                let name = input.get(i + 2..end).unwrap_or_default().trim();
                if !name.is_empty() {
                    tree.end_tag(name);
                }
                i = (end + 1).min(bytes.len());
            }
            Some(b'!') if input.get(i..).is_some_and(|r| r.starts_with("<!--")) => {
                i = input
                    .get(i + 4..)
                    .and_then(|rest| rest.find("-->"))
                    .map_or(bytes.len(), |p| i + 4 + p + 3);
            }
            Some(b'!' | b'?') => i = (find_byte(bytes, i, b'>') + 1).min(bytes.len()),
            _ => {
                // Stray '<' treated as text.
                tree.text(Span::new(i, i + 1), false);
                i += 1;
            }
        }
    }
}

fn lex_start_tag(input: &str, start: usize, tree: &mut TreeBuilder) -> usize {
    // start points at '<'.
    let bytes = input.as_bytes();
    let (name_end, seen) = scan(bytes, start + 1, |c| c & NAME != 0);
    let name = tree.name(start + 1, name_end, seen & UPPER != 0);
    let (mut n_attrs, mut self_closing) = (0, false);
    let mut i = skip_ws(bytes, name_end);
    while let Some(&b) = bytes.get(i).filter(|&&b| b != b'>') {
        if b == b'/' {
            self_closing = true;
            i += 1;
        } else {
            let an_start = i;
            let (an_end, an_seen) = scan(bytes, i, |c| c & NAME_END == 0);
            i = skip_ws(bytes, an_end);
            let mut value = Span::default();
            if bytes.get(i) == Some(&b'=') {
                i = skip_ws(bytes, i + 1);
                match bytes.get(i) {
                    Some(&quote @ (b'"' | b'\'')) => {
                        let rest = bytes.get(i + 1..).unwrap_or_default();
                        let (len, amp) = find_quote(rest, quote);
                        let raw = input.get(i + 1..i + 1 + len).unwrap_or_default();
                        value = tree.decoded(i + 1, raw, amp);
                        i = (i + 2 + len).min(bytes.len());
                    }
                    _ => {
                        let end = scan(bytes, i, |c| c & VALUE_END == 0).0;
                        value = Span::new(i, end);
                        i = end;
                    }
                }
            }
            if an_end > an_start {
                let aname = tree.name(an_start, an_end, an_seen & UPPER != 0);
                tree.attr(aname, value);
                n_attrs += 1;
            }
        }
        i = skip_ws(bytes, i);
    }
    i = (i + 1).min(bytes.len());
    tree.start_tag(name, n_attrs, self_closing);

    // A raw-text element's body runs to its end tag, markup and all.
    let raw_name = bytes.get(start + 1..name_end).unwrap_or_default();
    let Some(close) = raw_text_close(raw_name).filter(|_| !self_closing && i < bytes.len()) else {
        return i;
    };
    let rest = input.get(i..).unwrap_or_default();
    let is_close = |at: &usize| {
        let tag = rest.as_bytes().get(*at..*at + close.len());
        tag.is_some_and(|t| t.eq_ignore_ascii_case(close.as_bytes()))
    };
    let body_len = rest.match_indices("</").map(|(at, _)| at).find(is_close);
    let body = rest
        .get(..body_len.unwrap_or(rest.len()))
        .unwrap_or_default();
    if !body.is_empty() {
        let text = tree.decoded(i, body, body.contains('&'));
        tree.text(text, false);
    }
    if body.len() == rest.len() {
        return bytes.len();
    }
    tree.end_tag(close.get(2..).unwrap_or_default());
    (find_byte(bytes, i + body.len(), b'>') + 1).min(bytes.len())
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
        // Only the 9 bytes from the `&` can hold the `;`: a search of the
        // whole rest would make a run of `&`s quadratic.
        let end = at.bytes().take(9).position(|b| b == b';');
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
