//! The tokenizer `sheriff_html::tokenizer` replaced (ISSUE 22), kept
//! verbatim as the differential oracle.
//!
//! A pragmatic HTML tokenizer.
//!
//! Handles what retailer product pages actually contain: nested elements,
//! quoted/unquoted attributes, comments, doctype, self-closing tags, and
//! raw-text elements (`<script>`, `<style>`) whose bodies must not be parsed
//! as markup. It does not attempt full WHATWG conformance — the tree builder
//! in `super::dom` is tolerant by design, mirroring how the deployed
//! add-on had to cope with "complex site layouts" (§2.1 req. 3).

use std::collections::BTreeMap;

/// One lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// `<name attr="v">`; `self_closing` for `<img … />`.
    StartTag {
        /// Lower-cased element name.
        name: String,
        /// Attributes in source order (BTreeMap: deterministic iteration).
        attrs: BTreeMap<String, String>,
        /// Trailing `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lower-cased element name.
        name: String,
    },
    /// Text between tags (entity-decoded for the few entities that matter
    /// for prices: `&amp;`, `&nbsp;`, `&lt;`, `&gt;`, `&quot;`, `&#NNN;`).
    Text(String),
    /// `<!-- … -->` (content dropped).
    Comment,
    /// `<!DOCTYPE …>`.
    Doctype,
}

/// Elements whose content is raw text until the matching end tag.
fn is_raw_text(name: &str) -> bool {
    matches!(name, "script" | "style")
}

/// Tokenizes `input` into a flat token stream. Never fails: malformed
/// markup degrades to text.
// Byte-cursor scanner: every `bytes[i]` below sits behind an `i < bytes.len()`
// loop guard, and the `stray_angle_brackets_survive` test exercises the
// malformed-input paths end to end.
pub fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut raw_until: Option<String> = None;

    while i < bytes.len() {
        if let Some(raw_name) = raw_until.clone() {
            // Scan for `</raw_name` case-insensitively.
            let close = format!("</{raw_name}");
            let rest = &input[i..];
            let pos = find_case_insensitive(rest, &close);
            match pos {
                Some(p) => {
                    if p > 0 {
                        tokens.push(Token::Text(decode_entities(&rest[..p])));
                    }
                    // Consume until `>` of the end tag.
                    let after = i + p;
                    let gt = input[after..]
                        .find('>')
                        .map_or(bytes.len(), |g| after + g + 1);
                    tokens.push(Token::EndTag { name: raw_name });
                    i = gt;
                    raw_until = None;
                }
                None => {
                    tokens.push(Token::Text(decode_entities(rest)));
                    i = bytes.len();
                }
            }
            continue;
        }

        if bytes[i] == b'<' {
            if input[i..].starts_with("<!--") {
                let end = input[i + 4..]
                    .find("-->")
                    .map_or(bytes.len(), |p| i + 4 + p + 3);
                tokens.push(Token::Comment);
                i = end;
            } else if input[i..].len() >= 2 && (bytes[i + 1] == b'!' || bytes[i + 1] == b'?') {
                let end = input[i..].find('>').map_or(bytes.len(), |p| i + p + 1);
                tokens.push(Token::Doctype);
                i = end;
            } else if bytes.get(i + 1) == Some(&b'/') {
                let end = input[i..].find('>').map_or(bytes.len(), |p| i + p);
                let name = input[i + 2..end].trim().to_ascii_lowercase();
                if !name.is_empty() {
                    tokens.push(Token::EndTag { name });
                }
                i = (end + 1).min(bytes.len());
            } else if bytes.get(i + 1).is_some_and(u8::is_ascii_alphabetic) {
                let (tok, next) = lex_start_tag(input, i);
                if let Token::StartTag {
                    ref name,
                    self_closing,
                    ..
                } = tok
                {
                    if !self_closing && is_raw_text(name) {
                        raw_until = Some(name.clone());
                    }
                }
                tokens.push(tok);
                i = next;
            } else {
                // Stray '<' treated as text.
                tokens.push(Token::Text("<".to_string()));
                i += 1;
            }
        } else {
            let end = input[i..].find('<').map_or(bytes.len(), |p| i + p);
            let text = decode_entities(&input[i..end]);
            if !text.trim().is_empty() {
                tokens.push(Token::Text(text));
            }
            i = end;
        }
    }
    tokens
}

// Window scan: `h[i..]`/`n` indices are bounded by the `windows`-style
// length check on the line above each access.
fn find_case_insensitive(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() || h.len() < n.len() {
        return None;
    }
    (0..=h.len() - n.len()).find(|&i| {
        h[i..i + n.len()]
            .iter()
            .zip(n)
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    })
}

// Byte-cursor scanner continuing `tokenize`'s stream: all indexing is
// behind `i < bytes.len()` guards; malformed tags fall out as text.
fn lex_start_tag(input: &str, start: usize) -> (Token, usize) {
    // start points at '<'. Parse name.
    let bytes = input.as_bytes();
    let mut i = start + 1;
    let name_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-') {
        i += 1;
    }
    let name = input[name_start..i].to_ascii_lowercase();
    let mut attrs = BTreeMap::new();
    let mut self_closing = false;

    loop {
        // Skip whitespace.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        match bytes[i] {
            b'>' => {
                i += 1;
                break;
            }
            b'/' => {
                self_closing = true;
                i += 1;
            }
            _ => {
                // Attribute name.
                let an_start = i;
                while i < bytes.len()
                    && !bytes[i].is_ascii_whitespace()
                    && bytes[i] != b'='
                    && bytes[i] != b'>'
                    && bytes[i] != b'/'
                {
                    i += 1;
                }
                let aname = input[an_start..i].to_ascii_lowercase();
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                let mut aval = String::new();
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                        let quote = bytes[i];
                        i += 1;
                        let v_start = i;
                        while i < bytes.len() && bytes[i] != quote {
                            i += 1;
                        }
                        aval = decode_entities(&input[v_start..i]);
                        i = (i + 1).min(bytes.len());
                    } else {
                        let v_start = i;
                        while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'>'
                        {
                            i += 1;
                        }
                        aval = input[v_start..i].to_string();
                    }
                }
                if !aname.is_empty() {
                    attrs.entry(aname).or_insert(aval);
                }
            }
        }
    }
    (
        Token::StartTag {
            name,
            attrs,
            self_closing,
        },
        i,
    )
}

/// Decodes the small entity set that matters for price text.
// Byte-cursor scanner over a single entity reference: indices are bounded
// by the `i < bytes.len()` guards in each branch.
pub fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let semi = rest.find(';');
        match semi {
            Some(end) if end <= 8 => {
                let ent = &rest[1..end];
                let decoded = match ent {
                    "amp" => Some('&'),
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    "nbsp" => Some('\u{a0}'),
                    "euro" => Some('€'),
                    "pound" => Some('£'),
                    "yen" => Some('¥'),
                    _ => {
                        if let Some(num) = ent.strip_prefix("#x").or_else(|| ent.strip_prefix("#X"))
                        {
                            u32::from_str_radix(num, 16).ok().and_then(char::from_u32)
                        } else if let Some(num) = ent.strip_prefix('#') {
                            num.parse::<u32>().ok().and_then(char::from_u32)
                        } else {
                            None
                        }
                    }
                };
                match decoded {
                    Some(c) => {
                        out.push(c);
                        rest = &rest[end + 1..];
                    }
                    None => {
                        out.push('&');
                        rest = &rest[1..];
                    }
                }
            }
            _ => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}
