//! Item-level parsing on top of the token stream: fn/struct/impl
//! extraction with brace-matched bodies.
//!
//! This is the second layer of the analyzer. The [`crate::lexer`] gives
//! every rule a flat token stream; this module recovers just enough
//! *structure* from that stream for the cross-file passes — which
//! function a token belongs to, which type an `impl` block extends,
//! where a struct's declaration starts and ends — all without name
//! resolution or type checking. Bodies are delimited by
//! brace matching, so the parser never needs to understand expressions.
//!
//! Like the lexer, it degrades instead of failing: source it cannot
//! classify contributes no items, which under-approximates the call
//! graph rather than crashing the linter.

use crate::lexer::{Tok, TokKind};

/// What kind of item a [`Item`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method (`body` spans its block).
    Fn,
    /// A struct declaration (the lock pass reads field types off its
    /// token span).
    Struct,
}

/// One top-level or impl-nested item recovered from a file.
#[derive(Clone, Debug)]
pub struct Item {
    /// Classification.
    pub kind: ItemKind,
    /// Item name (`fn name`, `struct Name`).
    pub name: String,
    /// For methods: the `impl` block's self type. `None` for free
    /// functions and type declarations.
    pub self_ty: Option<String>,
    /// Token range of the item including its signature; for `Fn` the
    /// range covers the whole body to the matching `}`.
    pub start: usize,
    /// Exclusive end of the item's token range.
    pub end: usize,
    /// 1-based line of the item's name token.
    pub line: u32,
    /// True when the item sits inside a `#[cfg(test)]` region or is
    /// itself gated by one.
    pub in_tests: bool,
}

/// Extracts every fn/struct item from a lexed file. `test_marks` is
/// the per-token `#[cfg(test)]` map from the rules layer; items whose
/// first token is marked are tagged `in_tests` (the passes skip them).
pub fn parse_items(toks: &[Tok], test_marks: &[bool]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = 0usize;
    // Stack of (brace_depth_at_open, impl self type) for nested impls.
    let mut impl_stack: Vec<(i32, String)> = Vec::new();
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.is_punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct if t.is_punct('}') => {
                depth -= 1;
                if let Some(&(d, _)) = impl_stack.last() {
                    if depth <= d {
                        impl_stack.pop();
                    }
                }
                i += 1;
            }
            TokKind::Ident if t.text == "impl" => {
                if let Some((ty, body_open)) = impl_self_ty(toks, i) {
                    impl_stack.push((depth, ty));
                    depth += 1;
                    i = body_open + 1;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident if t.text == "fn" => {
                if let Some(item) = parse_fn(toks, test_marks, i, impl_stack.last()) {
                    i = item.end;
                    items.push(item);
                } else {
                    i += 1;
                }
            }
            TokKind::Ident if t.text == "struct" && depth == 0 => {
                if let Some(item) = parse_struct(toks, test_marks, i) {
                    i = item.end;
                    items.push(item);
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    items
}

/// At an `impl` token, recovers the self type name and the index of the
/// opening `{` of the impl body. Handles `impl<T> Type<T>`,
/// `impl Trait for Type`, and gives up (returns `None`) on exotic
/// shapes like `impl Trait for &mut [T]`.
fn impl_self_ty(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut j = at + 1;
    // Skip generic parameters `<...>` after `impl`.
    j = skip_angle_group(toks, j);
    // Collect path-ish idents up to `for`, `{`, or `where`.
    let mut first_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            let ty = if saw_for { after_for } else { first_ty };
            return ty.map(|ty| (ty, j));
        }
        if t.is_ident("for") {
            saw_for = true;
            j += 1;
            continue;
        }
        if t.is_ident("where") {
            // Type name is already decided; scan forward to the `{`.
            let ty = if saw_for {
                after_for.clone()
            } else {
                first_ty.clone()
            };
            let open = (j..toks.len()).find(|&k| toks[k].is_punct('{'))?;
            return ty.map(|ty| (ty, open));
        }
        if t.kind == TokKind::Ident {
            // The *last* ident of a path (`a::b::Type`) wins.
            if saw_for {
                after_for = Some(t.text.clone());
            } else {
                first_ty = Some(t.text.clone());
            }
            j = skip_angle_group(toks, j + 1);
            continue;
        }
        j += 1;
    }
    None
}

/// Skips a balanced `<...>` group starting at `j`, if one starts there.
fn skip_angle_group(toks: &[Tok], j: usize) -> usize {
    if !toks.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j;
    while k < toks.len() {
        if toks[k].is_punct('<') {
            depth += 1;
        } else if toks[k].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        } else if toks[k].is_punct(';') || toks[k].is_punct('{') {
            // Bail out: this `<` was a comparison, not generics.
            return j;
        }
        k += 1;
    }
    j
}

/// At a `fn` token, parses `fn name ... { body }` to the body's
/// matching `}`. Trait method *declarations* (`fn name(...);`) yield
/// `None` — they have no body to analyze.
fn parse_fn(
    toks: &[Tok],
    test_marks: &[bool],
    at: usize,
    enclosing_impl: Option<&(i32, String)>,
) -> Option<Item> {
    let name_tok = toks.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Find the body `{`, skipping the parameter list and any `where`
    // clause. A `;` before any `{` means a bodyless declaration.
    let mut j = at + 2;
    let mut paren_depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            paren_depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren_depth -= 1;
        } else if t.is_punct('{') && paren_depth == 0 {
            break;
        } else if t.is_punct(';') && paren_depth == 0 {
            return None;
        }
        j += 1;
    }
    let body_open = j;
    let body_close = match_brace(toks, body_open)?;
    Some(Item {
        kind: ItemKind::Fn,
        name: name_tok.text.clone(),
        self_ty: enclosing_impl.map(|(_, ty)| ty.clone()),
        start: at,
        end: body_close + 1,
        line: name_tok.line,
        in_tests: test_marks.get(at).copied().unwrap_or(false),
    })
}

/// At a `struct` token, finds the declaration's span. Tuple and unit
/// structs end at `;`, braced ones at the matching `}`.
fn parse_struct(toks: &[Tok], test_marks: &[bool], at: usize) -> Option<Item> {
    let name_tok = toks.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = skip_angle_group(toks, at + 2);
    while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
        j += 1;
    }
    let last = if toks.get(j)?.is_punct(';') {
        j
    } else {
        match_brace(toks, j)?
    };
    Some(Item {
        kind: ItemKind::Struct,
        name: name_tok.text.clone(),
        self_ty: None,
        start: at,
        end: last + 1,
        line: name_tok.line,
        in_tests: test_marks.get(at).copied().unwrap_or(false),
    })
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    if !toks.get(open)?.is_punct('{') {
        return None;
    }
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn items_of(src: &str) -> Vec<Item> {
        let toks = lex(src);
        let marks = test_regions(&toks);
        parse_items(&toks, &marks)
    }

    #[test]
    fn free_fns_and_methods() {
        let src = "fn free(x: u32) -> u32 { x }\nimpl Widget { pub fn method(&self) {} }\n";
        let items = items_of(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "free");
        assert_eq!(items[0].self_ty, None);
        assert_eq!(items[1].name, "method");
        assert_eq!(items[1].self_ty.as_deref(), Some("Widget"));
    }

    #[test]
    fn trait_impls_attach_methods_to_the_self_type() {
        let src = "impl Display for Price { fn fmt(&self) {} }\n\
                   impl<T: Clone> Store<T> { fn put(&mut self, t: T) {} }\n";
        let items = items_of(src);
        assert_eq!(items[0].self_ty.as_deref(), Some("Price"));
        assert_eq!(items[1].self_ty.as_deref(), Some("Store"));
    }

    #[test]
    fn nested_fns_and_closures_do_not_break_spans() {
        let src =
            "fn outer() { let f = |x: u32| { x + 1 }; fn inner() {} inner(); }\nfn after() {}";
        let items = items_of(src);
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"after"));
    }

    #[test]
    fn struct_spans_cover_the_declaration() {
        let src = "pub struct Obs { pub amount: f64, city: Option<String> }\n\
                   enum Msg { Start { tag: u64 }, Stop }\n\
                   struct Pair(u8, u8);\nstruct Unit;\nfn after() {}";
        let items = items_of(src);
        let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["Obs", "Pair", "Unit", "after"]);
        assert!(items[..3].iter().all(|i| i.kind == ItemKind::Struct));
        let toks = lex(src);
        assert!(toks[items[0].end - 1].is_punct('}'));
        assert!(toks[items[1].end - 1].is_punct(';'));
        assert_eq!(items[2].end, items[2].start + 3);
    }

    #[test]
    fn bodyless_trait_methods_are_skipped() {
        let src = "trait T { fn sig(&self); fn given(&self) { self.sig() } }";
        let items = items_of(src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "given");
    }

    #[test]
    fn cfg_test_items_are_tagged() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n";
        let items = items_of(src);
        let prod = items.iter().find(|i| i.name == "prod").unwrap();
        let helper = items.iter().find(|i| i.name == "helper").unwrap();
        assert!(!prod.in_tests);
        assert!(helper.in_tests);
    }

    #[test]
    fn fn_body_spans_cover_the_whole_block() {
        let src = "fn f() { if a { b() } else { c() } }\nfn g() {}";
        let items = items_of(src);
        assert_eq!(items.len(), 2);
        assert!(items[0].end <= items[1].start);
    }
}
