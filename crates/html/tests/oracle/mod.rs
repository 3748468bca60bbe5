//! What ISSUE 22 replaced, moved here verbatim from `crates/html/src` at
//! the parent commit: the token-stream parser, the extractor that walked
//! its tree, and the full-table line diff. Test-only reference implementations — the differential tests
//! compare the product against them node for node and op for op. (Only the
//! `use` paths and the lint pragmas, which test trees do not need, differ
//! from the parent's text.)
#![allow(dead_code, missing_docs)]

pub mod diff;
pub mod dom;
pub mod tagspath;
pub mod tokenizer;
