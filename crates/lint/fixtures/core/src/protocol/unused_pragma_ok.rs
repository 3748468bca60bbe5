//! Acceptance twin of `unused_pragma_bad`: every pragma fires — or is
//! explicitly waived with the one-level self-suppression. Must be
//! clean.

pub fn head(slots: &[u64]) -> u64 {
    // sheriff-lint: allow(transitive-panic) — fixture: the one sanctioned index
    slots[0]
}

// sheriff-lint: allow(unused-pragma) — kept while the profile rewrite lands
// sheriff-lint: allow(privacy-taint)
pub fn quiet() -> u64 {
    7
}
