//! Known-bad SL007 fixture: pragmas whose findings are gone — or
//! never existed. Must trip unused-pragma exactly four times.

// sheriff-lint: allow(privacy-taint)
pub fn quiet() -> u64 {
    7
}

pub fn also_quiet() -> u64 {
    9 // sheriff-lint: allow(transitive-panic)
}

// sheriff-lint: allow(transitive-panik)
pub fn typo() -> u64 {
    11
}

// sheriff-lint: allow-item(transitive-panic)
pub fn never_panics() -> u64 {
    13
}
