//! Fixture: the same panic sites, each suppressed with a pragma and a
//! justification. Must produce zero findings.

struct Machine {
    slots: Vec<u64>,
}

impl Machine {
    fn step(&mut self, input: Option<u64>, selector: usize) -> u64 {
        let value = input.unwrap(); // sheriff-lint: allow(transitive-panic) — driver guarantees Some
        let first = self
            .slots
            .first()
            .expect("at least one slot"); // sheriff-lint: allow(transitive-panic) — non-empty by construction
        if selector > self.slots.len() {
            // sheriff-lint: allow(transitive-panic) — config error, not a protocol state
            panic!("selector out of range");
        }
        if *first == u64::MAX {
            unreachable!(); // sheriff-lint: allow(transitive-panic) — excluded by admission check
        }
        self.slots[selector] + value // sheriff-lint: allow(transitive-panic) — selector bounds-checked above
    }
}
