//! Fixture: panics in protocol code (the path places this under
//! `core/src/protocol/`, so `step` is a seed of the walk without being
//! a handler). Must trip `transitive-panic` exactly six times — unwrap,
//! expect, panic!, unreachable!, a slice index and a map index (the one
//! `clippy::indexing_slicing` cannot see) — and nothing else.

use std::collections::BTreeMap;

struct Machine {
    slots: Vec<u64>,
    bonus: BTreeMap<usize, u64>,
}

impl Machine {
    fn step(&mut self, input: Option<u64>, selector: usize) -> u64 {
        let value = input.unwrap();
        let first = self.slots.first().expect("at least one slot");
        if selector > self.slots.len() {
            panic!("selector out of range");
        }
        if *first == u64::MAX {
            unreachable!();
        }
        let bonus = self.bonus[&selector];
        self.slots[selector] + bonus + value
    }
}
