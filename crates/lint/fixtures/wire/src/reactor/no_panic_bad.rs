//! Fixture: panics in reactor code (the path places this under
//! `wire/src/reactor/`, which joined the panic-freedom scope when the
//! wire backend moved onto sharded event loops). Must trip
//! `transitive-panic` exactly six times — unwrap, expect, panic!,
//! unreachable!, a slice index and a map index — and nothing else.

use std::collections::BTreeMap;

struct Shard {
    queues: Vec<usize>,
    credit: BTreeMap<usize, usize>,
}

impl Shard {
    fn drive(&mut self, frame: Option<usize>, slot: usize) -> usize {
        let len = frame.unwrap();
        let head = self.queues.first().expect("shard owns a node");
        if slot > self.queues.len() {
            panic!("slot out of range");
        }
        if *head == usize::MAX {
            unreachable!();
        }
        let credit = self.credit[&slot];
        self.queues[slot] + credit + len
    }
}
