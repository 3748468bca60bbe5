//! Known-bad reachability fixture helpers: an `expect` one hop from the
//! protocol machine and a bare index two hops out. Must trip
//! transitive-panic exactly twice, the second with a `via` witness.

pub fn decode(frames: &[Vec<u8>]) -> u8 {
    let first = frames.first().cloned().expect("at least one frame");
    checksum(&first)
}

pub fn checksum(bytes: &[u8]) -> u8 {
    bytes[0]
}
