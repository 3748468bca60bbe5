//! Known-bad reachability fixture seed: the handler itself is
//! panic-free, but it calls into a helper crate that is not.

pub struct Machine;

impl Machine {
    pub fn on_message(&mut self, frames: &[Vec<u8>]) -> u8 {
        decode(frames)
    }
}
