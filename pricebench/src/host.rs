//! How fast the host is right now, read from a fixed kernel the benchmark
//! owns.
//!
//! The sandbox is a few vCPUs of a shared machine whose effective speed
//! drifts by tens of percent over seconds to minutes (other tenants on
//! the same cores and caches; no steal time shows). An identical k-means
//! iteration read 128 ms and 205 ms two minutes apart, which no estimator
//! over a run of tens of seconds can average away. Only a ratio to something measured
//! at the same moment is steady, so the CPU-bound workloads interleave
//! this probe with their timed operations and report their times at
//! *reference host speed*: `wall / slowdown`.
//!
//! The kernel mixes three things the slow spells were seen to hit
//! differently: 45 % integer multiplies with instruction-level
//! parallelism, 45 % a limb-by-limb multiply into a small allocation,
//! 10 % a dependent walk over a ring that fits the second-level cache
//! (the walk can slow sixfold when a neighbour evicts the ring, which the
//! workloads do not feel, so it gets the small share). Each part alone
//! tracks the workloads worse than the mix (README, "Noise, measured");
//! the mix is one compromise for every workload that uses it, not fitted
//! to each. It calls nothing in the repository and runs while the program
//! does not, so no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// What [`Probe::seconds`] reads on the host the benchmark was defined
/// on when that host is in its usual state. It only fixes the scale of
/// the adjusted numbers: a host twice as slow reads twice this, and the
/// workload's wall times are halved to match.
pub const REFERENCE_S: f64 = 3.6e-3;

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_ADD: u64 = 1_442_695_040_888_963_407;

/// Iterations of each part: about 1.5 ms, 1.5 ms and 0.33 ms on the
/// reference host.
const ILP_ROUNDS: u32 = 600_000;
const ALLOC_MUL_ROUNDS: u32 = 85_000;
const WALK_STEPS: u32 = 40_000;
/// Ring length: 256 Ki `u32` = 1 MiB.
const RING_LEN: usize = 256 * 1024;

/// Eight independent multiply-add chains.
fn ilp(rounds: u32) -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..rounds {
        for x in &mut lanes {
            *x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        }
    }
    lanes.iter().fold(0, |a, x| a ^ x)
}

/// A 4 × 4 limb schoolbook multiply, its product folded into a freshly
/// allocated operand for the next round: one allocation and one release
/// per round.
fn alloc_mul(rounds: u32) -> u64 {
    let mut a = vec![
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ];
    let b = [
        0xd6e8_feb8_6659_fd93u64,
        0xa076_1d64_78bd_642f,
        0xe703_7ed1_a0b4_28db,
        0x8ebc_6af0_9c88_c6e3,
    ];
    for _ in 0..rounds {
        let mut product = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(product[i + j]) + carry;
                product[i + j] = t as u64;
                carry = t >> 64;
            }
            product[i + 4] = carry as u64;
        }
        let mut next = Vec::with_capacity(4);
        for i in 0..4 {
            next.push(product[i] ^ product[i + 4].rotate_left(13));
        }
        a = black_box(next);
    }
    a[0]
}

/// The fixed kernel plus the ring it walks.
pub struct Probe {
    /// A single-cycle permutation: `ring[i]` is the index visited next.
    ring: Vec<u32>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    pub fn new() -> Self {
        // Sattolo's shuffle from a fixed xorshift: one cycle through
        // every slot, in an order a prefetcher cannot follow.
        let mut ring: Vec<u32> = (0..RING_LEN as u32).collect();
        let mut s = 88_172_645_463_325_252u64;
        for i in (1..RING_LEN).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ring.swap(i, (s % i as u64) as usize);
        }
        Probe { ring }
    }

    fn walk(&self, steps: u32) -> u32 {
        let mut i = 0u32;
        for _ in 0..steps {
            i = self.ring[i as usize];
        }
        i
    }

    fn kernel(&self, share: u32) {
        black_box(ilp(black_box(ILP_ROUNDS / share)));
        black_box(alloc_mul(black_box(ALLOC_MUL_ROUNDS / share)));
        black_box(self.walk(black_box(WALK_STEPS / share)));
    }

    /// Wall seconds the kernel takes now. A quarter-length pass runs
    /// first, untimed, so the reading does not depend on what the
    /// workload left in the caches and the allocator.
    pub fn seconds(&self) -> f64 {
        self.kernel(4);
        let t0 = Instant::now();
        self.kernel(1);
        t0.elapsed().as_secs_f64()
    }

    /// [`Probe::seconds`] as a multiple of [`REFERENCE_S`]: above 1 on a
    /// host slower than the reference.
    pub fn slowdown(&self) -> f64 {
        self.seconds() / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle_through_every_slot() {
        let p = Probe::new();
        let mut seen = vec![false; RING_LEN];
        let mut i = 0usize;
        for _ in 0..RING_LEN {
            assert!(!seen[i], "slot {i} visited twice");
            seen[i] = true;
            i = p.ring[i] as usize;
        }
        assert_eq!(i, 0, "the walk closes after RING_LEN steps");
    }

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(ilp(1_000), ilp(1_000));
        assert_eq!(alloc_mul(1_000), alloc_mul(1_000));
        assert_ne!(alloc_mul(1_000), alloc_mul(1_001));
        let p = Probe::new();
        assert_eq!(p.walk(5_000), p.walk(5_000));
        assert!(p.slowdown() > 0.0);
    }
}
