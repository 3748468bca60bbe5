//! Small-range discrete logarithm via baby-step/giant-step.
//!
//! Decryption of ElGamal-at-the-exponent yields `g^m`; the plaintext `m`
//! (profile counts, squared distances) is small, so a BSGS table with
//! `⌈√bound⌉` baby steps recovers it in `O(√bound)` group operations. The
//! paper notes exactly this ("this operation is feasible if the range of
//! admissible cleartexts is small", §10.4).

use std::collections::HashMap;

use sheriff_bigint::Big;

use crate::group::GroupParams;

/// A reusable baby-step/giant-step table for logarithms base `g` in a fixed
/// group, valid for values in `[0, bound)`.
#[derive(Clone, Debug)]
pub struct DlogTable {
    params: GroupParams,
    /// Baby steps: `g^j → j` for `j in [0, t)`, keyed in the Montgomery
    /// form the giant steps are walked in.
    baby: HashMap<Vec<u64>, u64>,
    /// Step size `t = ⌈√bound⌉`.
    t: u64,
    /// `g^{-t}` for giant stepping, in Montgomery form.
    giant_step: Vec<u64>,
    /// Exclusive upper bound on recoverable values.
    bound: u64,
}

impl DlogTable {
    /// Builds a table able to recover any `m ∈ [0, bound)`.
    ///
    /// Costs `O(√bound)` time and memory; tables are cheap to reuse across
    /// many [`DlogTable::solve`] calls, which is how the Coordinator
    /// amortizes centroid decryption across dimensions.
    pub fn build(params: &GroupParams, bound: u64) -> Self {
        let bound = bound.max(1);
        let t = (bound as f64).sqrt().ceil() as u64 + 1;
        let mont = &params.mont_p;
        let mut baby = HashMap::with_capacity(t as usize);
        let (g, mut scratch) = (mont.enter(&params.g), mont.scratch());
        let mut cur = mont.enter(&Big::one());
        for j in 0..t {
            baby.entry(cur.clone()).or_insert(j);
            mont.mul_assign(&mut cur, &g, &mut scratch);
        }
        // g^{-t} = (g^t)^{-1}; cur currently holds g^t.
        let giant_step = mont.enter(&params.inv(&mont.leave(&cur)));
        DlogTable {
            params: params.clone(),
            baby,
            t,
            giant_step,
            bound,
        }
    }

    /// Finds `m ∈ [0, bound)` with `g^m == target`, or `None` if the value
    /// is out of range or `target` is not a group element in `[1, p)`.
    pub fn solve(&self, target: &Big) -> Option<u64> {
        if !self.params.contains(target) {
            return None;
        }
        let mont = &self.params.mont_p;
        let (mut gamma, mut scratch) = (mont.enter(target), mont.scratch());
        let giants = self.bound / self.t + 1;
        for i in 0..=giants {
            if let Some(&j) = self.baby.get(&gamma) {
                let m = i * self.t + j;
                if m < self.bound.max(self.t) {
                    return Some(m);
                }
                return None;
            }
            mont.mul_assign(&mut gamma, &self.giant_step, &mut scratch);
        }
        None
    }

    /// Solves a signed value in `(-bound, bound)`: tries the non-negative
    /// range first, then the negated element. Used where homomorphic
    /// arithmetic may produce small negative results mod `q`. `None` too for
    /// a `target` outside `[1, p)`, which has no inverse to try.
    pub fn solve_signed(&self, target: &Big) -> Option<i64> {
        if let Some(m) = self.solve(target) {
            return i64::try_from(m).ok();
        }
        if !self.params.contains(target) {
            return None;
        }
        let neg = self.params.inv(target);
        self.solve(&neg)
            .and_then(|m| i64::try_from(m).ok())
            .map(|m| -m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_across_range() {
        let gp = GroupParams::test_64();
        let table = DlogTable::build(&gp, 10_000);
        for m in [0u64, 1, 2, 99, 100, 101, 4096, 9999] {
            let target = gp.g_pow(&Big::from_u64(m));
            assert_eq!(table.solve(&target), Some(m), "m={m}");
        }
    }

    #[test]
    fn out_of_range_is_none() {
        let gp = GroupParams::test_64();
        let table = DlogTable::build(&gp, 1000);
        let target = gp.g_pow(&Big::from_u64(1_000_000));
        assert_eq!(table.solve(&target), None);
    }

    #[test]
    fn tiny_bound() {
        let gp = GroupParams::test_64();
        let table = DlogTable::build(&gp, 1);
        assert_eq!(table.solve(&Big::one()), Some(0));
    }

    #[test]
    fn signed_solutions() {
        let gp = GroupParams::test_64();
        let table = DlogTable::build(&gp, 500);
        for m in [-499i64, -100, -1, 0, 1, 250, 499] {
            let e = gp.exponent_from_i64(m);
            let target = gp.g_pow(&e);
            assert_eq!(table.solve_signed(&target), Some(m), "m={m}");
        }
    }

    #[test]
    fn non_elements_have_no_logarithm() {
        let gp = GroupParams::test_64();
        let table = DlogTable::build(&gp, 500);
        for bad in [Big::zero(), gp.p.clone(), gp.p.add(&Big::one())] {
            assert_eq!(table.solve(&bad), None);
            assert_eq!(table.solve_signed(&bad), None);
        }
    }

    #[test]
    fn works_in_larger_group() {
        let gp = GroupParams::bits_256();
        let table = DlogTable::build(&gp, 100_000);
        let target = gp.g_pow(&Big::from_u64(54_321));
        assert_eq!(table.solve(&target), Some(54_321));
    }
}
