//! Montgomery arithmetic for a fixed odd modulus `n` of `k` `u64` limbs.
//!
//! A residue `a` is kept as `a·R mod n` for `R = 2^(64k)` ("Montgomery
//! form"); the one multiplication kernel maps two such residues to the form
//! of their product with word-sized reductions only: no division, and no
//! allocation (the caller owns the scratch). `k` is a run-time property of
//! the modulus, so one kernel serves a 32-bit test group and the 2048-bit
//! RFC 3526 group. Building a context takes no division either.

use crate::big::Big;

/// Precomputed constants for arithmetic modulo an odd `n > 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Montgomery {
    /// The modulus, little-endian; the top limb is non-zero.
    n: Vec<u64>,
    /// `−n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n`: multiplying by it enters Montgomery form.
    r2: Vec<u64>,
}

fn pack(a: &Big) -> Vec<u64> {
    let pair = |c: &[u32]| u64::from(c[0]) | u64::from(*c.get(1).unwrap_or(&0)) << 32;
    a.limbs().chunks(2).map(pair).collect()
}

fn unpack(a: &[u64]) -> Big {
    let mut limbs = Vec::with_capacity(2 * a.len());
    for &l in a {
        limbs.extend([l as u32, (l >> 32) as u32]);
    }
    Big::from_limbs(limbs)
}

/// `a >= b` for equal-length limb slices.
fn ge(a: &[u64], b: &[u64]) -> bool {
    a.iter().rev().ge(b.iter().rev())
}

/// `a = op(a, b)` rippling the carry (borrow) through; returns the one out.
#[inline(always)]
fn ripple(a: &mut [u64], b: &[u64], op: impl Fn(u64, u64) -> (u64, bool)) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s, c1) = op(*x, y);
        let (s, c2) = op(s, u64::from(carry));
        (*x, carry) = (s, c1 | c2);
    }
    carry
}

/// `a = (a + top·2^(64k)) >> 1`.
fn halve(a: &mut [u64], top: bool) {
    let mut carry = u64::from(top);
    for x in a.iter_mut().rev() {
        (*x, carry) = (*x >> 1 | carry << 63, *x & 1);
    }
}

impl Montgomery {
    /// Context for the odd modulus `m > 1`; `None` for an even modulus, 0
    /// and 1, which have no Montgomery form.
    pub fn new(m: &Big) -> Option<Self> {
        if m.is_even() || m.is_one() {
            return None;
        }
        let n = pack(m);
        let (k, n0) = (n.len(), n[0]);
        // Newton's iteration doubles the correct low bits of n⁻¹ mod 2⁶⁴;
        // n itself is right to three (n·n ≡ 1 mod 8).
        let newton = |x: u64, _| x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
        let n0_inv = (0..5).fold(n0, newton).wrapping_neg();
        // R mod n without dividing: with s leading zero bits in n,
        // 2^(64k−s) − n is the low 64k−s bits of −n and lies in [0, n);
        // doubling it s times modulo n gives 2^(64k) mod n.
        let s = n[k - 1].leading_zeros() as usize;
        let mut r2: Vec<u64> = n.iter().map(|&l| !l).collect();
        r2[0] |= 1;
        r2[k - 1] &= u64::MAX >> s;
        let mut ctx = Montgomery {
            n,
            n0_inv,
            r2: Vec::new(),
        };
        // R² = 2^(64k)·R. Squaring 2^j·R in Montgomery form gives 2^(2j)·R
        // and doubling gives 2^(j+1)·R: reach j = 64k from its top four
        // bits by doubling, then square-and-double over the bits below.
        let (e, mut t) = (64 * k, ctx.scratch());
        let low_bits = (usize::BITS - e.leading_zeros()).saturating_sub(4);
        for _ in 0..s + (e >> low_bits) {
            ctx.double(&mut r2);
        }
        for i in (0..low_bits).rev() {
            ctx.kernel(&mut r2, None, &mut t);
            if e >> i & 1 == 1 {
                ctx.double(&mut r2);
            }
        }
        ctx.r2 = r2;
        Some(ctx)
    }

    /// `a = 2a mod n` for `a < n`.
    fn double(&self, a: &mut [u64]) {
        let mut carry = 0;
        for x in a.iter_mut() {
            (*x, carry) = (*x << 1 | carry, *x >> 63);
        }
        if carry == 1 || ge(a, &self.n) {
            ripple(a, &self.n, u64::overflowing_sub);
        }
    }

    /// A scratch buffer for [`Montgomery::mul_assign`], reusable across calls
    /// (empty up to eight limbs, where the kernel accumulates on its stack).
    pub fn scratch(&self) -> Vec<u64> {
        let k = self.n.len();
        vec![0; if k > 8 { k + 1 } else { 0 }]
    }

    /// `a = a·b` for residues in Montgomery form (on plain limbs:
    /// `a·b·R⁻¹ mod n`); `t` comes from [`Montgomery::scratch`].
    pub fn mul_assign(&self, a: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.kernel(a, Some(b), t);
    }

    /// `a = a²` for a residue in Montgomery form; `t` as for
    /// [`Montgomery::mul_assign`].
    pub fn square_assign(&self, a: &mut [u64], t: &mut [u64]) {
        self.kernel(a, None, t);
    }

    /// Dispatches to the one kernel. The limb counts of the baked groups up
    /// to 512 bits pass theirs as a constant, so the compiler emits a copy
    /// with the loops unrolled and no `memset`/`memcpy` call (1.8× on two
    /// limbs); every other width runs the same code as written.
    fn kernel(&self, a: &mut [u64], b: Option<&[u64]>, t: &mut [u64]) {
        match self.n.len() {
            1 => self.fios(1, a, b, t),
            2 => self.fios(2, a, b, t),
            4 => self.fios(4, a, b, t),
            8 => self.fios(8, a, b, t),
            k => self.fios(k, a, b, t),
        }
    }

    /// The multiplication kernel (finely integrated operand scanning):
    /// `a = a·b·R⁻¹ mod n`, or `a²·R⁻¹` for `b = None`, for `a, b < n` of
    /// `k` limbs. Each row adds `a·b_i` and the multiple `m·n` that clears
    /// the low limb in one pass and shifts that limb out, so the running
    /// value stays below `2n` and fits the `k + 1` limbs of `t`.
    #[inline(always)]
    fn fios(&self, k: usize, a: &mut [u64], b: Option<&[u64]>, t: &mut [u64]) {
        let mut own = [0; 9];
        let t = if k > 8 { &mut t[..=k] } else { &mut own[..=k] };
        let (n, a) = (&self.n[..k], &mut a[..k]);
        t.fill(0);
        for i in 0..k {
            let bi = u128::from(b.map_or(a[i], |b| b[i]));
            let lo = u128::from(t[0]) + u128::from(a[0]) * bi;
            let m = u128::from((lo as u64).wrapping_mul(self.n0_inv));
            let mut carry_ab = lo >> 64;
            let mut carry_mn = (u128::from(lo as u64) + m * u128::from(n[0])) >> 64;
            for j in 1..k {
                let lo = u128::from(t[j]) + u128::from(a[j]) * bi + carry_ab;
                let sum = u128::from(lo as u64) + m * u128::from(n[j]) + carry_mn;
                (t[j - 1], carry_ab, carry_mn) = (sum as u64, lo >> 64, sum >> 64);
            }
            let top = u128::from(t[k]) + carry_ab + carry_mn;
            (t[k - 1], t[k]) = (top as u64, (top >> 64) as u64);
        }
        // a = t − n, unless that borrows from a zero top limb (t < n).
        a.copy_from_slice(&t[..k]);
        if ripple(a, n, u64::overflowing_sub) && t[k] == 0 {
            a.copy_from_slice(&t[..k]);
        }
    }

    /// `a mod n` as `k` plain limbs. Operands `>= n` are reduced here: the
    /// kernel requires it.
    fn reduced(&self, a: &Big) -> Vec<u64> {
        let mut v = pack(a);
        if v.len() > self.n.len() || (v.len() == self.n.len() && ge(&v, &self.n)) {
            v = pack(&a.rem(&unpack(&self.n)));
        }
        v.resize(self.n.len(), 0);
        v
    }

    /// `a mod n` in Montgomery form.
    pub fn enter(&self, a: &Big) -> Vec<u64> {
        let mut v = self.reduced(a);
        self.mul_assign(&mut v, &self.r2, &mut self.scratch());
        v
    }

    /// The plain value of a residue in Montgomery form: its product with a
    /// plain 1.
    pub fn leave(&self, a: &[u64]) -> Big {
        let (mut v, mut one) = (a.to_vec(), vec![0; a.len()]);
        one[0] = 1;
        self.mul_assign(&mut v, &one, &mut self.scratch());
        unpack(&v)
    }

    /// `a·b mod n`.
    pub fn mul(&self, a: &Big, b: &Big) -> Big {
        let (mut v, mut t) = (self.reduced(a), self.scratch());
        self.mul_assign(&mut v, &self.reduced(b), &mut t);
        self.mul_assign(&mut v, &self.r2, &mut t);
        unpack(&v)
    }

    /// `base^exp mod n` (1 for `exp == 0`) by a fixed 4-bit window. The
    /// table of powers and the scratch are allocated once per call, and the
    /// table stops at the widest window `exp` contains, so a 5-bit exponent
    /// does not pay for fifteen powers.
    pub fn pow(&self, base: &Big, exp: &Big) -> Big {
        let window = |i: usize| (0..4).fold(0, |w, b| w | usize::from(exp.bit(4 * i + b)) << b);
        let windows = exp.bit_len().div_ceil(4);
        let Some(widest) = (0..windows).map(window).max() else {
            return Big::one();
        };
        let (k, mut t) = (self.n.len(), self.scratch());
        // table[(w − 1)·k..w·k] = base^w in Montgomery form.
        let mut table = self.enter(base);
        table.resize(widest * k, 0);
        for w in 1..widest {
            let (done, next) = table.split_at_mut(w * k);
            next[..k].copy_from_slice(&done[(w - 1) * k..]);
            self.mul_assign(&mut next[..k], &done[..k], &mut t);
        }
        let power = |w: usize| &table[(w - 1) * k..w * k];
        let mut acc = power(window(windows - 1)).to_vec();
        for i in (0..windows - 1).rev() {
            for _ in 0..4 {
                self.kernel(&mut acc, None, &mut t);
            }
            if window(i) != 0 {
                self.mul_assign(&mut acc, power(window(i)), &mut t);
            }
        }
        self.leave(&acc)
    }

    /// `a⁻¹ mod n` by the binary extended GCD (shifts and subtractions
    /// only); `None` when `gcd(a, n) != 1`.
    pub fn inv(&self, a: &Big) -> Option<Big> {
        let n = &self.n[..];
        let (mut u, mut v) = (self.reduced(a), n.to_vec());
        let (mut x1, mut x2) = (vec![0; n.len()], vec![0; n.len()]);
        x1[0] = 1;
        // Invariant: x1·a ≡ u and x2·a ≡ v (mod n), with v odd.
        while u.iter().any(|&l| l != 0) {
            while u[0] & 1 == 0 {
                halve(&mut u, false);
                let carry = x1[0] & 1 == 1 && ripple(&mut x1, n, u64::overflowing_add);
                halve(&mut x1, carry);
            }
            if !ge(&u, &v) {
                std::mem::swap(&mut u, &mut v);
                std::mem::swap(&mut x1, &mut x2);
            }
            ripple(&mut u, &v, u64::overflowing_sub);
            if ripple(&mut x1, &x2, u64::overflowing_sub) {
                ripple(&mut x1, n, u64::overflowing_add);
            }
        }
        (v[0] == 1 && v[1..].iter().all(|&l| l == 0)).then(|| unpack(&x2))
    }
}
