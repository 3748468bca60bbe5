//! Montgomery arithmetic for a fixed odd modulus `n` of `k` `u64` limbs.
//!
//! A residue `a` is kept as `a·R mod n` for `R = 2^(64k)` ("Montgomery
//! form"); the one multiplication kernel maps two such residues to the form
//! of their product with word-sized reductions only: no division, and no
//! allocation (the caller owns the scratch). `k` is a run-time property of
//! the modulus, so one kernel serves a 32-bit test group and the 2048-bit
//! RFC 3526 group. Building a context takes no division either.
//!
//! Exponentiation comes in parts, so that what several exponentiations
//! share is done once and their residues stay in Montgomery form until
//! each output leaves it:
//!
//! * [`Windows`] recodes an exponent into 4-bit windows, once, from its
//!   limbs; [`Montgomery::table`] holds a base's first powers;
//!   [`Montgomery::pow_table`] is the one window ladder over the two.
//!   [`Montgomery::pow`] is the three in a row.
//! * [`Montgomery::comb`] precomputes a fixed base's Lim–Lee comb;
//!   [`Columns`] recodes an exponent, once, for every comb of one width;
//!   [`Montgomery::pow_comb`] raises a comb to it in about a sixth of the
//!   ladder's squarings. [`Montgomery::comb_pow`] is the last two in a
//!   row. A comb costs about one ladder to build, so it pays from a
//!   base's second exponentiation on.

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
    /// `R mod n`: 1 in Montgomery form.
    one: Vec<u64>,
}

/// Rows of a [`Comb`]: its table holds `2^COMB_ROWS − 1` products. Six
/// keep a comb's build at about one window ladder at every baked width
/// (64 to 2048 bits) while cutting each exponentiation's squarings
/// sixfold.
const COMB_ROWS: usize = 6;

/// An exponent recoded into 4-bit windows, least significant first, with
/// no zero window on top (none at all for 0): what
/// [`Montgomery::pow_table`] reads. Recoding once lets one exponent serve
/// many bases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Windows {
    digits: Vec<u8>,
}

impl Windows {
    /// The largest window value: a [`Montgomery::table`] this wide serves
    /// every exponent.
    pub const WIDEST: usize = 15;

    /// Recodes `exp`.
    pub fn new(exp: &Big) -> Self {
        let limbs = exp.limbs();
        let mut digits = Vec::with_capacity(8 * limbs.len());
        for &l in limbs {
            digits.extend((0..8).map(|i| (l >> (4 * i) & 0xf) as u8));
        }
        while digits.last() == Some(&0) {
            digits.pop();
        }
        Windows { digits }
    }

    /// The largest window of the exponent (0 for 0): the powers a
    /// [`Montgomery::table`] needs to serve it.
    pub fn widest(&self) -> usize {
        self.digits.iter().max().map_or(0, |&w| usize::from(w))
    }
}

/// An exponent recoded for every [`Comb`] built for one width: per
/// column `j`, from the top, the table entry of the bits `j, j + cols,
/// j + 2·cols, …` of the exponent, with no zero column on top (none at all
/// for 0); or, for an exponent wider than such a comb, its [`Windows`] for
/// the ladder fallback. What [`Montgomery::pow_comb`] reads: recoding once
/// lets one exponent serve many fixed bases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Columns {
    /// Bits per row of the combs this recoding serves.
    cols: usize,
    recoded: Recoded,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Recoded {
    /// Table entries (0 for none), most significant column first.
    Comb(Vec<u8>),
    /// An exponent wider than [`Comb::width`].
    Ladder(Windows),
}

/// Bits per row of a comb for exponents of up to `bits` bits.
fn comb_cols(bits: usize) -> usize {
    bits.div_ceil(COMB_ROWS).max(1)
}

impl Columns {
    /// Recodes `exp` for combs built for `bits`-bit exponents (the `bits`
    /// of [`Montgomery::comb`]).
    pub fn new(exp: &Big, bits: usize) -> Self {
        let cols = comb_cols(bits);
        if exp.bit_len() > COMB_ROWS * cols {
            return Columns {
                cols,
                recoded: Recoded::Ladder(Windows::new(exp)),
            };
        }
        // Column j's entry has bit i set when bit i·cols + j of exp is:
        // read each row 64 columns at a time and spread its bits.
        let limbs = exp.limbs();
        let limb = |w: usize| u128::from(limbs.get(w).copied().unwrap_or(0));
        let word = |b: usize| {
            let w = b / 32;
            ((limb(w) | limb(w + 1) << 32 | limb(w + 2) << 64) >> (b % 32)) as u64
        };
        let mut digits = vec![0u8; cols];
        for (c, chunk) in digits.chunks_mut(64).enumerate() {
            for i in 0..COMB_ROWS {
                let row = word(i * cols + 64 * c);
                for (j, u) in chunk.iter_mut().enumerate() {
                    *u |= (((row >> j) & 1) as u8) << i;
                }
            }
        }
        let top = digits.iter().rposition(|&u| u != 0).map_or(0, |t| t + 1);
        digits.truncate(top);
        digits.reverse();
        Columns {
            cols,
            recoded: Recoded::Comb(digits),
        }
    }
}

/// A base's powers `base^1 …` in Montgomery form, from
/// [`Montgomery::table`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// `base^w` at limbs `(w − 1)·k .. w·k`.
    powers: Vec<u64>,
}

/// A fixed base's Lim–Lee comb, from [`Montgomery::comb`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comb {
    /// Bits per row.
    cols: usize,
    /// For `u` in `1 .. 2^COMB_ROWS`, limbs `(u − 1)·k .. u·k` hold
    /// `Π_{i: bit i of u} base^(2^(i·cols))` in Montgomery form; entry 0 is
    /// the base itself.
    table: Vec<u64>,
}

impl Comb {
    /// The widest exponent, in bits, the comb serves without falling back
    /// to the window ladder: `COMB_ROWS · cols`.
    pub fn width(&self) -> usize {
        COMB_ROWS * self.cols
    }
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
            one: Vec::new(),
        };
        for _ in 0..s {
            ctx.double(&mut r2);
        }
        ctx.one = r2.clone();
        // R² = 2^(64k)·R. Squaring 2^j·R in Montgomery form gives 2^(2j)·R
        // and doubling gives 2^(j+1)·R: reach j = 64k from its top four
        // bits by doubling, then square-and-double over the bits below.
        let (e, mut t) = (64 * k, ctx.scratch());
        let low_bits = (usize::BITS - e.leading_zeros()).saturating_sub(4);
        for _ in 0..e >> low_bits {
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

    /// `base^exp mod n` (1 for `exp == 0`): [`Windows::new`], a
    /// [`Montgomery::table`] that stops at the widest window `exp`
    /// contains (a 5-bit exponent does not pay for fifteen powers), and
    /// [`Montgomery::pow_table`]. Callers that raise one base to many
    /// exponents, or many bases to one exponent, call those three
    /// themselves and keep what repeats.
    pub fn pow(&self, base: &Big, exp: &Big) -> Big {
        let exp = Windows::new(exp);
        let table = self.table(&self.enter(base), exp.widest());
        self.leave(&self.pow_table(&table, &exp))
    }

    /// `base^1 … base^widest` for `base` in Montgomery form (`widest ≤`
    /// [`Windows::WIDEST`]): `widest − 1` kernel calls.
    pub fn table(&self, base: &[u64], widest: usize) -> Table {
        let (k, mut t) = (self.n.len(), self.scratch());
        let mut powers = Vec::with_capacity(widest * k);
        let mut power = base.to_vec();
        for w in 1..=widest {
            if w > 1 {
                self.mul_assign(&mut power, base, &mut t);
            }
            powers.extend_from_slice(&power);
        }
        Table { powers }
    }

    /// `base^exp` in Montgomery form, by the fixed 4-bit window ladder over
    /// a `table` of `base` that covers [`Windows::widest`] of `exp`: four
    /// squarings per window below the top one, and one multiplication per
    /// nonzero window.
    ///
    /// # Panics
    /// If `table` stops below a window of `exp`.
    pub fn pow_table(&self, table: &Table, exp: &Windows) -> Vec<u64> {
        let (k, mut t) = (self.n.len(), self.scratch());
        let power = |w: u8| &table.powers[(usize::from(w) - 1) * k..usize::from(w) * k];
        let Some((&top, below)) = exp.digits.split_last() else {
            return self.one.clone();
        };
        let mut acc = power(top).to_vec();
        for &w in below.iter().rev() {
            for _ in 0..4 {
                self.square_assign(&mut acc, &mut t);
            }
            if w != 0 {
                self.mul_assign(&mut acc, power(w), &mut t);
            }
        }
        acc
    }

    /// The fixed-base comb of `base` (Montgomery form) for exponents of up
    /// to `bits` bits, Lim–Lee with `COMB_ROWS = 6` rows of
    /// `cols = ⌈bits / COMB_ROWS⌉` bits. Row `i` is
    /// `base^(2^(i·cols))`, `cols` squarings above row `i − 1`; the table
    /// holds the product of every nonempty set of rows. Building it costs
    /// about `bits` squarings and `2^COMB_ROWS − COMB_ROWS − 1`
    /// multiplications, about one window ladder.
    pub fn comb(&self, base: &[u64], bits: usize) -> Comb {
        // Dispatched as the kernel is: with `k` a constant, the 63 table
        // copies and slices compile to a few moves instead of calls.
        match self.n.len() {
            1 => self.comb_k(1, base, bits),
            2 => self.comb_k(2, base, bits),
            4 => self.comb_k(4, base, bits),
            8 => self.comb_k(8, base, bits),
            k => self.comb_k(k, base, bits),
        }
    }

    #[inline(always)]
    fn comb_k(&self, k: usize, base: &[u64], bits: usize) -> Comb {
        let mut t = self.scratch();
        let cols = comb_cols(bits);
        let mut table = vec![0; ((1 << COMB_ROWS) - 1) * k];
        let mut row = base.to_vec();
        for i in 0..COMB_ROWS {
            if i > 0 {
                for _ in 0..cols {
                    self.square_assign(&mut row, &mut t);
                }
            }
            // Entry u − 1 holds the product of the rows whose bits u has:
            // row i alone, then row i times each entry below it.
            let top = 1 << i;
            table[(top - 1) * k..top * k].copy_from_slice(&row);
            for u in 1..top {
                let (below, above) = table.split_at_mut((top + u - 1) * k);
                above[..k].copy_from_slice(&below[(u - 1) * k..u * k]);
                self.mul_assign(&mut above[..k], &row, &mut t);
            }
        }
        Comb { cols, table }
    }

    /// `base^exp` in Montgomery form from `base`'s comb: [`Columns::new`]
    /// for the comb's width, then [`Montgomery::pow_comb`]. Callers that
    /// raise many combs to one exponent recode it once themselves.
    pub fn comb_pow(&self, comb: &Comb, exp: &Big) -> Vec<u64> {
        self.pow_comb(comb, &Columns::new(exp, comb.width()))
    }

    /// `base^exp` in Montgomery form from `base`'s comb and `exp`'s
    /// columns: one squaring per column below the top one, and one
    /// multiplication per nonzero column. An exponent wider than
    /// [`Comb::width`] goes through the window ladder instead.
    ///
    /// # Panics
    /// If `exp` was recoded for combs of another width.
    pub fn pow_comb(&self, comb: &Comb, exp: &Columns) -> Vec<u64> {
        assert_eq!(
            comb.cols, exp.cols,
            "exponent recoded for another comb width"
        );
        let k = self.n.len();
        let digits = match &exp.recoded {
            Recoded::Comb(digits) => digits,
            Recoded::Ladder(exp) => {
                return self.pow_table(&self.table(&comb.table[..k], exp.widest()), exp);
            }
        };
        let entry = |u: u8| &comb.table[(usize::from(u) - 1) * k..usize::from(u) * k];
        let Some((&top, below)) = digits.split_first() else {
            return self.one.clone();
        };
        let (mut acc, mut t) = (entry(top).to_vec(), self.scratch());
        for &u in below {
            self.square_assign(&mut acc, &mut t);
            if u != 0 {
                self.mul_assign(&mut acc, entry(u), &mut t);
            }
        }
        acc
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `comb_pow` as it was before [`Columns`]: the bits of each column
    /// read from `exp`'s limbs at every call.
    fn comb_pow_by_bits(ctx: &Montgomery, comb: &Comb, exp: &Big) -> Vec<u64> {
        let k = ctx.n.len();
        if exp.bit_len() > comb.width() {
            let exp = Windows::new(exp);
            return ctx.pow_table(&ctx.table(&comb.table[..k], exp.widest()), &exp);
        }
        let (limbs, mut t) = (exp.limbs(), ctx.scratch());
        let bit = |i: usize| {
            limbs
                .get(i / 32)
                .map_or(0, |&l| (l >> (i % 32)) as usize & 1)
        };
        let mut acc: Option<Vec<u64>> = None;
        for j in (0..comb.cols).rev() {
            if let Some(acc) = &mut acc {
                ctx.square_assign(acc, &mut t);
            }
            let u = (0..COMB_ROWS).fold(0, |u, i| u | bit(i * comb.cols + j) << i);
            if u != 0 {
                let entry = &comb.table[(u - 1) * k..u * k];
                match &mut acc {
                    Some(acc) => ctx.mul_assign(acc, entry, &mut t),
                    none => *none = Some(entry.to_vec()),
                }
            }
        }
        acc.unwrap_or_else(|| ctx.one.clone())
    }

    /// One recoding serves every comb of a width, and each comb raised to
    /// it is what the per-call bit reading gave: for 0, 1, sparse and
    /// dense exponents up to the comb's width, one bit wider (the ladder
    /// fallback), and widths of one bit per row up to three limbs.
    #[test]
    fn pow_comb_over_shared_columns_equals_comb_pow_by_bits() {
        let moduli = [
            Big::from_u64(0xa1c7_1aa2_e828_476b),
            Big::from_hex("84221bf2e9f5d7bbe3c984f439570fc7").unwrap(),
            Big::one().shl(150).sub(&Big::from_u64(3)),
        ];
        for m in &moduli {
            let ctx = Montgomery::new(m).unwrap();
            let bases: Vec<Vec<u64>> = [2u64, 0xdead_beef, 1 << 40]
                .iter()
                .map(|&b| ctx.enter(&Big::from_u64(b)))
                .collect();
            for bits in [1, 5, 6, 7, 64, m.bit_len()] {
                let combs: Vec<Comb> = bases.iter().map(|b| ctx.comb(b, bits)).collect();
                let width = combs[0].width();
                let ones = Big::one().shl(width).sub(&Big::one());
                let exps = [
                    Big::zero(),
                    Big::one(),
                    Big::one().shl(width - 1),
                    ones.clone(),
                    ones.shr(width / 2),
                    ones.add(&Big::from_u64(2)),
                    m.sub(&Big::one()),
                ];
                for e in &exps {
                    let columns = Columns::new(e, bits);
                    for comb in &combs {
                        assert_eq!(
                            ctx.pow_comb(comb, &columns),
                            comb_pow_by_bits(&ctx, comb, e),
                            "{bits}-bit comb, {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "another comb width")]
    fn columns_for_another_width_are_refused() {
        let ctx = Montgomery::new(&Big::from_u64(0xa1c7_1aa2_e828_476b)).unwrap();
        let comb = ctx.comb(&ctx.enter(&Big::from_u64(4)), 64);
        ctx.pow_comb(&comb, &Columns::new(&Big::from_u64(5), 128));
    }
}
