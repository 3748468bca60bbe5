//! The [`Big`] unsigned big-integer type and its core arithmetic.

use std::cmp::Ordering;
use std::fmt;

use rand::Rng;

/// An arbitrary-precision unsigned integer.
///
/// Limbs are `u32`, stored little-endian, always normalized (no most
/// significant zero limbs; zero is the empty limb vector). `u32` limbs keep
/// Knuth's Algorithm D simple because every intermediate product and partial
/// quotient fits in `u64`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Big {
    limbs: Vec<u32>,
}

impl Big {
    /// The value 0.
    pub fn zero() -> Self {
        Big { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Big { limbs: vec![1] }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut b = Big {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        b.normalize();
        b
    }

    /// Builds from little-endian `u32` limbs (normalizing).
    pub(crate) fn from_limbs(limbs: Vec<u32>) -> Self {
        let mut b = Big { limbs };
        b.normalize();
        b
    }

    /// Read-only view of the little-endian limbs.
    pub(crate) fn limbs(&self) -> &[u32] {
        &self.limbs
    }

    /// Parses a hexadecimal string (no `0x` prefix required, case
    /// insensitive, whitespace ignored).
    ///
    /// Returns `None` on any non-hex character.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut nibbles: Vec<u8> = Vec::with_capacity(s.len());
        for ch in s.chars() {
            if ch.is_whitespace() {
                continue;
            }
            nibbles.push(ch.to_digit(16)? as u8);
        }
        // nibbles is big-endian; assemble limbs from the tail.
        let mut limbs = Vec::with_capacity(nibbles.len() / 8 + 1);
        let mut i = nibbles.len();
        while i > 0 {
            let start = i.saturating_sub(8);
            let mut limb: u32 = 0;
            for &n in &nibbles[start..i] {
                limb = (limb << 4) | u32::from(n);
            }
            limbs.push(limb);
            i = start;
        }
        Some(Big::from_limbs(limbs))
    }

    /// Lower-case hexadecimal rendering without leading zeros (`"0"` for 0).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// True when the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True when the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True when the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 32, i % 32);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Converts to `u64`, returning `None` on overflow.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u64::from(self.limbs[0])),
            2 => Some(u64::from(self.limbs[0]) | (u64::from(self.limbs[1]) << 32)),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Big) -> Big {
        let (a, b) = (&self.limbs, &other.limbs);
        let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
        let mut carry: u64 = 0;
        for i in 0..a.len().max(b.len()) {
            let x = u64::from(*a.get(i).unwrap_or(&0));
            let y = u64::from(*b.get(i).unwrap_or(&0));
            let s = x + y + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        Big::from_limbs(out)
    }

    /// `self - other`. Panics if `other > self` (callers work with
    /// non-negative invariants; modular code never underflows).
    pub fn sub(&self, other: &Big) -> Big {
        debug_assert!(self.cmp_big(other) != Ordering::Less, "Big::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let x = i64::from(self.limbs[i]);
            let y = i64::from(*other.limbs.get(i).unwrap_or(&0));
            let mut d = x - y - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        assert_eq!(borrow, 0, "Big::sub underflow");
        Big::from_limbs(out)
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &Big) -> Big {
        if self.is_zero() || other.is_zero() {
            return Big::zero();
        }
        let (a, b) = (&self.limbs, &other.limbs);
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry: u64 = 0;
            let ai = u64::from(ai);
            for (j, &bj) in b.iter().enumerate() {
                let cur = u64::from(out[i + j]) + ai * u64::from(bj) + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let cur = u64::from(out[k]) + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        Big::from_limbs(out)
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> Big {
        if self.is_zero() {
            return Big::zero();
        }
        let (limb_shift, bit_shift) = (bits / 32, bits % 32);
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        Big::from_limbs(out)
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> Big {
        let (limb_shift, bit_shift) = (bits / 32, bits % 32);
        if limb_shift >= self.limbs.len() {
            return Big::zero();
        }
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&n| n << (32 - bit_shift));
                out.push(lo | hi);
            }
        }
        Big::from_limbs(out)
    }

    /// Total ordering comparison.
    pub fn cmp_big(&self, other: &Big) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }

    /// Quotient and remainder: `(self / div, self % div)`.
    ///
    /// Uses Knuth TAOCP Vol. 2, Algorithm D, with `u32` limbs. Panics on
    /// division by zero.
    pub fn div_rem(&self, div: &Big) -> (Big, Big) {
        assert!(!div.is_zero(), "Big::div_rem division by zero");
        match self.cmp_big(div) {
            Ordering::Less => return (Big::zero(), self.clone()),
            Ordering::Equal => return (Big::one(), Big::zero()),
            Ordering::Greater => {}
        }
        if div.limbs.len() == 1 {
            return self.div_rem_small(div.limbs[0]);
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = div.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = div.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs
        let vn = &v.limbs;
        let v_top = u64::from(vn[n - 1]);
        let v_next = u64::from(vn[n - 2]);

        let mut q = vec![0u32; m + 1];
        for j in (0..=m).rev() {
            let top2 = (u64::from(un[j + n]) << 32) | u64::from(un[j + n - 1]);
            let mut qhat = top2 / v_top;
            let mut rhat = top2 % v_top;
            // Correct qhat down to at most 1 too large.
            while qhat >= 1 << 32 || qhat * v_next > (rhat << 32) + u64::from(un[j + n - 2]) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= 1 << 32 {
                    break;
                }
            }
            // Multiply-subtract qhat * v from un[j..j+n+1].
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = qhat * u64::from(vn[i]) + carry;
                carry = p >> 32;
                let t = i64::from(un[i + j]) - borrow - i64::from(p as u32);
                un[i + j] = t as u32;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t =
                i64::from(un[j + n]) - borrow - i64::from(carry as u32) - ((carry >> 32) as i64);
            un[j + n] = t as u32;
            if t < 0 {
                // qhat was one too large: add v back.
                qhat -= 1;
                let mut carry: u64 = 0;
                for i in 0..n {
                    let s = u64::from(un[i + j]) + u64::from(vn[i]) + carry;
                    un[i + j] = s as u32;
                    carry = s >> 32;
                }
                un[j + n] = (u64::from(un[j + n]) + carry) as u32;
            }
            q[j] = qhat as u32;
        }

        let quotient = Big::from_limbs(q);
        let remainder = Big::from_limbs(un[..n].to_vec()).shr(shift);
        (quotient, remainder)
    }

    fn div_rem_small(&self, d: u32) -> (Big, Big) {
        let d64 = u64::from(d);
        let mut q = vec![0u32; self.limbs.len()];
        let mut rem: u64 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | u64::from(self.limbs[i]);
            q[i] = (cur / d64) as u32;
            rem = cur % d64;
        }
        (Big::from_limbs(q), Big::from_u64(rem))
    }

    /// `self % m`.
    pub fn rem(&self, m: &Big) -> Big {
        self.div_rem(m).1
    }

    /// Uniformly random value in `[0, bound)`. Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Big) -> Big {
        assert!(!bound.is_zero(), "random_below: zero bound");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(32);
        let top_mask: u32 = if bits.is_multiple_of(32) {
            u32::MAX
        } else {
            (1u32 << (bits % 32)) - 1
        };
        // Rejection sampling: expected < 2 iterations.
        loop {
            let mut ls: Vec<u32> = (0..limbs).map(|_| rng.gen()).collect();
            if let Some(top) = ls.last_mut() {
                *top &= top_mask;
            }
            let candidate = Big::from_limbs(ls);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Uniformly random value with exactly `bits` bits (top bit set).
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Big {
        assert!(bits > 0);
        let limbs = bits.div_ceil(32);
        let mut ls: Vec<u32> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bit = (bits - 1) % 32;
        let last = ls.last_mut().unwrap();
        *last &= if top_bit == 31 {
            u32::MAX
        } else {
            (1u32 << (top_bit + 1)) - 1
        };
        *last |= 1 << top_bit;
        Big::from_limbs(ls)
    }

    /// Parses a decimal string. Returns `None` on any non-digit.
    pub fn from_decimal(s: &str) -> Option<Self> {
        let mut acc = Big::zero();
        let ten = Big::from_u64(10);
        let mut any = false;
        for ch in s.chars() {
            let d = ch.to_digit(10)?;
            acc = acc.mul(&ten).add(&Big::from_u64(u64::from(d)));
            any = true;
        }
        if any {
            Some(acc)
        } else {
            None
        }
    }

    /// Decimal rendering.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_small(10);
            digits.push(char::from(b'0' + r.to_u64().unwrap() as u8));
            cur = q;
        }
        digits.iter().rev().collect()
    }
}

impl PartialOrd for Big {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Big {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl fmt::Debug for Big {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Big(0x{})", self.to_hex())
    }
}

impl fmt::Display for Big {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

impl From<u64> for Big {
    fn from(v: u64) -> Self {
        Big::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_basics() {
        assert!(Big::zero().is_zero());
        assert!(Big::one().is_one());
        assert_eq!(Big::zero().bit_len(), 0);
        assert_eq!(Big::one().bit_len(), 1);
        assert_eq!(Big::from_u64(0), Big::zero());
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            assert_eq!(Big::from_u64(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn hex_roundtrip() {
        let cases = [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ];
        for c in cases {
            let b = Big::from_hex(c).unwrap();
            assert_eq!(b.to_hex(), c, "case {c}");
        }
        assert_eq!(Big::from_hex("DEADBEEF").unwrap().to_hex(), "deadbeef");
        assert!(Big::from_hex("xyz").is_none());
    }

    #[test]
    fn hex_zero_renders_zero() {
        assert_eq!(Big::from_hex("0").unwrap().to_hex(), "0");
        assert_eq!(Big::from_hex("000").unwrap().to_hex(), "0");
    }

    #[test]
    fn add_with_carry_chain() {
        let a = Big::from_hex("ffffffffffffffff").unwrap();
        let b = Big::one();
        assert_eq!(a.add(&b).to_hex(), "10000000000000000");
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = Big::from_hex("10000000000000000").unwrap();
        assert_eq!(a.sub(&Big::one()).to_hex(), "ffffffffffffffff");
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = Big::one().sub(&Big::from_u64(2));
    }

    #[test]
    fn mul_known_values() {
        let a = Big::from_u64(0xffff_ffff);
        let b = Big::from_u64(0xffff_ffff);
        assert_eq!(a.mul(&b).to_u64(), Some(0xffff_ffff * 0xffff_ffffu64));
        assert!(Big::zero().mul(&a).is_zero());
    }

    #[test]
    fn mul_large() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = Big::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let sq = a.mul(&a);
        let expect =
            Big::from_hex("fffffffffffffffffffffffffffffffe00000000000000000000000000000001")
                .unwrap();
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        let a = Big::from_u64(0b1011);
        assert_eq!(a.shl(4).to_u64(), Some(0b1011_0000));
        assert_eq!(a.shl(32).to_hex(), "b00000000");
        assert_eq!(a.shl(33).shr(33), a);
        assert_eq!(a.shr(64), Big::zero());
        assert_eq!(a.shr(0), a);
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = Big::from_decimal("123456789012345678901234567890").unwrap();
        let (q, r) = a.div_rem(&Big::from_u64(97));
        assert_eq!(q.mul(&Big::from_u64(97)).add(&r), a);
        assert!(r.to_u64().unwrap() < 97);
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = Big::from_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap();
        let d = Big::from_hex("fedcba9876543210f").unwrap();
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn div_rem_needs_addback() {
        // Crafted case exercising the rare add-back branch of Algorithm D:
        // dividend top limbs equal divisor top limbs.
        let d = Big::from_hex("80000000000000000000000000000001").unwrap();
        let a = d.mul(&Big::from_hex("7fffffffffffffffffffffffffffffff").unwrap());
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "987654321098765432109876543210123456789";
        assert_eq!(Big::from_decimal(s).unwrap().to_decimal(), s);
        assert_eq!(Big::zero().to_decimal(), "0");
        assert!(Big::from_decimal("12a").is_none());
        assert!(Big::from_decimal("").is_none());
    }

    #[test]
    fn bit_accessors() {
        let a = Big::from_u64(0b1010);
        assert!(!a.bit(0));
        assert!(a.bit(1));
        assert!(!a.bit(2));
        assert!(a.bit(3));
        assert!(!a.bit(1000));
        assert!(a.is_even());
        assert!(!Big::one().is_even());
        assert!(Big::zero().is_even());
    }

    #[test]
    fn random_below_in_range() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let bound = Big::from_hex("ffffffffffffffffffffffff").unwrap();
        for _ in 0..50 {
            let v = Big::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_has_top_bit() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for bits in [1usize, 31, 32, 33, 64, 100, 257] {
            let v = Big::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits, "bits={bits}");
        }
    }

    #[test]
    fn ordering() {
        let a = Big::from_u64(5);
        let b = Big::from_u64(6);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp_big(&a), Ordering::Equal);
        assert!(Big::from_hex("100000000").unwrap() > Big::from_u64(0xffff_ffff));
    }
}
