//! Arbitrary-precision unsigned and modular arithmetic.
//!
//! This crate is the numeric substrate for the Price $heriff's
//! privacy-preserving *k*-means protocol (paper §3.8 / §10.4): additively
//! homomorphic ElGamal needs modular exponentiation over a prime field whose
//! size is chosen at run time, from test-sized 64-bit primes up to 2048-bit
//! MODP groups. It is dependency-free (only `rand` for sampling) and has two
//! halves. The general-purpose half is [`Big`], an unsigned integer of
//! little-endian `u32` limbs with schoolbook multiplication, Knuth
//! Algorithm D division, parsing, and [`prime`] (Miller–Rabin, safe-prime
//! generation): written to be audited, and the oracle the other half is
//! tested against. The fast half is [`montgomery`]: multiplication,
//! windowed and fixed-base-comb exponentiation and binary-GCD inversion
//! modulo one odd modulus over `u64` limbs without division. [`modular`]
//! offers both behind one-shot functions that are total over moduli.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod big;
pub mod modular;
pub mod montgomery;
pub mod prime;

pub use big::Big;
pub use modular::{mod_add, mod_inv, mod_mul, mod_pow, mod_sub};
pub use montgomery::{Columns, Comb, Montgomery, Table, Windows};
pub use prime::{gen_prime, gen_safe_prime, is_prime};
