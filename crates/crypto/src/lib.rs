//! Cryptographic primitives for the Price $heriff's privacy-preserving
//! *k*-means protocol (paper §3.8 and Appendix §10.4).
//!
//! The paper builds on the inner-product functional encryption scheme of
//! Abdalla et al. (PKC'15), itself an additively homomorphic variant of
//! ElGamal where messages are encrypted "at the exponent". This crate
//! implements, from the ground up:
//!
//! * [`group`] — DDH group parameters: safe primes `p = 2q + 1` with a
//!   generator of the order-`q` subgroup, from a 64-bit test group up to the
//!   RFC 3526 2048-bit MODP group.
//! * [`elgamal`] — vector ElGamal at the exponent: `Enc_h(c) = (g^r,
//!   (h_i^r · g^{c_i})_i)`, with component-wise homomorphic addition and
//!   exponent re-randomization (ciphertext-wide powering).
//! * [`dlog`] — baby-step/giant-step discrete logarithm for recovering
//!   small plaintexts from `g^m`.
//! * [`ipfe`] — function keys `f = Σ x_i s_i` and inner-product evaluation
//!   `Π β_i^{s_i} / α^f = g^{c·s}`, for one ciphertext against many `s`.
//! * [`protocol`] — the two-party blinded distance protocol between the
//!   Aggregator (ciphertext holder) and the Coordinator (key and centroid
//!   holder), plus the centroid-update aggregation of Fig. 18.
//!
//! Security model, faithful to the paper: Coordinator and Aggregator are
//! honest-but-curious and non-colluding. The concrete blinding instantiation
//! (component-wise powering by a random exponent ρ, unblinding by ρ⁻¹ mod q)
//! is our own — the paper defers the mechanism to its citation — and is
//! discussed in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dlog;
pub mod elgamal;
pub mod group;
pub mod ipfe;
pub mod protocol;

pub use dlog::DlogTable;
pub use elgamal::{Ciphertext, PublicKey, SecretKey, StoredCiphertext};
pub use group::GroupParams;
pub use ipfe::{derive_function_key, eval_inner_product, eval_inner_products};
