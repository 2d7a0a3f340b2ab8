//! Content fingerprints for dense and sparse tensors (the sparse digest is
//! [`crate::CsrMatrix::content_fingerprint`], built from the same hasher).
//!
//! The serving layer caches predictions keyed by *what went into the
//! forward pass*: the model weights, the graph operators and the input
//! features. [`Fnv64`] is a seedless FNV-1a 64-bit hasher over raw bytes —
//! deterministic across runs and platforms of the same endianness, unlike
//! `std::hash::DefaultHasher` whose keys are randomised per process.
//!
//! Floats are hashed by a *canonicalised* IEEE-754 bit pattern
//! (`canonical_f32_bits`): `-0.0` folds onto `+0.0` and every NaN folds
//! onto the single quiet-NaN pattern. That makes the fingerprint a function
//! of the tensor's *observable* value — two tensors that compare equal
//! under `Matrix`/`CsrMatrix` `PartialEq` (where `-0.0 == 0.0`) always
//! fingerprint equal, so a prediction cache keyed on fingerprints never
//! misses between observably identical states. NaN is the one asymmetry:
//! `NaN != NaN` under `PartialEq`, so a NaN-bearing tensor is never
//! *observably* equal to anything, yet all NaN payloads hash alike. That
//! is a deliberate aliasing: two NaN states differing only in payload
//! bits share a cache key even though a direct forward on each could
//! differ bitwise — every such state is already garbage (NaN poisons the
//! whole forward), so no consumer can tell the difference, and
//! payload-sensitive keys would only multiply useless cache entries.
//!
//! # Examples
//!
//! ```
//! use neurograd::{Fnv64, Matrix};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0]]);
//! let b = Matrix::from_rows(&[&[1.0, 2.0]]);
//! assert_eq!(a.fingerprint(), b.fingerprint());
//! assert_ne!(a.fingerprint(), a.transpose().fingerprint()); // shape matters
//!
//! let mut h = Fnv64::new();
//! h.write_u64(7);
//! let once = h.finish();
//! assert_ne!(once, Fnv64::new().finish());
//! ```

use crate::matrix::Matrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The canonical bit pattern a float hashes by.
///
/// * `-0.0` → the bits of `+0.0` (the two compare equal under `==`, and
///   therefore under every tensor `PartialEq` in the workspace — hashing
///   them apart would split cache keys between observably equal states);
/// * any NaN → the standard quiet-NaN pattern `0x7fc0_0000` (NaN payloads
///   are indistinguishable to every consumer of a tensor; a NaN state is
///   unusable regardless of payload, so the fingerprint collapses them);
/// * every other value → its exact [`f32::to_bits`] pattern.
#[inline]
pub(crate) fn canonical_f32_bits(v: f32) -> u32 {
    if v.is_nan() {
        0x7fc0_0000
    } else if v == 0.0 {
        0 // +0.0 and -0.0 share one canonical pattern
    } else {
        v.to_bits()
    }
}

/// A 64-bit FNV-1a streaming hasher.
///
/// Not cryptographic — collisions are possible in principle but are
/// vanishingly unlikely for the tensor sizes involved, and a collision
/// costs only a wrong cache hit in trusted-input settings. Callers that
/// serve untrusted inputs should treat the cache as advisory.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as one FNV-1a step (word-wise, not byte-wise: ~8×
    /// fewer multiplies on tensor-sized inputs, same determinism).
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a `usize` as `u64` so fingerprints agree across pointer
    /// widths.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs one `f32` by its canonical bit pattern (see
    /// [`canonical_f32_bits`]: `-0.0` folds onto `+0.0`, NaNs collapse).
    pub(crate) fn write_f32(&mut self, v: f32) {
        self.write_u64(u64::from(canonical_f32_bits(v)));
    }

    /// Absorbs an `f32` slice by canonical bit pattern, one word per step.
    pub(crate) fn write_f32s(&mut self, values: &[f32]) {
        for &v in values {
            self.write_f32(v);
        }
    }

    /// Absorbs a string (length-prefixed, so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Matrix {
    /// Hashes shape and contents into `h`.
    pub fn hash_into(&self, h: &mut Fnv64) {
        h.write_usize(self.rows());
        h.write_usize(self.cols());
        h.write_f32s(self.as_slice());
    }

    /// A content fingerprint: equal iff shape and every element's
    /// *canonical* bit pattern are equal — for finite tensors, exactly iff
    /// the matrices compare equal under `PartialEq`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        self.hash_into(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn matrix_fingerprint_is_content_sensitive() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.as_mut_slice()[3] += 1e-4;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// Regression (serve-layer bug sweep): for finite tensors, fingerprint
    /// equality must coincide with observable (`PartialEq`) equality in
    /// BOTH directions. `-0.0 == 0.0` under `PartialEq`, so the two must
    /// share a fingerprint — a mismatch made equal placement states miss
    /// the prediction cache.
    #[test]
    fn negative_zero_fingerprints_like_positive_zero() {
        let zero = Matrix::from_rows(&[&[0.0f32, 1.5]]);
        let neg_zero = Matrix::from_rows(&[&[-0.0f32, 1.5]]);
        assert_eq!(zero, neg_zero, "PartialEq treats -0.0 and 0.0 as equal");
        assert_eq!(zero.fingerprint(), neg_zero.fingerprint(), "fingerprint must agree");

        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 1, 2.0)]);
        let sn = CsrMatrix::from_triplets(2, 2, &[(0, 0, -0.0), (1, 1, 2.0)]);
        assert_eq!(s, sn);
        assert_eq!(s.content_fingerprint(), sn.content_fingerprint());

        // ...and the other direction: observably different values keep
        // different fingerprints.
        let other = Matrix::from_rows(&[&[f32::MIN_POSITIVE, 1.5]]);
        assert_ne!(zero, other);
        assert_ne!(zero.fingerprint(), other.fingerprint());
    }

    /// NaN policy: payload bits collapse onto one canonical pattern. A NaN
    /// state is never observably equal to anything (`NaN != NaN`), so the
    /// fingerprint does not try to distinguish the payloads either.
    #[test]
    fn nan_payloads_collapse() {
        assert_eq!(canonical_f32_bits(f32::NAN), 0x7fc0_0000);
        assert_eq!(canonical_f32_bits(f32::from_bits(0x7fc0_dead)), 0x7fc0_0000);
        assert_eq!(canonical_f32_bits(-0.0), 0);
        assert_eq!(canonical_f32_bits(1.5), 1.5f32.to_bits());
        let a = Matrix::from_rows(&[&[f32::NAN]]);
        let b = Matrix::from_rows(&[&[f32::from_bits(0x7fc0_0001)]]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, b, "NaN keeps PartialEq irreflexive; only the hash collapses");
    }

    #[test]
    fn matrix_fingerprint_distinguishes_shape() {
        let flat = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let tall = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_ne!(flat.fingerprint(), tall.fingerprint());
    }

    #[test]
    fn csr_fingerprint_tracks_pattern_and_values() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let same = CsrMatrix::from_triplets(2, 2, &[(1, 1, 2.0), (0, 0, 1.0)]);
        assert_eq!(a.content_fingerprint(), same.content_fingerprint());
        let moved = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 1, 2.0)]);
        assert_ne!(a.content_fingerprint(), moved.content_fingerprint());
        let rescaled = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.5), (1, 1, 2.0)]);
        assert_ne!(a.content_fingerprint(), rescaled.content_fingerprint());
    }

    #[test]
    fn empty_and_zero_distinguished() {
        let empty = CsrMatrix::empty(2, 2);
        let explicit_zero = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.0)]);
        assert_ne!(empty.content_fingerprint(), explicit_zero.content_fingerprint());
    }

    #[test]
    fn str_hashing_is_length_prefixed() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
