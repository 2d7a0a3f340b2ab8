//! Property: for finite tensors, fingerprint equality coincides with
//! observable (`PartialEq`) equality in both directions — including the
//! `-0.0` vs `+0.0` states that compare equal but differ bitwise.

use neurograd::{CsrMatrix, Matrix};
use proptest::prelude::*;

/// Decodes a small integer into a finite value with `±0.0`
/// over-represented, so the canonicalisation actually gets exercised.
fn decode(code: u8) -> f32 {
    match code {
        0..=2 => 0.0,
        3..=5 => -0.0,
        c => (f32::from(c) - 9.0) * 0.25,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_fingerprint_matches_observable_equality(
        a in collection::vec(0u8..12, 6),
        b in collection::vec(0u8..12, 6),
    ) {
        let to_matrix = |v: &[u8]| {
            Matrix::from_vec(2, 3, v.iter().map(|&c| decode(c)).collect()).unwrap()
        };
        let (ma, mb) = (to_matrix(&a), to_matrix(&b));
        prop_assert_eq!(
            ma == mb,
            ma.fingerprint() == mb.fingerprint(),
            "PartialEq and fingerprint equality must coincide for finite tensors"
        );
    }

    #[test]
    fn csr_fingerprint_matches_observable_equality(
        a in collection::vec(0u8..12, 4),
        b in collection::vec(0u8..12, 4),
    ) {
        let build = |v: &[u8]| {
            CsrMatrix::from_triplets(
                2,
                2,
                &[
                    (0, 0, decode(v[0])),
                    (0, 1, decode(v[1])),
                    (1, 0, decode(v[2])),
                    (1, 1, decode(v[3])),
                ],
            )
        };
        let (sa, sb) = (build(&a), build(&b));
        prop_assert_eq!(sa == sb, sa.content_fingerprint() == sb.content_fingerprint());
    }
}
