//! Property-based pins for the SIMD lane backend: every lane engine
//! (vector, portable, scalar emulation) produces the **same float bits**,
//! and every SIMD-dispatching kernel matches its scalar lane-emulation
//! twin bitwise — at odd shapes (remainder lanes, 1-row/1-col, empty
//! sparse rows) and at any thread count. Together with
//! `parallel_kernels.rs` (kernels vs the serial seed reference) this
//! closes the contract: results are invariant to thread count AND to the
//! SIMD toggle.
//!
//! Engine-level checks compare [`LaneEngine`] methods directly instead of
//! flipping the global toggle, so concurrently-running tests cannot race
//! on it; the one toggle test that does flip it is safe regardless,
//! because all engines are bitwise equal by construction.

use neurograd::kernels::{self, reference, Rows};
use neurograd::simd::{self, LaneEngine};
use neurograd::{pool, CsrMatrix, Matrix};
use proptest::prelude::*;

fn matrix_from(rows: usize, cols: usize, seed: &[f32]) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let s = seed[i % seed.len().max(1)];
            if i % 17 == 0 {
                0.0
            } else {
                s * (1.0 + (i % 7) as f32 * 0.25)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized")
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The engines under comparison: the scalar lane emulation, the portable
/// fixed-width path, and whatever `active()` resolves to on this host
/// (the vector ISA when available — exercising e.g. the AVX2 clone
/// without ever invoking it on a host that lacks the feature).
fn engines() -> Vec<LaneEngine> {
    vec![LaneEngine::Scalar, LaneEngine::Portable, simd::active()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// axpy and dot agree bitwise across every lane engine at lengths
    /// that cover full chunks, remainder lanes and the empty slice.
    #[test]
    fn lane_engines_agree_bitwise(
        n in 0usize..70,
        scale in -2.0f32..2.0,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..16),
    ) {
        let a: Vec<f32> = (0..n).map(|i| seed[i % seed.len()] * (1.0 + (i % 5) as f32)).collect();
        let b: Vec<f32> = (0..n).map(|i| seed[(i + 3) % seed.len()] - 0.5).collect();
        let engs = engines();
        let dots: Vec<f32> = engs.iter().map(|e| e.dot(&a, &b)).collect();
        for d in &dots[1..] {
            prop_assert_eq!(d.to_bits(), dots[0].to_bits(), "dot diverged across engines");
        }
        let accs: Vec<Vec<f32>> = engs
            .iter()
            .map(|e| {
                let mut acc = b.clone();
                e.axpy(&mut acc, scale, &a);
                acc
            })
            .collect();
        for acc in &accs[1..] {
            prop_assert!(bitwise_eq(acc, &accs[0]), "axpy diverged across engines");
        }
    }

    /// Dense kernels at deliberately awkward shapes — 1-row, 1-col and
    /// non-multiple-of-lane-width columns — match the scalar reference
    /// twin bitwise at every thread count.
    #[test]
    fn dense_kernels_match_reference_at_odd_shapes(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..20,
        threads in 1usize..5,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..16),
    ) {
        pool::configure_threads(threads);
        let a = matrix_from(m, k, &seed);
        let b = matrix_from(k, n, &seed);
        prop_assert!(bitwise_eq(a.matmul(&b).as_slice(), reference::matmul(&a, &b).as_slice()));
        let at = matrix_from(k, m, &seed);
        prop_assert!(bitwise_eq(
            at.matmul_tn(&b).as_slice(),
            reference::matmul_tn(&at, &b).as_slice()
        ));
        let bt = matrix_from(n, k, &seed);
        prop_assert!(bitwise_eq(
            a.matmul_nt(&bt).as_slice(),
            reference::matmul_nt(&a, &bt).as_slice()
        ));
    }

    /// The masked row-subset kernels (incremental-forward splice path)
    /// write listed rows bitwise equal to the full-matrix kernels and
    /// leave unlisted rows untouched.
    #[test]
    fn row_subset_kernels_match_full_kernels(
        m in 2usize..12,
        k in 1usize..10,
        n in 1usize..18,
        threads in 1usize..5,
        row_mask in proptest::collection::vec(0usize..2, 2..12),
        seed in proptest::collection::vec(-2.0f32..2.0, 1..16),
    ) {
        pool::configure_threads(threads);
        let rows: Vec<usize> = (0..m).filter(|&r| row_mask[r % row_mask.len()] == 1).collect();
        let a = matrix_from(m, k, &seed);
        let w = matrix_from(k, n, &seed);
        let bias: Vec<f32> = (0..n).map(|j| seed[j % seed.len()] * 0.5).collect();

        let mut full = vec![0.0f32; m * n];
        kernels::matmul_into(&a, &w, &mut full);

        let mut fused_full = vec![0.0f32; m * n];
        kernels::linear_act_rows_into(&a, &w, &bias, Rows::All, &mut fused_full, |v| v.max(0.0));
        let mut fused_rows = vec![-7.0f32; m * n];
        let listed = Rows::List(&rows);
        kernels::linear_act_rows_into(&a, &w, &bias, listed, &mut fused_rows, |v| v.max(0.0));
        for r in 0..m {
            let want =
                if rows.contains(&r) { fused_full[r * n..(r + 1) * n].to_vec() } else { vec![-7.0; n] };
            prop_assert!(bitwise_eq(&fused_rows[r * n..(r + 1) * n], &want), "linear_act row {}", r);
        }
        // the fused kernel == unfused matmul → +bias → act, bitwise
        for (j, v) in fused_full.iter().enumerate() {
            let want = (full[j] + bias[j % n]).max(0.0);
            prop_assert_eq!(v.to_bits(), want.to_bits());
        }
    }

    /// Sparse kernels with structurally empty rows (and the all-empty
    /// matrix) match the reference bitwise; empty rows come out as exact
    /// `+0.0` rows.
    #[test]
    fn spmm_with_empty_rows_matches_reference(
        rows in 1usize..24,
        cols in 1usize..24,
        n in 1usize..12,
        threads in 1usize..5,
        entries in proptest::collection::vec((0usize..24, 0usize..24, -3.0f32..3.0), 0..48),
        seed in proptest::collection::vec(-2.0f32..2.0, 1..16),
    ) {
        pool::configure_threads(threads);
        // half the rows are forced empty: triplets only land on even rows
        let triplets: Vec<(usize, usize, f32)> = entries
            .iter()
            .map(|&(r, c, v)| ((r % rows) & !1usize, c % cols, v))
            .collect();
        let s = CsrMatrix::from_triplets(rows, cols, &triplets);
        let x = matrix_from(cols, n, &seed);
        let got = s.spmm(&x);
        let want = reference::spmm(&s, &x);
        prop_assert!(bitwise_eq(got.as_slice(), want.as_slice()));
        for r in 0..rows {
            if s.row_entries(r).next().is_none() {
                for v in &got.as_slice()[r * n..(r + 1) * n] {
                    prop_assert_eq!(v.to_bits(), 0.0f32.to_bits(), "empty row must be +0.0");
                }
            }
        }
        let mut masked = vec![0.0f32; rows * n];
        let listed: Vec<usize> = (0..rows).step_by(2).collect();
        kernels::spmm_rows_into(&s, &x, Rows::List(&listed), &mut masked);
        for &r in &listed {
            prop_assert!(bitwise_eq(&masked[r * n..(r + 1) * n], &want.as_slice()[r * n..(r + 1) * n]));
        }
    }
}

/// Flipping the global SIMD toggle routes through the scalar emulation
/// and still produces the same bits as the vector path.
#[test]
fn global_toggle_is_bitwise_invisible() {
    let a = matrix_from(9, 11, &[0.7, -1.3, 2.1]);
    let b = matrix_from(11, 13, &[0.3, 1.9, -0.8]);
    let on = a.matmul(&b);
    simd::set_enabled(false);
    assert!(matches!(simd::active(), LaneEngine::Scalar));
    let off = a.matmul(&b);
    simd::set_enabled(true);
    assert!(bitwise_eq(on.as_slice(), off.as_slice()));
}

#[test]
fn isa_report_names_the_lane_width() {
    let report = simd::isa_report();
    assert!(report.contains("lanes=8"), "unexpected report: {report}");
}
