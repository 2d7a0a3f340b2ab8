//! Property-based determinism checks for the parallel kernel backend:
//! every pooled kernel must be **bitwise identical** to the serial
//! reference (`neurograd::kernels::reference`, loop-for-loop the seed
//! implementation) at any thread count.
//!
//! Shapes are drawn both below and above the parallel-dispatch thresholds
//! so the chunked paths are genuinely exercised; the per-case thread count
//! reconfigures the process pool on the fly — which the pool supports
//! while in use.

use neurograd::kernels::{self, reference, Rows};
use neurograd::{pool, CsrMatrix, Matrix, Tape};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn matrix_from(rows: usize, cols: usize, seed: &[f32]) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let s = seed[i % seed.len().max(1)];
            // spread the seed values deterministically across the matrix,
            // with exact zeros sprinkled in to hit the skip-zero branches
            if i % 17 == 0 {
                0.0
            } else {
                s * (1.0 + (i % 7) as f32 * 0.25)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized")
}

fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled matmul (all three transpose variants) == serial reference.
    #[test]
    fn matmul_bitwise_matches_serial_at_any_thread_count(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        threads in 1usize..5,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..16),
    ) {
        pool::configure_threads(threads);
        let a = matrix_from(m, k, &seed);
        let b = matrix_from(k, n, &seed);
        prop_assert!(bitwise_eq(&a.matmul(&b), &reference::matmul(&a, &b)));
        let at = matrix_from(k, m, &seed);
        prop_assert!(bitwise_eq(&at.matmul_tn(&b), &reference::matmul_tn(&at, &b)));
        let bt = matrix_from(n, k, &seed);
        prop_assert!(bitwise_eq(&a.matmul_nt(&bt), &reference::matmul_nt(&a, &bt)));
    }

    /// Pooled spmm and transpose-cached spmm_t == serial references
    /// (including the original scatter formulation of spmm_t).
    #[test]
    fn spmm_bitwise_matches_serial_at_any_thread_count(
        rows in 1usize..64,
        cols in 1usize..64,
        n in 1usize..72,
        threads in 1usize..5,
        entries in proptest::collection::vec((0usize..64, 0usize..64, -3.0f32..3.0), 0..256),
        seed in proptest::collection::vec(-2.0f32..2.0, 1..16),
    ) {
        pool::configure_threads(threads);
        let triplets: Vec<(usize, usize, f32)> =
            entries.iter().map(|&(r, c, v)| (r % rows, c % cols, v)).collect();
        let s = CsrMatrix::from_triplets(rows, cols, &triplets);
        let x = matrix_from(cols, n, &seed);
        prop_assert!(bitwise_eq(&s.spmm(&x), &reference::spmm(&s, &x)));
        let xt = matrix_from(rows, n, &seed);
        let scatter = reference::spmm_t_scatter(&s, &xt);
        prop_assert!(bitwise_eq(&s.spmm_t(&xt), &scatter), "cold transpose cache");
        prop_assert!(bitwise_eq(&s.spmm_t(&xt), &scatter), "warm transpose cache");
    }

    /// Pooled elementwise kernels == std-iterator semantics.
    #[test]
    fn elementwise_bitwise_matches_serial_at_any_thread_count(
        rows in 1usize..96,
        cols in 1usize..96,
        threads in 1usize..5,
        seed in proptest::collection::vec(-2.0f32..2.0, 1..16),
    ) {
        pool::configure_threads(threads);
        let a = matrix_from(rows, cols, &seed);
        let b = matrix_from(rows, cols, &seed[..seed.len().max(1) / 2 + 1]);
        let mapped = a.map(|v| v * 1.5 - 0.25);
        for (i, v) in mapped.as_slice().iter().enumerate() {
            prop_assert!(v.to_bits() == (a.as_slice()[i] * 1.5 - 0.25).to_bits());
        }
        let zipped = a.zip_map(&b, |x, y| x * y + 0.5);
        for (i, v) in zipped.as_slice().iter().enumerate() {
            let want = a.as_slice()[i] * b.as_slice()[i] + 0.5;
            prop_assert!(v.to_bits() == want.to_bits());
        }
    }

    /// A full tape forward + backward is bitwise thread-count-invariant:
    /// values and input gradients at N threads equal the 1-thread run.
    #[test]
    fn tape_forward_backward_is_thread_count_invariant(
        rows in 2usize..40,
        hidden in 2usize..40,
        threads in 2usize..5,
        seed in proptest::collection::vec(-1.5f32..1.5, 1..16),
        entries in proptest::collection::vec((0usize..40, 0usize..40, -1.0f32..1.0), 1..64),
    ) {
        let x0 = matrix_from(rows, hidden, &seed);
        let w0 = matrix_from(hidden, hidden, &seed);
        let triplets: Vec<(usize, usize, f32)> =
            entries.iter().map(|&(r, c, v)| (r % rows, c % rows, v)).collect();
        let s = std::sync::Arc::new(CsrMatrix::from_triplets(rows, rows, &triplets));
        let run = || {
            let mut tape = Tape::new();
            let x = tape.leaf_grad(x0.clone());
            let w = tape.leaf_grad(w0.clone());
            let h = tape.matmul(x, w);
            let h = tape.relu(h);
            let m = tape.spmm(std::sync::Arc::clone(&s), h);
            let m = tape.sigmoid(m);
            let loss = tape.mean_all(m);
            tape.backward(loss);
            (
                tape.value(loss).item(),
                tape.grad(x).cloned().unwrap(),
                tape.grad(w).cloned().unwrap(),
            )
        };
        pool::configure_threads(1);
        let (l1, gx1, gw1) = run();
        pool::configure_threads(threads);
        let (ln, gxn, gwn) = run();
        prop_assert!(l1.to_bits() == ln.to_bits());
        prop_assert!(bitwise_eq(&gx1, &gxn));
        prop_assert!(bitwise_eq(&gw1, &gwn));
    }
}

/// The row kernels refuse a bad `Rows::List` (a duplicate, an unsorted
/// list, a row past the end) and a buffer that is not whole rows before
/// they write anything, in release builds too. The lists are long enough
/// to take the pooled path at 2 threads, where a duplicate would let two
/// chunks write one row at once and an unchecked row index would let a
/// chunk write outside the buffer.
#[test]
fn row_kernels_refuse_bad_row_lists() {
    pool::configure_threads(2);
    // 4096 multiply-adds per row, so 8 listed rows make two pool chunks
    const ROWS: usize = 10;
    const ROW_LEN: usize = 4096;
    let bad_lists: [(&str, Vec<usize>); 4] = [
        ("duplicate", vec![0, 1, 2, 3, 3, 4, 5, 6]),
        ("unsorted", vec![1, 0, 2, 3, 4, 5, 6, 7]),
        ("past-the-end", vec![2, 3, 4, 5, 6, 7, 8, ROWS]),
        ("unsorted past-the-end", vec![100_000, 1, 2, 3, 4, 5, 6, 7]),
    ];
    let diagonal: Vec<(usize, usize, f32)> = (0..ROWS).map(|r| (r, r, 2.0)).collect();
    let s = CsrMatrix::from_triplets(ROWS, ROWS, &diagonal);
    let x = matrix_from(ROWS, ROW_LEN, &[0.5, -1.0, 1.5]);
    for (what, list) in &bad_lists {
        let mut data = vec![0.0f32; ROWS * ROW_LEN];
        let mapped = catch_unwind(AssertUnwindSafe(|| {
            kernels::map_rows_inplace(&mut data, Rows::List(list), ROW_LEN, |v| v + 1.0);
        }));
        assert!(mapped.is_err(), "map_rows_inplace accepted the {what} list {list:?}");
        let mut out = vec![0.0f32; ROWS * ROW_LEN];
        let spmm = catch_unwind(AssertUnwindSafe(|| {
            kernels::spmm_rows_into(&s, &x, Rows::List(list), &mut out);
        }));
        assert!(spmm.is_err(), "spmm_rows_into accepted the {what} list {list:?}");
    }
    let mut ragged = vec![0.0f32; ROWS * ROW_LEN + 1];
    let mapped = catch_unwind(AssertUnwindSafe(|| {
        kernels::map_rows_inplace(&mut ragged, Rows::All, ROW_LEN, |v| v + 1.0);
    }));
    assert!(mapped.is_err(), "map_rows_inplace accepted a buffer that is not whole rows");

    // a good list of the same length runs and writes exactly its rows
    let good: Vec<usize> = (1..ROWS - 1).collect();
    let mut data = vec![0.0f32; ROWS * ROW_LEN];
    kernels::map_rows_inplace(&mut data, Rows::List(&good), ROW_LEN, |v| v + 1.0);
    for (r, row) in data.chunks(ROW_LEN).enumerate() {
        let want = if good.contains(&r) { 1.0 } else { 0.0 };
        assert!(row.iter().all(|&v| v == want), "row {r} of the good list run");
    }
}
