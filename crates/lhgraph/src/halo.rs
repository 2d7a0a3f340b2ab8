//! Receptive-field halo computation over operator sparsity.
//!
//! The LHNN forward is a fixed stack of sparse aggregations (`H`, `D⁻¹H`,
//! `B⁻¹Hᵀ`, `P⁻¹A`) interleaved with row-local dense layers, so a change
//! confined to a set of dirty rows can only influence rows reachable
//! through the *sparsity pattern* of those operators — one hop per
//! aggregation, ≤5 hops for the whole network (2 HyperMP + 3 LatticeMP
//! layers). This module provides the primitive set algebra for tracking
//! that influence exactly:
//!
//! * [`dilate`] — one structural hop in push form: the union of column
//!   indices of the listed rows of a CSR matrix. For an aggregation
//!   `y = S·x`, the rows of `y` that can read a dirty row of `x` are
//!   `{r : row r of S hits a dirty column}` — exactly `dilate(Sᵀ, dirty)`
//!   over the operator's own transpose, never a structurally dual sibling,
//!   because ablated or sampled operator sets replace matrices
//!   asymmetrically and the siblings stop matching. The splice in
//!   `lhnn::program` finds the same set in pull form, scanning the rows of
//!   `S` against a bitmap of the dirty columns, so it never builds `Sᵀ`;
//!   `dilate` stays the reference its tests compare against.
//! * [`union_sorted`] — merge two sorted dirty sets.
//!
//! All row lists are sorted and duplicate-free, the form the masked
//! row-subset kernels in `neurograd::kernels` require. Dilation at a
//! lattice boundary clips naturally: an edge or corner G-cell simply has
//! fewer lattice neighbours, so the halo never leaves the grid.

use neurograd::CsrMatrix;

/// One structural hop: the sorted, duplicate-free union of the column
/// indices of the listed rows of `m`.
///
/// For a sparse aggregation `y = S·x` with dirty input rows `d`, the
/// output rows whose value can change are exactly
/// `dilate(Sᵀ, d) ∪ changed_rows(S)` — pass `S.transpose_cached()` as `m`.
///
/// # Panics
///
/// Panics if a listed row is out of bounds for `m`.
pub fn dilate(m: &CsrMatrix, rows: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(rows.len().saturating_mul(4));
    for &r in rows {
        assert!(r < m.rows(), "dilate: row {} out of bounds for {}x{}", r, m.rows(), m.cols());
        out.extend(m.row_entries(r).map(|(c, _)| c));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Merges two sorted, duplicate-free index lists into one.
pub fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sorts and deduplicates an arbitrary index list into canonical form.
pub fn canonicalize(mut rows: Vec<usize>) -> Vec<usize> {
    rows.sort_unstable();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurograd::CsrMatrix;

    fn chain(n: usize) -> CsrMatrix {
        // path graph adjacency: i ~ i±1
        let mut t = Vec::new();
        for i in 0..n {
            if i > 0 {
                t.push((i, i - 1, 1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, 1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn dilate_is_one_hop() {
        let m = chain(6);
        assert_eq!(dilate(&m, &[2]), vec![1, 3]);
        assert_eq!(dilate(&m, &[0]), vec![1], "boundary row clips");
        assert_eq!(dilate(&m, &[5]), vec![4], "boundary row clips");
        assert_eq!(dilate(&m, &[1, 4]), vec![0, 2, 3, 5]);
        assert!(dilate(&m, &[]).is_empty());
    }

    #[test]
    fn union_sorted_merges() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[4]), vec![4]);
        assert_eq!(union_sorted(&[4], &[]), vec![4]);
        let same = [0, 9];
        assert_eq!(union_sorted(&same, &same), vec![0, 9]);
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        assert_eq!(canonicalize(vec![5, 1, 5, 0, 1]), vec![0, 1, 5]);
    }
}
