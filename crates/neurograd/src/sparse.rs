//! Compressed sparse row (CSR) matrices for graph aggregation.
//!
//! The LHNN message-passing operators (`B⁻¹Hᵀ`, `D⁻¹H`, `P⁻¹A` from the
//! paper) are all sparse row-stochastic (or sum) aggregation matrices
//! applied on the left of a dense feature block. [`CsrMatrix`] stores them
//! and [`CsrMatrix::spmm`] performs `Y = S · X`.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::kernels;
use crate::matrix::Matrix;

/// A sparse matrix in CSR format.
///
/// # Examples
///
/// ```
/// use neurograd::{CsrMatrix, Matrix};
///
/// // 2x3 sparse: [[1, 0, 2], [0, 3, 0]]
/// let s = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
/// let x = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
/// let y = s.spmm(&x);
/// assert_eq!(y.as_slice(), &[3.0, 3.0]);
/// ```
#[derive(Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, length `nnz`.
    indices: Vec<usize>,
    /// Values, length `nnz`.
    values: Vec<f32>,
    /// Lazily computed explicit transpose, shared by clones.
    ///
    /// Backward passes apply `Sᵀ` once per training step; caching the
    /// transpose turns that from an O(nnz log nnz) rebuild per step into a
    /// one-time cost per operator. Not part of equality, fingerprints or
    /// the serialised form.
    transpose_cache: OnceLock<Arc<CsrMatrix>>,
    /// Lazily computed content digest (see
    /// [`CsrMatrix::content_fingerprint`]), shared by clones. A `CsrMatrix`
    /// is immutable after construction, so the digest can never go stale;
    /// like the transpose cache it is invisible to equality.
    fingerprint_cache: OnceLock<u64>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality only — a warmed transpose cache is invisible.
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate `(row, col)` entries are summed. Triplets need not be
    /// sorted.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds for {rows}x{cols}");
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            if let (Some(&last_c), true) = (indices.last(), indptr[r + 1] > 0) {
                // Merge duplicate within the same (already-started) row.
                if last_c == c
                    && indptr[r + 1] == indices.len()
                    && row_started(&indptr, r, indices.len())
                {
                    *values.last_mut().expect("values non-empty when indices non-empty") += v;
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
            indptr[r + 1] = indices.len();
        }
        // Fill gaps: rows with no entries keep previous pointer.
        for r in 0..rows {
            if indptr[r + 1] < indptr[r] {
                indptr[r + 1] = indptr[r];
            }
            indptr[r + 1] = indptr[r + 1].max(indptr[r]);
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
            fingerprint_cache: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Block-diagonal stack of the given matrices: block `i` occupies the
    /// row range `Σ_{j<i} rows_j ..` and column range `Σ_{j<i} cols_j ..`,
    /// with each block's entries kept in their original per-row order.
    ///
    /// Row `r` of block `i` therefore sees *exactly* the entries of that
    /// block's row `r` (at shifted column indices, in the same order), so
    /// the row-partitioned spmm kernels produce per-block output rows
    /// bitwise identical to running each block alone.
    pub fn block_diag(blocks: &[&CsrMatrix]) -> Self {
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut col_off = 0;
        let mut nnz_off = 0;
        for b in blocks {
            for r in 0..b.rows {
                indptr.push(nnz_off + b.indptr[r + 1]);
            }
            indices.extend(b.indices.iter().map(|&c| c + col_off));
            values.extend_from_slice(&b.values);
            col_off += b.cols;
            nnz_off += b.nnz();
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
            fingerprint_cache: OnceLock::new(),
        }
    }

    /// Iterator over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.indices[self.indptr[r]..self.indptr[r + 1]]
                .iter()
                .zip(&self.values[self.indptr[r]..self.indptr[r + 1]])
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// The `(column, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    /// Raw `(column indices, values)` slices of row `r`, in stored
    /// order — the zero-overhead form of [`Self::row_entries`] for the
    /// SIMD row kernels.
    pub fn row_slices(&self, r: usize) -> (&[usize], &[f32]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// `(column, value)` pairs of row `r`, in stored order.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.indices[self.indptr[r]..self.indptr[r + 1]]
            .iter()
            .zip(&self.values[self.indptr[r]..self.indptr[r + 1]])
            .map(|(&c, &v)| (c, v))
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Sparse × dense product `Y = self · X`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != x.rows`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            x.rows(),
            "spmm shape mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            x.rows(),
            x.cols()
        );
        let mut out = Matrix::zeros(self.rows, x.cols());
        kernels::spmm_into(self, x, out.as_mut_slice());
        out
    }

    /// Transposed sparse × dense product `Y = selfᵀ · X`.
    ///
    /// Computed as `spmm` of the cached explicit transpose (see
    /// [`CsrMatrix::transpose_cached`]): row-partitionable over the output
    /// and bitwise identical to the scatter formulation, because CSR
    /// entries are sorted so each output row accumulates its contributions
    /// in the same (ascending source row) order either way.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != x.rows`.
    pub fn spmm_t(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            x.rows(),
            "spmm_t shape mismatch: ({}x{})^T * {}x{}",
            self.rows,
            self.cols,
            x.rows(),
            x.cols()
        );
        self.transpose_cached().spmm(x)
    }

    /// Returns the explicit transpose in CSR form (always rebuilt; use
    /// [`CsrMatrix::transpose_cached`] on hot paths).
    pub fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f32)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// The explicit transpose, computed once per matrix and shared by
    /// clones. Backward passes (`spmm_t` per step) hit the cache after the
    /// first call; [`crate::Tape`] and `GraphOps` rely on this so repeated
    /// training/serving steps stop rebuilding the transpose.
    pub fn transpose_cached(&self) -> &Arc<CsrMatrix> {
        self.transpose_cache.get_or_init(|| Arc::new(self.transpose()))
    }

    /// Whether the transpose cache has been populated (diagnostics).
    pub fn transpose_cache_warm(&self) -> bool {
        self.transpose_cache.get().is_some()
    }

    /// Row-normalises: each non-empty row is scaled to sum to 1.
    ///
    /// This converts an incidence/adjacency matrix into the mean-aggregation
    /// operator the paper writes as `D⁻¹H`, `B⁻¹Hᵀ` or `P⁻¹A`.
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        // the values are about to change: drop the inherited caches
        out.transpose_cache = OnceLock::new();
        out.fingerprint_cache = OnceLock::new();
        for r in 0..out.rows {
            let lo = out.indptr[r];
            let hi = out.indptr[r + 1];
            let s: f32 = out.values[lo..hi].iter().sum();
            if s != 0.0 {
                for v in &mut out.values[lo..hi] {
                    *v /= s;
                }
            }
        }
        out
    }

    /// Per-row sums (the degree vector for a 0/1 matrix).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.values[self.indptr[r]..self.indptr[r + 1]].iter().sum())
            .collect()
    }

    /// Per-column sums (the degree vector of the transpose).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for (_, c, v) in self.iter() {
            sums[c] += v;
        }
        sums
    }

    /// Densifies into a [`Matrix`] (test helper; avoid on large inputs).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }

    /// An empty (all-zero) sparse matrix of the given shape.
    pub fn empty(rows: usize, cols: usize) -> CsrMatrix {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            transpose_cache: OnceLock::new(),
            fingerprint_cache: OnceLock::new(),
        }
    }

    /// Returns a copy with the listed rows' entries replaced, keeping
    /// every other row byte-for-byte identical.
    ///
    /// `replacements` must be sorted by row index without duplicates, and
    /// each replacement's entries must be sorted by column — the same
    /// ordering [`CsrMatrix::from_triplets`] produces — so the result is
    /// indistinguishable from a from-scratch build with the same content.
    /// Unlike `from_triplets` this is a straight O(nnz) copy with no sort:
    /// the structural primitive behind incremental graph updates.
    ///
    /// # Panics
    ///
    /// Panics if `replacements` is unsorted/duplicated, a row or column
    /// index is out of bounds, or a replacement row's columns are unsorted.
    pub fn with_rows_replaced(&self, replacements: &[(usize, Vec<(usize, f32)>)]) -> CsrMatrix {
        for pair in replacements.windows(2) {
            assert!(pair[0].0 < pair[1].0, "replacement rows must be sorted and unique");
        }
        let extra: isize = replacements
            .iter()
            .map(|(r, es)| {
                assert!(*r < self.rows, "replacement row {r} out of bounds for {} rows", self.rows);
                es.len() as isize - self.row_nnz(*r) as isize
            })
            .sum();
        let nnz = (self.nnz() as isize + extra) as usize;
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        let mut next = replacements.iter().peekable();
        for r in 0..self.rows {
            match next.peek() {
                Some((row, entries)) if *row == r => {
                    let mut prev: Option<usize> = None;
                    for &(c, v) in entries {
                        assert!(c < self.cols, "replacement column {c} out of bounds");
                        assert!(
                            prev.map_or(true, |p| p < c),
                            "replacement row {r} columns unsorted"
                        );
                        prev = Some(c);
                        indices.push(c);
                        values.push(v);
                    }
                    next.next();
                }
                _ => {
                    let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
                    indices.extend_from_slice(&self.indices[lo..hi]);
                    values.extend_from_slice(&self.values[lo..hi]);
                }
            }
            indptr.push(indices.len());
        }
        assert!(next.peek().is_none(), "replacement row beyond matrix");
        let out = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
            fingerprint_cache: OnceLock::new(),
        };
        // The digest is a wrapping sum of per-row hashes: with the source
        // digest already memoised, the patched digest follows in
        // O(replaced rows) — swap the shape term and the dirty rows'
        // contributions. Bit-identical to a cold computation on `out`.
        if let Some(&old) = self.fingerprint_cache.get() {
            let mut fp = old
                .wrapping_sub(Self::shape_hash(self.rows, self.cols, self.nnz()))
                .wrapping_add(Self::shape_hash(out.rows, out.cols, out.nnz()));
            for &(r, _) in replacements {
                fp = fp.wrapping_sub(self.row_hash(r)).wrapping_add(out.row_hash(r));
            }
            let _ = out.fingerprint_cache.set(fp);
        }
        out
    }

    /// Returns a copy with the column space widened to `cols`, every
    /// stored entry unchanged. The new columns are implicit zeros, so this
    /// is the O(nnz)-copy primitive behind append-only column growth
    /// (stable G-net column ids): the data does not move, only the shape
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if `cols < self.cols`.
    pub fn with_cols(&self, cols: usize) -> CsrMatrix {
        assert!(cols >= self.cols, "with_cols cannot shrink ({} -> {cols})", self.cols);
        let out = CsrMatrix {
            rows: self.rows,
            cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.clone(),
            transpose_cache: OnceLock::new(),
            fingerprint_cache: OnceLock::new(),
        };
        // Row hashes do not involve the column count, so a warm digest
        // carries over with only the shape term swapped.
        if let Some(&old) = self.fingerprint_cache.get() {
            let fp = old
                .wrapping_sub(Self::shape_hash(self.rows, self.cols, self.nnz()))
                .wrapping_add(Self::shape_hash(out.rows, out.cols, out.nnz()));
            let _ = out.fingerprint_cache.set(fp);
        }
        out
    }

    /// Returns a copy with `extra` empty rows appended at the bottom
    /// (existing rows byte-for-byte identical). Pairs with
    /// [`CsrMatrix::with_cols`]: growing `H` by a column grows `Hᵀ`-shaped
    /// operators by a row.
    pub fn with_rows_appended(&self, extra: usize) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.rows + extra + 1);
        indptr.extend_from_slice(&self.indptr);
        indptr.resize(self.rows + extra + 1, self.nnz());
        let out = CsrMatrix {
            rows: self.rows + extra,
            cols: self.cols,
            indptr,
            indices: self.indices.clone(),
            values: self.values.clone(),
            transpose_cache: OnceLock::new(),
            fingerprint_cache: OnceLock::new(),
        };
        if let Some(&old) = self.fingerprint_cache.get() {
            let mut fp = old
                .wrapping_sub(Self::shape_hash(self.rows, self.cols, self.nnz()))
                .wrapping_add(Self::shape_hash(out.rows, out.cols, out.nnz()));
            for r in self.rows..out.rows {
                fp = fp.wrapping_add(out.row_hash(r));
            }
            let _ = out.fingerprint_cache.set(fp);
        }
        out
    }

    /// The digest contribution of one row: a word-wise [`crate::Fnv64`]
    /// over the row index, its entry count and its `(column,
    /// canonical-value-bits)` pairs (`-0.0` folds onto `+0.0`, NaNs
    /// collapse — see [`crate::fingerprint::canonical_f32_bits`]), so the
    /// digest coincides with observable equality exactly as the streaming
    /// fingerprint does.
    fn row_hash(&self, r: usize) -> u64 {
        let mut h = crate::Fnv64::new();
        h.write_usize(r);
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        h.write_usize(hi - lo);
        for i in lo..hi {
            h.write_usize(self.indices[i]);
            h.write_f32(self.values[i]);
        }
        h.finish()
    }

    /// The shape/size contribution of the content digest.
    fn shape_hash(rows: usize, cols: usize, nnz: usize) -> u64 {
        let mut h = crate::Fnv64::new();
        h.write_usize(rows);
        h.write_usize(cols);
        h.write_usize(nnz);
        h.finish()
    }

    /// A cached content digest: equal iff shape, sparsity pattern and every
    /// value's bit pattern are equal (collisions are possible in principle,
    /// as for any 64-bit hash).
    ///
    /// Defined as a *wrapping sum* of independent per-row hashes (plus a
    /// shape hash), which buys two properties a streaming hash cannot
    /// offer: the digest is memoised per matrix (the matrix is immutable,
    /// so repeated fingerprinting — a serving cache keying every request on
    /// its operators — is O(1) after the first call), and
    /// [`CsrMatrix::with_rows_replaced`] derives the patched matrix's
    /// digest from the source's in O(replaced rows) instead of re-hashing
    /// every entry.
    pub fn content_fingerprint(&self) -> u64 {
        *self.fingerprint_cache.get_or_init(|| {
            let mut fp = Self::shape_hash(self.rows, self.cols, self.nnz());
            for r in 0..self.rows {
                fp = fp.wrapping_add(self.row_hash(r));
            }
            fp
        })
    }

    /// Whether the content digest has been computed (diagnostics).
    #[cfg(test)]
    fn fingerprint_cache_warm(&self) -> bool {
        self.fingerprint_cache.get().is_some()
    }
}

fn row_started(indptr: &[usize], r: usize, current_len: usize) -> bool {
    // A row r is "in progress" if its end pointer has been advanced to the
    // current number of indices.
    indptr[r + 1] == current_len
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CsrMatrix({}x{}, nnz={})", self.rows, self.cols, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [[1, 0, 2], [0, 3, 0], [0, 0, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn triplets_roundtrip_dense() {
        let s = example();
        let d = s.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(2, 2)], 0.0);
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let s = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_dense()[(0, 0)], 3.5);
    }

    #[test]
    fn unsorted_triplets_are_sorted() {
        let s =
            CsrMatrix::from_triplets(2, 2, &[(1, 1, 4.0), (0, 1, 2.0), (1, 0, 3.0), (0, 0, 1.0)]);
        let d = s.to_dense();
        assert_eq!((d[(0, 0)], d[(0, 1)], d[(1, 0)], d[(1, 1)]), (1.0, 2.0, 3.0, 4.0));
    }

    #[test]
    fn block_diag_stacks_rows_cols_and_entries() {
        let a = example();
        let b = CsrMatrix::from_triplets(2, 4, &[(0, 3, 5.0), (1, 0, 6.0)]);
        let d = CsrMatrix::block_diag(&[&a, &b]);
        assert_eq!(d.shape(), (5, 7));
        assert_eq!(d.nnz(), a.nnz() + b.nnz());
        // Block rows see the original entries at shifted columns, same order.
        for r in 0..3 {
            let want: Vec<(usize, f32)> = a.row_entries(r).collect();
            let got: Vec<(usize, f32)> = d.row_entries(r).collect();
            assert_eq!(want, got);
        }
        for r in 0..2 {
            let want: Vec<(usize, f32)> = b.row_entries(r).map(|(c, v)| (c + 3, v)).collect();
            let got: Vec<(usize, f32)> = d.row_entries(3 + r).collect();
            assert_eq!(want, got);
        }
        // A block with an all-empty matrix stays well-formed.
        let empty = CsrMatrix::empty(2, 2);
        let e = CsrMatrix::block_diag(&[&empty, &a]);
        assert_eq!(e.shape(), (5, 5));
        assert_eq!(e.row_entries(0).count(), 0);
        assert_eq!(e.row_entries(2).map(|(c, _)| c).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = example();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = s.spmm(&x);
        let yd = s.to_dense().matmul(&x);
        assert!(y.approx_eq(&yd, 1e-6));
    }

    #[test]
    fn spmm_t_matches_dense_transpose() {
        let s = example();
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = s.spmm_t(&x);
        let yd = s.to_dense().transpose().matmul(&x);
        assert!(y.approx_eq(&yd, 1e-6));
    }

    #[test]
    fn transpose_matches_dense() {
        let s = example();
        assert!(s.transpose().to_dense().approx_eq(&s.to_dense().transpose(), 0.0));
    }

    #[test]
    fn row_normalized_rows_sum_to_one_or_zero() {
        let s = example().row_normalized();
        let sums = s.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-6);
        assert!((sums[1] - 1.0).abs() < 1e-6);
        assert_eq!(sums[2], 0.0);
    }

    #[test]
    fn degree_vectors() {
        let s = example();
        assert_eq!(s.row_sums(), vec![3.0, 3.0, 0.0]);
        assert_eq!(s.col_sums(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn empty_matrix_spmm_is_zero() {
        let s = CsrMatrix::empty(2, 3);
        let x = Matrix::full(3, 2, 5.0);
        let y = s.spmm(&x);
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn iter_yields_all_entries_in_row_order() {
        let s = example();
        let items: Vec<_> = s.iter().collect();
        assert_eq!(items, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
    }

    #[test]
    fn same_column_across_row_boundary_is_not_merged() {
        // (0,2) and (1,2) share a column and sort adjacently; the merge
        // pass must still treat them as distinct entries.
        let s = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (1, 2, 2.0)]);
        assert_eq!(s.nnz(), 2);
        let d = s.to_dense();
        assert_eq!(d[(0, 2)], 1.0);
        assert_eq!(d[(1, 2)], 2.0);
    }

    #[test]
    fn multiple_duplicate_groups_merge_independently() {
        let s = CsrMatrix::from_triplets(
            3,
            3,
            &[(2, 0, 5.0), (0, 1, 1.0), (0, 1, 2.0), (0, 1, 4.0), (2, 0, -1.0), (1, 2, 0.5)],
        );
        assert_eq!(s.nnz(), 3);
        let d = s.to_dense();
        assert_eq!(d[(0, 1)], 7.0);
        assert_eq!(d[(1, 2)], 0.5);
        assert_eq!(d[(2, 0)], 4.0);
    }

    #[test]
    fn duplicates_around_empty_rows_keep_indptr_consistent() {
        // Row 1 is empty; duplicates sit in the first and last rows.
        let s =
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 0, 1.0), (2, 1, 3.0), (2, 1, -3.0)]);
        assert_eq!(s.nnz(), 2);
        let d = s.to_dense();
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(2, 1)], 0.0); // merged to an explicit zero entry
                                    // spmm still works on the merged structure.
        let y = s.spmm(&Matrix::from_rows(&[&[1.0], &[1.0]]));
        assert_eq!(y[(0, 0)], 2.0);
        assert_eq!(y[(1, 0)], 0.0);
        assert_eq!(y[(2, 0)], 0.0);
    }

    #[test]
    fn spmm_t_matches_scatter_reference_bitwise() {
        let s = CsrMatrix::from_triplets(
            4,
            3,
            &[(0, 0, 0.3), (0, 2, -1.1), (1, 1, 2.0), (2, 0, 0.7), (2, 1, 0.2), (3, 2, 5.0)],
        );
        let x = Matrix::from_rows(&[&[1.0, 0.5], &[-2.0, 3.0], &[0.25, 0.75], &[4.0, -4.0]]);
        let scatter = crate::kernels::reference::spmm_t_scatter(&s, &x);
        // cold cache, warm cache and the scatter formulation all agree
        // bitwise (tolerance 0.0)
        assert!(!s.transpose_cache_warm());
        let cold = s.spmm_t(&x);
        assert!(s.transpose_cache_warm(), "spmm_t must warm the transpose cache");
        let warm = s.spmm_t(&x);
        assert!(cold.approx_eq(&scatter, 0.0));
        assert!(warm.approx_eq(&scatter, 0.0));
    }

    #[test]
    fn transpose_cache_is_shared_by_clones_and_equality_ignores_it() {
        let a = example();
        let b = a.clone();
        let _ = a.transpose_cached();
        assert!(a.transpose_cache_warm());
        assert!(!b.transpose_cache_warm(), "clone made before warming stays cold");
        let c = a.clone();
        assert!(c.transpose_cache_warm(), "clone made after warming shares the cache");
        assert_eq!(a, b, "cache state must not affect equality");
    }

    #[test]
    fn row_normalized_drops_stale_transpose_cache() {
        let s = example();
        let _ = s.transpose_cached();
        let n = s.row_normalized();
        assert!(!n.transpose_cache_warm(), "normalised copy must not inherit a stale cache");
        assert!(n.spmm_t(&Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]])).approx_eq(
            &n.transpose().to_dense().matmul(&Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]])),
            1e-6
        ));
    }

    #[test]
    fn with_rows_replaced_matches_from_scratch_build() {
        let s = example();
        // replace row 0 with new entries, empty row 2 with one entry
        let patched = s.with_rows_replaced(&[(0, vec![(1, 5.0)]), (2, vec![(0, 7.0), (2, 8.0)])]);
        let rebuilt =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 5.0), (1, 1, 3.0), (2, 0, 7.0), (2, 2, 8.0)]);
        assert_eq!(patched, rebuilt, "patched CSR must equal a from-scratch build");
        assert_eq!(patched.content_fingerprint(), rebuilt.content_fingerprint());
    }

    #[test]
    fn patched_fingerprint_is_preseeded_from_warm_source_and_stays_exact() {
        let s = example();
        let _ = s.content_fingerprint(); // warm the source digest
        let patched = s.with_rows_replaced(&[(1, vec![(0, -2.0), (2, 4.0)])]);
        assert!(
            patched.fingerprint_cache_warm(),
            "patching a warm source must pre-seed the digest in O(dirty)"
        );
        let rebuilt =
            CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 0, -2.0), (1, 2, 4.0)]);
        assert_eq!(
            patched.content_fingerprint(),
            rebuilt.content_fingerprint(),
            "pre-seeded digest must be bit-identical to a cold computation"
        );
        // cold source → no pre-seed, digest still agrees when computed
        let cold = example().with_rows_replaced(&[(1, vec![(0, -2.0), (2, 4.0)])]);
        assert!(!cold.fingerprint_cache_warm());
        assert_eq!(cold.content_fingerprint(), rebuilt.content_fingerprint());
    }

    #[test]
    fn with_rows_replaced_can_empty_and_noop_rows() {
        let s = example();
        let patched = s.with_rows_replaced(&[(0, vec![])]);
        assert_eq!(patched.nnz(), 1);
        assert_eq!(patched.row_nnz(0), 0);
        let noop = s.with_rows_replaced(&[]);
        assert_eq!(noop, s);
    }

    #[test]
    fn with_cols_widens_without_moving_data() {
        let s = example(); // 3x3
        let fp_seed = s.content_fingerprint();
        let wide = s.with_cols(5);
        assert_eq!(wide.shape(), (3, 5));
        assert_eq!(wide.nnz(), s.nnz());
        assert!(wide.fingerprint_cache_warm(), "warm source must pre-seed the digest");
        let rebuilt = CsrMatrix::from_triplets(3, 5, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        assert_eq!(wide, rebuilt);
        assert_eq!(wide.content_fingerprint(), rebuilt.content_fingerprint());
        assert_ne!(wide.content_fingerprint(), fp_seed, "shape participates in the digest");
        // cold source → cold result, still agrees when computed
        let cold = example().with_cols(5);
        assert!(!cold.fingerprint_cache_warm());
        assert_eq!(cold.content_fingerprint(), rebuilt.content_fingerprint());
        // same width is a plain copy
        assert_eq!(s.with_cols(3), s);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn with_cols_rejects_shrinking() {
        example().with_cols(2);
    }

    #[test]
    fn with_rows_appended_adds_empty_rows() {
        let s = example(); // 3x3
        let _ = s.content_fingerprint();
        let tall = s.with_rows_appended(2);
        assert_eq!(tall.shape(), (5, 3));
        assert_eq!(tall.nnz(), s.nnz());
        assert_eq!(tall.row_nnz(3), 0);
        assert_eq!(tall.row_nnz(4), 0);
        assert!(tall.fingerprint_cache_warm());
        let rebuilt = CsrMatrix::from_triplets(5, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        assert_eq!(tall, rebuilt);
        assert_eq!(tall.content_fingerprint(), rebuilt.content_fingerprint());
        let cold = example().with_rows_appended(2);
        assert!(!cold.fingerprint_cache_warm());
        assert_eq!(cold.content_fingerprint(), rebuilt.content_fingerprint());
        assert_eq!(s.with_rows_appended(0), s);
    }

    #[test]
    fn grown_matrices_compose_with_row_replacement() {
        let s = example();
        let _ = s.content_fingerprint();
        // widen, then fill one of the new columns: digest must match a
        // from-scratch build of the same content (the incremental append
        // path in lh-graph does exactly this composition)
        let patched = s.with_cols(4).with_rows_replaced(&[(2, vec![(3, 9.0)])]);
        let rebuilt =
            CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 3, 9.0)]);
        // `example()` is 3x3 — append a row first so shapes line up
        let patched = patched.with_rows_appended(1);
        assert_eq!(patched, rebuilt);
        assert_eq!(patched.content_fingerprint(), rebuilt.content_fingerprint());
    }

    #[test]
    #[should_panic(expected = "columns unsorted")]
    fn with_rows_replaced_rejects_unsorted_columns() {
        example().with_rows_replaced(&[(0, vec![(2, 1.0), (0, 1.0)])]);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn with_rows_replaced_rejects_duplicate_rows() {
        example().with_rows_replaced(&[(0, vec![]), (0, vec![])]);
    }

    #[test]
    fn content_fingerprint_is_cached_and_content_sensitive() {
        let a = example();
        assert!(!a.fingerprint_cache_warm());
        let fp = a.content_fingerprint();
        assert!(a.fingerprint_cache_warm());
        assert_eq!(fp, a.content_fingerprint());
        // clones made after warming share the digest; equal content agrees
        let b = a.clone();
        assert!(b.fingerprint_cache_warm());
        assert_eq!(b.content_fingerprint(), fp);
        let same = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        assert_eq!(same.content_fingerprint(), fp);
        // any content change disagrees
        let moved = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        assert_ne!(moved.content_fingerprint(), fp);
        let rescaled = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.5), (0, 2, 2.0), (1, 1, 3.0)]);
        assert_ne!(rescaled.content_fingerprint(), fp);
    }

    #[test]
    fn row_normalized_drops_stale_fingerprint_cache() {
        let s = example();
        let fp = s.content_fingerprint();
        let n = s.row_normalized();
        assert!(!n.fingerprint_cache_warm(), "normalised copy must not inherit the digest");
        assert_ne!(n.content_fingerprint(), fp);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_rejects_out_of_bounds() {
        CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn spmm_rejects_mismatched_operand() {
        example().spmm(&Matrix::zeros(2, 2));
    }
}
