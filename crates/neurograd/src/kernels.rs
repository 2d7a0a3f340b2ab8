//! The compute backend: every dense and sparse kernel in one place.
//!
//! [`Matrix`], [`CsrMatrix`] and the [`Tape`](crate::tape::Tape) dispatch
//! their hot loops through this module instead of open-coding them. Every
//! row kernel runs through one row loop (`for_each_row`): it takes the
//! selected **output rows** ([`Rows::All`] or a [`Rows::List`]), checks
//! them, and runs them serially or in contiguous chunks
//! ([`pool::chunk_ranges`]) on the process pool ([`pool::global`]). The
//! elementwise kernels chunk by element count instead.
//!
//! # Determinism contract
//!
//! Per output row (or element) the arithmetic is the *same sequence of
//! operations* as the serial reference in [`reference`](mod@reference),
//! and chunks write disjoint slices — so results are **bitwise identical
//! at any thread count**, including 1. The `parallel_kernels` property tests enforce
//! this. `spmm_t` is computed as `spmm` of the (cached) explicit CSR
//! transpose; because CSR entries are sorted and duplicate-free, the
//! per-output-row accumulation order matches the scatter formulation
//! exactly, so this too is bitwise-stable (and row-partitionable).
//!
//! The inner loops run on [`crate::simd`]'s lane engine. Accumulating
//! kernels (`matmul`, `matmul_tn`, `spmm` and their row-subset variants)
//! hold each output row's accumulators in registers while they sum the
//! terms in `k`/entry order — vectorizing across the *row*, never across
//! the reduction — so each element still sees `0.0 + c₀·s₀ + c₁·s₁ + …`:
//! the float sequences are unchanged from the scalar seed kernels, on the
//! AVX2 and the portable engine alike. `matmul_nt` reduces along `k` and
//! therefore uses the fixed lane schedule (eight independent
//! accumulators, a fixed pairwise tree, in-order remainder); its
//! [`reference`](mod@reference) twin spells out that exact schedule, so
//! the engine is bitwise invisible there too.
//! The historical `av == 0.0` zero-skips were dropped from the dense
//! kernels: for finite data a skipped `+= 0.0 * bv` step is bitwise
//! unobservable (a `+0.0` accumulator never becomes `-0.0` under
//! round-to-nearest), and the data-dependent branch blocked
//! vectorization. Sparse kernels still skip structurally — absent CSR
//! entries are never touched.
//!
//! Output buffers are **overwritten**: every kernel zero-fills or
//! directly writes each row it owns, so callers can hand over recycled
//! buffers holding stale data without a pre-zeroing pass.
//!
//! Small operands run serially: chunking only engages when a chunk gets at
//! least `MIN_CHUNK_FLOPS` worth of work, so tiny matrices skip the
//! dispatch overhead entirely (with, by the contract above, no observable
//! difference in results).

use crate::matrix::Matrix;
use crate::pool;
use crate::simd;
use crate::sparse::CsrMatrix;

/// Minimum per-chunk work (≈ multiply-adds) before a kernel parallelises.
pub(crate) const MIN_CHUNK_FLOPS: usize = 16 * 1024;

/// Minimum per-chunk element count for elementwise kernels.
pub(crate) const MIN_CHUNK_ELEMS: usize = 4 * 1024;

/// Raw mutable base pointer that may cross thread boundaries.
///
/// Only ever used to carve **disjoint** row/element ranges per chunk; the
/// backing buffer outlives the pool call (which blocks until completion).
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// The base pointer (a method so closures capture the whole wrapper,
    /// which is `Sync`, rather than the raw pointer field, which is not).
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// The output rows a row kernel computes.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Every row, chunked contiguously over the pool.
    All,
    /// The listed rows only. The list must be strictly ascending and name
    /// rows of the buffer; every kernel panics on any other list before it
    /// writes a row.
    List(&'a [usize]),
}

/// The one row loop behind every row kernel: runs `per_row(r, out_row)`
/// for every row `rows` selects in `out`, a buffer of `n_rows` rows of
/// `row_len`, serially or chunked over the pool.
///
/// `Rows::All` splits `0..n_rows` into contiguous chunks; `Rows::List`
/// splits the list, so chunk position `i` computes row `list[i]`.
/// `cost_per_row` is an estimate of multiply-adds per row used to pick the
/// chunk size; correctness never depends on it.
///
/// # Panics
///
/// Panics, before any row is written, if `out` is not `n_rows * row_len`
/// long, or if a row list is not strictly ascending or names a row past
/// `n_rows`. Those checks are what make the pooled path's row slices
/// disjoint and in bounds.
fn for_each_row(
    out: &mut [f32],
    rows: Rows<'_>,
    n_rows: usize,
    row_len: usize,
    cost_per_row: usize,
    per_row: impl Fn(usize, &mut [f32]) + Sync,
) {
    assert_eq!(out.len(), n_rows * row_len, "buffer is not {n_rows} rows of {row_len}");
    let count = match rows {
        Rows::All => n_rows,
        Rows::List(list) => {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "row list must be strictly ascending");
            if let Some(&last) = list.last() {
                assert!(last < n_rows, "row index {last} out of bounds for {n_rows} rows");
            }
            list.len()
        }
    };
    let row_at = |i: usize| match rows {
        Rows::All => i,
        Rows::List(list) => list[i],
    };
    let min_rows = (MIN_CHUNK_FLOPS / cost_per_row.max(1)).max(1);
    // Below two chunks' worth of work (the expected case for small dirty
    // halos) the global pool is not even looked up.
    if count >= 2 * min_rows {
        let pool = pool::global();
        let ranges = pool::chunk_ranges(count, min_rows, pool.threads());
        if ranges.len() > 1 {
            let base = SendPtr(out.as_mut_ptr());
            pool.run(ranges.len(), &|ci| {
                for i in ranges[ci].clone() {
                    let r = row_at(i);
                    // SAFETY: the checks above put every selected row inside
                    // `out` and map distinct positions to distinct rows;
                    // chunk ranges are disjoint, so each row slice is
                    // exclusive, and `out` outlives the blocking `run` call.
                    let out_row = unsafe {
                        std::slice::from_raw_parts_mut(base.get().add(r * row_len), row_len)
                    };
                    per_row(r, out_row);
                }
            });
            return;
        }
    }
    for i in 0..count {
        let r = row_at(i);
        per_row(r, &mut out[r * row_len..(r + 1) * row_len]);
    }
}

/// Runs `per_elem` over disjoint element ranges, chunked over the pool.
fn for_each_range(out: &mut [f32], per_range: impl Fn(usize, &mut [f32]) + Sync) {
    let len = out.len();
    // Sub-threshold fast path: skip the global-pool lookup entirely.
    if len < 2 * MIN_CHUNK_ELEMS {
        per_range(0, out);
        return;
    }
    let pool = pool::global();
    let ranges = pool::chunk_ranges(len, MIN_CHUNK_ELEMS, pool.threads());
    if ranges.len() <= 1 {
        per_range(0, out);
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    pool.run(ranges.len(), &|ci| {
        let r = ranges[ci].clone();
        // SAFETY: disjoint ranges of a buffer that outlives the call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
        per_range(r.start, chunk);
    });
}

// ---- dense kernels ----

/// `out = a · b`, row-partitioned. Rows of `out` are overwritten (stale
/// data is fine).
///
/// # Panics
///
/// Panics if `a.cols != b.rows` or `out` is missized.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul shape mismatch: {}x{} * {}x{}", m, k, b.rows(), b.cols());
    assert_eq!(out.len(), m * n, "matmul output buffer mismatch");
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    let eng = simd::active();
    for_each_row(out, Rows::All, m, n, k * n, |i, out_row| {
        eng.gemm_row(out_row, &a_data[i * k..(i + 1) * k], b_data);
    });
}

/// `out = aᵀ · b` without materialising the transpose, row-partitioned
/// over the `a.cols` output rows. Rows of `out` are overwritten.
///
/// # Panics
///
/// Panics if `a.rows != b.rows` or `out` is missized.
pub(crate) fn matmul_tn_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (rows, m) = a.shape();
    let n = b.cols();
    assert_eq!(
        rows,
        b.rows(),
        "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
        rows,
        m,
        b.rows(),
        b.cols()
    );
    assert_eq!(out.len(), m * n, "matmul_tn output buffer mismatch");
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    let eng = simd::active();
    for_each_row(out, Rows::All, m, n, rows * n, |i, out_row| {
        eng.gemm_row_strided(out_row, &a_data[i..], m, b_data);
    });
}

/// `out = a · bᵀ` without materialising the transpose, row-partitioned.
/// `out` may hold anything (rows are overwritten).
///
/// # Panics
///
/// Panics if `a.cols != b.cols` or `out` is missized.
pub(crate) fn matmul_nt_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (m, k) = a.shape();
    let n = b.rows();
    assert_eq!(
        k,
        b.cols(),
        "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
        m,
        k,
        b.rows(),
        b.cols()
    );
    assert_eq!(out.len(), m * n, "matmul_nt output buffer mismatch");
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    let eng = simd::active();
    for_each_row(out, Rows::All, m, n, k * n, |i, out_row| {
        eng.dot_row(out_row, &a_data[i * k..(i + 1) * k], b_data);
    });
}

// ---- sparse kernels ----

/// `out = s · x`, partitioned over the sparse rows. Rows of `out` are
/// overwritten.
///
/// # Panics
///
/// Panics if `s.cols != x.rows` or `out` is missized.
pub fn spmm_into(s: &CsrMatrix, x: &Matrix, out: &mut [f32]) {
    spmm_rows_into(s, x, Rows::All, out);
}

// ---- row-subset kernels ----
//
// Each `*_rows_into` kernel recomputes the output rows named by a [`Rows`]
// and leaves every other row of `out` untouched. Because every kernel in
// this module partitions *output rows* and computes each row as an
// independent, fixed sequence of operations, a listed row comes out
// bitwise identical to the same row of the all-rows run — the foundation
// of the bounded-radius incremental forward in `lhnn`.

/// `out[r] = act((a · w)[r] + bias)` for every selected row — the fused
/// form of `Tape::linear` plus an activation map, and the workhorse of
/// the tape-free forwards. Bitwise identical to matmul → add-bias → map
/// because each element sees the same operation sequence (accumulate in
/// `k` order, add bias, apply `act`).
///
/// # Panics
///
/// Panics if shapes mismatch or `rows` is an invalid [`Rows::List`].
pub fn linear_act_rows_into(
    a: &Matrix,
    w: &Matrix,
    bias: &[f32],
    rows: Rows<'_>,
    out: &mut [f32],
    act: impl Fn(f32) -> f32 + Sync,
) {
    let (m, k) = a.shape();
    let n = w.cols();
    assert_eq!(k, w.rows(), "linear shape mismatch: {}x{} * {}x{}", m, k, w.rows(), w.cols());
    assert_eq!(bias.len(), n, "linear bias length mismatch");
    assert_eq!(out.len(), m * n, "linear output buffer mismatch");
    let (a_data, w_data) = (a.as_slice(), w.as_slice());
    let eng = simd::active();
    for_each_row(out, rows, m, n, k * n, |i, out_row| {
        eng.gemm_row(out_row, &a_data[i * k..(i + 1) * k], w_data);
        for (o, &bv) in out_row.iter_mut().zip(bias) {
            *o = act(*o + bv);
        }
    });
}

/// `out[r] = (s · x)[r]` for every selected row; other rows are
/// untouched. Selected rows are zeroed before accumulation.
///
/// # Panics
///
/// Panics if `s.cols != x.rows`, `out` is missized, or `rows` is an
/// invalid [`Rows::List`].
pub fn spmm_rows_into(s: &CsrMatrix, x: &Matrix, rows: Rows<'_>, out: &mut [f32]) {
    let m = s.rows();
    let n = x.cols();
    assert_eq!(
        s.cols(),
        x.rows(),
        "spmm shape mismatch: {}x{} * {}x{}",
        m,
        s.cols(),
        x.rows(),
        x.cols()
    );
    assert_eq!(out.len(), m * n, "spmm output buffer mismatch");
    let x_data = x.as_slice();
    let cost = (s.nnz() / m.max(1)).max(1) * n;
    let eng = simd::active();
    for_each_row(out, rows, m, n, cost, |r, out_row| {
        let (cols, vals) = s.row_slices(r);
        eng.spmm_row(out_row, cols, vals, x_data);
    });
}

/// `out[r][j] = f(a[r][j], b[r][j])` for every selected row of
/// `row_len`-wide buffers; other rows are untouched.
///
/// # Panics
///
/// Panics if lengths mismatch, `out` is not whole `row_len` rows, or
/// `rows` is an invalid [`Rows::List`].
pub fn zip_rows_into(
    a: &[f32],
    b: &[f32],
    rows: Rows<'_>,
    row_len: usize,
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    assert_eq!(a.len(), out.len(), "zip length mismatch");
    assert_eq!(b.len(), out.len(), "zip length mismatch");
    let n_rows = out.len() / row_len.max(1);
    for_each_row(out, rows, n_rows, row_len, row_len.max(1), |r, out_row| {
        let start = r * row_len;
        let end = start + row_len;
        for ((o, &x), &y) in out_row.iter_mut().zip(&a[start..end]).zip(&b[start..end]) {
            *o = f(x, y);
        }
    });
}

/// `out[r][j] = f(a[r][j], out[r][j])` for every selected row — the
/// in-place variant of [`zip_rows_into`] for when one operand is the
/// destination.
///
/// # Panics
///
/// Panics if lengths mismatch, `out` is not whole `row_len` rows, or
/// `rows` is an invalid [`Rows::List`].
pub(crate) fn zip_rows_inplace(
    a: &[f32],
    rows: Rows<'_>,
    row_len: usize,
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    assert_eq!(a.len(), out.len(), "zip length mismatch");
    let n_rows = out.len() / row_len.max(1);
    for_each_row(out, rows, n_rows, row_len, row_len.max(1), |r, out_row| {
        let start = r * row_len;
        let end = start + row_len;
        for (o, &x) in out_row.iter_mut().zip(&a[start..end]) {
            *o = f(x, *o);
        }
    });
}

/// Column concatenation `out[r] = [a[r] | b[r]]` for every selected row;
/// other rows are untouched.
///
/// # Panics
///
/// Panics if row counts differ, `out` is missized, or `rows` is an
/// invalid [`Rows::List`].
pub fn concat_rows_into(a: &Matrix, b: &Matrix, rows: Rows<'_>, out: &mut [f32]) {
    assert_eq!(a.rows(), b.rows(), "concat row mismatch");
    let (an, bn) = (a.cols(), b.cols());
    let n = an + bn;
    assert_eq!(out.len(), a.rows() * n, "concat output buffer mismatch");
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    for_each_row(out, rows, a.rows(), n, n.max(1), |r, out_row| {
        out_row[..an].copy_from_slice(&a_data[r * an..(r + 1) * an]);
        out_row[an..].copy_from_slice(&b_data[r * bn..(r + 1) * bn]);
    });
}

/// `data[r][j] = f(data[r][j])` in place for every selected row of a
/// `row_len`-wide buffer; other rows are untouched.
///
/// # Panics
///
/// Panics if `data` is not whole `row_len` rows or `rows` is an invalid
/// [`Rows::List`].
pub fn map_rows_inplace(
    data: &mut [f32],
    rows: Rows<'_>,
    row_len: usize,
    f: impl Fn(f32) -> f32 + Sync,
) {
    let n_rows = data.len() / row_len.max(1);
    for_each_row(data, rows, n_rows, row_len, row_len.max(1), |_, row| {
        for v in row {
            *v = f(*v);
        }
    });
}

// ---- elementwise kernels ----

/// `out[i] = f(src[i])`, chunk-partitioned. Lengths must match.
pub(crate) fn map_into(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    assert_eq!(src.len(), out.len(), "map length mismatch");
    for_each_range(out, |start, chunk| {
        let end = start + chunk.len();
        for (o, &s) in chunk.iter_mut().zip(&src[start..end]) {
            *o = f(s);
        }
    });
}

/// `data[i] = f(data[i])` in place, chunk-partitioned.
pub(crate) fn map_inplace(data: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    for_each_range(data, |_, chunk| {
        for v in chunk {
            *v = f(*v);
        }
    });
}

/// `out[i] = f(a[i], b[i])`, chunk-partitioned. Lengths must match.
pub(crate) fn zip_into(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    assert_eq!(a.len(), out.len(), "zip length mismatch");
    assert_eq!(b.len(), out.len(), "zip length mismatch");
    for_each_range(out, |start, chunk| {
        let end = start + chunk.len();
        for ((o, &x), &y) in chunk.iter_mut().zip(&a[start..end]).zip(&b[start..end]) {
            *o = f(x, y);
        }
    });
}

/// Serial reference implementations, kept loop-for-loop identical to the
/// pre-parallel seed kernels.
///
/// The `parallel_kernels` and `simd_kernels` property tests and the lane
/// engines' unit tests pin the pooled kernels and every engine to these
/// bitwise; they are not meant for production use.
///
/// The accumulating references deliberately **keep** the historical
/// `av == 0.0` zero-skip the hot kernels dropped: for finite data the
/// skip is bitwise unobservable (see the module docs), so the unchanged
/// references double as proof that the SIMD rewrite preserved the seed
/// kernels' numerics exactly. `matmul_nt` is the exception — it reduces
/// along `k`, so its reference is the scalar emulation of the fixed lane
/// schedule (independently spelled out here, not calling into
/// [`crate::simd`]).
pub mod reference {
    use super::{CsrMatrix, Matrix};

    /// Serial `a · b` (i-k-j loop with zero skip).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let n = b.cols();
        for i in 0..a.rows() {
            let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Serial `aᵀ · b` (k-outer scatter loop with zero skip).
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        let n = b.cols();
        for k in 0..a.rows() {
            let b_row = b.row(k);
            for (i, &av) in a.row(k).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Serial `a · bᵀ` (dot products) emulating the fixed lane schedule:
    /// eight independent accumulators walking 8-wide chunks, combined by
    /// the fixed pairwise tree `((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))`,
    /// then the `k % 8` remainder added in index order. This is the
    /// oracle the lane engines' `dot_row` is pinned against.
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        const LANES: usize = 8;
        let mut out = Matrix::zeros(a.rows(), b.rows());
        let k = a.cols();
        let chunks = k / LANES;
        for i in 0..a.rows() {
            let a_row = a.row(i);
            for j in 0..b.rows() {
                let b_row = b.row(j);
                let mut acc = [0.0f32; LANES];
                for c in 0..chunks {
                    let base = c * LANES;
                    for l in 0..LANES {
                        acc[l] += a_row[base + l] * b_row[base + l];
                    }
                }
                let s = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
                let t = [s[0] + s[2], s[1] + s[3]];
                let mut total = t[0] + t[1];
                for idx in chunks * LANES..k {
                    total += a_row[idx] * b_row[idx];
                }
                out[(i, j)] = total;
            }
        }
        out
    }

    /// Serial `s · x` (row loop).
    pub fn spmm(s: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(s.rows(), x.cols());
        let n = x.cols();
        for r in 0..s.rows() {
            let out_row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
            for (c, v) in s.row_entries(r) {
                for (o, &xv) in out_row.iter_mut().zip(x.row(c)) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// Serial `sᵀ · x` in the original *scatter* formulation (iterate the
    /// stored rows, accumulate into transposed output rows).
    pub fn spmm_t_scatter(s: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(s.cols(), x.cols());
        let n = x.cols();
        for r in 0..s.rows() {
            let entries: Vec<(usize, f32)> = s.row_entries(r).collect();
            for (c, v) in entries {
                let x_row = &x.as_slice()[r * n..(r + 1) * n];
                let out_row = &mut out.as_mut_slice()[c * n..(c + 1) * n];
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        }
        out
    }
}
