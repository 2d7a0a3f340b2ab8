//! Explicit f32 SIMD lanes with a bitwise-determinism contract.
//!
//! Every dense/sparse kernel in [`crate::kernels`] bottoms out in the
//! row-level entry points of [`LaneEngine`], which come in two kinds:
//!
//! - **Accumulating rows** ([`LaneEngine::gemm_row`],
//!   `LaneEngine::gemm_row_strided`, [`LaneEngine::spmm_row`]) — `out[j]
//!   = Σ_t c_t · s_t[j]`. All three run one register-blocked loop: the
//!   row is walked in `4 × LANES`-column blocks whose accumulators stay in
//!   registers across the whole reduction and are stored once. The loop
//!   vectorizes across the *row*, never across the reduction, so lane j
//!   only ever touches element j and sees `0.0 + c₀·s₀ + c₁·s₁ + …` in
//!   term order — the float sequence of the serial loops in
//!   [`crate::kernels::reference`].
//! - `LaneEngine::dot_row` — one lane-parallel dot product per output
//!   element with a **fixed reduction shape**: `LANES` independent
//!   accumulators walk the inputs in `LANES`-wide chunks, are combined by
//!   the fixed pairwise tree in `reduce_tree`, and the `len % LANES`
//!   remainder is then added one element at a time in index order.
//!   `kernels::reference::matmul_nt` spells out that same sequence one
//!   element at a time.
//!
//! The engine is a platform choice only: [`active`] picks the AVX2
//! clones when the host has AVX2 and the portable loops otherwise. The
//! contract, relied on by the kernel proptests and the serving stack's
//! parity pins: for the same inputs, both engines return the bits of
//! `kernels::reference`. Lane width and ISA are performance knobs, never
//! numerics knobs.
//!
//! Why it holds on real hardware: the chunk loops contain only
//! independent multiplies and adds (no horizontal ops), rustc never
//! enables floating-point contraction, and the AVX2 clones only enable
//! `avx2` — **not** `fma` — so LLVM lowers `acc + a * x` to separate
//! `vmulps`/`vaddps`, matching scalar `f32` semantics exactly.
//!
//! The row entry points run a whole output row behind one ISA boundary.
//! `#[target_feature]` functions cannot be inlined into their callers, so
//! the boundary sits at the row, where its opaque call is amortized
//! across the whole inner loop.

/// Lane count of the portable chunk loops (f32 × 8 = 256 bits, one AVX2
/// register). Fixed — results are defined in terms of this width, so it
/// never varies with the host ISA.
pub(crate) const LANES: usize = 8;

/// Which implementation a kernel invocation will run its inner loops on.
///
/// Kernels snapshot [`active`] once per call and reuse it for every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneEngine {
    /// `#[target_feature(enable = "avx2")]` clones of the portable
    /// loops; selected only after runtime detection on x86-64. Only
    /// [`active`] builds it (the variant cannot be constructed outside
    /// this crate), so safe code never runs AVX2 on a host without it.
    #[non_exhaustive]
    Avx2,
    /// The portable `LANES`-wide chunk loops at the baseline target ISA
    /// (LLVM auto-vectorizes the fixed-width inner loops); the only path
    /// on a host without AVX2.
    Portable,
}

/// The engine this host selects: AVX2 when detected, else portable.
pub fn active() -> LaneEngine {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return LaneEngine::Avx2;
        }
    }
    LaneEngine::Portable
}

/// One human-readable line describing the lane configuration, printed by
/// the benches next to the host-parallelism line so artifacts from
/// different machines stay interpretable.
pub fn isa_report() -> String {
    let engine = match active() {
        LaneEngine::Avx2 => "avx2 (runtime-detected)",
        LaneEngine::Portable => "portable (baseline ISA, auto-vectorized)",
    };
    format!("simd: {} lanes={} arch={}", engine, LANES, std::env::consts::ARCH)
}

/// The fixed pairwise reduction tree over the `LANES` accumulators:
/// `(a0+a4)+(a2+a6)` + `(a1+a5)+(a3+a7)` — the shape AVX2's natural
/// 8→4→2→1 halving produces. Every engine funnels its accumulators
/// through this exact tree.
#[inline(always)]
pub(crate) fn reduce_tree(acc: [f32; LANES]) -> f32 {
    let s = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    let t = [s[0] + s[2], s[1] + s[3]];
    t[0] + t[1]
}

/// The register-blocked accumulate loop behind every accumulating row
/// kernel: `out[j] = Σ_t coef_t · src[off_t + j]` over `t in 0..count`,
/// where `term(t) = (coef_t, off_t)`, summed in `t` order from `0.0`.
///
/// The output is walked in `4 × LANES` column blocks, then `LANES`
/// blocks, then one column at a time. Each block's accumulators live in a
/// local array across the whole reduction and are stored once at the
/// end, so the row is not reloaded and re-stored per term. Per element
/// the float sequence is still `0.0 + c₀·s₀ + c₁·s₁ + …` with separate
/// mul and add, the same as the serial reference loops.
#[inline(always)]
fn accumulate_lanes(
    out: &mut [f32],
    count: usize,
    term: impl Fn(usize) -> (f32, usize),
    src: &[f32],
) {
    let n = out.len();
    let mut j = 0;
    while j + 4 * LANES <= n {
        accumulate_block::<{ 4 * LANES }>(&mut out[j..j + 4 * LANES], count, &term, &src[j..]);
        j += 4 * LANES;
    }
    while j + LANES <= n {
        accumulate_block::<LANES>(&mut out[j..j + LANES], count, &term, &src[j..]);
        j += LANES;
    }
    while j < n {
        accumulate_block::<1>(&mut out[j..j + 1], count, &term, &src[j..]);
        j += 1;
    }
}

/// One `W`-wide column block of [`accumulate_lanes`]: `W` accumulators
/// held across all `count` terms, written to `out` once.
#[inline(always)]
fn accumulate_block<const W: usize>(
    out: &mut [f32],
    count: usize,
    term: &impl Fn(usize) -> (f32, usize),
    src: &[f32],
) {
    let mut acc = [0.0f32; W];
    for t in 0..count {
        let (c, off) = term(t);
        let s: &[f32; W] = src[off..off + W].try_into().expect("W-wide source block");
        for l in 0..W {
            acc[l] += c * s[l];
        }
    }
    out.copy_from_slice(&acc);
}

/// Portable lane loop for the fixed-shape dot product.
#[inline(always)]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ai = a.chunks_exact(LANES);
    let mut bi = b.chunks_exact(LANES);
    for (av, bv) in (&mut ai).zip(&mut bi) {
        for l in 0..LANES {
            acc[l] += av[l] * bv[l];
        }
    }
    let mut total = reduce_tree(acc);
    for (&av, &bv) in ai.remainder().iter().zip(bi.remainder()) {
        total += av * bv;
    }
    total
}

/// Portable row kernel: `out = Σ_k a_row[k] · b[k]` (rows of `b` are
/// `out.len()` wide), overwriting `out` — the row-major GEMM inner pair,
/// accumulated in `k` order.
#[inline(always)]
fn gemm_row_lanes(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    let n = out.len();
    accumulate_lanes(out, a_row.len(), |k| (a_row[k], k * n), b);
}

/// Portable row kernel for the transposed-A product: coefficients are
/// read at stride `stride` from `a` (`a[k * stride]`, the k-th element of
/// one column of a row-major matrix).
#[inline(always)]
fn gemm_row_strided_lanes(out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
    let n = out.len();
    let k = if n == 0 { 0 } else { b.len() / n };
    accumulate_lanes(out, k, |kk| (a[kk * stride], kk * n), b);
}

/// Portable row kernel for the B-transposed product: `out[j] =
/// dot(a_row, b[j])` where rows of `b` are `a_row.len()` wide.
#[inline(always)]
fn dot_row_lanes(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    let k = a_row.len();
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot_lanes(a_row, &b[j * k..(j + 1) * k]);
    }
}

/// Portable row kernel for one CSR row: `out = Σ_e vals[e] ·
/// x[cols[e]]`, overwriting `out`; entries in stored (structural) order.
#[inline(always)]
fn spmm_row_lanes(out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
    debug_assert_eq!(cols.len(), vals.len());
    let n = out.len();
    accumulate_lanes(out, cols.len(), |e| (vals[e], cols[e] * n), x);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    // AVX2 clones of the portable loops. Enabling only `avx2` (never
    // `fma`) keeps mul/add as separate rounding steps, so these are
    // bit-exact with the portable path. The clones wrap whole
    // rows because `#[target_feature]` functions can't inline into plain
    // callers: one opaque call per row, none inside the reduction.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_row(out: &mut [f32], a_row: &[f32], b: &[f32]) {
        super::gemm_row_lanes(out, a_row, b);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_row_strided(out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
        super::gemm_row_strided_lanes(out, a, stride, b);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn dot_row(out: &mut [f32], a_row: &[f32], b: &[f32]) {
        super::dot_row_lanes(out, a_row, b);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn spmm_row(out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
        super::spmm_row_lanes(out, cols, vals, x);
    }
}

/// Expands to the x86-64 `unsafe` dispatch into an AVX2 clone, or the
/// portable fallback elsewhere.
macro_rules! avx2_call {
    ($name:ident ( $($arg:expr),* ), $fallback:ident) => {{
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is built only by `active()` (the variant is
        // `#[non_exhaustive]`, so no other crate can build it), after
        // `is_x86_feature_detected!("avx2")` succeeded in this process.
        unsafe { x86::$name($($arg),*) }
        #[cfg(not(target_arch = "x86_64"))]
        $fallback($($arg),*)
    }};
}

impl LaneEngine {
    /// One GEMM output row: `out = Σ_k a_row[k] · b[k]` (rows of `b` are
    /// `out.len()` wide), `out` overwritten. Each element is accumulated
    /// in `k` order from `0.0` in a register, behind one ISA boundary.
    #[inline]
    pub fn gemm_row(self, out: &mut [f32], a_row: &[f32], b: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(gemm_row(out, a_row, b), gemm_row_lanes),
            LaneEngine::Portable => gemm_row_lanes(out, a_row, b),
        }
    }

    /// [`LaneEngine::gemm_row`] with the coefficients read at stride
    /// `stride` from `a` (one column of a row-major matrix).
    #[inline]
    pub(crate) fn gemm_row_strided(self, out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
        match self {
            LaneEngine::Avx2 => {
                avx2_call!(gemm_row_strided(out, a, stride, b), gemm_row_strided_lanes)
            }
            LaneEngine::Portable => gemm_row_strided_lanes(out, a, stride, b),
        }
    }

    /// One B-transposed GEMM output row: `out[j] = dot(a_row, b[j])`
    /// (rows of `b` are `a_row.len()` wide) — one fixed-shape dot product
    /// per element, fused behind one ISA boundary.
    #[inline]
    pub(crate) fn dot_row(self, out: &mut [f32], a_row: &[f32], b: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(dot_row(out, a_row, b), dot_row_lanes),
            LaneEngine::Portable => dot_row_lanes(out, a_row, b),
        }
    }

    /// One CSR×dense output row: `out = Σ_e vals[e] · x[cols[e]]`, `out`
    /// overwritten. Each element is accumulated over the entries in stored
    /// order from `0.0` in a register, behind one ISA boundary.
    #[inline]
    pub fn spmm_row(self, out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(spmm_row(out, cols, vals, x), spmm_row_lanes),
            LaneEngine::Portable => spmm_row_lanes(out, cols, vals, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;
    use crate::{CsrMatrix, Matrix};

    /// Every engine this host can run: portable always, AVX2 when detected.
    fn engines() -> Vec<LaneEngine> {
        let mut e = vec![LaneEngine::Portable];
        if active() == LaneEngine::Avx2 {
            e.push(LaneEngine::Avx2);
        }
        e
    }

    fn data(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if i % 17 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.37 + salt as f32 * 0.11).sin() * 3.0
                }
            })
            .collect()
    }

    fn matrix(rows: usize, cols: usize, salt: u32) -> Matrix {
        Matrix::from_vec(rows, cols, data(rows * cols, salt)).expect("sized")
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_kernel_engines_agree_bitwise_across_lengths() {
        // each engine is held to the serial reference, so the check means
        // something on a host with only the portable engine; n covers every
        // mix of 4×LANES blocks, LANES blocks and tail columns, and the
        // terms include zero coefficients
        let k = 5;
        let s = CsrMatrix::from_triplets(1, k, &[(0, 3, 0.5), (0, 0, -1.25), (0, 4, 2.0)]);
        let (cols, vals) = s.row_slices(0);
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 47, 64, 100] {
            let (a, at, b) = (matrix(1, k, 1), matrix(k, 2, 1), matrix(k, n, 2));
            let want = [
                bits(reference::matmul(&a, &b).as_slice()),
                bits(reference::matmul_tn(&at, &b).row(0)),
                bits(reference::spmm(&s, &b).as_slice()),
            ];
            for eng in engines() {
                let mut rows = [vec![f32::NAN; n], vec![f32::NAN; n], vec![f32::NAN; n]];
                eng.gemm_row(&mut rows[0], a.as_slice(), b.as_slice());
                eng.gemm_row_strided(&mut rows[1], at.as_slice(), 2, b.as_slice());
                eng.spmm_row(&mut rows[2], cols, vals, b.as_slice());
                assert_eq!(
                    rows.map(|r| bits(&r)),
                    want,
                    "row kernels left the reference at n={n} on {eng:?}"
                );
            }
        }
    }

    #[test]
    fn dot_engines_agree_bitwise_across_lengths() {
        for k in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let (a, b) = (matrix(1, k, 3), matrix(3, k, 4));
            let want = bits(reference::matmul_nt(&a, &b).as_slice());
            for eng in engines() {
                let mut out = [f32::NAN; 3];
                eng.dot_row(&mut out, a.as_slice(), b.as_slice());
                assert_eq!(bits(&out), want, "dot_row left the reference at k={k} on {eng:?}");
            }
        }
    }

    #[test]
    fn dot_is_the_fixed_tree_not_sequential_sum() {
        // With 8 or more elements the lane schedule differs from a plain
        // left-to-right sum for generic data; this pins that the portable
        // engine really runs the tree rather than the naive order.
        let a = data(24, 5);
        let b = data(24, 6);
        let mut acc = [0.0f32; LANES];
        for c in 0..3 {
            for l in 0..LANES {
                acc[l] += a[c * LANES + l] * b[c * LANES + l];
            }
        }
        let want = reduce_tree(acc).to_bits();
        let sequential = a.iter().zip(&b).fold(0.0f32, |s, (x, y)| s + x * y).to_bits();
        assert_ne!(sequential, want, "the data no longer tells the two orders apart");
        let mut out = [f32::NAN];
        LaneEngine::Portable.dot_row(&mut out, &a, &b);
        assert_eq!(out[0].to_bits(), want);
    }

    #[test]
    fn isa_report_mentions_lane_width() {
        assert!(isa_report().contains("lanes=8"), "{}", isa_report());
    }
}
