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
//!   term order. The vector, portable and scalar paths therefore produce
//!   the *same float per element* by construction.
//! - [`LaneEngine::dot`] (and `LaneEngine::dot_row`) — a lane-parallel
//!   dot product with a **fixed reduction shape**: `LANES` independent
//!   accumulators walk the inputs in `LANES`-wide chunks, are combined by
//!   the fixed pairwise tree in `reduce_tree`, and the `len % LANES`
//!   remainder is then added one element at a time in index order. The
//!   scalar path ([`LaneEngine::Scalar`]) *emulates that exact sequence*
//!   rather than summing left-to-right, so `dot` is bitwise identical
//!   whether it ran on AVX2, on the portable auto-vectorized loop, or one
//!   element at a time.
//!
//! The contract, relied on by the kernel proptests and the serving
//! stack's parity pins: for the same inputs, every engine returns the
//! same bits. SIMD on/off (and lane width, and ISA) are performance
//! knobs, never numerics knobs.
//!
//! Why it holds on real hardware: the chunk loops contain only
//! independent multiplies and adds (no horizontal ops), rustc never
//! enables floating-point contraction, and the AVX2 clones only enable
//! `avx2` — **not** `fma` — so LLVM lowers `acc + a * x` to separate
//! `vmulps`/`vaddps`, matching scalar `f32` semantics exactly.
//!
//! SIMD can be disabled process-wide with [`set_enabled`] (the benches'
//! `--simd off`); kernels snapshot [`active`] once per call, so a kernel
//! invocation never mixes engines mid-row.
//!
//! The row entry points run a whole output row behind one ISA boundary.
//! `#[target_feature]` functions cannot be inlined into their callers, so
//! the boundary sits at the row, where its opaque call is amortized
//! across the whole inner loop.

use std::sync::atomic::{AtomicBool, Ordering};

/// Lane count of the portable chunk loops (f32 × 8 = 256 bits, one AVX2
/// register). Fixed — results are defined in terms of this width, so it
/// never varies with the host ISA.
pub(crate) const LANES: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide SIMD switch. `false` routes every kernel through the
/// scalar lane-emulation path (same bits, element-at-a-time).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the lane engines are enabled (default: yes).
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Which implementation a kernel invocation will run its inner loops on.
///
/// Snapshot once per kernel call via [`active`] and reuse for every row,
/// so a concurrent [`set_enabled`] flip can't mix engines inside one
/// output (harmless for bits, confusing for profiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneEngine {
    /// `#[target_feature(enable = "avx2")]` clones of the portable
    /// loops; selected only after runtime detection on x86-64.
    Avx2,
    /// The portable `LANES`-wide chunk loops at the baseline target ISA
    /// (LLVM auto-vectorizes the fixed-width inner loops).
    Portable,
    /// Scalar emulation of the lane schedule — identical float sequence,
    /// one element at a time. Used when SIMD is switched off, and as the
    /// reference twin in the bitwise proptests.
    Scalar,
}

/// The engine the current process/ISA/switch state selects.
pub fn active() -> LaneEngine {
    if !enabled() {
        return LaneEngine::Scalar;
    }
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
        LaneEngine::Scalar => "scalar lane emulation (simd off)",
    };
    format!(
        "simd: {} lanes={} arch={} enabled={}",
        engine,
        LANES,
        std::env::consts::ARCH,
        enabled()
    )
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
/// mul and add, the same as the element-wise scalar twins.
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

/// Element-wise `acc[j] += a * x[j]` for the scalar twins: plain
/// iteration, one element at a time.
#[inline(always)]
fn axpy_scalar(acc: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    for (o, &v) in acc.iter_mut().zip(x) {
        *o += a * v;
    }
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

/// Scalar twin of [`dot_lanes`]: walks the same `LANES` independent
/// accumulators in the same order, reduces through the same tree, then
/// adds the remainder in index order — the identical float sequence,
/// one element at a time.
#[inline(always)]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            acc[l] += a[base + l] * b[base + l];
        }
    }
    let mut total = reduce_tree(acc);
    for i in chunks * LANES..n {
        total += a[i] * b[i];
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

/// Scalar twin of [`gemm_row_lanes`] — same `k` order, element-wise adds.
#[inline(always)]
fn gemm_row_scalar(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    out.fill(0.0);
    let n = out.len();
    for (k, &av) in a_row.iter().enumerate() {
        axpy_scalar(out, av, &b[k * n..(k + 1) * n]);
    }
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

/// Scalar twin of [`gemm_row_strided_lanes`].
#[inline(always)]
fn gemm_row_strided_scalar(out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
    out.fill(0.0);
    let n = out.len();
    let k = if n == 0 { 0 } else { b.len() / n };
    for kk in 0..k {
        axpy_scalar(out, a[kk * stride], &b[kk * n..(kk + 1) * n]);
    }
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

/// Scalar twin of [`dot_row_lanes`] — every element runs the scalar
/// emulation of the fixed lane schedule.
#[inline(always)]
fn dot_row_scalar(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    let k = a_row.len();
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot_scalar(a_row, &b[j * k..(j + 1) * k]);
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

/// Scalar twin of [`spmm_row_lanes`].
#[inline(always)]
fn spmm_row_scalar(out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
    out.fill(0.0);
    let n = out.len();
    for (&c, &v) in cols.iter().zip(vals) {
        axpy_scalar(out, v, &x[c * n..(c + 1) * n]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    // AVX2 clones of the portable loops. Enabling only `avx2` (never
    // `fma`) keeps mul/add as separate rounding steps, so these are
    // bit-exact with the portable and scalar paths. The clones wrap whole
    // rows because `#[target_feature]` functions can't inline into plain
    // callers: one opaque call per row, none inside the reduction.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        super::dot_lanes(a, b)
    }

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
        // SAFETY: `active()` only yields `Avx2` after
        // `is_x86_feature_detected!("avx2")` succeeded in this process.
        unsafe { x86::$name($($arg),*) }
        #[cfg(not(target_arch = "x86_64"))]
        $fallback($($arg),*)
    }};
}

impl LaneEngine {
    /// Fixed-shape dot product of `a` and `b`. Bitwise identical on
    /// every engine (same lane schedule, same reduction tree).
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            LaneEngine::Avx2 => avx2_call!(dot(a, b), dot_lanes),
            LaneEngine::Portable => dot_lanes(a, b),
            LaneEngine::Scalar => dot_scalar(a, b),
        }
    }

    /// One GEMM output row: `out = Σ_k a_row[k] · b[k]` (rows of `b` are
    /// `out.len()` wide), `out` overwritten. Each element is accumulated
    /// in `k` order from `0.0` in a register, behind one ISA boundary.
    #[inline]
    pub fn gemm_row(self, out: &mut [f32], a_row: &[f32], b: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(gemm_row(out, a_row, b), gemm_row_lanes),
            LaneEngine::Portable => gemm_row_lanes(out, a_row, b),
            LaneEngine::Scalar => gemm_row_scalar(out, a_row, b),
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
            LaneEngine::Scalar => gemm_row_strided_scalar(out, a, stride, b),
        }
    }

    /// One B-transposed GEMM output row: `out[j] = dot(a_row, b[j])`
    /// (rows of `b` are `a_row.len()` wide) — an [`LaneEngine::dot`] per
    /// element, fused behind one ISA boundary.
    #[inline]
    pub(crate) fn dot_row(self, out: &mut [f32], a_row: &[f32], b: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(dot_row(out, a_row, b), dot_row_lanes),
            LaneEngine::Portable => dot_row_lanes(out, a_row, b),
            LaneEngine::Scalar => dot_row_scalar(out, a_row, b),
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
            LaneEngine::Scalar => spmm_row_scalar(out, cols, vals, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> Vec<LaneEngine> {
        let mut e = vec![LaneEngine::Portable, LaneEngine::Scalar];
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

    #[test]
    fn row_kernel_engines_agree_bitwise_across_lengths() {
        // n covers every mix of 4×LANES blocks, LANES blocks and tail
        // columns; the terms include zero coefficients and repeated
        // source rows
        let (k, cols, vals) = (5, [3, 0, 3, 4], data(4, 5));
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 47, 64, 100] {
            let a = data(k * 2, 1);
            let b = data(k * n, 2);
            let mut want: Option<[Vec<u32>; 3]> = None;
            for eng in engines() {
                let mut rows = [vec![f32::NAN; n], vec![f32::NAN; n], vec![f32::NAN; n]];
                eng.gemm_row(&mut rows[0], &a[..k], &b);
                eng.gemm_row_strided(&mut rows[1], &a, 2, &b);
                eng.spmm_row(&mut rows[2], &cols, &vals, &b);
                let bits = rows.map(|r| r.iter().map(|v| v.to_bits()).collect::<Vec<u32>>());
                match &want {
                    None => want = Some(bits),
                    Some(w) => assert_eq!(w, &bits, "row kernels diverged at n={n} on {eng:?}"),
                }
            }
        }
    }

    #[test]
    fn dot_engines_agree_bitwise_across_lengths() {
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let a = data(n, 3);
            let b = data(n, 4);
            let mut want: Option<u32> = None;
            for eng in engines() {
                let got = eng.dot(&a, &b).to_bits();
                match want {
                    None => want = Some(got),
                    Some(w) => assert_eq!(w, got, "dot diverged at n={n} on {eng:?}"),
                }
            }
        }
    }

    #[test]
    fn dot_is_the_fixed_tree_not_sequential_sum() {
        // With 8 or more elements the lane schedule differs from a plain
        // left-to-right sum for generic data; this pins that the scalar
        // twin really emulates the tree rather than falling back to the
        // naive order.
        let a = data(24, 5);
        let b = data(24, 6);
        let mut acc = [0.0f32; LANES];
        for c in 0..3 {
            for l in 0..LANES {
                acc[l] += a[c * LANES + l] * b[c * LANES + l];
            }
        }
        let want = reduce_tree(acc).to_bits();
        assert_eq!(LaneEngine::Scalar.dot(&a, &b).to_bits(), want);
        assert_eq!(LaneEngine::Portable.dot(&a, &b).to_bits(), want);
    }

    #[test]
    fn isa_report_mentions_lane_width() {
        assert!(isa_report().contains("lanes=8"), "{}", isa_report());
    }

    #[test]
    fn disable_routes_to_scalar() {
        // `set_enabled` is process-global; restore before returning so
        // concurrently running tests only ever observe a bit-identical
        // engine swap (the whole point of the contract).
        set_enabled(false);
        assert_eq!(active(), LaneEngine::Scalar);
        set_enabled(true);
        assert_ne!(active(), LaneEngine::Scalar);
    }
}
