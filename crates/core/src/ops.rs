//! Graph operators as consumed by the model, with ablation and
//! neighbour-sampling support.
//!
//! [`GraphOps`] snapshots the four aggregation matrices of an
//! [`lh_graph::LhGraph`]. Ablations replace a relation's matrix
//! with an all-zero matrix of the same shape (messages vanish, parameters
//! stay); neighbour sampling keeps at most `fanout` random entries per row
//! and renormalises, mirroring DGL's sampled aggregation.

use std::sync::Arc;

use lh_graph::LhGraph;
use neurograd::CsrMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::AblationSpec;

/// The aggregation operators used by one forward pass.
#[derive(Debug, Clone)]
pub struct GraphOps {
    /// Sum aggregation G-net → G-cell (`H`), used by FeatureGen.
    pub gnc_sum: Arc<CsrMatrix>,
    /// Mean aggregation G-net → G-cell (`D⁻¹H`), used by HyperMP.
    pub gnc_mean: Arc<CsrMatrix>,
    /// Mean aggregation G-cell → G-net (`B⁻¹Hᵀ`), used by HyperMP.
    pub gcn_mean: Arc<CsrMatrix>,
    /// Mean lattice aggregation (`P⁻¹A`), used by LatticeMP.
    pub lattice_mean: Arc<CsrMatrix>,
    /// Number of G-cell nodes.
    pub num_gcells: usize,
    /// Number of G-net nodes.
    pub num_gnets: usize,
}

impl GraphOps {
    /// Snapshots the operators of a graph under an ablation spec.
    pub fn from_graph(graph: &LhGraph, ablation: &AblationSpec) -> Self {
        let (n_c, n_n) = (graph.num_gcells(), graph.num_gnets());
        let empty = |rows: usize, cols: usize| Arc::new(CsrMatrix::empty(rows, cols));
        Self {
            gnc_sum: if ablation.featuregen_edges {
                Arc::clone(graph.gnc_sum())
            } else {
                empty(n_c, n_n.max(1))
            },
            gnc_mean: if ablation.hypermp_edges {
                Arc::clone(graph.gnc_mean())
            } else {
                empty(n_c, n_n.max(1))
            },
            gcn_mean: if ablation.hypermp_edges {
                Arc::clone(graph.gcn_mean())
            } else {
                empty(n_n.max(1), n_c)
            },
            lattice_mean: if ablation.latticemp_edges {
                Arc::clone(graph.lattice_mean())
            } else {
                empty(n_c, n_c)
            },
            num_gcells: n_c,
            num_gnets: n_n,
        }
    }

    /// A content fingerprint over all four operators and the node counts.
    ///
    /// Serving caches key predictions on this value: two `GraphOps`
    /// fingerprint equal iff every aggregation matrix is bitwise equal
    /// (ablated, sampled or rebuilt graphs all hash differently).
    ///
    /// Built from each operator's cached
    /// [`CsrMatrix::content_fingerprint`](neurograd::CsrMatrix::content_fingerprint)
    /// digest, so re-fingerprinting after an incremental
    /// [`GraphOps::patch_from`] only hashes the matrices that actually
    /// changed — untouched operators (and repeat requests against the
    /// same operators) answer from their memoised digest in O(1).
    pub fn fingerprint(&self) -> u64 {
        let mut h = neurograd::Fnv64::new();
        h.write_usize(self.num_gcells);
        h.write_usize(self.num_gnets);
        h.write_u64(self.gnc_sum.content_fingerprint());
        h.write_u64(self.gnc_mean.content_fingerprint());
        h.write_u64(self.gcn_mean.content_fingerprint());
        h.write_u64(self.lattice_mean.content_fingerprint());
        h.finish()
    }

    /// Block-diagonal stack of several designs' operators, for one
    /// forward over their vertically stacked features. The serving engine
    /// runs one forward per request; only the benchmark's block-diagonal
    /// rows call this.
    ///
    /// Each operator becomes [`CsrMatrix::block_diag`] of the blocks'
    /// operators, so design `i`'s G-cell rows only ever aggregate design
    /// `i`'s G-net/G-cell rows — with entries in the same per-row order —
    /// and every row-partitioned kernel produces per-design output rows
    /// bitwise identical to forwarding each design alone. Dense layers
    /// are row-local, so stacking features changes nothing there either.
    ///
    /// Transpose/fingerprint caches start cold; stacked operators are
    /// throwaway.
    pub fn block_diag(blocks: &[&GraphOps]) -> Self {
        fn stack(blocks: &[&GraphOps], pick: impl Fn(&GraphOps) -> &CsrMatrix) -> Arc<CsrMatrix> {
            let mats: Vec<&CsrMatrix> = blocks.iter().map(|b| pick(b)).collect();
            Arc::new(CsrMatrix::block_diag(&mats))
        }
        Self {
            gnc_sum: stack(blocks, |b| &b.gnc_sum),
            gnc_mean: stack(blocks, |b| &b.gnc_mean),
            gcn_mean: stack(blocks, |b| &b.gcn_mean),
            lattice_mean: stack(blocks, |b| &b.lattice_mean),
            num_gcells: blocks.iter().map(|b| b.num_gcells).sum(),
            num_gnets: blocks.iter().map(|b| b.num_gnets).sum(),
        }
    }

    /// Re-snapshots the operators from an incrementally patched graph.
    /// Matrices the patch left untouched are the very allocations this
    /// snapshot already shares, so warm transpose and fingerprint caches
    /// survive; ablated relations reuse this snapshot's existing empty
    /// matrices instead of allocating fresh ones.
    ///
    /// Equivalent in content to `GraphOps::from_graph(graph, ablation)` —
    /// fingerprints of the two are always equal — but O(1) in the
    /// untouched portion.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different G-cell count or fewer G-net
    /// columns than this snapshot (incremental patches never resize the
    /// lattice and only ever *append* G-net columns; a compaction must go
    /// through [`GraphOps::from_graph`]).
    pub fn patch_from(&self, graph: &LhGraph, ablation: &AblationSpec) -> Self {
        assert_eq!(
            self.num_gcells,
            graph.num_gcells(),
            "patch_from requires an unchanged g-cell count"
        );
        assert!(
            graph.num_gnets() >= self.num_gnets,
            "patch_from cannot shrink the g-net column space ({} -> {})",
            self.num_gnets,
            graph.num_gnets()
        );
        // Kept relations just Arc-clone from the patched graph: matrices
        // the patch left untouched are the *same allocation* this snapshot
        // already holds, so warm transpose and fingerprint caches survive
        // for free. Ablated relations reuse this snapshot's existing empty
        // matrices (keeping their memoised digests) instead of allocating.
        let keep_empty = |mine: &Arc<CsrMatrix>, rows: usize, cols: usize| {
            if mine.shape() == (rows, cols) && mine.nnz() == 0 {
                Arc::clone(mine)
            } else {
                Arc::new(CsrMatrix::empty(rows, cols))
            }
        };
        let (n_c, n_n) = (self.num_gcells, graph.num_gnets());
        Self {
            gnc_sum: if ablation.featuregen_edges {
                Arc::clone(graph.gnc_sum())
            } else {
                keep_empty(&self.gnc_sum, n_c, n_n.max(1))
            },
            gnc_mean: if ablation.hypermp_edges {
                Arc::clone(graph.gnc_mean())
            } else {
                keep_empty(&self.gnc_mean, n_c, n_n.max(1))
            },
            gcn_mean: if ablation.hypermp_edges {
                Arc::clone(graph.gcn_mean())
            } else {
                keep_empty(&self.gcn_mean, n_n.max(1), n_c)
            },
            lattice_mean: if ablation.latticemp_edges {
                Arc::clone(graph.lattice_mean())
            } else {
                keep_empty(&self.lattice_mean, n_c, n_c)
            },
            num_gcells: n_c,
            num_gnets: n_n,
        }
    }

    /// Pre-computes the cached CSR transpose of every operator.
    ///
    /// Backward passes apply `Sᵀ` for each `spmm` recorded on the tape;
    /// with the caches warm (they live inside the shared `Arc<CsrMatrix>`,
    /// so clones of this `GraphOps` benefit too) no training step ever
    /// rebuilds a transpose. Warming is invisible to results and to
    /// [`GraphOps::fingerprint`].
    pub fn warm_transpose_caches(&self) {
        let _ = self.gnc_sum.transpose_cached();
        let _ = self.gnc_mean.transpose_cached();
        let _ = self.gcn_mean.transpose_cached();
        let _ = self.lattice_mean.transpose_cached();
    }

    /// Returns a copy with each relation subsampled to the given fanouts
    /// `[featuregen, hypermp, latticemp]` (the paper's {6, 3, 2}).
    ///
    /// Mean operators are renormalised after sampling; the sum operator
    /// (`H`) is rescaled by `row_degree / kept` so expected messages are
    /// unbiased.
    pub fn sampled(&self, fanouts: [usize; 3], rng: &mut StdRng) -> Self {
        Self {
            gnc_sum: Arc::new(sample_rows(&self.gnc_sum, fanouts[0], true, rng)),
            gnc_mean: Arc::new(sample_rows(&self.gnc_mean, fanouts[1], false, rng)),
            gcn_mean: Arc::new(sample_rows(&self.gcn_mean, fanouts[1], false, rng)),
            lattice_mean: Arc::new(sample_rows(&self.lattice_mean, fanouts[2], false, rng)),
            num_gcells: self.num_gcells,
            num_gnets: self.num_gnets,
        }
    }
}

/// Keeps at most `fanout` random entries per row.
///
/// With `rescale_sum`, kept entries are scaled by `degree / kept` (unbiased
/// sum estimate); otherwise the row is renormalised to sum to 1 (mean
/// estimate).
fn sample_rows(csr: &CsrMatrix, fanout: usize, rescale_sum: bool, rng: &mut StdRng) -> CsrMatrix {
    let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
    for r in 0..csr.rows() {
        let entries: Vec<(usize, f32)> = csr.row_entries(r).collect();
        if entries.is_empty() {
            continue;
        }
        if entries.len() <= fanout {
            for (c, v) in entries {
                triplets.push((r, c, v));
            }
            continue;
        }
        let mut idx: Vec<usize> = (0..entries.len()).collect();
        idx.shuffle(rng);
        idx.truncate(fanout);
        if rescale_sum {
            let scale = entries.len() as f32 / fanout as f32;
            for &i in &idx {
                triplets.push((r, entries[i].0, entries[i].1 * scale));
            }
        } else {
            let kept_sum: f32 = idx.iter().map(|&i| entries[i].1).sum();
            let norm = if kept_sum > 0.0 { 1.0 / kept_sum } else { 0.0 };
            for &i in &idx {
                triplets.push((r, entries[i].0, entries[i].1 * norm));
            }
        }
    }
    CsrMatrix::from_triplets(csr.rows(), csr.cols(), &triplets)
}

/// Derives a fresh sampling RNG for an epoch from a base seed.
pub fn epoch_rng(seed: u64, epoch: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Convenience: random permutation of `0..n` (training-set shuffling).
pub fn shuffled_indices(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_graph::LhGraphConfig;
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_place::GlobalPlacer;

    fn graph() -> LhGraph {
        let cfg = SynthConfig { n_cells: 150, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default()).unwrap()
    }

    #[test]
    fn full_spec_shares_graph_matrices() {
        let g = graph();
        let ops = GraphOps::from_graph(&g, &AblationSpec::full());
        assert_eq!(ops.gnc_sum.nnz(), g.gnc_sum().nnz());
        assert_eq!(ops.lattice_mean.nnz(), g.lattice_mean().nnz());
        assert_eq!(ops.num_gcells, g.num_gcells());
        assert_eq!(ops.num_gnets, g.num_gnets());
    }

    #[test]
    fn ablations_zero_the_right_relations() {
        let g = graph();
        let no_fg = GraphOps::from_graph(&g, &AblationSpec::without_featuregen());
        assert_eq!(no_fg.gnc_sum.nnz(), 0);
        assert!(no_fg.gnc_mean.nnz() > 0);

        let no_hyper = GraphOps::from_graph(&g, &AblationSpec::without_hypermp());
        assert_eq!(no_hyper.gnc_mean.nnz(), 0);
        assert_eq!(no_hyper.gcn_mean.nnz(), 0);
        assert!(no_hyper.gnc_sum.nnz() > 0);
        assert!(no_hyper.lattice_mean.nnz() > 0);

        let no_lat = GraphOps::from_graph(&g, &AblationSpec::without_latticemp());
        assert_eq!(no_lat.lattice_mean.nnz(), 0);
        assert!(no_lat.gnc_mean.nnz() > 0);
    }

    #[test]
    fn ablation_preserves_shapes() {
        let g = graph();
        for spec in [
            AblationSpec::without_featuregen(),
            AblationSpec::without_hypermp(),
            AblationSpec::without_latticemp(),
        ] {
            let ops = GraphOps::from_graph(&g, &spec);
            assert_eq!(ops.gnc_sum.shape(), g.gnc_sum().shape());
            assert_eq!(ops.gcn_mean.shape(), g.gcn_mean().shape());
            assert_eq!(ops.lattice_mean.shape(), g.lattice_mean().shape());
        }
    }

    #[test]
    fn sampling_caps_row_degree() {
        let g = graph();
        let ops = GraphOps::from_graph(&g, &AblationSpec::full());
        let mut rng = StdRng::seed_from_u64(1);
        let sampled = ops.sampled([6, 3, 2], &mut rng);
        for r in 0..sampled.lattice_mean.rows() {
            assert!(sampled.lattice_mean.row_nnz(r) <= 2);
        }
        for r in 0..sampled.gnc_mean.rows() {
            assert!(sampled.gnc_mean.row_nnz(r) <= 3);
        }
        for r in 0..sampled.gnc_sum.rows() {
            assert!(sampled.gnc_sum.row_nnz(r) <= 6);
        }
    }

    #[test]
    fn sampled_mean_rows_stay_stochastic() {
        let g = graph();
        let ops = GraphOps::from_graph(&g, &AblationSpec::full());
        let mut rng = StdRng::seed_from_u64(2);
        let sampled = ops.sampled([6, 3, 2], &mut rng);
        for s in sampled.lattice_mean.row_sums() {
            assert!(s.abs() < 1e-6 || (s - 1.0).abs() < 1e-4, "row sum {s}");
        }
    }

    #[test]
    fn sampled_sum_is_unbiased_in_expectation() {
        // A row with 4 unit entries sampled at fanout 2 and rescaled by 2
        // has expected row sum 4.
        let csr =
            CsrMatrix::from_triplets(1, 4, &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let s = sample_rows(&csr, 2, true, &mut rng);
            total += s.row_sums()[0];
        }
        let mean = total / trials as f32;
        assert!((mean - 4.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn transpose_warmup_is_invisible_to_fingerprint_and_spmm_t() {
        use neurograd::Matrix;
        let g = graph();
        let ops = GraphOps::from_graph(&g, &AblationSpec::full());
        let fp_cold = ops.fingerprint();
        let x = Matrix::from_vec(
            ops.gnc_sum.rows(),
            2,
            (0..ops.gnc_sum.rows() * 2).map(|i| (i as f32).sin()).collect(),
        )
        .unwrap();
        let scatter = neurograd::kernels::reference::spmm_t_scatter(&ops.gnc_sum, &x);
        ops.warm_transpose_caches();
        assert!(ops.gnc_sum.transpose_cache_warm());
        assert!(ops.lattice_mean.transpose_cache_warm());
        assert_eq!(fp_cold, ops.fingerprint(), "cache warming must not change the fingerprint");
        // warm-path spmm_t is bitwise identical to the scatter reference
        assert!(ops.gnc_sum.spmm_t(&x).approx_eq(&scatter, 0.0));
        // clones share the warmed cache through the Arc'd operators
        let clone = ops.clone();
        assert!(clone.gcn_mean.transpose_cache_warm());
        assert_eq!(fp_cold, clone.fingerprint());
    }

    #[test]
    fn patch_from_matches_from_graph_and_keeps_arcs() {
        let g = graph();
        let ops = GraphOps::from_graph(&g, &AblationSpec::full());
        let fp = ops.fingerprint();
        // Patch against the *same* graph (the no-op patch): all four
        // operators must be carried over by pointer, fingerprint equal.
        let patched = ops.patch_from(&g, &AblationSpec::full());
        assert!(Arc::ptr_eq(&patched.gnc_sum, &ops.gnc_sum));
        assert!(Arc::ptr_eq(&patched.lattice_mean, &ops.lattice_mean));
        assert_eq!(patched.fingerprint(), fp);
        assert_eq!(
            patched.fingerprint(),
            GraphOps::from_graph(&g, &AblationSpec::full()).fingerprint()
        );
        // Ablated relations reuse the existing empty matrices.
        let ablated = GraphOps::from_graph(&g, &AblationSpec::without_latticemp());
        let ablated_patch = ablated.patch_from(&g, &AblationSpec::without_latticemp());
        assert!(Arc::ptr_eq(&ablated_patch.lattice_mean, &ablated.lattice_mean));
        assert_eq!(
            ablated_patch.fingerprint(),
            GraphOps::from_graph(&g, &AblationSpec::without_latticemp()).fingerprint()
        );
        assert_ne!(ablated_patch.fingerprint(), fp);
    }

    #[test]
    fn epoch_rng_varies_by_epoch_and_seed() {
        let a: u64 = epoch_rng(1, 0).gen();
        let b: u64 = epoch_rng(1, 1).gen();
        let c: u64 = epoch_rng(2, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        let a2: u64 = epoch_rng(1, 0).gen();
        assert_eq!(a, a2);
    }

    #[test]
    fn shuffled_indices_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut idx = shuffled_indices(20, &mut rng);
        idx.sort_unstable();
        assert_eq!(idx, (0..20).collect::<Vec<_>>());
    }
}
