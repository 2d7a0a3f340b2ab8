//! Golden pin: the default LHNN and HybridNet, seeded 0, against digests
//! recorded from the hand-written forwards these architectures started
//! with. The taped, stateless and spliced paths are all checked against
//! each other elsewhere; this pin ties them to the architecture itself —
//! the weights, the order and names of the parameter tensors (which
//! `.lhnn` checkpoints are matched by) and the prediction bits.

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig};
use lhnn::{AblationSpec, CongestionModel, GraphOps, HybridNet, HybridNetConfig, Lhnn, LhnnConfig};
use neurograd::{Fnv64, Matrix};
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_place::GlobalPlacer;

/// The 150-cell, 8×8 design the core unit tests use.
fn sample() -> (GraphOps, FeatureSet) {
    let cfg = SynthConfig { n_cells: 150, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
    let synth = generate(&cfg).unwrap();
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
    let graph = LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
        .unwrap();
    let feats =
        FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid).unwrap().normalized();
    (GraphOps::from_graph(&graph, &AblationSpec::full()), feats)
}

fn write_bits(h: &mut Fnv64, m: &Matrix) {
    h.write_usize(m.rows());
    h.write_usize(m.cols());
    for v in m.as_slice() {
        h.write_bytes(&v.to_bits().to_le_bytes());
    }
}

/// `(weights fingerprint, parameter-name digest, parameter count,
/// prediction digest)` of one model.
fn digests(model: &dyn CongestionModel) -> (u64, u64, usize, u64) {
    let mut names = Fnv64::new();
    for p in model.store().iter() {
        names.write_str(&p.name);
    }
    let (ops, feats) = sample();
    let pred = model.predict(&ops, &feats);
    let mut out = Fnv64::new();
    write_bits(&mut out, &pred.cls_prob);
    write_bits(&mut out, &pred.reg);
    (model.weights_fingerprint(), names.finish(), model.store().len(), out.finish())
}

#[test]
fn lhnn_matches_golden_digests() {
    let got = digests(&Lhnn::new(LhnnConfig::default(), 0));
    assert_eq!(got, (4729026147041877560, 9133918606498702310, 78, 9157429168535831897));
}

#[test]
fn hybridnet_matches_golden_digests() {
    let got = digests(&HybridNet::new(HybridNetConfig::default(), 0));
    assert_eq!(got, (2646359448257992452, 2095561924352528777, 40, 10130081839323972134));
}
