//! HybridNet: a dual-branch geometry + topology congestion predictor —
//! the second [`Arch`] behind the serving engine.
//!
//! PAPERS.md's HybridNet argues congestion has two complementary views:
//! a **geometry view** (local lattice neighbourhoods of the placement
//! grid) and a **topology view** (netlist connectivity). Where LHNN
//! interleaves its hypergraph and lattice hops in one stack, HybridNet
//! keeps the branches separate and fuses late:
//!
//! * **Geometry branch**: a residual lift of the raw G-cell features
//!   followed by `geo_layers` lattice blocks (`P⁻¹A` mean aggregation
//!   with a skip connection) — purely spatial.
//! * **Topology branch**: a residual lift of the raw G-net features,
//!   aggregated onto G-cells through `D⁻¹H`, then `topo_rounds` full
//!   cell→net→cell round trips (`B⁻¹Hᵀ` then `D⁻¹H`) with skip
//!   connections — purely relational.
//! * **Fusion head**: the branch embeddings are concatenated and fused
//!   by one linear layer feeding the shared classification/regression
//!   heads.
//!
//! The architecture is one [`Program`] over the same layers and
//! [`GraphOps`] operators as LHNN, so the taped, stateless and spliced
//! forwards all run it and it rides the same [`Model`], trainer, engine,
//! sessions and incremental forward.
//!
//! [`GraphOps`]: crate::GraphOps

use lh_graph::ChannelMode;
use neurograd::Activation;

use crate::model::{Arch, Model};
use crate::program::{Agg, Layers, Program};

/// HybridNet architecture hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridNetConfig {
    /// Hidden dimension of both branches.
    pub hidden: usize,
    /// Full cell→net→cell round trips in the topology branch.
    pub topo_rounds: usize,
    /// Lattice blocks in the geometry branch.
    pub geo_layers: usize,
    /// Raw G-cell feature width.
    pub gcell_in_dim: usize,
    /// Raw G-net feature width.
    pub gnet_in_dim: usize,
    /// Output channel mode (uni/duo).
    pub channel_mode: ChannelMode,
}

impl Default for HybridNetConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            topo_rounds: 1,
            geo_layers: 2,
            gcell_in_dim: 4,
            gnet_in_dim: 4,
            channel_mode: ChannelMode::Uni,
        }
    }
}

/// The HybridNet model.
pub type HybridNet = Model<HybridNetConfig>;

impl Arch for HybridNetConfig {
    const KIND: &'static str = "hybridnet";
    const KIND_IN_FINGERPRINT: bool = true;

    fn dims(&self) -> impl IntoIterator<Item = (&'static str, usize)> {
        [
            ("hidden", self.hidden),
            ("topo_rounds", self.topo_rounds),
            ("geo_layers", self.geo_layers),
            ("gcell_in_dim", self.gcell_in_dim),
            ("gnet_in_dim", self.gnet_in_dim),
        ]
    }

    fn from_dims(d: &[usize], channel_mode: ChannelMode) -> Self {
        Self {
            hidden: d[0],
            topo_rounds: d[1],
            geo_layers: d[2],
            gcell_in_dim: d[3],
            gnet_in_dim: d[4],
            channel_mode,
        }
    }

    fn channel_mode(&self) -> ChannelMode {
        self.channel_mode
    }

    fn build(&self, l: &mut Layers) -> Program {
        let cfg = self;
        let h = cfg.hidden;
        let relu = Activation::Relu;
        let (mut p, x_c, x_n) = Program::new(cfg.gcell_in_dim, cfg.gnet_in_dim);

        // Geometry branch: lift, then lattice hops with skips.
        let mut g = p.res(l.res("geo.lift", cfg.gcell_in_dim), x_c);
        for i in 0..cfg.geo_layers {
            let res = l.res(&format!("geo{i}.res"), h);
            let lin = l.lin(&format!("geo{i}.lin"), h, h, relu);
            let hh = p.res(res, g);
            let msg = p.spmm(Agg::LatticeMean, hh); // P⁻¹A
            let out = p.linear(lin, msg);
            g = p.add(out, g);
        }

        // Topology branch: lift nets, land on cells, round-trip.
        let t_n = p.res(l.res("topo.lift", cfg.gnet_in_dim), x_n);
        let agg = p.spmm(Agg::GncMean, t_n); // D⁻¹H
        let mut t = p.linear(l.lin("topo.in", h, h, relu), agg);
        for i in 0..cfg.topo_rounds {
            let res_c = l.res(&format!("topo{i}.res_c"), h);
            let lin_n = l.lin(&format!("topo{i}.lin_n"), h, h, relu);
            let lin_c = l.lin(&format!("topo{i}.lin_c"), h, h, relu);
            let hc = p.res(res_c, t);
            let m_n = p.spmm(Agg::GcnMean, hc); // B⁻¹Hᵀ
            let hn = p.linear(lin_n, m_n);
            let m_c = p.spmm(Agg::GncMean, hn); // D⁻¹H
            let upd = p.linear(lin_c, m_c);
            t = p.add(upd, t);
        }

        // Late fusion + heads.
        let fuse = l.lin("fuse", 2 * h, h, relu);
        let cat = p.concat(g, t);
        let fused = p.linear(fuse, cat);
        let out = cfg.channel_mode.channels();
        let cls = p.linear(l.lin("head.cls", h, out, Activation::Identity), fused);
        let reg = p.linear(l.lin("head.reg", h, out, Activation::Identity), fused);
        p.finish(cls, reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionModel;
    use crate::incremental::{IncrementalForward, SpliceOutcome};
    use crate::ops::GraphOps;
    use crate::program::ModelScratch;
    use lh_graph::FeatureSet;
    use neurograd::Tape;

    fn sample() -> (GraphOps, FeatureSet) {
        crate::program::test_design(150, 8)
    }

    #[test]
    fn forward_shapes() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 0);
        let pred = model.predict(&ops, &feats);
        assert_eq!(pred.cls_prob.shape(), (ops.num_gcells, 1));
        assert_eq!(pred.reg.shape(), (ops.num_gcells, 1));
        assert!(pred.cls_prob.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn fused_predict_matches_taped_forward() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 5);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let prob = tape.sigmoid(out.cls_logits);
        let taped_prob = tape.value(prob).clone();
        let taped_reg = tape.value(out.reg).clone();
        let fused = model.predict(&ops, &feats);
        assert!(taped_prob.approx_eq(&fused.cls_prob, 0.0));
        assert!(taped_reg.approx_eq(&fused.reg, 0.0));
    }

    #[test]
    fn predict_with_reuses_scratch_and_matches_predict() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 3);
        let direct = model.predict(&ops, &feats);
        let mut scratch = ModelScratch::new();
        for _ in 0..3 {
            let again = model.predict_with(&ops, &feats, &mut scratch);
            assert!(direct.cls_prob.approx_eq(&again.cls_prob, 0.0));
            assert!(direct.reg.approx_eq(&again.reg, 0.0));
        }
    }

    #[test]
    fn incremental_full_refresh_matches_direct_predict() {
        let (ops, feats) = sample();
        let model = HybridNet::new(HybridNetConfig::default(), 0);
        let version = CongestionModel::weights_fingerprint(&model);
        let direct = model.predict(&ops, &feats);
        let inc = IncrementalForward::new();
        let (pred, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0));
        assert!(direct.reg.approx_eq(&pred.reg, 0.0));
    }

    #[test]
    fn fingerprint_is_disjoint_from_lhnn_and_tracks_weights() {
        let a = HybridNet::new(HybridNetConfig::default(), 0);
        let b = HybridNet::new(HybridNetConfig::default(), 0);
        assert_eq!(a.weights_fingerprint(), b.weights_fingerprint());
        let other_seed = HybridNet::new(HybridNetConfig::default(), 1);
        assert_ne!(a.weights_fingerprint(), other_seed.weights_fingerprint());
        let lhnn = crate::Lhnn::new(crate::LhnnConfig::default(), 0);
        assert_ne!(a.weights_fingerprint(), lhnn.weights_fingerprint());
    }

    #[test]
    fn gradient_flows_to_all_parameters() {
        let (ops, feats) = sample();
        let mut model = HybridNet::new(HybridNetConfig::default(), 0);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let s1 = tape.sum_all(out.cls_logits);
        let s2 = tape.sum_all(out.reg);
        let loss = tape.add(s1, s2);
        tape.backward(loss);
        model.store.absorb_grads(&mut tape);
        let with_grad =
            model.store.iter().filter(|p| p.grad.as_slice().iter().any(|&g| g != 0.0)).count();
        let total = model.store.len();
        assert!(
            with_grad * 10 >= total * 8,
            "only {with_grad}/{total} parameter tensors got gradients"
        );
    }
}
