//! One model type for every architecture, and the LHNN architecture
//! (§4 of the paper, Figure 3).
//!
//! A [`Model`] is a config, the parameter store its program reads and
//! that block [`Program`]; an architecture is the [`Arch`] the config
//! implements — its kind tag, its named hyper-parameters and the program
//! it declares. The taped training forward, the stateless predict and the
//! incremental splice all interpret the program, so one
//! [`CongestionModel`] impl, one `.lhnn` codec and one fingerprint serve
//! every architecture.
//!
//! LHNN composes three block types:
//!
//! * **FeatureGen** (Eq. 1–2): residual MLPs lift the raw 4-channel G-cell
//!   and G-net features to the hidden dimension; G-net embeddings are
//!   sum-aggregated onto G-cells through `G_nc = H` and fused by a linear
//!   layer — the learned analogue of crafted-feature generation.
//! * **HyperMP**: alternating G-cell → G-net (`B⁻¹Hᵀ`) and G-net → G-cell
//!   (`D⁻¹H`) message passing with residual transforms, fusing each
//!   direction with the FeatureGen embeddings — the topological receptive
//!   field.
//! * **LatticeMP**: mean aggregation over the 4-neighbour lattice
//!   (`P⁻¹A`) with a skip connection — the geometric receptive field.
//!
//! The encoder stacks 2×HyperMP + 1×LatticeMP; the joint phase stacks two
//! more LatticeMP blocks and ends in two heads: congestion classification
//! (logits; trained with the γ-weighted BCE of Eq. 5) and routing-demand
//! regression (Eq. 4).

use lh_graph::ChannelMode;
use neurograd::{Activation, Matrix, ParamStore, Var};

use crate::config::LhnnConfig;
use crate::congestion::CongestionModel;
use crate::program::{Agg, Layers, Program};

/// Model outputs for one graph.
#[derive(Debug, Clone)]
pub struct LhnnOutput {
    /// Congestion logits, `N_c × channels` (apply sigmoid for
    /// probabilities).
    pub cls_logits: Var,
    /// Routing-demand regression, `N_c × channels`.
    pub reg: Var,
}

/// Dense (tape-free) predictions.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Congestion probabilities, `N_c × channels`.
    pub cls_prob: Matrix,
    /// Demand regression values, `N_c × channels`.
    pub reg: Matrix,
}

/// An architecture: the config of one model family, which declares the
/// family's block program.
pub trait Arch: Default + Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The kind tag: the `.lhnn` checkpoint's `kind`, the scratch-slot
    /// key and the `kind=` metrics label. Unique per architecture.
    const KIND: &'static str;

    /// Whether the weights fingerprint hashes [`Arch::KIND`] first.
    /// LHNN's does not: its fingerprint predates kinds.
    const KIND_IN_FINGERPRINT: bool;

    /// The named integer hyper-parameters in checkpoint-header order,
    /// `hidden` first; `gcell_in_dim` and `gnet_in_dim` are among them.
    fn dims(&self) -> impl IntoIterator<Item = (&'static str, usize)>;

    /// The config with `dims` (one value per [`Arch::dims`] entry, in
    /// order) and `channel_mode`.
    fn from_dims(dims: &[usize], channel_mode: ChannelMode) -> Self;

    /// Output channel mode (uni/duo).
    fn channel_mode(&self) -> ChannelMode;

    /// Declares the forward, registering its layers in `l` in the order
    /// checkpoints store them.
    fn build(&self, l: &mut Layers) -> Program;
}

/// A congestion model: an architecture's config, its parameters and its
/// block program.
#[derive(Debug)]
pub struct Model<A: Arch> {
    pub(crate) cfg: A,
    pub(crate) store: ParamStore,
    program: Program,
}

/// The LHNN model.
pub type Lhnn = Model<LhnnConfig>;

impl<A: Arch> Model<A> {
    /// Creates a model with seeded initialisation.
    pub fn new(cfg: A, seed: u64) -> Self {
        let mut l = Layers::new(seed, dim(&cfg, "hidden"));
        let program = cfg.build(&mut l);
        Self { cfg, store: l.store, program }
    }

    /// The model configuration.
    pub fn config(&self) -> &A {
        &self.cfg
    }
}

/// The value of `cfg`'s hyper-parameter `key`.
fn dim<A: Arch>(cfg: &A, key: &str) -> usize {
    let found = cfg.dims().into_iter().find(|(k, _)| *k == key);
    found.unwrap_or_else(|| panic!("{} has no `{key}`", A::KIND)).1
}

impl<A: Arch> CongestionModel for Model<A> {
    fn kind(&self) -> &'static str {
        A::KIND
    }

    fn gcell_in_dim(&self) -> usize {
        dim(&self.cfg, "gcell_in_dim")
    }

    fn gnet_in_dim(&self) -> usize {
        dim(&self.cfg, "gnet_in_dim")
    }

    fn hidden(&self) -> usize {
        dim(&self.cfg, "hidden")
    }

    fn channel_mode(&self) -> ChannelMode {
        self.cfg.channel_mode()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn weights_fingerprint(&self) -> u64 {
        let mut h = neurograd::Fnv64::new();
        if A::KIND_IN_FINGERPRINT {
            h.write_str(A::KIND);
        }
        for (_, v) in self.cfg.dims() {
            h.write_usize(v);
        }
        h.write_usize(self.channels());
        for p in self.store.iter() {
            h.write_str(&p.name);
            p.value.hash_into(&mut h);
        }
        h.finish()
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn save_to(&self, w: &mut dyn std::io::Write) -> Result<(), crate::serialize::ModelIoError> {
        self.save(w)
    }
}

impl Arch for LhnnConfig {
    const KIND: &'static str = "lhnn";
    const KIND_IN_FINGERPRINT: bool = false;

    fn dims(&self) -> impl IntoIterator<Item = (&'static str, usize)> {
        [
            ("hidden", self.hidden),
            ("hypermp_layers", self.hypermp_layers),
            ("latticemp_encode_layers", self.latticemp_encode_layers),
            ("latticemp_joint_layers", self.latticemp_joint_layers),
            ("gcell_in_dim", self.gcell_in_dim),
            ("gnet_in_dim", self.gnet_in_dim),
        ]
    }

    fn from_dims(d: &[usize], channel_mode: ChannelMode) -> Self {
        Self {
            hidden: d[0],
            hypermp_layers: d[1],
            latticemp_encode_layers: d[2],
            latticemp_joint_layers: d[3],
            gcell_in_dim: d[4],
            gnet_in_dim: d[5],
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

        // FeatureGen (Eq. 1–2).
        let f_c = l.res("featuregen.f_c", cfg.gcell_in_dim);
        let f_n = l.res("featuregen.f_n", cfg.gnet_in_dim);
        let phi_c = l.lin("featuregen.phi_c", 2 * h, h, relu);
        let phi_n = l.lin("featuregen.phi_n", h, h, relu);
        let fc = p.res(f_c, x_c);
        let fn_ = p.res(f_n, x_n);
        // V_c1 = φ_c( f_c(V_c0) ∥ G_nc f_n(V_n0) ), G_nc = H (sum)
        let agg = p.spmm(Agg::GncSum, fn_);
        let cat = p.concat(fc, agg);
        let v_c1 = p.linear(phi_c, cat);
        // V_n1 = φ_n( f_n(V_n0) )
        let v_n1 = p.linear(phi_n, fn_);

        // HyperMP: one G-cell → G-net and one G-net → G-cell half-step,
        // each fused with the FeatureGen embeddings.
        let (mut v_c, mut v_n) = (v_c1, v_n1);
        for i in 0..cfg.hypermp_layers {
            let name = |part: &str| format!("hypermp{i}.{part}");
            let res_c_in = l.res(&name("res_c_in"), h);
            let res_n_prev = l.res(&name("res_n_prev"), h);
            let fuse_n = l.lin(&name("fuse_n"), 2 * h, h, relu);
            let res_n_in = l.res(&name("res_n_in"), h);
            let res_c_prev = l.res(&name("res_c_prev"), h);
            let fuse_c = l.lin(&name("fuse_c"), 2 * h, h, relu);
            let hc = p.res(res_c_in, v_c);
            let msg_n = p.spmm(Agg::GcnMean, hc); // B⁻¹Hᵀ
            let cat_n = p.concat(msg_n, v_n1);
            let fused_n = p.linear(fuse_n, cat_n);
            let prev_n = p.res(res_n_prev, v_n);
            v_n = p.add(fused_n, prev_n);
            // Symmetric, using the updated G-net state.
            let hn = p.res(res_n_in, v_n);
            let msg_c = p.spmm(Agg::GncMean, hn); // D⁻¹H
            let cat_c = p.concat(msg_c, v_c1);
            let fused_c = p.linear(fuse_c, cat_c);
            let prev_c = p.res(res_c_prev, v_c);
            v_c = p.add(fused_c, prev_c);
        }

        // LatticeMP (encode, then joint): lattice mean aggregation with a
        // skip connection.
        let lattice = (0..cfg.latticemp_encode_layers)
            .map(|i| format!("lattice_enc{i}"))
            .chain((0..cfg.latticemp_joint_layers).map(|i| format!("lattice_joint{i}")));
        for name in lattice {
            let res = l.res(&format!("{name}.res"), h);
            let lin = l.lin(&format!("{name}.lin"), h, h, relu);
            let hh = p.res(res, v_c);
            let msg = p.spmm(Agg::LatticeMean, hh); // P⁻¹A
            let out = p.linear(lin, msg);
            v_c = p.add(out, v_c);
        }

        // Heads: congestion logits and demand regression.
        let out = cfg.channel_mode.channels();
        let cls = p.linear(l.lin("head.cls", h, out, Activation::Identity), v_c);
        let reg = p.linear(l.lin("head.reg", h, out, Activation::Identity), v_c);
        p.finish(cls, reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationSpec;
    use crate::ops::GraphOps;
    use crate::program::ModelScratch;
    use lh_graph::{ChannelMode, FeatureSet, LhGraph, LhGraphConfig};
    use neurograd::Tape;
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_place::GlobalPlacer;

    fn sample() -> (GraphOps, FeatureSet) {
        crate::program::test_design(150, 8)
    }

    #[test]
    fn forward_shapes_uni() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let pred = model.predict(&ops, &feats);
        assert_eq!(pred.cls_prob.shape(), (ops.num_gcells, 1));
        assert_eq!(pred.reg.shape(), (ops.num_gcells, 1));
        assert!(pred.cls_prob.as_slice().iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn forward_shapes_duo() {
        let (ops, feats) = sample();
        let cfg = LhnnConfig { channel_mode: ChannelMode::Duo, ..Default::default() };
        let model = Lhnn::new(cfg, 0);
        let pred = model.predict(&ops, &feats);
        assert_eq!(pred.cls_prob.shape(), (ops.num_gcells, 2));
    }

    #[test]
    fn predict_with_reuses_scratch_and_matches_predict() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 3);
        let direct = model.predict(&ops, &feats);
        let mut scratch = ModelScratch::new();
        for _ in 0..3 {
            let again = model.predict_with(&ops, &feats, &mut scratch);
            // bitwise equality — tolerance 0.0
            assert!(direct.cls_prob.approx_eq(&again.cls_prob, 0.0));
            assert!(direct.reg.approx_eq(&again.reg, 0.0));
        }
        assert!(scratch.buffer_elems() > 0);
    }

    #[test]
    fn fused_predict_matches_taped_forward() {
        // The fused tape-free inference path must stay bitwise identical
        // to recording the forward on a tape and applying the sigmoid —
        // the invariant every serving parity pin ultimately rests on.
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 5);
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
    fn weights_fingerprint_tracks_weights_and_config() {
        let a = Lhnn::new(LhnnConfig::default(), 0);
        let b = Lhnn::new(LhnnConfig::default(), 0);
        assert_eq!(a.weights_fingerprint(), b.weights_fingerprint());
        let other_seed = Lhnn::new(LhnnConfig::default(), 1);
        assert_ne!(a.weights_fingerprint(), other_seed.weights_fingerprint());
        let other_cfg = Lhnn::new(LhnnConfig { hidden: 16, ..Default::default() }, 0);
        assert_ne!(a.weights_fingerprint(), other_cfg.weights_fingerprint());
        // mutating any tensor changes the version
        let mut c = Lhnn::new(LhnnConfig::default(), 0);
        let id = c.store().id_at(0);
        c.store_mut().param_mut(id).value.as_mut_slice()[0] += 1.0;
        assert_ne!(a.weights_fingerprint(), c.weights_fingerprint());
    }

    #[test]
    fn init_is_seed_deterministic() {
        let (ops, feats) = sample();
        let a = Lhnn::new(LhnnConfig::default(), 7).predict(&ops, &feats);
        let b = Lhnn::new(LhnnConfig::default(), 7).predict(&ops, &feats);
        let c = Lhnn::new(LhnnConfig::default(), 8).predict(&ops, &feats);
        assert!(a.cls_prob.approx_eq(&b.cls_prob, 0.0));
        assert!(!a.cls_prob.approx_eq(&c.cls_prob, 1e-6));
    }

    #[test]
    fn ablated_models_still_run() {
        let cfg = SynthConfig { n_cells: 150, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let graph =
            LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
                .unwrap();
        let feats = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)
            .unwrap()
            .normalized();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        for spec in [
            AblationSpec::without_featuregen(),
            AblationSpec::without_hypermp(),
            AblationSpec::without_latticemp(),
        ] {
            let ops = GraphOps::from_graph(&graph, &spec);
            let pred = model.predict(&ops, &feats);
            assert!(pred.cls_prob.is_finite(), "{spec:?} produced non-finite output");
        }
    }

    #[test]
    fn parameter_count_is_stable_across_ablation() {
        // edge ablations must not change the parameter count
        let full = Lhnn::new(LhnnConfig::default(), 0).num_parameters();
        let again = Lhnn::new(LhnnConfig::default(), 1).num_parameters();
        assert_eq!(full, again);
        assert!(full > 10_000, "suspiciously small model: {full}");
    }

    #[test]
    fn gradient_flows_to_all_parameters() {
        let (ops, feats) = sample();
        let mut model = Lhnn::new(LhnnConfig::default(), 0);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let s1 = tape.sum_all(out.cls_logits);
        let s2 = tape.sum_all(out.reg);
        let loss = tape.add(s1, s2);
        tape.backward(loss);
        model.store_mut().absorb_grads(&mut tape);
        let with_grad =
            model.store().iter().filter(|p| p.grad.as_slice().iter().any(|&g| g != 0.0)).count();
        let total = model.store().len();
        // every parameter tensor should receive gradient (relu dead units
        // can zero a few, allow some slack)
        assert!(
            with_grad * 10 >= total * 8,
            "only {with_grad}/{total} parameter tensors got gradients"
        );
    }
}
