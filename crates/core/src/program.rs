//! One block program per architecture, and the interpreters that run it.
//!
//! An architecture declares its forward once, as a [`Program`]: an ordered
//! list of ops over tensors, each tensor tagged with its side — one row
//! per G-cell or one row per G-net. The ops are the paper's building
//! blocks: [`Linear`], [`ResBlock`], a sparse aggregation through one of
//! the four [`GraphOps`] operators, column concatenation and addition.
//! The model's two heads (congestion logits, demand regression) are the
//! program's outputs; the congestion sigmoid is applied on top.
//!
//! Two interpreters run every program:
//!
//! * a tape builder records it on a [`Tape`] — the training path;
//! * one row-subset executor runs it tape-free. Its all-rows case is the
//!   stateless predict ([`crate::CongestionModel::predict_with`]), which
//!   packs tensors into reusable [`ModelScratch`] buffers by liveness;
//!   its dirty-rows case is the splice behind
//!   [`crate::IncrementalForward`], over a state that keeps every tensor
//!   of the last forward.
//!
//! # Splicing
//!
//! A splice starts from the dirty G-cell and G-net rows and recomputes each
//! op at the current rows of its output side. Before each aggregation
//! `S · x` it widens the output side's rows by every row of `S` that
//! stores a column among the input side's rows — the set
//! `halo::dilate(Sᵀ, input rows)` names, found in pull form by one scan of
//! `S`, so a freshly patched operator never builds its transpose. Rows
//! only ever grow, so every tensor is recomputed at a superset of the rows
//! whose value changed, and rows outside the set keep their cached values.
//!
//! # Bitwise contract
//!
//! Both interpreters apply the same per-element float sequence for every
//! op (a fused linear accumulates in `k` order, adds the bias and applies
//! [`neurograd::Activation::eval`], exactly like the tape), and every
//! output row is an independent fixed sequence of operations. So the taped
//! forward plus a sigmoid, the stateless predict and any splice agree bit
//! for bit, at any thread count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lh_graph::FeatureSet;
use neurograd::kernels::{self, Rows};
use neurograd::{
    stable_sigmoid, Activation, CsrMatrix, Linear, Matrix, ParamStore, ResBlock, Tape,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::{LhnnOutput, Prediction};
use crate::ops::GraphOps;

/// Registers layers into a fresh parameter store, drawing their initial
/// weights from one seeded RNG in call order — the order and names
/// `.lhnn` checkpoints match tensors by. [`crate::model::Arch::build`] declares
/// an architecture's layers through one.
#[derive(Debug)]
pub struct Layers {
    pub(crate) store: ParamStore,
    rng: StdRng,
    hidden: usize,
}

impl Layers {
    pub(crate) fn new(seed: u64, hidden: usize) -> Self {
        Self { store: ParamStore::new(), rng: StdRng::seed_from_u64(seed), hidden }
    }

    /// A ReLU residual block `in_dim → hidden → hidden`.
    pub(crate) fn res(&mut self, name: &str, in_dim: usize) -> ResBlock {
        let h = self.hidden;
        ResBlock::new(&mut self.store, name, in_dim, h, h, Activation::Relu, &mut self.rng)
    }

    /// A linear layer `in_dim → out_dim`.
    pub(crate) fn lin(
        &mut self,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
    ) -> Linear {
        Linear::new(&mut self.store, name, in_dim, out_dim, act, &mut self.rng)
    }
}

/// The rows a tensor has: one per G-cell or one per G-net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// One row per G-cell.
    Cell,
    /// One row per G-net.
    Net,
}

/// A sparse aggregation: one of the four [`GraphOps`] operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Agg {
    /// `G_nc = H`: sums G-net rows onto G-cells.
    GncSum,
    /// `D⁻¹H`: averages G-net rows onto G-cells.
    GncMean,
    /// `B⁻¹Hᵀ`: averages G-cell rows onto G-nets.
    GcnMean,
    /// `P⁻¹A`: averages the 4-neighbour lattice.
    LatticeMean,
}

impl Agg {
    fn matrix(self, ops: &GraphOps) -> &Arc<CsrMatrix> {
        match self {
            Agg::GncSum => &ops.gnc_sum,
            Agg::GncMean => &ops.gnc_mean,
            Agg::GcnMean => &ops.gcn_mean,
            Agg::LatticeMean => &ops.lattice_mean,
        }
    }

    /// `(input side, output side)`.
    fn sides(self) -> (Side, Side) {
        match self {
            Agg::GncSum | Agg::GncMean => (Side::Net, Side::Cell),
            Agg::GcnMean => (Side::Cell, Side::Net),
            Agg::LatticeMean => (Side::Cell, Side::Cell),
        }
    }
}

/// A tensor of a [`Program`]: the raw G-cell features, the raw G-net
/// features, or the output of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tensor(usize);

/// One op; op `i` produces tensor `i + 2`.
#[derive(Debug, Clone)]
enum Op {
    Linear(Linear, Tensor),
    ResBlock(ResBlock, Tensor),
    Spmm(Agg, Tensor),
    Concat(Tensor, Tensor),
    Add(Tensor, Tensor),
}

impl Op {
    fn inputs(&self) -> [Tensor; 2] {
        match *self {
            Op::Linear(_, x) | Op::ResBlock(_, x) | Op::Spmm(_, x) => [x, x],
            Op::Concat(a, b) | Op::Add(a, b) => [a, b],
        }
    }
}

/// Where an executor keeps each tensor: an index into a buffer vector,
/// plus two scratch buffers per [`ResBlock`] for its inner activations.
#[derive(Debug, Clone, Default)]
struct Plan {
    /// Buffer of each tensor (unused for the two inputs, which are read
    /// from the features).
    tensor: Vec<usize>,
    /// `[inner, pre-activation]` scratch buffers of each ResBlock op.
    scratch: Vec<[usize; 2]>,
    /// `(side, cols)` of each buffer.
    buffers: Vec<(Side, usize)>,
}

impl Plan {
    /// With `keep_all`, every tensor gets a buffer of its own, so the
    /// buffers hold the whole last forward. Without it, a tensor's buffer
    /// is reused once the last op reading it has run. Either way an op's
    /// output and scratch buffers never alias its inputs.
    fn new(program: &Program, keep_all: bool) -> Self {
        let n = program.shapes.len();
        // The op reading each tensor last (its producer when unread); the
        // outputs stay live to the end.
        let mut last_read: Vec<usize> = (0..n).map(|t| t.saturating_sub(2)).collect();
        for (i, op) in program.ops.iter().enumerate() {
            for x in op.inputs() {
                last_read[x.0] = i;
            }
        }
        for out in program.outputs {
            last_read[out.0] = usize::MAX;
        }
        let mut plan = Plan {
            tensor: vec![usize::MAX; n],
            scratch: vec![[usize::MAX; 2]; program.ops.len()],
            buffers: Vec::new(),
        };
        // Buffers free for reuse; with `keep_all` only ResBlock scratch.
        let mut free: Vec<usize> = Vec::new();
        for (i, op) in program.ops.iter().enumerate() {
            let shape = program.shapes[i + 2];
            plan.tensor[i + 2] = plan.take(&mut free, shape, !keep_all);
            if let Op::ResBlock(block, _) = op {
                let h = plan.take(&mut free, (shape.0, block.hidden_dim()), true);
                let y = plan.take(&mut free, (shape.0, block.out_dim()), true);
                plan.scratch[i] = [h, y];
                free.extend([h, y]);
            }
            for x in op.inputs() {
                let b = plan.tensor[x.0];
                if !keep_all && x.0 >= 2 && last_read[x.0] == i && !free.contains(&b) {
                    free.push(b);
                }
            }
        }
        plan
    }

    /// A free buffer of `shape` when `reuse` allows one, else a new one.
    fn take(&mut self, free: &mut Vec<usize>, shape: (Side, usize), reuse: bool) -> usize {
        match free.iter().position(|&b| reuse && self.buffers[b] == shape) {
            Some(i) => free.swap_remove(i),
            None => {
                self.buffers.push(shape);
                self.buffers.len() - 1
            }
        }
    }
}

/// Sizes `buffers` to `plan` for `n_c` G-cells and `n_n` G-nets, keeping
/// every buffer that already has its shape.
fn fit(buffers: &mut Vec<Matrix>, plan: &Plan, n_c: usize, n_n: usize) {
    buffers.resize_with(plan.buffers.len(), Matrix::default);
    for (m, &(side, cols)) in buffers.iter_mut().zip(&plan.buffers) {
        let rows = if side == Side::Cell { n_c } else { n_n };
        if m.shape() != (rows, cols) {
            *m = Matrix::zeros(rows, cols);
        }
    }
}

/// The rows a splice recomputes: the dirty G-cell and G-net rows, widened
/// at each aggregation as the program runs.
#[derive(Debug)]
pub(crate) struct Halo {
    pub(crate) cells: Vec<usize>,
    pub(crate) nets: Vec<usize>,
    /// Time spent widening, accumulated when `Some`.
    pub(crate) dilate: Option<Duration>,
}

impl Halo {
    fn rows(&self, side: Side) -> &[usize] {
        match side {
            Side::Cell => &self.cells,
            Side::Net => &self.nets,
        }
    }

    /// Widens `agg`'s output side by every row it reaches from the input
    /// side's rows, in pull form on the operator `S` itself: an output row
    /// joins when it is already in the halo or one of its stored columns
    /// is a marked input row. `Sᵀ` stores the same entries, so this is
    /// exactly `dilate(Sᵀ, input rows) ∪ output rows`, for one scan of `S`
    /// and no transpose.
    fn widen(&mut self, agg: Agg, ops: &GraphOps) {
        let t0 = self.dilate.is_some().then(Instant::now);
        let (from, to) = agg.sides();
        let m = agg.matrix(ops);
        let mut marked = vec![false; m.cols()];
        for &r in self.rows(from) {
            marked[r] = true;
        }
        let held = self.rows(to);
        let mut grown = Vec::with_capacity(m.rows());
        let mut next = held.iter().peekable();
        for r in 0..m.rows() {
            if next.next_if_eq(&&r).is_some() || m.row_slices(r).0.iter().any(|&c| marked[c]) {
                grown.push(r);
            }
        }
        grown.extend(next);
        match to {
            Side::Cell => self.cells = grown,
            Side::Net => self.nets = grown,
        }
        if let (Some(d), Some(t0)) = (&mut self.dilate, t0) {
            *d += t0.elapsed();
        }
    }
}

/// Reusable buffers for the tape-free forward.
///
/// The stateless predict runs through one, so a thread that keeps it
/// serves steady-state requests with no heap allocation beyond the
/// returned prediction (buffers are rebuilt only when the request shape
/// or the model changes). The same type holds a session's cached forward
/// inside [`crate::IncrementalForward`].
#[derive(Debug, Default)]
pub struct ModelScratch {
    buffers: Vec<Matrix>,
}

impl ModelScratch {
    /// An empty scratch; buffers appear on the first forward.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total `f32` elements held by the buffers (capacity diagnostics).
    #[cfg(test)]
    pub(crate) fn buffer_elems(&self) -> usize {
        self.buffers.iter().map(|m| m.as_slice().len()).sum()
    }
}

/// An architecture's forward, declared once (see the module docs).
///
/// Built op by op — each builder method appends one op and returns its
/// output tensor — and sealed by `finish`, which plans the executor's
/// buffers.
#[derive(Debug, Clone)]
pub struct Program {
    /// `(side, cols)` of each tensor.
    shapes: Vec<(Side, usize)>,
    ops: Vec<Op>,
    /// Congestion logits and demand regression.
    outputs: [Tensor; 2],
    /// Liveness-packed buffers for the stateless predict.
    stateless: Plan,
    /// A buffer per tensor for the splice state.
    session: Plan,
}

impl Program {
    /// An empty program over `gcell_in_dim`-wide G-cell features and
    /// `gnet_in_dim`-wide G-net features; returns it with those two input
    /// tensors.
    pub(crate) fn new(gcell_in_dim: usize, gnet_in_dim: usize) -> (Self, Tensor, Tensor) {
        let program = Self {
            shapes: vec![(Side::Cell, gcell_in_dim), (Side::Net, gnet_in_dim)],
            ops: Vec::new(),
            outputs: [Tensor(0); 2],
            stateless: Plan::default(),
            session: Plan::default(),
        };
        (program, Tensor(0), Tensor(1))
    }

    fn push(&mut self, op: Op, shape: (Side, usize)) -> Tensor {
        self.ops.push(op);
        self.shapes.push(shape);
        Tensor(self.shapes.len() - 1)
    }

    /// `layer(x)`, row by row.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width is not the layer's input width.
    pub(crate) fn linear(&mut self, layer: Linear, x: Tensor) -> Tensor {
        let (side, cols) = self.shapes[x.0];
        assert_eq!(cols, layer.in_dim(), "linear input width mismatch");
        let out = layer.out_dim();
        self.push(Op::Linear(layer, x), (side, out))
    }

    /// `block(x)`, row by row.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width is not the block's input width.
    pub(crate) fn res(&mut self, block: ResBlock, x: Tensor) -> Tensor {
        let (side, cols) = self.shapes[x.0];
        assert_eq!(cols, block.in_dim(), "resblock input width mismatch");
        let out = block.out_dim();
        self.push(Op::ResBlock(block, x), (side, out))
    }

    /// The aggregation `agg · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not on `agg`'s input side.
    pub(crate) fn spmm(&mut self, agg: Agg, x: Tensor) -> Tensor {
        let (side, cols) = self.shapes[x.0];
        let (from, to) = agg.sides();
        assert_eq!(side, from, "{agg:?} reads {from:?} rows");
        self.push(Op::Spmm(agg, x), (to, cols))
    }

    /// Column concatenation `[a | b]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are on different sides.
    pub(crate) fn concat(&mut self, a: Tensor, b: Tensor) -> Tensor {
        let ((side, ca), (side_b, cb)) = (self.shapes[a.0], self.shapes[b.0]);
        assert_eq!(side, side_b, "concat across sides");
        self.push(Op::Concat(a, b), (side, ca + cb))
    }

    /// Element-wise `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in side or width.
    pub(crate) fn add(&mut self, a: Tensor, b: Tensor) -> Tensor {
        let shape = self.shapes[a.0];
        assert_eq!(shape, self.shapes[b.0], "add shape mismatch");
        self.push(Op::Add(a, b), shape)
    }

    /// Seals the program with its heads: `cls` (congestion logits) and
    /// `reg` (demand regression), both G-cell tensors no op reads.
    ///
    /// # Panics
    ///
    /// Panics if a head is not a G-cell tensor or is read by an op.
    pub(crate) fn finish(mut self, cls: Tensor, reg: Tensor) -> Self {
        for head in [cls, reg] {
            assert_eq!(self.shapes[head.0].0, Side::Cell, "heads must be G-cell tensors");
            assert!(
                self.ops.iter().all(|op| !op.inputs().contains(&head)),
                "heads must not feed other ops"
            );
        }
        self.outputs = [cls, reg];
        self.stateless = Plan::new(&self, false);
        self.session = Plan::new(&self, true);
        self
    }

    fn check_inputs(&self, features: &FeatureSet) {
        assert_eq!(features.gcell.cols(), self.shapes[0].1, "g-cell feature dim mismatch");
        assert_eq!(features.gnet.cols(), self.shapes[1].1, "g-net feature dim mismatch");
    }

    /// Records the forward on `tape` — the training interpreter. Ops are
    /// recorded in program order.
    ///
    /// # Panics
    ///
    /// Panics if feature widths disagree with the program's inputs.
    pub(crate) fn tape_forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        ops: &GraphOps,
        features: &FeatureSet,
    ) -> LhnnOutput {
        self.check_inputs(features);
        let mut vars = Vec::with_capacity(self.shapes.len());
        vars.push(tape.leaf(features.gcell.clone()));
        vars.push(tape.leaf(features.gnet.clone()));
        for op in &self.ops {
            let v = match op {
                Op::Linear(layer, x) => layer.forward(tape, store, vars[x.0]),
                Op::ResBlock(block, x) => block.forward(tape, store, vars[x.0]),
                Op::Spmm(agg, x) => tape.spmm(Arc::clone(agg.matrix(ops)), vars[x.0]),
                Op::Concat(a, b) => tape.concat_cols(vars[a.0], vars[b.0]),
                Op::Add(a, b) => tape.add(vars[a.0], vars[b.0]),
            };
            vars.push(v);
        }
        LhnnOutput { cls_logits: vars[self.outputs[0].0], reg: vars[self.outputs[1].0] }
    }

    /// The stateless tape-free forward over every row, through `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if feature widths disagree with the program's inputs.
    pub(crate) fn predict(
        &self,
        store: &ParamStore,
        ops: &GraphOps,
        features: &FeatureSet,
        scratch: &mut ModelScratch,
    ) -> Prediction {
        fit(&mut scratch.buffers, &self.stateless, features.gcell.rows(), features.gnet.rows());
        self.run(&self.stateless, store, ops, features, &mut scratch.buffers, None);
        self.prediction(&self.stateless, &scratch.buffers)
    }

    /// A zeroed splice state for `n_c` G-cells and `n_n` G-nets: one
    /// buffer per tensor.
    pub(crate) fn new_state(&self, n_c: usize, n_n: usize) -> ModelScratch {
        let mut state = ModelScratch::new();
        fit(&mut state.buffers, &self.session, n_c, n_n);
        state
    }

    /// Widens every G-net buffer of a splice state to `n_n` rows, keeping
    /// existing rows. Stable G-net columns only ever append at the end, so
    /// cached rows stay valid; the zeroed new rows must join the dirty set.
    pub(crate) fn grow_state_nets(&self, state: &mut ModelScratch, n_n: usize) {
        for (m, &(side, cols)) in state.buffers.iter_mut().zip(&self.session.buffers) {
            if side == Side::Net {
                let mut grown = Matrix::zeros(n_n, cols);
                grown.as_mut_slice()[..m.as_slice().len()].copy_from_slice(m.as_slice());
                *m = grown;
            }
        }
    }

    /// Re-runs the forward into a splice state: every row when `halo` is
    /// `None`, else the halo's rows, widened at each aggregation. Every
    /// buffer then holds its tensor's full-forward value at every row.
    pub(crate) fn refresh(
        &self,
        store: &ParamStore,
        ops: &GraphOps,
        features: &FeatureSet,
        state: &mut ModelScratch,
        halo: Option<&mut Halo>,
    ) {
        self.run(&self.session, store, ops, features, &mut state.buffers, halo);
    }

    /// The prediction held by a splice state.
    pub(crate) fn state_prediction(&self, state: &ModelScratch) -> Prediction {
        self.prediction(&self.session, &state.buffers)
    }

    fn prediction(&self, plan: &Plan, buffers: &[Matrix]) -> Prediction {
        let [cls, reg] = self.outputs.map(|t| buffers[plan.tensor[t.0]].clone());
        Prediction { cls_prob: cls, reg }
    }

    /// The row-subset executor: runs every op at `halo`'s rows of its
    /// output side (every row when `None`), applying the congestion
    /// sigmoid in place as the logits are produced.
    fn run(
        &self,
        plan: &Plan,
        store: &ParamStore,
        ops: &GraphOps,
        features: &FeatureSet,
        buffers: &mut [Matrix],
        mut halo: Option<&mut Halo>,
    ) {
        self.check_inputs(features);
        for (i, op) in self.ops.iter().enumerate() {
            if let (Op::Spmm(agg, _), Some(h)) = (op, halo.as_deref_mut()) {
                h.widen(*agg, ops);
            }
            let side = self.shapes[i + 2].0;
            let rows = halo.as_deref().map_or(Rows::All, |h| Rows::List(h.rows(side)));
            let out_buf = plan.tensor[i + 2];
            let mut out = std::mem::take(&mut buffers[out_buf]);
            let [h, y] = plan.scratch[i];
            let mut scratch = match op {
                Op::ResBlock(..) => {
                    Some((std::mem::take(&mut buffers[h]), std::mem::take(&mut buffers[y])))
                }
                _ => None,
            };
            let read = |x: Tensor| match x.0 {
                0 => &features.gcell,
                1 => &features.gnet,
                t => &buffers[plan.tensor[t]],
            };
            let cols = out.cols();
            match op {
                Op::Linear(layer, x) => layer.forward_rows_into(store, read(*x), rows, &mut out),
                Op::ResBlock(block, x) => {
                    let (sh, sy) = scratch.as_mut().expect("taken above");
                    block.forward_rows_into(store, read(*x), rows, sh, sy, &mut out);
                }
                Op::Spmm(agg, x) => {
                    kernels::spmm_rows_into(agg.matrix(ops), read(*x), rows, out.as_mut_slice());
                }
                Op::Concat(a, b) => {
                    kernels::concat_rows_into(read(*a), read(*b), rows, out.as_mut_slice());
                }
                Op::Add(a, b) => {
                    let (a, b) = (read(*a).as_slice(), read(*b).as_slice());
                    kernels::zip_rows_into(a, b, rows, cols, out.as_mut_slice(), |p, q| p + q);
                }
            }
            if i + 2 == self.outputs[0].0 {
                // No op reads the logits (see `finish`), so their buffer
                // holds the probabilities.
                kernels::map_rows_inplace(out.as_mut_slice(), rows, cols, stable_sigmoid);
            }
            buffers[out_buf] = out;
            if let Some((sh, sy)) = scratch {
                (buffers[h], buffers[y]) = (sh, sy);
            }
        }
    }
}

/// A placed synthetic design of `n_cells` cells on `side × side` G-cells,
/// as operators and normalized features (the core unit tests' input).
#[cfg(test)]
pub(crate) fn test_design(n_cells: usize, side: u32) -> (GraphOps, FeatureSet) {
    use lh_graph::{LhGraph, LhGraphConfig};
    use vlsi_netlist::synth::{generate, SynthConfig};
    let cfg = SynthConfig { n_cells, grid_nx: side, grid_ny: side, ..SynthConfig::default() };
    let synth = generate(&cfg).unwrap();
    let grid = cfg.grid();
    let placed = vlsi_place::GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
    let graph = LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
        .unwrap();
    let feats =
        FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid).unwrap().normalized();
    (GraphOps::from_graph(&graph, &crate::AblationSpec::full()), feats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LhnnConfig;
    use crate::hybrid::{HybridNet, HybridNetConfig};
    use crate::incremental::{ForwardDirty, IncrementalForward, SpliceOutcome};
    use crate::model::Lhnn;
    use crate::CongestionModel;
    use lh_graph::halo::{dilate, union_sorted};

    #[test]
    fn stateless_scratch_packs_buffers_by_liveness() {
        // 24×24 G-cells, 626 G-nets: the hand-written fused predict held
        // 20 full-size buffers, 385 792 f32 elements, on this design.
        let (ops, feats) = test_design(800, 24);
        assert_eq!((ops.num_gcells, ops.num_gnets), (576, 626));
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut scratch = ModelScratch::new();
        model.predict_with(&ops, &feats, &mut scratch);
        assert!(scratch.buffer_elems() <= 385_792, "{} elems", scratch.buffer_elems());
        // The splice state keeps every tensor instead.
        let program = model.program();
        let state = program.new_state(ops.num_gcells, ops.num_gnets);
        assert!(state.buffers.len() >= program.ops.len());
        assert!(state.buffer_elems() > scratch.buffer_elems());
    }

    /// Widening a halo reads each operator's own rows: a splice over
    /// freshly built operators leaves all four transpose caches cold.
    #[test]
    fn splice_builds_no_transpose() {
        use crate::pipeline::{LatticePipeline, PipelineUpdate};
        use crate::AblationSpec;
        use vlsi_netlist::synth::{generate, SynthConfig};
        use vlsi_netlist::{CellId, PlacementDelta, Point};

        let cfg = SynthConfig {
            seed: 2,
            n_cells: 150,
            grid_nx: 10,
            grid_ny: 10,
            ..SynthConfig::default()
        };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = vlsi_place::GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let mut p =
            LatticePipeline::for_serving(Arc::new(synth.circuit), placed.placement, grid).unwrap();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let version = model.weights_fingerprint();
        let inc = IncrementalForward::new();
        inc.predict(&model, version, &p.ops(), &p.features(), inc.seq());

        let id = CellId(0);
        let pos = p.placement().position(id);
        let to = p.circuit().die.clamp(Point::new(pos.x + p.grid().gcell_width() * 1.25, pos.y));
        let PipelineUpdate::Incremental { dirty_nets, dirty_gcells } =
            p.apply(&PlacementDelta::single(id, to)).unwrap()
        else {
            panic!("the move must patch incrementally");
        };
        inc.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
        let ops = GraphOps::from_graph(p.graph(), &AblationSpec::full());
        let operators = [&ops.gnc_sum, &ops.gnc_mean, &ops.gcn_mean, &ops.lattice_mean];
        assert!(operators.iter().all(|m| !m.transpose_cache_warm()));
        let (spliced, path) = inc.predict(&model, version, &ops, &p.features(), inc.seq());
        assert!(matches!(path, SpliceOutcome::Spliced { .. }), "{path:?}");
        for (i, m) in operators.iter().enumerate() {
            assert!(!m.transpose_cache_warm(), "operator {i} built its transpose");
        }
        let full = model.predict(&ops, &p.features());
        assert!(spliced.cls_prob.approx_eq(&full.cls_prob, 0.0));
        assert!(spliced.reg.approx_eq(&full.reg, 0.0));
    }

    /// The derived halo equals the dilation chain the architecture's
    /// aggregations imply, hop for hop, and the splice stays bitwise.
    #[test]
    fn derived_halo_matches_the_aggregation_chain() {
        let (ops, feats) = test_design(150, 8);
        let hop = |m: &Arc<CsrMatrix>, grow: &[usize], from: &[usize]| {
            union_sorted(grow, &dilate(m.transpose_cached(), from))
        };
        let (dc0, dn0) = (vec![3, 40], vec![1]);
        let lhnn = LhnnConfig::default();
        let mut dc = hop(&ops.gnc_sum, &dc0, &dn0);
        let mut dn = dn0.clone();
        for _ in 0..lhnn.hypermp_layers {
            dn = hop(&ops.gcn_mean, &dn, &dc);
            dc = hop(&ops.gnc_mean, &dc, &dn);
        }
        for _ in 0..lhnn.latticemp_encode_layers + lhnn.latticemp_joint_layers {
            dc = hop(&ops.lattice_mean, &dc, &dc);
        }
        let lhnn_halo = (dc.len(), dn.len());

        let hybrid = HybridNetConfig::default();
        let mut dc = dc0.clone();
        for _ in 0..hybrid.geo_layers {
            dc = hop(&ops.lattice_mean, &dc, &dc);
        }
        dc = hop(&ops.gnc_mean, &dc, &dn0);
        let mut dn = dn0.clone();
        for _ in 0..hybrid.topo_rounds {
            dn = hop(&ops.gcn_mean, &dn, &dc);
            dc = hop(&ops.gnc_mean, &dc, &dn);
        }
        let hybrid_halo = (dc.len(), dn.len());

        let models: [(Box<dyn CongestionModel>, (usize, usize)); 2] = [
            (Box::new(Lhnn::new(lhnn, 0)), lhnn_halo),
            (Box::new(HybridNet::new(hybrid, 0)), hybrid_halo),
        ];
        for (model, (gcell_rows, gnet_rows)) in models {
            let version = model.weights_fingerprint();
            let inc = IncrementalForward::new();
            inc.predict(model.as_ref(), version, &ops, &feats, inc.seq());
            let mut moved = feats.clone();
            moved.gcell[(3, 0)] += 0.5;
            moved.gnet[(1, 0)] -= 0.25;
            inc.note_incremental(&ForwardDirty::new(dc0.clone(), dn0.clone()));
            let (spliced, path) = inc.predict(model.as_ref(), version, &ops, &moved, inc.seq());
            assert_eq!(path, SpliceOutcome::Spliced { gcell_rows, gnet_rows }, "{}", model.kind());
            let full = model.predict(&ops, &moved);
            assert!(spliced.cls_prob.approx_eq(&full.cls_prob, 0.0), "{}", model.kind());
            assert!(spliced.reg.approx_eq(&full.reg, 0.0), "{}", model.kind());
        }
    }
}
