//! The bounded-radius incremental forward (ROADMAP item 1).
//!
//! [`crate::LatticePipeline`] made graph/feature updates O(dirty rows),
//! but a full forward still recomputes every G-cell. A model's forward
//! has a *fixed receptive field*: information travels one hop per sparse
//! aggregation of its [`crate::program::Program`] — for the default LHNN
//! one `H` hop in FeatureGen, two hops (`B⁻¹Hᵀ` then `D⁻¹H`) per HyperMP
//! block and one `P⁻¹A` hop per LatticeMP block — so a change confined to
//! a dirty set of G-cells and G-nets can only influence rows inside a
//! bounded halo of that set.
//!
//! [`IncrementalForward`] exploits this: it caches every tensor of the
//! last forward, and a splice re-runs the program over the dirty rows
//! only, widening them at each aggregation through the operator's
//! sparsity ([`lh_graph::halo`]) and leaving every other row cached.
//!
//! # Bitwise guarantee
//!
//! Every kernel involved computes each output row as an independent,
//! fixed sequence of float operations, so recomputing any superset of the
//! truly-changed rows yields a state **bitwise identical** to a full
//! forward — at any thread count (proptest-enforced in
//! `tests/incremental_forward.rs`). The halo is dilated through each
//! operator's own sparsity rather than a structurally "dual" sibling,
//! because ablated/sampled operator sets replace matrices asymmetrically.
//!
//! # Invalidation protocol
//!
//! * [`IncrementalForward::note_incremental`] accumulates dirty sets from
//!   `PipelineUpdate::Incremental` outcomes — since stable G-net columns,
//!   that includes size-filter crossings (tombstoned/revived/appended
//!   columns ride the dirty sets; appends grow the cached G-net tensors
//!   in place instead of dropping them).
//! * [`IncrementalForward::note_structural`] (full rebuilds, failed
//!   rebuilds, panics) drops the cached forward completely: columns may
//!   have renumbered, so no splice can be trusted. Each note carries an
//!   [`InvalidationCause`] so stats can split cache drops by origin —
//!   with stable columns, compaction should be the dominant cause.
//! * Each note bumps a sequence number. Callers snapshot the sequence
//!   together with their `(ops, features)` inputs; if dirt was noted
//!   *after* the snapshot, the forward keeps every pending row for the
//!   next splice (a safe superset), so such a delta is never lost.
//!
//! A forward that observes unknown provenance (no cached state, a
//! structural note, a weights hot-swap, or dimension changes) falls back
//! to a full refresh through the same executor — which is itself bitwise
//! identical to the model's stateless predict.

use std::sync::Mutex;
use std::time::Duration;

use lh_graph::halo::union_sorted;
use lh_graph::{halo, FeatureSet};
use lhnn_obs::{Counter, Histogram, Registry};

use crate::congestion::CongestionModel;
use crate::model::Prediction;
use crate::ops::GraphOps;
use crate::program::{Halo, ModelScratch};

/// Sorted, duplicate-free dirty index sets accumulated from one or more
/// incremental pipeline updates: the G-cell rows and G-net rows whose
/// features or operator rows may have changed since the last forward.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardDirty {
    gcells: Vec<usize>,
    gnets: Vec<usize>,
}

impl ForwardDirty {
    /// Canonicalises (sorts, dedups) arbitrary index lists.
    pub fn new(gcells: Vec<usize>, gnets: Vec<usize>) -> Self {
        Self { gcells: halo::canonicalize(gcells), gnets: halo::canonicalize(gnets) }
    }

    /// Unions another dirty set into this one.
    pub(crate) fn merge(&mut self, other: &ForwardDirty) {
        self.gcells = union_sorted(&self.gcells, &other.gcells);
        self.gnets = union_sorted(&self.gnets, &other.gnets);
    }
}

/// Which path [`IncrementalForward::predict`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceOutcome {
    /// Input fingerprints matched the cached state: the cached prediction
    /// was returned without recomputing anything.
    Reused,
    /// Halo rows were recomputed and spliced into the cached state.
    Spliced {
        /// G-cell rows recomputed (the final ≤5-hop halo).
        gcell_rows: usize,
        /// G-net rows recomputed.
        gnet_rows: usize,
    },
    /// Full refresh: every row recomputed (first forward, structural
    /// invalidation, weights swap or dimension change).
    Full,
}

/// Why a structural note dropped the activation cache. With stable G-net
/// columns, filter crossings no longer invalidate (they splice), so the
/// expected steady-state mix is compaction-dominated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationCause {
    /// A size-filter crossing the tombstone path could not absorb
    /// (`RebuildCause::NoLiveColumns` — expected zero on real designs).
    FilterCrossing,
    /// Lazy compaction renumbered the G-net column space.
    Compaction,
    /// The pipeline was poisoned (an update or rebuild did not complete)
    /// or recovered from it by a rebuild.
    Poisoned,
}

impl From<&crate::pipeline::RebuildCause> for InvalidationCause {
    fn from(cause: &crate::pipeline::RebuildCause) -> Self {
        use crate::pipeline::RebuildCause;
        match cause {
            RebuildCause::Compaction { .. } => InvalidationCause::Compaction,
            RebuildCause::NoLiveColumns => InvalidationCause::FilterCrossing,
            RebuildCause::PoisonedRecovery => InvalidationCause::Poisoned,
        }
    }
}

/// The `cause` label of each [`InvalidationCause`], in declaration order.
const CAUSE_LABELS: [&str; 3] = ["filter_crossing", "compaction", "poisoned"];

/// Lifetime counters of an [`IncrementalForward`]: a read of its
/// registry cells, `lhnn_{full_forwards,spliced_forwards,
/// reused_predictions}_total{design,model}` and
/// `lhnn_invalidations_total{design,model,cause}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Forwards that recomputed every row.
    pub full_forwards: u64,
    /// Forwards served by halo splicing.
    pub spliced_forwards: u64,
    /// Predicts answered without a forward: from the cached activation
    /// state (fingerprint match), or from an engine's prediction cache
    /// ([`IncrementalForward::note_cache_hit`]).
    pub reused: u64,
    /// Structural notes that dropped the activation cache (all causes).
    pub invalidations: u64,
    /// Cache drops from unpatchable filter crossings
    /// ([`InvalidationCause::FilterCrossing`]).
    pub invalidations_filter_crossing: u64,
    /// Cache drops from lazy compaction
    /// ([`InvalidationCause::Compaction`]).
    pub invalidations_compaction: u64,
    /// Cache drops from poisoned-pipeline recovery
    /// ([`InvalidationCause::Poisoned`]).
    pub invalidations_poisoned: u64,
}

/// Metric handles for one design's incremental forward, resolved once at
/// construction. They are its only counters: [`IncrementalForward::stats`]
/// reads them back.
///
/// The stage split follows the predict span hierarchy: `dilate` is the
/// time spent growing dirty sets through the operators' sparsity, `forward`
/// the masked row-subset recompute (total refresh minus dilation), and
/// `splice` the assembly of the served prediction from the cached state.
struct IncrObs {
    dilate: Histogram,
    forward: Histogram,
    splice: Histogram,
    halo_gcells: Histogram,
    halo_gnets: Histogram,
    full: Counter,
    spliced: Counter,
    reused: Counter,
    /// Indexed by [`InvalidationCause`] declaration order.
    invalidations: [Counter; 3],
}

impl IncrObs {
    fn new(registry: &Registry, design: &str, model_kind: &str) -> Self {
        let d = &[("design", design), ("model", model_kind)][..];
        Self {
            dilate: registry.stage("dilate"),
            forward: registry.stage("forward"),
            splice: registry.stage("splice"),
            halo_gcells: registry.histogram("lhnn_halo_gcells"),
            halo_gnets: registry.histogram("lhnn_halo_gnets"),
            full: registry.counter_with("lhnn_full_forwards_total", d),
            spliced: registry.counter_with("lhnn_spliced_forwards_total", d),
            reused: registry.counter_with("lhnn_reused_predictions_total", d),
            invalidations: CAUSE_LABELS.map(|cause| {
                registry.counter_with(
                    "lhnn_invalidations_total",
                    &[("design", design), ("model", model_kind), ("cause", cause)],
                )
            }),
        }
    }
}

/// The cached forward of one design: every tensor of the model's program
/// at every row, and what it was computed from.
struct Cached {
    kind: &'static str,
    weights_version: u64,
    /// `(ops, features)` fingerprints of the cached forward.
    fingerprints: (u64, u64),
    n_c: usize,
    n_n: usize,
    state: ModelScratch,
}

/// Pending dirt, the note sequence counter and the cached forward, under
/// one lock: notes take it briefly, a forward holds it throughout.
#[derive(Default)]
struct State {
    /// `None` means provenance is unknown (initial state, or a structural
    /// event since the last forward): the next forward must be full.
    pending: Option<ForwardDirty>,
    seq: u64,
    act: Option<Cached>,
}

/// Cached-activation incremental inference for one hot design.
///
/// Thread-safe: one internal lock serialises notes and forwards, so a
/// note issued during a forward waits for it to finish. A panic
/// mid-forward leaves the activation cache and the pending dirt empty
/// (both taken at entry), so the next predict falls back to a full
/// refresh.
pub struct IncrementalForward {
    state: Mutex<State>,
    obs: IncrObs,
}

impl std::fmt::Debug for IncrementalForward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state();
        f.debug_struct("IncrementalForward")
            .field("seq", &st.seq)
            .field("pending", &st.pending)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for IncrementalForward {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalForward {
    /// An empty cache: the first forward is always full. Counts go to a
    /// private registry whose span timers never read the clock.
    pub fn new() -> Self {
        Self::with_metrics(&Registry::disabled(), "", "")
    }

    /// Like [`IncrementalForward::new`], with forwards reported to
    /// `registry`: `dilate`/`forward`/`splice` stage spans, halo-size
    /// histograms, and path counters labelled by `design` and `model` —
    /// `model_kind` should be the served model's
    /// [`CongestionModel::kind`], so mixed-zoo traffic stays
    /// attributable. Recording is timing-only — predictions stay bitwise
    /// identical to the plain constructor.
    pub fn with_metrics(registry: &Registry, design: &str, model_kind: &str) -> Self {
        Self {
            state: Mutex::new(State::default()),
            obs: IncrObs::new(registry, design, model_kind),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // A forward takes the pending dirt and the cached activations out
        // at entry, so a holder that panics leaves both empty: the next
        // forward refreshes in full.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records an incremental update's dirty sets. No-op on the dirt if
    /// provenance is already unknown (the next forward is full anyway).
    pub fn note_incremental(&self, dirty: &ForwardDirty) {
        let mut st = self.state();
        st.seq += 1;
        if let Some(p) = &mut st.pending {
            p.merge(dirty);
        }
    }

    /// Records a structural event (full rebuild, failed rebuild, panic
    /// mid-apply): drops the activation cache completely — G-net columns
    /// may have renumbered, so no splice against it can be trusted.
    /// `cause` splits the invalidation stats by origin.
    pub fn note_structural(&self, cause: InvalidationCause) {
        let mut st = self.state();
        st.seq += 1;
        st.pending = None;
        st.act = None;
        self.obs.invalidations[cause as usize].inc();
    }

    /// The current note sequence. Snapshot this under the same lock that
    /// guards your `(ops, features)` snapshot and pass it to
    /// [`IncrementalForward::predict`], so dirt noted after the snapshot
    /// survives the forward.
    pub fn seq(&self) -> u64 {
        self.state().seq
    }

    /// Counts a predict answered from a cache outside this forward (a
    /// serving engine's prediction cache) as reused.
    pub fn note_cache_hit(&self) {
        self.obs.reused.inc();
    }

    /// Lifetime counters, read from the registry cells.
    pub fn stats(&self) -> IncrementalStats {
        let o = &self.obs;
        let [filter_crossing, compaction, poisoned] = o.invalidations.each_ref().map(Counter::get);
        IncrementalStats {
            full_forwards: o.full.get(),
            spliced_forwards: o.spliced.get(),
            reused: o.reused.get(),
            invalidations: filter_crossing + compaction + poisoned,
            invalidations_filter_crossing: filter_crossing,
            invalidations_compaction: compaction,
            invalidations_poisoned: poisoned,
        }
    }

    /// Runs the forward for `(ops, features)`, splicing over the dirty
    /// halo when the cached state allows it.
    ///
    /// `model_version` is the caller's fingerprint of the weights
    /// ([`CongestionModel::weights_fingerprint`], typically already
    /// computed by a registry); a version change — including a hot-swap
    /// to a different model kind — invalidates the cache. `seq_snapshot`
    /// is the value of [`IncrementalForward::seq`] captured when the
    /// `(ops, features)` snapshot was taken.
    ///
    /// Returns the prediction — bitwise identical to the model's own
    /// fused `predict` on the same inputs — and the path taken.
    pub fn predict(
        &self,
        model: &dyn CongestionModel,
        model_version: u64,
        ops: &GraphOps,
        features: &FeatureSet,
        seq_snapshot: u64,
    ) -> (Prediction, SpliceOutcome) {
        let mut st = self.state();
        let dirt = st.pending.take();
        let ops_fp = ops.fingerprint();
        let features_fp = features.fingerprint();
        let n_c = features.gcell.rows();
        let n_n = features.gnet.rows();

        let mut taken = st.act.take();
        let program = model.program();

        // Path 1: fingerprints match the cached state — the cached
        // prediction IS the full-forward answer for these inputs.
        let reusable = taken.as_ref().map_or(false, |c| {
            c.weights_version == model_version && c.fingerprints == (ops_fp, features_fp)
        });
        if reusable {
            let c = taken.expect("checked above");
            let t_splice = self.obs.splice.start();
            let pred = program.state_prediction(&c.state);
            st.act = Some(c);
            self.obs.splice.stop_us(t_splice);
            self.finish(&mut st, dirt, seq_snapshot, SpliceOutcome::Reused);
            return (pred, SpliceOutcome::Reused);
        }

        // Path 2: known dirt over a compatible cached state — splice.
        // Stable G-net columns only ever *append* at the end between
        // compactions, so a cached state with fewer G-net rows is still
        // spliceable: its tensors are grown in place and the appended
        // rows join the dirty set below.
        let compatible = |c: &Cached| c.kind == model.kind() && c.weights_version == model_version;
        let splice_ok = match (&taken, &dirt) {
            (Some(c), Some(d)) => {
                compatible(c)
                    && c.n_c == n_c
                    && c.n_n <= n_n
                    && ops.num_gcells == n_c
                    && d.gcells.last().map_or(true, |&r| r < n_c)
                    && d.gnets.last().map_or(true, |&r| r < n_n)
            }
            _ => false,
        };
        let t_refresh = self.obs.forward.start();
        let store = model.store();
        let (mut c, outcome, dilate) = if splice_ok {
            let mut c = taken.take().expect("checked above");
            let d = dirt.as_ref().expect("checked above");
            let mut nets = d.gnets.clone();
            if c.n_n < n_n {
                program.grow_state_nets(&mut c.state, n_n);
                nets = union_sorted(&nets, &(c.n_n..n_n).collect::<Vec<_>>());
                c.n_n = n_n;
            }
            let dilate = t_refresh.map(|_| Duration::ZERO);
            let mut halo = Halo { cells: d.gcells.clone(), nets, dilate };
            program.refresh(store, ops, features, &mut c.state, Some(&mut halo));
            let outcome =
                SpliceOutcome::Spliced { gcell_rows: halo.cells.len(), gnet_rows: halo.nets.len() };
            (c, outcome, halo.dilate)
        } else {
            // Path 3: full refresh, reusing allocations when the kind
            // and shapes allow.
            let mut c = match taken.take() {
                Some(c) if compatible(&c) && c.n_c == n_c && c.n_n == n_n => c,
                _ => Cached {
                    kind: model.kind(),
                    weights_version: model_version,
                    fingerprints: (0, 0),
                    n_c,
                    n_n,
                    state: program.new_state(n_c, n_n),
                },
            };
            program.refresh(store, ops, features, &mut c.state, None);
            (c, SpliceOutcome::Full, None)
        };
        if let Some(t0) = t_refresh {
            // The refresh span splits into halo dilation (accumulated at
            // each aggregation) and the row-subset forward.
            let total_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            let dilate_us = dilate.map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
            self.obs.dilate.observe(dilate_us);
            self.obs.forward.observe(total_us.saturating_sub(dilate_us));
        }
        if let SpliceOutcome::Spliced { gcell_rows, gnet_rows } = outcome {
            self.obs.halo_gcells.observe(gcell_rows as u64);
            self.obs.halo_gnets.observe(gnet_rows as u64);
        }
        c.fingerprints = (ops_fp, features_fp);
        let t_splice = self.obs.splice.start();
        let pred = program.state_prediction(&c.state);
        st.act = Some(c);
        self.obs.splice.stop_us(t_splice);
        self.finish(&mut st, dirt, seq_snapshot, outcome);
        (pred, outcome)
    }

    /// Settles the pending dirt after a forward, still under the lock. The
    /// refreshed state matches the caller's input snapshot (taken at
    /// `seq_snapshot`): if nothing was noted since, the dirt is consumed;
    /// otherwise all of `dirt` stays pending for the next splice — a
    /// superset of the rows noted after the snapshot, which is always safe.
    fn finish(
        &self,
        st: &mut State,
        dirt: Option<ForwardDirty>,
        seq_snapshot: u64,
        outcome: SpliceOutcome,
    ) {
        st.pending = if st.seq == seq_snapshot { Some(ForwardDirty::default()) } else { dirt };
        match outcome {
            SpliceOutcome::Reused => &self.obs.reused,
            SpliceOutcome::Spliced { .. } => &self.obs.spliced,
            SpliceOutcome::Full => &self.obs.full,
        }
        .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LhnnConfig;
    use crate::hybrid::{HybridNet, HybridNetConfig};
    use crate::model::Lhnn;

    fn sample() -> (GraphOps, FeatureSet) {
        crate::program::test_design(150, 8)
    }

    #[test]
    fn full_refresh_matches_tape_forward_bitwise() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let version = model.weights_fingerprint();
        let direct = model.predict(&ops, &feats);
        let inc = IncrementalForward::new();
        let (pred, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0), "cls diverged from tape forward");
        assert!(direct.reg.approx_eq(&pred.reg, 0.0), "reg diverged from tape forward");
    }

    #[test]
    fn unchanged_inputs_reuse_the_cached_prediction() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 1);
        let version = model.weights_fingerprint();
        let inc = IncrementalForward::new();
        let (first, _) = inc.predict(&model, version, &ops, &feats, inc.seq());
        let (again, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Reused);
        assert!(first.cls_prob.approx_eq(&again.cls_prob, 0.0));
        assert_eq!(inc.stats().reused, 1);
    }

    #[test]
    fn structural_note_forces_a_full_refresh() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 2);
        let version = model.weights_fingerprint();
        let inc = IncrementalForward::new();
        inc.predict(&model, version, &ops, &feats, inc.seq());
        inc.note_structural(InvalidationCause::Compaction);
        // Fingerprints still match, but the cache was dropped: no reuse.
        let (pred, outcome) = inc.predict(&model, version, &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full);
        let direct = model.predict(&ops, &feats);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0));
        let stats = inc.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.invalidations_compaction, 1);
        assert_eq!(stats.invalidations_filter_crossing, 0);
    }

    #[test]
    fn weights_swap_invalidates_the_cache() {
        let (ops, feats) = sample();
        let a = Lhnn::new(LhnnConfig::default(), 3);
        let b = Lhnn::new(LhnnConfig::default(), 4);
        let inc = IncrementalForward::new();
        inc.predict(&a, a.weights_fingerprint(), &ops, &feats, inc.seq());
        let (pred, outcome) = inc.predict(&b, b.weights_fingerprint(), &ops, &feats, inc.seq());
        assert_eq!(outcome, SpliceOutcome::Full, "new weights must not reuse old activations");
        let direct = b.predict(&ops, &feats);
        assert!(direct.cls_prob.approx_eq(&pred.cls_prob, 0.0));
    }

    #[test]
    fn metrics_recording_is_bitwise_invisible() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 6);
        let version = model.weights_fingerprint();
        let registry = Registry::new();
        let plain = IncrementalForward::new();
        let observed = IncrementalForward::with_metrics(&registry, "d0", "lhnn");
        let (a, _) = plain.predict(&model, version, &ops, &feats, plain.seq());
        let (b, _) = observed.predict(&model, version, &ops, &feats, observed.seq());
        assert!(a.cls_prob.approx_eq(&b.cls_prob, 0.0), "metrics changed the prediction");
        assert!(a.reg.approx_eq(&b.reg, 0.0));
        observed.predict(&model, version, &ops, &feats, observed.seq());
        // a second architecture on the same registry: its per-design
        // series carry its own model label
        let hybrid = HybridNet::new(HybridNetConfig::default(), 6);
        let hybrid_observed = IncrementalForward::with_metrics(&registry, "d1", hybrid.kind());
        let hybrid_version = hybrid.weights_fingerprint();
        let (h, _) =
            hybrid_observed.predict(&hybrid, hybrid_version, &ops, &feats, hybrid_observed.seq());
        assert!(h.cls_prob.approx_eq(&hybrid.predict(&ops, &feats).cls_prob, 0.0));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lhnn_full_forwards_total"), 2);
        assert_eq!(snap.counter("lhnn_reused_predictions_total"), 1);
        assert_eq!(snap.counter("lhnn_full_forwards_total{design=\"d0\",model=\"lhnn\"}"), 1);
        assert_eq!(snap.counter("lhnn_full_forwards_total{design=\"d1\",model=\"hybridnet\"}"), 1);
        assert_eq!(observed.stats().reused, 1);
        assert_eq!(snap.histogram("lhnn_stage_us{stage=\"forward\"}").unwrap().count, 2);
        assert_eq!(snap.histogram("lhnn_stage_us{stage=\"dilate\"}").unwrap().count, 2);
        assert_eq!(snap.histogram("lhnn_stage_us{stage=\"splice\"}").unwrap().count, 3);
    }

    #[test]
    fn dirt_noted_after_the_snapshot_stays_pending() {
        let (ops, feats) = sample();
        let model = Lhnn::new(LhnnConfig::default(), 5);
        let version = model.weights_fingerprint();
        let inc = IncrementalForward::new();
        inc.predict(&model, version, &ops, &feats, inc.seq());
        let snapshot = inc.seq();
        // A delta lands after the snapshot but before the forward: its
        // dirt must survive the forward for the next splice.
        inc.note_incremental(&ForwardDirty::new(vec![3], vec![1]));
        inc.predict(&model, version, &ops, &feats, snapshot);
        let st = inc.state();
        let pending = st.pending.as_ref().expect("pending must stay known");
        assert_eq!(pending.gcells, &[3]);
        assert_eq!(pending.gnets, &[1]);
    }
}
