//! The LH-graph: lattice + hypergraph formulation of a placed circuit.
//!
//! Following §3.1 of the paper, a circuit becomes a heterogeneous graph
//! `G = (V_c, V_n, A, H)`:
//!
//! * `V_c` — one node per G-cell with feature matrix `N_c × d_c`,
//! * `V_n` — one node per G-net (the G-cells covered by a net's pin
//!   bounding box) with feature matrix `N_n × d_n`,
//! * `A`   — the lattice adjacency between 4-neighbouring G-cells,
//! * `H`   — the incidence matrix: `H[i,j] = 1` iff G-cell `i` is inside
//!   G-net `j`.
//!
//! The degree matrices `D` (G-cell hyperdegree), `B` (G-net size) and `P`
//! (lattice degree) define the paper's aggregation operators `D⁻¹H`,
//! `B⁻¹Hᵀ` and `P⁻¹A`, pre-built here as row-normalised CSR matrices.
//!
//! # Stable G-net columns
//!
//! G-net columns have **stable identities** across placement deltas: a
//! net leaving the size filter becomes a *tombstone* (its column is
//! retained with incidence rows zeroed and mean-normalisations masked),
//! a net re-entering *revives* its old column, and a net that never had
//! a column *appends* one at the end. Filter crossings therefore patch
//! instead of forcing a rebuild; the only event that renumbers columns
//! is a lazy *compaction* once the tombstone fraction exceeds
//! [`LhGraphConfig::max_tombstone_fraction`] (reported as
//! [`StructuralReason::Compaction`], after which a plain
//! [`LhGraph::build`] restores the canonical ascending layout).

use std::sync::Arc;

use neurograd::CsrMatrix;
use vlsi_netlist::{span_cells, Circuit, DirtyReport, GcellGrid, GcellSpan, NetId, Placement};

use crate::error::{LhGraphError, Result};

/// Sentinel in the net → column index: this net has no G-net column.
const NO_COLUMN: u32 = u32::MAX;

/// Build-time options.
#[derive(Debug, Clone, PartialEq)]
pub struct LhGraphConfig {
    /// G-nets covering more than this fraction of all G-cells are dropped
    /// (the paper removes G-nets above 0.25 % of the ≈343K G-cells; the
    /// default here plays the same role at our much smaller grids).
    pub max_gnet_fraction: f32,
    /// Lazy-compaction threshold: once more than this fraction of the
    /// G-net column space is tombstoned, [`LhGraph::apply_delta`] reports
    /// [`StructuralReason::Compaction`] and the caller rebuilds (the only
    /// event that renumbers columns). `>= 1.0` never compacts; `0.0`
    /// compacts on the first tombstone (the pre-stable-columns behaviour).
    pub max_tombstone_fraction: f32,
}

impl Default for LhGraphConfig {
    fn default() -> Self {
        Self { max_gnet_fraction: 0.05, max_tombstone_fraction: 0.25 }
    }
}

impl LhGraphConfig {
    /// The G-net size filter threshold, in G-cells, for a grid with
    /// `num_gcells` cells: nets covering more are dropped.
    pub(crate) fn max_gnet_area(&self, num_gcells: usize) -> usize {
        ((num_gcells as f32) * self.max_gnet_fraction).max(1.0) as usize
    }
}

/// The structural part of an LH-graph (features live in
/// [`crate::features::FeatureSet`]).
#[derive(Debug, Clone)]
pub struct LhGraph {
    nx: usize,
    ny: usize,
    /// `H`: `N_c × N_n` incidence, which is also `G_nc` — the sum
    /// aggregation G-net → G-cell (Eq. 1).
    incidence: Arc<CsrMatrix>,
    /// `A`: `N_c × N_c` lattice adjacency.
    lattice: Arc<CsrMatrix>,
    /// `D⁻¹H` — mean aggregation G-net → G-cell (HyperMP).
    gnc_mean: Arc<CsrMatrix>,
    /// `B⁻¹Hᵀ` — mean aggregation G-cell → G-net (HyperMP).
    gcn_mean: Arc<CsrMatrix>,
    /// `P⁻¹A` — mean aggregation over lattice neighbours (LatticeMP).
    lattice_mean: Arc<CsrMatrix>,
    /// Net id per G-net column (row of `V_n` → circuit net). Ascending
    /// after a canonical build; appended columns keep arrival order.
    kept_nets: Arc<Vec<NetId>>,
    /// The covered G-cell span per G-net column (what `apply_delta` diffs
    /// against when a placement perturbation re-bins a net). Meaningful
    /// for live columns only — a tombstone's span is stale.
    spans: Arc<Vec<GcellSpan>>,
    /// Per-column tombstone flag: `true` = the net left the size filter
    /// and the column is retained empty (stable ids).
    tombstone: Arc<Vec<bool>>,
    /// Cached tombstone count (`tombstone.iter().filter(|t| **t).count()`).
    tombstones: usize,
    /// Circuit net id → column index (`NO_COLUMN` = no column), including
    /// tombstoned columns: the O(1) inverse of `kept_nets`.
    net_to_col: Arc<Vec<u32>>,
    /// Number of circuit nets without a G-net column.
    dropped_gnets: usize,
}

/// The result of a successful [`LhGraph::apply_delta`]: the patched graph
/// plus the dirty sets a feature patch needs.
#[derive(Debug)]
pub struct GraphPatch {
    /// The patched graph. Matrices untouched by the delta are shared with
    /// the source graph via `Arc` — only dirty rows were rebuilt.
    pub graph: LhGraph,
    /// Live columns whose span changed or that (re)entered the filter —
    /// moved + revived + appended, sorted ascending. Their G-net feature
    /// rows must be recomputed.
    pub dirty_cols: Vec<usize>,
    /// Columns tombstoned by this patch (sorted ascending). Their G-net
    /// feature rows must be zeroed.
    pub tombstoned_cols: Vec<usize>,
    /// Nets that left the size filter in this patch (sorted by id).
    pub crossed_out: Vec<NetId>,
    /// Nets that entered the size filter in this patch — revived or
    /// appended (sorted by id).
    pub crossed_in: Vec<NetId>,
    /// Column-space size before the patch (appends grow it).
    pub old_gnets: usize,
    /// G-cell rows whose incidence entries (and therefore net-density
    /// features) changed: the union of old and new spans of every dirty
    /// net (sorted ascending).
    pub dirty_rows: Vec<usize>,
}

impl GraphPatch {
    /// Whether this patch carried a filter crossing (tombstone, revival
    /// or append) rather than plain span moves.
    pub fn crossed_filter(&self) -> bool {
        !self.crossed_out.is_empty() || !self.crossed_in.is_empty()
    }
}

/// Why [`LhGraph::apply_delta`] could not patch in place. Enum-coded (no
/// per-delta `String` allocation) so the structural path stays cheap and
/// matchable in tests; `Display` renders the human-readable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructuralReason {
    /// The delta would tombstone the last live column: an all-tombstone
    /// graph has nothing to forward, and a from-scratch build fails with
    /// [`LhGraphError::EmptyGraph`] identically.
    NoLiveColumns,
    /// The tombstone fraction crossed
    /// [`LhGraphConfig::max_tombstone_fraction`]: compact by rebuilding
    /// (the only event that renumbers G-net columns).
    Compaction {
        /// Tombstoned columns the compaction reclaims.
        tombstones: usize,
        /// Live columns surviving the compaction.
        live: usize,
    },
}

impl std::fmt::Display for StructuralReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuralReason::NoLiveColumns => {
                f.write_str("no g-net column would survive the size filter")
            }
            StructuralReason::Compaction { tombstones, live } => {
                write!(f, "compacting {tombstones} tombstoned g-net columns ({live} live)")
            }
        }
    }
}

/// The outcome of [`LhGraph::apply_delta`].
#[derive(Debug)]
pub enum DeltaOutcome {
    /// The graph was patched incrementally — including size-filter
    /// crossings, which tombstone/revive/append columns in place. The
    /// result is bitwise identical to [`LhGraph::build_with_columns`] at
    /// the new placement with the patched graph's own column layout (and
    /// to a plain [`LhGraph::build`] whenever that layout is canonical).
    Patched(GraphPatch),
    /// The delta requires a full rebuild (compaction, or no live column
    /// would remain). Carries an enum-coded reason.
    Structural(StructuralReason),
}

impl LhGraph {
    /// Builds the LH-graph for a placed circuit with the canonical column
    /// layout: one column per net passing the size filter, ascending by
    /// net id, no tombstones.
    ///
    /// # Errors
    ///
    /// Returns [`LhGraphError::EmptyGraph`] if the grid has no G-cells or
    /// no net survives the size filter while the circuit has nets.
    pub fn build(
        circuit: &Circuit,
        placement: &Placement,
        grid: &GcellGrid,
        cfg: &LhGraphConfig,
    ) -> Result<Self> {
        let n_c = grid.num_gcells();
        if n_c == 0 {
            return Err(LhGraphError::EmptyGraph("grid has no g-cells".into()));
        }
        if placement.len() < circuit.num_cells() {
            return Err(LhGraphError::DimensionMismatch(format!(
                "placement has {} positions for {} cells",
                placement.len(),
                circuit.num_cells()
            )));
        }
        let max_area = cfg.max_gnet_area(n_c);
        let mut columns = Vec::new();
        for (ni, net) in circuit.nets().iter().enumerate() {
            let bbox = placement.net_bbox(net);
            if grid.span(&bbox).is_some_and(|s| span_cells(s) <= max_area) {
                columns.push(NetId(ni as u32));
            }
        }
        if columns.is_empty() && circuit.num_nets() > 0 {
            return Err(LhGraphError::EmptyGraph(
                "size filter removed every g-net; raise max_gnet_fraction".into(),
            ));
        }
        Self::build_with_columns(circuit, placement, grid, cfg, &columns)
    }

    /// Builds the LH-graph with a **prescribed column layout**: column `j`
    /// belongs to `columns[j]`, tombstoned iff that net does not pass the
    /// size filter at `placement`. This is the from-scratch reference the
    /// incremental path is bitwise-pinned to between compactions —
    /// [`LhGraph::apply_delta`] chains are indistinguishable from
    /// `build_with_columns` at the final placement with the patched
    /// graph's own [`LhGraph::kept_nets`] (and [`LhGraph::build`] is the
    /// special case of an ascending all-live layout).
    ///
    /// # Errors
    ///
    /// Returns [`LhGraphError::EmptyGraph`] if the grid has no G-cells or
    /// every column would be tombstoned while the circuit has nets, and
    /// [`LhGraphError::DimensionMismatch`] on placement/column-list
    /// inconsistencies (duplicate or out-of-range net ids).
    pub fn build_with_columns(
        circuit: &Circuit,
        placement: &Placement,
        grid: &GcellGrid,
        cfg: &LhGraphConfig,
        columns: &[NetId],
    ) -> Result<Self> {
        let n_c = grid.num_gcells();
        if n_c == 0 {
            return Err(LhGraphError::EmptyGraph("grid has no g-cells".into()));
        }
        if placement.len() < circuit.num_cells() {
            return Err(LhGraphError::DimensionMismatch(format!(
                "placement has {} positions for {} cells",
                placement.len(),
                circuit.num_cells()
            )));
        }
        let max_area = cfg.max_gnet_area(n_c);

        let mut net_to_col = vec![NO_COLUMN; circuit.num_nets()];
        let mut spans = Vec::with_capacity(columns.len());
        let mut tombstone = vec![false; columns.len()];
        let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
        let mut tombstones = 0usize;
        // a stale-span placeholder for tombstoned columns (never read)
        let dead_span: GcellSpan = (grid.coord(0), grid.coord(0));
        for (j, &net) in columns.iter().enumerate() {
            let slot = net_to_col.get_mut(net.0 as usize).ok_or_else(|| {
                LhGraphError::DimensionMismatch(format!(
                    "column {j} names net {} outside the circuit's {} nets",
                    net.0,
                    circuit.num_nets()
                ))
            })?;
            if *slot != NO_COLUMN {
                return Err(LhGraphError::DimensionMismatch(format!(
                    "net {} appears in two columns",
                    net.0
                )));
            }
            *slot = j as u32;
            let bbox = placement.net_bbox(circuit.net(net));
            match grid.span(&bbox).filter(|&s| span_cells(s) <= max_area) {
                Some((lo, hi)) => {
                    for c in grid.iter_span(lo, hi) {
                        triplets.push((grid.index(c), j, 1.0));
                    }
                    spans.push((lo, hi));
                }
                None => {
                    tombstone[j] = true;
                    tombstones += 1;
                    spans.push(dead_span);
                }
            }
        }
        let n_n = columns.len();
        if n_n == tombstones && circuit.num_nets() > 0 {
            return Err(LhGraphError::EmptyGraph(
                "size filter removed every g-net; raise max_gnet_fraction".into(),
            ));
        }
        let incidence = CsrMatrix::from_triplets(n_c, n_n.max(1), &triplets);

        // Lattice adjacency.
        let mut lat_triplets = Vec::with_capacity(4 * n_c);
        for idx in 0..n_c {
            let c = grid.coord(idx);
            for nb in grid.neighbors(c) {
                lat_triplets.push((idx, grid.index(nb), 1.0));
            }
        }
        let lattice = CsrMatrix::from_triplets(n_c, n_c, &lat_triplets);

        let gnc_mean = incidence.row_normalized();
        // tombstoned columns have no incidence entries, so their Hᵀ rows
        // are empty and `row_normalized` leaves them masked (all-zero)
        let gcn_mean = incidence.transpose().row_normalized();
        let lattice_mean = lattice.row_normalized();

        Ok(Self {
            nx: grid.nx() as usize,
            ny: grid.ny() as usize,
            incidence: Arc::new(incidence),
            lattice: Arc::new(lattice),
            gnc_mean: Arc::new(gnc_mean),
            gcn_mean: Arc::new(gcn_mean),
            lattice_mean: Arc::new(lattice_mean),
            kept_nets: Arc::new(columns.to_vec()),
            spans: Arc::new(spans),
            tombstone: Arc::new(tombstone),
            tombstones,
            net_to_col: Arc::new(net_to_col),
            dropped_gnets: circuit.num_nets() - n_n,
        })
    }

    /// Patches this graph for a placement delta, given the re-binning
    /// report of [`vlsi_netlist::rebin_delta_in_place`].
    ///
    /// Only the incidence-derived rows touched by the dirty nets are
    /// rebuilt; the lattice operators and every untouched CSR row carry
    /// over (shared via `Arc`). Size-filter crossings stay on this path:
    /// a net leaving the filter tombstones its column (entries removed,
    /// mean rows masked), a net re-entering revives it, and a net that
    /// never had a column appends one. The patched graph is **bitwise
    /// identical** to [`LhGraph::build_with_columns`] at the new placement
    /// with its own column layout — the contract the incremental-pipeline
    /// proptests enforce.
    ///
    /// Returns [`DeltaOutcome::Structural`] only when the tombstone
    /// fraction crosses [`LhGraphConfig::max_tombstone_fraction`]
    /// (compaction) or no live column would remain; the caller falls back
    /// to a full rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`LhGraphError::GridShape`] if `grid` is not the grid this
    /// graph was built on.
    pub fn apply_delta(
        &self,
        grid: &GcellGrid,
        cfg: &LhGraphConfig,
        report: &DirtyReport,
    ) -> Result<DeltaOutcome> {
        if self.nx != grid.nx() as usize || self.ny != grid.ny() as usize {
            return Err(LhGraphError::grid_shape(
                (self.nx, self.ny),
                (grid.nx() as usize, grid.ny() as usize),
            ));
        }
        let max_area = cfg.max_gnet_area(self.num_gcells());
        let n_n = self.kept_nets.len();

        // Classify each re-binned net against the stable column space.
        let mut moved: Vec<(usize, GcellSpan)> = Vec::new();
        let mut revived: Vec<(usize, GcellSpan)> = Vec::new();
        let mut tombstoned: Vec<usize> = Vec::new();
        let mut appended: Vec<(NetId, GcellSpan)> = Vec::new();
        for rb in &report.net_rebins {
            let slot = self.net_slot(rb.net);
            let new_span = rb.new_span.filter(|&s| span_cells(s) <= max_area);
            match (slot, new_span) {
                (Some(j), Some(ns)) if self.tombstone[j] => revived.push((j, ns)),
                (Some(j), Some(ns)) => {
                    if self.spans[j] != ns {
                        moved.push((j, ns));
                    }
                }
                (Some(j), None) => {
                    if !self.tombstone[j] {
                        tombstoned.push(j);
                    }
                }
                (None, Some(ns)) => appended.push((rb.net, ns)),
                (None, None) => {}
            }
        }
        if moved.is_empty() && revived.is_empty() && tombstoned.is_empty() && appended.is_empty() {
            return Ok(DeltaOutcome::Patched(GraphPatch {
                graph: self.clone(),
                dirty_cols: Vec::new(),
                tombstoned_cols: Vec::new(),
                crossed_out: Vec::new(),
                crossed_in: Vec::new(),
                old_gnets: n_n,
                dirty_rows: Vec::new(),
            }));
        }

        let new_total = n_n + appended.len();
        let new_tombstones = self.tombstones - revived.len() + tombstoned.len();
        let new_live = new_total - new_tombstones;
        if new_live == 0 {
            return Ok(DeltaOutcome::Structural(StructuralReason::NoLiveColumns));
        }
        if new_tombstones > 0
            && (new_tombstones as f32) > cfg.max_tombstone_fraction * (new_total as f32)
        {
            return Ok(DeltaOutcome::Structural(StructuralReason::Compaction {
                tombstones: new_tombstones,
                live: new_live,
            }));
        }

        // Live dirty columns (moved + revived + appended), ascending:
        // appended columns take indices n_n.. in rebin order.
        let mut live_dirty: Vec<(usize, GcellSpan)> =
            Vec::with_capacity(moved.len() + revived.len() + appended.len());
        live_dirty.extend(moved.iter().copied());
        live_dirty.extend(revived.iter().copied());
        live_dirty.extend(appended.iter().enumerate().map(|(i, &(_, ns))| (n_n + i, ns)));
        live_dirty.sort_unstable_by_key(|&(j, _)| j);
        tombstoned.sort_unstable();

        // Dirty G-cell rows: union of old spans (moved + tombstoned — a
        // revived column had no entries, its stale span is irrelevant)
        // and new spans (`live_dirty` = moved + revived + appended).
        let mut rows: Vec<usize> = Vec::new();
        for &j in moved.iter().map(|(j, _)| j).chain(&tombstoned) {
            let os = self.spans[j];
            rows.extend(grid.iter_span(os.0, os.1).map(|c| grid.index(c)));
        }
        for &(_, ns) in &live_dirty {
            rows.extend(grid.iter_span(ns.0, ns.1).map(|c| grid.index(c)));
        }
        rows.sort_unstable();
        rows.dedup();

        // Incidence rows: keep clean columns, drop dirty/tombstoned ones,
        // merge in the live dirty nets that now cover the row. Iterating
        // dirty nets in ascending column order fills each row's addition
        // list pre-sorted, so the rebuild is a linear merge of two
        // ascending streams — no per-row sort, same (column-sorted)
        // layout `from_triplets` produces.
        let mut dirty_col = vec![false; new_total];
        for &(j, _) in &live_dirty {
            dirty_col[j] = true;
        }
        for &j in &tombstoned {
            dirty_col[j] = true;
        }
        let mut additions: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
        for &(j, ns) in &live_dirty {
            for c in grid.iter_span(ns.0, ns.1) {
                let slot = rows.binary_search(&grid.index(c)).expect("span cell is a dirty row");
                additions[slot].push(j);
            }
        }
        let incidence_rows: Vec<(usize, Vec<(usize, f32)>)> = rows
            .iter()
            .zip(&additions)
            .map(|(&r, add)| {
                let mut entries = Vec::with_capacity(self.incidence.row_nnz(r) + add.len());
                let mut add_it = add.iter().copied().peekable();
                for (c, v) in self.incidence.row_entries(r) {
                    if dirty_col[c] {
                        continue;
                    }
                    while add_it.peek().is_some_and(|&j| j < c) {
                        entries.push((add_it.next().expect("peeked"), 1.0));
                    }
                    entries.push((c, v));
                }
                entries.extend(add_it.map(|j| (j, 1.0)));
                (r, entries)
            })
            .collect();
        let grown_h;
        let base_h = if appended.is_empty() {
            &*self.incidence
        } else {
            grown_h = self.incidence.with_cols(new_total);
            &grown_h
        };
        let incidence = Arc::new(base_h.with_rows_replaced(&incidence_rows));

        // `D⁻¹H` rows share the incidence pattern with value `1/row-degree`
        // — exactly what `row_normalized` yields on a 0/1 row (the sum of
        // `c` ones is exactly `c as f32` for any realistic degree).
        let mean_rows: Vec<(usize, Vec<(usize, f32)>)> = incidence_rows
            .iter()
            .map(|(r, es)| {
                let inv = if es.is_empty() { 0.0 } else { 1.0 / es.len() as f32 };
                (*r, es.iter().map(|&(c, _)| (c, inv)).collect())
            })
            .collect();
        let grown_m;
        let base_m = if appended.is_empty() {
            &*self.gnc_mean
        } else {
            grown_m = self.gnc_mean.with_cols(new_total);
            &grown_m
        };
        let gnc_mean = Arc::new(base_m.with_rows_replaced(&mean_rows));

        // `B⁻¹Hᵀ` rows are per-net: the new span's cells in ascending
        // index order with value `1/area` (the transpose-then-normalise
        // result of the full build), and an empty (masked) row for every
        // tombstoned column.
        let mut net_rows: Vec<(usize, Vec<(usize, f32)>)> =
            Vec::with_capacity(live_dirty.len() + tombstoned.len());
        for &j in &tombstoned {
            net_rows.push((j, Vec::new()));
        }
        for &(j, ns) in &live_dirty {
            let inv = 1.0 / span_cells(ns) as f32;
            net_rows.push((j, grid.iter_span(ns.0, ns.1).map(|c| (grid.index(c), inv)).collect()));
        }
        net_rows.sort_unstable_by_key(|&(j, _)| j);
        let grown_t;
        let base_t = if appended.is_empty() {
            &*self.gcn_mean
        } else {
            grown_t = self.gcn_mean.with_rows_appended(appended.len());
            &grown_t
        };
        let gcn_mean = Arc::new(base_t.with_rows_replaced(&net_rows));

        let mut spans = (*self.spans).clone();
        for &(j, ns) in &live_dirty {
            if j < n_n {
                spans[j] = ns;
            } else {
                spans.push(ns);
            }
        }
        let (kept_nets, net_to_col) = if appended.is_empty() {
            (Arc::clone(&self.kept_nets), Arc::clone(&self.net_to_col))
        } else {
            let mut kept = (*self.kept_nets).clone();
            let mut inv = (*self.net_to_col).clone();
            for (i, &(net, _)) in appended.iter().enumerate() {
                inv[net.0 as usize] = (n_n + i) as u32;
                kept.push(net);
            }
            (Arc::new(kept), Arc::new(inv))
        };
        let tombstone = if tombstoned.is_empty() && revived.is_empty() && appended.is_empty() {
            Arc::clone(&self.tombstone)
        } else {
            let mut flags = (*self.tombstone).clone();
            for &j in &tombstoned {
                flags[j] = true;
            }
            for &(j, _) in &revived {
                flags[j] = false;
            }
            flags.resize(new_total, false);
            Arc::new(flags)
        };

        let graph = LhGraph {
            nx: self.nx,
            ny: self.ny,
            incidence,
            lattice: Arc::clone(&self.lattice),
            gnc_mean,
            gcn_mean,
            lattice_mean: Arc::clone(&self.lattice_mean),
            kept_nets,
            spans: Arc::new(spans),
            tombstone,
            tombstones: new_tombstones,
            net_to_col,
            dropped_gnets: self.dropped_gnets - appended.len(),
        };
        let mut crossed_out: Vec<NetId> = tombstoned.iter().map(|&j| self.kept_nets[j]).collect();
        crossed_out.sort_unstable();
        let mut crossed_in: Vec<NetId> = revived
            .iter()
            .map(|&(j, _)| self.kept_nets[j])
            .chain(appended.iter().map(|&(net, _)| net))
            .collect();
        crossed_in.sort_unstable();
        Ok(DeltaOutcome::Patched(GraphPatch {
            graph,
            dirty_cols: live_dirty.iter().map(|&(j, _)| j).collect(),
            tombstoned_cols: tombstoned,
            crossed_out,
            crossed_in,
            old_gnets: n_n,
            dirty_rows: rows,
        }))
    }

    /// Number of G-cell nodes (`N_c`).
    pub fn num_gcells(&self) -> usize {
        self.nx * self.ny
    }

    /// Number of G-net nodes (`N_n`) — the full column space, tombstones
    /// included (the matrix dimension).
    pub fn num_gnets(&self) -> usize {
        self.kept_nets.len()
    }

    /// Number of live (non-tombstoned) G-net columns.
    #[cfg(test)]
    fn live_gnets(&self) -> usize {
        self.kept_nets.len() - self.tombstones
    }

    /// Number of tombstoned G-net columns.
    pub fn tombstoned_gnets(&self) -> usize {
        self.tombstones
    }

    /// Whether column `col` is a tombstone (net left the size filter; the
    /// column is retained empty for id stability).
    ///
    /// # Panics
    ///
    /// Panics if `col >= num_gnets()`.
    pub fn is_tombstone(&self, col: usize) -> bool {
        self.tombstone[col]
    }

    /// Grid columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The incidence matrix `H` (`N_c × N_n`).
    pub fn incidence(&self) -> &Arc<CsrMatrix> {
        &self.incidence
    }

    /// The lattice adjacency `A` (`N_c × N_c`).
    pub fn lattice(&self) -> &Arc<CsrMatrix> {
        &self.lattice
    }

    /// Sum aggregation G-net → G-cell (`G_nc = H`, Eq. 1): the incidence
    /// matrix itself, shared.
    pub fn gnc_sum(&self) -> &Arc<CsrMatrix> {
        &self.incidence
    }

    /// Mean aggregation G-net → G-cell (`D⁻¹H`).
    pub fn gnc_mean(&self) -> &Arc<CsrMatrix> {
        &self.gnc_mean
    }

    /// Mean aggregation G-cell → G-net (`B⁻¹Hᵀ`).
    pub fn gcn_mean(&self) -> &Arc<CsrMatrix> {
        &self.gcn_mean
    }

    /// Mean aggregation over lattice neighbours (`P⁻¹A`).
    pub fn lattice_mean(&self) -> &Arc<CsrMatrix> {
        &self.lattice_mean
    }

    /// The circuit net behind each G-net column (tombstones included).
    pub fn kept_nets(&self) -> &[NetId] {
        &self.kept_nets
    }

    /// The G-net column of a circuit net, or `None` if the net has no
    /// **live** column (never kept, or currently tombstoned). O(1).
    pub fn net_column(&self, net: NetId) -> Option<usize> {
        self.net_slot(net).filter(|&j| !self.tombstone[j])
    }

    /// The column slot of a net, live or tombstoned.
    fn net_slot(&self, net: NetId) -> Option<usize> {
        match self.net_to_col.get(net.0 as usize) {
            Some(&c) if c != NO_COLUMN => Some(c as usize),
            _ => None,
        }
    }

    /// The covered G-cell span of a G-net column. Meaningful for live
    /// columns only — a tombstone's span is stale.
    ///
    /// # Panics
    ///
    /// Panics if `col >= num_gnets()`.
    pub fn span_of(&self, col: usize) -> GcellSpan {
        self.spans[col]
    }

    /// Number of circuit nets without a G-net column.
    pub fn dropped_gnets(&self) -> usize {
        self.dropped_gnets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::{
        rebin_delta_in_place, Cell, CellId, Circuit, Net, Pin, PlacementDelta, Point, Rect,
    };

    /// 4×4 grid, 2 nets: one small (2×1 g-cells), one large (3×3).
    fn sample() -> (Circuit, Placement, GcellGrid) {
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut c = Circuit::new("s", die);
        let a = c.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = c.add_cell(Cell::movable("b", 0.2, 0.2));
        let d = c.add_cell(Cell::movable("d", 0.2, 0.2));
        let e = c.add_cell(Cell::movable("e", 0.2, 0.2));
        c.add_net(Net::new("small", vec![Pin::at_center(a), Pin::at_center(b)]));
        c.add_net(Net::new("large", vec![Pin::at_center(d), Pin::at_center(e)]));
        let mut p = Placement::zeroed(4);
        p.set_position(a, Point::new(1.0, 1.0)); // (0,0)
        p.set_position(b, Point::new(3.0, 1.0)); // (1,0)
        p.set_position(d, Point::new(1.0, 3.0)); // (0,1)
        p.set_position(e, Point::new(5.0, 7.0)); // (2,3)
        (c, p, grid)
    }

    fn frac(max_gnet_fraction: f32) -> LhGraphConfig {
        LhGraphConfig { max_gnet_fraction, ..LhGraphConfig::default() }
    }

    /// Routes one delta through `rebin_delta_in_place` + `apply_delta`.
    fn step(
        g: &LhGraph,
        c: &Circuit,
        p: &mut Placement,
        grid: &GcellGrid,
        cfg: &LhGraphConfig,
        delta: &PlacementDelta,
    ) -> DeltaOutcome {
        let report = rebin_delta_in_place(c, grid, p, delta, &c.cell_to_nets());
        g.apply_delta(grid, cfg, &report).expect("same grid")
    }

    #[test]
    fn incidence_matches_bounding_boxes() {
        let (c, p, grid) = sample();
        let g = LhGraph::build(&c, &p, &grid, &frac(1.0)).unwrap();
        assert_eq!(g.num_gcells(), 16);
        assert_eq!(g.num_gnets(), 2);
        let h = g.incidence().to_dense();
        // small net: cells (0,0) and (1,0) = indices 0, 1
        assert_eq!(h[(0, 0)], 1.0);
        assert_eq!(h[(1, 0)], 1.0);
        assert_eq!(h[(2, 0)], 0.0);
        // large net: 3 cols x 3 rows from (0,1) to (2,3) = 9 cells
        let col1: f32 = (0..16).map(|i| h[(i, 1)]).sum();
        assert_eq!(col1, 9.0);
    }

    #[test]
    fn size_filter_drops_large_gnets() {
        let (c, p, grid) = sample();
        // max area = 16 * 0.2 = 3.2 -> 3 cells; the 9-cell net is dropped
        let g = LhGraph::build(&c, &p, &grid, &frac(0.2)).unwrap();
        assert_eq!(g.num_gnets(), 1);
        assert_eq!(g.dropped_gnets(), 1);
        assert_eq!(g.kept_nets()[0], NetId(0));
    }

    #[test]
    fn lattice_degrees_are_2_3_4() {
        let (c, p, grid) = sample();
        let g = LhGraph::build(&c, &p, &grid, &frac(1.0)).unwrap();
        let degrees = g.lattice().row_sums();
        // corners have 2 neighbours, edges 3, interior 4
        assert_eq!(degrees[0], 2.0); // (0,0)
        assert_eq!(degrees[1], 3.0); // (1,0)
        assert_eq!(degrees[5], 4.0); // (1,1)
        let total: f32 = degrees.iter().sum();
        assert_eq!(total, 2.0 * 24.0); // 24 undirected edges in a 4x4 lattice
    }

    #[test]
    fn lattice_is_symmetric() {
        let (c, p, grid) = sample();
        let g = LhGraph::build(&c, &p, &grid, &frac(1.0)).unwrap();
        let a = g.lattice().to_dense();
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }

    #[test]
    fn operators_are_row_stochastic() {
        let (c, p, grid) = sample();
        let g = LhGraph::build(&c, &p, &grid, &frac(1.0)).unwrap();
        for sums in [g.gcn_mean().row_sums(), g.lattice_mean().row_sums()] {
            for s in sums {
                assert!((s - 1.0).abs() < 1e-5, "row sum {s}");
            }
        }
        // gnc_mean rows are 1 for covered g-cells, 0 for uncovered
        for s in g.gnc_mean().row_sums() {
            assert!(s.abs() < 1e-5 || (s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gcn_mean_shape_is_transposed() {
        let (c, p, grid) = sample();
        let g = LhGraph::build(&c, &p, &grid, &frac(1.0)).unwrap();
        assert_eq!(g.gcn_mean().shape(), (2, 16));
        assert_eq!(g.gnc_mean().shape(), (16, 2));
        assert_eq!(g.gnc_sum().shape(), (16, 2));
    }

    #[test]
    fn empty_filter_result_is_an_error() {
        let (c, p, grid) = sample();
        // fraction so small that max_area = 1 g-cell; both nets span > 1
        let err = LhGraph::build(&c, &p, &grid, &frac(1e-9));
        assert!(err.is_err());
    }

    #[test]
    fn circuit_without_nets_builds_empty_hypergraph() {
        let die = Rect::new(0.0, 0.0, 4.0, 4.0);
        let grid = GcellGrid::new(die, 2, 2);
        let c = Circuit::new("none", die);
        let p = Placement::zeroed(0);
        let g = LhGraph::build(&c, &p, &grid, &LhGraphConfig::default()).unwrap();
        assert_eq!(g.num_gnets(), 0);
        assert_eq!(g.num_gcells(), 4);
    }

    #[test]
    fn crossing_out_tombstones_the_column_in_place() {
        let (c, mut p, grid) = sample();
        // max area = 16 * 0.6 = 9 cells: both nets live (2 and 9 cells);
        // never compact so the crossing stays on the patched path
        let cfg = LhGraphConfig { max_gnet_fraction: 0.6, max_tombstone_fraction: 1.0 };
        let g = LhGraph::build(&c, &p, &grid, &cfg).unwrap();
        assert_eq!((g.num_gnets(), g.live_gnets()), (2, 2));
        // stretch net 1 to 12 cells: it leaves the filter
        let delta = PlacementDelta::single(CellId(3), Point::new(7.0, 7.0));
        let DeltaOutcome::Patched(patch) = step(&g, &c, &mut p, &grid, &cfg, &delta) else {
            panic!("crossing must patch, not rebuild");
        };
        let pg = &patch.graph;
        assert_eq!(pg.num_gnets(), 2, "column space must not shrink");
        assert_eq!(pg.live_gnets(), 1);
        assert!(pg.is_tombstone(1));
        assert_eq!(pg.tombstoned_gnets(), 1);
        assert_eq!(patch.crossed_out, vec![NetId(1)]);
        assert_eq!(patch.tombstoned_cols, vec![1]);
        assert!(patch.crossed_filter());
        assert_eq!(pg.net_column(NetId(1)), None, "tombstoned column is not live");
        assert_eq!(pg.net_column(NetId(0)), Some(0));
        assert_eq!(pg.incidence().nnz(), 2, "tombstoned incidence entries are gone");
        assert_eq!(pg.gcn_mean().row_nnz(1), 0, "mean-normalisation is masked");
        // bitwise parity with the prescribed-layout reference build
        let reference = LhGraph::build_with_columns(&c, &p, &grid, &cfg, pg.kept_nets()).unwrap();
        assert_eq!(pg.incidence().as_ref(), reference.incidence().as_ref());
        assert_eq!(pg.gnc_mean().as_ref(), reference.gnc_mean().as_ref());
        assert_eq!(pg.gcn_mean().as_ref(), reference.gcn_mean().as_ref());
        assert_eq!(reference.tombstoned_gnets(), 1, "liveness is placement-derived");
    }

    #[test]
    fn out_and_back_crossing_revives_the_same_column_bitwise() {
        let (c, mut p, grid) = sample();
        let cfg = LhGraphConfig { max_gnet_fraction: 0.6, max_tombstone_fraction: 1.0 };
        let g = LhGraph::build(&c, &p, &grid, &cfg).unwrap();
        let home = p.position(CellId(3));
        let fp0 = g.incidence().content_fingerprint();
        let out = PlacementDelta::single(CellId(3), Point::new(7.0, 7.0));
        let DeltaOutcome::Patched(patch) = step(&g, &c, &mut p, &grid, &cfg, &out) else {
            panic!("crossing out must patch");
        };
        let back = PlacementDelta::single(CellId(3), home);
        let DeltaOutcome::Patched(patch2) = step(&patch.graph, &c, &mut p, &grid, &cfg, &back)
        else {
            panic!("crossing back must patch");
        };
        let pg = &patch2.graph;
        assert_eq!(patch2.crossed_in, vec![NetId(1)]);
        assert_eq!(pg.net_column(NetId(1)), Some(1), "revival reuses the old column");
        assert_eq!(pg.tombstoned_gnets(), 0);
        // out-and-back lands bitwise on the original state
        assert_eq!(pg.incidence().as_ref(), g.incidence().as_ref());
        assert_eq!(pg.incidence().content_fingerprint(), fp0);
        assert_eq!(pg.gcn_mean().as_ref(), g.gcn_mean().as_ref());
        assert_eq!(pg.gnc_mean().as_ref(), g.gnc_mean().as_ref());
    }

    #[test]
    fn entering_net_appends_a_column_and_matches_prescribed_build() {
        let (c, mut p, grid) = sample();
        let cfg = frac(0.2);
        let g = LhGraph::build(&c, &p, &grid, &cfg).unwrap();
        assert_eq!(g.num_gnets(), 1, "net 1 dropped at build");
        // shrink net 1 (cells d,e) into one g-cell: it enters the filter
        let mut delta = PlacementDelta::new();
        delta.push(CellId(2), Point::new(1.0, 5.0));
        delta.push(CellId(3), Point::new(1.2, 5.2));
        let DeltaOutcome::Patched(patch) = step(&g, &c, &mut p, &grid, &cfg, &delta) else {
            panic!("entering net must append, not rebuild");
        };
        let pg = &patch.graph;
        assert_eq!(pg.num_gnets(), 2);
        assert_eq!(pg.net_column(NetId(1)), Some(1), "appended at the end");
        assert_eq!(patch.crossed_in, vec![NetId(1)]);
        assert_eq!(patch.old_gnets, 1);
        assert_eq!(pg.dropped_gnets(), 0);
        // bitwise parity with the prescribed-layout reference build
        let reference = LhGraph::build_with_columns(&c, &p, &grid, &cfg, pg.kept_nets()).unwrap();
        assert_eq!(pg.incidence().as_ref(), reference.incidence().as_ref());
        assert_eq!(pg.gnc_mean().as_ref(), reference.gnc_mean().as_ref());
        assert_eq!(pg.gcn_mean().as_ref(), reference.gcn_mean().as_ref());
        assert_eq!(
            pg.incidence().content_fingerprint(),
            reference.incidence().content_fingerprint()
        );
    }

    #[test]
    fn tombstone_threshold_reports_compaction() {
        let (c, mut p, grid) = sample();
        // threshold 0: the very first tombstone triggers compaction
        let cfg = LhGraphConfig { max_gnet_fraction: 0.2, max_tombstone_fraction: 0.0 };
        let g = LhGraph::build(&c, &p, &grid, &cfg).unwrap();
        // need a second live column so NoLiveColumns doesn't mask the
        // compaction: shrink net 1 into the filter first
        let mut shrink = PlacementDelta::new();
        shrink.push(CellId(2), Point::new(1.0, 5.0));
        shrink.push(CellId(3), Point::new(1.2, 5.2));
        let DeltaOutcome::Patched(patch) = step(&g, &c, &mut p, &grid, &cfg, &shrink) else {
            panic!("append without tombstones stays patched at threshold 0");
        };
        let stretch = PlacementDelta::single(CellId(1), Point::new(7.0, 7.0));
        match step(&patch.graph, &c, &mut p, &grid, &cfg, &stretch) {
            DeltaOutcome::Structural(StructuralReason::Compaction { tombstones, live }) => {
                assert_eq!((tombstones, live), (1, 1));
            }
            other => panic!("expected compaction, got {other:?}"),
        }
    }

    #[test]
    fn losing_the_last_live_column_is_structural() {
        let (c, mut p, grid) = sample();
        let cfg = frac(0.2);
        let g = LhGraph::build(&c, &p, &grid, &cfg).unwrap();
        assert_eq!(g.live_gnets(), 1);
        let stretch = PlacementDelta::single(CellId(1), Point::new(7.0, 7.0));
        match step(&g, &c, &mut p, &grid, &cfg, &stretch) {
            DeltaOutcome::Structural(StructuralReason::NoLiveColumns) => {}
            other => panic!("expected NoLiveColumns, got {other:?}"),
        }
        // and the rebuild the caller falls back to fails like EmptyGraph
        assert!(LhGraph::build(&c, &p, &grid, &cfg).is_err());
    }

    #[test]
    fn structural_reasons_render_stably() {
        // benches/tests grep these strings; keep them fixed
        assert_eq!(
            StructuralReason::NoLiveColumns.to_string(),
            "no g-net column would survive the size filter"
        );
        assert_eq!(
            StructuralReason::Compaction { tombstones: 3, live: 9 }.to_string(),
            "compacting 3 tombstoned g-net columns (9 live)"
        );
    }

    #[test]
    fn build_with_columns_rejects_bad_layouts() {
        let (c, p, grid) = sample();
        let cfg = frac(1.0);
        let dup = LhGraph::build_with_columns(&c, &p, &grid, &cfg, &[NetId(0), NetId(0)]);
        assert!(dup.is_err());
        let oob = LhGraph::build_with_columns(&c, &p, &grid, &cfg, &[NetId(7)]);
        assert!(oob.is_err());
    }
}
