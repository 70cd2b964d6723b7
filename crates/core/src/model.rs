//! The SQPR optimisation model (paper §III), reduced per §IV-A.
//!
//! Builds one MILP per planning round over the *free* plan space `S(q)`,
//! `O(q)` of the arriving query (or batch). Decision variables outside the
//! free space stay at their current deployment values and enter the model
//! only as residual-capacity constants — exactly the paper's variable
//! fixing. Constraint groups:
//!
//! | paper | here |
//! |---|---|
//! | III.4a demand        | `d_hs ≤ y_hs` |
//! | III.4b / IV.9        | `Σ_h d_hs ≤ 1` (new) / `= 1` (admitted) |
//! | III.5a availability  | `y_ms ≤ Σ_h x_hms + Σ_o z_mo + 1[s ∈ S0_m]` |
//! | III.5b operator      | `z_ho ≤ y_hs` for each input `s ∈ S_o` |
//! | III.5c flow          | `x_hms ≤ y_hs` |
//! | III.6a link          | `Σ_s ̺_s x_hms ≤ κ_hm − fixed` |
//! | III.6b in-bandwidth  | `Σ_{h,s} ̺_s x_hms ≤ β_m − fixed` |
//! | III.6c out-bandwidth | `Σ_{m,s} ̺_s x_hms + Σ_s ̺_s d_hs ≤ β_h − fixed` |
//! | III.6d CPU           | `Σ_o γ_o z_ho ≤ ζ_h − fixed` |
//! | III.7 acyclicity     | `p_ms − p_hs + M x_hms ≤ M − 1`, `M = H + 2` |
//! | O4 linearisation     | `t ≥ fixed_cpu_h + Σ_o γ_o z_ho` |
//!
//! Additionally, *fixed consumers* — operators of unrelated queries that
//! stay in place but consume a stream in the free space — pin `y_hs = 1` so
//! a re-plan cannot starve them.
//!
//! ## Incremental skeleton (warm-started re-planning)
//!
//! A `PlanningModel` can also act as a persistent *skeleton* across
//! submissions: [`PlanningModel::extend`] appends the columns and rows for
//! newly registered streams/operators instead of re-enumerating the whole
//! space, and [`PlanningModel::apply_reduction`] re-applies the §IV-A
//! variable fixing for the *current* submission by bound-fixing every
//! variable outside its plan space at the deployed value. Because the
//! skeleton only ever appends columns and rows, the LP basis of the
//! previous submission remains a valid warm-start hint
//! ([`sqpr_lp::BasisState`]) for the next one. Internally `build` is
//! exactly "empty shell + one `extend`", so both construction paths
//! generate identical structures.

use std::collections::{BTreeMap, BTreeSet};

use sqpr_milp::{ConsId, Model, Sense, VarId};

use sqpr_dsps::{Catalog, DeploymentState, HostId, OperatorId, StreamId};

use crate::config::{AcyclicityMode, ObjectiveWeights, RelayPolicy};
use crate::query::PlanSpace;

/// A lazy availability cut: inside a "dead" host set (one that derived no
/// real source of `stream` in a candidate solution), availability must be
/// powered from outside the set. Valid for every causal allocation and
/// violated by the offending cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityCut {
    pub stream: StreamId,
    pub dead_set: BTreeSet<HostId>,
}

/// Inputs to one planning-model build.
pub struct ModelInputs<'a> {
    pub catalog: &'a Catalog,
    pub state: &'a DeploymentState,
    /// Free plan space (the reduction's S(q), O(q)).
    pub space: &'a PlanSpace,
    /// Newly demanded streams (one per query in the batch).
    pub new_streams: &'a [StreamId],
    pub weights: ObjectiveWeights,
    pub relay_policy: RelayPolicy,
    pub acyclicity: AcyclicityMode,
    /// IV.9 flexibility: when false, variables currently 1 are frozen.
    pub replan: bool,
    /// Lazy availability cuts accumulated by previous solve rounds.
    pub cuts: &'a [AvailabilityCut],
}

/// Lifecycle of one demanded stream's `Σ_h d_hs` row across submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DemandKind {
    /// Admitted: IV.9 equality (`= 1`).
    Eq,
    /// Demanded by the current submission: `<= 1`.
    Le,
    /// Demanded by a past submission and rejected: `d` fixed to 0 so stale
    /// λ1 rewards cannot distort later solves.
    Disabled,
}

/// A built planning model plus the variable maps needed to decode results.
///
/// Every map here is a `BTreeMap` on purpose: model construction and
/// decoding iterate these maps (acausal-cut discovery, warm-start
/// objective accumulation, link-residual sweeps), and hash-ordered
/// iteration made row layout and float summation order vary run to run.
/// Ordered maps pin both, so identical inputs build byte-identical
/// models — the invariant the parallel branch & bound's determinism
/// tests assert end to end.
///
/// `Clone` exists for the admission queue: a deadline-preempted round
/// parks its suspended [`sqpr_milp::SearchState`] *together with* a clone
/// of the model it was built from, because the search's `x` vector indexes
/// this model's variables — the planner's live skeleton may have been
/// extended by other submissions by the time the search resumes.
#[derive(Clone)]
pub struct PlanningModel {
    pub milp: Model,
    d: BTreeMap<(HostId, StreamId), VarId>,
    x: BTreeMap<(HostId, HostId, StreamId), VarId>,
    y: BTreeMap<(HostId, StreamId), VarId>,
    z: BTreeMap<(HostId, OperatorId), VarId>,
    p: BTreeMap<(HostId, StreamId), VarId>,
    free_streams: BTreeSet<StreamId>,
    free_ops: BTreeSet<OperatorId>,
    t: Option<VarId>,
    fixed_cpu: Vec<f64>,
    gamma: BTreeMap<OperatorId, f64>,
    big_m: f64,
    n_hosts: usize,
    // --- incremental bookkeeping ---
    hosts: Vec<HostId>,
    weights: ObjectiveWeights,
    relay_policy: RelayPolicy,
    acyclicity: AcyclicityMode,
    avail_rows: BTreeMap<(HostId, StreamId), ConsId>,
    /// `ProducersOnly` relay rows keyed by `(sender, receiver, stream)`:
    /// later-added producers of `stream` append their `-z` terms here, so
    /// the ablation extends incrementally like everything else.
    relay_rows: BTreeMap<(HostId, HostId, StreamId), ConsId>,
    demand_rows: BTreeMap<StreamId, ConsId>,
    demand_kind: BTreeMap<StreamId, DemandKind>,
    link_rows: BTreeMap<(HostId, HostId), ConsId>,
    in_rows: Vec<Option<ConsId>>,
    out_rows: Vec<Option<ConsId>>,
    cpu_rows: Vec<ConsId>,
    mem_rows: Vec<Option<ConsId>>,
    t_rows: Vec<ConsId>,
    cut_rows: Vec<(AvailabilityCut, Vec<ConsId>)>,
    pinned: BTreeSet<(HostId, StreamId)>,
    fixed_producer: BTreeSet<(HostId, StreamId)>,
}

impl PlanningModel {
    /// Builds the reduced MILP: an empty shell (capacity rows, O4
    /// variable) plus one [`Self::extend`] over the whole input space.
    pub fn build(inp: &ModelInputs<'_>) -> Self {
        let catalog = inp.catalog;
        let n = catalog.num_hosts();
        let big_m = n as f64 + 2.0; // any value > |H| + 1 (paper III.7)
        let hosts: Vec<HostId> = catalog.hosts().collect();
        let w = inp.weights;

        let mut milp = Model::new(Sense::Maximize);
        let t = if w.lambda4 != 0.0 {
            Some(milp.add_continuous(0.0, f64::INFINITY, -w.lambda4))
        } else {
            None
        };

        // Shared capacity rows are created once, empty; extensions append
        // the terms of every column that lands in them. Bounds are
        // refreshed from the residuals on every extension.
        let mut link_rows = BTreeMap::new();
        for &h in &hosts {
            for &m in &hosts {
                if h != m && catalog.topology().link(h, m).is_finite() {
                    link_rows.insert((h, m), milp.add_le(Vec::new(), f64::INFINITY));
                }
            }
        }
        let in_rows: Vec<Option<ConsId>> = hosts
            .iter()
            .map(|&m| {
                catalog
                    .host(m)
                    .bandwidth_in
                    .is_finite()
                    .then(|| milp.add_le(Vec::new(), f64::INFINITY))
            })
            .collect();
        let out_rows: Vec<Option<ConsId>> = hosts
            .iter()
            .map(|&h| {
                catalog
                    .host(h)
                    .bandwidth_out
                    .is_finite()
                    .then(|| milp.add_le(Vec::new(), f64::INFINITY))
            })
            .collect();
        let cpu_rows: Vec<ConsId> = hosts
            .iter()
            .map(|_| milp.add_le(Vec::new(), f64::INFINITY))
            .collect();
        let mem_rows: Vec<Option<ConsId>> = hosts
            .iter()
            .map(|&h| {
                catalog
                    .host(h)
                    .memory_capacity
                    .is_finite()
                    .then(|| milp.add_le(Vec::new(), f64::INFINITY))
            })
            .collect();
        let t_rows: Vec<ConsId> = match t {
            Some(t) => hosts
                .iter()
                .map(|_| milp.add_ge(vec![(t, 1.0)], 0.0))
                .collect(),
            None => Vec::new(),
        };

        let mut model = PlanningModel {
            milp,
            d: BTreeMap::new(),
            x: BTreeMap::new(),
            y: BTreeMap::new(),
            z: BTreeMap::new(),
            p: BTreeMap::new(),
            free_streams: BTreeSet::new(),
            free_ops: BTreeSet::new(),
            t,
            fixed_cpu: vec![0.0; n],
            gamma: BTreeMap::new(),
            big_m,
            n_hosts: n,
            hosts,
            weights: w,
            relay_policy: inp.relay_policy,
            acyclicity: inp.acyclicity,
            avail_rows: BTreeMap::new(),
            relay_rows: BTreeMap::new(),
            demand_rows: BTreeMap::new(),
            demand_kind: BTreeMap::new(),
            link_rows,
            in_rows,
            out_rows,
            cpu_rows,
            mem_rows,
            t_rows,
            cut_rows: Vec::new(),
            pinned: BTreeSet::new(),
            fixed_producer: BTreeSet::new(),
        };
        model.extend(inp);
        model
    }

    /// Extends the skeleton to cover `inp.space`, appending columns and
    /// rows for streams/operators not yet represented, updating the demand
    /// rows to the current admitted/new sets, adding availability cuts not
    /// yet applied, and refreshing the residual capacities, availability
    /// right-hand sides and fixed-consumer pins against `inp.state`.
    ///
    /// Appended columns never disturb existing ones, so an
    /// [`sqpr_lp::BasisState`] captured before the extension remains a
    /// valid warm-start hint afterwards.
    ///
    /// `RelayPolicy::ProducersOnly` extends incrementally too: relay rows
    /// are registered in a keyed registry (`(sender, receiver,
    /// stream)`), producers added later append their `-z` terms to the
    /// rows of their output stream, and the right-hand sides (base
    /// placement plus fixed-producer grants) are refreshed from the state
    /// on every extension like the availability rows.
    pub fn extend(&mut self, inp: &ModelInputs<'_>) {
        let catalog = inp.catalog;
        let w = self.weights;
        debug_assert_eq!(self.n_hosts, catalog.num_hosts());
        debug_assert_eq!(self.relay_policy, inp.relay_policy);
        debug_assert_eq!(self.acyclicity, inp.acyclicity);

        let mut added_streams: Vec<StreamId> = inp
            .space
            .streams
            .iter()
            .copied()
            .filter(|s| !self.free_streams.contains(s))
            .collect();
        added_streams.sort();
        added_streams.dedup();
        let mut added_ops: Vec<OperatorId> = inp
            .space
            .operators
            .iter()
            .copied()
            .filter(|o| !self.free_ops.contains(o))
            .collect();
        added_ops.sort();
        added_ops.dedup();

        let hosts = self.hosts.clone();
        let with_potentials = self.acyclicity == AcyclicityMode::Constraints;

        // ---- columns ----
        for &s in &added_streams {
            for &h in &hosts {
                let yv = self.milp.add_binary(0.0);
                self.y.insert((h, s), yv);
                if with_potentials {
                    let pv = self.milp.add_continuous(0.0, self.big_m, 0.0);
                    self.p.insert((h, s), pv);
                }
            }
            let rate = catalog.stream(s).rate;
            for &h in &hosts {
                for &m in &hosts {
                    if h != m {
                        let xv = self.milp.add_binary(-w.lambda2 * rate);
                        self.x.insert((h, m, s), xv);
                    }
                }
            }
        }
        for &o in &added_ops {
            let gamma = catalog.operator(o).cpu_cost;
            for &h in &hosts {
                let zv = self.milp.add_binary(-w.lambda3 * gamma);
                self.z.insert((h, o), zv);
            }
            self.gamma.insert(o, gamma);
        }
        self.free_streams.extend(added_streams.iter().copied());
        self.free_ops.extend(added_ops.iter().copied());

        // ---- demand lifecycle ----
        let admitted: BTreeSet<StreamId> = inp.state.admitted().values().copied().collect();
        let wanted_eq: Vec<StreamId> = admitted
            .iter()
            .copied()
            .filter(|s| self.free_streams.contains(s))
            .collect();
        let mut wanted_new: Vec<StreamId> = inp
            .new_streams
            .iter()
            .copied()
            .filter(|s| !admitted.contains(s))
            .collect();
        wanted_new.sort();
        wanted_new.dedup();
        let existing: Vec<StreamId> = {
            let mut v: Vec<StreamId> = self.demand_rows.keys().copied().collect();
            v.sort();
            v
        };
        for s in existing {
            let kind = if admitted.contains(&s) {
                DemandKind::Eq
            } else if wanted_new.contains(&s) {
                DemandKind::Le
            } else {
                DemandKind::Disabled
            };
            self.set_demand_kind(s, kind);
        }
        for &s in wanted_eq.iter().chain(wanted_new.iter()) {
            if self.demand_rows.contains_key(&s) {
                continue;
            }
            assert!(
                self.free_streams.contains(&s),
                "demanded stream {s} outside the free space"
            );
            let rate = catalog.stream(s).rate;
            let mut row_terms = Vec::with_capacity(hosts.len());
            for &h in &hosts {
                let dv = self.milp.add_binary(w.lambda1);
                self.d.insert((h, s), dv);
                // III.4a: d_hs <= y_hs.
                self.milp
                    .add_le(vec![(dv, 1.0), (self.y[&(h, s)], -1.0)], 0.0);
                // Client delivery counts against out-bandwidth (III.6c).
                if let Some(row) = self.out_rows[h.index()] {
                    self.milp.add_terms(row, [(dv, rate)]);
                }
                row_terms.push((dv, 1.0));
            }
            let row = self.milp.add_le(row_terms, 1.0);
            self.demand_rows.insert(s, row);
            let kind = if admitted.contains(&s) {
                DemandKind::Eq
            } else {
                DemandKind::Le
            };
            self.set_demand_kind(s, kind);
        }

        // ---- rows for the added columns ----
        // III.5a availability for every (added stream, host).
        for &s in &added_streams {
            for &m in &hosts {
                let mut terms = vec![(self.y[&(m, s)], 1.0)];
                for &h in &hosts {
                    if h != m {
                        terms.push((self.x[&(h, m, s)], -1.0));
                    }
                }
                for &o in catalog.producers_of(s) {
                    if self.free_ops.contains(&o) {
                        terms.push((self.z[&(m, o)], -1.0));
                    }
                }
                let row = self.milp.add_le(terms, 0.0); // rhs refreshed below
                self.avail_rows.insert((m, s), row);
            }
        }
        // Added operators producing *pre-existing* free streams join those
        // streams' availability rows (and any cut rows on that stream),
        // plus — under the `ProducersOnly` ablation — the relay rows of
        // their output stream, which is exactly what used to force the
        // planner's cold fresh-build fallback.
        for &o in &added_ops {
            let out = catalog.operator(o).output;
            if added_streams.binary_search(&out).is_err() {
                for &m in &hosts {
                    if let Some(&row) = self.avail_rows.get(&(m, out)) {
                        self.milp.add_terms(row, [(self.z[&(m, o)], -1.0)]);
                    }
                }
                if self.relay_policy == RelayPolicy::ProducersOnly {
                    for &h in &hosts {
                        let zv = self.z[&(h, o)];
                        for &m in &hosts {
                            if let Some(&row) = self.relay_rows.get(&(h, m, out)) {
                                self.milp.add_terms(row, [(zv, -1.0)]);
                            }
                        }
                    }
                }
            }
            for (cut, rows) in &self.cut_rows {
                if cut.stream == out {
                    let feed: Vec<(VarId, f64)> = cut
                        .dead_set
                        .iter()
                        .map(|&m2| (self.z[&(m2, o)], -1.0))
                        .collect();
                    for &row in rows {
                        self.milp.add_terms(row, feed.iter().copied());
                    }
                }
            }
        }
        // III.5b operator inputs for added operators.
        for &o in &added_ops {
            let op = catalog.operator(o);
            for &s in &op.inputs {
                assert!(
                    self.free_streams.contains(&s),
                    "free operator {o} consumes stream {s} outside the free space"
                );
                for &h in &hosts {
                    self.milp
                        .add_le(vec![(self.z[&(h, o)], 1.0), (self.y[&(h, s)], -1.0)], 0.0);
                }
            }
        }
        // III.5c flows + III.7 acyclicity (+ relay ablation) per added x.
        for &s in &added_streams {
            for &h in &hosts {
                for &m in &hosts {
                    if h == m {
                        continue;
                    }
                    let xv = self.x[&(h, m, s)];
                    self.milp
                        .add_le(vec![(xv, 1.0), (self.y[&(h, s)], -1.0)], 0.0);
                    if with_potentials {
                        self.milp.add_le(
                            vec![
                                (self.p[&(m, s)], 1.0),
                                (self.p[&(h, s)], -1.0),
                                (xv, self.big_m),
                            ],
                            self.big_m - 1.0,
                        );
                    }
                    if self.relay_policy == RelayPolicy::ProducersOnly {
                        // Senders must generate the stream locally
                        // (ablation). Terms cover the *currently* free
                        // producers; later-added producers join below and
                        // the rhs (base/fixed-producer grants) is
                        // refreshed per extension like the availability
                        // rows, so the ablation grows incrementally.
                        let mut terms = vec![(xv, 1.0)];
                        for &o in catalog.producers_of(s) {
                            if self.free_ops.contains(&o) {
                                terms.push((self.z[&(h, o)], -1.0));
                            }
                        }
                        let row = self.milp.add_le(terms, f64::INFINITY);
                        self.relay_rows.insert((h, m, s), row);
                    }
                }
            }
        }
        // Capacity terms of the added flow columns (III.6a/b/c).
        for &s in &added_streams {
            let rate = catalog.stream(s).rate;
            for &h in &hosts {
                for &m in &hosts {
                    if h == m {
                        continue;
                    }
                    let xv = self.x[&(h, m, s)];
                    if let Some(&row) = self.link_rows.get(&(h, m)) {
                        self.milp.add_terms(row, [(xv, rate)]);
                    }
                    if let Some(row) = self.in_rows[m.index()] {
                        self.milp.add_terms(row, [(xv, rate)]);
                    }
                    if let Some(row) = self.out_rows[h.index()] {
                        self.milp.add_terms(row, [(xv, rate)]);
                    }
                }
            }
        }
        // CPU / memory / O4 terms of the added operator columns (III.6d).
        for &o in &added_ops {
            let op = catalog.operator(o);
            for &h in &hosts {
                let zv = self.z[&(h, o)];
                self.milp
                    .add_terms(self.cpu_rows[h.index()], [(zv, op.cpu_cost)]);
                if op.memory_cost != 0.0 {
                    if let Some(row) = self.mem_rows[h.index()] {
                        self.milp.add_terms(row, [(zv, op.memory_cost)]);
                    }
                }
                if self.t.is_some() {
                    self.milp
                        .add_terms(self.t_rows[h.index()], [(zv, -op.cpu_cost)]);
                }
            }
        }

        // ---- availability cuts not applied yet ----
        for cut in inp.cuts {
            if self.cut_rows.iter().any(|(c, _)| c == cut) {
                continue;
            }
            self.add_cut(cut.clone(), catalog);
        }

        // ---- refresh state-dependent pieces ----
        self.refresh_pins_and_producers(inp.state, catalog);
        self.refresh_avail_rhs(catalog);
        self.refresh_relay_rhs(catalog);
        self.refresh_cut_rhs(catalog);
        self.refresh_residuals(inp.state, catalog);

        // Freeze current assignments when replanning is disabled
        // (ablation; build path only — the planner never caches skeletons
        // with replan off).
        if !inp.replan {
            for &(h, o) in inp.state.placements() {
                if let Some(&v) = self.z.get(&(h, o)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
            for &(h, m, s) in inp.state.flows() {
                if let Some(&v) = self.x.get(&(h, m, s)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
            for (&s, &h) in inp.state.provided() {
                if let Some(&v) = self.d.get(&(h, s)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
            for &(h, s) in inp.state.available() {
                if let Some(&v) = self.y.get(&(h, s)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                }
            }
        }
    }

    /// Re-applies the §IV-A reduction for one submission over a persistent
    /// skeleton: every variable whose stream/operator lies outside `space`
    /// is bound-fixed at its current deployment value; variables inside are
    /// released to their natural bounds (respecting fixed-consumer pins and
    /// the demand lifecycle). The result is algebraically identical to a
    /// fresh reduced model over `space` — same feasible set, same optimal
    /// decisions — while keeping the column layout stable for basis reuse.
    pub fn apply_reduction(
        &mut self,
        space: &PlanSpace,
        state: &DeploymentState,
        catalog: &Catalog,
    ) {
        let in_streams: BTreeSet<StreamId> = space.streams.iter().copied().collect();
        let in_ops: BTreeSet<OperatorId> = space.operators.iter().copied().collect();
        let derived = state.derive_availability(catalog);
        for (&(h, s), &v) in &self.y {
            if in_streams.contains(&s) {
                if self.pinned.contains(&(h, s)) {
                    self.milp.set_bounds(v, 1.0, 1.0);
                } else {
                    self.milp.set_bounds(v, 0.0, 1.0);
                }
            } else {
                let val = if derived.contains(&(h, s)) { 1.0 } else { 0.0 };
                self.milp.set_bounds(v, val, val);
            }
        }
        for (&(h, m, s), &v) in &self.x {
            if in_streams.contains(&s) {
                self.milp.set_bounds(v, 0.0, 1.0);
            } else {
                let val = if state.flows().contains(&(h, m, s)) {
                    1.0
                } else {
                    0.0
                };
                self.milp.set_bounds(v, val, val);
            }
        }
        for (&(h, o), &v) in &self.z {
            if in_ops.contains(&o) {
                self.milp.set_bounds(v, 0.0, 1.0);
            } else {
                let val = if state.is_placed(h, o) { 1.0 } else { 0.0 };
                self.milp.set_bounds(v, val, val);
            }
        }
        for (&(h, s), &v) in &self.d {
            match self.demand_kind[&s] {
                DemandKind::Disabled => self.milp.set_bounds(v, 0.0, 0.0),
                DemandKind::Eq | DemandKind::Le => {
                    if in_streams.contains(&s) {
                        self.milp.set_bounds(v, 0.0, 1.0);
                    } else {
                        let val = if state.provider_of(s) == Some(h) {
                            1.0
                        } else {
                            0.0
                        };
                        self.milp.set_bounds(v, val, val);
                    }
                }
            }
        }
        // Potentials and the O4 variable stay free: both are auxiliary
        // (zero/objective-only cost) and any causal fixing admits them.
    }

    /// Whether every decision column of `space` — its streams' `y`/`x`/`d`
    /// and its operators' `z` — is currently bound-fixed (`lb == ub`),
    /// i.e. the space lies entirely outside the active reduction. The
    /// auxiliary columns ([`Self::apply_reduction`] never fixes potentials
    /// or the O4 variable) are excluded. This is the safety condition for
    /// keeping the solver context across a query removal: re-fixing a
    /// fixed column at a new value is a bound patch the LP cache absorbs.
    pub fn space_is_bound_fixed(&self, space: &PlanSpace) -> bool {
        let in_streams: BTreeSet<StreamId> = space.streams.iter().copied().collect();
        let in_ops: BTreeSet<OperatorId> = space.operators.iter().copied().collect();
        let fixed = |v: VarId| {
            let (lb, ub) = self.milp.var_bounds(v);
            lb == ub
        };
        self.y
            .iter()
            .chain(self.d.iter())
            .all(|(&(_, s), &v)| !in_streams.contains(&s) || fixed(v))
            && self
                .x
                .iter()
                .all(|(&(_, _, s), &v)| !in_streams.contains(&s) || fixed(v))
            && self
                .z
                .iter()
                .all(|(&(_, o), &v)| !in_ops.contains(&o) || fixed(v))
    }

    /// Marks the decision variables of `spaces` fold-exempt (and everything
    /// else fold-eligible): the compressed-LP cache then keeps those
    /// columns in the LP even while a submission pins them, so a later
    /// submission that re-frees them — re-planning a currently-unserved
    /// query is the planner's case — patches the cached lowering instead
    /// of paying a relayout. Purely a compression hint
    /// ([`sqpr_milp::Model::set_fold_exempt`]): decisions and objectives
    /// are unchanged, the LP just stays a little wider.
    pub fn set_fold_exemptions<'a>(&mut self, spaces: impl IntoIterator<Item = &'a PlanSpace>) {
        let mut streams: BTreeSet<StreamId> = BTreeSet::new();
        let mut ops: BTreeSet<OperatorId> = BTreeSet::new();
        for sp in spaces {
            streams.extend(sp.streams.iter().copied());
            ops.extend(sp.operators.iter().copied());
        }
        for (&(_, s), &v) in &self.y {
            self.milp.set_fold_exempt(v, streams.contains(&s));
        }
        for (&(_, _, s), &v) in &self.x {
            self.milp.set_fold_exempt(v, streams.contains(&s));
        }
        for (&(_, o), &v) in &self.z {
            self.milp.set_fold_exempt(v, ops.contains(&o));
        }
        for (&(_, s), &v) in &self.d {
            self.milp.set_fold_exempt(v, streams.contains(&s));
        }
    }

    /// Applies one demand-row transition (see [`DemandKind`]).
    fn set_demand_kind(&mut self, s: StreamId, kind: DemandKind) {
        let row = self.demand_rows[&s];
        match kind {
            DemandKind::Eq => self.milp.set_row_bounds(row, 1.0, 1.0),
            DemandKind::Le | DemandKind::Disabled => {
                self.milp.set_row_bounds(row, -f64::INFINITY, 1.0)
            }
        }
        for &h in &self.hosts {
            let v = self.d[&(h, s)];
            match kind {
                DemandKind::Disabled => self.milp.set_bounds(v, 0.0, 0.0),
                DemandKind::Eq | DemandKind::Le => self.milp.set_bounds(v, 0.0, 1.0),
            }
        }
        self.demand_kind.insert(s, kind);
    }

    /// Adds one availability cut's rows (shared feed, one row per member).
    fn add_cut(&mut self, cut: AvailabilityCut, catalog: &Catalog) {
        if !self.free_streams.contains(&cut.stream) {
            return;
        }
        let s_ = cut.stream;
        let mut feed: Vec<(VarId, f64)> = Vec::new();
        for &m2 in &cut.dead_set {
            for &h in &self.hosts {
                if h != m2 && !cut.dead_set.contains(&h) {
                    feed.push((self.x[&(h, m2, s_)], -1.0));
                }
            }
            for &o in catalog.producers_of(s_) {
                if self.free_ops.contains(&o) {
                    feed.push((self.z[&(m2, o)], -1.0));
                }
            }
        }
        let mut rows = Vec::with_capacity(cut.dead_set.len());
        for &m in &cut.dead_set {
            let mut terms = vec![(self.y[&(m, s_)], 1.0)];
            terms.extend(feed.iter().copied());
            rows.push(self.milp.add_le(terms, 0.0)); // rhs set by refresh
        }
        self.cut_rows.push((cut, rows));
    }

    /// Recomputes the fixed-producer and fixed-consumer (pin) sets from the
    /// current deployment, applying and reverting `y` pins as needed.
    fn refresh_pins_and_producers(&mut self, state: &DeploymentState, catalog: &Catalog) {
        let mut fixed_producer = BTreeSet::new();
        let mut pinned = BTreeSet::new();
        for &(h, o) in state.placements() {
            if self.free_ops.contains(&o) {
                continue;
            }
            let op = catalog.operator(o);
            if self.free_streams.contains(&op.output) {
                fixed_producer.insert((h, op.output));
            }
            for &s in &op.inputs {
                if self.free_streams.contains(&s) {
                    pinned.insert((h, s));
                }
            }
        }
        for &(h, s) in pinned.difference(&self.pinned) {
            self.milp.set_bounds(self.y[&(h, s)], 1.0, 1.0);
        }
        for &(h, s) in self.pinned.difference(&pinned) {
            self.milp.set_bounds(self.y[&(h, s)], 0.0, 1.0);
        }
        self.pinned = pinned;
        self.fixed_producer = fixed_producer;
    }

    /// Refreshes availability-row right-hand sides (base placement plus
    /// fixed-producer grants).
    fn refresh_avail_rhs(&mut self, catalog: &Catalog) {
        for (&(m, s), &row) in &self.avail_rows {
            let mut rhs = 0.0;
            if catalog.is_base_at(s, m) && !catalog.is_host_failed(m) {
                rhs += 1.0;
            }
            if self.fixed_producer.contains(&(m, s)) {
                rhs += 1.0;
            }
            self.milp.set_row_bounds(row, -f64::INFINITY, rhs);
        }
    }

    /// Refreshes relay-row right-hand sides (`ProducersOnly` ablation):
    /// the sender may forward without a free producer when the stream is
    /// based at the sender or a fixed producer is placed there — the same
    /// grants as the availability rows, re-derived from the current state
    /// on every extension.
    fn refresh_relay_rhs(&mut self, catalog: &Catalog) {
        for (&(h, _, s), &row) in &self.relay_rows {
            let mut rhs = 0.0;
            if catalog.is_base_at(s, h) && !catalog.is_host_failed(h) {
                rhs += 1.0;
            }
            if self.fixed_producer.contains(&(h, s)) {
                rhs += 1.0;
            }
            self.milp.set_row_bounds(row, -f64::INFINITY, rhs);
        }
    }

    /// Refreshes cut-row right-hand sides (base/fixed-producer grants of
    /// dead-set members).
    fn refresh_cut_rhs(&mut self, catalog: &Catalog) {
        for (cut, rows) in &self.cut_rows {
            let mut rhs = 0.0;
            for &m2 in &cut.dead_set {
                if catalog.is_base_at(cut.stream, m2) && !catalog.is_host_failed(m2) {
                    rhs += 1.0;
                }
                if self.fixed_producer.contains(&(m2, cut.stream)) {
                    rhs += 1.0;
                }
            }
            for &row in rows {
                self.milp.set_row_bounds(row, -f64::INFINITY, rhs);
            }
        }
    }

    /// Recomputes the residual capacities: contributions of allocations
    /// whose streams/operators are *not represented in the skeleton*
    /// (everything represented is either free or bound-fixed and therefore
    /// already counted by its own terms).
    fn refresh_residuals(&mut self, state: &DeploymentState, catalog: &Catalog) {
        let n = self.n_hosts;
        let mut cpu_fixed = vec![0.0; n];
        let mut mem_fixed = vec![0.0; n];
        let mut out_fixed = vec![0.0; n];
        let mut in_fixed = vec![0.0; n];
        let mut link_fixed: BTreeMap<(HostId, HostId), f64> = BTreeMap::new();
        for &(h, o) in state.placements() {
            if !self.free_ops.contains(&o) {
                cpu_fixed[h.index()] += catalog.operator(o).cpu_cost;
                mem_fixed[h.index()] += catalog.operator(o).memory_cost;
            }
        }
        for &(h, m, s) in state.flows() {
            if !self.free_streams.contains(&s) {
                let r = catalog.stream(s).rate;
                out_fixed[h.index()] += r;
                in_fixed[m.index()] += r;
                *link_fixed.entry((h, m)).or_default() += r;
            }
        }
        for (&s, &h) in state.provided() {
            if !self.free_streams.contains(&s) {
                out_fixed[h.index()] += catalog.stream(s).rate;
            }
        }

        for (&(h, m), &row) in &self.link_rows {
            let cap = catalog.topology().link(h, m);
            let residual = cap - link_fixed.get(&(h, m)).copied().unwrap_or(0.0);
            self.milp
                .set_row_bounds(row, -f64::INFINITY, residual.max(0.0));
        }
        for (i, &h) in self.hosts.clone().iter().enumerate() {
            if let Some(row) = self.in_rows[i] {
                let cap = catalog.host(h).bandwidth_in;
                self.milp
                    .set_row_bounds(row, -f64::INFINITY, (cap - in_fixed[i]).max(0.0));
            }
            if let Some(row) = self.out_rows[i] {
                let cap = catalog.host(h).bandwidth_out;
                self.milp
                    .set_row_bounds(row, -f64::INFINITY, (cap - out_fixed[i]).max(0.0));
            }
            let cap = catalog.host(h).cpu_capacity;
            self.milp.set_row_bounds(
                self.cpu_rows[i],
                -f64::INFINITY,
                (cap - cpu_fixed[i]).max(0.0),
            );
            if let Some(row) = self.mem_rows[i] {
                let cap = catalog.host(h).memory_capacity;
                self.milp
                    .set_row_bounds(row, -f64::INFINITY, (cap - mem_fixed[i]).max(0.0));
            }
            if !self.t_rows.is_empty() {
                // O4: t >= cpu_fixed + sum gamma z.
                self.milp
                    .set_row_bounds(self.t_rows[i], cpu_fixed[i], f64::INFINITY);
            }
        }
        self.fixed_cpu = cpu_fixed;
    }

    pub fn num_vars(&self) -> usize {
        self.milp.num_vars()
    }

    pub fn num_cons(&self) -> usize {
        self.milp.num_cons()
    }

    /// Re-expresses a [`sqpr_milp::ModelBasis`] captured against `old` in
    /// this (compacted/rebuilt) skeleton's coordinates. Variables are
    /// matched through their `(host, stream/operator)` keys; constraints
    /// through the keyed row registries (availability, demand, capacity,
    /// cut rows). Rows without a key (the per-column coupling rows, whose
    /// slacks are rarely basic) are left unmapped and repaired by the usual
    /// slack substitution — a one-time cost per compaction, not a
    /// correctness concern.
    pub fn remap_basis_from(
        &self,
        old: &PlanningModel,
        basis: &sqpr_milp::ModelBasis,
    ) -> sqpr_milp::ModelBasis {
        let mut var_map: Vec<Option<usize>> = vec![None; old.milp.num_vars()];
        for (key, &v) in &old.y {
            if let Some(&nv) = self.y.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.x {
            if let Some(&nv) = self.x.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.z {
            if let Some(&nv) = self.z.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.p {
            if let Some(&nv) = self.p.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        for (key, &v) in &old.d {
            if let Some(&nv) = self.d.get(key) {
                var_map[v.index()] = Some(nv.index());
            }
        }
        if let (Some(ot), Some(nt)) = (old.t, self.t) {
            var_map[ot.index()] = Some(nt.index());
        }

        let mut cons_map: Vec<Option<usize>> = vec![None; old.milp.num_cons()];
        for (key, &c) in &old.avail_rows {
            if let Some(&nc) = self.avail_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        for (key, &c) in &old.demand_rows {
            if let Some(&nc) = self.demand_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        for (key, &c) in &old.relay_rows {
            if let Some(&nc) = self.relay_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        for (key, &c) in &old.link_rows {
            if let Some(&nc) = self.link_rows.get(key) {
                cons_map[c.index()] = Some(nc.index());
            }
        }
        let per_host = [
            (&old.in_rows, &self.in_rows),
            (&old.out_rows, &self.out_rows),
            (&old.mem_rows, &self.mem_rows),
        ];
        for (old_rows, new_rows) in per_host {
            for (i, slot) in old_rows.iter().enumerate() {
                if let (Some(oc), Some(Some(nc))) = (slot, new_rows.get(i)) {
                    cons_map[oc.index()] = Some(nc.index());
                }
            }
        }
        for (i, oc) in old.cpu_rows.iter().enumerate() {
            if let Some(nc) = self.cpu_rows.get(i) {
                cons_map[oc.index()] = Some(nc.index());
            }
        }
        for (i, oc) in old.t_rows.iter().enumerate() {
            if let Some(nc) = self.t_rows.get(i) {
                cons_map[oc.index()] = Some(nc.index());
            }
        }
        for (cut, old_rows) in &old.cut_rows {
            if let Some((_, new_rows)) = self.cut_rows.iter().find(|(c, _)| c == cut) {
                for (oc, nc) in old_rows.iter().zip(new_rows) {
                    cons_map[oc.index()] = Some(nc.index());
                }
            }
        }
        basis.remap(
            &var_map,
            &cons_map,
            self.milp.num_vars(),
            self.milp.num_cons(),
        )
    }

    /// Builds a warm-start vector from the current deployment: free
    /// variables take their current values, the new queries stay
    /// unadmitted, and stream potentials are set to flow-graph heights so
    /// the acyclicity rows hold. Returns `None` if the state claims a flow
    /// cycle (cannot happen for validated states).
    pub fn warm_start(&self, state: &DeploymentState, catalog: &Catalog) -> Option<Vec<f64>> {
        let mut v = vec![0.0; self.milp.num_vars()];
        // Use the *derived* availability fixpoint rather than the state's
        // explicit claims: base streams are implicitly available at their
        // sources, and hand-built states may omit entries that flows or
        // local operators imply.
        let derived = state.derive_availability(catalog);
        for (&(h, s), &var) in &self.y {
            if derived.contains(&(h, s)) {
                v[var.index()] = 1.0;
            }
        }
        for (&(h, m, s), &var) in &self.x {
            if state.flows().contains(&(h, m, s)) {
                v[var.index()] = 1.0;
            }
        }
        for (&(h, o), &var) in &self.z {
            if state.is_placed(h, o) {
                v[var.index()] = 1.0;
            }
        }
        for (&(h, s), &var) in &self.d {
            if self.demand_kind.get(&s) != Some(&DemandKind::Disabled)
                && state.provider_of(s) == Some(h)
            {
                v[var.index()] = 1.0;
            }
        }
        // Potentials: longest path along current flow edges per stream
        // (only present in Constraints mode).
        if !self.p.is_empty() {
            for &s in &self.free_streams {
                let heights = self.flow_heights(state, s)?;
                for (h, &var) in self
                    .p
                    .iter()
                    .filter(|((_, ps), _)| *ps == s)
                    .map(|((h, _), var)| (h, var))
                {
                    v[var.index()] = heights[h.index()].min(self.big_m);
                }
            }
        }
        // O4 variable: the minimal feasible value is the maximum per-host
        // CPU under the warm-start placements plus the fixed load.
        if let Some(t_var) = self.t {
            let mut cpu = self.fixed_cpu.clone();
            for (&(h, o), &var) in &self.z {
                if v[var.index()] > 0.5 {
                    cpu[h.index()] += self.gamma[&o];
                }
            }
            v[t_var.index()] = cpu.iter().copied().fold(0.0, f64::max);
        }
        Some(v)
    }

    fn flow_heights(&self, state: &DeploymentState, s: StreamId) -> Option<Vec<f64>> {
        // heights[h] = longest path from h along flow edges of stream s.
        let n = self.n_hosts;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(h, m, fs) in state.flows() {
            if fs == s {
                adj[h.index()].push(m.index());
            }
        }
        let mut memo = vec![-1i64; n];
        let mut visiting = vec![false; n];
        fn dfs(
            u: usize,
            adj: &[Vec<usize>],
            memo: &mut [i64],
            visiting: &mut [bool],
        ) -> Option<i64> {
            if memo[u] >= 0 {
                return Some(memo[u]);
            }
            if visiting[u] {
                return None; // cycle
            }
            visiting[u] = true;
            let mut best = 0i64;
            for &w in &adj[u] {
                best = best.max(dfs(w, adj, memo, visiting)? + 1);
            }
            visiting[u] = false;
            memo[u] = best;
            Some(best)
        }
        let mut out = vec![0.0; n];
        for (u, slot) in out.iter_mut().enumerate() {
            *slot = dfs(u, &adj, &mut memo, &mut visiting)? as f64;
        }
        Some(out)
    }

    /// Extracts availability cuts violated by an acausal candidate: for
    /// each free stream, the set of hosts whose claimed availability is not
    /// derivable (a self-sustaining cycle) becomes one dead-set cut.
    pub fn find_acausal_cuts(
        &self,
        xsol: &[f64],
        prev: &DeploymentState,
        catalog: &Catalog,
    ) -> Vec<AvailabilityCut> {
        let decoded = self.decode(xsol, prev);
        let mut cand = prev.clone();
        decoded.install(&mut cand);
        let derived = cand.derive_availability(catalog);
        let mut dead: BTreeMap<StreamId, BTreeSet<HostId>> = BTreeMap::new();
        for &(h, s) in cand.available() {
            if self.free_streams.contains(&s) && !derived.contains(&(h, s)) {
                dead.entry(s).or_default().insert(h);
            }
        }
        dead.into_iter()
            .map(|(stream, dead_set)| AvailabilityCut { stream, dead_set })
            .collect()
    }

    /// Whether a solution vector admits the given demanded stream.
    pub fn admits(&self, x: &[f64], stream: StreamId) -> bool {
        self.d
            .iter()
            .any(|(&(_, s), &v)| s == stream && x[v.index()] > 0.5)
    }

    /// Decodes a solution into a fresh deployment allocation, merging the
    /// fixed (untouched) portion of the previous state.
    pub fn decode(&self, xsol: &[f64], prev: &DeploymentState) -> DecodedAllocation {
        let mut provided: BTreeMap<StreamId, HostId> = BTreeMap::new();
        let mut flows: BTreeSet<(HostId, HostId, StreamId)> = BTreeSet::new();
        let mut available: BTreeSet<(HostId, StreamId)> = BTreeSet::new();
        let mut placements: BTreeSet<(HostId, OperatorId)> = BTreeSet::new();

        // Fixed portion.
        for (&s, &h) in prev.provided() {
            if !self.free_streams.contains(&s) {
                provided.insert(s, h);
            }
        }
        for &(h, m, s) in prev.flows() {
            if !self.free_streams.contains(&s) {
                flows.insert((h, m, s));
            }
        }
        for &(h, s) in prev.available() {
            if !self.free_streams.contains(&s) {
                available.insert((h, s));
            }
        }
        for &(h, o) in prev.placements() {
            if !self.free_ops.contains(&o) {
                placements.insert((h, o));
            }
        }

        // Free portion from the solution.
        for (&(h, s), &v) in &self.d {
            if xsol[v.index()] > 0.5 {
                provided.insert(s, h);
            }
        }
        for (&(h, m, s), &v) in &self.x {
            if xsol[v.index()] > 0.5 {
                flows.insert((h, m, s));
            }
        }
        for (&(h, s), &v) in &self.y {
            if xsol[v.index()] > 0.5 {
                available.insert((h, s));
            }
        }
        for (&(h, o), &v) in &self.z {
            if xsol[v.index()] > 0.5 {
                placements.insert((h, o));
            }
        }

        DecodedAllocation {
            provided,
            flows,
            available,
            placements,
        }
    }
}

/// A decoded allocation ready to install into a [`DeploymentState`].
#[derive(Debug, Clone)]
pub struct DecodedAllocation {
    pub provided: BTreeMap<StreamId, HostId>,
    pub flows: BTreeSet<(HostId, HostId, StreamId)>,
    pub available: BTreeSet<(HostId, StreamId)>,
    pub placements: BTreeSet<(HostId, OperatorId)>,
}

impl DecodedAllocation {
    /// Installs this allocation into the deployment state.
    pub fn install(self, state: &mut DeploymentState) {
        state.replace_allocation(self.provided, self.flows, self.available, self.placements);
    }
}
