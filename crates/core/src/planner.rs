//! The SQPR planner: Algorithm 1 (initial query planning).
//!
//! One `submit` call per arriving query: register the query's plan space,
//! short-circuit if its result stream is already provided (line 3 of
//! Algorithm 1), otherwise build the reduced MILP with constraint IV.9,
//! warm-start from the current deployment (which guarantees admitted
//! queries survive any timeout), solve under the configured budget, and
//! install the best incumbent if it admits the query.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

use sqpr_dsps::{Catalog, DeploymentState, FailureAudit, HostId, QueryId, StreamId};
use sqpr_milp::{
    solve_preemptible, CacheStats, IncumbentFilter, LpCacheSlot, MilpOptions, MilpResult,
    MilpStatus, MilpWarmStart, ModelBasis, PivotCounts, SearchState, SolveOutcome,
};

use crate::admission::{Admitted, Rejected, RoundVerdict};
use crate::config::{AcyclicityMode, ObjectiveWeights, PlannerConfig, RelayPolicy};
use crate::greedy::greedy_admit;
use crate::model::{AvailabilityCut, ModelInputs, PlanningModel};
use crate::query::{full_space, register_join_query, PlanSpace, QuerySpec};

/// Typed rejection of a malformed planner request. Submission and
/// re-planning used to panic on these (deep inside query registration);
/// on the re-admission hot path of a failure storm a panic over one bad
/// query would take the whole recovery down, so they are surfaced as
/// values instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// A join query needs at least 2 *distinct* base streams.
    TooFewBases { distinct: usize },
    /// The stream id is not registered in the catalog.
    UnknownStream(StreamId),
    /// The stream exists but is a composite, not a base stream.
    NotABaseStream(StreamId),
    /// The query id was never submitted to this planner.
    UnknownQuery(QueryId),
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::TooFewBases { distinct } => {
                write!(
                    f,
                    "a join query needs >= 2 distinct base streams (got {distinct})"
                )
            }
            PlannerError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            PlannerError::NotABaseStream(s) => write!(f, "stream {s} is not a base stream"),
            PlannerError::UnknownQuery(q) => write!(f, "unknown query {q}"),
        }
    }
}

impl std::error::Error for PlannerError {}

/// Sentinel id of a batch round ([`SqprPlanner::submit_batch`]): it never
/// parks, and its members — not the round — are admitted and logged for
/// skeleton liveness.
const BATCH_ROUND: QueryId = QueryId(u32::MAX);

/// Result of one planning round.
#[derive(Debug, Clone)]
pub struct PlanningOutcome {
    pub query: QueryId,
    pub admitted: bool,
    /// True when the query was satisfied by an existing provision without
    /// solving (Algorithm 1, line 3).
    pub reused_existing: bool,
    /// Branch & bound nodes explored.
    pub nodes: usize,
    /// Total LP simplex iterations.
    pub lp_iterations: usize,
    /// LP iterations broken down by simplex phase (phase-I, primal, dual).
    /// Warm bound-change re-solves should show up as `dual` pivots, not
    /// `phase1` — the bench asserts exactly that.
    pub lp_pivots: PivotCounts,
    /// Relative MIP gap of the final incumbent (∞ if none).
    pub gap: f64,
    /// Wall-clock planning time.
    pub solve_time: Duration,
    /// Model size actually solved (0 when short-circuited).
    pub model_vars: usize,
    pub model_cons: usize,
    /// The solver proved optimality (vs. stopping on the budget).
    pub proved_optimal: bool,
    /// Final solver status of the round (`Optimal` for short-circuited
    /// submissions). Distinguishes budget-limited rounds (`Feasible` /
    /// `Unknown`) from proven ones — the recovery storm reports it per
    /// re-admitted query.
    pub status: MilpStatus,
    /// The round reused the persistent solver context (extended skeleton
    /// plus root-basis warm start) instead of building from scratch.
    pub incremental: bool,
    /// Compressed-LP cache activity of this round (counter deltas):
    /// `patches` vs `rebuilds` says whether the round's B&B constructions
    /// were served in place or paid a fresh lowering; `refix_patches`
    /// counts the cross-submission hits where the bound-fixed set moved
    /// within the cached layout's fixed class. Zero on cold rounds (no
    /// cache) and short-circuited submissions.
    pub lp_cache: CacheStats,
    /// Anytime admission verdict of the round (see [`crate::admission`]):
    /// whether the admit/reject decision carries an optimality/infeasibility
    /// certificate or stopped on a budget/deadline. A
    /// [`Rejected::DeadlineNoCertificate`] round may have parked a suspended
    /// search for the admission queue to retry
    /// ([`crate::AdmissionQueue`]) — the rejection is provisional.
    pub verdict: RoundVerdict,
}

/// Config fingerprint the cached skeleton depends on; a mismatch forces a
/// rebuild (weights are baked into objective coefficients, the policies
/// into the row structure).
#[derive(Debug, Clone, PartialEq)]
struct CacheSig {
    weights: ObjectiveWeights,
    relay_policy: RelayPolicy,
    acyclicity: AcyclicityMode,
    replan: bool,
    reduction: bool,
    reuse: bool,
}

impl CacheSig {
    fn of(config: &PlannerConfig) -> Self {
        CacheSig {
            weights: config.weights,
            relay_policy: config.relay_policy,
            acyclicity: config.acyclicity,
            replan: config.replan,
            reduction: config.reduction,
            reuse: config.reuse,
        }
    }
}

/// The persistent model skeleton: grows by appending columns/rows per
/// submission, so LP bases stay transferable between solves.
struct ModelCache {
    model: PlanningModel,
    /// Cumulative plan space the skeleton covers.
    space: PlanSpace,
    /// Cumulative availability cuts applied to the skeleton.
    cuts: Vec<AvailabilityCut>,
    sig: CacheSig,
    /// Which query contributed which plan space — the liveness input of
    /// skeleton compaction (a query that is no longer admitted is dead,
    /// and so are skeleton columns only *it* needed).
    query_log: Vec<(QueryId, PlanSpace)>,
}

/// Solver state carried across submissions: the cached skeleton, the
/// previous root-LP basis (the `(basis, incumbent)` pair of warm-started
/// incremental re-planning; the incumbent side is reconstructed from the
/// deployment each round, which survives model growth by construction),
/// and the cached compressed-LP lowering shared by the skeleton's branch &
/// bound constructions (see [`sqpr_milp::LpCacheSlot`]).
#[derive(Default)]
struct SolverContext {
    cache: Option<ModelCache>,
    root_basis: Option<ModelBasis>,
    lp_cache: LpCacheSlot,
}

/// Counters describing how the incremental machinery behaved over the
/// planner's lifetime (never reset by context invalidation). These make
/// silent degradations observable: a `reuse_solver_context = true` planner
/// whose configuration cannot actually be extended incrementally
/// (`replan = false`) shows up as `config_fallback_rounds` instead of
/// quietly building cold models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Planning rounds served by the persistent solver context.
    pub incremental_rounds: usize,
    /// Rounds built cold because `reuse_solver_context` is disabled.
    pub cold_rounds: usize,
    /// Rounds where context reuse was requested but the configuration
    /// forced a cold fresh build (frozen re-planning, `replan = false`;
    /// the `ProducersOnly` relay ablation extends incrementally since its
    /// relay rows joined the keyed row registries).
    pub config_fallback_rounds: usize,
    /// Skeleton compactions (column GC of dead queries' plan spaces).
    pub compactions: usize,
    /// Dead skeleton columns dropped by compactions, cumulative.
    pub compacted_columns: usize,
}

/// A planning round preempted at its node deadline with the search still
/// open: the suspended branch & bound plus everything needed to resume and
/// decode it later. The model is a *clone* of what the round solved — the
/// planner's live skeleton may be extended by other submissions while this
/// round is parked, and the suspended search's `x` vector indexes the
/// model it was built from.
pub struct PreemptedRound {
    pub(crate) query: QueryId,
    pub(crate) streams: Vec<StreamId>,
    pub(crate) model: PlanningModel,
    pub(crate) state: Box<SearchState>,
}

impl PreemptedRound {
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Branch & bound nodes the parked search has explored so far.
    pub fn nodes_done(&self) -> usize {
        self.state.nodes_done()
    }
}

impl fmt::Debug for PreemptedRound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreemptedRound")
            .field("query", &self.query)
            .field("streams", &self.streams)
            .field("state", &self.state)
            .finish()
    }
}

/// The opening slice of a round's search.
enum Opening<'a> {
    /// A new branch & bound construction over the round's model.
    Fresh {
        opts: &'a MilpOptions,
        start: Option<&'a [f64]>,
        /// Served from the solver context: the previous root basis and the
        /// cached compressed LP.
        incremental: bool,
    },
    /// A parked search, resumed where it stopped.
    Parked(Box<SearchState>),
}

/// How a round's search ended.
struct Solved {
    /// The final result, or the anytime incumbent snapshot (always causal —
    /// the filter gates incumbents) of a search still open at a deadline.
    result: MilpResult,
    /// The suspended search, when a deadline expired with it still open.
    open: Option<(Box<SearchState>, PreemptCause)>,
    /// Availability cuts violated by the acausal incumbents the lazy
    /// filter rejected.
    cuts: Vec<AvailabilityCut>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PreemptCause {
    /// The round's deterministic node deadline expired
    /// ([`PlannerConfig::round_deadline`]).
    NodeDeadline,
    /// A wall-clock deadline expired (recovery storms; best-effort — the
    /// clock is only observed between quantum slices).
    WallClock,
}

/// Resolution of one resume attempt on a parked round.
// Both arms are transient — consumed immediately by the admission queue —
// so the size skew never sits in a collection.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ResumeOutcome {
    /// The round reached a terminal verdict (proven, or the incumbent was
    /// installed at the deadline).
    Resolved(PlanningOutcome),
    /// The deadline expired again with no admitting incumbent; the round is
    /// handed back, still suspended.
    StillOpen(PreemptedRound),
}

/// The SQPR query planner (paper §IV).
pub struct SqprPlanner {
    catalog: Catalog,
    state: DeploymentState,
    config: PlannerConfig,
    next_query: u32,
    outcomes: Vec<PlanningOutcome>,
    queries: Vec<QuerySpec>,
    ctx: SolverContext,
    stats: SolverStats,
    /// The round most recently preempted at its node deadline, awaiting
    /// collection by the admission queue ([`Self::take_preempted_round`]).
    preempt: Option<PreemptedRound>,
    /// Wall-clock deadline the *next* planning rounds must observe between
    /// quantum slices (set by the recovery storm around each replan so a
    /// round cannot overshoot the storm budget by a whole tree).
    wall_deadline: Option<Instant>,
}

impl SqprPlanner {
    pub fn new(catalog: Catalog, config: PlannerConfig) -> Self {
        SqprPlanner {
            catalog,
            state: DeploymentState::new(),
            config,
            next_query: 0,
            outcomes: Vec::new(),
            queries: Vec::new(),
            ctx: SolverContext::default(),
            stats: SolverStats::default(),
            preempt: None,
            wall_deadline: None,
        }
    }

    /// Takes the round the last submission parked at its node deadline (if
    /// any). The caller — normally [`crate::AdmissionQueue`] — becomes
    /// responsible for eventually resolving it; a round left here is
    /// replaced by the next preemption, so collect it promptly.
    pub fn take_preempted_round(&mut self) -> Option<PreemptedRound> {
        self.preempt.take()
    }

    /// Arms (or clears) the wall-clock deadline planning rounds observe
    /// *between quantum slices*: an expired deadline makes the round
    /// finish with its anytime incumbent instead of burning the node
    /// budget. Requires `node_quantum > 0` to have any effect mid-solve,
    /// and is best-effort by nature (the clock is only read at slice
    /// boundaries — determinism-sensitive callers use
    /// [`PlannerConfig::round_deadline`] instead). The recovery storm arms
    /// this around its re-admission rounds.
    pub fn set_wall_deadline(&mut self, deadline: Option<Instant>) {
        self.wall_deadline = deadline;
    }

    /// Lifetime counters of the incremental machinery (see [`SolverStats`]).
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Counters of the *current* solver context's compressed-LP cache
    /// (reset whenever the context is invalidated).
    pub fn lp_cache_stats(&self) -> CacheStats {
        self.ctx.lp_cache.stats()
    }

    /// Drops the cached model skeleton and root basis. Called on every
    /// mutation the incremental bookkeeping cannot patch (rate updates
    /// change objective/constraint coefficients; removals shrink the
    /// deployment under the skeleton's feet).
    fn invalidate_solver_context(&mut self) {
        self.ctx = SolverContext::default();
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn state(&self) -> &DeploymentState {
        &self.state
    }

    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    pub fn config_mut(&mut self) -> &mut PlannerConfig {
        &mut self.config
    }

    pub fn outcomes(&self) -> &[PlanningOutcome] {
        &self.outcomes
    }

    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    pub fn num_admitted(&self) -> usize {
        self.state.num_admitted()
    }

    /// λ-weighted quality of the *current deployment*: admissions minus
    /// network and CPU usage, weighted like the model objective but
    /// computed from the installed state — model-independent, so planners
    /// with different free spaces (warm vs. cold, reduced vs. full) are
    /// directly comparable.
    pub fn deployment_objective(&self) -> f64 {
        let w = self.config.weights;
        let network: f64 = self
            .state
            .flows()
            .iter()
            .map(|&(_, _, s)| self.catalog.stream(s).rate)
            .sum();
        let cpu: f64 = self
            .state
            .placements()
            .iter()
            .map(|&(_, o)| self.catalog.operator(o).cpu_cost)
            .sum();
        w.lambda1 * self.state.num_admitted() as f64 - w.lambda2 * network - w.lambda3 * cpu
    }

    fn reuse_tag(&self, q: QueryId) -> u64 {
        if self.config.reuse {
            0
        } else {
            u64::from(q.0) + 1
        }
    }

    /// Validates a submission's base streams before anything is registered
    /// or mutated, so malformed input is a clean [`PlannerError`] instead
    /// of a panic halfway through catalog interning.
    fn validate_bases(&self, bases: &[StreamId]) -> Result<(), PlannerError> {
        let distinct: BTreeSet<StreamId> = bases.iter().copied().collect();
        if distinct.len() < 2 {
            return Err(PlannerError::TooFewBases {
                distinct: distinct.len(),
            });
        }
        for &s in &distinct {
            if s.index() >= self.catalog.num_streams() {
                return Err(PlannerError::UnknownStream(s));
            }
            if self.catalog.source_host(s).is_none() {
                return Err(PlannerError::NotABaseStream(s));
            }
        }
        Ok(())
    }

    /// Submits one k-way join query over the given base streams.
    pub fn submit(&mut self, bases: &[StreamId]) -> Result<PlanningOutcome, PlannerError> {
        self.validate_bases(bases)?;
        let q = QueryId(self.next_query);
        self.next_query += 1;
        let (spec, outcome) = self.register_and_plan(q, bases, true);
        self.queries.push(spec);
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// Algorithm 1 for one query: registers its plan space, short-circuits
    /// if its result stream is already provided (line 3), and plans it
    /// otherwise (the round admits it if it installs).
    fn register_and_plan(
        &mut self,
        q: QueryId,
        bases: &[StreamId],
        deadline_bounded: bool,
    ) -> (QuerySpec, PlanningOutcome) {
        let tag = self.reuse_tag(q);
        let (spec, space) = register_join_query(&mut self.catalog, q, bases, tag);
        let outcome = if self.state.provider_of(spec.result).is_some() {
            self.state.admit_query(q, spec.result);
            short_circuit_outcome(q)
        } else {
            let streams = std::slice::from_ref(&spec.result);
            self.plan_streams(q, streams, &space, deadline_bounded)
        };
        (spec, outcome)
    }

    /// Submits a batch of queries planned in a single optimisation (paper
    /// Fig. 4(b)): one model whose free space is the union of the batch's
    /// plan spaces, with the budget scaled by the batch size by the caller.
    pub fn submit_batch(
        &mut self,
        batch: &[Vec<StreamId>],
    ) -> Result<Vec<PlanningOutcome>, PlannerError> {
        // Validate the whole batch before registering anything: a rejected
        // batch leaves the planner untouched.
        for bases in batch {
            self.validate_bases(bases)?;
        }
        let mut specs = Vec::new();
        let mut merged = PlanSpace::default();
        let mut new_streams = Vec::new();
        let mut pre_provided = Vec::new();
        for bases in batch {
            let q = QueryId(self.next_query);
            self.next_query += 1;
            let tag = self.reuse_tag(q);
            let (spec, space) = register_join_query(&mut self.catalog, q, bases, tag);
            merged.merge(&space);
            let provided = self.state.provider_of(spec.result).is_some();
            pre_provided.push(provided);
            if !provided {
                new_streams.push(spec.result);
            }
            specs.push(spec);
        }
        new_streams.sort();
        new_streams.dedup();

        let shared = if new_streams.is_empty() {
            None
        } else {
            // Batch rounds are never parked (their members cannot be
            // resumed individually), so they run deadline-free.
            let outcome = self.plan_streams(BATCH_ROUND, &new_streams, &merged, false);
            // Log the merged space under each member so skeleton
            // compaction sees them as live while they stay admitted.
            if let Some(cache) = &mut self.ctx.cache {
                for spec in &specs {
                    cache.query_log.push((spec.id, merged.clone()));
                }
            }
            Some(outcome)
        };

        let mut outcomes = Vec::new();
        for (spec, was_provided) in specs.into_iter().zip(pre_provided) {
            let admitted = self.state.provider_of(spec.result).is_some();
            if admitted {
                self.state.admit_query(spec.id, spec.result);
            }
            let mut o = shared
                .clone()
                .unwrap_or_else(|| short_circuit_outcome(spec.id));
            o.query = spec.id;
            o.admitted = admitted;
            o.reused_existing = was_provided;
            self.queries.push(spec);
            self.outcomes.push(o.clone());
            outcomes.push(o);
        }
        Ok(outcomes)
    }

    /// Whether submissions may reuse the persistent solver context.
    /// `replan = false` is the one remaining gated-out configuration: it
    /// freezes variables from a state snapshot, which the skeleton cannot
    /// patch. (`ProducersOnly` relays used to be gated too; their relay
    /// rows now live in a keyed registry that later-added producers join,
    /// so the ablation extends incrementally like the default policy.)
    fn incremental_eligible(&self) -> bool {
        self.config.reuse_solver_context && self.config.replan
    }

    /// Skeleton column GC: when more than `skeleton_gc_threshold` of the
    /// cached skeleton's columns belong to queries that are no longer
    /// admitted (rejected or superseded), rebuild the skeleton from the
    /// *live* plan spaces instead of letting it grow forever. The root
    /// basis is carried across the rebuild by re-mapping it through the
    /// `(host, stream/operator)` keys ([`PlanningModel::remap_basis_from`]),
    /// so the next solve still warm-starts.
    fn maybe_compact_skeleton(&mut self, space: &PlanSpace, new_streams: &[StreamId]) {
        let threshold = self.config.skeleton_gc_threshold;
        let h = self.catalog.num_hosts();
        let Some(cache) = &self.ctx.cache else {
            return;
        };
        // Column weight per skeleton entity: a stream owns h availability
        // columns plus h(h-1) flow columns (plus potentials in Constraints
        // mode, same order); an operator owns h placement columns.
        let stream_cols = h * h;
        let op_cols = h;
        let mut live_streams: BTreeSet<StreamId> = space.streams.iter().copied().collect();
        let mut live_ops: BTreeSet<sqpr_dsps::OperatorId> =
            space.operators.iter().copied().collect();
        for (lq, ls) in &cache.query_log {
            if self.state.admitted().contains_key(lq) {
                live_streams.extend(ls.streams.iter().copied());
                live_ops.extend(ls.operators.iter().copied());
            }
        }
        let dead_streams = cache
            .space
            .streams
            .iter()
            .filter(|s| !live_streams.contains(s))
            .count();
        let dead_ops = cache
            .space
            .operators
            .iter()
            .filter(|o| !live_ops.contains(o))
            .count();
        let dead_cols = dead_streams * stream_cols + dead_ops * op_cols;
        let total_cols =
            cache.space.streams.len() * stream_cols + cache.space.operators.len() * op_cols;
        if total_cols == 0 || (dead_cols as f64) <= threshold * total_cols as f64 {
            return;
        }

        // Rebuild from the live spaces only; cuts on dropped streams go
        // too. The current submission's own space is merged but not logged
        // here — the extend path logs it (once) like any other round.
        let mut live_space = space.clone();
        let mut live_log: Vec<(QueryId, PlanSpace)> = Vec::new();
        for (lq, ls) in &cache.query_log {
            if self.state.admitted().contains_key(lq) {
                live_space.merge(ls);
                live_log.push((*lq, ls.clone()));
            }
        }
        let live_cuts: Vec<AvailabilityCut> = cache
            .cuts
            .iter()
            .filter(|c| live_space.contains_stream(c.stream))
            .cloned()
            .collect();
        let model = self.build_model(&live_space, new_streams, &live_cuts);
        let Some(old) = self.ctx.cache.take() else {
            return;
        };
        self.ctx.root_basis = self
            .ctx
            .root_basis
            .as_ref()
            .map(|b| model.remap_basis_from(&old.model, b));
        self.stats.compactions += 1;
        self.stats.compacted_columns += dead_cols;
        self.ctx.cache = Some(ModelCache {
            model,
            space: live_space,
            cuts: live_cuts,
            sig: old.sig,
            query_log: live_log,
        });
        // The compressed-LP cache indexes the old skeleton's columns.
        self.ctx.lp_cache.invalidate();
    }

    /// The model inputs of this planner over the given space.
    fn model_inputs<'a>(
        &'a self,
        space: &'a PlanSpace,
        new_streams: &'a [StreamId],
        cuts: &'a [AvailabilityCut],
    ) -> ModelInputs<'a> {
        ModelInputs {
            catalog: &self.catalog,
            state: &self.state,
            space,
            new_streams,
            weights: self.config.weights,
            relay_policy: self.config.relay_policy,
            acyclicity: self.config.acyclicity,
            replan: self.config.replan,
            cuts,
        }
    }

    /// Builds a planning model from scratch over the given space (the
    /// cold path, and the incremental path's first round).
    fn build_model(
        &self,
        space: &PlanSpace,
        new_streams: &[StreamId],
        cuts: &[AvailabilityCut],
    ) -> PlanningModel {
        PlanningModel::build(&self.model_inputs(space, new_streams, cuts))
    }

    /// Core planning round (Algorithm 1), in stages shared with resumed
    /// rounds where they overlap: build or extend the model, warm-start it,
    /// set the solver options, drive the search in slices, and settle the
    /// result. In lazy-acyclicity mode the branch & bound rejects acausal
    /// incumbents; the cuts they violate are added and the model re-solved
    /// so the true optimum is not lost to pruning. (The incremental path
    /// accumulates its cuts in the cache instead — they stay valid for
    /// every later submission.)
    fn plan_streams(
        &mut self,
        q: QueryId,
        new_streams: &[StreamId],
        space: &PlanSpace,
        deadline_bounded: bool,
    ) -> PlanningOutcome {
        // sqpr::allow(ambient-nondeterminism): planning-latency measurement reported in the outcome; never feeds a decision
        let started = Instant::now();
        let full;
        let space = if self.config.reduction {
            space
        } else {
            full = full_space(&self.catalog);
            &full
        };
        let incremental = self.begin_round(space, new_streams);
        // The outcome reports this round's deltas of the (monotone)
        // compressed-LP cache counters.
        let cache_stats_before = self.ctx.lp_cache.stats();
        // The skeleton is held here for the round and handed back to the
        // context when it settles.
        let mut skeleton = self.ctx.cache.take();
        let max_rounds = if self.config.acyclicity == AcyclicityMode::Lazy {
            3
        } else {
            1
        };
        let mut round = 0;
        let mut cuts: Vec<AvailabilityCut> = Vec::new();
        let mut warm: Option<Vec<f64>> = None;
        let mut admitting_start = false;
        // Node deadline accounting across cut rounds: the deadline is per
        // *planning round* (submission), not per construction.
        let mut nodes_spent = 0usize;
        loop {
            round += 1;
            let cold;
            let (model, skeleton_cuts) = if incremental {
                let log = if round == 1 && q != BATCH_ROUND {
                    vec![(q, space.clone())]
                } else {
                    Vec::new()
                };
                let cache =
                    self.extend_skeleton(skeleton.take(), log, space, new_streams, &mut cuts);
                let cache: &ModelCache = skeleton.insert(cache);
                (&cache.model, Some(&cache.cuts))
            } else {
                cold = self.build_model(space, new_streams, &cuts);
                (&cold, None)
            };
            if round == 1 {
                (warm, admitting_start) = self.warm_start(model, q, new_streams);
            }
            let opts = milp_options(&self.config, admitting_start);
            let target = if deadline_bounded && self.config.node_quantum > 0 {
                self.config
                    .round_deadline
                    .map(|d| d.saturating_sub(nodes_spent))
            } else {
                None
            };
            let opening = Opening::Fresh {
                opts: &opts,
                start: warm.as_deref(),
                incremental,
            };
            let Solved {
                result,
                open,
                cuts: mut fresh,
            } = self.drive(model, opening, target);
            nodes_spent += result.nodes;
            let preempted = open.is_some();
            // If acausal candidates were pruned, the claimed optimum may be
            // wrong: add their cuts and re-solve (unless out of rounds).
            let known = skeleton_cuts.unwrap_or(&cuts);
            fresh.retain(|c| !known.contains(c));
            if incremental {
                if result.root_basis.is_some() {
                    self.ctx.root_basis = result.root_basis.clone();
                } else if !preempted {
                    // A preempted snapshot carries no root basis; keep the
                    // previous one rather than cold-starting the next round.
                    self.ctx.root_basis = None;
                }
            }
            if !fresh.is_empty() && round < max_rounds && !preempted {
                cuts.extend(fresh);
                continue;
            }

            // A node deadline keeps the suspended search so a non-admitting
            // round can be parked for the admission queue; a wall-clock
            // expiry (recovery storm) drops it — recovery has its own
            // degradation ladder.
            let open = open
                .filter(|(_, cause)| *cause == PreemptCause::NodeDeadline)
                .map(|(state, _)| state);
            let streams = Cow::Borrowed(new_streams);
            let (mut outcome, parked) =
                self.settle(q, streams, Cow::Borrowed(model), result, open, started);
            if parked.is_some() {
                self.preempt = parked;
            }
            self.ctx.cache = skeleton;
            outcome.incremental = incremental;
            outcome.lp_cache = self.ctx.lp_cache.stats().since(&cache_stats_before);
            return outcome;
        }
    }

    /// Opens a planning round: counts its kind, drops a solver context the
    /// configuration cannot extend, and compacts the skeleton when dead
    /// columns dominate. Returns whether the round extends the persistent
    /// skeleton.
    fn begin_round(&mut self, space: &PlanSpace, new_streams: &[StreamId]) -> bool {
        let incremental = self.incremental_eligible();
        if incremental {
            self.stats.incremental_rounds += 1;
        } else if self.config.reuse_solver_context {
            // Reuse was requested but the configuration cannot be extended
            // incrementally — make the silent cold fallback observable.
            self.stats.config_fallback_rounds += 1;
        } else {
            self.stats.cold_rounds += 1;
        }
        let sig = CacheSig::of(&self.config);
        if !incremental || self.ctx.cache.as_ref().is_some_and(|c| c.sig != sig) {
            self.ctx = SolverContext::default();
        }
        if incremental {
            self.maybe_compact_skeleton(space, new_streams);
        }
        incremental
    }

    /// Stage 1 — build or extend: grows the persistent skeleton (building
    /// it on first use) by the round's plan space, cuts and query-log
    /// entries, re-applies the §IV-A reduction, and refreshes the LP
    /// cache's fold exemptions.
    fn extend_skeleton(
        &self,
        cache: Option<ModelCache>,
        log: Vec<(QueryId, PlanSpace)>,
        space: &PlanSpace,
        new_streams: &[StreamId],
        cuts: &mut Vec<AvailabilityCut>,
    ) -> ModelCache {
        let mut cache = match cache {
            None => ModelCache {
                model: self.build_model(space, new_streams, cuts),
                space: space.clone(),
                cuts: cuts.clone(),
                sig: CacheSig::of(&self.config),
                query_log: log,
            },
            Some(mut cache) => {
                cache.query_log.extend(log);
                cache.space.merge(space);
                for c in cuts.drain(..) {
                    if !cache.cuts.contains(&c) {
                        cache.cuts.push(c);
                    }
                }
                let inputs = self.model_inputs(&cache.space, new_streams, &cache.cuts);
                cache.model.extend(&inputs);
                cache
                    .model
                    .apply_reduction(space, &self.state, &self.catalog);
                cache
            }
        };
        // Compression hint for the LP cache: keep recently rejected
        // queries' columns unfolded — they are the re-planning targets, and
        // re-freeing a *folded* column is the one bound change the cache
        // cannot patch. The recency window bounds the compression loss;
        // admitted and current-round-pending logs resolve via the live
        // deployment, so the exempt set shrinks as queries land.
        let window = self.config.lp_keep_rejected_free_window;
        if window > 0 {
            let start = cache.query_log.len().saturating_sub(window);
            let rejected = cache.query_log[start..]
                .iter()
                .filter(|(lq, _)| !self.state.admitted().contains_key(lq))
                .map(|(_, sp)| sp);
            cache.model.set_fold_exemptions(rejected);
        }
        cache
    }

    /// Stage 2 — warm start: prefers a constructively *admitting* start
    /// (greedy, reuse-aware); otherwise falls back to the current
    /// deployment (non-admitting but always feasible thanks to IV.9).
    /// Returns the start and whether it admits. Computed once per
    /// submission: later cut rounds only append availability cut rows,
    /// which any causal start satisfies by construction, so the vector
    /// (variable-indexed, and cuts add no variables) stays valid verbatim.
    fn warm_start(
        &self,
        model: &PlanningModel,
        q: QueryId,
        new_streams: &[StreamId],
    ) -> (Option<Vec<f64>>, bool) {
        if !self.config.warm_start {
            return (None, false);
        }
        // Note: in the reuse-off ablation batch submissions use a sentinel
        // query id, so the tag misses the per-query private streams and
        // construction falls back to the non-admitting start (graceful
        // degradation; B&B still searches).
        let tag = self.reuse_tag(q);
        let admitting = new_streams
            .iter()
            .try_fold(self.state.clone(), |cand, &s| {
                greedy_admit(&self.catalog, &cand, s, tag)
            })
            .and_then(|cand| model.warm_start(&cand, &self.catalog))
            .filter(|w| model.milp.is_feasible(w, 1e-6));
        if admitting.is_some() {
            return (admitting, true);
        }
        let warm = model.warm_start(&self.state, &self.catalog);
        debug_assert!(
            warm.as_ref()
                .is_none_or(|w| model.milp.is_feasible(w, 1e-6)),
            "warm start must be feasible"
        );
        (warm, false)
    }

    /// Stage 4 — drive slices: runs the round's search in
    /// `node_quantum`-node slices, suspending strictly between node
    /// evaluations, until it completes, reaches `target` nodes done (the
    /// deterministic node deadline, counted like
    /// [`SearchState::nodes_done`]) or passes the wall deadline
    /// (best-effort — the clock is only read between slices). A parked
    /// search always gets its first slice before the deadlines are read.
    /// `node_quantum = 0` means unsliced; without a target or wall deadline
    /// the sliced run completes with bit-identical results to the unsliced
    /// one (the `SQPR_NODE_QUANTUM` transparency invariant CI fuzzes).
    fn drive(
        &mut self,
        model: &PlanningModel,
        opening: Opening<'_>,
        target: Option<usize>,
    ) -> Solved {
        let found = RefCell::new(Vec::new());
        let filter_fn = |x: &[f64]| {
            let violated = model.find_acausal_cuts(x, &self.state, &self.catalog);
            let causal = violated.is_empty();
            found.borrow_mut().extend(violated);
            causal
        };
        let filter: Option<IncumbentFilter<'_>> = if self.config.acyclicity == AcyclicityMode::Lazy
        {
            Some(&filter_fn)
        } else {
            None
        };
        let quantum = match self.config.node_quantum {
            0 => usize::MAX,
            q => q,
        };
        // A slice never runs past the target, so the deadline is observed
        // exactly (a target of 0 suspends before the first evaluation).
        let slice = |done: usize| match target {
            Some(t) => quantum.min(t.saturating_sub(done)),
            None => quantum,
        };
        let (mut state, mut owed_slice) = match opening {
            Opening::Fresh {
                opts,
                start,
                incremental,
            } => {
                // The previous submission's root basis (the skeleton only
                // appended columns/rows since, so it adapts in place), and
                // the context's compressed-LP cache: later cut rounds
                // append their rows in place and later submissions with an
                // unchanged fixed layout patch only bounds.
                let warm = MilpWarmStart {
                    start,
                    root_basis: self.ctx.root_basis.as_ref().filter(|_| incremental),
                };
                let cache = incremental.then_some(&mut self.ctx.lp_cache);
                match solve_preemptible(&model.milp, opts, warm, filter, cache, slice(0)) {
                    SolveOutcome::Done(result) => {
                        let cuts = found.take();
                        return Solved {
                            result,
                            open: None,
                            cuts,
                        };
                    }
                    SolveOutcome::Suspended(state) => (state, false),
                }
            }
            Opening::Parked(state) => (state, true),
        };
        let open = loop {
            let done = state.nodes_done();
            if !owed_slice {
                if target.is_some_and(|t| done >= t) {
                    break (state, PreemptCause::NodeDeadline);
                }
                // sqpr::allow(ambient-nondeterminism): wall-clock admission deadline is part of the SLO surface; timing affects only *when* we preempt, and preempted==uninterrupted results are pinned by the resume suites
                if self.wall_deadline.is_some_and(|d| Instant::now() >= d) {
                    break (state, PreemptCause::WallClock);
                }
            }
            owed_slice = false;
            match state.resume(filter, slice(done)) {
                SolveOutcome::Done(result) => {
                    let cuts = found.take();
                    return Solved {
                        result,
                        open: None,
                        cuts,
                    };
                }
                SolveOutcome::Suspended(next) => state = next,
            }
        };
        Solved {
            result: open.0.incumbent_result(),
            open: Some(open),
            cuts: found.take(),
        }
    }

    /// Stage 5 — settle: installs the round's solution if it admits any of
    /// `streams` and decodes to a valid deployment that still serves every
    /// admitted query (IV.9 must have enforced both; the gates are
    /// defensive), admits the query, and records the verdict. A search
    /// still `open` at a deadline either hands off its admitting incumbent
    /// (optimality deliberately forfeited, the search dropped) or comes
    /// back as a [`PreemptedRound`] — with the model its solution vector
    /// indexes — for the admission queue's bounded retries: the rejection
    /// is provisional, not a certificate. Batch rounds (sentinel id) are
    /// never parked — their members cannot be resumed individually — and
    /// [`Self::submit_batch`] admits their members.
    fn settle(
        &mut self,
        q: QueryId,
        streams: Cow<'_, [StreamId]>,
        model: Cow<'_, PlanningModel>,
        result: MilpResult,
        open: Option<Box<SearchState>>,
        started: Instant,
    ) -> (PlanningOutcome, Option<PreemptedRound>) {
        let mut admitted = false;
        if let Some(x) = &result.x {
            if streams.iter().any(|&s| model.admits(x, s)) {
                let decoded = model.decode(x, &self.state);
                let mut candidate = self.state.clone();
                decoded.install(&mut candidate);
                if candidate.is_valid(&self.catalog) && candidate_serves_admitted(&candidate) {
                    self.state = candidate;
                    admitted = streams.iter().all(|&s| self.state.provider_of(s).is_some());
                }
            }
        }
        let batch = q == BATCH_ROUND;
        if admitted && !batch {
            for &s in streams.iter() {
                self.state.admit_query(q, s);
            }
        }
        let verdict = match (&open, admitted) {
            (Some(_), true) => RoundVerdict::Admitted(Admitted::IncumbentAtDeadline),
            (Some(_), false) => RoundVerdict::Rejected(Rejected::DeadlineNoCertificate),
            (None, _) => RoundVerdict::of_result(admitted, result.status),
        };
        let outcome = PlanningOutcome {
            query: q,
            admitted,
            reused_existing: false,
            nodes: result.nodes,
            lp_iterations: result.lp_iterations,
            lp_pivots: result.lp_pivots,
            gap: result.gap,
            solve_time: started.elapsed(),
            model_vars: model.num_vars(),
            model_cons: model.num_cons(),
            proved_optimal: result.status == MilpStatus::Optimal,
            status: result.status,
            incremental: false,
            lp_cache: CacheStats::default(),
            verdict,
        };
        let parked = open
            .filter(|_| !admitted && !batch)
            .map(|state| PreemptedRound {
                query: q,
                streams: streams.into_owned(),
                model: model.into_owned(),
                state,
            });
        (outcome, parked)
    }

    /// Grants a parked round more search budget: `budget` further branch &
    /// bound nodes (`None` = run to completion), sliced by `node_quantum`.
    /// The result settles against the *parked* model under the same
    /// defensive gates as a live round. At another deadline expiry — node
    /// or wall clock — the admitting incumbent is installed if there is
    /// one; otherwise the round is handed back still suspended.
    ///
    /// Availability cuts discovered while resuming are *dropped* — the
    /// parked LP cannot take new rows — but the filter still rejects every
    /// acausal incumbent, so admit/reject decisions stay sound; only
    /// placement optimality can degrade (the documented anytime trade).
    pub(crate) fn resume_parked(
        &mut self,
        round: PreemptedRound,
        budget: Option<usize>,
    ) -> ResumeOutcome {
        // sqpr::allow(ambient-nondeterminism): planning-latency measurement reported in the outcome; never feeds a decision
        let started = Instant::now();
        let PreemptedRound {
            query,
            streams,
            model,
            state,
        } = round;
        let target = budget.map(|b| state.nodes_done().saturating_add(b));
        let Solved { result, open, .. } = self.drive(&model, Opening::Parked(state), target);
        let open = open.map(|(state, _)| state);
        let streams = Cow::Owned(streams);
        match self.settle(query, streams, Cow::Owned(model), result, open, started) {
            (_, Some(round)) => ResumeOutcome::StillOpen(round),
            (outcome, None) => ResumeOutcome::Resolved(outcome),
        }
    }

    /// Updates a base stream's observed rate (propagating to derived
    /// streams and operator costs; see §IV-B). Rates are baked into the
    /// skeleton's coefficients, so the solver context is invalidated.
    pub fn update_base_rate(&mut self, s: StreamId, rate: f64) {
        self.catalog.update_base_rate(s, rate);
        self.invalidate_solver_context();
    }

    /// Removes a query; garbage-collects allocation pieces that no longer
    /// serve anything (used by adaptive re-planning, §IV-B).
    ///
    /// The solver context survives the removal when every model column the
    /// query contributed is currently *bound-fixed* (outside the active
    /// plan space): the next extension's demand-kind lifecycle relaxes the
    /// stream's IV.9 equality, `apply_reduction` re-fixes the vacated
    /// columns at their new (empty) deployment values, and the residual
    /// refresh re-credits the freed capacity — all bound patches the
    /// compressed-LP cache absorbs in place, so a failure storm's
    /// remove/re-admit churn does not cold-start the cache. If any of the
    /// query's columns are still free (it was planned in the latest round
    /// and nothing re-fixed them yet), the context is invalidated as
    /// before.
    pub fn remove_query(&mut self, q: QueryId) -> bool {
        let Some(stream) = self.state.remove_query(q) else {
            return false;
        };
        // Other queries may demand the same stream.
        let still_needed = self.state.admitted().values().any(|&s| s == stream);
        if !still_needed {
            self.state.clear_provided(stream);
            garbage_collect(&mut self.state, &self.catalog);
        }
        if !self.context_survives_removal(q) {
            self.invalidate_solver_context();
        }
        true
    }

    /// Whether the cached skeleton can absorb the removal of `q` with
    /// bound patches alone: every column of each of the query's logged
    /// plan spaces must be bound-fixed. A query with no log entries (it
    /// short-circuited onto an existing provider) contributed no columns
    /// of its own, so the context trivially survives.
    fn context_survives_removal(&self, q: QueryId) -> bool {
        let Some(cache) = &self.ctx.cache else {
            return false;
        };
        cache
            .query_log
            .iter()
            .filter(|(lq, _)| *lq == q)
            .all(|(_, sp)| cache.model.space_is_bound_fixed(sp))
    }

    // ----- fault model & recovery ---------------------------------------

    /// Fails a host: its capacities and every link touching it drop to
    /// zero. The solver context is *kept* — capacities live in row bounds
    /// that every extension refreshes from the catalog, so the next round
    /// patches the cached LP in place instead of rebuilding. Call
    /// [`Self::absorb_failures`] afterwards to audit and shed the
    /// displaced allocations. Returns false if the host was already down.
    pub fn fail_host(&mut self, h: HostId) -> bool {
        self.catalog.fail_host(h)
    }

    /// Restores a previously failed host to its configured capacities.
    pub fn restore_host(&mut self, h: HostId) -> bool {
        self.catalog.restore_host(h)
    }

    /// Degrades the directed link `h -> m` to the given effective capacity.
    pub fn degrade_link(&mut self, h: HostId, m: HostId, capacity: f64) {
        self.catalog.degrade_link(h, m, capacity);
    }

    /// Restores the directed link `h -> m` to its configured capacity.
    pub fn restore_link(&mut self, h: HostId, m: HostId) {
        self.catalog.restore_link(h, m);
    }

    /// Reconnects base streams orphaned by host failures to surviving
    /// ingest hosts ([`Catalog::rehome_orphaned_sources`]). Availability
    /// grants live in row bounds the next extension refreshes, so the
    /// moves ride the warm patch path like the failures themselves.
    pub fn rehome_orphaned_sources(&mut self) -> Vec<(StreamId, HostId, HostId)> {
        self.catalog.rehome_orphaned_sources()
    }

    /// Audits the deployment against the current fault set, installs the
    /// surviving allocation and garbage-collects orphaned pieces. The
    /// returned audit lists the displaced queries (ascending id) — the
    /// re-admission order of a recovery storm ([`crate::recovery`]).
    ///
    /// Like [`Self::remove_query`] on the bound-fixed path, this keeps the
    /// solver context: the shrink is absorbed by the next extension's
    /// demand/residual/pin refreshes and `apply_reduction`'s re-fixing, so
    /// storm rounds stay on the warm patch path. Queries whose columns are
    /// still free in the skeleton force an invalidation (same rule as
    /// removal).
    pub fn absorb_failures(&mut self) -> FailureAudit {
        let audit = self.state.audit_failures(&self.catalog);
        let survives = audit
            .displaced
            .iter()
            .all(|&q| self.context_survives_removal(q));
        self.state = audit.survivor.clone();
        garbage_collect(&mut self.state, &self.catalog);
        if !survives {
            self.invalidate_solver_context();
        }
        audit
    }

    /// Constructive fallback admission for one already-registered query:
    /// the greedy baseline placement (no solver). Used by the recovery
    /// storm when its budget runs dry — a degraded-but-served placement
    /// beats dropping the query. Returns the outcome, or an error if `q`
    /// was never submitted.
    pub fn admit_greedy(&mut self, q: QueryId) -> Result<bool, PlannerError> {
        let spec = self
            .queries
            .iter()
            .find(|s| s.id == q)
            .ok_or(PlannerError::UnknownQuery(q))?;
        let result = spec.result;
        if self.state.provider_of(result).is_some() {
            self.state.admit_query(q, result);
            return Ok(true);
        }
        let tag = self.reuse_tag(q);
        match greedy_admit(&self.catalog, &self.state, result, tag) {
            Some(next) => {
                self.state = next;
                self.state.admit_query(q, result);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Re-registers and re-plans an existing query (remove + re-add).
    /// Returns the new outcome.
    pub fn replan_query(&mut self, q: QueryId) -> Result<PlanningOutcome, PlannerError> {
        let spec = self
            .queries
            .iter()
            .find(|s| s.id == q)
            .cloned()
            .ok_or(PlannerError::UnknownQuery(q))?;
        self.remove_query(q);
        let bases: Vec<StreamId> = spec.bases.iter().copied().collect();
        // Replans (adaptation, recovery, retries) run deadline-free: the
        // admission SLO covers fresh submissions; internal re-planning has
        // its own budgets (`StormBudget`, drift thresholds) and must never
        // leave a parked round behind the admission queue's back.
        Ok(self.register_and_plan(q, &bases, false).1)
    }
}

/// Outcome of a round that never reached the solver: the result stream was
/// already provided (Algorithm 1, line 3) or an equivalent short-circuit.
fn short_circuit_outcome(q: QueryId) -> PlanningOutcome {
    PlanningOutcome {
        query: q,
        admitted: true,
        reused_existing: true,
        nodes: 0,
        lp_iterations: 0,
        lp_pivots: PivotCounts::default(),
        gap: 0.0,
        solve_time: Duration::ZERO,
        model_vars: 0,
        model_cons: 0,
        proved_optimal: true,
        status: MilpStatus::Optimal,
        incremental: false,
        lp_cache: CacheStats::default(),
        verdict: RoundVerdict::Admitted(Admitted::Proven),
    }
}

/// Stage 3 — options: the branch & bound options of a planning round,
/// given whether its warm start admits.
fn milp_options(config: &PlannerConfig, admitting_start: bool) -> MilpOptions {
    // Big-M acyclicity rows make the relaxations heavily degenerate; the
    // perturbation cuts simplex iteration counts several-fold (on top of
    // the Harris/long-step ratio tests, which attack the same degeneracy
    // from the ratio-test side).
    let lp = sqpr_lp::SimplexOptions {
        perturb: 1e-7,
        ratio_test: config.lp_ratio_test,
        pricing: config.lp_pricing,
        basis_update: config.lp_basis_update,
        ..sqpr_lp::SimplexOptions::default()
    };
    MilpOptions {
        // With an admitting incumbent, λ1-dominance means the incumbent is
        // within the MIP gap after a handful of nodes; reserve the full
        // budget for the hard case where construction failed
        // (resource-tight systems — exactly the paper's Fig. 6 regime).
        max_nodes: if admitting_start {
            config.budget.max_nodes.min(config.improve_nodes.max(1))
        } else {
            config.budget.max_nodes
        },
        time_limit: config.budget.wall_clock_ms.map(Duration::from_millis),
        gap_tol: config.gap_tol,
        int_tol: 1e-6,
        // Dives are expensive (one LP per fixing); with an admitting
        // incumbent in hand they rarely pay off.
        dive_every: if admitting_start { 0 } else { 16 },
        // Without an admitting start, the only improvement worth finding
        // is an admission (non-admitting results are discarded — `settle`
        // installs only on `admits`), and λ1-dominance prices one
        // admission at λ1 minus a bounded resource swing. Pruning
        // everything within half an admission of the incumbent turns
        // rejection proofs from full budget burns into a handful of nodes;
        // admitting solutions beat the incumbent by more than the margin,
        // so admit/reject decisions are untouched. With an admitting start
        // the solve is a placement-quality improvement pass, where sub-λ1
        // gains are exactly the point — no margin.
        cutoff_margin: if admitting_start {
            0.0
        } else {
            0.5 * config.weights.lambda1
        },
        presolve: true,
        // In-tree parent-basis reuse is model-local and valid for every
        // config, so it follows the ablation flag directly (not
        // `incremental`): configs that merely fall back to fresh builds
        // (replan=false) keep it, while `reuse_solver_context = false` is
        // the full cold-start path (fresh model, every LP from the slack
        // identity).
        reuse_bases: config.reuse_solver_context,
        cross_solve_factors: config.lp_cross_solve_factors,
        threads: config.lp_threads,
        lp,
    }
}

fn candidate_serves_admitted(state: &DeploymentState) -> bool {
    state
        .admitted()
        .values()
        .all(|s| state.provider_of(*s).is_some())
}

/// Drops flows, placements and availability entries that no longer serve a
/// provided stream (conservative backward reachability).
pub fn garbage_collect(state: &mut DeploymentState, catalog: &Catalog) {
    use sqpr_dsps::{HostId, OperatorId};
    let mut needed_streams: BTreeSet<(HostId, StreamId)> = BTreeSet::new();
    let mut needed_ops: BTreeSet<(HostId, OperatorId)> = BTreeSet::new();
    let mut queue: Vec<(HostId, StreamId)> =
        state.provided().iter().map(|(&s, &h)| (h, s)).collect();
    while let Some((h, s)) = queue.pop() {
        if !needed_streams.insert((h, s)) {
            continue;
        }
        // Keep every mechanism currently delivering (h, s).
        for &(g, m, fs) in state.flows() {
            if m == h && fs == s {
                queue.push((g, s));
            }
        }
        for &(ph, o) in state.placements() {
            if ph == h && catalog.operator(o).output == s {
                needed_ops.insert((ph, o));
                for &inp in &catalog.operator(o).inputs {
                    queue.push((h, inp));
                }
            }
        }
    }
    let flows: BTreeSet<_> = state
        .flows()
        .iter()
        .copied()
        .filter(|&(_, m, s)| needed_streams.contains(&(m, s)))
        .collect();
    let placements: BTreeSet<_> = state
        .placements()
        .iter()
        .copied()
        .filter(|k| needed_ops.contains(k))
        .collect();
    let available: BTreeSet<_> = state
        .available()
        .iter()
        .copied()
        .filter(|k| needed_streams.contains(k))
        .collect();
    let provided = state.provided().clone();
    state.replace_allocation(provided, flows, available, placements);
}
