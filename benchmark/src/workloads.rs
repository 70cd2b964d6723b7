//! The three workloads, driven as one closed-loop caller: each call into
//! the planner returns its verdict before the next call is made.
//!
//! All solve budgets are node-counted and the thread count and node
//! quantum are fixed here, so every decision and every counter is a pure
//! function of the seed; only the wall-clock timings vary between runs.

use sqpr_core::{
    adapt_to_observed_rates, recover_from_failures, AdmissionPath, AdmissionQueue, PlannerConfig,
    PlanningOutcome, RecoveryMode, SolveBudget, SqprPlanner, StormBudget,
};
use sqpr_dsps::{Catalog, DeploymentState, EngineConfig, QueryId, StreamId};
use sqpr_workload::{generate, FaultPlan, FaultSpec, Workload, WorkloadSpec};

use crate::stats::median;
use crate::trace::Tracer;

/// The `paper_sim` generator's own seed. Every run starts with a fixed core
/// of workloads generated from it and the seeds that follow it, so their
/// decision digest can be checked against the committed one on every run,
/// and a run's figures are not at the mercy of one hard random workload.
pub const DEFAULT_SEED: u64 = 0x5095;

/// LP worker threads, pinned so the environment cannot change the program.
/// One, not the two a 2-vCPU machine's default resolves to: there the
/// speculative second worker made rejecting rounds both slower and far
/// noisier under neighbour load, and decisions and counters are
/// bit-identical at every thread count.
const LP_THREADS: usize = 1;
/// Node budget of a planning round on every workload.
const ROUND_NODES: usize = 200;

// churn_storm schedule, in arrivals.
const CHURN_QUANTUM: usize = 4;
const CHURN_DEADLINE: usize = 24;
const PUMP_EVERY: usize = 2;
const DEPART_EVERY: usize = 5;
const DRIFT_AT: usize = 30;
const DRIFT_STREAMS: u32 = 5;
const DRIFT_FACTOR: f64 = 1.3;
const DRIFT_THRESHOLD: f64 = 0.2;
const STORM_EVERY: usize = 20;
const STORM_NODES: usize = 300;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SaturatedRetry,
    ReuseFanout,
    ChurnStorm,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SaturatedRetry, Kind::ReuseFanout, Kind::ChurnStorm];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SaturatedRetry => "saturated_retry",
            Kind::ReuseFanout => "reuse_fanout",
            Kind::ChurnStorm => "churn_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Fixed workloads of every run. An end-to-end run executes them in
    /// repeated passes, so together with the one workload derived from the
    /// run's seed every reported percentile has enough samples.
    pub fn core_seeds(self) -> usize {
        match self {
            Kind::SaturatedRetry => 3,
            Kind::ReuseFanout => 1,
            Kind::ChurnStorm => 2,
        }
    }

    /// Arrivals of the run's `index`-th workload. The derived workload of
    /// reuse_fanout and churn_storm is shorter than the core ones, so the
    /// seed's share of the run's figures stays small. reuse_fanout's core
    /// workload is the longest: its skeleton grows the largest, and its
    /// final deployment carries the reciprocal-flow defect the engine check
    /// reports (see README.md).
    pub fn arrivals(self, index: usize) -> usize {
        let derived = index >= self.core_seeds();
        match self {
            Kind::SaturatedRetry => 40,
            Kind::ReuseFanout if derived => 50,
            Kind::ReuseFanout => 300,
            Kind::ChurnStorm if derived => 40,
            Kind::ChurnStorm => 80,
        }
    }

    /// Decision digest of the core workloads at the commit that defined
    /// the benchmark: admit/reject sequences plus objective bits.
    pub fn golden_digest(self) -> u64 {
        match self {
            Kind::SaturatedRetry => 0x1ab5_e182_65f2_08a1,
            Kind::ReuseFanout => 0x998d_ad74_a3fb_9ef3,
            Kind::ChurnStorm => 0x2f5a_0c57_44ee_b1fc,
        }
    }

    pub fn spec(self, index: usize, seed: u64) -> WorkloadSpec {
        let mut spec = match self {
            Kind::SaturatedRetry => WorkloadSpec::paper_sim(0.07),
            Kind::ReuseFanout => {
                let mut s = WorkloadSpec::paper_sim(0.1);
                s.cpu_capacity *= 4.0;
                s.zipf_theta = 1.5;
                s
            }
            Kind::ChurnStorm => WorkloadSpec::paper_sim(0.12),
        };
        spec.queries = self.arrivals(index);
        spec.seed = seed;
        spec
    }

    pub fn config(self, catalog: &Catalog) -> PlannerConfig {
        let mut cfg = PlannerConfig::new(catalog);
        cfg.budget = SolveBudget::nodes(ROUND_NODES);
        cfg.lp_threads = LP_THREADS;
        cfg.node_quantum = 0;
        cfg.round_deadline = None;
        if self == Kind::ChurnStorm {
            cfg.node_quantum = CHURN_QUANTUM;
            cfg.round_deadline = Some(CHURN_DEADLINE);
        }
        cfg
    }

    /// The seeds of one run: the fixed core, then one derived from the
    /// run's seed.
    pub fn seeds(self, run_seed: u64) -> Vec<u64> {
        let mut seeds: Vec<u64> = (0..self.core_seeds() as u64)
            .map(|i| DEFAULT_SEED + i)
            .collect();
        let mut x = run_seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        loop {
            x = splitmix64(x);
            if !seeds.contains(&x) {
                seeds.push(x);
                return seeds;
            }
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the decision sequence.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn decision(&mut self, q: QueryId, admitted: bool) {
        self.add(u64::from(q.0) << 1 | u64::from(admitted));
    }
}

/// Folds per-workload digests into one.
pub fn fold_digests(digests: &[u64]) -> u64 {
    let mut d = Digest::new();
    for &x in digests {
        d.add(x);
    }
    d.0
}

/// Wall-clock observations of one execution. These are the only numbers
/// that may differ between two executions of the same seed.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    pub admit_ms: Vec<f64>,
    pub reject_ms: Vec<f64>,
    pub reuse_ms: Vec<f64>,
    pub retry_ms: Vec<f64>,
    pub remove_ms: Vec<f64>,
    pub pump_ms: Vec<f64>,
    pub drain_ms: f64,
    pub adapt_ms: f64,
    pub recover_ms: f64,
    /// Sum of every timed planner call: the planner's busy time.
    pub busy_ms: f64,
    /// Busy time of solver rounds, and of those that rejected.
    pub solver_ms: f64,
    pub reject_solver_ms: f64,
    /// Time spent in the correctness checks: deployment validation and
    /// the engine run (outside the planner's busy time).
    pub validate_ms: f64,
    pub engine_ms: f64,
}

/// Deterministic counters of one execution: identical on every execution
/// of the same seed, whatever the machine's speed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Planner operations attempted, and those that returned `Err` or
    /// failed a correctness check.
    pub ops: usize,
    pub failed: usize,
    pub submissions: usize,
    pub admitted_submissions: usize,
    pub verdicts: usize,
    pub unproven: usize,
    pub displaced: usize,
    pub degraded: usize,
    pub solver_rounds: usize,
    pub admit_rounds: usize,
    pub reject_rounds: usize,
    pub nodes: usize,
    pub nodes_admit: usize,
    pub nodes_reject: usize,
    pub proved_rounds: usize,
    pub budget_stopped_rejects: usize,
    pub lp_iterations: usize,
    pub pivots_phase1: usize,
    pub pivots_primal: usize,
    pub pivots_dual: usize,
    pub cache_rebuilds: usize,
    pub cache_patches: usize,
    pub reused_existing: usize,
    pub incremental_rounds: usize,
    pub compactions: usize,
    pub parked: usize,
    pub resumed: usize,
    pub model_vars_sum: usize,
    pub model_cons_sum: usize,
    /// Final deployments whose engine backlog grows with the horizon.
    pub engine_unbounded: usize,
    pub engine_backlog: Vec<u64>,
    pub objective_bits: Vec<u64>,
    pub digests: Vec<u64>,
}

impl Counts {
    pub fn objective(&self) -> f64 {
        self.objective_bits.iter().map(|&b| f64::from_bits(b)).sum()
    }

    pub fn engine_backlog(&self) -> f64 {
        self.engine_backlog.iter().map(|&b| f64::from_bits(b)).sum()
    }

    /// Adds another execution's counters.
    pub fn absorb(&mut self, o: &Counts) {
        let pairs = [
            (&mut self.ops, o.ops),
            (&mut self.failed, o.failed),
            (&mut self.submissions, o.submissions),
            (&mut self.admitted_submissions, o.admitted_submissions),
            (&mut self.verdicts, o.verdicts),
            (&mut self.unproven, o.unproven),
            (&mut self.displaced, o.displaced),
            (&mut self.degraded, o.degraded),
            (&mut self.solver_rounds, o.solver_rounds),
            (&mut self.admit_rounds, o.admit_rounds),
            (&mut self.reject_rounds, o.reject_rounds),
            (&mut self.nodes, o.nodes),
            (&mut self.nodes_admit, o.nodes_admit),
            (&mut self.nodes_reject, o.nodes_reject),
            (&mut self.proved_rounds, o.proved_rounds),
            (&mut self.budget_stopped_rejects, o.budget_stopped_rejects),
            (&mut self.lp_iterations, o.lp_iterations),
            (&mut self.pivots_phase1, o.pivots_phase1),
            (&mut self.pivots_primal, o.pivots_primal),
            (&mut self.pivots_dual, o.pivots_dual),
            (&mut self.cache_rebuilds, o.cache_rebuilds),
            (&mut self.cache_patches, o.cache_patches),
            (&mut self.reused_existing, o.reused_existing),
            (&mut self.incremental_rounds, o.incremental_rounds),
            (&mut self.compactions, o.compactions),
            (&mut self.parked, o.parked),
            (&mut self.resumed, o.resumed),
            (&mut self.model_vars_sum, o.model_vars_sum),
            (&mut self.model_cons_sum, o.model_cons_sum),
            (&mut self.engine_unbounded, o.engine_unbounded),
        ];
        for (mine, theirs) in pairs {
            *mine += theirs;
        }
        self.engine_backlog.extend_from_slice(&o.engine_backlog);
        self.objective_bits.extend_from_slice(&o.objective_bits);
        self.digests.extend_from_slice(&o.digests);
    }
}

impl Timings {
    /// Observations of identical executions of one seed, merged call by
    /// call: every per-call time and every total is the median over the
    /// executions. `None` when the executions did not make the same calls.
    pub fn median_of(reps: &[&Timings]) -> Option<Timings> {
        let first = reps.first()?;
        let list = |f: fn(&Timings) -> &Vec<f64>| -> Option<Vec<f64>> {
            let n = f(first).len();
            if reps.iter().any(|t| f(t).len() != n) {
                return None;
            }
            Some(
                (0..n)
                    .map(|i| median(&reps.iter().map(|t| f(t)[i]).collect::<Vec<_>>()))
                    .collect(),
            )
        };
        let total = |f: fn(&Timings) -> f64| median(&reps.iter().map(|t| f(t)).collect::<Vec<_>>());
        Some(Timings {
            admit_ms: list(|t| &t.admit_ms)?,
            reject_ms: list(|t| &t.reject_ms)?,
            reuse_ms: list(|t| &t.reuse_ms)?,
            retry_ms: list(|t| &t.retry_ms)?,
            remove_ms: list(|t| &t.remove_ms)?,
            pump_ms: list(|t| &t.pump_ms)?,
            drain_ms: total(|t| t.drain_ms),
            adapt_ms: total(|t| t.adapt_ms),
            recover_ms: total(|t| t.recover_ms),
            busy_ms: total(|t| t.busy_ms),
            solver_ms: total(|t| t.solver_ms),
            reject_solver_ms: total(|t| t.reject_solver_ms),
            validate_ms: total(|t| t.validate_ms),
            engine_ms: total(|t| t.engine_ms),
        })
    }

    /// Adds another execution's observations.
    pub fn absorb(&mut self, o: &Timings) {
        self.admit_ms.extend_from_slice(&o.admit_ms);
        self.reject_ms.extend_from_slice(&o.reject_ms);
        self.reuse_ms.extend_from_slice(&o.reuse_ms);
        self.retry_ms.extend_from_slice(&o.retry_ms);
        self.remove_ms.extend_from_slice(&o.remove_ms);
        self.pump_ms.extend_from_slice(&o.pump_ms);
        self.drain_ms += o.drain_ms;
        self.adapt_ms += o.adapt_ms;
        self.recover_ms += o.recover_ms;
        self.busy_ms += o.busy_ms;
        self.solver_ms += o.solver_ms;
        self.reject_solver_ms += o.reject_solver_ms;
        self.validate_ms += o.validate_ms;
        self.engine_ms += o.engine_ms;
    }
}

/// Planner inputs of one fresh solver round, captured before the round for
/// the layer replay.
pub struct Snapshot {
    pub catalog: Catalog,
    pub state: DeploymentState,
    pub bases: Vec<StreamId>,
    pub query: QueryId,
    pub config: PlannerConfig,
    pub outcome: PlanningOutcome,
}

/// How a submission reached the planner.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    Fresh,
    Retry,
}

/// One execution of a workload: a fresh planner driven through every
/// arrival of one generated workload.
pub struct Execution<'t> {
    kind: Kind,
    tracer: &'t Tracer,
    /// Capture snapshots of the fresh solver rounds for the replay.
    capture: bool,
    pub timings: Timings,
    pub counts: Counts,
    pub snapshots: Vec<Snapshot>,
}

impl<'t> Execution<'t> {
    pub fn run(kind: Kind, w: &Workload, tracer: &'t Tracer, capture: bool) -> Self {
        let mut exec = Execution {
            kind,
            tracer,
            capture,
            timings: Timings::default(),
            counts: Counts::default(),
            snapshots: Vec::new(),
        };
        tracer.set_round(0);
        match kind {
            Kind::SaturatedRetry | Kind::ReuseFanout => exec.arrivals(w),
            Kind::ChurnStorm => exec.churn(w),
        }
        exec
    }

    fn planner(&self, w: &Workload) -> SqprPlanner {
        SqprPlanner::new(w.catalog.clone(), self.kind.config(&w.catalog))
    }

    /// saturated_retry and reuse_fanout: every arrival is submitted; a
    /// rejected arrival is re-submitted once, right after the next arrival.
    fn arrivals(&mut self, w: &Workload) {
        let mut planner = self.planner(w);
        let mut digest = Digest::new();
        let mut pending: Option<usize> = None;
        for (i, q) in w.queries.iter().enumerate() {
            self.tracer.set_round(i as u32);
            let admitted = self.submit(&mut planner, q, Call::Fresh, &mut digest);
            if let Some(r) = pending.take() {
                self.submit(&mut planner, &w.queries[r], Call::Retry, &mut digest);
            }
            if admitted == Some(false) {
                pending = Some(i);
            }
        }
        if let Some(r) = pending.take() {
            self.submit(&mut planner, &w.queries[r], Call::Retry, &mut digest);
        }
        self.finish(&planner, digest);
    }

    fn snapshot(&self, planner: &SqprPlanner) -> Option<(Catalog, DeploymentState)> {
        self.capture
            .then(|| (planner.catalog().clone(), planner.state().clone()))
    }

    fn keep_snapshot(
        &mut self,
        before: Option<(Catalog, DeploymentState)>,
        planner: &SqprPlanner,
        bases: &[StreamId],
        o: &PlanningOutcome,
    ) {
        if let Some((catalog, state)) = before {
            if !o.reused_existing {
                self.snapshots.push(Snapshot {
                    catalog,
                    state,
                    bases: bases.to_vec(),
                    query: o.query,
                    config: planner.config().clone(),
                    outcome: o.clone(),
                });
            }
        }
    }

    fn submit(
        &mut self,
        planner: &mut SqprPlanner,
        bases: &[StreamId],
        call: Call,
        digest: &mut Digest,
    ) -> Option<bool> {
        let before = self.snapshot(planner);
        let name = if call == Call::Retry {
            "core.retry"
        } else {
            "core.submit"
        };
        let (res, ms) = self.tracer.time(name, || planner.submit(bases));
        self.counts.ops += 1;
        self.timings.busy_ms += ms;
        let admitted = match res {
            Ok(o) => {
                self.keep_snapshot(before, planner, bases, &o);
                self.submission(&o, ms, call, digest);
                Some(o.admitted)
            }
            Err(_) => {
                self.counts.failed += 1;
                None
            }
        };
        self.check(planner);
        admitted
    }

    /// A submission's verdict as the caller saw it.
    fn submission(&mut self, o: &PlanningOutcome, ms: f64, call: Call, digest: &mut Digest) {
        self.counts.submissions += 1;
        if o.admitted {
            self.counts.admitted_submissions += 1;
            self.timings.admit_ms.push(ms);
        } else {
            self.timings.reject_ms.push(ms);
        }
        if call == Call::Retry {
            self.timings.retry_ms.push(ms);
        }
        if o.reused_existing {
            self.counts.reused_existing += 1;
            self.timings.reuse_ms.push(ms);
        }
        self.verdict(o, Some(ms), digest);
    }

    /// Any delivered verdict: counts it, and its solver round if it had one.
    fn verdict(&mut self, o: &PlanningOutcome, ms: Option<f64>, digest: &mut Digest) {
        self.counts.verdicts += 1;
        if !o.verdict.is_proven() {
            self.counts.unproven += 1;
        }
        digest.decision(o.query, o.admitted);
        self.round(o, ms);
    }

    /// The solver-round counters of an outcome that reached the solver.
    fn round(&mut self, o: &PlanningOutcome, ms: Option<f64>) {
        if o.reused_existing || o.model_vars == 0 {
            return;
        }
        let c = &mut self.counts;
        c.solver_rounds += 1;
        c.nodes += o.nodes;
        if o.admitted {
            c.admit_rounds += 1;
            c.nodes_admit += o.nodes;
        } else {
            c.reject_rounds += 1;
            c.nodes_reject += o.nodes;
            if !o.verdict.is_proven() {
                c.budget_stopped_rejects += 1;
            }
        }
        if o.proved_optimal {
            c.proved_rounds += 1;
        }
        c.lp_iterations += o.lp_iterations;
        c.pivots_phase1 += o.lp_pivots.phase1;
        c.pivots_primal += o.lp_pivots.primal;
        c.pivots_dual += o.lp_pivots.dual;
        c.cache_rebuilds += o.lp_cache.rebuilds;
        c.cache_patches += o.lp_cache.patches;
        c.model_vars_sum += o.model_vars;
        c.model_cons_sum += o.model_cons;
        if let Some(ms) = ms {
            self.timings.solver_ms += ms;
            if !o.admitted {
                self.timings.reject_solver_ms += ms;
            }
        }
    }

    /// Correctness after every operation: the deployment validates and
    /// every admitted query's result stream has a provider.
    fn check(&mut self, planner: &SqprPlanner) {
        let (ok, ms) = self.tracer.time("dsps.validate", || {
            let state = planner.state();
            state.is_valid(planner.catalog())
                && state
                    .admitted()
                    .values()
                    .all(|&s| state.provider_of(s).is_some())
        });
        self.timings.validate_ms += ms;
        if !ok {
            self.counts.failed += 1;
        }
    }

    /// End of one seed: objective, digest, solver stats and the engine's
    /// bounded-backlog check on the final deployment.
    fn finish(&mut self, planner: &SqprPlanner, mut digest: Digest) {
        let objective = planner.deployment_objective();
        digest.add(objective.to_bits());
        self.counts.objective_bits.push(objective.to_bits());
        self.counts.digests.push(digest.0);
        let stats = planner.solver_stats();
        self.counts.incremental_rounds += stats.incremental_rounds;
        self.counts.compactions += stats.compactions;
        let ((bounded, backlog), ms) = self.tracer.time("dsps.engine", || {
            engine_backlog(planner.catalog(), planner.state())
        });
        self.timings.engine_ms += ms;
        if !bounded {
            self.counts.engine_unbounded += 1;
        }
        self.counts.engine_backlog.push(backlog.to_bits());
    }

    /// churn_storm: arrivals through the admission queue under a node
    /// deadline, with periodic pumps, departures, one rate-drift round and
    /// periodic host-failure storms, then a final drain.
    fn churn(&mut self, w: &Workload) {
        let mut planner = self.planner(w);
        let mut queue = AdmissionQueue::new();
        let mut digest = Digest::new();
        let mut storms = 0u64;
        // A parked submission's verdict is provisional; the queue's ledger
        // holds the final one, which is what `admitted_frac` counts.
        let admitted_before = self.counts.admitted_submissions;
        for (i, q) in w.queries.iter().enumerate() {
            self.tracer.set_round(i as u32);
            let arrival = i + 1;
            let before = self.snapshot(&planner);
            let parked = queue.parked();
            let (res, ms) = self
                .tracer
                .time("core.admission.submit", || queue.submit(&mut planner, q));
            self.counts.ops += 1;
            self.timings.busy_ms += ms;
            match res {
                Ok(o) => {
                    self.keep_snapshot(before, &planner, q, &o);
                    self.submission(&o, ms, Call::Fresh, &mut digest);
                }
                Err(_) => self.counts.failed += 1,
            }
            self.counts.parked += queue.parked() - parked;
            self.check(&planner);

            if arrival % PUMP_EVERY == 0 {
                let (resolved, ms) = self
                    .tracer
                    .time("core.admission.pump", || queue.pump(&mut planner));
                self.resolved(&resolved, ms, &mut digest);
                self.timings.pump_ms.push(ms);
                self.check(&planner);
            }
            if arrival % DEPART_EVERY == 0 {
                self.depart(&mut planner);
            }
            if arrival == DRIFT_AT {
                self.drift(&mut planner);
            }
            if arrival % STORM_EVERY == 0 {
                self.storm(&mut planner, w, storms, &mut digest);
                storms += 1;
            }
        }
        let (resolved, ms) = self
            .tracer
            .time("core.admission.drain", || queue.drain(&mut planner));
        self.resolved(&resolved, ms, &mut digest);
        self.timings.drain_ms += ms;
        self.check(&planner);

        // One ledger record per submission: the final verdicts.
        let records = queue.records();
        if records.len() != w.queries.len() {
            self.counts.failed += 1;
        }
        self.counts.admitted_submissions =
            admitted_before + records.iter().filter(|r| r.verdict.is_admitted()).count();
        self.counts.resumed += records
            .iter()
            .filter(|r| {
                matches!(
                    r.path,
                    AdmissionPath::Resumed
                        | AdmissionPath::IncumbentHandoff
                        | AdmissionPath::DeferredReplan
                )
            })
            .count();
        self.finish(&planner, digest);
    }

    fn resolved(&mut self, resolved: &[PlanningOutcome], ms: f64, digest: &mut Digest) {
        self.counts.ops += 1;
        self.timings.busy_ms += ms;
        for o in resolved {
            self.verdict(o, None, digest);
        }
    }

    /// The oldest admitted query leaves.
    fn depart(&mut self, planner: &mut SqprPlanner) {
        let Some(&q) = planner.state().admitted().keys().next() else {
            return;
        };
        let (removed, ms) = self
            .tracer
            .time("core.remove_query", || planner.remove_query(q));
        self.counts.ops += 1;
        self.timings.busy_ms += ms;
        self.timings.remove_ms.push(ms);
        if !removed {
            self.counts.failed += 1;
        }
        self.check(planner);
    }

    /// The most-chosen base streams speed up; affected queries re-plan.
    fn drift(&mut self, planner: &mut SqprPlanner) {
        let observed: Vec<(StreamId, f64)> = (0..DRIFT_STREAMS)
            .map(StreamId)
            .map(|s| (s, planner.catalog().stream(s).rate * DRIFT_FACTOR))
            .collect();
        let (_, ms) = self.tracer.time("core.adapt", || {
            adapt_to_observed_rates(planner, &observed, DRIFT_THRESHOLD)
        });
        self.counts.ops += 1;
        self.timings.busy_ms += ms;
        self.timings.adapt_ms += ms;
        self.check(planner);
    }

    /// Fail one host, re-admit the displaced queries under a node budget,
    /// restore the host.
    fn storm(&mut self, planner: &mut SqprPlanner, w: &Workload, k: u64, digest: &mut Digest) {
        let hosts = w.catalog.num_hosts();
        let plan = FaultPlan::generate(&FaultSpec::host_storm(
            hosts,
            1.0 / hosts as f64,
            DEFAULT_SEED.wrapping_add(k),
        ));
        for &h in &plan.failed_hosts {
            self.counts.ops += 1;
            if !planner.fail_host(h) {
                self.counts.failed += 1;
            }
        }
        let (report, ms) = self.tracer.time("core.recover", || {
            recover_from_failures(planner, &StormBudget::nodes(STORM_NODES))
        });
        self.counts.ops += 1;
        self.timings.busy_ms += ms;
        self.timings.recover_ms += ms;
        self.counts.displaced += report.recoveries.len();
        self.counts.degraded += report.degraded();
        // Survivors exist, so nothing may be dropped.
        self.counts.failed += report.dropped();
        // One verdict per displaced query: proven only when the solver
        // re-planned it with a certificate.
        for r in &report.recoveries {
            self.counts.verdicts += 1;
            let proven = r.mode == RecoveryMode::Replanned
                && r.outcome.as_ref().is_some_and(|o| o.verdict.is_proven());
            if !proven {
                self.counts.unproven += 1;
            }
            digest.decision(r.query, r.mode != RecoveryMode::Dropped);
            if let Some(o) = &r.outcome {
                self.round(o, None);
            }
        }
        self.check(planner);
        for &h in &plan.failed_hosts {
            self.counts.ops += 1;
            if !planner.restore_host(h) {
                self.counts.failed += 1;
            }
        }
        self.check(planner);
    }
}

/// Runs the stream engine on a deployment over two horizons. The backlog
/// is bounded when doubling the measured horizon does not grow it.
fn engine_backlog(catalog: &Catalog, state: &DeploymentState) -> (bool, f64) {
    let run = |ticks: usize| {
        sqpr_dsps::run_engine(
            catalog,
            state,
            &EngineConfig {
                measure_ticks: ticks,
                ..EngineConfig::default()
            },
        )
        .final_backlog
    };
    let short = run(50);
    let long = run(100);
    (long <= short * 1.001 + 1e-6, long)
}

/// Generates a run's workloads.
pub fn generate_all(kind: Kind, seeds: &[u64]) -> Vec<Workload> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| generate(&kind.spec(i, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(admit_ms: Vec<f64>, busy_ms: f64) -> Timings {
        Timings {
            admit_ms,
            busy_ms,
            ..Timings::default()
        }
    }

    #[test]
    fn median_of_merges_call_by_call() {
        let a = timings(vec![1.0, 50.0, 7.0], 10.0);
        let b = timings(vec![3.0, 40.0, 9.0], 30.0);
        let c = timings(vec![2.0, 90.0, 8.0], 20.0);
        let m = Timings::median_of(&[&a, &b, &c]).expect("same calls");
        assert_eq!(m.admit_ms, vec![2.0, 50.0, 8.0]);
        assert_eq!(m.busy_ms, 20.0);
    }

    #[test]
    fn median_of_refuses_different_calls() {
        let a = timings(vec![1.0, 2.0], 1.0);
        let b = timings(vec![1.0], 1.0);
        assert!(Timings::median_of(&[&a, &b]).is_none());
        assert!(Timings::median_of(&[]).is_none());
    }

    #[test]
    fn derived_workload_is_last_and_not_in_the_core() {
        for kind in Kind::ALL {
            let seeds = kind.seeds(7);
            assert_eq!(seeds.len(), kind.core_seeds() + 1);
            assert_eq!(seeds, kind.seeds(7));
            assert!(!seeds[..kind.core_seeds()].contains(&seeds[kind.core_seeds()]));
        }
    }
}
