//! Layer replay of the cold planning path.
//!
//! For every captured fresh solver round, the replay starts from clones of
//! the catalog and deployment as they were before the round and calls the
//! layers' public functions directly: query registration, model build,
//! warm start, branch & bound with the lazy causality filter (and its cut
//! rounds), a root LP solve of the model's relaxation lowered with
//! `ProblemBuilder`, and decode/install. Each call is a span, so the
//! traced run gets the layer split of the cold path on the planner's own
//! inputs. The warm path inside the planner is not split here.

use std::cell::RefCell;

use sqpr_core::model::AvailabilityCut;
use sqpr_core::{
    greedy_admit, register_join_query, AcyclicityMode, ModelInputs, PlannerConfig, PlanningModel,
};
use sqpr_lp::{ProblemBuilder, SimplexOptions};
use sqpr_milp::{MilpOptions, MilpWarmStart, Model, Sense, VarId};

use crate::trace::Tracer;
use crate::workloads::Snapshot;

/// Work the replay did, to print next to the planner's own counts for the
/// same rounds.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub rounds: usize,
    pub nodes: usize,
    pub lp_iterations: usize,
    pub root_iterations: usize,
    /// The planner's counts for the replayed rounds.
    pub planner_nodes: usize,
    pub planner_lp_iterations: usize,
    /// Rounds whose admit/reject decision differs from the planner's.
    pub disagreements: usize,
}

/// Cut rounds of the lazy causality filter, as in the planner.
const MAX_CUT_ROUNDS: usize = 3;

pub fn replay(snapshots: Vec<Snapshot>, tracer: &Tracer) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    for (k, snap) in snapshots.into_iter().enumerate() {
        tracer.set_round(k as u32);
        let ((), _) = tracer.time("replay.round", || round(snap, tracer, &mut counts));
    }
    counts
}

fn inputs<'a>(
    snap: &'a Snapshot,
    catalog: &'a sqpr_dsps::Catalog,
    space: &'a sqpr_core::PlanSpace,
    new_streams: &'a [sqpr_dsps::StreamId],
    cuts: &'a [AvailabilityCut],
) -> ModelInputs<'a> {
    let cfg = &snap.config;
    ModelInputs {
        catalog,
        state: &snap.state,
        space,
        new_streams,
        weights: cfg.weights,
        relay_policy: cfg.relay_policy,
        acyclicity: cfg.acyclicity,
        replan: cfg.replan,
        cuts,
    }
}

fn round(snap: Snapshot, tracer: &Tracer, counts: &mut ReplayCounts) {
    let cfg = &snap.config;
    let mut catalog = snap.catalog.clone();
    let ((spec, space), _) = tracer.time("core.register", || {
        register_join_query(&mut catalog, snap.query, &snap.bases, 0)
    });
    let new_streams = [spec.result];
    counts.rounds += 1;
    counts.planner_nodes += snap.outcome.nodes;
    counts.planner_lp_iterations += snap.outcome.lp_iterations;

    let mut cuts: Vec<AvailabilityCut> = Vec::new();
    let mut warm: Option<(Option<Vec<f64>>, bool)> = None;
    for cut_round in 1..=MAX_CUT_ROUNDS {
        let (model, _) = tracer.time("core.model.build", || {
            PlanningModel::build(&inputs(&snap, &catalog, &space, &new_streams, &cuts))
        });
        // Computed once per round: cut rows add no variables, so the start
        // stays valid across cut rounds.
        let (start, admitting) = warm
            .get_or_insert_with(|| {
                tracer
                    .time("core.model.warm_start", || {
                        warm_start(&model, &snap, &catalog, &new_streams)
                    })
                    .0
            })
            .clone();

        let (root_iters, _) = tracer.time("lp.root_solve", || root_lp(&model.milp, cfg, tracer));
        counts.root_iterations += root_iters;

        let opts = milp_options(cfg, admitting);
        let found: RefCell<Vec<AvailabilityCut>> = RefCell::new(Vec::new());
        let filter = |x: &[f64]| {
            let (violated, _) = tracer.time("core.model.causal", || {
                model.find_acausal_cuts(x, &snap.state, &catalog)
            });
            let ok = violated.is_empty();
            found.borrow_mut().extend(violated);
            ok
        };
        let (result, _) = tracer.time("milp.solve", || {
            sqpr_milp::solve_filtered_warm(
                &model.milp,
                &opts,
                MilpWarmStart {
                    start: start.as_deref(),
                    root_basis: None,
                },
                &filter,
            )
        });
        counts.nodes += result.nodes;
        counts.lp_iterations += result.lp_iterations;

        let mut fresh = found.into_inner();
        fresh.retain(|c| !cuts.contains(c));
        if cfg.acyclicity == AcyclicityMode::Lazy && !fresh.is_empty() && cut_round < MAX_CUT_ROUNDS
        {
            for c in fresh {
                if !cuts.contains(&c) {
                    cuts.push(c);
                }
            }
            continue;
        }

        let admitted = tracer
            .time("core.model.decode", || {
                let x = result.x.as_ref()?;
                if !new_streams.iter().any(|&s| model.admits(x, s)) {
                    return None;
                }
                let mut candidate = snap.state.clone();
                model.decode(x, &snap.state).install(&mut candidate);
                Some(candidate.is_valid(&catalog) && candidate.provider_of(spec.result).is_some())
            })
            .0
            .unwrap_or(false);
        if admitted != snap.outcome.admitted {
            counts.disagreements += 1;
        }
        return;
    }
}

/// The planner's warm start: a constructive, reuse-aware admitting start
/// when greedy placement finds one, else the current deployment.
fn warm_start(
    model: &PlanningModel,
    snap: &Snapshot,
    catalog: &sqpr_dsps::Catalog,
    new_streams: &[sqpr_dsps::StreamId],
) -> (Option<Vec<f64>>, bool) {
    if !snap.config.warm_start {
        return (None, false);
    }
    let mut cand = snap.state.clone();
    for &s in new_streams {
        match greedy_admit(catalog, &cand, s, 0) {
            Some(next) => cand = next,
            None => return (model.warm_start(&snap.state, catalog), false),
        }
    }
    match model.warm_start(&cand, catalog) {
        Some(w) if model.milp.is_feasible(&w, 1e-6) => (Some(w), true),
        _ => (model.warm_start(&snap.state, catalog), false),
    }
}

/// Branch & bound options of the planner's cold path: no basis reuse
/// between nodes, the same budgets, dives and cutoff margin.
fn milp_options(cfg: &PlannerConfig, admitting: bool) -> MilpOptions {
    MilpOptions {
        max_nodes: if admitting {
            cfg.budget.max_nodes.min(cfg.improve_nodes.max(1))
        } else {
            cfg.budget.max_nodes
        },
        time_limit: None,
        gap_tol: cfg.gap_tol,
        int_tol: 1e-6,
        dive_every: if admitting { 0 } else { 16 },
        cutoff_margin: if admitting {
            0.0
        } else {
            0.5 * cfg.weights.lambda1
        },
        presolve: true,
        reuse_bases: false,
        cross_solve_factors: cfg.lp_cross_solve_factors,
        threads: cfg.lp_threads,
        lp: simplex_options(cfg),
    }
}

fn simplex_options(cfg: &PlannerConfig) -> SimplexOptions {
    SimplexOptions {
        perturb: 1e-7,
        ratio_test: cfg.lp_ratio_test,
        pricing: cfg.lp_pricing,
        basis_update: cfg.lp_basis_update,
        ..SimplexOptions::default()
    }
}

/// Lowers the model's LP relaxation (every column, every row) and solves
/// it from the slack basis. Returns the simplex iterations.
fn root_lp(milp: &Model, cfg: &PlannerConfig, tracer: &Tracer) -> usize {
    let (problem, _) = tracer.time("lp.lower", || {
        // Variable ids are dense indices; a throwaway model hands them out.
        let mut ids = Model::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..milp.num_vars())
            .map(|_| ids.add_continuous(0.0, 0.0, 0.0))
            .collect();
        let sign = if milp.sense() == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        let mut b = ProblemBuilder::new();
        for &v in &vars {
            let (lb, ub) = milp.var_bounds(v);
            b.add_col(sign * milp.objective_coeff(v), lb, ub);
        }
        for c in 0..milp.num_cons() {
            let (terms, lb, ub) = milp.constraint(c);
            let row = b.add_row(lb, ub);
            for &(v, a) in terms {
                b.set_coeff(row, v.index(), a);
            }
        }
        b.build()
    });
    sqpr_lp::solve(&problem, &simplex_options(cfg)).iterations
}
