//! Deadline-bounded admission: anytime verdicts and the admission queue.
//!
//! With [`PlannerConfig::node_quantum`](crate::PlannerConfig::node_quantum)
//! set, every planning solve runs as a sequence of preemptible slices
//! ([`sqpr_milp::solve_preemptible`]); with
//! [`round_deadline`](crate::PlannerConfig::round_deadline) also set, a
//! round that is still open when its (deterministic, node-counted)
//! deadline expires answers *anytime* instead of burning the full budget:
//!
//! - an **admitting incumbent** is installed immediately —
//!   [`Admitted::IncumbentAtDeadline`], optimality deliberately forfeited;
//! - otherwise the suspended search is **parked** —
//!   [`Rejected::DeadlineNoCertificate`], a provisional rejection.
//!
//! The [`AdmissionQueue`] owns the parked rounds. Each [`pump`] tick
//! resumes the eligible ones **in park order** (deterministic), granting
//! another `round_deadline` nodes per attempt, with exponential
//! logical-tick backoff between attempts. A round that exhausts
//! [`admission_max_retries`](crate::PlannerConfig::admission_max_retries)
//! descends PR 7's degradation ladder:
//!
//! 1. **resume** — bounded retries of the suspended search (progress is
//!    never thrown away: the search continues bit-for-bit where it left
//!    off);
//! 2. **incumbent handoff** — at any deadline expiry, an incumbent that
//!    admits the query is installed;
//! 3. **greedy install** — the constructive baseline placement
//!    ([`SqprPlanner::admit_greedy`]);
//! 4. **defer** — the round is marked deferred and its next resume runs
//!    *unbounded*, producing a proven verdict either way.
//!
//! [`drain`] forces every parked round to a terminal verdict (unbounded
//! resumes), so after a quiet period the queue is empty and every
//! submission ever parked is accounted for in the [`AdmissionRecord`] log
//! — there is no silent-drop path, mirroring the recovery storm's
//! [`StormReport`](crate::StormReport) contract.
//!
//! [`pump`]: AdmissionQueue::pump
//! [`drain`]: AdmissionQueue::drain

use std::collections::VecDeque;

use sqpr_dsps::{QueryId, StreamId};
use sqpr_milp::MilpStatus;

use crate::planner::{PlannerError, PlanningOutcome, PreemptedRound, ResumeOutcome, SqprPlanner};

/// How a submission came to be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// The solver proved the admitting placement optimal.
    Proven,
    /// Admitted by an anytime handoff without an optimality certificate:
    /// the best incumbent at a deadline/budget expiry, or the degradation
    /// ladder's greedy install.
    IncumbentAtDeadline,
}

/// How a submission came to be rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The solver proved no admitting placement exists (infeasible, or the
    /// optimum does not admit).
    Proven,
    /// The deadline/budget expired with no admitting incumbent and no
    /// proof. When issued by a deadline round this rejection is
    /// *provisional*: the suspended search is parked in the
    /// [`AdmissionQueue`] and may still resolve either way.
    DeadlineNoCertificate,
}

/// Anytime verdict of one planning round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundVerdict {
    Admitted(Admitted),
    Rejected(Rejected),
}

impl RoundVerdict {
    /// Maps a *completed* (non-preempted) round to its verdict: proofs
    /// require a terminal solver status, everything else is an anytime
    /// answer.
    pub(crate) fn of_result(admitted: bool, status: MilpStatus) -> Self {
        if admitted {
            if status == MilpStatus::Optimal {
                RoundVerdict::Admitted(Admitted::Proven)
            } else {
                RoundVerdict::Admitted(Admitted::IncumbentAtDeadline)
            }
        } else if matches!(status, MilpStatus::Optimal | MilpStatus::Infeasible) {
            RoundVerdict::Rejected(Rejected::Proven)
        } else {
            RoundVerdict::Rejected(Rejected::DeadlineNoCertificate)
        }
    }

    pub fn is_admitted(&self) -> bool {
        matches!(self, RoundVerdict::Admitted(_))
    }

    /// Whether the verdict carries a certificate (proven admit/reject).
    pub fn is_proven(&self) -> bool {
        matches!(
            self,
            RoundVerdict::Admitted(Admitted::Proven) | RoundVerdict::Rejected(Rejected::Proven)
        )
    }
}

/// The rung of the degradation ladder that produced a terminal verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPath {
    /// Resolved by the submission round itself (no parking involved).
    Direct,
    /// Resolved by resuming the parked search to completion.
    Resumed,
    /// An admitting incumbent was installed at a deadline expiry.
    IncumbentHandoff,
    /// The greedy baseline placement was installed after the retry budget
    /// ran dry.
    GreedyInstall,
    /// Resolved by the deferred (unbounded) final resume.
    DeferredReplan,
}

/// Terminal record of one submission that went through the queue. Every
/// parked round produces exactly one record once resolved; the scenario
/// corpus asserts the ledger covers every preempted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRecord {
    pub query: QueryId,
    pub verdict: RoundVerdict,
    /// Resume attempts consumed (0 for `Direct`).
    pub attempts: u32,
    pub path: AdmissionPath,
}

struct Parked {
    round: PreemptedRound,
    attempts: u32,
    /// Logical tick at which the next resume attempt may run.
    eligible_at: u64,
    /// Ladder rung 4: the next resume runs unbounded.
    deferred: bool,
}

/// Admission front-end for deadline-bounded planning: parks
/// deadline-preempted submissions (suspended search included) and resumes
/// them in deterministic order under bounded retries with logical-tick
/// backoff. See the module docs for the full ladder.
#[derive(Default)]
pub struct AdmissionQueue {
    parked: VecDeque<Parked>,
    tick: u64,
    log: Vec<AdmissionRecord>,
}

impl AdmissionQueue {
    pub fn new() -> Self {
        AdmissionQueue::default()
    }

    /// Submissions currently parked (suspended searches awaiting resume).
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Queries currently parked, in resume order.
    pub fn parked_queries(&self) -> Vec<QueryId> {
        self.parked.iter().map(|p| p.round.query()).collect()
    }

    /// Current logical tick (advanced by [`Self::pump`]).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Terminal ledger: one record per resolved submission, in resolution
    /// order.
    pub fn records(&self) -> &[AdmissionRecord] {
        &self.log
    }

    /// Submits a query through the deadline layer: a round preempted at
    /// its node deadline without an admitting incumbent is parked here for
    /// retries; everything else resolves directly. The returned outcome is
    /// the round's — check [`PlanningOutcome::verdict`] to distinguish a
    /// provisional [`Rejected::DeadlineNoCertificate`] (parked, may still
    /// admit) from a terminal answer.
    pub fn submit(
        &mut self,
        planner: &mut SqprPlanner,
        bases: &[StreamId],
    ) -> Result<PlanningOutcome, PlannerError> {
        let outcome = planner.submit(bases)?;
        match planner.take_preempted_round() {
            Some(round) => self.parked.push_back(Parked {
                round,
                attempts: 0,
                eligible_at: self.tick + 1,
                deferred: false,
            }),
            None => self.log.push(AdmissionRecord {
                query: outcome.query,
                verdict: outcome.verdict,
                attempts: 0,
                path: AdmissionPath::Direct,
            }),
        }
        Ok(outcome)
    }

    /// One logical tick: resumes every eligible parked round in park order,
    /// each under another `round_deadline` node budget (deferred rounds run
    /// unbounded). Returns the outcomes of the rounds that resolved this
    /// tick. Rounds that stay open are re-parked with exponential backoff
    /// until their retries run dry, then descend the ladder (greedy
    /// install, else deferred).
    pub fn pump(&mut self, planner: &mut SqprPlanner) -> Vec<PlanningOutcome> {
        self.tick += 1;
        let max_retries = planner.config().admission_max_retries;
        let backoff = planner.config().admission_backoff_base.max(1);
        let deadline = planner.config().round_deadline;
        let mut resolved = Vec::new();
        for _ in 0..self.parked.len() {
            let Some(mut p) = self.parked.pop_front() else {
                break;
            };
            if p.eligible_at > self.tick {
                self.parked.push_back(p);
                continue;
            }
            p.attempts += 1;
            let budget = if p.deferred { None } else { deadline };
            match planner.resume_parked(p.round, budget) {
                ResumeOutcome::Resolved(outcome) => {
                    let path = if p.deferred {
                        AdmissionPath::DeferredReplan
                    } else if outcome.verdict
                        == RoundVerdict::Admitted(Admitted::IncumbentAtDeadline)
                        && !outcome.proved_optimal
                    {
                        AdmissionPath::IncumbentHandoff
                    } else {
                        AdmissionPath::Resumed
                    };
                    self.resolve(outcome, p.attempts, path, &mut resolved);
                }
                ResumeOutcome::StillOpen(round) => {
                    if p.attempts < max_retries {
                        // Rung 1: retry later, exponential logical backoff.
                        p.eligible_at = self.tick + (backoff << (p.attempts - 1).min(32) as u64);
                        p.round = round;
                        self.parked.push_back(p);
                        continue;
                    }
                    // Rung 3: greedy install — served at degraded quality.
                    let outcome = greedy_install(planner, &round);
                    if outcome.admitted {
                        self.resolve(
                            outcome,
                            p.attempts,
                            AdmissionPath::GreedyInstall,
                            &mut resolved,
                        );
                    } else {
                        // Rung 4: defer — the next resume runs unbounded
                        // and must produce a proven verdict.
                        p.deferred = true;
                        p.eligible_at = self.tick + 1;
                        p.round = round;
                        self.parked.push_back(p);
                    }
                }
            }
        }
        resolved
    }

    /// Forces every parked round to a terminal verdict *now*: each gets
    /// one unbounded resume (the parked search completes, reusing all
    /// progress). After `drain` the queue is empty — the zero-silent-drops
    /// guarantee the deadline-storm scenario pins.
    pub fn drain(&mut self, planner: &mut SqprPlanner) -> Vec<PlanningOutcome> {
        let mut resolved = Vec::new();
        while let Some(mut p) = self.parked.pop_front() {
            p.attempts += 1;
            let (outcome, path) = match planner.resume_parked(p.round, None) {
                ResumeOutcome::Resolved(outcome) => (outcome, AdmissionPath::DeferredReplan),
                // An unbounded resume still stops at an expired wall
                // deadline ([`SqprPlanner::set_wall_deadline`]) with no
                // admitting incumbent: fall back to the greedy rung and
                // record the answer, admitted or not, rather than dropping
                // the submission.
                ResumeOutcome::StillOpen(round) => (
                    greedy_install(planner, &round),
                    AdmissionPath::GreedyInstall,
                ),
            };
            self.resolve(outcome, p.attempts, path, &mut resolved);
        }
        resolved
    }

    /// Records a terminal verdict in the ledger and hands the outcome back.
    fn resolve(
        &mut self,
        outcome: PlanningOutcome,
        attempts: u32,
        path: AdmissionPath,
        resolved: &mut Vec<PlanningOutcome>,
    ) {
        self.log.push(AdmissionRecord {
            query: outcome.query,
            verdict: outcome.verdict,
            attempts,
            path,
        });
        resolved.push(outcome);
    }
}

/// Ladder rung 3: installs the greedy baseline placement of a round still
/// open ([`SqprPlanner::admit_greedy`]); the suspended search is dropped.
/// The outcome never re-entered the solver.
fn greedy_install(planner: &mut SqprPlanner, round: &PreemptedRound) -> PlanningOutcome {
    let verdict = if matches!(planner.admit_greedy(round.query()), Ok(true)) {
        RoundVerdict::Admitted(Admitted::IncumbentAtDeadline)
    } else {
        RoundVerdict::Rejected(Rejected::DeadlineNoCertificate)
    };
    PlanningOutcome {
        query: round.query(),
        admitted: verdict.is_admitted(),
        reused_existing: false,
        nodes: round.nodes_done(),
        lp_iterations: 0,
        lp_pivots: sqpr_milp::PivotCounts::default(),
        gap: f64::INFINITY,
        solve_time: std::time::Duration::ZERO,
        model_vars: 0,
        model_cons: 0,
        proved_optimal: false,
        status: MilpStatus::Unknown,
        incremental: false,
        lp_cache: sqpr_milp::CacheStats::default(),
        verdict,
    }
}
