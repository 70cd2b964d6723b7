//! Admission-latency benchmark of the SQPR planner.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <saturated_retry|reuse_fanout|churn_storm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! prints the per-layer metrics of a traced pass and a layer replay. The
//! last line of standard output is one JSON object. The exit code is 1 when
//! a correctness check failed and 2 on a usage error. See README.md.

mod replay;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{median, percentile, Pct};
use trace::{self_time_by_name, Tracer};
use workloads::{generate_all, Counts, Execution, Kind, Timings};

/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPEATS: usize = 15;
/// Arrivals of the default seed's workload planned once during set-up, on
/// a planner that is then dropped, so lazy allocation and page faults are
/// paid before timing starts.
const WARMUP_ARRIVALS: usize = 12;
/// Passes over the core workloads of an end-to-end run, at the least.
const MIN_PASSES: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric line: name, value, unit, and the sample count of a
/// percentile.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: Option<usize>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Metrics printed for reading but kept out of the JSON result: the
    /// workload-specific end-to-end figures.
    extra: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n: None,
        });
    }

    fn add_pct(&mut self, name: &str, p: Pct, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: p.value,
            unit,
            n: Some(p.n),
        });
    }

    /// A percentile that may have too few samples on this workload: kept
    /// out of the JSON result when it is refused.
    fn add_pct_or_extra(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        match percentile(samples, p) {
            Ok(pct) => self.add_pct(name, pct, unit),
            Err(e) => self.extra.push(Metric {
                name: format!("{name} (refused: {} samples, {} beyond)", e.n, e.beyond),
                value: f64::NAN,
                unit,
                n: Some(e.n),
            }),
        }
    }

    fn print(&self) {
        for m in self.metrics.iter().chain(&self.extra) {
            match m.n {
                Some(n) => println!("  {:<34} {:>14.4} {:<8} (n={n})", m.name, m.value, m.unit),
                None => println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        body.join(", ")
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB. The
/// end-to-end figure is read after the first pass over the core, so it
/// does not jump with the memory appetite of the run's derived workload.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Workload generation plus a throwaway warm-up, repeated; returns the
/// median set-up seconds, the median generation milliseconds and the
/// generated workloads.
fn setup(kind: Kind, seeds: &[u64]) -> (f64, f64, Vec<sqpr_workload::Workload>) {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut workloads = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = trace::now();
        workloads = generate_all(kind, seeds);
        generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let w = &workloads[0];
        let mut planner = sqpr_core::SqprPlanner::new(w.catalog.clone(), kind.config(&w.catalog));
        for q in w.queries.iter().take(WARMUP_ARRIVALS) {
            let _ = std::hint::black_box(planner.submit(q));
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }
    (median(&setup_s), median(&generate_ms), workloads)
}

/// One execution's results, tagged with the index of its seed in the run.
struct Exec {
    seed: usize,
    timings: Timings,
    counts: Counts,
}

/// The run's correctness checks beyond the per-operation ones.
struct Verdict {
    attempted: usize,
    failed: usize,
}

impl Verdict {
    fn new(execs: &[Exec]) -> Self {
        Verdict {
            attempted: execs.iter().map(|e| e.counts.ops).sum(),
            failed: execs.iter().map(|e| e.counts.failed).sum(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            eprintln!("check failed: {}", what());
            self.failed += 1;
        }
    }

    /// Every execution of a seed must reproduce every counter of that
    /// seed's first execution in this run, and of any earlier run of the
    /// same binary (recorded under `out/counters/`).
    fn check_determinism(&mut self, kind: Kind, seeds: &[u64], execs: &[Exec]) {
        for (k, e) in execs.iter().enumerate() {
            let first = execs.iter().find(|f| f.seed == e.seed).map(|f| &f.counts);
            if first.is_some_and(|f| !std::ptr::eq(f, &e.counts)) {
                self.check(first == Some(&e.counts), || {
                    format!(
                        "execution {} of seed {:#x} changed its counters",
                        k + 1,
                        seeds[e.seed]
                    )
                });
            }
        }
        for (i, &seed) in seeds.iter().enumerate() {
            let Some(e) = execs.iter().find(|e| e.seed == i) else {
                continue;
            };
            match record_counters(kind, seed, &e.counts) {
                Ok(None) => {}
                Ok(Some(earlier)) => self.check(earlier == format!("{:?}", e.counts), || {
                    format!("seed {seed:#x} changed its counters since an earlier run")
                }),
                Err(err) => self.check(false, || format!("counter record: {err}")),
            }
        }
    }

    /// The core workloads' decisions must match the committed digest.
    fn check_digest(&mut self, kind: Kind, core: &Counts) {
        let digest = workloads::fold_digests(&core.digests);
        self.check(digest == kind.golden_digest(), || {
            format!(
                "decision digest of {} (core workloads) is {digest:#018x}, committed {:#018x}",
                kind.name(),
                kind.golden_digest()
            )
        });
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Stores this seed's counters for later runs of the same binary, or
/// returns the ones an earlier run stored. The binary is identified by its
/// size and modification time, so a rebuilt program starts a new record.
fn record_counters(kind: Kind, seed: u64, counts: &Counts) -> std::io::Result<Option<String>> {
    let exe = std::fs::metadata(std::env::current_exe()?)?;
    let mtime = exe
        .modified()?
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = out_dir().join("counters");
    let path = dir.join(format!(
        "{}-{seed:016x}-{}-{mtime}.txt",
        kind.name(),
        exe.len()
    ));
    if let Ok(earlier) = std::fs::read_to_string(&path) {
        return Ok(Some(earlier));
    }
    std::fs::create_dir_all(&dir)?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{counts:?}"))?;
    std::fs::rename(tmp, path)?;
    Ok(None)
}

/// Counters of the first execution of every core seed.
fn core_counts(kind: Kind, execs: &[Exec]) -> Counts {
    total(&execs[..kind.core_seeds()], |c: &mut Counts, e| {
        c.absorb(&e.counts)
    })
}

fn total<T: Default>(execs: &[Exec], f: impl Fn(&mut T, &Exec)) -> T {
    let mut acc = T::default();
    for e in execs {
        f(&mut acc, e);
    }
    acc
}

/// End-to-end run: set-up; a pass over the core workloads; the workload
/// derived from the run's seed, once; then further passes over the core
/// while the next one fits in the time, [`MIN_PASSES`] at least.
fn end_to_end(args: &Args) -> Result<(Report, Verdict), String> {
    let kind = args.kind;
    let seeds = kind.seeds(args.seed);
    let core = kind.core_seeds();
    let (setup_s, _, workloads) = setup(kind, &seeds);
    let tracer = Tracer::new(false);
    let mut execs: Vec<Exec> = Vec::new();
    let mut run = |seed: usize| {
        let e = Execution::run(kind, &workloads[seed], &tracer, false);
        execs.push(Exec {
            seed,
            timings: e.timings,
            counts: e.counts,
        });
    };
    let started = trace::now();
    let mut pass_s = Vec::new();
    let mut core_rss_mb = f64::NAN;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if pass_s.len() >= MIN_PASSES && elapsed + median(&pass_s) > args.seconds {
            break;
        }
        let pass = trace::now();
        (0..core).for_each(&mut run);
        pass_s.push(pass.elapsed().as_secs_f64());
        if pass_s.len() == 1 {
            core_rss_mb = peak_rss_mb();
            run(core);
        }
    }
    let passes = pass_s.len();
    // Deterministic figures from the first execution of every seed.
    let counts: Counts = total(&execs[..seeds.len()], |c: &mut Counts, e| {
        c.absorb(&e.counts)
    });
    let mut verdict = Verdict::new(&execs);
    verdict.check_determinism(kind, &seeds, &execs);
    verdict.check_digest(kind, &core_counts(kind, &execs));
    // Wall clock: every call of a core workload is timed as the median of
    // its identical calls over the passes, and is pooled once per pass.
    let mut timings = Timings::default();
    for (seed, &value) in seeds.iter().enumerate() {
        let reps: Vec<&Timings> = execs
            .iter()
            .filter(|e| e.seed == seed)
            .map(|e| &e.timings)
            .collect();
        match Timings::median_of(&reps) {
            Some(m) => reps.iter().for_each(|_| timings.absorb(&m)),
            None => {
                verdict.check(false, || {
                    format!("seed {value:#x} made different calls across passes")
                });
                reps.iter().for_each(|t| timings.absorb(t));
            }
        }
    }
    let verdicts: usize = execs.iter().map(|e| e.counts.verdicts).sum();
    let displaced: usize = execs.iter().map(|e| e.counts.displaced).sum();

    let mut r = Report::default();
    r.push("setup_s", setup_s, "s");
    r.push(
        "decisions_per_s",
        verdicts as f64 / (timings.busy_ms / 1e3),
        "1/s",
    );
    for (name, p) in [("admit_ms_p50", 50.0), ("admit_ms_p90", 90.0)] {
        let pct = percentile(&timings.admit_ms, p).map_err(|e| format!("{name}: {e:?}"))?;
        r.add_pct(name, pct, "ms");
    }
    r.push(
        "admitted_frac",
        ratio(counts.admitted_submissions, counts.submissions),
        "ratio",
    );
    r.push("objective", counts.objective(), "lambda");
    r.push("peak_rss_mb", core_rss_mb, "MiB");

    // Workload-specific figures: printed, not part of the JSON result.
    let mut extra = Report::default();
    extra.add_pct_or_extra("reject_ms_p50", &timings.reject_ms, 50.0, "ms");
    extra.add_pct_or_extra("reject_ms_p90", &timings.reject_ms, 90.0, "ms");
    if displaced > 0 {
        extra.push(
            "storm_ms_per_query",
            timings.recover_ms / displaced as f64,
            "ms",
        );
        extra.push(
            "degraded_frac",
            ratio(counts.degraded, counts.displaced),
            "ratio",
        );
    }
    extra.push(
        "unproven_frac",
        ratio(counts.unproven, counts.verdicts),
        "ratio",
    );
    extra.push(
        "failed_frac",
        ratio(verdict.failed, verdict.attempted),
        "ratio",
    );
    extra.push("passes over the core", passes as f64, "count");
    for (k, e) in execs.iter().enumerate() {
        extra.push(
            &format!("execution {} (seed {:#x}) busy", k + 1, seeds[e.seed]),
            e.timings.busy_ms / 1e3,
            "s",
        );
    }
    extra.push("engine_unbounded", counts.engine_unbounded as f64, "count");
    r.extra = extra.metrics.into_iter().chain(extra.extra).collect();
    Ok((r, verdict))
}

/// Traced run: set-up, one untraced execution of the default seed (the
/// overhead baseline), one traced execution of every seed, then the layer
/// replay of the default seed's fresh solver rounds.
fn traced(args: &Args) -> Result<(Report, Verdict), String> {
    let kind = args.kind;
    let seeds = kind.seeds(args.seed);
    let (_, generate_ms, workloads) = setup(kind, &seeds);
    let untraced = Tracer::new(false);
    let plain = Execution::run(kind, &workloads[0], &untraced, false);
    let tracer = Tracer::new(true);
    let mut snapshots = Vec::new();
    let mut execs = Vec::new();
    for (seed, w) in workloads.iter().enumerate() {
        let e = Execution::run(kind, w, &tracer, seed == 0);
        if seed == 0 {
            snapshots = e.snapshots;
        }
        execs.push(Exec {
            seed,
            timings: e.timings,
            counts: e.counts,
        });
    }
    let baseline_ms = plain.timings.busy_ms;
    let traced_ms = execs[0].timings.busy_ms;
    execs.push(Exec {
        seed: 0,
        timings: plain.timings,
        counts: plain.counts,
    });
    let mut verdict = Verdict::new(&execs);
    verdict.check_determinism(kind, &seeds, &execs);
    verdict.check_digest(kind, &core_counts(kind, &execs));
    // Reject latencies pool the untraced baseline too: rejections are the
    // scarce sample, and a p90 needs 100 of them.
    let rejects: Vec<f64> = execs
        .iter()
        .flat_map(|e| e.timings.reject_ms.clone())
        .collect();
    let execs = &execs[..seeds.len()];

    let replay = replay::replay(snapshots, &tracer);
    let spans = tracer.spans();
    let by_name = self_time_by_name(&spans);
    let self_ms = |name: &str| by_name.get(name).map_or(0.0, |&(_, ms)| ms);
    let out = out_dir().join(format!("spans-{}-{}.jsonl", kind.name(), args.seed));
    if let Err(e) = tracer.write_jsonl(&out) {
        return Err(format!("writing {}: {e}", out.display()));
    }

    let c: Counts = total(execs, |c: &mut Counts, e| c.absorb(&e.counts));
    let t: Timings = total(execs, |t: &mut Timings, e| t.absorb(&e.timings));
    // A p50 with too few samples on this workload reads 0.
    let p50 = |samples: &[f64]| percentile(samples, 50.0).map_or(0.0, |p| p.value);

    let mut r = Report::default();
    r.push("workload.generate_ms", generate_ms, "ms");
    r.push("core.reuse_ms_p50", p50(&t.reuse_ms), "ms");
    r.push("core.retry_ms_p50", p50(&t.retry_ms), "ms");
    r.push("core.remove_query_ms_p50", p50(&t.remove_ms), "ms");
    r.push("core.admission.pump_ms_p50", p50(&t.pump_ms), "ms");
    r.push("core.admission.drain_ms", t.drain_ms, "ms");
    r.push("core.adapt_ms", t.adapt_ms, "ms");
    r.push("core.recover_ms", t.recover_ms, "ms");
    r.push("core.reject_ms_p50", p50(&rejects), "ms");
    r.push(
        "core.reject_ms_p90",
        percentile(&rejects, 90.0).map_or(0.0, |p| p.value),
        "ms",
    );
    r.push(
        "core.storm_ms_per_query",
        if c.displaced == 0 {
            0.0
        } else {
            t.recover_ms / c.displaced as f64
        },
        "ms",
    );
    r.push(
        "core.degraded_frac",
        ratio(c.degraded, c.displaced),
        "ratio",
    );
    r.push(
        "core.reject_time_share",
        if t.solver_ms > 0.0 {
            t.reject_solver_ms / t.solver_ms
        } else {
            0.0
        },
        "ratio",
    );
    r.push(
        "core.budget_stopped_rejects",
        c.budget_stopped_rejects as f64,
        "count",
    );
    r.push("core.reused_existing", c.reused_existing as f64, "count");
    r.push(
        "core.incremental_rounds",
        c.incremental_rounds as f64,
        "count",
    );
    r.push(
        "core.model.vars_mean",
        ratio(c.model_vars_sum, c.solver_rounds),
        "count",
    );
    r.push(
        "core.model.cons_mean",
        ratio(c.model_cons_sum, c.solver_rounds),
        "count",
    );
    r.push("core.compactions", c.compactions as f64, "count");
    r.push("core.parked", c.parked as f64, "count");
    r.push("core.resumed", c.resumed as f64, "count");
    r.push("core.model.build_ms", self_ms("core.model.build"), "ms");
    r.push(
        "core.model.warm_start_ms",
        self_ms("core.model.warm_start"),
        "ms",
    );
    r.push("core.model.causal_ms", self_ms("core.model.causal"), "ms");
    r.push("core.model.decode_ms", self_ms("core.model.decode"), "ms");
    r.push("milp.solver_rounds", c.solver_rounds as f64, "count");
    r.push("milp.nodes", c.nodes as f64, "count");
    r.push(
        "milp.nodes_per_round",
        ratio(c.nodes, c.solver_rounds),
        "count",
    );
    r.push(
        "milp.nodes_per_reject",
        ratio(c.nodes_reject, c.reject_rounds),
        "count",
    );
    r.push(
        "milp.nodes_per_admit",
        ratio(c.nodes_admit, c.admit_rounds),
        "count",
    );
    r.push(
        "milp.proved_frac",
        ratio(c.proved_rounds, c.solver_rounds),
        "ratio",
    );
    r.push("milp.unproven_frac", ratio(c.unproven, c.verdicts), "ratio");
    r.push("milp.cache_rebuilds", c.cache_rebuilds as f64, "count");
    r.push(
        "milp.cache_patch_rate",
        ratio(c.cache_patches, c.cache_patches + c.cache_rebuilds),
        "ratio",
    );
    r.push("milp.solve_ms", self_ms("milp.solve"), "ms");
    r.push("lp.iterations", c.lp_iterations as f64, "count");
    r.push("lp.pivots_phase1", c.pivots_phase1 as f64, "count");
    r.push("lp.pivots_primal", c.pivots_primal as f64, "count");
    r.push("lp.pivots_dual", c.pivots_dual as f64, "count");
    r.push(
        "lp.iters_per_node",
        ratio(c.lp_iterations, c.nodes),
        "count",
    );
    r.push("lp.lower_ms", self_ms("lp.lower"), "ms");
    r.push("lp.root_solve_ms", self_ms("lp.root_solve"), "ms");
    r.push("dsps.validate_ms", t.validate_ms, "ms");
    r.push("dsps.engine_ms", t.engine_ms, "ms");
    r.push("dsps.engine_backlog", c.engine_backlog(), "rate");
    r.push("dsps.engine_unbounded", c.engine_unbounded as f64, "count");
    r.push("replay.rounds", replay.rounds as f64, "count");
    r.push("replay.nodes", replay.nodes as f64, "count");
    r.push("replay.planner_nodes", replay.planner_nodes as f64, "count");
    r.push("replay.lp_iterations", replay.lp_iterations as f64, "count");
    r.push(
        "replay.planner_lp_iterations",
        replay.planner_lp_iterations as f64,
        "count",
    );
    r.push(
        "replay.root_iterations",
        replay.root_iterations as f64,
        "count",
    );
    r.push("replay.disagreements", replay.disagreements as f64, "count");
    r.push(
        "trace.overhead_frac",
        (traced_ms - baseline_ms) / baseline_ms,
        "ratio",
    );
    r.extra.push(Metric {
        name: format!("spans written to {}", out.display()),
        value: spans.len() as f64,
        unit: "spans",
        n: None,
    });
    Ok((r, verdict))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let (report, verdict) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = verdict.failed == 0;
    println!(
        "{} seed {} ({}):",
        args.kind.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" }
    );
    report.print();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        verdict.failed,
        report.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
