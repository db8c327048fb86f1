//! The `bo_nominal` and `bo_yield` workloads: one client running seeded
//! jobs back to back, in passes over the panel. A `bo_nominal` job is a
//! cold `Kato::run` on each of two op-amps with one seed; a `bo_yield` job
//! is two `Kato::run`s on yield problems whose mismatch draws use the run
//! seed.

use crate::inputs::{run_seeds, PANEL_SEED};
use crate::replay::{replay, same_history, CoreTrace};
use crate::report::{PanelTimes, Reading, Stopwatch};
use crate::timed::{EvalCounters, TimedProblem};
use crate::{check_run, setup_median, Args, Outcome, Quality, SETUP_REPS};
use kato::{evaluate_batch_sharded, BoSettings, Kato, Mode, RunHistory};
use kato_circuits::{ScenarioRegistry, SizingProblem, YieldProblem, YieldSettings};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoKind {
    /// Surrogate-bound: budget-100 runs on two nominal op-amps.
    Nominal,
    /// Simulation-bound: budget-40 Monte-Carlo yield runs.
    Yield,
}

const NOMINAL_SCENARIOS: [&str; 2] = ["opamp2", "folded_cascode"];
const NOMINAL_BUDGET: usize = 100;
const YIELD_BUDGET: usize = 40;
const YIELD_SAMPLES: usize = 64;
const TECH: &str = "180nm";

impl BoKind {
    fn budget(self) -> usize {
        match self {
            BoKind::Nominal => NOMINAL_BUDGET,
            BoKind::Yield => YIELD_BUDGET,
        }
    }

    /// Jobs in the panel: seeds from [`PANEL_SEED`], the same in every
    /// run. Timing and quality are taken on the panel, because the cost
    /// and outcome of a run vary between seeds by far more than any bound
    /// could allow.
    fn panel_jobs(self) -> usize {
        match self {
            BoKind::Nominal => 8,
            BoKind::Yield => 24,
        }
    }
}

/// Job seeds: the panel's, then the workload seed's.
fn job_seeds(kind: BoKind, workload_seed: u64) -> Vec<u64> {
    let mut seeds = run_seeds(PANEL_SEED, kind.panel_jobs());
    seeds.extend(run_seeds(workload_seed, 4096));
    seeds
}

/// The opamp2 yield problem. Yield jobs draw mismatch with the run seed,
/// so each builds its own.
fn yield_problem(registry: &ScenarioRegistry, seed: u64, early_abort: bool) -> YieldProblem {
    let scenario = registry.get("opamp2").expect("opamp2 is registered");
    scenario
        .build_yield(
            TECH,
            None,
            YieldSettings {
                samples: YIELD_SAMPLES,
                threshold: scenario.yield_preset.threshold,
                seed,
                early_abort,
                corners: None,
            },
        )
        .expect("opamp2 yield problem builds at 180nm")
}

struct Fixture {
    kind: BoKind,
    registry: ScenarioRegistry,
    nominal: Vec<Box<dyn SizingProblem>>,
}

impl Fixture {
    /// Builds the registry and problems, and runs a short job so lazy
    /// set-up and first-touch costs are paid before timing. The job's seed
    /// is fixed, so set-up does the same work in every run.
    fn new(kind: BoKind) -> Self {
        let warm_seed = 1;
        let registry = ScenarioRegistry::standard();
        let nominal: Vec<Box<dyn SizingProblem>> = NOMINAL_SCENARIOS
            .iter()
            .map(|s| {
                registry
                    .build(s, Some(TECH), None)
                    .expect("scenario builds")
            })
            .collect();
        let fixture = Fixture {
            kind,
            registry,
            nominal,
        };
        fixture.for_each_problem(warm_seed, |p, seed| {
            let _ = Kato::new(BoSettings::quick(20, seed)).run(p, Mode::Constrained);
        });
        fixture
    }

    /// Calls `f` with each problem and run seed of the job with `seed`:
    /// both nominal op-amps with `seed`, or two yield runs, with `seed` and
    /// `seed + 1`, each on a problem drawn with its own seed. Two runs a
    /// job keep a job's wall less dependent on whether one yield run
    /// happens to reach the costly feasible region.
    fn for_each_problem(&self, seed: u64, mut f: impl FnMut(&dyn SizingProblem, u64)) {
        match self.kind {
            BoKind::Nominal => self.nominal.iter().for_each(|p| f(&**p, seed)),
            BoKind::Yield => {
                for s in [seed, seed.wrapping_add(1)] {
                    f(&yield_problem(&self.registry, s, true), s);
                }
            }
        }
    }
}

/// A finished untraced job. `histories` follow `for_each_problem` order.
struct Done {
    seed: u64,
    histories: Vec<RunHistory>,
    wall_ms: f64,
}

/// The untraced half of a traced run: jobs in order until `seconds` have
/// passed and at least one has finished.
fn run_jobs(fixture: &Fixture, seeds: &[u64], seconds: f64, out: &mut Outcome) -> Vec<Done> {
    let budget = fixture.kind.budget();
    let start = Instant::now();
    let mut done = Vec::new();
    for &seed in seeds {
        if !done.is_empty() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut job = Done {
            seed,
            histories: Vec::new(),
            wall_ms: 0.0,
        };
        fixture.for_each_problem(seed, |p, run_seed| {
            let (history, reading) = timed_run(p, budget, run_seed, out);
            job.wall_ms += reading.wall_ms;
            job.histories.push(history);
        });
        done.push(job);
    }
    done
}

pub fn run(kind: BoKind, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, setup_raw_s, fixture) = setup_median(SETUP_REPS, || Fixture::new(kind));
    let seeds = job_seeds(kind, args.seed);
    if args.trace {
        return traced(args, &fixture, &seeds, out);
    }
    let (panel, seeded) = seeds.split_at(kind.panel_jobs());
    let budget = kind.budget();
    let start = Instant::now();
    let mut times = PanelTimes::default();
    let mut first: Vec<RunHistory> = Vec::new();
    let mut seeded_ops = Vec::new();
    let mut seeded = seeded.iter();
    let mut passes = 0;
    // Passes over the panel, each followed by one job with a seed of the
    // workload's own, until the time is up; the first pass always ends.
    'passes: loop {
        let mut i = 0;
        for &seed in panel {
            if passes > 0 && start.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            fixture.for_each_problem(seed, |p, run_seed| {
                let (history, reading) = timed_run(p, budget, run_seed, &mut out);
                times.add(i, reading);
                if passes == 0 {
                    first.push(history);
                } else if !same_history(&history, &first[i]) {
                    out.failed += 1;
                    eprintln!(
                        "{} seed {run_seed} ran differently in pass {passes}",
                        p.name()
                    );
                }
                i += 1;
            });
        }
        passes += 1;
        let seed = *seeded
            .next()
            .expect("more seeded jobs than any run reaches");
        fixture.for_each_problem(seed, |p, run_seed| {
            seeded_ops.push(timed_run(p, budget, run_seed, &mut out).1);
        });
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut quality = Quality::default();
    let mut histories = first.iter();
    for &seed in panel {
        fixture.for_each_problem(seed, |p, _| {
            let h = histories.next().expect("one history per panel run");
            quality.add(p, h, budget);
        });
    }
    out.metrics.put("setup_s", setup_s, "s");
    crate::put_panel_latency(&mut out, &times, &seeded_ops);
    quality.put(&mut out.metrics);
    out.samples_f("setup_raw_s", setup_raw_s);
    out.samples("passes", passes);
    out.samples("seeded_runs", seeded_ops.len());
    out.samples("quality_runs", quality.runs());
    out
}

/// One checked, timed `Kato::run`.
fn timed_run(
    p: &dyn SizingProblem,
    budget: usize,
    seed: u64,
    out: &mut Outcome,
) -> (RunHistory, Reading) {
    let watch = Stopwatch::start();
    let history = Kato::new(BoSettings::quick(budget, seed)).run(p, Mode::Constrained);
    let reading = watch.read();
    out.attempted += 1;
    if !check_run(p, &history, budget) {
        out.failed += 1;
    }
    (history, reading)
}

/// Untraced jobs for half the time, then the same jobs replayed with a
/// timer around every layer.
fn traced(args: &Args, fixture: &Fixture, seeds: &[u64], mut out: Outcome) -> Outcome {
    let done = run_jobs(fixture, seeds, args.seconds / 2.0, &mut out);
    let counters = EvalCounters::default();
    let mut trace = CoreTrace::default();
    let mut runs = 0;
    for d in &done {
        let mut histories = d.histories.iter();
        fixture.for_each_problem(d.seed, |p, run_seed| {
            let settings = BoSettings::quick(fixture.kind.budget(), run_seed);
            let timed = TimedProblem::new(p, &counters);
            let (history, t) = replay(&timed, &settings, None, "KATO", None);
            trace.whole.add(&t.whole);
            trace.first.add(&t.first);
            runs += 1;
            out.attempted += 1;
            if !same_history(&history, histories.next().expect("one history per problem")) {
                out.failed += 1;
                eprintln!(
                    "traced replay of {} seed {run_seed} diverged from Kato::run",
                    p.name()
                );
            }
        });
    }
    let untraced_wall: f64 = done.iter().map(|d| d.wall_ms).sum();
    let abort_saving = match fixture.kind {
        BoKind::Yield => abort_saving(fixture, &done[0], &mut out),
        BoKind::Nominal => 0.0,
    };
    let m = &mut out.metrics;
    crate::put_core_layers(m, &trace, runs);
    let eval_wall = trace.whole.init_sim_ms + trace.whole.simulate_ms;
    crate::put_circuit_layers(m, &counters, eval_wall, runs);
    m.put("circuits.yield_abort_saving", abort_saving, "ratio");
    crate::serve::put_absent_serve_layers(m);
    let overhead = (trace.whole.wall_ms - untraced_wall) / runs as f64;
    m.put("trace.overhead_ms", overhead, "ms");
    out.samples("traced_runs", runs);
    out
}

/// Re-evaluates a yield run's recorded designs with early abort off and
/// on; returns off-time over on-time. Differing metrics fail the check.
fn abort_saving(fixture: &Fixture, done: &Done, out: &mut Outcome) -> f64 {
    let xs: Vec<Vec<f64>> = done.histories[0]
        .evals
        .iter()
        .map(|e| e.x.clone())
        .collect();
    let time = |early_abort: bool| {
        let p = yield_problem(&fixture.registry, done.seed, early_abort);
        let t = Instant::now();
        let ms = evaluate_batch_sharded(&p, &xs);
        (t.elapsed().as_secs_f64(), ms)
    };
    let (on_s, on) = time(true);
    let (off_s, off) = time(false);
    out.attempted += 1;
    let bits = |ms: &[kato_circuits::Metrics]| -> Vec<Vec<u64>> {
        ms.iter()
            .map(|m| m.values().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    if bits(&on) != bits(&off) {
        out.failed += 1;
        eprintln!("early abort changed yield metrics");
    }
    off_s / on_s
}
