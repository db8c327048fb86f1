//! The KATO benchmark.
//!
//! ```text
//! cargo run --release --manifest-path kato_benchmark/Cargo.toml -- \
//!     --workload <bo_nominal|bo_yield|serve_bank> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client thread, closed loop. With `--trace 0` the run
//! repeats passes over a panel of inputs that is the same in every run,
//! each pass followed by inputs generated from `--seed`, until the time is
//! up; the last stdout line holds the end-to-end metrics, taken on the
//! panel with no timer inside the program's loops;
//! with `--trace 1` it holds the per-layer split, taken by replaying the
//! untraced operations from public calls with a timer around each layer.
//! The line before it records the machine, thread count, commit, seed and
//! sample counts. Every operation's output is checked; a failed check
//! counts in `failed`.

mod bo;
mod calibration;
mod inputs;
mod replay;
mod report;
mod serve;
mod timed;

use kato::RunHistory;
use kato_circuits::{SizingProblem, SpecKind};
use kato_serve::Json;
use replay::{CoreLayers, CoreTrace};
use report::{median, Metrics, PanelTimes, Reading, Stopwatch};
use timed::EvalCounters;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub samples: Vec<(String, Json)>,
}

impl Outcome {
    pub fn samples(&mut self, name: &str, n: usize) {
        self.samples_f(name, n as f64);
    }

    pub fn samples_f(&mut self, name: &str, v: f64) {
        self.samples.push((name.to_string(), Json::Num(v)));
    }
}

/// Runs `setup` `reps` times; returns the median set-up reading's CPU
/// seconds at the reference speed (`setup_s`), its raw CPU seconds, and
/// the last result.
pub fn setup_median<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, f64, T) {
    let mut readings = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let watch = Stopwatch::start();
        last = Some(setup());
        readings.push(watch.read());
    }
    let median_s =
        |field: fn(&Reading) -> f64| median(&readings.iter().map(field).collect::<Vec<_>>()) / 1e3;
    (
        median_s(|r| r.cpu_ref_ms),
        median_s(|r| r.cpu_ms),
        last.expect("at least one set-up"),
    )
}

/// Output checks of one sizing run: full budget, no NaN score, and the
/// best design (the first design when none is feasible) re-simulates to
/// its recorded metrics bit for bit.
pub fn check_run(problem: &dyn SizingProblem, history: &RunHistory, budget: usize) -> bool {
    if history.len() != budget {
        eprintln!(
            "{}: {} records for budget {budget}",
            history.problem,
            history.len()
        );
        return false;
    }
    if history.evals.iter().any(|e| e.score.is_nan()) {
        eprintln!("{}: NaN score", history.problem);
        return false;
    }
    let rec = history.best().unwrap_or(&history.evals[0]);
    let again = problem.evaluate(&rec.x);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(again.values()) != bits(rec.metrics.values()) {
        eprintln!("{}: best design re-simulates differently", history.problem);
        return false;
    }
    true
}

/// Design quality over the first pass of the panel: jobs from
/// [`inputs::PANEL_SEED`] that every run sends, whatever its seed.
/// The quality of a handful of seeded runs varies between seeds by far
/// more than any bound could allow; on a fixed panel it moves only when
/// the program's trajectories do.
#[derive(Debug, Default)]
pub struct Quality {
    objectives: Vec<f64>,
    sims_to_feasible: Vec<f64>,
    runs: usize,
}

impl Quality {
    pub fn add(&mut self, problem: &dyn SizingProblem, history: &RunHistory, budget: usize) {
        let objective = history
            .best()
            .filter(|b| b.feasible)
            .and_then(|b| objective_value(problem, b.metrics.values()));
        let first = history.evals.iter().position(|e| e.feasible).map(|i| i + 1);
        self.record(objective, first, budget);
    }

    /// One run's best feasible objective value and first feasible
    /// simulation; a run that never turns feasible counts `budget + 1`.
    pub fn record(
        &mut self,
        objective: Option<f64>,
        sims_to_feasible: Option<usize>,
        budget: usize,
    ) {
        self.runs += 1;
        self.objectives.extend(objective);
        self.sims_to_feasible
            .push(sims_to_feasible.unwrap_or(budget + 1) as f64);
    }

    pub fn runs(&self) -> usize {
        self.runs
    }

    pub fn put(&self, m: &mut Metrics) {
        m.put("best_objective_p50", median(&self.objectives), "uA");
        m.put(
            "feasible_rate",
            self.objectives.len() as f64 / self.runs.max(1) as f64,
            "ratio",
        );
        m.put(
            "sims_to_feasible_p50",
            median(&self.sims_to_feasible),
            "sims",
        );
    }
}

/// The value of the problem's objective metric.
pub fn objective_value(problem: &dyn SizingProblem, values: &[f64]) -> Option<f64> {
    problem
        .specs()
        .iter()
        .find(|s| matches!(s.kind, SpecKind::Objective(_)))
        .map(|s| values[s.metric])
}

/// `run_cpu_ms`: the process CPU ms of a panel run at the reference
/// speed (see [`Reading`]), as the median over passes, averaged over the
/// panel's runs. CPU time, not wall time, because on a shared two-core
/// machine the CPU other tenants take moved the wall time of the same
/// seeded run by half between processes; scaled by the calibration
/// because their load also slowed the CPU itself by up to 2× for minutes
/// at a time. The raw CPU and wall times taken the same way and the
/// medians of the runs seeded by the workload seed go to the context line.
pub fn put_panel_latency(out: &mut Outcome, panel: &PanelTimes, seeded: &[Reading]) {
    out.metrics
        .put("run_cpu_ms", panel.mean_of_medians(|r| r.cpu_ref_ms), "ms");
    out.samples_f("run_cpu_raw_ms", panel.mean_of_medians(|r| r.cpu_ms));
    out.samples_f("run_ms", panel.mean_of_medians(|r| r.wall_ms));
    let of = |field: fn(&Reading) -> f64| median(&seeded.iter().map(field).collect::<Vec<_>>());
    out.samples_f("seeded_run_cpu_ms_p50", of(|r| r.cpu_ref_ms));
    out.samples_f("seeded_run_ms_p50", of(|r| r.wall_ms));
}

/// The core-loop layers, per replayed run, whole run and first window.
pub fn put_core_layers(m: &mut Metrics, t: &CoreTrace, runs: usize) {
    let per = |v: f64| v / runs.max(1) as f64;
    for (prefix, l) in [("core.", &t.whole), ("core.first40.", &t.first)] {
        let layers: [(&str, f64); 8] = [
            ("init_sim_ms", l.init_sim_ms),
            ("fit_ms", l.fit_ms),
            ("transfer_fit_ms", l.transfer_fit_ms),
            ("propose_ms", l.propose_ms),
            ("simulate_ms", l.simulate_ms),
            ("refit_ms", l.refit_ms),
            ("other_ms", l.other_ms()),
            ("wall_ms", l.wall_ms),
        ];
        for (name, v) in layers {
            m.put(&format!("{prefix}{name}"), per(v), "ms");
        }
    }
    let w: &CoreLayers = &t.whole;
    m.put("core.refit_errors", per(w.refit_errors as f64), "count");
    m.put("core.iterations", per(w.iterations as f64), "count");
    m.put("core.kat_share", ratio(w.kat_slots, w.slots), "ratio");
    m.put(
        "core.kat_improve_ratio",
        ratio(w.kat_improved, w.kat_proposals),
        "ratio",
    );
}

/// The simulator layer, per replayed run. `wall_ms` is the wall time of
/// the population evaluations that enclose the simulator calls.
pub fn put_circuit_layers(m: &mut Metrics, c: &EvalCounters, wall_ms: f64, runs: usize) {
    let per = |v: f64| v / runs.max(1) as f64;
    m.put("circuits.eval_calls", per(c.calls() as f64), "count");
    m.put(
        "circuits.eval_candidates",
        per(c.candidates() as f64),
        "count",
    );
    m.put("circuits.eval_busy_ms", per(c.busy_ms()), "ms");
    m.put("circuits.eval_wall_ms", per(wall_ms), "ms");
    m.put("par.eval_parallelism", c.busy_ms() / wall_ms, "ratio");
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The commit of the checkout when it is a git work tree, read from
/// `.git` without leaving the current directory.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Caps `KATO_THREADS` at the core count (the core count when unset) so
/// the run never oversubscribes; returns (cores, threads).
fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let asked = std::env::var("KATO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(nproc);
    let threads = asked.min(nproc);
    // Set before any worker thread exists; kato_par reads it per call.
    std::env::set_var("KATO_THREADS", threads.to_string());
    (nproc, threads)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kato_benchmark: {e}");
            std::process::exit(2);
        }
    };
    // kato_serve reads the failpoints process-wide on first use: an armed
    // one would measure a different program.
    if std::env::var_os("KATO_FAILPOINTS").is_some() {
        eprintln!("kato_benchmark: refusing to run with KATO_FAILPOINTS set");
        std::process::exit(2);
    }
    let (nproc, threads) = pin_threads();
    let mut outcome = match args.workload.as_str() {
        "bo_nominal" => bo::run(bo::BoKind::Nominal, &args),
        "bo_yield" => bo::run(bo::BoKind::Yield, &args),
        "serve_bank" => serve::run(&args),
        other => {
            eprintln!(
                "kato_benchmark: unknown workload '{other}' (bo_nominal, bo_yield, serve_bank)"
            );
            std::process::exit(2);
        }
    };
    if args.trace {
        // Per-layer only: it swings by a quarter between seeds with the
        // threads' allocator arenas, too much for an end-to-end bound.
        let rss = report::peak_rss_mb();
        outcome.metrics.put("process.peak_rss_mb", rss, "MB");
    }
    let bad = outcome.metrics.non_finite();
    if !bad.is_empty() {
        eprintln!("kato_benchmark: non-finite metrics {bad:?}");
        std::process::exit(1);
    }
    let mut context = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("kato_threads", Json::Num(threads as f64)),
        ("git_commit", Json::str(git_commit())),
    ];
    let samples = std::mem::take(&mut outcome.samples);
    context.push(("samples", Json::Obj(samples)));
    println!("{}", Json::obj(context));
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics.to_json()),
    ]);
    println!("{result}");
}
