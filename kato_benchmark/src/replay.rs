//! Traced replay of `Kato::run` / `Kato::resume`, rebuilt from the public
//! calls the optimiser makes, with a timer around each layer.
//!
//! The replay must record the same `RunHistory` as the real call, bit for
//! bit; the benchmark checks that on every traced operation, because layer
//! times of a different trajectory would describe a different program. The
//! refit `Err`s that `Kato` drops are counted here, not handled.

use kato::{
    fit_source_gps, metric_columns, BoSettings, MaceProposer, MaceVariant, MetricModels, Mode,
    ModelConfig, RunHistory, SourceData, StlWeights,
};
use kato_circuits::{random_design, Goal, Metrics, SizingProblem, Spec, SpecKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Simulation count at which the first-window snapshot of a run is taken.
pub const FIRST_WINDOW: usize = 40;

/// Layer times of the core loop, in ms, plus its counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreLayers {
    pub init_sim_ms: f64,
    pub fit_ms: f64,
    pub transfer_fit_ms: f64,
    pub propose_ms: f64,
    pub simulate_ms: f64,
    pub refit_ms: f64,
    pub wall_ms: f64,
    pub refit_errors: u64,
    pub iterations: u64,
    /// Batch slots handed to the KAT-GP proposer, and to all proposers.
    pub kat_slots: u64,
    pub slots: u64,
    /// KAT-GP proposals simulated, and those that beat the incumbent.
    pub kat_proposals: u64,
    pub kat_improved: u64,
}

impl CoreLayers {
    /// Wall time not covered by a named layer.
    pub fn other_ms(&self) -> f64 {
        self.wall_ms
            - (self.init_sim_ms
                + self.fit_ms
                + self.transfer_fit_ms
                + self.propose_ms
                + self.simulate_ms
                + self.refit_ms)
    }

    pub fn add(&mut self, o: &CoreLayers) {
        self.init_sim_ms += o.init_sim_ms;
        self.fit_ms += o.fit_ms;
        self.transfer_fit_ms += o.transfer_fit_ms;
        self.propose_ms += o.propose_ms;
        self.simulate_ms += o.simulate_ms;
        self.refit_ms += o.refit_ms;
        self.wall_ms += o.wall_ms;
        self.refit_errors += o.refit_errors;
        self.iterations += o.iterations;
        self.kat_slots += o.kat_slots;
        self.slots += o.slots;
        self.kat_proposals += o.kat_proposals;
        self.kat_improved += o.kat_improved;
    }
}

/// Layers of one replayed run: the whole run, and the part up to the
/// simulation that brought the history to [`FIRST_WINDOW`] records.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreTrace {
    pub whole: CoreLayers,
    pub first: CoreLayers,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Replays `Kato::new(settings)[.with_source(source)][.with_label(label)]`
/// in constrained mode: `.run(problem)` when `probe` is `None`, otherwise
/// `.resume(problem, probe)`. No run budget is attached.
pub fn replay(
    problem: &dyn SizingProblem,
    settings: &BoSettings,
    source: Option<&SourceData>,
    label: &str,
    probe: Option<RunHistory>,
) -> (RunHistory, CoreTrace) {
    let t0 = Instant::now();
    let mut layers = CoreLayers::default();
    let mode = Mode::Constrained;
    let s = settings;
    // `Kato::resume` seeds its own stream for the random-search fallback,
    // which the benchmark's workloads never reach.
    let mut history = match probe {
        Some(h) => h,
        None => {
            let mut history = RunHistory::new(&problem.name(), label, s.seed);
            let mut rng = StdRng::seed_from_u64(s.seed);
            let n_init = s.n_init.min(s.budget);
            if n_init > 0 {
                let t = Instant::now();
                let designs: Vec<Vec<f64>> = (0..n_init)
                    .map(|_| random_design(problem.dim(), &mut rng))
                    .collect();
                history.evaluate_and_push_batch(problem, &mode, designs);
                layers.init_sim_ms = ms(t);
            }
            history
        }
    };
    let mut first = None;
    let snapshot = |layers: &CoreLayers, first: &mut Option<CoreLayers>, len: usize| {
        if first.is_none() && len >= FIRST_WINDOW {
            *first = Some(CoreLayers {
                wall_ms: ms(t0),
                ..*layers
            });
        }
    };
    snapshot(&layers, &mut first, history.len());
    if history.len() >= s.budget {
        layers.wall_ms = ms(t0);
        let whole = layers;
        return (
            history,
            CoreTrace {
                whole,
                first: first.unwrap_or(whole),
            },
        );
    }
    history.method = label.to_string();
    let dim = problem.dim();
    let model_cfg = ModelConfig {
        gp: s.gp.clone(),
        kat: s.kat.clone(),
        neuk: true,
        ..ModelConfig::default()
    };
    let specs = problem.specs().to_vec();

    let t = Instant::now();
    let (xs, cols) = training_view(&history, &specs);
    let fitted = MetricModels::fit_gp(dim, &xs, &cols, &specs, &model_cfg);
    layers.fit_ms = ms(t);
    let Ok(mut neuk_models) = fitted else {
        // `Kato` falls back to random search here; the benchmark's
        // workloads never reach it, so the replay reports a mismatch.
        return (
            RunHistory::new("fit_gp failed", label, s.seed),
            CoreTrace::default(),
        );
    };

    let t = Instant::now();
    let mut kat_models = source.and_then(|src| {
        let gps = fit_source_gps(src.dim, &src.xs, &src.columns, &model_cfg).ok()?;
        MetricModels::fit_kat(dim, &gps, &xs, &cols, &specs, &model_cfg).ok()
    });
    layers.transfer_fit_ms = ms(t);
    let n_proposers = 1 + usize::from(kat_models.is_some());
    let mut weights = StlWeights::new(n_proposers, s.n_init.max(1) as f64);
    let proposer = MaceProposer::new(MaceVariant::Modified);
    let refit_cfg = ModelConfig {
        gp: kato_gp::GpConfig {
            train_iters: s.refit_iters,
            ..s.gp.clone()
        },
        kat: kato_gp::KatConfig {
            train_iters: s.refit_iters,
            ..s.kat.clone()
        },
        neuk: true,
        ..ModelConfig::default()
    };

    let mut iteration: u64 = 0;
    while history.len() < s.budget {
        iteration += 1;
        let t = Instant::now();
        let incumbent = acquisition_incumbent(&history, &specs);
        let warm = warm_starts(&history, 5);
        let n_take = s.batch.min(s.budget - history.len()).max(1);
        let counts = weights.split_batch(n_take);
        let tasks: Vec<(usize, usize)> = counts.iter().copied().enumerate().collect();
        let batches: Vec<Vec<Vec<f64>>> = kato_par::par_map(&tasks, |&(i, count)| {
            if count == 0 {
                return Vec::new();
            }
            let models = if i == 0 {
                &neuk_models
            } else {
                kat_models.as_ref().expect("kat models present")
            };
            let front =
                proposer.pareto_front(models, dim, incumbent, s, iteration * 7 + i as u64, &warm);
            let mut prop_rng =
                StdRng::seed_from_u64(s.seed.wrapping_add(900 + iteration * 3 + i as u64));
            MaceProposer::sample_batch(&front, count, &mut prop_rng)
        });
        layers.propose_ms += ms(t);
        layers.slots += n_take as u64;
        layers.kat_slots += counts.get(1).copied().unwrap_or(0) as u64;

        let t = Instant::now();
        let incumbent_before = history.incumbent();
        for (i, batch) in batches.iter().enumerate() {
            let mut improvements = 0;
            let take = batch.len().min(s.budget.saturating_sub(history.len()));
            if take > 0 {
                let scores =
                    history.evaluate_and_push_batch(problem, &mode, batch[..take].to_vec());
                improvements = scores
                    .iter()
                    .filter(|&&sc| sc > incumbent_before && sc > f64::NEG_INFINITY)
                    .count();
                if i == 1 {
                    layers.kat_proposals += take as u64;
                    layers.kat_improved += improvements as u64;
                }
            }
            weights.reward(i, improvements);
        }
        layers.simulate_ms += ms(t);
        layers.iterations = iteration;
        snapshot(&layers, &mut first, history.len());

        let t = Instant::now();
        let (xs, cols) = training_view(&history, &specs);
        if neuk_models.update(&xs, &cols, &refit_cfg).is_err() {
            layers.refit_errors += 1;
        }
        if let Some(kat) = kat_models.as_mut() {
            if kat.update(&xs, &cols, &refit_cfg).is_err() {
                layers.refit_errors += 1;
            }
        }
        layers.refit_ms += ms(t);
    }
    layers.wall_ms = ms(t0);
    let whole = layers;
    (
        history,
        CoreTrace {
            whole,
            first: first.unwrap_or(whole),
        },
    )
}

/// Constrained-mode training data: raw metric columns with non-finite
/// entries replaced by the worst finite value in the spec direction.
fn training_view(history: &RunHistory, specs: &[Spec]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = history.evals.iter().map(|e| e.x.clone()).collect();
    let refs: Vec<&Metrics> = history.evals.iter().map(|e| &e.metrics).collect();
    let mut cols = metric_columns(&refs);
    for (j, col) in cols.iter_mut().enumerate() {
        if col.iter().all(|v| v.is_finite()) {
            continue;
        }
        let larger_is_worse = specs.iter().any(|s| {
            s.metric == j
                && matches!(
                    s.kind,
                    SpecKind::Objective(Goal::Minimize) | SpecKind::LessEq(_)
                )
        });
        let finite = col.iter().copied().filter(|v| v.is_finite());
        let fill = if larger_is_worse {
            finite.fold(f64::NEG_INFINITY, f64::max)
        } else {
            finite.fold(f64::INFINITY, f64::min)
        };
        let fill = if fill.is_finite() { fill } else { 0.0 };
        for v in col.iter_mut() {
            if !v.is_finite() {
                *v = fill;
            }
        }
    }
    (xs, cols)
}

/// The best score, or before anything is feasible the best soft score
/// `objective − 10·violation`.
fn acquisition_incumbent(history: &RunHistory, specs: &[Spec]) -> f64 {
    let inc = history.incumbent();
    if inc > f64::NEG_INFINITY {
        return inc;
    }
    history
        .evals
        .iter()
        .map(|e| e.metrics.objective(specs).unwrap_or(0.0) - 10.0 * e.metrics.violation(specs))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Top-`k` designs by score, infeasible ones ranked at `-1e6`.
fn warm_starts(history: &RunHistory, k: usize) -> Vec<Vec<f64>> {
    let mut scored: Vec<(f64, &Vec<f64>)> = history
        .evals
        .iter()
        .map(|e| {
            (
                if e.score > f64::NEG_INFINITY {
                    e.score
                } else {
                    -1e6
                },
                &e.x,
            )
        })
        .collect();
    scored.sort_by(|a, b| kato_linalg::cmp_nan_worst(&b.0, &a.0));
    scored.iter().take(k).map(|(_, x)| (*x).clone()).collect()
}

/// Bitwise equality of two run histories (NaN equals NaN of the same bits).
pub fn same_history(a: &RunHistory, b: &RunHistory) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.problem == b.problem
        && a.method == b.method
        && a.seed == b.seed
        && a.evals.len() == b.evals.len()
        && a.evals.iter().zip(&b.evals).all(|(x, y)| {
            bits(&x.x) == bits(&y.x)
                && bits(x.metrics.values()) == bits(y.metrics.values())
                && x.feasible == y.feasible
                && x.score.to_bits() == y.score.to_bits()
        })
}
