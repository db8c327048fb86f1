//! Integration: the parallel runtime's determinism guarantee and batched
//! inference consistency, end to end through `Kato::run`.
//!
//! `kato_par` re-reads `KATO_THREADS` on every call, and all fan-outs in
//! the optimizer stack are order-preserving with per-work-item seeding, so
//! a seeded run must produce a bitwise-identical `RunHistory` no matter how
//! many worker threads are used. This is the property CI gates by running
//! the suite under both `KATO_THREADS=1` and `KATO_THREADS=4`.

use kato::{BoSettings, Kato, Mode, RunHistory, SourceData};
use kato_circuits::{Goal, Metrics, SizingProblem, Spec, SpecKind, VarSpec};

/// 2-D constrained toy: cheap enough to run the full loop many times.
struct Toy {
    vars: Vec<VarSpec>,
    specs: Vec<Spec>,
}

impl Toy {
    fn new() -> Self {
        Toy {
            vars: vec![VarSpec::lin("a", 0.0, 1.0), VarSpec::lin("b", 0.0, 1.0)],
            specs: vec![
                Spec {
                    metric: 0,
                    kind: SpecKind::Objective(Goal::Maximize),
                },
                Spec {
                    metric: 1,
                    kind: SpecKind::GreaterEq(0.4),
                },
            ],
        }
    }
}

impl SizingProblem for Toy {
    fn name(&self) -> String {
        "toy_parallel".into()
    }
    fn variables(&self) -> &[VarSpec] {
        &self.vars
    }
    fn metric_names(&self) -> &[&'static str] {
        &["obj", "con"]
    }
    fn specs(&self) -> &[Spec] {
        &self.specs
    }
    fn evaluate(&self, x: &[f64]) -> Metrics {
        let obj = 1.0 - (x[0] - 0.7).powi(2) - (x[1] - 0.3).powi(2);
        Metrics::new(vec![obj, x[0]])
    }
    fn expert_design(&self) -> Vec<f64> {
        vec![0.7, 0.3]
    }
}

/// Serialises the tests that mutate `KATO_THREADS` (tests in one binary run
/// concurrently and the variable is process-global).
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn assert_histories_identical(a: &RunHistory, b: &RunHistory) {
    assert_eq!(a.len(), b.len(), "trace lengths differ");
    for (i, (ea, eb)) in a.evals.iter().zip(&b.evals).enumerate() {
        assert_eq!(ea.x, eb.x, "design {i} differs");
        assert_eq!(
            ea.metrics.values(),
            eb.metrics.values(),
            "metrics {i} differ"
        );
        assert_eq!(ea.feasible, eb.feasible, "feasibility {i} differs");
        assert!(
            ea.score == eb.score
                || (ea.score == f64::NEG_INFINITY && eb.score == f64::NEG_INFINITY),
            "score {i} differs: {} vs {}",
            ea.score,
            eb.score
        );
    }
}

#[test]
fn run_history_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let toy = Toy::new();
    let run = || Kato::new(BoSettings::quick(26, 19)).run(&toy, Mode::Constrained);

    std::env::set_var("KATO_THREADS", "1");
    let serial = run();
    std::env::set_var("KATO_THREADS", "4");
    let parallel = run();
    std::env::remove_var("KATO_THREADS");

    assert_eq!(serial.len(), 26);
    assert_histories_identical(&serial, &parallel);
}

#[test]
fn incremental_refit_run_identical_across_thread_counts() {
    // Per-iteration model updates now go through the incremental path
    // (`update_incremental` → `Gp::append` / `KatGp::append`): frozen
    // scalers, rank-k Cholesky extension and a warm-start likelihood check
    // that sometimes skips retraining entirely. A longer run maximises the
    // number of appends taken, so this gate proves the incremental path —
    // including its refit fallbacks — is bitwise thread-count-invariant.
    let _guard = ENV_LOCK.lock().unwrap();
    let toy = Toy::new();
    let run = || Kato::new(BoSettings::quick(32, 11)).run(&toy, Mode::Constrained);

    std::env::set_var("KATO_THREADS", "1");
    let serial = run();
    std::env::set_var("KATO_THREADS", "4");
    let parallel = run();
    std::env::remove_var("KATO_THREADS");

    assert_eq!(serial.len(), 32);
    assert_histories_identical(&serial, &parallel);
}

#[test]
fn transfer_run_identical_across_thread_counts() {
    // The transfer stack adds parallel KAT-GP restarts and the concurrent
    // P1/P2 proposal fan-out; it must be thread-count-invariant too.
    let _guard = ENV_LOCK.lock().unwrap();
    let toy = Toy::new();
    let run = || {
        let source = SourceData::from_problem_random(&toy, 30, 3);
        Kato::new(BoSettings::quick(22, 7))
            .with_source(source)
            .run(&toy, Mode::Constrained)
    };

    std::env::set_var("KATO_THREADS", "1");
    let serial = run();
    std::env::set_var("KATO_THREADS", "4");
    let parallel = run();
    std::env::remove_var("KATO_THREADS");

    assert_eq!(serial.len(), 22);
    assert_histories_identical(&serial, &parallel);
}

#[test]
fn concurrent_runs_match_sequential_runs() {
    // Two callers fanning out on the shared kato_par pool at once (the
    // `katod --batch` pattern) must each get the history they would get
    // alone.
    let _guard = ENV_LOCK.lock().unwrap();
    let toy = Toy::new();
    let run = |seed: u64| Kato::new(BoSettings::quick(24, seed)).run(&toy, Mode::Constrained);

    std::env::set_var("KATO_THREADS", "3");
    let (first, second) = (run(5), run(13));
    let start = std::sync::Barrier::new(2);
    let (first_concurrent, second_concurrent) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            start.wait();
            run(5)
        });
        let b = s.spawn(|| {
            start.wait();
            run(13)
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    std::env::remove_var("KATO_THREADS");

    assert_eq!(first.len(), 24);
    assert_histories_identical(&first, &first_concurrent);
    assert_histories_identical(&second, &second_concurrent);
}
