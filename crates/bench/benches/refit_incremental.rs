//! Criterion bench for the incremental-refit hot path: growing a surrogate
//! archive by one BO batch via `Gp::refit` (full re-standardise +
//! re-factorise, the pre-redesign path) versus `Gp::append` (frozen
//! scalers, rank-k Cholesky extension, warm-started hyperparameters).
//!
//! Archive sizes mirror the acceptance gate (≥64 points) and the batch
//! size mirrors the default BO batch. `append_forced_retrain` times the
//! append that fails the warm-likelihood gate and retrains: the sizing
//! loop's own retrain configuration (`BoSettings::quick`'s GP config with
//! `refit_iters` Adam steps), with the gate forced shut.

use criterion::{criterion_group, criterion_main, Criterion};
use kato::BoSettings;
use kato_circuits::{random_design, SizingProblem, TechNode, TwoStageOpAmp};
use kato_gp::{Gp, GpConfig, KernelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const ARCHIVE_N: usize = 64;
const BATCH_K: usize = 8;

/// Seeded opamp2@180nm archive: designs plus one metric column (the
/// objective current), the shape every per-metric surrogate sees.
fn archive(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let problem = TwoStageOpAmp::new(TechNode::n180());
    let mut rng = StdRng::seed_from_u64(7);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| random_design(problem.dim(), &mut rng))
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| problem.evaluate(x).get(0)).collect();
    (xs, ys)
}

fn bench_refit(c: &mut Criterion) {
    let (xs, ys) = archive(ARCHIVE_N + BATCH_K);
    let dim = xs[0].len();
    // The per-iteration refit profile of BoSettings::quick.
    let cfg = GpConfig {
        train_iters: 8,
        ..GpConfig::fast()
    };
    let fitted = Gp::fit(
        KernelSpec::neuk(dim),
        &xs[..ARCHIVE_N],
        &ys[..ARCHIVE_N],
        &cfg,
    )
    .unwrap();

    c.bench_function("refit_full_n64_plus8", |b| {
        b.iter(|| {
            let mut gp = fitted.clone();
            gp.refit(black_box(&xs), black_box(&ys), &cfg).unwrap();
            black_box(gp)
        })
    });
    c.bench_function("refit_incremental_n64_plus8", |b| {
        b.iter(|| {
            let mut gp = fitted.clone();
            gp.append(
                black_box(&xs[ARCHIVE_N..]),
                black_box(&ys[ARCHIVE_N..]),
                &cfg,
            )
            .unwrap();
            black_box(gp)
        })
    });

    // The loop fits with the settings' GP config, then appends with
    // `train_iters = refit_iters`.
    let settings = BoSettings::quick(100, 0);
    let loop_fitted = Gp::fit(
        KernelSpec::neuk(dim),
        &xs[..ARCHIVE_N],
        &ys[..ARCHIVE_N],
        &settings.gp,
    )
    .unwrap();
    let retrain_cfg = GpConfig {
        train_iters: settings.refit_iters,
        warm_tol: f64::NEG_INFINITY,
        ..settings.gp.clone()
    };
    c.bench_function("append_forced_retrain_n64_plus8", |b| {
        b.iter(|| {
            let mut gp = loop_fitted.clone();
            gp.append(
                black_box(&xs[ARCHIVE_N..]),
                black_box(&ys[ARCHIVE_N..]),
                &retrain_cfg,
            )
            .unwrap();
            black_box(gp)
        })
    });
}

criterion_group! {
    name = refit_incremental;
    config = Criterion::default().sample_size(10);
    targets = bench_refit
}
criterion_main!(refit_incremental);
