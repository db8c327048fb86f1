use crate::kernels::{ExactKernel, LikelihoodGrad};
use crate::optim::{clip_gradients, Adam};
use crate::{GpError, KernelSpec, Scaler};
use kato_linalg::{CholeskyFactor, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training configuration for [`Gp::fit`].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Adam iterations for the (re)fit.
    pub train_iters: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Maximum number of points used for *hyperparameter* optimisation
    /// (the posterior still conditions on every point). Caps the `O(n²)`
    /// kernel-gradient and `O(n³)` factorisation cost per training step on
    /// large archives.
    pub fit_subsample: usize,
    /// RNG seed for parameter initialisation and subsampling.
    pub seed: u64,
    /// Gradient-norm clip.
    pub grad_clip: f64,
    /// Warm-start tolerance for [`Gp::append`] (per-point log-likelihood
    /// units): if the held hyperparameters still explain the grown dataset
    /// to within `warm_tol` of the per-point likelihood achieved at the
    /// last training run, `append` skips hyperparameter re-optimisation
    /// entirely and only extends the factor. Set to `f64::NEG_INFINITY` to
    /// force retraining on every append.
    pub warm_tol: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            train_iters: 60,
            lr: 0.05,
            fit_subsample: 150,
            seed: 0,
            grad_clip: 50.0,
            warm_tol: 0.25,
        }
    }
}

impl GpConfig {
    /// A cheap profile for unit tests and doc examples.
    #[must_use]
    pub fn fast() -> Self {
        GpConfig {
            train_iters: 30,
            lr: 0.08,
            fit_subsample: 60,
            ..GpConfig::default()
        }
    }
}

/// Exact Gaussian-process regressor with MLE-trained hyperparameters
/// (paper §2.2, Eq. 3–4).
///
/// Inputs and outputs are standardised internally; predictions are returned
/// in raw units. The kernel is either ARD-RBF or a Neural Kernel
/// ([`KernelSpec`]).
#[derive(Debug, Clone)]
pub struct Gp {
    kernel: KernelSpec,
    params: Vec<f64>,
    log_noise: f64,
    x_scaler: Scaler,
    y_scaler: Scaler,
    /// Standardised training inputs.
    xs: Vec<Vec<f64>>,
    /// Standardised training targets.
    ys: Vec<f64>,
    chol: CholeskyFactor,
    alpha: Vec<f64>,
    log_lik: f64,
    /// Per-point training log-likelihood achieved at the last actual
    /// hyperparameter optimisation — the warm-start reference for
    /// [`Gp::append`].
    ll_per_point: f64,
}

impl Gp {
    /// Fits hyperparameters by maximum likelihood and conditions on the full
    /// dataset.
    ///
    /// # Errors
    ///
    /// * [`GpError::BadTrainingData`] for empty/ragged inputs.
    /// * [`GpError::GramNotPd`] if the Gram matrix cannot be factorised even
    ///   after noise escalation.
    pub fn fit(
        kernel: KernelSpec,
        x: &[Vec<f64>],
        y: &[f64],
        config: &GpConfig,
    ) -> Result<Gp, GpError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::BadTrainingData {
                what: "x empty or x/y length mismatch",
            });
        }
        let dim = kernel.input_dim();
        if x.iter().any(|r| r.len() != dim) {
            return Err(GpError::BadTrainingData {
                what: "row width != kernel input dim",
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let params = kernel.init_params(&mut rng);
        let mut gp = Gp {
            kernel,
            params,
            log_noise: (0.05_f64).ln(),
            x_scaler: Scaler::fit(x),
            y_scaler: Scaler::fit_scalar(y),
            xs: Vec::new(),
            ys: Vec::new(),
            chol: CholeskyFactor::new(&Matrix::identity(1))?,
            alpha: Vec::new(),
            log_lik: f64::NEG_INFINITY,
            ll_per_point: f64::NEG_INFINITY,
        };
        gp.update_data(x, y);
        gp.train(config)?;
        gp.condition()?;
        Ok(gp)
    }

    /// Replaces the dataset (re-standardising) and re-optimises
    /// hyperparameters for `iters` Adam steps, warm-starting from the
    /// current values — the cheap per-BO-iteration update.
    ///
    /// # Errors
    ///
    /// See [`Gp::fit`].
    pub fn refit(&mut self, x: &[Vec<f64>], y: &[f64], config: &GpConfig) -> Result<(), GpError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::BadTrainingData {
                what: "x empty or x/y length mismatch",
            });
        }
        self.x_scaler = Scaler::fit(x);
        self.y_scaler = Scaler::fit_scalar(y);
        self.update_data(x, y);
        self.train(config)?;
        self.condition()
    }

    /// Appends a batch of new points to the training set *incrementally*:
    /// the held Cholesky factor is extended by a rank-`k` update
    /// (`O(k·n²)`) instead of being rebuilt (`O(n³)`), and hyperparameter
    /// optimisation is skipped entirely when the held optimum still
    /// explains the grown dataset — the warm-started per-point
    /// log-likelihood is within [`GpConfig::warm_tol`] of the value
    /// achieved at the last training run.
    ///
    /// The input/output scalers are **frozen** (new points are standardised
    /// with the statistics of the original fit); that is what keeps the
    /// existing Gram prefix — and therefore the held factor — valid. Use
    /// [`Gp::refit`] to re-standardise when the data distribution has
    /// drifted.
    ///
    /// Falls back internally to a full refactorisation (with noise
    /// escalation) when the rank-`k` extension reports that the grown Gram
    /// matrix is no longer positive definite at the held jitter, and to a
    /// warm-started hyperparameter re-optimisation when the likelihood
    /// check fails — `append` never leaves the model unconditioned.
    ///
    /// # Errors
    ///
    /// * [`GpError::BadTrainingData`] for empty/ragged input.
    /// * [`GpError::GramNotPd`] if even the fallback refactorisation fails.
    pub fn append(
        &mut self,
        x_new: &[Vec<f64>],
        y_new: &[f64],
        config: &GpConfig,
    ) -> Result<(), GpError> {
        if x_new.len() != y_new.len() {
            return Err(GpError::BadTrainingData {
                what: "x/y length mismatch",
            });
        }
        let dim = self.kernel.input_dim();
        if x_new.iter().any(|r| r.len() != dim) {
            return Err(GpError::BadTrainingData {
                what: "row width != kernel input dim",
            });
        }
        // Frozen scalers: standardise the batch with the held statistics.
        let xs_new: Vec<Vec<f64>> = x_new.iter().map(|r| self.x_scaler.transform(r)).collect();
        let ys_new: Vec<f64> = y_new
            .iter()
            .map(|&v| self.y_scaler.transform_scalar(v, 0))
            .collect();

        // Rank-k factor extension. Blocks are built with the same kernel
        // evaluation orientation as the Gram matrix (first argument =
        // earlier point) so the extended factor is bitwise what a
        // from-scratch factorisation at the held jitter would produce.
        let noise = self.noise_variance().max(1e-10) + 1e-9;
        let kernel = ExactKernel::new(&self.kernel, &self.params);
        let cross = kernel.cross(&self.xs, &xs_new);
        let mut corner = kernel.gram(&xs_new);
        corner.add_diagonal(noise);

        let extended = self.chol.extend(&cross, &corner).is_ok();
        self.xs.extend(xs_new);
        self.ys.extend(ys_new);
        if extended {
            self.alpha = self.chol.solve(&self.ys);
        } else {
            // The grown Gram lost positive definiteness at the held jitter:
            // full refactorisation with noise escalation.
            self.condition()?;
        }

        // Warm-start check: does the held optimum still explain the grown
        // dataset? Exact marginal likelihood — the factor is already there.
        let m = self.ys.len() as f64;
        let warm_ll = -0.5 * kato_linalg::dot(&self.ys, &self.alpha)
            - 0.5 * self.chol.log_det()
            - 0.5 * m * (2.0 * std::f64::consts::PI).ln();
        let warm_pp = warm_ll / m;
        if warm_pp.is_finite()
            && self.ll_per_point.is_finite()
            && warm_pp + config.warm_tol >= self.ll_per_point
        {
            self.log_lik = warm_ll;
            return Ok(());
        }
        // Likelihood degraded beyond tolerance: re-optimise, warm-started
        // from the held parameters, then recondition at the new ones.
        self.train(config)?;
        self.condition()
    }

    fn update_data(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.xs = x.iter().map(|r| self.x_scaler.transform(r)).collect();
        self.ys = y
            .iter()
            .map(|&v| self.y_scaler.transform_scalar(v, 0))
            .collect();
    }

    /// Number of training points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when the GP holds no data (cannot happen post-`fit`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Marginal log-likelihood of the (standardised) training data at the
    /// fitted hyperparameters.
    #[must_use]
    pub fn log_likelihood(&self) -> f64 {
        self.log_lik
    }

    /// Kernel specification in use.
    #[must_use]
    pub fn kernel(&self) -> &KernelSpec {
        &self.kernel
    }

    /// Fitted kernel parameters (log-domain where applicable).
    #[must_use]
    pub fn kernel_params(&self) -> &[f64] {
        &self.params
    }

    /// Observation noise variance (standardised-output units).
    #[must_use]
    pub fn noise_variance(&self) -> f64 {
        (2.0 * self.log_noise).exp()
    }

    /// `true` when `(x, y)` standardises (under the *held*, frozen scalers)
    /// to exactly the stored training set — the precondition for treating a
    /// longer dataset as "stored data plus new rows" in
    /// [`crate::update_incremental`]. Comparison is bitwise, so any
    /// retro-imputation of earlier rows (including NaN, which never
    /// compares equal) forces the full-refit path.
    pub(crate) fn matches_prefix_raw(&self, x: &[Vec<f64>], y: &[f64]) -> bool {
        if x.len() != self.xs.len() || y.len() != self.ys.len() {
            return false;
        }
        let dim = self.kernel.input_dim();
        x.iter()
            .zip(&self.xs)
            .all(|(xi, sxi)| xi.len() == dim && self.x_scaler.transform(xi) == *sxi)
            && y.iter()
                .zip(&self.ys)
                .all(|(&yi, &syi)| self.y_scaler.transform_scalar(yi, 0) == syi)
    }

    pub(crate) fn xs_std(&self) -> &[Vec<f64>] {
        &self.xs
    }

    pub(crate) fn ys_std(&self) -> &[f64] {
        &self.ys
    }

    /// Adam MLE loop over the (subsampled) training set.
    ///
    /// Each step builds the noisy Gram matrix, factors it, and forms the
    /// likelihood gradient with the B-matrix adjoint trick: every Gram
    /// entry `K_ij` is seeded with `∂L/∂K_ij = ½(ααᵀ − K⁻¹)_ij` and one
    /// reverse sweep of the kernel ([`LikelihoodGrad`]) accumulates the
    /// gradient of every kernel hyperparameter. That sweep is hand-written
    /// and allocation-free, and equals the reverse sweep of an autodiff
    /// tape over the same Gram entries bit for bit, so training
    /// trajectories are those the taped formulation produces.
    fn train(&mut self, config: &GpConfig) -> Result<(), GpError> {
        let n_total = self.xs.len();
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let idx: Vec<usize> = if n_total > config.fit_subsample {
            let mut all: Vec<usize> = (0..n_total).collect();
            all.shuffle(&mut rng);
            all.truncate(config.fit_subsample);
            all.sort_unstable();
            all
        } else {
            (0..n_total).collect()
        };
        let pts: Vec<Vec<f64>> = idx.iter().map(|&i| self.xs[i].clone()).collect();
        let ys: Vec<f64> = idx.iter().map(|&i| self.ys[i]).collect();
        let n = pts.len();

        let n_params = self.params.len() + 1; // + log_noise
        let mut opt = Adam::new(n_params, config.lr);
        let mut best = (f64::NEG_INFINITY, self.params.clone(), self.log_noise);
        let mut pass = LikelihoodGrad::default();
        let mut k = Matrix::zeros(n, n);

        for _ in 0..config.train_iters {
            // 1. Plain-f64 Gram, Cholesky, alpha, inverse.
            pass.forward(&self.kernel, &self.params, &pts, &mut k);
            k.add_diagonal(self.noise_variance().max(1e-10) + 1e-9);
            let Ok(chol) = CholeskyFactor::new(&k) else {
                // Escalate noise and keep going.
                self.log_noise += 0.5;
                continue;
            };
            let alpha = chol.solve(&ys);
            let kinv = chol.inverse();
            let log_lik = -0.5 * kato_linalg::dot(&ys, &alpha)
                - 0.5 * chol.log_det()
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
            if log_lik > best.0 {
                best = (log_lik, self.params.clone(), self.log_noise);
            }

            // 2. Adjoint seeds ∂L/∂K_ij = ½(ααᵀ − K⁻¹)_ij over the upper
            //    triangle (off-diagonal entries stand for both K_ij, K_ji).
            // 3. One reverse sweep of the kernel.
            let mut g = vec![0.0; n_params];
            pass.backward(
                |i, j| {
                    let b_ij = alpha[i] * alpha[j] - kinv[(i, j)];
                    if i == j {
                        0.5 * b_ij
                    } else {
                        b_ij
                    }
                },
                &mut g[..self.params.len()],
            );
            // Noise gradient: ∂L/∂σ² = ½tr(B); chain to log-noise.
            let tr_b: f64 = (0..n).map(|i| alpha[i] * alpha[i] - kinv[(i, i)]).sum();
            let noise = self.noise_variance();
            g[n_params - 1] = 0.5 * tr_b * 2.0 * noise;

            // 4. Ascend.
            for gi in g.iter_mut() {
                *gi = -*gi;
            }
            let _ = clip_gradients(&mut g, config.grad_clip);
            let mut theta: Vec<f64> = self.params.clone();
            theta.push(self.log_noise);
            opt.step(&mut theta, &g);
            self.log_noise = theta.pop().expect("noise param").clamp(-7.0, 2.0);
            for p in theta.iter_mut() {
                *p = p.clamp(-8.0, 8.0);
            }
            self.params = theta;
        }

        if best.0 > f64::NEG_INFINITY {
            self.log_lik = best.0;
            self.params = best.1;
            self.log_noise = best.2;
            self.ll_per_point = best.0 / n as f64;
        }
        Ok(())
    }

    /// Conditions the posterior on the full dataset at the current
    /// hyperparameters, escalating noise if the Gram matrix resists
    /// factorisation.
    fn condition(&mut self) -> Result<(), GpError> {
        let gram = ExactKernel::new(&self.kernel, &self.params).gram(&self.xs);
        for _ in 0..6 {
            let mut k = gram.clone();
            k.add_diagonal(self.noise_variance().max(1e-10) + 1e-9);
            match CholeskyFactor::new(&k) {
                Ok(chol) => {
                    self.alpha = chol.solve(&self.ys);
                    self.chol = chol;
                    return Ok(());
                }
                Err(_) => self.log_noise += 0.7,
            }
        }
        Err(GpError::GramNotPd)
    }

    /// Posterior mean and variance at `x` (raw units), paper Eq. 4.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the kernel input dimension.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let (m, v) = self.predict_std(&self.x_scaler.transform(x));
        let s = self.y_scaler.scale(0);
        (self.y_scaler.inverse_scalar(m, 0), v * s * s)
    }

    /// Posterior mean and variance at every query point (raw units) — the
    /// batched form of [`Gp::predict`].
    ///
    /// Per-point kernel features are hoisted once via
    /// [`KernelSpec::prepare`] (rows of the cross-covariance fan out over
    /// the [`kato_par`] pool) and the shared Cholesky factor is applied to
    /// all queries in a single batched triangular solve, instead of one
    /// `O(n²)` forward substitution per point. Values agree with the
    /// point-wise path to floating-point re-association error (≪ 1e-10).
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from the kernel input
    /// dimension.
    #[must_use]
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if xs.is_empty() {
            return Vec::new();
        }
        let dim = self.kernel.input_dim();
        let n = self.xs.len();
        let xq: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                assert_eq!(x.len(), dim, "predict_batch: dimension mismatch");
                self.x_scaler.transform(x)
            })
            .collect();
        let train = self.kernel.prepare(&self.params, &self.xs);
        let query = self.kernel.prepare(&self.params, &xq);
        let idx: Vec<usize> = (0..xq.len()).collect();
        let kvecs: Vec<Vec<f64>> = kato_par::par_map(&idx, |&j| {
            (0..n).map(|i| query.eval(j, &train, i)).collect()
        });
        let kmat = Matrix::from_fn(n, xq.len(), |i, j| kvecs[j][i]);
        let w = self.chol.forward_sub_matrix(&kmat);
        let s = self.y_scaler.scale(0);
        idx.iter()
            .map(|&j| {
                let mean = kato_linalg::dot(&kvecs[j], &self.alpha);
                let mut wsq = 0.0;
                for i in 0..n {
                    wsq += w[(i, j)] * w[(i, j)];
                }
                let var = (query.eval(j, &query, j) - wsq).max(1e-12);
                (self.y_scaler.inverse_scalar(mean, 0), var * s * s)
            })
            .collect()
    }

    /// Posterior mean/variance in standardised coordinates (`x` already
    /// standardised). Used by KAT-GP, acquisition internals and tests.
    #[must_use]
    pub fn predict_std(&self, x_std: &[f64]) -> (f64, f64) {
        assert_eq!(
            x_std.len(),
            self.kernel.input_dim(),
            "predict: dimension mismatch"
        );
        let kernel = ExactKernel::new(&self.kernel, &self.params);
        let (mut fx, mut feats) = (Vec::new(), Vec::new());
        kernel.point_features(x_std, &mut fx);
        kernel.features(&self.xs, &mut feats);
        let mut slot = vec![0.0; kernel.slot_len()];
        let kvec: Vec<f64> = feats
            .chunks_exact(kernel.feat_len())
            .map(|fi| kernel.eval(&fx, fi, &mut slot))
            .collect();
        let mean = kato_linalg::dot(&kvec, &self.alpha);
        let w = self.chol.forward_sub(&kvec);
        let k_xx = kernel.eval(&fx, &fx, &mut slot);
        let var = (k_xx - kato_linalg::dot(&w, &w)).max(1e-12);
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin() + 0.3 * x[0]).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = sine_data(15);
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, _) = gp.predict(x);
            assert!((m - y).abs() < 0.15, "at {x:?}: {m} vs {y}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = sine_data(10);
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let (_, v_in) = gp.predict(&[0.5]);
        let (_, v_out) = gp.predict(&[3.0]);
        assert!(v_out > v_in * 2.0, "v_in={v_in} v_out={v_out}");
    }

    #[test]
    fn predict_std_matches_generic_kernel_vector_bitwise() {
        // The hoisted evaluator behind predict_std against the generic
        // kernel, query first, on ARD and Neuk fits.
        let (xs, ys) = sine_data(12);
        for kernel in [KernelSpec::ard_rbf(1), KernelSpec::neuk(1)] {
            let gp = Gp::fit(kernel, &xs, &ys, &GpConfig::fast()).unwrap();
            for q in [-0.3, 0.0, 0.41, 1.7] {
                let x = [q];
                let kvec: Vec<f64> = gp
                    .xs
                    .iter()
                    .map(|xi| gp.kernel.eval(&gp.params, &x, xi))
                    .collect();
                let w = gp.chol.forward_sub(&kvec);
                let k_xx = gp.kernel.eval(&gp.params, &x, &x);
                let var = (k_xx - kato_linalg::dot(&w, &w)).max(1e-12);
                let mean = kato_linalg::dot(&kvec, &gp.alpha);
                let (m, v) = gp.predict_std(&x);
                assert_eq!(m.to_bits(), mean.to_bits(), "mean at {q}");
                assert_eq!(v.to_bits(), var.to_bits(), "variance at {q}");
            }
        }
    }

    #[test]
    fn neuk_fits_sine_as_well_as_ard() {
        let (xs, ys) = sine_data(25);
        let ard = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let neuk = Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let mut err_ard = 0.0;
        let mut err_neuk = 0.0;
        for i in 0..50 {
            let x = [i as f64 / 49.0];
            let truth = (5.0 * x[0]).sin() + 0.3 * x[0];
            err_ard += (ard.predict(&x).0 - truth).powi(2);
            err_neuk += (neuk.predict(&x).0 - truth).powi(2);
        }
        assert!(
            err_neuk < err_ard * 3.0 + 0.5,
            "neuk {err_neuk} vs ard {err_ard}"
        );
    }

    #[test]
    fn training_improves_likelihood() {
        let (xs, ys) = sine_data(20);
        let short = Gp::fit(
            KernelSpec::ard_rbf(1),
            &xs,
            &ys,
            &GpConfig {
                train_iters: 1,
                ..GpConfig::fast()
            },
        )
        .unwrap();
        let long = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        assert!(
            long.log_likelihood() >= short.log_likelihood() - 1e-6,
            "{} vs {}",
            long.log_likelihood(),
            short.log_likelihood()
        );
    }

    #[test]
    fn refit_warm_start_keeps_working() {
        let (xs, ys) = sine_data(12);
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let (xs2, ys2) = sine_data(18);
        gp.refit(
            &xs2,
            &ys2,
            &GpConfig {
                train_iters: 10,
                ..GpConfig::fast()
            },
        )
        .unwrap();
        assert_eq!(gp.len(), 18);
        let (m, _) = gp.predict(&xs2[9]);
        assert!((m - ys2[9]).abs() < 0.2);
    }

    #[test]
    fn subsampled_fit_still_conditions_on_all_points() {
        let (xs, ys) = sine_data(40);
        let gp = Gp::fit(
            KernelSpec::ard_rbf(1),
            &xs,
            &ys,
            &GpConfig {
                fit_subsample: 10,
                ..GpConfig::fast()
            },
        )
        .unwrap();
        assert_eq!(gp.len(), 40);
    }

    #[test]
    fn rejects_bad_data() {
        let r = Gp::fit(KernelSpec::ard_rbf(1), &[], &[], &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        let r = Gp::fit(
            KernelSpec::ard_rbf(2),
            &[vec![1.0]],
            &[1.0],
            &GpConfig::fast(),
        );
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn duplicate_points_handled_via_noise() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.6]];
        let ys = vec![1.0, 1.1, 0.9, 2.0];
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.3, "mean at duplicated x: {m}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = sine_data(10);
        let a = Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let b = Gp::fit(KernelSpec::neuk(1), &xs, &ys, &GpConfig::fast()).unwrap();
        assert_eq!(a.kernel_params(), b.kernel_params());
    }

    #[test]
    fn predict_batch_matches_pointwise() {
        let (xs, ys) = sine_data(18);
        for kernel in [KernelSpec::ard_rbf(1), KernelSpec::neuk(1)] {
            let gp = Gp::fit(kernel, &xs, &ys, &GpConfig::fast()).unwrap();
            let queries: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 12.0 - 0.5]).collect();
            let batch = gp.predict_batch(&queries);
            assert_eq!(batch.len(), queries.len());
            for (q, &(bm, bv)) in queries.iter().zip(&batch) {
                let (m, v) = gp.predict(q);
                assert!(
                    (m - bm).abs() <= 1e-10 * (1.0 + m.abs()),
                    "mean {m} vs {bm}"
                );
                assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()), "var {v} vs {bv}");
            }
        }
        let gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        assert!(gp.predict_batch(&[]).is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_predict_batch_matches_pointwise(
            qs in proptest::collection::vec(-1.0..2.0f64, 1..12),
            neuk in 0usize..2,
        ) {
            let (xs, ys) = sine_data(12);
            let kernel = if neuk == 1 { KernelSpec::neuk(1) } else { KernelSpec::ard_rbf(1) };
            let gp = Gp::fit(kernel, &xs, &ys, &GpConfig::fast()).unwrap();
            let queries: Vec<Vec<f64>> = qs.iter().map(|&q| vec![q]).collect();
            let batch = gp.predict_batch(&queries);
            for (q, &(bm, bv)) in queries.iter().zip(&batch) {
                let (m, v) = gp.predict(q);
                proptest::prop_assert!((m - bm).abs() <= 1e-10 * (1.0 + m.abs()));
                proptest::prop_assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()));
            }
        }
    }

    #[test]
    fn append_skips_retraining_when_warm_likelihood_holds() {
        let (xs, ys) = sine_data(24);
        let cfg = GpConfig::fast();
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs[..20], &ys[..20], &cfg).unwrap();
        let params_before = gp.kernel_params().to_vec();
        // Four more points from the same smooth function: the held optimum
        // explains them, so a generous tolerance must take the skip path
        // and leave the hyperparameters untouched.
        gp.append(
            &xs[20..],
            &ys[20..],
            &GpConfig {
                warm_tol: 5.0,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(gp.len(), 24);
        assert_eq!(gp.kernel_params(), &params_before[..]);
        // Still conditioned on everything: new points are interpolated.
        let (m, _) = gp.predict(&xs[22]);
        assert!((m - ys[22]).abs() < 0.2, "{m} vs {}", ys[22]);
    }

    #[test]
    fn append_matches_refit_posterior_closely() {
        let (xs, ys) = sine_data(22);
        let cfg = GpConfig::fast();
        let mut warm = Gp::fit(KernelSpec::ard_rbf(1), &xs[..16], &ys[..16], &cfg).unwrap();
        warm.append(&xs[16..], &ys[16..], &cfg).unwrap();
        let cold = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &cfg).unwrap();
        for i in 0..40 {
            let q = [i as f64 / 39.0];
            let (mw, _) = warm.predict(&q);
            let (mc, _) = cold.predict(&q);
            assert!((mw - mc).abs() < 0.25, "at {q:?}: warm {mw} vs cold {mc}");
        }
    }

    #[test]
    fn warm_started_retraining_is_no_worse_than_cold() {
        // The satellite guarantee: forcing the warm-started re-optimisation
        // (warm_tol = −∞) must never land at a worse per-point training
        // log-likelihood than the cold schedule fitting from scratch.
        // Comparison is in raw-y units (warm keeps the prefix scalers, cold
        // re-fits them): ll_raw_pp = ll_std_pp − ln(y_scale).
        let (xs, ys) = sine_data(26);
        let cfg = GpConfig::fast();
        let mut warm = Gp::fit(KernelSpec::ard_rbf(1), &xs[..18], &ys[..18], &cfg).unwrap();
        warm.append(
            &xs[18..],
            &ys[18..],
            &GpConfig {
                warm_tol: f64::NEG_INFINITY,
                ..cfg.clone()
            },
        )
        .unwrap();
        let cold = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &cfg).unwrap();
        let raw_pp = |gp: &Gp| gp.ll_per_point - gp.y_scaler.scale(0).ln();
        assert!(
            raw_pp(&warm) >= raw_pp(&cold) - 1e-9,
            "warm {} vs cold {}",
            raw_pp(&warm),
            raw_pp(&cold)
        );
    }

    #[test]
    fn append_rejects_ragged_rows() {
        let (xs, ys) = sine_data(10);
        let mut gp = Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap();
        let r = gp.append(&[vec![0.1, 0.2]], &[1.0], &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
        let r = gp.append(&[vec![0.1]], &[], &GpConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn mle_gradient_matches_finite_difference() {
        // Validate the B-matrix trick end to end on a tiny problem: compare
        // dL/dθ from the training pass against numeric differentiation of
        // the exact log-likelihood.
        let xs = [vec![0.0], vec![0.4], vec![1.0]];
        let ys = vec![0.1, 0.9, -0.3];
        let kernel = KernelSpec::ard_rbf(1);
        let params = vec![0.2, -0.1];
        let noise2 = 0.05;

        let loglik = |p: &[f64]| -> f64 {
            let mut k = Matrix::from_fn(3, 3, |i, j| kernel.eval(p, &xs[i], &xs[j]));
            k.add_diagonal(noise2);
            let chol = CholeskyFactor::new(&k).unwrap();
            let alpha = chol.solve(&ys);
            -0.5 * kato_linalg::dot(&ys, &alpha)
                - 0.5 * chol.log_det()
                - 1.5 * (2.0 * std::f64::consts::PI).ln()
        };

        // Analytic gradient via B-matrix seeds and the training pass.
        let mut k = Matrix::zeros(3, 3);
        let mut pass = LikelihoodGrad::default();
        pass.forward(&kernel, &params, &xs, &mut k);
        k.add_diagonal(noise2);
        let chol = CholeskyFactor::new(&k).unwrap();
        let alpha = chol.solve(&ys);
        let kinv = chol.inverse();
        let mut analytic = vec![0.0; params.len()];
        pass.backward(
            |i, j| {
                let b = alpha[i] * alpha[j] - kinv[(i, j)];
                if i == j {
                    0.5 * b
                } else {
                    b
                }
            },
            &mut analytic,
        );
        let check = kato_autodiff::check_gradient(loglik, &params, &analytic, 1e-6);
        assert!(check.passes(1e-5), "{check:?}");
    }
}
