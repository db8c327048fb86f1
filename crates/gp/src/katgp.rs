use crate::kernels::ExactKernel;
use crate::optim::{clip_gradients, Adam};
use crate::{Gp, GpError, KernelSpec, MlpSpec, Scaler};
#[cfg(test)]
use kato_autodiff::Scalar;
use kato_linalg::CholeskyFactor;
use kato_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training configuration for [`KatGp::fit`].
#[derive(Debug, Clone)]
pub struct KatConfig {
    /// Adam iterations.
    pub train_iters: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Maximum source points carried into the transfer model. Training
    /// costs `O(m²)` per target point and step (the forward substitution
    /// of the predictive variance and its reverse), so this caps it.
    pub source_subsample: usize,
    /// Maximum target points used per training iteration.
    pub target_subsample: usize,
    /// RNG seed.
    pub seed: u64,
    /// Gradient-norm clip.
    pub grad_clip: f64,
    /// Independent random initialisations of the alignment; the restart
    /// with the best training log-likelihood wins. The MLP encoder/decoder
    /// landscape has mean-prediction local optima that a single unlucky
    /// init can get stuck in.
    pub restarts: usize,
    /// Warm-start tolerance for [`KatGp::append`] (per-point
    /// log-likelihood units): if the held alignment still explains the
    /// grown target dataset to within `warm_tol` of the per-point
    /// likelihood achieved at the last training run, `append` skips
    /// alignment retraining entirely; otherwise it runs a *single*
    /// warm-started training pass (restarts→1 — the held alignment is the
    /// init) instead of the full cold restart schedule. Set to
    /// `f64::NEG_INFINITY` to force the warm training pass on every
    /// append.
    pub warm_tol: f64,
}

impl Default for KatConfig {
    fn default() -> Self {
        KatConfig {
            train_iters: 50,
            lr: 0.03,
            source_subsample: 80,
            target_subsample: 150,
            seed: 0,
            grad_clip: 50.0,
            restarts: 3,
            warm_tol: 0.25,
        }
    }
}

impl KatConfig {
    /// A cheap profile for unit tests.
    #[must_use]
    pub fn fast() -> Self {
        KatConfig {
            train_iters: 25,
            source_subsample: 40,
            target_subsample: 60,
            restarts: 2,
            ..KatConfig::default()
        }
    }
}

/// SplitMix64-style finaliser mixing the master seed with a stream index
/// (restart number). Unlike affine derivations such as
/// `(seed + c)·(stream + 1)`, whose streams are linearly related and can
/// collide, the avalanche rounds decorrelate every (seed, stream) pair.
fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scalar-in/scalar-out MLP (`1 → H → 1`, sigmoid hidden) whose forward pass
/// also yields the input derivative — the decoder `D` of KAT-GP, where the
/// Delta method (paper Eq. 11) needs the Jacobian `J = D'(µ_s)` as a
/// *differentiable* expression so Eq. 12 can be optimised through it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScalarMlp {
    hidden: usize,
}

impl ScalarMlp {
    fn new(hidden: usize) -> Self {
        ScalarMlp { hidden }
    }

    fn param_count(&self) -> usize {
        // w1[h], b1[h], w2[h], b2
        3 * self.hidden + 1
    }

    fn init_params(&self, rng: &mut StdRng) -> Vec<f64> {
        use rand::Rng;
        let mut p = Vec::with_capacity(self.param_count());
        let scale = (2.0 / (self.hidden + 1) as f64).sqrt();
        for _ in 0..self.hidden {
            p.push(rng.gen_range(-1.0..1.0) * scale); // w1
        }
        for _ in 0..self.hidden {
            p.push(rng.gen_range(-1.0..1.0) * 0.1); // b1
        }
        for _ in 0..self.hidden {
            p.push(rng.gen_range(-1.0..1.0) * scale); // w2
        }
        p.push(0.0); // b2
        p
    }

    /// Identity-leaning initialisation: `D(µ) ≈ µ` at start, so the initial
    /// transfer model is "trust the source as-is".
    fn init_near_identity(&self, rng: &mut StdRng) -> Vec<f64> {
        use rand::Rng;
        let mut p = self.init_params(rng);
        // Set w2 so that Σ w2_h·σ'(0)·w1_h ≈ 1: pair up with w1.
        let h = self.hidden;
        for i in 0..h {
            let w1 = p[i];
            // σ'(0) = 0.25; distribute identity across hidden units.
            p[2 * h + i] = w1 * 4.0 / (h as f64 * w1 * w1 + 1e-6).max(0.25);
        }
        p[3 * h] = 0.0;
        // Small perturbation keeps units from being exactly symmetric.
        for v in p.iter_mut() {
            *v += rng.gen_range(-0.01..0.01);
        }
        p
    }

    /// Returns `(D(x), D'(x))`, leaving the hidden activations in `hidden`.
    fn forward(&self, params: &[f64], x: f64, hidden: &mut Vec<f64>) -> (f64, f64) {
        let h = self.hidden;
        let (w1, rest) = params.split_at(h);
        let (b1, rest) = rest.split_at(h);
        let (w2, b2) = rest.split_at(h);
        hidden.clear();
        let mut y = b2[0];
        let mut dy = 0.0;
        for k in 0..h {
            let s = 1.0 / (1.0 + (-(w1[k] * x + b1[k])).exp());
            y += w2[k] * s;
            dy += w2[k] * s * (1.0 - s) * w1[k];
            hidden.push(s);
        }
        (y, dy)
    }

    /// Adds to `grad` the gradient of `adj_y·D(x) + adj_dy·D'(x)` exactly
    /// as the tape's reverse sweep over one taped forward pass would, and
    /// returns the adjoint `x` receives. `hidden` is what
    /// [`ScalarMlp::forward`] left at `x`.
    ///
    /// Each hidden unit `k`, last first, was taped as `a = w1·x + b1`,
    /// `s = σ(a)`, `y += w2·s`, then `dy += ((w2·s)·(1 − s))·w1`; its nodes
    /// are swept in the reverse of that order.
    #[allow(clippy::neg_multiply)]
    fn backward(
        &self,
        params: &[f64],
        x: f64,
        hidden: &[f64],
        (adj_y, adj_dy): (f64, f64),
        grad: &mut [f64],
    ) -> f64 {
        let h = self.hidden;
        let (w1, rest) = params.split_at(h);
        let w2 = &rest[h..2 * h];
        let mut adj_x = 0.0;
        for k in (0..h).rev() {
            let s = hidden[k];
            let mut adj_s = 0.0;
            if adj_dy != 0.0 {
                let m1 = w2[k] * s;
                let d = 1.0 - s;
                let m2 = m1 * d;
                let adj_m2 = adj_dy * w1[k];
                grad[k] += adj_dy * m2;
                if adj_m2 != 0.0 {
                    let adj_m1 = adj_m2 * d;
                    let adj_d = adj_m2 * m1;
                    if adj_d != 0.0 {
                        adj_s += adj_d * -1.0;
                    }
                    if adj_m1 != 0.0 {
                        grad[2 * h + k] += adj_m1 * s;
                        adj_s += adj_m1 * w2[k];
                    }
                }
            }
            if adj_y != 0.0 {
                if k == 0 {
                    grad[3 * h] += adj_y;
                }
                grad[2 * h + k] += adj_y * s;
                adj_s += adj_y * w2[k];
            }
            if adj_s != 0.0 {
                let adj_a = adj_s * (s * (1.0 - s));
                if adj_a != 0.0 {
                    grad[h + k] += adj_a;
                    grad[k] += adj_a * x;
                    adj_x += adj_a * w1[k];
                }
            }
        }
        adj_x
    }

    /// The generic forward pass, the test reference for the reverse sweep.
    #[cfg(test)]
    fn forward_scalar<S: Scalar>(&self, params: &[S], x: S) -> (S, S) {
        debug_assert_eq!(params.len(), self.param_count());
        let h = self.hidden;
        let (w1, rest) = params.split_at(h);
        let (b1, rest) = rest.split_at(h);
        let (w2, b2) = rest.split_at(h);
        let mut y = b2[0];
        let mut dy = x.lift(0.0);
        for k in 0..h {
            let s = (w1[k] * x + b1[k]).sigmoid();
            y = y + w2[k] * s;
            dy = dy + w2[k] * s * (x.lift(1.0) - s) * w1[k];
        }
        (y, dy)
    }
}

/// Knowledge Alignment and Transfer GP (paper §3.2, Fig. 2).
///
/// Wraps a *frozen* source [`Gp`] in a trainable encoder
/// `E: target design space → source design space` and decoder
/// `D: source output → target output`:
///
/// `y⁽ᵗ⁾(x) = D( GP( E(x) ) )`
///
/// Predictive moments use the Delta method (Eq. 11):
/// `µ_t = D(µ_s)`, `σ²_t = D'(µ_s)²·σ²_s`, and training maximises the
/// Gaussian log-likelihood of the target data (Eq. 12) with respect to the
/// encoder, the decoder and the target noise. The source observations are
/// never altered — the knowledge stays in the source GP, only the
/// *alignment* is learned.
///
/// The source GP's kernel hyperparameters and Gram factor are held fixed
/// during alignment training (alternating optimisation) rather than
/// differentiated through. The Eq. 12 gradient is a hand-written reverse
/// sweep of encoder, source posterior, decoder and likelihood that equals
/// the sweep of an autodiff tape over the same computation bit for bit,
/// so training records no tape.
#[derive(Debug, Clone)]
pub struct KatGp {
    // Frozen source model (subsampled).
    kernel: KernelSpec,
    kernel_params: Vec<f64>,
    xs_src: Vec<Vec<f64>>,
    alpha_src: Vec<f64>,
    chol_src: CholeskyFactor,
    /// The source kernel hoisted at its frozen parameters.
    src_kernel: ExactKernel,
    /// Kernel features of `xs_src`, flattened.
    src_feats: Vec<f64>,
    // Trainable alignment.
    encoder: MlpSpec,
    enc_params: Vec<f64>,
    decoder: ScalarMlp,
    dec_params: Vec<f64>,
    log_noise: f64,
    // Target-side standardisation.
    x_scaler: Scaler,
    y_scaler: Scaler,
    target_dim: usize,
    /// Raw target training data, retained so [`KatGp::append`] can grow the
    /// dataset and retrain the alignment without the caller re-supplying
    /// the history.
    xt: Vec<Vec<f64>>,
    yt: Vec<f64>,
    /// Per-point training log-likelihood achieved at the last actual
    /// alignment training — the warm-start reference for [`KatGp::append`].
    ll_per_point: f64,
}

impl KatGp {
    /// Fits the alignment (encoder, decoder, noise) of a frozen `source` GP
    /// to the target dataset `(x_t, y_t)`.
    ///
    /// # Errors
    ///
    /// * [`GpError::BadTrainingData`] for empty or ragged target data.
    /// * Propagates factorisation failures of the source Gram subsample.
    pub fn fit(
        source: &Gp,
        x_t: &[Vec<f64>],
        y_t: &[f64],
        config: &KatConfig,
    ) -> Result<KatGp, GpError> {
        if x_t.is_empty() || x_t.len() != y_t.len() {
            return Err(GpError::BadTrainingData {
                what: "target x empty or x/y length mismatch",
            });
        }
        let target_dim = x_t[0].len();
        if x_t.iter().any(|r| r.len() != target_dim) {
            return Err(GpError::BadTrainingData {
                what: "ragged target rows",
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Subsample and re-condition the source.
        let n_src = source.xs_std().len();
        let keep: Vec<usize> = if n_src > config.source_subsample {
            let mut idx: Vec<usize> = (0..n_src).collect();
            idx.shuffle(&mut rng);
            idx.truncate(config.source_subsample);
            idx.sort_unstable();
            idx
        } else {
            (0..n_src).collect()
        };
        let xs_src: Vec<Vec<f64>> = keep.iter().map(|&i| source.xs_std()[i].clone()).collect();
        let ys_src: Vec<f64> = keep.iter().map(|&i| source.ys_std()[i]).collect();
        let m = xs_src.len();
        let kp = source.kernel_params().to_vec();
        let kernel = source.kernel().clone();
        let src_kernel = ExactKernel::new(&kernel, &kp);
        let mut src_feats = Vec::new();
        src_kernel.features(&xs_src, &mut src_feats);
        let mut gram = source_gram(&src_kernel, &src_feats, m);
        gram.add_diagonal(source.noise_variance().max(1e-8) + 1e-9);
        let chol_src = CholeskyFactor::new(&gram)?;
        let alpha_src = chol_src.solve(&ys_src);

        let encoder = MlpSpec::kat(target_dim, kernel.input_dim());
        let decoder = ScalarMlp::new(32);

        let mut kat = KatGp {
            kernel,
            kernel_params: kp,
            xs_src,
            alpha_src,
            chol_src,
            src_kernel,
            src_feats,
            encoder,
            enc_params: Vec::new(),
            decoder,
            dec_params: Vec::new(),
            log_noise: (0.2_f64).ln(),
            x_scaler: Scaler::fit(x_t),
            y_scaler: Scaler::fit_scalar(y_t),
            target_dim,
            xt: x_t.to_vec(),
            yt: y_t.to_vec(),
            ll_per_point: f64::NEG_INFINITY,
        };
        // Multi-restart: only the alignment parameters differ per restart
        // (the frozen source state and scalers are shared), so each restart
        // trains its own clone of the alignment and the best training
        // log-likelihood wins. Restart seeds go through a SplitMix64
        // finaliser so the init streams share no linear structure, and the
        // restarts fan out as independent work items on the kato_par pool
        // (order-preserving, so the winner does not depend on thread
        // count).
        let restarts: Vec<u64> = (0..config.restarts.max(1) as u64).collect();
        let trained = kato_par::par_map(&restarts, |&restart| {
            let mut cand = kat.clone();
            let mut init_rng = StdRng::seed_from_u64(mix_seed(config.seed, restart));
            cand.enc_params = cand.encoder.init_params(&mut init_rng);
            cand.dec_params = cand.decoder.init_near_identity(&mut init_rng);
            cand.log_noise = (0.2_f64).ln();
            let ll = cand.train(x_t, y_t, config)?;
            Ok::<_, GpError>((ll, cand.enc_params, cand.dec_params, cand.log_noise))
        });
        let mut best: Option<(f64, Vec<f64>, Vec<f64>, f64)> = None;
        for result in trained {
            let (ll, enc, dec, noise) = result?;
            if best.as_ref().is_none_or(|(b, ..)| ll > *b) {
                best = Some((ll, enc, dec, noise));
            }
        }
        let (best_ll, enc, dec, noise) = best.expect("restarts >= 1");
        kat.enc_params = enc;
        kat.dec_params = dec;
        kat.log_noise = noise;
        kat.ll_per_point = best_ll / x_t.len().min(config.target_subsample).max(1) as f64;
        Ok(kat)
    }

    /// Re-optimises the alignment on an updated target dataset, warm-started
    /// from the current parameters (the per-BO-iteration update).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::BadTrainingData`] for empty/ragged data.
    pub fn refit(
        &mut self,
        x_t: &[Vec<f64>],
        y_t: &[f64],
        config: &KatConfig,
    ) -> Result<(), GpError> {
        if x_t.is_empty() || x_t.len() != y_t.len() {
            return Err(GpError::BadTrainingData {
                what: "target x empty or x/y length mismatch",
            });
        }
        self.x_scaler = Scaler::fit(x_t);
        self.y_scaler = Scaler::fit_scalar(y_t);
        let ll = self.train(x_t, y_t, config)?;
        self.ll_per_point = ll / x_t.len().min(config.target_subsample).max(1) as f64;
        self.xt = x_t.to_vec();
        self.yt = y_t.to_vec();
        Ok(())
    }

    /// Appends a batch of new target points and retrains the alignment
    /// with a warm-start-gated restart schedule. Unlike [`Gp::append`] —
    /// where conditioning alone absorbs new data — the KAT posterior
    /// depends on the target data *only through the trained alignment*, so
    /// `append` always runs at least one training pass. The held
    /// alignment's per-point log-likelihood on the grown dataset decides
    /// how many: within [`KatConfig::warm_tol`] of the last training
    /// optimum, one warm-started pass suffices (restarts→1, the held
    /// alignment is the initialisation); further away the held optimum is
    /// stale and the full cold restart schedule of [`KatGp::fit`] runs
    /// alongside the warm candidate, best training log-likelihood wins.
    ///
    /// The target-side scalers are **frozen** (see [`Gp::append`] for the
    /// rationale); [`KatGp::refit`] is the escape hatch that
    /// re-standardises.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::BadTrainingData`] for ragged input.
    pub fn append(
        &mut self,
        x_new: &[Vec<f64>],
        y_new: &[f64],
        config: &KatConfig,
    ) -> Result<(), GpError> {
        if x_new.len() != y_new.len() {
            return Err(GpError::BadTrainingData {
                what: "target x/y length mismatch",
            });
        }
        if x_new.iter().any(|r| r.len() != self.target_dim) {
            return Err(GpError::BadTrainingData {
                what: "ragged target rows",
            });
        }
        self.xt.extend(x_new.iter().cloned());
        self.yt.extend(y_new.iter().cloned());
        let warm_pp = self.warm_log_likelihood_per_point();
        let warm_ok = warm_pp.is_finite()
            && self.ll_per_point.is_finite()
            && warm_pp + config.warm_tol >= self.ll_per_point;
        let xt = std::mem::take(&mut self.xt);
        let yt = std::mem::take(&mut self.yt);
        let result = if warm_ok {
            self.train(&xt, &yt, config)
        } else {
            self.train_restarted(&xt, &yt, config)
        };
        self.ll_per_point = match &result {
            Ok(ll) => ll / xt.len().min(config.target_subsample).max(1) as f64,
            Err(_) => f64::NEG_INFINITY,
        };
        self.xt = xt;
        self.yt = yt;
        result.map(|_| ())
    }

    /// The stale-warm-start recovery schedule of [`KatGp::append`]: the
    /// held alignment trains as one candidate next to
    /// `config.restarts - 1` cold random inits (seeded exactly like
    /// [`KatGp::fit`]'s restarts), all fanned out order-preserving on the
    /// [`kato_par`] pool, and the best training log-likelihood wins.
    fn train_restarted(
        &mut self,
        x_t: &[Vec<f64>],
        y_t: &[f64],
        config: &KatConfig,
    ) -> Result<f64, GpError> {
        let inits: Vec<Option<u64>> = std::iter::once(None)
            .chain((0..config.restarts.max(1).saturating_sub(1) as u64).map(Some))
            .collect();
        let trained = kato_par::par_map(&inits, |&restart| {
            let mut cand = self.clone();
            if let Some(r) = restart {
                let mut init_rng = StdRng::seed_from_u64(mix_seed(config.seed, r));
                cand.enc_params = cand.encoder.init_params(&mut init_rng);
                cand.dec_params = cand.decoder.init_near_identity(&mut init_rng);
                cand.log_noise = (0.2_f64).ln();
            }
            let ll = cand.train(x_t, y_t, config)?;
            Ok::<_, GpError>((ll, cand.enc_params, cand.dec_params, cand.log_noise))
        });
        let mut best: Option<(f64, Vec<f64>, Vec<f64>, f64)> = None;
        for result in trained {
            let (ll, enc, dec, noise) = result?;
            if best.as_ref().is_none_or(|(b, ..)| ll > *b) {
                best = Some((ll, enc, dec, noise));
            }
        }
        let (best_ll, enc, dec, noise) = best.expect("restarts >= 1");
        self.enc_params = enc;
        self.dec_params = dec;
        self.log_noise = noise;
        Ok(best_ll)
    }

    /// Mean per-point training objective (Eq. 12, standardised units) of
    /// the *held* alignment over the full stored target dataset — the
    /// warm-start health check used by [`KatGp::append`].
    fn warm_log_likelihood_per_point(&self) -> f64 {
        if self.yt.is_empty() {
            return f64::NEG_INFINITY;
        }
        let sigma2 = (self.log_noise * 2.0).exp();
        let mut total = 0.0;
        let mut point = PointPass::default();
        for (x, &y) in self.xt.iter().zip(&self.yt) {
            let x_std = self.x_scaler.transform(x);
            let y_std = self.y_scaler.transform_scalar(y, 0);
            let (mu, v) = self.forward(&x_std, &mut point);
            let var_total = v + sigma2;
            let resid = mu - y_std;
            total += -0.5 * (var_total * 2.0 * std::f64::consts::PI).ln()
                - resid * resid / (2.0 * var_total);
        }
        total / self.yt.len() as f64
    }

    /// `true` when `(x, y)` is bitwise-identical to the stored raw target
    /// dataset — the precondition for treating a longer dataset as "stored
    /// data plus new rows" in [`crate::update_incremental`]. NaN never
    /// compares equal, so retro-imputed histories force the full-refit
    /// path.
    pub(crate) fn matches_prefix_raw(&self, x: &[Vec<f64>], y: &[f64]) -> bool {
        x.len() == self.xt.len()
            && y.len() == self.yt.len()
            && x.iter().zip(&self.xt).all(|(a, b)| a == b)
            && y.iter().zip(&self.yt).all(|(a, b)| a == b)
    }

    /// Number of stored target training points.
    #[must_use]
    pub fn target_len(&self) -> usize {
        self.xt.len()
    }

    /// Target input dimensionality.
    #[must_use]
    pub fn target_dim(&self) -> usize {
        self.target_dim
    }

    /// Number of source points retained in the transfer model.
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.xs_src.len()
    }

    /// Eq. 11 predictive moments `(µ_t, σ²_t)` in standardised target
    /// coordinates, **without** observation noise, leaving in `point` what
    /// the reverse sweep of [`KatLikelihoodGrad`] reads. Every value is
    /// formed by the same operations, in the same order, as the generic
    /// (test-reference) predictive forms it, so it is bitwise that value.
    fn forward(&self, x_t_std: &[f64], point: &mut PointPass) -> (f64, f64) {
        let kernel = &self.src_kernel;
        let (fd, sl) = (kernel.feat_len(), kernel.slot_len());
        let m = self.xs_src.len();
        // Encode into the source design space.
        self.encoder
            .forward_into(&self.enc_params, x_t_std, &mut point.acts);
        let u = &point.acts[point.acts.len() - self.encoder.output_dim()..];
        point.fu.clear();
        kernel.point_features(u, &mut point.fu);
        // Source GP posterior at E(x): k-vector, mean, variance.
        point.slots.resize((m + 1) * sl, 0.0);
        point.kvec.clear();
        let pairs = self
            .src_feats
            .chunks_exact(fd)
            .zip(point.slots.chunks_exact_mut(sl));
        for (fs, slot) in pairs {
            point.kvec.push(kernel.eval(&point.fu, fs, slot));
        }
        let mut mu_s = 0.0;
        for (k, a) in point.kvec.iter().zip(&self.alpha_src) {
            mu_s += k * a;
        }
        // v_s = k(u,u) − ‖L⁻¹k‖² by forward substitution.
        let l = self.chol_src.l();
        point.w.clear();
        for i in 0..m {
            let row = l.row(i);
            let mut s = point.kvec[i];
            for (wj, lij) in point.w.iter().zip(row) {
                s -= wj * lij;
            }
            point.w.push(s / row[i]);
        }
        let mut wsq = 0.0;
        for wi in &point.w {
            wsq += wi * wi;
        }
        let k_uu = kernel.eval(&point.fu, &point.fu, &mut point.slots[m * sl..]);
        point.v_diff = k_uu - wsq;
        point.v_s = point.v_diff.max(1e-10);
        // Decode with the Delta method (Eq. 11).
        point.mu_s = mu_s;
        let (mu_t, jac) = self
            .decoder
            .forward(&self.dec_params, mu_s, &mut point.dec_hidden);
        point.jac = jac;
        (mu_t, jac * jac * point.v_s)
    }

    /// The generic predictive pipeline, the test reference for
    /// [`KatGp::forward`] and (taped) for [`KatLikelihoodGrad`].
    #[cfg(test)]
    fn predictive_scalar<S: Scalar>(
        &self,
        enc_params: &[S],
        dec_params: &[S],
        x_t_std: &[S],
    ) -> (S, S) {
        let ctx = x_t_std[0];
        let u = self.encoder.forward_scalar(enc_params, x_t_std);
        let kp: Vec<S> = self.kernel_params.iter().map(|&p| ctx.lift(p)).collect();
        let m = self.xs_src.len();
        let mut kvec = Vec::with_capacity(m);
        for xs in &self.xs_src {
            let xs_l: Vec<S> = xs.iter().map(|&v| ctx.lift(v)).collect();
            kvec.push(self.kernel.eval(&kp, &u, &xs_l));
        }
        let mut mu_s = ctx.lift(0.0);
        for (k, &a) in kvec.iter().zip(&self.alpha_src) {
            mu_s = mu_s + *k * a;
        }
        let l = self.chol_src.l();
        let mut w: Vec<S> = Vec::with_capacity(m);
        for i in 0..m {
            let mut s = kvec[i];
            for (j, wj) in w.iter().enumerate().take(i) {
                s = s - *wj * l[(i, j)];
            }
            w.push(s / l[(i, i)]);
        }
        let mut wsq = ctx.lift(0.0);
        for wi in &w {
            wsq = wsq + *wi * *wi;
        }
        let k_uu = self.kernel.eval(&kp, &u, &u);
        let v_s = (k_uu - wsq).max_val(ctx.lift(1e-10));
        let (mu_t, jac) = self.decoder.forward_scalar(dec_params, mu_s);
        let v_t = jac * jac * v_s;
        (mu_t, v_t)
    }

    /// Adam loop maximising Eq. 12. Returns the best training
    /// log-likelihood encountered (the parameters the model keeps).
    fn train(&mut self, x_t: &[Vec<f64>], y_t: &[f64], config: &KatConfig) -> Result<f64, GpError> {
        let xs_std: Vec<Vec<f64>> = x_t.iter().map(|r| self.x_scaler.transform(r)).collect();
        let ys_std: Vec<f64> = y_t
            .iter()
            .map(|&v| self.y_scaler.transform_scalar(v, 0))
            .collect();
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(17));
        let idx: Vec<usize> = if xs_std.len() > config.target_subsample {
            let mut all: Vec<usize> = (0..xs_std.len()).collect();
            all.shuffle(&mut rng);
            all.truncate(config.target_subsample);
            all
        } else {
            (0..xs_std.len()).collect()
        };

        let n_enc = self.enc_params.len();
        let n_dec = self.dec_params.len();
        let n_params = n_enc + n_dec + 1;
        let mut opt = Adam::new(n_params, config.lr);
        let mut best = (
            f64::NEG_INFINITY,
            self.enc_params.clone(),
            self.dec_params.clone(),
            self.log_noise,
        );
        let mut pass = KatLikelihoodGrad::new(self);
        let mut g = vec![0.0; n_params];

        for _ in 0..config.train_iters {
            let ll_val = pass.run(self, &xs_std, &ys_std, &idx, &mut g);
            if ll_val.is_finite() && ll_val > best.0 {
                best = (
                    ll_val,
                    self.enc_params.clone(),
                    self.dec_params.clone(),
                    self.log_noise,
                );
            }
            for gi in g.iter_mut() {
                *gi = -*gi; // ascend
            }
            let _ = clip_gradients(&mut g, config.grad_clip);
            let mut theta: Vec<f64> = self
                .enc_params
                .iter()
                .chain(&self.dec_params)
                .copied()
                .chain(std::iter::once(self.log_noise))
                .collect();
            opt.step(&mut theta, &g);
            self.log_noise = theta[n_params - 1].clamp(-6.0, 2.0);
            self.enc_params = theta[..n_enc].to_vec();
            self.dec_params = theta[n_enc..n_enc + n_dec].to_vec();
            for p in self.enc_params.iter_mut().chain(&mut self.dec_params) {
                *p = p.clamp(-20.0, 20.0);
            }
        }
        let best_ll = best.0;
        if best_ll > f64::NEG_INFINITY {
            self.enc_params = best.1;
            self.dec_params = best.2;
            self.log_noise = best.3;
        }
        Ok(best_ll)
    }

    /// Archive-alignment score: mean Gaussian predictive log-likelihood of
    /// `(xs, ys)` under this fitted alignment, observation noise included.
    ///
    /// This is the quantity the knowledge bank uses to rank candidate
    /// source archives for a new sizing request — fit a cheap [`KatGp`]
    /// from each candidate onto the same probe dataset and keep the
    /// best-scoring one. Higher is better; non-finite targets are skipped
    /// (a probe row from a broken simulation carries no alignment signal).
    /// Returns `f64::NEG_INFINITY` when no finite pair remains.
    ///
    /// The per-point variance is floored at 1% of the training-data
    /// variance: an alignment trained on a handful of probe points is
    /// routinely *overconfident* (Delta-method variance through a
    /// confident source GP plus a noise term fitted on few residuals), and
    /// without the floor an accurate-but-overconfident alignment scores
    /// below a vague-but-calibrated one — the opposite of what archive
    /// ranking needs. The floor keeps the score accuracy-dominated.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the target dimensionality.
    #[must_use]
    pub fn mean_log_likelihood(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        let scale = self.y_scaler.scale(0);
        let noise_raw = (self.log_noise * 2.0).exp() * scale * scale;
        let var_floor = 0.01 * scale * scale;
        let mut total = 0.0;
        let mut n = 0usize;
        for (x, &y) in xs.iter().zip(ys) {
            if !y.is_finite() {
                continue;
            }
            let (mu, var) = self.predict(x);
            let var_total = (var + noise_raw).max(var_floor).max(1e-12);
            let resid = y - mu;
            let ll = -0.5 * (var_total * 2.0 * std::f64::consts::PI).ln()
                - resid * resid / (2.0 * var_total);
            if ll.is_finite() {
                total += ll;
                n += 1;
            }
        }
        if n == 0 {
            f64::NEG_INFINITY
        } else {
            total / n as f64
        }
    }

    /// Posterior mean and variance at a raw target design vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the target dimensionality.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.target_dim, "KAT predict: dimension mismatch");
        let x_std = self.x_scaler.transform(x);
        let (m, v) = self.forward(&x_std, &mut PointPass::default());
        let s = self.y_scaler.scale(0);
        (self.y_scaler.inverse_scalar(m, 0), (v * s * s).max(1e-12))
    }

    /// Posterior mean and variance at every query point — the batched form
    /// of [`KatGp::predict`].
    ///
    /// Encoding and kernel cross-rows fan out over the [`kato_par`] pool
    /// (with per-point features hoisted via
    /// [`crate::KernelSpec::prepare`]), then the frozen source Cholesky factor is
    /// applied to all queries in one batched triangular solve before the
    /// Delta-method decode. Agrees with the point-wise path to
    /// floating-point re-association error (≪ 1e-10).
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from the target dimensionality.
    #[must_use]
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if xs.is_empty() {
            return Vec::new();
        }
        let m = self.xs_src.len();
        let encoded: Vec<Vec<f64>> = kato_par::par_map(xs, |x| {
            assert_eq!(
                x.len(),
                self.target_dim,
                "KAT predict_batch: dimension mismatch"
            );
            let x_std = self.x_scaler.transform(x);
            self.encoder.forward(&self.enc_params, &x_std)
        });
        let train = self.kernel.prepare(&self.kernel_params, &self.xs_src);
        let query = self.kernel.prepare(&self.kernel_params, &encoded);
        let idx: Vec<usize> = (0..encoded.len()).collect();
        let kvecs: Vec<Vec<f64>> = kato_par::par_map(&idx, |&j| {
            (0..m).map(|i| query.eval(j, &train, i)).collect()
        });
        let kmat = Matrix::from_fn(m, encoded.len(), |i, j| kvecs[j][i]);
        let w = self.chol_src.forward_sub_matrix(&kmat);
        let s = self.y_scaler.scale(0);
        let mut hidden = Vec::new();
        idx.iter()
            .map(|&j| {
                let mu_s = kato_linalg::dot(&kvecs[j], &self.alpha_src);
                let mut wsq = 0.0;
                for i in 0..m {
                    wsq += w[(i, j)] * w[(i, j)];
                }
                let v_s = (query.eval(j, &query, j) - wsq).max(1e-10);
                let (mu_t, jac) = self.decoder.forward(&self.dec_params, mu_s, &mut hidden);
                let v_t = jac * jac * v_s;
                (
                    self.y_scaler.inverse_scalar(mu_t, 0),
                    (v_t * s * s).max(1e-12),
                )
            })
            .collect()
    }
}

/// The frozen source's noiseless Gram matrix, every entry `(i, j)`
/// evaluated in that orientation from the points' features.
fn source_gram(kernel: &ExactKernel, feats: &[f64], m: usize) -> Matrix {
    let fd = kernel.feat_len();
    let mut slot = vec![0.0; kernel.slot_len()];
    Matrix::from_fn(m, m, |i, j| {
        kernel.eval(
            &feats[i * fd..(i + 1) * fd],
            &feats[j * fd..(j + 1) * fd],
            &mut slot,
        )
    })
}

/// What [`KatGp::forward`] leaves of one target point for the reverse
/// sweep; reused from point to point.
#[derive(Debug, Default)]
struct PointPass {
    /// Encoder activations: the input, the hidden layer, `u = E(x)` last.
    acts: Vec<f64>,
    /// Kernel features of `u`.
    fu: Vec<f64>,
    /// One kernel slot per source pair `k(u, x_s)`, then `k(u, u)`'s.
    slots: Vec<f64>,
    /// `k(u, x_s)` per source point.
    kvec: Vec<f64>,
    /// `L⁻¹k` by forward substitution.
    w: Vec<f64>,
    /// `k(u, u) − ‖L⁻¹k‖²` before the `1e-10` floor.
    v_diff: f64,
    /// The floored source variance.
    v_s: f64,
    /// The source mean, the decoder's input.
    mu_s: f64,
    /// Decoder hidden activations and its input derivative `D'(µ_s)`.
    dec_hidden: Vec<f64>,
    jac: f64,
}

/// The Eq. 12 training pass of [`KatGp`]: the summed Gaussian
/// log-likelihood of the target points and its gradient with respect to
/// the encoder, the decoder and the log-noise, with no tape recorded.
///
/// Taped, the objective is built point after point as
/// `total += ll(point)`, so the tape's sweep meets the points last to first
/// and, within a point, each node in reverse creation order. This pass
/// runs each point's forward sweep ([`KatGp::forward`]) and reverse sweep
/// back to back, last point first, and forms every adjoint as the tape
/// forms it: the same partials (`adj·(1/v)`, `x·-1.0` rather than `-x`),
/// contributions to a shared value in the tape's order, and nodes with a
/// zero adjoint skipped. The loss and every gradient component therefore
/// equal the tape's bit for bit. The shared `σ² = exp(2·log_noise)` sums
/// its adjoint over all points and hands it to the log-noise once, last.
#[derive(Debug, Default)]
struct KatLikelihoodGrad {
    point: PointPass,
    /// `1/L_ii` of the frozen source factor, the forward substitution's
    /// partials.
    inv_diag: Vec<f64>,
    /// Per-point log-likelihoods, summed in point order at the end.
    lls: Vec<f64>,
    adj_u: Vec<f64>,
    adj_k: Vec<f64>,
    adj_w: Vec<f64>,
    adj_acts: Vec<f64>,
}

// The reverse sweep multiplies by the tape's partial `-1.0` rather than
// negating, as the kernel sweeps do.
#[allow(clippy::neg_multiply)]
impl KatLikelihoodGrad {
    fn new(kat: &KatGp) -> Self {
        let l = kat.chol_src.l();
        KatLikelihoodGrad {
            inv_diag: (0..l.rows()).map(|i| 1.0 / l[(i, i)]).collect(),
            ..KatLikelihoodGrad::default()
        }
    }

    /// The Eq. 12 objective over the standardised targets `idx` at the
    /// current alignment of `kat`; its gradient, laid out as
    /// `[encoder, decoder, log_noise]`, overwrites `grad`.
    fn run(
        &mut self,
        kat: &KatGp,
        xs_std: &[Vec<f64>],
        ys_std: &[f64],
        idx: &[usize],
        grad: &mut [f64],
    ) -> f64 {
        grad.fill(0.0);
        let sigma2 = (kat.log_noise * 2.0).exp();
        let mut adj_sigma2 = 0.0;
        self.lls.clear();
        self.lls.resize(idx.len(), 0.0);
        for (at, &i) in idx.iter().enumerate().rev() {
            let (mu, v) = kat.forward(&xs_std[i], &mut self.point);
            let var_total = v + sigma2;
            let resid = mu - ys_std[i];
            self.lls[at] = -(var_total * (2.0 * std::f64::consts::PI)).ln() * 0.5
                - resid * resid / (var_total * 2.0);
            let (adj_mu, adj_v) = ll_backward(var_total, resid);
            if adj_v != 0.0 {
                adj_sigma2 += adj_v;
            }
            self.point_backward(kat, (adj_mu, adj_v), grad);
        }
        // σ² = exp(log_noise·2)
        if adj_sigma2 != 0.0 {
            let adj_arg = adj_sigma2 * sigma2;
            if adj_arg != 0.0 {
                grad[grad.len() - 1] += adj_arg * 2.0;
            }
        }
        let mut total = 0.0;
        for ll in &self.lls {
            total += ll;
        }
        total
    }

    /// Reverse sweep of one point's predictive from the adjoints of its
    /// `(µ_t, σ²_t)`: decoder, source variance and mean, kernel vector,
    /// encoder.
    fn point_backward(&mut self, kat: &KatGp, (adj_mu_t, adj_v_t): (f64, f64), grad: &mut [f64]) {
        let pt = &self.point;
        let kernel = &kat.src_kernel;
        let (fd, sl) = (kernel.feat_len(), kernel.slot_len());
        let m = kat.xs_src.len();
        let n_enc = kat.enc_params.len();
        let (enc_grad, rest) = grad.split_at_mut(n_enc);
        // v_t = (jac·jac)·v_s
        let (mut adj_jj, mut adj_vs) = (0.0, 0.0);
        if adj_v_t != 0.0 {
            adj_jj = adj_v_t * pt.v_s;
            adj_vs = adj_v_t * (pt.jac * pt.jac);
        }
        let mut adj_jac = 0.0;
        if adj_jj != 0.0 {
            adj_jac += adj_jj * pt.jac;
            adj_jac += adj_jj * pt.jac;
        }
        let adj_mu_s = kat.decoder.backward(
            &kat.dec_params,
            pt.mu_s,
            &pt.dec_hidden,
            (adj_mu_t, adj_jac),
            rest,
        );
        // v_s = max(k(u,u) − ‖w‖², 1e-10): the floor takes the adjoint.
        let mut adj_diff = 0.0;
        if adj_vs != 0.0 {
            adj_diff = adj_vs * if pt.v_diff >= 1e-10 { 1.0 } else { 0.0 };
        }
        self.adj_u.clear();
        self.adj_u.resize(kat.encoder.output_dim(), 0.0);
        let mut adj_wsq = 0.0;
        if adj_diff != 0.0 {
            adj_wsq = adj_diff * -1.0;
            let slot = &pt.slots[m * sl..];
            kernel.backward_first((&pt.fu, &pt.fu), slot, adj_diff, true, &mut self.adj_u);
        }
        // ‖w‖² = Σ w_i·w_i
        self.adj_w.clear();
        self.adj_w.resize(m, 0.0);
        if adj_wsq != 0.0 {
            for (a, &wi) in self.adj_w.iter_mut().zip(&pt.w) {
                *a += adj_wsq * wi;
                *a += adj_wsq * wi;
            }
        }
        // w = L⁻¹k: the forward substitution's reverse is a
        // back-substitution, last row first. Row i's running sum carries
        // one adjoint down to k_i and hands each earlier w_j its share.
        self.adj_k.clear();
        self.adj_k.resize(m, 0.0);
        let l = kat.chol_src.l();
        for i in (0..m).rev() {
            if self.adj_w[i] == 0.0 {
                continue;
            }
            let adj_s = self.adj_w[i] * self.inv_diag[i];
            if adj_s == 0.0 {
                continue;
            }
            let adj_sub = adj_s * -1.0;
            let (done, _) = self.adj_w.split_at_mut(i);
            for (a, lij) in done.iter_mut().zip(l.row(i)).rev() {
                *a += adj_sub * lij;
            }
            self.adj_k[i] = adj_s;
        }
        // µ_s = Σ k_j·α_j
        if adj_mu_s != 0.0 {
            for (a, &alpha) in self.adj_k.iter_mut().zip(&kat.alpha_src) {
                *a += adj_mu_s * alpha;
            }
        }
        // k(u, x_s), last source point first, into u.
        let pairs = kat
            .src_feats
            .chunks_exact(fd)
            .zip(pt.slots.chunks_exact(sl));
        for ((fs, slot), &adj) in pairs.zip(&self.adj_k).rev() {
            kernel.backward_first((&pt.fu, fs), slot, adj, false, &mut self.adj_u);
        }
        kat.encoder.backward(
            &kat.enc_params,
            &pt.acts,
            &self.adj_u,
            enc_grad,
            &mut self.adj_acts,
        );
    }
}

/// Reverse sweep of one Eq. 12 term, taped as
/// `ll = −ln(v·2π)·0.5 − r·r/(v·2)` with `v = σ²_t + σ²` and `r = µ_t − y`
/// and seeded `1.0`: returns the adjoints `(µ_t, v)`. `v`'s adjoint is
/// also what `σ²_t` and the shared `σ²` each receive.
fn ll_backward(var_total: f64, resid: f64) -> (f64, f64) {
    let two_pi = 2.0 * std::f64::consts::PI;
    let (v_2pi, r_sq, v_2) = (var_total * two_pi, resid * resid, var_total * 2.0);
    // The quotient r_sq/v_2 is subtracted: it hears −1.0.
    let adj_q = -1.0;
    let adj_r_sq = adj_q * (1.0 / v_2);
    let adj_v_2 = adj_q * (-r_sq / (v_2 * v_2));
    let mut adj_v = 0.0;
    if adj_v_2 != 0.0 {
        adj_v += adj_v_2 * 2.0;
    }
    let mut adj_r = 0.0;
    if adj_r_sq != 0.0 {
        adj_r += adj_r_sq * resid;
        adj_r += adj_r_sq * resid;
    }
    // −ln(v_2pi)·0.5: the log hears 0.5·−1.0.
    let adj_ln = -0.5;
    let adj_v_2pi = adj_ln * (1.0 / v_2pi);
    if adj_v_2pi != 0.0 {
        adj_v += adj_v_2pi * two_pi;
    }
    (adj_r, adj_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpConfig;

    /// Source: y = sin(5x); target: y = 2·sin(5(x+0.1)) + 1 in a 1-D space —
    /// aligned by a shift (encoder) and an affine map (decoder).
    fn make_source() -> Gp {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin()).collect();
        Gp::fit(KernelSpec::ard_rbf(1), &xs, &ys, &GpConfig::fast()).unwrap()
    }

    fn target_fn(x: f64) -> f64 {
        2.0 * (5.0 * (x + 0.1)).sin() + 1.0
    }

    #[test]
    fn scalar_mlp_derivative_matches_finite_difference() {
        let mlp = ScalarMlp::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let params = mlp.init_params(&mut rng);
        let hidden = &mut Vec::new();
        for &x in &[-1.0, 0.0, 0.7] {
            let (_, dy) = mlp.forward(&params, x, hidden);
            let h = 1e-6;
            let (yp, _) = mlp.forward(&params, x + h, hidden);
            let (ym, _) = mlp.forward(&params, x - h, hidden);
            let fd = (yp - ym) / (2.0 * h);
            assert!((dy - fd).abs() < 1e-6, "x={x}: {dy} vs {fd}");
        }
    }

    #[test]
    fn near_identity_init_is_roughly_identity() {
        let mlp = ScalarMlp::new(32);
        let mut rng = StdRng::seed_from_u64(9);
        let params = mlp.init_near_identity(&mut rng);
        let (y0, _) = mlp.forward(&params, 0.0, &mut Vec::new());
        let (y1, _) = mlp.forward(&params, 1.0, &mut Vec::new());
        // Slope within a factor ~3 of identity is enough as a starting point.
        let slope = y1 - y0;
        assert!(slope > 0.2 && slope < 3.0, "slope {slope}");
    }

    #[test]
    fn kat_learns_affine_alignment() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0 * 0.8]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        // Interpolation inside the target data range must be decent.
        let mut mse = 0.0;
        for i in 0..10 {
            let x = 0.05 + 0.07 * i as f64;
            let (m, _) = kat.predict(&[x]);
            mse += (m - target_fn(x)).powi(2);
        }
        mse /= 10.0;
        assert!(mse < 0.5, "KAT alignment mse {mse}");
    }

    #[test]
    fn kat_variance_is_positive_and_finite() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        for i in 0..20 {
            let (m, v) = kat.predict(&[i as f64 / 19.0]);
            assert!(m.is_finite() && v.is_finite() && v > 0.0);
        }
    }

    #[test]
    fn kat_bridges_different_dimensions() {
        // Target space is 3-D; only the first coordinate matters. The
        // encoder must learn the 3→1 compression.
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..25)
            .map(|i| {
                let t = i as f64 / 24.0;
                vec![t, (t * 7.0).cos() * 0.5, 0.3]
            })
            .collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        assert_eq!(kat.target_dim(), 3);
        let (m, _) = kat.predict(&[0.5, (0.5_f64 * 7.0).cos() * 0.5, 0.3]);
        assert!((m - target_fn(0.5)).abs() < 1.0, "pred {m}");
    }

    #[test]
    fn training_improves_fit() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let short = KatGp::fit(
            &source,
            &x_t,
            &y_t,
            &KatConfig {
                train_iters: 1,
                ..KatConfig::fast()
            },
        )
        .unwrap();
        let long = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let mse = |k: &KatGp| -> f64 {
            x_t.iter()
                .zip(&y_t)
                .map(|(x, y)| (k.predict(x).0 - y).powi(2))
                .sum::<f64>()
                / x_t.len() as f64
        };
        assert!(
            mse(&long) <= mse(&short) * 1.2 + 1e-9,
            "long {} vs short {}",
            mse(&long),
            mse(&short)
        );
    }

    #[test]
    fn predict_batch_matches_pointwise() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..14).map(|i| vec![i as f64 / 13.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let queries: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 10.0 - 0.4]).collect();
        let batch = kat.predict_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, &(bm, bv)) in queries.iter().zip(&batch) {
            let (m, v) = kat.predict(q);
            assert!(
                (m - bm).abs() <= 1e-10 * (1.0 + m.abs()),
                "mean {m} vs {bm}"
            );
            assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()), "var {v} vs {bv}");
        }
        assert!(kat.predict_batch(&[]).is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_predict_batch_matches_pointwise(
            qs in proptest::collection::vec(-0.5..1.5f64, 1..10),
        ) {
            let source = make_source();
            let x_t: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
            let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
            // The match property holds for any parameters; a one-iteration
            // fit keeps the 64 proptest cases cheap.
            let cfg = KatConfig { train_iters: 1, restarts: 1, ..KatConfig::fast() };
            let kat = KatGp::fit(&source, &x_t, &y_t, &cfg).unwrap();
            let queries: Vec<Vec<f64>> = qs.iter().map(|&q| vec![q]).collect();
            let batch = kat.predict_batch(&queries);
            for (q, &(bm, bv)) in queries.iter().zip(&batch) {
                let (m, v) = kat.predict(q);
                proptest::prop_assert!((m - bm).abs() <= 1e-10 * (1.0 + m.abs()));
                proptest::prop_assert!((v - bv).abs() <= 1e-10 * (1.0 + v.abs()));
            }
        }
    }

    #[test]
    fn alignment_score_prefers_the_aligned_source() {
        // Probe data drawn from the target function: a KAT-GP aligned to it
        // must out-score one aligned to unrelated data, and non-finite
        // probe rows must be skipped rather than poisoning the mean.
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 15.0]).collect();
        let y_good: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let y_bad: Vec<f64> = x_t.iter().map(|x| (40.0 * x[0]).tan()).collect();
        let good = KatGp::fit(&source, &x_t, &y_good, &KatConfig::fast()).unwrap();
        let bad = KatGp::fit(&source, &x_t, &y_bad, &KatConfig::fast()).unwrap();
        let probe_x: Vec<Vec<f64>> = (0..8).map(|i| vec![0.05 + i as f64 / 9.0]).collect();
        let probe_y: Vec<f64> = probe_x.iter().map(|x| target_fn(x[0])).collect();
        let s_good = good.mean_log_likelihood(&probe_x, &probe_y);
        let s_bad = bad.mean_log_likelihood(&probe_x, &probe_y);
        assert!(s_good.is_finite() && s_bad.is_finite());
        assert!(s_good > s_bad, "good {s_good} vs bad {s_bad}");
        // NaN probe rows are skipped, not propagated.
        let mut probe_y_nan = probe_y.clone();
        probe_y_nan[0] = f64::NAN;
        assert!(good.mean_log_likelihood(&probe_x, &probe_y_nan).is_finite());
        // Nothing finite → −∞ sentinel.
        assert_eq!(
            good.mean_log_likelihood(&probe_x, &vec![f64::NAN; probe_x.len()]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn append_warm_path_runs_single_warm_started_pass() {
        // A generous tolerance selects the restarts→1 branch: exactly one
        // training pass on the grown data, warm-started from the held
        // alignment — bitwise-reproducible by running that pass by hand.
        // (KAT-GP never skips training outright: its posterior sees target
        // data only through the alignment, so append must always train.)
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let mut kat = KatGp::fit(&source, &x_t[..16], &y_t[..16], &KatConfig::fast()).unwrap();
        let cfg = KatConfig {
            warm_tol: 10.0,
            ..KatConfig::fast()
        };
        let mut manual = kat.clone();
        kat.append(&x_t[16..], &y_t[16..], &cfg).unwrap();
        assert_eq!(kat.target_len(), 20);
        let ll = manual.train(&x_t, &y_t, &cfg).unwrap();
        assert_eq!(kat.enc_params, manual.enc_params, "warm pass must match");
        assert_eq!(kat.dec_params, manual.dec_params);
        assert_eq!(
            kat.ll_per_point,
            ll / x_t.len().min(cfg.target_subsample).max(1) as f64
        );
        let (m, _) = kat.predict(&[0.5]);
        assert!(m.is_finite());
    }

    #[test]
    fn warm_started_retraining_is_no_worse_than_cold() {
        // The satellite guarantee: a single warm-started training pass
        // (restarts→1, held alignment as init) must not end up worse than
        // the cold restart schedule on the same grown dataset. Scored with
        // mean_log_likelihood, which is already in raw-y units and hence
        // comparable across the two models' different scalers.
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..22).map(|i| vec![i as f64 / 21.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let cfg = KatConfig::fast();
        let mut warm = KatGp::fit(&source, &x_t[..16], &y_t[..16], &cfg).unwrap();
        warm.append(
            &x_t[16..],
            &y_t[16..],
            &KatConfig {
                warm_tol: f64::NEG_INFINITY,
                ..cfg.clone()
            },
        )
        .unwrap();
        let cold = KatGp::fit(&source, &x_t, &y_t, &cfg).unwrap();
        let s_warm = warm.mean_log_likelihood(&x_t, &y_t);
        let s_cold = cold.mean_log_likelihood(&x_t, &y_t);
        // The two models hold different y-scalers (warm froze the prefix
        // statistics), so their mean_log_likelihood variance floors differ
        // slightly; 0.05 per point absorbs that parametrisation noise while
        // still failing on any real regression of the warm path (a lost
        // alignment shows up as whole units of log-likelihood).
        assert!(s_warm >= s_cold - 0.05, "warm {s_warm} vs cold {s_cold}");
    }

    #[test]
    fn append_rejects_ragged_rows() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let mut kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let r = kat.append(&[vec![0.1, 0.2]], &[1.0], &KatConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn rejects_empty_target() {
        let source = make_source();
        let r = KatGp::fit(&source, &[], &[], &KatConfig::fast());
        assert!(matches!(r, Err(GpError::BadTrainingData { .. })));
    }

    #[test]
    fn refit_warm_start() {
        let source = make_source();
        let x_t: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y_t: Vec<f64> = x_t.iter().map(|x| target_fn(x[0])).collect();
        let mut kat = KatGp::fit(&source, &x_t, &y_t, &KatConfig::fast()).unwrap();
        let x2: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 15.0]).collect();
        let y2: Vec<f64> = x2.iter().map(|x| target_fn(x[0])).collect();
        kat.refit(
            &x2,
            &y2,
            &KatConfig {
                train_iters: 5,
                ..KatConfig::fast()
            },
        )
        .unwrap();
        let (m, _) = kat.predict(&[0.5]);
        assert!(m.is_finite());
    }

    // ---- The hand-written Eq. 12 pass against the tape, bit for bit ----

    use crate::{NeukSpec, PrimitiveKernel};
    use kato_autodiff::Tape;
    use rand::Rng;

    fn equivalence_sources() -> Vec<KernelSpec> {
        vec![
            KernelSpec::ard_rbf(3),
            KernelSpec::Neuk(NeukSpec::standard(3)),
            KernelSpec::Neuk(NeukSpec {
                input_dim: 3,
                latent_dim: 2,
                primitives: vec![
                    PrimitiveKernel::Rbf,
                    PrimitiveKernel::RationalQuadratic,
                    PrimitiveKernel::Periodic,
                    PrimitiveKernel::Matern52,
                ],
                mix_dim: 3,
            }),
        ]
    }

    fn random_rows(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.5..1.5)).collect())
            .collect()
    }

    /// A 3-D source GP and a 2-D target aligned to it with one cheap step.
    fn equivalence_kat(spec: &KernelSpec, seed: u64) -> (Gp, KatGp) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = random_rows(14, 3, &mut rng);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (2.0 * x[0]).sin() + x[1] * x[2])
            .collect();
        let gp_cfg = GpConfig {
            train_iters: 6,
            ..GpConfig::fast()
        };
        let source = Gp::fit(spec.clone(), &xs, &ys, &gp_cfg).unwrap();
        let x_t = random_rows(10, 2, &mut rng);
        let y_t: Vec<f64> = x_t.iter().map(|x| 3.0 * x[0] - x[1]).collect();
        let cfg = KatConfig {
            train_iters: 1,
            restarts: 1,
            ..KatConfig::fast()
        };
        let kat = KatGp::fit(&source, &x_t, &y_t, &cfg).unwrap();
        (source, kat)
    }

    /// The reference: the Eq. 12 objective over `idx`, taped node by node
    /// through the generic predictive, and one reverse sweep.
    fn taped_loss(
        kat: &KatGp,
        xs_std: &[Vec<f64>],
        ys_std: &[f64],
        idx: &[usize],
    ) -> (f64, Vec<f64>) {
        let tape = Tape::new();
        let enc_vars: Vec<_> = kat.enc_params.iter().map(|&p| tape.var(p)).collect();
        let dec_vars: Vec<_> = kat.dec_params.iter().map(|&p| tape.var(p)).collect();
        let noise_var = tape.var(kat.log_noise);
        let sigma2 = (noise_var * 2.0).exp();
        let mut total = tape.constant(0.0);
        for &i in idx {
            let x_vars: Vec<_> = xs_std[i].iter().map(|&v| tape.constant(v)).collect();
            let (mu, v) = kat.predictive_scalar(&enc_vars, &dec_vars, &x_vars);
            let var_total = v + sigma2;
            let resid = mu - ys_std[i];
            let ll = -(var_total * (2.0 * std::f64::consts::PI)).ln() * 0.5
                - resid * resid / (var_total * 2.0);
            total = total + ll;
        }
        let grads = tape.backward(total);
        let g = enc_vars
            .iter()
            .chain(&dec_vars)
            .chain(std::iter::once(&noise_var))
            .map(|v| grads.wrt(*v))
            .collect();
        (total.value(), g)
    }

    fn assert_pass_matches_tape(
        kat: &KatGp,
        xs_std: &[Vec<f64>],
        ys_std: &[f64],
        idx: &[usize],
        what: &str,
    ) {
        let (want_ll, want) = taped_loss(kat, xs_std, ys_std, idx);
        let mut pass = KatLikelihoodGrad::new(kat);
        let mut got = vec![f64::NAN; want.len()];
        // Twice through one pass: its buffers carry nothing over.
        for round in 0..2 {
            let ll = pass.run(kat, xs_std, ys_std, idx, &mut got);
            assert_eq!(
                ll.to_bits(),
                want_ll.to_bits(),
                "{what}: loss {ll:e} vs tape {want_ll:e}"
            );
            for (p, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{what} round {round}: ∂/∂θ[{p}] pass {g:e} vs tape {w:e}"
                );
            }
        }
    }

    /// Alignment parameters: random inits, the near-identity decoder and
    /// both ends of the ±20 / log-noise [−6, 2] training clamps.
    fn alignment_cases(kat: &KatGp, seed: u64) -> Vec<(Vec<f64>, Vec<f64>, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n_enc, n_dec) = (kat.enc_params.len(), kat.dec_params.len());
        let alternate = |n: usize, v: f64| -> Vec<f64> {
            (0..n).map(|p| if p % 2 == 0 { v } else { -v }).collect()
        };
        vec![
            (
                kat.enc_params.clone(),
                kat.dec_params.clone(),
                kat.log_noise,
            ),
            (
                kat.encoder.init_params(&mut rng),
                kat.decoder.init_params(&mut rng),
                0.2_f64.ln(),
            ),
            (
                kat.encoder.init_params(&mut rng),
                kat.decoder.init_near_identity(&mut rng),
                -1.3,
            ),
            (
                (0..n_enc).map(|_| rng.gen_range(-20.0..=20.0)).collect(),
                (0..n_dec).map(|_| rng.gen_range(-20.0..=20.0)).collect(),
                0.4,
            ),
            (alternate(n_enc, 20.0), alternate(n_dec, 20.0), -6.0),
            (vec![20.0; n_enc], vec![-20.0; n_dec], 2.0),
            (vec![-20.0; n_enc], vec![20.0; n_dec], -6.0),
        ]
    }

    #[test]
    fn kat_pass_matches_tape_bitwise() {
        for (s, spec) in equivalence_sources().iter().enumerate() {
            let (_, mut kat) = equivalence_kat(spec, 50 + s as u64);
            let mut rng = StdRng::seed_from_u64(60 + s as u64);
            // Duplicate target rows (and a duplicated target value), and
            // the points visited in a shuffled order as a subsample is.
            let mut xs_std = random_rows(7, 2, &mut rng);
            xs_std.push(xs_std[2].clone());
            xs_std.insert(4, xs_std[0].clone());
            let ys_std: Vec<f64> = (0..xs_std.len())
                .map(|i| {
                    if i == 4 {
                        0.25
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let mut idx: Vec<usize> = (0..xs_std.len()).collect();
            idx.shuffle(&mut rng);
            for (c, (enc, dec, noise)) in
                alignment_cases(&kat, 70 + s as u64).into_iter().enumerate()
            {
                kat.enc_params = enc;
                kat.dec_params = dec;
                kat.log_noise = noise;
                let what = format!("source {s} case {c}");
                assert_pass_matches_tape(&kat, &xs_std, &ys_std, &idx, &what);
            }
        }
    }

    #[test]
    fn kat_pass_matches_tape_across_the_variance_floor() {
        // An ARD source whose prior variance sits just above the 1e-10
        // floor: a target that encodes exactly onto a source point has its
        // posterior variance floored (the floor takes the adjoint, the
        // kernel vector gets none through the variance), one encoded
        // farther away does not.
        let (source, mut kat) = equivalence_kat(&KernelSpec::ard_rbf(3), 80);
        let mut kp = kat.kernel_params.clone();
        kp[0] = 1.005e-10_f64.ln();
        kat.src_kernel = ExactKernel::new(&kat.kernel, &kp);
        kat.kernel_params = kp;
        kat.src_kernel.features(&kat.xs_src, &mut kat.src_feats);
        let mut gram = source_gram(&kat.src_kernel, &kat.src_feats, kat.xs_src.len());
        gram.add_diagonal(1e-8);
        kat.chol_src = CholeskyFactor::new(&gram).unwrap();
        // Encoder: u = x_s0 + σ(20·x_0)·(0.7, −0.4, 0.9), so x_0 = −40
        // encodes exactly onto x_s0.
        let (d_in, hidden) = (2, 32);
        let mut enc = vec![0.0; kat.enc_params.len()];
        enc[0] = 20.0;
        let w2_at = d_in * hidden + hidden;
        for (o, step) in [0.7, -0.4, 0.9].iter().enumerate() {
            enc[w2_at + o * hidden] = *step;
        }
        let b2_at = w2_at + 3 * hidden;
        enc[b2_at..].copy_from_slice(&source.xs_std()[0]);
        kat.enc_params = enc;
        let xs_std = vec![
            vec![-40.0, 0.3],
            vec![1.5, -0.2],
            vec![-40.0, -1.1],
            vec![0.8, 0.9],
        ];
        let ys_std = vec![0.4, -0.6, 1.2, 0.1];
        let idx = vec![0, 1, 2, 3];
        let mut floored = Vec::new();
        let mut point = PointPass::default();
        for x in &xs_std {
            kat.forward(x, &mut point);
            floored.push(point.v_diff < 1e-10);
        }
        assert_eq!(
            floored,
            [true, false, true, false],
            "floor branches not both hit"
        );
        for (c, (_, dec, noise)) in alignment_cases(&kat, 90).into_iter().enumerate() {
            kat.dec_params = dec;
            kat.log_noise = noise;
            assert_pass_matches_tape(&kat, &xs_std, &ys_std, &idx, &format!("floor case {c}"));
        }
    }

    /// The former taped training loop, kept as the reference for
    /// [`KatGp::train`]: same subsample, Adam, clip and clamps.
    fn taped_train(kat: &mut KatGp, x_t: &[Vec<f64>], y_t: &[f64], config: &KatConfig) -> f64 {
        let xs_std: Vec<Vec<f64>> = x_t.iter().map(|r| kat.x_scaler.transform(r)).collect();
        let ys_std: Vec<f64> = y_t
            .iter()
            .map(|&v| kat.y_scaler.transform_scalar(v, 0))
            .collect();
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(17));
        let idx: Vec<usize> = if xs_std.len() > config.target_subsample {
            let mut all: Vec<usize> = (0..xs_std.len()).collect();
            all.shuffle(&mut rng);
            all.truncate(config.target_subsample);
            all
        } else {
            (0..xs_std.len()).collect()
        };
        let (n_enc, n_dec) = (kat.enc_params.len(), kat.dec_params.len());
        let n_params = n_enc + n_dec + 1;
        let mut opt = Adam::new(n_params, config.lr);
        let mut best = (
            f64::NEG_INFINITY,
            kat.enc_params.clone(),
            kat.dec_params.clone(),
            kat.log_noise,
        );
        for _ in 0..config.train_iters {
            let (ll, mut g) = taped_loss(kat, &xs_std, &ys_std, &idx);
            if ll.is_finite() && ll > best.0 {
                best = (
                    ll,
                    kat.enc_params.clone(),
                    kat.dec_params.clone(),
                    kat.log_noise,
                );
            }
            for gi in g.iter_mut() {
                *gi = -*gi;
            }
            let _ = clip_gradients(&mut g, config.grad_clip);
            let mut theta: Vec<f64> = kat
                .enc_params
                .iter()
                .chain(&kat.dec_params)
                .copied()
                .chain(std::iter::once(kat.log_noise))
                .collect();
            opt.step(&mut theta, &g);
            kat.log_noise = theta[n_params - 1].clamp(-6.0, 2.0);
            kat.enc_params = theta[..n_enc].to_vec();
            kat.dec_params = theta[n_enc..n_enc + n_dec].to_vec();
            for p in kat.enc_params.iter_mut().chain(&mut kat.dec_params) {
                *p = p.clamp(-20.0, 20.0);
            }
        }
        if best.0 > f64::NEG_INFINITY {
            kat.enc_params = best.1;
            kat.dec_params = best.2;
            kat.log_noise = best.3;
        }
        best.0
    }

    #[test]
    fn training_matches_taped_training_bitwise() {
        // Whole Adam runs — a cold restart's init and the warm pass
        // `append` takes — subsampled, land on the same bits.
        let cfg = KatConfig {
            train_iters: 4,
            target_subsample: 9,
            ..KatConfig::fast()
        };
        for (s, spec) in equivalence_sources().iter().enumerate() {
            let (_, kat) = equivalence_kat(spec, 100 + s as u64);
            let mut rng = StdRng::seed_from_u64(110 + s as u64);
            let x_t = random_rows(12, 2, &mut rng);
            let y_t: Vec<f64> = x_t.iter().map(|x| x[0] * x[1] - 0.5).collect();
            let mut cold = kat.clone();
            let mut init_rng = StdRng::seed_from_u64(mix_seed(cfg.seed, 1));
            cold.enc_params = cold.encoder.init_params(&mut init_rng);
            cold.dec_params = cold.decoder.init_near_identity(&mut init_rng);
            for (c, start) in [cold, kat].into_iter().enumerate() {
                let (mut hand, mut taped) = (start.clone(), start);
                let ll = hand.train(&x_t, &y_t, &cfg).unwrap();
                let want = taped_train(&mut taped, &x_t, &y_t, &cfg);
                assert_eq!(ll.to_bits(), want.to_bits(), "source {s}/{c}: best ll");
                assert_eq!(hand.enc_params, taped.enc_params, "source {s}/{c}: encoder");
                assert_eq!(hand.dec_params, taped.dec_params, "source {s}/{c}: decoder");
                assert_eq!(hand.log_noise.to_bits(), taped.log_noise.to_bits());
            }
        }
    }

    #[test]
    fn prediction_paths_match_generic_predictive_bitwise() {
        for (s, spec) in equivalence_sources().iter().enumerate() {
            let (source, mut kat) = equivalence_kat(spec, 120 + s as u64);
            // fit's source Gram, entry by entry and through the factor.
            let xs = source.xs_std();
            let m = xs.len();
            assert_eq!(kat.source_len(), m);
            let kp = &kat.kernel_params;
            let mut generic = Matrix::from_fn(m, m, |i, j| kat.kernel.eval(kp, &xs[i], &xs[j]));
            let gram = source_gram(&kat.src_kernel, &kat.src_feats, m);
            for i in 0..m {
                for j in 0..m {
                    assert_eq!(
                        gram[(i, j)].to_bits(),
                        generic[(i, j)].to_bits(),
                        "source {s} K[{i}][{j}]"
                    );
                }
            }
            generic.add_diagonal(source.noise_variance().max(1e-8) + 1e-9);
            let chol = CholeskyFactor::new(&generic).unwrap();
            assert_eq!(
                chol.l().as_slice(),
                kat.chol_src.l().as_slice(),
                "source {s} factor"
            );

            // predict and the warm-start score, at fitted and random
            // alignments, on a grown dataset with a duplicate row.
            let mut rng = StdRng::seed_from_u64(130 + s as u64);
            for c in 0..3 {
                if c > 0 {
                    kat.enc_params = kat.encoder.init_params(&mut rng);
                    kat.dec_params = kat.decoder.init_params(&mut rng);
                }
                kat.xt.push(random_rows(1, 2, &mut rng).remove(0));
                kat.xt.push(kat.xt[0].clone());
                kat.yt.extend([rng.gen_range(-3.0..3.0), kat.yt[0]]);
                let sigma2 = (kat.log_noise * 2.0).exp();
                let mut total = 0.0;
                for (x, &y) in kat.xt.iter().zip(&kat.yt) {
                    let x_std = kat.x_scaler.transform(x);
                    let (mu, v) = kat.predictive_scalar(&kat.enc_params, &kat.dec_params, &x_std);
                    let (pm, pv) = kat.predict(x);
                    let sc = kat.y_scaler.scale(0);
                    assert_eq!(
                        pm.to_bits(),
                        kat.y_scaler.inverse_scalar(mu, 0).to_bits(),
                        "source {s}/{c} mean"
                    );
                    assert_eq!(
                        pv.to_bits(),
                        (v * sc * sc).max(1e-12).to_bits(),
                        "source {s}/{c} var"
                    );
                    let var_total = v + sigma2;
                    let resid = mu - kat.y_scaler.transform_scalar(y, 0);
                    total += -0.5 * (var_total * 2.0 * std::f64::consts::PI).ln()
                        - resid * resid / (2.0 * var_total);
                }
                let want = total / kat.yt.len() as f64;
                let got = kat.warm_log_likelihood_per_point();
                assert_eq!(got.to_bits(), want.to_bits(), "source {s}/{c} warm score");
            }
        }
    }
}
