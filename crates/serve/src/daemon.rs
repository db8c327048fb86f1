//! The request loop behind `katod`: parse → cache → (probe → align →
//! resume) or cold run → persist → respond.
//!
//! The daemon is deliberately synchronous at its edges — newline-delimited
//! JSON in, newline-delimited JSON out — and concurrent in the middle:
//! [`Daemon::handle_batch`] dedupes identical requests by cache key and
//! runs the distinct jobs over the [`kato_par`] pool, then applies bank and
//! cache writes sequentially so the persistent state never races.
//!
//! # Fault tolerance
//!
//! The serving loop survives its jobs:
//!
//! * a job that **panics** (a simulator crash, exercised by the
//!   `sim_panic` failpoint on the daemon's own [`Faults`] handle, see
//!   [`Daemon::with_faults`]) answers with an error response carrying that
//!   request's `id`; in a batch, every other job still returns its result,
//!   and the daemon keeps serving;
//! * a request with `deadline_ms` runs under a [`RunBudget`] and answers
//!   best-so-far with `"degraded": true` when the deadline fires — degraded
//!   traces are *not* persisted to the bank or cache, so a later request
//!   without the deadline recomputes the full run;
//! * `{"op": "health"}` reports bank/cache/served-job status without
//!   spending simulations.

use crate::bank::{Bank, SourceChoice};
use crate::cache::ResultCache;
use crate::faults::Faults;
use crate::json::Json;
use crate::protocol::{error_json, response_json, SizingRequest};
use kato::{BoSettings, Kato, Mode, RunBudget, RunHistory};
use kato_circuits::{random_design, Metrics, ScenarioRegistry, SizingProblem, Spec, VarSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, Write};

/// Number of probe simulations spent before querying the bank: half the
/// cold init, floor 4 — enough target evidence to alignment-score archives
/// while leaving most of the init budget to the model-guided loop.
#[must_use]
pub fn warm_probe_size(n_init: usize) -> usize {
    (n_init / 2).max(4)
}

/// Optimiser settings for a request: the quick profile with `n_init`
/// clamped so tiny budgets still get at least one BO iteration.
#[must_use]
pub fn request_settings(budget: usize, seed: u64) -> BoSettings {
    let mut s = BoSettings::quick(budget, seed);
    s.n_init = s.n_init.min(budget.saturating_sub(1)).max(1);
    s
}

/// Wraps a problem so the daemon's `sim_panic` failpoint can crash its
/// evaluations: armed with a request seed (`sim_panic=5`), every
/// evaluation of the job running under that seed panics — deterministic
/// regardless of how a batch interleaves across worker threads.
struct FaultProblem<'a> {
    inner: &'a dyn SizingProblem,
    seed: u64,
    faults: &'a Faults,
}

impl SizingProblem for FaultProblem<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn variables(&self) -> &[VarSpec] {
        self.inner.variables()
    }
    fn metric_names(&self) -> &[&'static str] {
        self.inner.metric_names()
    }
    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }
    fn evaluate(&self, x: &[f64]) -> Metrics {
        assert!(
            !self.faults.matches("sim_panic", self.seed),
            "injected simulator panic (sim_panic={})",
            self.seed
        );
        self.inner.evaluate(x)
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        // Forward to the inner batch path (the shim must not serialise the
        // population); the failpoint check still guards every batch.
        assert!(
            !self.faults.matches("sim_panic", self.seed),
            "injected simulator panic (sim_panic={})",
            self.seed
        );
        self.inner.evaluate_batch(xs)
    }
    fn expert_design(&self) -> Vec<f64> {
        self.inner.expert_design()
    }
    fn streaming_hint(&self) -> bool {
        // The failpoint shim never changes evaluation cost; keep the inner
        // problem's scheduling preference (yield problems stream).
        self.inner.streaming_hint()
    }
}

/// Runs one sizing job, warm-starting from `bank` when it holds archives
/// for the scenario.
///
/// The warm path spends [`warm_probe_size`] random probe simulations on
/// the target, asks the bank for the best-aligned archive
/// ([`Bank::select_source`]), attaches it as the transfer source and
/// *resumes* from the probe — so the probe counts toward the budget and a
/// warm start never simulates more than a cold one. With no bank, no
/// archives, or a bank miss, it degrades to the cold path (or a source-less
/// resume of the probe).
///
/// `run_budget` (deadline / sim cap / cancel flag) is honoured
/// cooperatively: between simulations, including during the probe — an
/// exhausted budget returns best-so-far instead of overrunning.
///
/// Shared by the daemon and the `kato run --bank` CLI path. It consults no
/// failpoints: the daemon wraps `problem` itself when its own [`Faults`]
/// handle arms `sim_panic`.
#[must_use]
pub fn run_with_bank(
    bank: Option<&Bank>,
    scenario: &str,
    tech: &str,
    problem: &dyn SizingProblem,
    settings: BoSettings,
    run_budget: Option<RunBudget>,
) -> (RunHistory, Option<SourceChoice>) {
    let attach = |k: Kato| match run_budget.clone() {
        Some(b) => k.with_run_budget(b),
        None => k,
    };
    let warm_bank = bank.filter(|b| b.has_candidates(scenario));
    let Some(bank) = warm_bank else {
        return (
            attach(Kato::new(settings)).run(problem, Mode::Constrained),
            None,
        );
    };
    let mut probe_n = warm_probe_size(settings.n_init).min(settings.budget);
    let mut probe = RunHistory::new(&problem.name(), "KATO", settings.seed);
    let mut rng = StdRng::seed_from_u64(settings.seed);
    // The probe is one batched population (sharded over the pool): drawing
    // the designs up front consumes the RNG exactly as the scalar loop
    // did, and any sim cap clamps the batch so capped counts stay exact.
    if let Some(allow) = run_budget.as_ref().and_then(|b| b.remaining_sims(0)) {
        probe_n = probe_n.min(allow);
    }
    if probe_n > 0
        && !run_budget
            .as_ref()
            .is_some_and(|b| b.exhausted(probe.len()))
    {
        let designs: Vec<Vec<f64>> = (0..probe_n)
            .map(|_| random_design(problem.dim(), &mut rng))
            .collect();
        probe.evaluate_and_push_batch(problem, &Mode::Constrained, designs);
    }
    match bank.select_source(scenario, tech, problem.specs(), &probe) {
        Some((source, choice)) => {
            let label = format!("KATO+bank[{}]", choice.label);
            let history = attach(Kato::new(settings))
                .with_source(source)
                .with_label(&label)
                .resume(problem, Mode::Constrained, probe);
            (history, Some(choice))
        }
        None => (
            attach(Kato::new(settings)).resume(problem, Mode::Constrained, probe),
            None,
        ),
    }
}

/// The `katod` daemon state: scenario registry, optional knowledge bank,
/// the in-memory result cache, and serving counters for the health report.
#[derive(Debug)]
pub struct Daemon {
    registry: ScenarioRegistry,
    bank: Option<Bank>,
    cache: ResultCache,
    jobs_served: usize,
    jobs_failed: usize,
    faults: Faults,
}

/// Outcome of one executed (non-cached) job, before persistence.
struct JobResult {
    key: String,
    request: SizingRequest,
    tech: String,
    history: RunHistory,
    warm: Option<SourceChoice>,
    degraded: bool,
}

impl Daemon {
    /// Creates a daemon over the standard scenario registry, bankless.
    #[must_use]
    pub fn new() -> Self {
        Daemon {
            registry: ScenarioRegistry::standard(),
            bank: None,
            cache: ResultCache::new(),
            jobs_served: 0,
            jobs_failed: 0,
            faults: Faults::default(),
        }
    }

    /// Arms the `sim_panic` failpoint for this daemon's jobs. A bank's
    /// write failpoints live on the bank itself ([`Bank::with_faults`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a knowledge bank: completed runs are persisted to it and
    /// new requests query it for warm starts.
    #[must_use]
    pub fn with_bank(mut self, bank: Bank) -> Self {
        self.bank = Some(bank);
        self
    }

    /// The attached bank, if any.
    #[must_use]
    pub fn bank(&self) -> Option<&Bank> {
        self.bank.as_ref()
    }

    /// The result cache (read-only view).
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Sizing jobs answered with `status: "ok"` (cache hits included).
    #[must_use]
    pub fn jobs_served(&self) -> usize {
        self.jobs_served
    }

    /// Requests answered with an error response (parse/build failures and
    /// panicking jobs alike).
    #[must_use]
    pub fn jobs_failed(&self) -> usize {
        self.jobs_failed
    }

    /// Builds the `{"op": "health"}` response: bank attachment, entry/run/
    /// quarantine counts, cache size and saved hits, and job counters.
    #[must_use]
    pub fn health_json(&self) -> Json {
        let bank_json = match &self.bank {
            None => Json::obj(vec![("attached", Json::Bool(false))]),
            Some(bank) => Json::obj(vec![
                ("attached", Json::Bool(true)),
                ("entries", Json::Num(bank.entries().len() as f64)),
                ("runs", Json::Num(bank.total_runs() as f64)),
                ("quarantined", Json::Num(bank.quarantined_files() as f64)),
                (
                    "quarantined_on_open",
                    Json::Num(bank.quarantined_on_open() as f64),
                ),
            ]),
        };
        Json::obj(vec![
            ("status", Json::str("ok")),
            ("op", Json::str("health")),
            ("bank", bank_json),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::Num(self.cache.len() as f64)),
                    ("hits", Json::Num(self.cache.total_hits() as f64)),
                ]),
            ),
            ("jobs_served", Json::Num(self.jobs_served as f64)),
            ("jobs_failed", Json::Num(self.jobs_failed as f64)),
        ])
    }

    /// Intercepts operational (non-sizing) requests: a line whose top-level
    /// `op` key names a daemon operation. Returns `None` for sizing
    /// requests (no `op` key / not an object), which proceed to
    /// [`SizingRequest::parse`].
    fn try_handle_op(&mut self, line: &str) -> Option<String> {
        let doc = Json::parse(line).ok()?;
        let op = doc.get("op")?.as_str()?.to_string();
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        Some(match op.as_str() {
            "health" => self.health_json().to_string(),
            other => {
                self.jobs_failed += 1;
                error_json(&id, &format!("unknown op '{other}' (known: health)")).to_string()
            }
        })
    }

    /// Handles one request line, returning one response line (never
    /// panics — malformed input *and* panicking jobs become error
    /// responses).
    pub fn handle_line(&mut self, line: &str) -> String {
        if let Some(response) = self.try_handle_op(line) {
            return response;
        }
        let request = match SizingRequest::parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.jobs_failed += 1;
                return error_json("", &e).to_string();
            }
        };
        let (problem, tech) = match request.build_problem(&self.registry) {
            Ok(p) => p,
            Err(e) => {
                self.jobs_failed += 1;
                return error_json(&request.id, &e).to_string();
            }
        };
        let key = request.cache_key(&tech);
        if let Some(cached) = self.cache.hit(&key) {
            self.jobs_served += 1;
            return response_json(
                &request,
                &tech,
                &*problem,
                &cached.history,
                true,
                false,
                cached.warm_source.as_ref(),
            )
            .to_string();
        }
        // Panic isolation: a crashing evaluation answers this request with
        // an error instead of taking the daemon down.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_job(&request, &tech, &*problem)
        }));
        let (history, warm) = match outcome {
            Ok(result) => result,
            Err(payload) => {
                self.jobs_failed += 1;
                let msg = kato_par::panic_message(payload.as_ref());
                return error_json(&request.id, &format!("job panicked: {msg}")).to_string();
            }
        };
        let degraded = request.deadline_ms.is_some() && history.len() < request.budget;
        let response = response_json(
            &request,
            &tech,
            &*problem,
            &history,
            false,
            degraded,
            warm.as_ref(),
        );
        self.jobs_served += 1;
        self.persist(JobResult {
            key,
            request,
            tech,
            history,
            warm,
            degraded,
        });
        response.to_string()
    }

    /// Runs one resolved request through [`run_with_bank`]. Yield jobs
    /// carry an extra metric, so nominal bank archives don't align with
    /// them (and vice versa): they run bankless. When this daemon's handle
    /// arms `sim_panic`, evaluations go through the failpoint check;
    /// disarmed serving takes the zero-overhead path.
    fn run_job(
        &self,
        request: &SizingRequest,
        tech: &str,
        problem: &dyn SizingProblem,
    ) -> (RunHistory, Option<SourceChoice>) {
        let bank = if request.yield_samples.is_some() {
            None
        } else {
            self.bank.as_ref()
        };
        let fault_shim = FaultProblem {
            inner: problem,
            seed: request.seed,
            faults: &self.faults,
        };
        let problem: &dyn SizingProblem = if self.faults.armed("sim_panic").is_some() {
            &fault_shim
        } else {
            problem
        };
        run_with_bank(
            bank,
            &request.scenario,
            tech,
            problem,
            request_settings(request.budget, request.seed),
            request.deadline_ms.map(RunBudget::deadline_ms),
        )
    }

    /// Appends a completed job to the bank (when attached) and caches it.
    /// Degraded (deadline-truncated) traces are persisted to neither: a
    /// partial search must not pollute the bank's archives or answer a
    /// later request that asked for the full budget. Yield runs are cached
    /// but never archived — their metric vector (with the appended
    /// `"yield"` column) does not align with nominal archives of the same
    /// scenario.
    fn persist(&mut self, job: JobResult) {
        if job.degraded {
            return;
        }
        if job.request.yield_samples.is_some() {
            self.cache.store(job.key, job.history, job.warm);
            return;
        }
        if let Some(bank) = self.bank.as_mut() {
            // A failed append must not take the daemon down mid-request;
            // the run still lives in the cache for this process.
            if let Err(e) = bank.append(&job.request.scenario, &job.tech, &job.history) {
                eprintln!("katod: bank append failed: {e}");
            }
        }
        self.cache.store(job.key, job.history, job.warm);
    }

    /// Handles a batch of request lines concurrently, returning responses
    /// in request order.
    ///
    /// Lines that fail to parse or resolve answer immediately; requests
    /// whose cache key is already cached (or duplicated *within* the
    /// batch) are answered from the single execution of that key. Distinct
    /// jobs run in parallel on the [`kato_par`] pool under
    /// [`kato_par::try_par_map`] — a job that panics answers *its* callers
    /// with an error response while every other job's results come back
    /// intact. Bank appends and cache stores happen sequentially
    /// afterwards.
    pub fn handle_batch(&mut self, lines: &[String]) -> Vec<String> {
        // Resolve every line first; collect the distinct keys to execute.
        // Each slot keeps its *own* request so duplicates still answer
        // with their caller's id.
        enum Slot {
            Ready(String),
            Cached(String, SizingRequest, String),
            Job(usize, SizingRequest, String),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(lines.len());
        let mut jobs: Vec<(String, SizingRequest, String)> = Vec::new();
        let mut intake_failures = 0usize;
        for line in lines {
            if let Some(response) = self.try_handle_op(line) {
                slots.push(Slot::Ready(response));
                continue;
            }
            let request = match SizingRequest::parse(line) {
                Ok(r) => r,
                Err(e) => {
                    intake_failures += 1;
                    slots.push(Slot::Ready(error_json("", &e).to_string()));
                    continue;
                }
            };
            let tech = match request.build_problem(&self.registry) {
                Ok((_, tech)) => tech,
                Err(e) => {
                    intake_failures += 1;
                    slots.push(Slot::Ready(error_json(&request.id, &e).to_string()));
                    continue;
                }
            };
            let key = request.cache_key(&tech);
            if self.cache.contains(&key) {
                slots.push(Slot::Cached(key, request, tech));
            } else {
                let idx = match jobs.iter().position(|(k, _, _)| *k == key) {
                    Some(idx) => idx,
                    None => {
                        jobs.push((key, request.clone(), tech.clone()));
                        jobs.len() - 1
                    }
                };
                slots.push(Slot::Job(idx, request, tech));
            }
        }
        self.jobs_failed += intake_failures;

        // Execute distinct jobs concurrently with per-job panic isolation;
        // problems are rebuilt inside the worker so nothing non-Send
        // crosses threads. `Err` holds the message for the error response.
        let registry = &self.registry;
        let results: Vec<Result<JobResult, String>> =
            kato_par::try_par_map(&jobs, |(key, request, tech)| {
                let (problem, _) = request.build_problem(registry).map_err(|e| {
                    panic!("request resolved at intake no longer builds: {e}");
                })?;
                let (history, warm) = self.run_job(request, tech, &*problem);
                let degraded = request.deadline_ms.is_some() && history.len() < request.budget;
                Ok::<JobResult, ()>(JobResult {
                    key: key.clone(),
                    request: request.clone(),
                    tech: tech.clone(),
                    history,
                    warm,
                    degraded,
                })
            })
            .into_iter()
            .map(|caught| match caught {
                Ok(Ok(job)) => Ok(job),
                Ok(Err(())) => unreachable!("intake re-build failure panics"),
                Err(msg) => Err(format!("job panicked: {msg}")),
            })
            .collect();

        // Render responses (each slot with its own request) before the
        // results move into the cache; duplicates within the batch count
        // as cache hits. A panicked job answers every one of its slots
        // with an error carrying that slot's request id.
        let mut job_hits = vec![0usize; results.len()];
        let mut served = 0usize;
        let mut failed = 0usize;
        let responses: Vec<String> = slots
            .iter()
            .map(|slot| match slot {
                Slot::Ready(text) => text.clone(),
                Slot::Job(idx, request, tech) => match &results[*idx] {
                    Err(msg) => {
                        failed += 1;
                        error_json(&request.id, msg).to_string()
                    }
                    Ok(job) => {
                        job_hits[*idx] += 1;
                        let problem = match request.build_problem(registry) {
                            Ok((p, _)) => p,
                            Err(e) => {
                                failed += 1;
                                return error_json(&request.id, &e).to_string();
                            }
                        };
                        served += 1;
                        response_json(
                            request,
                            tech,
                            &*problem,
                            &job.history,
                            job_hits[*idx] > 1,
                            job.degraded,
                            job.warm.as_ref(),
                        )
                        .to_string()
                    }
                },
                Slot::Cached(key, request, tech) => {
                    let Some(cached) = self.cache.hit(key) else {
                        failed += 1;
                        return error_json(&request.id, "cache entry evicted mid-batch")
                            .to_string();
                    };
                    let history = cached.history.clone();
                    let warm = cached.warm_source.clone();
                    let problem = match request.build_problem(&self.registry) {
                        Ok((p, _)) => p,
                        Err(e) => {
                            failed += 1;
                            return error_json(&request.id, &e).to_string();
                        }
                    };
                    served += 1;
                    response_json(
                        request,
                        tech,
                        &*problem,
                        &history,
                        true,
                        false,
                        warm.as_ref(),
                    )
                    .to_string()
                }
            })
            .collect();
        self.jobs_served += served;
        self.jobs_failed += failed;
        for job in results.into_iter().flatten() {
            self.persist(job);
        }
        responses
    }

    /// Serves newline-delimited JSON: one request per input line, one
    /// response line written (and flushed) per request, until EOF. Blank
    /// lines are skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the transport (a malformed *request* is
    /// answered, not an error).
    pub fn serve(&mut self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_line(&line);
            writeln!(output, "{response}")?;
            output.flush()?;
        }
        Ok(())
    }
}

impl Default for Daemon {
    fn default() -> Self {
        Daemon::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn probe_size_and_settings_clamp() {
        assert_eq!(warm_probe_size(10), 5);
        assert_eq!(warm_probe_size(4), 4);
        assert_eq!(warm_probe_size(0), 4);
        let s = request_settings(6, 1);
        assert_eq!(s.n_init, 5);
        assert_eq!(s.budget, 6);
        let s = request_settings(40, 1);
        assert_eq!(s.n_init, 10);
    }

    #[test]
    fn malformed_lines_answer_with_errors() {
        let mut d = Daemon::new();
        let resp = d.handle_line("not json");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        let resp = d.handle_line(r#"{"scenario":"nope"}"#);
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("opamp2"));
    }

    #[test]
    fn identical_requests_dedupe_through_the_cache() {
        let mut d = Daemon::new();
        let line = r#"{"id":"a","scenario":"opamp2","budget":12,"seed":3}"#.to_string();
        let first = d.handle_line(&line);
        let doc1 = Json::parse(&first).unwrap();
        assert_eq!(doc1.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(doc1.get("n_evals").unwrap().as_f64(), Some(12.0));
        // Same request, different id: a hit with the same trace.
        let second = d.handle_line(r#"{"id":"b","scenario":"opamp2","budget":12,"seed":3}"#);
        let doc2 = Json::parse(&second).unwrap();
        assert_eq!(doc2.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(doc2.get("id").unwrap().as_str(), Some("b"));
        assert_eq!(
            doc1.get("best").unwrap().to_string(),
            doc2.get("best").unwrap().to_string()
        );
        assert_eq!(d.cache().len(), 1);
    }

    #[test]
    fn batch_answers_in_order_and_dedupes_within_the_batch() {
        let mut d = Daemon::new();
        let lines = vec![
            r#"{"id":"1","scenario":"opamp2","budget":10,"seed":2}"#.to_string(),
            "garbage".to_string(),
            r#"{"id":"2","scenario":"opamp2","budget":10,"seed":2}"#.to_string(),
        ];
        let out = d.handle_batch(&lines);
        assert_eq!(out.len(), 3);
        let a = Json::parse(&out[0]).unwrap();
        let err = Json::parse(&out[1]).unwrap();
        let b = Json::parse(&out[2]).unwrap();
        assert_eq!(a.get("id").unwrap().as_str(), Some("1"));
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(b.get("id").unwrap().as_str(), Some("2"));
        // Both non-error responses share one execution.
        assert_eq!(d.cache().len(), 1);
        assert_eq!(
            a.get("n_evals").unwrap().as_f64(),
            b.get("n_evals").unwrap().as_f64()
        );
    }

    #[test]
    fn health_op_reports_bank_cache_and_counters() {
        let mut d = Daemon::new();
        let doc = Json::parse(&d.handle_line(r#"{"op":"health"}"#)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("health"));
        let bank = doc.get("bank").unwrap();
        assert_eq!(bank.get("attached").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("jobs_served").unwrap().as_f64(), Some(0.0));
        // One served job, one failure, one cache hit later:
        let _ = d.handle_line(r#"{"id":"a","scenario":"opamp2","budget":8,"seed":3}"#);
        let _ = d.handle_line("garbage");
        let _ = d.handle_line(r#"{"id":"b","scenario":"opamp2","budget":8,"seed":3}"#);
        let doc = Json::parse(&d.handle_line(r#"{"op":"health"}"#)).unwrap();
        assert_eq!(doc.get("jobs_served").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("jobs_failed").unwrap().as_f64(), Some(1.0));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("entries").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
        // Unknown ops error with the caller's id, not a parse rejection.
        let doc = Json::parse(&d.handle_line(r#"{"op":"restart","id":"x"}"#)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn a_panicking_job_answers_with_an_error_and_serving_continues() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut d = Daemon::new().with_faults(Faults::parse("sim_panic=5"));
        let doc =
            Json::parse(&d.handle_line(r#"{"id":"boom","scenario":"opamp2","budget":8,"seed":5}"#))
                .unwrap();
        std::panic::set_hook(prev_hook);
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("boom"));
        let msg = doc.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("sim_panic"), "{msg}");
        assert_eq!(d.jobs_failed(), 1);
        // Disarmed, the same daemon keeps serving — including seed 5.
        let mut d = d.with_faults(Faults::default());
        let doc =
            Json::parse(&d.handle_line(r#"{"id":"ok","scenario":"opamp2","budget":8,"seed":5}"#))
                .unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(d.jobs_served(), 1);
    }

    #[test]
    fn deadlined_requests_degrade_and_skip_persistence() {
        let mut d = Daemon::new();
        let doc = Json::parse(&d.handle_line(
            r#"{"id":"d1","scenario":"opamp2","budget":30,"seed":4,"deadline_ms":1}"#,
        ))
        .unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(true));
        let n = doc.get("n_evals").unwrap().as_f64().unwrap();
        assert!(n < 30.0, "{n}");
        // The truncated trace was cached nowhere: the undeadlined rerun is
        // a fresh full run, not a replay of the partial one.
        assert_eq!(d.cache().len(), 0);
        let doc =
            Json::parse(&d.handle_line(r#"{"id":"d2","scenario":"opamp2","budget":30,"seed":4}"#))
                .unwrap();
        assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("n_evals").unwrap().as_f64(), Some(30.0));
    }

    #[test]
    fn serve_loop_reads_writes_and_skips_blanks() {
        let mut d = Daemon::new();
        let input = "\n{\"id\":\"s1\",\"scenario\":\"opamp2\",\"budget\":8,\"seed\":5}\n\nbroken\n";
        let mut out = Vec::new();
        d.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("id").unwrap().as_str(),
            Some("s1")
        );
        assert_eq!(
            Json::parse(lines[1])
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("error")
        );
    }
}
