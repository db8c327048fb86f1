//! A timing [`SizingProblem`] wrapper: counts simulator calls and
//! candidates and sums the time spent inside them, forwarding every trait
//! method so the wrapped problem behaves exactly like the bare one.

use kato_circuits::{Metrics, SizingProblem, Spec, VarSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Simulator-layer counters, shared by every thread that evaluates through
/// a [`TimedProblem`]. The values are statistics only and publish no other
/// data, so `Relaxed` ordering suffices.
#[derive(Debug, Default)]
pub struct EvalCounters {
    calls: AtomicU64,
    candidates: AtomicU64,
    busy_ns: AtomicU64,
}

impl EvalCounters {
    fn record(&self, candidates: usize, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(candidates as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `evaluate` plus `evaluate_batch` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Design vectors evaluated so far.
    pub fn candidates(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }

    /// Time spent inside the simulator, summed over threads, in ms.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Forwards every [`SizingProblem`] method to `inner`, timing the two
/// evaluation entry points into `counters`.
pub struct TimedProblem<'a> {
    inner: &'a dyn SizingProblem,
    counters: &'a EvalCounters,
}

impl<'a> TimedProblem<'a> {
    pub fn new(inner: &'a dyn SizingProblem, counters: &'a EvalCounters) -> Self {
        TimedProblem { inner, counters }
    }
}

impl SizingProblem for TimedProblem<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
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
        let start = Instant::now();
        let m = self.inner.evaluate(x);
        self.counters.record(1, start);
        m
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        let start = Instant::now();
        let ms = self.inner.evaluate_batch(xs);
        self.counters.record(xs.len(), start);
        ms
    }
    fn expert_design(&self) -> Vec<f64> {
        self.inner.expert_design()
    }
    fn streaming_hint(&self) -> bool {
        self.inner.streaming_hint()
    }
    fn metric_index(&self, name: &str) -> Option<usize> {
        self.inner.metric_index(name)
    }
    fn physical(&self, x: &[f64]) -> Vec<(String, f64)> {
        self.inner.physical(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::same_history;
    use kato::{BoSettings, Kato, Mode};
    use kato_circuits::{ScenarioRegistry, YieldSettings};

    #[test]
    fn wrapped_runs_match_unwrapped_bitwise() {
        let reg = ScenarioRegistry::standard();
        let nominal = reg.build("opamp2", Some("180nm"), None).unwrap();
        let yield_problem = reg
            .get("opamp2")
            .unwrap()
            .build_yield(
                "180nm",
                None,
                YieldSettings {
                    samples: 8,
                    threshold: 0.7,
                    seed: 3,
                    early_abort: true,
                    corners: None,
                },
            )
            .unwrap();
        let cases: [(&dyn SizingProblem, usize); 2] = [(&*nominal, 30), (&yield_problem, 16)];
        for (problem, budget) in cases {
            let kato = Kato::new(BoSettings::quick(budget, 3));
            let bare = kato.run(problem, Mode::Constrained);
            let counters = EvalCounters::default();
            let wrapped = kato.run(&TimedProblem::new(problem, &counters), Mode::Constrained);
            assert!(same_history(&bare, &wrapped), "{}", problem.name());
            assert_eq!(counters.candidates(), budget as u64);
            assert!(counters.calls() > 0 && counters.busy_ms() > 0.0);
        }
    }
}
