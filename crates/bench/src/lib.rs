#![warn(missing_docs)]

//! Experiment harness shared by the per-figure/per-table binaries.
//!
//! Every binary regenerates one artefact of the KATO paper's evaluation
//! (see DESIGN.md's per-experiment index) and prints the same rows/series
//! the paper reports, plus CSV files under `results/`.
//!
//! Binaries default to a **quick profile** (2 seeds, reduced budgets) and
//! accept `--full` for paper-scale runs.

use kato::RunHistory;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Budget/seed profile for one experiment binary.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Seeds to repeat each configuration over.
    pub seeds: Vec<u64>,
    /// Simulation budget per run (including init).
    pub budget: usize,
    /// Random initial designs (FOM experiments).
    pub n_init_fom: usize,
    /// Random initial designs (constrained experiments, paper uses 300).
    pub n_init_con: usize,
    /// Source-archive size for transfer experiments (paper uses 200).
    pub source_n: usize,
    /// Samples used to calibrate FOM normalisation (paper uses 10 000).
    pub fom_samples: usize,
    /// `true` when running at paper scale.
    pub full: bool,
}

impl Profile {
    /// Quick profile: minutes, not hours.
    #[must_use]
    pub fn quick() -> Self {
        Profile {
            seeds: vec![11, 23],
            budget: 70,
            n_init_fom: 10,
            n_init_con: 40,
            source_n: 120,
            fom_samples: 300,
            full: false,
        }
    }

    /// Paper-scale profile (5 seeds, larger budgets).
    #[must_use]
    pub fn full() -> Self {
        Profile {
            seeds: vec![11, 23, 37, 53, 71],
            budget: 150,
            n_init_fom: 10,
            n_init_con: 300,
            source_n: 200,
            fom_samples: 10_000,
            full: true,
        }
    }

    /// Parses `--full` from the CLI args.
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Profile::full()
        } else {
            Profile::quick()
        }
    }
}

/// Runs one configuration once per seed, fanning the independent runs out
/// over the [`kato_par`] pool (`KATO_THREADS` controls the width). Results
/// come back in seed order, so multi-seed experiment tables are identical
/// for every thread count.
pub fn run_seeds<F>(seeds: &[u64], run: F) -> Vec<RunHistory>
where
    F: Fn(u64) -> RunHistory + Sync,
{
    kato_par::par_map(seeds, |&seed| run(seed))
}

/// Mean best-so-far curve across runs; −∞ entries (nothing feasible yet)
/// are dropped per-position so means stay meaningful.
#[must_use]
pub fn mean_curve(histories: &[RunHistory]) -> Vec<f64> {
    let len = histories.iter().map(RunHistory::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let vals: Vec<f64> = histories
                .iter()
                .map(|h| h.best_curve()[i])
                .filter(|v| v.is_finite())
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

/// Mean and sample std of the final best score across runs (ignoring runs
/// that never found a feasible design).
#[must_use]
pub fn final_stats(histories: &[RunHistory]) -> (f64, f64) {
    let finals: Vec<f64> = histories
        .iter()
        .filter_map(|h| h.best().map(|b| b.score))
        .collect();
    (
        kato_linalg::stats::mean(&finals),
        kato_linalg::stats::std_dev(&finals),
    )
}

/// Mean simulations to reach `threshold` across runs (runs that never reach
/// it count as the full budget) — the paper's speed-up numerator.
#[must_use]
pub fn mean_sims_to_reach(histories: &[RunHistory], threshold: f64) -> f64 {
    let vals: Vec<f64> = histories
        .iter()
        .map(|h| h.sims_to_reach(threshold).unwrap_or(h.len()) as f64)
        .collect();
    kato_linalg::stats::mean(&vals)
}

/// Prints aligned best-so-far series for several methods and writes a CSV.
pub fn print_series(
    title: &str,
    methods: &[(&str, Vec<RunHistory>)],
    stride: usize,
    csv_name: &str,
) {
    println!("\n=== {title} ===");
    let curves: Vec<(String, Vec<f64>)> = methods
        .iter()
        .map(|(name, hs)| ((*name).to_string(), mean_curve(hs)))
        .collect();
    let len = curves.iter().map(|(_, c)| c.len()).min().unwrap_or(0);
    print!("{:>6}", "sims");
    for (name, _) in &curves {
        print!("{name:>16}");
    }
    println!();
    let mut rows = Vec::new();
    let mut i = stride.max(1) - 1;
    while i < len {
        print!("{:>6}", i + 1);
        let mut row = vec![format!("{}", i + 1)];
        for (_, c) in &curves {
            print!("{:>16.4}", c[i]);
            row.push(format!("{:.6}", c[i]));
        }
        println!();
        rows.push(row.join(","));
        i += stride.max(1);
    }
    for (name, hs) in methods {
        let (m, s) = final_stats(hs);
        println!("  final {name}: {m:.4} +/- {s:.4}");
    }
    let mut header = vec!["sims".to_string()];
    header.extend(curves.iter().map(|(n, _)| n.clone()));
    write_csv(csv_name, &header.join(","), &rows);
}

/// Writes rows to `results/<name>` (best-effort; failures are reported but
/// non-fatal so experiments still print to stdout). The first failed write
/// is warned about and ends the file; `[written …]` is printed only when
/// every row made it.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(name);
    match fs::File::create(&path).and_then(|mut f| write_rows(&mut f, header, rows)) {
        Ok(()) => println!("  [written {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Writes `header` and then each row, one per line, stopping at the first
/// error.
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_rows(out: &mut impl Write, header: &str, rows: &[String]) -> io::Result<()> {
    writeln!(out, "{header}")?;
    for r in rows {
        writeln!(out, "{r}")?;
    }
    Ok(())
}

/// Formats a metrics row like the paper's Tables 1–2.
#[must_use]
pub fn metrics_row(label: &str, values: &[f64]) -> String {
    let mut out = format!("{label:<28}");
    for v in values {
        out.push_str(&format!("{v:>12.2}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato::Mode;
    use kato_circuits::{Goal, Metrics, SizingProblem, Spec, SpecKind, VarSpec};

    struct Toy {
        vars: Vec<VarSpec>,
        specs: Vec<Spec>,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                vars: vec![VarSpec::lin("a", 0.0, 1.0)],
                specs: vec![Spec {
                    metric: 0,
                    kind: SpecKind::Objective(Goal::Maximize),
                }],
            }
        }
    }

    impl SizingProblem for Toy {
        fn name(&self) -> String {
            "toy".into()
        }
        fn variables(&self) -> &[VarSpec] {
            &self.vars
        }
        fn metric_names(&self) -> &[&'static str] {
            &["obj"]
        }
        fn specs(&self) -> &[Spec] {
            &self.specs
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            Metrics::new(vec![x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.9]
        }
    }

    fn history_with(values: &[f64]) -> RunHistory {
        let toy = Toy::new();
        let mut h = RunHistory::new("toy", "m", 0);
        for &v in values {
            h.evaluate_and_push(&toy, &Mode::Constrained, vec![v]);
        }
        h
    }

    #[test]
    fn mean_curve_averages_runs() {
        let h1 = history_with(&[0.1, 0.5, 0.2]);
        let h2 = history_with(&[0.3, 0.3, 0.9]);
        let c = mean_curve(&[h1, h2]);
        assert_eq!(c.len(), 3);
        assert!((c[0] - 0.2).abs() < 1e-12);
        assert!((c[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn final_stats_and_speed() {
        let h1 = history_with(&[0.1, 0.8]);
        let h2 = history_with(&[0.6, 0.7]);
        let (m, s) = final_stats(&[h1.clone(), h2.clone()]);
        assert!((m - 0.75).abs() < 1e-12);
        assert!(s > 0.0);
        let sims = mean_sims_to_reach(&[h1, h2], 0.65);
        assert!((sims - 2.0).abs() < 1e-12);
    }

    #[test]
    fn profile_flags() {
        assert!(!Profile::quick().full);
        assert!(Profile::full().full);
        assert!(Profile::full().seeds.len() > Profile::quick().seeds.len());
    }

    /// Accepts `budget` bytes, then fails every write and counts them.
    struct FailingWriter {
        budget: usize,
        written: Vec<u8>,
        failed_writes: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written.len() + buf.len() > self.budget {
                self.failed_writes += 1;
                return Err(io::Error::other("disk full"));
            }
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_rows_writes_header_then_rows() {
        let mut out = Vec::new();
        write_rows(&mut out, "a,b", &["1,2".to_string(), "3,4".to_string()]).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn write_rows_stops_at_the_first_error() {
        let rows: Vec<String> = (0..5).map(|i| format!("{i},{i}")).collect();
        // Room for the header and one row only.
        let mut out = FailingWriter {
            budget: "a,b\n0,0\n".len(),
            written: Vec::new(),
            failed_writes: 0,
        };
        let err = write_rows(&mut out, "a,b", &rows).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(out.written, b"a,b\n0,0\n");
        assert_eq!(out.failed_writes, 1, "kept writing after the first error");

        let mut broken = FailingWriter {
            budget: 0,
            written: Vec::new(),
            failed_writes: 0,
        };
        assert!(write_rows(&mut broken, "a,b", &rows).is_err());
        assert_eq!(broken.failed_writes, 1);
    }

    #[test]
    fn metrics_row_formats() {
        let r = metrics_row("KATO", &[124.21, 61.18]);
        assert!(r.contains("KATO") && r.contains("124.21"));
    }
}
