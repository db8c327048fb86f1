//! The persistent knowledge bank: a directory of run archives that turns
//! every completed sizing run into warm-start material for future requests.
//!
//! # Layout
//!
//! ```text
//! <bank>/
//!   index.json                  {"version":1,"entries":[{scenario,tech,file,runs}]}
//!   opamp2__180nm.json          {"version":1,"scenario","tech","runs":[<RunHistory>...]}
//!   opamp2__40nm.json
//!   ...
//! ```
//!
//! One archive file per `scenario×tech`; the manifest indexes them so a
//! daemon can answer "what could warm-start this request?" without reading
//! every archive. Writes are atomic (temp file + rename) so a crashed
//! append never corrupts an archive, and every file carries
//! [`BANK_VERSION`] so a future schema change can migrate old banks
//! explicitly instead of misreading them.
//!
//! # Self-healing
//!
//! A production bank must survive what a crash or a bad disk leaves
//! behind, so [`Bank::open`] *recovers* instead of refusing:
//!
//! * every archive file on disk is validated (parse + version + run
//!   decode); a torn, corrupt or newer-version file is **quarantined** —
//!   renamed to `<name>.quarantine`, preserving the bytes for forensics —
//!   and the bank warm-starts from the remaining archives;
//! * a corrupt or missing `index.json` is rebuilt from the surviving
//!   archive files (the index is a manifest, not the source of truth);
//! * writes retry with bounded exponential backoff on I/O errors before
//!   the error surfaces, and an append that finds its existing archive
//!   corrupt quarantines it and starts the archive fresh.
//!
//! [`Bank::quarantined_files`] reports how many `.quarantine` files the
//! directory holds — surfaced by the daemon's `{"op":"health"}` response.
//!
//! # Source selection
//!
//! [`Bank::select_source`] ranks every archived run of the requested
//! scenario — any tech node, which is the whole point: an `opamp2@180nm`
//! run warm-starts an `opamp2@40nm` request — by *alignment*: a cheap GP is
//! fitted to the candidate's objective column, a [`KatGp`] is aligned from
//! it onto the request's probe evaluations, and the candidate with the
//! highest mean predictive log-likelihood on the probe wins (the same
//! knowledge-alignment machinery the optimiser itself uses, paper §3.2).

use crate::archive::{history_from_json, history_to_json};
use crate::json::Json;
use kato::{RunHistory, SourceData};
use kato_circuits::{Goal, Spec, SpecKind};
use kato_gp::{Gp, GpConfig, KatConfig, KatGp, KernelSpec};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Schema version stamped into every bank file.
pub const BANK_VERSION: u64 = 1;

/// Write attempts before an I/O error surfaces to the caller.
pub const WRITE_ATTEMPTS: u32 = 3;

/// Base backoff between write retries (doubles per retry).
const WRITE_BACKOFF: std::time::Duration = std::time::Duration::from_millis(5);

/// Minimum finite probe objective values needed to alignment-score
/// candidates (the probe is split into a fit half and a held-out scoring
/// half); below this the bank falls back to the largest archive.
pub const MIN_PROBE_POINTS: usize = 4;

/// Errors from opening, reading or appending to a bank.
#[derive(Debug)]
pub enum BankError {
    /// Filesystem failure (path and cause in the message).
    Io(String),
    /// A bank file exists but does not parse as the expected schema.
    Corrupt(String),
}

impl fmt::Display for BankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankError::Io(msg) => write!(f, "bank I/O error: {msg}"),
            BankError::Corrupt(msg) => write!(f, "corrupt bank file: {msg}"),
        }
    }
}

impl std::error::Error for BankError {}

/// One row of the bank manifest: an archive file and what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankEntry {
    /// Scenario name, e.g. `opamp2`.
    pub scenario: String,
    /// Tech-node name, e.g. `180nm`.
    pub tech: String,
    /// Archive file name relative to the bank directory.
    pub file: String,
    /// Number of runs archived in the file.
    pub runs: usize,
}

/// Which archived run a warm start was built from, and how well it aligned.
#[derive(Debug, Clone)]
pub struct SourceChoice {
    /// The archived run's problem label, e.g. `opamp2_180nm`.
    pub label: String,
    /// Tech node of the source archive.
    pub tech: String,
    /// `true` when the source is the same tech node as the request.
    pub same_tech: bool,
    /// Mean predictive log-likelihood of the aligned KAT-GP on the probe
    /// (NaN when selection fell back without scoring).
    pub alignment: f64,
    /// Number of evaluations in the source archive.
    pub n_evals: usize,
}

/// A knowledge bank rooted at a directory.
#[derive(Debug)]
pub struct Bank {
    dir: PathBuf,
    entries: Vec<BankEntry>,
    /// Files quarantined while opening this bank (recovery events this
    /// process witnessed; see [`Bank::quarantined_files`] for the
    /// persistent on-disk count).
    quarantined_on_open: usize,
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> BankError {
    BankError::Io(format!("{what} {}: {e}", path.display()))
}

/// One write attempt: temp file in the same directory, flush, then rename
/// over the destination. The `bank_write` failpoint injects an I/O error
/// here; `bank_torn` simulates a crash that bypassed the temp+rename
/// protocol and left a truncated destination file (reported as success,
/// like a real torn write would be).
fn atomic_write_once(path: &Path, content: &str) -> Result<(), BankError> {
    if crate::faults::countdown("bank_write") {
        return Err(BankError::Io(format!(
            "injected bank_write failure for {}",
            path.display()
        )));
    }
    if crate::faults::countdown("bank_torn") {
        let half = &content.as_bytes()[..content.len() / 2];
        fs::write(path, half).map_err(|e| io_err(path, "torn write", &e))?;
        return Ok(());
    }
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", &e))?;
        f.write_all(content.as_bytes())
            .map_err(|e| io_err(&tmp, "write", &e))?;
        f.flush().map_err(|e| io_err(&tmp, "flush", &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, "rename into", &e))
}

/// Atomic write with bounded retry: transient I/O errors back off
/// exponentially ([`WRITE_BACKOFF`], doubling) for up to
/// [`WRITE_ATTEMPTS`] attempts before the last error surfaces.
fn atomic_write(path: &Path, content: &str) -> Result<(), BankError> {
    let mut delay = WRITE_BACKOFF;
    let mut attempt = 1;
    loop {
        match atomic_write_once(path, content) {
            Ok(()) => return Ok(()),
            Err(BankError::Io(_)) if attempt < WRITE_ATTEMPTS => {
                std::thread::sleep(delay);
                delay *= 2;
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Moves a damaged file aside to `<file name>.quarantine` (clobbering any
/// previous quarantine of the same file) so recovery preserves the bytes
/// instead of deleting evidence.
fn quarantine(path: &Path) -> Result<PathBuf, BankError> {
    let mut name = path
        .file_name()
        .ok_or_else(|| BankError::Io(format!("no file name in {}", path.display())))?
        .to_os_string();
    name.push(".quarantine");
    let dest = path.with_file_name(name);
    fs::rename(path, &dest).map_err(|e| io_err(path, "quarantine", &e))?;
    Ok(dest)
}

fn archive_file_name(scenario: &str, tech: &str) -> String {
    format!("{scenario}__{tech}.json")
}

/// Reads and validates the index manifest.
fn read_index(path: &Path) -> Result<Vec<BankEntry>, BankError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, "read", &e))?;
    let doc =
        Json::parse(&text).map_err(|e| BankError::Corrupt(format!("{}: {e}", path.display())))?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| BankError::Corrupt(format!("{}: missing 'version'", path.display())))?;
    if version > BANK_VERSION {
        return Err(BankError::Corrupt(format!(
            "{}: bank version {version} is newer than supported {BANK_VERSION}",
            path.display()
        )));
    }
    let rows = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| BankError::Corrupt(format!("{}: missing 'entries'", path.display())))?;
    let mut entries = Vec::with_capacity(rows.len());
    for row in rows {
        let field = |key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    BankError::Corrupt(format!("{}: entry missing '{key}'", path.display()))
                })
        };
        entries.push(BankEntry {
            scenario: field("scenario")?,
            tech: field("tech")?,
            file: field("file")?,
            runs: row.get("runs").and_then(Json::as_u64).unwrap_or(0) as usize,
        });
    }
    Ok(entries)
}

/// Parses an archive file and checks its schema version.
fn read_archive_doc(path: &Path) -> Result<Json, BankError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, "read", &e))?;
    let doc =
        Json::parse(&text).map_err(|e| BankError::Corrupt(format!("{}: {e}", path.display())))?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| BankError::Corrupt(format!("{}: missing 'version'", path.display())))?;
    if version > BANK_VERSION {
        return Err(BankError::Corrupt(format!(
            "{}: archive version {version} is newer than supported {BANK_VERSION}",
            path.display()
        )));
    }
    Ok(doc)
}

/// Fully validates one archive file (schema, fields, and that every run
/// decodes) and distils it into a manifest entry.
fn read_archive_entry(path: &Path, file: &str) -> Result<BankEntry, BankError> {
    let doc = read_archive_doc(path)?;
    let field = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| BankError::Corrupt(format!("{}: missing '{key}'", path.display())))
    };
    let scenario = field("scenario")?;
    let tech = field("tech")?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| BankError::Corrupt(format!("{}: missing 'runs'", path.display())))?;
    for run in runs {
        history_from_json(run)
            .map_err(|e| BankError::Corrupt(format!("{}: {e}", path.display())))?;
    }
    Ok(BankEntry {
        scenario,
        tech,
        file: file.to_string(),
        runs: runs.len(),
    })
}

impl Bank {
    /// Opens (creating if needed) a bank at `dir`, validating every
    /// archive file and **recovering** from damage instead of refusing:
    /// corrupt/torn/newer-version archives and a corrupt index are
    /// quarantined (renamed to `<name>.quarantine`) and the manifest is
    /// rebuilt from the surviving archives.
    ///
    /// # Errors
    ///
    /// [`BankError::Io`] when the directory cannot be created or read, or
    /// when quarantining/rewriting fails — i.e. only when the filesystem
    /// itself refuses; damaged *content* never fails an open.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, BankError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create bank dir", &e))?;
        let mut quarantined_on_open = 0;

        // The index is a manifest, not the source of truth: read it for
        // entry ordering, quarantine it if damaged.
        let index_path = dir.join("index.json");
        let index_entries: Vec<BankEntry> = if index_path.exists() {
            match read_index(&index_path) {
                Ok(entries) => entries,
                Err(BankError::Io(e)) => return Err(BankError::Io(e)),
                Err(BankError::Corrupt(_)) => {
                    quarantine(&index_path)?;
                    quarantined_on_open += 1;
                    Vec::new()
                }
            }
        } else {
            Vec::new()
        };

        // Validate every archive file on disk — including ones the index
        // never heard of (a crash between archive and index writes).
        let mut files: Vec<String> = Vec::new();
        let listing = fs::read_dir(&dir).map_err(|e| io_err(&dir, "read bank dir", &e))?;
        for item in listing {
            let item = item.map_err(|e| io_err(&dir, "read bank dir", &e))?;
            let name = item.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && name != "index.json" {
                files.push(name);
            }
        }
        // Index order first (stable across reopens), then newcomers sorted.
        files.sort_by_key(|f| {
            let known = index_entries.iter().position(|e| &e.file == f);
            (known.unwrap_or(usize::MAX), f.clone())
        });
        let mut entries = Vec::with_capacity(files.len());
        for file in files {
            let path = dir.join(&file);
            match read_archive_entry(&path, &file) {
                Ok(entry) => entries.push(entry),
                Err(BankError::Io(e)) => return Err(BankError::Io(e)),
                Err(BankError::Corrupt(_)) => {
                    quarantine(&path)?;
                    quarantined_on_open += 1;
                }
            }
        }

        let bank = Bank {
            dir,
            entries,
            quarantined_on_open,
        };
        // Persist the healed manifest whenever it disagrees with disk.
        if bank.entries != index_entries || quarantined_on_open > 0 {
            bank.write_index()?;
        }
        Ok(bank)
    }

    /// Number of files this open quarantined while recovering.
    #[must_use]
    pub fn quarantined_on_open(&self) -> usize {
        self.quarantined_on_open
    }

    /// Number of `.quarantine` files currently in the bank directory —
    /// the persistent record of every recovery, surfaced by the daemon's
    /// health report.
    #[must_use]
    pub fn quarantined_files(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|listing| {
                listing
                    .flatten()
                    .filter(|item| item.file_name().to_string_lossy().ends_with(".quarantine"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Total archived runs across all entries.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.entries.iter().map(|e| e.runs).sum()
    }

    /// The bank's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest rows, in archive order.
    #[must_use]
    pub fn entries(&self) -> &[BankEntry] {
        &self.entries
    }

    /// Manifest rows for one scenario (any tech node).
    #[must_use]
    pub fn candidates(&self, scenario: &str) -> Vec<&BankEntry> {
        self.entries
            .iter()
            .filter(|e| e.scenario == scenario)
            .collect()
    }

    /// `true` when the bank holds at least one run for the scenario.
    #[must_use]
    pub fn has_candidates(&self, scenario: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.scenario == scenario && e.runs > 0)
    }

    fn write_index(&self) -> Result<(), BankError> {
        let rows: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("scenario", Json::str(&e.scenario)),
                    ("tech", Json::str(&e.tech)),
                    ("file", Json::str(&e.file)),
                    ("runs", Json::Num(e.runs as f64)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("version", Json::Num(BANK_VERSION as f64)),
            ("entries", Json::Arr(rows)),
        ]);
        atomic_write(&self.dir.join("index.json"), &doc.to_string())
    }

    /// Appends a completed run to the `scenario×tech` archive, creating the
    /// file on first use, and updates the manifest. Both writes are atomic
    /// and retry with backoff on transient I/O errors; an existing archive
    /// found corrupt (e.g. torn by a crash since open) is quarantined and
    /// the archive restarts from this run rather than failing the append.
    ///
    /// # Errors
    ///
    /// [`BankError::Io`] when either file cannot be written (after
    /// retries) or the damaged archive cannot be quarantined.
    pub fn append(
        &mut self,
        scenario: &str,
        tech: &str,
        history: &RunHistory,
    ) -> Result<(), BankError> {
        let file = archive_file_name(scenario, tech);
        let path = self.dir.join(&file);
        let mut runs = if path.exists() {
            match self.read_archive(&path) {
                Ok(runs) => runs,
                Err(BankError::Corrupt(_)) => {
                    quarantine(&path)?;
                    Vec::new()
                }
                Err(e) => return Err(e),
            }
        } else {
            Vec::new()
        };
        runs.push(history_to_json(history));
        let n_runs = runs.len();
        let doc = Json::obj(vec![
            ("version", Json::Num(BANK_VERSION as f64)),
            ("scenario", Json::str(scenario)),
            ("tech", Json::str(tech)),
            ("runs", Json::Arr(runs)),
        ]);
        atomic_write(&path, &doc.to_string())?;

        match self
            .entries
            .iter_mut()
            .find(|e| e.scenario == scenario && e.tech == tech)
        {
            Some(entry) => entry.runs = n_runs,
            None => self.entries.push(BankEntry {
                scenario: scenario.to_string(),
                tech: tech.to_string(),
                file,
                runs: n_runs,
            }),
        }
        self.write_index()
    }

    fn read_archive(&self, path: &Path) -> Result<Vec<Json>, BankError> {
        let doc = read_archive_doc(path)?;
        Ok(doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| BankError::Corrupt(format!("{}: missing 'runs'", path.display())))?
            .to_vec())
    }

    /// Loads every archived run for a `scenario×tech`.
    ///
    /// # Errors
    ///
    /// [`BankError`] when the archive exists but cannot be read or parsed.
    pub fn runs(&self, scenario: &str, tech: &str) -> Result<Vec<RunHistory>, BankError> {
        let path = self.dir.join(archive_file_name(scenario, tech));
        if !path.exists() {
            return Ok(Vec::new());
        }
        self.read_archive(&path)?
            .iter()
            .map(|doc| {
                history_from_json(doc)
                    .map_err(|e| BankError::Corrupt(format!("{}: {e}", path.display())))
            })
            .collect()
    }

    /// Selects the best-aligned archived run of `scenario` (any tech node)
    /// as a transfer source for a request on `target_tech`, given a probe
    /// history of real evaluations on the target problem.
    ///
    /// Candidates are scored by fitting a cheap GP to the candidate's
    /// objective column, aligning a KAT-GP from it onto the probe, and
    /// taking the KAT-GP's mean predictive log-likelihood on the probe.
    /// When the probe has fewer than [`MIN_PROBE_POINTS`] finite objective
    /// values (or every fit fails), selection falls back to the largest
    /// archive, same tech node first — warm data beats no data even
    /// unscored.
    ///
    /// Returns `None` when the bank holds no runs for the scenario.
    #[must_use]
    pub fn select_source(
        &self,
        scenario: &str,
        target_tech: &str,
        specs: &[Spec],
        probe: &RunHistory,
    ) -> Option<(SourceData, SourceChoice)> {
        // Collect (tech, run) candidates, same-tech archives first so ties
        // and fallbacks prefer them.
        let mut tech_order: Vec<&str> = Vec::new();
        for e in self.candidates(scenario) {
            if !tech_order.contains(&e.tech.as_str()) {
                tech_order.push(&e.tech);
            }
        }
        tech_order.sort_by_key(|t| usize::from(*t != target_tech));
        let mut runs: Vec<(String, RunHistory)> = Vec::new();
        for tech in tech_order {
            // An archive that went bad since open (torn by a concurrent
            // crash) removes only its own candidates — never the whole
            // selection; open() will quarantine it next time.
            let Ok(archived) = self.runs(scenario, tech) else {
                continue;
            };
            for run in archived {
                if !run.is_empty() {
                    runs.push((tech.to_string(), run));
                }
            }
        }
        if runs.is_empty() {
            return None;
        }

        let obj = objective_index(specs);
        let probe_pts = probe_objective(probe, obj);
        let mut best: Option<(f64, usize)> = None;
        if probe_pts.len() >= MIN_PROBE_POINTS {
            let (probe_xs, probe_ys): (Vec<Vec<f64>>, Vec<f64>) = probe_pts.into_iter().unzip();
            for (i, (_, run)) in runs.iter().enumerate() {
                let Some(score) = alignment_score(run, specs, obj, &probe_xs, &probe_ys) else {
                    continue;
                };
                if best.is_none_or(|(b, _)| score > b) {
                    best = Some((score, i));
                }
            }
        }
        // Fallback: largest archive in tech-preference order.
        let (alignment, idx) = best.unwrap_or_else(|| {
            let idx = runs
                .iter()
                .enumerate()
                .max_by_key(|(_, (_, run))| run.len())
                .map(|(i, _)| i)
                .unwrap_or(0);
            (f64::NAN, idx)
        });
        let (tech, run) = &runs[idx];
        let source = SourceData::from_history(run, specs);
        let choice = SourceChoice {
            label: run.problem.clone(),
            tech: tech.clone(),
            same_tech: tech == target_tech,
            alignment,
            n_evals: run.len(),
        };
        Some((source, choice))
    }
}

/// Metric index of the objective row in a spec table (0 if absent — every
/// registered problem has one).
fn objective_index(specs: &[Spec]) -> usize {
    specs
        .iter()
        .find_map(|s| match s.kind {
            SpecKind::Objective(Goal::Maximize | Goal::Minimize) => Some(s.metric),
            _ => None,
        })
        .unwrap_or(0)
}

/// Probe `(x, y_obj)` pairs with a finite objective metric.
fn probe_objective(probe: &RunHistory, obj: usize) -> Vec<(Vec<f64>, f64)> {
    probe
        .evals
        .iter()
        .filter(|e| obj < e.metrics.values().len() && e.metrics.get(obj).is_finite())
        .map(|e| (e.x.clone(), e.metrics.get(obj)))
        .collect()
}

/// Alignment of one candidate run to the probe: source GP on the
/// candidate's objective column → KAT-GP aligned onto *half* the probe →
/// mean predictive log-likelihood on the **held-out** half. Scoring on
/// held-out points is essential: the KAT encoder/decoder is flexible
/// enough to fit any few training points from any source, so in-sample
/// likelihood measures model capacity, while held-out likelihood measures
/// whether the source archive actually generalises onto the target.
/// `None` when either fit fails.
fn alignment_score(
    run: &RunHistory,
    specs: &[Spec],
    obj: usize,
    probe_xs: &[Vec<f64>],
    probe_ys: &[f64],
) -> Option<f64> {
    let source = SourceData::from_history(run, specs);
    let col = source.columns.get(obj)?;
    let gp_cfg = GpConfig {
        seed: run.seed,
        ..GpConfig::fast()
    };
    let source_gp = Gp::fit(
        KernelSpec::ArdRbf { dim: source.dim },
        &source.xs,
        col,
        &gp_cfg,
    )
    .ok()?;
    let kat_cfg = KatConfig {
        seed: run.seed,
        ..KatConfig::fast()
    };
    // Even-indexed probe points fit the alignment; odd-indexed score it.
    let (mut fit_xs, mut fit_ys) = (Vec::new(), Vec::new());
    let (mut held_xs, mut held_ys) = (Vec::new(), Vec::new());
    for (i, (x, &y)) in probe_xs.iter().zip(probe_ys).enumerate() {
        if i % 2 == 0 {
            fit_xs.push(x.clone());
            fit_ys.push(y);
        } else {
            held_xs.push(x.clone());
            held_ys.push(y);
        }
    }
    let kat = KatGp::fit(&source_gp, &fit_xs, &fit_ys, &kat_cfg).ok()?;
    let ll = kat.mean_log_likelihood(&held_xs, &held_ys);
    ll.is_finite().then_some(ll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato::{BoSettings, Kato, Mode};
    use kato_circuits::{Metrics, SizingProblem, VarSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kato_bank_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// 1-D toy: maximise `1−(x−c)²` s.t. `x ≥ 0.2`; the centre `c`
    /// distinguishes "tech nodes". With `flat`, the objective carries no
    /// information at all — a constant response that no encoder/decoder
    /// pair can align onto a varying target (the KAT decoder of a constant
    /// is a constant), the model of an archive whose simulations returned
    /// garbage.
    struct Toy {
        c: f64,
        flat: bool,
        name: String,
        vars: Vec<VarSpec>,
        specs: Vec<Spec>,
    }

    impl Toy {
        fn new(c: f64, name: &str) -> Self {
            Toy {
                c,
                flat: false,
                name: name.to_string(),
                vars: vec![VarSpec::lin("a", 0.0, 1.0)],
                specs: vec![
                    Spec {
                        metric: 0,
                        kind: SpecKind::Objective(Goal::Maximize),
                    },
                    Spec {
                        metric: 1,
                        kind: SpecKind::GreaterEq(0.2),
                    },
                ],
            }
        }
    }

    impl SizingProblem for Toy {
        fn name(&self) -> String {
            self.name.clone()
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
            let obj = if self.flat {
                0.3
            } else {
                1.0 - (x[0] - self.c).powi(2)
            };
            Metrics::new(vec![obj, x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![self.c]
        }
    }

    fn short_run(problem: &dyn SizingProblem, seed: u64) -> RunHistory {
        Kato::new(BoSettings::quick(16, seed)).run(problem, Mode::Constrained)
    }

    /// A spread archive: `n` random designs evaluated on `problem`. An
    /// optimiser trace clusters near its optimum, which leaves the source
    /// GP extrapolating (confidently wrong) over most of the space; random
    /// coverage is what makes alignment quality attributable to the
    /// *source physics* rather than to where the source run happened to
    /// dwell.
    fn spread_run(problem: &dyn SizingProblem, n: usize, seed: u64) -> RunHistory {
        let mut h = RunHistory::new(&problem.name(), "KATO", seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..n {
            let x = kato_circuits::random_design(problem.dim(), &mut rng);
            h.evaluate_and_push(problem, &Mode::Constrained, x);
        }
        h
    }

    #[test]
    fn append_then_reload_roundtrips_runs() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("roundtrip");
        let toy = Toy::new(0.6, "toy_180nm");
        let run = short_run(&toy, 3);
        {
            let mut bank = Bank::open(&dir).unwrap();
            bank.append("toy", "180nm", &run).unwrap();
            bank.append("toy", "180nm", &short_run(&toy, 5)).unwrap();
        }
        // Fresh open reads the manifest back from disk.
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.entries()[0].runs, 2);
        assert!(bank.has_candidates("toy"));
        assert!(!bank.has_candidates("other"));
        let runs = bank.runs("toy", "180nm").unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].evals.len(), run.evals.len());
        assert_eq!(runs[0].evals[0].x, run.evals[0].x);
        assert!(bank.runs("toy", "40nm").unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_source_prefers_the_aligned_archive() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("select");
        let near = Toy::new(0.55, "toy_180nm"); // close to the target physics
        let mut far = Toy::new(0.05, "toy_28nm"); // zero-information archive
        far.flat = true;
        let target = Toy::new(0.6, "toy_40nm");
        let mut bank = Bank::open(&dir).unwrap();
        bank.append("toy", "180nm", &spread_run(&near, 24, 3))
            .unwrap();
        bank.append("toy", "28nm", &spread_run(&far, 24, 4))
            .unwrap();

        let mut probe = RunHistory::new(&target.name(), "probe", 1);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        for _ in 0..16 {
            let x = kato_circuits::random_design(1, &mut rng);
            probe.evaluate_and_push(&target, &Mode::Constrained, x);
        }
        let (source, choice) = bank
            .select_source("toy", "40nm", target.specs(), &probe)
            .unwrap();
        assert_eq!(choice.tech, "180nm", "alignment {:.3}", choice.alignment);
        assert_eq!(source.label, "toy_180nm");
        assert!(!choice.same_tech);
        assert!(choice.alignment.is_finite());
        assert!(choice.n_evals > 0);
        // Unknown scenario → no source.
        assert!(bank
            .select_source("nope", "40nm", target.specs(), &probe)
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_source_falls_back_without_probe_data() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("fallback");
        let toy = Toy::new(0.5, "toy_180nm");
        let mut bank = Bank::open(&dir).unwrap();
        bank.append("toy", "180nm", &short_run(&toy, 9)).unwrap();
        // Empty probe: too few points to score → fallback still warm-starts.
        let probe = RunHistory::new("toy_40nm", "probe", 1);
        let (source, choice) = bank
            .select_source("toy", "40nm", toy.specs(), &probe)
            .unwrap();
        assert!(choice.alignment.is_nan());
        assert_eq!(source.xs.len(), choice.n_evals);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_index_is_quarantined_and_rebuilt() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("corrupt");
        let toy = Toy::new(0.5, "toy_180nm");
        {
            let mut bank = Bank::open(&dir).unwrap();
            bank.append("toy", "180nm", &short_run(&toy, 3)).unwrap();
        }
        // Smash the index: open must quarantine it and rebuild from the
        // archive file instead of refusing.
        fs::write(dir.join("index.json"), "{not json").unwrap();
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 1);
        assert_eq!(bank.quarantined_files(), 1);
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.entries()[0].runs, 1);
        assert!(dir.join("index.json.quarantine").exists());
        // The rebuilt index is good: a fresh open heals nothing further.
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 0);
        // A newer-version index is likewise recovery, not refusal.
        fs::write(dir.join("index.json"), r#"{"version":99,"entries":[]}"#).unwrap();
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 1);
        assert_eq!(bank.entries().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_archive_is_quarantined_and_the_rest_survive() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("heal");
        let toy = Toy::new(0.5, "toy_180nm");
        {
            let mut bank = Bank::open(&dir).unwrap();
            bank.append("toy", "180nm", &spread_run(&toy, 12, 3))
                .unwrap();
            bank.append("toy", "28nm", &spread_run(&toy, 12, 4))
                .unwrap();
        }
        // Tear one archive. Open quarantines it, keeps the other, and the
        // bank still supplies a warm-start source.
        fs::write(dir.join("toy__28nm.json"), "{\"version\":1,\"runs\":[tru").unwrap();
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 1);
        assert!(dir.join("toy__28nm.json.quarantine").exists());
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.entries()[0].tech, "180nm");
        assert!(bank.has_candidates("toy"));
        let probe = RunHistory::new("toy_40nm", "probe", 1);
        let (_, choice) = bank
            .select_source("toy", "40nm", toy.specs(), &probe)
            .unwrap();
        assert_eq!(choice.tech, "180nm");
        // An archive the index never heard of is adopted on open.
        fs::remove_file(dir.join("index.json")).unwrap();
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.total_runs(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_failures_are_retried_and_torn_writes_heal() {
        let _guard = crate::faults::test_lock();
        let dir = tmp_dir("faults");
        let toy = Toy::new(0.5, "toy_180nm");
        // Two injected failures: both retried away within one append.
        crate::faults::arm("bank_write=2");
        {
            let mut bank = Bank::open(&dir).unwrap();
            bank.append("toy", "180nm", &short_run(&toy, 3)).unwrap();
            assert!(crate::faults::hits("bank_write") >= 3);
        }
        // A torn archive write: append reports success (as a real torn
        // write would), and the next open quarantines + heals.
        crate::faults::arm("bank_torn=1");
        {
            let mut bank = Bank::open(&dir).unwrap();
            bank.append("toy", "28nm", &short_run(&toy, 5)).unwrap();
        }
        crate::faults::disarm_all();
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 1);
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.entries()[0].tech, "180nm");
        fs::remove_dir_all(&dir).unwrap();
    }
}
