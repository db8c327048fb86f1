//! The `serve_bank` workload: one client sending a generated NDJSON stream
//! into `Daemon::handle_line`, over a fresh on-disk knowledge bank each
//! pass.

use crate::inputs::{request_stream, run_seeds, LineKind, StreamLine, PANEL_SEED, SERVE_BUDGET};
use crate::replay::{replay, CoreTrace};
use crate::report::{median, tail, Metrics, PanelTimes, Reading, Stopwatch};
use crate::timed::{EvalCounters, TimedProblem};
use crate::{
    put_circuit_layers, put_core_layers, put_panel_latency, ratio, setup_median, Args, Outcome,
    Quality, SETUP_REPS,
};
use kato::{Mode, RunHistory};
use kato_circuits::{random_design, ScenarioRegistry, SizingProblem};
use kato_serve::daemon::{request_settings, warm_probe_size};
use kato_serve::protocol::response_json;
use kato_serve::{Bank, Daemon, Json, SizingRequest, SourceChoice};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds of the panel stream: the same in every run, whatever its seed.
/// Timing and quality are taken on it (see `Quality`).
const PANEL_ROUNDS: usize = 4;
/// Rounds generated from the workload seed, in the traced run after the
/// panel; more than any run sends.
const SEEDED_ROUNDS: usize = 200;

/// Root of the per-run bank directories, inside the working directory.
const SCRATCH: &str = ".kato_benchmark";

/// A directory under [`SCRATCH`] removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = Path::new(SCRATCH).join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run uses the root.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

/// The stream of the traced run: the panel, then the seeded rounds.
fn traced_stream(workload_seed: u64) -> Vec<StreamLine> {
    let mut lines = request_stream(PANEL_SEED, PANEL_ROUNDS);
    lines.extend(request_stream(workload_seed, SEEDED_ROUNDS));
    lines
}

/// The stream of pass `pass`: the panel, then one round seeded by the
/// workload seed and the pass.
fn pass_stream(workload_seed: u64, pass: u64) -> Vec<StreamLine> {
    let mut lines = request_stream(PANEL_SEED, PANEL_ROUNDS);
    let seed = run_seeds(workload_seed, pass as usize + 1)[pass as usize];
    lines.extend(request_stream(seed, 1));
    lines
}

/// What a line turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Warm,
    Hit,
    Health,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Warm => "warm",
            Class::Hit => "hits",
            Class::Health => "health",
        }
    }
}

/// One answered line of the untraced stream.
struct Served {
    class: Class,
    reading: Reading,
    response: String,
}

/// Builds a daemon over a fresh bank in `dir`, after a throwaway daemon
/// with its own bank has served a cold and a warm request.
fn setup(dir: &Path, warm_dir: &Path) -> Daemon {
    let mut warm = fresh_daemon(warm_dir);
    for tech in ["180nm", "40nm"] {
        let line =
            format!("{{\"scenario\":\"opamp2\",\"tech\":\"{tech}\",\"seed\":1,\"budget\":16}}");
        let _ = warm.handle_line(&line);
    }
    fresh_daemon(dir)
}

/// A daemon with an empty cache over an empty bank in `dir`.
fn fresh_daemon(dir: &Path) -> Daemon {
    let _ = std::fs::remove_dir_all(dir);
    Daemon::new().with_bank(Bank::open(dir).expect("open bank"))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let bank_dir = ScratchDir::new("bank");
    let warm_dir = ScratchDir::new("warmup");
    let (setup_s, setup_raw_s, mut daemon) =
        setup_median(SETUP_REPS, || setup(&bank_dir.0, &warm_dir.0));
    let registry = ScenarioRegistry::standard();
    let panel_lines = request_stream(PANEL_SEED, PANEL_ROUNDS).len();
    if args.trace {
        let lines = traced_stream(args.seed);
        let (served, _) = serve_stream(
            &mut daemon,
            &registry,
            &lines,
            args.seconds / 2.0,
            panel_lines,
            &mut out,
        );
        let replay_dir = ScratchDir::new("replay");
        traced(
            &daemon,
            &registry,
            &lines[..served.len()],
            &served,
            &replay_dir.0,
            &mut out,
        );
        return out;
    }
    // Passes, each over a fresh daemon and bank, until the time is up;
    // the first pass always ends. A panel line is the same work in every
    // pass and must get the same response.
    let start = Instant::now();
    let mut times = PanelTimes::default();
    let mut first: Vec<String> = Vec::new();
    let mut quality = Quality::default();
    let mut seeded_ops = Vec::new();
    let mut classes: HashMap<&str, usize> = HashMap::new();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        if passes > 0 {
            daemon = fresh_daemon(&bank_dir.0);
        }
        let lines = pass_stream(args.seed, passes);
        let (min_lines, seconds) = if passes == 0 {
            (panel_lines, f64::INFINITY)
        } else {
            (0, args.seconds - start.elapsed().as_secs_f64())
        };
        let (served, q) =
            serve_stream(&mut daemon, &registry, &lines, seconds, min_lines, &mut out);
        if passes == 0 {
            quality = q;
        }
        let mut op = 0;
        for (i, s) in served.into_iter().enumerate() {
            *classes.entry(s.class.name()).or_default() += 1;
            if !matches!(s.class, Class::Cold | Class::Warm) {
                continue;
            }
            if i >= panel_lines {
                seeded_ops.push(s.reading);
                continue;
            }
            times.add(op, s.reading);
            if passes == 0 {
                first.push(s.response);
            } else if s.response != first[op] {
                out.failed += 1;
                eprintln!("panel line {i} answered differently in pass {passes}");
            }
            op += 1;
        }
        passes += 1;
    }
    out.metrics.put("setup_s", setup_s, "s");
    put_panel_latency(&mut out, &times, &seeded_ops);
    quality.put(&mut out.metrics);
    out.samples_f("setup_raw_s", setup_raw_s);
    out.samples("passes", passes as usize);
    for c in [Class::Cold, Class::Warm, Class::Hit, Class::Health] {
        out.samples(c.name(), classes.get(c.name()).copied().unwrap_or(0));
    }
    out.samples("quality_runs", quality.runs());
    out
}

/// Sends lines until `seconds` have passed and at least `min_lines` were
/// answered, checking every response. Quality is taken over the warm
/// requests among the first `min_lines`.
fn serve_stream(
    daemon: &mut Daemon,
    registry: &ScenarioRegistry,
    lines: &[StreamLine],
    seconds: f64,
    min_lines: usize,
    out: &mut Outcome,
) -> (Vec<Served>, Quality) {
    let start = Instant::now();
    let mut served = Vec::new();
    let mut quality = Quality::default();
    let mut banked: HashSet<&str> = HashSet::new();
    for (i, l) in lines.iter().enumerate() {
        if i >= min_lines && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let watch = Stopwatch::start();
        let response = daemon.handle_line(&l.line);
        let reading = watch.read();
        out.attempted += 1;
        let checked = check_response(registry, l, &response, banked.contains(l.scenario));
        let class = match checked {
            Ok((class, q)) => {
                if class == Class::Warm && i < min_lines {
                    quality.record(q.0, q.1, SERVE_BUDGET);
                }
                class
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("line {i} ({}): {e}\n  response: {response}", l.line);
                match l.kind {
                    LineKind::Health => Class::Health,
                    LineKind::Repeat => Class::Hit,
                    LineKind::Fresh => Class::Cold,
                }
            }
        };
        if l.kind == LineKind::Fresh {
            banked.insert(l.scenario);
        }
        served.push(Served {
            class,
            reading,
            response,
        });
    }
    (served, quality)
}

type RunQuality = (Option<f64>, Option<usize>);

/// Checks one response: it parses, has status ok and echoes the id; a
/// sizing response spent the budget, is a cache hit exactly on repeats,
/// carries `warm_start` exactly when the bank held the scenario, and its
/// best design re-simulates to the reported metrics.
fn check_response(
    registry: &ScenarioRegistry,
    line: &StreamLine,
    response: &str,
    banked: bool,
) -> Result<(Class, RunQuality), String> {
    let doc = Json::parse(response)?;
    let field = |k: &str| doc.get(k).ok_or(format!("no '{k}'"));
    if field("status")?.as_str() != Some("ok") {
        return Err("status is not ok".into());
    }
    if line.kind == LineKind::Health {
        return match field("op")?.as_str() {
            Some("health") => Ok((Class::Health, (None, None))),
            _ => Err("health response without op".into()),
        };
    }
    let request = SizingRequest::parse(&line.line)?;
    if field("id")?.as_str() != Some(request.id.as_str()) {
        return Err("id not echoed".into());
    }
    if field("n_evals")?.as_u64() != Some(request.budget as u64) {
        return Err("budget not spent".into());
    }
    let hit = field("cache_hit")?
        .as_bool()
        .ok_or("cache_hit not a bool")?;
    if hit != (line.kind == LineKind::Repeat) {
        return Err(format!("cache_hit {hit} on a {:?} line", line.kind));
    }
    let warm = !matches!(field("warm_start")?, Json::Null);
    if !hit && warm != banked {
        return Err(format!(
            "warm_start {warm} with the scenario banked: {banked}"
        ));
    }
    let (problem, _) = request.build_problem(registry)?;
    let mut objective = None;
    if let Some(best) = doc.get("best").filter(|b| !matches!(b, Json::Null)) {
        let x: Vec<f64> = best
            .get("x")
            .and_then(Json::as_arr)
            .ok_or("best without x")?
            .iter()
            .map(|v| v.as_f64().ok_or("x not numeric"))
            .collect::<Result<_, _>>()?;
        let again = problem.evaluate(&x);
        let metrics = best.get("metrics").ok_or("best without metrics")?;
        for (name, v) in problem.metric_names().iter().zip(again.values()) {
            let reported = metrics.get(name).and_then(Json::as_f64);
            if v.is_finite() && reported.map(f64::to_bits) != Some(v.to_bits()) {
                return Err(format!(
                    "best design re-simulates {name} = {v}, reported {reported:?}"
                ));
            }
        }
        if field("feasible")?.as_bool() == Some(true) {
            objective = crate::objective_value(&*problem, again.values());
        }
    }
    let sims_to_feasible = field("sims_to_feasible")?.as_u64().map(|n| n as usize);
    let class = if hit {
        Class::Hit
    } else if warm {
        Class::Warm
    } else {
        Class::Cold
    };
    Ok((class, (objective, sims_to_feasible)))
}

/// Per-layer totals of the traced replay.
#[derive(Default)]
struct ServeLayers {
    parse_ms: f64,
    resolve_ms: f64,
    probe_ms: f64,
    select_ms: f64,
    run_ms: f64,
    append_ms: f64,
    respond_ms: f64,
    wall_ms: f64,
    sizing: usize,
    hits: usize,
    misses: usize,
    warm: usize,
    select_bank_runs: usize,
    append_bank_runs: usize,
    runs: CoreTrace,
}

/// Replays the answered sizing lines with public calls and a timer around
/// each step, against a fresh bank of its own. Every response must equal
/// the daemon's byte for byte, and the two banks must end up holding the
/// same histories bit for bit.
fn traced(
    daemon: &Daemon,
    registry: &ScenarioRegistry,
    lines: &[StreamLine],
    served: &[Served],
    dir: &Path,
    out: &mut Outcome,
) {
    let mut bank = Bank::open(dir).expect("open replay bank");
    let counters = EvalCounters::default();
    let mut cache: HashMap<String, (RunHistory, Option<SourceChoice>)> = HashMap::new();
    let mut l = ServeLayers::default();
    let mut probe_wall = 0.0;
    let mut untraced_wall = 0.0;
    for (line, s) in lines.iter().zip(served) {
        if line.kind == LineKind::Health {
            continue;
        }
        let t0 = Instant::now();
        let t = Instant::now();
        let request = SizingRequest::parse(&line.line).expect("generated requests parse");
        l.parse_ms += ms(t);
        let t = Instant::now();
        let (problem, tech) = request
            .build_problem(registry)
            .expect("generated requests resolve");
        let key = request.cache_key(&tech);
        l.resolve_ms += ms(t);
        l.sizing += 1;
        let timed = TimedProblem::new(&*problem, &counters);
        let hit = cache.contains_key(&key);
        if !hit {
            l.misses += 1;
            let settings = request_settings(request.budget, request.seed);
            let (history, warm, trace) = if bank.has_candidates(&request.scenario) {
                l.warm += 1;
                let t = Instant::now();
                let n = warm_probe_size(settings.n_init).min(settings.budget);
                let mut probe = RunHistory::new(&timed.name(), "KATO", settings.seed);
                let mut rng = StdRng::seed_from_u64(settings.seed);
                let designs: Vec<Vec<f64>> = (0..n)
                    .map(|_| random_design(timed.dim(), &mut rng))
                    .collect();
                probe.evaluate_and_push_batch(&timed, &Mode::Constrained, designs);
                l.probe_ms += ms(t);
                probe_wall += ms(t);
                let t = Instant::now();
                let chosen = bank.select_source(&request.scenario, &tech, timed.specs(), &probe);
                l.select_ms += ms(t);
                l.select_bank_runs += bank.total_runs();
                let (source, warm) = chosen.unzip();
                let label = warm
                    .as_ref()
                    .map_or("KATO".to_string(), |c| format!("KATO+bank[{}]", c.label));
                let t = Instant::now();
                let (h, tr) = replay(&timed, &settings, source.as_ref(), &label, Some(probe));
                l.run_ms += ms(t);
                (h, warm, tr)
            } else {
                let t = Instant::now();
                let (h, tr) = replay(&timed, &settings, None, "KATO", None);
                l.run_ms += ms(t);
                (h, None, tr)
            };
            l.runs.whole.add(&trace.whole);
            l.runs.first.add(&trace.first);
            let t = Instant::now();
            l.append_bank_runs += bank.total_runs();
            if let Err(e) = bank.append(&request.scenario, &tech, &history) {
                out.failed += 1;
                eprintln!("replay bank append failed: {e}");
            }
            l.append_ms += ms(t);
            cache.insert(key.clone(), (history, warm));
        } else {
            l.hits += 1;
        }
        let t = Instant::now();
        let (history, warm) = &cache[&key];
        let response = response_json(
            &request,
            &tech,
            &*problem,
            history,
            hit,
            false,
            warm.as_ref(),
        )
        .to_string();
        l.respond_ms += ms(t);
        l.wall_ms += ms(t0);
        untraced_wall += s.reading.wall_ms;
        out.attempted += 1;
        if response != s.response {
            out.failed += 1;
            eprintln!(
                "traced replay answered differently:\n  {response}\n  {}",
                s.response
            );
        }
    }
    out.attempted += 1;
    if !same_bank(daemon.bank().expect("daemon has a bank"), &bank) {
        out.failed += 1;
        eprintln!("traced replay left a different bank");
    }
    let t = Instant::now();
    let reopened = Bank::open(dir).expect("reopen replay bank");
    let open_ms = ms(t);
    let m = &mut out.metrics;
    let runs = l.misses;
    put_core_layers(m, &l.runs, runs);
    let eval_wall = l.runs.whole.init_sim_ms + l.runs.whole.simulate_ms + probe_wall;
    put_circuit_layers(m, &counters, eval_wall, runs);
    m.put("circuits.yield_abort_saving", 0.0, "ratio");
    let per = |v: f64, n: usize| v / n.max(1) as f64;
    let parts = l.parse_ms
        + l.resolve_ms
        + l.probe_ms
        + l.select_ms
        + l.run_ms
        + l.append_ms
        + l.respond_ms;
    let of = |c: Class| -> Vec<f64> {
        served
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.reading.wall_ms)
            .collect()
    };
    let values: [f64; SERVE_LAYERS.len()] = [
        per(l.parse_ms, l.sizing),
        per(l.resolve_ms, l.sizing),
        per(l.probe_ms, l.warm),
        per(l.select_ms, l.warm),
        per(l.run_ms, l.misses),
        per(l.append_ms, l.misses),
        per(l.respond_ms, l.sizing),
        per(l.wall_ms - parts, l.sizing),
        per(l.select_ms, l.select_bank_runs),
        per(l.append_ms, l.append_bank_runs),
        open_ms,
        reopened.total_runs() as f64,
        dir_bytes(dir) as f64,
        ratio(l.hits as u64, l.sizing as u64),
        ratio(l.warm as u64, l.misses as u64),
        median(&of(Class::Cold)),
        tail(&of(Class::Cold)).0,
        median(&of(Class::Warm)),
        tail(&of(Class::Warm)).0,
        median(&of(Class::Hit)) * 1e3,
    ];
    for ((name, unit), v) in SERVE_LAYERS.iter().zip(values) {
        m.put(name, v, unit);
    }
    m.put(
        "trace.overhead_ms",
        per(l.wall_ms - untraced_wall, l.sizing),
        "ms",
    );
    out.samples("traced_lines", l.sizing);
    out.samples("traced_runs", runs);
    out.samples("cold", of(Class::Cold).len());
    out.samples("warm", of(Class::Warm).len());
    out.samples("hits", of(Class::Hit).len());
}

/// The serving layers, in output order. Per-request times are means over
/// the requests that take the step; `*_per_bank_run` divide a step's time
/// by the bank runs it saw; latencies come from the untraced half.
const SERVE_LAYERS: [(&str, &str); 20] = [
    ("serve.parse_ms", "ms"),
    ("serve.resolve_ms", "ms"),
    ("serve.probe_ms", "ms"),
    ("serve.select_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.append_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.other_ms", "ms"),
    ("serve.select_ms_per_bank_run", "ms"),
    ("serve.append_ms_per_bank_run", "ms"),
    ("serve.bank_open_ms", "ms"),
    ("serve.bank_runs", "count"),
    ("serve.bank_bytes", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.warm_rate", "ratio"),
    ("serve.cold_ms_p50", "ms"),
    ("serve.cold_ms_tail", "ms"),
    ("serve.warm_ms_p50", "ms"),
    ("serve.warm_ms_tail", "ms"),
    ("serve.hit_us_p50", "us"),
];

/// Zeroes for the serving layers on workloads that do not serve.
pub fn put_absent_serve_layers(m: &mut Metrics) {
    for (name, unit) in SERVE_LAYERS {
        m.put(name, 0.0, unit);
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Whether two banks hold the same runs, bit for bit, per scenario × tech.
fn same_bank(a: &Bank, b: &Bank) -> bool {
    let pairs = |bank: &Bank| -> Vec<(String, String)> {
        let mut p: Vec<(String, String)> = bank
            .entries()
            .iter()
            .map(|e| (e.scenario.clone(), e.tech.clone()))
            .collect();
        p.sort();
        p
    };
    pairs(a) == pairs(b)
        && pairs(a).iter().all(|(scenario, tech)| {
            match (a.runs(scenario, tech), b.runs(scenario, tech)) {
                (Ok(x), Ok(y)) => {
                    x.len() == y.len()
                        && x.iter()
                            .zip(&y)
                            .all(|(p, q)| crate::replay::same_history(p, q))
                }
                _ => false,
            }
        })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
