//! `kato` — command-line front end for the scenario registry.
//!
//! Runs any registered sizing scenario end to end through [`Kato::run`]
//! without writing code:
//!
//! ```bash
//! kato list
//! kato run ldo --tech 40nm --seeds 2 --out results/ldo.json
//! kato run opamp2 --corner ss_125c --budget 60
//! kato run telescopic --corner worst          # optimise the worst corner
//! kato transfer opamp2 folded_cascode         # KATO vs KATO+TL
//! ```
//!
//! Budgets default to a quick profile (40 simulations) so every command
//! finishes in seconds; raise `--budget` for real experiments. Results are
//! written as JSON under `results/` (override with `--out`).

use kato::{corner_audit_at, Kato, Mode, RunHistory, SourceData};
use kato_bench::{final_stats, mean_sims_to_reach, run_seeds};
use kato_circuits::{Backend, Corner, ScenarioRegistry, SizingProblem};
use kato_serve::daemon::{request_settings, run_with_bank};
use kato_serve::{Bank, Json, SizingRequest, SourceChoice};
use std::process::ExitCode;

const USAGE: &str = "kato — transistor-sizing scenarios from the KATO reproduction

USAGE:
    kato list
    kato run <scenario> [--tech <node>] [--corner <c>|worst] [--seeds <n>]
                        [--budget <b>] [--backend <be>] [--bank <dir>]
                        [--yield <n>] [--out <path>]
    kato transfer <src> <dst> [--tech <node>] [--src-tech <node>]
                        [--seeds <n>] [--budget <b>] [--source-n <m>]
                        [--out <path>]

SUBCOMMANDS:
    list        show every registered scenario with tech nodes and corners
    run         optimise one scenario with KATO (constrained mode)
    transfer    optimise <dst> plain and with a <src> knowledge archive

OPTIONS:
    --tech <node>    tech card (default: the scenario's default node)
    --corner <c>     PVT corner name (tt, ss_125c, ff_m40c, ...) or
                     'worst' to optimise the across-corner worst case
    --seeds <n>      independent repetitions (default 1)
    --budget <b>     simulations per run, incl. 10 random init (default 40)
    --source-n <m>   source archive size for transfer (default 120)
    --backend <be>   device backend: 'square_law' or 'lut' (default: the
                     scenario's native backend — LUT for switch/varactor)
    --bank <dir>     knowledge bank: warm-start from archived runs of the
                     same scenario (any tech node) and persist this run
    --yield <n>      Monte-Carlo yield mode: score each design by its
                     pass-rate over <n> Pelgrom mismatch samples (x the
                     corner set) and constrain yield >= the scenario's
                     threshold preset; --corner worst sweeps all registered
                     corners per sample, a named corner estimates yield
                     there only (not combinable with --bank)
    --out <path>     results JSON path (default results/kato_<...>.json)
";

fn seed_list(n: usize) -> Vec<u64> {
    const BASE: [u64; 5] = [11, 23, 37, 53, 71];
    (0..n).map(|i| BASE[i % 5] + 100 * (i / 5) as u64).collect()
}

/// Parsed `--key value` options after the positional arguments.
struct Opts {
    tech: Option<String>,
    src_tech: Option<String>,
    corner: Option<String>,
    backend: Option<Backend>,
    seeds: usize,
    budget: usize,
    source_n: usize,
    bank: Option<String>,
    yield_samples: Option<usize>,
    out: Option<String>,
}

fn parse_opts(subcommand: &str, allowed: &[&str], args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        tech: None,
        src_tech: None,
        corner: None,
        backend: None,
        seeds: 1,
        budget: 40,
        source_n: 120,
        bank: None,
        yield_samples: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // Reject flags another subcommand owns instead of silently
        // swallowing them (e.g. `transfer --corner ...` would otherwise
        // run at TT while looking corner-aware).
        if flag.starts_with("--") && !allowed.contains(&flag.as_str()) {
            return Err(format!(
                "option '{flag}' is not supported by '{subcommand}'"
            ));
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--tech" => opts.tech = Some(value()?),
            "--src-tech" => opts.src_tech = Some(value()?),
            "--corner" => opts.corner = Some(value()?),
            "--backend" => {
                let v = value()?;
                opts.backend = Some(Backend::parse(&v).ok_or_else(|| {
                    format!("unknown backend '{v}' (expected 'square_law' or 'lut')")
                })?);
            }
            "--seeds" => {
                opts.seeds = value()?
                    .parse()
                    .map_err(|_| "unparsable --seeds".to_string())?;
            }
            "--budget" => {
                opts.budget = value()?
                    .parse()
                    .map_err(|_| "unparsable --budget".to_string())?;
            }
            "--source-n" => {
                opts.source_n = value()?
                    .parse()
                    .map_err(|_| "unparsable --source-n".to_string())?;
            }
            "--bank" => opts.bank = Some(value()?),
            "--yield" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| "unparsable --yield".to_string())?;
                if n == 0 {
                    return Err("--yield must be at least 1".to_string());
                }
                opts.yield_samples = Some(n);
            }
            "--out" => opts.out = Some(value()?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    Ok(opts)
}

fn cmd_list(registry: &ScenarioRegistry) {
    println!(
        "{:<16} {:<12} {:<4} {:<10} {:<28} corners",
        "scenario", "tech nodes", "dim", "backend", "metrics"
    );
    for s in registry.scenarios() {
        let p = s.build_default();
        let corners: Vec<String> = s.corners.iter().map(Corner::name).collect();
        println!(
            "{:<16} {:<12} {:<4} {:<10} {:<28} {}",
            s.name,
            s.tech_names.join(","),
            p.dim(),
            s.default_backend.name(),
            p.metric_names().join(","),
            corners.join(",")
        );
        println!("{:<16} {}", "", s.summary);
    }
}

fn metrics_obj(problem: &dyn SizingProblem, values: &[f64]) -> Json {
    Json::Obj(
        problem
            .metric_names()
            .iter()
            .zip(values)
            .map(|(n, &v)| ((*n).to_string(), Json::Num(v)))
            .collect(),
    )
}

fn best_json(problem: &dyn SizingProblem, history: &RunHistory) -> Json {
    match history.best() {
        Some(best) => Json::obj(vec![
            ("score", Json::Num(best.score)),
            ("feasible", Json::Bool(best.feasible)),
            ("x", Json::nums(&best.x)),
            ("metrics", metrics_obj(problem, best.metrics.values())),
        ]),
        None => Json::Null,
    }
}

fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("[written {path}]");
    Ok(())
}

fn cmd_run(registry: &ScenarioRegistry, name: &str, opts: &Opts) -> Result<(), String> {
    let scenario = registry.get(name).map_err(|e| e.to_string())?;
    let corner_arg = opts.corner.as_deref().unwrap_or("tt");
    if opts.yield_samples.is_some() && opts.bank.is_some() {
        return Err(
            "--yield does not combine with --bank: yield runs carry an extra \
             metric and do not align with nominal bank archives"
                .to_string(),
        );
    }

    // One resolver for the CLI and `katod`: a request per seed. The
    // problem is a single named corner, the worst-case wrapper, or the
    // Monte-Carlo yield wrapper. In yield mode the mismatch stream is keyed
    // on the run seed, so each repetition gets its own problem instance
    // (same circuit, same threshold, seed-specific Monte-Carlo draws); the
    // first seed's instance provides names/metrics.
    let build = |seed: u64| {
        SizingRequest {
            id: String::new(),
            scenario: name.to_string(),
            tech: opts.tech.clone(),
            corner: corner_arg.to_string(),
            overrides: Vec::new(),
            seed,
            budget: opts.budget,
            deadline_ms: None,
            backend: opts.backend,
            yield_samples: opts.yield_samples,
        }
        .build_problem(registry)
    };
    let worst = corner_arg == "worst";
    let seeds = seed_list(opts.seeds);
    let (problem, tech) = build(seeds[0])?;
    let tech = tech.as_str();
    let backend_name = opts.backend.unwrap_or(scenario.default_backend).name();
    println!(
        "run: {} (dim {}, backend {}, budget {}, {} seed(s))",
        problem.name(),
        problem.dim(),
        backend_name,
        opts.budget,
        opts.seeds
    );
    if let Some(n) = opts.yield_samples {
        println!(
            "  yield mode: {n} mismatch samples x {} corner(s), threshold {:.2}, early abort on",
            if worst { scenario.corners.len() } else { 1 },
            scenario.yield_preset.threshold
        );
    }
    let mut bank = opts
        .bank
        .as_deref()
        .map(Bank::open)
        .transpose()
        .map_err(|e| e.to_string())?;
    let (histories, warm_choices): (Vec<RunHistory>, Vec<Option<SourceChoice>>) =
        match bank.as_mut() {
            // The bank path is sequential on purpose: each completed run is
            // appended before the next starts, so later seeds can
            // warm-start from earlier ones in the same invocation.
            Some(bank) => {
                let mut histories = Vec::with_capacity(seeds.len());
                let mut warm = Vec::with_capacity(seeds.len());
                for &seed in &seeds {
                    let (h, choice) = run_with_bank(
                        Some(bank),
                        name,
                        tech,
                        problem.as_ref(),
                        request_settings(opts.budget, seed),
                        None,
                    );
                    bank.append(name, tech, &h).map_err(|e| e.to_string())?;
                    histories.push(h);
                    warm.push(choice);
                }
                (histories, warm)
            }
            None => {
                let histories = run_seeds(&seeds, |seed| {
                    // Yield mode rebuilds per seed so the mismatch stream
                    // key follows the run seed; validation already passed
                    // on the first-seed instance above.
                    let per_seed: Option<Box<dyn SizingProblem>> = opts
                        .yield_samples
                        .map(|_| build(seed).expect("first-seed build validated settings").0);
                    let target = per_seed.as_deref().unwrap_or(problem.as_ref());
                    Kato::new(request_settings(opts.budget, seed)).run(target, Mode::Constrained)
                });
                let n = histories.len();
                (histories, vec![None; n])
            }
        };

    let mut runs = Vec::new();
    for (h, choice) in histories.iter().zip(&warm_choices) {
        if let Some(c) = choice {
            println!(
                "  seed {:>3}: warm start from {} [{}] (alignment {:.3}, {} archived evals)",
                h.seed, c.label, c.tech, c.alignment, c.n_evals
            );
        }
        match h.best() {
            Some(b) => println!(
                "  seed {:>3}: best score {:.4} after {} sims  {}",
                h.seed,
                b.score,
                h.len(),
                b.metrics
            ),
            None => println!("  seed {:>3}: nothing feasible in {} sims", h.seed, h.len()),
        }
        let warm_json = match choice {
            Some(c) => Json::obj(vec![
                ("source", Json::str(&c.label)),
                ("tech", Json::str(&c.tech)),
                ("same_tech", Json::Bool(c.same_tech)),
                ("alignment", Json::Num(c.alignment)),
                ("n_evals", Json::Num(c.n_evals as f64)),
            ]),
            None => Json::Null,
        };
        runs.push(Json::obj(vec![
            ("seed", Json::Num(h.seed as f64)),
            ("n_evals", Json::Num(h.len() as f64)),
            ("warm_start", warm_json),
            ("best", best_json(problem.as_ref(), h)),
        ]));
    }
    let n_feasible = histories.iter().filter(|h| h.best().is_some()).count();
    if n_feasible > 0 {
        let (mean, std) = final_stats(&histories);
        println!(
            "  final best over seeds: {mean:.4} +/- {std:.4} ({n_feasible}/{} seeds feasible)",
            histories.len()
        );
    }

    // Corner audit of the best design found (single-corner runs only; a
    // worst-case run already evaluated every corner per simulation). An
    // infeasible run has no design worth auditing: report that cleanly and
    // keep `corner_audit` null so consumers can tell "not audited" from
    // "audited zero corners".
    let audit_json = if worst || opts.yield_samples.is_some() {
        // Worst-case and yield runs already evaluated every corner of
        // interest per simulation; a separate audit adds nothing.
        Json::Null
    } else if n_feasible == 0 {
        println!(
            "  no feasible design found in {} sims — corner audit skipped",
            opts.budget
        );
        Json::Null
    } else {
        let best = histories
            .iter()
            .filter_map(RunHistory::best)
            .filter(|b| b.feasible)
            .max_by(|a, b| {
                a.score
                    .partial_cmp(&b.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("n_feasible > 0");
        let audit =
            corner_audit_at(scenario, tech, &best.x, opts.backend).map_err(|e| e.to_string())?;
        println!("  corner audit of the best design:");
        let mut rows = Vec::new();
        for eval in &audit {
            println!(
                "    {:<8} feasible={:<5} {}",
                eval.corner.name(),
                eval.feasible,
                eval.metrics
            );
            rows.push(Json::obj(vec![
                ("corner", Json::str(eval.corner.name())),
                ("feasible", Json::Bool(eval.feasible)),
                (
                    "metrics",
                    metrics_obj(problem.as_ref(), eval.metrics.values()),
                ),
            ]));
        }
        Json::Arr(rows)
    };

    let doc = Json::obj(vec![
        ("command", Json::str("run")),
        ("scenario", Json::str(name)),
        ("tech", Json::str(tech)),
        ("corner", Json::str(corner_arg)),
        ("backend", Json::str(backend_name)),
        ("budget", Json::Num(opts.budget as f64)),
        (
            "seeds",
            Json::nums(&seeds.iter().map(|&s| s as f64).collect::<Vec<_>>()),
        ),
        ("bank", opts.bank.as_deref().map_or(Json::Null, Json::str)),
        (
            "yield_samples",
            opts.yield_samples
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        (
            "yield_threshold",
            opts.yield_samples
                .map_or(Json::Null, |_| Json::Num(scenario.yield_preset.threshold)),
        ),
        ("feasible", Json::Bool(n_feasible > 0)),
        ("runs", Json::Arr(runs)),
        ("corner_audit", audit_json),
    ]);
    let default_path = match opts.yield_samples {
        Some(n) => format!("results/kato_run_{name}_{tech}_{corner_arg}_yield{n}.json"),
        None => format!("results/kato_run_{name}_{tech}_{corner_arg}.json"),
    };
    write_json(opts.out.as_deref().unwrap_or(&default_path), &doc)
}

fn cmd_transfer(
    registry: &ScenarioRegistry,
    src_name: &str,
    dst_name: &str,
    opts: &Opts,
) -> Result<(), String> {
    let src_scenario = registry.get(src_name).map_err(|e| e.to_string())?;
    let dst_scenario = registry.get(dst_name).map_err(|e| e.to_string())?;
    let src_tech = opts
        .src_tech
        .as_deref()
        .unwrap_or(src_scenario.default_tech);
    let dst_tech = opts.tech.as_deref().unwrap_or(dst_scenario.default_tech);
    let source = src_scenario
        .build(src_tech, &Corner::tt())
        .map_err(|e| e.to_string())?;
    let target = dst_scenario
        .build(dst_tech, &Corner::tt())
        .map_err(|e| e.to_string())?;
    println!(
        "transfer: {} -> {} (source archive {}, budget {}, {} seed(s))",
        source.name(),
        target.name(),
        opts.source_n,
        opts.budget,
        opts.seeds
    );

    let seeds = seed_list(opts.seeds);
    let plain = run_seeds(&seeds, |seed| {
        Kato::new(request_settings(opts.budget, seed)).run(target.as_ref(), Mode::Constrained)
    });
    let with_tl = run_seeds(&seeds, |seed| {
        let archive = SourceData::from_problem_random(source.as_ref(), opts.source_n, seed ^ 0xA5);
        Kato::new(request_settings(opts.budget, seed))
            .with_source(archive)
            .with_label("KATO+TL")
            .run(target.as_ref(), Mode::Constrained)
    });

    let report = |label: &str, hs: &[RunHistory]| {
        let feasible = hs.iter().filter(|h| h.best().is_some()).count();
        if feasible == 0 {
            println!("  {label} found nothing feasible in {} sims", opts.budget);
        } else {
            let (mean, std) = final_stats(hs);
            println!(
                "  {label} final best: {mean:.4} +/- {std:.4} ({feasible}/{} seeds feasible)",
                hs.len()
            );
        }
    };
    report("KATO   ", &plain);
    report("KATO+TL", &with_tl);
    let plain_feasible = plain.iter().filter(|h| h.best().is_some()).count();
    if plain_feasible > 0 {
        let (plain_mean, _) = final_stats(&plain);
        let tl_sims = mean_sims_to_reach(&with_tl, plain_mean);
        let plain_sims = mean_sims_to_reach(&plain, plain_mean);
        if tl_sims > 0.0 {
            println!(
                "  speed-up to plain-KATO final best: {:.2}x",
                plain_sims / tl_sims
            );
        }
    }

    let run_list = |hs: &[RunHistory]| {
        Json::Arr(
            hs.iter()
                .map(|h| {
                    Json::obj(vec![
                        ("seed", Json::Num(h.seed as f64)),
                        ("n_evals", Json::Num(h.len() as f64)),
                        ("best", best_json(target.as_ref(), h)),
                        ("best_curve", Json::nums(&h.best_curve())),
                    ])
                })
                .collect(),
        )
    };
    let doc = Json::obj(vec![
        ("command", Json::str("transfer")),
        ("source", Json::str(source.name())),
        ("target", Json::str(target.name())),
        ("budget", Json::Num(opts.budget as f64)),
        ("source_n", Json::Num(opts.source_n as f64)),
        ("kato", run_list(&plain)),
        ("kato_tl", run_list(&with_tl)),
    ]);
    let default_path = format!("results/kato_transfer_{src_name}_to_{dst_name}.json");
    write_json(opts.out.as_deref().unwrap_or(&default_path), &doc)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = ScenarioRegistry::standard();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            cmd_list(&registry);
            Ok(())
        }
        Some("run") => match args.get(1) {
            Some(name) if !name.starts_with("--") => parse_opts(
                "run",
                &[
                    "--tech",
                    "--corner",
                    "--backend",
                    "--seeds",
                    "--budget",
                    "--bank",
                    "--yield",
                    "--out",
                ],
                &args[2..],
            )
            .and_then(|opts| cmd_run(&registry, name, &opts)),
            _ => Err("run needs a scenario name (try 'kato list')".to_string()),
        },
        Some("transfer") => match (args.get(1), args.get(2)) {
            (Some(src), Some(dst)) if !src.starts_with("--") && !dst.starts_with("--") => {
                parse_opts(
                    "transfer",
                    &[
                        "--tech",
                        "--src-tech",
                        "--seeds",
                        "--budget",
                        "--source-n",
                        "--out",
                    ],
                    &args[3..],
                )
                .and_then(|opts| cmd_transfer(&registry, src, dst, &opts))
            }
            _ => Err("transfer needs <src> and <dst> scenario names".to_string()),
        },
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run 'kato help' for usage");
            ExitCode::from(2)
        }
    }
}
