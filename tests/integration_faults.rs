//! Fault-tolerance integration suite: the serving stack under injected
//! panics, corrupt bank files and request deadlines.
//!
//! Complements `integration_bank.rs` (the happy-path warm-start flow) by
//! driving the same stack through its failure modes: deterministic
//! failpoints on a [`Faults`] handle, hand-corrupted archive files, and
//! adversarial request lines (property-fuzzed parsers).
//!
//! Each test arms only the bank or daemon it builds, so tests run in
//! parallel without a lock; the scoping tests at the end check that an
//! armed object never leaks a fault into a disarmed one.

use kato_serve::daemon::run_with_bank;
use kato_serve::{Bank, Daemon, Faults, Json, SizingRequest};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Barrier;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kato_faults_test_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// JSON-flavoured alphabet: random bytes mapped here reach much deeper
/// into the parser than raw bytes (which mostly die at the first token).
fn json_ish(bytes: &[u32]) -> String {
    const ALPHABET: &[u8] = br#"{}[]":,.0123456789eE+-truefalsenull \scenario"#;
    bytes
        .iter()
        .map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char)
        .collect()
}

proptest! {
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u32..256, 0..120),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&raw);
        // Ok or Err are both fine; a panic fails the test.
        let _ = Json::parse(&text);
        let _ = Json::parse(&json_ish(&bytes));
    }

    #[test]
    fn request_parse_rejects_garbage_cleanly(
        bytes in proptest::collection::vec(0u32..256, 0..120),
        cut in 0usize..200,
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let _ = SizingRequest::parse(&String::from_utf8_lossy(&raw));
        let _ = SizingRequest::parse(&json_ish(&bytes));
        // Truncations of a valid request must error, never panic.
        let valid = r#"{"id":"j","scenario":"opamp2","tech":"40nm","specs":{"gain_db":55.0},"seed":9,"budget":20}"#;
        let cut = cut.min(valid.len());
        if cut < valid.len() {
            prop_assert!(SizingRequest::parse(&valid[..cut]).is_err());
        }
    }
}

#[test]
fn batch_with_a_panicking_job_isolates_the_failure() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Seed 5 crashes every one of its simulator evaluations; 7 and 9 run
    // normally alongside it on the same pool.
    let faults = Faults::parse("sim_panic=5");
    let mut daemon = Daemon::new().with_faults(faults.clone());
    let lines = vec![
        r#"{"id":"crash","scenario":"opamp2","budget":8,"seed":5}"#.to_string(),
        r#"{"id":"fine-1","scenario":"opamp2","budget":8,"seed":7}"#.to_string(),
        r#"{"id":"fine-2","scenario":"opamp2","budget":8,"seed":9}"#.to_string(),
    ];
    let out = daemon.handle_batch(&lines);
    std::panic::set_hook(prev_hook);
    assert_eq!(out.len(), 3);

    let crash = Json::parse(&out[0]).unwrap();
    assert_eq!(crash.get("status").unwrap().as_str(), Some("error"));
    assert_eq!(crash.get("id").unwrap().as_str(), Some("crash"));
    let msg = crash.get("error").unwrap().as_str().unwrap();
    assert!(msg.contains("panicked"), "{msg}");

    for (line, id) in [(&out[1], "fine-1"), (&out[2], "fine-2")] {
        let doc = Json::parse(line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"), "{line}");
        assert_eq!(doc.get("id").unwrap().as_str(), Some(id));
        assert_eq!(doc.get("n_evals").unwrap().as_f64(), Some(8.0));
    }
    assert!(faults.hits("sim_panic") >= 1);

    // The daemon is still serving: the crashed request succeeds once the
    // failpoint is disarmed, and health reflects the failure.
    let mut daemon = daemon.with_faults(Faults::default());
    let retry = daemon.handle_line(r#"{"id":"retry","scenario":"opamp2","budget":8,"seed":5}"#);
    let doc = Json::parse(&retry).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    let health = Json::parse(&daemon.handle_line(r#"{"op":"health"}"#)).unwrap();
    assert_eq!(health.get("jobs_failed").unwrap().as_f64(), Some(1.0));
    assert_eq!(health.get("jobs_served").unwrap().as_f64(), Some(3.0));
}

#[test]
fn corrupt_archive_still_warm_starts_and_shows_in_health() {
    let dir = tmp_dir("quarantine");

    // Populate the bank with a real 180 nm archive through the daemon.
    {
        let bank = Bank::open(&dir).unwrap();
        let mut daemon = Daemon::new().with_bank(bank);
        let resp = daemon.handle_line(r#"{"id":"seed","scenario":"opamp2","budget":12,"seed":3}"#);
        assert_eq!(
            Json::parse(&resp).unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
    }
    // Plant a corrupt sibling archive, as a crashed writer would leave.
    fs::write(dir.join("opamp2__40nm.json"), "{\"version\":1,\"runs\":[tr").unwrap();

    // A fresh daemon over the damaged bank: open heals (quarantines the
    // torn file, keeps the good archive) instead of refusing.
    let bank = Bank::open(&dir).unwrap();
    assert_eq!(bank.quarantined_on_open(), 1);
    let mut daemon = Daemon::new().with_bank(bank);

    let health = Json::parse(&daemon.handle_line(r#"{"op":"health"}"#)).unwrap();
    let bank_doc = health.get("bank").unwrap();
    assert_eq!(bank_doc.get("attached").unwrap().as_bool(), Some(true));
    assert_eq!(bank_doc.get("entries").unwrap().as_f64(), Some(1.0));
    assert_eq!(bank_doc.get("quarantined").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        bank_doc.get("quarantined_on_open").unwrap().as_f64(),
        Some(1.0)
    );

    // And the surviving archive still powers a cross-tech warm start.
    let resp = daemon
        .handle_line(r#"{"id":"warm","scenario":"opamp2","tech":"40nm","budget":12,"seed":4}"#);
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    let warm = doc.get("warm_start").unwrap();
    assert!(!warm.is_null(), "{resp}");
    assert_eq!(warm.get("source").unwrap().as_str(), Some("opamp2_180nm"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_bank_write_failures_are_invisible_to_callers() {
    let dir = tmp_dir("retry");
    // Two injected write failures are absorbed by the retry loop: the
    // append succeeds and the archive lands on disk intact.
    let faults = Faults::parse("bank_write=2");
    {
        let bank = Bank::open(&dir).unwrap().with_faults(faults.clone());
        let mut daemon = Daemon::new().with_bank(bank);
        let resp = daemon.handle_line(r#"{"id":"w","scenario":"opamp2","budget":8,"seed":6}"#);
        assert_eq!(
            Json::parse(&resp).unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
    }
    assert!(faults.hits("bank_write") >= 3);
    let bank = Bank::open(&dir).unwrap();
    assert_eq!(bank.quarantined_on_open(), 0);
    assert_eq!(bank.total_runs(), 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deadline_in_a_batch_degrades_only_its_own_job() {
    let mut daemon = Daemon::new();
    let lines = vec![
        r#"{"id":"slow","scenario":"opamp2","budget":30,"seed":21,"deadline_ms":1}"#.to_string(),
        r#"{"id":"full","scenario":"opamp2","budget":8,"seed":22}"#.to_string(),
    ];
    let out = daemon.handle_batch(&lines);
    let slow = Json::parse(&out[0]).unwrap();
    assert_eq!(slow.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(slow.get("degraded").unwrap().as_bool(), Some(true));
    assert!(slow.get("n_evals").unwrap().as_f64().unwrap() < 30.0);
    let full = Json::parse(&out[1]).unwrap();
    assert_eq!(full.get("degraded").unwrap().as_bool(), Some(false));
    assert_eq!(full.get("n_evals").unwrap().as_f64(), Some(8.0));
    // Only the full run was cached; the degraded trace was discarded.
    assert_eq!(daemon.cache().len(), 1);
}

#[test]
fn run_with_bank_honours_a_preset_cancel_flag() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let registry = kato_circuits::ScenarioRegistry::standard();
    let req = SizingRequest::parse(r#"{"scenario":"opamp2","budget":10,"seed":2}"#).unwrap();
    let (problem, tech) = req.build_problem(&registry).unwrap();
    let flag = Arc::new(AtomicBool::new(true));
    let budget = kato::RunBudget::unlimited().with_cancel(flag);
    let settings = kato_serve::daemon::request_settings(req.budget, req.seed);
    let (history, warm) = run_with_bank(None, "opamp2", &tech, &*problem, settings, Some(budget));
    assert_eq!(history.len(), 0);
    assert!(warm.is_none());
}

#[test]
fn an_armed_daemon_never_faults_a_concurrent_disarmed_one() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let line = r#"{"id":"same","scenario":"opamp2","budget":8,"seed":5}"#;
    let start = Barrier::new(2);
    let (armed, disarmed) = std::thread::scope(|s| {
        let run = |faults: Faults| {
            let start = &start;
            s.spawn(move || {
                let mut daemon = Daemon::new().with_faults(faults);
                start.wait();
                daemon.handle_line(line)
            })
        };
        let armed = run(Faults::parse("sim_panic=5"));
        let disarmed = run(Faults::default());
        (armed.join().unwrap(), disarmed.join().unwrap())
    });
    std::panic::set_hook(prev_hook);
    let armed = Json::parse(&armed).unwrap();
    assert_eq!(armed.get("status").unwrap().as_str(), Some("error"));
    let disarmed = Json::parse(&disarmed).unwrap();
    assert_eq!(disarmed.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(disarmed.get("n_evals").unwrap().as_f64(), Some(8.0));
}

#[test]
fn an_armed_bank_never_tears_a_concurrent_disarmed_one() {
    let registry = kato_circuits::ScenarioRegistry::standard();
    let req = SizingRequest::parse(r#"{"scenario":"opamp2","budget":8,"seed":3}"#).unwrap();
    let (problem, tech) = req.build_problem(&registry).unwrap();
    let settings = kato_serve::daemon::request_settings(req.budget, req.seed);
    let (history, _) = run_with_bank(None, "opamp2", &tech, &*problem, settings, None);

    let armed_dir = tmp_dir("scoped_armed");
    let disarmed_dir = tmp_dir("scoped_disarmed");
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (dir, faults) in [
            (&armed_dir, Faults::parse("bank_torn=1")),
            (&disarmed_dir, Faults::default()),
        ] {
            let (start, history, tech) = (&start, &history, &tech);
            s.spawn(move || {
                let mut bank = Bank::open(dir).unwrap().with_faults(faults);
                start.wait();
                bank.append("opamp2", tech, history).unwrap();
            });
        }
    });
    let armed = Bank::open(&armed_dir).unwrap();
    assert_eq!(armed.quarantined_on_open(), 1);
    assert_eq!(armed.total_runs(), 0);
    let disarmed = Bank::open(&disarmed_dir).unwrap();
    assert_eq!(disarmed.quarantined_on_open(), 0);
    assert_eq!(disarmed.total_runs(), 1);
    fs::remove_dir_all(&armed_dir).unwrap();
    fs::remove_dir_all(&disarmed_dir).unwrap();
}
