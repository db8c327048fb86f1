//! Deterministic failpoints for fault-injection testing.
//!
//! A *failpoint* is a named hook compiled into a production code path that
//! does nothing unless armed. Arming happens either through the
//! `KATO_FAILPOINTS` environment variable (read once, at first use) or
//! programmatically via [`arm`] — the spec format is the same:
//!
//! ```text
//! KATO_FAILPOINTS=bank_write=2,sim_panic=5
//! ```
//!
//! i.e. a comma-separated list of `name=value` pairs, where `value` is a
//! non-negative integer whose meaning depends on how the site consults the
//! failpoint:
//!
//! * **Countdown sites** call [`countdown`]: the failpoint fires on each of
//!   the first `value` hits, then stops. `bank_write=2` makes the first two
//!   bank write attempts fail with an injected I/O error (exercising the
//!   retry/backoff path); `bank_torn=1` tears the first archive write.
//! * **Match sites** call [`matches()`] with a caller-supplied key: the
//!   failpoint fires iff `key == value`. `sim_panic=5` panics every
//!   evaluation of the job whose request *seed* is 5 — deterministic
//!   regardless of how a batch interleaves across worker threads.
//!
//! There are deliberately no dependencies and no timers here: given the
//! same spec and the same request stream, the same faults fire, which is
//! what lets integration tests assert exact daemon behaviour under
//! injected crashes, torn writes and I/O failures.
//!
//! Registered failpoint names (sites live in this crate):
//!
//! | name         | kind      | effect when fired                                  |
//! |--------------|-----------|----------------------------------------------------|
//! | `bank_write` | countdown | bank file write attempt fails with an I/O error    |
//! | `bank_torn`  | countdown | bank file write leaves a torn (truncated) file     |
//! | `sim_panic`  | match     | evaluation panics for the job with `seed == value` |

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Parses a failpoint spec string (`name=N[,name=N...]`) into pairs.
///
/// Whitespace around names/values is tolerated; empty segments are
/// skipped; malformed segments (no `=`, non-integer value) are ignored
/// rather than panicking — a typo'd spec degrades to "not armed", never to
/// a crashed daemon.
#[must_use]
pub fn parse_spec(spec: &str) -> Vec<(String, u64)> {
    spec.split(',')
        .filter_map(|part| {
            let part = part.trim();
            let (name, value) = part.split_once('=')?;
            let name = name.trim();
            let value: u64 = value.trim().parse().ok()?;
            (!name.is_empty()).then(|| (name.to_string(), value))
        })
        .collect()
}

/// Armed values plus per-failpoint hit counters.
#[derive(Debug, Default)]
struct Registry {
    armed: HashMap<String, u64>,
    hits: HashMap<String, u64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let armed = std::env::var("KATO_FAILPOINTS")
            .map(|spec| parse_spec(&spec).into_iter().collect())
            .unwrap_or_default();
        Mutex::new(Registry {
            armed,
            hits: HashMap::new(),
        })
    })
}

/// Replaces the armed failpoint table from a spec string and resets all
/// hit counters. Tests use this for in-process arming; production arming
/// goes through `KATO_FAILPOINTS`.
pub fn arm(spec: &str) {
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    reg.armed = parse_spec(spec).into_iter().collect();
    reg.hits.clear();
}

/// Disarms every failpoint and resets hit counters.
pub fn disarm_all() {
    arm("");
}

/// The armed value for `name`, if any.
#[must_use]
pub fn armed(name: &str) -> Option<u64> {
    let reg = registry().lock().expect("failpoint registry poisoned");
    reg.armed.get(name).copied()
}

/// Countdown-site check: counts the hit and returns `true` while fewer
/// than the armed value of hits have occurred (i.e. the first `N` hits
/// fire). Always `false` when the failpoint is not armed (the hit is still
/// counted for [`hits`] observability).
#[must_use]
pub fn countdown(name: &str) -> bool {
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    let count = reg.hits.entry(name.to_string()).or_insert(0);
    *count += 1;
    let fired_on = *count;
    reg.armed.get(name).is_some_and(|&n| fired_on <= n)
}

/// Match-site check: `true` iff `name` is armed and its value equals
/// `key`. Counts a hit only when it fires.
#[must_use]
pub fn matches(name: &str, key: u64) -> bool {
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    let fires = reg.armed.get(name) == Some(&key);
    if fires {
        *reg.hits.entry(name.to_string()).or_insert(0) += 1;
    }
    fires
}

/// Number of recorded hits for `name` (fired hits for match sites, all
/// hits for countdown sites).
#[must_use]
pub fn hits(name: &str) -> u64 {
    let reg = registry().lock().expect("failpoint registry poisoned");
    reg.hits.get(name).copied().unwrap_or(0)
}

/// Serialises tests that mutate the process-global registry. A test that
/// calls [`arm`] / [`disarm_all`] should hold the returned guard for its
/// whole body so parallel test threads don't observe each other's armed
/// state, and so should a test that reaches a failpoint site (a bank
/// write, a daemon job) in a binary where another test arms one.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_is_lenient() {
        assert_eq!(
            parse_spec("bank_write=2, sim_panic = 5"),
            vec![("bank_write".to_string(), 2), ("sim_panic".to_string(), 5)]
        );
        assert!(parse_spec("").is_empty());
        assert!(parse_spec("noequals,=3,x=abc, =").is_empty());
        assert_eq!(parse_spec("ok=0"), vec![("ok".to_string(), 0)]);
    }

    // The registry is process-global, so the stateful checks live in ONE
    // test (cargo runs tests in parallel threads).
    #[test]
    fn arm_countdown_match_lifecycle() {
        let _guard = test_lock();
        arm("cd=2,mk=7");
        assert_eq!(armed("cd"), Some(2));
        assert_eq!(armed("nope"), None);
        // Countdown: first two hits fire, third passes.
        assert!(countdown("cd"));
        assert!(countdown("cd"));
        assert!(!countdown("cd"));
        assert_eq!(hits("cd"), 3);
        // Match: fires only on the armed key.
        assert!(!matches("mk", 6));
        assert!(matches("mk", 7));
        assert!(matches("mk", 7));
        assert_eq!(hits("mk"), 2);
        // Unarmed countdown never fires but still counts.
        assert!(!countdown("other"));
        assert_eq!(hits("other"), 1);
        disarm_all();
        assert_eq!(armed("cd"), None);
        assert_eq!(hits("cd"), 0);
        assert!(!matches("mk", 7));
    }
}
