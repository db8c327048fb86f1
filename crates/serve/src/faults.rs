//! Deterministic failpoints for fault-injection testing.
//!
//! A *failpoint* is a named hook compiled into a production code path that
//! does nothing unless armed. Failpoints are armed on a [`Faults`] handle,
//! and only the object holding that handle sees them: a [`crate::Bank`]
//! checks its own handle before every file write and a [`crate::Daemon`]
//! checks its own handle for every job, so a failpoint armed in one test
//! never fires inside another test's bank or daemon. There is no
//! process-global registry. `katod` is the only place that builds a handle
//! from the `KATO_FAILPOINTS` environment variable ([`Faults::from_env`]);
//! tests build one with [`Faults::parse`]. The spec format is the same:
//!
//! ```text
//! KATO_FAILPOINTS=bank_write=2,sim_panic=5
//! ```
//!
//! i.e. a comma-separated list of `name=value` pairs, where `value` is a
//! non-negative integer whose meaning depends on how the site consults the
//! failpoint:
//!
//! * **Countdown sites** call [`Faults::countdown`]: the failpoint fires on
//!   each of the first `value` hits, then stops. `bank_write=2` makes the
//!   first two bank write attempts fail with an injected I/O error
//!   (exercising the retry/backoff path); `bank_torn=1` tears the first
//!   archive write.
//! * **Match sites** call [`Faults::matches`] with a caller-supplied key:
//!   the failpoint fires iff `key == value`. `sim_panic=5` panics every
//!   evaluation of the job whose request *seed* is 5 — deterministic
//!   regardless of how a batch interleaves across worker threads.
//!
//! There are deliberately no dependencies and no timers here: given the
//! same spec and the same request stream, the same faults fire, which is
//! what lets integration tests assert exact daemon behaviour under
//! injected crashes, torn writes and I/O failures.
//!
//! Registered failpoint names:
//!
//! | name         | kind      | owner  | effect when fired                                  |
//! |--------------|-----------|--------|----------------------------------------------------|
//! | `bank_write` | countdown | Bank   | bank file write attempt fails with an I/O error    |
//! | `bank_torn`  | countdown | Bank   | bank file write leaves a torn (truncated) file     |
//! | `sim_panic`  | match     | Daemon | evaluation panics for the job with `seed == value` |

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Parses a failpoint spec string (`name=N[,name=N...]`) into pairs.
///
/// Whitespace around names/values is tolerated; empty segments are
/// skipped; malformed segments (no `=`, non-integer value) are ignored
/// rather than panicking — a typo'd spec degrades to "not armed", never to
/// a crashed daemon.
fn parse_spec(spec: &str) -> Vec<(String, u64)> {
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
struct Table {
    armed: HashMap<String, u64>,
    hits: Mutex<HashMap<String, u64>>,
}

/// A set of armed failpoints and their hit counters.
///
/// [`Default`] is disarmed. Clones share one armed table and one set of
/// hit counters, so a test can hand a clone to the object under test and
/// keep one to read [`Faults::hits`].
#[derive(Debug, Clone, Default)]
pub struct Faults(Arc<Table>);

impl Faults {
    /// Arms the failpoints named in `spec` (`name=N[,name=N...]`, parsed
    /// leniently: malformed segments are ignored).
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        Faults(Arc::new(Table {
            armed: parse_spec(spec).into_iter().collect(),
            hits: Mutex::default(),
        }))
    }

    /// Arms the failpoints named in `KATO_FAILPOINTS`; disarmed when the
    /// variable is unset.
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("KATO_FAILPOINTS")
            .map(|spec| Faults::parse(&spec))
            .unwrap_or_default()
    }

    fn hits_table(&self) -> std::sync::MutexGuard<'_, HashMap<String, u64>> {
        self.0.hits.lock().expect("failpoint hit counters poisoned")
    }

    /// The armed value for `name`, if any.
    #[must_use]
    pub fn armed(&self, name: &str) -> Option<u64> {
        self.0.armed.get(name).copied()
    }

    /// Countdown-site check: counts the hit and returns `true` while fewer
    /// than the armed value of hits have occurred (i.e. the first `N` hits
    /// fire). Always `false` when the failpoint is not armed (the hit is
    /// still counted for [`Faults::hits`] observability).
    #[must_use]
    pub fn countdown(&self, name: &str) -> bool {
        let mut hits = self.hits_table();
        let count = hits.entry(name.to_string()).or_insert(0);
        *count += 1;
        self.armed(name).is_some_and(|n| *count <= n)
    }

    /// Match-site check: `true` iff `name` is armed and its value equals
    /// `key`. Counts a hit only when it fires.
    #[must_use]
    pub fn matches(&self, name: &str, key: u64) -> bool {
        let fires = self.armed(name) == Some(key);
        if fires {
            *self.hits_table().entry(name.to_string()).or_insert(0) += 1;
        }
        fires
    }

    /// Number of recorded hits for `name` (fired hits for match sites, all
    /// hits for countdown sites).
    #[must_use]
    pub fn hits(&self, name: &str) -> u64 {
        self.hits_table().get(name).copied().unwrap_or(0)
    }
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

    #[test]
    fn arm_countdown_match_lifecycle() {
        let faults = Faults::parse("cd=2,mk=7");
        assert_eq!(faults.armed("cd"), Some(2));
        assert_eq!(faults.armed("nope"), None);
        // Countdown: first two hits fire, third passes.
        assert!(faults.countdown("cd"));
        assert!(faults.countdown("cd"));
        assert!(!faults.countdown("cd"));
        assert_eq!(faults.hits("cd"), 3);
        // Match: fires only on the armed key.
        assert!(!faults.matches("mk", 6));
        assert!(faults.matches("mk", 7));
        assert!(faults.matches("mk", 7));
        assert_eq!(faults.hits("mk"), 2);
        // Unarmed countdown never fires but still counts.
        assert!(!faults.countdown("other"));
        assert_eq!(faults.hits("other"), 1);
        // A clone shares the table and the counters.
        let clone = faults.clone();
        assert!(!clone.countdown("cd"));
        assert_eq!(faults.hits("cd"), 4);
        // A disarmed handle never fires and shares nothing.
        let disarmed = Faults::default();
        assert_eq!(disarmed.armed("cd"), None);
        assert_eq!(disarmed.hits("cd"), 0);
        assert!(!disarmed.matches("mk", 7));
        assert!(!disarmed.countdown("cd"));
    }
}
