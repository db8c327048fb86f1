#![warn(missing_docs)]

//! Order-preserving data-parallel helpers for the KATO workspace, run on
//! one persistent worker pool.
//!
//! Work is split into contiguous chunks (or, for [`par_map_dynamic`],
//! claimed item by item from a shared counter) and results are re-assembled
//! **in input order**, so as long as the per-item closure is a pure
//! function of its input the output is *bitwise identical* for every
//! thread count. That is the property the optimizer stack relies on: a
//! seeded run under `KATO_THREADS=1` and `KATO_THREADS=8` produces the
//! same trace.
//!
//! # The pool
//!
//! Every fan-out runs on one process-wide pool of parked worker threads,
//! started lazily by the first fan-out that needs it. A fan-out of width
//! `w` is `w` *parts*: the calling thread runs part 0, idle workers run
//! the rest, and the caller itself takes any part no worker has claimed
//! yet. The call returns only after every part has finished. Workers are
//! spawned on demand, up to the largest width ever requested minus one,
//! and then live as long as the process, parked on a condition variable
//! between fan-outs — so the thousands of small fan-outs of a sizing run
//! (MACE batches, NSGA-II population scoring, per-metric refits) cost a
//! wake-up each instead of an OS thread spawn and join. If a worker cannot
//! be spawned, the caller runs the unclaimed parts itself.
//!
//! The pool only runs parts. It holds no state that can reach a result:
//! which thread runs which part is up to the scheduler, but the split
//! into parts depends only on the input length and the width, and every
//! part writes its output to its own slot.
//!
//! A fan-out started from *inside* a part — a `par_map` whose closure
//! calls `par_map` — runs inline on that thread, exactly as a width-1
//! call would. Nesting therefore never holds more than `KATO_THREADS`
//! threads busy, and it cannot deadlock on workers that are all waiting
//! for each other. Several threads may start fan-outs at once (the
//! `katod --batch` pattern); they share the workers and each gets its own
//! results.
//!
//! # Thread-count control
//!
//! The width comes from the `KATO_THREADS` environment variable when set
//! to a positive integer, and from [`std::thread::available_parallelism`]
//! otherwise (`0`, empty or unparsable values fall back to the same
//! default). It is re-read on every call, so tests and long-lived
//! processes can re-tune without restarting.
//!
//! # Panics
//!
//! Every part runs under [`std::panic::catch_unwind`], so a panic never
//! kills a worker: the other parts finish, then the caller re-raises the
//! payload of the lowest-index part that panicked. [`par_map`] catches per
//! *item* (it delegates to [`try_par_map`]) and re-raises the first
//! failed item's message; [`par_map_mut`], [`par_chunks`] and
//! [`par_map_dynamic`] re-raise the original payload. [`try_par_map`]
//! instead returns one `Result` per item — the property a serving process
//! needs to turn one crashing job into one failed response instead of a
//! dead daemon.
//!
//! # Safety
//!
//! A part borrows the caller's closure and data, but the pool's job queue
//! is a `static`, so the one `unsafe` block in this crate erases the
//! lifetime of the caller's stack-allocated job. That is sound because
//! the private `run` cannot return or unwind before the job's completion
//! count reaches zero: the caller withdraws the job from the queue (under
//! the queue lock that every worker claims parts under) and then waits
//! until every claimed part has finished; parts run under `catch_unwind`,
//! and nothing between publishing the job and that wait can panic. A
//! worker touches a job only while it sits in the queue, under the lock,
//! or while its own claimed part keeps the count above zero; the count
//! itself lives in a separately reference-counted cell, so the worker's
//! final decrement does not touch the job.
//!
//! # Example
//!
//! ```
//! let squares = kato_par::par_map(&[1.0_f64, 2.0, 3.0], |x| x * x);
//! assert_eq!(squares, vec![1.0, 4.0, 9.0]);
//!
//! let out = kato_par::try_par_map(&[1, 2, 3], |&i| {
//!     assert!(i != 2, "boom on {i}");
//!     i * 10
//! });
//! assert_eq!(out[0], Ok(10));
//! assert!(out[1].as_ref().is_err_and(|m| m.contains("boom on 2")));
//! assert_eq!(out[2], Ok(30));
//! ```

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// Number of worker threads the helpers in this crate will use:
/// `KATO_THREADS` when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 when even that is unknown).
#[must_use]
pub fn num_threads() -> usize {
    match std::env::var("KATO_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Extracts a human-readable message from a panic payload: the `&str` or
/// `String` that `panic!` produces, or a placeholder for exotic payloads
/// (`panic_any` with a non-string type).
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Set while this thread runs a part; a fan-out started then runs inline.
    static IN_PART: Cell<bool> = const { Cell::new(false) };
}

/// Width of a fan-out over `len` items: 1 inside a part, otherwise
/// [`num_threads`] capped at `len`.
fn width(len: usize) -> usize {
    if IN_PART.get() {
        1
    } else {
        num_threads().min(len)
    }
}

/// Locks `m`, ignoring poison: no user code runs while this crate holds
/// one of its locks, and each update under one is a single push, pop or
/// store, so the data is valid even after a panic elsewhere.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One fan-out: `parts` calls of `body`, claimed through `next`.
struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync + 'a),
    parts: usize,
    /// Next unclaimed part. `Relaxed`: the counter publishes no data, and
    /// workers see the job itself through the `POOL` lock.
    next: AtomicUsize,
    panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>>,
    /// Owned apart from the job, so a worker can count its part finished
    /// without touching the job, which may be gone once the count is zero.
    done: Arc<Done>,
}

/// Parts not yet finished; the caller parks until the count is zero. Each
/// decrement is a `Release` that the caller's `Acquire` load of zero pairs
/// with, so every part's writes are visible once `run` returns.
struct Done {
    pending: AtomicUsize,
    caller: Thread,
}

impl Job<'_> {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.parts).then_some(i)
    }

    /// Runs part `i` (inline-nesting on) and records its panic, if any.
    fn execute(&self, i: usize) {
        let was_in_part = IN_PART.replace(true);
        let result = catch_unwind(AssertUnwindSafe(|| (self.body)(i)));
        IN_PART.set(was_in_part);
        if let Err(payload) = result {
            lock(&self.panics).push((i, payload));
        }
    }
}

/// Published jobs (a worker pops one once its parts are all claimed) and
/// the number of workers spawned.
struct Pool {
    queue: VecDeque<&'static Job<'static>>,
    workers: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    queue: VecDeque::new(),
    workers: 0,
});
static WORK: Condvar = Condvar::new();

fn worker() {
    IN_PART.set(true);
    let mut pool = lock(&POOL);
    loop {
        let Some(&job) = pool.queue.front() else {
            pool = WORK.wait(pool).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        match job.claim() {
            Some(i) => {
                drop(pool);
                let done = Arc::clone(&job.done);
                job.execute(i);
                if done.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    done.caller.unpark();
                }
                pool = lock(&POOL);
            }
            None => {
                pool.queue.pop_front();
            }
        }
    }
}

/// Runs `body(0)`, …, `body(parts - 1)` on the pool and returns when all
/// of them have finished, re-raising the lowest-index part's panic.
fn run(parts: usize, body: &(dyn Fn(usize) + Sync)) {
    if parts == 0 {
        return;
    }
    let job = Job {
        body,
        parts,
        next: AtomicUsize::new(1),
        panics: Mutex::new(Vec::new()),
        done: Arc::new(Done {
            pending: AtomicUsize::new(parts),
            caller: thread::current(),
        }),
    };
    // SAFETY: `shared` outlives `job` only as far as the type system can
    // see; nothing dereferences it after `run` returns. Workers reach a
    // job only through the queue, under the `POOL` lock, and `run`
    // withdraws `job` from the queue under that lock before it waits. A
    // worker that claimed a part uses `job` until the part has run and
    // then only its own clone of `done`, and `run` waits until
    // `done.pending` is zero, i.e. until every claimed part has run.
    // Parts run under `catch_unwind`, and nothing else between
    // publishing `shared` and that wait can panic, so `run` can neither
    // return nor unwind while a worker still uses `shared`.
    #[allow(unsafe_code)]
    let shared = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) };
    {
        let mut pool = lock(&POOL);
        // Workers are detached on purpose: they never exit, and every
        // part's panic is caught and re-raised on its caller.
        while pool.workers < parts - 1 {
            let name = format!("kato_par-{}", pool.workers);
            if thread::Builder::new().name(name).spawn(worker).is_err() {
                break;
            }
            pool.workers += 1;
        }
        pool.queue.push_back(shared);
    }
    for _ in 1..parts {
        WORK.notify_one();
    }
    let mut i = 0;
    loop {
        job.execute(i);
        job.done.pending.fetch_sub(1, Ordering::AcqRel);
        match job.claim() {
            Some(next) => i = next,
            None => break,
        }
    }
    {
        let mut pool = lock(&POOL);
        if let Some(pos) = pool.queue.iter().position(|&j| std::ptr::eq(j, shared)) {
            pool.queue.remove(pos);
        }
    }
    while job.done.pending.load(Ordering::Acquire) != 0 {
        thread::park();
    }
    let first = job
        .panics
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .min_by_key(|&(i, _)| i);
    if let Some((_, payload)) = first {
        resume_unwind(payload);
    }
}

/// [`run`] with one result per part, returned in part order.
fn run_collect<R: Send>(parts: usize, part: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = (0..parts).map(|_| Mutex::new(None)).collect();
    run(parts, &|i| {
        let r = part(i);
        *lock(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("run returns only after every part finished")
        })
        .collect()
}

/// Fault-isolating sibling of [`par_map`]: applies `f` to every item across
/// the pool and returns, **in input order**, `Ok(result)` per item — or
/// `Err(message)` for an item whose closure panicked, without disturbing
/// any other item. The catch is per *item*, so one poisoned input in a
/// chunk does not take its chunk-mates down with it.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let caught = |t: &T| catch_unwind(AssertUnwindSafe(|| f(t))).map_err(|p| panic_message(&*p));
    par_chunks(items, |c| c.iter().map(caught).collect())
}

/// Applies `f` to every item, fanning out across the pool, and returns the
/// results **in input order**. With one thread (or one item) this is exactly
/// `items.iter().map(f).collect()`, so seeded pipelines stay reproducible
/// across thread counts.
///
/// Delegates to [`try_par_map`]; a panicking item re-raises here (with the
/// captured message) after the rest of the fan-out completed.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_par_map(items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("{msg}")))
        .collect()
}

/// Streams items through the pool with dynamic work-claiming and returns
/// the results **in input order**. With one thread (or one item) this is
/// exactly `items.iter().map(f).collect()`.
///
/// Where [`par_map`] pre-shards the input into equal contiguous chunks
/// (best locality), here each part claims the next unprocessed index from
/// a shared atomic counter as soon as it finishes its current item. That
/// is the right schedule when per-item cost is wildly uneven — e.g. an
/// early-aborting Monte-Carlo yield evaluation, where one candidate costs
/// a single sample and its neighbour costs `corners × samples` — because
/// a run of expensive items can no longer serialise a whole chunk behind
/// the same thread.
///
/// The claim order is scheduler-dependent, but each result is written back
/// to its item's own slot, so the output is in input order and — for a
/// pure `f` — bitwise identical to the serial loop at any thread count.
/// A panicking item re-raises its original payload here after the other
/// parts finished.
pub fn par_map_dynamic<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let width = width(items.len());
    if width <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts = run_collect(width, |_| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            mine.push((i, f(item)));
        }
        mine
    });
    // Scatter claimed results back into input order.
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

/// Mutable sibling of [`par_map`]: applies `f` to every item through a
/// mutable reference (e.g. warm-started surrogate refits) and returns the
/// per-item results in input order. A panicking item re-raises its
/// original payload here after the other chunks finished.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let width = width(items.len());
    if width <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = items.len().div_ceil(width);
    let chunks: Vec<Mutex<Option<&mut [T]>>> = items
        .chunks_mut(chunk)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    run_collect(chunks.len(), |i| {
        let chunk = lock(&chunks[i]).take().expect("each part runs once");
        chunk.iter_mut().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Splits `items` into at most [`num_threads`] contiguous chunks of
/// `ceil(len/threads)` items, maps each chunk through `f` concurrently, and
/// concatenates the per-chunk outputs in input order — the entry point for
/// closures that already work on batches (e.g. one batched
/// linear-algebra call per chunk). An empty input never calls `f`. A
/// panicking chunk re-raises its original payload here after the other
/// chunks finished.
pub fn par_chunks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let width = width(items.len());
    if width <= 1 {
        return f(items);
    }
    let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(width)).collect();
    run_collect(chunks.len(), |i| f(chunks[i]))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
fn workers() -> usize {
    lock(&POOL).workers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises every test that fans out: some of them set
    /// `KATO_THREADS` (process-global), and the worker-count test must not
    /// see another test widen the pool mid-way.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        lock(&ENV_LOCK)
    }

    /// Runs `f` with `KATO_THREADS` set to `n` and restores the previous
    /// value afterwards. Callers hold [`locked`].
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let prev = std::env::var("KATO_THREADS").ok();
        std::env::set_var("KATO_THREADS", n.to_string());
        let out = catch_unwind(AssertUnwindSafe(f));
        match prev {
            Some(v) => std::env::set_var("KATO_THREADS", v),
            None => std::env::remove_var("KATO_THREADS"),
        }
        out.unwrap_or_else(|p| resume_unwind(p))
    }

    #[test]
    fn par_map_preserves_order() {
        let _guard = locked();
        let items: Vec<usize> = (0..103).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_bitwise() {
        let _guard = locked();
        let items: Vec<f64> = (0..57).map(|i| f64::from(i) * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e3).exp().ln() + x.sqrt();
        let serial: Vec<f64> = items.iter().map(f).collect();
        let parallel = par_map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        let _guard = locked();
        assert!(par_map::<usize, usize, _>(&[], |&i| i).is_empty());
        assert_eq!(par_map(&[7], |&i: &usize| i + 1), vec![8]);
    }

    #[test]
    fn par_map_mut_updates_in_place() {
        let _guard = locked();
        let mut items: Vec<usize> = (0..41).collect();
        let olds = par_map_mut(&mut items, |v| {
            let old = *v;
            *v += 100;
            old
        });
        assert_eq!(olds, (0..41).collect::<Vec<_>>());
        assert_eq!(items, (100..141).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_dynamic_matches_serial_bitwise() {
        let _guard = locked();
        let items: Vec<f64> = (0..157).map(|i| f64::from(i) * 0.73).collect();
        let f = |x: &f64| (x.cos() * 1e2).exp().ln() - x.cbrt();
        let serial: Vec<f64> = items.iter().map(f).collect();
        assert_eq!(par_map_dynamic(&items, f), serial);
        assert!(par_map_dynamic::<usize, usize, _>(&[], |&i| i).is_empty());
        assert_eq!(par_map_dynamic(&[9], |&i: &usize| i * i), vec![81]);
    }

    #[test]
    fn par_map_dynamic_keeps_order_under_uneven_cost() {
        let _guard = locked();
        // Items deliberately cost wildly different amounts; the output must
        // still land in input order.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_dynamic(&items, |&i| {
            if i % 7 == 0 {
                // Burn some cycles so claim order scrambles.
                let mut acc = 0_u64;
                for k in 0..20_000 {
                    acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
                }
                std::hint::black_box(acc);
            }
            i * 3
        });
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_concatenates_in_order() {
        let _guard = locked();
        let items: Vec<usize> = (0..37).collect();
        let out = par_chunks(&items, |c| c.iter().map(|&i| i + 1).collect());
        assert_eq!(out, (1..38).collect::<Vec<_>>());
        assert!(par_chunks::<usize, usize, _>(&[], |_| unreachable!()).is_empty());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    /// Capture-less hook swap so the panic tests don't spray backtraces
    /// into the test output; restores the default on drop.
    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn try_par_map_isolates_a_panicking_item() {
        let _guard = locked();
        quietly(|| {
            let items: Vec<usize> = (0..23).collect();
            let out = try_par_map(&items, |&i| {
                assert!(i != 13, "injected failure on {i}");
                i * 2
            });
            assert_eq!(out.len(), 23);
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("injected failure on 13"), "{msg}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 2));
                }
            }
        });
    }

    /// A panicking chunk of [`par_chunks`] is reported with its message
    /// while every other chunk still runs to completion.
    #[test]
    fn try_par_chunks_reports_per_chunk() {
        let _guard = locked();
        with_threads(4, || {
            quietly(|| {
                let items: Vec<usize> = (0..10).collect();
                let done = Mutex::new(Vec::new());
                let err = catch_unwind(AssertUnwindSafe(|| {
                    par_chunks(&items, |c| {
                        assert!(!c.contains(&3), "chunk holds 3");
                        lock(&done).extend(c.iter().map(|&i| i + 1));
                        c.iter().map(|&i| i + 1).collect()
                    })
                }))
                .unwrap_err();
                assert!(panic_message(&*err).contains("chunk holds 3"));
                // Chunks of 3: only [3, 4, 5] failed; every other item survived.
                let mut done = done.into_inner().unwrap();
                done.sort_unstable();
                assert_eq!(done, vec![1, 2, 3, 7, 8, 9, 10]);
            });
        });
    }

    /// A panicking item of [`par_map_dynamic`] is reported with its message
    /// while every other item is still claimed and evaluated.
    #[test]
    fn try_par_map_dynamic_isolates_a_panicking_item() {
        let _guard = locked();
        with_threads(4, || {
            quietly(|| {
                let items: Vec<usize> = (0..29).collect();
                let done = Mutex::new(Vec::new());
                let err = catch_unwind(AssertUnwindSafe(|| {
                    par_map_dynamic(&items, |&i| {
                        assert!(i != 17, "dynamic failure on {i}");
                        lock(&done).push(i + 5);
                        i + 5
                    })
                }))
                .unwrap_err();
                assert!(panic_message(&*err).contains("dynamic failure on 17"));
                let mut done = done.into_inner().unwrap();
                done.sort_unstable();
                let expect: Vec<usize> = (0..29).filter(|&i| i != 17).map(|i| i + 5).collect();
                assert_eq!(done, expect);
            });
        });
    }

    #[test]
    fn panicking_apis_still_panic_with_the_message() {
        let _guard = locked();
        quietly(|| {
            let err =
                std::panic::catch_unwind(|| par_map(&[1, 2], |&i| -> usize { panic!("item {i}") }))
                    .unwrap_err();
            assert!(panic_message(&*err).contains("item"));
        });
    }

    #[test]
    fn panic_message_handles_payload_kinds() {
        quietly(|| {
            let p = std::panic::catch_unwind(|| panic!("plain")).unwrap_err();
            assert_eq!(panic_message(&*p), "plain");
            let p = std::panic::catch_unwind(|| panic!("{} {}", "fmt", 1)).unwrap_err();
            assert_eq!(panic_message(&*p), "fmt 1");
            let p = std::panic::catch_unwind(|| std::panic::panic_any(42_i32)).unwrap_err();
            assert_eq!(panic_message(&*p), "non-string panic payload");
        });
    }

    #[test]
    fn repeated_fan_outs_reuse_the_workers() {
        let _guard = locked();
        let before = workers();
        with_threads(4, || {
            let items: Vec<u64> = (0..16).collect();
            for round in 0..1_000_u64 {
                let out = par_map(&items, |&i| i * round);
                assert_eq!(out[15], 15 * round);
            }
        });
        // Width 4 needs 3 workers; no call spawned one of its own.
        assert_eq!(workers(), before.max(3));
    }

    #[test]
    fn nested_fan_outs_run_inline_and_match_serial() {
        let _guard = locked();
        let inner: Vec<u64> = (0..9).collect();
        let expect = |i: u64| inner.iter().map(|&j| i * 100 + j).sum::<u64>();
        // Each inner item reports whether it ran on the thread that runs
        // the outer item: a nested fan-out must not leave it.
        let on_outer_thread = |outer: thread::ThreadId| {
            par_map(&inner, |_| thread::current().id() == outer)
                .into_iter()
                .all(|same| same)
        };
        let mut outer: Vec<u64> = (0..7).collect();
        with_threads(3, || {
            let nested = par_map(&outer, |&i| {
                assert!(on_outer_thread(thread::current().id()));
                par_map(&inner, |&j| i * 100 + j).iter().sum::<u64>()
            });
            assert_eq!(nested, outer.iter().map(|&i| expect(i)).collect::<Vec<_>>());
            let nested_mut = par_map_mut(&mut outer, |i| {
                assert!(on_outer_thread(thread::current().id()));
                *i += 1;
                par_map(&inner, |&j| (*i - 1) * 100 + j).iter().sum::<u64>()
            });
            assert_eq!(nested_mut, (0..7).map(expect).collect::<Vec<_>>());
        });
        assert_eq!(outer, (1..8).collect::<Vec<_>>());
    }

    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    #[test]
    fn a_panicking_part_reraises_on_the_caller_and_the_pool_survives() {
        let _guard = locked();
        with_threads(4, || {
            quietly(|| {
                let items: Vec<usize> = (0..20).collect();
                let err = catch_unwind(|| {
                    par_chunks(&items, |c| {
                        if c.contains(&7) || c.contains(&17) {
                            std::panic::panic_any(Boom(c[0]));
                        }
                        c.to_vec()
                    })
                })
                .unwrap_err();
                // Chunks of 5: the lowest-index panicking chunk starts at 5.
                assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(5)));

                let mut cells = items.clone();
                let err = catch_unwind(AssertUnwindSafe(|| {
                    par_map_mut(&mut cells, |v| {
                        if *v == 12 {
                            std::panic::panic_any(Boom(*v));
                        }
                        *v
                    })
                }))
                .unwrap_err();
                assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(12)));

                let err = catch_unwind(|| {
                    par_map_dynamic(&items, |&i| {
                        if i == 17 {
                            std::panic::panic_any(Boom(i));
                        }
                        i
                    })
                })
                .unwrap_err();
                assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(17)));

                let err =
                    catch_unwind(|| par_map(&items, |&i| -> usize { panic!("item {i} failed") }))
                        .unwrap_err();
                assert_eq!(panic_message(&*err), "item 0 failed");
            });
            let workers_after_panics = workers();
            let items: Vec<usize> = (0..20).collect();
            assert_eq!(par_map(&items, |&i| i + 1), (1..21).collect::<Vec<_>>());
            assert_eq!(workers(), workers_after_panics);
        });
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let _guard = locked();
        with_threads(4, || {
            let start = std::sync::Barrier::new(4);
            let results: Vec<Vec<u64>> = thread::scope(|s| {
                let handles: Vec<_> = (0..4_u64)
                    .map(|t| {
                        let start = &start;
                        s.spawn(move || {
                            let items: Vec<u64> = (0..200).collect();
                            start.wait();
                            let mut last = Vec::new();
                            for _ in 0..50 {
                                last = par_map(&items, |&i| i * 1_000 + t);
                            }
                            last
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (t, out) in results.iter().enumerate() {
                let expect: Vec<u64> = (0..200).map(|i| i * 1_000 + t as u64).collect();
                assert_eq!(out, &expect);
            }
        });
    }

    #[test]
    fn changing_the_width_between_calls_keeps_output_bitwise_equal() {
        let _guard = locked();
        let items: Vec<f64> = (0..131).map(|i| f64::from(i) * 0.29).collect();
        let f = |x: &f64| (x.sin() * 7.0).exp() / (1.0 + x.sqrt());
        let outputs: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = [1, 4, 3]
            .into_iter()
            .map(|n| {
                with_threads(n, || {
                    (
                        par_map(&items, f),
                        par_map_dynamic(&items, f),
                        par_chunks(&items, |c| c.iter().map(f).collect()),
                    )
                })
            })
            .collect();
        for (a, b, c) in &outputs {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(&outputs[0].0));
            assert_eq!(bits(b), bits(&outputs[0].0));
            assert_eq!(bits(c), bits(&outputs[0].0));
        }
    }
}
