//! Scoped worker pool with deterministic sharding.
//!
//! Built on `std::thread::scope` only — the build environment has no
//! crates.io access, so rayon is unavailable, and every crate forbids
//! `unsafe`, so workers are spawned per dispatch rather than kept warm.
//! [`par_map_work`] is the one dispatcher: it runs coarse tasks (training
//! shards, attention heads, batched prediction), and the `Matrix` kernels
//! inside them are plain sequential loops. Three properties drive the
//! design:
//!
//! 1. **Fixed shard boundaries.** Work is split by pure functions of the
//!    problem size ([`shard_ranges`]), never of the thread count, so every
//!    floating-point reduction has the same shape — and therefore the same
//!    bits — whether it runs on 1 thread or 64.
//! 2. **Single-thread fast path.** With one effective thread, below the
//!    work gate, or inside an already-parallel region no threads are
//!    spawned at all: the tasks run inline on the caller in index order, so
//!    `NFM_THREADS=1` is a plain, debuggable serial execution of the same
//!    arithmetic.
//! 3. **No nesting.** Worker closures run with a thread-local flag set; a
//!    dispatch made from inside a worker runs inline instead of
//!    oversubscribing the machine, so a task (a training shard, say) may
//!    itself dispatch (its attention heads) safely.
//!
//! A dispatch over `n` workers spawns `n − 1` of them: the calling thread
//! is the n-th, running the same loop under the same flag, which a drop
//! guard restores even if a task panics. [`par_map_work`] deals its tasks
//! costliest first so the longest ones start first, and hands each worker
//! one state (a model replica, for the training loops) built on its first
//! task.
//!
//! The thread count comes from the `NFM_THREADS` environment variable,
//! falling back to [`std::thread::available_parallelism`]; tests override
//! it in-process with [`set_threads`]. Whatever is requested, the count
//! actually used to spawn workers is capped at the machine's hardware
//! parallelism — oversubscribing compute-bound tasks only adds spawn
//! overhead.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Hard cap on worker threads (a safety bound for absurd `NFM_THREADS`).
pub const MAX_THREADS: usize = 64;

/// Shard count used by order-sensitive reductions ([`sum_sq`] and the
/// training loops' gradient shards). A constant — never derived from the
/// thread count — so reduction trees are identical for every parallelism
/// level.
pub const REDUCE_SHARDS: usize = 8;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static DEFAULT: OnceLock<usize> = OnceLock::new();

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn env_default() -> usize {
    std::env::var("NFM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(MAX_THREADS)
}

/// The configured worker count: the [`set_threads`] override if set,
/// otherwise `NFM_THREADS`, otherwise the machine's available parallelism.
pub fn num_threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    *DEFAULT.get_or_init(env_default)
}

/// Override the worker count in-process (`0` clears the override and
/// returns to the `NFM_THREADS`/auto default). Intended for tests and
/// benchmarks; results are bitwise identical at every setting, so a
/// concurrent override is a performance event, never a correctness one.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// The machine's available hardware parallelism (cached).
fn hw_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker count effective at this call site: 1 inside a pool worker (no
/// nested spawning), otherwise [`num_threads`] capped at the machine's
/// hardware parallelism. The cap matters for compute-bound tasks:
/// requesting `NFM_THREADS=4` on a 1-core host used to spawn four scoped
/// threads that time-slice one core, paying full spawn overhead for zero
/// speedup (the `pretrain_epoch` 4-thread bench regression).
/// Oversubscription never helps, and results are bitwise identical at
/// every worker count, so capping is purely a performance decision.
fn effective_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        num_threads().min(hw_threads())
    }
}

/// Split `0..len` into `shards` contiguous ranges whose boundaries depend
/// only on `(len, shards)`. Empty trailing ranges are dropped.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    let mut out = Vec::with_capacity(shards);
    for s in 0..shards {
        let start = s * len / shards;
        let end = (s + 1) * len / shards;
        if start < end {
            out.push(start..end);
        }
    }
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

/// Sets the calling thread's `IN_WORKER` flag while it runs pool tasks and
/// restores the previous value on drop, so a task that panics on the
/// calling thread cannot leave the flag set.
struct WorkerFlag(bool);

impl WorkerFlag {
    fn set() -> WorkerFlag {
        WorkerFlag(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerFlag {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// The dispatch loop behind [`par_map_work`]. With one thread the tasks
/// run inline on the caller in index order, flag untouched, on one state
/// that `init` builds only when there is a task; nothing is timed and
/// `order` is never built. Otherwise every thread takes the next position
/// of `order()` from one atomic counter until none is left, building its
/// state with `init` on its first task, and `threads − 1` scoped workers
/// join the calling thread, which runs the same loop under [`WorkerFlag`].
/// A spawning dispatch times each task into `pool.task.wall_us` and
/// records the capacity its threads spent outside tasks (threads × wall −
/// task time: spawns, `init`, the tail wait) in `pool.dispatch.idle_us`;
/// both are wall-clock metrics, kept out of the JSONL unless `NFM_OBS_WALL`
/// is set. Results come back in task order whoever ran them.
fn dispatch<S, R, O, I, F>(threads: usize, n_tasks: usize, order: O, init: I, f: F) -> Vec<R>
where
    R: Send,
    O: FnOnce() -> Vec<usize>,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if threads <= 1 {
        let mut state = None;
        return (0..n_tasks).map(|i| f(state.get_or_insert_with(&init), i)).collect();
    }
    let order = order();
    let task_wall =
        nfm_obs::histogram!("pool.task.wall_us", nfm_obs::Unit::Micros, nfm_obs::WALL_EDGES);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = None;
        let mut done = Vec::new();
        let mut busy = Duration::ZERO;
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let state = state.get_or_insert_with(&init);
            let t0 = Instant::now();
            done.push((i, f(state, i)));
            let took = t0.elapsed();
            task_wall.observe(took.as_micros() as u64);
            busy += took;
        }
        (done, busy)
    };
    let t0 = Instant::now();
    let shares: Vec<(Vec<(usize, R)>, Duration)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let _flag = WorkerFlag::set();
                    work()
                })
            })
            .collect();
        let mine = {
            let _flag = WorkerFlag::set();
            work()
        };
        std::iter::once(mine)
            .chain(workers.into_iter().map(|w| w.join().expect("pool worker panicked")))
            .collect()
    });
    let busy: Duration = shares.iter().map(|(_, busy)| *busy).sum();
    let capacity = t0.elapsed() * threads as u32;
    nfm_obs::histogram!("pool.dispatch.idle_us", nfm_obs::Unit::Micros, nfm_obs::WALL_EDGES)
        .observe(capacity.saturating_sub(busy).as_micros() as u64);
    let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
    for (i, r) in shares.into_iter().flat_map(|(done, _)| done) {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("pool task not executed")).collect()
}

/// Minimum total work (in flop-like units) before [`par_map_work`] spawns
/// threads. Workers are scoped OS threads (~tens of µs to spawn), so
/// fanning out below roughly a million flop-like units of work costs more
/// than it saves — the sequential path is strictly faster for small jobs
/// like single-request inference.
pub const PAR_WORK_MIN: usize = 1 << 20;

/// The order [`par_map_work`] deals tasks in: costliest first, ties by
/// index, so the longest tasks start first and the short ones fill the
/// tail.
fn costliest_first(costs: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    order
}

/// Run `f(state, task_index)` for task `i` of cost `costs[i]`, returning
/// results in task order. Each thread that runs a task, the caller
/// included, builds one `state` with `init` on its first task and hands it
/// to every task it runs — a model replica, say, that each task resets
/// before use. Tasks must not depend on what an earlier task left in the
/// state, since which tasks share one is nondeterministic.
///
/// The costs are the caller's estimates in flop-like units. Below a total
/// of [`PAR_WORK_MIN`] (or with one effective worker) the tasks run inline
/// in index order on one state, spawning nothing and counting nothing;
/// above it the dispatch counts in the `pool.par_map.*` metrics and its
/// tasks go out costliest first, ties by index. Results are bitwise
/// identical on either path, so the gate and the order are performance
/// decisions, never correctness ones.
pub fn par_map_work<S, R, I, F>(costs: &[usize], init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let total = costs.iter().fold(0usize, |sum, &c| sum.saturating_add(c));
    let threads = effective_threads();
    if total < PAR_WORK_MIN || threads <= 1 {
        return dispatch(1, costs.len(), Vec::new, init, f);
    }
    let threads = threads.min(costs.len());
    nfm_obs::counter!("pool.par_map.calls").inc();
    nfm_obs::counter!("pool.par_map.tasks").add(costs.len() as u64);
    // Gauge writes are last-write-wins: a worker never gets here (its
    // effective thread count is 1), so workers cannot race on the value.
    nfm_obs::gauge!("pool.threads.effective").set(threads as f64);
    dispatch(threads, costs.len(), || costliest_first(costs), init, f)
}

/// Fixed-shard sum of squares (the gradient-clipping hot loop): one
/// sequential sum below 4096 elements, otherwise the sequential sums of
/// the [`REDUCE_SHARDS`] fixed shards of `0..len`, folded in shard order.
/// The value is a pure function of `xs`.
pub fn sum_sq(xs: &[f32]) -> f32 {
    let seq = |xs: &[f32]| xs.iter().map(|v| v * v).sum::<f32>();
    if xs.len() < 4096 {
        return seq(xs);
    }
    shard_ranges(xs.len(), REDUCE_SHARDS).into_iter().fold(0.0, |acc, r| acc + seq(&xs[r]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 8, 9, 100, 1023] {
            for shards in [1usize, 2, 7, 8, 64] {
                let ranges = shard_ranges(len, shards);
                let mut covered = 0;
                let mut prev_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "contiguous");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, len, "len {len} shards {shards}");
            }
        }
    }

    #[test]
    fn shard_ranges_are_a_pure_function_of_len() {
        set_threads(1);
        let a = shard_ranges(1000, REDUCE_SHARDS);
        set_threads(4);
        let b = shard_ranges(1000, REDUCE_SHARDS);
        set_threads(0);
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_work_preserves_task_order() {
        set_threads(4);
        let out = par_map_work(&[PAR_WORK_MIN; 100], || (), |_, i| i * 3);
        set_threads(0);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sum_sq_is_thread_count_invariant() {
        let xs: Vec<f32> = (0..20_000).map(|i| (i as f32 * 0.37).sin()).collect();
        set_threads(1);
        let a = sum_sq(&xs);
        set_threads(4);
        let b = sum_sq(&xs);
        set_threads(0);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn nested_calls_degrade_to_sequential() {
        set_threads(4);
        let nested = par_map_work(&[PAR_WORK_MIN; 4], || (), |_, _| effective_threads());
        set_threads(0);
        assert!(nested.iter().all(|&t| t == 1), "workers must not nest: {nested:?}");
    }

    #[test]
    fn par_map_work_gates_small_jobs() {
        set_threads(4);
        let small = par_map_work(&[12; 8], || (), |_, i| i * 7);
        let big = par_map_work(&[PAR_WORK_MIN / 4; 8], || (), |_, i| i * 7);
        set_threads(0);
        let expect: Vec<usize> = (0..8).map(|i| i * 7).collect();
        assert_eq!(small, expect, "sequential path below the gate");
        assert_eq!(big, expect, "parallel path above the gate");
    }

    #[test]
    fn tasks_are_dealt_costliest_first_ties_by_index() {
        assert_eq!(costliest_first(&[3, 7, 7, 1, 9, 3]), vec![4, 1, 2, 0, 5, 3]);
        assert_eq!(costliest_first(&[5; 4]), vec![0, 1, 2, 3]);
        assert_eq!(costliest_first(&[]), Vec::<usize>::new());
    }

    #[test]
    fn par_map_work_matches_the_sequential_map_for_random_costs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..40 {
            let n = rng.gen_range(0..24);
            // Up to a third of the gate per task: some calls run inline,
            // most fan out.
            let costs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..PAR_WORK_MIN / 3)).collect();
            let expect: Vec<usize> = (0..n).map(|i| i * 31 + costs[i]).collect();
            for threads in [1, 4] {
                set_threads(threads);
                let got = par_map_work(&costs, || (), |_, i| i * 31 + costs[i]);
                assert_eq!(got, expect, "costs {costs:?} at {threads} threads");
            }
        }
        set_threads(0);
    }

    #[test]
    fn init_runs_once_inline_and_at_most_once_per_worker() {
        use std::sync::Mutex;
        let inits = AtomicUsize::new(0);
        set_threads(4);
        let inline = par_map_work(
            &[1; 8],
            || inits.fetch_add(1, Ordering::SeqCst),
            |state, i| {
                *state += 1;
                i
            },
        );
        assert_eq!(inline, (0..8).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::SeqCst), 1, "the inline path builds one state");

        // Each state remembers the thread that built it; every task must
        // see its own thread's state, and no thread builds two.
        let built = Mutex::new(Vec::new());
        let ran = par_map_work(
            &[PAR_WORK_MIN; 16],
            || {
                let me = std::thread::current().id();
                built.lock().expect("no test thread panics holding the lock").push(me);
                me
            },
            |state, _| {
                assert_eq!(*state, std::thread::current().id(), "a state crossed threads");
                *state
            },
        );
        set_threads(0);
        let built = built.into_inner().expect("no test thread panics holding the lock");
        let ran_on: std::collections::HashSet<_> = ran.into_iter().collect();
        assert_eq!(built.len(), ran_on.len(), "one init per thread that ran a task: {built:?}");
    }

    #[test]
    fn init_never_runs_without_a_task() {
        let inits = AtomicUsize::new(0);
        for threads in [1, 4] {
            set_threads(threads);
            let none = par_map_work(&[], || inits.fetch_add(1, Ordering::SeqCst), |_, i| i);
            assert!(none.is_empty());
        }
        set_threads(0);
        assert_eq!(inits.load(Ordering::SeqCst), 0, "a dispatch without tasks built a state");
    }

    #[test]
    fn the_calling_thread_runs_a_task() {
        if hw_threads() < 2 {
            return;
        }
        set_threads(2);
        let caller = std::thread::current().id();
        let idle = nfm_obs::global().histogram(
            "pool.dispatch.idle_us",
            nfm_obs::Unit::Micros,
            nfm_obs::WALL_EDGES,
        );
        let idle_before = idle.count();
        let started = AtomicUsize::new(0);
        let ran_on = par_map_work(
            &[PAR_WORK_MIN; 2],
            || (),
            |_, _| {
                // Each task waits for the other to start, so they run on two
                // threads: with two workers, one of them is the caller. The
                // timeout keeps a concurrent `set_threads(1)` from hanging the
                // inline path.
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                std::thread::current().id()
            },
        );
        set_threads(0);
        assert!(ran_on.contains(&caller), "no task ran on the calling thread: {ran_on:?}");
        if ran_on[0] != ran_on[1] {
            assert!(idle.count() > idle_before, "a spawning dispatch records its idle time");
        }
    }

    #[test]
    fn a_task_panicking_on_the_caller_leaves_effective_threads_as_it_was() {
        use std::panic::catch_unwind;
        let in_worker = || IN_WORKER.with(Cell::get);
        assert!(!in_worker());
        set_threads(2);
        // Every task panics; a worker stops at its first, so the caller
        // runs one whether or not a worker spawned.
        let mapped = catch_unwind(|| {
            par_map_work(&[PAR_WORK_MIN; 2], || (), |_, _| -> usize { panic!("task fails") })
        });
        set_threads(0);
        assert!(mapped.is_err(), "the panic must propagate");
        // effective_threads() reads 1 while the flag is set.
        assert!(!in_worker(), "a panicking task left the caller marked as a worker");
    }

    #[test]
    fn effective_threads_never_exceeds_hardware() {
        set_threads(MAX_THREADS);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(effective_threads() <= hw);
        set_threads(0);
    }

    #[test]
    fn set_threads_round_trip() {
        set_threads(2);
        assert_eq!(num_threads(), 2);
        set_threads(0);
        assert!(num_threads() >= 1);
    }
}
