//! Scoped worker pool with deterministic sharding.
//!
//! Built on `std::thread::scope` only — the build environment has no
//! crates.io access, so rayon is unavailable. Three properties drive the
//! design:
//!
//! 1. **Fixed shard boundaries.** Work is split by pure functions of the
//!    problem size ([`shard_ranges`], [`reduce_shards`]), never of the
//!    thread count, so every floating-point reduction has the same shape —
//!    and therefore the same bits — whether it runs on 1 thread or 64.
//! 2. **Single-thread fast path.** With one effective thread (or inside an
//!    already-parallel region) no threads are spawned at all: the exact
//!    sequential loop runs inline on the caller, so `NFM_THREADS=1` is a
//!    plain, debuggable serial execution of the same arithmetic.
//! 3. **No nesting.** Worker closures run with a thread-local flag set;
//!    pool calls made from inside a worker degrade to the sequential path
//!    instead of oversubscribing the machine. Data-level parallelism (batch
//!    shards) therefore composes safely with kernel-level parallelism
//!    (matmul row shards).
//!
//! The thread count comes from the `NFM_THREADS` environment variable,
//! falling back to [`std::thread::available_parallelism`]; tests override
//! it in-process with [`set_threads`]. Whatever is requested, the count
//! actually used to spawn workers is capped at the machine's hardware
//! parallelism (see [`effective_threads`]) — oversubscribing compute-bound
//! kernels only adds spawn overhead.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard cap on worker threads (a safety bound for absurd `NFM_THREADS`).
pub const MAX_THREADS: usize = 64;

/// Shard count used by order-sensitive reductions ([`reduce_shards`]).
/// A constant — never derived from the thread count — so reduction trees
/// are identical for every parallelism level.
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
/// hardware parallelism. The cap matters for compute-bound kernels:
/// requesting `NFM_THREADS=4` on a 1-core host used to spawn four scoped
/// threads that time-slice one core, paying full spawn overhead for zero
/// speedup (the `matmul_96x256x256`/`pretrain_epoch` 4-thread bench
/// regressions). Oversubscription never helps these kernels, and results
/// are bitwise identical at every worker count, so capping is purely a
/// performance decision.
pub fn effective_threads() -> usize {
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

/// Time one task and record it in the `pool.task.wall_us` histogram (a
/// wall-clock metric: rendered in tables, excluded from the deterministic
/// JSONL snapshot).
fn timed_task<R>(f: &(impl Fn(usize) -> R + Sync), i: usize) -> R {
    let t0 = std::time::Instant::now();
    let r = f(i);
    nfm_obs::histogram!("pool.task.wall_us", nfm_obs::Unit::Micros, nfm_obs::WALL_EDGES)
        .observe(t0.elapsed().as_micros() as u64);
    r
}

/// Run `f(task_index)` for every task, returning results in task order.
/// Tasks are handed to workers through an atomic counter, so scheduling is
/// nondeterministic — callers must ensure tasks are independent (they get
/// `&self`-style shared access only). The returned ordering is always by
/// task index regardless of which worker ran what.
pub fn par_map<R, F>(n_tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads().min(n_tasks);
    nfm_obs::counter!("pool.par_map.calls").inc();
    nfm_obs::counter!("pool.par_map.tasks").add(n_tasks as u64);
    // Gauge writes are last-write-wins; restricting them to the main thread
    // keeps the final snapshot value deterministic (workers would race).
    if !IN_WORKER.with(Cell::get) {
        nfm_obs::gauge!("pool.threads.effective").set(threads.max(1) as f64);
    }
    if threads <= 1 {
        let f = &f;
        return (0..n_tasks).map(|i| timed_task(f, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
    let collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        local.push((i, timed_task(f, i)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    });
    for (i, r) in collected.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("pool task not executed")).collect()
}

/// Minimum total work (in flop-like units) before [`par_map_work`] spawns
/// threads. Mirrors the matmul gate: workers are scoped OS threads
/// (~tens of µs to spawn), so fanning out below roughly a million
/// flop-like units of work costs more than it saves — the sequential path
/// is strictly faster for small jobs like single-request inference.
pub const PAR_WORK_MIN: usize = 1 << 20;

/// [`par_map`] with a work gate: runs sequentially inline when
/// `total_work < ` [`PAR_WORK_MIN`], spawning workers only when the job is
/// big enough to amortise thread startup. `total_work` is the caller's
/// estimate of the whole call's cost in flop-like units. Results are
/// bitwise identical on either path — tasks are independent and returned
/// in task order — so the gate is a performance decision, never a
/// correctness one.
pub fn par_map_work<R, F>(n_tasks: usize, total_work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if total_work < PAR_WORK_MIN || effective_threads() <= 1 {
        let f = &f;
        return (0..n_tasks).map(|i| timed_task(f, i)).collect();
    }
    par_map(n_tasks, f)
}

/// Split `data` into chunks of `chunk_len` elements and run
/// `f(element_offset, chunk)` over each, in parallel when worthwhile.
/// Chunks are disjoint, so any per-element or per-chunk computation is
/// deterministic regardless of thread count.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = effective_threads().min(n_chunks.max(1));
    nfm_obs::counter!("pool.par_chunks.calls").inc();
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i * chunk_len, chunk);
        }
        return;
    }
    // Strided assignment: worker w owns chunks w, w+threads, … — fixed
    // chunk boundaries, so results never depend on the assignment.
    let mut per_worker: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        per_worker[i % threads].push((i * chunk_len, chunk));
    }
    let f = &f;
    std::thread::scope(|scope| {
        for assigned in per_worker {
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for (offset, chunk) in assigned {
                    f(offset, chunk);
                }
            });
        }
    });
}

/// Deterministic parallel reduction: split `0..len` into [`REDUCE_SHARDS`]
/// fixed shards, compute `partial(range)` per shard (in parallel once `len`
/// clears [`par_map_work`]'s gate), then left-fold the partials **in shard
/// order** with `combine`. Because the shard boundaries and fold order are
/// pure functions of `len`, the result is bitwise identical for every
/// thread count.
pub fn reduce_shards<R, P, C>(len: usize, init: R, partial: P, combine: C) -> R
where
    R: Send,
    P: Fn(Range<usize>) -> R + Sync,
    C: Fn(R, R) -> R,
{
    let ranges = shard_ranges(len, REDUCE_SHARDS);
    let partials = par_map_work(ranges.len(), len, |i| partial(ranges[i].clone()));
    partials.into_iter().fold(init, combine)
}

/// Chunk length for elementwise parallel ops over a `len`-element slice:
/// the whole slice when parallelism isn't worthwhile (small input, single
/// thread, already inside a worker), otherwise an even split across the
/// effective workers. Chunk boundaries never affect elementwise results.
///
/// The gate reuses [`PAR_WORK_MIN`]: elementwise ops are ~one flop-like
/// unit per element and memory-bound besides, so below a million elements
/// the scoped-thread spawns (~tens of µs each) cost more than the whole
/// sequential loop. The old 8192-element gate made every mid-sized tensor
/// in the micro-batched serving path (e.g. 512×64 activations) spawn
/// workers for microseconds of work, which is why 4-thread serving
/// benchmarked *slower* than 1-thread.
pub fn elem_chunk(len: usize) -> usize {
    let threads = effective_threads();
    if threads <= 1 || len < PAR_WORK_MIN {
        len.max(1)
    } else {
        len.div_ceil(threads)
    }
}

/// Fixed-shard sum of squares (the gradient-clipping hot loop). Each shard
/// accumulates sequentially; shard partials fold in order, so the value is
/// independent of the thread count.
pub fn sum_sq(xs: &[f32]) -> f32 {
    if xs.len() < 4096 {
        return xs.iter().map(|v| v * v).sum();
    }
    reduce_shards(xs.len(), 0.0f32, |r| xs[r].iter().map(|v| v * v).sum::<f32>(), |acc, p| acc + p)
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
    fn par_map_preserves_task_order() {
        set_threads(4);
        let out = par_map(100, |i| i * 3);
        set_threads(0);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        set_threads(3);
        let mut data = vec![0u32; 1000];
        par_chunks_mut(&mut data, 7, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v += (offset + i) as u32 + 1;
            }
        });
        set_threads(0);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
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
        let nested = par_map(4, |_| effective_threads());
        set_threads(0);
        assert!(nested.iter().all(|&t| t == 1), "workers must not nest: {nested:?}");
    }

    #[test]
    fn par_map_work_gates_small_jobs_and_matches_par_map() {
        set_threads(4);
        let small = par_map_work(8, 100, |i| i * 7);
        let big = par_map_work(8, PAR_WORK_MIN * 2, |i| i * 7);
        set_threads(0);
        let expect: Vec<usize> = (0..8).map(|i| i * 7).collect();
        assert_eq!(small, expect, "sequential path below the gate");
        assert_eq!(big, expect, "parallel path above the gate");
    }

    #[test]
    fn reduce_shards_below_the_work_gate_stays_on_the_calling_thread() {
        set_threads(4);
        let caller = std::thread::current().id();
        let on_caller = reduce_shards(
            PAR_WORK_MIN - 1,
            true,
            |_| std::thread::current().id() == caller,
            |acc, p| acc && p,
        );
        set_threads(0);
        assert!(on_caller, "a partial below PAR_WORK_MIN ran on a worker thread");
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
