//! Unified observability for the `nfm` workspace: a metrics registry, span
//! tracing, and a JSONL event sink — with zero dependencies and a hard
//! determinism discipline.
//!
//! Every layer of the stack (tensor pool, matmul kernels, pre-training,
//! fine-tuning, the serving engine) reports into one global
//! [`MetricsRegistry`] of counters, gauges, and fixed-bucket histograms keyed
//! by `&'static str` names. The full metric and event catalogue lives in
//! `OBSERVABILITY.md` at the repository root.
//!
//! # Determinism contract
//!
//! The workspace's experiments assert bitwise reproducibility under a fixed
//! seed, and the observability layer must not break that:
//!
//! * Counters and histograms are integer-valued with order-independent
//!   (atomic, saturating) addition, so their final values do not depend on
//!   thread interleaving.
//! * Spans meter **two** quantities: non-deterministic wall time, recorded
//!   into a `*.wall_us` histogram, and deterministic cost units (the MAC
//!   counts used by `plan_inference_cost` budgets), recorded into a
//!   `*.cost` histogram and attached to the span's JSONL event.
//! * The JSONL sink ([`emit_metrics`]) skips every metric whose [`Unit`] is
//!   wall-clock (`us`) unless `NFM_OBS_WALL` is set, so two seeded runs of
//!   the same binary produce **byte-identical** event streams. Without
//!   it, wall times are read in process only, through
//!   [`MetricsRegistry::snapshot`].
//!
//! # Usage
//!
//! ```
//! use nfm_obs::Unit;
//!
//! // Counters/gauges/histograms: the macro caches the registry lookup at
//! // the call site, so hot paths pay one atomic add per hit.
//! nfm_obs::counter!("demo.requests").inc();
//! nfm_obs::counter!("demo.macs", Unit::Macs).add(1 << 20);
//! nfm_obs::gauge!("demo.queue.depth").set(3.0);
//! nfm_obs::histogram!("demo.latency_us", Unit::Micros, nfm_obs::WALL_EDGES).observe(42);
//!
//! // Spans: wall time on drop, plus explicit deterministic cost units.
//! {
//!     let mut span = nfm_obs::span!("demo.step");
//!     span.add_cost(1_000); // e.g. MACs charged by the kernel
//! }
//!
//! // Events: named JSONL records (no-ops unless a sink is installed).
//! nfm_obs::event("demo.rollback", &[("epoch", nfm_obs::Value::U(3))]);
//! ```
//!
//! Set `NFM_OBS_OUT=/path/to/run.jsonl` before launching a binary to stream
//! events to a file; tests install an in-memory sink via [`install_buffer`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod sink;
mod span;

pub use metrics::{
    global, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, MetricsRegistry, Unit,
};
pub use sink::{
    disable, emit_metrics, emit_table, enabled, event, flush, install_buffer, set_writer, Value,
};
pub use span::Span;

/// Default bucket upper bounds (inclusive, microseconds) for wall-time
/// histograms: 10 µs … 10 s in decades, plus an overflow bucket.
pub const WALL_EDGES: &[u64] = &[10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Default bucket upper bounds (inclusive, cost units ≈ MACs) for
/// deterministic-cost histograms: 1 K … 1 G in decades, plus overflow.
pub const COST_EDGES: &[u64] =
    &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// Default bucket upper bounds (inclusive, thousandths) for milli-unit
/// histograms such as gradient norms: 0.001 … 1000.0, plus overflow.
pub const NORM_EDGES: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Reset all global observability state: zero every registered metric,
/// rewind the JSONL sequence number, and restart span ids at 1.
///
/// Intended for tests and double-run determinism harnesses; the installed
/// sink writer (if any) is left in place.
pub fn reset() {
    metrics::global().reset();
    sink::reset_seq();
    span::reset_ids();
}

/// Look up (and on first use register) a [`Counter`] in the global registry,
/// caching the `&'static` handle at the call site.
///
/// `counter!("name")` uses [`Unit::Count`]; `counter!("name", unit)` sets an
/// explicit unit. The name must be unique across metric kinds.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, $crate::Unit::Count)
    };
    ($name:expr, $unit:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::global().counter($name, $unit))
    }};
}

/// Look up (and on first use register) a [`Gauge`] in the global registry,
/// caching the `&'static` handle at the call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::gauge!($name, $crate::Unit::Count)
    };
    ($name:expr, $unit:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::global().gauge($name, $unit))
    }};
}

/// Look up (and on first use register) a [`Histogram`] in the global
/// registry, caching the `&'static` handle at the call site.
///
/// `$edges` must be a `&'static [u64]` of strictly increasing inclusive
/// upper bounds (see [`WALL_EDGES`] / [`COST_EDGES`] / [`NORM_EDGES`]).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $unit:expr, $edges:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::global().histogram($name, $unit, $edges))
    }};
}

/// Open a [`Span`] named by a string literal. On drop the span records its
/// wall time into `<name>.wall_us`, any cost charged via [`Span::add_cost`]
/// into `<name>.cost`, and emits a deterministic JSONL `span` event (id,
/// parent id, cost — never wall time).
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span::enter(
            $name,
            $crate::histogram!(
                concat!($name, ".wall_us"),
                $crate::Unit::Micros,
                $crate::WALL_EDGES
            ),
            $crate::histogram!(concat!($name, ".cost"), $crate::Unit::Cost, $crate::COST_EDGES),
        )
    };
}
