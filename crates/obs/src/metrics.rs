//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! All metric values are updated with order-independent atomic operations so
//! that final values are identical regardless of worker-thread interleaving
//! — the same discipline `nfm_tensor::pool` applies to float reductions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The unit a metric is denominated in. Units double as the determinism
/// gate: wall-clock units are excluded from the JSONL snapshot by default
/// (see [`crate::emit_metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A dimensionless count of events or items.
    Count,
    /// Multiply-accumulate operations (the kernel cost model's currency).
    Macs,
    /// Deterministic inference cost units (`Encoder::inference_cost`).
    Cost,
    /// Wall-clock microseconds — **non-deterministic**, excluded from the
    /// JSONL metrics snapshot unless `NFM_OBS_WALL` is set.
    Micros,
    /// Thousandths of a dimensionless quantity (e.g. gradient norms stored
    /// as `(norm * 1000) as u64`).
    Milli,
}

impl Unit {
    /// The stable string form used in JSONL records.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Macs => "macs",
            Unit::Cost => "cost_units",
            Unit::Micros => "us",
            Unit::Milli => "milli",
        }
    }

    /// Whether values in this unit are bitwise-reproducible across runs
    /// with identical seeds. Only wall-clock units are not.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, Unit::Micros)
    }
}

/// Saturating atomic add: the counter pins at `u64::MAX` instead of
/// wrapping, so overflow can never masquerade as a small value.
fn saturating_add(cell: &AtomicU64, v: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(v);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// A monotonically increasing integer metric with saturating addition.
pub struct Counter {
    name: &'static str,
    unit: Unit,
    value: AtomicU64,
}

impl Counter {
    /// The registry key this counter was registered under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit this counter is denominated in.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Add `v`, saturating at `u64::MAX`.
    pub fn add(&self, v: u64) {
        saturating_add(&self.value, v);
    }

    /// Add 1, saturating at `u64::MAX`.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins floating-point level (queue depth, thread count).
///
/// Gauges are the one metric kind whose final value depends on write order;
/// instrumentation must only set them from a single (main) thread when a
/// deterministic snapshot is required — the pool instrumentation skips gauge
/// writes from inside worker threads for exactly this reason.
pub struct Gauge {
    name: &'static str,
    unit: Unit,
    bits: AtomicU64,
}

impl Gauge {
    /// The registry key this gauge was registered under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit this gauge is denominated in.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v <= edges[i]` (inclusive upper bounds);
/// a final overflow bucket catches everything above the last edge. Counts
/// and the saturating integer `sum` are order-independent, so histograms
/// stay bitwise deterministic under the worker pool.
pub struct Histogram {
    name: &'static str,
    unit: Unit,
    edges: &'static [u64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// The registry key this histogram was registered under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit observations are denominated in.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// The inclusive upper bounds of the finite buckets.
    pub fn edges(&self) -> &'static [u64] {
        self.edges
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.edges.partition_point(|&e| e < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        saturating_add(&self.sum, v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// The value part of one [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Current counter value.
    Counter(u64),
    /// Current gauge level.
    Gauge(f64),
    /// Histogram state: total observations, saturating sum, and per-bucket
    /// `(upper_edge, count)` pairs where `None` marks the overflow bucket.
    Histogram {
        /// Total number of observations.
        count: u64,
        /// Saturating sum of observed values.
        sum: u64,
        /// `(inclusive upper edge, count)` per bucket; `None` = overflow.
        buckets: Vec<(Option<u64>, u64)>,
    },
}

/// One metric's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The registry key.
    pub name: &'static str,
    /// The metric's unit.
    pub unit: Unit,
    /// The captured value.
    pub value: MetricValue,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

/// A registry of named metrics. Registration leaks one small allocation per
/// unique name and hands out `&'static` handles, so hot paths can cache the
/// handle (via the [`crate::counter!`]-family macros) and skip the lookup.
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry. Prefer [`global`] outside of tests.
    pub const fn new() -> Self {
        MetricsRegistry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned registry is still structurally sound (all updates are
        // atomic); keep serving rather than cascading the panic.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or register the counter `name`. The first registration's unit
    /// wins; later calls return the existing counter unchanged.
    pub fn counter(&self, name: &'static str, unit: Unit) -> &'static Counter {
        let mut g = self.lock();
        if let Some(c) = g.counters.get(name) {
            return c;
        }
        let c: &'static Counter =
            Box::leak(Box::new(Counter { name, unit, value: AtomicU64::new(0) }));
        g.counters.insert(name, c);
        c
    }

    /// Get or register the gauge `name`. The first registration's unit
    /// wins; later calls return the existing gauge unchanged.
    pub fn gauge(&self, name: &'static str, unit: Unit) -> &'static Gauge {
        let mut g = self.lock();
        if let Some(x) = g.gauges.get(name) {
            return x;
        }
        let x: &'static Gauge = Box::leak(Box::new(Gauge { name, unit, bits: AtomicU64::new(0) }));
        g.gauges.insert(name, x);
        x
    }

    /// Get or register the histogram `name` with the given inclusive bucket
    /// upper bounds. The first registration's unit and edges win; later
    /// calls return the existing histogram unchanged.
    pub fn histogram(
        &self,
        name: &'static str,
        unit: Unit,
        edges: &'static [u64],
    ) -> &'static Histogram {
        let mut g = self.lock();
        if let Some(h) = g.histograms.get(name) {
            return h;
        }
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        let h: &'static Histogram = Box::leak(Box::new(Histogram {
            name,
            unit,
            edges,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }));
        g.histograms.insert(name, h);
        h
    }

    /// Capture every registered metric, sorted by name. The ordering is
    /// deterministic, so snapshot-derived output (tables, JSONL) is too.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let g = self.lock();
        let mut out: Vec<MetricSnapshot> = Vec::new();
        for (&name, c) in &g.counters {
            out.push(MetricSnapshot { name, unit: c.unit(), value: MetricValue::Counter(c.get()) });
        }
        for (&name, x) in &g.gauges {
            out.push(MetricSnapshot { name, unit: x.unit(), value: MetricValue::Gauge(x.get()) });
        }
        for (&name, h) in &g.histograms {
            let counts = h.bucket_counts();
            let buckets =
                counts.iter().enumerate().map(|(i, &n)| (h.edges().get(i).copied(), n)).collect();
            out.push(MetricSnapshot {
                name,
                unit: h.unit(),
                value: MetricValue::Histogram { count: h.count(), sum: h.sum(), buckets },
            });
        }
        out.sort_by_key(|m| m.name);
        out
    }

    /// Zero every registered metric (names and handles stay valid).
    pub fn reset(&self) {
        let g = self.lock();
        for c in g.counters.values() {
            c.reset();
        }
        for x in g.gauges.values() {
            x.reset();
        }
        for h in g.histograms.values() {
            h.reset();
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry all instrumentation reports into.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.saturate", Unit::Count);
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX, "additions past MAX must pin, not wrap");
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let reg = MetricsRegistry::new();
        static EDGES: &[u64] = &[10, 100, 1_000];
        let h = reg.histogram("t.edges", Unit::Micros, EDGES);
        // At, below, and just above each edge.
        h.observe(0); // bucket 0 (<= 10)
        h.observe(10); // bucket 0 (inclusive)
        h.observe(11); // bucket 1
        h.observe(100); // bucket 1 (inclusive)
        h.observe(101); // bucket 2
        h.observe(1_000); // bucket 2 (inclusive)
        h.observe(1_001); // overflow
        h.observe(u64::MAX); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn histogram_sum_saturates() {
        let reg = MetricsRegistry::new();
        static EDGES: &[u64] = &[1];
        let h = reg.histogram("t.hsum", Unit::Count, EDGES);
        h.observe(u64::MAX);
        h.observe(7);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registration_is_idempotent_first_unit_wins() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t.idem", Unit::Macs);
        let b = reg.counter("t.idem", Unit::Count);
        assert!(std::ptr::eq(a, b));
        assert_eq!(b.unit(), Unit::Macs);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_zeroes() {
        let reg = MetricsRegistry::new();
        reg.counter("t.zz", Unit::Count).add(3);
        reg.gauge("t.aa", Unit::Count).set(2.5);
        static EDGES: &[u64] = &[5];
        reg.histogram("t.mm", Unit::Cost, EDGES).observe(4);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["t.aa", "t.mm", "t.zz"]);
        reg.reset();
        for m in reg.snapshot() {
            match m.value {
                MetricValue::Counter(v) => assert_eq!(v, 0),
                MetricValue::Gauge(v) => assert_eq!(v, 0.0),
                MetricValue::Histogram { count, sum, ref buckets } => {
                    assert_eq!((count, sum), (0, 0));
                    assert!(buckets.iter().all(|&(_, n)| n == 0));
                }
            }
        }
    }
}
