//! `swp-obs`: compiler-wide telemetry — spans, counters, histograms.
//!
//! Design goals, in priority order:
//!
//! 1. **Zero-cost when disabled.** Instrumented code calls free functions
//!    ([`count`], [`observe`], [`span`]) that read one thread-local; with no
//!    collector installed they return immediately. Subsystems flush
//!    aggregate stats once per compile phase, never per inner-loop step, so
//!    even the thread-local read happens O(phases) not O(pivots).
//! 2. **Deterministic aggregation.** [`Class::Exact`] counters measure
//!    algorithmic work and must total bit-identically at any `--threads N`
//!    (enforced by `tests/telemetry.rs`). Wall-clock metrics are registered
//!    as [`Class::Timing`] and exempted.
//! 3. **Thread-aware by construction.** The collector is a shared
//!    `Arc<Collector>` of atomics; worker threads installed with the same
//!    [`Telemetry`] handle aggregate into one place, and spans carry a
//!    stable per-thread id for the Chrome trace rows.
//!
//! The handle is ambient, not threaded through every signature: callers
//! [`Telemetry::install`] it for a scope (worker thread, cache leader) and
//! deep subsystems (`swp-ilp`, `swp-heur`, `swp-most`, `swp-verify`) emit
//! through the free functions without knowing who is listening.

mod cancel;
mod cpu;
mod json;
mod registry;
mod trace;

pub use cancel::CancelToken;
pub use cpu::thread_cpu_time;
pub use json::{parse as parse_json, Value as JsonValue, Writer as JsonWriter};
pub use registry::{Class, Counter, Histo};
pub use trace::{validate_chrome_trace, Span};

use registry::MAX_BUCKETS;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::SpanEvent;

/// One histogram's storage: fixed buckets plus count/sum/max gauges.
#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, histo: Histo, value: u64) {
        let edges = histo.edges();
        let idx = edges.partition_point(|&e| e < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// Shared metric storage behind a [`Telemetry`] handle.
#[derive(Debug)]
pub(crate) struct Collector {
    pub(crate) epoch: Instant,
    tracing: bool,
    counters: [AtomicU64; Counter::COUNT],
    histograms: [HistCell; Histo::COUNT],
    pub(crate) spans: Mutex<Vec<SpanEvent>>,
}

impl Collector {
    fn new(tracing: bool) -> Self {
        Collector {
            epoch: Instant::now(),
            tracing,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| HistCell::new()),
            spans: Mutex::new(Vec::new()),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Collector>>> = const { RefCell::new(None) };
}

/// A cloneable handle to one telemetry scope.
///
/// The default handle is disabled: installing it (or never installing
/// anything) leaves every instrumentation point as a cheap thread-local
/// check. [`Telemetry::new`] collects counters and histograms;
/// [`Telemetry::with_tracing`] additionally records spans.
#[derive(Clone, Default)]
pub struct Telemetry {
    collector: Option<Arc<Collector>>,
}

impl Telemetry {
    /// A handle that collects nothing (same as `Default`).
    pub fn disabled() -> Self {
        Telemetry { collector: None }
    }

    /// Collect counters and histograms, but no spans.
    pub fn new() -> Self {
        Telemetry {
            collector: Some(Arc::new(Collector::new(false))),
        }
    }

    /// Collect counters, histograms, and spans (Chrome trace export).
    pub fn with_tracing() -> Self {
        Telemetry {
            collector: Some(Arc::new(Collector::new(true))),
        }
    }

    /// Whether metrics are being collected at all.
    pub fn is_enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Whether spans are being recorded.
    pub fn is_tracing(&self) -> bool {
        self.collector.as_ref().is_some_and(|c| c.tracing)
    }

    /// Make this handle the ambient collector for the current thread until
    /// the guard drops (the previous collector, if any, is restored).
    /// Nested installs are fine; each guard restores what it displaced.
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| c.replace(self.collector.clone()));
        InstallGuard { prev }
    }

    /// Snapshot all counter values.
    pub fn counters(&self) -> CounterSnapshot {
        let values = match &self.collector {
            Some(c) => Counter::ALL
                .iter()
                .map(|k| c.counters[k.index()].load(Ordering::Relaxed))
                .collect(),
            None => vec![0; Counter::COUNT],
        };
        CounterSnapshot { values }
    }

    /// Snapshot one histogram.
    pub fn histogram(&self, histo: Histo) -> HistogramSnapshot {
        let n_buckets = histo.edges().len() + 1;
        match &self.collector {
            Some(c) => {
                let cell = &c.histograms[histo.index()];
                HistogramSnapshot {
                    histo,
                    buckets: cell.buckets[..n_buckets]
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: cell.count.load(Ordering::Relaxed),
                    sum: cell.sum.load(Ordering::Relaxed),
                    max: cell.max.load(Ordering::Relaxed),
                }
            }
            None => HistogramSnapshot {
                histo,
                buckets: vec![0; n_buckets],
                count: 0,
                sum: 0,
                max: 0,
            },
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.collector
            .as_ref()
            .map_or(0, |c| c.spans.lock().unwrap().len())
    }

    /// Names of spans recorded so far (export order).
    pub fn span_names(&self) -> Vec<&'static str> {
        self.collector.as_ref().map_or_else(Vec::new, |c| {
            c.spans.lock().unwrap().iter().map(|e| e.name).collect()
        })
    }

    /// Export recorded spans as Chrome `trace_event` JSON.
    pub fn chrome_trace_json(&self) -> String {
        match &self.collector {
            Some(c) => trace::chrome_trace_json(&c.spans.lock().unwrap()),
            None => trace::chrome_trace_json(&[]),
        }
    }

    /// Dead-metric lint: every `Exact` metric that is registered but was
    /// never incremented/observed. `Timing` metrics are exempt (whether an
    /// in-flight wait happens is scheduling luck, not coverage).
    pub fn dead_exact_metrics(&self) -> Vec<&'static str> {
        let counters = self.counters();
        let mut dead: Vec<&'static str> = Counter::ALL
            .iter()
            .filter(|c| c.class() == Class::Exact && counters.get(**c) == 0)
            .map(|c| c.name())
            .collect();
        dead.extend(
            Histo::ALL
                .iter()
                .filter(|h| h.class() == Class::Exact && self.histogram(**h).count == 0)
                .map(|h| h.name()),
        );
        dead
    }

    /// Render a human-readable compile report: counters grouped by
    /// subsystem, then histogram tables.
    pub fn render_report(&self) -> String {
        let counters = self.counters();
        let mut out = String::new();
        out.push_str("compile report (swp-obs)\n");
        out.push_str("========================\n\ncounters\n");
        let mut subsystem = "";
        for c in Counter::ALL {
            if c.subsystem() != subsystem {
                subsystem = c.subsystem();
                out.push_str(&format!("  [{subsystem}]\n"));
            }
            let class = match c.class() {
                Class::Exact => "",
                Class::Timing => "  (timing)",
            };
            out.push_str(&format!(
                "    {:<24} {:>12}{}\n",
                c.name(),
                counters.get(*c),
                class
            ));
        }
        out.push_str("\nhistograms\n");
        for h in Histo::ALL {
            let snap = self.histogram(*h);
            out.push_str(&format!(
                "  {} ({}): count={} mean={:.1} max={}\n",
                h.name(),
                h.unit(),
                snap.count,
                snap.mean(),
                snap.max
            ));
            out.push_str("    ");
            for (i, n) in snap.buckets.iter().enumerate() {
                match h.edges().get(i) {
                    Some(edge) => out.push_str(&format!("<={edge}: {n}  ")),
                    None => out.push_str(&format!(">{}: {n}", h.edges().last().unwrap())),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match &self.collector {
            None => "disabled",
            Some(c) if c.tracing => "tracing",
            Some(_) => "counters",
        };
        write!(f, "Telemetry({state})")
    }
}

/// Restores the previously installed collector on drop.
#[must_use = "dropping the guard immediately uninstalls the telemetry"]
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<Arc<Collector>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// Point-in-time values of every registered counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: Vec<u64>,
}

impl CounterSnapshot {
    /// Value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Per-counter difference vs. an earlier snapshot of the same handle.
    pub fn minus(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            values: self
                .values
                .iter()
                .zip(&earlier.values)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
        }
    }

    /// `(counter, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|c| (*c, self.get(*c)))
    }

    /// Equality over `Exact` counters only — the cross-thread determinism
    /// relation (timing-class counters may legitimately differ).
    pub fn exact_eq(&self, other: &CounterSnapshot) -> bool {
        Counter::ALL
            .iter()
            .filter(|c| c.class() == Class::Exact)
            .all(|c| self.get(*c) == other.get(*c))
    }
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub histo: Histo,
    /// Finite buckets in edge order, then the overflow bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Add `n` to a counter on the ambient collector (no-op when disabled).
#[inline]
pub fn count(counter: Counter, n: u64) {
    if n == 0 {
        return;
    }
    CURRENT.with(|cell| {
        if let Some(c) = cell.borrow().as_ref() {
            c.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Record one histogram observation on the ambient collector.
#[inline]
pub fn observe(histo: Histo, value: u64) {
    CURRENT.with(|cell| {
        if let Some(c) = cell.borrow().as_ref() {
            c.histograms[histo.index()].observe(histo, value);
        }
    });
}

/// Whether an ambient collector is installed on this thread.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with(|cell| cell.borrow().is_some())
}

/// Open a span on the ambient collector. Inert (and allocation-free)
/// unless a tracing collector is installed.
#[inline]
pub fn span(name: &'static str) -> Span {
    CURRENT.with(|cell| match cell.borrow().as_ref() {
        Some(c) if c.tracing => Span::active(Arc::clone(c), name),
        _ => Span::disabled(),
    })
}

/// Run `f` under a span and return its result plus elapsed nanoseconds.
///
/// The clock always runs — callers feed the duration into compile stats —
/// but the span itself is inert unless tracing is installed.
#[inline]
pub fn timed_ns<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let guard = span(name);
    let result = f();
    drop(guard);
    (result, start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_collects_nothing() {
        let t = Telemetry::disabled();
        let _g = t.install();
        count(Counter::HeurBacktracks, 5);
        observe(Histo::MaxLive, 9);
        let _s = span("compile");
        assert!(!t.is_enabled());
        assert_eq!(t.counters().get(Counter::HeurBacktracks), 0);
        assert_eq!(t.histogram(Histo::MaxLive).count, 0);
        assert_eq!(t.span_count(), 0);
        assert!(!enabled());
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let t = Telemetry::new();
        let _g = t.install();
        count(Counter::IlpPivots, 3);
        count(Counter::IlpPivots, 4);
        count(Counter::IlpPivots, 0); // no-op, still fine
        observe(Histo::MaxLive, 3);
        observe(Histo::MaxLive, 5);
        observe(Histo::MaxLive, 1000);
        let snap = t.counters();
        assert_eq!(snap.get(Counter::IlpPivots), 7);
        assert_eq!(snap.get(Counter::IlpNodes), 0);
        let h = t.histogram(Histo::MaxLive);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1008);
        assert_eq!(h.max, 1000);
        // 3 and 5 both land in the first bucket (<=4 is edge 0? 3<=4 yes,
        // 5 goes to <=8), 1000 overflows.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(*h.buckets.last().unwrap(), 1);
        assert!(!t.is_tracing());
        assert_eq!(t.span_count(), 0, "counters-only handle records no spans");
    }

    #[test]
    fn install_guard_restores_previous_collector() {
        let outer = Telemetry::new();
        let inner = Telemetry::new();
        let _g1 = outer.install();
        count(Counter::CacheHits, 1);
        {
            let _g2 = inner.install();
            count(Counter::CacheHits, 10);
        }
        count(Counter::CacheHits, 2);
        assert_eq!(outer.counters().get(Counter::CacheHits), 3);
        assert_eq!(inner.counters().get(Counter::CacheHits), 10);
    }

    #[test]
    fn same_handle_aggregates_across_threads() {
        let t = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    let _g = t.install();
                    for _ in 0..1000 {
                        count(Counter::HeurPlacements, 1);
                    }
                    observe(Histo::IiMinusMii, 2);
                });
            }
        });
        assert_eq!(t.counters().get(Counter::HeurPlacements), 4000);
        assert_eq!(t.histogram(Histo::IiMinusMii).count, 4);
    }

    #[test]
    fn spans_export_as_valid_chrome_trace() {
        let t = Telemetry::with_tracing();
        let _g = t.install();
        {
            let _outer = span("compile").with_s("loop", "saxpy").with_i("ops", 7);
            let _inner = span("heur.attempt").with_i("ii", 3);
        }
        assert_eq!(t.span_count(), 2);
        let json = t.chrome_trace_json();
        let n = validate_chrome_trace(&json).expect("schema-valid trace");
        assert_eq!(n, 2);
        // Inner span drops first, so it exports first.
        assert_eq!(t.span_names(), vec!["heur.attempt", "compile"]);
        let doc = parse_json(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let compile = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("compile"));
        let args = compile.unwrap().get("args").unwrap();
        assert_eq!(args.get("loop").unwrap().as_str(), Some("saxpy"));
        assert_eq!(args.get("ops").unwrap().as_number(), Some(7.0));
    }

    #[test]
    fn snapshot_minus_and_exact_eq() {
        let t = Telemetry::new();
        let _g = t.install();
        count(Counter::IlpNodes, 5);
        let before = t.counters();
        count(Counter::IlpNodes, 7);
        count(Counter::CacheInflightWaits, 3); // timing-class
        let after = t.counters();
        let delta = after.minus(&before);
        assert_eq!(delta.get(Counter::IlpNodes), 7);
        assert_eq!(delta.get(Counter::IlpSolves), 0);
        assert!(!after.exact_eq(&before));
        // Timing counters don't break exact equality.
        let mut timing_only = before.clone();
        timing_only.values[Counter::CacheInflightWaits.index()] += 99;
        count(Counter::IlpNodes, 0);
        assert!(before.exact_eq(&timing_only));
    }

    #[test]
    fn dead_metric_lint_reports_untouched_exact_metrics() {
        let t = Telemetry::new();
        let _g = t.install();
        let all_dead = t.dead_exact_metrics();
        assert!(all_dead.contains(&"ilp.pivots"));
        assert!(all_dead.contains(&"ii_minus_mii"));
        assert!(
            !all_dead.contains(&"cache.inflight_waits"),
            "timing metrics are exempt"
        );
        for c in Counter::ALL {
            count(*c, 1);
        }
        for h in Histo::ALL {
            observe(*h, 1);
        }
        assert!(t.dead_exact_metrics().is_empty());
    }

    #[test]
    fn timed_ns_measures_even_when_disabled() {
        let (value, ns) = timed_ns("sched.heur", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(value, 42);
        assert!(ns >= 1_000_000, "slept 2ms but measured {ns}ns");
    }

    #[test]
    fn report_renders_every_registered_metric() {
        let t = Telemetry::new();
        let report = t.render_report();
        for c in Counter::ALL {
            assert!(report.contains(c.name()), "missing {}", c.name());
        }
        for h in Histo::ALL {
            assert!(report.contains(h.name()), "missing {}", h.name());
        }
    }
}
