#![warn(missing_docs)]
// Hardened crate: panicking extractors are denied in CI on library code
// (tests and benches may unwrap freely). Justified invariant `expect`s
// carry explicit allows at the call site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! `mmp-obs` — the unified observability layer of the MMP workspace.
//!
//! One [`Obs`] handle carries three concerns through the placement flow:
//!
//! * **structured events** — named records with typed key/value
//!   [`Field`]s, scoped by a dotted path (`"legal.global_pass"`), written
//!   to a pluggable [`Sink`] (stderr-pretty, JSONL file, in-memory);
//! * **spans** — RAII [`Span`] guards around `stage` / `iteration`
//!   scopes that emit a `close` event with the elapsed wall-clock and feed
//!   the duration histogram of the same name;
//! * **metrics** — a process-local [`metrics::Metrics`] registry of
//!   counters, gauges and duration histograms, snapshotted at the end of a
//!   run into the JSON run report.
//!
//! # Cost discipline
//!
//! The handle is threaded through hot loops (QP spread iterations, MCTS
//! explorations, legalizer rounds), so the *disabled* path must cost
//! next to nothing: [`Obs::off`] is an `Option::None` and every call site
//! reduces to one branch — no formatting, no allocation, no clock read,
//! and **no environment-variable lookups** (the `MMP_TRACE` env-var probe
//! this layer replaced used to take the process env lock once per loop
//! iteration). Call sites that must assemble fields guard on
//! [`Obs::enabled`] first.
//!
//! # Quickstart
//!
//! ```
//! use mmp_obs::{field, Obs, MemorySink};
//!
//! let sink = MemorySink::shared();
//! let obs = Obs::new(Box::new(MemorySink::clone(&sink)));
//! {
//!     let _stage = obs.span("stage.demo");
//!     if obs.enabled() {
//!         obs.event("demo", "tick", &[field("iter", 3u64), field("peak", 1.25)]);
//!     }
//!     obs.count("demo.ticks", 1);
//! }
//! let lines = sink.records();
//! assert!(lines.iter().any(|l| l.contains("\"name\":\"tick\"")));
//! assert_eq!(obs.snapshot().counter("demo.ticks"), Some(1));
//! ```

pub mod metrics;
pub mod sink;

pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use sink::{JsonlSink, MemorySink, Sink, StderrSink};

use metrics::Metrics;
use std::sync::Arc;
use std::time::Instant;

/// One typed key/value pair attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (stable identifier, `snake_case`).
    pub key: &'static str,
    /// Field value.
    pub value: FieldValue,
}

/// The value of a [`Field`]. Numeric variants never allocate, so building
/// a field slice on the stack is free of heap traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string (allocates — prefer the numeric variants in loops).
    Str(String),
}

/// Builds a [`Field`] from anything convertible into a [`FieldValue`].
pub fn field(key: &'static str, value: impl Into<FieldValue>) -> Field {
    Field {
        key,
        value: value.into(),
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

struct Inner {
    /// `None` = metrics-only mode (counters live, no event stream).
    sink: Option<Box<dyn Sink>>,
    metrics: Metrics,
    /// Event timestamps are microseconds since this epoch.
    epoch: Instant,
}

/// The observability handle threaded through the flow.
///
/// Cloning is cheap (an `Arc` bump); every clone feeds the same sink and
/// the same metrics registry. The default handle is **off** and costs one
/// `Option` branch per call.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Obs(off)"),
            Some(i) if i.sink.is_some() => f.write_str("Obs(tracing)"),
            Some(_) => f.write_str("Obs(metrics-only)"),
        }
    }
}

/// Handles compare by identity: two handles are equal when they feed the
/// same registry (or are both off). This keeps configuration structs that
/// carry an `Obs` comparable without pretending sinks have value
/// semantics.
impl PartialEq for Obs {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Obs {
    /// The disabled handle: every call is a no-op behind one branch.
    pub fn off() -> Self {
        Obs::default()
    }

    /// A handle writing events to `sink` and collecting metrics.
    pub fn new(sink: Box<dyn Sink>) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                sink: Some(sink),
                metrics: Metrics::default(),
                epoch: Instant::now(),
            })),
        }
    }

    /// A handle collecting metrics but emitting no event stream — what the
    /// CLI uses for `--report-json` without `--trace`.
    pub fn metrics_only() -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                sink: None,
                metrics: Metrics::default(),
                epoch: Instant::now(),
            })),
        }
    }

    /// `true` when the handle is live (tracing and/or metrics). Guard
    /// field assembly on this in hot loops.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` when an event sink is attached (events will be recorded).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.sink.is_some())
    }

    /// Emits one structured event. No-op without a sink.
    #[inline]
    pub fn event(&self, scope: &str, name: &str, fields: &[Field]) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                let t_us = inner.epoch.elapsed().as_micros() as u64;
                sink.record(t_us, scope, name, fields);
            }
        }
    }

    /// Opens a span: the returned guard emits a `close` event on drop and
    /// records the elapsed wall-clock in the duration histogram named
    /// `scope`. Disabled handles return an inert guard (no clock read).
    #[inline]
    pub fn span(&self, scope: &'static str) -> Span {
        Span {
            obs: self.clone(),
            scope,
            start: if self.enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Adds `delta` to the counter `name`. No-op when disabled.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.count(name, delta);
        }
    }

    /// Sets the gauge `name` to `value`. No-op when disabled.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(name, value);
        }
    }

    /// Records `duration` in the histogram `name`. No-op when disabled.
    #[inline]
    pub fn record_duration(&self, name: &'static str, duration: std::time::Duration) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_duration(name, duration);
        }
    }

    /// A point-in-time copy of the metrics registry (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Flushes the sink (JSONL sinks buffer). No-op otherwise.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                sink.flush();
            }
        }
    }
}

/// RAII scope guard produced by [`Obs::span`].
///
/// Dropping the guard emits a `close` event in the span's scope carrying
/// `dur_us`, and records the elapsed time in the duration histogram of the
/// same name.
#[must_use = "a span measures the scope it is alive in; binding it to `_` drops it immediately"]
pub struct Span {
    obs: Obs,
    scope: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// The span's scope path.
    pub fn scope(&self) -> &'static str {
        self.scope
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            self.obs.record_duration(self.scope, elapsed);
            self.obs.event(
                self.scope,
                "close",
                &[field("dur_us", elapsed.as_micros() as u64)],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_handle_is_inert_and_cheap() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        assert!(!obs.tracing());
        obs.event("x", "y", &[field("k", 1u64)]);
        obs.count("c", 5);
        obs.gauge("g", 1.5);
        obs.record_duration("d", Duration::from_millis(1));
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        let span = obs.span("s");
        assert!(span.start.is_none(), "no clock read when disabled");
        drop(span);
        obs.flush();
    }

    #[test]
    fn metrics_only_collects_without_tracing() {
        let obs = Obs::metrics_only();
        assert!(obs.enabled());
        assert!(!obs.tracing());
        obs.count("c", 2);
        obs.count("c", 3);
        obs.gauge("g", 4.0);
        obs.record_duration("d", Duration::from_micros(500));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(4.0));
        let h = snap.histogram("d").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.total >= Duration::from_micros(500));
    }

    #[test]
    fn events_reach_the_sink_with_fields() {
        let sink = MemorySink::shared();
        let obs = Obs::new(Box::new(MemorySink::clone(&sink)));
        assert!(obs.tracing());
        obs.event(
            "legal.global_pass",
            "round",
            &[
                field("round", 2u64),
                field("overlap", 0.125),
                field("oor", true),
                field("note", "re-measured"),
            ],
        );
        let recs = sink.records();
        assert_eq!(recs.len(), 1);
        let line = &recs[0];
        assert!(line.contains("\"scope\":\"legal.global_pass\""));
        assert!(line.contains("\"name\":\"round\""));
        assert!(line.contains("\"round\":2"));
        assert!(line.contains("\"overlap\":0.125"));
        assert!(line.contains("\"oor\":true"));
        assert!(line.contains("\"note\":\"re-measured\""));
    }

    #[test]
    fn span_emits_close_event_and_histogram() {
        let sink = MemorySink::shared();
        let obs = Obs::new(Box::new(MemorySink::clone(&sink)));
        {
            let _s = obs.span("stage.demo");
            std::thread::sleep(Duration::from_millis(2));
        }
        let recs = sink.records();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].contains("\"scope\":\"stage.demo\""));
        assert!(recs[0].contains("\"name\":\"close\""));
        assert!(recs[0].contains("dur_us"));
        let snap = obs.snapshot();
        let h = snap.histogram("stage.demo").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= Duration::from_millis(1));
    }

    #[test]
    fn clones_share_the_registry_and_compare_equal() {
        let a = Obs::metrics_only();
        let b = a.clone();
        b.count("shared", 7);
        assert_eq!(a.snapshot().counter("shared"), Some(7));
        assert_eq!(a, b);
        assert_ne!(a, Obs::metrics_only());
        assert_eq!(Obs::off(), Obs::off());
        assert_ne!(a, Obs::off());
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
    }
}
