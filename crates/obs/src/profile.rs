//! The sweep profiler: per-batch / per-shard / per-window spans recorded
//! while enabled, exported as chrome://tracing-compatible JSON.
//!
//! Disabled (the default) it costs one relaxed atomic load per would-be
//! span; enabled, each span is a clock pair plus one short mutex push, far
//! off the per-scenario hot path (spans cover whole batches and windows).
//! Load the exported file in `about:tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! Span names are stable, dotted stage names (`dse.engine.batch`,
//! `serve.window`, …), so a trace aggregates by name. What differs between
//! two spans of one stage (a scenario range, a job id) travels in the span's
//! [`Span::detail`] and is exported under the event's `args`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::monotonic_ns;

/// One completed span on the profiler timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The stage the span covers (`"dse.engine.batch"`, `"serve.window"`,
    /// …): stable across spans of one stage.
    pub name: String,
    /// What sets this span apart from the others of its stage (a scenario
    /// range, a job id); empty when nothing does.
    pub detail: String,
    /// Coarse grouping shown as the chrome trace category
    /// (`"engine"`, `"serve"`).
    pub category: &'static str,
    /// Timeline lane: worker index, shard index, or window ordinal.
    pub lane: u64,
    /// Start on the process monotonic clock, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub duration_ns: u64,
}

/// A guard that records a [`Span`] when dropped (no-op if the profiler was
/// disabled when it was opened).
pub struct SpanGuard<'a> {
    profiler: &'a Profiler,
    name: String,
    detail: String,
    category: &'static str,
    lane: u64,
    start_ns: u64,
    armed: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.profiler.record(Span {
                name: std::mem::take(&mut self.name),
                detail: std::mem::take(&mut self.detail),
                category: self.category,
                lane: self.lane,
                start_ns: self.start_ns,
                duration_ns: monotonic_ns().saturating_sub(self.start_ns),
            });
        }
    }
}

/// A span recorder that is dark until enabled. Most code uses the
/// process-wide [`Profiler::global`]; tests instantiate their own.
#[derive(Default)]
pub struct Profiler {
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Profiler {
    /// A fresh, disabled profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// The process-wide profiler the engine and service record into.
    pub fn global() -> &'static Profiler {
        static GLOBAL: OnceLock<Profiler> = OnceLock::new();
        GLOBAL.get_or_init(Profiler::new)
    }

    /// Start (or stop) recording spans.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a span; it records itself when the guard drops. When the
    /// profiler is disabled this is one atomic load and no allocation.
    pub fn span(&self, name: &str, category: &'static str, lane: u64) -> SpanGuard<'_> {
        self.span_with(name, String::new(), category, lane)
    }

    /// [`Profiler::span`] with a [`Span::detail`]. Callers on hot paths
    /// check [`Profiler::is_enabled`] first, so the detail is only
    /// formatted while recording.
    pub fn span_with(
        &self,
        name: &str,
        detail: String,
        category: &'static str,
        lane: u64,
    ) -> SpanGuard<'_> {
        let armed = self.is_enabled();
        SpanGuard {
            profiler: self,
            name: if armed { name.to_string() } else { String::new() },
            detail,
            category,
            lane,
            start_ns: if armed { monotonic_ns() } else { 0 },
            armed,
        }
    }

    /// Record a completed span (dropped silently while disabled).
    pub fn record(&self, span: Span) {
        if self.is_enabled() {
            self.spans.lock().expect("profiler poisoned").push(span);
        }
    }

    /// Drain every recorded span, oldest first.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("profiler poisoned"))
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("profiler poisoned").len()
    }

    /// Whether no span is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A small stable lane id for the calling thread (sequential from 0 in
/// first-use order): keeps each worker's spans on its own chrome-trace
/// timeline row.
pub fn thread_lane() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|lane| *lane)
}

/// Render spans as a chrome://tracing JSON document (complete `"X"` events;
/// timestamps and durations in microseconds, lanes as thread ids). A span
/// with a [`Span::detail`] carries it as `"args":{"detail":…}`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    fn escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }
    let events: Vec<String> = spans
        .iter()
        .map(|span| {
            let args = if span.detail.is_empty() {
                String::new()
            } else {
                format!(",\"args\":{{\"detail\":\"{}\"}}", escape(&span.detail))
            };
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}{}}}",
                escape(&span.name),
                span.category,
                span.lane,
                span.start_ns as f64 / 1e3,
                span.duration_ns as f64 / 1e3,
                args,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let profiler = Profiler::new();
        {
            let _span = profiler.span("batch", "engine", 0);
            let _detailed = profiler.span_with("window", "0..64".into(), "serve", 0);
        }
        profiler.record(Span {
            name: "direct".into(),
            detail: String::new(),
            category: "engine",
            lane: 1,
            start_ns: 0,
            duration_ns: 10,
        });
        assert!(profiler.is_empty());
    }

    #[test]
    fn enabled_profiler_captures_guard_spans_with_durations() {
        let profiler = Profiler::new();
        profiler.set_enabled(true);
        {
            let _span = profiler.span("window 3", "serve", 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = profiler.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "window 3");
        assert_eq!(spans[0].lane, 2);
        assert!(spans[0].duration_ns >= 1_000_000);
        assert!(profiler.is_empty(), "take drains");
    }

    #[test]
    fn chrome_export_is_wellformed_json_with_one_event_per_span() {
        let spans = vec![
            Span {
                name: "batch \"0\"".into(),
                detail: String::new(),
                category: "engine",
                lane: 0,
                start_ns: 1_500,
                duration_ns: 2_000,
            },
            Span {
                name: "window".into(),
                detail: String::new(),
                category: "serve",
                lane: 7,
                start_ns: 4_000,
                duration_ns: 500,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("batch \\\"0\\\""));
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(!json.contains("\"args\""), "spans without a detail carry no args");
    }

    #[test]
    fn details_travel_as_args_and_leave_names_stable() {
        let profiler = Profiler::new();
        profiler.set_enabled(true);
        for range in ["0..1024", "1024..2048"] {
            let _span = profiler.span_with("dse.engine.batch", range.to_string(), "engine", 3);
        }
        {
            let _span = profiler.span_with("serve.jobs.checkpoint", "j\"7\"".into(), "serve", 0);
        }
        let spans = profiler.take();
        assert_eq!(spans.len(), 3);
        assert!(spans[..2].iter().all(|s| s.name == "dse.engine.batch"));
        assert_eq!(spans[1].detail, "1024..2048");

        let json = chrome_trace_json(&spans);
        assert!(json.contains(
            "\"name\":\"dse.engine.batch\",\"cat\":\"engine\",\"ph\":\"X\",\"pid\":1,\"tid\":3,"
        ));
        assert!(json.contains(",\"args\":{\"detail\":\"0..1024\"}}"), "{json}");
        assert!(json.contains(",\"args\":{\"detail\":\"1024..2048\"}}"), "{json}");
        // Details are escaped like names.
        assert!(json.contains("\"args\":{\"detail\":\"j\\\"7\\\"\"}"), "{json}");
        assert_eq!(json.matches("\"args\"").count(), 3);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
