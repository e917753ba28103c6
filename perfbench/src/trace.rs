//! The benchmark's span recorder. Spans are recorded from the benchmark's
//! own code around calls into each layer (the program is not modified):
//! name, start, end, parent and the request they belong to. They stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log shared by every benchmark thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty log; times are nanoseconds since now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log");
        spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        spans.len() - 1
    }

    /// Close a span.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log")[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(name, request, parent, f).0
    }

    /// Run `f` inside a span; returns its result and the span's duration in
    /// milliseconds.
    pub fn timed<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        (out, self.duration_ms(id))
    }

    /// A span's wall duration in milliseconds.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let spans = self.spans.lock().expect("span log");
        (spans[id].end_ns - spans[id].start_ns) as f64 / 1e6
    }

    /// Self time of every span, in milliseconds: its duration minus the
    /// part of its interval that its children cover.
    fn self_times(spans: &[Span]) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                (span.end_ns - span.start_ns - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Summed self time in ms per span name, over the tree under the root
    /// span `root`.
    pub fn self_time_by_name(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span log");
        let self_ms = Self::self_times(&spans);
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let mut top = i;
            while let Some(parent) = spans[top].parent {
                top = parent;
            }
            if top == root {
                *out.entry(span.name).or_insert(0.0) += self_ms[i];
            }
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log").len()
    }

    /// The log as a JSON array of span objects.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span log");
        let self_ms = Self::self_times(&spans);
        let mut out = String::from("[\n");
        for (i, span) in spans.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_ms\":{:.6}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.request,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                self_ms[i],
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let tracer = Tracer::new();
        let root = tracer.begin("root", 1, None);
        tracer.span("child", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tracer.span("child", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        tracer.end(root);
        let other = tracer.begin("other", 2, None);
        tracer.end(other);
        let by_name = tracer.self_time_by_name(root);
        let child_ms = by_name["child"];
        let root_self_ms = by_name["root"];
        assert!(child_ms >= 30.0);
        let total = tracer.duration_ms(root);
        assert!(
            (child_ms + root_self_ms - total).abs() < 1e-6,
            "{child_ms} + {root_self_ms} != {total}"
        );
        assert!(tracer.to_json().contains("\"parent\":0"));
        assert_eq!(tracer.self_time_by_name(other).len(), 1);
    }
}
