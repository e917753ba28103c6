//! Program metrics read from outside, through the `metrics` verb of a
//! spawned server: counters and histogram count/sum pairs, differenced
//! around a timed section.

use std::collections::BTreeMap;

use mp_serve::prelude::*;

/// The series the benchmark reads (counters and `_ms` histograms).
pub const SERIES: &[&str] = &[
    "cache_hits",
    "cache_misses",
    "cache_inserts",
    "dse_scenarios_evaluated",
    "sched_units_total",
    "sched_units_stolen",
    "sched_rebands",
    "sched_shard_busy_ms",
    "planner_coalesced_requests",
    "busy_rejections",
    "planner_cost_rejections",
    "serve_queue_wait_ms",
    "planner_merge_ms",
    "job_checkpoint_ms",
    "job_windows_completed",
];

/// One snapshot: counter values, and `(count, sum)` per histogram.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    counters: BTreeMap<String, f64>,
    histograms: BTreeMap<String, (f64, f64)>,
}

impl Scrape {
    /// Fetch a snapshot over `client`.
    pub fn fetch(client: &mut Client) -> Result<Scrape, String> {
        let (json, _) = client.metrics().map_err(|e| format!("metrics verb: {e}"))?;
        Scrape::parse(&json)
    }

    /// Parse the `metrics` verb's JSON form.
    pub fn parse(json: &str) -> Result<Scrape, String> {
        let value = serde_json::parse(json).map_err(|e| format!("metrics JSON: {e}"))?;
        let section = |name: &str| {
            value
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == name))
                .and_then(|(_, v)| v.as_map())
                .unwrap_or(&[])
        };
        let mut scrape = Scrape::default();
        for (name, v) in section("counters") {
            if let Some(x) = v.as_f64() {
                scrape.counters.insert(name.clone(), x);
            }
        }
        for (name, v) in section("histograms") {
            let field = |key: &str| {
                v.as_map()
                    .and_then(|m| m.iter().find(|(k, _)| k == key))
                    .and_then(|(_, x)| x.as_f64())
                    .unwrap_or(0.0)
            };
            scrape.histograms.insert(name.clone(), (field("count"), field("sum")));
        }
        Ok(scrape)
    }

    /// `self - before`, series by series (absent series read as zero).
    pub fn delta(&self, before: &Scrape) -> Delta {
        let mut delta = Delta::default();
        for name in SERIES {
            let name = name.to_string();
            if let Some(after) = self.counters.get(&name) {
                delta
                    .counters
                    .insert(name.clone(), after - before.counters.get(&name).unwrap_or(&0.0));
            }
            if let Some((count, sum)) = self.histograms.get(&name) {
                let (c0, s0) = before.histograms.get(&name).copied().unwrap_or((0.0, 0.0));
                delta.histograms.insert(name, (count - c0, sum - s0));
            }
        }
        delta
    }
}

/// The change of every read series over a section; deltas of several
/// processes add.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    counters: BTreeMap<String, f64>,
    histograms: BTreeMap<String, (f64, f64)>,
}

impl Delta {
    /// Add another section's (or process's) deltas.
    pub fn add(&mut self, other: &Delta) {
        for (name, x) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0.0) += x;
        }
        for (name, (c, s)) in &other.histograms {
            let entry = self.histograms.entry(name.clone()).or_insert((0.0, 0.0));
            entry.0 += c;
            entry.1 += s;
        }
    }

    /// A counter's delta.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's observation-count delta.
    pub fn count(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |(c, _)| *c)
    }

    /// A histogram's summed-milliseconds delta.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |(_, s)| *s)
    }

    /// A histogram's mean observation over the section, in ms.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let count = self.count(name);
        if count > 0.0 {
            self.sum_ms(name) / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_difference_counters_and_histograms() {
        let before = Scrape::parse(
            r#"{"counters":{"cache_hits":10,"other":1},"gauges":{},"histograms":{"planner_merge_ms":{"count":2,"sum":3.0,"buckets":[]}}}"#,
        )
        .unwrap();
        let after = Scrape::parse(
            r#"{"counters":{"cache_hits":25,"cache_misses":4},"gauges":{},"histograms":{"planner_merge_ms":{"count":6,"sum":11.0,"buckets":[]}}}"#,
        )
        .unwrap();
        let mut delta = after.delta(&before);
        assert_eq!(delta.counter("cache_hits"), 15.0);
        assert_eq!(delta.counter("cache_misses"), 4.0);
        assert_eq!(delta.counter("other"), 0.0);
        assert_eq!(delta.mean_ms("planner_merge_ms"), 2.0);
        delta.add(&after.delta(&Scrape::default()));
        assert_eq!(delta.counter("cache_hits"), 40.0);
        assert!(Scrape::parse("nope").is_err());
    }
}
