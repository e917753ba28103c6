//! What one run reports: the operation log, the correctness tally and the
//! named metrics, printed as one JSON object on the last line.

use std::collections::BTreeMap;

use crate::stats::{count_above, median, percentile};

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dse.space_ms", "ms"),
    ("dse.tables_ms", "ms"),
    ("dse.engine.sweep_ms", "ms"),
    ("dse.engine.scenarios", "count"),
    ("dse.cache.entries", "count"),
    ("dse.cache.hits", "count"),
    ("dse.cache.misses", "count"),
    ("dse.cache.inserts", "count"),
    ("dse.cache.hit_ratio", "ratio"),
    ("dse.cache.save_ms", "ms"),
    ("dse.cache.save_mb", "MB"),
    ("dse.cache.load_ms", "ms"),
    ("dse.cache.load_entries", "count"),
    ("dse.analysis.top_k_ms", "ms"),
    ("dse.analysis.pareto_ms", "ms"),
    ("dse.analysis.optima_ms", "ms"),
    ("dse.export.json_ms", "ms"),
    ("dse.export.csv_ms", "ms"),
    ("dse.export.json_mb", "MB"),
    ("dse.export.csv_mb", "MB"),
    ("dse.export.allocs", "count"),
    ("serve.protocol.encode_ms", "ms"),
    ("serve.protocol.decode_ms", "ms"),
    ("serve.protocol.resp_kb", "KB"),
    ("serve.transport_ms", "ms"),
    ("serve.service.handle_ms", "ms"),
    ("serve.service.resolve_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.merge_ms", "ms"),
    ("serve.sched.units", "count"),
    ("serve.sched.stolen", "count"),
    ("serve.sched.rebands", "count"),
    ("serve.sched.shard_busy_ms", "ms"),
    ("serve.planner.coalesced", "count"),
    ("serve.planner.busy_rejections", "count"),
    ("serve.planner.cost_rejections", "count"),
    ("serve.client.busy_retries", "count"),
    ("serve.jobs.checkpoint_ms", "ms"),
    ("serve.jobs.checkpoints", "count"),
    ("serve.jobs.windows", "count"),
    ("serve.jobs.restore_ms", "ms"),
    ("serve.jobs.resumed_windows", "count"),
    ("bench.dse_cold_s", "s"),
    ("bench.dse_warm_s", "s"),
    ("bench.job_s", "s"),
    ("bench.resume_s", "s"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
];

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (commands, requests, job phases, checks).
    pub attempted: u64,
    /// Operations that failed: a non-zero exit, an error response,
    /// exhausted busy retries, a parity or digest mismatch.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Latency of every completed operation of the timed section, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall seconds of the timed section.
    pub elapsed_s: f64,
    /// Each set-up's seconds (their median is reported).
    pub setups_s: Vec<f64>,
    /// Peak RSS of the program's processes, MB.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation, failing it with `why` when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = why();
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
        ok
    }

    /// Count one operation by its result.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(value) => {
                self.check(true, String::new);
                Some(value)
            }
            Err(why) => {
                self.check(false, || why);
                None
            }
        }
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Fold in another run's peak RSS.
    pub fn rss(&mut self, mb: f64) {
        self.peak_rss_mb = self.peak_rss_mb.max(mb);
    }

    /// A note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<(&str, f64, &str)> = if trace {
            PER_LAYER
                .iter()
                .map(|(name, unit)| (*name, self.layers.get(name).copied().unwrap_or(0.0), *unit))
                .collect()
        } else {
            let ops = self.latencies_ms.len() as f64;
            END_TO_END
                .iter()
                .map(|(name, unit)| {
                    let value = match *name {
                        "setup_s" => median(&self.setups_s),
                        "p50_ms" => median(&self.latencies_ms),
                        "p90_ms" => percentile(&self.latencies_ms, 90.0),
                        "ops_per_s" => ops / self.elapsed_s.max(1e-9),
                        "peak_rss_mb" => self.peak_rss_mb,
                        other => unreachable!("unhandled metric {other}"),
                    };
                    (*name, value, *unit)
                })
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }

    /// Summary line on the latency sample: count, quantiles, and how many
    /// samples lie beyond the reported p90 and the (printed, not gated) p99.
    pub fn latency_notes(&self) -> Vec<String> {
        let p90 = percentile(&self.latencies_ms, 90.0);
        let p99 = percentile(&self.latencies_ms, 99.0);
        vec![format!(
            "samples: {} operations in {:.2} s; p50 {:.3} ms, p90 {:.3} ms with {} samples beyond it, p99 {:.3} ms with {} beyond it",
            self.latencies_ms.len(),
            self.elapsed_s,
            median(&self.latencies_ms),
            p90,
            count_above(&self.latencies_ms, p90),
            p99,
            count_above(&self.latencies_ms, p99),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_named_metric() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.latencies_ms = vec![1.0, 2.0, 3.0];
        outcome.elapsed_s = 1.5;
        outcome.setups_s = vec![0.2];
        outcome.peak_rss_mb = 10.0;
        let line = outcome.result_line(false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{line}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        let traced = outcome.result_line(true);
        assert!(PER_LAYER.iter().all(|(name, _)| traced.contains(&format!("\"{name}\""))));
        outcome.check(false, || "broken".to_string());
        assert!(outcome.result_line(false).starts_with("{\"correct\":false,"));
    }
}
