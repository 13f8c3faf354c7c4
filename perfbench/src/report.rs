//! The metric catalogue (names, units, direction — mirrored in the
//! repository's `BENCHMARK.json`) and the result a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of an untraced run: every workload reports all of them.
pub const END_TO_END: &[Metric] = &[
    m("rounds_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Metrics of a traced run: every workload reports all of them, 0 for a
/// layer the workload does not exercise.
pub const PER_LAYER: &[Metric] = &[
    m("nn.grad_ms", "ms", "lower"),
    m("nn.grads_per_round", "count", "lower"),
    m("nn.ms_per_round", "ms", "lower"),
    m("aggregation.gar_fold_ms", "ms", "lower"),
    m("aggregation.model_fold_ms", "ms", "lower"),
    m("aggregation.exchange_fold_ms", "ms", "lower"),
    m("aggregation.folds_per_round", "count", "lower"),
    m("aggregation.ms_per_round", "ms", "lower"),
    m("wire.encode_us", "us", "lower"),
    m("wire.decode_us", "us", "lower"),
    m("wire.frames_per_round", "count", "lower"),
    m("wire.ms_per_round", "ms", "lower"),
    m("transport.send_ms_per_round", "ms", "lower"),
    m("transport.recv_wait_ms_per_round", "ms", "lower"),
    m("transport.recv_timeouts_per_round", "count", "lower"),
    m("transport.bytes_per_round", "B", "lower"),
    m("transport.dropped_sends", "count", "lower"),
    m("transport.link_failures", "count", "lower"),
    m("transport.pool_reuse_ratio", "ratio", "higher"),
    m("node.machine_ms_per_round", "ms", "lower"),
    m("node.self_ms_per_round", "ms", "lower"),
    m("node.msgs_per_round", "count", "lower"),
    m("node.discarded_per_round", "count", "lower"),
    m("simnet.calibrate_ms_per_round", "ms", "lower"),
    m("simnet.run_ms_per_round", "ms", "lower"),
    m("simnet.self_ms_per_round", "ms", "lower"),
    m("simnet.events_per_round", "count", "lower"),
    m("simnet.events_per_s", "1/s", "higher"),
    m("simnet.messages_per_round", "count", "lower"),
    m("simnet.delivery_ratio", "ratio", "higher"),
    m("simnet.queue_drops", "count", "lower"),
    m("simnet.retransmits", "count", "lower"),
    m("simnet.peak_queue_bytes", "B", "lower"),
    m("runtime.setup_ms", "ms", "lower"),
    m("runtime.cpu_util", "ratio", "higher"),
    m("lockstep.ms_per_sample", "ms", "lower"),
    m("event.ms_per_sample", "ms", "lower"),
    m("threaded.ms_per_sample", "ms", "lower"),
    m("cpu_ms_per_round", "ms", "lower"),
    m("residual_ms_per_round", "ms", "lower"),
    m("trace_overhead_frac", "ratio", "lower"),
];

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Report {
    /// Reported metrics (must cover the catalogue of the run's mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further figures printed for people but not in the result line:
    /// `(name, value with its unit)`.
    pub notes: Vec<(String, String)>,
    /// Correctness-gate failures.
    pub errors: Vec<String>,
    /// Units of work attempted (honest-server rounds, or fuzz samples).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
}

impl Report {
    /// Sets a catalogue metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets each named metric to 0: layers the workload does not exercise.
    pub fn zero(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// Adds a printed-only figure.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes
            .push((name.into(), format!("{value:>16.6} {unit}")));
    }

    /// Adds a printed-only trace fingerprint.
    pub fn note_fingerprint(&mut self, fingerprint: u64) {
        self.notes
            .push(("fingerprint".into(), format!("{fingerprint:>#16x}")));
    }

    /// Records a correctness failure unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The human-readable table followed by the one-line JSON result.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue metric was not measured: a bug in the
    /// workload, never a property of the system under test.
    pub fn render(&self, catalogue: &[Metric]) -> String {
        let mut out = String::new();
        for (name, value) in &self.notes {
            let _ = writeln!(out, "{name:<36} {value}");
        }
        let mut json = String::new();
        for (i, metric) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
            let _ = writeln!(
                out,
                "{:<36} {value:>16.6} {} ({} is better)",
                metric.name, metric.unit, metric.better
            );
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(value),
                metric.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        out
    }
}

/// A finite number in JSON syntax (non-finite values print as 0 and are
/// caught by the gates that produced them).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_prints_every_metric_and_one_json_line() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for metric in END_TO_END {
            r.set(metric.name, 1.5);
        }
        r.note("final_loss", 0.9, "nats");
        let text = r.render(END_TO_END);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(last.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(text.contains("final_loss"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn render_refuses_a_missing_metric() {
        Report::default().render(END_TO_END);
    }

    /// The catalogue here and the one in `BENCHMARK.json` must not drift.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let squeezed: String = text.split_whitespace().collect();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(squeezed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = squeezed.matches("\"better\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
