//! Metric values, their names and units, and the three places they go: the
//! terminal, the contract's final JSON line, and `out/results.jsonl`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A named list of metrics, in reporting order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a metric that may be missing on this workload; it is reported as
    /// 0 then (the contract wants every name on every run).
    pub fn push_opt(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        self.push(name, value.unwrap_or(0.0), unit);
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The first non-finite metric, if any: such a value cannot be written
    /// as JSON and always means a measurement went wrong.
    pub fn first_non_finite(&self) -> Option<&Metric> {
        self.0.iter().find(|m| !m.value.is_finite())
    }

    /// One aligned `name value unit` line per metric.
    pub fn render(&self, indent: &str) -> String {
        let width = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "{indent}{:<width$}  {:>14.4} {}",
                m.name, m.value, m.unit
            );
        }
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object a contract run ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What every row of `results.jsonl` says about the run it came from — the
/// self-describing record ROADMAP asks `BenchRecord` to grow into.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Unique per process invocation and run.
    pub run_id: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub git_rev: String,
    /// The workload seed.
    pub seed: u64,
    /// The workload's name.
    pub workload: &'static str,
    /// Multicasts kept in flight.
    pub window: usize,
    /// Payload bytes.
    pub payload: usize,
    /// Wire codec of the deployment.
    pub codec: &'static str,
    /// One-second slices the window was cut into.
    pub slices: usize,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Cores of the host.
    pub host_cores: usize,
}

/// Appends one row per metric to `path`.
pub fn append_results(path: &Path, info: &RunInfo, metrics: &Metrics) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut text = String::new();
    for m in &metrics.0 {
        let _ = writeln!(
            text,
            "{{\"run_id\": {}, \"git_rev\": {}, \"seed\": {}, \"workload\": {}, \"window\": {}, \
             \"payload\": {}, \"codec\": {}, \"slices\": {}, \"traced\": {}, \"host_cores\": {}, \
             \"metric\": {}, \"value\": {}, \"unit\": {}}}",
            json_string(&info.run_id),
            json_string(&info.git_rev),
            info.seed,
            json_string(info.workload),
            info.window,
            info.payload,
            json_string(info.codec),
            info.slices,
            info.traced,
            info.host_cores,
            json_string(&m.name),
            m.value,
            json_string(m.unit),
        );
    }
    file.write_all(text.as_bytes())
}

/// One span of `trace.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Span id, unique within the file.
    pub id: u64,
    /// The span that caused this one (`None` for a multicast's root span).
    pub parent: Option<u64>,
    /// Layer and call, e.g. `core.on_event.accept_ack`.
    pub name: String,
    /// Where it ran, e.g. `deployed:pipelined_1g` or `replay:conflict_2g:p3`.
    pub at: String,
    /// The multicast it belongs to, e.g. `seq 17`.
    pub multicast: u64,
    /// Start, ns on the clock of `at`.
    pub start_ns: u64,
    /// End, ns on the clock of `at`.
    pub end_ns: u64,
}

/// Writes the spans kept in memory during the traced pass.
pub fn write_trace(path: &Path, rows: &[TraceRow]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(rows.len() * 128);
    for r in rows {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"at\": {}, \"multicast\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            r.id,
            json_string(&r.name),
            json_string(&r.at),
            r.multicast,
            r.start_ns,
            r.end_ns
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::wire::from_json;

    #[derive(Debug, serde::Deserialize)]
    struct Value {
        value: f64,
        unit: String,
    }

    #[derive(Debug, serde::Deserialize)]
    struct TwoMetrics {
        latency_p50_us: Value,
        setup_s: Value,
    }

    #[derive(Debug, serde::Deserialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: TwoMetrics,
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contracts_keys() {
        let mut metrics = Metrics::default();
        metrics.push("latency_p50_us", 576.22, "us");
        metrics.push("setup_s", 2.5e-7, "s");
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let parsed: Line = from_json(&line).expect("valid JSON");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics.latency_p50_us.value, 576.22);
        assert_eq!(parsed.metrics.latency_p50_us.unit, "us");
        assert_eq!(parsed.metrics.setup_s.value, 2.5e-7);
        assert_eq!(parsed.metrics.setup_s.unit, "s");
    }

    #[test]
    fn missing_values_read_zero_and_non_finite_ones_are_found() {
        let mut metrics = Metrics::default();
        metrics.push_opt("client.latency_p50_us.cross_group", None, "us");
        assert_eq!(metrics.get("client.latency_p50_us.cross_group"), Some(0.0));
        assert_eq!(metrics.first_non_finite(), None);
        metrics.push("x", f64::NAN, "us");
        assert_eq!(
            metrics.first_non_finite().map(|m| m.name.as_str()),
            Some("x")
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
