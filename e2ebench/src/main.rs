//! End-to-end benchmark for RouLette.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <batch-tpcds|serve-chains|stream-window> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process, checks every output
//! against a computation made without RouLette's engine, and prints one
//! JSON object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`. See README.md
//! for the workloads, the metrics and which layer should move which
//! end-to-end number.

mod batch;
mod check;
mod ledger;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported from traced runs. A layer a workload does
/// not run (the server on `batch-tpcds`, say) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.load_s", "s"),
    ("query.parse_us", "us"),
    ("policy.choose_calls", "count"),
    ("policy.choose_s", "s"),
    ("policy.observe_s", "s"),
    ("policy.q_entries", "count"),
    ("policy.join_tuples_per_row", "ratio"),
    ("exec.episodes", "count"),
    ("exec.episode_us.p50", "us"),
    ("exec.episode_us.p99", "us"),
    ("exec.filter_s", "s"),
    ("exec.build_s", "s"),
    ("exec.probe_s", "s"),
    ("exec.route_s", "s"),
    ("exec.other_s", "s"),
    ("exec.join_tuples", "count"),
    ("exec.inserted_tuples", "count"),
    ("exec.pruned_tuples", "count"),
    ("exec.materialized_cells", "count"),
    ("exec.selected_per_scanned", "ratio"),
    ("exec.probe_batch_mean", "tuples"),
    ("exec.scratch_hit_ratio", "ratio"),
    ("exec.stem_mb", "MB"),
    ("server.latency_us.p50", "us"),
    ("server.wire_us.p50", "us"),
    ("server.batches", "count"),
    ("server.batch_queries_mean", "count"),
    ("server.rows_streamed", "count"),
    ("server.encode_ns_per_row", "ns"),
    ("server.request_parse_us", "us"),
    ("stream.generate_us", "us"),
    ("stream.advance_us", "us"),
    ("stream.snapshot_us", "us"),
    ("stream.session_ms", "ms"),
    ("stream.live_rows_mean", "count"),
    ("stream.expired_rows", "count"),
    ("stream.episodes_per_epoch", "count"),
    ("telemetry.overhead_pct", "%"),
];

/// What one workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output that did not fail matched the reference.
    pub correct: bool,
    /// Operations attempted (queries, requests or query runs).
    pub attempted: u64,
    /// Of those, how many failed (see README.md for what counts).
    pub failed: u64,
    /// Metric values by name; names missing here print as 0.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The final JSON line: every metric of `table`, in table order.
    fn to_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "batch-tpcds" => batch::run(&args),
        "serve-chains" => serve::run(&args),
        "stream-window" => stream::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(report) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", report.to_json(table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the benchmark's declaration at the root
    /// of the repository name the same metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics declared"
        );
    }

    #[test]
    fn json_line_has_every_metric_of_the_table() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set("qps", 12.5);
        let line = r.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
