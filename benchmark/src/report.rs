//! What a run prints, the result record `all` writes, and `compare`.

use crate::host::HostFacts;
use crate::spec::MetricDef;
use serde_json::Value;
use std::fmt::Write as _;

/// Measured values by metric name, with how many samples stand behind
/// each.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, u64)>);

impl Metrics {
    /// Record `name = value` from `samples` samples.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.push((name, value, samples));
    }

    fn get(&self, name: &str) -> Option<(f64, u64)> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, s)| (v, s))
    }
}

/// Outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: requests sent, probes checked.
    pub attempted: u64,
    /// Operations failed, refused, malformed or wrong.
    pub failed: u64,
    /// The metrics this run owes.
    pub metrics: Metrics,
    notes: Vec<String>,
}

impl RunResult {
    /// A line for the human reader.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every answer checked was right and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Print every owed metric by name with its unit, then the
    /// contract's one-line JSON object last. Errors if a metric is
    /// missing or not a finite number.
    pub fn emit(&self, workload: &str, owed: &[MetricDef]) -> Result<(), String> {
        let mut json = String::new();
        let mut samples = String::new();
        for note in &self.notes {
            println!("# {workload}: {note}");
        }
        for (i, def) in owed.iter().enumerate() {
            let (value, n) = self
                .metrics
                .get(def.name)
                .ok_or_else(|| format!("{workload} did not measure {}", def.name))?;
            if !value.is_finite() {
                return Err(format!("{workload}: {} is {value}", def.name));
            }
            println!("{workload} {} = {value} {} (n={n})", def.name, def.unit);
            let sep = if i == 0 { "" } else { "," };
            write!(
                json,
                "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                def.name, def.unit
            )
            .expect("writing to a string");
            write!(samples, "{sep}\"{}\":{n}", def.name).expect("writing to a string");
        }
        println!("#samples {{{samples}}}");
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        Ok(())
    }
}

/// What `all` keeps of one child run: its final line and sample counts.
pub struct ChildRun {
    /// The contract's JSON object.
    pub result: Value,
    /// Metric name → sample count.
    pub samples: Value,
}

impl ChildRun {
    /// Pick the two machine-readable lines out of a child's stdout.
    pub fn parse(stdout: &str) -> Result<ChildRun, String> {
        let last = stdout.lines().last().ok_or("no output")?;
        let result = serde_json::from_str(last).map_err(|e| format!("last line: {e}"))?;
        let samples = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("#samples "))
            .ok_or("no #samples line")?;
        let samples = serde_json::from_str(samples).map_err(|e| format!("#samples line: {e}"))?;
        Ok(ChildRun { result, samples })
    }

    fn metrics_json(&self) -> String {
        let Value::Object(metrics) = &self.result["metrics"] else {
            return String::new();
        };
        metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                    m["value"].as_f64().unwrap_or(0.0),
                    m["unit"].as_str().unwrap_or(""),
                    self.samples[name.as_str()].as_f64().unwrap_or(0.0)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// The result record: host facts, seed, and per workload the untraced
/// run's end-to-end metrics and the traced run's per-layer metrics.
pub fn record_json(
    host: &HostFacts,
    seed: u64,
    seconds: f64,
    runs: &[(&str, ChildRun, ChildRun)],
) -> String {
    let workloads: Vec<String> = runs
        .iter()
        .map(|(name, untraced, traced)| {
            let flag = |key: &str| {
                untraced.result[key] == true && traced.result[key] == true
            };
            let sum = |key: &str| {
                untraced.result[key].as_f64().unwrap_or(0.0) + traced.result[key].as_f64().unwrap_or(0.0)
            };
            format!(
                "\"{name}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
                flag("correct"),
                sum("attempted"),
                sum("failed"),
                untraced.metrics_json(),
                traced.metrics_json()
            )
        })
        .collect();
    format!(
        "{{\"schema\":1,\"seed\":{seed},\"seconds\":{seconds},\"host\":{{\"nproc\":{},\"avx2\":{},\"avx512f\":{},\"fma\":{},\"stream_read_gbps\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}},\"workloads\":{{{}}}}}\n",
        host.nproc,
        host.avx2,
        host.avx512f,
        host.fma,
        host.stream_read_gbps,
        host.rustc,
        host.commit,
        workloads.join(",")
    )
}

/// One line of `compare`'s table.
#[derive(Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Value in the first record.
    pub base: f64,
    /// Value in the second record.
    pub value: f64,
    /// `regression`, `improved`, `within`, `unresolved`, or `-` for a
    /// per-layer metric (no bound).
    pub verdict: &'static str,
}

/// Hold record `b` against record `a`: per workload × metric, the
/// verdict against the bound `BENCHMARK.json` fixes. Two records of the
/// same commit that differ by more than the bound show that the noise
/// is wider than the bound: `unresolved`, not a regression.
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<Vec<Row>, String> {
    let commit = |r: &Value| {
        r["host"]["commit"]
            .as_str()
            .unwrap_or("unknown")
            .to_string()
    };
    let same_code = commit(a) == commit(b) && commit(a) != "unknown";
    let (Value::Object(base), Value::Array(bounded)) = (&a["workloads"], &benchmark["end_to_end"])
    else {
        return Err("not a result record, or not a BENCHMARK.json".into());
    };
    let mut rows = Vec::new();
    for (workload, base_w) in base {
        let new_w = &b["workloads"][workload.as_str()];
        if new_w["correct"] != true {
            return Err(format!(
                "{workload}: the second record is missing or not correct"
            ));
        }
        for layer in ["end_to_end", "per_layer"] {
            let Value::Object(metrics) = &base_w[layer] else {
                continue;
            };
            for (metric, m) in metrics {
                let base = m["value"].as_f64().ok_or("value is not a number")?;
                let value = new_w[layer][metric.as_str()]["value"]
                    .as_f64()
                    .ok_or_else(|| {
                        format!("{workload}: {metric} is missing from the second record")
                    })?;
                let def = bounded.iter().find(|d| d["name"] == metric.as_str());
                let verdict = match def {
                    None => "-",
                    Some(def) => {
                        let bound = def["bound"].as_f64().ok_or("bound is not a number")?;
                        let sign = if def["better"] == "higher" { -1.0 } else { 1.0 };
                        let worse_by = sign * (value - base) / base.abs();
                        match (worse_by.abs() > bound, same_code) {
                            (false, _) => "within",
                            (true, true) => "unresolved",
                            (true, false) if worse_by > 0.0 => "regression",
                            (true, false) => "improved",
                        }
                    }
                };
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    base,
                    value,
                    verdict,
                });
            }
        }
    }
    Ok(rows)
}

/// Print `compare`'s table; the exit code is 1 on any regression, 2 if
/// anything is unresolved, else 0.
pub fn print_comparison(rows: &[Row]) -> i32 {
    println!(
        "{:<16} {:<42} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "base", "value", "ratio"
    );
    for r in rows {
        println!(
            "{:<16} {:<42} {:>14.4} {:>14.4} {:>7.3}  {}",
            r.workload,
            r.metric,
            r.base,
            r.value,
            r.value / r.base,
            r.verdict
        );
    }
    let count = |v: &str| rows.iter().filter(|r| r.verdict == v).count();
    let (regressions, unresolved) = (count("regression"), count("unresolved"));
    println!(
        "{regressions} regressions, {unresolved} unresolved, {} improved, {} within bound",
        count("improved"),
        count("within")
    );
    match (regressions, unresolved) {
        (0, 0) => 0,
        (0, _) => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end":[
        {"name":"knn_p50_us","unit":"us","better":"lower","bound":0.1},
        {"name":"searches_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;

    fn record(commit: &str, p50: f64, rate: f64, q1: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"host":{{"commit":"{commit}"}},"workloads":{{"w":{{"correct":true,
            "end_to_end":{{"knn_p50_us":{{"value":{p50},"unit":"us","samples":9}},
                           "searches_per_s":{{"value":{rate},"unit":"1/s","samples":9}}}},
            "per_layer":{{"vecdb.scan.q1_us":{{"value":{q1},"unit":"us","samples":9}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdicts(a: &Value, b: &Value) -> Vec<&'static str> {
        let bounds = serde_json::from_str(BOUNDS).unwrap();
        compare(a, b, &bounds)
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = record("aaa", 100.0, 1000.0, 50.0);
        // Slower and less throughput, both beyond 10%: two regressions;
        // the per-layer metric has no bound.
        let rows = verdicts(&base, &record("bbb", 115.0, 850.0, 80.0));
        assert_eq!(rows, ["regression", "regression", "-"]);
        // Within 10% either way.
        assert_eq!(
            verdicts(&base, &record("bbb", 109.0, 950.0, 50.0)),
            ["within", "within", "-"]
        );
        // Faster and more throughput.
        assert_eq!(
            verdicts(&base, &record("bbb", 80.0, 1200.0, 50.0)),
            ["improved", "improved", "-"]
        );
    }

    #[test]
    fn same_code_beyond_the_bound_is_unresolved() {
        let base = record("aaa", 100.0, 1000.0, 50.0);
        let again = record("aaa", 120.0, 1000.0, 50.0);
        assert_eq!(verdicts(&base, &again), ["unresolved", "within", "-"]);
        let bounds = serde_json::from_str(BOUNDS).unwrap();
        assert_eq!(
            print_comparison(&compare(&base, &again, &bounds).unwrap()),
            2
        );
        // Unknown commits cannot be shown to be the same code.
        let rows = verdicts(
            &record("unknown", 100.0, 1000.0, 50.0),
            &record("unknown", 120.0, 1000.0, 50.0),
        );
        assert_eq!(rows[0], "regression");
    }

    #[test]
    fn exit_codes_and_malformed_records() {
        let bounds = serde_json::from_str(BOUNDS).unwrap();
        let base = record("aaa", 100.0, 1000.0, 50.0);
        let worse = compare(&base, &record("bbb", 150.0, 1000.0, 50.0), &bounds).unwrap();
        assert_eq!(print_comparison(&worse), 1);
        let same = compare(&base, &record("bbb", 100.0, 1000.0, 50.0), &bounds).unwrap();
        assert_eq!(print_comparison(&same), 0);
        let empty = serde_json::from_str("{}").unwrap();
        assert!(compare(&empty, &base, &bounds).is_err());
        assert!(
            compare(&base, &empty, &bounds).is_err(),
            "workload missing from b"
        );
    }

    #[test]
    fn child_output_parses_into_a_record() {
        let stdout = "w knn_p50_us = 1.5 us (n=9)\n#samples {\"knn_p50_us\":9}\n\
            {\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"knn_p50_us\":{\"value\":1.5,\"unit\":\"us\"}}}\n";
        let run = ChildRun::parse(stdout).unwrap();
        assert_eq!(
            run.metrics_json(),
            "\"knn_p50_us\":{\"value\":1.5,\"unit\":\"us\",\"samples\":9}"
        );
        assert!(ChildRun::parse("nonsense").is_err());
    }
}
