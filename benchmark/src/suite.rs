//! The `run` and `compare` subcommands: every workload in a child process
//! of its own, one result file, and the table that tells noise from change.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::{self, num, obj, str, Value};
use crate::metrics::{Better, END_TO_END};
use crate::workloads::NAMES;
use crate::{env, seconds_for, stats, Flags};

/// One child run: the parsed result line.
fn child(name: &str, seed: u64, trace: bool, flags: &Flags) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds_for(flags).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if flags.smoke {
        command.arg("--smoke");
    }
    if flags.plant_wrong {
        command.arg("--plant-wrong-answer");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    // Exit code 1 is "ran, but answered wrongly": the result line is there.
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!(
            "{name} (seed {seed}) exited with {}",
            output.status
        ));
    }
    json::parse(last).map_err(|e| format!("{name} printed no result line: {e}"))
}

/// Median, quartiles and raw values of one metric over the runs.
fn summarise(unit: &str, values: &[f64]) -> Value {
    let mut sorted = values.to_vec();
    let median = stats::median(&mut sorted);
    let [q1, _, q3] = stats::quartiles(values).unwrap_or([median; 3]);
    obj([
        ("unit", str(unit)),
        ("median", num(median)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        (
            "values",
            Value::Arr(values.iter().map(|v| num(*v)).collect()),
        ),
    ])
}

/// Folds the `metrics` objects of several result lines into summaries.
fn fold(lines: &[Value]) -> Value {
    let mut names: Vec<(String, String)> = Vec::new();
    if let Some(first) = lines
        .first()
        .and_then(|l| l.get("metrics"))
        .and_then(Value::as_obj)
    {
        for (name, metric) in first {
            let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
            names.push((name.clone(), unit.to_string()));
        }
    }
    Value::Obj(
        names
            .into_iter()
            .map(|(name, unit)| {
                let values: Vec<f64> = lines
                    .iter()
                    .filter_map(|l| l.get("metrics")?.get(&name)?.get("value")?.as_f64())
                    .collect();
                let summary = summarise(&unit, &values);
                (name, summary)
            })
            .collect(),
    )
}

/// One workload's entry of a result file.
fn entry(lines: &[Value], traced: Option<Value>) -> (bool, Value) {
    let sum = |key: &str| -> f64 {
        lines
            .iter()
            .chain(&traced)
            .filter_map(|l| l.get(key)?.as_f64())
            .sum()
    };
    let correct = lines
        .iter()
        .chain(&traced)
        .all(|l| l.get("correct").and_then(Value::as_bool) == Some(true));
    let mut entry = vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), num(sum("attempted"))),
        ("failed".to_string(), num(sum("failed"))),
        ("runs".to_string(), num(lines.len() as f64)),
        ("end_to_end".to_string(), fold(lines)),
    ];
    if let Some(traced) = traced {
        entry.push(("per_layer".to_string(), fold(&[traced])));
    }
    (correct, Value::Obj(entry))
}

/// `run`: every workload (or the one named), each run in its own process.
///
/// With `--sets N` every run is made N times over, once per set, the sets
/// taking turns (and swapping who goes first), so a slow phase of the host
/// falls on all of them alike; set `i` is written to `set<i>.json` beside
/// where the single result would go, the traced run with set 1.
pub fn run_all(flags: &Flags) -> Result<bool, String> {
    let names: Vec<&str> = match &flags.workload {
        Some(name) => vec![name.as_str()],
        None => NAMES.to_vec(),
    };
    let sets = flags.sets.max(1);
    let mut all_correct = true;
    let mut workloads = vec![Vec::new(); sets];
    for name in names {
        let mut lines = vec![Vec::new(); sets];
        for run in 0..flags.runs.max(1) {
            let seed = flags.seed + if flags.vary_seed { run as u64 } else { 0 };
            let mut order: Vec<usize> = (0..sets).collect();
            if run % 2 == 1 {
                order.reverse();
            }
            for set in order {
                lines[set].push(child(name, seed, false, flags)?);
            }
        }
        let mut traced = match flags.trace {
            true => Some(child(name, flags.seed, true, flags)?),
            false => None,
        };
        for (set, lines) in lines.iter().enumerate() {
            let (correct, entry) = entry(lines, traced.take());
            all_correct &= correct;
            workloads[set].push((name.to_string(), entry));
        }
    }
    let single = flags
        .out
        .as_ref()
        .map_or_else(|| env::out_dir().join("result.json"), PathBuf::from);
    for (set, workloads) in workloads.into_iter().enumerate() {
        let result = obj([
            ("header", env::header(flags.seed, flags.smoke)),
            ("workloads", Value::Obj(workloads)),
            ("claim", Value::Null),
        ]);
        let path = if sets == 1 {
            single.clone()
        } else {
            single.with_file_name(format!("set{}.json", set + 1))
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
        std::fs::write(&path, result.pretty()).map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("# result written to {}", path.display());
    }
    if !all_correct {
        eprintln!("mst-benchmark: at least one operation failed or answered wrongly");
    }
    Ok(all_correct)
}

/// How a metric of B stands against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound: the
    /// difference cannot be told from noise.
    Unresolved,
}

/// By what share of A's median B is worse (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if doc
        .get("header")
        .and_then(|h| h.get("smoke"))
        .and_then(Value::as_bool)
        != Some(false)
    {
        return Err(format!(
            "{path} is a smoke result (or has no header): nothing to compare"
        ));
    }
    Ok(doc)
}

/// `(median, interquartile range / median)` of one summarised metric.
fn summary_of(doc: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let median = m.get("median")?.as_f64()?;
    let values: Vec<f64> = m
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    Some((median, stats::spread(&values)))
}

/// `compare A.json B.json`: one row per workload × end-to-end metric.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B worse", "spread", "bound"
    );
    let mut clean = true;
    for workload in NAMES {
        for metric in END_TO_END {
            let (Some((a_med, a_spread)), Some((b_med, b_spread))) = (
                summary_of(&a, workload, metric.name),
                summary_of(&b, workload, metric.name),
            ) else {
                continue;
            };
            let worse_by = worsening(metric.better, a_med, b_med);
            let spread = a_spread.max(b_spread);
            let verdict = verdict(worse_by, spread, metric.bound);
            clean &= verdict == Verdict::Ok;
            println!(
                "{:<13} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.0}%  {}",
                workload,
                metric.name,
                a_med,
                b_med,
                worse_by * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("# B worse: share of A's median by which B is worse (negative: better)");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.04, 0.01, 0.05), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.01, 0.05), Verdict::Ok);
        assert_eq!(verdict(0.06, 0.01, 0.05), Verdict::Worse);
        assert_eq!(verdict(0.06, 0.08, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.08, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn summaries_fold_runs_into_quartiles() {
        let line = |v: f64| {
            obj([(
                "metrics",
                obj([(
                    "query_p50_ms",
                    obj([("value", num(v)), ("unit", str("ms"))]),
                )]),
            )])
        };
        let folded = fold(&[line(1.0), line(2.0), line(4.0)]);
        let m = folded.get("query_p50_ms").unwrap();
        assert_eq!(m.get("median").and_then(Value::as_f64), Some(2.0));
        assert_eq!(m.get("q1").and_then(Value::as_f64), Some(1.0));
        assert_eq!(m.get("q3").and_then(Value::as_f64), Some(4.0));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        // A single run has no spread.
        let single = fold(&[line(3.0)]);
        let m = single.get("query_p50_ms").unwrap();
        assert_eq!(m.get("q1").and_then(Value::as_f64), Some(3.0));
    }

    #[test]
    fn compare_rejects_smoke_results() {
        let dir = env::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("smoke-{}.json", std::process::id()));
        let doc = obj([("header", obj([("smoke", Value::Bool(true))]))]);
        std::fs::write(&path, doc.pretty()).unwrap();
        let refused = load(path.to_str().unwrap());
        std::fs::remove_file(&path).unwrap();
        assert!(refused.unwrap_err().contains("smoke"));
    }
}
