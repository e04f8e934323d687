//! The repo benchmark.
//!
//! ```text
//! mst-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//! mst-benchmark run [--seed N] [--seconds S] [--trace] [--workload W] [--runs R]
//!                   [--sets N] [--vary-seed] [--smoke] [--out FILE]
//!                                                               every workload, child per run
//! mst-benchmark compare A.json B.json                           the noise/regression table
//! mst-benchmark glossary                                        every metric, as the README lists them
//! mst-benchmark contract                                        BENCHMARK.json, from the same tables
//! ```
//!
//! See `benchmark/README.md` for the metric glossary and procedures.

mod env;
mod inputs;
mod json;
mod layers;
mod metrics;
mod micro;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::{num, obj, str, Value};
use workloads::{Ctx, DEFAULT_SEED, NAMES};

/// Seconds one run measures unless told otherwise (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Flags shared by the single-run and `run` forms.
#[derive(Debug)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub plant_wrong: bool,
    pub runs: usize,
    pub sets: usize,
    pub vary_seed: bool,
    pub out: Option<String>,
}

fn parse_flags(args: &[String], bare_trace: bool) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        plant_wrong: false,
        runs: 1,
        sets: 1,
        vary_seed: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" if bare_trace => flags.trace = true,
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => flags.smoke = true,
            "--plant-wrong-answer" => flags.plant_wrong = true,
            "--runs" => flags.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--sets" => flags.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--vary-seed" => flags.vary_seed = true,
            "--out" => flags.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &flags.workload {
        if !NAMES.contains(&name.as_str()) {
            return Err(format!("unknown workload {name:?}; one of {NAMES:?}"));
        }
    }
    Ok(flags)
}

pub fn seconds_for(flags: &Flags) -> f64 {
    flags
        .seconds
        .unwrap_or(if flags.smoke { 1.0 } else { DEFAULT_SECONDS })
}

/// One workload, in this process; the result object is the last stdout line.
fn single(flags: &Flags) -> Result<bool, String> {
    let name = flags
        .workload
        .as_deref()
        .ok_or("--workload is required (or use the `run` subcommand)")?;
    let ctx = Ctx {
        seed: flags.seed,
        seconds: seconds_for(flags),
        trace: flags.trace,
        smoke: flags.smoke,
        plant_wrong: flags.plant_wrong,
    };
    let outcome = workloads::run(name, &ctx)?;

    for note in &outcome.notes {
        println!("# {name}: {note}");
    }
    println!("# {name}: input digest {:#018x}", outcome.input_digest);
    let wanted: Vec<&str> = if ctx.trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut reported = Vec::with_capacity(wanted.len());
    for metric in wanted {
        let value = *outcome
            .metrics
            .get(metric)
            .ok_or_else(|| format!("{name} did not produce {metric}"))?;
        if !value.is_finite() {
            return Err(format!("{name} measured a non-finite {metric}"));
        }
        let unit = metrics::unit_of(metric).expect("listed metrics have units");
        println!("{name} {metric} {value} {unit}");
        reported.push((
            metric.to_string(),
            obj([("value", num(value)), ("unit", str(unit))]),
        ));
    }
    if ctx.trace {
        let path = env::out_dir().join(format!("trace-{name}.jsonl"));
        trace::write_jsonl(&path, &outcome.spans).map_err(|e| format!("writing {path:?}: {e}"))?;
        // A pass's self time is what its requests do not cover: the load
        // generator's own share of the wall clock.
        let own = trace::self_times(&outcome.spans);
        let (mut pass_ns, mut pass_self_ns) = (0u64, 0u64);
        for (span, own) in outcome.spans.iter().zip(own) {
            if span.name == "pass" {
                pass_ns += span.duration_ns();
                pass_self_ns += own;
            }
        }
        println!(
            "# {name}: {} spans in {}; passes spent {:.2} % of their time with no request in flight",
            outcome.spans.len(),
            path.display(),
            pass_self_ns as f64 / pass_ns.max(1) as f64 * 100.0
        );
    }
    let correct = outcome.failed == 0;
    println!(
        "{name} ops_failed_share {} ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", num(outcome.attempted.max(1) as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", Value::Obj(reported)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cfg!(debug_assertions) {
        eprintln!("mst-benchmark: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    if env::nproc() < workloads::MAX_LOAD_THREADS {
        eprintln!(
            "mst-benchmark: {} load-generating threads need at least as many processors, found {}",
            workloads::MAX_LOAD_THREADS,
            env::nproc()
        );
        return ExitCode::from(2);
    }
    let result = match args.first().map(String::as_str) {
        Some("compare") => suite::compare(&args[1..]),
        Some("contract") => {
            print!("{}", metrics::contract(DEFAULT_SECONDS).pretty());
            Ok(true)
        }
        Some("glossary") => {
            print!("{}", metrics::glossary());
            Ok(true)
        }
        Some("run") => parse_flags(&args[1..], true).and_then(|flags| suite::run_all(&flags)),
        _ => parse_flags(&args, false).and_then(|flags| single(&flags)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("mst-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
