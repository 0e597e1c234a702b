//! `polbench calibrate` runs the whole suite five times on one seed and
//! records how far each metric moves between runs of the same code;
//! `polbench compare` sets two such records side by side. Neither makes a claim: a gain is
//! claimed by the rule in README.md ("Claiming a gain"), from paired runs.

use crate::estimate::{iqr_share, median, range_share};
use crate::flag;
use crate::json::{self, obj, Json};
use crate::names::{END_TO_END, RUN_SECONDS, WORKLOADS};
use std::process::{Command, Stdio};

/// Runs one workload in a fresh process and returns its result line.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    json::parse(line).map_err(|e| format!("{workload} result line: {e}"))
}

/// Suites per calibration.
const SUITES: usize = 5;
/// The widest range over median a timing metric (or the peak resident set)
/// may show over the suites.
const MAX_RANGE: f64 = 0.08;
/// The metric that is a function of the seed alone and must repeat exactly.
const EXACT: &str = "bytes_stored_per_record";

/// The bound a metric's calibrated range supports: twice the range, at
/// least 0.03, never above 0.10; 0.01 for the byte count.
fn derived_bound(metric: &str, values: &[f64]) -> f64 {
    if metric == EXACT {
        0.01
    } else {
        (2.0 * range_share(values)).clamp(0.03, 0.10)
    }
}

pub fn calibrate(args: &[String]) -> Result<(), String> {
    let seed: u64 = flag(args, "--seed")
        .map_or(Ok(1), str::parse)
        .map_err(|_| "--seed must be a number")?;
    let seconds: u64 = flag(args, "--seconds")
        .map_or(Ok(RUN_SECONDS), str::parse)
        .map_err(|_| "--seconds must be a number")?;
    let out_path = flag(args, "--out").unwrap_or("benchmark/CALIBRATION.json");

    // values[workload][metric] over the suites, suite by suite so that slow
    // drift of the machine lands on every workload alike.
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut attempted = vec![Vec::<f64>::new(); WORKLOADS.len()];
    let mut failed = vec![0.0f64; WORKLOADS.len()];
    for suite in 0..SUITES {
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            eprintln!("calibrate: suite {}/{SUITES}, {workload}", suite + 1);
            let result = run_once(workload, seed, seconds)?;
            let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            attempted[w].push(count("attempted"));
            failed[w] += count("failed");
            for (m, metric) in END_TO_END.iter().enumerate() {
                let value = result
                    .get("metrics")
                    .and_then(|ms| ms.get(metric.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload} did not report {}", metric.name))?;
                values[w][m].push(value);
            }
        }
    }

    let mut problems = Vec::new();
    let mut workloads = Vec::new();
    println!(
        "{:<14} {:<24} {:>14} {:>8} {:>8} {:>8} {:>8}",
        "workload", "metric", "median", "range", "iqr", "derived", "bound"
    );
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        if failed[w] > 0.0 {
            problems.push(format!(
                "{workload}: {} outputs failed their check",
                failed[w]
            ));
        }
        // The build and the stream check a fixed number of outputs; the
        // serve workloads check every frame they got through.
        if !workload.starts_with("serve_") && range_share(&attempted[w]) != 0.0 {
            problems.push(format!(
                "{workload}: the number of outputs checked differs between suites"
            ));
        }
        let mut metrics = Vec::new();
        for (m, metric) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let (range, iqr) = (range_share(v), iqr_share(v));
            let derived = derived_bound(metric.name, v);
            println!(
                "{:<14} {:<24} {:>14.4} {:>8.4} {:>8.4} {:>8.3} {:>8.3}",
                workload,
                metric.name,
                median(v),
                range,
                iqr,
                derived,
                metric.bound
            );
            if metric.name == EXACT {
                if range != 0.0 {
                    problems.push(format!(
                        "{workload}/{}: a count differs between suites of one seed",
                        metric.name
                    ));
                }
            } else if range > MAX_RANGE {
                problems.push(format!(
                    "{workload}/{}: ranges {range:.3} of its median over {SUITES} suites (> {MAX_RANGE})",
                    metric.name
                ));
            }
            metrics.push((
                metric.name,
                obj(vec![
                    ("unit", metric.unit.into()),
                    ("better", metric.better.into()),
                    ("values", v.clone().into()),
                    ("median", median(v).into()),
                    ("range_share", range.into()),
                    ("iqr_share", iqr.into()),
                    ("derived_bound", derived.into()),
                    ("bound", metric.bound.into()),
                ]),
            ));
        }
        workloads.push((
            *workload,
            obj(vec![
                ("attempted", attempted[w].clone().into()),
                ("failed", failed[w].into()),
                ("metrics", obj(metrics)),
            ]),
        ));
    }
    let report = obj(vec![
        ("suites", SUITES.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("nproc", crate::env::nproc().into()),
        ("max_range", MAX_RANGE.into()),
        ("workloads", obj(workloads)),
        ("problems", problems.clone().into()),
        ("claim", Json::Null),
    ]);
    std::fs::write(out_path, report.pretty()).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!("calibration failed:\n  {}", problems.join("\n  ")))
    }
}

/// Reads one calibration file.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err(
            "usage: polbench compare A.json B.json (files written by `polbench calibrate --out`)"
                .into(),
        );
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let field = |file: &Json, key: &str| {
                file.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("metrics"))
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
            };
            let (Some(ma), Some(mb)) = (field(&a, "median"), field(&b, "median")) else {
                println!("{workload:<14} {:<24} missing from one file", metric.name);
                continue;
            };
            // Positive = B is worse, as a share of A's median.
            let worse = if metric.better == "higher" {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let spread = field(&a, "iqr_share")
                .unwrap_or(0.0)
                .max(field(&b, "iqr_share").unwrap_or(0.0));
            let verdict = if spread > metric.bound {
                "unresolved: the spread exceeds the bound"
            } else if worse > metric.bound {
                "WORSE beyond the bound"
            } else if -worse > metric.bound {
                "better beyond the bound (not a claim: see README, Claiming a gain)"
            } else {
                "within the bound"
            };
            println!(
                "{:<14} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>7.3} {:>7.3}  {}",
                workload,
                metric.name,
                ma,
                mb,
                worse * 100.0,
                metric.bound,
                spread,
                verdict
            );
        }
    }
    Ok(())
}
