//! The modes that run more than one measurement. Every measurement is a
//! child process running one workload — exactly the driver's call — so
//! `peak_rss_mb` belongs to that workload alone and nothing carries over
//! from one run to the next.

use crate::json::{self, Json};
use crate::manifest::{Manifest, Metric};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{body}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let result =
        json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = result.get("metrics") {
        for (name, entry) in fields {
            metrics.insert(
                name.clone(),
                entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
            );
        }
    }
    Ok(RunResult {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64,
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// Every declared metric must come back, and nothing else.
fn emitted_as_declared(result: &RunResult, declared: &[Metric], what: &str) -> bool {
    let mut ok = true;
    for metric in declared {
        if !result
            .metrics
            .get(&metric.name)
            .is_some_and(|v| v.is_finite())
        {
            eprintln!("{what}: declared metric {} was not emitted", metric.name);
            ok = false;
        }
    }
    for name in result.metrics.keys() {
        if !declared.iter().any(|m| &m.name == name) {
            eprintln!("{what}: emitted metric {name} is not declared");
            ok = false;
        }
    }
    ok
}

/// One command for everything: each workload untraced (end-to-end
/// metrics), then traced (per-layer metrics), every answer checked.
pub fn all(manifest: &Manifest, quick: bool, seed: u64, seconds: Option<f64>) -> bool {
    let seconds = seconds.unwrap_or(if quick {
        1.0
    } else {
        manifest.run_seconds as f64
    });
    let mut ok = true;
    for workload in &manifest.workloads {
        for (trace, declared) in [(false, &manifest.end_to_end), (true, &manifest.per_layer)] {
            println!(
                "\n=== {workload} — {} run, seed {seed}, {seconds} s ===",
                if trace { "traced" } else { "end-to-end" }
            );
            match run_child(workload, seed, seconds, trace, quick, true) {
                Ok(result) => {
                    println!(
                        "correct={} attempted={} failed={} fail_ratio={}",
                        result.correct,
                        result.attempted,
                        result.failed,
                        result.failed as f64 / result.attempted.max(1) as f64
                    );
                    ok &= result.correct && emitted_as_declared(&result, declared, workload);
                }
                Err(message) => {
                    eprintln!("{message}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "all workloads correct, every declared metric emitted"
        } else {
            "FAILED"
        }
    );
    ok
}

/// Repeatability: two sets of `runs` end-to-end runs of the same build
/// (seeds `seed .. seed + runs` in both). Prints each metric's quartiles
/// and spread per set and fails when the second median is worse than the
/// first by more than the metric's bound — the driver's own rule for
/// medians, applied here first.
pub fn agree(manifest: &Manifest, runs: usize, seed: u64, seconds: Option<f64>) -> bool {
    let seconds = seconds.unwrap_or(manifest.run_seconds as f64);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "agreement: 2 sets x {runs} runs x {} workloads, {seconds} s each, host_cores={cores}",
        manifest.workloads.len()
    );
    let mut ok = true;
    // sets interleaved per workload, so drift of the host hits both alike
    for workload in &manifest.workloads {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..runs {
            for set in &mut sets {
                match run_child(workload, seed + run as u64, seconds, false, false, false) {
                    Ok(result) if result.correct => {
                        for metric in &manifest.end_to_end {
                            set.entry(&metric.name)
                                .or_default()
                                .push(result.metrics[&metric.name]);
                        }
                    }
                    Ok(_) => {
                        eprintln!("{workload}: a run was not correct");
                        ok = false;
                    }
                    Err(message) => {
                        eprintln!("{message}");
                        ok = false;
                    }
                }
            }
        }
        println!("\n{workload}");
        println!(
            "  {:<12} {:>5} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7}  verdict",
            "metric", "set", "q1", "median", "q3", "spread", "worse by", "bound"
        );
        for metric in &manifest.end_to_end {
            let bound = metric.bound.unwrap_or(0.0);
            let mut medians = [0.0; 2];
            let mut rows = Vec::new();
            for (i, set) in sets.iter_mut().enumerate() {
                let (q1, q2, q3) = quartiles(set.entry(&metric.name).or_default());
                medians[i] = q2;
                rows.push((
                    i + 1,
                    q1,
                    q2,
                    q3,
                    if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 },
                ));
            }
            let change = if medians[0] != 0.0 {
                (medians[1] - medians[0]) / medians[0]
            } else {
                0.0
            };
            let worse = if metric.better == "lower" {
                change
            } else {
                -change
            };
            // The verdict is on the medians. A spread wider than the bound
            // is flagged, not failed: with five runs one disturbed run is
            // enough to stretch a quartile, and the driver judges spreads
            // on ten.
            let agrees = worse <= bound;
            ok &= agrees;
            for (set, q1, q2, q3, spread) in rows {
                let wide = if spread > bound && metric.name != "setup_s" {
                    " (wide)"
                } else {
                    ""
                };
                let tail = if set == 2 {
                    format!(
                        "{:>8.2}% {:>6.0}%  {}{wide}",
                        100.0 * worse,
                        100.0 * bound,
                        if agrees { "agree" } else { "DISAGREE" }
                    )
                } else {
                    wide.to_owned()
                };
                println!(
                    "  {:<12} {set:>5} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>8.2}% {tail}",
                    metric.name,
                    100.0 * spread
                );
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "the two sets agree within every bound"
        } else {
            "DISAGREEMENT"
        }
    );
    ok
}
