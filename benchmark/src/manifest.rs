//! `BENCHMARK.json`: reading it, and checking it against the driver's
//! contract and against what the benchmark actually emits — before
//! anything runs, so a bad manifest is a message here and not a refused
//! benchmark there.

use crate::json::{self, Json};
use crate::layers::PER_LAYER;
use crate::workloads::WORKLOADS;
use std::collections::BTreeSet;

pub const FILE: &str = "BENCHMARK.json";

/// The end-to-end metrics the benchmark emits: name, unit, better.
/// Failures are not a metric (a metric may never read 0): they are the
/// `failed` / `attempted` / `correct` fields of every result line.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn exact_keys(value: &Json, want: &[&str], what: &str, problems: &mut Vec<String>) {
    let mut got = value.keys();
    let mut want: Vec<&str> = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        problems.push(format!(
            "{what}: keys are {got:?}, the contract wants exactly {want:?}"
        ));
    }
}

fn metrics_of(
    root: &Json,
    key: &str,
    bounded: bool,
    max: usize,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let entries = root.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    if entries.is_empty() || entries.len() > max {
        problems.push(format!(
            "{key}: {} entries, the contract wants 1 to {max}",
            entries.len()
        ));
    }
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    entries
        .iter()
        .map(|entry| {
            let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            let metric = Metric {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
                bound: entry.get("bound").and_then(Json::as_f64),
            };
            exact_keys(entry, keys, &format!("{key} {:?}", metric.name), problems);
            if !unit_ok(&metric.unit) {
                problems.push(format!(
                    "{key} {:?}: bad unit {:?}",
                    metric.name, metric.unit
                ));
            }
            if !matches!(metric.better.as_str(), "lower" | "higher") {
                problems.push(format!(
                    "{key} {:?}: better must be lower or higher",
                    metric.name
                ));
            }
            if bounded && !metric.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
                problems.push(format!(
                    "{key} {:?}: bound must be in (0, 0.25]",
                    metric.name
                ));
            }
            metric
        })
        .collect()
}

fn same_metrics(
    declared: &[Metric],
    emitted: &[(&str, &str, &str)],
    what: &str,
    problems: &mut Vec<String>,
) {
    for (name, unit, better) in emitted {
        match declared.iter().find(|m| m.name == *name) {
            None => problems.push(format!("{what}: {name} is emitted but not declared")),
            Some(m) if m.unit != *unit || m.better != *better => problems.push(format!(
                "{what}: {name} is declared {}/{}, emitted {unit}/{better}",
                m.unit, m.better
            )),
            Some(_) => {}
        }
    }
    for metric in declared {
        if !emitted.iter().any(|(name, _, _)| *name == metric.name) {
            problems.push(format!(
                "{what}: {} is declared but never emitted",
                metric.name
            ));
        }
    }
}

/// Parse the manifest and list everything wrong with it.
pub fn load(text: &str) -> (Option<Manifest>, Vec<String>) {
    let mut problems = Vec::new();
    if text.len() > 64 * 1024 {
        problems.push(format!(
            "{FILE} is {} bytes, the contract allows 64 KiB",
            text.len()
        ));
    }
    let root = match json::parse(text) {
        Ok(root) => root,
        Err(e) => return (None, vec![format!("{FILE} is not JSON: {e}")]),
    };
    exact_keys(
        &root,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        FILE,
        &mut problems,
    );

    let paths: Vec<&str> = root
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    if paths.is_empty() || paths.len() > 16 {
        problems.push(format!(
            "paths: {} entries, the contract wants 1 to 16",
            paths.len()
        ));
    }
    for path in &paths {
        let chars_ok = path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c));
        if !chars_ok
            || path.len() > 200
            || path.starts_with('/')
            || path.split('/').any(|s| s == "..")
        {
            problems.push(format!("paths: {path:?} is not a plain relative path"));
        } else if !std::path::Path::new(path).is_dir() {
            problems.push(format!("paths: {path:?} is not a directory here"));
        }
    }
    let command: Vec<&str> = root
        .get("command")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    if command.is_empty() || command.len() > 32 || command.iter().any(|a| a.len() > 200) {
        problems.push("command: wants 1 to 32 strings of at most 200 characters".into());
    }
    for arg in command.iter().skip(1) {
        let inside = paths.iter().any(|p| arg.starts_with(&format!("{p}/")));
        if arg.starts_with('/')
            || arg.split('/').any(|s| s == "..")
            || (arg.contains('/') && !inside)
        {
            problems.push(format!("command: {arg:?} names a file outside paths"));
        }
    }

    let run_seconds = root
        .get("run_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if run_seconds.fract() != 0.0 || !(1.0..=60.0).contains(&run_seconds) {
        problems.push("run_seconds: wants a whole number from 1 to 60".into());
    }

    let workload_entries = root.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    if !(2..=8).contains(&workload_entries.len()) {
        problems.push(format!(
            "workloads: {} entries, the contract wants 2 to 8",
            workload_entries.len()
        ));
    }
    let mut workloads = Vec::new();
    for entry in workload_entries {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        let why = entry.get("why").and_then(Json::as_str).unwrap_or("");
        exact_keys(
            entry,
            &["name", "why"],
            &format!("workload {name:?}"),
            &mut problems,
        );
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            problems.push(format!(
                "workload {name:?}: why must be one line of at most 200 characters"
            ));
        }
        workloads.push(name.to_owned());
    }
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    if workloads != known {
        problems.push(format!(
            "workloads: declared {workloads:?}, the benchmark runs {known:?}"
        ));
    }

    let end_to_end = metrics_of(&root, "end_to_end", true, 16, &mut problems);
    let per_layer = metrics_of(&root, "per_layer", false, 128, &mut problems);
    same_metrics(&end_to_end, &END_TO_END, "end_to_end", &mut problems);
    same_metrics(&per_layer, &PER_LAYER, "per_layer", &mut problems);
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
    {
        problems.push("end_to_end: setup_s (unit s, better lower) is required".into());
    }

    let mut seen = BTreeSet::new();
    for name in workloads
        .iter()
        .chain(end_to_end.iter().chain(&per_layer).map(|m| &m.name))
    {
        if !name_ok(name) {
            problems.push(format!(
                "name {name:?}: wants [A-Za-z0-9][A-Za-z0-9_.-]* of at most 64"
            ));
        }
        if !seen.insert(name.as_str()) {
            problems.push(format!("name {name:?} is used more than once"));
        }
    }

    // 4 + 22 × workloads runs, two builds, 3420 s in all: besides its
    // measuring time a run spends up to 8 s on set-ups, oracle, checks
    // and tear-down, and a cold build takes about 90 s
    let runs = 4 + 22 * workloads.len();
    let estimate = runs as f64 * (run_seconds + 8.0) + 2.0 * 90.0;
    if estimate > 3420.0 {
        problems.push(format!(
            "run_seconds: {runs} runs would take about {estimate:.0} s, over the 3420 s cap"
        ));
    }
    let manifest = Manifest {
        run_seconds: run_seconds as u64,
        workloads,
        end_to_end,
        per_layer,
    };
    (Some(manifest), problems)
}

/// Read and check `BENCHMARK.json` in the working directory (the root of
/// the checkout).
pub fn load_checked() -> Result<Manifest, Vec<String>> {
    let text =
        std::fs::read_to_string(FILE).map_err(|e| vec![format!("cannot read {FILE}: {e}")])?;
    match load(&text) {
        (Some(manifest), problems) if problems.is_empty() => Ok(manifest),
        (_, problems) => Err(problems),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_contract() {
        assert!(name_ok("core.parse_ms") && name_ok("9lives") && name_ok("a-b"));
        assert!(
            !name_ok("")
                && !name_ok(".hidden")
                && !name_ok("has space")
                && !name_ok(&"x".repeat(65))
        );
        assert!(unit_ok("ms/MB") && unit_ok("%") && unit_ok("1/s"));
        assert!(!unit_ok("") && !unit_ok("per second") && !unit_ok(&"u".repeat(17)));
    }

    #[test]
    fn a_stray_key_or_a_missing_metric_is_reported() {
        let (_, problems) = load(r#"{"command": ["bash"], "claim": null}"#);
        assert!(
            problems.iter().any(|p| p.contains("exactly")),
            "{problems:?}"
        );
        assert!(problems
            .iter()
            .any(|p| p.contains("ops_per_s is emitted but not declared")));
        assert!(problems.iter().any(|p| p.contains("setup_s")));
    }
}
