//! The harness tested without the long runs: `--quick` (≈100 KB of data,
//! one second per run) must check every answer, emit every declared
//! metric, and repeat its exact counts from run to run.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_owned()
}

fn benchmark(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_partix-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let manifest = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("manifest");
    let from = manifest
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &manifest[from..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_owned())
        .collect()
}

fn value(result_line: &str, metric: &str) -> Option<f64> {
    let rest = result_line
        .split(&format!("\"{metric}\": {{\"value\": "))
        .nth(1)?;
    rest[..rest.find(',')?].parse().ok()
}

const WORKLOADS: [&str; 4] = ["horiz_scan", "vert_join", "remote_stream", "mixed_rw"];

#[test]
fn manifest_check_passes() {
    let (ok, out) = benchmark(&["--check"]);
    assert!(ok, "{out}");
    assert!(out.contains("BENCHMARK.json is valid"));
}

#[test]
fn quick_mode_is_correct_and_emits_every_declared_metric() {
    let (ok, out) = benchmark(&["--quick"]);
    assert!(ok, "--quick failed:\n{out}");
    assert!(
        out.contains("all workloads correct, every declared metric emitted"),
        "{out}"
    );
    assert_eq!(
        out.matches("fail_ratio=0\n").count(),
        2 * WORKLOADS.len(),
        "{out}"
    );
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, out) = benchmark(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            assert!(ok, "{workload} trace {trace}:\n{out}");
            let last = out.trim_end().lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            assert!(last.contains("\"failed\": 0, "), "{last}");
            let names = declared(section);
            assert!(!names.is_empty());
            for name in &names {
                assert!(
                    value(last, name).is_some(),
                    "{workload}: {name} missing from {last}"
                );
            }
            assert_eq!(
                last.matches("\"value\": ").count(),
                names.len(),
                "undeclared metrics in {last}"
            );
        }
    }
}

/// One client, no timers, the same seed: the counts marked exact repeat
/// bit for bit across runs.
#[test]
fn exact_counts_repeat_across_runs() {
    let exact = [
        "core.subqueries_per_op",
        "core.fragments_pruned_per_op",
        "core.reconstructed_ratio",
        "core.shipped_bytes_per_op",
        "core.plan_cache_hit_ratio",
        "storage.docs_scanned_per_subquery",
        "storage.index_used_ratio",
        "storage.items_per_doc_scanned",
        "storage.morsels_per_subquery",
        "storage.wal_fsyncs_per_write",
        "gen.dataset_bytes",
        "gen.docs",
    ];
    for workload in WORKLOADS {
        let run = || {
            let (ok, out) = benchmark(&[
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                "1",
                "--quick",
            ]);
            assert!(ok, "{workload}:\n{out}");
            out.trim_end()
                .lines()
                .last()
                .expect("a result line")
                .to_owned()
        };
        let (first, second) = (run(), run());
        for metric in exact {
            assert_eq!(
                value(&first, metric),
                value(&second, metric),
                "{workload}: {metric}"
            );
            assert!(value(&first, metric).is_some(), "{workload}: {metric}");
        }
    }
}
