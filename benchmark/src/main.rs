//! The PartiX benchmark.
//!
//! ```text
//! partix-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's call)
//! partix-benchmark [--quick] [--seed N]                            every workload, untraced then traced
//! partix-benchmark --agree N                                       two sets of N runs; medians must agree
//! partix-benchmark --check                                         validate BENCHMARK.json only
//! ```
//!
//! Run from the root of the checkout (`benchmark/run.sh` does). One run
//! prints what it measured, then — as the last line of standard output —
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod calib;
mod env;
mod json;
mod layers;
mod manifest;
mod orchestrate;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Seed of the orchestrated modes when none is given.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    agree: Option<usize>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        value.parse().map(Some).map_err(|e| format!("{flag}: {e}"))
    }
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} wants {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(&flag, value("a number")?)?,
            "--seconds" => args.seconds = number(&flag, value("a number")?)?,
            "--agree" => args.agree = number(&flag, value("a count")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `host_cores`, revision, seed and sizes: what a number means nothing
/// without.
fn record_line(env: &env::Env, seed: u64, ops: usize, samples: usize, clients: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "record: workload={} host_cores={} git_rev={} seed={} dataset_bytes={} docs={} ops={} \
         samples_per_percentile={} clients={} wal_flush=sync_data-per-append",
        env.name,
        cores,
        git_revision(),
        seed,
        env::xml_bytes(&env.docs),
        env.docs.len(),
        ops,
        samples,
        clients,
    )
}

/// The checked-out revision, read from `.git` without spawning anything;
/// the driver's checkout is not a repository, hence `unknown` there.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

fn print_result(
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str, &str)],
) {
    let mut with_units = BTreeMap::new();
    for (name, unit, _) in units {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<40} {value:>16.6} {unit}");
        with_units.insert((*name).to_owned(), (value, (*unit).to_owned()));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        json::metrics_object(&with_units)
    );
}

/// The end-to-end run: set up several times (the last one is kept),
/// record the oracle, measure with tracing off, check what is left to
/// check. Times are reported at reference speed: each divided by how many
/// times its reference time the kernel of [`calib`] took around it.
fn run_untraced(name: &str, seed: u64, seconds: f64, quick: bool) -> Option<bool> {
    let setups = workloads::WORKLOADS.iter().find(|w| w.0 == name)?.1;
    let kernel = calib::Kernel::new(env::CLIENTS);
    let mut host_before = kernel.measure();
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let start = Instant::now();
        built = Some(workloads::build(name, seed, quick, None)?);
        let measured_s = start.elapsed().as_secs_f64();
        let host_after = kernel.measure();
        setup_times.push(measured_s / ((host_before + host_after) / 2.0));
        host_before = host_after;
    }
    let mut env = built?;
    println!(
        "setup (last of {setups}, as measured): generate {:.3}s, fragment+publish {:.3}s, \
         servers/WAL {:.3}s, warm-up {:.3}s",
        env.timings.generate_s, env.timings.publish_s, env.timings.start_s, env.timings.warmup_s
    );
    env::fill_oracle(&mut env, 1);

    let run = env::timed_run(&env, &kernel, seed, seconds);
    let samples = &run.samples;
    let (mut attempted, mut failed) = (samples.len(), samples.iter().filter(|s| !s.ok).count());
    if env.durable.is_some() {
        // writers have stopped: the whole QH set against the oracle that
        // applied every acknowledged write — live, then after reopening
        // every node from its directory alone (durability: the log holds
        // exactly the acknowledged writes, the bulk-published base never
        // went through it)
        let live = env::compare_all(&env, env::CENTRAL);
        let recover_s = env::reopen_durable(&mut env);
        let reopened = env::compare_all(&env, env::WRITTEN);
        println!(
            "final check: live {}/{} mismatched, after reopen ({recover_s:.3}s) {}/{} mismatched",
            live.1, live.0, reopened.1, reopened.0
        );
        attempted += live.0 + reopened.0;
        failed += live.1 + reopened.1;
    }

    let slices = env::slice_stats(&run);
    for (k, s) in slices.iter().enumerate() {
        println!(
            "slice {k}: as measured ops_per_s {:.3} op_p50_ms {:.4} op_p95_ms {:.4} \
             ({} samples), host x{:.3}",
            s.ops_per_s, s.p50_ms, s.p95_ms, s.samples, s.host
        );
    }
    let over = |value: fn(&env::SliceStats) -> f64| {
        stats::median(&mut slices.iter().map(value).collect::<Vec<_>>())
    };
    let mut metrics = BTreeMap::new();
    metrics.insert("ops_per_s", over(|s| s.ops_per_s * s.host));
    metrics.insert("op_p50_ms", over(|s| s.p50_ms / s.host));
    metrics.insert("op_p95_ms", over(|s| s.p95_ms / s.host));
    metrics.insert("setup_s", stats::median(&mut setup_times));
    metrics.insert("peak_rss_mb", env::peak_rss_mb());
    println!(
        "{} slice_s=2 slice_host_median=x{:.3}",
        record_line(
            &env,
            seed,
            samples.len(),
            samples.len() / slices.len(),
            env::CLIENTS
        ),
        over(|s| s.host)
    );
    println!("fail_ratio: {failed}/{attempted}");
    drop(env);
    print_result(attempted, failed, &metrics, &manifest::END_TO_END);
    Some(failed == 0)
}

/// The traced run: one client, spans from the benchmark's own files,
/// per-layer metrics out.
fn run_traced(name: &str, seed: u64, seconds: f64, quick: bool) -> Option<bool> {
    let log = spans::SpanLog::new();
    let mut env = workloads::build(name, seed, quick, Some(&log))?;
    let central_s = env::fill_oracle(&mut env, 3);
    let report = layers::traced_run(&env, &log, seed, seconds, &central_s);
    println!("{}", report.table);
    let out = workloads::out_dir();
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("trace_{name}.json")), &report.chrome_trace))
        .and_then(|()| std::fs::write(out.join(format!("trace_{name}.txt")), &report.table));
    match written {
        Ok(()) => println!(
            "trace written to {}/trace_{name}.json (chrome trace format)",
            out.display()
        ),
        Err(e) => eprintln!("could not write the trace under {}: {e}", out.display()),
    }
    println!(
        "{}",
        record_line(&env, seed, report.attempted, report.attempted, 1)
    );
    drop(env);
    print_result(
        report.attempted,
        report.failed,
        &report.metrics,
        &layers::PER_LAYER,
    );
    Some(report.failed == 0)
}

fn main() -> ExitCode {
    // the product reads these to size its morsel pool; the benchmark
    // measures the shipped defaults
    std::env::remove_var("PARTIX_MORSEL_WORKERS");
    std::env::remove_var("PARTIX_MORSEL_MIN_DOCS");
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let manifest = match manifest::load_checked() {
        Ok(manifest) => manifest,
        Err(problems) => {
            for problem in problems {
                eprintln!("BENCHMARK.json: {problem}");
            }
            return ExitCode::from(2);
        }
    };
    if args.check {
        println!(
            "BENCHMARK.json is valid: {} workloads, {} end-to-end and {} per-layer metrics, all emitted",
            manifest.workloads.len(),
            manifest.end_to_end.len(),
            manifest.per_layer.len()
        );
        return ExitCode::SUCCESS;
    }
    let ok = match (&args.workload, args.agree) {
        (Some(name), _) => {
            let seed = args.seed.unwrap_or(DEFAULT_SEED);
            let seconds = args.seconds.unwrap_or(manifest.run_seconds as f64);
            let ran = if args.trace {
                run_traced(name, seed, seconds, args.quick)
            } else {
                run_untraced(name, seed, seconds, args.quick)
            };
            ran.unwrap_or_else(|| {
                eprintln!("unknown workload {name}; known: {:?}", manifest.workloads);
                false
            })
        }
        (None, Some(runs)) => orchestrate::agree(
            &manifest,
            runs,
            args.seed.unwrap_or(DEFAULT_SEED),
            args.seconds,
        ),
        (None, None) => orchestrate::all(
            &manifest,
            args.quick,
            args.seed.unwrap_or(DEFAULT_SEED),
            args.seconds,
        ),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
