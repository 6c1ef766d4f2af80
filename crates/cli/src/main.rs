//! The `partix` binary — see [`partix_cli::USAGE`].

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("load") if args.len() >= 4 => {
            partix_cli::load(Path::new(&args[1]), &args[2], &args[3..])
        }
        Some("query") if args.len() == 3 => partix_cli::query(Path::new(&args[1]), &args[2]),
        Some("put") if args.len() == 4 => {
            partix_cli::put(Path::new(&args[1]), &args[2], &args[3])
        }
        Some("delete") if args.len() == 4 => {
            partix_cli::delete(Path::new(&args[1]), &args[2], &args[3])
        }
        Some("collections") if args.len() == 2 => {
            partix_cli::collections(Path::new(&args[1]))
        }
        Some("drop") if args.len() == 3 => partix_cli::drop(Path::new(&args[1]), &args[2]),
        Some("fragment") if args.len() == 5 => {
            let n: usize = match args[4].parse() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("fragment: <n> must be a number");
                    return ExitCode::FAILURE;
                }
            };
            partix_cli::fragment(Path::new(&args[1]), &args[2], &args[3], n)
        }
        Some("stats") if args.len() == 3 || args.len() == 5 => {
            let trace_out = match args.get(3).map(String::as_str) {
                None => None,
                Some("--trace") => Some(Path::new(&args[4])),
                Some(other) => {
                    eprintln!("stats: unknown flag {other} (expected --trace FILE)");
                    return ExitCode::FAILURE;
                }
            };
            partix_cli::stats(Path::new(&args[1]), &args[2], trace_out)
        }
        Some("chaos") if args.len() <= 2 => {
            match parse_seed("chaos", args.get(1), 0xC4A0_5EED) {
                Some(seed) => partix_cli::chaos(seed),
                None => return ExitCode::FAILURE,
            }
        }
        Some("advise") if args.len() <= 2 => {
            match parse_seed("advise", args.get(1), 0xAD_115E) {
                Some(seed) => partix_cli::advise(seed),
                None => return ExitCode::FAILURE,
            }
        }
        Some("rebalance") if args.len() <= 2 => {
            match parse_seed("rebalance", args.get(1), 0xAD_115E) {
                Some(seed) => partix_cli::rebalance(seed),
                None => return ExitCode::FAILURE,
            }
        }
        Some("serve") => return serve(&args[1..]),
        Some("exec") if args.len() == 3 => partix_cli::exec(&args[1], &args[2]),
        Some("stream") if args.len() == 3 || args.len() == 5 => {
            match tenant_flag(&args[3..]) {
                Ok(tenant) => {
                    partix_cli::stream_query(&args[1], &args[2], tenant.as_deref())
                }
                Err(()) => return ExitCode::FAILURE,
            }
        }
        Some("ping") if args.len() == 2 => partix_cli::ping(&args[1]),
        None | Some("help" | "--help") if args.len() <= 1 => {
            println!("{}", partix_cli::USAGE);
            return ExitCode::SUCCESS;
        }
        // an unknown command, or a known one with the wrong arguments
        _ => {
            eprintln!("{}", partix_cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `stream`'s optional trailing `--tenant NAME` flag pair.
fn tenant_flag(rest: &[String]) -> Result<Option<String>, ()> {
    match rest {
        [] => Ok(None),
        [flag, name] if flag == "--tenant" => Ok(Some(name.clone())),
        _ => {
            eprintln!("stream: unknown trailing flags (expected --tenant NAME)");
            Err(())
        }
    }
}

/// Parse an optional decimal or 0x-hex seed argument, falling back to
/// `default` when absent. Prints an error and returns `None` on bad
/// input.
fn parse_seed(command: &str, raw: Option<&String>, default: u64) -> Option<u64> {
    let raw = match raw {
        None => return Some(default),
        Some(raw) => raw,
    };
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => {
            eprintln!("{command}: <seed> must be a decimal or 0x-hex number");
            None
        }
    }
}

/// `partix serve --node <N> --addr <HOST:PORT> [--data <db-dir>]` or
/// `partix serve --coordinator --addr <HOST:PORT> [--data <db-dir>]
/// [--tenant SPEC]...`: bind a node server or a coordinator, announce the
/// chosen address (flushed, so supervising scripts can scrape it even
/// through a pipe), then serve until killed.
fn serve(args: &[String]) -> ExitCode {
    let mut node: Option<usize> = None;
    let mut addr: Option<&str> = None;
    let mut data: Option<&Path> = None;
    let mut tenants: Vec<String> = Vec::new();
    let mut coordinator = false;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--coordinator" {
            coordinator = true;
            i += 1;
            continue;
        }
        let value = match args.get(i + 1) {
            Some(value) => value,
            None => {
                eprintln!("serve: {} needs a value", args[i]);
                return ExitCode::FAILURE;
            }
        };
        match args[i].as_str() {
            "--node" => match value.parse() {
                Ok(n) => node = Some(n),
                Err(_) => {
                    eprintln!("serve: --node must be a number");
                    return ExitCode::FAILURE;
                }
            },
            "--addr" => addr = Some(value),
            "--data" => data = Some(Path::new(value)),
            "--tenant" => tenants.push(value.clone()),
            other => {
                eprintln!(
                    "serve: unknown flag {other} (expected \
                     --coordinator/--node/--addr/--data/--tenant)"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 2;
    }
    if coordinator {
        let Some(addr) = addr else {
            eprintln!("serve: --addr <HOST:PORT> is required");
            return ExitCode::FAILURE;
        };
        return match partix_cli::serve_coordinator(addr, data, &tenants) {
            Ok((_server, local)) => {
                use std::io::Write as _;
                println!("coordinator listening on {local}");
                let _ = std::io::stdout().flush();
                // park until killed; `_server` keeps the listener alive
                loop {
                    std::thread::park();
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !tenants.is_empty() {
        eprintln!("serve: --tenant needs --coordinator: tenancy is enforced where a query enters");
        return ExitCode::FAILURE;
    }
    let (Some(node), Some(addr)) = (node, addr) else {
        eprintln!("serve: --node <N> and --addr <HOST:PORT> are required");
        return ExitCode::FAILURE;
    };
    match partix_cli::serve(node, addr, data) {
        Ok((_server, local)) => {
            use std::io::Write as _;
            println!("node {node} listening on {local}");
            let _ = std::io::stdout().flush();
            // Park until killed; the server threads carry the work.
            // `_server` stays in scope so its listener lives as long as
            // the process does.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
