//! `perfbench` — times the simulator end to end and per layer.
//!
//! ```text
//! perfbench --workload <paper_grid|fleet_16k|apps_rw|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--record-digests]
//! ```
//!
//! Prints the run context and a table of every metric with its unit,
//! and last the result line `{"correct", "attempted", "failed",
//! "metrics"}`: end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`. The full record and the spans of every pass are
//! also written under `target/perfbench/`.
//!
//! `--workload all` runs each workload in a fresh process in turn.
//! `--record-digests` rewrites the workload's lines of
//! `perfbench/digests.tsv` from this run (the maintainers' step after a
//! deliberate model change).

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use isol_perfbench::{digest, run, Config, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <paper_grid|fleet_16k|apps_rw|all> --seed <n> \
                     --seconds <s> --trace <0|1> [--record-digests]";

/// Where results, spans and per-pass scratch files go.
const OUT_DIR: &str = "target/perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .ok()
                    // Scenario files hold the seed as a signed integer.
                    .filter(|s| i64::try_from(*s).is_ok())
                    .ok_or("--seed must be an integer in 0..=2^63-1")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                };
            }
            "--record-digests" => args.record = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// Runs every workload in a fresh child process (so each has its own
/// peak RSS and engine counters) with the same arguments.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut argv: Vec<String> = std::env::args().skip(1).collect();
        if let Some(i) = argv.iter().position(|a| a == "--workload") {
            argv[i + 1] = w.name().to_owned();
        }
        println!("=== {} ===", w.name());
        match Command::new(&exe).args(&argv).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if args.record && workload.uses_seed() && args.seed != DEFAULT_SEED {
        eprintln!("--record-digests records the default seed {DEFAULT_SEED}");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: false,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
    };
    let outcome = run(&cfg);
    // Best effort: the scratch directory holds nothing the result needs.
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.record {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.tsv");
        let seed = if workload.uses_seed() {
            DEFAULT_SEED.to_string()
        } else {
            "*".to_owned()
        };
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let text = digest::rewrite(&text, workload.name(), &seed, &outcome.digests);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("recorded {} digests in {path}", outcome.digests.len());
    }
    let stem = format!("{}-trace{}", workload.name(), u8::from(args.trace));
    let files = [
        (format!("{stem}.json"), outcome.record_json()),
        (format!("{stem}.spans.json"), outcome.spans_json()),
    ];
    for (name, body) in files {
        if let Err(e) = std::fs::write(out_dir.join(&name), body) {
            eprintln!("warning: cannot write {OUT_DIR}/{name}: {e}");
        }
    }
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
