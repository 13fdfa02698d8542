//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! Prints a human-readable summary, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).

use std::path::PathBuf;
use std::process::ExitCode;

use skelcl_perfbench::{report, run, Kind, Options};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Kind::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let opts = Options {
        kind,
        seed,
        seconds,
        trace,
        smoke: false,
        iters: None,
    };
    let data = match run(&opts) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let e2e = report::end_to_end(&data);
    let layers = report::per_layer(&data);
    if let Some(tr) = &data.traced {
        let path = spans.unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/out/spans-{}-{seed}.jsonl", kind.name()))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tr.tracer.dump()));
        match written {
            Ok(()) => println!("span dump: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write span dump {}: {e}", path.display()),
        }
    }
    print!("{}", report::summary(kind.name(), &data, &e2e, &layers));
    println!("{}", report::result(&data));
    ExitCode::SUCCESS
}
