//! `ultravc-perfbench` — one seeded command that measures ultravc end to
//! end (untraced) or layer by layer (traced), and checks every output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deep_hotspot|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: inputs, outputs and span logs go
//! under `.perfbench_work/` there. The last line of standard output is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod batch;
mod inputs;
mod openloop;
mod report;
mod runs;
mod serve;
mod spans;
mod stats;
mod sys;

use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;
use report::Report;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, dir: &std::path::Path) -> Result<Report, String> {
    match args.workload {
        Workload::DeepHotspot => runs::run_batch(args.seed, args.seconds, args.trace, dir),
        Workload::ServeMixed => serve::run_serve(args.seed, args.seconds, args.trace, dir),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(inputs::CHILD_FLAG) {
        return match inputs::child_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench_work");
    let dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("error: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &dir);
    let _ = fs::remove_dir_all(&dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(log) = &report.spans {
        let path = root.join(format!("spans-{}.tsv", args.workload.name()));
        let written = fs::File::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                log.write_tsv(&mut BufWriter::new(f))
                    .map_err(|e| e.to_string())
            });
        match written {
            Ok(()) => println!("spans: {} written to {}", log.spans().len(), path.display()),
            Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
        }
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (key, value) in &report.facts {
        println!("fact {key}: {value}");
    }
    for m in &report.metrics {
        println!("metric {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    println!(
        "failed_frac {:.6} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 9 --seconds 12 --trace 1",
        ))
        .expect("test input is valid");
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload deep_hotspot --seed x --seconds 1 --trace 0",
            "--workload deep_hotspot --seed 1 --seconds 1 --trace 2",
            "--workload deep_hotspot --seed 1 --seconds 1",
            "--workload deep_hotspot --seed 1 --seconds 1 --trace",
            "--workload deep_hotspot --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
