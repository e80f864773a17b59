//! `spbc-perf`: one wall-clock benchmark of the SPBC stack — four
//! closed-loop workloads, end-to-end and per-layer metrics, bounds that can
//! fail. See `benchmark/README.md`.

mod child;
mod layers;
mod process;
mod procstat;
mod runner;
mod spans;
mod spec;
mod stats;
mod workloads;

use runner::RunOpts;
use spec::WorkloadSpec;
use std::process::ExitCode;
use std::time::Instant;

/// Errors of the benchmark's own plumbing (I/O, a run that errored).
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage:
  spbc-perf run [--seed N] [--smoke]
      all four workloads: every metric by name, out/result.json, one trace each
  spbc-perf run --workload NAME --seed N --seconds S --trace 0|1
      one workload, one JSON result line (the form BENCHMARK.json's command takes)
  spbc-perf check-repeat [--seed N] [--seconds S]
      two end-to-end sets back to back, compared against every bound
  spbc-perf describe
      print the contents of BENCHMARK.json";

struct Args {
    workload: Option<&'static WorkloadSpec>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 42, seconds: None, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    WorkloadSpec::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spbc-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts { seed: args.seed, seconds: args.seconds, smoke: args.smoke };
    let outcome = match (command.as_str(), args.workload) {
        ("run", Some(w)) => runner::run_single(w, args.trace, &opts),
        ("run", None) => runner::run_full(&opts),
        ("check-repeat", None) => runner::check_repeat(&opts),
        ("describe", None) => {
            print!("{}", runner::benchmark_json());
            Ok(true)
        }
        ("child", Some(w)) => {
            process::die_with_parent();
            if process::pin_to_one_cpu().is_none() {
                eprintln!("spbc-perf: could not pin to one CPU; measuring unpinned");
            }
            let child = child::ChildArgs {
                spec: if args.smoke { w.smoke() } else { *w },
                seed: args.seed,
                seconds: opts.seconds(),
                trace: args.trace,
                smoke: args.smoke,
                out_dir: runner::out_dir(),
                started,
            };
            let (doc, ok) = child::run(&child);
            println!("{doc}");
            Ok(ok)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spbc-perf: {e}");
            ExitCode::from(1)
        }
    }
}
