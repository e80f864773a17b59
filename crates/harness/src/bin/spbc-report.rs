//! Digest a metrics JSONL file (`SPBC_METRICS` output) into a human
//! report: per-phase latency percentiles, the dedup/replication byte
//! breakdown, the sender-log GC counters, and — given a Chrome trace — the
//! critical path of the slowest checkpoint wave.
//!
//! ```text
//! spbc-report run.jsonl [--trace trace.json]
//!             [--compare baseline.jsonl] [--max-regress <pct>] [--floor-us <us>]
//! ```
//!
//! With `--compare`, exits nonzero when any phase's p99 regressed past
//! `--max-regress` percent (default 50) of the baseline's p99 and above
//! the `--floor-us` noise floor (default 1000 µs) — the CI smoke gate.

use spbc_harness::analyze;

struct Args {
    metrics: String,
    trace: Option<String>,
    compare: Option<String>,
    max_regress: f64,
    floor_us: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: spbc-report <metrics.jsonl> [--trace trace.json] \
         [--compare baseline.jsonl] [--max-regress <pct>] [--floor-us <us>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        metrics: String::new(),
        trace: None,
        compare: None,
        max_regress: 50.0,
        floor_us: 1000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--trace" => args.trace = Some(value("--trace")),
            "--compare" => args.compare = Some(value("--compare")),
            "--max-regress" => {
                args.max_regress = value("--max-regress").parse().unwrap_or_else(|_| usage())
            }
            "--floor-us" => args.floor_us = value("--floor-us").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ if args.metrics.is_empty() && !a.starts_with('-') => args.metrics = a,
            _ => usage(),
        }
    }
    if args.metrics.is_empty() {
        usage();
    }
    args
}

fn load(path: &str) -> analyze::RunAggregate {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("spbc-report: cannot read {path}: {e}");
        std::process::exit(2);
    });
    analyze::parse_jsonl(&body).unwrap_or_else(|e| {
        eprintln!("spbc-report: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args = parse_args();
    let agg = load(&args.metrics);

    println!("== {} ==", args.metrics);
    println!("rows: {} run summaries, {} sampler samples", agg.summary_rows, agg.sampler_rows);
    if !agg.labels.is_empty() {
        println!("runs: {}", agg.labels.join(", "));
    }
    println!("\nper-phase latency (us):");
    print!("{}", analyze::phase_table(&agg));
    println!("\nbyte breakdown:");
    print!("{}", analyze::bytes_table(&agg));
    let log = analyze::log_table(&agg);
    if !log.is_empty() {
        println!("\nsender log (receiver-checkpoint GC):");
        print!("{log}");
    }

    if let Some(trace_path) = &args.trace {
        match std::fs::read_to_string(trace_path) {
            Ok(body) => match analyze::slowest_wave(&body) {
                Some(w) => {
                    println!(
                        "\nslowest wave: epoch {} on rank {} ({} us of timed phases)",
                        w.epoch, w.tid, w.total_us
                    );
                    for (phase, us) in &w.phases {
                        println!("  {phase:<20} {us:>10} us");
                    }
                }
                None => println!("\nslowest wave: no wave phase spans in trace"),
            },
            Err(e) => {
                eprintln!("spbc-report: cannot read {trace_path}: {e}");
                std::process::exit(2);
            }
        }
    }

    if let Some(base_path) = &args.compare {
        let base = load(base_path);
        let regs = analyze::compare(&agg, &base, args.max_regress, args.floor_us);
        if regs.is_empty() {
            println!(
                "\ncompare vs {base_path}: OK (no phase p99 regressed >{}% above {} us)",
                args.max_regress, args.floor_us
            );
        } else {
            println!("\ncompare vs {base_path}: REGRESSED");
            for r in &regs {
                println!(
                    "  {:<20} p99 {} us -> {} us (+{:.0}%)",
                    r.phase.name(),
                    r.baseline_p99,
                    r.current_p99,
                    r.pct
                );
            }
            std::process::exit(1);
        }
    }
}
