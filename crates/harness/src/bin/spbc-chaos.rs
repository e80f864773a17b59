//! Chaos campaign driver: seeded randomized failure schedules, every run
//! verified bitwise against a native baseline, failures minimized to a
//! reproducer.
//!
//! ```text
//! spbc-chaos [--seeds N | --seed S] [--short] [--family NAME] [--pinned] [--repeat N]
//! ```
//!
//! * `--seeds N` — base seeds 0..N (default 8). Each seed expands to
//!   6 seeded families × 2 workloads = 12 schedules, and the `transitions`
//!   family adds one schedule per transition-table row, 1st and 2nd
//!   occurrence, and workload (92), once: `--seeds 8` runs 96 + 92.
//! * `--seed S` — base seed S only (and the `transitions` family whole).
//! * `--short` — CI-sized workloads (fewer iterations, smaller state).
//! * `--family NAME` — restrict to one family
//!   (`spread`, `same-cluster-repeat`, `during-recovery`, `ec-rebuild`,
//!   `proc-kill`, `log-gc`, `transitions`).
//! * `--pinned` — additionally run the pinned regression schedules.
//! * `--repeat N` — run each selected schedule N times instead of once,
//!   without minimizing, and print its failure count: the rate of a
//!   schedule that fails only now and then
//!   (`--family proc-kill --seed 7 --repeat 20`; under `transitions`, seed
//!   S is that family's S-th schedule).
//!
//! When the `transitions` family ran, the row × workload matrix follows the
//! summary: *killed & bitwise*, *killed & FAILED* or *never fired*, each
//! never-fired row with its reason. Exit status 0 iff every run passed,
//! every plan of a seeded or pinned schedule fired, and every row that
//! never fired has a known reason.

use spbc_harness::chaos::{self, ChaosConfig, Family};

fn usage() -> ! {
    eprintln!(
        "usage: spbc-chaos [--seeds N | --seed S] [--short] [--family NAME] [--pinned] \
         [--repeat N]"
    );
    eprintln!("environment: see the SPBC_* table in spbc_core::env");
    for (name, default, meaning) in spbc_core::env::VARS {
        eprintln!("  {name:<18} (default {default}): {meaning}");
    }
    std::process::exit(2)
}

fn main() {
    let mut seeds = 0..8u64;
    let mut cfg = ChaosConfig::default();
    let mut families: Vec<Family> = Family::ALL.to_vec();
    let mut pinned = false;
    let mut repeat: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = || args.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(|| usage());
        match a.as_str() {
            "--seeds" => seeds = 0..num(),
            "--seed" => {
                let s = num();
                seeds = s..s + 1
            }
            "--repeat" => repeat = Some(num()),
            "--short" => cfg = ChaosConfig::short(),
            "--family" => {
                let named = args.next().and_then(|n| Family::by_name(&n));
                families = vec![named.unwrap_or_else(|| usage())]
            }
            "--pinned" => pinned = true,
            _ => usage(),
        }
    }

    let mut failures = 0usize;
    let mut total = 0u64;

    if pinned {
        let mut oracle = chaos::Oracle::new(cfg.clone());
        for schedule in [
            chaos::pinned::commit_barrier(),
            chaos::pinned::rendezvous_rebind(),
            chaos::pinned::delta_chain(),
            chaos::pinned::cas_gc(),
            chaos::pinned::ec_rebuild(),
            chaos::pinned::proc_kill(),
            chaos::pinned::proc_kill_amg(),
            chaos::pinned::log_gc(),
            chaos::pinned::log_gc_first_wave(),
            chaos::pinned::log_gc_commit_barrier(),
        ] {
            total += 1;
            match oracle.run(&schedule) {
                chaos::Verdict::Pass => {
                    eprintln!("chaos: PASS pinned family={}", schedule.family)
                }
                failed => {
                    eprintln!("chaos: FAIL pinned family={} — {failed}", schedule.family);
                    failures += 1;
                }
            }
        }
    }

    if let Some(n) = repeat {
        let workloads = cfg.workloads.clone();
        let mut oracle = chaos::Oracle::new(cfg);
        for seed in seeds {
            for &family in &families {
                for &workload in &workloads {
                    let schedule = chaos::generate(seed, family, workload, oracle.cfg());
                    let failed = chaos::repeat(&mut oracle, &schedule, n);
                    failures += failed as usize;
                    println!(
                        "chaos repeat: seed={seed} family={family} workload={workload:?}: \
                         {failed}/{n} runs failed"
                    );
                }
            }
        }
    } else {
        let report = chaos::run_campaign_over(seeds, &families, cfg.clone());
        total += report.total;
        failures += report.failures.len();
        println!(
            "chaos campaign: {}/{} schedules passed ({} pinned+campaign runs total)",
            report.passed, report.total, total
        );
        for case in &report.failures {
            println!("{}", case.reproducer());
        }
        if !report.matrix.workloads.is_empty() {
            println!("transition matrix:\n{}", report.matrix.render(&cfg));
            for (row, workload) in report.matrix.unexplained(&cfg) {
                println!("chaos: FAIL row {row} never fired on {workload:?}, for no known reason");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
