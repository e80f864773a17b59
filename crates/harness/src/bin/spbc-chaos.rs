//! Chaos campaign driver: seeded randomized failure schedules, every run
//! verified bitwise against a native baseline, failures minimized to a
//! reproducer.
//!
//! ```text
//! spbc-chaos [--seeds N] [--short] [--family NAME] [--pinned]
//! ```
//!
//! * `--seeds N` — base seeds (default 8). Each seed expands to
//!   9 families × 2 workloads = 18 schedules, so `--seeds 8` runs 144.
//! * `--short` — CI-sized workloads (fewer iterations, smaller state).
//! * `--family NAME` — restrict to one family
//!   (`spread`, `same-cluster-repeat`, `during-recovery`, `ckpt-phases`,
//!   `delta-chain`, `cas-gc`, `ec-rebuild`, `proc-kill`, `log-gc`).
//! * `--pinned` — additionally run the pinned regression schedules.
//!
//! Exit status 0 iff every schedule passed.

use spbc_harness::chaos::{self, ChaosConfig, Family};

fn usage() -> ! {
    eprintln!("usage: spbc-chaos [--seeds N] [--short] [--family NAME] [--pinned]");
    eprintln!("environment: see the SPBC_* table in spbc_core::env");
    for (name, default, meaning) in spbc_core::env::VARS {
        eprintln!("  {name:<18} (default {default}): {meaning}");
    }
    std::process::exit(2)
}

fn main() {
    let mut seeds: u64 = 8;
    let mut cfg = ChaosConfig::default();
    let mut family: Option<Family> = None;
    let mut pinned = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                seeds = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--short" => cfg = ChaosConfig::short(),
            "--family" => {
                let named = args.next().and_then(|n| Family::by_name(&n));
                family = Some(named.unwrap_or_else(|| usage()))
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
            chaos::pinned::log_gc(),
        ] {
            total += 1;
            match oracle.run(&schedule) {
                chaos::Verdict::Pass => {
                    eprintln!("chaos: PASS pinned family={}", schedule.family)
                }
                chaos::Verdict::Fail { reason, .. } => {
                    eprintln!("chaos: FAIL pinned family={} — {reason}", schedule.family);
                    failures += 1;
                }
            }
        }
    }

    let report = if let Some(f) = family {
        // Single-family sweep: reuse the campaign loop shape by hand.
        let workloads = cfg.workloads.clone();
        let mut oracle = chaos::Oracle::new(cfg);
        let mut rep = chaos::CampaignReport::default();
        for seed in 0..seeds {
            for &workload in &workloads {
                let schedule = chaos::generate(seed, f, workload, oracle.cfg());
                rep.total += 1;
                match oracle.run(&schedule) {
                    chaos::Verdict::Pass => {
                        rep.passed += 1;
                        eprintln!("chaos: PASS seed={seed} family={f} workload={workload:?}");
                    }
                    chaos::Verdict::Fail { reason, flight_dump } => {
                        let minimized = if f == Family::ProcKill {
                            chaos::minimize(&schedule.plans, |cand| {
                                let probe =
                                    chaos::Schedule { plans: cand.to_vec(), ..schedule.clone() };
                                oracle.run_proc(&probe).failed()
                            })
                        } else {
                            let node_loss = f == Family::EcRebuild;
                            chaos::minimize(&schedule.plans, |cand| {
                                oracle.run_plans_with(workload, seed, cand, node_loss).failed()
                            })
                        };
                        let case = chaos::FailureCase { schedule, reason, minimized, flight_dump };
                        eprint!("{}", case.reproducer());
                        rep.failures.push(case);
                    }
                }
            }
        }
        rep
    } else {
        chaos::run_campaign(seeds, cfg)
    };

    total += report.total;
    failures += report.failures.len();
    println!(
        "chaos campaign: {}/{} schedules passed ({} pinned+campaign runs total)",
        report.passed, report.total, total
    );
    for case in &report.failures {
        println!("{}", case.reproducer());
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
