//! Chaos failure-schedule engine: seeded randomized failure campaigns that
//! permanently fuzz the protocol's fragile windows.
//!
//! A *schedule* is a set of [`FailurePlan`]s generated from a seed by one of
//! nine scenario families:
//!
//! * [`Family::Spread`] — overlapping failures landing in different
//!   clusters across the execution;
//! * [`Family::SameClusterRepeat`] — a cluster killed again the moment it
//!   finishes recovering (via [`FailureTrigger::AfterRecovery`] on its own
//!   ranks);
//! * [`Family::DuringRecovery`] — survivors killed while *another* cluster
//!   recovers: an `AfterRecovery` trigger on a different cluster plus a
//!   [`FailureTrigger::ReplayProgress`] kill of a replaying sender — the
//!   window of the rendezvous-rebind race;
//! * [`Family::CkptPhases`] — kills keyed to the checkpoint protocol's own
//!   phases ([`CkptHook::WaveOpen`], [`CkptHook::Write`],
//!   [`CkptHook::Replicate`], [`CkptHook::CommitBarrier`]) — the window of
//!   the commit-barrier race;
//! * [`Family::DeltaChain`] — kills timed so restore has to materialize a
//!   wave built on earlier ones (several waves committed before the
//!   failure, so the restored wave is an `SPBCCKP4` manifest whose chunks
//!   were inserted by earlier waves), plus kills mid-replication of a
//!   later wave's manifest;
//! * [`Family::CasGc`] — kills landing *inside* a commit (after chunks are
//!   inserted into the content-addressed store, before the wave's resume)
//!   while surviving ranks finish the wave and their storage GC prunes
//!   older epochs: a chunk refcounted by several ranks/epochs must never
//!   be dropped while any checkpoint still references it;
//! * [`Family::EcRebuild`] — node-loss kills inside one erasure-coded
//!   redundancy set (up to the parity budget `m`, one possibly
//!   mid-parity-push): each victim's node-local checkpoint copies are
//!   wiped with it, so restore must decode the lost blobs back from the
//!   set's survivors plus parity, bitwise;
//! * [`Family::ProcKill`] — real process deaths: the run executes as one
//!   `spbc-node` OS process per cluster ([`crate::proc`]), plans abort the
//!   whole hosting process and the schedule may `kill -9` another node
//!   outright — recovery restores from shared disk into a fresh address
//!   space;
//! * [`Family::LogGc`] — kills around receiver-checkpoint log GC
//!   (`KIND_LOG_GC`), after at least one wave so senders have already
//!   pruned to that wave's cut: the *receiver* cluster dies right after the
//!   RESUME that sent its notices, or inside the commit barrier of the next
//!   wave (restart from the pruned-to wave must still find its replay
//!   suffix), or the *sender* cluster dies after pruning and rolls its log
//!   back to a cut at the pruned prefix, followed by the receiver.
//!
//! Every schedule runs under SPBC and is verified **bitwise** against a
//! native (fault-free) execution of the same workload. A failing schedule is
//! handed to [`minimize`], which greedily drops and advances triggers until
//! no smaller schedule still fails, and the campaign prints the minimal
//! reproducer (seed + schedule) alongside a flight-recorder dump.
//!
//! Determinism: the RNG is a SplitMix64 stream seeded from the campaign
//! seed, so a printed seed reproduces its schedule exactly on any machine.

use crate::obs::TRACE_RING_CAPACITY;
use mini_mpi::failure::{CkptHook, FailurePlan, FailureTrigger};
use mini_mpi::prelude::*;
use spbc_apps::{AppParams, Workload};
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic SplitMix64 stream (no external RNG dependency; a printed
/// seed is a complete reproducer).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The nine scenario families a campaign cycles through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Overlapping failures in different clusters.
    Spread,
    /// Repeated kills of the same cluster, back to back.
    SameClusterRepeat,
    /// Kills landing during another cluster's recovery (including a
    /// replaying survivor dying mid-replay).
    DuringRecovery,
    /// Kills keyed to checkpoint-protocol phases.
    CkptPhases,
    /// Kills timed so restore materializes a manifest whose chunks earlier
    /// waves inserted, plus kills mid-replication of a later wave.
    DeltaChain,
    /// Kills landing mid-commit while other ranks' storage GC prunes —
    /// the refcount window of the content-addressed chunk store.
    CasGc,
    /// Node-loss kills inside one redundancy set (local copies wiped):
    /// restore must erasure-decode the lost blobs from set survivors +
    /// parity.
    EcRebuild,
    /// Real process deaths: the run executes as one `spbc-node` OS process
    /// per cluster ([`crate::proc`]), plans abort the entire hosting
    /// process, and the schedule may additionally `kill -9` a node from
    /// outside. Recovery crosses a genuine process boundary — restore comes
    /// off shared disk into a fresh address space.
    ProcKill,
    /// Kills around receiver-checkpoint log GC: the receiver right after
    /// the RESUME that sent its notices or inside a later wave's commit
    /// barrier, or the sender after it pruned, then the receiver.
    LogGc,
}

impl Family {
    /// Every family, in campaign order.
    pub const ALL: [Family; 9] = [
        Family::Spread,
        Family::SameClusterRepeat,
        Family::DuringRecovery,
        Family::CkptPhases,
        Family::DeltaChain,
        Family::CasGc,
        Family::EcRebuild,
        Family::ProcKill,
        Family::LogGc,
    ];

    /// The family `spbc-chaos --family NAME` selects.
    pub fn by_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.to_string() == name)
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Family::Spread => "spread",
            Family::SameClusterRepeat => "same-cluster-repeat",
            Family::DuringRecovery => "during-recovery",
            Family::CkptPhases => "ckpt-phases",
            Family::DeltaChain => "delta-chain",
            Family::CasGc => "cas-gc",
            Family::EcRebuild => "ec-rebuild",
            Family::ProcKill => "proc-kill",
            Family::LogGc => "log-gc",
        };
        f.write_str(s)
    }
}

/// Campaign-wide fixed parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// World size (ranks).
    pub world: usize,
    /// Number of clusters (`world` must divide evenly).
    pub clusters: usize,
    /// Iterations per run.
    pub iters: u64,
    /// Per-rank state elements.
    pub elems: usize,
    /// Checkpoint every this many iterations.
    pub ckpt_interval: u64,
    /// Seal waves as `SPBCCKP4` CDC manifests (`true`) or as one full
    /// blob each (`$SPBC_CKPT_CDC`, default on).
    pub ckpt_cdc: bool,
    /// Deadlock watchdog per run — a hang is a finding, not a CI timeout.
    pub timeout: Duration,
    /// Workloads each seed × family pair runs under.
    pub workloads: Vec<Workload>,
    /// Parity scheme the SPBC runs use (`$SPBC_EC_SCHEME`; CI legs set
    /// `xor` / `rs2` / `off`). The ec-rebuild family forces `xor` when this
    /// resolves to `off` so its schedules always exercise a rebuild.
    pub ec_scheme: String,
    /// Redundancy-set size (`$SPBC_EC_GROUP`; capped at the cluster size).
    pub ec_group: usize,
    /// RS parity shards per set (`$SPBC_EC_M`).
    pub ec_m: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            world: 8,
            clusters: 4,
            iters: 30,
            elems: 192,
            ckpt_interval: 4,
            ckpt_cdc: spbc_core::env::get_or("SPBC_CKPT_CDC", 1u8) != 0,
            timeout: Duration::from_secs(90),
            workloads: vec![Workload::MiniGhost, Workload::Amg],
            ec_scheme: spbc_core::env::get_or("SPBC_EC_SCHEME", "off".to_string()),
            ec_group: spbc_core::env::get_or("SPBC_EC_GROUP", 4),
            ec_m: spbc_core::env::get_or("SPBC_EC_M", 2),
        }
    }
}

impl ChaosConfig {
    /// The CI-sized configuration (`spbc-chaos --short`): smaller state,
    /// fewer iterations, same topology and families.
    pub fn short() -> Self {
        ChaosConfig { iters: 18, elems: 64, ..ChaosConfig::default() }
    }

    fn ranks_per_cluster(&self) -> usize {
        self.world / self.clusters
    }

    /// A rank of `cluster` chosen by `rng`.
    fn rank_in(&self, cluster: usize, rng: &mut Rng) -> RankId {
        let per = self.ranks_per_cluster();
        RankId((cluster * per + rng.below(per as u64) as usize) as u32)
    }

    fn params(&self, seed: u64) -> AppParams {
        AppParams { iters: self.iters, elems: self.elems, compute: 1, seed, sleep_us: 0 }
    }
}

/// One generated schedule: the seed and family that produced it plus the
/// concrete failure plans.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Campaign seed this schedule derives from.
    pub seed: u64,
    /// Scenario family.
    pub family: Family,
    /// Workload the schedule runs under.
    pub workload: Workload,
    /// The failure plans.
    pub plans: Vec<FailurePlan>,
    /// External `(node, delay ms)` SIGKILLs — only the proc-kill family
    /// schedules these; every other family leaves it empty.
    pub kills: Vec<(u32, u64)>,
}

/// Generate the schedule for `(seed, family, workload)` under `cfg`.
/// Deterministic: the RNG stream is derived from all three.
pub fn generate(seed: u64, family: Family, workload: Workload, cfg: &ChaosConfig) -> Schedule {
    let salt = match family {
        Family::Spread => 1,
        Family::SameClusterRepeat => 2,
        Family::DuringRecovery => 3,
        Family::CkptPhases => 4,
        Family::DeltaChain => 5,
        Family::CasGc => 6,
        Family::EcRebuild => 7,
        Family::ProcKill => 8,
        Family::LogGc => 9,
    };
    let mut rng = Rng::new(seed.wrapping_mul(0x0100_0000_01b3) ^ salt ^ (workload as u64) << 32);
    let span = cfg.iters.saturating_sub(4).max(1);
    let nth = |rng: &mut Rng| 2 + rng.below(span);
    let mut kills: Vec<(u32, u64)> = Vec::new();
    let plans = match family {
        Family::Spread => {
            // 2-4 kills in distinct clusters; iterations may overlap, so
            // recoveries can run concurrently.
            let n = 2 + rng.below(3) as usize;
            let mut clusters: Vec<usize> = (0..cfg.clusters).collect();
            (0..n.min(cfg.clusters))
                .map(|_| {
                    let c = clusters.remove(rng.below(clusters.len() as u64) as usize);
                    let victim = cfg.rank_in(c, &mut rng);
                    FailurePlan::nth(victim, nth(&mut rng))
                })
                .collect()
        }
        Family::SameClusterRepeat => {
            // Kill cluster c, then have it kill itself again right after
            // each recovery: the AfterRecovery victims are armed when the
            // cluster respawns and die at their next failure site.
            let c = rng.below(cfg.clusters as u64) as usize;
            let mut plans = vec![FailurePlan::nth(cfg.rank_in(c, &mut rng), nth(&mut rng))];
            let repeats = 1 + rng.below(2);
            for k in 1..=repeats {
                plans.push(FailurePlan::after_recovery(cfg.rank_in(c, &mut rng), c, k));
            }
            plans
        }
        Family::DuringRecovery => {
            // Kill cluster a; the instant a respawns, kill a rank of a
            // *different* cluster b (so b dies while a is still rolling
            // back / replaying); plus a survivor in cluster s that dies
            // part-way through replaying its log.
            let a = rng.below(cfg.clusters as u64) as usize;
            let b = (a + 1 + rng.below(cfg.clusters as u64 - 1) as usize) % cfg.clusters;
            let s = (a + 1 + rng.below(cfg.clusters as u64 - 1) as usize) % cfg.clusters;
            let frac = 0.1 + 0.2 * rng.below(5) as f64;
            vec![
                FailurePlan::nth(cfg.rank_in(a, &mut rng), nth(&mut rng)),
                FailurePlan::after_recovery(cfg.rank_in(b, &mut rng), a, 1),
                FailurePlan::at_replay_progress(cfg.rank_in(s, &mut rng), frac),
            ]
        }
        Family::CkptPhases => {
            // 1-2 kills keyed to checkpoint phases, plus possibly one plain
            // failure-point kill to stack a recovery on top of a wave.
            const HOOKS: [CkptHook; 4] =
                [CkptHook::WaveOpen, CkptHook::Write, CkptHook::Replicate, CkptHook::CommitBarrier];
            let n = 1 + rng.below(2) as usize;
            let mut plans: Vec<FailurePlan> = (0..n)
                .map(|_| {
                    let c = rng.below(cfg.clusters as u64) as usize;
                    let hook = *rng.pick(&HOOKS);
                    FailurePlan::at_phase(cfg.rank_in(c, &mut rng), hook, 1 + rng.below(3))
                })
                .collect();
            if rng.below(2) == 1 {
                let c = rng.below(cfg.clusters as u64) as usize;
                plans.push(FailurePlan::nth(cfg.rank_in(c, &mut rng), nth(&mut rng)));
            }
            plans
        }
        Family::DeltaChain => {
            // The restored wave must build on earlier ones: the kill lands
            // only after at least two waves committed, so the restored
            // manifest names chunks earlier waves inserted into the store
            // (under partner repair if the local copy died with the rank).
            let after_two_waves = 2 * cfg.ckpt_interval + 1;
            let late_span = cfg.iters.saturating_sub(after_two_waves + 2).max(1);
            let late = |rng: &mut Rng| after_two_waves + rng.below(late_span);
            let a = rng.below(cfg.clusters as u64) as usize;
            let mut plans = vec![FailurePlan::nth(cfg.rank_in(a, &mut rng), late(&mut rng))];
            if rng.below(2) == 1 {
                // And/or die mid-replication of wave 2+: its push carries a
                // manifest of mostly already-held chunks, and the partner
                // must still end up with a restorable copy.
                let b = (a + 1 + rng.below(cfg.clusters as u64 - 1) as usize) % cfg.clusters;
                plans.push(FailurePlan::at_phase(
                    cfg.rank_in(b, &mut rng),
                    CkptHook::Replicate,
                    2 + rng.below(2),
                ));
            }
            plans
        }
        Family::CasGc => {
            // Refcount window of the content-addressed store: a rank dies
            // *inside* a commit — its chunks are inserted and registered,
            // its wave never resumes — while the surviving ranks commit the
            // wave and their RESUME-time GC prunes earlier epochs. Chunks
            // shared across ranks (or with the victim's still-referenced
            // epochs) must survive every prune. A later plain kill then
            // forces a restore that materializes a V4 manifest against the
            // post-GC store — any wrongly-freed chunk turns it into a loud
            // "lost everywhere" failure.
            let a = rng.below(cfg.clusters as u64) as usize;
            let hook = if rng.below(2) == 0 { CkptHook::Write } else { CkptHook::Replicate };
            let mut plans =
                vec![FailurePlan::at_phase(cfg.rank_in(a, &mut rng), hook, 2 + rng.below(2))];
            let after_two_waves = 2 * cfg.ckpt_interval + 1;
            let late_span = cfg.iters.saturating_sub(after_two_waves + 2).max(1);
            let b = (a + 1 + rng.below(cfg.clusters as u64 - 1) as usize) % cfg.clusters;
            plans.push(FailurePlan::nth(
                cfg.rank_in(b, &mut rng),
                after_two_waves + rng.below(late_span),
            ));
            plans
        }
        Family::EcRebuild => {
            // Node-loss kills inside ONE redundancy set, never more than
            // the parity budget m concurrently: each victim's node-local
            // copies are wiped with it (the oracle runs this family with
            // `lose_local_on_failure`), so restore must erasure-decode the
            // lost blobs from the set's survivors plus parity. One kill may
            // land mid-parity-push (`CkptHook::Replicate`) — the window
            // where this wave's shards are not yet durable and restore
            // falls back to the previous wave's parity.
            let per = cfg.ranks_per_cluster();
            let g = cfg.ec_group.clamp(1, per);
            let budget = match cfg.ec_scheme.trim() {
                "" | "off" | "xor" => 1usize, // off is forced to xor at run time
                _ => cfg.ec_m.max(1),
            };
            let c = rng.below(cfg.clusters as u64) as usize;
            // The first set of cluster c (sets are per-cluster rank chunks).
            let mut members: Vec<u32> = (0..g as u32).map(|i| (c * per) as u32 + i).collect();
            let kills = 1 + rng.below(budget as u64) as usize;
            let mut plans = Vec::new();
            for k in 0..kills.min(members.len()) {
                let v = members.remove(rng.below(members.len() as u64) as usize);
                if k == 0 && rng.below(2) == 1 {
                    plans.push(FailurePlan::at_phase(
                        RankId(v),
                        CkptHook::Replicate,
                        1 + rng.below(2),
                    ));
                } else {
                    plans.push(FailurePlan::nth(RankId(v), nth(&mut rng)));
                }
            }
            plans
        }
        Family::ProcKill => {
            // Real process deaths: each plan aborts the whole hosting
            // spbc-node process, so at most one plan per cluster. Half the
            // schedules add an external SIGKILL of yet another node, landing
            // at an arbitrary wall-clock point — wherever it hits, recovery
            // must still end bitwise-identical.
            let n = 1 + rng.below(2) as usize;
            let mut clusters: Vec<usize> = (0..cfg.clusters).collect();
            let plans: Vec<FailurePlan> = (0..n.min(cfg.clusters))
                .map(|_| {
                    let c = clusters.remove(rng.below(clusters.len() as u64) as usize);
                    FailurePlan::nth(cfg.rank_in(c, &mut rng), nth(&mut rng))
                })
                .collect();
            if !clusters.is_empty() && rng.below(2) == 1 {
                let c = clusters[rng.below(clusters.len() as u64) as usize];
                kills.push((c as u32, 100 + rng.below(300)));
            }
            plans
        }
        Family::LogGc => {
            // Wave n >= 1, one before the last: the receivers' RESUME of
            // wave n has pruned the senders' logs to exactly the cut of
            // wave n, which every member holds durably (a member ACKs only
            // once its own copy is), and storage keeps nothing older.
            let waves = cfg.iters / cfg.ckpt_interval.max(1);
            let n = 1 + rng.below(waves.saturating_sub(1).max(1));
            let r = rng.below(cfg.clusters as u64) as usize;
            let s = (r + 1 + rng.below(cfg.clusters as u64 - 1) as usize) % cfg.clusters;
            match rng.below(3) {
                // Receiver dies at the first failure point after wave n's
                // RESUME: notices sent, then it rolls back to wave n, its
                // `lr` exactly at the senders' floors.
                0 => vec![FailurePlan::nth(cfg.rank_in(r, &mut rng), cfg.ckpt_interval * n + 1)],
                // Receiver dies inside wave n+1's commit barrier, before
                // that wave's notices go out: it restarts from n (or n+1,
                // once every member's copy is durable), and its replay
                // suffix must still be in logs pruned to exactly n.
                1 => vec![FailurePlan::at_phase(
                    cfg.rank_in(r, &mut rng),
                    CkptHook::CommitBarrier,
                    n + 1,
                )],
                // Sender dies one iteration later — wave n's notices have
                // pruned its log up to the very cut it now truncates to —
                // and the receiver dies while the sender re-executes.
                _ => vec![
                    FailurePlan::nth(cfg.rank_in(s, &mut rng), cfg.ckpt_interval * n + 2),
                    FailurePlan::after_recovery(cfg.rank_in(r, &mut rng), s, 1),
                ],
            }
        }
    };
    Schedule { seed, family, workload, plans, kills }
}

/// Why a schedule failed verification.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Run completed and matched the native baseline bitwise.
    Pass,
    /// Run errored, hung (watchdog), or diverged from the baseline.
    Fail {
        /// Human-readable cause.
        reason: String,
        /// Flight-recorder dump of the failing run, when available.
        flight_dump: Option<String>,
    },
}

impl Verdict {
    /// Is this a failure?
    pub fn failed(&self) -> bool {
        matches!(self, Verdict::Fail { .. })
    }
}

/// Runs schedules and memoizes the native baselines per `(workload, seed)`.
pub struct Oracle {
    cfg: ChaosConfig,
    baselines: HashMap<(Workload, u64), Vec<Vec<u8>>>,
    /// Total SPBC runs executed (campaign + minimization).
    pub runs: u64,
}

impl Oracle {
    /// Oracle over `cfg`.
    pub fn new(cfg: ChaosConfig) -> Self {
        Oracle { cfg, baselines: HashMap::new(), runs: 0 }
    }

    /// The campaign configuration.
    pub fn cfg(&self) -> &ChaosConfig {
        &self.cfg
    }

    fn runtime_cfg(&self) -> RuntimeConfig {
        RuntimeConfig::new(self.cfg.world)
            .with_deadlock_timeout(self.cfg.timeout)
            .with_flight_recorder(TRACE_RING_CAPACITY)
    }

    fn baseline(&mut self, workload: Workload, seed: u64) -> Result<Vec<Vec<u8>>> {
        if let Some(out) = self.baselines.get(&(workload, seed)) {
            return Ok(out.clone());
        }
        let params = self.cfg.params(seed);
        let report = Runtime::builder(RuntimeConfig::new(self.cfg.world))
            .app(workload.build(params))
            .launch()?
            .ok()?;
        self.baselines.insert((workload, seed), report.outputs.clone());
        Ok(report.outputs)
    }

    /// Run `schedule` under SPBC and verify bitwise against the native
    /// baseline of the same workload and seed. Proc-kill schedules run as
    /// real processes ([`Self::run_proc`]); everything else in-process.
    pub fn run(&mut self, schedule: &Schedule) -> Verdict {
        if schedule.family == Family::ProcKill {
            return self.run_proc(schedule);
        }
        self.run_plans_with(
            schedule.workload,
            schedule.seed,
            &schedule.plans,
            schedule.family == Family::EcRebuild,
        )
    }

    /// Run `schedule` in multi-process mode ([`crate::proc`]): one
    /// `spbc-node` OS process per cluster, plans aborting the entire hosting
    /// process and external SIGKILLs landing from outside, verified bitwise
    /// against the same in-process native baseline.
    pub fn run_proc(&mut self, schedule: &Schedule) -> Verdict {
        let native = match self.baseline(schedule.workload, schedule.seed) {
            Ok(n) => n,
            Err(e) => {
                return Verdict::Fail { reason: format!("native baseline: {e}"), flight_dump: None }
            }
        };
        self.runs += 1;
        let pc = crate::proc::ProcConfig {
            world: self.cfg.world,
            clusters: self.cfg.clusters,
            workload: schedule.workload,
            iters: self.cfg.iters,
            elems: self.cfg.elems,
            seed: schedule.seed,
            ckpt_interval: self.cfg.ckpt_interval,
            node_timeout: self.cfg.timeout,
            deadline: self.cfg.timeout.saturating_mul(2),
            plans: schedule
                .plans
                .iter()
                .filter_map(|p| match p.trigger {
                    // spbc-node only understands plain failure points; other
                    // trigger kinds never appear in proc-kill schedules.
                    FailureTrigger::NthFailurePoint { nth } => Some((p.rank.0, nth)),
                    _ => None,
                })
                .collect(),
            kills: schedule
                .kills
                .iter()
                .map(|&(node, ms)| (node, Duration::from_millis(ms)))
                .collect(),
            node_bin: None,
        };
        match crate::proc::run_multiproc(&pc) {
            Err(e) => Verdict::Fail { reason: format!("proc coordinator: {e}"), flight_dump: None },
            Ok(r) if !r.errors.is_empty() => {
                let (rank, msg) = &r.errors[0];
                Verdict::Fail { reason: format!("rank {rank} error: {msg}"), flight_dump: None }
            }
            Ok(r) if r.outputs != native => {
                let diverged: Vec<usize> = native
                    .iter()
                    .zip(&r.outputs)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, _)| i)
                    .collect();
                Verdict::Fail {
                    reason: format!(
                        "outputs diverge from native at ranks {diverged:?} \
                         ({} node respawns)",
                        r.respawns
                    ),
                    flight_dump: None,
                }
            }
            Ok(_) => Verdict::Pass,
        }
    }

    /// [`Self::run`] with an explicit plan set (the minimizer's probe).
    pub fn run_plans(&mut self, workload: Workload, seed: u64, plans: &[FailurePlan]) -> Verdict {
        self.run_plans_with(workload, seed, plans, false)
    }

    /// [`Self::run_plans`] with node-loss semantics: a crashed rank loses its
    /// node-local checkpoints, so restore must erasure-rebuild from the set.
    /// When the config has no EC scheme, node-loss runs force `xor` — a
    /// node-loss schedule without parity would (correctly, but uselessly)
    /// always fail.
    pub fn run_plans_with(
        &mut self,
        workload: Workload,
        seed: u64,
        plans: &[FailurePlan],
        node_loss: bool,
    ) -> Verdict {
        let native = match self.baseline(workload, seed) {
            Ok(n) => n,
            Err(e) => {
                return Verdict::Fail { reason: format!("native baseline: {e}"), flight_dump: None }
            }
        };
        self.runs += 1;
        let params = self.cfg.params(seed);
        let ec_scheme = if node_loss && matches!(self.cfg.ec_scheme.trim(), "" | "off") {
            "xor".to_string()
        } else {
            self.cfg.ec_scheme.clone()
        };
        let provider = Arc::new(SpbcProvider::new(
            ClusterMap::blocks(self.cfg.world, self.cfg.clusters),
            SpbcConfig {
                ckpt_interval: self.cfg.ckpt_interval,
                ckpt_cdc: self.cfg.ckpt_cdc,
                ec_scheme,
                ec_group: self.cfg.ec_group,
                ec_m: self.cfg.ec_m,
                lose_local_on_failure: node_loss,
                ..Default::default()
            },
        ));
        let report = Runtime::builder(self.runtime_cfg())
            .provider(provider)
            .app(workload.build(params))
            .plans(plans.iter().cloned())
            .launch();
        match report {
            Err(e) => Verdict::Fail { reason: format!("runtime: {e}"), flight_dump: None },
            Ok(r) if !r.errors.is_empty() => {
                let (rank, msg) = &r.errors[0];
                Verdict::Fail {
                    reason: format!("rank {rank} error: {msg}"),
                    flight_dump: r.flight_dump.or_else(|| r.flight.as_ref().map(dump_flight)),
                }
            }
            Ok(r) if r.outputs != native => {
                let diverged: Vec<usize> = native
                    .iter()
                    .zip(&r.outputs)
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, _)| i)
                    .collect();
                Verdict::Fail {
                    reason: format!("outputs diverge from native at ranks {diverged:?}"),
                    flight_dump: r.flight.as_ref().map(dump_flight),
                }
            }
            Ok(_) => Verdict::Pass,
        }
    }
}

/// Compact text dump of a flight log: the tail of each rank's event ring.
fn dump_flight(log: &mini_mpi::recorder::FlightLog) -> String {
    let mut out = String::from("=== flight recorder (tail) ===\n");
    for t in log {
        out.push_str(&format!(
            "-- rank {}: {} events ({} evicted)\n",
            t.rank,
            t.dropped + t.events.len() as u64,
            t.dropped
        ));
        let skip = t.events.len().saturating_sub(12);
        for e in &t.events[skip..] {
            out.push_str(&format!("   [{:>10}us #{:>6}] {}\n", e.t_us, e.seq, e.event));
        }
    }
    out
}

/// One advancement step of a trigger towards "simpler / earlier", or `None`
/// when it is already minimal. Every step strictly decreases a positive
/// quantity, so minimization terminates.
pub fn advance(t: &FailureTrigger) -> Option<FailureTrigger> {
    match *t {
        FailureTrigger::NthFailurePoint { nth } if nth > 1 => {
            Some(FailureTrigger::NthFailurePoint { nth: nth - 1 })
        }
        FailureTrigger::CkptPhase { phase, nth } if nth > 1 => {
            Some(FailureTrigger::CkptPhase { phase, nth: nth - 1 })
        }
        FailureTrigger::ReplayProgress { frac } if frac > 0.1 => {
            Some(FailureTrigger::ReplayProgress { frac: frac / 2.0 })
        }
        FailureTrigger::AfterRecovery { of_cluster, nth } if nth > 1 => {
            Some(FailureTrigger::AfterRecovery { of_cluster, nth: nth - 1 })
        }
        _ => None,
    }
}

/// Greedy schedule minimization: repeatedly (a) try dropping each trigger,
/// (b) try advancing each trigger one step, keeping any change under which
/// `fails` still returns true, until a fixpoint. The result is **monotone**:
/// it still fails the same oracle (every kept candidate was re-verified).
pub fn minimize<F>(plans: &[FailurePlan], mut fails: F) -> Vec<FailurePlan>
where
    F: FnMut(&[FailurePlan]) -> bool,
{
    let mut cur: Vec<FailurePlan> = plans.to_vec();
    loop {
        let mut changed = false;
        // Drop pass: remove one trigger at a time.
        let mut i = 0;
        while i < cur.len() {
            if cur.len() > 1 {
                let mut cand = cur.clone();
                cand.remove(i);
                if fails(&cand) {
                    cur = cand;
                    changed = true;
                    continue; // same index now holds the next trigger
                }
            }
            i += 1;
        }
        // Advance pass: simplify each surviving trigger as far as it goes.
        for i in 0..cur.len() {
            while let Some(simpler) = advance(&cur[i].trigger) {
                let mut cand = cur.clone();
                cand[i].trigger = simpler;
                if fails(&cand) {
                    cur = cand;
                    changed = true;
                } else {
                    break;
                }
            }
        }
        if !changed {
            return cur;
        }
    }
}

/// A schedule that failed, after minimization.
#[derive(Clone, Debug)]
pub struct FailureCase {
    /// The schedule as generated (pre-minimization).
    pub schedule: Schedule,
    /// Why it failed.
    pub reason: String,
    /// Minimal plan set that still fails.
    pub minimized: Vec<FailurePlan>,
    /// Flight-recorder dump of the original failing run.
    pub flight_dump: Option<String>,
}

impl FailureCase {
    /// The complete reproducer, ready to paste into a bug report.
    pub fn reproducer(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "CHAOS FAILURE seed={} family={} workload={:?}\n  reason: {}\n",
            self.schedule.seed, self.schedule.family, self.schedule.workload, self.reason
        ));
        out.push_str(&format!("  original schedule ({} triggers):\n", self.schedule.plans.len()));
        for p in &self.schedule.plans {
            out.push_str(&format!("    {p:?}\n"));
        }
        out.push_str(&format!("  minimal schedule ({} triggers):\n", self.minimized.len()));
        for p in &self.minimized {
            out.push_str(&format!("    {p:?}\n"));
        }
        if let Some(d) = &self.flight_dump {
            out.push_str(d);
        }
        out
    }
}

/// Campaign summary.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Schedules executed.
    pub total: u64,
    /// Schedules that passed bitwise verification.
    pub passed: u64,
    /// Minimized failures.
    pub failures: Vec<FailureCase>,
}

/// Run `seeds` base seeds × every family × every configured workload
/// (`seeds × Family::ALL.len() × workloads.len()` schedules), minimizing
/// every failure.
/// Progress goes to stderr; the returned report holds the reproducers.
pub fn run_campaign(seeds: u64, cfg: ChaosConfig) -> CampaignReport {
    run_campaign_over(0..seeds, &Family::ALL, cfg)
}

/// [`run_campaign`] over the given base seeds and families.
pub fn run_campaign_over(
    seeds: std::ops::Range<u64>,
    families: &[Family],
    cfg: ChaosConfig,
) -> CampaignReport {
    let workloads = cfg.workloads.clone();
    let mut oracle = Oracle::new(cfg);
    let mut report = CampaignReport::default();
    for seed in seeds {
        for &family in families {
            for &workload in &workloads {
                let schedule = generate(seed, family, workload, oracle.cfg());
                report.total += 1;
                match oracle.run(&schedule) {
                    Verdict::Pass => {
                        report.passed += 1;
                        eprintln!(
                            "chaos: PASS seed={seed} family={family} workload={workload:?} \
                             triggers={}",
                            schedule.plans.len()
                        );
                    }
                    Verdict::Fail { reason, flight_dump } => {
                        eprintln!(
                            "chaos: FAIL seed={seed} family={family} workload={workload:?} — \
                             {reason}; minimizing"
                        );
                        let minimized = if family == Family::ProcKill {
                            minimize(&schedule.plans, |cand| {
                                let probe = Schedule { plans: cand.to_vec(), ..schedule.clone() };
                                oracle.run_proc(&probe).failed()
                            })
                        } else {
                            let node_loss = family == Family::EcRebuild;
                            minimize(&schedule.plans, |cand| {
                                oracle.run_plans_with(workload, seed, cand, node_loss).failed()
                            })
                        };
                        let case = FailureCase { schedule, reason, minimized, flight_dump };
                        eprint!("{}", case.reproducer());
                        report.failures.push(case);
                    }
                }
            }
        }
    }
    report
}

/// Run one schedule `n` times (no minimizing), print every failure, and
/// return how many runs failed: a failure rate, for schedules that fail
/// only now and then.
pub fn repeat(oracle: &mut Oracle, schedule: &Schedule, n: u64) -> u64 {
    let mut failed = 0;
    for i in 0..n {
        if let Verdict::Fail { reason, .. } = oracle.run(schedule) {
            eprintln!(
                "chaos: FAIL repeat {}/{n} seed={} family={} workload={:?} — {reason}",
                i + 1,
                schedule.seed,
                schedule.family,
                schedule.workload
            );
            failed += 1;
        }
    }
    failed
}

/// The pinned regression schedules: seeds and families that exercise the
/// exact windows of two races fixed earlier in this repo's history, kept
/// hot so they can never silently return.
pub mod pinned {
    use super::*;

    /// Commit-barrier race window: a member killed *between* sending its
    /// `CKPT_ACK` and receiving the leader's `CKPT_RESUME` (plus a second
    /// cluster dying inside the write phase of the same wave).
    pub fn commit_barrier() -> Schedule {
        Schedule {
            seed: u64::MAX, // hand-written, not generated
            family: Family::CkptPhases,
            workload: Workload::MiniGhost,
            plans: vec![
                FailurePlan::at_phase(RankId(2), CkptHook::CommitBarrier, 1),
                FailurePlan::at_phase(RankId(5), CkptHook::Write, 2),
            ],
            kills: Vec::new(),
        }
    }

    /// Rendezvous-rebind race window: a cluster dies, and while survivors
    /// replay their logs at it, one of the replaying senders is killed
    /// mid-replay and another cluster dies outright.
    pub fn rendezvous_rebind() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::DuringRecovery,
            workload: Workload::MiniGhost,
            plans: vec![
                FailurePlan::nth(RankId(0), 5),
                FailurePlan::at_replay_progress(RankId(4), 0.3),
                FailurePlan::after_recovery(RankId(6), 0, 1),
            ],
            kills: Vec::new(),
        }
    }

    /// Delta-chain restore window: a rank dies after three checkpoint waves
    /// (the restored wave is an `SPBCCKP4` manifest whose chunks earlier
    /// waves inserted, and it must materialize bitwise, repaired from
    /// partners), while a second cluster dies mid-replication of a later
    /// wave.
    pub fn delta_chain() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::DeltaChain,
            workload: Workload::MiniGhost,
            plans: vec![
                FailurePlan::nth(RankId(1), 14),
                FailurePlan::at_phase(RankId(6), CkptHook::Replicate, 3),
            ],
            kills: Vec::new(),
        }
    }

    /// CAS refcount window: rank 2 dies inside its second wave's write —
    /// chunks inserted and registered, the wave never resumed on it — while
    /// the other ranks commit the wave and their RESUME-time GC prunes
    /// epoch 1. Rank 5 then dies much later, forcing a restore that
    /// materializes a `SPBCCKP4` manifest against the post-GC store: any
    /// chunk freed while a checkpoint still referenced it fails loudly.
    pub fn cas_gc() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::CasGc,
            workload: Workload::MiniGhost,
            plans: vec![
                FailurePlan::at_phase(RankId(2), CkptHook::Write, 2),
                FailurePlan::nth(RankId(5), 14),
            ],
            kills: Vec::new(),
        }
    }

    /// Erasure-rebuild window: node-loss kills inside one redundancy set.
    /// Rank 2 dies after the second wave with its node-local checkpoints
    /// wiped, so restore must XOR-rebuild its blob from the set survivors
    /// plus parity; later rank 3 (same cluster) dies *inside* the parity
    /// push of a wave — the window where the new parity shard is staged but
    /// not yet durable at the partner.
    pub fn ec_rebuild() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::EcRebuild,
            workload: Workload::MiniGhost,
            plans: vec![
                FailurePlan::nth(RankId(2), 10),
                FailurePlan::at_phase(RankId(3), CkptHook::Replicate, 2),
            ],
            kills: Vec::new(),
        }
    }

    /// Log-GC windows, all in one run of four waves (iterations 4, 8, 12,
    /// 16). Cluster 2 (rank 4) dies at the first failure point after wave
    /// 2's RESUME — its GC notices are out, then it rolls back to wave 2.
    /// Cluster 1 (rank 2) dies inside the commit barrier of wave 3, after
    /// wave 2's notices pruned its senders to exactly cut 2: a restart from
    /// wave 2 must still find its replay suffix. Cluster 0 — a sender to
    /// both — dies at iteration 13, its log pruned by wave 3's notices up
    /// to the very cut it truncates to, and cluster 1 dies again while
    /// cluster 0 re-executes.
    pub fn log_gc() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::LogGc,
            workload: Workload::MiniGhost,
            plans: vec![
                FailurePlan::nth(RankId(4), 9),
                FailurePlan::at_phase(RankId(2), CkptHook::CommitBarrier, 3),
                FailurePlan::nth(RankId(0), 14),
                FailurePlan::after_recovery(RankId(3), 0, 1),
            ],
            kills: Vec::new(),
        }
    }

    /// The first wave that prunes: cluster 1 (rank 2) dies at the first
    /// failure point after wave 1's RESUME (iteration 4), whose notices
    /// released its senders' logs up to cut 1. It restarts from wave 1 with
    /// every `lr` exactly at its senders' floors.
    pub fn log_gc_first_wave() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::LogGc,
            workload: Workload::MiniGhost,
            plans: vec![FailurePlan::nth(RankId(2), 5)],
            kills: Vec::new(),
        }
    }

    /// A kill inside wave n+1's commit barrier, n = 1: rank 5 dies after
    /// its own copy of wave 2 is durable, before its ACK, and rank 4 dies
    /// on reaching wave 2's write, whichever comes first. Rank 4 never
    /// holds wave 2 before its kill, so cluster 2 restarts from wave 1 at
    /// least once, with its senders' logs pruned to exactly cut 1 and rank
    /// 5's durable, never-acked wave 2 beside it in the store.
    pub fn log_gc_commit_barrier() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::LogGc,
            workload: Workload::MiniGhost,
            plans: vec![
                FailurePlan::at_phase(RankId(5), CkptHook::CommitBarrier, 2),
                FailurePlan::at_phase(RankId(4), CkptHook::Write, 2),
            ],
            kills: Vec::new(),
        }
    }

    /// Process-kill window: two `spbc-node` processes (clusters 0 and 2)
    /// abort at planned failure points, and a third (node 3) is `kill -9`ed
    /// from outside mid-run. Each death takes a whole address space with it;
    /// the coordinator respawns the node one epoch up and recovery restores
    /// from shared disk — bitwise against the in-process native baseline.
    pub fn proc_kill() -> Schedule {
        Schedule {
            seed: u64::MAX,
            family: Family::ProcKill,
            workload: Workload::MiniGhost,
            plans: vec![FailurePlan::nth(RankId(1), 6), FailurePlan::nth(RankId(5), 9)],
            kills: vec![(3, 200)],
        }
    }

    /// The node-mode hang schedule: `proc-kill` seed 7 on AMG under
    /// [`ChaosConfig::short`] — ranks 2 and 6 abort their nodes at their
    /// 5th failure point, and node 2 is `kill -9`ed from outside at
    /// 363 ms. It hung now and then (a survivor or a restarted rank
    /// waiting on a collective-tag message until the deadlock timeout).
    pub fn proc_kill_amg() -> Schedule {
        Schedule {
            seed: 7,
            family: Family::ProcKill,
            workload: Workload::Amg,
            plans: vec![FailurePlan::nth(RankId(2), 5), FailurePlan::nth(RankId(6), 5)],
            kills: vec![(2, 363)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn schedules_are_reproducible_and_in_range() {
        let cfg = ChaosConfig::short();
        for seed in 0..16 {
            for family in Family::ALL {
                let s1 = generate(seed, family, Workload::MiniGhost, &cfg);
                let s2 = generate(seed, family, Workload::MiniGhost, &cfg);
                assert_eq!(format!("{:?}", s1.plans), format!("{:?}", s2.plans));
                assert!(!s1.plans.is_empty());
                for p in &s1.plans {
                    assert!((p.rank.idx()) < cfg.world, "rank in world: {p:?}");
                }
            }
        }
    }

    #[test]
    fn families_differ() {
        let cfg = ChaosConfig::short();
        let spread = generate(3, Family::Spread, Workload::MiniGhost, &cfg);
        let phases = generate(3, Family::CkptPhases, Workload::MiniGhost, &cfg);
        assert_ne!(format!("{:?}", spread.plans), format!("{:?}", phases.plans));
        assert!(spread
            .plans
            .iter()
            .all(|p| matches!(p.trigger, FailureTrigger::NthFailurePoint { .. })));
        assert!(phases.plans.iter().any(|p| matches!(p.trigger, FailureTrigger::CkptPhase { .. })));
    }

    /// The acceptance demo: an intentionally broken oracle (fails whenever
    /// any trigger touches cluster 0, i.e. ranks 0-1) must shrink a 6-trigger
    /// schedule to <= 2 triggers, and the minimized schedule must still fail
    /// the same oracle (monotone).
    #[test]
    fn minimizer_shrinks_against_broken_oracle() {
        let broken = |plans: &[FailurePlan]| plans.iter().any(|p| p.rank.idx() < 2);
        let schedule = vec![
            FailurePlan::nth(RankId(0), 9),
            FailurePlan::nth(RankId(3), 4),
            FailurePlan::at_phase(RankId(1), CkptHook::CommitBarrier, 3),
            FailurePlan::at_replay_progress(RankId(5), 0.8),
            FailurePlan::after_recovery(RankId(6), 0, 2),
            FailurePlan::nth(RankId(7), 12),
        ];
        assert!(broken(&schedule), "schedule must fail before minimizing");
        let min = minimize(&schedule, |c| broken(c));
        assert!(min.len() <= 2, "expected <= 2 triggers, got {min:?}");
        assert!(broken(&min), "minimization must be monotone: still fails");
        // And fully advanced: the survivor is the cheapest reproducer.
        for p in &min {
            assert!(
                advance(&p.trigger).is_none() || !broken(std::slice::from_ref(p)),
                "not advanced: {p:?}"
            );
        }
    }

    #[test]
    fn minimizer_is_monotone_on_trigger_predicates() {
        // Oracle keyed on a *trigger property* rather than a rank: fails iff
        // some CommitBarrier trigger is present. Dropping must keep it;
        // advancing must stop before breaking it.
        let failing = |plans: &[FailurePlan]| {
            plans.iter().any(|p| {
                matches!(
                    p.trigger,
                    FailureTrigger::CkptPhase { phase: CkptHook::CommitBarrier, .. }
                )
            })
        };
        let schedule = vec![
            FailurePlan::nth(RankId(2), 5),
            FailurePlan::at_phase(RankId(6), CkptHook::CommitBarrier, 2),
            FailurePlan::at_phase(RankId(3), CkptHook::WaveOpen, 1),
        ];
        let min = minimize(&schedule, |c| failing(c));
        assert_eq!(min.len(), 1);
        assert!(failing(&min), "monotone");
        assert!(matches!(
            min[0].trigger,
            FailureTrigger::CkptPhase { phase: CkptHook::CommitBarrier, nth: 1 }
        ));
    }

    #[test]
    fn advance_terminates() {
        for mut t in [
            FailureTrigger::NthFailurePoint { nth: 40 },
            FailureTrigger::CkptPhase { phase: CkptHook::Write, nth: 9 },
            FailureTrigger::ReplayProgress { frac: 0.9 },
            FailureTrigger::AfterRecovery { of_cluster: 3, nth: 7 },
        ] {
            let mut steps = 0;
            while let Some(next) = advance(&t) {
                t = next;
                steps += 1;
                assert!(steps < 64, "advance must terminate: {t:?}");
            }
        }
    }
}
