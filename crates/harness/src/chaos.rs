//! Chaos failure-schedule engine: seeded randomized failure campaigns that
//! permanently fuzz the protocol's fragile windows, and a kill at every row
//! of its transition tables.
//!
//! A *schedule* is a set of [`FailurePlan`]s generated by one of the seven
//! [`Family`]s. Six are seeded scenarios: overlapping kills in different
//! clusters ([`Family::Spread`]), a cluster killed again while it recovers
//! ([`Family::SameClusterRepeat`], via [`FailureTrigger::AfterRecovery`]),
//! survivors killed while another cluster recovers
//! ([`Family::DuringRecovery`]), node-loss kills inside one erasure-coded
//! redundancy set ([`Family::EcRebuild`]), real `spbc-node` process deaths
//! ([`Family::ProcKill`], [`crate::proc`]), and kills around
//! receiver-checkpoint log GC ([`Family::LogGc`]). The seventh,
//! [`Family::Transitions`], is not seeded: one schedule per row of the wave
//! and recovery tables ([`spbc_core::WAVE_ROWS`],
//! [`spbc_core::RECOVERY_ROWS`]), its 1st and 2nd occurrence, and workload,
//! each a [`FailureTrigger::AtTransition`] kill; it runs once per campaign
//! and fills the [`Matrix`] of which rows a kill landed in.
//!
//! Every schedule runs under SPBC and is verified **bitwise** against a
//! native (fault-free) execution of the same workload, and every plan it
//! names must fire. A failing schedule is handed to [`minimize`], which
//! greedily drops and advances triggers until no smaller schedule still
//! fails, and the campaign prints the minimal reproducer (seed + schedule)
//! alongside a flight-recorder dump.
//!
//! Determinism: the RNG is a SplitMix64 stream seeded from the campaign
//! seed, so a printed seed reproduces its schedule exactly on any machine.

use crate::obs::TRACE_RING_CAPACITY;
use mini_mpi::failure::{FailurePlan, FailureTrigger};
use mini_mpi::prelude::*;
use spbc_apps::{AppParams, Workload};
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider, RECOVERY_ROWS, WAVE_ROWS};
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
}

/// The seven scenario families a campaign runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    // The discriminants salt the seeded families' RNG streams.
    /// Overlapping failures in different clusters.
    Spread = 1,
    /// Repeated kills of the same cluster, back to back.
    SameClusterRepeat = 2,
    /// Kills landing during another cluster's recovery (including a
    /// survivor dying as it serves a ROLLBACK).
    DuringRecovery = 3,
    /// Node-loss kills inside one redundancy set (local copies wiped):
    /// restore must erasure-decode the lost blobs from set survivors +
    /// parity.
    EcRebuild = 7,
    /// Real process deaths: the run executes as one `spbc-node` OS process
    /// per cluster ([`crate::proc`]), plans abort the entire hosting
    /// process, and the schedule may additionally `kill -9` a node from
    /// outside. Recovery crosses a genuine process boundary — restore comes
    /// off shared disk into a fresh address space.
    ProcKill = 8,
    /// Kills around receiver-checkpoint log GC: the receiver right after
    /// the RESUME that sent its notices, or the sender after it pruned,
    /// then the receiver.
    LogGc = 9,
    /// A kill at every row of the transition tables: once per campaign,
    /// not per seed.
    Transitions = 10,
}

impl Family {
    /// Every family, in campaign order.
    pub const ALL: [Family; 7] = [
        Family::Spread,
        Family::SameClusterRepeat,
        Family::DuringRecovery,
        Family::EcRebuild,
        Family::ProcKill,
        Family::LogGc,
        Family::Transitions,
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
            Family::EcRebuild => "ec-rebuild",
            Family::ProcKill => "proc-kill",
            Family::LogGc => "log-gc",
            Family::Transitions => "transitions",
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
/// Deterministic: the RNG stream is derived from all three. The
/// `transitions` family is not seeded: `seed` picks one of
/// [`transitions`]' schedules.
pub fn generate(seed: u64, family: Family, workload: Workload, cfg: &ChaosConfig) -> Schedule {
    if family == Family::Transitions {
        let all = transitions(workload, cfg);
        return all[(seed % all.len() as u64) as usize].clone();
    }
    let mut rng =
        Rng::new(seed.wrapping_mul(0x0100_0000_01b3) ^ family as u64 ^ (workload as u64) << 32);
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
            // back / replaying); plus a survivor in cluster s that dies as
            // it serves the 1st or 2nd ROLLBACK it receives (each restarted
            // rank sends it one).
            let a = rng.below(cfg.clusters as u64) as usize;
            let b = (a + 1 + rng.below(cfg.clusters as u64 - 1) as usize) % cfg.clusters;
            let s = (a + 1 + rng.below(cfg.clusters as u64 - 1) as usize) % cfg.clusters;
            vec![
                FailurePlan::nth(cfg.rank_in(a, &mut rng), nth(&mut rng)),
                FailurePlan::after_recovery(cfg.rank_in(b, &mut rng), a, 1),
                FailurePlan::at_transition(cfg.rank_in(s, &mut rng), ROLLBACK, 1 + rng.below(2)),
            ]
        }
        Family::EcRebuild => {
            // Node-loss kills inside ONE redundancy set, never more than
            // the parity budget m concurrently: each victim's node-local
            // copies are wiped with it (the oracle runs this family with
            // `lose_local_on_failure`), so restore must erasure-decode the
            // lost blobs from the set's survivors plus parity. One kill may
            // land mid-parity-push (at the encoded wave's row) — the window
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
                let v = RankId(members.remove(rng.below(members.len() as u64) as usize));
                if k == 0 && rng.below(2) == 1 {
                    plans.push(FailurePlan::at_transition(v, ENCODED, 1 + rng.below(2)));
                } else {
                    plans.push(FailurePlan::nth(v, nth(&mut rng)));
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
            if rng.below(2) == 0 {
                // Receiver dies at the first failure point after wave n's
                // RESUME: notices sent, then it rolls back to wave n, its
                // `lr` exactly at the senders' floors.
                vec![FailurePlan::nth(cfg.rank_in(r, &mut rng), cfg.ckpt_interval * n + 1)]
            } else {
                // Sender dies one iteration later — wave n's notices have
                // pruned its log up to the very cut it now truncates to —
                // and the receiver dies while the sender re-executes.
                vec![
                    FailurePlan::nth(cfg.rank_in(s, &mut rng), cfg.ckpt_interval * n + 2),
                    FailurePlan::after_recovery(cfg.rank_in(r, &mut rng), s, 1),
                ]
            }
        }
        Family::Transitions => unreachable!("not seeded"),
    };
    Schedule { seed, family, workload, plans, kills }
}

const ROLLBACK: &str = "recovery/Rollback";
const ENCODED: &str = "member/Writing/Encoded";

/// The `transitions` family on `workload`: for each row of the two tables
/// and its 1st and 2nd occurrence, one schedule (its seed is its index).
/// A wave row's victim is a cluster leader, which takes every wave row. A
/// recovery row's schedule first kills a rank `x` of another cluster at the
/// last failure point before the first wave past mid-run, so that its
/// cluster rolls back a whole interval and each survivor replays it
/// several messages; the row's victims are a survivor, which serves `x`'s
/// recovery, and `x` itself, which restarts.
pub fn transitions(workload: Workload, cfg: &ChaosConfig) -> Vec<Schedule> {
    let rows = WAVE_ROWS.iter().chain(RECOVERY_ROWS);
    let per = cfg.ranks_per_cluster();
    let cases = rows.enumerate().flat_map(|(i, &row)| [(i, row, 1), (i, row, 2)]);
    cases
        .enumerate()
        .map(|(seed, (i, row, nth))| {
            let victim = RankId(((i + nth as usize) % cfg.clusters * per) as u32);
            let mut plans = vec![FailurePlan::at_transition(victim, row, nth)];
            if row.starts_with("recovery/") {
                let x = RankId(((victim.idx() + per + 1) % cfg.world) as u32);
                let before_wave = (cfg.iters / 2 / cfg.ckpt_interval + 1) * cfg.ckpt_interval;
                plans.insert(0, FailurePlan::nth(x, before_wave));
                plans.push(FailurePlan::at_transition(x, row, nth));
            }
            let (seed, family) = (seed as u64, Family::Transitions);
            Schedule { seed, family, workload, plans, kills: vec![] }
        })
        .collect()
}

/// Why no `transitions` schedule's kill can land in `row` under `cfg`, or
/// may miss it on a given run; `None` for every row one always reaches.
pub fn unreachable_row(row: &str, cfg: &ChaosConfig) -> Option<&'static str> {
    let ec = !matches!(cfg.ec_scheme.trim(), "" | "off");
    Some(match row {
        "member/Quiescing/Poll" | "leader/Counting/Report" => {
            "the workloads call their checkpoint with no intra-cluster message in flight: \
             the JOINs balance, and no POLL round follows"
        }
        "member/Replicating/ChunkReq" => {
            "the chunk store is shared by every rank, so no partner lacks a chunk (ROADMAP 3(ii))"
        }
        "member/Replicating/Tick" => {
            "a re-push needs a partner dead mid-wave for REPL_RETRY (250 ms), and no \
             schedule kills the victim's partners"
        }
        "member/Resumed/Call" if ec => {
            "under erasure coding the partners hold parity only: nothing to release"
        }
        "member/Replicating/BlobAck" if ec => {
            "under erasure coding only the last of a set to encode pushes parity and awaits \
             BLOB_ACKs; timing decides whether that is the victim"
        }
        "recovery/Grant" => "grants exist under the coordinated (HydEE) replay policy only",
        "recovery/TransferComplete" => {
            "every replayed message is below the 16 KiB eager threshold: no replay takes a \
             rendezvous"
        }
        "recovery/Send" | "recovery/Arrival" => {
            "timing decides: a restarted rank's regenerated send is held at it (Send) when the \
             LASTMSG setting LS came first, else dropped as a duplicate at its peer (Arrival)"
        }
        _ => return None,
    })
}

/// How a schedule's run ended.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Run completed, matched the native baseline bitwise, and every plan
    /// fired.
    Pass,
    /// Run completed bitwise, but these plans never fired: it tested less
    /// than its schedule names.
    Unfired(Vec<FailurePlan>),
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
        !matches!(self, Verdict::Pass)
    }

    fn fail(reason: String) -> Verdict {
        Verdict::Fail { reason, flight_dump: None }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => f.write_str("pass"),
            Verdict::Unfired(plans) => write!(f, "plan never fired: {plans:?}"),
            Verdict::Fail { reason, .. } => f.write_str(reason),
        }
    }
}

/// The ranks whose outputs differ from the native ones.
fn diverged(native: &[Vec<u8>], outputs: &[Vec<u8>]) -> Vec<usize> {
    (0..native.len()).filter(|&i| native.get(i) != outputs.get(i)).collect()
}

/// Runs schedules and memoizes the native baselines per `(workload, seed)`.
pub struct Oracle {
    cfg: ChaosConfig,
    baselines: HashMap<(Workload, u64), Vec<Vec<u8>>>,
}

impl Oracle {
    /// Oracle over `cfg`.
    pub fn new(cfg: ChaosConfig) -> Self {
        Oracle { cfg, baselines: HashMap::new() }
    }

    /// The campaign configuration.
    pub fn cfg(&self) -> &ChaosConfig {
        &self.cfg
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
    /// baseline of the same workload and seed, and that every plan fired.
    /// Proc-kill schedules run as real processes ([`crate::proc`]);
    /// everything else in-process.
    pub fn run(&mut self, schedule: &Schedule) -> Verdict {
        let native = match self.baseline(schedule.workload, schedule.seed) {
            Ok(n) => n,
            Err(e) => return Verdict::fail(format!("native baseline: {e}")),
        };
        let run = if schedule.family == Family::ProcKill {
            self.run_proc(schedule)
        } else {
            self.run_in_process(schedule)
        };
        match run {
            Err(failed) => failed,
            Ok(r) if r.outputs != native => {
                let ranks = diverged(&native, &r.outputs);
                let reason = format!("outputs diverge from native at ranks {ranks:?}");
                Verdict::Fail { reason, flight_dump: r.flight_dump }
            }
            Ok(r) if !r.unfired.is_empty() => Verdict::Unfired(r.unfired),
            Ok(_) => Verdict::Pass,
        }
    }

    /// One `spbc-node` OS process per cluster, plans aborting the entire
    /// hosting process and external SIGKILLs landing from outside. Each plan
    /// aborts its node once, so fewer node respawns than plans means one
    /// never fired (which one, the respawn count cannot tell).
    fn run_proc(&self, schedule: &Schedule) -> std::result::Result<Run, Verdict> {
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
        let r = crate::proc::run_multiproc(&pc)
            .map_err(|e| Verdict::fail(format!("proc coordinator: {e}")))?;
        if let Some((rank, msg)) = r.errors.first() {
            return Err(Verdict::fail(format!("rank {rank} error: {msg}")));
        }
        let unfired = if r.respawns < pc.plans.len() { schedule.plans.clone() } else { vec![] };
        Ok(Run { outputs: r.outputs, unfired, flight_dump: None })
    }

    /// With node-loss semantics under the ec-rebuild family: a crashed rank
    /// loses its node-local checkpoints, so restore must erasure-rebuild
    /// from the set. When the config has no EC scheme, node-loss runs force
    /// `xor` — a node-loss schedule without parity would (correctly, but
    /// uselessly) always fail.
    fn run_in_process(&self, schedule: &Schedule) -> std::result::Result<Run, Verdict> {
        let node_loss = schedule.family == Family::EcRebuild;
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
        let rt = RuntimeConfig::new(self.cfg.world)
            .with_deadlock_timeout(self.cfg.timeout)
            .with_flight_recorder(TRACE_RING_CAPACITY);
        let r = Runtime::builder(rt)
            .provider(provider)
            .app(schedule.workload.build(self.cfg.params(schedule.seed)))
            .plans(schedule.plans.iter().cloned())
            .launch()
            .map_err(|e| Verdict::fail(format!("runtime: {e}")))?;
        let flight_dump = r.flight.as_ref().map(dump_flight);
        if let Some((rank, msg)) = r.errors.first() {
            let reason = format!("rank {rank} error: {msg}");
            return Err(Verdict::Fail { reason, flight_dump: r.flight_dump.or(flight_dump) });
        }
        Ok(Run { outputs: r.outputs, unfired: r.unfired, flight_dump })
    }
}

/// What a completed run leaves to judge.
struct Run {
    outputs: Vec<Vec<u8>>,
    /// The plans that never fired.
    unfired: Vec<FailurePlan>,
    flight_dump: Option<String>,
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
    let mut t = t.clone();
    match &mut t {
        FailureTrigger::NthFailurePoint { nth }
        | FailureTrigger::AtTransition { nth, .. }
        | FailureTrigger::AfterRecovery { nth, .. }
            if *nth > 1 =>
        {
            *nth -= 1;
            Some(t)
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
        let s = &self.schedule;
        let list = |plans: &[FailurePlan]| {
            let lines = plans.iter().map(|p| format!("    {p:?}\n")).collect::<String>();
            format!("({} triggers):\n{lines}", plans.len())
        };
        format!(
            "CHAOS FAILURE seed={} family={} workload={:?}\n  reason: {}\n  original schedule \
             {}  minimal schedule {}{}",
            s.seed,
            s.family,
            s.workload,
            self.reason,
            list(&s.plans),
            list(&self.minimized),
            self.flight_dump.as_deref().unwrap_or_default()
        )
    }
}

/// What the `transitions` family saw at one row on one workload; a later
/// variant wins over an earlier one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cell {
    /// No schedule's kill landed in the row.
    NeverFired,
    /// A kill landed in the row, and every run with one restored bitwise.
    Bitwise,
    /// A run of the row's schedules failed.
    Failed,
}

/// The `transitions` family's result: per row, per workload, a [`Cell`].
#[derive(Debug, Default)]
pub struct Matrix {
    /// The workloads, in column order.
    pub workloads: Vec<Workload>,
    /// Each row with its cells, in table order.
    pub rows: Vec<(&'static str, Vec<Cell>)>,
}

impl Matrix {
    fn new(workloads: &[Workload]) -> Self {
        let cells = vec![Cell::NeverFired; workloads.len()];
        let rows = WAVE_ROWS.iter().chain(RECOVERY_ROWS).map(|&r| (r, cells.clone())).collect();
        Matrix { workloads: workloads.to_vec(), rows }
    }

    /// Fold in one run of a `transitions` schedule: its row fired unless
    /// every plan naming the row is among the unfired ones.
    fn note(&mut self, schedule: &Schedule, verdict: &Verdict) {
        let row_of = |p: &FailurePlan| match p.trigger {
            FailureTrigger::AtTransition { row, .. } => Some(row),
            _ => None,
        };
        let cell = match verdict {
            Verdict::Fail { .. } => Cell::Failed,
            Verdict::Unfired(unfired)
                if schedule.plans.iter().all(|p| row_of(p).is_none() || unfired.contains(p)) =>
            {
                Cell::NeverFired
            }
            _ => Cell::Bitwise,
        };
        let row = schedule.plans.iter().find_map(row_of);
        let col = self.workloads.iter().position(|&w| w == schedule.workload);
        if let (Some((_, cells)), Some(col)) =
            (self.rows.iter_mut().find(|r| Some(r.0) == row), col)
        {
            cells[col] = cells[col].max(cell);
        }
    }

    /// `(row, workload)` of each row that never fired on a workload with no
    /// reason known for it: a table row nothing can kill in, unexplained.
    pub fn unexplained(&self, cfg: &ChaosConfig) -> Vec<(&'static str, Workload)> {
        let cells =
            self.rows.iter().flat_map(|(r, c)| c.iter().zip(&self.workloads).map(|x| (*r, x)));
        cells
            .filter(|(row, (cell, _))| {
                **cell == Cell::NeverFired && unreachable_row(row, cfg).is_none()
            })
            .map(|(row, (_, &w))| (row, w))
            .collect()
    }

    /// The matrix as a table, each never-fired row with its reason.
    pub fn render(&self, cfg: &ChaosConfig) -> String {
        let mut out = format!("{:<30}", "row");
        for w in &self.workloads {
            out.push_str(&format!(" {:<18}", format!("{w:?}")));
        }
        for (row, cells) in &self.rows {
            out.push_str(&format!("\n{row:<30}"));
            for cell in cells {
                let cell = match cell {
                    Cell::Bitwise => "killed & bitwise",
                    Cell::Failed => "killed & FAILED",
                    Cell::NeverFired => "never fired",
                };
                out.push_str(&format!(" {cell:<18}"));
            }
            if cells.contains(&Cell::NeverFired) {
                let reason = unreachable_row(row, cfg).unwrap_or("NO REASON KNOWN");
                out.push_str(&format!(" ({reason})"));
            }
        }
        out
    }
}

/// Campaign summary.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Schedules executed.
    pub total: u64,
    /// Schedules that passed bitwise verification (and, `transitions` aside,
    /// fired every plan).
    pub passed: u64,
    /// Minimized failures.
    pub failures: Vec<FailureCase>,
    /// The `transitions` family's matrix (empty when it did not run).
    pub matrix: Matrix,
}

/// Run `seeds` base seeds × every seeded family × every configured
/// workload, plus the `transitions` family once, minimizing every failure.
/// Progress goes to stderr; the returned report holds the reproducers.
pub fn run_campaign(seeds: u64, cfg: ChaosConfig) -> CampaignReport {
    run_campaign_over(0..seeds, &Family::ALL, cfg)
}

/// [`run_campaign`] over the given base seeds and families. A
/// `transitions` schedule whose row never fired passes: the
/// [`Matrix`] shows it, and [`Matrix::unexplained`] names it unless a
/// reason is known.
pub fn run_campaign_over(
    seeds: std::ops::Range<u64>,
    families: &[Family],
    cfg: ChaosConfig,
) -> CampaignReport {
    let workloads = cfg.workloads.clone();
    let mut schedules = Vec::new();
    for &family in families {
        for &workload in &workloads {
            if family == Family::Transitions {
                schedules.extend(transitions(workload, &cfg));
            } else {
                schedules.extend(seeds.clone().map(|s| generate(s, family, workload, &cfg)));
            }
        }
    }
    let matrix =
        Matrix::new(if families.contains(&Family::Transitions) { &workloads } else { &[] });
    let mut report = CampaignReport { matrix, ..CampaignReport::default() };
    let mut oracle = Oracle::new(cfg);
    for schedule in schedules {
        let (seed, family, workload) = (schedule.seed, schedule.family, schedule.workload);
        report.total += 1;
        let mut verdict = oracle.run(&schedule);
        if family == Family::Transitions {
            report.matrix.note(&schedule, &verdict);
            // A row no kill reached passes: the matrix shows it.
            if let Verdict::Unfired(_) = verdict {
                verdict = Verdict::Pass;
            }
        }
        let (reason, minimized, flight_dump) = match verdict {
            Verdict::Pass => {
                report.passed += 1;
                let n = schedule.plans.len();
                eprintln!(
                    "chaos: PASS seed={seed} family={family} workload={workload:?} triggers={n}"
                );
                continue;
            }
            // A window that drifted: nothing to shrink.
            unfired @ Verdict::Unfired(_) => (unfired.to_string(), schedule.plans.clone(), None),
            Verdict::Fail { reason, flight_dump } => {
                eprintln!(
                    "chaos: FAIL seed={seed} family={family} workload={workload:?} — {reason}; \
                     minimizing"
                );
                // Only a run that fails, not one whose plan never fired,
                // still reproduces the failure.
                let minimized = minimize(&schedule.plans, |cand| {
                    let probe = Schedule { plans: cand.to_vec(), ..schedule.clone() };
                    matches!(oracle.run(&probe), Verdict::Fail { .. })
                });
                (reason, minimized, flight_dump)
            }
        };
        let case = FailureCase { schedule, reason, minimized, flight_dump };
        eprint!("{}", case.reproducer());
        report.failures.push(case);
    }
    report
}

/// Run one schedule `n` times (no minimizing), print every failure, and
/// return how many runs failed: a failure rate, for schedules that fail
/// only now and then.
pub fn repeat(oracle: &mut Oracle, schedule: &Schedule, n: u64) -> u64 {
    let mut failed = 0;
    for i in 0..n {
        let verdict = oracle.run(schedule);
        if verdict.failed() {
            eprintln!(
                "chaos: FAIL repeat {}/{n} seed={} family={} workload={:?} — {verdict}",
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

/// The pinned regression schedules: hand-written schedules that exercise
/// the exact windows of races fixed earlier in this repo's history, kept
/// hot so they can never silently return. Each names transition-table rows
/// or failure points, and every plan must fire.
pub mod pinned {
    use super::*;

    const FLUSHED: &str = "member/Flushing/Flushed";
    const COMMIT: &str = "member/Quiescing/Commit";

    /// A hand-written (not generated) MiniGhost schedule.
    fn pin(family: Family, plans: Vec<FailurePlan>) -> Schedule {
        let (seed, workload, kills) = (u64::MAX, Workload::MiniGhost, Vec::new());
        Schedule { seed, family, workload, plans, kills }
    }

    fn at(rank: u32, row: &'static str, nth: u64) -> FailurePlan {
        FailurePlan::at_transition(RankId(rank), row, nth)
    }

    fn nth(rank: u32, nth: u64) -> FailurePlan {
        FailurePlan::nth(RankId(rank), nth)
    }

    /// Commit-barrier race window: a member killed inside the commit
    /// barrier — its copy durable, its `CKPT_ACK` not yet sent — (plus a
    /// second cluster dying at the COMMIT of the next wave).
    pub fn commit_barrier() -> Schedule {
        pin(Family::Transitions, vec![at(2, FLUSHED, 1), at(5, COMMIT, 2)])
    }

    /// Rendezvous-rebind race window: a cluster dies, and while survivors
    /// replay their logs at it, one of the senders that owes it a replay
    /// dies at the first ROLLBACK it serves, nothing replayed yet, and a
    /// third cluster dies while the second one recovers.
    pub fn rendezvous_rebind() -> Schedule {
        let after = FailurePlan::after_recovery(RankId(6), 2, 1);
        let plans = vec![nth(0, 5), at(4, "recovery/Rollback", 1), after];
        pin(Family::DuringRecovery, plans)
    }

    /// Delta-chain restore window: a rank dies after three checkpoint waves
    /// (the restored wave is an `SPBCCKP4` manifest whose chunks earlier
    /// waves inserted, and it must materialize bitwise, repaired from
    /// partners), while a second cluster dies mid-replication of a later
    /// wave.
    pub fn delta_chain() -> Schedule {
        pin(Family::Transitions, vec![nth(1, 14), at(6, ENCODED, 3)])
    }

    /// CAS refcount window: rank 2 dies at its second wave's COMMIT — its
    /// siblings insert and register their chunks, the wave never resumes —
    /// while the other clusters commit the wave and their RESUME-time GC
    /// prunes epoch 1. Rank 5 then dies much later, forcing a restore that
    /// materializes a `SPBCCKP4` manifest against the post-GC store: any
    /// chunk freed while a checkpoint still referenced it fails loudly.
    pub fn cas_gc() -> Schedule {
        pin(Family::Transitions, vec![at(2, COMMIT, 2), nth(5, 14)])
    }

    /// Erasure-rebuild window: node-loss kills inside one redundancy set.
    /// Rank 2 dies after the second wave with its node-local checkpoints
    /// wiped, so restore must XOR-rebuild its blob from the set survivors
    /// plus parity; later rank 3 (same cluster) dies *inside* the parity
    /// push of a wave — the window where the new parity shard is staged but
    /// not yet durable at the partner.
    pub fn ec_rebuild() -> Schedule {
        pin(Family::EcRebuild, vec![nth(2, 10), at(3, ENCODED, 2)])
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
        let after = FailurePlan::after_recovery(RankId(3), 0, 1);
        pin(Family::LogGc, vec![nth(4, 9), at(2, FLUSHED, 3), nth(0, 14), after])
    }

    /// The first wave that prunes: cluster 1 (rank 2) dies at the first
    /// failure point after wave 1's RESUME (iteration 4), whose notices
    /// released its senders' logs up to cut 1. It restarts from wave 1 with
    /// every `lr` exactly at its senders' floors.
    pub fn log_gc_first_wave() -> Schedule {
        pin(Family::LogGc, vec![nth(2, 5)])
    }

    /// A kill inside wave n+1's commit barrier, n = 1: rank 5 dies after
    /// its own copy of wave 2 is durable, before its ACK, and rank 4 dies
    /// on reaching wave 2's COMMIT, whichever comes first. Rank 4 never
    /// holds wave 2 before its kill, so cluster 2 restarts from wave 1 at
    /// least once, with its senders' logs pruned to exactly cut 1 and rank
    /// 5's durable, never-acked wave 2 beside it in the store.
    pub fn log_gc_commit_barrier() -> Schedule {
        pin(Family::LogGc, vec![at(5, FLUSHED, 2), at(4, COMMIT, 2)])
    }

    /// Process-kill window: two `spbc-node` processes (clusters 0 and 2)
    /// abort at planned failure points, and a third (node 3) is `kill -9`ed
    /// from outside mid-run. Each death takes a whole address space with it;
    /// the coordinator respawns the node one epoch up and recovery restores
    /// from shared disk — bitwise against the in-process native baseline.
    pub fn proc_kill() -> Schedule {
        Schedule { kills: vec![(3, 200)], ..pin(Family::ProcKill, vec![nth(1, 6), nth(5, 9)]) }
    }

    /// The node-mode hang schedule: `proc-kill` seed 7 on AMG under
    /// [`ChaosConfig::short`] — ranks 2 and 6 abort their nodes at their
    /// 5th failure point, and node 2 is `kill -9`ed from outside at
    /// 363 ms. It hung now and then (a survivor or a restarted rank
    /// waiting on a collective-tag message until the deadlock timeout).
    pub fn proc_kill_amg() -> Schedule {
        let plans = vec![nth(2, 5), nth(6, 5)];
        Schedule {
            seed: 7,
            workload: Workload::Amg,
            kills: vec![(2, 363)],
            ..pin(Family::ProcKill, plans)
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
        let during = generate(3, Family::DuringRecovery, Workload::MiniGhost, &cfg);
        assert_ne!(format!("{:?}", spread.plans), format!("{:?}", during.plans));
        assert!(spread
            .plans
            .iter()
            .all(|p| matches!(p.trigger, FailureTrigger::NthFailurePoint { .. })));
        let at_rollback = FailureTrigger::AtTransition { row: ROLLBACK, nth: 1 };
        assert!(during.plans.iter().any(|p| {
            matches!(p.trigger, FailureTrigger::AtTransition { row: ROLLBACK, .. })
                && advance(&p.trigger).is_none_or(|t| t == at_rollback)
        }));
    }

    /// One `transitions` schedule per row, occurrence and workload, each
    /// naming its row's victims, and `generate` picks them by seed.
    #[test]
    fn transitions_cover_every_row_twice() {
        let cfg = ChaosConfig::short();
        let all = transitions(Workload::Amg, &cfg);
        assert_eq!(all.len(), 2 * (WAVE_ROWS.len() + RECOVERY_ROWS.len()));
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.seed, i as u64);
            let row = WAVE_ROWS.iter().chain(RECOVERY_ROWS).nth(i / 2).unwrap();
            let want = FailureTrigger::AtTransition { row, nth: 1 + i as u64 % 2 };
            let victims = s.plans.iter().filter(|p| p.trigger == want).count();
            assert_eq!(victims, if row.starts_with("recovery/") { 2 } else { 1 }, "{s:?}");
            let again = generate(i as u64, Family::Transitions, Workload::Amg, &cfg);
            assert_eq!(format!("{again:?}"), format!("{s:?}"));
        }
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
            FailurePlan::at_transition(RankId(1), "member/Flushing/Flushed", 3),
            FailurePlan::at_transition(RankId(5), "recovery/Sent", 4),
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
        // some commit-barrier trigger is present. Dropping must keep it;
        // advancing must stop before breaking it.
        const FLUSHED: &str = "member/Flushing/Flushed";
        let failing = |plans: &[FailurePlan]| {
            plans
                .iter()
                .any(|p| matches!(p.trigger, FailureTrigger::AtTransition { row: FLUSHED, .. }))
        };
        let schedule = vec![
            FailurePlan::nth(RankId(2), 5),
            FailurePlan::at_transition(RankId(6), FLUSHED, 2),
            FailurePlan::at_transition(RankId(3), "member/Idle/Call(open)", 1),
        ];
        let min = minimize(&schedule, |c| failing(c));
        assert_eq!(min.len(), 1);
        assert!(failing(&min), "monotone");
        assert_eq!(min[0].trigger, FailureTrigger::AtTransition { row: FLUSHED, nth: 1 });
    }

    #[test]
    fn advance_terminates() {
        for mut t in [
            FailureTrigger::NthFailurePoint { nth: 40 },
            FailureTrigger::AtTransition { row: "recovery/Sent", nth: 9 },
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
