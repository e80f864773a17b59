//! One node of a multi-process SPBC run: hosts a contiguous block of ranks
//! (= one cluster) as threads, speaks the frame protocol to the coordinator
//! (`spbc_harness::proc`), and **is the failure-containment unit** — an
//! injected failure plan aborts the whole process, and the chaos engine may
//! equally `kill -9` it from outside. The coordinator respawns it with
//! `--epoch +1`; recovery then restores from the checkpoints that survived
//! in `--storage`.
//!
//! ```text
//! spbc-node --sock PATH --node N --epoch E --world W --clusters C \
//!           --workload NAME --iters I --elems M --seed S \
//!           --ckpt-interval K --storage DIR --timeout SECS \
//!           [--plan RANK:NTH]...
//! ```
//!
//! The flight recorder is on: at the first rank error the node writes the
//! dump to `node-<n>-e<epoch>.flight` beside its stderr, in the run
//! directory (`--sock`'s).
//!
//! Process-mode checkpoint storage is pinned to full blobs (CDC off, EC
//! off): CAS chunks and parity shards live in process memory and die with
//! the process, so a respawned node could not resolve them. Full blobs on
//! shared disk are exactly what survives a real node crash.

use mini_mpi::config::RuntimeConfig;
use mini_mpi::failure::FailurePlan;
use mini_mpi::types::RankId;
use mini_mpi::{NodeOpts, Runtime};
use spbc_apps::{AppParams, Workload};
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider, Storage};
use spbc_harness::proc::flight_path;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Flight-recorder events kept per rank: the dump at a rank error shows the
/// newest 32 of them.
const FLIGHT_EVENTS: usize = 256;

fn usage() -> ! {
    eprintln!(
        "usage: spbc-node --sock PATH --node N --epoch E --world W --clusters C \
         --workload NAME --iters I --elems M --seed S --ckpt-interval K \
         --storage DIR --timeout SECS [--plan RANK:NTH]..."
    );
    std::process::exit(2)
}

struct Args {
    sock: PathBuf,
    node: u32,
    epoch: u32,
    world: usize,
    clusters: usize,
    workload: Workload,
    iters: u64,
    elems: usize,
    seed: u64,
    ckpt_interval: u64,
    storage: PathBuf,
    timeout: Duration,
    plans: Vec<FailurePlan>,
}

fn parse() -> Args {
    let mut sock = None;
    let mut node = None;
    let mut epoch = 0u32;
    let mut world = None;
    let mut clusters = None;
    let mut workload = None;
    let mut iters = 30u64;
    let mut elems = 192usize;
    let mut seed = 0u64;
    let mut ckpt_interval = 4u64;
    let mut storage = None;
    let mut timeout = Duration::from_secs(90);
    let mut plans = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--sock" => sock = Some(PathBuf::from(val())),
            "--node" => node = val().parse().ok(),
            "--epoch" => epoch = val().parse().unwrap_or_else(|_| usage()),
            "--world" => world = val().parse().ok(),
            "--clusters" => clusters = val().parse().ok(),
            "--workload" => workload = Workload::by_name(&val()),
            "--iters" => iters = val().parse().unwrap_or_else(|_| usage()),
            "--elems" => elems = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--ckpt-interval" => ckpt_interval = val().parse().unwrap_or_else(|_| usage()),
            "--storage" => storage = Some(PathBuf::from(val())),
            "--timeout" => timeout = Duration::from_secs(val().parse().unwrap_or_else(|_| usage())),
            "--plan" => {
                let v = val();
                let (r, n) = v.split_once(':').unwrap_or_else(|| usage());
                let r: u32 = r.parse().unwrap_or_else(|_| usage());
                let n: u64 = n.parse().unwrap_or_else(|_| usage());
                plans.push(FailurePlan::nth(RankId(r), n));
            }
            _ => usage(),
        }
    }
    Args {
        sock: sock.unwrap_or_else(|| usage()),
        node: node.unwrap_or_else(|| usage()),
        epoch,
        world: world.unwrap_or_else(|| usage()),
        clusters: clusters.unwrap_or_else(|| usage()),
        workload: workload.unwrap_or_else(|| usage()),
        iters,
        elems,
        seed,
        ckpt_interval,
        storage: storage.unwrap_or_else(|| usage()),
        timeout,
        plans,
    }
}

fn main() {
    let a = parse();
    if a.clusters == 0 || !a.world.is_multiple_of(a.clusters) || a.node as usize >= a.clusters {
        eprintln!("spbc-node: need world divisible by clusters and node < clusters");
        std::process::exit(2);
    }
    let per = a.world / a.clusters;
    let opts = NodeOpts {
        socket: a.sock.clone(),
        node: a.node,
        epoch: a.epoch,
        first_rank: (a.node as usize * per) as u32,
        hosted: per,
        // Beside this incarnation's stderr, in the run directory.
        flight_dump: a.sock.parent().map(|dir| flight_path(dir, a.node as usize, a.epoch)),
    };
    // Full-blob-only storage: the only checkpoint representation a fresh
    // process can restore without the dead incarnation's in-memory state.
    let cfg = SpbcConfig {
        ckpt_interval: a.ckpt_interval,
        ckpt_cdc: false,
        ec_scheme: "off".into(),
        ..Default::default()
    };
    let provider = SpbcProvider::new(ClusterMap::blocks(a.world, a.clusters), cfg)
        .with_storage(Storage::disk_root(&a.storage))
        .unwrap_or_else(|e| {
            eprintln!("spbc-node: storage {}: {e}", a.storage.display());
            std::process::exit(1);
        });
    let params =
        AppParams { iters: a.iters, elems: a.elems, compute: 1, seed: a.seed, sleep_us: 0 };
    let app = a.workload.build(params);
    let rt_cfg = RuntimeConfig::new(a.world)
        .with_deadlock_timeout(a.timeout)
        .with_flight_recorder(FLIGHT_EVENTS);
    if let Err(e) = Runtime::run_node(rt_cfg, &opts, Arc::new(provider), app, a.plans) {
        eprintln!("spbc-node {}: {e}", a.node);
        std::process::exit(1);
    }
}
