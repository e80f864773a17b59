//! End-to-end multi-process runs: real `spbc-node` processes behind the
//! coordinator, verified bitwise against the in-process native baseline.
//!
//! This is the acceptance test of the transport seam — a node that is
//! `kill -9`ed (or aborts on an injected plan) must come back as a fresh
//! process, restore from shared-disk checkpoints, and finish with outputs
//! identical to a run where nothing ever died.

use mini_mpi::config::RuntimeConfig;
use mini_mpi::ft::NativeProvider;
use mini_mpi::Runtime;
use spbc_apps::{AppParams, Workload};
use spbc_harness::proc::{run_multiproc, ProcConfig, MAX_RESPAWNS};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn with_node_bin() {
    std::env::set_var("SPBC_NODE_BIN", env!("CARGO_BIN_EXE_spbc-node"));
}

/// The in-process, failure-free ground truth for `cfg`'s workload.
fn native_outputs(cfg: &ProcConfig) -> Vec<Vec<u8>> {
    let params =
        AppParams { iters: cfg.iters, elems: cfg.elems, compute: 1, seed: cfg.seed, sleep_us: 0 };
    let app = cfg.workload.build(params);
    let rt = RuntimeConfig::new(cfg.world).with_deadlock_timeout(Duration::from_secs(60));
    Runtime::builder(rt)
        .provider(Arc::new(NativeProvider))
        .app(app)
        .launch()
        .unwrap()
        .ok()
        .unwrap()
        .outputs
}

#[test]
fn clean_multiproc_run_matches_native() {
    with_node_bin();
    let cfg = ProcConfig::new(Workload::MiniGhost, 11);
    let report = run_multiproc(&cfg).unwrap().ok().unwrap();
    assert_eq!(report.respawns, 0, "no deaths scheduled");
    assert_eq!(report.outputs, native_outputs(&cfg), "clean run must match native bitwise");
}

#[test]
fn planned_abort_respawns_and_matches_native() {
    with_node_bin();
    let mut cfg = ProcConfig::new(Workload::MiniGhost, 23);
    // Rank 1's 6th failure point — past the first checkpoint at iteration 4,
    // so the respawned node restores real state. The plan aborts the whole
    // hosting process (node 0).
    cfg.plans = vec![(1, 6)];
    let report = run_multiproc(&cfg).unwrap().ok().unwrap();
    assert!(report.respawns >= 1, "the planned abort must kill a real process");
    assert_eq!(report.outputs, native_outputs(&cfg), "recovery must be bitwise-identical");
}

#[test]
fn external_sigkill_respawns_and_matches_native() {
    with_node_bin();
    let kill_after = Duration::from_millis(250);
    let mut cfg = ProcConfig::new(Workload::Amg, 37);
    // Long enough that the kill lands mid-run by construction, not by luck:
    // the clean run must outlast the kill delay four times over (at 800
    // iterations it takes ≈ 2.5 s in release, ≈ 9 s in debug, on a 2-vCPU
    // VM; 18 iterations took ≈ 0.1–0.2 s and often finished before the kill).
    // A faster stack fails this assertion — raise `iters` — instead of the
    // respawn assertion at random.
    cfg.iters = 800;
    let native = native_outputs(&cfg);
    let t0 = Instant::now();
    let clean = run_multiproc(&cfg).unwrap().ok().unwrap();
    let clean_wall = t0.elapsed();
    assert_eq!(clean.respawns, 0, "no deaths scheduled");
    assert_eq!(clean.outputs, native, "clean run must match native bitwise");
    assert!(
        clean_wall >= 4 * kill_after,
        "a clean run takes {clean_wall:?}, under 4 x the {kill_after:?} kill delay: \
         raise iters so the SIGKILL lands mid-run"
    );
    // SIGKILL node 2 shortly after launch — mid-protocol, wherever it
    // happens to be. Nothing inside the node cooperates with this death.
    cfg.kills = vec![(2, kill_after)];
    let report = run_multiproc(&cfg).unwrap().ok().unwrap();
    assert!(report.respawns >= 1, "the SIGKILL must land before the run finishes");
    assert_eq!(report.outputs, native, "recovery must be bitwise-identical");
}

/// A node that fails is loud: node 2 is replaced by a script that writes
/// one line to stderr and never connects, so the run hits its deadline. The
/// error names the kept run directory and carries node 2's stderr, and the
/// other nodes (real ones) keep their own files.
#[test]
fn failing_node_stderr_lands_in_the_error() {
    use std::os::unix::fs::PermissionsExt;
    let marker = "node 2: injected failure, refusing to start";
    let script = std::env::temp_dir().join(format!("spbc-failing-node-{}.sh", std::process::id()));
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\ncase \" $* \" in\n  *\" --node 2 \"*) echo '{marker}' >&2; exec sleep 3 ;;\n\
             esac\nexec '{}' \"$@\"\n",
            env!("CARGO_BIN_EXE_spbc-node")
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    let mut cfg = ProcConfig::new(Workload::MiniGhost, 5);
    cfg.node_bin = Some(script.clone());
    cfg.deadline = Duration::from_secs(2);
    let err = run_multiproc(&cfg).unwrap().ok().unwrap_err();
    let _ = std::fs::remove_file(&script);
    assert!(err.contains("coordinator deadline exceeded"), "{err}");
    assert!(err.contains(marker), "node 2's stderr is missing from: {err}");
    assert!(err.contains("node-2-e0.stderr"), "{err}");
    let dir = err
        .split("(run directory kept: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("no run directory in: {err}"));
    let dir = std::path::Path::new(dir);
    let kept = std::fs::read_to_string(dir.join("node-2-e0.stderr")).unwrap();
    assert_eq!(kept.trim(), marker);
    assert!(dir.join("node-0-e0.stderr").is_file());
    std::fs::remove_dir_all(dir).unwrap();
}

/// A node that exits with a status failed on its own and ends the run: node
/// 2 is replaced by a script that writes one line to stderr and exits 1.
/// The coordinator does not respawn it (a respawn would only repeat the
/// failure, in a loop until the deadline); the error names the exit status
/// and carries the line, well before the deadline.
#[test]
fn node_exiting_with_a_status_ends_the_run() {
    use std::os::unix::fs::PermissionsExt;
    let marker = "node 2: injected failure, exiting 1";
    let script = std::env::temp_dir().join(format!("spbc-exit1-node-{}.sh", std::process::id()));
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\ncase \" $* \" in\n  *\" --node 2 \"*) echo '{marker}' >&2; exit 1 ;;\n\
             esac\nexec '{}' \"$@\"\n",
            env!("CARGO_BIN_EXE_spbc-node")
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    let mut cfg = ProcConfig::new(Workload::MiniGhost, 5);
    cfg.node_bin = Some(script.clone());
    let t0 = Instant::now();
    let report = run_multiproc(&cfg).unwrap();
    let took = t0.elapsed();
    let _ = std::fs::remove_file(&script);
    assert_eq!(report.respawns, 0, "a node that exits with a status is not respawned");
    let err = report.ok().unwrap_err();
    assert!(took < Duration::from_secs(5), "took {took:?}: {err}");
    assert!(err.contains("node 2 (incarnation 0) exited: exit status: 1"), "{err}");
    assert!(err.contains(marker), "node 2's stderr is missing from: {err}");
    let dir = err
        .split("(run directory kept: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("no run directory in: {err}"));
    let dir = std::path::Path::new(dir);
    assert!(dir.join("node-2-e0.stderr").is_file());
    assert!(!dir.join("node-2-e1.stderr").exists(), "node 2 was spawned twice");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A node that keeps dying by a signal is not respawned forever: node 2 is
/// replaced by a script that SIGKILLs itself on every start. The run ends
/// with an error naming the node, its incarnation count and the cap, well
/// inside its deadline, after at most `MAX_RESPAWNS + 1` spawns of node 2.
#[test]
fn node_killed_on_every_start_hits_the_respawn_cap() {
    use std::os::unix::fs::PermissionsExt;
    let script = std::env::temp_dir().join(format!("spbc-sigkill-node-{}.sh", std::process::id()));
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\ncase \" $* \" in\n  *\" --node 2 \"*) kill -9 $$ ;;\n\
             esac\nexec '{}' \"$@\"\n",
            env!("CARGO_BIN_EXE_spbc-node")
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    let mut cfg = ProcConfig::new(Workload::MiniGhost, 5);
    cfg.node_bin = Some(script.clone());
    cfg.deadline = Duration::from_secs(60);
    let t0 = Instant::now();
    let report = run_multiproc(&cfg).unwrap();
    let took = t0.elapsed();
    let _ = std::fs::remove_file(&script);
    assert_eq!(report.respawns, MAX_RESPAWNS as usize, "node 2 is respawned up to the cap");
    let err = report.ok().unwrap_err();
    assert!(took < Duration::from_secs(20), "took {took:?}: {err}");
    let want = format!(
        "node 2 died (signal: 9 (SIGKILL)) in each of its {} incarnations: \
         respawn cap of {MAX_RESPAWNS} per node per run reached",
        MAX_RESPAWNS + 1
    );
    assert!(err.contains(&want), "{err}");
    let dir = err
        .split("(run directory kept: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("no run directory in: {err}"));
    let dir = std::path::Path::new(dir);
    let spawns = (0..=MAX_RESPAWNS + 1)
        .filter(|e| dir.join(format!("node-2-e{e}.stderr")).is_file())
        .count();
    assert_eq!(spawns, MAX_RESPAWNS as usize + 1, "node 2's spawns");
    std::fs::remove_dir_all(dir).unwrap();
}

/// A rank that stalls in node mode leaves its flight dump: node 2 is
/// replaced by a script that never connects, so the real nodes' ranks wait
/// on its ranks until their 1 s deadlock timeout. The first node to report
/// the error has written `node-<n>-e0.flight`, and the run's error quotes
/// it beside the stderr tails.
#[test]
fn a_stalled_rank_leaves_its_flight_dump_in_the_error() {
    use std::os::unix::fs::PermissionsExt;
    let script = std::env::temp_dir().join(format!("spbc-mute-node-{}.sh", std::process::id()));
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\ncase \" $* \" in\n  *\" --node 2 \"*) exec sleep 8 ;;\n\
             esac\nexec '{}' \"$@\"\n",
            env!("CARGO_BIN_EXE_spbc-node")
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    let mut cfg = ProcConfig::new(Workload::MiniGhost, 5);
    cfg.node_bin = Some(script.clone());
    cfg.node_timeout = Duration::from_secs(1);
    cfg.deadline = Duration::from_secs(30);
    let err = run_multiproc(&cfg).unwrap().ok().unwrap_err();
    let _ = std::fs::remove_file(&script);
    assert!(!err.contains("coordinator deadline exceeded"), "{err}");
    assert!(err.contains("flight dump (") && err.contains(".flight) ---"), "{err}");
    assert!(err.contains("=== flight recorder dump ==="), "{err}");
    assert!(err.contains("events recorded"), "{err}");
    let dir = err
        .split("(run directory kept: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("no run directory in: {err}"));
    let dir = std::path::Path::new(dir);
    let dumps: Vec<_> = [0u32, 1, 3]
        .into_iter()
        .filter_map(|n| {
            Some((n, std::fs::read_to_string(dir.join(format!("node-{n}-e0.flight"))).ok()?))
        })
        .collect();
    assert!(!dumps.is_empty(), "no node wrote its dump");
    // Node n hosts ranks 2n and 2n + 1: its dump has a section for each,
    // and for no other rank.
    for (n, dump) in &dumps {
        let sections: Vec<&str> =
            dump.lines().filter_map(|l| l.strip_prefix("-- rank ")?.split(':').next()).collect();
        let hosted = [(2 * n).to_string(), (2 * n + 1).to_string()];
        assert_eq!(sections, hosted, "node {n}'s dump:\n{dump}");
    }
    assert!(!dir.join("node-2-e0.flight").exists(), "node 2 never ran");
    std::fs::remove_dir_all(dir).unwrap();
}
