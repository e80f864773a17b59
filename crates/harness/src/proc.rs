//! Multi-process run coordinator: nodes as real, killable OS processes.
//!
//! Where the in-process runtime simulates a node as a bundle of threads, this
//! module launches one `spbc-node` **process** per cluster and sits between
//! them as the fabric hub: it routes `Deliver` frames rank-to-node, collects
//! rank lifecycle events, and — the point of the exercise — notices when a
//! node process dies (an injected failure plan calling `abort()`, or this
//! module's own seeded `kill -9`) and respawns it with `epoch + 1` so the
//! SPBC recovery path runs across a genuine process boundary.
//!
//! Respawned nodes get **no failure plans**: the in-process engine remembers
//! which plans already fired across restarts, but a fresh process would not,
//! and re-firing the same plan on every incarnation is a crash loop, not a
//! chaos schedule.
//!
//! Determinism makes verification simple: the workloads are bit-reproducible,
//! so whatever moment a node dies, the run must end with outputs identical to
//! a native in-process baseline of the same seed.
//!
//! Each node incarnation writes its stderr to `node-<n>-e<epoch>.stderr` in
//! the run directory, and at its first rank error its flight-recorder dump
//! to `node-<n>-e<epoch>.flight`. A run that ends unclean keeps that
//! directory and its first error carries the directory's path, the tail of
//! every node's stderr and each node's newest dump, so a failure in one node
//! is not lost among the others.

use mini_mpi::transport::frame::{read_frame, write_frame, Frame, NodeEvent};
use spbc_apps::Workload;
use std::collections::VecDeque;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A multi-process run: world shape, workload, and failure schedule.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Application ranks (must divide evenly into `clusters`).
    pub world: usize,
    /// Clusters — each is one `spbc-node` process.
    pub clusters: usize,
    /// The workload every rank runs.
    pub workload: Workload,
    /// Iterations per run.
    pub iters: u64,
    /// Per-rank state elements.
    pub elems: usize,
    /// Workload seed (ties the run to its native baseline).
    pub seed: u64,
    /// Checkpoint every this many iterations.
    pub ckpt_interval: u64,
    /// Per-node deadlock timeout handed to `spbc-node`.
    pub node_timeout: Duration,
    /// Coordinator deadline for the whole run.
    pub deadline: Duration,
    /// `(rank, nth)` failure-point plans, injected into the hosting node's
    /// first incarnation only.
    pub plans: Vec<(u32, u64)>,
    /// External `kill -9`s: `(node, delay)` — SIGKILL the node process that
    /// long after launch, however deep in the protocol it happens to be.
    pub kills: Vec<(u32, Duration)>,
    /// The node executable; `None` locates `spbc-node` with [`node_bin`].
    pub node_bin: Option<PathBuf>,
}

impl ProcConfig {
    /// A small CI-sized run of `workload` with no failures scheduled.
    pub fn new(workload: Workload, seed: u64) -> Self {
        ProcConfig {
            world: 8,
            clusters: 4,
            workload,
            iters: 18,
            elems: 64,
            seed,
            ckpt_interval: 4,
            node_timeout: Duration::from_secs(90),
            deadline: Duration::from_secs(180),
            plans: Vec::new(),
            kills: Vec::new(),
            node_bin: None,
        }
    }

    /// Ranks hosted per node process.
    pub fn ranks_per_node(&self) -> usize {
        self.world / self.clusters
    }

    /// The node (= cluster, = process) hosting `rank`.
    pub fn node_of(&self, rank: u32) -> usize {
        rank as usize / self.ranks_per_node()
    }
}

/// Outcome of a multi-process run.
#[derive(Debug)]
pub struct ProcReport {
    /// Application output per rank.
    pub outputs: Vec<Vec<u8>>,
    /// Node respawns performed (each one is a real process death survived).
    pub respawns: usize,
    /// Errors reported by ranks (empty on a clean run).
    pub errors: Vec<(u32, String)>,
}

impl ProcReport {
    /// Error out unless the run was clean.
    pub fn ok(self) -> Result<ProcReport, String> {
        if let Some((rank, msg)) = self.errors.first() {
            return Err(format!("rank {rank}: {msg}"));
        }
        Ok(self)
    }
}

/// The coordinator's view of one node's connection. `backlog` absorbs frames
/// sent before the node's first `Hello` (mailboxes exist from t=0 in the
/// in-process model, so startup traffic must not be dropped); once a node has
/// connected, an absent stream means *dead node* and frames die on the floor
/// exactly like packets to a crashed machine.
struct NodeLink {
    stream: Option<UnixStream>,
    backlog: VecDeque<Frame>,
    connected_once: bool,
}

struct Hub {
    links: Vec<Mutex<NodeLink>>,
    ranks_per_node: usize,
}

impl Hub {
    fn deliver(&self, frame: Frame) {
        let dst = match &frame {
            Frame::Deliver { dst, .. } => dst.0,
            _ => return,
        };
        let Some(link) = self.links.get(dst as usize / self.ranks_per_node) else { return };
        let mut link = link.lock().unwrap();
        if let Some(stream) = link.stream.as_mut() {
            if write_frame(stream, &frame).is_err() {
                // The node died under us; its respawn re-registers.
                link.stream = None;
            }
        } else if !link.connected_once {
            link.backlog.push_back(frame);
        }
        // else: dead node, frame dropped — the wire to a crashed machine.
    }

    fn register(&self, node: usize, mut stream: UnixStream) {
        let Some(link) = self.links.get(node) else { return };
        let mut link = link.lock().unwrap();
        while let Some(f) = link.backlog.pop_front() {
            let _ = write_frame(&mut stream, &f);
        }
        link.connected_once = true;
        link.stream = Some(stream);
    }

    fn broadcast(&self, frame: &Frame) {
        for link in &self.links {
            let mut link = link.lock().unwrap();
            if let Some(stream) = link.stream.as_mut() {
                let _ = write_frame(stream, frame);
            }
        }
    }
}

/// Locate the `spbc-node` binary: `$SPBC_NODE_BIN`, else a sibling of the
/// current executable (tests run from `target/<profile>/deps/`, the bins one
/// directory up).
pub fn node_bin() -> Result<PathBuf, String> {
    if let Some(p) = spbc_core::env::path("SPBC_NODE_BIN") {
        return Ok(p);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let cand = d.join("spbc-node");
        if cand.is_file() {
            return Ok(cand);
        }
        dir = d.parent();
    }
    Err("spbc-node binary not found (set SPBC_NODE_BIN)".into())
}

/// How many trailing lines of each node's stderr an unclean run's error
/// carries.
const STDERR_TAIL_LINES: usize = 40;

/// Where node `node`'s incarnation `epoch` writes its stderr.
fn stderr_path(dir: &Path, node: usize, epoch: u32) -> PathBuf {
    dir.join(format!("node-{node}-e{epoch}.stderr"))
}

/// Where node `node`'s incarnation `epoch` writes its flight-recorder dump.
pub fn flight_path(dir: &Path, node: usize, epoch: u32) -> PathBuf {
    dir.join(format!("node-{node}-e{epoch}.flight"))
}

/// How many of a node's incarnations (the newest that wrote anything) an
/// unclean run's error quotes; a respawn loop must not bury the rest.
const STDERR_INCARNATIONS: usize = 3;

/// The last [`STDERR_TAIL_LINES`] lines of the newest
/// [`STDERR_INCARNATIONS`] non-empty stderr files of each node in `dir`
/// (`epochs[n]` is node `n`'s latest incarnation), then the node's newest
/// flight dump, each under a header naming the file.
fn stderr_tails(dir: &Path, epochs: &[u32]) -> String {
    let mut out = String::new();
    for (node, &last) in epochs.iter().enumerate() {
        let written: Vec<(PathBuf, String)> = (0..=last)
            .rev()
            .map(|epoch| stderr_path(dir, node, epoch))
            .filter_map(|path| {
                let text = std::fs::read_to_string(&path).ok()?;
                (!text.is_empty()).then_some((path, text))
            })
            .take(STDERR_INCARNATIONS)
            .collect();
        if written.is_empty() {
            out.push_str(&format!("\n--- node {node}: no stderr output ---"));
        }
        for (path, text) in written.iter().rev() {
            let lines: Vec<&str> = text.lines().collect();
            let tail = &lines[lines.len().saturating_sub(STDERR_TAIL_LINES)..];
            out.push_str(&format!(
                "\n--- node {node} stderr, last {} of {} lines ({}) ---",
                tail.len(),
                lines.len(),
                path.display()
            ));
            for line in tail {
                out.push('\n');
                out.push_str(line);
            }
        }
        let mut newest = (0..=last).rev().map(|epoch| flight_path(dir, node, epoch));
        if let Some((dump, path)) =
            newest.find_map(|p| Some((std::fs::read_to_string(&p).ok()?, p)))
        {
            out.push_str(&format!("\n--- node {node} flight dump ({}) ---\n", path.display()));
            out.push_str(dump.trim_end());
        }
    }
    out
}

/// The coordinator's socket and the shared checkpoint storage, in the run
/// directory.
const SOCK: &str = "coord.sock";
const STORAGE: &str = "ckpts";

/// Respawns one node gets in one run. A schedule kills a node a few times
/// at most; a node that keeps dying is failing on its own, and respawning
/// it again would only loop until the deadline.
pub const MAX_RESPAWNS: u32 = 4;

fn spawn_node(
    bin: &Path,
    cfg: &ProcConfig,
    dir: &Path,
    node: usize,
    epoch: u32,
    with_plans: bool,
) -> Result<Child, String> {
    let log = stderr_path(dir, node, epoch);
    let stderr = std::fs::File::create(&log)
        .map_err(|e| format!("create node stderr {}: {e}", log.display()))?;
    let mut cmd = Command::new(bin);
    cmd.arg("--sock")
        .arg(dir.join(SOCK))
        .args(["--node", &node.to_string()])
        .args(["--epoch", &epoch.to_string()])
        .args(["--world", &cfg.world.to_string()])
        .args(["--clusters", &cfg.clusters.to_string()])
        .args(["--workload", cfg.workload.name()])
        .args(["--iters", &cfg.iters.to_string()])
        .args(["--elems", &cfg.elems.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--ckpt-interval", &cfg.ckpt_interval.to_string()])
        .arg("--storage")
        .arg(dir.join(STORAGE))
        .args(["--timeout", &cfg.node_timeout.as_secs().max(1).to_string()])
        .stdout(Stdio::null())
        .stderr(stderr)
        .stdin(Stdio::null());
    if with_plans {
        for &(rank, nth) in &cfg.plans {
            if cfg.node_of(rank) == node {
                cmd.args(["--plan", &format!("{rank}:{nth}")]);
            }
        }
    }
    cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))
}

static RUN_ID: AtomicU64 = AtomicU64::new(0);

/// Run `cfg` as real processes and collect the outputs. Node deaths by a
/// signal — scheduled aborts and external SIGKILLs alike — are survived by
/// respawning the dead node one epoch up, up to [`MAX_RESPAWNS`] times per
/// node; anything else (a node exiting with a status, a node past its
/// respawn cap, a rank error, the deadline) lands in the report's
/// `errors`, the first of which then names the kept run directory and ends
/// with the tail of every node's stderr.
pub fn run_multiproc(cfg: &ProcConfig) -> Result<ProcReport, String> {
    if cfg.clusters == 0 || !cfg.world.is_multiple_of(cfg.clusters) {
        return Err("world must divide evenly into clusters".into());
    }
    let bin = match &cfg.node_bin {
        Some(bin) => bin.clone(),
        None => node_bin()?,
    };
    let dir = std::env::temp_dir().join(format!(
        "spbc-proc-{}-{}",
        std::process::id(),
        RUN_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let storage = dir.join(STORAGE);
    std::fs::create_dir_all(&storage).map_err(|e| format!("mkdir {}: {e}", storage.display()))?;
    let sock = dir.join(SOCK);
    let listener =
        UnixListener::bind(&sock).map_err(|e| format!("bind {}: {e}", sock.display()))?;
    listener.set_nonblocking(true).map_err(|e| format!("nonblocking listener: {e}"))?;

    let hub = Arc::new(Hub {
        links: (0..cfg.clusters)
            .map(|_| {
                Mutex::new(NodeLink {
                    stream: None,
                    backlog: VecDeque::new(),
                    connected_once: false,
                })
            })
            .collect(),
        ranks_per_node: cfg.ranks_per_node(),
    });
    let (evt_tx, evt_rx): (Sender<NodeEvent>, Receiver<NodeEvent>) = channel();
    let stop = Arc::new(AtomicBool::new(false));

    // Accept loop: every (re)connection introduces itself with Hello; the
    // per-connection reader then routes its Deliver frames and forwards its
    // lifecycle events.
    let accept = {
        let hub = Arc::clone(&hub);
        let evt_tx = evt_tx.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        let hub = Arc::clone(&hub);
                        let evt_tx = evt_tx.clone();
                        std::thread::spawn(move || {
                            let writer = match stream.try_clone() {
                                Ok(w) => w,
                                Err(_) => return,
                            };
                            let mut r = BufReader::new(stream);
                            match read_frame(&mut r) {
                                Ok(Some(Frame::Hello { node, .. })) => {
                                    hub.register(node as usize, writer);
                                }
                                _ => return,
                            }
                            loop {
                                match read_frame(&mut r) {
                                    Ok(Some(f @ Frame::Deliver { .. })) => hub.deliver(f),
                                    Ok(Some(Frame::Event(ev))) => {
                                        let _ = evt_tx.send(ev);
                                    }
                                    Ok(Some(_)) => {}
                                    Ok(None) | Err(_) => return,
                                }
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })
    };

    let mut children: Vec<Child> = Vec::with_capacity(cfg.clusters);
    let mut epochs: Vec<u32> = vec![0; cfg.clusters];
    for node in 0..cfg.clusters {
        children.push(spawn_node(&bin, cfg, &dir, node, 0, true)?);
    }

    let start = Instant::now();
    let mut kills: Vec<(u32, Duration)> = cfg.kills.clone();
    let mut report =
        ProcReport { outputs: vec![Vec::new(); cfg.world], respawns: 0, errors: Vec::new() };
    let mut done = vec![false; cfg.world];
    let per = cfg.ranks_per_node();

    let outcome = loop {
        if done.iter().all(|&d| d) {
            break Ok(());
        }
        if start.elapsed() > cfg.deadline {
            report.errors.push((u32::MAX, "coordinator deadline exceeded".into()));
            break Err(());
        }
        // Lifecycle events from the nodes.
        loop {
            match evt_rx.try_recv() {
                Ok(NodeEvent::Done { rank, output }) => {
                    report.outputs[rank.idx()] = output;
                    done[rank.idx()] = true;
                }
                Ok(NodeEvent::Error { rank, message }) => report.errors.push((rank.0, message)),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        if !report.errors.is_empty() {
            break Err(());
        }
        // Seeded external SIGKILLs whose time has come.
        kills.retain(|&(node, delay)| {
            if start.elapsed() >= delay {
                if let Some(child) = children.get_mut(node as usize) {
                    let _ = child.kill();
                }
                false
            } else {
                true
            }
        });
        // Death watch: respawn any node that died by a signal (a planned
        // abort, an external SIGKILL), one epoch up, sans plans. Its ranks'
        // Done flags reset — they will re-run from their restored
        // checkpoint and report again (bit-identically). A node that exits
        // with a status failed on its own: respawning it would only repeat
        // the failure, so the run ends with its stderr. So does a node that
        // has used up its respawns.
        for node in 0..cfg.clusters {
            if let Ok(Some(status)) = children[node].try_wait() {
                if status.code().is_some() {
                    let msg =
                        format!("node {node} (incarnation {}) exited: {status}", epochs[node]);
                    report.errors.push((u32::MAX, msg));
                    break;
                }
                if epochs[node] >= MAX_RESPAWNS {
                    let msg = format!(
                        "node {node} died ({status}) in each of its {} incarnations: \
                         respawn cap of {MAX_RESPAWNS} per node per run reached",
                        epochs[node] + 1
                    );
                    report.errors.push((u32::MAX, msg));
                    break;
                }
                if let Some(link) = hub.links.get(node) {
                    link.lock().unwrap().stream = None;
                }
                done[node * per..(node + 1) * per].fill(false);
                epochs[node] += 1;
                report.respawns += 1;
                match spawn_node(&bin, cfg, &dir, node, epochs[node], false) {
                    Ok(c) => children[node] = c,
                    Err(e) => {
                        report.errors.push((u32::MAX, format!("respawn node {node}: {e}")));
                    }
                }
            }
        }
        if !report.errors.is_empty() {
            break Err(());
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // Release lingering nodes, then make sure every child is really gone.
    // After a failure, a node may not have connected yet to hear the
    // shutdown, and nothing it still does matters: give it a moment only.
    hub.broadcast(&Frame::Shutdown);
    let grace = Instant::now() + Duration::from_secs(if outcome.is_ok() { 10 } else { 1 });
    for child in &mut children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                _ if Instant::now() > grace => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    let _ = accept.join();
    match (outcome, report.errors.first_mut()) {
        (Err(()), Some((_, msg))) => {
            msg.push_str(&format!("\n(run directory kept: {})", dir.display()));
            msg.push_str(&stderr_tails(&dir, &epochs));
        }
        _ => {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_of_blocks() {
        let cfg = ProcConfig::new(Workload::MiniGhost, 1);
        assert_eq!(cfg.ranks_per_node(), 2);
        assert_eq!(cfg.node_of(0), 0);
        assert_eq!(cfg.node_of(1), 0);
        assert_eq!(cfg.node_of(7), 3);
    }
}
