//! The runtime: spawns ranks as OS threads, routes packets, injects failures,
//! and orchestrates cluster rollback/restart.
//!
//! Execution model:
//! * every application rank runs its closure on its own thread;
//! * a rank that finishes **lingers**, pumping control traffic, so it can keep
//!   serving log replays to clusters that are still recovering;
//! * when a rank hits a failure plan, the runtime kills *its whole cluster*
//!   (the containment unit of hierarchical protocols), drops the victims'
//!   mailboxes (in-flight messages die with the node), and respawns them with
//!   an incremented epoch — the fault-tolerance layer's `on_start` then
//!   restores the checkpoint and runs the rollback handshake.

use crate::config::{RuntimeConfig, Topology, TransportKind};
use crate::error::{MpiError, Result};
use crate::failure::{FailurePlan, FailureShared, RuntimeEvent};
use crate::ft::{FtCtx, FtProvider, NativeProvider};
use crate::inner::{handle_packet, RankInner};
use crate::rank::Rank;
use crate::recorder::{Event, FlightLog, FlightRecorder};
use crate::router::Router;
use crate::stats::RankStats;
use crate::transport::uds::UdsTransport;
use crate::transport::{InProcTransport, Mailbox, RecvTimeoutErr, Transport};
use crate::types::RankId;
use crossbeam_channel::{unbounded, RecvTimeoutError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Application entry point: one closure, run by every rank (SPMD).
pub type AppFn = dyn Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync;

/// Result of a run.
#[derive(Debug)]
pub struct RunReport {
    /// Application output per world rank (last successful execution).
    pub outputs: Vec<Vec<u8>>,
    /// Statistics per world rank (snapshot at application completion).
    pub stats: Vec<RankStats>,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Number of injected failures that were handled.
    pub failures_handled: usize,
    /// Restart count per world rank.
    pub restarts: Vec<u32>,
    /// Errors reported by ranks (empty on a clean run).
    pub errors: Vec<(RankId, String)>,
    /// Flight-recorder event log, one trace per rank (present when
    /// `RuntimeConfig::flight_recorder` was set). Feed to the `spbc-trace`
    /// Chrome exporter for a Perfetto-loadable timeline.
    pub flight: Option<FlightLog>,
    /// The hang watchdog's human-readable dump, captured when the run ended
    /// in error with the recorder enabled.
    pub flight_dump: Option<String>,
    /// The failure plans that never fired (armed victims that never died
    /// count): a run that ends with any tested less than its schedule names.
    pub unfired: Vec<FailurePlan>,
}

impl RunReport {
    /// Error out unless the run was clean.
    pub fn ok(self) -> Result<RunReport> {
        if let Some((rank, msg)) = self.errors.first() {
            return Err(MpiError::App(format!("rank {rank}: {msg}")));
        }
        Ok(self)
    }
}

/// The execution driver.
pub struct Runtime {
    cfg: Arc<RuntimeConfig>,
}

struct Spawner {
    cfg: Arc<RuntimeConfig>,
    router: Arc<Router>,
    global_done: Arc<AtomicBool>,
    failure: Arc<FailureShared>,
    provider: Arc<dyn FtProvider>,
    app: Arc<AppFn>,
    service: Option<Arc<AppFn>>,
    flight: Arc<FlightRecorder>,
}

/// Fluent construction of a run: configuration, protocol provider,
/// application closure, failure schedule and optional service closure in one
/// chain, launched with [`RunBuilder::launch`].
///
/// ```ignore
/// let report = Runtime::builder(RuntimeConfig::new(8))
///     .provider(Arc::new(SpbcProvider::new(clusters, cfg)))
///     .app(workload.build(params))
///     .plans([FailurePlan::nth(RankId(3), 7)])
///     .launch()?;
/// ```
pub struct RunBuilder {
    cfg: RuntimeConfig,
    provider: Arc<dyn FtProvider>,
    app: Option<Arc<AppFn>>,
    service: Option<Arc<AppFn>>,
    plans: Vec<FailurePlan>,
}

impl RunBuilder {
    /// The fault-tolerance provider (defaults to [`NativeProvider`]).
    pub fn provider(mut self, provider: Arc<dyn FtProvider>) -> Self {
        self.provider = provider;
        self
    }

    /// The application closure every rank runs (required).
    pub fn app(mut self, app: Arc<AppFn>) -> Self {
        self.app = Some(app);
        self
    }

    /// Convenience: set the application from a plain closure.
    pub fn app_fn(self, f: impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static) -> Self {
        self.app(Arc::new(f))
    }

    /// Append failure plans to the chaos schedule.
    pub fn plans(mut self, plans: impl IntoIterator<Item = FailurePlan>) -> Self {
        self.plans.extend(plans);
        self
    }

    /// Append one failure plan.
    pub fn plan(mut self, plan: FailurePlan) -> Self {
        self.plans.push(plan);
        self
    }

    /// Apply a [`Topology`]: rank count and transport choice in one entry.
    /// (The cluster layout goes to the protocol provider's `ClusterMap`;
    /// the runtime itself only needs the world size and the fabric.)
    pub fn topology(mut self, t: &Topology) -> Self {
        self.cfg.world_size = t.ranks;
        self.cfg.transport = t.transport;
        self
    }

    /// The closure run by the configured service ranks.
    pub fn service(mut self, service: Arc<AppFn>) -> Self {
        self.service = Some(service);
        self
    }

    /// Convenience: set the service closure from a plain closure.
    pub fn service_fn(
        self,
        f: impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static,
    ) -> Self {
        self.service(Arc::new(f))
    }

    /// Execute the run.
    pub fn launch(self) -> Result<RunReport> {
        let app = self.app.ok_or_else(|| MpiError::invalid("RunBuilder without an app"))?;
        Runtime::new(self.cfg).run_inner(self.provider, app, self.plans, self.service)
    }
}

impl Runtime {
    /// Create a runtime for `cfg`.
    pub fn new(cfg: RuntimeConfig) -> Self {
        Runtime { cfg: Arc::new(cfg) }
    }

    /// Start building a run for `cfg` (see [`RunBuilder`]).
    pub fn builder(cfg: RuntimeConfig) -> RunBuilder {
        RunBuilder {
            cfg,
            provider: Arc::new(NativeProvider),
            app: None,
            service: None,
            plans: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Convenience: run `app` natively (no fault tolerance, no failures).
    pub fn run_native(
        world: usize,
        app: impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static,
    ) -> Result<RunReport> {
        Runtime::builder(RuntimeConfig::new(world)).app_fn(app).launch()
    }

    fn run_inner(
        &self,
        provider: Arc<dyn FtProvider>,
        app: Arc<AppFn>,
        plans: Vec<FailurePlan>,
        service: Option<Arc<AppFn>>,
    ) -> Result<RunReport> {
        let world = self.cfg.world_size;
        let total = self.cfg.total_ranks();
        if world == 0 {
            return Err(MpiError::invalid("world_size must be positive"));
        }
        if self.cfg.service_ranks > 0 && service.is_none() {
            return Err(MpiError::invalid("service ranks configured but no service closure"));
        }

        let start = Instant::now();
        let transport: Arc<dyn Transport> = match self.cfg.transport {
            TransportKind::InProc => Arc::new(InProcTransport::new(total)),
            TransportKind::Uds => Arc::new(UdsTransport::loopback(total)?),
        };
        let mut mailboxes: Vec<Box<dyn Mailbox>> =
            (0..total).map(|i| transport.open(RankId(i as u32))).collect();
        let router = Arc::new(Router::over(transport));
        let (evt_tx, evt_rx) = unbounded();
        let failure = Arc::new(FailureShared::new(total, evt_tx));
        for p in plans {
            failure.schedule(p);
        }
        let global_done = Arc::new(AtomicBool::new(false));
        let flight = Arc::new(match self.cfg.flight_recorder {
            Some(cap) => FlightRecorder::new(total, cap),
            None => FlightRecorder::disabled(),
        });

        let spawner = Spawner {
            cfg: Arc::clone(&self.cfg),
            router,
            global_done: Arc::clone(&global_done),
            failure: Arc::clone(&failure),
            provider: Arc::clone(&provider),
            app,
            service,
            flight: Arc::clone(&flight),
        };

        let mut handles: Vec<Option<JoinHandle<()>>> = Vec::with_capacity(total);
        let mut epochs: Vec<u32> = vec![0; total];
        for (i, rx) in mailboxes.drain(..).enumerate() {
            handles.push(Some(spawner.spawn(RankId(i as u32), 0, rx)));
        }

        let mut report = RunReport {
            outputs: vec![Vec::new(); world],
            stats: (0..world).map(|i| RankStats::new(RankId(i as u32), world)).collect(),
            wall_time: Duration::ZERO,
            failures_handled: 0,
            restarts: vec![0; world],
            errors: Vec::new(),
            flight: None,
            flight_dump: None,
            unfired: Vec::new(),
        };
        let mut done = vec![false; world];
        let mut done_count = 0usize;
        let backstop = self.cfg.deadlock_timeout + Duration::from_secs(15);

        let outcome = loop {
            match evt_rx.recv_timeout(backstop) {
                Ok(RuntimeEvent::Done { rank, output }) => {
                    let i = rank.idx();
                    if !done[i] {
                        done[i] = true;
                        done_count += 1;
                    }
                    report.outputs[i] = output;
                    if done_count == world {
                        break Ok(());
                    }
                }
                Ok(RuntimeEvent::Failure { rank }) => {
                    report.failures_handled += 1;
                    // The crashed rank (only) may lose node-local storage;
                    // its cluster siblings die for containment, not for real,
                    // so their local stores survive the respawn.
                    provider.on_rank_failed(rank);
                    let cluster = provider.cluster_of(rank);
                    let victims: Vec<RankId> = (0..world as u32)
                        .map(RankId)
                        .filter(|&r| provider.cluster_of(r) == cluster)
                        .collect();
                    // Kill the whole cluster, wait for the threads to unwind,
                    // then restart them from their checkpoint.
                    for &v in &victims {
                        failure.kill(v);
                    }
                    for &v in &victims {
                        if let Some(h) = handles[v.idx()].take() {
                            let _ = h.join();
                        }
                        if done[v.idx()] {
                            done[v.idx()] = false;
                            done_count -= 1;
                        }
                    }
                    // Replace every victim's mailbox BEFORE respawning any of
                    // them: a respawned rank starts sending immediately, and
                    // an intra-cluster message to a sibling whose mailbox is
                    // still the dead incarnation's would be silently lost —
                    // intra-cluster channels have no log to recover from.
                    let fresh: Vec<_> =
                        victims.iter().map(|&v| spawner.router.replace(v)).collect();
                    // Arm AfterRecovery chaos triggers before the respawn,
                    // so that no armed victim serves this recovery's first
                    // Rollback unarmed: its recovery (rollback handshake,
                    // replay) is only beginning, and armed victims land in
                    // it.
                    failure.note_recovery(cluster);
                    for (&v, rx) in victims.iter().zip(fresh) {
                        failure.revive(v);
                        epochs[v.idx()] += 1;
                        report.restarts[v.idx()] = epochs[v.idx()];
                        handles[v.idx()] = Some(spawner.spawn(v, epochs[v.idx()], rx));
                    }
                }
                Ok(RuntimeEvent::Error { rank, message }) => {
                    report.errors.push((rank, message));
                    // Grace period: when one rank reports (e.g. a suspected
                    // deadlock), its peers are usually blocked too — collect
                    // their reports so the diagnostics show the whole
                    // wait-for graph.
                    let grace = Instant::now() + Duration::from_millis(1500);
                    while let Ok(ev) =
                        evt_rx.recv_timeout(grace.saturating_duration_since(Instant::now()))
                    {
                        if let RuntimeEvent::Error { rank, message } = ev {
                            report.errors.push((rank, message));
                        }
                    }
                    break Err(());
                }
                Ok(RuntimeEvent::Killed { .. }) => {
                    // Expected during cluster rollback; the Failure arm joins.
                }
                Err(RecvTimeoutError::Timeout) => {
                    report
                        .errors
                        .push((RankId(u32::MAX), "runtime backstop: no progress events".into()));
                    break Err(());
                }
                Err(RecvTimeoutError::Disconnected) => break Err(()),
            }
        };

        // Tear down: release lingering ranks and service ranks.
        global_done.store(true, Ordering::SeqCst);
        if outcome.is_err() {
            // Hang watchdog: before killing anything, dump every rank's
            // recent protocol events and published watermark status so the
            // failure mode is an interleaving, not a bare timeout.
            if flight.enabled() {
                let dump = flight.dump(32, 0..total as u32);
                eprintln!("{dump}");
                report.flight_dump = Some(dump);
            }
            for i in 0..total {
                failure.kill(RankId(i as u32));
            }
        }
        // Collect remaining Done/stat events that raced with completion.
        while let Ok(ev) = evt_rx.try_recv() {
            if let RuntimeEvent::Error { rank, message } = ev {
                report.errors.push((rank, message));
            }
        }
        for h in handles.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
        report.wall_time = start.elapsed();
        report.unfired = failure.unfired();
        // Stats come back through a side channel written at thread exit.
        for (i, slot) in spawner.failure.stats_slots().iter().enumerate().take(world) {
            if let Some(s) = slot.lock().take() {
                report.stats[i] = *s;
            }
        }
        if flight.enabled() {
            report.flight = Some(flight.snapshot());
        }
        Ok(report)
    }
}

/// Identity of one `spbc-node` process in a multi-process run: which slice
/// of the world it hosts and where its coordinator listens.
#[derive(Clone, Debug)]
pub struct NodeOpts {
    /// The coordinator's Unix socket.
    pub socket: std::path::PathBuf,
    /// Node index (cluster index under one-cluster-per-node).
    pub node: u32,
    /// Restart epoch of this incarnation (0 = first launch). Every hosted
    /// rank starts at this epoch, so a respawned node restores from its
    /// checkpoints exactly like an in-process cluster restart.
    pub epoch: u32,
    /// First world rank hosted here.
    pub first_rank: u32,
    /// Number of (contiguous) ranks hosted here.
    pub hosted: usize,
    /// Where the node writes its flight-recorder dump (the newest 32 events
    /// of each rank), once, at its first rank error. Needs
    /// [`RuntimeConfig::flight_recorder`](crate::config::RuntimeConfig).
    pub flight_dump: Option<std::path::PathBuf>,
}

impl Runtime {
    /// Run one node of a multi-process world: spawn this node's ranks as
    /// threads over a [`UdsTransport`] endpoint, report their lifecycle to
    /// the coordinator, and stay up — lingering ranks keep serving log
    /// replays — until the coordinator broadcasts shutdown.
    ///
    /// Failure semantics are the whole point: when an injected failure plan
    /// fires, the **process aborts** (`SIGABRT`, no destructors — the moral
    /// equivalent of the `kill -9` the chaos engine also delivers
    /// externally). The node is the cluster is the containment unit; the
    /// coordinator respawns it with `epoch + 1` and the protocol restores
    /// from checkpoints that survived on disk.
    pub fn run_node(
        cfg: RuntimeConfig,
        opts: &NodeOpts,
        provider: Arc<dyn FtProvider>,
        app: Arc<AppFn>,
        plans: Vec<FailurePlan>,
    ) -> Result<()> {
        if cfg.service_ranks > 0 {
            return Err(MpiError::invalid("multi-process runs host application ranks only"));
        }
        let world = cfg.world_size;
        if opts.hosted == 0 || opts.first_rank as usize + opts.hosted > world {
            return Err(MpiError::invalid(format!(
                "node hosts ranks {}..{} of a {world}-rank world",
                opts.first_rank,
                opts.first_rank as usize + opts.hosted
            )));
        }
        let cfg = Arc::new(cfg);
        let uds = Arc::new(UdsTransport::node(
            &opts.socket,
            opts.node,
            opts.epoch,
            opts.first_rank,
            opts.hosted,
            world,
        )?);
        let transport: Arc<dyn Transport> = Arc::clone(&uds) as Arc<dyn Transport>;
        let ranks = opts.first_rank..opts.first_rank + opts.hosted as u32;
        let hosted: Vec<RankId> = ranks.clone().map(RankId).collect();
        let mut mailboxes: Vec<Box<dyn Mailbox>> =
            hosted.iter().map(|&r| transport.open(r)).collect();
        let router = Arc::new(Router::over(transport));
        let (evt_tx, evt_rx) = unbounded();
        let failure = Arc::new(FailureShared::new(world, evt_tx));
        for p in plans {
            failure.schedule(p);
        }
        let global_done = Arc::new(AtomicBool::new(false));
        let flight = Arc::new(match cfg.flight_recorder {
            Some(cap) => FlightRecorder::new(world, cap),
            None => FlightRecorder::disabled(),
        });
        let spawner = Spawner {
            cfg: Arc::clone(&cfg),
            router,
            global_done: Arc::clone(&global_done),
            failure,
            provider,
            app,
            service: None,
            flight: Arc::clone(&flight),
        };
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(opts.hosted);
        for (&r, mb) in hosted.iter().zip(mailboxes.drain(..)) {
            handles.push(spawner.spawn(r, opts.epoch, mb));
        }

        let poll = Duration::from_millis(25);
        let mut dump_to = opts.flight_dump.as_ref().filter(|_| flight.enabled());
        let outcome = loop {
            if uds.shutdown_requested() {
                break Ok(());
            }
            match evt_rx.recv_timeout(poll) {
                Ok(RuntimeEvent::Done { rank, output }) => {
                    if uds
                        .send_event(crate::transport::frame::NodeEvent::Done { rank, output })
                        .is_err()
                    {
                        // Coordinator gone mid-run: nothing left to serve.
                        break Ok(());
                    }
                }
                Ok(RuntimeEvent::Error { rank, message }) => {
                    if let Some(path) = dump_to.take() {
                        if let Err(e) = std::fs::write(path, flight.dump(32, ranks.clone())) {
                            eprintln!("flight dump {}: {e}", path.display());
                        }
                    }
                    // Report and keep pumping: the coordinator decides
                    // whether the run is over.
                    let _ =
                        uds.send_event(crate::transport::frame::NodeEvent::Error { rank, message });
                }
                Ok(RuntimeEvent::Failure { .. }) => {
                    // An injected failure: die like a node. No destructors,
                    // no flushes — the coordinator sees the process vanish.
                    std::process::abort();
                }
                Ok(RuntimeEvent::Killed { .. }) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break Ok(()),
            }
        };
        global_done.store(true, Ordering::SeqCst);
        for h in handles {
            let _ = h.join();
        }
        outcome
    }
}

impl Spawner {
    fn spawn(&self, me: RankId, epoch: u32, mailbox: Box<dyn Mailbox>) -> JoinHandle<()> {
        let cfg = Arc::clone(&self.cfg);
        let router = Arc::clone(&self.router);
        let global_done = Arc::clone(&self.global_done);
        let failure = Arc::clone(&self.failure);
        let provider = Arc::clone(&self.provider);
        let is_service = me.idx() >= cfg.world_size;
        let app: Arc<AppFn> = if is_service {
            Arc::clone(self.service.as_ref().expect("service closure"))
        } else {
            Arc::clone(&self.app)
        };
        let recorder = self.flight.handle(me);
        let name = format!("rank-{me}-e{epoch}");
        // A panicking rank ends the run at once, with the panic message, in
        // both modes: nothing else would report it, and its peers would
        // wait for the deadlock timeout. Injected kills return
        // `MpiError::Killed`; they never unwind.
        let on_panic = Arc::clone(&self.failure);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let run = std::panic::AssertUnwindSafe(move || {
                    let t0 = Instant::now();
                    let kill = failure.kill_flag(me);
                    let mut inner = RankInner::new(
                        me,
                        cfg,
                        epoch,
                        mailbox,
                        router,
                        kill,
                        Arc::clone(&global_done),
                        Arc::clone(&failure),
                    );
                    inner.recorder = recorder;
                    inner.recorder.record(|| Event::RankStart { epoch });
                    let layer = provider.make_layer(me, epoch);
                    let mut rank = Rank::new(inner, layer);
                    rank.inner.stats.restarts = epoch;

                    let result = {
                        let started = {
                            let mut ctx = FtCtx { inner: &mut rank.inner };
                            rank.ft.on_start(&mut ctx)
                        };
                        started.and_then(|_| (app)(&mut rank))
                    };

                    match result {
                        Ok(output) => {
                            {
                                let mut ctx = FtCtx { inner: &mut rank.inner };
                                let _ = rank.ft.on_app_done(&mut ctx);
                            }
                            rank.inner.recorder.record(|| Event::RankDone);
                            rank.inner.stats.total_time = t0.elapsed();
                            failure.set_stats(me, rank.inner.stats.clone());
                            failure.report(RuntimeEvent::Done { rank: me, output });
                            linger(&mut rank);
                        }
                        Err(MpiError::Killed) => {
                            rank.inner.recorder.record(|| Event::RankKilled);
                            failure.set_stats(me, rank.inner.stats.clone());
                            failure.report(RuntimeEvent::Killed { rank: me });
                        }
                        Err(e) => {
                            rank.inner.recorder.record(|| Event::RankError);
                            rank.inner.stats.total_time = t0.elapsed();
                            failure.set_stats(me, rank.inner.stats.clone());
                            failure
                                .report(RuntimeEvent::Error { rank: me, message: e.to_string() });
                        }
                    }
                });
                if let Err(panic) = std::panic::catch_unwind(run) {
                    let what = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "a non-string payload".into());
                    let message = format!("rank {me} panicked: {what}");
                    on_panic.report(RuntimeEvent::Error { rank: me, message });
                }
            })
            .expect("spawn rank thread")
    }
}

/// After its application finished, a rank keeps serving protocol traffic
/// (log replay for recovering clusters) until the whole run completes or it
/// is itself rolled back.
fn linger(rank: &mut Rank) {
    loop {
        if rank.inner.global_done.load(Ordering::Relaxed) {
            return;
        }
        if rank.inner.kill.load(Ordering::Relaxed) {
            rank.inner.failure.report(RuntimeEvent::Killed { rank: rank.inner.me });
            return;
        }
        match rank.inner.mailbox.recv_timeout(rank.inner.cfg.poll_interval) {
            Ok(pkt) => match handle_packet(&mut rank.inner, rank.ft.as_mut(), pkt) {
                // An injected kill raised the flag: the next turn reports it.
                Ok(()) | Err(MpiError::Killed) => {}
                Err(e) => {
                    // A lingering rank still serves recovery (replay from its
                    // log): a failure there ends the run, it is not silence.
                    let me = rank.inner.me;
                    rank.inner
                        .failure
                        .report(RuntimeEvent::Error { rank: me, message: e.to_string() });
                    return;
                }
            },
            Err(RecvTimeoutErr::Timeout) => {}
            Err(RecvTimeoutErr::Disconnected) => return,
        }
    }
}
