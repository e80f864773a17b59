//! The fault-tolerance hook: how checkpointing protocols attach to the
//! message layer.
//!
//! The runtime is protocol-agnostic. A [`FtLayer`] implementation sees every
//! send, every arrival, every match decision and every control message, and
//! owns checkpoint/restore. SPBC (`spbc-core`) and all baselines
//! (`spbc-baselines`) are `FtLayer` implementations.
//!
//! Hooks are invoked from the rank's own thread, inside the progress engine;
//! they must never block. Operations that need to wait (coordinated
//! checkpointing) are expressed as state machines driven by
//! `checkpoint_begin` / `checkpoint_poll` with the runtime pumping progress
//! in between.

use crate::envelope::{CtrlMsg, Envelope, Message};
use crate::error::{MpiError, Result};
use crate::failure::{FailureSite, RuntimeEvent};
use crate::inner::RankInner;
use crate::matching::Arrived;
use crate::request::RecvSpec;
use crate::types::{ChannelId, CommId, MatchIdent, RankId};
use bytes::Bytes;
use std::collections::HashMap;

/// Verdict of [`FtLayer::on_send`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendAction {
    /// Transmit the message normally.
    Forward,
    /// Do not transmit (the receiver already has it — recovery re-execution
    /// with `seqnum <= LS`, Algorithm 1 line 7). The send operation still
    /// completes successfully from the application's point of view.
    Suppress,
}

/// Verdict of [`FtLayer::on_arrival`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalAction {
    /// Process the arrival (matching, delivery).
    Deliver,
    /// Discard it (duplicate suppressed by the receiver-side seqnum check).
    Drop,
}

/// Outcome of a checkpoint request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CkptOutcome {
    /// The layer decided no checkpoint is due; execution continues.
    NotDue,
    /// Coordination started; the caller must pump progress and call
    /// `checkpoint_poll` until it reports completion.
    InProgress,
}

/// The protocol hook. All methods have no-op defaults so trivial layers
/// (native execution) stay trivial.
pub trait FtLayer: Send {
    /// Short protocol name for reports ("spbc", "hydee", ...).
    fn name(&self) -> &'static str;

    /// Called once before the application closure runs — on initial start and
    /// on every restart. Restart logic (checkpoint restore, Rollback
    /// handshake of Algorithm 1 lines 16-20) lives here.
    fn on_start(&mut self, _ctx: &mut FtCtx<'_>) -> Result<()> {
        Ok(())
    }

    /// Observes (and may suppress) every outgoing application message.
    /// Inter-cluster logging (Algorithm 1 lines 5-6) happens here.
    fn on_send(&mut self, _ctx: &mut FtCtx<'_>, _env: &Envelope, _payload: &Bytes) -> SendAction {
        SendAction::Forward
    }

    /// Observes every arriving envelope before matching; may drop duplicates.
    fn on_arrival(&mut self, _ctx: &mut FtCtx<'_>, _env: &Envelope) -> ArrivalAction {
        ArrivalAction::Deliver
    }

    /// Extra match admissibility on top of `(comm, src, tag)` — SPBC requires
    /// `spec.ident == env.ident` (Section 4.3).
    fn match_admissible(&self, _spec: &RecvSpec, _env: &Envelope) -> bool {
        true
    }

    /// Handle a protocol control message.
    fn on_ctrl(&mut self, _ctx: &mut FtCtx<'_>, _msg: CtrlMsg) -> Result<()> {
        Ok(())
    }

    /// Completion notification for a fire-and-forget transfer started with
    /// [`FtCtx::ft_send_message`] that went through rendezvous (`token` as
    /// returned there). Used by the replay flow-control window.
    fn on_transfer_complete(&mut self, _ctx: &mut FtCtx<'_>, _token: u64) -> Result<()> {
        Ok(())
    }

    /// The application reached a checkpoint opportunity. Return `NotDue` to
    /// skip, or `InProgress` to start coordination (the caller then drives
    /// `checkpoint_poll`). `app_state` appends the application state's
    /// encoding to the buffer it is handed: a layer calls it only once it
    /// opens a wave, with the buffer the checkpoint body is built in, so a
    /// checkpoint opportunity that is not due serializes nothing and a due
    /// one serializes straight into the body, once.
    fn checkpoint_begin(
        &mut self,
        _ctx: &mut FtCtx<'_>,
        _app_state: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<CkptOutcome> {
        Ok(CkptOutcome::NotDue)
    }

    /// Advance checkpoint coordination; `Ok(true)` when the checkpoint is
    /// committed and execution may continue.
    fn checkpoint_poll(&mut self, _ctx: &mut FtCtx<'_>) -> Result<bool> {
        Ok(true)
    }

    /// Application state restored from the checkpoint this rank restarted
    /// from, if any. Consumed by `Rank::restore`.
    fn restored_app_state(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Called when the application closure returned successfully, before the
    /// rank enters its linger loop (where it keeps serving `on_ctrl`).
    fn on_app_done(&mut self, _ctx: &mut FtCtx<'_>) -> Result<()> {
        Ok(())
    }
}

/// The trivial layer: native execution, no fault tolerance.
#[derive(Default)]
pub struct NoFt;

impl FtLayer for NoFt {
    fn name(&self) -> &'static str {
        "native"
    }
}

/// Constructs the per-rank layers and tells the runtime how ranks group into
/// clusters (the runtime needs that to kill a whole cluster on failure).
pub trait FtProvider: Send + Sync {
    /// Cluster index of a world rank.
    fn cluster_of(&self, rank: RankId) -> usize;
    /// Build the layer for `rank`; `epoch` is 0 initially and increments on
    /// every restart of that rank.
    fn make_layer(&self, rank: RankId, epoch: u32) -> Box<dyn FtLayer>;
    /// The runtime observed `rank` fail (its process died; siblings are
    /// killed for containment but did not lose state). Providers modeling
    /// node-loss storage semantics drop the rank's node-local data here;
    /// the default keeps everything (process-kill semantics).
    fn on_rank_failed(&self, _rank: RankId) {}
}

/// Native provider: every rank its own cluster, no-op layer.
pub struct NativeProvider;

impl FtProvider for NativeProvider {
    fn cluster_of(&self, rank: RankId) -> usize {
        rank.idx()
    }
    fn make_layer(&self, _rank: RankId, _epoch: u32) -> Box<dyn FtLayer> {
        Box::new(NoFt)
    }
}

/// Controlled view of the rank internals handed to `FtLayer` hooks.
pub struct FtCtx<'a> {
    pub(crate) inner: &'a mut RankInner,
}

impl<'a> FtCtx<'a> {
    /// This rank's world id.
    pub fn me(&self) -> RankId {
        self.inner.me
    }

    /// World size (application ranks).
    pub fn world_size(&self) -> usize {
        self.inner.world
    }

    /// Restart epoch (0 = initial execution).
    pub fn epoch(&self) -> u32 {
        self.inner.epoch
    }

    /// The rank's flight-recorder handle (disabled unless the runtime
    /// enabled recording). Protocol layers use it to record checkpoint
    /// phases, log and replay progress.
    pub fn recorder(&self) -> &crate::recorder::Recorder {
        &self.inner.recorder
    }

    /// The rank's Lamport clock.
    pub fn lamport(&self) -> u64 {
        self.inner.lamport
    }

    /// Overwrite the Lamport clock (checkpoint restore).
    pub fn set_lamport(&mut self, v: u64) {
        self.inner.lamport = v;
    }

    /// Runtime configuration.
    pub fn config(&self) -> &crate::config::RuntimeConfig {
        &self.inner.cfg
    }

    /// Send a control message to a rank (world or service id).
    pub fn send_ctrl(&mut self, to: RankId, kind: u16, data: Vec<u8>) {
        self.inner.send_ctrl(to, kind, data);
    }

    /// The protocol layer took transition-table row `row` of wave (or
    /// restart) `epoch` and is about to run its actions: record it as
    /// [`crate::recorder::Event::Row`], then pass the row's failure site.
    /// When a [`crate::failure::FailureTrigger::AtTransition`] plan targets
    /// this passage (or the rank is armed), the crash is reported, the
    /// rank's own kill flag raised, and `Err(Killed)` returned for prompt
    /// unwinding.
    pub fn transition(&mut self, row: &'static str, epoch: u64) -> Result<()> {
        let inner = &mut *self.inner;
        inner.recorder.record(|| crate::recorder::Event::Row { row, epoch });
        if inner.failure.should_fail_at(inner.me, FailureSite::Transition { row }) {
            inner.failure.report(RuntimeEvent::Failure { rank: inner.me });
            inner.kill.store(true, std::sync::atomic::Ordering::SeqCst);
            return Err(MpiError::Killed);
        }
        Ok(())
    }

    /// Transmit an application message on behalf of the protocol (log
    /// replay). Bypasses `on_send`. Returns `Some(token)` when the transfer
    /// went through rendezvous and will be signaled via
    /// [`FtLayer::on_transfer_complete`]; `None` when it completed eagerly.
    pub fn ft_send_message(&mut self, msg: Message) -> Option<u64> {
        self.inner.transmit_message(msg.env, msg.payload, None)
    }

    /// Like [`FtCtx::ft_send_message`] but always through the rendezvous
    /// protocol: the returned token completes only once the receiver has
    /// matched the message and the payload shipped — a delivery receipt.
    /// Used by coordinated (HydEE-style) replay, where the next grant must
    /// wait until the recovering process consumed the previous message.
    pub fn ft_send_message_confirmed(&mut self, msg: Message) -> u64 {
        self.inner
            .transmit_message_opts(msg.env, msg.payload, None, true)
            .expect("forced rendezvous always returns a token")
    }

    /// Last sequence number sent on each outgoing channel (`(dst, comm)`).
    pub fn send_seq(&self) -> &HashMap<(RankId, CommId), u64> {
        &self.inner.send_seq
    }

    /// Overwrite the outgoing sequence counters (checkpoint restore).
    pub fn set_send_seq(&mut self, map: HashMap<(RankId, CommId), u64>) {
        self.inner.send_seq = map;
    }

    /// Last envelope sequence number seen on each incoming channel
    /// (`(src, comm)`), i.e. the per-channel `LR` of Algorithm 1.
    pub fn recv_seen(&self) -> &HashMap<(RankId, CommId), u64> {
        &self.inner.recv_seen
    }

    /// Overwrite the incoming watermarks (checkpoint restore).
    pub fn set_recv_seen(&mut self, map: HashMap<(RankId, CommId), u64>) {
        self.inner.recv_seen = map;
    }

    /// Watermark for one incoming channel (0 if never received).
    pub fn last_seen_on(&self, src: RankId, comm: CommId) -> u64 {
        self.inner.recv_seen.get(&(src, comm)).copied().unwrap_or(0)
    }

    /// Last sequence number sent on one outgoing channel (0 if never sent).
    pub fn last_sent_on(&self, dst: RankId, comm: CommId) -> u64 {
        self.inner.send_seq.get(&(dst, comm)).copied().unwrap_or(0)
    }

    /// Snapshot of the unexpected queue (checkpoint).
    pub fn unexpected_snapshot(&self) -> Vec<Arrived> {
        self.inner.engine.unexpected_iter().cloned().collect()
    }

    /// Snapshot of the communicator table (checkpoint): id, members,
    /// my position, split counter, collective counter. Sub-communicators and
    /// collective tags must survive rollback or re-executed collectives
    /// could not match logged traffic.
    pub fn comms_snapshot(&self) -> Vec<(u64, Vec<RankId>, u64, u64, u64)> {
        let mut v: Vec<(u64, Vec<RankId>, u64, u64, u64)> = self
            .inner
            .comms
            .values()
            .map(|c| (c.id.0, c.members.clone(), c.my_pos as u64, c.split_seq, c.coll_seq))
            .collect();
        v.sort_by_key(|e| e.0);
        v
    }

    /// Restore the communicator table from a checkpoint snapshot.
    pub fn restore_comms(&mut self, snapshot: Vec<(u64, Vec<RankId>, u64, u64, u64)>) {
        self.inner.comms.clear();
        for (id, members, my_pos, split_seq, coll_seq) in snapshot {
            let id = CommId(id);
            self.inner.comms.insert(
                id,
                crate::inner::CommInfo {
                    id,
                    members,
                    my_pos: my_pos as usize,
                    split_seq,
                    coll_seq,
                },
            );
        }
    }

    /// Restore the unexpected queue (rollback).
    pub fn restore_unexpected(&mut self, entries: Vec<Arrived>) {
        self.inner.engine.restore_unexpected(entries);
    }

    /// Number of live (unconsumed) requests — checkpoints require zero.
    pub fn live_requests(&self) -> usize {
        self.inner.reqs.live()
    }

    /// Peer `peer` restarted: drop its dangling inbound rendezvous
    /// announcements and re-arm matched requests. Returns the envelopes whose
    /// payloads must be replayed by the restarted peer.
    pub fn purge_rdv_from_peer(&mut self, peer: RankId) -> Vec<Envelope> {
        self.inner.purge_rdv_from_peer(peer)
    }

    /// Peer `peer` restarted: cancel outbound rendezvous transfers to it.
    /// Returns the tokens of fire-and-forget (replay) transfers dropped.
    pub fn cancel_pending_rdv_to(&mut self, peer: RankId) -> Vec<u64> {
        self.inner.cancel_pending_rdv_to(peer)
    }

    /// The identifier currently active for sends/receives.
    pub fn current_ident(&self) -> MatchIdent {
        self.inner.cur_ident
    }

    /// All channels this rank has ever sent on or received from — the
    /// channel set used for the Rollback handshake.
    pub fn known_channels(&self) -> Vec<ChannelId> {
        let me = self.inner.me;
        let mut v: Vec<ChannelId> = self
            .inner
            .send_seq
            .keys()
            .map(|&(dst, comm)| ChannelId::new(me, dst, comm))
            .chain(self.inner.recv_seen.keys().map(|&(src, comm)| ChannelId::new(src, me, comm)))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}
