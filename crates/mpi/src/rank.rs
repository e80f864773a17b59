//! The per-rank application API: the MPI-like surface workloads program
//! against.

use crate::datatype::{pack, unpack, Scalar};
use crate::error::{MpiError, Result};
use crate::ft::{CkptOutcome, FtCtx, FtLayer, SendAction};
use crate::inner::{block_until, complete_match, handle_packet, poll_all, RankInner};
use crate::request::{RecvSpec, ReqState, RequestId, Status};
use crate::types::{CommId, MatchIdent, RankId, Source, Tag, TagSel, TAG_USER_LIMIT};
use crate::wire::{Decode, Encode};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// A completed operation: status plus payload (None for sends).
pub type Completion = (Status, Option<Bytes>);

/// The handle a rank's application closure receives: point-to-point and
/// collective communication, the pattern identifier, checkpointing, and
/// failure points.
///
/// All rank arguments are **communicator ranks** (positions within the given
/// communicator); for `COMM_WORLD` these coincide with world ids.
pub struct Rank {
    pub(crate) inner: RankInner,
    pub(crate) ft: Box<dyn FtLayer>,
}

impl Rank {
    pub(crate) fn new(inner: RankInner, ft: Box<dyn FtLayer>) -> Self {
        Rank { inner, ft }
    }

    // ---------------------------------------------------------- identity --

    /// This rank's world id.
    pub fn world_rank(&self) -> usize {
        self.inner.me.idx()
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.inner.world
    }

    /// This rank's position within `comm`.
    pub fn comm_rank(&self, comm: CommId) -> Result<usize> {
        Ok(self.inner.comm(comm)?.my_pos)
    }

    /// Size of `comm`.
    pub fn comm_size(&self, comm: CommId) -> Result<usize> {
        Ok(self.inner.comm(comm)?.size())
    }

    /// Translate a world rank to its position within `comm` (None if the
    /// rank is not a member).
    pub fn comm_rank_of(&self, comm: CommId, world: RankId) -> Result<Option<usize>> {
        Ok(self.inner.comm(comm)?.pos_of(world))
    }

    /// Restart epoch: 0 on the initial execution, incremented per restart.
    pub fn epoch(&self) -> u32 {
        self.inner.epoch
    }

    /// Name of the attached fault-tolerance protocol.
    pub fn protocol(&self) -> &'static str {
        self.ft.name()
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> &crate::stats::RankStats {
        &self.inner.stats
    }

    // ------------------------------------------------------- pattern API --

    /// Set the active match identifier (used by the SPBC pattern API; most
    /// code should use `spbc_core::pattern` instead of calling this
    /// directly).
    pub fn set_ident(&mut self, ident: MatchIdent) {
        self.inner.cur_ident = ident;
    }

    /// The active match identifier.
    pub fn ident(&self) -> MatchIdent {
        self.inner.cur_ident
    }

    // ---------------------------------------------------- point-to-point --

    fn resolve_dst(&self, comm: CommId, dst: usize) -> Result<RankId> {
        self.inner.comm(comm)?.world_rank(dst)
    }

    fn resolve_src(&self, comm: CommId, src: Source) -> Result<Source> {
        match src {
            Source::Any => Ok(Source::Any),
            Source::Rank(pos) => Ok(Source::Rank(self.inner.comm(comm)?.world_rank(pos.idx())?)),
        }
    }

    fn check_tag(tag: Tag) -> Result<()> {
        if tag >= TAG_USER_LIMIT {
            return Err(MpiError::invalid(format!("tag {tag} is in the reserved range")));
        }
        Ok(())
    }

    /// Non-blocking send of raw bytes.
    pub fn isend_bytes(
        &mut self,
        comm: CommId,
        dst: usize,
        tag: Tag,
        payload: Bytes,
    ) -> Result<RequestId> {
        self.inner.check_killed()?;
        Self::check_tag(tag)?;
        let dst = self.resolve_dst(comm, dst)?;
        let env = self.inner.next_env(dst, comm, tag, payload.len());
        // The send *event* exists regardless of suppression — determinism
        // chains must match between original execution and recovery
        // re-execution.
        self.inner.stats.on_send(
            env.channel(),
            tag,
            &payload,
            (env.ident.pattern, env.ident.iteration),
        );
        let action = {
            let mut ctx = FtCtx { inner: &mut self.inner };
            self.ft.on_send(&mut ctx, &env, &payload)
        };
        self.inner.recorder.record(|| crate::recorder::Event::Send {
            dst: env.dst,
            comm: env.comm.0,
            tag,
            seqnum: env.seqnum,
            bytes: env.plen,
            suppressed: action == SendAction::Suppress,
        });
        match action {
            SendAction::Suppress => {
                let st = Status::send_done(env.dst, tag, env.plen as usize);
                Ok(self.inner.reqs.insert(ReqState::Done { status: st, payload: None }))
            }
            SendAction::Forward => {
                let req = self.inner.reqs.insert(ReqState::SendPending { env });
                self.inner.transmit_message(env, payload, Some(req));
                Ok(req)
            }
        }
    }

    /// Non-blocking typed send.
    pub fn isend<T: Scalar>(
        &mut self,
        comm: CommId,
        dst: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<RequestId> {
        self.isend_bytes(comm, dst, tag, pack(data))
    }

    /// Blocking send (non-blocking send + wait).
    pub fn send<T: Scalar>(
        &mut self,
        comm: CommId,
        dst: usize,
        tag: Tag,
        data: &[T],
    ) -> Result<()> {
        let req = self.isend(comm, dst, tag, data)?;
        self.wait(req)?;
        Ok(())
    }

    /// Blocking raw-bytes send.
    pub fn send_bytes(&mut self, comm: CommId, dst: usize, tag: Tag, payload: Bytes) -> Result<()> {
        let req = self.isend_bytes(comm, dst, tag, payload)?;
        self.wait(req)?;
        Ok(())
    }

    /// Non-blocking receive. `src` may be [`Source::Any`] (`MPI_ANY_SOURCE`),
    /// `tag` may be [`TagSel::Any`] (`MPI_ANY_TAG`).
    pub fn irecv(
        &mut self,
        comm: CommId,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> Result<RequestId> {
        self.inner.check_killed()?;
        let spec = RecvSpec {
            comm,
            src: self.resolve_src(comm, src.into())?,
            tag: tag.into(),
            ident: self.inner.cur_ident,
        };
        // Fresh arrivals first, so probe/irecv agree on the queue contents.
        poll_all(&mut self.inner, self.ft.as_mut())?;
        let ft = &*self.ft;
        let admissible = |s: &RecvSpec, e: &crate::envelope::Envelope| ft.match_admissible(s, e);
        if let Some(arrived) = self.inner.engine.match_post(&spec, &admissible) {
            let req = self.inner.reqs.insert(ReqState::RecvPosted { spec });
            complete_match(&mut self.inner, req, arrived.env, arrived.body)?;
            Ok(req)
        } else {
            let req = self.inner.reqs.insert(ReqState::RecvPosted { spec });
            self.inner.engine.post(req, spec);
            Ok(req)
        }
    }

    /// Blocking receive of raw bytes.
    pub fn recv_bytes(
        &mut self,
        comm: CommId,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> Result<(Bytes, Status)> {
        let req = self.irecv(comm, src, tag)?;
        let (st, payload) = self.wait(req)?;
        Ok((payload.expect("recv completes with payload"), st))
    }

    /// Blocking typed receive.
    pub fn recv<T: Scalar>(
        &mut self,
        comm: CommId,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> Result<(Vec<T>, Status)> {
        let (payload, st) = self.recv_bytes(comm, src, tag)?;
        Ok((unpack(&payload)?, st))
    }

    // ------------------------------------------------------- completions --

    /// Wait for one request; consumes it.
    pub fn wait(&mut self, req: RequestId) -> Result<(Status, Option<Bytes>)> {
        block_until(&mut self.inner, self.ft.as_mut(), |inner| inner.reqs.is_done(req), "wait")?;
        self.inner.reqs.take_done(req)
    }

    /// Wait for all requests (consumes them); statuses in argument order.
    pub fn waitall(&mut self, reqs: &[RequestId]) -> Result<Vec<(Status, Option<Bytes>)>> {
        block_until(
            &mut self.inner,
            self.ft.as_mut(),
            |inner| {
                for &r in reqs {
                    if !inner.reqs.is_done(r)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            },
            "waitall",
        )?;
        reqs.iter().map(|&r| self.inner.reqs.take_done(r)).collect()
    }

    /// Wait for *any* of the requests to complete; consumes the completed one
    /// and returns its index (like `MPI_Waitany`). Completion depends on
    /// message-arrival speed — one of the two sources of non-determinism the
    /// paper identifies (Section 3.2).
    pub fn waitany(&mut self, reqs: &[RequestId]) -> Result<(usize, Status, Option<Bytes>)> {
        if reqs.is_empty() {
            return Err(MpiError::invalid("waitany on empty request set"));
        }
        let mut winner = None;
        block_until(
            &mut self.inner,
            self.ft.as_mut(),
            |inner| {
                for (i, &r) in reqs.iter().enumerate() {
                    if inner.reqs.is_done(r)? {
                        winner = Some(i);
                        return Ok(true);
                    }
                }
                Ok(false)
            },
            "waitany",
        )?;
        let i = winner.expect("block_until returned");
        let (st, payload) = self.inner.reqs.take_done(reqs[i])?;
        Ok((i, st, payload))
    }

    /// Non-blocking completion test; consumes the request when complete.
    pub fn test(&mut self, req: RequestId) -> Result<Option<(Status, Option<Bytes>)>> {
        self.inner.check_killed()?;
        poll_all(&mut self.inner, self.ft.as_mut())?;
        if self.inner.reqs.is_done(req)? {
            Ok(Some(self.inner.reqs.take_done(req)?))
        } else {
            Ok(None)
        }
    }

    /// Non-blocking test of a whole set; consumes all when all are complete
    /// (like `MPI_Testall`).
    pub fn testall(&mut self, reqs: &[RequestId]) -> Result<Option<Vec<Completion>>> {
        self.inner.check_killed()?;
        poll_all(&mut self.inner, self.ft.as_mut())?;
        for &r in reqs {
            if !self.inner.reqs.is_done(r)? {
                return Ok(None);
            }
        }
        let mut out = Vec::with_capacity(reqs.len());
        for &r in reqs {
            out.push(self.inner.reqs.take_done(r)?);
        }
        Ok(Some(out))
    }

    // ------------------------------------------------------------ probes --

    /// Non-blocking probe: is a matching message available? Does not consume
    /// the message (like `MPI_Iprobe`).
    pub fn iprobe(
        &mut self,
        comm: CommId,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> Result<Option<Status>> {
        self.inner.check_killed()?;
        let spec = RecvSpec {
            comm,
            src: self.resolve_src(comm, src.into())?,
            tag: tag.into(),
            ident: self.inner.cur_ident,
        };
        poll_all(&mut self.inner, self.ft.as_mut())?;
        let ft = &*self.ft;
        let admissible = |s: &RecvSpec, e: &crate::envelope::Envelope| ft.match_admissible(s, e);
        Ok(self.inner.engine.probe(&spec, &admissible).map(Status::of))
    }

    /// Blocking probe: wait until a matching message is available, without
    /// consuming it (like `MPI_Probe`). Re-probes as soon as a packet is
    /// handled; when no packet arrives for the configured deadlock timeout
    /// the probe fails with [`MpiError::DeadlockSuspected`], like `wait`.
    pub fn probe(
        &mut self,
        comm: CommId,
        src: impl Into<Source> + Copy,
        tag: impl Into<TagSel> + Copy,
    ) -> Result<Status> {
        loop {
            if let Some(st) = self.iprobe(comm, src, tag)? {
                return Ok(st);
            }
            let seen = self.inner.handled;
            block_until(&mut self.inner, self.ft.as_mut(), |i| Ok(i.handled != seen), "probe")?;
        }
    }

    // ------------------------------------------------------- checkpoints --

    /// Offer the protocol a checkpoint opportunity with the application state
    /// `state`. Returns `true` if a checkpoint was actually taken.
    ///
    /// `state` is serialized only when the protocol opens a wave here, once,
    /// straight into the buffer the protocol builds its checkpoint in; a
    /// call that is not due (and every call under native execution)
    /// encodes nothing.
    ///
    /// Must be called at an SPMD synchronization boundary with **no live
    /// requests** (all sends/receives waited); this is how coordinated
    /// checkpointing inside a cluster stays consistent.
    pub fn checkpoint_if_due<S: Encode>(&mut self, state: &S) -> Result<bool> {
        self.inner.check_killed()?;
        if self.inner.reqs.live() != 0 {
            return Err(MpiError::InvalidState(format!(
                "checkpoint with {} live requests",
                self.inner.reqs.live()
            )));
        }
        let outcome = {
            let mut ctx = FtCtx { inner: &mut self.inner };
            self.ft.checkpoint_begin(&mut ctx, &mut |out| state.encode(out))?
        };
        match outcome {
            CkptOutcome::NotDue => Ok(false),
            CkptOutcome::InProgress => {
                // Drive coordination: alternate between protocol polling and
                // progress until the checkpoint commits. Hand-rolled rather
                // than `block_until` because the condition needs the ft layer.
                let start = Instant::now();
                let mut next_status = Duration::from_secs(1);
                loop {
                    poll_all(&mut self.inner, self.ft.as_mut())?;
                    let done = {
                        let mut ctx = FtCtx { inner: &mut self.inner };
                        self.ft.checkpoint_poll(&mut ctx)?
                    };
                    if done {
                        self.inner.stats.comm_time += start.elapsed();
                        return Ok(true);
                    }
                    self.inner.check_killed()?;
                    match self.inner.mailbox.recv_timeout(self.inner.cfg.poll_interval) {
                        Ok(pkt) => handle_packet(&mut self.inner, self.ft.as_mut(), pkt)?,
                        Err(crate::transport::RecvTimeoutErr::Timeout) => {
                            let waited = start.elapsed();
                            if self.inner.recorder.is_enabled() && waited >= next_status {
                                next_status = waited + Duration::from_secs(1);
                                let line = format!(
                                    "waiting in checkpoint coordination: {}",
                                    self.inner.debug_snapshot()
                                );
                                self.inner.recorder.set_status(|| line);
                            }
                            if waited > self.inner.cfg.deadlock_timeout {
                                self.inner.recorder.record(|| crate::recorder::Event::Stall {
                                    what: "checkpoint coordination".into(),
                                });
                                let line = format!(
                                    "stuck in checkpoint coordination: {}",
                                    self.inner.debug_snapshot()
                                );
                                self.inner.recorder.set_status(|| line);
                                return Err(MpiError::DeadlockSuspected(format!(
                                    "rank {} stuck in checkpoint coordination; {}",
                                    self.inner.me,
                                    self.inner.debug_snapshot()
                                )));
                            }
                        }
                        Err(crate::transport::RecvTimeoutErr::Disconnected) => {
                            return Err(MpiError::Killed)
                        }
                    }
                }
            }
        }
    }

    /// Application state restored from the checkpoint this rank restarted
    /// from (None on the initial execution or when no checkpoint exists).
    pub fn restore<S: Decode>(&mut self) -> Result<Option<S>> {
        match self.ft.restored_app_state() {
            None => Ok(None),
            Some(bytes) => Ok(Some(crate::wire::from_bytes(&bytes)?)),
        }
    }

    // ---------------------------------------------------------- failures --

    /// A crash-injection site. Applications call this once per iteration;
    /// the failure controller decides whether this rank dies here.
    pub fn failure_point(&mut self) -> Result<()> {
        self.inner.check_killed()?;
        self.inner.failure_points += 1;
        let n = self.inner.failure_points;
        // Plans fire at most once (the controller removes them), so a
        // restarted rank re-passing the same point cannot re-crash on the
        // same plan — but a *different* plan can hit a recovered cluster.
        // The occurrence count restarts with the incarnation.
        let site = crate::failure::FailureSite::FailurePoint { occurrence: n };
        if self.inner.failure.should_fail_at(self.inner.me, site) {
            self.inner
                .failure
                .report(crate::failure::RuntimeEvent::Failure { rank: self.inner.me });
            return Err(MpiError::Killed);
        }
        Ok(())
    }

    // ------------------------------------------------------------- misc --

    /// True once the runtime has begun global shutdown (all application
    /// ranks finished) — service ranks exit their pump loop on this.
    pub fn shutting_down(&self) -> bool {
        self.inner.global_done.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Drive progress until a packet is handled or `dur` passes, whichever
    /// comes first (service ranks, `Iprobe` loops, tests). Returns
    /// `Err(Killed)` if the rank was killed while pumping.
    pub fn pump(&mut self, dur: Duration) -> Result<()> {
        let deadline = Instant::now() + dur;
        let seen = self.inner.handled;
        block_until(
            &mut self.inner,
            self.ft.as_mut(),
            |i| Ok(i.handled != seen || Instant::now() >= deadline),
            "pump",
        )
    }

    /// Internal: irecv with an already world-resolved source.
    pub(crate) fn irecv_resolved(
        &mut self,
        comm: CommId,
        src: Source,
        tag: TagSel,
    ) -> Result<RequestId> {
        self.inner.check_killed()?;
        let spec = RecvSpec { comm, src, tag, ident: self.inner.cur_ident };
        poll_all(&mut self.inner, self.ft.as_mut())?;
        let ft = &*self.ft;
        let admissible = |s: &RecvSpec, e: &crate::envelope::Envelope| ft.match_admissible(s, e);
        if let Some(arrived) = self.inner.engine.match_post(&spec, &admissible) {
            let req = self.inner.reqs.insert(ReqState::RecvPosted { spec });
            complete_match(&mut self.inner, req, arrived.env, arrived.body)?;
            Ok(req)
        } else {
            let req = self.inner.reqs.insert(ReqState::RecvPosted { spec });
            self.inner.engine.post(req, spec);
            Ok(req)
        }
    }
}
