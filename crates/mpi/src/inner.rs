//! Rank internals and the progress engine.
//!
//! `RankInner` owns everything a rank needs to communicate: its mailbox, the
//! router, sequence counters, the matching engine and the request table. The
//! free functions in this module (`poll_all`, `block_until`, `handle_packet`)
//! form the progress engine; they take the inner state and the
//! fault-tolerance layer as two separate borrows so hooks can re-enter the
//! transmit path.

use crate::config::RuntimeConfig;
use crate::envelope::{Envelope, Message, Packet, Transfer};
use crate::error::{MpiError, Result};
use crate::failure::FailureShared;
use crate::ft::{ArrivalAction, FtCtx, FtLayer};
use crate::matching::{Arrived, ArrivedBody, MatchEngine};
use crate::recorder::{Disposition, Event, Recorder};
use crate::request::{RecvSpec, ReqState, RequestId, RequestTable, Status};
use crate::router::Router;
use crate::stats::RankStats;
use crate::transport::{Mailbox, RecvTimeoutErr};
use crate::types::{CommId, MatchIdent, RankId, Tag};
use crate::util::XorShift64;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A communicator as known by one member rank.
#[derive(Clone, Debug)]
pub struct CommInfo {
    /// Context id.
    pub id: CommId,
    /// Members as world ranks, ordered by communicator rank.
    pub members: Vec<RankId>,
    /// This rank's position (communicator rank).
    pub my_pos: usize,
    /// How many `comm_split`s have been performed on this communicator
    /// (feeds deterministic child-id derivation).
    pub split_seq: u64,
    /// How many collective operations have run on this communicator
    /// (feeds the collective tag).
    pub coll_seq: u64,
}

impl CommInfo {
    /// Translate a communicator rank to a world rank.
    pub fn world_rank(&self, pos: usize) -> Result<RankId> {
        self.members
            .get(pos)
            .copied()
            .ok_or_else(|| MpiError::invalid(format!("comm rank {pos} out of range")))
    }

    /// Translate a world rank to a communicator rank.
    pub fn pos_of(&self, world: RankId) -> Option<usize> {
        self.members.iter().position(|&r| r == world)
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// A sender-side rendezvous transfer awaiting CTS.
pub(crate) struct PendingRdv {
    pub(crate) env: Envelope,
    pub(crate) payload: Bytes,
    /// Local request to complete when the payload ships; `None` for
    /// fire-and-forget protocol transfers (log replay).
    pub(crate) req: Option<RequestId>,
}

/// Everything one rank owns.
pub struct RankInner {
    /// World id of this rank.
    pub me: RankId,
    /// Number of application ranks.
    pub world: usize,
    /// Runtime configuration.
    pub cfg: Arc<RuntimeConfig>,
    /// Restart epoch (0 = first execution).
    pub epoch: u32,
    pub(crate) mailbox: Box<dyn Mailbox>,
    pub(crate) router: Arc<Router>,
    /// Last sequence number sent per outgoing channel `(dst, comm)`.
    pub(crate) send_seq: HashMap<(RankId, CommId), u64>,
    /// Last envelope sequence number seen per incoming channel `(src, comm)`.
    pub(crate) recv_seen: HashMap<(RankId, CommId), u64>,
    pub(crate) engine: MatchEngine,
    pub(crate) reqs: RequestTable,
    pub(crate) pending_rdv: HashMap<u64, PendingRdv>,
    next_token: u64,
    pub(crate) comms: HashMap<CommId, CommInfo>,
    pub(crate) kill: Arc<AtomicBool>,
    pub(crate) global_done: Arc<AtomicBool>,
    /// Communication statistics.
    pub stats: RankStats,
    /// Identifier stamped on sends and receive requests (pattern API).
    pub(crate) cur_ident: MatchIdent,
    pub(crate) failure: Arc<FailureShared>,
    pub(crate) failure_points: u64,
    /// Lamport clock: incremented per send, advanced by arrivals.
    pub(crate) lamport: u64,
    /// Packets dispatched so far; a blocking wait that is not tied to one
    /// request (`pump`, `probe`) ends when this moves.
    pub(crate) handled: u64,
    perturb_rng: Option<XorShift64>,
    /// Flight-recorder handle (disabled unless the runtime enabled it).
    pub recorder: Recorder,
}

impl RankInner {
    /// Assemble the state for one rank thread.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: RankId,
        cfg: Arc<RuntimeConfig>,
        epoch: u32,
        mailbox: Box<dyn Mailbox>,
        router: Arc<Router>,
        kill: Arc<AtomicBool>,
        global_done: Arc<AtomicBool>,
        failure: Arc<FailureShared>,
    ) -> Self {
        let world = cfg.world_size;
        let mut comms = HashMap::new();
        if me.idx() < world {
            // Application ranks belong to the world communicator; service
            // ranks communicate via control messages only.
            comms.insert(
                crate::types::COMM_WORLD,
                CommInfo {
                    id: crate::types::COMM_WORLD,
                    members: (0..world as u32).map(RankId).collect(),
                    my_pos: me.idx(),
                    split_seq: 0,
                    coll_seq: 0,
                },
            );
        }
        let perturb_rng = cfg.perturb.as_ref().map(|p| {
            XorShift64::new(p.seed ^ (me.0 as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ epoch as u64)
        });
        RankInner {
            me,
            world,
            cfg,
            epoch,
            mailbox,
            router,
            send_seq: HashMap::new(),
            recv_seen: HashMap::new(),
            engine: MatchEngine::new(),
            reqs: RequestTable::new(),
            pending_rdv: HashMap::new(),
            next_token: 1,
            comms,
            kill,
            global_done,
            stats: RankStats::new(me, world),
            cur_ident: MatchIdent::DEFAULT,
            failure,
            failure_points: 0,
            lamport: 0,
            handled: 0,
            perturb_rng,
            recorder: Recorder::disabled(),
        }
    }

    /// Look up a communicator.
    pub(crate) fn comm(&self, id: CommId) -> Result<&CommInfo> {
        self.comms.get(&id).ok_or_else(|| MpiError::invalid(format!("unknown communicator {id:?}")))
    }

    /// Check the kill flag (crash injection / cluster rollback).
    #[inline]
    pub(crate) fn check_killed(&self) -> Result<()> {
        if self.kill.load(Ordering::Relaxed) {
            Err(MpiError::Killed)
        } else {
            Ok(())
        }
    }

    /// Allocate the next sequence number on channel `(dst, comm)`.
    pub(crate) fn next_seq(&mut self, dst: RankId, comm: CommId) -> u64 {
        let c = self.send_seq.entry((dst, comm)).or_insert(0);
        *c += 1;
        *c
    }

    /// Build the envelope for a fresh application send.
    pub(crate) fn next_env(
        &mut self,
        dst: RankId,
        comm: CommId,
        tag: Tag,
        plen: usize,
    ) -> Envelope {
        let seqnum = self.next_seq(dst, comm);
        self.lamport += 1;
        Envelope {
            src: self.me,
            dst,
            comm,
            tag,
            seqnum,
            plen: plen as u64,
            lamport: self.lamport,
            ident: self.cur_ident,
        }
    }

    /// Inject the configured perturbation delay (determinism testing).
    fn maybe_perturb(&mut self) {
        let Some(p) = self.cfg.perturb.clone() else { return };
        let Some(rng) = self.perturb_rng.as_mut() else { return };
        if rng.unit_f64() < p.probability && p.max_delay_us > 0 {
            let us = rng.below(p.max_delay_us.max(1));
            std::thread::sleep(Duration::from_micros(us));
        }
    }

    /// Push a raw packet to `dst`'s mailbox.
    pub(crate) fn transmit_packet(&self, dst: RankId, pkt: Packet) {
        self.router.send(dst, pkt);
    }

    /// Transmit an application message, choosing eager or rendezvous by size.
    ///
    /// Returns `Some(token)` for rendezvous transfers (completion is async),
    /// `None` when the message shipped eagerly. `req` (if any) is completed
    /// immediately for eager sends, or when CTS arrives for rendezvous.
    pub(crate) fn transmit_message(
        &mut self,
        env: Envelope,
        payload: Bytes,
        req: Option<RequestId>,
    ) -> Option<u64> {
        self.transmit_message_opts(env, payload, req, false)
    }

    /// Like [`RankInner::transmit_message`] with an optional rendezvous
    /// override: `force_rdv` ships even small payloads via RTS/CTS/Data, so
    /// the sender learns when the receiver *matched* the message (a delivery
    /// receipt — HydEE's coordinated replay needs one).
    pub(crate) fn transmit_message_opts(
        &mut self,
        env: Envelope,
        payload: Bytes,
        req: Option<RequestId>,
        force_rdv: bool,
    ) -> Option<u64> {
        self.maybe_perturb();
        if !force_rdv && payload.len() <= self.cfg.eager_threshold {
            self.transmit_packet(env.dst, Packet::Msg(Transfer::Eager(Message { env, payload })));
            if let Some(r) = req {
                let st = Status::send_done(env.dst, env.tag, env.plen as usize);
                self.reqs.complete(r, st, None).expect("send request valid");
            }
            None
        } else {
            let token = self.next_token;
            self.next_token += 1;
            self.pending_rdv.insert(token, PendingRdv { env, payload, req });
            self.transmit_packet(env.dst, Packet::Msg(Transfer::Rts { env, token }));
            Some(token)
        }
    }

    /// Receiver-side cleanup when peer `peer` has been restarted: every
    /// pending rendezvous announced by its dead incarnation will never
    /// complete (the CTS token dangles). Unexpected RTS entries from `peer`
    /// are dropped; matched-awaiting-data requests are re-armed at their
    /// original matching priority. Returns the affected envelopes — the
    /// protocol asks the restarted peer to replay exactly these payloads.
    pub(crate) fn purge_rdv_from_peer(&mut self, peer: RankId) -> Vec<Envelope> {
        let mut purged = self.engine.purge_rts_from(peer);
        let mut rearm: Vec<(RequestId, Envelope, RecvSpec)> = Vec::new();
        for (id, st) in self.reqs.iter_mut() {
            if let ReqState::RecvMatched { env, spec } = st {
                if env.src == peer {
                    rearm.push((id, *env, *spec));
                }
            }
        }
        for (id, env, spec) in rearm {
            *self.reqs.get_mut(id).expect("request exists") = ReqState::RecvPosted { spec };
            self.engine.post_front(id, spec);
            purged.push(env);
        }
        purged
    }

    /// Sender-side cleanup when peer `peer` has been restarted: rendezvous
    /// transfers towards it will never be CTSed by the dead incarnation.
    /// Application send requests complete (their payload is in the protocol
    /// log and will be replayed); fire-and-forget replay transfers are
    /// dropped and their tokens returned so the replay window can shrink.
    pub(crate) fn cancel_pending_rdv_to(&mut self, peer: RankId) -> Vec<u64> {
        let keys: Vec<u64> =
            self.pending_rdv.iter().filter(|(_, p)| p.env.dst == peer).map(|(&k, _)| k).collect();
        let mut replay_tokens = Vec::new();
        for k in keys {
            let p = self.pending_rdv.remove(&k).expect("key present");
            match p.req {
                Some(r) => {
                    let st = Status::send_done(p.env.dst, p.env.tag, p.env.plen as usize);
                    self.reqs.complete(r, st, None).expect("send request valid");
                }
                None => replay_tokens.push(k),
            }
        }
        replay_tokens
    }

    /// One-line diagnostic snapshot for deadlock reports: what is posted,
    /// what arrived unmatched, and the per-channel positions.
    pub(crate) fn debug_snapshot(&self) -> String {
        let posted: Vec<String> = self
            .engine
            .posted_iter()
            .map(|(id, spec)| {
                format!("{id:?}:{:?}/{:?}t{:?}i{:?}", spec.src, spec.comm, spec.tag, spec.ident)
            })
            .collect();
        let unexpected: Vec<String> = self
            .engine
            .unexpected_iter()
            .map(|a| {
                format!(
                    "{}->{} t{} s{} i{:?}{}",
                    a.env.src,
                    a.env.dst,
                    a.env.tag,
                    a.env.seqnum,
                    a.env.ident,
                    if a.is_pending_rts() { " (rts)" } else { "" }
                )
            })
            .collect();
        let mut seen: Vec<String> = self
            .recv_seen
            .iter()
            .map(|(&(src, comm), &s)| format!("{src}/{comm:?}<={s}"))
            .collect();
        seen.sort();
        let mut sent: Vec<String> =
            self.send_seq.iter().map(|(&(dst, comm), &s)| format!("{dst}/{comm:?}=>{s}")).collect();
        sent.sort();
        format!(
            "posted=[{}] unexpected=[{}] recv_seen=[{}] send_seq=[{}] live_reqs={} pending_rdv={}",
            posted.join(", "),
            unexpected.join(", "),
            seen.join(", "),
            sent.join(", "),
            self.reqs.live(),
            self.pending_rdv.len()
        )
    }

    /// Send a control message (never perturbed, not in statistics).
    pub(crate) fn send_ctrl(&self, to: RankId, kind: u16, data: Vec<u8>) {
        self.recorder.record(|| Event::CtrlSent { to, kind });
        self.transmit_packet(
            to,
            Packet::Ctrl(crate::envelope::CtrlMsg { from: self.me, kind, data: Bytes::from(data) }),
        );
    }
}

/// Process every packet currently available without blocking.
/// Returns how many packets were handled.
pub(crate) fn poll_all(inner: &mut RankInner, ft: &mut dyn FtLayer) -> Result<usize> {
    let mut n = 0;
    loop {
        match inner.mailbox.try_recv() {
            Some(pkt) => {
                handle_packet(inner, ft, pkt)?;
                n += 1;
            }
            None => return Ok(n),
        }
    }
}

/// Block until `cond` holds, driving progress. `what` names the operation for
/// deadlock reports. Communication time is accounted to the rank's stats.
pub(crate) fn block_until(
    inner: &mut RankInner,
    ft: &mut dyn FtLayer,
    mut cond: impl FnMut(&mut RankInner) -> Result<bool>,
    what: &str,
) -> Result<()> {
    let start = Instant::now();
    // While waiting, periodically publish the wait state to the flight
    // recorder so a watchdog dump shows every stuck rank's current
    // watermarks, not just the first rank to time out.
    let mut next_status = Duration::from_secs(1);
    let result = loop {
        poll_all(inner, ft)?;
        match cond(inner) {
            Ok(true) => break Ok(()),
            Ok(false) => {}
            Err(e) => break Err(e),
        }
        if let Err(e) = inner.check_killed() {
            break Err(e);
        }
        match inner.mailbox.recv_timeout(inner.cfg.poll_interval) {
            Ok(pkt) => {
                if let Err(e) = handle_packet(inner, ft, pkt) {
                    break Err(e);
                }
            }
            Err(RecvTimeoutErr::Timeout) => {
                let waited = start.elapsed();
                if inner.recorder.is_enabled() && waited >= next_status {
                    next_status = waited + Duration::from_secs(1);
                    let line = format!("waiting in {what}: {}", inner.debug_snapshot());
                    inner.recorder.set_status(|| line);
                }
                if waited > inner.cfg.deadlock_timeout {
                    inner.recorder.record(|| Event::Stall { what: what.to_string() });
                    let line = format!("stuck in {what}: {}", inner.debug_snapshot());
                    inner.recorder.set_status(|| line);
                    break Err(MpiError::DeadlockSuspected(format!(
                        "rank {} stuck in {what} for {:?}; {}",
                        inner.me,
                        inner.cfg.deadlock_timeout,
                        inner.debug_snapshot()
                    )));
                }
            }
            Err(RecvTimeoutErr::Disconnected) => {
                // Our mailbox was replaced: we are being restarted.
                break Err(MpiError::Killed);
            }
        }
    };
    inner.stats.comm_time += start.elapsed();
    result
}

/// Dispatch one packet.
pub(crate) fn handle_packet(
    inner: &mut RankInner,
    ft: &mut dyn FtLayer,
    pkt: Packet,
) -> Result<()> {
    inner.handled += 1;
    match pkt {
        Packet::Msg(Transfer::Eager(msg)) => {
            arrival(inner, ft, msg.env, ArrivedBody::Eager(msg.payload))
        }
        Packet::Msg(Transfer::Rts { env, token }) => {
            arrival(inner, ft, env, ArrivedBody::Rts { token })
        }
        Packet::Msg(Transfer::Cts { token, recv_req, dst }) => {
            let Some(p) = inner.pending_rdv.remove(&token) else {
                // Stale CTS from before a rollback; the transfer no longer
                // exists. Safe to ignore: the replay path regenerates data.
                return Ok(());
            };
            if recv_req != crate::envelope::DISCARD_REQ {
                inner.transmit_packet(
                    dst,
                    Packet::Msg(Transfer::Data { env: p.env, recv_req, payload: p.payload }),
                );
            }
            match p.req {
                Some(r) => {
                    let st = Status::send_done(p.env.dst, p.env.tag, p.env.plen as usize);
                    inner.reqs.complete(r, st, None)?;
                }
                None => {
                    let mut ctx = FtCtx { inner };
                    ft.on_transfer_complete(&mut ctx, token)?;
                }
            }
            Ok(())
        }
        Packet::Msg(Transfer::Data { env, recv_req, payload }) => {
            // Deliver only to the request that CTSed this exact envelope. A
            // crash can leave a stale Data in flight: the dead incarnation
            // CTSed with a request id that means something else entirely in
            // the new incarnation (ids restart at zero). The recovery
            // machinery re-delivers the payload through replay, so stale
            // data is safe to drop.
            let id = RequestId(recv_req);
            let fresh = matches!(
                inner.reqs.get(id),
                Ok(ReqState::RecvMatched { env: matched, .. }) if *matched == env
            );
            if !fresh {
                return Ok(());
            }
            inner.stats.on_recv(env.src, payload.len());
            inner.reqs.deliver_data(id, Message { env, payload })
        }
        Packet::Ctrl(c) => {
            inner.recorder.record(|| Event::CtrlRecv { from: c.from, kind: c.kind });
            let mut ctx = FtCtx { inner };
            ft.on_ctrl(&mut ctx, c)
        }
    }
}

/// Handle an arriving envelope (eager payload or RTS placeholder).
fn arrival(
    inner: &mut RankInner,
    ft: &mut dyn FtLayer,
    env: Envelope,
    body: ArrivedBody,
) -> Result<()> {
    {
        let mut ctx = FtCtx { inner };
        if ft.on_arrival(&mut ctx, &env) == ArrivalAction::Drop {
            inner.recorder.record(|| Event::Arrival {
                src: env.src,
                comm: env.comm.0,
                tag: env.tag,
                seqnum: env.seqnum,
                disposition: Disposition::Dropped,
            });
            if let ArrivedBody::Rts { token } = body {
                // A duplicate announcement of a payload we still lack means
                // the sender invalidated the transfer it announced first: it
                // cancels outbound rendezvous when it learns of our restart,
                // then re-sends the payload from its log. When the first
                // announcement reached *this* incarnation too, its token now
                // dangles at the sender — adopt the fresh one and discard
                // the stale one, else the later CTS pulls against a dead
                // token and the receive never completes.
                if let Some(stale) = inner.engine.rebind_rts(&env, token) {
                    inner.transmit_packet(
                        env.src,
                        Packet::Msg(Transfer::Cts {
                            token: stale,
                            recv_req: crate::envelope::DISCARD_REQ,
                            dst: inner.me,
                        }),
                    );
                    return Ok(());
                }
                // Same race, one step later: the stale announcement was
                // already matched and CTSed. Re-CTS with the live token; if
                // the old transfer was in fact still valid, the second Data
                // copy fails the request-state freshness check and is
                // dropped.
                let rearmed = inner.reqs.iter_mut().find_map(|(id, st)| match st {
                    ReqState::RecvMatched { env: m, .. }
                        if m.src == env.src && m.comm == env.comm && m.seqnum == env.seqnum =>
                    {
                        Some(id)
                    }
                    _ => None,
                });
                if let Some(id) = rearmed {
                    inner.transmit_packet(
                        env.src,
                        Packet::Msg(Transfer::Cts { token, recv_req: id.0, dst: inner.me }),
                    );
                    return Ok(());
                }
                // Payload already consumed: a dropped announcement must
                // still be answered, or the (re-)sender would wait for a CTS
                // forever — tell it to discard the transfer.
                inner.transmit_packet(
                    env.src,
                    Packet::Msg(Transfer::Cts {
                        token,
                        recv_req: crate::envelope::DISCARD_REQ,
                        dst: inner.me,
                    }),
                );
            }
            return Ok(());
        }
    }
    // Envelope-arrival watermark (per-channel LR). Replayed back-fills of
    // older seqnums must not regress it.
    let w = inner.recv_seen.entry((env.src, env.comm)).or_insert(0);
    *w = (*w).max(env.seqnum);
    inner.lamport = inner.lamport.max(env.lamport) + 1;

    let admissible = |spec: &RecvSpec, e: &Envelope| ft.match_admissible(spec, e);
    if let Some(req) = inner.engine.match_arrival(&env, &admissible) {
        inner.recorder.record(|| Event::Arrival {
            src: env.src,
            comm: env.comm.0,
            tag: env.tag,
            seqnum: env.seqnum,
            disposition: Disposition::Matched,
        });
        complete_match(inner, req, env, body)
    } else {
        inner.recorder.record(|| Event::Arrival {
            src: env.src,
            comm: env.comm.0,
            tag: env.tag,
            seqnum: env.seqnum,
            disposition: Disposition::Unexpected,
        });
        inner.engine.push_unexpected(Arrived { env, body });
        Ok(())
    }
}

/// A request and an arrived envelope matched: deliver or CTS.
pub(crate) fn complete_match(
    inner: &mut RankInner,
    req: RequestId,
    env: Envelope,
    body: ArrivedBody,
) -> Result<()> {
    match body {
        ArrivedBody::Eager(payload) => {
            inner.stats.on_recv(env.src, payload.len());
            inner.reqs.complete(req, Status::of(&env), Some(payload))
        }
        ArrivedBody::Rts { token } => {
            let spec = match inner.reqs.get(req)? {
                ReqState::RecvPosted { spec } => *spec,
                other => {
                    return Err(MpiError::InvalidState(format!(
                        "rendezvous match against non-posted request: {other:?}"
                    )))
                }
            };
            *inner.reqs.get_mut(req)? = ReqState::RecvMatched { env, spec };
            inner.transmit_packet(
                env.src,
                Packet::Msg(Transfer::Cts { token, recv_req: req.0, dst: inner.me }),
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::NoFt;
    use crate::transport::dead_mailbox;
    use crate::types::COMM_WORLD;
    use crossbeam_channel::unbounded;

    fn make_inner(me: u32, world: usize) -> (RankInner, Vec<Box<dyn Mailbox>>) {
        let cfg = Arc::new(RuntimeConfig::new(world));
        let (router, mut rxs) = Router::new(world);
        let mailbox = std::mem::replace(&mut rxs[me as usize], dead_mailbox());
        let (evt_tx, _evt_rx) = unbounded();
        let failure = Arc::new(FailureShared::new(world, evt_tx));
        let inner = RankInner::new(
            RankId(me),
            cfg,
            0,
            mailbox,
            Arc::new(router),
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
            failure,
        );
        (inner, rxs)
    }

    #[test]
    fn seqnums_are_per_channel() {
        let (mut inner, _rxs) = make_inner(0, 3);
        assert_eq!(inner.next_seq(RankId(1), COMM_WORLD), 1);
        assert_eq!(inner.next_seq(RankId(1), COMM_WORLD), 2);
        assert_eq!(inner.next_seq(RankId(2), COMM_WORLD), 1);
        assert_eq!(inner.next_seq(RankId(1), CommId(9)), 1);
    }

    #[test]
    fn eager_send_completes_immediately() {
        let (mut inner, rxs) = make_inner(0, 2);
        let env = inner.next_env(RankId(1), COMM_WORLD, 5, 3);
        let req = inner.reqs.insert(ReqState::SendPending { env });
        let tok = inner.transmit_message(env, Bytes::from_static(b"abc"), Some(req));
        assert!(tok.is_none());
        assert!(inner.reqs.is_done(req).unwrap());
        assert!(matches!(rxs[1].try_recv().unwrap(), Packet::Msg(Transfer::Eager(_))));
    }

    #[test]
    fn large_send_goes_rendezvous() {
        let (mut inner, rxs) = make_inner(0, 2);
        let big = vec![7u8; 64 * 1024];
        let env = inner.next_env(RankId(1), COMM_WORLD, 5, big.len());
        let tok = inner.transmit_message(env, Bytes::from(big), None);
        assert!(tok.is_some());
        assert!(matches!(rxs[1].try_recv().unwrap(), Packet::Msg(Transfer::Rts { .. })));
        assert_eq!(inner.pending_rdv.len(), 1);
    }

    #[test]
    fn arrival_matches_posted_recv() {
        let (mut inner, _rxs) = make_inner(1, 2);
        let mut ft = NoFt;
        let spec = RecvSpec {
            comm: COMM_WORLD,
            src: crate::types::Source::Any,
            tag: crate::types::TagSel::Tag(5),
            ident: MatchIdent::DEFAULT,
        };
        let req = inner.reqs.insert(ReqState::RecvPosted { spec });
        inner.engine.post(req, spec);
        let env = Envelope {
            src: RankId(0),
            dst: RankId(1),
            comm: COMM_WORLD,
            tag: 5,
            seqnum: 1,
            plen: 2,
            lamport: 1,
            ident: MatchIdent::DEFAULT,
        };
        handle_packet(
            &mut inner,
            &mut ft,
            Packet::Msg(Transfer::Eager(Message { env, payload: Bytes::from_static(b"hi") })),
        )
        .unwrap();
        let (st, payload) = inner.reqs.take_done(req).unwrap();
        assert_eq!(st.src, RankId(0));
        assert_eq!(payload.unwrap(), Bytes::from_static(b"hi"));
        assert_eq!(inner.recv_seen[&(RankId(0), COMM_WORLD)], 1);
    }

    #[test]
    fn unmatched_arrival_goes_unexpected() {
        let (mut inner, _rxs) = make_inner(1, 2);
        let mut ft = NoFt;
        let env = Envelope {
            src: RankId(0),
            dst: RankId(1),
            comm: COMM_WORLD,
            tag: 5,
            seqnum: 1,
            plen: 0,
            lamport: 1,
            ident: MatchIdent::DEFAULT,
        };
        handle_packet(
            &mut inner,
            &mut ft,
            Packet::Msg(Transfer::Eager(Message { env, payload: Bytes::new() })),
        )
        .unwrap();
        assert_eq!(inner.engine.unexpected_len(), 1);
    }

    #[test]
    fn stale_cts_ignored() {
        let (mut inner, _rxs) = make_inner(0, 2);
        let mut ft = NoFt;
        handle_packet(
            &mut inner,
            &mut ft,
            Packet::Msg(Transfer::Cts { token: 999, recv_req: 0, dst: RankId(1) }),
        )
        .unwrap();
    }

    /// FT stub that refuses every arrival, standing in for the duplicate
    /// filter of a recovery protocol.
    struct DropArrivals;
    impl FtLayer for DropArrivals {
        fn name(&self) -> &'static str {
            "drop-arrivals"
        }
        fn on_arrival(&mut self, _ctx: &mut FtCtx<'_>, _env: &Envelope) -> ArrivalAction {
            ArrivalAction::Drop
        }
    }

    fn rdv_env(plen: usize) -> Envelope {
        Envelope {
            src: RankId(0),
            dst: RankId(1),
            comm: COMM_WORLD,
            tag: 5,
            seqnum: 1,
            plen: plen as u64,
            lamport: 1,
            ident: MatchIdent::DEFAULT,
        }
    }

    #[test]
    fn dropped_duplicate_rts_rebinds_queued_token() {
        // The sender re-announced a payload whose first RTS is already
        // queued here: the first token is the one the sender cancelled, so
        // the queue entry must adopt the fresh token and the stale one be
        // CTS-discarded.
        let (mut inner, rxs) = make_inner(1, 2);
        let mut ft = DropArrivals;
        let env = rdv_env(4096);
        inner.engine.push_unexpected(Arrived { env, body: ArrivedBody::Rts { token: 7 } });
        handle_packet(&mut inner, &mut ft, Packet::Msg(Transfer::Rts { env, token: 8 })).unwrap();
        match rxs[0].try_recv().unwrap() {
            Packet::Msg(Transfer::Cts { token, recv_req, .. }) => {
                assert_eq!(token, 7);
                assert_eq!(recv_req, crate::envelope::DISCARD_REQ);
            }
            other => panic!("expected discard CTS, got {other:?}"),
        }
        let queued = inner.engine.unexpected_iter().next().unwrap();
        assert!(matches!(queued.body, ArrivedBody::Rts { token: 8 }));
    }

    #[test]
    fn dropped_duplicate_rts_recovers_matched_recv() {
        // One step later in the same race: the stale announcement was
        // already matched and CTSed. The duplicate must re-CTS with the
        // live token so the payload can still be pulled.
        let (mut inner, rxs) = make_inner(1, 2);
        let mut ft = DropArrivals;
        let env = rdv_env(4096);
        let spec = RecvSpec {
            comm: COMM_WORLD,
            src: crate::types::Source::Rank(RankId(0)),
            tag: crate::types::TagSel::Tag(5),
            ident: MatchIdent::DEFAULT,
        };
        let req = inner.reqs.insert(ReqState::RecvMatched { env, spec });
        handle_packet(&mut inner, &mut ft, Packet::Msg(Transfer::Rts { env, token: 9 })).unwrap();
        match rxs[0].try_recv().unwrap() {
            Packet::Msg(Transfer::Cts { token, recv_req, .. }) => {
                assert_eq!(token, 9);
                assert_eq!(recv_req, req.0);
            }
            other => panic!("expected re-CTS, got {other:?}"),
        }
        // The fresh Data completes the receive as usual.
        let payload = Bytes::from(vec![3u8; 4096]);
        handle_packet(
            &mut inner,
            &mut ft,
            Packet::Msg(Transfer::Data { env, recv_req: req.0, payload: payload.clone() }),
        )
        .unwrap();
        let (st, got) = inner.reqs.take_done(req).unwrap();
        assert_eq!(st.src, RankId(0));
        assert_eq!(got.unwrap(), payload);
    }

    #[test]
    fn dropped_rts_with_no_pending_state_is_discarded() {
        // Payload already consumed: the duplicate announcement is answered
        // with a discard CTS so the sender's transfer resolves.
        let (mut inner, rxs) = make_inner(1, 2);
        let mut ft = DropArrivals;
        handle_packet(
            &mut inner,
            &mut ft,
            Packet::Msg(Transfer::Rts { env: rdv_env(4096), token: 3 }),
        )
        .unwrap();
        match rxs[0].try_recv().unwrap() {
            Packet::Msg(Transfer::Cts { token, recv_req, .. }) => {
                assert_eq!(token, 3);
                assert_eq!(recv_req, crate::envelope::DISCARD_REQ);
            }
            other => panic!("expected discard CTS, got {other:?}"),
        }
    }

    #[test]
    fn kill_flag_aborts_block() {
        let (mut inner, _rxs) = make_inner(0, 2);
        let mut ft = NoFt;
        inner.kill.store(true, Ordering::SeqCst);
        let err = block_until(&mut inner, &mut ft, |_| Ok(false), "test").unwrap_err();
        assert!(err.is_killed());
    }

    #[test]
    fn deadlock_timeout_fires() {
        let (mut inner, _rxs) = make_inner(0, 2);
        let cfg = RuntimeConfig::new(2).with_deadlock_timeout(Duration::from_millis(30));
        inner.cfg = Arc::new(cfg);
        let mut ft = NoFt;
        let err = block_until(&mut inner, &mut ft, |_| Ok(false), "nothing").unwrap_err();
        assert!(matches!(err, MpiError::DeadlockSuspected(_)));
    }

    #[test]
    fn comm_info_translation() {
        let (inner, _rxs) = make_inner(1, 4);
        let w = inner.comm(COMM_WORLD).unwrap();
        assert_eq!(w.size(), 4);
        assert_eq!(w.world_rank(2).unwrap(), RankId(2));
        assert_eq!(w.pos_of(RankId(3)), Some(3));
        assert!(w.world_rank(9).is_err());
        assert!(inner.comm(CommId(42)).is_err());
    }
}
