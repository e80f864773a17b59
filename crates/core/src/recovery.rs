//! Recovery (Algorithm 1, lines 16-26, with the rendezvous refinements of
//! DESIGN.md §5) as one pure function, [`Recovery::step`]: `(state, log,
//! input, now)` to the next state, the row of [`ROWS`] it took, and the
//! [`Action`]s the layer executes.
//! It reads no runtime and no clock: what it needs from the runtime arrives
//! in the input, and the sender log is the one structure it reads and
//! writes. An input the state cannot take is an error naming both. DESIGN.md
//! §5 has the transition table; [`crate::replay`] the replay window.

use crate::ctrl::{
    LastMessage, LastMessageChannel, LogGc, Rollback, RollbackChannel, KIND_GRANT_DONE,
    KIND_GRANT_REQ, KIND_LASTMSG, KIND_ROLLBACK,
};
use crate::log::MessageLog;
use crate::metrics::Metrics;
use mini_mpi::envelope::{Envelope, Message};
use mini_mpi::error::{MpiError, Result};
use mini_mpi::hash::FxHashMap;
use mini_mpi::recorder::Event;
use mini_mpi::types::{ChannelId, CommId, RankId};
use mini_mpi::wire::to_bytes;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// The rows of recovery's transition table, one per input: every step that
/// emits an action takes its input's row, and the layer passes a failure
/// site there. A step that emits nothing (a completion of no replay's
/// transfer, a grant request's rendezvous token) takes none.
pub const ROWS: &[&str] = &[
    "recovery/Start",
    "recovery/Rollback",
    "recovery/LastMessage",
    "recovery/Grant",
    "recovery/Sent",
    "recovery/TransferComplete",
    "recovery/LogGc",
    "recovery/Send",
    "recovery/Arrival",
];

/// A rank's watermarks on the channels to or from one peer, per communicator.
pub type Marks = BTreeMap<CommId, u64>;

/// `map`'s watermarks on the channels to or from `peer`.
pub fn marks(map: &HashMap<(RankId, CommId), u64>, peer: RankId) -> Marks {
    map.iter().filter(|((p, _), _)| *p == peer).map(|(&(_, comm), &s)| (comm, s)).collect()
}

/// `(peer, comm)`'s recovery state, both directions: made when recovery
/// first touches the channel, so absent in every failure-free run.
#[derive(Clone, Debug, Default)]
struct Channel {
    /// `LS`: the last seqnum the peer confirmed having on my channel to it;
    /// my re-sends at or below it are suppressed.
    ls: u64,
    /// LS exceptions: seqnums at or below `ls` whose payload the peer still
    /// needs and re-execution will regenerate: not suppressed.
    resend: BTreeSet<u64>,
    /// Seqnums at or below my watermark on the peer's channel to me whose
    /// payload is still owed to me: delivered, not dropped as duplicates.
    owed: BTreeSet<u64>,
}

/// The coordinated (HydEE) policy's one grant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Grant {
    #[default]
    Idle,
    /// GRANT_REQ sent for the head of this destination's queue.
    Requested(RankId),
    /// The granted replay took a rendezvous: GRANT_DONE waits for its token.
    InFlight(RankId, u64),
}

/// An event recovery takes.
#[derive(Clone, Debug)]
pub enum Input {
    /// This incarnation restarted from a cut: its epoch, the ranks of the
    /// other clusters, and the cut's receive watermarks and owed payloads.
    Start {
        epoch: u32,
        peers: Vec<RankId>,
        seen: HashMap<(RankId, CommId), u64>,
        owed: Vec<(ChannelId, u64)>,
    },
    /// A peer's ROLLBACK, with what the runtime purged first: the
    /// announcements whose payload the peer's old incarnation still owed me,
    /// my cancelled replay transfers to it, and my receive watermarks on its
    /// channels.
    Rollback {
        from: RankId,
        rb: Rollback,
        purged: Vec<Envelope>,
        cancelled: Vec<u64>,
        seen: Marks,
    },
    LastMessage(RankId, LastMessage),
    Grant,
    /// An [`Action::ReplaySend`] left: its rendezvous token, if it took one.
    Sent(Option<u64>),
    /// A replay transfer's payload shipped.
    TransferComplete(u64),
    LogGc(RankId, LogGc),
    /// An application send that [`Recovery::holds`].
    Send(Message),
    /// An arrival that is not its channel's next seqnum, with the channel's
    /// receive watermark.
    Arrival(Envelope, u64),
}

/// What the layer does for a transition, in order.
#[derive(Clone, Debug)]
pub enum Action {
    /// A recovery control frame (counted in `ctrl_msgs`).
    Ctrl(RankId, u16, Vec<u8>),
    /// Re-send a queued message; yields [`Input::Sent`]. `drained_us` is
    /// set when this empties a queue a Rollback filled (`restore_replay`).
    ReplaySend {
        msg: Message,
        drained_us: Option<u64>,
    },
    /// The send verdicts.
    Forward,
    Suppress,
    /// The arrival verdicts.
    Deliver,
    Drop,
    Record(Event),
    /// Add to a run-wide counter.
    Count(fn(&Metrics) -> &AtomicU64, u64),
}

type Out = Vec<Action>;

/// One rank's recovery state.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    me: RankId,
    /// `Some` under the coordinated (HydEE) policy.
    coordinator: Option<RankId>,
    /// This incarnation's restart epoch once it took `Start`; 0 before.
    epoch: u32,
    channels: FxHashMap<(RankId, CommId), Channel>,
    /// The peers this incarnation sent a ROLLBACK to, each with the latest
    /// epoch of theirs whose ROLLBACK it mirrored (once per peer epoch).
    peers: BTreeMap<RankId, u32>,
    grant: Grant,
    /// Replay queues per destination, in global send order, each with when
    /// a Rollback filled it (the ordering fence opens one with none).
    queues: BTreeMap<RankId, (VecDeque<Message>, Option<Instant>)>,
    /// Rendezvous replays holding a window slot.
    outstanding: BTreeSet<u64>,
    window: usize,
}

impl Recovery {
    /// `me`'s recovery: replays windowed by `window`, or granted one at a
    /// time by `coordinator`.
    pub fn new(me: RankId, coordinator: Option<RankId>, window: usize) -> Self {
        Recovery { me, coordinator, window: window.max(1), ..Recovery::default() }
    }

    /// Whether an application send to another cluster must take the step:
    /// its seqnum is at or below `LS`, or replays to its destination are
    /// queued. Never, in a failure-free run.
    #[inline]
    pub fn holds(&self, env: &Envelope) -> bool {
        let ls = self.channels.get(&(env.dst, env.comm)).map_or(0, |c| c.ls);
        env.seqnum <= ls || self.queued(env.dst)
    }

    /// The payloads still owed to me (a checkpoint records them as missing
    /// markers).
    pub fn owed(&self) -> impl Iterator<Item = (ChannelId, u64)> + '_ {
        let me = self.me;
        self.channels.iter().flat_map(move |(&(src, comm), c)| {
            c.owed.iter().map(move |&s| (ChannelId::new(src, me, comm), s))
        })
    }

    /// The state after `input` at `now`, the row it took (`None` when it
    /// emits nothing), and what the layer must do for it.
    pub fn step(
        mut self,
        log: &mut MessageLog,
        input: Input,
        now: Instant,
    ) -> Result<(Recovery, Option<&'static str>, Out)> {
        let mut out = Vec::new();
        let row = match input {
            Input::Start { .. } => "recovery/Start",
            Input::Rollback { .. } => "recovery/Rollback",
            Input::LastMessage(..) => "recovery/LastMessage",
            Input::Grant => "recovery/Grant",
            Input::Sent(_) => "recovery/Sent",
            Input::TransferComplete(_) => "recovery/TransferComplete",
            Input::LogGc(..) => "recovery/LogGc",
            Input::Send(_) => "recovery/Send",
            Input::Arrival(..) => "recovery/Arrival",
        };
        match input {
            Input::Start { epoch, .. } if self.epoch != 0 || epoch == 0 => {
                return Err(self.refuse(&format!("Start(epoch {epoch})")));
            }
            // Algorithm 1 lines 19-20, to every rank of another cluster: the
            // restarted rank cannot know which of them log for it.
            Input::Start { epoch, peers, seen, owed } => {
                self.epoch = epoch;
                for (chan, s) in owed {
                    self.chan(chan.src, chan.comm).owed.insert(s);
                }
                for peer in peers {
                    self.peers.insert(peer, 0);
                    let body = self.rollback_for(peer, &marks(&seen, peer));
                    out.push(Action::Ctrl(peer, KIND_ROLLBACK, body));
                }
            }
            // Algorithm 1 lines 21-24: the peer's old incarnation is gone.
            Input::Rollback { from, rb, purged, cancelled, seen } => {
                out.push(Action::Record(Event::RollbackRecv { from, epoch: rb.epoch }));
                for env in &purged {
                    self.chan(from, env.comm).owed.insert(env.seqnum);
                }
                self.queues.remove(&from);
                cancelled.iter().for_each(|t| _ = self.outstanding.remove(t));
                if matches!(self.grant, Grant::InFlight(dst, _) if dst == from) {
                    self.grant_done(now, &mut out); // its transfer was cancelled
                }
                // Its receive state regressed to exactly the `lr` it
                // announces: an `LS` learned from its old incarnation would
                // suppress sends the new one never received.
                for (_, c) in self.channels.iter_mut().filter(|((p, _), _)| *p == from) {
                    (c.ls, c.resend) = (0, BTreeSet::new());
                }
                for ch in &rb.channels {
                    self.chan(from, CommId(ch.comm)).ls = ch.lr;
                    // The replay set below holds the logged ones.
                    self.exempt(log, from, CommId(ch.comm), &ch.missing);
                }
                let channels = seen.iter().map(|(&comm, &last_recv)| LastMessageChannel {
                    comm: comm.0,
                    last_recv,
                    incomplete: self.owed_from(from, comm),
                });
                let lm = LastMessage { channels: channels.collect() };
                out.push(Action::Ctrl(from, KIND_LASTMSG, to_bytes(&lm)));
                let listed = |chan: ChannelId| rb.channels.iter().find(|c| c.comm == chan.comm.0);
                let lr_of = |chan| listed(chan).map_or(0, |c| c.lr);
                let missing_of = |chan| listed(chan).map(|c| c.missing.clone()).unwrap_or_default();
                let set = log.try_replay_set(from, &lr_of, &missing_of).map_err(|e| {
                    MpiError::InvalidState(format!("rollback from rank {from}: {e}"))
                })?;
                let msgs = set.len() as u64;
                if msgs > 0 {
                    out.push(Action::Record(Event::ReplayQueued { dst: from, msgs }));
                    self.queues.insert(from, (set.into(), Some(now)));
                    self.pump(now, &mut out);
                }
                // Concurrent failures: the peer's new incarnation may never
                // have seen my own ROLLBACK.
                if let Some(mirrored) = self.peers.get_mut(&from).filter(|e| **e < rb.epoch) {
                    *mirrored = rb.epoch;
                    out.push(Action::Ctrl(from, KIND_ROLLBACK, self.rollback_for(from, &seen)));
                }
            }
            Input::LastMessage(from, _) if !self.peers.contains_key(&from) => {
                return Err(self.refuse(&format!("LastMessage from rank {from}")));
            }
            // Algorithm 1 lines 25-26, plus the peer's `incomplete` payloads.
            Input::LastMessage(from, lm) => {
                for ch in lm.channels {
                    let (comm, ls) = (CommId(ch.comm), ch.last_recv);
                    out.push(Action::Record(Event::LsSet { peer: from, comm: ch.comm, ls }));
                    self.chan(from, comm).ls = ls;
                    for m in self.exempt(log, from, comm, &ch.incomplete) {
                        self.queues.entry(from).or_default().0.push_back(m);
                    }
                }
                self.pump(now, &mut out);
            }
            Input::Grant => {
                let Some(coordinator) = self.coordinator else {
                    return Err(self.refuse("Grant"));
                };
                match self.grant {
                    Grant::Requested(dst) => match self.release(dst, now) {
                        Some(send) => out.push(send),
                        None => self.grant_done(now, &mut out), // a Rollback emptied it
                    },
                    // A previous incarnation's request: release it at once.
                    _ => out.push(Action::Ctrl(coordinator, KIND_GRANT_DONE, Vec::new())),
                }
            }
            Input::Sent(token) => match (self.grant, token) {
                (Grant::Idle, _) if self.coordinator.is_none() => {
                    self.outstanding.extend(token);
                    self.pump(now, &mut out);
                }
                (Grant::Requested(dst), Some(t)) => self.grant = Grant::InFlight(dst, t),
                (Grant::Requested(_), None) => self.grant_done(now, &mut out),
                _ => return Err(self.refuse(&format!("Sent({token:?})"))),
            },
            Input::TransferComplete(token) => {
                if matches!(self.grant, Grant::InFlight(_, t) if t == token) {
                    self.grant_done(now, &mut out);
                } else if self.outstanding.remove(&token) {
                    self.pump(now, &mut out);
                }
            }
            Input::LogGc(dst, gc) => {
                for (comm, upto) in gc.channels {
                    let (entries, bytes) = log.gc(ChannelId::new(self.me, dst, CommId(comm)), upto);
                    out.extend([
                        Action::Count(|m| &m.log_pruned_msgs, entries),
                        Action::Count(|m| &m.log_pruned_bytes, bytes),
                        Action::Record(Event::LogGc { dst, comm, upto, entries }),
                    ]);
                }
            }
            // At or below `LS` the receiver has it, unless it is an LS
            // exception; above, the ordering fence keeps it behind the
            // queued replays.
            Input::Send(msg) => {
                let (dst, seq) = (msg.env.dst, msg.env.seqnum);
                let ch = self.channels.get_mut(&(dst, msg.env.comm)).filter(|c| seq <= c.ls);
                match ch.map(|c| !c.resend.remove(&seq)) {
                    Some(true) => {
                        out.extend([Action::Count(|m| &m.suppressed_sends, 1), Action::Suppress])
                    }
                    None if !self.queued(dst) => out.push(Action::Forward),
                    _ => {
                        out.push(Action::Suppress);
                        self.queues.entry(dst).or_default().0.push_back(msg);
                        self.pump(now, &mut out);
                    }
                }
            }
            Input::Arrival(env, lr) => {
                let owed = |c: &mut Channel| c.owed.remove(&env.seqnum);
                if env.seqnum > lr + 1 {
                    // A predecessor was lost in a crash window and this
                    // message raced ahead of the sender's Rollback: the
                    // sender's replay re-delivers the whole suffix in order.
                    out.extend([Action::Count(|m| &m.dropped_out_of_order, 1), Action::Drop]);
                } else if env.seqnum == lr + 1
                    || self.channels.get_mut(&(env.src, env.comm)).is_some_and(owed)
                {
                    out.push(Action::Deliver);
                } else {
                    out.extend([Action::Count(|m| &m.dropped_duplicates, 1), Action::Drop]);
                }
            }
        }
        let row = (!out.is_empty()).then_some(row);
        Ok((self, row, out))
    }

    /// Release queued replays: under the window, the next message, in rank
    /// order; under the coordinator, a grant request for it.
    fn pump(&mut self, now: Instant, out: &mut Out) {
        let head = self.queues.iter().find_map(|(&dst, q)| Some((dst, q.0.front()?.env.lamport)));
        match (self.coordinator, head) {
            (None, _) if self.outstanding.len() >= self.window => {}
            (None, Some((dst, _))) => out.extend(self.release(dst, now)),
            (None, None) => self.queues = BTreeMap::new(),
            (Some(coordinator), Some((dst, lamport))) if self.grant == Grant::Idle => {
                self.grant = Grant::Requested(dst);
                out.push(Action::Ctrl(coordinator, KIND_GRANT_REQ, to_bytes(&lamport)));
            }
            (Some(_), _) => {}
        }
    }

    /// The head of `dst`'s queue, leaving.
    fn release(&mut self, dst: RankId, now: Instant) -> Option<Action> {
        let q = self.queues.get_mut(&dst)?;
        let msg = q.0.pop_front()?;
        let drained = if q.0.is_empty() { q.1.take() } else { None };
        let drained_us = drained.map(|t0| now.saturating_duration_since(t0).as_micros() as u64);
        Some(Action::ReplaySend { msg, drained_us })
    }

    /// The granted replay left: release the grant and request the next.
    fn grant_done(&mut self, now: Instant, out: &mut Out) {
        self.grant = Grant::Idle;
        out.extend(self.coordinator.map(|c| Action::Ctrl(c, KIND_GRANT_DONE, Vec::new())));
        self.pump(now, out);
    }

    fn queued(&self, dst: RankId) -> bool {
        self.queues.get(&dst).is_some_and(|q| !q.0.is_empty())
    }

    /// Payloads `peer` is owed on my channel `comm` to it: the logged ones
    /// are returned for replay; re-execution will regenerate the others (I
    /// restarted too), so their re-send bypasses `LS`.
    fn exempt(
        &mut self,
        log: &MessageLog,
        peer: RankId,
        comm: CommId,
        owed: &[u64],
    ) -> Vec<Message> {
        let chan = ChannelId::new(self.me, peer, comm);
        let found: Vec<_> = owed.iter().map(|&s| (s, log.find(chan, s))).collect();
        let regenerated = found.iter().filter(|(_, m)| m.is_none()).map(|(s, _)| *s);
        self.chan(peer, comm).resend.extend(regenerated);
        found.into_iter().filter_map(|(_, m)| m).collect()
    }

    fn chan(&mut self, peer: RankId, comm: CommId) -> &mut Channel {
        self.channels.entry((peer, comm)).or_default()
    }

    fn owed_from(&self, peer: RankId, comm: CommId) -> Vec<u64> {
        let owed = self.channels.get(&(peer, comm)).map(|c| c.owed.iter().copied());
        owed.into_iter().flatten().collect()
    }

    /// My ROLLBACK to `peer` (Algorithm 1 line 20): each of its channels to
    /// me, at watermark `seen`, with the payloads still owed.
    fn rollback_for(&self, peer: RankId, seen: &Marks) -> Vec<u8> {
        let channels = seen.iter().map(|(&comm, &lr)| RollbackChannel {
            comm: comm.0,
            lr,
            missing: self.owed_from(peer, comm),
        });
        to_bytes(&Rollback { epoch: self.epoch, channels: channels.collect() })
    }

    fn refuse(&self, input: &str) -> MpiError {
        let (epoch, grant) = (self.epoch, self.grant);
        let policy = self.coordinator.map_or("windowed".into(), |c| format!("coordinated by {c}"));
        let state = format!("Recovery {{ epoch: {epoch}, {policy}, grant: {grant:?} }}");
        MpiError::InvalidState(format!("recovery: {state} cannot take {input}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::make_msg;
    use mini_mpi::types::COMM_WORLD;
    use mini_mpi::wire::from_bytes;

    const COORDINATOR: RankId = RankId(9);

    thread_local! {
        /// The rows this thread's steps took.
        static TAKEN: std::cell::RefCell<BTreeSet<&'static str>> = Default::default();
    }

    /// A step's outcome, checking that it takes a listed row exactly when
    /// it emits.
    fn checked(step: Result<(Recovery, Option<&'static str>, Out)>) -> Result<(Recovery, Out)> {
        let (rec, row, out) = step?;
        assert_eq!(row.is_some(), !out.is_empty(), "{row:?}: {out:?}");
        if let Some(row) = row {
            assert!(ROWS.contains(&row), "{row} is not in ROWS");
            TAKEN.with(|t| t.borrow_mut().insert(row));
        }
        Ok((rec, out))
    }

    fn r(i: usize) -> RankId {
        RankId(i as u32)
    }

    /// Seqnum `seq` of communicator `comm` on rank `src`'s channel to the
    /// other rank (channel-determinism: a regenerated send carries the same
    /// bytes).
    fn msg(src: usize, (comm, seq): (u64, u64)) -> Message {
        let mut m = make_msg(src as u32, 1 - src as u32, seq, &[src as u8, comm as u8, seq as u8]);
        m.env.comm = CommId(comm);
        m
    }

    #[derive(Clone, Debug)]
    enum Packet {
        Ctrl(u16, Vec<u8>),
        Data(Message),
    }

    /// A `(comm, seqnum)` on one rank's channels to or from the other.
    type Seq = (u64, u64);

    /// One restarted rank of a two-rank, two-cluster world, and the runtime
    /// around it: its receive watermarks on the peer's channels, the
    /// rendezvous announcements from the peer's previous incarnation it
    /// still holds (purged at the peer's next Rollback), the sends
    /// re-execution still makes, and the payloads delivered to it.
    #[derive(Clone)]
    struct Node {
        rec: Recovery,
        log: MessageLog,
        seen: Marks,
        rdv: Vec<Envelope>,
        regen: VecDeque<Seq>,
        got: Vec<Seq>,
    }

    /// Both nodes, one FIFO wire into each, and the HydEE coordinator
    /// (requests in Lamport order, one grant at a time).
    #[derive(Clone)]
    struct World {
        nodes: [Node; 2],
        wires: [VecDeque<Packet>; 2],
        requests: BTreeSet<(u64, usize)>,
        granted: bool,
        grants: VecDeque<usize>,
        now: Instant,
        /// Per node: the data it put on the wire, the arrivals it dropped,
        /// and the regenerated sends it suppressed.
        sent: [Vec<Seq>; 2],
        dropped: [Vec<Seq>; 2],
        suppressed: [Vec<Seq>; 2],
    }

    /// Rank `me` restarted (epoch 1) from a cut with watermark `seen` on
    /// the peer's communicator-0 channel and `owed` still owed there, its
    /// log holding its own communicator-0 channel up to `logged`, to
    /// regenerate `regen`.
    fn node(
        me: usize,
        coordinated: bool,
        seen: u64,
        owed: &[u64],
        logged: u64,
        regen: &[Seq],
    ) -> (Node, Out) {
        let mut log = MessageLog::new();
        (1..=logged).for_each(|s| log.append(msg(me, (0, s))));
        let rec = Recovery::new(r(me), coordinated.then_some(COORDINATOR), 2);
        let chan = ChannelId::new(r(1 - me), r(me), COMM_WORLD);
        let start = Input::Start {
            epoch: 1,
            peers: vec![r(1 - me)],
            seen: HashMap::from([((r(1 - me), COMM_WORLD), seen)]),
            owed: owed.iter().map(|&s| (chan, s)).collect(),
        };
        let (rec, out) = checked(rec.step(&mut log, start, Instant::now())).expect("start");
        let (seen, regen) = (Marks::from([(COMM_WORLD, seen)]), regen.iter().copied().collect());
        (Node { rec, log, seen, rdv: Vec::new(), regen, got: Vec::new() }, out)
    }

    fn seq(env: &Envelope) -> Seq {
        (env.comm.0, env.seqnum)
    }

    impl World {
        /// Step node `i` and run its actions depth-first, as the layer does
        /// (every replay is eager). Returns the verdict.
        fn run(&mut self, i: usize, input: Input) -> Result<bool> {
            let (mut todo, mut next, mut pass) = (VecDeque::new(), Some(input), true);
            loop {
                if let Some(input) = next.take() {
                    let n = &mut self.nodes[i];
                    let (rec, out) =
                        checked(std::mem::take(&mut n.rec).step(&mut n.log, input, self.now))?;
                    n.rec = rec;
                    out.into_iter().rev().for_each(|a| todo.push_front(a));
                }
                let Some(action) = todo.pop_front() else { return Ok(pass) };
                match action {
                    Action::Ctrl(COORDINATOR, kind, body) => self.coordinate(i, kind, &body),
                    Action::Ctrl(to, kind, body) => {
                        self.wires[to.idx()].push_back(Packet::Ctrl(kind, body))
                    }
                    Action::ReplaySend { msg, .. } => {
                        self.sent[i].push(seq(&msg.env));
                        self.wires[msg.env.dst.idx()].push_back(Packet::Data(msg));
                        next = Some(Input::Sent(None));
                    }
                    Action::Forward | Action::Deliver => pass = true,
                    Action::Suppress | Action::Drop => pass = false,
                    Action::Record(_) | Action::Count(..) => {}
                }
            }
        }

        fn coordinate(&mut self, from: usize, kind: u16, body: &[u8]) {
            match kind {
                KIND_GRANT_REQ => _ = self.requests.insert((from_bytes(body).unwrap(), from)),
                KIND_GRANT_DONE => self.granted = false,
                other => panic!("coordinator got kind {other}"),
            }
            if !self.granted {
                if let Some((_, to)) = self.requests.pop_first() {
                    self.granted = true;
                    self.grants.push_back(to);
                }
            }
        }

        /// Deliver grants and every data packet at a wire's head.
        fn settle(&mut self) -> Result<()> {
            loop {
                if let Some(i) = self.grants.pop_front() {
                    self.run(i, Input::Grant)?;
                    continue;
                }
                let Some(i) =
                    (0..2).find(|&i| matches!(self.wires[i].front(), Some(Packet::Data(_))))
                else {
                    return Ok(());
                };
                let Some(Packet::Data(m)) = self.wires[i].pop_front() else { unreachable!() };
                let (s, lr) = (m.env.seqnum, *self.nodes[i].seen.get(&m.env.comm).unwrap_or(&0));
                if s == lr + 1 || self.run(i, Input::Arrival(m.env, lr))? {
                    assert_eq!(m.payload, msg(1 - i, seq(&m.env)).payload, "channel-determinism");
                    let n = &mut self.nodes[i];
                    n.seen.insert(m.env.comm, lr.max(s));
                    n.got.push(seq(&m.env));
                } else {
                    self.dropped[i].push(seq(&m.env));
                }
            }
        }

        /// The events that can happen next: a control frame at a wire's
        /// head reaches its node (0, 1), or a node regenerates a send (2, 3).
        fn choices(&self) -> Vec<usize> {
            let ctrl = (0..2).filter(|&i| self.wires[i].front().is_some());
            ctrl.chain((0..2).filter(|&i| !self.nodes[i].regen.is_empty()).map(|i| i + 2)).collect()
        }

        fn take(&mut self, choice: usize) -> Result<()> {
            self.now += std::time::Duration::from_micros(10);
            let i = choice % 2;
            if choice >= 2 {
                let n = &mut self.nodes[i];
                let m = msg(i, n.regen.pop_front().unwrap());
                n.log.append(m.clone());
                let ch = n.rec.channels.get(&(r(1 - i), m.env.comm)).cloned().unwrap_or_default();
                let has = m.env.seqnum <= ch.ls && !ch.resend.contains(&m.env.seqnum);
                if !n.rec.holds(&m.env) || self.run(i, Input::Send(m.clone()))? {
                    assert!(!has, "a send the peer has, forwarded");
                    self.sent[i].push(seq(&m.env));
                    self.wires[1 - i].push_back(Packet::Data(m));
                } else if has {
                    self.suppressed[i].push(seq(&m.env));
                }
            } else {
                let Some(Packet::Ctrl(kind, body)) = self.wires[i].pop_front() else {
                    unreachable!()
                };
                let (from, n) = (r(1 - i), &mut self.nodes[i]);
                let input = match kind {
                    KIND_ROLLBACK => Input::Rollback {
                        from,
                        rb: from_bytes(&body)?,
                        purged: std::mem::take(&mut n.rdv),
                        cancelled: Vec::new(),
                        seen: n.seen.clone(),
                    },
                    _ => Input::LastMessage(from, from_bytes(&body)?),
                };
                self.run(i, input)?;
            }
            self.settle()
        }
    }

    /// A concurrent failure of both clusters. On X = 1->0 (communicator 0),
    /// rank 0's cut holds seqnums up to 3 with the payload of 2 owed (a
    /// missing marker); rank 1's log holds 1..4 and re-execution regenerates
    /// 5. On Y = 0->1, rank 1's cut holds up to 3 with 3 owed; rank 0's log
    /// holds only 1, so it regenerates 2 (at or below `LS`) and 3 (an LS
    /// exception).
    ///
    /// `staggered`: rank 0 restarted first, so its Rollback went to rank
    /// 1's old incarnation. That one answered LASTMSG (it had Y up to 5, and
    /// 1 on communicator 1, which rank 0 regenerates), delivered X's 4 and
    /// announced 5 as a rendezvous before it died: rank 0 purges 5 at rank
    /// 1's Rollback, and must forget the `LS` the old incarnation told it.
    fn world(coordinated: bool, staggered: bool) -> World {
        let regen: &[Seq] = if staggered { &[(0, 2), (0, 3), (1, 1)] } else { &[(0, 2), (0, 3)] };
        let (mut n0, out0) = node(0, coordinated, 3, &[2], 1, regen);
        let (n1, out1) = node(1, coordinated, 3, &[3], 4, &[(0, 5)]);
        let mut w = World {
            nodes: [n0.clone(), n1],
            wires: Default::default(),
            requests: BTreeSet::new(),
            granted: false,
            grants: VecDeque::new(),
            now: Instant::now(),
            sent: Default::default(),
            dropped: Default::default(),
            suppressed: Default::default(),
        };
        if staggered {
            let ls = |comm, last_recv| LastMessageChannel { comm, last_recv, incomplete: vec![] };
            let lm = LastMessage { channels: vec![ls(0, 5), ls(1, 1)] };
            (n0.seen, n0.got, n0.rdv) =
                (Marks::from([(COMM_WORLD, 5)]), vec![(0, 4)], vec![msg(1, (0, 5)).env]);
            w.nodes[0] = n0;
            w.run(0, Input::LastMessage(r(1), lm)).expect("the old incarnation's LASTMSG");
        }
        let sends = [(0, out0), (1, out1)].into_iter().filter(|&(i, _)| !(staggered && i == 0));
        for (i, out) in sends {
            for a in out {
                let Action::Ctrl(to, kind, body) = a else { panic!("{a:?}") };
                assert_eq!((to, kind), (r(1 - i), KIND_ROLLBACK));
                w.wires[1 - i].push_back(Packet::Ctrl(kind, body));
            }
        }
        w
    }

    /// Explore every order of the choices from `w`; each leaf is the error
    /// that ended it, or the final world.
    fn explore(w: World, leaves: &mut Vec<std::result::Result<World, String>>) {
        let choices = w.choices();
        if choices.is_empty() {
            return leaves.push(Ok(w));
        }
        for c in choices {
            let mut next = w.clone();
            match next.take(c) {
                Ok(()) => explore(next, leaves),
                Err(e) => leaves.push(Err(e.to_string())),
            }
        }
    }

    /// Both ranks restarted, in different clusters, under both policies:
    /// in every order of their ROLLBACKs, the mirrored ROLLBACKs, the
    /// LASTMSGs and the regenerated sends, each rank is delivered every
    /// owed payload exactly once (the missing markers, the purged
    /// announcement, the LS exception), every message above its watermark
    /// once and in seqnum order, and never one it already had: Y's
    /// regenerated 2 is suppressed at the sender once `LS` covers it, else
    /// dropped at the receiver. Nothing stays queued, owed or granted.
    #[test]
    fn every_order_of_a_concurrent_recovery_delivers_each_message_once() {
        for (staggered, orders) in [(false, 11_880), (true, 840)] {
            for coordinated in [false, true] {
                let mut leaves = Vec::new();
                explore(world(coordinated, staggered), &mut leaves);
                let case = format!("staggered {staggered}, coordinated {coordinated}");
                assert_eq!(leaves.len(), orders, "{case}");
                for leaf in &leaves {
                    let w = leaf.as_ref().unwrap_or_else(|e| panic!("{case}: {e}"));
                    let (x, y) = (&w.nodes[0].got, &w.nodes[1].got);
                    let fresh: Vec<Seq> = x.iter().copied().filter(|&(_, s)| s > 3).collect();
                    assert_eq!(fresh, [(0, 4), (0, 5)], "{case}: X delivered {x:?}");
                    let (mut x, mut y) = (x.clone(), y.clone());
                    x.sort();
                    y.sort();
                    assert_eq!(x, [(0, 2), (0, 4), (0, 5)], "{case}: X");
                    let z: &[Seq] = if staggered { &[(1, 1)] } else { &[] };
                    assert_eq!(y, [&[(0, 3)], z].concat(), "{case}: Y");
                    let y2 = (w.suppressed[0].contains(&(0, 2)), w.dropped[1].contains(&(0, 2)));
                    assert!(matches!(y2, (true, false) | (false, true)), "{case}: Y2 {y2:?}");
                    for n in &w.nodes {
                        assert!(n.rec.queues.values().all(|q| q.0.is_empty()), "{case}");
                        assert!(n.rec.channels.values().all(|c| c.owed.is_empty()), "{case}");
                        assert_eq!(n.rec.grant, Grant::Idle, "{case}");
                    }
                    assert!(w.requests.is_empty() && !w.granted, "{case}");
                }
            }
        }
    }

    /// Rank 1's log was GCed up to 4 on X, above the `lr` 3 rank 0's cut
    /// asks for: every order ends in the floor error naming the channel.
    #[test]
    fn a_rollback_below_the_gc_floor_fails_naming_the_channel() {
        for coordinated in [false, true] {
            let mut w = world(coordinated, false);
            w.nodes[1].log.gc(ChannelId::new(r(1), r(0), COMM_WORLD), 4);
            let mut leaves = Vec::new();
            explore(w, &mut leaves);
            let want = "rollback from rank 0: channel 1->0 (comm 0) rolled back to lr 3, \
                        below its GC floor 4";
            assert_eq!(leaves.len(), 35);
            for leaf in leaves {
                assert!(leaf.as_ref().is_err_and(|e| e.contains(want)), "{:?}", leaf.err());
            }
        }
    }

    fn fresh(coordinated: bool) -> Recovery {
        Recovery::new(r(0), coordinated.then_some(COORDINATOR), 2)
    }

    fn refused(rec: Recovery, input: Input, state: &str, what: &str) {
        let e = rec.step(&mut MessageLog::new(), input, Instant::now()).expect_err(what);
        let e = e.to_string();
        assert!(e.contains(state) && e.contains(&format!("cannot take {what}")), "{e}");
    }

    /// Each input a state cannot take is an error naming the state and the
    /// input (no `debug_assert`: release builds refuse it too).
    #[test]
    fn out_of_state_inputs_are_errors() {
        let (started, _) = node(0, false, 0, &[], 0, &[]);
        let lm = |from| Input::LastMessage(r(from), LastMessage::default());
        let start =
            |epoch| Input::Start { epoch, peers: vec![], seen: HashMap::new(), owed: vec![] };
        let windowed = "Recovery { epoch: 0, windowed, grant: Idle }";
        refused(fresh(false), Input::Grant, windowed, "Grant");
        refused(started.rec.clone(), Input::Grant, "epoch: 1, windowed", "Grant");
        refused(fresh(false), lm(1), windowed, "LastMessage from rank 1");
        refused(started.rec.clone(), lm(2), "epoch: 1", "LastMessage from rank 2");
        refused(started.rec.clone(), start(2), "epoch: 1", "Start(epoch 2)");
        refused(fresh(false), start(0), windowed, "Start(epoch 0)");
        let idle = "coordinated by 9, grant: Idle";
        refused(fresh(true), Input::Sent(None), idle, "Sent(None)");
    }

    fn step(rec: Recovery, log: &mut MessageLog, input: Input) -> (Recovery, Vec<Action>) {
        checked(rec.step(log, input, Instant::now())).unwrap_or_else(|e| panic!("{e}"))
    }

    fn sends(out: &[Action]) -> Vec<u64> {
        out.iter()
            .filter_map(|a| match a {
                Action::ReplaySend { msg, .. } => Some(msg.env.seqnum),
                _ => None,
            })
            .collect()
    }

    fn ctrl_kinds(out: &[Action]) -> Vec<u16> {
        out.iter()
            .filter_map(|a| match a {
                Action::Ctrl(_, kind, _) => Some(*kind),
                _ => None,
            })
            .collect()
    }

    /// A survivor's replay to a restarted peer: rendezvous replays hold the
    /// window (2), completions refill it, and the ordering fence queues a
    /// fresh send behind the replays; a second Rollback of the peer replaces
    /// the queue and frees the cancelled slots.
    #[test]
    fn the_window_holds_rendezvous_replays_and_fences_fresh_sends() {
        let mut log = MessageLog::new();
        (1..=4).for_each(|s| log.append(msg(1, (0, s))));
        let rb = Rollback {
            epoch: 1,
            channels: vec![RollbackChannel { comm: 0, lr: 1, missing: vec![] }],
        };
        let rollback = |rb: &Rollback, cancelled| Input::Rollback {
            from: r(0),
            rb: rb.clone(),
            purged: vec![],
            cancelled,
            seen: Marks::new(),
        };
        assert_eq!(Recovery::new(r(1), None, 0).window, 1, "the window is at least 1");
        let mut rec = Recovery::new(r(1), None, 2);
        let out;
        (rec, out) = step(rec, &mut log, rollback(&rb, vec![]));
        assert_eq!((ctrl_kinds(&out), sends(&out)), (vec![KIND_LASTMSG], vec![2]));
        let (mut rec, out) = step(rec, &mut log, Input::Sent(Some(20)));
        assert_eq!(sends(&out), [3]);
        let out;
        (rec, out) = step(rec, &mut log, Input::Sent(Some(21)));
        assert!(out.is_empty(), "the window is full");
        log.append(msg(1, (0, 5)));
        assert!(rec.holds(&msg(1, (0, 5)).env));
        let out;
        (rec, out) = step(rec, &mut log, Input::Send(msg(1, (0, 5))));
        assert!(matches!(out.as_slice(), [Action::Suppress]), "fenced: {out:?}");
        let out;
        (rec, out) = step(rec, &mut log, Input::TransferComplete(20));
        let Action::ReplaySend { drained_us, .. } = &out[0] else { panic!("{out:?}") };
        assert_eq!((sends(&out), *drained_us), (vec![4], None));
        let out;
        (rec, out) = step(rec, &mut log, Input::TransferComplete(99));
        assert!(out.is_empty(), "not a replay token");
        // The peer restarted again, announcing 3: replays 4 and 5 again.
        let rb = Rollback {
            epoch: 2,
            channels: vec![RollbackChannel { comm: 0, lr: 3, missing: vec![] }],
        };
        let out;
        (rec, out) = step(rec, &mut log, rollback(&rb, vec![21]));
        assert_eq!(sends(&out), [4]);
        let (rec, out) = step(rec, &mut log, Input::Sent(None));
        let Action::ReplaySend { drained_us, .. } = &out[0] else { panic!("{out:?}") };
        assert_eq!((sends(&out), drained_us.is_some()), (vec![5], true));
        let (rec, out) = step(rec, &mut log, Input::Sent(None));
        assert!(out.is_empty() && !rec.holds(&msg(1, (0, 6)).env));
    }

    /// The coordinated policy asks a grant per replay, waits for a
    /// rendezvous replay to complete before GRANT_DONE, and releases a grant
    /// at once when the peer's Rollback cancelled its transfer, or when it
    /// is stale.
    #[test]
    fn coordinated_replays_take_one_grant_each() {
        let mut log = MessageLog::new();
        (1..=3).for_each(|s| log.append(msg(1, (0, s))));
        let rollback = |epoch, cancelled| Input::Rollback {
            from: r(0),
            rb: Rollback { epoch, channels: vec![] },
            purged: vec![],
            cancelled,
            seen: Marks::new(),
        };
        let rec = Recovery::new(r(1), Some(COORDINATOR), 50);
        let (rec, out) = step(rec, &mut log, rollback(1, vec![]));
        assert_eq!(ctrl_kinds(&out), [KIND_LASTMSG, KIND_GRANT_REQ]);
        let (rec, out) = step(rec, &mut log, Input::Grant);
        assert_eq!(sends(&out), [1]);
        let (rec, out) = step(rec, &mut log, Input::Sent(None));
        assert_eq!(ctrl_kinds(&out), [KIND_GRANT_DONE, KIND_GRANT_REQ]);
        let (rec, _) = step(rec, &mut log, Input::Grant);
        let (rec, out) = step(rec, &mut log, Input::Sent(Some(7)));
        assert!(out.is_empty() && rec.grant == Grant::InFlight(r(0), 7));
        let (rec, out) = step(rec, &mut log, Input::Grant);
        assert_eq!(ctrl_kinds(&out), [KIND_GRANT_DONE], "a stale grant is released");
        let (rec, out) = step(rec, &mut log, Input::TransferComplete(7));
        assert_eq!(ctrl_kinds(&out), [KIND_GRANT_DONE, KIND_GRANT_REQ]);
        let (rec, _) = step(rec, &mut log, Input::Grant);
        let (rec, _) = step(rec, &mut log, Input::Sent(Some(8)));
        // The peer restarts again: its transfer is cancelled, the grant
        // released, and the fresh replay set requested anew.
        let (rec, out) = step(rec, &mut log, rollback(2, vec![8]));
        assert_eq!(ctrl_kinds(&out), [KIND_GRANT_DONE, KIND_LASTMSG, KIND_GRANT_REQ]);
        assert_eq!(rec.grant, Grant::Requested(r(0)));
    }

    /// The row list cannot rot: every row a step takes is listed (checked
    /// in `checked`), and the explorer and the policy tests take every
    /// listed row. No test here sends a log-GC notice: one step takes it.
    #[test]
    fn every_listed_row_is_taken() {
        every_order_of_a_concurrent_recovery_delivers_each_message_once();
        the_window_holds_rendezvous_replays_and_fences_fresh_sends();
        coordinated_replays_take_one_grant_each();
        let mut log = MessageLog::new();
        log.append(msg(0, (0, 1)));
        let gc = Input::LogGc(r(1), LogGc { channels: vec![(0, 1)] });
        step(fresh(false), &mut log, gc);
        let taken = TAKEN.with(|t| t.borrow().clone());
        let untaken: Vec<_> = ROWS.iter().filter(|r| !taken.contains(*r)).collect();
        assert!(untaken.is_empty(), "never taken: {untaken:?}");
        assert_eq!(taken.len(), ROWS.len(), "ROWS lists a row twice");
    }
}
