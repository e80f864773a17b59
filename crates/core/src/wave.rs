//! One checkpoint wave (Algorithm 1, lines 13-15) as two state machines and
//! one pure function, [`Wave::step`]: `(state, input, now)` to the next
//! state, the row of [`ROWS`] it took, and the [`Action`]s the layer
//! executes. It reads no clock, store or runtime; an input the state cannot
//! take is an error naming both. A timed phase is the time a member spends
//! in a state ([`Member::phase`]). DESIGN.md §5 has the transition table.

use crate::ctrl::{
    CkptCounts, LogGc, KIND_CKPT_COMMIT, KIND_CKPT_JOIN, KIND_CKPT_POLL, KIND_CKPT_REPORT,
    KIND_CKPT_RESUME,
};
use crate::hist::Phase;
use mini_mpi::error::{MpiError, Result};
use mini_mpi::recorder::Event;
use mini_mpi::types::RankId;
use mini_mpi::wire::to_bytes;
use spbc_ckptstore::Replica;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a member waits for BLOB_ACKs before re-pushing (to partners
/// killed mid-wave).
pub const REPL_RETRY: Duration = Duration::from_millis(250);

/// The rows of the wave's transition table, `side/state/input`: every step
/// that emits an action takes one, and the layer passes a failure site
/// there. `member/Idle/Call(open)` opens a wave from `Resumed` too (its
/// RELEASE first); a step that emits nothing (a call that is not due, an
/// idle tick, a duplicate BLOB_ACK) takes none.
pub const ROWS: &[Row] = &[
    "member/Idle/Call(open)",
    "member/Resumed/Call",
    "member/Quiescing/Poll",
    "member/Quiescing/Commit",
    "member/Writing/Encoded",
    "member/Writing/Replicas",
    "member/Replicating/BlobAck",
    "member/Replicating/ChunkReq",
    "member/Replicating/Tick",
    "member/Flushing/Flushed",
    "member/AwaitingResume/Resume",
    "leader/Counting/Join",
    "leader/Counting/Report",
    "leader/Committing/Ack",
];

/// A row of [`ROWS`].
pub type Row = &'static str;

/// A row a step took, and the epoch of the wave it belongs to.
pub type Taken = (Row, u64);

/// The log-GC notices of a member's committed cut
/// ([`crate::store::CheckpointData::log_gc_notices`]), sent at RESUME.
pub type Notices = BTreeMap<RankId, LogGc>;

/// A member's replication barrier: the `(partner, owner)` slots still owing
/// a BLOB_ACK, and the wave's frames (for re-pushes and CHUNK_REQs).
#[derive(Clone, Debug)]
pub struct Repl {
    pub epoch: u64,
    pub notices: Notices,
    pub last_push: Instant,
    pub awaiting: BTreeSet<(RankId, RankId)>,
    pub pushes: Vec<Replica>,
}

/// The member side.
#[derive(Clone, Debug, Default)]
pub enum Member {
    #[default]
    Idle,
    /// JOIN sent, the application state in `body`'s head; awaiting COMMIT.
    Quiescing { epoch: u64, body: Vec<u8> },
    /// Transient, within one COMMIT: encoding (no `notices` yet), then replicas.
    Writing { epoch: u64, notices: Option<Notices> },
    /// Frames pushed; awaiting every BLOB_ACK.
    Replicating(Repl),
    /// Transient, within one step: the own copy is being made durable.
    Flushing { epoch: u64, notices: Notices },
    /// Own copy durable, ACK sent; awaiting RESUME.
    AwaitingResume { epoch: u64, notices: Notices },
    /// RESUME received. The next call, not RESUME, releases the partners'
    /// older copies: a run that ends at a RESUME keeps the previous wave.
    Resumed { epoch: u64 },
}

impl Member {
    /// The timed phase of wave `epoch` this state is in: a phase runs from
    /// the step that enters its states to the step that leaves them.
    pub fn phase(&self) -> Option<(Phase, u64)> {
        let phase = match self {
            Member::Quiescing { .. } => Phase::Quiesce,
            Member::Replicating(_) => Phase::Replicate,
            Member::Flushing { .. } | Member::AwaitingResume { .. } => Phase::CommitBarrier,
            _ => return None,
        };
        Some((phase, self.epoch()))
    }

    /// The wave this state belongs to (0 when idle).
    fn epoch(&self) -> u64 {
        match *self {
            Member::Idle => 0,
            Member::Replicating(ref r) => r.epoch,
            Member::Quiescing { epoch, .. }
            | Member::Writing { epoch, .. }
            | Member::Flushing { epoch, .. }
            | Member::AwaitingResume { epoch, .. }
            | Member::Resumed { epoch } => epoch,
        }
    }
}

/// The leader side (`Idle` on a rank that leads nothing).
#[derive(Clone, Debug, Default)]
pub enum Leader {
    #[default]
    Idle,
    /// `(sent, arrived)` of each member heard from: the JOINs, then each
    /// POLL round's REPORTs.
    Counting { epoch: u64, counts: BTreeMap<RankId, (u64, u64)> },
    /// COMMIT sent; the members that have ACKed.
    Committing { epoch: u64, acked: BTreeSet<RankId> },
}

/// An event the wave takes.
#[derive(Clone, Debug)]
pub enum Input {
    /// The application's checkpoint call; `Some` opens a wave with these
    /// JOIN counters and the body whose head holds the application state.
    Call(Option<(CkptCounts, Vec<u8>)>),
    /// The layer's poll while the call waits (the re-push timer).
    Tick,
    /// To the leader: a member's JOIN, REPORT or ACK.
    Join(RankId, CkptCounts),
    Report(RankId, CkptCounts),
    Ack(RankId, u64),
    /// To a member: POLL (with the counters to report), COMMIT or RESUME.
    Poll(CkptCounts),
    Commit(u64),
    Resume(u64),
    /// [`Action::Encode`] committed the cut locally: its notices, the sealed
    /// checkpoint and its logical bytes.
    Encoded(Notices, Arc<Vec<u8>>, u64),
    /// The frames [`Action::Replicate`] chose.
    Replicas(Vec<Replica>),
    /// `(partner, owner, epoch)` of a BLOB_ACK.
    BlobAck(RankId, RankId, u64),
    /// `(partner, owner, epoch, missing)` of a CHUNK_REQ.
    ChunkReq(RankId, RankId, u64, Vec<u32>),
    /// [`Action::Flush`] made the own copy durable.
    Flushed,
}

impl Input {
    /// The wave an input names, if it names one.
    fn epoch(&self) -> Option<u64> {
        match *self {
            Input::Call(Some((ref c, _))) | Input::Poll(ref c) => Some(c.epoch),
            Input::Join(_, ref c) | Input::Report(_, ref c) => Some(c.epoch),
            Input::Ack(_, e) | Input::Commit(e) | Input::Resume(e) => Some(e),
            Input::BlobAck(_, _, e) | Input::ChunkReq(_, _, e, _) => Some(e),
            Input::Call(None) | Input::Tick | Input::Encoded(..) => None,
            Input::Replicas(_) | Input::Flushed => None,
        }
    }
}

/// What the layer does for a transition, in order.
#[derive(Clone, Debug)]
pub enum Action {
    /// A wave control frame (counted in `ctrl_msgs`).
    Ctrl(RankId, u16, Vec<u8>),
    Record(Event),
    /// Capture the cut, finish the body, encode and commit it locally;
    /// yields [`Input::Encoded`].
    Encode(u64, Vec<u8>),
    /// Ask the store for the sealed checkpoint's frames; yields
    /// [`Input::Replicas`].
    Replicate(u64, Arc<Vec<u8>>, u64),
    /// Send a replica frame (storage traffic).
    Push(u64, Replica),
    /// `(partner, epoch, manifest, missing)`: send the chunks it lacks.
    Chunks(RankId, u64, Arc<Vec<u8>>, Vec<u32>),
    /// Wait until the own copy is durable; yields [`Input::Flushed`].
    Flush,
    /// Send the leader the ACK; one more checkpoint committed.
    Ack(RankId, u64),
    /// Drop local checkpoints below the wave.
    GcLocal(u64),
    /// Send the log-GC notices to the out-of-cluster senders.
    LogGc(Notices),
    /// Tell the partners to drop this member's copies below the wave.
    Release(u64),
}

type Out = Vec<Action>;

/// One rank's view of its cluster's checkpoint waves.
#[derive(Clone, Debug, Default)]
pub struct Wave {
    members: Vec<RankId>, // leader first
    replicate: bool,
    release: bool,
    pub member: Member,
    pub leader: Leader,
}

impl Wave {
    /// `replicate` when the rank has partners, `release` when they keep full copies.
    pub fn new(members: Vec<RankId>, replicate: bool, release: bool) -> Self {
        Wave { members, replicate, release, ..Wave::default() }
    }

    /// The state after `input` at `now`, the row it took with its wave
    /// (`None` when it emits nothing), and what the layer must do for it.
    pub fn step(mut self, input: Input, now: Instant) -> Result<(Wave, Option<Taken>, Out)> {
        let mut out = Vec::new();
        let epoch = input.epoch().unwrap_or(self.member.epoch());
        let row;
        if matches!(input, Input::Join(..) | Input::Report(..) | Input::Ack(..)) {
            let state = std::mem::take(&mut self.leader);
            (self.leader, row) = self.lead(state, input, &mut out)?;
        } else {
            let state = std::mem::take(&mut self.member);
            (self.member, row) = self.serve(state, input, now, &mut out)?;
        }
        let row = (!out.is_empty()).then_some((row, epoch));
        Ok((self, row, out))
    }

    fn serve(&self, s: Member, input: Input, now: Instant, out: &mut Out) -> Result<(Member, Row)> {
        use Member::*;
        Ok(match (s, input) {
            (s @ (Idle | Resumed { .. }), Input::Call(open)) => {
                if let (Resumed { epoch, .. }, true) = (&s, self.release) {
                    out.push(Action::Release(*epoch));
                }
                let Some((c, body)) = open else { return Ok((Idle, "member/Resumed/Call")) };
                out.push(Action::Ctrl(self.members[0], KIND_CKPT_JOIN, to_bytes(&c)));
                (Quiescing { epoch: c.epoch, body }, "member/Idle/Call(open)")
            }
            (s @ Quiescing { epoch, .. }, Input::Poll(c)) if c.epoch == epoch => {
                out.push(Action::Ctrl(self.members[0], KIND_CKPT_REPORT, to_bytes(&c)));
                (s, "member/Quiescing/Poll")
            }
            (Quiescing { epoch, body }, Input::Commit(e)) if e == epoch => {
                out.push(Action::Encode(epoch, body));
                (Writing { epoch, notices: None }, "member/Quiescing/Commit")
            }
            (Writing { epoch, notices: None }, Input::Encoded(notices, sealed, logical)) => {
                let next = if self.replicate {
                    out.push(Action::Replicate(epoch, sealed, logical));
                    Writing { epoch, notices: Some(notices) }
                } else {
                    flush(epoch, notices, out)
                };
                (next, "member/Writing/Encoded")
            }
            (Writing { epoch, notices: Some(notices) }, Input::Replicas(pushes)) => {
                if pushes.is_empty() {
                    return Ok((flush(epoch, notices, out), "member/Writing/Replicas"));
                }
                out.extend(pushes.iter().map(|r| Action::Push(epoch, r.clone())));
                let awaiting = pushes.iter().map(|r| (r.partner, r.owner)).collect();
                let r = Repl { epoch, notices, last_push: now, awaiting, pushes };
                (Replicating(r), "member/Writing/Replicas")
            }
            (Replicating(mut r), Input::BlobAck(partner, owner, e))
                if e == r.epoch && r.awaiting.contains(&(partner, owner)) =>
            {
                r.awaiting.remove(&(partner, owner));
                out.push(Action::Record(Event::CkptReplAck { partner, epoch: e }));
                let next =
                    if r.awaiting.is_empty() { flush(e, r.notices, out) } else { Replicating(r) };
                (next, "member/Replicating/BlobAck")
            }
            (Replicating(r), Input::ChunkReq(partner, owner, e, missing)) if e == r.epoch => {
                if let Some(p) = r.pushes.iter().find(|p| p.owner == owner) {
                    out.push(Action::Chunks(partner, e, Arc::clone(&p.frame), missing));
                }
                (Replicating(r), "member/Replicating/ChunkReq")
            }
            // A retry's duplicate, or a finished wave's (its retry timer
            // re-pushed the current frames anyway).
            (s, Input::BlobAck(..) | Input::ChunkReq(..)) => (s, ""),
            (Replicating(mut r), Input::Tick) if now >= r.last_push + REPL_RETRY => {
                let due = r.pushes.iter().filter(|p| r.awaiting.contains(&(p.partner, p.owner)));
                out.extend(due.map(|p| Action::Push(r.epoch, p.clone())));
                r.last_push = now;
                (Replicating(r), "member/Replicating/Tick")
            }
            (s, Input::Tick) if !matches!(s, Idle | Writing { .. } | Flushing { .. }) => (s, ""),
            // The own copy is durable: ACK, and wait for RESUME, so that no
            // post-commit send lands in a sibling's still-open cut.
            (Flushing { epoch, notices }, Input::Flushed) => {
                out.push(Action::Ack(self.members[0], epoch));
                (AwaitingResume { epoch, notices }, "member/Flushing/Flushed")
            }
            (AwaitingResume { epoch, notices }, Input::Resume(e)) if e == epoch => {
                out.push(Action::GcLocal(epoch));
                out.push(Action::LogGc(notices));
                (Resumed { epoch }, "member/AwaitingResume/Resume")
            }
            (state, input) => {
                let state = match state {
                    Quiescing { epoch, .. } => format!("Quiescing {{ epoch: {epoch} }}"),
                    Replicating(r) => format!("Replicating {{ epoch: {} }}", r.epoch),
                    small => format!("{small:?}"),
                };
                return Err(refuse(format!("member {state}"), &input));
            }
        })
    }

    fn lead(&self, state: Leader, input: Input, out: &mut Out) -> Result<(Leader, Row)> {
        use Leader::*;
        let state = match (state, &input) {
            (Idle, Input::Join(_, c)) => Counting { epoch: c.epoch, counts: BTreeMap::new() },
            (state, _) => state,
        };
        let row = match input {
            Input::Join(..) => "leader/Counting/Join",
            _ => "leader/Counting/Report",
        };
        Ok(match (state, input) {
            // Once every member is heard from, COMMIT if the counters
            // balance (no intra-cluster message in flight), else POLL again.
            (Counting { epoch, mut counts }, Input::Join(from, c) | Input::Report(from, c))
                if c.epoch == epoch =>
            {
                counts.insert(from, (c.sent, c.arrived));
                if counts.len() < self.members.len() {
                    return Ok((Counting { epoch, counts }, row));
                }
                let (sent, arrived) = counts.values().fold((0, 0), |(s, a), c| (s + c.0, a + c.1));
                if sent == arrived {
                    self.broadcast(KIND_CKPT_COMMIT, epoch, out);
                    return Ok((Committing { epoch, acked: BTreeSet::new() }, row));
                }
                self.broadcast(KIND_CKPT_POLL, epoch, out);
                (Counting { epoch, counts: BTreeMap::new() }, row)
            }
            (Committing { epoch, mut acked }, Input::Ack(from, e)) if e == epoch => {
                acked.insert(from);
                if acked.len() == self.members.len() {
                    self.broadcast(KIND_CKPT_RESUME, epoch, out);
                    return Ok((Idle, "leader/Committing/Ack"));
                }
                (Committing { epoch, acked }, "leader/Committing/Ack")
            }
            (state, input) => return Err(refuse(format!("leader {state:?}"), &input)),
        })
    }

    fn broadcast(&self, kind: u16, epoch: u64, out: &mut Out) {
        out.extend(self.members.iter().map(|&m| Action::Ctrl(m, kind, to_bytes(&epoch))));
    }
}

/// Member: make the own copy durable; the commit barrier starts.
fn flush(epoch: u64, notices: Notices, out: &mut Out) -> Member {
    out.push(Action::Flush);
    Member::Flushing { epoch, notices }
}

fn refuse(state: String, input: &Input) -> MpiError {
    let input = match input {
        Input::Call(open) => format!("Call({:?})", open.as_ref().map(|(c, _)| c)),
        Input::Encoded(..) => "Encoded".into(),
        Input::Replicas(r) => format!("Replicas({})", r.len()),
        small => format!("{small:?}"),
    };
    MpiError::InvalidState(format!("checkpoint wave: {state} cannot take {input}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_mpi::wire::from_bytes;
    use std::collections::VecDeque;

    fn r(i: u32) -> RankId {
        RankId(i)
    }

    /// A short, order-independent name of what an action does.
    fn tag(a: &Action) -> &'static str {
        match a {
            Action::Ctrl(_, KIND_CKPT_JOIN, _) => "join",
            Action::Ctrl(_, KIND_CKPT_REPORT, _) => "report",
            Action::Ctrl(_, KIND_CKPT_POLL, _) => "poll",
            Action::Ctrl(_, KIND_CKPT_COMMIT, _) => "commit",
            Action::Ctrl(_, KIND_CKPT_RESUME, _) => "resume",
            Action::Ctrl(..) => "ctrl?",
            Action::Record(Event::CkptReplAck { .. }) => "repl-ack",
            Action::Record(_) => "record?",
            Action::Encode(..) => "encode",
            Action::Replicate(..) => "replicate",
            Action::Push(..) => "push",
            Action::Chunks(..) => "chunks",
            Action::Flush => "flush",
            Action::Ack(..) => "ack",
            Action::GcLocal(_) => "gc",
            Action::LogGc(_) => "log-gc",
            Action::Release(_) => "release",
        }
    }

    fn tags(actions: &[Action]) -> Vec<&'static str> {
        actions.iter().map(tag).collect()
    }

    thread_local! {
        /// The rows this thread's steps took.
        static TAKEN: std::cell::RefCell<BTreeSet<&'static str>> = Default::default();
    }

    /// Step, checking that a step takes a listed row exactly when it emits.
    fn step_row(w: Wave, input: Input, now: Instant) -> (Wave, Option<Row>, Vec<Action>) {
        let (w, row, actions) = w.step(input, now).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(row.is_some(), !actions.is_empty(), "{row:?}: {actions:?}");
        let row = row.map(|(row, _)| row);
        if let Some(row) = row {
            assert!(ROWS.contains(&row), "{row} is not in ROWS");
            TAKEN.with(|t| t.borrow_mut().insert(row));
        }
        (w, row, actions)
    }

    fn step(w: Wave, input: Input, now: Instant) -> (Wave, Vec<Action>) {
        let (w, _, actions) = step_row(w, input, now);
        (w, actions)
    }

    /// The member's phase after every step that changed it.
    type Trail = Vec<Option<(Phase, u64)>>;

    fn note(trail: &mut Trail, w: &Wave) {
        let phase = w.member.phase();
        if trail.last() != Some(&phase) {
            trail.push(phase);
        }
    }

    /// A 3-member cluster (rank 0 leads) whose leader-bound messages
    /// (JOIN, REPORT, ACK) and checkpoint calls wait in `pending` until the
    /// explorer delivers them; leader-to-member frames are delivered at
    /// once, as one FIFO channel per member allows nothing else.
    #[derive(Clone)]
    struct Cluster {
        waves: Vec<Wave>,
        now: Instant,
        pending: Vec<(usize, Input)>,
        /// `(sent, arrived)` per member. Member 1 sent member 2 two
        /// messages that arrive one per POLL: two re-poll rounds.
        counters: Vec<(u64, u64)>,
        member_trace: Vec<Vec<&'static str>>,
        leader_trace: Vec<&'static str>,
        trails: Vec<Trail>,
    }

    impl Cluster {
        fn new() -> Self {
            let members = vec![r(0), r(1), r(2)];
            let calls = (0..3).map(|m| (m, Input::Call(None))).collect();
            Cluster {
                waves: (0..3).map(|_| Wave::new(members.clone(), false, true)).collect(),
                now: Instant::now(),
                pending: calls,
                counters: vec![(0, 0), (2, 0), (0, 0)],
                member_trace: vec![Vec::new(); 3],
                leader_trace: Vec::new(),
                trails: vec![vec![None]; 3],
            }
        }

        /// Step `to` with `input` and run what it asks for, as the layer does.
        fn run(&mut self, to: usize, input: Input) {
            let mut queue = VecDeque::from([(to, input)]);
            while let Some((m, input)) = queue.pop_front() {
                let lead = matches!(input, Input::Join(..) | Input::Report(..) | Input::Ack(..));
                self.now += Duration::from_millis(1);
                let (w, row, actions) =
                    step_row(std::mem::take(&mut self.waves[m]), input, self.now);
                note(&mut self.trails[m], &w);
                self.waves[m] = w;
                let trace = if lead { &mut self.leader_trace } else { &mut self.member_trace[m] };
                trace.extend(row.filter(|_| !lead));
                trace.extend(tags(&actions));
                for a in actions {
                    match a {
                        Action::Ctrl(dst, kind, body) => {
                            let (dst, from) = (dst.0 as usize, r(m as u32));
                            match kind {
                                KIND_CKPT_JOIN => self
                                    .pending
                                    .push((dst, Input::Join(from, from_bytes(&body).unwrap()))),
                                KIND_CKPT_REPORT => self
                                    .pending
                                    .push((dst, Input::Report(from, from_bytes(&body).unwrap()))),
                                KIND_CKPT_POLL => {
                                    if dst == 2 {
                                        self.counters[2].1 += 1;
                                    }
                                    let (sent, arrived) = self.counters[dst];
                                    let epoch = from_bytes(&body).unwrap();
                                    queue.push_back((
                                        dst,
                                        Input::Poll(CkptCounts { epoch, sent, arrived }),
                                    ));
                                }
                                KIND_CKPT_COMMIT => queue
                                    .push_back((dst, Input::Commit(from_bytes(&body).unwrap()))),
                                _ => queue
                                    .push_back((dst, Input::Resume(from_bytes(&body).unwrap()))),
                            }
                        }
                        Action::Ack(leader, e) => {
                            self.pending.push((leader.0 as usize, Input::Ack(r(m as u32), e)))
                        }
                        Action::Encode(..) => queue.push_front((
                            m,
                            Input::Encoded(Notices::new(), Arc::new(Vec::new()), 0),
                        )),
                        Action::Flush => queue.push_front((m, Input::Flushed)),
                        _ => {}
                    }
                }
            }
        }

        /// Deliver pending event `i`; a call opens wave 1.
        fn deliver(&mut self, i: usize) {
            let (to, input) = self.pending.remove(i);
            let input = match input {
                Input::Call(_) => {
                    let (sent, arrived) = self.counters[to];
                    Input::Call(Some((CkptCounts { epoch: 1, sent, arrived }, Vec::new())))
                }
                other => other,
            };
            self.run(to, input);
        }
    }

    fn explore(c: Cluster, leaves: &mut usize) {
        if c.pending.is_empty() {
            *leaves += 1;
            let member = [
                "member/Idle/Call(open)",
                "join",
                "member/Quiescing/Poll",
                "report",
                "member/Quiescing/Poll",
                "report",
                "member/Quiescing/Commit",
                "encode",
                "member/Writing/Encoded",
                "flush",
                "member/Flushing/Flushed",
                "ack",
                "member/AwaitingResume/Resume",
                "gc",
                "log-gc",
            ];
            let phases =
                [None, Some((Phase::Quiesce, 1)), None, Some((Phase::CommitBarrier, 1)), None];
            for (m, w) in c.waves.iter().enumerate() {
                assert_eq!(c.member_trace[m], member, "member {m}");
                assert_eq!(c.trails[m], phases, "member {m}");
                assert!(matches!(w.member, Member::Resumed { epoch: 1 }), "{:?}", w.member);
                assert!(matches!(w.leader, Leader::Idle), "{:?}", w.leader);
            }
            let rounds = ["poll"; 6].into_iter().chain(["commit"; 3]).chain(["resume"; 3]);
            assert_eq!(c.leader_trace, rounds.collect::<Vec<_>>());
            return;
        }
        for i in 0..c.pending.len() {
            let mut next = c.clone();
            next.deliver(i);
            explore(next, leaves);
        }
    }

    /// Every order in which the leader can receive JOINs, REPORTs and ACKs
    /// (and the members can call) commits every member once, then resumes
    /// it, with the same rows and actions on every member, which passes
    /// quiesce, then the commit barrier, once each.
    #[test]
    fn every_delivery_order_commits_each_member_once() {
        let mut leaves = 0;
        explore(Cluster::new(), &mut leaves);
        // Calls and JOINs: 6! / 2^3 orders; each REPORT round and the ACKs:
        // 3! each.
        assert_eq!(leaves, 90 * 6 * 6 * 6);
    }

    fn replica(partner: u32, owner: u32) -> Replica {
        let frame = Arc::new(vec![partner as u8]);
        Replica { partner: r(partner), owner: r(owner), frame, logical: 10 }
    }

    /// A one-member cluster at wave `epoch`, its two replica frames pushed:
    /// it passed quiesce and entered replicate.
    fn replicating(epoch: u64, t0: Instant) -> Wave {
        let mut trail = vec![None];
        let open = Some((CkptCounts { epoch, sent: 0, arrived: 0 }, Vec::new()));
        let (w, _) = step(Wave::new(vec![r(0)], true, true), Input::Call(open), t0);
        note(&mut trail, &w);
        let (w, _) = step(w, Input::Join(r(0), CkptCounts { epoch, sent: 0, arrived: 0 }), t0);
        note(&mut trail, &w);
        let (w, _) = step(w, Input::Commit(epoch), t0);
        note(&mut trail, &w);
        let (w, a) = step(w, Input::Encoded(Notices::new(), Arc::new(Vec::new()), 0), t0);
        note(&mut trail, &w);
        assert_eq!(tags(&a), ["replicate"]);
        let (w, a) = step(w, Input::Replicas(vec![replica(5, 0), replica(6, 0)]), t0);
        note(&mut trail, &w);
        assert_eq!(tags(&a), ["push", "push"]);
        let want = [None, Some((Phase::Quiesce, epoch)), None, Some((Phase::Replicate, epoch))];
        assert_eq!(trail, want);
        w
    }

    fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first.clone());
                out.push(tail);
            }
        }
        out
    }

    /// Every order of k = 2 BLOB_ACKs, mixed with a duplicate, a stale and
    /// a future epoch and an unknown slot: the wave ACKs exactly once, at
    /// the second distinct current ACK, and then resumes, leaving replicate
    /// for the commit barrier once.
    #[test]
    fn every_order_of_blob_acks_commits_once() {
        let t0 = Instant::now();
        let acks = [(5, 0, 1), (6, 0, 1), (5, 0, 1), (5, 0, 0), (6, 0, 2), (6, 9, 1)];
        let orders = permutations(&acks);
        assert_eq!(orders.len(), 720);
        for order in orders {
            let mut w = replicating(1, t0);
            let mut trail = vec![w.member.phase()];
            let (mut seen, mut acked_at) = (BTreeSet::new(), None);
            for (i, &(p, o, e)) in order.iter().enumerate() {
                let (next, a) = step(w, Input::BlobAck(r(p), r(o), e), t0);
                w = next;
                note(&mut trail, &w);
                let fresh = (o, e) == (0, 1) && seen.insert(p);
                let want: &[&str] = match (fresh, seen.len()) {
                    (false, _) => &[],
                    (true, 1) => &["repl-ack"],
                    (true, _) => &["repl-ack", "flush"],
                };
                assert_eq!(tags(&a), want, "{order:?} at {i}");
                if want.len() > 1 {
                    acked_at = Some(i);
                    let (next, a) = step(w, Input::Flushed, t0);
                    assert_eq!(tags(&a), ["ack"], "{order:?} at {i}");
                    w = next;
                    note(&mut trail, &w);
                }
            }
            assert!(acked_at.is_some(), "{order:?}");
            assert!(matches!(w.member, Member::AwaitingResume { epoch: 1, .. }));
            let (w, a) = step(w, Input::Resume(1), t0);
            note(&mut trail, &w);
            assert_eq!(tags(&a), ["gc", "log-gc"]);
            assert!(matches!(w.member, Member::Resumed { epoch: 1 }));
            let want = [Some((Phase::Replicate, 1)), Some((Phase::CommitBarrier, 1)), None];
            assert_eq!(trail, want, "{order:?}");
        }
    }

    /// Unacked frames are re-pushed once `REPL_RETRY` passed; a
    /// CHUNK_REQ of the open wave is answered from its manifest, a stale
    /// one is not.
    #[test]
    fn retries_and_chunk_requests_follow_the_barrier() {
        let t0 = Instant::now();
        let w = replicating(3, t0);
        let (w, a) = step(w, Input::Tick, t0 + Duration::from_millis(100));
        assert!(a.is_empty());
        let (w, _) = step(w, Input::BlobAck(r(5), r(0), 3), t0);
        let retry = t0 + REPL_RETRY;
        let (w, a) = step(w, Input::Tick, retry);
        assert!(matches!(a.as_slice(), [Action::Push(3, p)] if p.partner == r(6)), "{a:?}");
        let (w, a) = step(w, Input::Tick, retry + Duration::from_millis(1));
        assert!(a.is_empty(), "the retry timer restarted");
        let (w, a) = step(w, Input::ChunkReq(r(6), r(0), 3, vec![1, 2]), t0);
        assert!(matches!(a.as_slice(), [Action::Chunks(p, 3, m, miss)]
            if *p == r(6) && **m == vec![5] && *miss == vec![1, 2]));
        let (w, a) = step(w, Input::ChunkReq(r(6), r(0), 2, vec![1]), t0);
        assert!(a.is_empty());
        let (w, _) = step(w, Input::BlobAck(r(6), r(0), 3), t0);
        let (w, _) = step(w, Input::Flushed, t0);
        let (_, a) = step(w, Input::ChunkReq(r(6), r(0), 3, vec![1]), t0);
        assert!(a.is_empty(), "the barrier is gone");
    }

    /// The next call after RESUME releases the partner copies, due or not,
    /// and only when the partners keep full copies.
    #[test]
    fn the_call_after_resume_releases_the_partner_copies() {
        let t0 = Instant::now();
        for release in [true, false] {
            let mut w = replicating(1, t0);
            w.release = release;
            let (w, _) = step(w, Input::BlobAck(r(5), r(0), 1), t0);
            let (w, _) = step(w, Input::BlobAck(r(6), r(0), 1), t0);
            let (w, _) = step(w, Input::Flushed, t0);
            let (w, _) = step(w, Input::Resume(1), t0);
            let (w, a) = step(w, Input::Tick, t0);
            assert!(a.is_empty() && matches!(w.member, Member::Resumed { .. }));
            let (w, a) = step(w, Input::Call(None), t0);
            assert_eq!(tags(&a), if release { vec!["release"] } else { vec![] });
            assert!(matches!(a.first(), None | Some(Action::Release(1))));
            let (_, a) = step(w, Input::Call(None), t0);
            assert!(a.is_empty(), "released once");
        }
    }

    /// Every member state refuses every input it cannot take, naming both;
    /// BLOB_ACKs and CHUNK_REQs are never refused (a retry's or an earlier
    /// wave's are ignored).
    #[test]
    fn out_of_state_inputs_are_errors() {
        let t0 = Instant::now();
        let c = |epoch| CkptCounts { epoch, sent: 0, arrived: 0 };
        let encoded = || Input::Encoded(Notices::new(), Arc::new(Vec::new()), 0);
        let inputs = || {
            vec![
                ("call", Input::Call(None)),
                ("open", Input::Call(Some((c(2), Vec::new())))),
                ("tick", Input::Tick),
                ("poll", Input::Poll(c(1))),
                ("poll-stale", Input::Poll(c(0))),
                ("commit", Input::Commit(1)),
                ("commit-stale", Input::Commit(0)),
                ("encoded", encoded()),
                ("replicas", Input::Replicas(Vec::new())),
                ("resume", Input::Resume(1)),
                ("resume-stale", Input::Resume(0)),
                ("blob-ack", Input::BlobAck(r(5), r(0), 0)),
                ("chunk-req", Input::ChunkReq(r(5), r(0), 0, Vec::new())),
                ("flushed", Input::Flushed),
            ]
        };
        let base = Wave::new(vec![r(0), r(1)], true, true);
        let with = |member| Wave { member, ..base.clone() };
        let notices = Notices::new();
        let states = [
            ("Idle", with(Member::Idle), vec!["call", "open"]),
            (
                "Quiescing",
                with(Member::Quiescing { epoch: 1, body: Vec::new() }),
                vec!["tick", "poll", "commit"],
            ),
            ("Writing", with(Member::Writing { epoch: 1, notices: None }), vec!["encoded"]),
            (
                "Writing",
                with(Member::Writing { epoch: 1, notices: Some(notices.clone()) }),
                vec!["replicas"],
            ),
            ("Replicating", replicating(1, t0), vec!["tick"]),
            (
                "Flushing",
                with(Member::Flushing { epoch: 1, notices: notices.clone() }),
                vec!["flushed"],
            ),
            (
                "AwaitingResume",
                with(Member::AwaitingResume { epoch: 1, notices }),
                vec!["tick", "resume"],
            ),
            ("Resumed", with(Member::Resumed { epoch: 1 }), vec!["call", "open", "tick"]),
        ];
        for (name, wave, legal) in states {
            for (input, event) in inputs() {
                let ok = legal.contains(&input) || input == "blob-ack" || input == "chunk-req";
                match wave.clone().step(event, t0) {
                    Ok(_) => assert!(ok, "{name} took {input}"),
                    Err(e) => {
                        assert!(!ok, "{name} refused {input}: {e}");
                        assert!(e.to_string().contains(&format!("member {name}")), "{e}");
                    }
                }
            }
        }
        let leader = |leader| Wave { leader, ..base.clone() };
        let counting = Leader::Counting { epoch: 1, counts: BTreeMap::from([(r(0), (0, 0))]) };
        let committing = Leader::Committing { epoch: 1, acked: BTreeSet::new() };
        let cases = [
            (Leader::Idle, vec!["join"]),
            (counting, vec!["join", "report"]),
            (committing, vec!["ack"]),
        ];
        for (state, legal) in cases {
            for (input, event) in [
                ("join", Input::Join(r(1), c(1))),
                ("join-stale", Input::Join(r(1), c(0))),
                ("report", Input::Report(r(1), c(1))),
                ("report-stale", Input::Report(r(1), c(0))),
                ("ack", Input::Ack(r(1), 1)),
                ("ack-stale", Input::Ack(r(1), 0)),
            ] {
                let ok = legal.contains(&input) || (input == "join-stale" && legal == ["join"]);
                let got = leader(state.clone()).step(event, t0);
                assert_eq!(got.is_ok(), ok, "{state:?} / {input}: {:?}", got.err());
            }
        }
    }

    /// The row list cannot rot: every row a step takes is listed (checked
    /// in `step`), and the explorers and the replication tests take every
    /// listed row.
    #[test]
    fn every_listed_row_is_taken() {
        every_delivery_order_commits_each_member_once();
        every_order_of_blob_acks_commits_once();
        retries_and_chunk_requests_follow_the_barrier();
        the_call_after_resume_releases_the_partner_copies();
        let taken = TAKEN.with(|t| t.borrow().clone());
        let untaken: Vec<_> = ROWS.iter().filter(|r| !taken.contains(*r)).collect();
        assert!(untaken.is_empty(), "never taken: {untaken:?}");
        assert_eq!(taken.len(), ROWS.len(), "ROWS lists a row twice");
    }
}
