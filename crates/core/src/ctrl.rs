//! Control-message wire formats of the SPBC protocol.
//!
//! Control traffic is tiny compared to payload traffic and is never logged —
//! the protocol's correctness never depends on a control message surviving a
//! crash (Rollback is re-sent by the restarted rank; LastMessage and replay
//! are regenerated in response).

use mini_mpi::error::Result;
use mini_mpi::wire::{Decode, Encode, Reader};

// The wave kinds below (JOIN, REPORT, POLL, COMMIT, ACK, RESUME, and the
// storage kinds BLOB, BLOB_ACK, CHUNK_REQ and RELEASE) are the inputs and
// outputs of the transition table in `wave.rs` (DESIGN.md §5, "The
// checkpoint wave as a transition table"); ROLLBACK, LASTMSG, the GRANT
// kinds and LOG_GC are those of `recovery.rs` ("Recovery as a transition
// table").

/// `kind` value of [`Rollback`]: sent to every other cluster's rank at a
/// restart, and mirrored once per peer epoch by a restarted rank that
/// receives one (the recovery table's `Start` and ROLLBACK rows).
pub const KIND_ROLLBACK: u16 = 1;
/// `kind` value of [`LastMessage`]: the answer to each [`Rollback`] (the
/// recovery table's LASTMSG row).
pub const KIND_LASTMSG: u16 = 2;
/// `kind` value of [`CkptJoin`]: a member opens a wave (member
/// `Idle`/`Resumed` → `Quiescing`).
pub const KIND_CKPT_JOIN: u16 = 3;
/// `kind` value of [`CkptCounts`] sent as a poll response (leader
/// `Counting`).
pub const KIND_CKPT_REPORT: u16 = 4;
/// `kind` value of a leader poll (body: checkpoint epoch): the counters
/// did not balance; member `Quiescing` answers with a report.
pub const KIND_CKPT_POLL: u16 = 5;
/// `kind` value of a leader commit (body: checkpoint epoch): member
/// `Quiescing` → `Writing`, leader `Counting` → `Committing`.
pub const KIND_CKPT_COMMIT: u16 = 6;
/// `kind` value of a member's commit acknowledgement (body: checkpoint
/// epoch). The member's own copy is durable and its replicas are acked; it
/// now blocks until the leader's resume (member `AwaitingResume`; the last
/// ACK moves the leader from `Committing` to `Idle`).
pub const KIND_CKPT_ACK: u16 = 7;
/// `kind` value of the leader's resume broadcast (body: checkpoint epoch):
/// every member has committed, the application may continue. Without this
/// barrier a committed member's next sends could reach a sibling that has
/// not committed yet and be captured in its checkpoint — an inconsistent
/// cut, since the send is not in the sender's. Member `AwaitingResume` →
/// `Resumed`.
pub const KIND_CKPT_RESUME: u16 = 8;
/// Coordinated replay (HydEE model): replayer asks permission to re-send its
/// next logged message (body: Lamport timestamp of that message). Grant
/// `Idle` → `Requested` in the recovery table.
pub const KIND_GRANT_REQ: u16 = 10;
/// Coordinated replay: coordinator grants the request (empty body); the
/// recovery table's GRANT rows.
pub const KIND_GRANT: u16 = 11;
/// Coordinated replay: replayer reports the granted replay as sent, or
/// releases a grant it cannot use (empty body). Grant → `Idle`.
pub const KIND_GRANT_DONE: u16 = 12;
/// `kind` value of [`CkptBlob`]: a committing rank pushes one replica frame
/// to a partner rank in another cluster for replicated storage
/// (spbc-ckptstore decides the frame: the sealed blob, its chunk-hash
/// manifest, or a parity shard). Unlike the other control messages this
/// one is *storage* traffic — it carries checkpoint bytes and is counted
/// under replication metrics, not `ctrl_msgs`.
pub const KIND_CKPT_BLOB: u16 = 13;
/// `kind` value of [`CkptBlobAck`]: the partner has durably stored the
/// pushed copy. The owner's commit barrier waits for all of these.
pub const KIND_CKPT_BLOB_ACK: u16 = 14;
/// `kind` value of [`CkptChunkReq`]: the partner's answer to a manifest
/// [`CkptBlob`] naming chunks missing from its store — the owner replies
/// with a [`CkptBlob`] carrying exactly those chunk bodies.
pub const KIND_CKPT_CHUNK_REQ: u16 = 16;
/// `kind` value of [`LogGc`]: a receiver whose cluster resumed from wave N
/// tells an out-of-cluster sender which log entries no checkpoint the store
/// still retains (N, durable on every member, and up) can ever ask for
/// again. Sent by the wave's RESUME; taken by the recovery table's LOG_GC
/// row.
pub const KIND_LOG_GC: u16 = 17;
/// `kind` value of a member's partner-copy release (body: checkpoint epoch
/// N). Sent after the member's wave N resumed, at its next checkpoint call,
/// to every partner that holds its copies: N is durable on every member of
/// its cluster and the senders' logs no longer reach anything older. The
/// partner drops the sender's copies below N and their chunk-store
/// registrations. Like [`KIND_CKPT_BLOB`] it is storage traffic, not
/// counted in `ctrl_msgs`. Losing one only delays the drop: the next push
/// prunes to the store's `partner_keep` window.
pub const KIND_CKPT_RELEASE: u16 = 18;

/// Per-channel rollback entry: state of one incoming channel (peer → me) as
/// restored from the checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RollbackChannel {
    /// Communicator id of the channel.
    pub comm: u64,
    /// Last sequence number whose envelope I had seen at the checkpoint
    /// (`LR` of Algorithm 1 line 20).
    pub lr: u64,
    /// Sequence numbers at or below `lr` whose *payload* I never received
    /// (pending rendezvous at the cut) — replay these too.
    pub missing: Vec<u64>,
}

/// Algorithm 1 lines 19-20: a restarted rank announces its restored channel
/// state to a peer; the peer replies [`LastMessage`] and replays from its log.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Rollback {
    /// Restart epoch of the sender (dedupes the mutual-rollback exchange
    /// under concurrent cluster failures).
    pub epoch: u32,
    /// One entry per known channel from the addressee to me. Channels not
    /// listed have `lr = 0` (replay everything).
    pub channels: Vec<RollbackChannel>,
}

/// Algorithm 1 lines 21-22: reply to [`Rollback`] telling the restarted rank
/// what I already received from it, so it can skip re-sending
/// (`LS`, line 7).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LastMessage {
    /// One entry per channel from the restarted rank to me.
    pub channels: Vec<LastMessageChannel>,
}

/// Per-channel [`LastMessage`] entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LastMessageChannel {
    /// Communicator id of the channel.
    pub comm: u64,
    /// Last sequence number whose envelope I received on this channel — the
    /// restarted rank sets `LS` to this and suppresses re-sends at or below
    /// it.
    pub last_recv: u64,
    /// Exceptions: envelopes I received whose payload never arrived (the
    /// sender died mid-rendezvous). These must be delivered despite being
    /// at or below `last_recv` — replayed from the log if already sent
    /// before the checkpoint, or exempted from suppression if re-executed.
    pub incomplete: Vec<u64>,
}

/// Checkpoint coordination body: member's quiescence counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptCounts {
    /// Target checkpoint epoch.
    pub epoch: u64,
    /// Intra-cluster messages this member has sent since the run began.
    pub sent: u64,
    /// Intra-cluster envelopes this member has seen arrive.
    pub arrived: u64,
}

/// Alias: a join announcement carries the same body as a report.
pub type CkptJoin = CkptCounts;

/// A replica frame pushed to a partner rank for replicated storage. The
/// frame is opaque to the receiver (framed + checksummed by
/// spbc-ckptstore); it stores the copy keyed by `(owner, epoch)` and acks.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CkptBlob {
    /// The key the copy is stored under: the rank that committed the
    /// checkpoint, or a synthetic parity owner.
    pub owner: u32,
    /// Checkpoint wave the frame belongs to.
    pub epoch: u64,
    /// The sealed frame: an `SPBCCKP2` full blob, an `SPBCCKP4` manifest
    /// (with or without inline chunk bodies), or an `SPBCPAR1` parity
    /// shard.
    pub blob: Vec<u8>,
}

/// Acknowledgement of a stored [`CkptBlob`] copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CkptBlobAck {
    /// The [`CkptBlob::owner`] being acknowledged: one partner can hold
    /// several of a wave's frames (parity shards when `m > k`).
    pub owner: u32,
    /// Checkpoint wave being acknowledged (guards against stale acks from a
    /// previous wave's retries).
    pub epoch: u64,
}

/// The partner's request for chunk bodies its store is missing, answered
/// with a [`CkptBlob`] carrying a subset `SPBCCKP4` blob.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CkptChunkReq {
    /// Owner rank whose manifest this answers.
    pub owner: u32,
    /// Checkpoint wave (guards against stale requests across retries).
    pub epoch: u64,
    /// Manifest indices of the chunks whose bodies are needed.
    pub missing: Vec<u32>,
}

/// Receiver-checkpoint log GC notice (§6.2: logged messages are part of the
/// checkpoints and "the associated memory can be freed afterwards"). Losing
/// one only delays pruning until the next wave's notice.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LogGc {
    /// `(comm, upto)` per channel from the addressee to me: every logged
    /// seqnum `<= upto` is covered by my oldest retained checkpoint — its
    /// envelope is below that cut's `LR` and its payload is not owed.
    pub channels: Vec<(u64, u64)>,
}

impl Encode for LogGc {
    fn encode(&self, out: &mut Vec<u8>) {
        self.channels.encode(out);
    }
}
impl Decode for LogGc {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LogGc { channels: Decode::decode(r)? })
    }
}

impl Encode for RollbackChannel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.comm.encode(out);
        self.lr.encode(out);
        self.missing.encode(out);
    }
}
impl Decode for RollbackChannel {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(RollbackChannel {
            comm: Decode::decode(r)?,
            lr: Decode::decode(r)?,
            missing: Decode::decode(r)?,
        })
    }
}

impl Encode for Rollback {
    fn encode(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.channels.encode(out);
    }
}
impl Decode for Rollback {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Rollback { epoch: Decode::decode(r)?, channels: Decode::decode(r)? })
    }
}

impl Encode for LastMessageChannel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.comm.encode(out);
        self.last_recv.encode(out);
        self.incomplete.encode(out);
    }
}
impl Decode for LastMessageChannel {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LastMessageChannel {
            comm: Decode::decode(r)?,
            last_recv: Decode::decode(r)?,
            incomplete: Decode::decode(r)?,
        })
    }
}

impl Encode for LastMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.channels.encode(out);
    }
}
impl Decode for LastMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LastMessage { channels: Decode::decode(r)? })
    }
}

impl Encode for CkptCounts {
    fn encode(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.sent.encode(out);
        self.arrived.encode(out);
    }
}
impl Decode for CkptCounts {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CkptCounts {
            epoch: Decode::decode(r)?,
            sent: Decode::decode(r)?,
            arrived: Decode::decode(r)?,
        })
    }
}

impl CkptBlob {
    /// Append the encoding of a `CkptBlob { owner, epoch, blob }` to `out`
    /// from a borrowed frame: the same bytes as encoding the owned message,
    /// without first copying the frame into one.
    pub fn encode_frame(owner: u32, epoch: u64, blob: &[u8], out: &mut Vec<u8>) {
        owner.encode(out);
        epoch.encode(out);
        blob.encode(out);
    }
}

impl Encode for CkptBlob {
    fn encode(&self, out: &mut Vec<u8>) {
        Self::encode_frame(self.owner, self.epoch, &self.blob, out);
    }
}
impl Decode for CkptBlob {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CkptBlob {
            owner: Decode::decode(r)?,
            epoch: Decode::decode(r)?,
            blob: Decode::decode(r)?,
        })
    }
}

impl Encode for CkptBlobAck {
    fn encode(&self, out: &mut Vec<u8>) {
        self.owner.encode(out);
        self.epoch.encode(out);
    }
}
impl Decode for CkptBlobAck {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CkptBlobAck { owner: Decode::decode(r)?, epoch: Decode::decode(r)? })
    }
}

impl Encode for CkptChunkReq {
    fn encode(&self, out: &mut Vec<u8>) {
        self.owner.encode(out);
        self.epoch.encode(out);
        self.missing.encode(out);
    }
}
impl Decode for CkptChunkReq {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CkptChunkReq {
            owner: Decode::decode(r)?,
            epoch: Decode::decode(r)?,
            missing: Decode::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_mpi::wire::{from_bytes, to_bytes};

    #[test]
    fn rollback_roundtrip() {
        let rb = Rollback {
            epoch: 2,
            channels: vec![
                RollbackChannel { comm: 0, lr: 17, missing: vec![4, 9] },
                RollbackChannel { comm: 99, lr: 0, missing: vec![] },
            ],
        };
        let back: Rollback = from_bytes(&to_bytes(&rb)).unwrap();
        assert_eq!(back, rb);
    }

    #[test]
    fn lastmsg_roundtrip() {
        let lm = LastMessage {
            channels: vec![LastMessageChannel { comm: 3, last_recv: 8, incomplete: vec![7] }],
        };
        let back: LastMessage = from_bytes(&to_bytes(&lm)).unwrap();
        assert_eq!(back, lm);
    }

    #[test]
    fn log_gc_roundtrip() {
        let gc = LogGc { channels: vec![(0, 41), (99, 7)] };
        let back: LogGc = from_bytes(&to_bytes(&gc)).unwrap();
        assert_eq!(back, gc);
    }

    #[test]
    fn counts_roundtrip() {
        let c = CkptCounts { epoch: 4, sent: 100, arrived: 99 };
        let back: CkptCounts = from_bytes(&to_bytes(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn ckpt_blob_roundtrip() {
        let b = CkptBlob { owner: 3, epoch: 7, blob: vec![0xAA; 1000] };
        let back: CkptBlob = from_bytes(&to_bytes(&b)).unwrap();
        assert_eq!(back, b);
        let mut borrowed = Vec::new();
        CkptBlob::encode_frame(3, 7, &b.blob, &mut borrowed);
        assert_eq!(borrowed, to_bytes(&b), "a borrowed frame encodes like the owned message");
        let a = CkptBlobAck { owner: 3, epoch: 7 };
        let back: CkptBlobAck = from_bytes(&to_bytes(&a)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn chunk_req_roundtrip() {
        let r = CkptChunkReq { owner: 5, epoch: 9, missing: vec![0, 3, 17] };
        let back: CkptChunkReq = from_bytes(&to_bytes(&r)).unwrap();
        assert_eq!(back, r);
        let empty = CkptChunkReq { owner: 1, epoch: 2, missing: vec![] };
        let back: CkptChunkReq = from_bytes(&to_bytes(&empty)).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            KIND_ROLLBACK,
            KIND_LASTMSG,
            KIND_CKPT_JOIN,
            KIND_CKPT_REPORT,
            KIND_CKPT_POLL,
            KIND_CKPT_COMMIT,
            KIND_CKPT_ACK,
            KIND_CKPT_RESUME,
            KIND_GRANT_REQ,
            KIND_GRANT,
            KIND_GRANT_DONE,
            KIND_CKPT_BLOB,
            KIND_CKPT_BLOB_ACK,
            KIND_CKPT_CHUNK_REQ,
            KIND_LOG_GC,
            KIND_CKPT_RELEASE,
        ];
        let mut sorted = kinds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len());
    }
}
