//! Fundamental identifier types shared across the runtime.

use std::fmt;

/// A process (rank) identifier within the world.
///
/// Ranks are dense integers `0..world_size`. Service ranks (e.g. the HydEE
/// coordinator) live *above* the world: `world_size..world_size+services`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankId(pub u32);

impl RankId {
    /// Numeric value as `usize`, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for RankId {
    fn from(v: u32) -> Self {
        RankId(v)
    }
}

impl From<usize> for RankId {
    fn from(v: usize) -> Self {
        RankId(v as u32)
    }
}

/// A communicator context identifier.
///
/// `CommId(0)` is always `WORLD`. Sub-communicators created by
/// [`crate::rank::Rank::comm_split`] derive their id deterministically from
/// `(parent id, split sequence number, color)`, so every member — and every
/// *execution* — agrees on the id without global coordination. Determinism
/// across executions matters because channel identity includes the
/// communicator, and SPBC's replay is per-channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u64);

/// The world communicator id.
pub const COMM_WORLD: CommId = CommId(0);

impl fmt::Debug for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A message tag. User tags must stay below [`TAG_USER_LIMIT`]; the space
/// above is reserved for library-internal traffic (collectives).
pub type Tag = u32;

/// Highest user tag (exclusive). Collectives use tags at and above this.
pub const TAG_USER_LIMIT: Tag = 1 << 30;

/// Base tag for collective-operation traffic.
pub const TAG_COLL_BASE: Tag = TAG_USER_LIMIT;

/// Source selector of a receive request: a concrete rank or the
/// `MPI_ANY_SOURCE` wildcard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Receive only from this rank.
    Rank(RankId),
    /// `MPI_ANY_SOURCE`: match a message from any sender.
    Any,
}

impl Source {
    /// Does this selector accept messages from `src`?
    #[inline]
    pub fn accepts(self, src: RankId) -> bool {
        match self {
            Source::Rank(r) => r == src,
            Source::Any => true,
        }
    }
}

impl From<RankId> for Source {
    fn from(r: RankId) -> Self {
        Source::Rank(r)
    }
}

impl From<u32> for Source {
    fn from(r: u32) -> Self {
        Source::Rank(RankId(r))
    }
}

/// Tag selector of a receive request: a concrete tag or `MPI_ANY_TAG`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TagSel {
    /// Match only this tag.
    Tag(Tag),
    /// `MPI_ANY_TAG`: match any tag.
    Any,
}

impl TagSel {
    /// Does this selector accept `tag`?
    #[inline]
    pub fn accepts(self, tag: Tag) -> bool {
        match self {
            TagSel::Tag(t) => t == tag,
            TagSel::Any => true,
        }
    }
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Tag(t)
    }
}

/// The extra match identifier carried by every message and receive request
/// (Section 4.3 of the paper): `(pattern_id, iteration_id)`.
///
/// The default identifier `(0, 0)` denotes the *default communication
/// pattern*; all traffic outside programmer-declared patterns uses it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MatchIdent {
    /// Identifier generated by `DECLARE_PATTERN`.
    pub pattern: u32,
    /// Iteration counter incremented by `BEGIN_ITERATION`.
    pub iteration: u32,
}

impl MatchIdent {
    /// The default pattern identifier.
    pub const DEFAULT: MatchIdent = MatchIdent { pattern: 0, iteration: 0 };

    /// Construct an identifier.
    pub fn new(pattern: u32, iteration: u32) -> Self {
        MatchIdent { pattern, iteration }
    }
}

/// A directed channel: ordered pair of ranks within a communicator.
///
/// The paper models a channel per `(src, dst, comm)`; sequence numbers,
/// logging and replay are all per-channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ChannelId {
    /// Sending rank (world id).
    pub src: RankId,
    /// Receiving rank (world id).
    pub dst: RankId,
    /// Communicator context.
    pub comm: CommId,
}

impl ChannelId {
    /// Construct a channel id.
    pub fn new(src: RankId, dst: RankId, comm: CommId) -> Self {
        ChannelId { src, dst, comm }
    }

    /// The reverse channel (dst -> src) in the same communicator.
    pub fn reverse(self) -> Self {
        ChannelId { src: self.dst, dst: self.src, comm: self.comm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_accepts() {
        assert!(Source::Any.accepts(RankId(3)));
        assert!(Source::Rank(RankId(3)).accepts(RankId(3)));
        assert!(!Source::Rank(RankId(2)).accepts(RankId(3)));
    }

    #[test]
    fn tag_accepts() {
        assert!(TagSel::Any.accepts(42));
        assert!(TagSel::Tag(42).accepts(42));
        assert!(!TagSel::Tag(41).accepts(42));
    }

    #[test]
    fn channel_reverse_is_involutive() {
        let c = ChannelId::new(RankId(1), RankId(2), COMM_WORLD);
        assert_eq!(c.reverse().reverse(), c);
        assert_ne!(c.reverse(), c);
    }

    #[test]
    fn ident_default_is_zero() {
        assert_eq!(MatchIdent::default(), MatchIdent::DEFAULT);
        assert_eq!(MatchIdent::DEFAULT.pattern, 0);
    }

    #[test]
    fn rank_display_and_idx() {
        let r = RankId(7);
        assert_eq!(r.idx(), 7);
        assert_eq!(format!("{r}"), "7");
        assert_eq!(format!("{r:?}"), "r7");
    }
}
