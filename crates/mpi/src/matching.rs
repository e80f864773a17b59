//! The message-matching engine: posted-receive queue and unexpected-message
//! queue, with MPI ordering semantics.
//!
//! * An arriving envelope matches the **first** posted request (in post
//!   order) that accepts it.
//! * A newly posted request matches the **first** unexpected envelope (in
//!   arrival order) that it accepts.
//!
//! Per-channel FIFO is provided by the transport (one mailbox per rank,
//! per-producer order preserved), so two messages on the same channel are
//! always considered in send order — the guarantee Section 3.2 relies on.
//!
//! Admissibility is the base `(comm, src, tag)` check **and** a pluggable
//! predicate supplied by the fault-tolerance layer (SPBC adds
//! `(pattern_id, iteration_id)` equality there).
//!
//! # Indexing
//!
//! Both queues are indexed so that a lookup touches only entries that could
//! match it:
//!
//! * **Posted receives.** A fully concrete receive lives in a bucket keyed by
//!   `(comm, src, tag)`; a receive with a source or tag wildcard lives on one
//!   side-list.
//! * **Unexpected arrivals.** Every envelope is concrete. Arrivals are
//!   grouped by `(comm, tag)`, and a group holds one FIFO per source. An
//!   exact receive, and an `MPI_ANY_SOURCE` receive or probe with a concrete
//!   tag (AMG's `Iprobe`), cost one hash lookup plus a scan of that group's
//!   sources. Only `MPI_ANY_TAG` walks every group.
//!
//! Every entry carries a stamp from a monotonic counter (post order /
//! arrival order), so MPI's global ordering reduces to taking the smallest
//! stamp among a few candidates: for an arrival, the first admissible entry
//! of its exact bucket and of the side-list; for a post, the first
//! admissible entry of each FIFO it accepts. The FT admissibility predicate
//! only scans inside a candidate bucket or FIFO, which keeps SPBC's
//! pattern-ID veto from degrading lookups to full-queue scans.
//!
//! # Bound
//!
//! A drained bucket or group stays in its map, so a persistent channel
//! (MiniGhost's named halos) reuses its allocation on every message. Once a
//! map's drained entries outnumber its live ones by [`SWEEP_SLACK`], one
//! pass drops them all. Each map therefore holds at most `2 × live +
//! SWEEP_SLACK` keys, and a sweep costs amortized O(1) per drained key.
//! Keeping every drained key does not work here: collectives
//! (`collectives.rs`, `coll_tag`) give every call a fresh tag, so such an
//! index grows by about one key per peer per collective, and a wildcard
//! lookup that walks it costs O(collectives ever run).
//!
//! See `reference::ReferenceMatchEngine` for the semantics oracle and
//! `crates/mpi/tests/proptest_matching.rs` for the differential test.

use crate::envelope::Envelope;
use crate::hash::FxHashMap;
use crate::request::{RecvSpec, RequestId};
use crate::types::{CommId, RankId, Source, Tag, TagSel};
use bytes::Bytes;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;

/// Payload-or-placeholder of an arrived envelope.
#[derive(Clone, Debug)]
pub enum ArrivedBody {
    /// Full eager message: payload is here.
    Eager(Bytes),
    /// Rendezvous announcement: payload still at the sender; `token`
    /// identifies the sender-side pending transfer to CTS.
    Rts {
        /// Sender-side transfer token.
        token: u64,
    },
}

/// An arrived-but-unmatched message (the "unexpected queue" entry).
#[derive(Clone, Debug)]
pub struct Arrived {
    /// Envelope of the message.
    pub env: Envelope,
    /// Eager payload or rendezvous placeholder.
    pub body: ArrivedBody,
}

impl Arrived {
    /// True when the payload has not arrived yet (pending rendezvous).
    pub fn is_pending_rts(&self) -> bool {
        matches!(self.body, ArrivedBody::Rts { .. })
    }
}

/// Posted-bucket key: a fully concrete receive's coordinates.
type ChanKey = (CommId, RankId, Tag);

/// Unexpected-group key: an envelope's coordinates less its source.
type GroupKey = (CommId, Tag);

/// How many drained queues a map may keep beyond its live ones before one
/// pass drops them. It exceeds a stencil's channel count (MiniGhost has 6
/// faces, a 27-point stencil 26 neighbours), so persistent channels that all
/// drain at the end of an iteration keep their allocations.
#[doc(hidden)]
pub const SWEEP_SLACK: usize = 64;

/// A posted receive plus its position in global post order.
struct PostedEntry {
    stamp: u64,
    entry: (RequestId, RecvSpec),
}

/// An unexpected arrival plus its position in global arrival order.
struct UnexpEntry {
    stamp: u64,
    arrived: Arrived,
}

/// A map value that drains to empty and refills.
trait Queue: Default {
    fn is_empty(&self) -> bool;
}

impl Queue for VecDeque<PostedEntry> {
    fn is_empty(&self) -> bool {
        VecDeque::is_empty(self)
    }
}

/// The unexpected arrivals on one `(comm, tag)`: one FIFO per source that
/// has sent on it, each in stamp order. A drained FIFO stays for its
/// source's next message, so a group holds at most one per rank.
#[derive(Default)]
struct Group {
    /// Entries across every FIFO.
    len: usize,
    fifos: Vec<(RankId, VecDeque<UnexpEntry>)>,
}

impl Queue for Group {
    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Group {
    fn push(&mut self, entry: UnexpEntry) {
        let src = entry.arrived.env.src;
        let fifo = match self.fifos.iter().position(|(s, _)| *s == src) {
            Some(i) => &mut self.fifos[i].1,
            None => {
                self.fifos.push((src, VecDeque::new()));
                &mut self.fifos.last_mut().expect("just pushed").1
            }
        };
        fifo.push_back(entry);
        self.len += 1;
    }

    /// `spec`'s earliest admissible arrival here, as `(fifo, position,
    /// entry)`: each accepted source offers its first admissible entry, and
    /// the smallest stamp wins.
    fn first(
        &self,
        spec: &RecvSpec,
        admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
    ) -> Option<(usize, usize, &UnexpEntry)> {
        let mut best: Option<(usize, usize, &UnexpEntry)> = None;
        for (f, (src, fifo)) in self.fifos.iter().enumerate() {
            if !spec.src.accepts(*src) {
                continue;
            }
            if let Some((i, e)) =
                fifo.iter().enumerate().find(|(_, e)| admissible(spec, &e.arrived.env))
            {
                if best.is_none_or(|(_, _, b)| e.stamp < b.stamp) {
                    best = Some((f, i, e));
                }
            }
        }
        best
    }

    fn remove(&mut self, fifo: usize, pos: usize) -> UnexpEntry {
        self.len -= 1;
        self.fifos[fifo].1.remove(pos).expect("position valid")
    }
}

/// Queues by key. A drained queue keeps its key and allocation until
/// drained queues outnumber live ones by [`SWEEP_SLACK`]; then one pass
/// drops every drained queue.
struct Buckets<K, Q> {
    map: FxHashMap<K, Q>,
    /// How many of `map`'s queues are empty.
    drained: usize,
}

impl<K, Q> Default for Buckets<K, Q> {
    fn default() -> Self {
        Buckets { map: FxHashMap::default(), drained: 0 }
    }
}

impl<K: Hash + Eq, Q: Queue> Buckets<K, Q> {
    /// The queue at `key`, about to take an entry; created if absent.
    fn fill(&mut self, key: K) -> &mut Q {
        match self.map.entry(key) {
            Entry::Occupied(o) => {
                let q = o.into_mut();
                if q.is_empty() {
                    self.drained -= 1;
                }
                q
            }
            Entry::Vacant(v) => v.insert(Q::default()),
        }
    }

    /// Run `take` on the queue at `key`. A `Some` means it removed an entry;
    /// if that drained the queue, count it and sweep when due.
    fn take<R>(&mut self, key: &K, take: impl FnOnce(&mut Q) -> Option<R>) -> Option<R> {
        let q = self.map.get_mut(key)?;
        let got = take(q)?;
        if q.is_empty() {
            self.drained += 1;
            if self.drained > self.map.len() - self.drained + SWEEP_SLACK {
                self.sweep();
            }
        }
        Some(got)
    }

    /// Drop every drained queue.
    fn sweep(&mut self) {
        self.map.retain(|_, q| !q.is_empty());
        self.drained = 0;
    }

    fn clear(&mut self) {
        self.map.clear();
        self.drained = 0;
    }

    /// `(held, live)` keys, counted from the queues themselves.
    fn counts(&self) -> (usize, usize) {
        (self.map.len(), self.map.values().filter(|q| !q.is_empty()).count())
    }
}

/// Midpoint of the stamp space: normal posts count up from here, re-posts at
/// the front (`post_front`) count down, so a front-posted request outranks
/// everything already queued without renumbering.
const STAMP_ORIGIN: u64 = 1 << 63;

/// The matching engine state for one rank.
pub struct MatchEngine {
    /// Fully concrete posted receives, bucketed by `(comm, src, tag)`; each
    /// bucket is stamp-ordered.
    posted_exact: Buckets<ChanKey, VecDeque<PostedEntry>>,
    /// Posted receives with a source or tag wildcard, stamp-ordered.
    posted_wild: VecDeque<PostedEntry>,
    posted_count: usize,
    /// Stamp for the next `post` (counts up from [`STAMP_ORIGIN`]).
    next_post_back: u64,
    /// Stamp for the next `post_front` (counts down from [`STAMP_ORIGIN`]).
    next_post_front: u64,
    /// Unexpected arrivals grouped by `(comm, tag)`.
    unexpected: Buckets<GroupKey, Group>,
    unexpected_count: usize,
    next_arrival: u64,
}

impl Default for MatchEngine {
    fn default() -> Self {
        MatchEngine {
            posted_exact: Buckets::default(),
            posted_wild: VecDeque::new(),
            posted_count: 0,
            next_post_back: STAMP_ORIGIN,
            next_post_front: STAMP_ORIGIN,
            unexpected: Buckets::default(),
            unexpected_count: 0,
            next_arrival: 0,
        }
    }
}

impl MatchEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact bucket a fully concrete spec belongs to, if it is one.
    fn exact_key(spec: &RecvSpec) -> Option<ChanKey> {
        match (spec.src, spec.tag) {
            (Source::Rank(src), TagSel::Tag(tag)) => Some((spec.comm, src, tag)),
            _ => None,
        }
    }

    /// Try to match an arriving envelope against the posted queue.
    ///
    /// On a match the posted entry is removed and its request id returned; the
    /// caller completes / CTSes the request. On no match the caller must push
    /// the arrival via [`MatchEngine::push_unexpected`].
    pub fn match_arrival(
        &mut self,
        env: &Envelope,
        admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
    ) -> Option<RequestId> {
        let key = (env.comm, env.src, env.tag);
        let wild_cand: Option<(u64, usize)> = self
            .posted_wild
            .iter()
            .enumerate()
            .find(|(_, e)| e.entry.1.accepts(env) && admissible(&e.entry.1, env))
            .map(|(i, e)| (e.stamp, i));
        // One bucket probe: bucket entries pass the base check by
        // construction, only the FT predicate can veto. "First posted that
        // accepts" = the smaller stamp of the bucket and wildcard candidates
        // (every accepting entry lives in exactly one of them).
        let exact = self.posted_exact.take(&key, |bucket| {
            let (idx, stamp) = bucket
                .iter()
                .enumerate()
                .find(|(_, e)| admissible(&e.entry.1, env))
                .map(|(i, e)| (i, e.stamp))?;
            if wild_cand.is_some_and(|(ws, _)| ws < stamp) {
                return None;
            }
            bucket.remove(idx)
        });
        let e = match exact {
            Some(e) => e,
            None => self.posted_wild.remove(wild_cand?.1).expect("index valid"),
        };
        self.posted_count -= 1;
        Some(e.entry.0)
    }

    /// Queue an arrival that matched nothing.
    pub fn push_unexpected(&mut self, arrived: Arrived) {
        let key = (arrived.env.comm, arrived.env.tag);
        let stamp = self.next_arrival;
        self.next_arrival += 1;
        self.unexpected.fill(key).push(UnexpEntry { stamp, arrived });
        self.unexpected_count += 1;
    }

    /// `spec`'s earliest admissible unexpected entry, and its group's key.
    fn find_unexpected(
        &self,
        spec: &RecvSpec,
        admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
    ) -> Option<(GroupKey, &UnexpEntry)> {
        match spec.tag {
            TagSel::Tag(tag) => {
                let key = (spec.comm, tag);
                let (_, _, e) = self.unexpected.map.get(&key)?.first(spec, admissible)?;
                Some((key, e))
            }
            // `MPI_ANY_TAG`: every group on the communicator competes and
            // the earliest stamp wins — the one lookup that walks the map.
            TagSel::Any => self
                .unexpected
                .map
                .iter()
                .filter(|((comm, _), _)| *comm == spec.comm)
                .filter_map(|(&key, g)| g.first(spec, admissible).map(|(_, _, e)| (key, e)))
                .min_by_key(|(_, e)| e.stamp),
        }
    }

    /// Try to match a newly posted request against the unexpected queue.
    ///
    /// On a match the unexpected entry is removed and returned; the caller
    /// completes / CTSes. On no match the caller must post the request via
    /// [`MatchEngine::post`].
    pub fn match_post(
        &mut self,
        spec: &RecvSpec,
        admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
    ) -> Option<Arrived> {
        // A concrete tag names its group; `MPI_ANY_TAG` has to find it.
        let key = match spec.tag {
            TagSel::Tag(tag) => (spec.comm, tag),
            TagSel::Any => self.find_unexpected(spec, admissible)?.0,
        };
        let entry = self.unexpected.take(&key, |g| {
            let (f, i, _) = g.first(spec, admissible)?;
            Some(g.remove(f, i))
        })?;
        self.unexpected_count -= 1;
        Some(entry.arrived)
    }

    /// Append a request to the posted queue.
    pub fn post(&mut self, id: RequestId, spec: RecvSpec) {
        let stamp = self.next_post_back;
        self.next_post_back += 1;
        let entry = PostedEntry { stamp, entry: (id, spec) };
        match Self::exact_key(&spec) {
            Some(key) => self.posted_exact.fill(key).push_back(entry),
            None => self.posted_wild.push_back(entry),
        }
        self.posted_count += 1;
    }

    /// Re-post a request at the *front* of the posted queue — used when a
    /// matched rendezvous receive must be re-armed because the sender died
    /// before shipping the payload; front placement preserves its original
    /// matching priority.
    pub fn post_front(&mut self, id: RequestId, spec: RecvSpec) {
        self.next_post_front -= 1;
        let entry = PostedEntry { stamp: self.next_post_front, entry: (id, spec) };
        match Self::exact_key(&spec) {
            Some(key) => self.posted_exact.fill(key).push_front(entry),
            None => self.posted_wild.push_front(entry),
        }
        self.posted_count += 1;
    }

    /// Remove and return all pending-rendezvous (RTS) unexpected entries from
    /// `src` — their tokens dangle once the sender has been restarted.
    /// Returned envelopes are in arrival order.
    pub fn purge_rts_from(&mut self, src: RankId) -> Vec<Envelope> {
        let mut purged: Vec<(u64, Envelope)> = Vec::new();
        for group in self.unexpected.map.values_mut() {
            for (_, fifo) in group.fifos.iter_mut().filter(|(s, _)| *s == src) {
                fifo.retain(|e| {
                    if e.arrived.is_pending_rts() {
                        purged.push((e.stamp, e.arrived.env));
                        false
                    } else {
                        true
                    }
                });
            }
            group.len = group.fifos.iter().map(|(_, fifo)| fifo.len()).sum();
        }
        self.unexpected.sweep();
        self.unexpected_count -= purged.len();
        purged.sort_by_key(|&(stamp, _)| stamp);
        purged.into_iter().map(|(_, env)| env).collect()
    }

    /// A fresh RTS arrived for a channel message whose earlier announcement
    /// is still queued unexpected: swap in the new token and return the stale
    /// one. The sender cancels outbound rendezvous when it learns the
    /// receiver restarted, then re-sends the payload from its log — so when
    /// both announcements reached the *same* incarnation, the earlier token
    /// is the dead one.
    pub fn rebind_rts(&mut self, env: &Envelope, token: u64) -> Option<u64> {
        let group = self.unexpected.map.get_mut(&(env.comm, env.tag))?;
        let (_, fifo) = group.fifos.iter_mut().find(|(s, _)| *s == env.src)?;
        fifo.iter_mut().filter(|e| e.arrived.env.seqnum == env.seqnum).find_map(|e| {
            match &mut e.arrived.body {
                ArrivedBody::Rts { token: old } => Some(std::mem::replace(old, token)),
                ArrivedBody::Eager(_) => None,
            }
        })
    }

    /// Probe: first unexpected envelope matching `spec` (in arrival order),
    /// without removing it.
    pub fn probe(
        &self,
        spec: &RecvSpec,
        admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
    ) -> Option<&Envelope> {
        self.find_unexpected(spec, admissible).map(|(_, e)| &e.arrived.env)
    }

    /// Number of posted, unmatched receive requests.
    pub fn posted_len(&self) -> usize {
        self.posted_count
    }

    /// Number of unexpected messages queued.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_count
    }

    /// Keys of the posted-bucket map and of the unexpected-group map, each as
    /// `(held, live)`: a drained key counts in `held` only. Sweeps keep
    /// `held ≤ 2 × live + SWEEP_SLACK`.
    #[doc(hidden)]
    pub fn bucket_counts(&self) -> [(usize, usize); 2] {
        [self.posted_exact.counts(), self.unexpected.counts()]
    }

    /// Iterate the posted queue in post order (diagnostics).
    pub fn posted_iter(&self) -> impl Iterator<Item = &(RequestId, RecvSpec)> {
        let mut all: Vec<&PostedEntry> =
            self.posted_exact.map.values().flatten().chain(self.posted_wild.iter()).collect();
        all.sort_by_key(|e| e.stamp);
        all.into_iter().map(|e| &e.entry)
    }

    /// Iterate the unexpected queue in arrival order (checkpoint
    /// serialization — restore depends on this order).
    pub fn unexpected_iter(&self) -> impl Iterator<Item = &Arrived> {
        let mut all: Vec<&UnexpEntry> = self
            .unexpected
            .map
            .values()
            .flat_map(|g| g.fifos.iter().flat_map(|(_, f)| f))
            .collect();
        all.sort_by_key(|e| e.stamp);
        all.into_iter().map(|e| &e.arrived)
    }

    /// Replace the unexpected queue wholesale (checkpoint restore). `entries`
    /// must be in arrival order, as produced by
    /// [`MatchEngine::unexpected_iter`].
    pub fn restore_unexpected(&mut self, entries: Vec<Arrived>) {
        self.unexpected.clear();
        self.unexpected_count = 0;
        self.next_arrival = 0;
        for arrived in entries {
            self.push_unexpected(arrived);
        }
    }

    /// Drop all posted requests and unexpected messages (rank teardown).
    pub fn clear(&mut self) {
        self.posted_exact.clear();
        self.posted_wild.clear();
        self.posted_count = 0;
        self.next_post_back = STAMP_ORIGIN;
        self.next_post_front = STAMP_ORIGIN;
        self.unexpected.clear();
        self.unexpected_count = 0;
        self.next_arrival = 0;
    }
}

pub mod reference {
    //! The pre-index linear matching engine, kept verbatim as the semantics
    //! oracle: `tests/proptest_matching.rs` feeds it and [`super::MatchEngine`]
    //! identical random streams and requires identical decisions in identical
    //! order. Not for production use — every operation is O(queue length).

    use super::{Arrived, ArrivedBody, Envelope, RecvSpec, RequestId};
    use crate::types::RankId;
    use std::collections::VecDeque;

    /// Linear-scan matching engine (the original implementation).
    #[derive(Default)]
    pub struct ReferenceMatchEngine {
        posted: VecDeque<(RequestId, RecvSpec)>,
        unexpected: VecDeque<Arrived>,
    }

    impl ReferenceMatchEngine {
        /// Empty engine.
        pub fn new() -> Self {
            Self::default()
        }

        /// Linear-scan equivalent of [`super::MatchEngine::match_arrival`].
        pub fn match_arrival(
            &mut self,
            env: &Envelope,
            admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
        ) -> Option<RequestId> {
            let pos = self
                .posted
                .iter()
                .position(|(_, spec)| spec.accepts(env) && admissible(spec, env))?;
            let (id, _) = self.posted.remove(pos).expect("position valid");
            Some(id)
        }

        /// Linear-scan equivalent of [`super::MatchEngine::push_unexpected`].
        pub fn push_unexpected(&mut self, arrived: Arrived) {
            self.unexpected.push_back(arrived);
        }

        /// Linear-scan equivalent of [`super::MatchEngine::match_post`].
        pub fn match_post(
            &mut self,
            spec: &RecvSpec,
            admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
        ) -> Option<Arrived> {
            let pos = self
                .unexpected
                .iter()
                .position(|a| spec.accepts(&a.env) && admissible(spec, &a.env))?;
            self.unexpected.remove(pos)
        }

        /// Linear-scan equivalent of [`super::MatchEngine::post`].
        pub fn post(&mut self, id: RequestId, spec: RecvSpec) {
            self.posted.push_back((id, spec));
        }

        /// Linear-scan equivalent of [`super::MatchEngine::post_front`].
        pub fn post_front(&mut self, id: RequestId, spec: RecvSpec) {
            self.posted.push_front((id, spec));
        }

        /// Linear-scan equivalent of [`super::MatchEngine::purge_rts_from`].
        pub fn purge_rts_from(&mut self, src: RankId) -> Vec<Envelope> {
            let mut purged = Vec::new();
            self.unexpected.retain(|a| {
                if a.is_pending_rts() && a.env.src == src {
                    purged.push(a.env);
                    false
                } else {
                    true
                }
            });
            purged
        }

        /// Linear-scan equivalent of [`super::MatchEngine::rebind_rts`].
        pub fn rebind_rts(&mut self, env: &Envelope, token: u64) -> Option<u64> {
            self.unexpected.iter_mut().find_map(|a| {
                let same = (a.env.comm, a.env.src, a.env.tag, a.env.seqnum)
                    == (env.comm, env.src, env.tag, env.seqnum);
                match &mut a.body {
                    ArrivedBody::Rts { token: old } if same => Some(std::mem::replace(old, token)),
                    _ => None,
                }
            })
        }

        /// Linear-scan equivalent of [`super::MatchEngine::probe`].
        pub fn probe(
            &self,
            spec: &RecvSpec,
            admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
        ) -> Option<&Envelope> {
            self.unexpected
                .iter()
                .find(|a| spec.accepts(&a.env) && admissible(spec, &a.env))
                .map(|a| &a.env)
        }

        /// Number of posted, unmatched receive requests.
        pub fn posted_len(&self) -> usize {
            self.posted.len()
        }

        /// Number of unexpected messages queued.
        pub fn unexpected_len(&self) -> usize {
            self.unexpected.len()
        }

        /// Iterate the unexpected queue in arrival order.
        pub fn unexpected_iter(&self) -> impl Iterator<Item = &Arrived> {
            self.unexpected.iter()
        }

        /// Replace the unexpected queue wholesale.
        pub fn restore_unexpected(&mut self, entries: Vec<Arrived>) {
            self.unexpected = entries.into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CommId, MatchIdent, RankId, Source, TagSel, COMM_WORLD};

    fn env(src: u32, tag: u32, seq: u64) -> Envelope {
        Envelope {
            src: RankId(src),
            dst: RankId(0),
            comm: COMM_WORLD,
            tag,
            seqnum: seq,
            plen: 0,
            lamport: 0,
            ident: MatchIdent::DEFAULT,
        }
    }

    fn spec(src: Source, tag: TagSel) -> RecvSpec {
        RecvSpec { comm: COMM_WORLD, src, tag, ident: MatchIdent::DEFAULT }
    }

    fn all(_: &RecvSpec, _: &Envelope) -> bool {
        true
    }

    fn arrived(env: Envelope) -> Arrived {
        Arrived { env, body: ArrivedBody::Eager(Bytes::new()) }
    }

    #[test]
    fn arrival_matches_first_posted_in_post_order() {
        let mut m = MatchEngine::new();
        m.post(RequestId(1), spec(Source::Any, TagSel::Any));
        m.post(RequestId(2), spec(Source::Rank(RankId(3)), TagSel::Any));
        // Both accept; post order wins.
        let got = m.match_arrival(&env(3, 0, 1), &all);
        assert_eq!(got, Some(RequestId(1)));
        // Next arrival matches the remaining request.
        let got = m.match_arrival(&env(3, 0, 2), &all);
        assert_eq!(got, Some(RequestId(2)));
        assert_eq!(m.posted_len(), 0);
    }

    #[test]
    fn post_matches_first_unexpected_in_arrival_order() {
        let mut m = MatchEngine::new();
        m.push_unexpected(arrived(env(1, 7, 1)));
        m.push_unexpected(arrived(env(2, 7, 1)));
        let got = m.match_post(&spec(Source::Any, TagSel::Tag(7)), &all).unwrap();
        assert_eq!(got.env.src, RankId(1));
        let got = m.match_post(&spec(Source::Any, TagSel::Tag(7)), &all).unwrap();
        assert_eq!(got.env.src, RankId(2));
        assert!(m.match_post(&spec(Source::Any, TagSel::Tag(7)), &all).is_none());
    }

    #[test]
    fn tag_and_source_filters_respected() {
        let mut m = MatchEngine::new();
        m.push_unexpected(arrived(env(1, 7, 1)));
        assert!(m.match_post(&spec(Source::Any, TagSel::Tag(8)), &all).is_none());
        assert!(m.match_post(&spec(Source::Rank(RankId(2)), TagSel::Tag(7)), &all).is_none());
        assert!(m.match_post(&spec(Source::Rank(RankId(1)), TagSel::Tag(7)), &all).is_some());
    }

    #[test]
    fn admissibility_predicate_can_veto() {
        // SPBC's ident filter: refuse matches whose envelope iteration differs.
        let mut m = MatchEngine::new();
        let mut e = env(1, 7, 1);
        e.ident = MatchIdent::new(1, 2);
        m.push_unexpected(arrived(e));
        let s = RecvSpec { ident: MatchIdent::new(1, 1), ..spec(Source::Any, TagSel::Any) };
        let ident_eq = |spec: &RecvSpec, env: &Envelope| -> bool { spec.ident == env.ident };
        assert!(m.match_post(&s, &ident_eq).is_none(), "iteration mismatch vetoed");
        let s2 = RecvSpec { ident: MatchIdent::new(1, 2), ..s };
        assert!(m.match_post(&s2, &ident_eq).is_some());
    }

    #[test]
    fn probe_does_not_remove() {
        let mut m = MatchEngine::new();
        m.push_unexpected(arrived(env(1, 7, 1)));
        assert!(m.probe(&spec(Source::Any, TagSel::Any), &all).is_some());
        assert_eq!(m.unexpected_len(), 1);
    }

    #[test]
    fn per_channel_fifo_order_preserved() {
        // Two same-channel messages can both match an ANY_SOURCE request;
        // the first sent (first arrived) must match first.
        let mut m = MatchEngine::new();
        m.push_unexpected(arrived(env(1, 7, 1)));
        m.push_unexpected(arrived(env(1, 7, 2)));
        let got = m.match_post(&spec(Source::Any, TagSel::Tag(7)), &all).unwrap();
        assert_eq!(got.env.seqnum, 1);
    }

    #[test]
    fn other_comm_not_matched() {
        let mut m = MatchEngine::new();
        let mut e = env(1, 7, 1);
        e.comm = CommId(9);
        m.push_unexpected(arrived(e));
        assert!(m.match_post(&spec(Source::Any, TagSel::Any), &all).is_none());
    }

    #[test]
    fn restore_roundtrip() {
        let mut m = MatchEngine::new();
        m.push_unexpected(arrived(env(1, 1, 1)));
        m.push_unexpected(arrived(env(2, 2, 1)));
        let snapshot: Vec<Arrived> = m.unexpected_iter().cloned().collect();
        let mut m2 = MatchEngine::new();
        m2.restore_unexpected(snapshot);
        assert_eq!(m2.unexpected_len(), 2);
        let got = m2.match_post(&spec(Source::Any, TagSel::Any), &all).unwrap();
        assert_eq!(got.env.src, RankId(1));
    }

    #[test]
    fn cross_bucket_arrival_order_wins_for_wildcard_post() {
        // Arrivals on three different channels; a wildcard post must take
        // them in global arrival order, not bucket order.
        let mut m = MatchEngine::new();
        m.push_unexpected(arrived(env(2, 5, 1)));
        m.push_unexpected(arrived(env(0, 9, 1)));
        m.push_unexpected(arrived(env(1, 7, 1)));
        for expect in [2u32, 0, 1] {
            let got = m.match_post(&spec(Source::Any, TagSel::Any), &all).unwrap();
            assert_eq!(got.env.src, RankId(expect));
        }
    }

    #[test]
    fn exact_bucket_vs_wildcard_list_post_order() {
        // A wildcard request posted between two exact requests on the same
        // channel: arrivals must honor global post order across the exact
        // bucket and the wildcard side-list.
        let mut m = MatchEngine::new();
        m.post(RequestId(1), spec(Source::Rank(RankId(4)), TagSel::Tag(3)));
        m.post(RequestId(2), spec(Source::Any, TagSel::Any));
        m.post(RequestId(3), spec(Source::Rank(RankId(4)), TagSel::Tag(3)));
        assert_eq!(m.match_arrival(&env(4, 3, 1), &all), Some(RequestId(1)));
        assert_eq!(m.match_arrival(&env(4, 3, 2), &all), Some(RequestId(2)));
        assert_eq!(m.match_arrival(&env(4, 3, 3), &all), Some(RequestId(3)));
        assert_eq!(m.posted_len(), 0);
    }

    #[test]
    fn post_front_outranks_existing_posts() {
        let mut m = MatchEngine::new();
        m.post(RequestId(1), spec(Source::Rank(RankId(2)), TagSel::Tag(1)));
        m.post(RequestId(2), spec(Source::Any, TagSel::Any));
        // Re-armed request regains top priority in its bucket *and* against
        // the wildcard list.
        m.post_front(RequestId(3), spec(Source::Rank(RankId(2)), TagSel::Tag(1)));
        assert_eq!(m.match_arrival(&env(2, 1, 1), &all), Some(RequestId(3)));
        assert_eq!(m.match_arrival(&env(2, 1, 2), &all), Some(RequestId(1)));
        assert_eq!(m.match_arrival(&env(2, 1, 3), &all), Some(RequestId(2)));
    }

    #[test]
    fn purge_rts_returns_arrival_order_across_buckets() {
        let mut m = MatchEngine::new();
        let rts = |src: u32, tag: u32, seq: u64, token: u64| Arrived {
            env: env(src, tag, seq),
            body: ArrivedBody::Rts { token },
        };
        m.push_unexpected(rts(1, 9, 1, 10));
        m.push_unexpected(arrived(env(1, 9, 2)));
        m.push_unexpected(rts(1, 5, 1, 11));
        m.push_unexpected(rts(2, 5, 1, 12));
        let purged = m.purge_rts_from(RankId(1));
        let tags: Vec<u32> = purged.iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![9, 5], "arrival order, only src 1, only RTS");
        assert_eq!(m.unexpected_len(), 2);
    }

    #[test]
    fn deep_exact_queues_stay_independent() {
        // Filling one channel's bucket must not affect matches on another.
        let mut m = MatchEngine::new();
        for s in 1..=100u64 {
            m.push_unexpected(arrived(env(1, 1, s)));
        }
        m.push_unexpected(arrived(env(2, 2, 1)));
        let got = m.match_post(&spec(Source::Rank(RankId(2)), TagSel::Tag(2)), &all).unwrap();
        assert_eq!(got.env.src, RankId(2));
        assert_eq!(m.unexpected_len(), 100);
    }

    #[test]
    fn fresh_collective_tags_leave_small_maps() {
        // Collectives tag every call afresh (`coll_tag`). Each cycle drains
        // one unexpected group and one posted bucket on a tag it never uses
        // again, around an AMG-style `Iprobe(ANY_SOURCE)` on a standing tag.
        let mut m = MatchEngine::new();
        m.push_unexpected(arrived(env(3, 300, 1)));
        let amg_probe = spec(Source::Any, TagSel::Tag(300));
        for cycle in 0..10_000u32 {
            let tag = 0x4000_0000 | cycle;
            let seq = u64::from(cycle);
            m.push_unexpected(arrived(env(1, tag, seq)));
            assert!(m.match_post(&spec(Source::Rank(RankId(1)), TagSel::Tag(tag)), &all).is_some());
            assert_eq!(m.probe(&amg_probe, &all).map(|e| e.src), Some(RankId(3)));
            m.post(RequestId(seq), spec(Source::Rank(RankId(2)), TagSel::Tag(tag)));
            assert_eq!(m.match_arrival(&env(2, tag, seq), &all), Some(RequestId(seq)));
        }
        assert_eq!((m.posted_len(), m.unexpected_len()), (0, 1));
        let [(posted, _), (groups, _)] = m.bucket_counts();
        assert!(posted <= SWEEP_SLACK, "{posted} posted buckets after 10 000 fresh tags");
        assert!(groups <= SWEEP_SLACK + 2, "{groups} unexpected groups after 10 000 fresh tags");
    }

    #[test]
    fn persistent_channels_keep_their_queues() {
        // MiniGhost's named halos drain every bucket at the end of an
        // iteration; with fewer channels than `SWEEP_SLACK` no sweep drops
        // them, so each keeps its key and allocation.
        let mut m = MatchEngine::new();
        for iter in 0..100u64 {
            for face in 0..6u32 {
                m.post(
                    RequestId(u64::from(face)),
                    spec(Source::Rank(RankId(face)), TagSel::Tag(face)),
                );
            }
            for face in 0..6u32 {
                assert!(m.match_arrival(&env(face, face, iter), &all).is_some());
            }
        }
        assert_eq!(m.bucket_counts(), [(6, 0), (0, 0)]);
    }

    #[test]
    fn clear_resets_counters() {
        let mut m = MatchEngine::new();
        m.post(RequestId(1), spec(Source::Any, TagSel::Any));
        m.push_unexpected(arrived(env(1, 1, 1)));
        m.clear();
        assert_eq!(m.posted_len(), 0);
        assert_eq!(m.unexpected_len(), 0);
        assert!(m.match_arrival(&env(1, 1, 1), &all).is_none());
    }
}
