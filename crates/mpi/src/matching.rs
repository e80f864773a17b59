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
//! Both queues are **channel-indexed** rather than linear. Envelopes always
//! carry a concrete `(comm, src, tag)`, so the unexpected queue buckets by
//! that triple; posted requests bucket the same way when fully concrete,
//! with wildcard (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`) requests on a separate
//! side-list. Every entry carries a stamp from a global monotonic counter
//! (post order / arrival order), so MPI's cross-queue ordering reduces to
//! comparing the best in-bucket candidate with the best wildcard-list
//! candidate and taking the smaller stamp. The FT admissibility predicate
//! only ever scans inside a candidate bucket (entries there already pass the
//! base `(comm, src, tag)` check), which keeps SPBC's pattern-ID veto from
//! degrading lookups to full-queue scans. Exact-match traffic — the common
//! case for stencil and collective traffic — costs O(1) hash lookup plus the
//! (normally empty) veto scan, independent of queue depth; see
//! `reference::ReferenceMatchEngine` for the semantics oracle and
//! `crates/mpi/tests/proptest_matching.rs` for the differential test.

use crate::envelope::Envelope;
use crate::hash::FxHashMap;
use crate::request::{RecvSpec, RequestId};
use crate::types::{CommId, RankId, Source, Tag, TagSel};
use bytes::Bytes;
use std::collections::VecDeque;

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

/// Exact-match bucket key: every envelope's concrete coordinates.
type ChanKey = (CommId, RankId, Tag);

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

/// Midpoint of the stamp space: normal posts count up from here, re-posts at
/// the front (`post_front`) count down, so a front-posted request outranks
/// everything already queued without renumbering.
const STAMP_ORIGIN: u64 = 1 << 63;

/// The matching engine state for one rank.
pub struct MatchEngine {
    /// Fully concrete posted receives, bucketed by `(comm, src, tag)`; each
    /// bucket is stamp-ordered.
    posted_exact: FxHashMap<ChanKey, VecDeque<PostedEntry>>,
    /// Posted receives with a source or tag wildcard, stamp-ordered.
    posted_wild: VecDeque<PostedEntry>,
    posted_count: usize,
    /// Stamp for the next `post` (counts up from [`STAMP_ORIGIN`]).
    next_post_back: u64,
    /// Stamp for the next `post_front` (counts down from [`STAMP_ORIGIN`]).
    next_post_front: u64,
    /// Unexpected arrivals bucketed by `(comm, src, tag)`; stamp-ordered.
    unexpected: FxHashMap<ChanKey, VecDeque<UnexpEntry>>,
    unexpected_count: usize,
    next_arrival: u64,
}

impl Default for MatchEngine {
    fn default() -> Self {
        MatchEngine {
            posted_exact: FxHashMap::default(),
            posted_wild: VecDeque::new(),
            posted_count: 0,
            next_post_back: STAMP_ORIGIN,
            next_post_front: STAMP_ORIGIN,
            unexpected: FxHashMap::default(),
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
        // (every accepting entry lives in exactly one of them). An emptied
        // bucket is kept — its capacity is reused by the next post on the
        // same channel, and map size stays bounded by the channels in use.
        if let Some(bucket) = self.posted_exact.get_mut(&key) {
            if let Some((idx, stamp)) = bucket
                .iter()
                .enumerate()
                .find(|(_, e)| admissible(&e.entry.1, env))
                .map(|(i, e)| (i, e.stamp))
            {
                if wild_cand.is_none_or(|(ws, _)| stamp < ws) {
                    let e = bucket.remove(idx).expect("index valid");
                    self.posted_count -= 1;
                    return Some(e.entry.0);
                }
            }
        }
        let (_, idx) = wild_cand?;
        let e = self.posted_wild.remove(idx).expect("index valid");
        self.posted_count -= 1;
        Some(e.entry.0)
    }

    /// Queue an arrival that matched nothing.
    pub fn push_unexpected(&mut self, arrived: Arrived) {
        let key = (arrived.env.comm, arrived.env.src, arrived.env.tag);
        let stamp = self.next_arrival;
        self.next_arrival += 1;
        self.unexpected.entry(key).or_default().push_back(UnexpEntry { stamp, arrived });
        self.unexpected_count += 1;
    }

    /// First admissible unexpected entry for `spec`: `(bucket key, index in
    /// bucket, stamp)` of the earliest arrival that matches.
    fn find_unexpected(
        &self,
        spec: &RecvSpec,
        admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
    ) -> Option<(ChanKey, usize, u64)> {
        if let Some(key) = Self::exact_key(spec) {
            // One bucket holds every acceptable envelope.
            let bucket = self.unexpected.get(&key)?;
            return bucket
                .iter()
                .enumerate()
                .find(|(_, e)| admissible(spec, &e.arrived.env))
                .map(|(i, e)| (key, i, e.stamp));
        }
        // Wildcard spec: the earliest admissible entry of each acceptable
        // bucket competes; "first arrived that it accepts" is the global
        // minimum stamp. Costs O(#channels) bucket probes, not O(#messages).
        let mut best: Option<(ChanKey, usize, u64)> = None;
        for (&key, bucket) in &self.unexpected {
            let (comm, src, tag) = key;
            if comm != spec.comm || !spec.src.accepts(src) || !spec.tag.accepts(tag) {
                continue;
            }
            if let Some((i, e)) =
                bucket.iter().enumerate().find(|(_, e)| admissible(spec, &e.arrived.env))
            {
                if best.is_none_or(|(_, _, s)| e.stamp < s) {
                    best = Some((key, i, e.stamp));
                }
            }
        }
        best
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
        let (key, idx, _) = self.find_unexpected(spec, admissible)?;
        let bucket = self.unexpected.get_mut(&key).expect("bucket exists");
        let entry = bucket.remove(idx).expect("index valid");
        self.unexpected_count -= 1;
        Some(entry.arrived)
    }

    /// Append a request to the posted queue.
    pub fn post(&mut self, id: RequestId, spec: RecvSpec) {
        let stamp = self.next_post_back;
        self.next_post_back += 1;
        let entry = PostedEntry { stamp, entry: (id, spec) };
        match Self::exact_key(&spec) {
            Some(key) => self.posted_exact.entry(key).or_default().push_back(entry),
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
            Some(key) => self.posted_exact.entry(key).or_default().push_front(entry),
            None => self.posted_wild.push_front(entry),
        }
        self.posted_count += 1;
    }

    /// Remove and return all pending-rendezvous (RTS) unexpected entries from
    /// `src` — their tokens dangle once the sender has been restarted.
    /// Returned envelopes are in arrival order.
    pub fn purge_rts_from(&mut self, src: RankId) -> Vec<Envelope> {
        let mut purged: Vec<(u64, Envelope)> = Vec::new();
        self.unexpected.retain(|&(_, bsrc, _), bucket| {
            if bsrc != src {
                return true;
            }
            bucket.retain(|e| {
                if e.arrived.is_pending_rts() {
                    purged.push((e.stamp, e.arrived.env));
                    false
                } else {
                    true
                }
            });
            !bucket.is_empty()
        });
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
        let key = (env.comm, env.src, env.tag);
        let bucket = self.unexpected.get_mut(&key)?;
        for e in bucket.iter_mut() {
            if e.arrived.env.seqnum == env.seqnum {
                if let ArrivedBody::Rts { token: old } = &mut e.arrived.body {
                    let stale = *old;
                    *old = token;
                    return Some(stale);
                }
            }
        }
        None
    }

    /// Probe: first unexpected envelope matching `spec` (in arrival order),
    /// without removing it.
    pub fn probe(
        &self,
        spec: &RecvSpec,
        admissible: &dyn Fn(&RecvSpec, &Envelope) -> bool,
    ) -> Option<&Envelope> {
        let (key, idx, _) = self.find_unexpected(spec, admissible)?;
        Some(&self.unexpected[&key][idx].arrived.env)
    }

    /// Number of posted, unmatched receive requests.
    pub fn posted_len(&self) -> usize {
        self.posted_count
    }

    /// Number of unexpected messages queued.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_count
    }

    /// Iterate the posted queue in post order (diagnostics).
    pub fn posted_iter(&self) -> impl Iterator<Item = &(RequestId, RecvSpec)> {
        let mut all: Vec<&PostedEntry> =
            self.posted_exact.values().flatten().chain(self.posted_wild.iter()).collect();
        all.sort_by_key(|e| e.stamp);
        all.into_iter().map(|e| &e.entry)
    }

    /// Iterate the unexpected queue in arrival order (checkpoint
    /// serialization — restore depends on this order).
    pub fn unexpected_iter(&self) -> impl Iterator<Item = &Arrived> {
        let mut all: Vec<&UnexpEntry> = self.unexpected.values().flatten().collect();
        all.sort_by_key(|e| e.stamp);
        all.into_iter().map(|e| &e.arrived)
    }

    /// Replace the unexpected queue wholesale (checkpoint restore). `entries`
    /// must be in arrival order, as produced by
    /// [`MatchEngine::unexpected_iter`].
    pub fn restore_unexpected(&mut self, entries: Vec<Arrived>) {
        self.unexpected.clear();
        self.unexpected_count = entries.len();
        self.next_arrival = 0;
        for arrived in entries {
            let key = (arrived.env.comm, arrived.env.src, arrived.env.tag);
            let stamp = self.next_arrival;
            self.next_arrival += 1;
            self.unexpected.entry(key).or_default().push_back(UnexpEntry { stamp, arrived });
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

    use super::{Arrived, Envelope, RecvSpec, RequestId};
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
