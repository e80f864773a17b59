//! Model-based property tests of the matching engine.
//!
//! * `engine_agrees_with_reference` — random post/arrival interleavings
//!   checked against a naive inline model of the MPI matching rules.
//! * `indexed_engine_matches_linear_oracle` — the differential test for the
//!   indexed engine: both it and the retired linear engine
//!   ([`mini_mpi::matching::reference::ReferenceMatchEngine`]) consume the
//!   same random operation stream — fresh per-collective tags, wildcard
//!   sources and tags, pattern-ID admissibility windows, probe peeks, front
//!   re-posts, RTS purges and rebinds, checkpoint round trips of the
//!   unexpected queue — and must make identical decisions in identical order
//!   at every step, while the engine's maps stay within their sweep bound.

use bytes::Bytes;
use mini_mpi::envelope::Envelope;
use mini_mpi::matching::{
    reference::ReferenceMatchEngine, Arrived, ArrivedBody, MatchEngine, SWEEP_SLACK,
};
use mini_mpi::request::{RecvSpec, RequestId};
use mini_mpi::types::{CommId, MatchIdent, RankId, Source, Tag, TagSel, TAG_COLL_BASE};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Post { src: Option<u32>, tag: Option<u32>, ident: u32 },
    Arrive { src: u32, tag: u32, ident: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (proptest::option::of(0u32..3), proptest::option::of(0u32..3), 0u32..2)
            .prop_map(|(src, tag, ident)| Op::Post { src, tag, ident }),
        (0u32..3, 0u32..3, 0u32..2).prop_map(|(src, tag, ident)| Op::Arrive { src, tag, ident }),
    ]
}

/// The reference: a plain list of pending posts and arrivals with the MPI
/// rules applied literally (first admissible in post order / arrival order).
#[derive(Default)]
struct Reference {
    posted: Vec<(u64, RecvSpec)>,
    unexpected: Vec<Envelope>,
}

fn admissible(spec: &RecvSpec, env: &Envelope) -> bool {
    spec.ident == env.ident
}

impl Reference {
    fn arrive(&mut self, env: Envelope) -> Option<u64> {
        if let Some(pos) =
            self.posted.iter().position(|(_, s)| s.accepts(&env) && admissible(s, &env))
        {
            let (id, _) = self.posted.remove(pos);
            Some(id)
        } else {
            self.unexpected.push(env);
            None
        }
    }

    fn post(&mut self, id: u64, spec: RecvSpec) -> Option<Envelope> {
        if let Some(pos) =
            self.unexpected.iter().position(|e| spec.accepts(e) && admissible(&spec, e))
        {
            Some(self.unexpected.remove(pos))
        } else {
            self.posted.push((id, spec));
            None
        }
    }
}

fn env_of(src: u32, tag: u32, ident: u32, seq: u64) -> Envelope {
    Envelope {
        src: RankId(src),
        dst: RankId(9),
        comm: CommId(0),
        tag,
        seqnum: seq,
        plen: 0,
        lamport: seq,
        ident: MatchIdent::new(ident, 1),
    }
}

fn spec_of(src: Option<u32>, tag: Option<u32>, ident: u32) -> RecvSpec {
    RecvSpec {
        comm: CommId(0),
        src: src.map_or(Source::Any, |s| Source::Rank(RankId(s))),
        tag: tag.map_or(TagSel::Any, TagSel::Tag),
        ident: MatchIdent::new(ident, 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_agrees_with_reference(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut engine = MatchEngine::new();
        let mut reference = Reference::default();
        let mut next_id = 0u64;
        let mut seqs = std::collections::HashMap::new();
        let check = |s: &RecvSpec, e: &Envelope| s.ident == e.ident;

        for op in ops {
            match op {
                Op::Post { src, tag, ident } => {
                    let id = next_id;
                    next_id += 1;
                    let spec = spec_of(src, tag, ident);
                    let got = engine.match_post(&spec, &check);
                    let expect = reference.post(id, spec);
                    match (got, expect) {
                        (None, None) => engine.post(RequestId(id), spec),
                        (Some(a), Some(e)) => prop_assert_eq!(a.env, e),
                        (a, e) => prop_assert!(
                            false,
                            "post divergence: engine={:?} reference={:?}",
                            a.map(|x| x.env), e
                        ),
                    }
                }
                Op::Arrive { src, tag, ident } => {
                    let seq = seqs.entry(src).or_insert(0u64);
                    *seq += 1;
                    let env = env_of(src, tag, ident, *seq);
                    let got = engine.match_arrival(&env, &check);
                    let expect = reference.arrive(env);
                    match (got, expect) {
                        (None, None) => engine.push_unexpected(Arrived {
                            env,
                            body: ArrivedBody::Eager(Bytes::new()),
                        }),
                        (Some(a), Some(e)) => prop_assert_eq!(a.0, e),
                        (a, e) => prop_assert!(
                            false,
                            "arrival divergence: engine={:?} reference={:?}",
                            a, e
                        ),
                    }
                }
            }
        }
        // Residual queues agree in size.
        prop_assert_eq!(engine.posted_len(), reference.posted.len());
        prop_assert_eq!(engine.unexpected_len(), reference.unexpected.len());
    }
}

/// A tag as an operation names it. Collectives tag every call afresh
/// (`coll_tag`), so most picks name a recent collective tag, relative to a
/// cursor that `DiffOp::NextColl` advances; a few name a standing
/// point-to-point tag.
#[derive(Clone, Copy, Debug)]
enum TagPick {
    /// A standing tag, `0..3`.
    Fixed(u32),
    /// The collective tag `back` calls before the cursor's.
    Coll(u32),
}

impl TagPick {
    fn tag(self, cursor: u32) -> Tag {
        match self {
            TagPick::Fixed(t) => t,
            TagPick::Coll(back) => TAG_COLL_BASE + cursor.saturating_sub(back),
        }
    }
}

/// Operation alphabet for the differential test: everything the runtime and
/// FT layer can do to a matching engine. `tag: None` is `MPI_ANY_TAG`.
#[derive(Clone, Debug)]
enum DiffOp {
    /// `match_post` then, on miss, `post` / `post_front`.
    Post { src: Option<u32>, tag: Option<TagPick>, ident: u32, front: bool },
    /// `match_arrival` then, on miss, `push_unexpected` (eager or RTS body).
    Arrive { src: u32, tag: TagPick, ident: u32, rts: bool },
    /// `probe` — a peek that must not change either engine.
    Probe { src: Option<u32>, tag: Option<TagPick>, ident: u32 },
    /// `purge_rts_from` — the retain path used on sender restart.
    Purge { src: u32 },
    /// `rebind_rts` with a fresh token: of the `pick`-th queued arrival when
    /// `hit`, else of an envelope that was never queued.
    Rebind { pick: usize, hit: bool },
    /// `restore_unexpected(unexpected_iter())` — a checkpoint round trip.
    Restore,
    /// Start the next collective call: move the tag cursor on.
    NextColl,
}

/// One collective call on one peer: a fresh tag, then a receive and its
/// matching message in either order, so one bucket or group drains for
/// good (unless an earlier wildcard receive takes the message).
fn collective_step() -> impl Strategy<Value = Vec<DiffOp>> {
    (0u32..3, 0u32..2, any::<bool>()).prop_map(|(src, ident, post_first)| {
        let post =
            DiffOp::Post { src: Some(src), tag: Some(TagPick::Coll(0)), ident, front: false };
        let arrive = DiffOp::Arrive { src, tag: TagPick::Coll(0), ident, rts: false };
        if post_first {
            vec![DiffOp::NextColl, post, arrive]
        } else {
            vec![DiffOp::NextColl, arrive, post]
        }
    })
}

fn diff_step_strategy() -> impl Strategy<Value = Vec<DiffOp>> {
    // Three collective picks to one standing tag.
    fn tag() -> impl Strategy<Value = TagPick> {
        prop_oneof![
            (0u32..3).prop_map(TagPick::Fixed),
            (0u32..3).prop_map(TagPick::Coll),
            (0u32..3).prop_map(TagPick::Coll),
            (0u32..3).prop_map(TagPick::Coll),
        ]
    }
    // One `MPI_ANY_TAG` to four concrete tags.
    fn tag_sel() -> impl Strategy<Value = Option<TagPick>> {
        prop_oneof![
            Just(None),
            tag().prop_map(Some),
            tag().prop_map(Some),
            tag().prop_map(Some),
            tag().prop_map(Some),
        ]
    }
    fn post() -> impl Strategy<Value = DiffOp> {
        (proptest::option::of(0u32..3), tag_sel(), 0u32..2, any::<bool>())
            .prop_map(|(src, tag, ident, front)| DiffOp::Post { src, tag, ident, front })
    }
    fn arrive() -> impl Strategy<Value = DiffOp> {
        (0u32..3, tag(), 0u32..2, any::<bool>()).prop_map(|(src, tag, ident, rts)| DiffOp::Arrive {
            src,
            tag,
            ident,
            rts,
        })
    }
    fn one(op: impl Strategy<Value = DiffOp>) -> impl Strategy<Value = Vec<DiffOp>> {
        op.prop_map(|op| vec![op])
    }
    // Posts, arrivals and collectives repeated to skew the mix toward queue
    // growth and drained keys; the other operations stay rarer.
    prop_oneof![
        one(post()),
        one(post()),
        one(post()),
        one(arrive()),
        one(arrive()),
        one(arrive()),
        collective_step(),
        collective_step(),
        collective_step(),
        one((proptest::option::of(0u32..3), tag_sel(), 0u32..2)
            .prop_map(|(src, tag, ident)| DiffOp::Probe { src, tag, ident })),
        one(Just(DiffOp::NextColl)),
        one(prop_oneof![
            (0u32..3).prop_map(|src| DiffOp::Purge { src }),
            (any::<usize>(), any::<bool>()).prop_map(|(pick, hit)| DiffOp::Rebind { pick, hit }),
            Just(DiffOp::Restore),
        ]),
    ]
}

fn body_kind(a: &Arrived) -> Option<u64> {
    match a.body {
        ArrivedBody::Eager(_) => None,
        ArrivedBody::Rts { token } => Some(token),
    }
}

fn tagged_spec(src: Option<u32>, tag: Option<TagPick>, ident: u32, cursor: u32) -> RecvSpec {
    spec_of(src, tag.map(|t| t.tag(cursor)), ident)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The indexed engine and the retired linear engine must make identical
    /// decisions, in identical order, on any operation stream; and neither of
    /// the engine's maps may hold more than `2 × live + SWEEP_SLACK` keys.
    #[test]
    fn indexed_engine_matches_linear_oracle(
        steps in proptest::collection::vec(diff_step_strategy(), 0..200),
        tail in proptest::collection::vec(collective_step(), 120),
    ) {
        let mut indexed = MatchEngine::new();
        let mut linear = ReferenceMatchEngine::new();
        let mut next_id = 0u64;
        let mut next_token = 100u64;
        let mut cursor = 0u32;
        let mut seqs = std::collections::HashMap::new();
        let check = |s: &RecvSpec, e: &Envelope| s.ident == e.ident;

        // The closing run of collectives drains more keys for good than the
        // bound allows to be kept, so it holds only if drained keys go.
        for op in steps.into_iter().chain(tail).flatten() {
            match op {
                DiffOp::Post { src, tag, ident, front } => {
                    let spec = tagged_spec(src, tag, ident, cursor);
                    let got = indexed.match_post(&spec, &check);
                    let expect = linear.match_post(&spec, &check);
                    match (got, expect) {
                        (None, None) => {
                            let id = RequestId(next_id);
                            next_id += 1;
                            if front {
                                indexed.post_front(id, spec);
                                linear.post_front(id, spec);
                            } else {
                                indexed.post(id, spec);
                                linear.post(id, spec);
                            }
                        }
                        (Some(a), Some(b)) => {
                            prop_assert_eq!(a.env, b.env);
                            prop_assert_eq!(body_kind(&a), body_kind(&b));
                        }
                        (a, b) => prop_assert!(
                            false,
                            "post divergence: indexed={:?} linear={:?}",
                            a.map(|x| x.env), b.map(|x| x.env)
                        ),
                    }
                }
                DiffOp::Arrive { src, tag, ident, rts } => {
                    let seq = seqs.entry(src).or_insert(0u64);
                    *seq += 1;
                    let env = env_of(src, tag.tag(cursor), ident, *seq);
                    let got = indexed.match_arrival(&env, &check);
                    let expect = linear.match_arrival(&env, &check);
                    prop_assert_eq!(got, expect, "arrival divergence");
                    if got.is_none() {
                        let body = if rts {
                            next_token += 1;
                            ArrivedBody::Rts { token: next_token }
                        } else {
                            ArrivedBody::Eager(Bytes::new())
                        };
                        indexed.push_unexpected(Arrived { env, body: body.clone() });
                        linear.push_unexpected(Arrived { env, body });
                    }
                }
                DiffOp::Probe { src, tag, ident } => {
                    let spec = tagged_spec(src, tag, ident, cursor);
                    let got = indexed.probe(&spec, &check).copied();
                    let expect = linear.probe(&spec, &check).copied();
                    prop_assert_eq!(got, expect, "probe divergence");
                }
                DiffOp::Purge { src } => {
                    let got = indexed.purge_rts_from(RankId(src));
                    let expect = linear.purge_rts_from(RankId(src));
                    prop_assert_eq!(got, expect, "purge divergence");
                }
                DiffOp::Rebind { pick, hit } => {
                    let queued: Vec<Envelope> = linear.unexpected_iter().map(|a| a.env).collect();
                    let env = match queued.len() {
                        n if hit && n > 0 => queued[pick % n],
                        // Seqnums start at 1: seqnum 0 was never sent.
                        _ => env_of(0, 0, 0, 0),
                    };
                    next_token += 1;
                    let got = indexed.rebind_rts(&env, next_token);
                    let expect = linear.rebind_rts(&env, next_token);
                    prop_assert_eq!(got, expect, "rebind divergence");
                }
                DiffOp::Restore => {
                    let left: Vec<Arrived> = indexed.unexpected_iter().cloned().collect();
                    let right: Vec<Arrived> = linear.unexpected_iter().cloned().collect();
                    prop_assert_eq!(
                        left.iter().map(|a| (a.env, body_kind(a))).collect::<Vec<_>>(),
                        right.iter().map(|a| (a.env, body_kind(a))).collect::<Vec<_>>(),
                        "snapshot divergence"
                    );
                    indexed.restore_unexpected(left);
                    linear.restore_unexpected(right);
                }
                DiffOp::NextColl => cursor += 1,
            }
            for (map, (held, live)) in ["posted", "unexpected"].into_iter().zip(indexed.bucket_counts()) {
                prop_assert!(
                    held <= 2 * live + SWEEP_SLACK,
                    "{} map holds {} keys for {} live ones", map, held, live
                );
            }
        }

        // Residual state: sizes and full unexpected-queue order agree.
        prop_assert_eq!(indexed.posted_len(), linear.posted_len());
        prop_assert_eq!(indexed.unexpected_len(), linear.unexpected_len());
        let left: Vec<_> =
            indexed.unexpected_iter().map(|a| (a.env, body_kind(a))).collect();
        let right: Vec<_> =
            linear.unexpected_iter().map(|a| (a.env, body_kind(a))).collect();
        prop_assert_eq!(left, right);
    }
}
