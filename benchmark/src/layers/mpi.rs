//! `mini-mpi` layers: matching engine, wire codec, transports, the public
//! `Rank` API round trip, runtime launch, flight recorder.

use super::{mb_per_s, median_secs, ns_per_op, Drive};
use crate::workloads::spbc_cfg;
use bytes::Bytes;
use mini_mpi::config::{RuntimeConfig, TransportKind};
use mini_mpi::envelope::{Envelope, Message, Packet, Transfer};
use mini_mpi::ft::{FtProvider, NativeProvider};
use mini_mpi::matching::{Arrived, ArrivedBody, MatchEngine};
use mini_mpi::recorder::{Event, FlightRecorder};
use mini_mpi::request::{RecvSpec, RequestId};
use mini_mpi::transport::frame::Frame;
use mini_mpi::transport::uds::UdsTransport;
use mini_mpi::transport::{InProcTransport, Mailbox, Transport};
use mini_mpi::types::{MatchIdent, RankId, Source, TagSel, COMM_WORLD};
use mini_mpi::wire::{from_bytes, to_bytes};
use mini_mpi::Runtime;
use spbc_core::env::TRACE_RING_CAPACITY;
use spbc_core::{ClusterMap, SpbcProvider};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIB: usize = 1024;
/// Queue depth of the matching drives unless a metric says otherwise.
const DEPTH: u32 = 8;
const DEEP: u32 = 1024;

fn envelope(src: u32, tag: u32, ident: MatchIdent) -> Envelope {
    Envelope {
        src: RankId(src),
        dst: RankId(1),
        comm: COMM_WORLD,
        tag,
        seqnum: 1,
        plen: KIB as u64,
        lamport: 1,
        ident,
    }
}

fn spec(src: Source, tag: u32, ident: MatchIdent) -> RecvSpec {
    RecvSpec { comm: COMM_WORLD, src, tag: TagSel::Tag(tag), ident }
}

/// SPBC's admissibility predicate: `(pattern_id, iteration_id)` equality.
fn ident_eq(s: &RecvSpec, e: &Envelope) -> bool {
    s.ident == e.ident
}

/// Post + `match_arrival` against `depth` named receives on distinct tags.
fn named_match(ops: usize, depth: u32) -> f64 {
    let ident = MatchIdent::DEFAULT;
    let mut eng = MatchEngine::new();
    for t in 0..depth {
        eng.post(RequestId(u64::from(t)), spec(Source::Rank(RankId(0)), t, ident));
    }
    let mut t = 0;
    let ns = ns_per_op(ops, |n| {
        for _ in 0..n {
            let id = eng.match_arrival(&envelope(0, t, ident), &ident_eq).expect("posted");
            eng.post(id, spec(Source::Rank(RankId(0)), t, ident));
            t = (t + 1) % depth;
        }
    });
    assert_eq!(eng.posted_len(), depth as usize);
    ns
}

fn matching(d: &mut Drive<'_>) {
    let ops = d.ops;
    d.metric("mpi.matching.named_ns", |_| named_match(ops, DEPTH));
    d.metric("mpi.matching.unexpected_ns", |d| {
        let ident = MatchIdent::DEFAULT;
        let payload = Bytes::from(vec![7u8; KIB]);
        let arrived =
            |t| Arrived { env: envelope(0, t, ident), body: ArrivedBody::Eager(payload.clone()) };
        let mut eng = MatchEngine::new();
        for t in 0..DEPTH {
            eng.push_unexpected(arrived(t));
        }
        let mut t = 0;
        let ns = ns_per_op(ops, |n| {
            for _ in 0..n {
                eng.push_unexpected(arrived(t));
                let got = eng.match_post(&spec(Source::Rank(RankId(0)), t, ident), &ident_eq);
                black_box(got.expect("queued"));
                t = (t + 1) % DEPTH;
            }
        });
        d.checks.check("unexpected queue depth is steady", eng.unexpected_len() == DEPTH as usize);
        ns
    });
    d.metric("mpi.matching.deep_ns", |_| named_match(ops, DEEP));
    d.metric("mpi.matching.anysrc_ns", |d| {
        // AMG's shape: wildcard receives under a pattern iteration; arrivals
        // from varying sources must pass the ident comparison.
        let ident = MatchIdent::new(1, 5);
        let mut eng = MatchEngine::new();
        for i in 0..DEPTH {
            eng.post(RequestId(u64::from(i)), spec(Source::Any, 300, ident));
        }
        let mut src = 0;
        let ns = ns_per_op(ops, |n| {
            for _ in 0..n {
                let id = eng.match_arrival(&envelope(src, 300, ident), &ident_eq).expect("posted");
                eng.post(id, spec(Source::Any, 300, ident));
                src = (src + 1) % 4;
            }
        });
        let stale = envelope(0, 300, MatchIdent::new(1, 4));
        d.checks.check(
            "an arrival from another pattern iteration matches no wildcard receive",
            eng.match_arrival(&stale, &ident_eq).is_none(),
        );
        ns
    });
    d.metric("mpi.matching.probe_ns", |d| {
        let ident = MatchIdent::new(1, 5);
        let mut eng = MatchEngine::new();
        for i in 0..DEPTH {
            eng.push_unexpected(Arrived {
                env: envelope(i % 4, 300 + i / 4, ident),
                body: ArrivedBody::Eager(Bytes::new()),
            });
        }
        let hit = spec(Source::Any, 300, ident);
        let miss = spec(Source::Any, 999, ident);
        let mut hits = 0usize;
        // One hit and one miss per pair; the metric is per probe.
        let ns = ns_per_op(ops / 2, |n| {
            for _ in 0..n {
                hits += usize::from(eng.probe(black_box(&hit), &ident_eq).is_some());
                hits += usize::from(eng.probe(black_box(&miss), &ident_eq).is_some());
            }
        }) / 2.0;
        d.checks.check("probe hits exactly the queued tag", hits == (ops / 2 / 10).max(1) * 10);
        ns
    });
}

fn wire(d: &mut Drive<'_>) {
    let (ops, passes) = (d.ops, d.passes);
    d.metric("mpi.wire.encode_1k_ns", |_| {
        let face: Vec<f64> = (0..KIB / 8).map(|i| i as f64).collect();
        ns_per_op(ops, |n| {
            for _ in 0..n {
                black_box(to_bytes(black_box(&face)));
            }
        })
    });
    // MiniGhost's checkpointed state at the `ckpt-store` size: 2 MiB.
    let state: (u64, Vec<f64>, Vec<f64>) = (
        9,
        (0..131_072).map(|i| i as f64 * 0.5).collect(),
        (0..131_072).map(|i| i as f64 * 0.25).collect(),
    );
    let bytes = to_bytes(&state);
    d.metric("mpi.wire.encode_2m_mb_s", |_| {
        mb_per_s(bytes.len(), median_secs(passes, || drop(black_box(to_bytes(black_box(&state))))))
    });
    d.metric("mpi.wire.decode_2m_mb_s", |_| {
        mb_per_s(
            bytes.len(),
            median_secs(passes, || {
                black_box(
                    from_bytes::<(u64, Vec<f64>, Vec<f64>)>(black_box(&bytes)).expect("decodes"),
                );
            }),
        )
    });
    let back: (u64, Vec<f64>, Vec<f64>) = from_bytes(&bytes).expect("decodes");
    d.checks.check("from_bytes(to_bytes(v)) == v", back == state);
}

fn eager(len: usize) -> Packet {
    let env = Envelope { plen: len as u64, ..envelope(0, 1, MatchIdent::DEFAULT) };
    Packet::Msg(Transfer::Eager(Message { env, payload: Bytes::from(vec![7u8; len]) }))
}

/// Send `n` packets to rank 1 over `t`, then take all `n` from its mailbox.
fn send_then_drain(t: &dyn Transport, mb: &dyn Mailbox, pkt: &Packet, n: usize) {
    for _ in 0..n {
        assert!(t.send(RankId(1), pkt.clone()), "destination is live");
    }
    for _ in 0..n {
        mb.recv_timeout(Duration::from_secs(30)).expect("every packet sent is delivered");
    }
}

fn transport(d: &mut Drive<'_>) {
    let ops = d.ops;
    let small = eager(KIB);
    d.metric("mpi.transport.inproc_send_ns", |_| {
        let t = InProcTransport::new(2);
        let mb = t.open(RankId(1));
        ns_per_op(ops, |n| {
            for _ in 0..n {
                t.send(RankId(1), small.clone());
                black_box(mb.try_recv().expect("delivered"));
            }
        })
    });
    d.metric("mpi.transport.uds_send_ns", |_| {
        let t = UdsTransport::loopback(2).expect("socketpair");
        let mb = t.open(RankId(1));
        ns_per_op(ops / 10, |n| send_then_drain(&t, mb.as_ref(), &small, n))
    });
    d.metric("mpi.transport.uds_mb_s", |_| {
        let len = 256 * KIB;
        let big = eager(len);
        let t = UdsTransport::loopback(2).expect("socketpair");
        let mb = t.open(RankId(1));
        let n = (ops / 2500).max(10);
        let ns = ns_per_op(n, |n| send_then_drain(&t, mb.as_ref(), &big, n));
        mb_per_s(len, ns / 1e9)
    });
    d.metric("mpi.transport.frame_encode_ns", |d| {
        let frame = Frame::Deliver { dst: RankId(1), pkt: small.clone() };
        let back: Frame = from_bytes(&to_bytes(&frame)).expect("decodes");
        d.checks.check("frame from_bytes(to_bytes(f)) == f", back == frame);
        ns_per_op(ops, |n| {
            for _ in 0..n {
                black_box(to_bytes(black_box(&frame)));
            }
        })
    });
}

/// Microseconds per 1 KiB round trip between two ranks through the public
/// `Rank` API, timed by rank 0 around its loop.
fn pingpong_us(provider: Arc<dyn FtProvider>, trips: usize) -> f64 {
    let payload = vec![1.5f64; KIB / 8];
    let report = Runtime::builder(
        RuntimeConfig::new(2).with_ranks_per_node(1).with_transport(TransportKind::InProc),
    )
    .provider(provider)
    .app_fn(move |rank| {
        let me = rank.world_rank();
        let start = Instant::now();
        for _ in 0..trips {
            if me == 0 {
                rank.send(COMM_WORLD, 1, 1, &payload)?;
                rank.recv::<f64>(COMM_WORLD, Source::Rank(RankId(1)), 2)?;
            } else {
                rank.recv::<f64>(COMM_WORLD, Source::Rank(RankId(0)), 1)?;
                rank.send(COMM_WORLD, 0, 2, &payload)?;
            }
        }
        Ok(to_bytes(&(start.elapsed().as_nanos() as u64)))
    })
    .launch()
    .and_then(mini_mpi::RunReport::ok)
    .expect("ping-pong runs");
    let ns: u64 = from_bytes(&report.outputs[0]).expect("rank 0 reports its loop time");
    ns as f64 / 1e3 / trips as f64
}

fn rank_and_runtime(d: &mut Drive<'_>) {
    let trips = (d.ops / 50).max(100);
    d.metric("mpi.rank.pingpong_native_us", |_| pingpong_us(Arc::new(NativeProvider), trips));
    d.metric("mpi.rank.pingpong_spbc_us", |d| {
        // Per-rank clusters: every message crosses clusters and is logged.
        let provider = Arc::new(SpbcProvider::new(ClusterMap::per_rank(2), spbc_cfg(0)));
        let us = pingpong_us(Arc::clone(&provider) as Arc<dyn FtProvider>, trips);
        let logged = provider.metrics().snapshot().logged_msgs;
        d.checks.check("every ping-pong message was logged", logged == 2 * trips as u64);
        us
    });
    let passes = d.passes;
    d.metric("mpi.runtime.spawn_ms", |_| {
        1e3 * median_secs(4 * passes, || {
            Runtime::builder(
                RuntimeConfig::new(4).with_ranks_per_node(2).with_transport(TransportKind::InProc),
            )
            .provider(Arc::new(NativeProvider))
            .app_fn(|_| Ok(Vec::new()))
            .launch()
            .and_then(mini_mpi::RunReport::ok)
            .expect("empty app runs");
        })
    });
}

fn recorder(d: &mut Drive<'_>) {
    let ops = d.ops;
    d.metric("mpi.recorder.record_ns", |d| {
        let fr = FlightRecorder::new(1, TRACE_RING_CAPACITY);
        let handle = fr.handle(RankId(0));
        let ns = ns_per_op(ops, |n| {
            for i in 0..n {
                handle.record(|| Event::Send {
                    dst: RankId(1),
                    comm: 0,
                    tag: 1,
                    seqnum: i as u64,
                    bytes: KIB as u64,
                    suppressed: false,
                });
            }
        });
        let kept = fr.snapshot()[0].events.len();
        d.checks.check("the ring keeps the newest events", kept == TRACE_RING_CAPACITY.min(ops));
        ns
    });
}

pub fn run(d: &mut Drive<'_>) {
    d.layer("mpi.matching", matching);
    d.layer("mpi.wire", wire);
    d.layer("mpi.transport", transport);
    d.layer("mpi.rank", rank_and_runtime);
    d.layer("mpi.recorder", recorder);
}
