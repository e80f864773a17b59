//! Substrate microbenchmarks: wire codec, message log, point-to-point
//! round-trips — the per-message costs everything above is built on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mini_mpi::config::RuntimeConfig;
use mini_mpi::prelude::*;
use mini_mpi::wire::{from_bytes, to_bytes};
use spbc_core::log::{make_msg, MessageLog};
use std::sync::Arc;
use std::time::Duration;

fn wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");
    g.measurement_time(Duration::from_secs(4));
    let v: Vec<f64> = (0..1024).map(|i| i as f64).collect();
    g.throughput(Throughput::Bytes(8 * 1024));
    g.bench_function("encode_vec_f64_1k", |b| b.iter(|| to_bytes(&v)));
    let bytes = to_bytes(&v);
    g.bench_function("decode_vec_f64_1k", |b| b.iter(|| from_bytes::<Vec<f64>>(&bytes).unwrap()));
    g.finish();
}

fn log(c: &mut Criterion) {
    let mut g = c.benchmark_group("message_log");
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("append_1k_msgs", |b| {
        b.iter(|| {
            let mut log = MessageLog::new();
            for s in 1..=1000u64 {
                log.append(make_msg(0, (s % 8) as u32 + 1, (s - 1) / 8 + 1, &[0u8; 64]));
            }
            log.total_bytes()
        })
    });
    let mut filled = MessageLog::new();
    for s in 1..=1000u64 {
        filled.append(make_msg(0, (s % 8) as u32 + 1, (s - 1) / 8 + 1, &[0u8; 64]));
    }
    g.bench_function("replay_set_from_1k", |b| {
        b.iter(|| filled.replay_set(mini_mpi::types::RankId(1), &|_| 0, &|_| Vec::new()))
    });
    g.finish();
}

/// Matching-engine scan cost vs queue depth: one arrival matched against a
/// posted queue of `depth` receives on distinct channels, where the target is
/// the deepest entry (worst case for a linear scan, average case for the
/// channel index). The matched request is immediately re-posted so the queue
/// depth stays constant across iterations. `wild` variants make every 16th
/// posted receive source-wildcard, exercising the indexed engine's wildcard
/// side-list alongside its exact buckets.
fn matching(c: &mut Criterion) {
    use mini_mpi::envelope::Envelope;
    use mini_mpi::matching::{reference::ReferenceMatchEngine, MatchEngine};
    use mini_mpi::request::{RecvSpec, RequestId};
    use mini_mpi::types::{CommId, MatchIdent, RankId, Source, TagSel};

    let check = |s: &RecvSpec, e: &Envelope| s.ident == e.ident;
    let spec_of = |tag: u32, wild: bool| RecvSpec {
        comm: CommId(0),
        src: if wild { Source::Any } else { Source::Rank(RankId(0)) },
        tag: TagSel::Tag(tag),
        ident: MatchIdent::new(0, 1),
    };
    let env_of = |tag: u32| Envelope {
        src: RankId(0),
        dst: RankId(1),
        comm: CommId(0),
        tag,
        seqnum: 1,
        plen: 0,
        lamport: 1,
        ident: MatchIdent::new(0, 1),
    };

    let mut g = c.benchmark_group("matching");
    g.measurement_time(Duration::from_secs(4));
    for &depth in &[16usize, 256, 4096] {
        for wildcards in [false, true] {
            let suffix = if wildcards { "wild" } else { "exact" };
            // The target tag (depth - 1) is never one of the wildcard slots
            // (multiples of 16), so both variants match an exact entry.
            let target_env = env_of(depth as u32 - 1);
            let target_spec = spec_of(depth as u32 - 1, false);

            g.bench_with_input(
                BenchmarkId::new(format!("indexed_{suffix}"), depth),
                &depth,
                |b, &depth| {
                    let mut eng = MatchEngine::new();
                    for i in 0..depth {
                        eng.post(RequestId(i as u64), spec_of(i as u32, wildcards && i % 16 == 0));
                    }
                    b.iter(|| {
                        let id = eng.match_arrival(&target_env, &check).unwrap();
                        eng.post(id, target_spec);
                        id
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("linear_{suffix}"), depth),
                &depth,
                |b, &depth| {
                    let mut eng = ReferenceMatchEngine::new();
                    for i in 0..depth {
                        eng.post(RequestId(i as u64), spec_of(i as u32, wildcards && i % 16 == 0));
                    }
                    b.iter(|| {
                        let id = eng.match_arrival(&target_env, &check).unwrap();
                        eng.post(id, target_spec);
                        id
                    })
                },
            );
        }
    }
    g.finish();
}

/// Per-send bookkeeping cost in `RankStats::on_send`: counters, two chain
/// folds and the payload digest (the low word of `util::hash128`), the only
/// O(payload) term on the send path. Sizes: a small control payload, a
/// `ff-halo` 1 KiB face and a `ckpt-store` 256 KiB face.
fn stats(c: &mut Criterion) {
    use mini_mpi::stats::RankStats;
    use mini_mpi::types::{ChannelId, RankId};

    let mut g = c.benchmark_group("stats_on_send");
    g.measurement_time(Duration::from_secs(4));
    for &size in &[64usize, 1024, 256 * 1024] {
        let payload = vec![7u8; size];
        let chan = ChannelId::new(RankId(0), RankId(1), COMM_WORLD);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("on_send", size), &size, |b, _| {
            let mut s = RankStats::new(RankId(0), 2);
            b.iter(|| s.on_send(chan, 1, std::hint::black_box(&payload), (0, 1)))
        });
    }
    g.finish();
}

/// Cost of one `Recorder::record` call with the flight recorder enabled
/// (ring append under an uncontended mutex) vs disabled (the closure must
/// not even be evaluated).
fn flight_recorder(c: &mut Criterion) {
    use mini_mpi::recorder::{Event, FlightRecorder, Recorder};
    use mini_mpi::types::RankId;

    let event =
        || Event::Send { dst: RankId(1), comm: 0, tag: 1, seqnum: 1, bytes: 64, suppressed: false };
    let mut g = c.benchmark_group("flight_recorder");
    g.measurement_time(Duration::from_secs(4));
    let fr = FlightRecorder::new(1, 1024);
    let enabled = fr.handle(RankId(0));
    g.bench_function("record_enabled", |b| b.iter(|| enabled.record(event)));
    let disabled = Recorder::disabled();
    g.bench_function("record_disabled", |b| b.iter(|| disabled.record(event)));
    g.finish();
}

/// Sealing-checksum throughput: the slice-by-8 CRC32 vs the bytewise loop
/// it replaced — the per-byte cost every sealed checkpoint blob pays on
/// both the write and the verify path.
fn crc(c: &mut Criterion) {
    use spbc_ckptstore::crc::{crc32, crc32_bytewise};

    let mut g = c.benchmark_group("crc");
    g.measurement_time(Duration::from_secs(4));
    for &size in &[4 * 1024usize, 256 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("slice8", size), &size, |b, _| {
            b.iter(|| crc32(std::hint::black_box(&data)))
        });
        g.bench_with_input(BenchmarkId::new("bytewise", size), &size, |b, _| {
            b.iter(|| crc32_bytewise(std::hint::black_box(&data)))
        });
    }
    g.finish();
}

fn p2p(c: &mut Criterion) {
    let mut g = c.benchmark_group("p2p_roundtrip");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    for &size in &[8usize, 4096, 64 * 1024] {
        g.bench_with_input(BenchmarkId::new("ping_pong", size), &size, |b, &size| {
            b.iter(|| {
                Runtime::run_native(2, move |rank| {
                    let payload = vec![1.0f64; size / 8];
                    for _ in 0..50 {
                        if rank.world_rank() == 0 {
                            rank.send(COMM_WORLD, 1, 1, &payload)?;
                            let _ = rank.recv::<f64>(COMM_WORLD, 1u32, 1)?;
                        } else {
                            let _ = rank.recv::<f64>(COMM_WORLD, 0u32, 1)?;
                            rank.send(COMM_WORLD, 0, 1, &payload)?;
                        }
                    }
                    Ok(vec![])
                })
                .unwrap()
                .ok()
                .unwrap()
                .wall_time
            })
        });
    }
    g.finish();
}

fn collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("allreduce_8_ranks", |b| {
        b.iter(|| {
            Runtime::run_native(8, |rank| {
                let x = [rank.world_rank() as f64; 16];
                for _ in 0..20 {
                    let _ = rank.allreduce(COMM_WORLD, ReduceOp::Sum, &x)?;
                }
                Ok(vec![])
            })
            .unwrap()
            .ok()
            .unwrap()
            .wall_time
        })
    });
    g.finish();
}

fn spawn_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("spawn_teardown_16_ranks", |b| {
        b.iter(|| {
            Runtime::builder(RuntimeConfig::new(16))
                .app(Arc::new(|_rank: &mut Rank| Ok(Vec::new())))
                .launch()
                .unwrap()
                .ok()
                .unwrap()
                .wall_time
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    wire,
    log,
    matching,
    stats,
    flight_recorder,
    crc,
    p2p,
    collectives,
    spawn_overhead
);
criterion_main!(benches);
