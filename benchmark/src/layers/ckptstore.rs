//! `spbc-ckptstore` layers over a real checkpoint body: chunking, hashing,
//! framing, the directory backend, the async writer, the service's
//! commit/load/replicate/GC calls, erasure coding.
//!
//! Disk numbers are this sandbox's page cache and virtio block device, not
//! a storage device's.

use super::{fresh_dir, mb_per_s, median_secs, Drive};
use crate::stats::median;
use mini_mpi::types::RankId;
use spbc_ckptstore::backend::CheckpointBackend;
use spbc_ckptstore::cas::sha256;
use spbc_ckptstore::chunk::{manifest_only_v4, V4Chunk};
use spbc_ckptstore::crc::{crc32, crc32_bytewise};
use spbc_ckptstore::{
    chunk_spans, ec, seal, seal_v4, unseal, AsyncWriter, CasStore, CasView, CdcParams, ChunkHash,
    CkptStoreService, DeltaEncoder, DirBackend, StoreConfig,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CDC: CdcParams = CdcParams { min: 256, avg: 1024, max: 4096 };

/// The store configuration the workloads run with (see
/// `workloads::spbc_cfg`), spelled out so nothing is read from the
/// environment.
fn store_cfg() -> StoreConfig {
    StoreConfig {
        async_writes: true,
        durable_partner_copies: false,
        partner_keep: 2,
        chunk_size: 64 * 1024,
        full_every: 8,
        cdc: true,
        cdc_params: CDC,
        ec: ec::EcScheme::Off,
        sets: None,
        tier_policy: "mem:0,local:all".to_string(),
        shards: 8,
        write_queue: 64,
        batch_bytes: 1 << 20,
        batch_linger_us: 0,
    }
}

fn pure(d: &mut Drive<'_>) {
    let body = d.body_b.clone();
    let len = body.len();
    let passes = d.passes;

    d.layer("ckptstore.cdc", |d| {
        d.metric("ckptstore.cdc.chunk_mb_s", |d| {
            let spans = chunk_spans(&body, CDC);
            d.checks.check(
                "chunk spans cover the body exactly once, in order",
                spans.first().is_some_and(|s| s.start == 0)
                    && spans.last().is_some_and(|s| s.end == len)
                    && spans.windows(2).all(|w| w[0].end == w[1].start),
            );
            mb_per_s(
                len,
                median_secs(passes, || drop(black_box(chunk_spans(black_box(&body), CDC)))),
            )
        });
    });

    let spans = chunk_spans(&body, CDC);
    let hashed: Vec<(ChunkHash, &[u8])> =
        spans.iter().map(|s| (ChunkHash::of(&body[s.clone()]), &body[s.clone()])).collect();
    let manifest: Vec<(ChunkHash, Option<&[u8]>)> =
        hashed.iter().map(|(h, b)| (*h, Some(*b))).collect();

    d.layer("ckptstore.cas", |d| {
        d.metric("ckptstore.cas.sha256_mb_s", |_| {
            mb_per_s(
                len,
                median_secs(passes, || {
                    for (_, chunk) in &hashed {
                        black_box(sha256(black_box(chunk)));
                    }
                }),
            )
        });
        // One fresh store per pass: epoch 1 inserts every chunk as new,
        // epoch 2 finds every chunk present.
        let (mut new_s, mut dup_s) = (Vec::new(), Vec::new());
        let mut all_ok = true;
        for _ in 0..passes {
            let cas = CasStore::new();
            let t = Instant::now();
            let first = cas.commit_insert(0, 0, 0, 1, &manifest).expect("insert");
            new_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let second = cas.commit_insert(0, 0, 0, 2, &manifest).expect("insert");
            dup_s.push(t.elapsed().as_secs_f64());
            all_ok &= second.new_bytes == 0
                && second.hit_bytes == len as u64
                && first.new_bytes + first.hit_bytes == len as u64;
        }
        d.checks.check("a re-inserted manifest is all hits", all_ok);
        d.metric("ckptstore.cas.insert_new_mb_s", |_| mb_per_s(len, median(&new_s)));
        d.metric("ckptstore.cas.insert_dup_mb_s", |_| mb_per_s(len, median(&dup_s)));
    });

    d.layer("ckptstore.crc", |d| {
        d.metric("ckptstore.crc.crc32_mb_s", |d| {
            d.checks.check("crc32 == crc32_bytewise", crc32(&body) == crc32_bytewise(&body));
            mb_per_s(
                len,
                median_secs(passes, || {
                    black_box(crc32(black_box(&body)));
                }),
            )
        });
    });

    d.layer("ckptstore.chunk", |d| {
        let parts: Vec<V4Chunk<'_>> = hashed
            .iter()
            .map(|(h, b)| V4Chunk { hash: *h, len: b.len() as u32, inline: Some(*b) })
            .collect();
        d.metric("ckptstore.chunk.seal_v4_mb_s", |_| {
            mb_per_s(len, median_secs(passes, || drop(black_box(seal_v4(black_box(&parts))))))
        });
        d.metric("ckptstore.chunk.materialize_mb_s", |d| {
            // The restore path: a manifest-only blob resolved from the store.
            let cas = CasStore::new();
            cas.commit_insert(0, 0, 0, 1, &manifest).expect("insert");
            let sealed = manifest_only_v4(&seal_v4(&parts)).expect("manifest");
            let view = CasView::parse(&sealed).expect("parses");
            let mut out = Vec::new();
            let secs = median_secs(passes, || {
                out = view.materialize(&mut |h| cas.get(h)).expect("materializes");
            });
            d.checks.check("materialize(manifest(x)) == x", out == body);
            mb_per_s(len, secs)
        });
        d.metric("ckptstore.chunk.delta_encode_mb_s", |d| {
            // Legacy fixed-grid V3 differ: consecutive epochs alternate
            // between the two bodies, so every call diffs against the other.
            let mut enc = DeltaEncoder::new(64 * 1024, 8);
            let mut epoch = 0;
            let mut smallest = u64::MAX;
            let secs = median_secs(passes.max(3), || {
                epoch += 1;
                let body = if epoch % 2 == 1 { &d.body_a } else { &d.body_b };
                let (blob, stats) = enc.encode(epoch, body);
                smallest = smallest.min(stats.physical);
                black_box(blob);
            });
            d.checks.check("a delta is smaller than the body", smallest < len as u64);
            mb_per_s(len, secs)
        });
    });

    d.layer("ckptstore.blob", |d| {
        d.metric("ckptstore.blob.seal_mb_s", |d| {
            let sealed = seal(&body);
            d.checks.check("unseal(seal(x)) == x", unseal(&sealed).is_ok_and(|b| b == &body[..]));
            mb_per_s(len, median_secs(passes, || drop(black_box(seal(black_box(&body))))))
        });
    });
}

fn disk(d: &mut Drive<'_>) {
    let passes = d.passes;
    let sealed = seal(&d.body_b);
    let len = sealed.len();

    d.layer("ckptstore.backend", |d| {
        let dir = fresh_dir(&d.tmp, "backend");
        let backend = DirBackend::open(&dir).expect("backend dir");
        let (mut put_ms, mut fsync_ms) = (Vec::new(), Vec::new());
        for epoch in 0..passes as u64 {
            let t = Instant::now();
            let stats = backend.put(RankId(0), epoch, &sealed).expect("put");
            put_ms.push(t.elapsed().as_secs_f64() * 1e3);
            fsync_ms.push(stats.fsync_us as f64 / 1e3);
        }
        d.metric("ckptstore.backend.dir_put_ms", |_| median(&put_ms));
        d.metric("ckptstore.backend.dir_fsync_ms", |_| median(&fsync_ms));
        d.metric("ckptstore.backend.dir_get_mb_s", |d| {
            let mut got = None;
            let secs = median_secs(passes, || got = backend.get(RankId(0), 0).expect("get"));
            d.checks.check("get(put(x)) == x", got.as_deref() == Some(&sealed[..]));
            mb_per_s(len, secs)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    d.layer("ckptstore.writer", |d| {
        let dir = fresh_dir(&d.tmp, "writer");
        let backend: Arc<dyn CheckpointBackend> = Arc::new(DirBackend::open(&dir).expect("dir"));
        let writer = AsyncWriter::new();
        let (mut submit_us, mut flush_ms) = (Vec::new(), Vec::new());
        for epoch in 0..passes as u64 {
            // One wave: the four ranks submit, then each waits for its own.
            let t = Instant::now();
            for r in 0..4 {
                writer.submit(0, RankId(r), epoch, sealed.clone(), Arc::clone(&backend), None);
            }
            submit_us.push(t.elapsed().as_secs_f64() * 1e6 / 4.0);
            let t = Instant::now();
            for r in 0..4 {
                writer.flush_owner(0, RankId(r)).expect("flush");
            }
            flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let stats = writer.stats();
        d.checks.check("every submitted blob was written", stats.completed == 4 * passes as u64);
        d.metric("ckptstore.writer.submit_us", |_| median(&submit_us));
        d.metric("ckptstore.writer.flush_ms", |_| median(&flush_ms));
        d.metric("ckptstore.writer.fsyncs_per_blob", |_| {
            stats.batched_fsyncs as f64 / stats.completed.max(1) as f64
        });
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

fn service(d: &mut Drive<'_>) {
    d.layer("ckptstore.service", |d| {
        let (a, b) = (d.body_a.clone(), d.body_b.clone());
        let (mut cold, mut warm, mut load, mut partner, mut gc) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut hit_ratio = 0.0;
        let mut all_ok = true;
        for _ in 0..d.passes {
            let dir = fresh_dir(&d.tmp, "service");
            let svc = CkptStoreService::on_disk(&dir, 2, store_cfg()).expect("service");
            let (owner, holder) = (RankId(0), RankId(1));

            // Commit = encode + hand to the writer; the flush is the next
            // wave's, outside the timed part, as in the protocol.
            let t = Instant::now();
            let (blob1, _) = svc.encode_commit(owner, 1, &a).expect("encode");
            svc.commit_local(owner, 1, blob1, None).expect("commit");
            cold.push(t.elapsed().as_secs_f64());
            svc.flush_rank(owner).expect("flush");

            let t = Instant::now();
            let (blob2, stats2) = svc.encode_commit(owner, 2, &b).expect("encode");
            svc.commit_local(owner, 2, blob2.clone(), None).expect("commit");
            warm.push(t.elapsed().as_secs_f64());
            svc.flush_rank(owner).expect("flush");
            hit_ratio = stats2.cas_hit_bytes as f64 / stats2.logical.max(1) as f64;

            // Replication as the protocol does it: push the manifest, the
            // partner names what it lacks, the owner serves that subset.
            let t = Instant::now();
            let manifest = manifest_only_v4(&blob2).expect("manifest");
            let missing = svc.missing_chunks(&manifest).expect("missing");
            let subset = svc.subset_blob(&blob2, &missing).expect("subset");
            svc.store_partner_copy(holder, owner, 2, &subset).expect("partner copy");
            partner.push(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            let loaded = svc.load_with_stats(owner, 2).expect("load");
            load.push(t.elapsed().as_secs_f64());
            all_ok &= loaded.is_some_and(|(body, _, _)| body == b);

            let t = Instant::now();
            let removed = svc.gc_local(owner, 2).expect("gc");
            gc.push(t.elapsed().as_secs_f64() * 1e3);
            all_ok &=
                removed == 1 && svc.load(owner, 2).expect("load").is_some_and(|(x, _)| x == b);

            drop(svc);
            let _ = std::fs::remove_dir_all(&dir);
        }
        d.checks.check("load(commit(x)) == x, before and after GC of the older epoch", all_ok);
        d.metric("ckptstore.service.encode_commit_cold_mb_s", |_| mb_per_s(a.len(), median(&cold)));
        d.metric("ckptstore.service.encode_commit_warm_mb_s", |_| mb_per_s(b.len(), median(&warm)));
        d.metric("ckptstore.service.load_mb_s", |_| mb_per_s(b.len(), median(&load)));
        d.metric("ckptstore.service.partner_copy_ms", |_| median(&partner));
        d.metric("ckptstore.service.gc_local_ms", |_| median(&gc));
        d.metric("ckptstore.service.cas_hit_ratio", |_| hit_ratio);
    });
}

fn erasure(d: &mut Drive<'_>) {
    d.layer("ckptstore.ec", |d| {
        // A redundancy set of four members: the body in four shards.
        let body = d.body_b.clone();
        let shard_len = body.len().div_ceil(4);
        let shards: Vec<&[u8]> = body.chunks(shard_len).collect();
        let lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let (len, passes) = (body.len(), d.passes);
        d.metric("ckptstore.ec.xor_encode_mb_s", |_| {
            mb_per_s(
                len,
                median_secs(passes, || drop(black_box(ec::encode(black_box(&shards), 1)))),
            )
        });
        d.metric("ckptstore.ec.rs2_encode_mb_s", |_| {
            mb_per_s(
                len,
                median_secs(passes, || drop(black_box(ec::encode(black_box(&shards), 2)))),
            )
        });
        d.metric("ckptstore.ec.rs2_reconstruct_mb_s", |d| {
            let parity: Vec<Option<Vec<u8>>> =
                ec::encode(&shards, 2).into_iter().map(Some).collect();
            let mut ok = true;
            let secs = median_secs(passes, || {
                // Members 0 and 2 lost: the full budget of two parity shards.
                let mut data: Vec<Option<Vec<u8>>> = shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i % 2 == 1).then(|| s.to_vec()))
                    .collect();
                ec::reconstruct(&mut data, &parity, &lens, 2).expect("within budget");
                ok &= data.iter().zip(&shards).all(|(d, s)| d.as_deref() == Some(*s));
            });
            d.checks.check("reconstruct returns the lost shards", ok);
            mb_per_s(len, secs)
        });
    });
}

pub fn run(d: &mut Drive<'_>) {
    pure(d);
    disk(d);
    service(d);
    erasure(d);
}
