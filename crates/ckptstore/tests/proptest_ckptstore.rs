//! Property tests of the replicated checkpoint store's GC and repair
//! paths, in both commit forms (CDC manifests and full blobs).
//!
//! * `gc_never_drops_referenced_bases` — random commit/GC/release/restore
//!   sequences against the live service: storage GC, partner pruning and
//!   the partner release a resumed wave sends drop whole epochs and their
//!   chunk-store registrations, and must never
//!   release a chunk a retained manifest still names, so every retained
//!   epoch must keep materializing bitwise.
//! * `damaged_copies_never_yield_wrong_bytes` — a random wave's local copy
//!   is corrupted or truncated (including mid-manifest); a load must repair
//!   it from the partner copy bitwise, and once the partner copy is damaged
//!   too, the wave must load as missing rather than as wrong bytes.
//! * `writer_puts_are_bitwise_identical_to_rank_thread_puts` — the same
//!   random commit/flush/GC stream through an in-memory service (puts on
//!   the committing thread) and a disk-rooted one (puts on its writer
//!   thread): every sealed blob agrees (the disk file is the self-contained
//!   form of the in-memory manifest) and every retained restore is bitwise
//!   identical however the writer's puts interleave with flushes and GC.
//! * `memory_and_disk_keep_one_wave_in_two_forms` — random body histories
//!   through an in-memory and a disk-rooted service side by side: every
//!   file is the self-contained `SPBCCKP4` blob of the fresh cut, carrying
//!   inline exactly the chunks the store lacked, every in-memory copy is
//!   that file's bare manifest, and both restore bitwise before and after
//!   GC and after losing the local store.

use mini_mpi::types::RankId;
use proptest::prelude::*;
use spbc_ckptstore::chunk::{manifest_only_v4, V4Chunk};
use spbc_ckptstore::{chunk_spans, seal_v4, CdcParams, ChunkHash, CkptStoreService, StoreConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A commit dirties one byte at a multiple of `CHUNK`; small CDC bounds
/// make a handful of bytes span several manifest entries.
const CHUNK: usize = 64;
const CHUNKS: usize = 8;
/// Ragged tail: the body is not a multiple of `CHUNK`.
const TAIL: usize = 17;

fn cfg(cdc: bool, partner_keep: usize) -> StoreConfig {
    StoreConfig {
        cdc,
        cdc_params: CdcParams { min: 32, avg: 128, max: 512 },
        partner_keep,
        ..StoreConfig::default()
    }
}

/// The first wave's body: stable pseudo-random bytes, so content-defined
/// cuts land at varied offsets.
fn first_body() -> Vec<u8> {
    let mut x = 0x5eed_u64;
    (0..CHUNKS * CHUNK + TAIL)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    /// Commit the next epoch with one chunk dirtied (plus a partner push).
    Commit { dirty: usize },
    /// GC local copies, keeping the newest `back + 1` epochs.
    Gc { back: u64 },
    /// What a resumed wave does: GC local copies and release the partner's
    /// copies below the same epoch, keeping the newest `back + 1`.
    Release { back: u64 },
    /// Load the newest epoch.
    Restore,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..CHUNKS).prop_map(|dirty| Op::Commit { dirty }),
        (0u64..4).prop_map(|back| Op::Gc { back }),
        (0u64..4).prop_map(|back| Op::Release { back }),
        Just(Op::Restore),
    ]
}

fn drive(ops: &[Op], cdc: bool, partner_keep: usize) {
    let svc = CkptStoreService::in_memory(2, cfg(cdc, partner_keep));
    let r0 = RankId(0);
    let mut body = first_body();
    let mut committed: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut epoch = 0u64;
    let mut keep_from = 0u64;
    for op in ops {
        match op {
            Op::Commit { dirty } => {
                epoch += 1;
                body[dirty * CHUNK] = (epoch % 251) as u8;
                let (blob, _) = svc.encode_commit(r0, epoch, &body).unwrap();
                svc.commit_local(r0, epoch, blob.clone(), None).unwrap();
                svc.store_partner_copy(RankId(1), r0, epoch, &blob).unwrap();
                committed.push((epoch, body.clone()));
            }
            Op::Gc { back } => {
                keep_from = keep_from.max(epoch.saturating_sub(*back));
                svc.gc_local(r0, keep_from).unwrap();
            }
            Op::Release { back } => {
                keep_from = keep_from.max(epoch.saturating_sub(*back));
                svc.gc_local(r0, keep_from).unwrap();
                svc.release_partner_copies(RankId(1), r0, keep_from).unwrap();
            }
            Op::Restore => {
                if let Some((e, expect)) = committed.last() {
                    let (got, _) = svc.load(r0, *e).unwrap().expect("newest epoch must load");
                    prop_assert_eq!(&got, expect);
                }
            }
        }
    }
    // Every epoch GC promised to retain must still materialize bitwise —
    // if GC (or partner pruning) ever released a chunk a retained manifest
    // names, one of these loads fails or produces different bytes.
    for (e, expect) in &committed {
        if *e >= keep_from {
            let (got, _) = svc.load(r0, *e).unwrap().expect("retained epoch must load");
            prop_assert_eq!(&got, expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gc_never_drops_referenced_bases(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        cdc: bool,
        partner_keep in 1usize..5,
    ) {
        drive(&ops, cdc, partner_keep);
    }
}

/// Differential ops: the disk side also gets explicit flush points so the
/// stream interleaves writer puts, drains, and GC sweeps.
#[derive(Clone, Debug)]
enum PipeOp {
    /// Commit the next epoch with one chunk dirtied.
    Commit { dirty: usize },
    /// Wait for the committing rank's disk write.
    Flush,
    /// GC local copies, keeping the newest `back + 1` epochs.
    Gc { back: u64 },
}

fn pipe_op_strategy() -> impl Strategy<Value = PipeOp> {
    prop_oneof![
        (0usize..CHUNKS).prop_map(|dirty| PipeOp::Commit { dirty }),
        (0usize..CHUNKS).prop_map(|dirty| PipeOp::Commit { dirty }),
        Just(PipeOp::Flush),
        (0u64..4).prop_map(|back| PipeOp::Gc { back }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Where a put runs must be invisible in the bytes: an in-memory
    /// service (puts on the committing thread) and a disk-rooted one (puts
    /// on its writer thread) fed the same op stream seal the same wave —
    /// the in-memory copy is the disk blob's manifest — and restore
    /// identical bodies. Every commit's write lands: nothing coalesces.
    #[test]
    fn writer_puts_are_bitwise_identical_to_rank_thread_puts(
        ops in proptest::collection::vec(pipe_op_strategy(), 1..40),
        cdc: bool,
    ) {
        let base = cfg(cdc, 4);
        let root = tmpdir();
        let _ = std::fs::remove_dir_all(&root);
        let mem = CkptStoreService::in_memory(1, base.clone());
        let disk = CkptStoreService::on_disk(&root, 1, base).unwrap();
        let r0 = RankId(0);
        let mut body = first_body();
        let mut committed: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut epoch, mut keep_from) = (0u64, 0u64);
        for op in &ops {
            match op {
                PipeOp::Commit { dirty } => {
                    epoch += 1;
                    body[dirty * CHUNK] = (epoch % 251) as u8;
                    let (a, _) = mem.encode_commit(r0, epoch, &body).unwrap();
                    let (b, _) = disk.encode_commit(r0, epoch, &body).unwrap();
                    let b_kept = if cdc { manifest_only_v4(&b).unwrap() } else { b.clone() };
                    prop_assert_eq!(&a, &b_kept, "sealed waves diverge at epoch {}", epoch);
                    mem.commit_local(r0, epoch, a, None).unwrap();
                    disk.commit_local(r0, epoch, b, None).unwrap();
                    committed.push((epoch, body.clone()));
                }
                PipeOp::Flush => disk.flush_rank(r0).unwrap(),
                PipeOp::Gc { back } => {
                    keep_from = keep_from.max(epoch.saturating_sub(*back));
                    mem.gc_local(r0, keep_from).unwrap();
                    disk.gc_local(r0, keep_from).unwrap();
                }
            }
        }
        mem.flush_all().unwrap();
        disk.flush_all().unwrap();
        for (e, expect) in committed.iter().filter(|(e, _)| *e >= keep_from) {
            let (got, _) = mem.load(r0, *e).unwrap().expect("retained epoch loads from memory");
            prop_assert_eq!(&got, expect);
            let (got, _) = disk.load(r0, *e).unwrap().expect("retained epoch loads from disk");
            prop_assert_eq!(&got, expect);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmpdir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "spbc-proptest-ckptstore-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn local_blob_path(root: &std::path::Path, epoch: u64) -> std::path::PathBuf {
    root.join("rank-0").join("own").join(format!("rank-0.epoch-{epoch}.ckpt"))
}

fn partner_blob_path(root: &std::path::Path, epoch: u64) -> std::path::PathBuf {
    root.join("rank-1").join("partner").join(format!("rank-0.epoch-{epoch}.ckpt"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn damaged_copies_never_yield_wrong_bytes(
        waves in 2u64..9,
        dirties in proptest::collection::vec(0usize..CHUNKS, 8),
        victim_sel in 0u64..8,
        truncate_at in 0usize..40,
        truncate: bool,
        cdc: bool,
    ) {
        let root = tmpdir();
        let _ = std::fs::remove_dir_all(&root);
        let store_cfg = StoreConfig { durable_partner_copies: true, ..cfg(cdc, 16) };
        let svc = CkptStoreService::on_disk(&root, 2, store_cfg).unwrap();
        let r0 = RankId(0);
        let mut body = first_body();
        let mut newest = Vec::new();
        for epoch in 1..=waves {
            body[dirties[(epoch as usize - 1) % dirties.len()] * CHUNK] = (epoch % 251) as u8;
            let (blob, _) = svc.encode_commit(r0, epoch, &body).unwrap();
            svc.commit_local(r0, epoch, blob.clone(), None).unwrap();
            svc.flush_rank(r0).unwrap();
            svc.store_partner_copy(RankId(1), r0, epoch, &blob).unwrap();
            newest = body.clone();
        }

        // Damage one wave's local copy: flip a payload byte, or truncate
        // (a cut inside the first 40 bytes lands in the V2 header or the
        // V4 header and manifest — the truncated-manifest case).
        let victim = 1 + victim_sel % waves;
        let path = local_blob_path(&root, victim);
        let blob = std::fs::read(&path).unwrap();
        if truncate {
            std::fs::write(&path, &blob[..truncate_at.min(blob.len())]).unwrap();
        } else {
            let mut bad = blob.clone();
            let idx = bad.len() - 1 - (truncate_at % bad.len().min(32));
            bad[idx] ^= 0x5A;
            std::fs::write(&path, &bad).unwrap();
        }

        // A load of the newest epoch must repair a damaged copy of it from
        // the partner copy and materialize bitwise.
        let (got, _) = svc.load(r0, waves).unwrap().expect("newest wave must load");
        prop_assert_eq!(&got, &newest);

        // Re-damage the healed local copy AND destroy the partner copy:
        // the victim wave is now lost everywhere and loads as missing —
        // never as wrong bytes — while the newest wave, if it is another
        // one, still loads bitwise (no wave references another).
        std::fs::write(&path, b"SPBCJUNK").unwrap();
        std::fs::write(partner_blob_path(&root, victim), b"SPBCJUNK").unwrap();
        prop_assert!(svc.load(r0, victim).unwrap().is_none(), "a lost wave must load as None");
        if victim < waves {
            let (again, _) = svc.load(r0, waves).unwrap().expect("newest wave must load");
            prop_assert_eq!(&again, &newest);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// One step of a body history.
#[derive(Clone, Debug)]
enum Edit {
    /// Overwrite `len` bytes at `at` (modulo the body) with `byte`.
    Overwrite { at: usize, len: usize, byte: u8 },
    /// Insert `len` pseudo-random bytes at `at`.
    Insert { at: usize, len: usize, seed: u8 },
    /// Leave the body as it is.
    Identical,
}

#[derive(Clone, Debug)]
enum HistOp {
    /// Commit the next epoch after `edit`.
    Commit(Edit),
    /// Commit the newest epoch again after `edit` (a rollback re-commit).
    Recommit(Edit),
    /// GC local copies, keeping the newest `back + 1` epochs.
    Gc { back: u64 },
    /// Lose the local store; the next loads repair from the partner copy.
    Wipe,
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..4096, 1usize..300, any::<u8>()).prop_map(|(at, len, byte)| Edit::Overwrite {
            at,
            len,
            byte
        }),
        (0usize..4096, 1usize..300, any::<u8>()).prop_map(|(at, len, seed)| Edit::Insert {
            at,
            len,
            seed
        }),
        Just(Edit::Identical),
    ]
}

fn hist_op_strategy() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        edit_strategy().prop_map(HistOp::Commit),
        edit_strategy().prop_map(HistOp::Commit),
        edit_strategy().prop_map(HistOp::Commit),
        edit_strategy().prop_map(HistOp::Recommit),
        (0u64..3).prop_map(|back| HistOp::Gc { back }),
        Just(HistOp::Wipe),
    ]
}

fn apply(body: &mut Vec<u8>, edit: &Edit) {
    match *edit {
        Edit::Overwrite { at, len, byte } => {
            let at = at % body.len().max(1);
            let end = (at + len).min(body.len());
            body[at..end].fill(byte);
        }
        Edit::Insert { at, len, seed } => {
            let at = at % (body.len() + 1);
            let mut x = seed as u64 | 1;
            let new = (0..len).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            });
            body.splice(at..at, new);
        }
        Edit::Identical => {}
    }
}

/// The self-contained blob of `body`'s fresh cut, with inline payloads for
/// exactly the chunks `held` lacks (first occurrence only) — what
/// `seal_v4` over the commit's parts is when `inline = (fate == New)`.
fn expected_file(body: &[u8], params: CdcParams, held: impl Fn(&ChunkHash) -> bool) -> Vec<u8> {
    let mut seen = HashSet::new();
    let parts: Vec<V4Chunk<'_>> = chunk_spans(body, params)
        .into_iter()
        .map(|s| {
            let hash = ChunkHash::of(&body[s.clone()]);
            let new = !held(&hash) && seen.insert(hash);
            V4Chunk { hash, len: s.len() as u32, inline: new.then(|| &body[s]) }
        })
        .collect();
    seal_v4(&parts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memory_and_disk_keep_one_wave_in_two_forms(
        ops in proptest::collection::vec(hist_op_strategy(), 1..24),
    ) {
        let base = cfg(true, 2);
        let params = base.cdc_params;
        let root = tmpdir();
        let _ = std::fs::remove_dir_all(&root);
        let mem = CkptStoreService::in_memory(2, base.clone());
        let disk = CkptStoreService::on_disk(&root, 2, base).unwrap();
        let (r0, holder) = (RankId(0), RankId(1));
        let mut body = first_body();
        let mut committed: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut epoch, mut keep_from) = (0u64, 0u64);
        let check_loads = |committed: &[(u64, Vec<u8>)], keep_from: u64| {
            for (e, expect) in committed.iter().filter(|(e, _)| *e >= keep_from) {
                let (m, d) = (mem.load(r0, *e).unwrap(), disk.load(r0, *e).unwrap());
                prop_assert_eq!(m.is_some(), d.is_some(), "epoch {}", e);
                if let (Some((m, _)), Some((d, _))) = (m, d) {
                    prop_assert_eq!(&m, expect, "memory, epoch {}", e);
                    prop_assert_eq!(&d, expect, "disk, epoch {}", e);
                }
            }
            if let Some((e, _)) = committed.last() {
                prop_assert!(mem.load(r0, *e).unwrap().is_some(), "newest epoch {} loads", e);
            }
        };
        for op in &ops {
            let edit = match op {
                HistOp::Commit(edit) => {
                    epoch += 1;
                    edit
                }
                HistOp::Recommit(edit) if epoch > 0 => {
                    committed.pop();
                    edit
                }
                HistOp::Recommit(_) => continue,
                HistOp::Gc { back } => {
                    keep_from = keep_from.max(epoch.saturating_sub(*back));
                    mem.gc_local(r0, keep_from).unwrap();
                    disk.gc_local(r0, keep_from).unwrap();
                    check_loads(&committed, keep_from);
                    continue;
                }
                HistOp::Wipe => {
                    mem.wipe_local(r0).unwrap();
                    disk.wipe_local(r0).unwrap();
                    check_loads(&committed, keep_from);
                    continue;
                }
            };
            apply(&mut body, edit);
            let want = expected_file(&body, params, |h| disk.cas().contains(h));
            let mut frames = Vec::new();
            for svc in [&mem, &disk] {
                let (sealed, stats) = svc.encode_commit(r0, epoch, &body).unwrap();
                prop_assert_eq!(stats.physical, want.len() as u64);
                let sealed = Arc::new(sealed);
                svc.commit_local(r0, epoch, Arc::clone(&sealed), None).unwrap();
                svc.flush_rank(r0).unwrap();
                let rep = svc.replicas(r0, epoch, &sealed, stats.logical, &[holder]).unwrap();
                for push in &rep.pushes {
                    svc.store_partner_copy(push.partner, push.owner, epoch, &push.frame).unwrap();
                }
                frames.push(rep.pushes[0].frame.to_vec());
            }
            let file = std::fs::read(local_blob_path(&root, epoch)).unwrap();
            prop_assert_eq!(&file, &want, "file of epoch {}", epoch);
            let manifest = manifest_only_v4(&file).unwrap();
            prop_assert_eq!(mem.local_copy(r0, epoch).unwrap(), Some(manifest.clone()));
            prop_assert_eq!(&frames[0], &manifest, "memory pushes the manifest it keeps");
            prop_assert_eq!(&frames[1], &manifest, "disk pushes the file's manifest");
            prop_assert_eq!(mem.cas().unique_bytes(), disk.cas().unique_bytes());
            committed.push((epoch, body.clone()));
            check_loads(&committed, keep_from);
        }
        // Every retained local copy: the memory one is the disk one's
        // manifest, whether a commit or a repair wrote it.
        for (e, _) in committed.iter().filter(|(e, _)| *e >= keep_from) {
            let on_disk = disk.local_copy(r0, *e).unwrap();
            let want = on_disk.map(|f| manifest_only_v4(&f).unwrap());
            prop_assert_eq!(mem.local_copy(r0, *e).unwrap(), want, "epoch {}", e);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
