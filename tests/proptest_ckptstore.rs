//! Property tests of the checkpoint-storage subsystem: every
//! `CheckpointData` survives the seal → store → load → unseal pipeline
//! bit-exactly, corruption anywhere in a sealed blob is detected, and the
//! retired unchecksummed V1 framing is rejected.

use mini_mpi::types::RankId;
use proptest::prelude::*;
use spbc::ckptstore::{seal, unseal, CkptStoreService, LoadOutcome, StoreConfig, MAGIC_V2};
use spbc::core::store::CheckpointData;
use spbc::mpi::wire::{from_bytes, to_bytes};

/// A checkpoint sealed as the storage service stores it (`SPBCCKP2`).
fn sealed(ck: &CheckpointData) -> Vec<u8> {
    seal(&to_bytes(ck))
}

/// A `CheckpointData` with the fields proptest can drive directly; the
/// map/message fields are covered by the wire-codec suite.
fn arb_checkpoint() -> impl Strategy<Value = CheckpointData> {
    (
        1u64..1000,
        proptest::collection::vec(any::<u8>(), 0..2048),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(epoch, app_state, log_order, ckpt_calls, lamport)| CheckpointData {
            ckpt_epoch: epoch,
            app_state,
            log_order,
            ckpt_calls,
            lamport,
            ..Default::default()
        })
}

proptest! {
    #[test]
    fn blob_roundtrip_preserves_checkpoint(ck in arb_checkpoint()) {
        let back: CheckpointData = from_bytes(unseal(&sealed(&ck)).unwrap()).unwrap();
        prop_assert_eq!(back.ckpt_epoch, ck.ckpt_epoch);
        prop_assert_eq!(back.app_state, ck.app_state);
        prop_assert_eq!(back.log_order, ck.log_order);
        prop_assert_eq!(back.ckpt_calls, ck.ckpt_calls);
        prop_assert_eq!(back.lamport, ck.lamport);
    }

    #[test]
    fn roundtrip_through_backend_service(ck in arb_checkpoint()) {
        // The full storage path: seal, commit through the async writer,
        // flush, load back (CRC-verified), decode.
        let svc = CkptStoreService::in_memory(1, StoreConfig::default());
        svc.commit_local(RankId(0), ck.ckpt_epoch, sealed(&ck), None).unwrap();
        svc.flush_rank(RankId(0)).unwrap();
        let (body, outcome) = svc.load(RankId(0), ck.ckpt_epoch).unwrap().unwrap();
        prop_assert_eq!(outcome, LoadOutcome::Local);
        let back: CheckpointData = from_bytes(&body).unwrap();
        prop_assert_eq!(back.app_state, ck.app_state);
        prop_assert_eq!(back.ckpt_epoch, ck.ckpt_epoch);
    }

    #[test]
    fn partner_copy_roundtrips(ck in arb_checkpoint()) {
        let svc = CkptStoreService::in_memory(2, StoreConfig::default());
        svc.store_partner_copy(RankId(1), RankId(0), ck.ckpt_epoch, &sealed(&ck)).unwrap();
        // Rank 0 has no local copy: the load must repair from rank 1.
        let (body, outcome) = svc.load(RankId(0), ck.ckpt_epoch).unwrap().unwrap();
        prop_assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(1) });
        let back: CheckpointData = from_bytes(&body).unwrap();
        prop_assert_eq!(back.app_state, ck.app_state);
    }

    #[test]
    fn any_single_byte_flip_is_rejected(body in proptest::collection::vec(any::<u8>(), 0..512),
                                        pos: usize,
                                        bit in 0u8..8) {
        let mut sealed = seal(&body);
        let i = pos % sealed.len();
        sealed[i] ^= 1 << bit;
        // Either the magic no longer matches or the checksum fails; a flip
        // can never yield a *different* valid body.
        if let Ok(got) = unseal(&sealed) {
            prop_assert_eq!(got, &body[..], "flip at {} accepted silently", i);
        }
    }

    #[test]
    fn legacy_v1_blobs_are_rejected(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        // The retired V1 framing: V2's magic with version digit 1, then the
        // raw body, no checksum.
        let mut v1 = MAGIC_V2.to_vec();
        v1[7] = b'1';
        v1.extend_from_slice(&to_bytes(&payload));
        prop_assert!(unseal(&v1).is_err());
    }

    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = unseal(&data);
        if let Ok(body) = unseal(&data) {
            let _ = from_bytes::<CheckpointData>(body);
        }
    }
}
