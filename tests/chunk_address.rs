//! The chunk address (`ChunkHash`, a 128-bit non-cryptographic hash) over
//! the chunks a checkpoint store actually sees: every content-defined chunk
//! of structured bodies (zeros, counters) and of two real `ckpt-store`
//! checkpoint bodies (MiniGhost, 131072 elements per rank, epochs 1 and 2
//! of rank 0). Distinct contents must get distinct addresses.

use spbc::apps::{AppParams, Workload};
use spbc::ckptstore::{chunk_spans, CdcParams, ChunkHash};
use spbc::core::{ClusterMap, SpbcConfig, SpbcProvider};
use spbc::mpi::ft::FtProvider;
use spbc::mpi::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The chunker parameters of the `ckpt-store` workload.
const CDC: CdcParams = CdcParams { min: 256, avg: 1024, max: 4096 };
const BODY_LEN: usize = 2 << 20;

/// Checkpoint bodies of epochs 1 and 2 of rank 0 from a `ckpt-store`-shaped
/// run: 4 ranks in 2 clusters, checkpoint every 10 iterations, CDC on.
fn ckpt_store_bodies() -> Vec<Vec<u8>> {
    let app = Workload::MiniGhost.build(AppParams {
        seed: 42,
        sleep_us: 0,
        ..Workload::MiniGhost.tuned_params(20, 131_072)
    });
    let cfg = SpbcConfig {
        ckpt_interval: 10,
        ckpt_cdc: true,
        cdc_min: CDC.min,
        cdc_avg: CDC.avg,
        cdc_max: CDC.max,
        ..SpbcConfig::default()
    };
    let provider = Arc::new(SpbcProvider::new(ClusterMap::blocks(4, 2), cfg));
    Runtime::builder(
        RuntimeConfig::new(4)
            .with_ranks_per_node(2)
            .with_deadlock_timeout(Duration::from_secs(120)),
    )
    .provider(Arc::clone(&provider) as Arc<dyn FtProvider>)
    .app(app)
    .launch()
    .unwrap()
    .ok()
    .unwrap();
    let store = provider.ckptstore();
    store.flush_all().unwrap();
    [1, 2].map(|e| store.load(RankId(0), e).unwrap().expect("epoch committed").0).to_vec()
}

#[test]
fn chunk_addresses_never_collide() {
    let mut bodies = vec![
        vec![0u8; BODY_LEN],
        (0..BODY_LEN as u64 / 8).flat_map(u64::to_le_bytes).collect(),
        (0..BODY_LEN as u32 / 4).flat_map(u32::to_le_bytes).collect(),
    ];
    bodies.extend(ckpt_store_bodies());
    assert!(bodies[3].len() > 1 << 20 && bodies[3] != bodies[4], "real bodies are 2 MiB states");

    let mut full: HashMap<u128, &[u8]> = HashMap::new();
    for body in &bodies {
        for span in chunk_spans(body, CDC) {
            let chunk = &body[span];
            let addr = ChunkHash::of(chunk).0;
            let seen = *full.entry(u128::from_le_bytes(addr)).or_insert(chunk);
            assert_eq!(seen, chunk, "128-bit address collision");
        }
    }
    assert!(full.len() > 4_000, "too few distinct chunks ({}) to mean anything", full.len());
}
