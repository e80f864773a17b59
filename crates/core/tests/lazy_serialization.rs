//! `Rank::checkpoint_if_due` serializes the application state only when a
//! wave opens: a checkpoint opportunity that is not due, and every call
//! under native execution, encodes nothing. The state type here counts its
//! own `Encode` calls, per rank.

use mini_mpi::ft::{FtProvider, NativeProvider};
use mini_mpi::prelude::*;
use mini_mpi::wire::{to_bytes, Encode};
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 8;
const ITERS: u64 = 14;
const INTERVAL: u64 = 4;

/// `(step, field)` plus this rank's serialization counter.
struct Counted {
    step: u64,
    field: Vec<f64>,
    encodes: &'static AtomicU64,
}

impl Encode for Counted {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encodes.fetch_add(1, Ordering::SeqCst);
        self.step.encode(out);
        self.field.encode(out);
    }
}

fn ring_app(
    counters: &'static [AtomicU64; WORLD],
) -> impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static {
    move |rank: &mut Rank| {
        let me = rank.world_rank();
        let n = rank.world_size();
        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
        let mut state = Counted { step: 0, field: vec![me as f64; 512], encodes: &counters[me] };
        while state.step < ITERS {
            rank.failure_point()?;
            let rreq = rank.irecv(COMM_WORLD, prev as u32, 1)?;
            rank.send(COMM_WORLD, next, 1, &state.field[..4])?;
            let (_st, payload) = rank.wait(rreq)?;
            let got: Vec<f64> = mini_mpi::datatype::unpack(&payload.unwrap())?;
            for (i, x) in state.field.iter_mut().enumerate() {
                *x = 0.5 * *x + 0.25 * got[i % got.len()] + 0.1;
            }
            state.step += 1;
            rank.checkpoint_if_due(&state)?;
        }
        Ok(to_bytes(&state.field))
    }
}

fn run(provider: Arc<dyn FtProvider>, counters: &'static [AtomicU64; WORLD]) -> RunReport {
    let rt = RuntimeConfig::new(WORLD).with_deadlock_timeout(Duration::from_secs(10));
    Runtime::builder(rt)
        .provider(provider)
        .app(Arc::new(ring_app(counters)))
        .launch()
        .unwrap()
        .ok()
        .unwrap()
}

fn counts(counters: &[AtomicU64; WORLD]) -> Vec<u64> {
    counters.iter().map(|c| c.load(Ordering::SeqCst)).collect()
}

#[test]
fn native_execution_serializes_nothing() {
    static CALLS: [AtomicU64; WORLD] = [const { AtomicU64::new(0) }; WORLD];
    run(Arc::new(NativeProvider), &CALLS);
    assert_eq!(counts(&CALLS), vec![0; WORLD], "no checkpoint is ever due under native execution");
}

#[test]
fn spbc_serializes_once_per_wave() {
    static NATIVE: [AtomicU64; WORLD] = [const { AtomicU64::new(0) }; WORLD];
    static CALLS: [AtomicU64; WORLD] = [const { AtomicU64::new(0) }; WORLD];
    let native = run(Arc::new(NativeProvider), &NATIVE);
    let cfg = SpbcConfig { ckpt_interval: INTERVAL, ..SpbcConfig::default() };
    let provider = Arc::new(SpbcProvider::new(ClusterMap::blocks(WORLD, 4), cfg));
    let spbc = run(provider, &CALLS);
    assert_eq!(spbc.outputs, native.outputs, "failure-free SPBC must match native bitwise");
    assert_eq!(
        counts(&CALLS),
        vec![ITERS / INTERVAL; WORLD],
        "exactly one serialization per wave ({ITERS} iterations, a wave every {INTERVAL})"
    );
}
