//! BoomerAMG skeleton: the assumed-partition, data-dependent exchange of
//! Figure 4 (Baker/Falgout/Yang's algorithm, §5.1 of the paper).
//!
//! Each rank computes — from its local data — which ranks it must contact,
//! but **nobody knows who will contact them, or how many times**. Requests
//! are therefore discovered with `MPI_Iprobe(MPI_ANY_SOURCE, tag1)`; every
//! request is answered immediately with a reply on `tag2`.
//!
//! Properties reproduced from the paper:
//! * the reply order on a process depends on request *arrival* order, so the
//!   code is **channel-deterministic but not send-deterministic** (§5.1) —
//!   the determinism checkers in `spbc-trace` verify exactly this;
//! * three such patterns exist (the paper modified three); we run the
//!   exchange three times per iteration under three distinct pattern ids;
//! * over half the execution time is communication (§6.4), so AMG shows the
//!   paper's largest recovery speedup.
//!
//! Termination: the real code runs a distributed termination-detection
//! algorithm; we pre-distribute the per-destination request counts with an
//! `alltoall` (same effect — a process knows when its iteration is done —
//! with a simpler skeleton; the alltoall itself is ordinary logged traffic).

use crate::compute;
use crate::AppParams;
use mini_mpi::prelude::*;
use mini_mpi::util::XorShift64;
use mini_mpi::wire::to_bytes;
use spbc_core::{PatternId, Patterns};

const TAG_REQ: Tag = 300; // "tag1" of Figure 4
const TAG_REP: Tag = 301; // "tag2" of Figure 4
const PHASES: usize = 3;

/// Contacts of `me` in `phase` of `iter`: data-dependent (pseudo-random) but
/// a pure function of the configuration — every execution agrees.
fn contacts(me: usize, n: usize, iter: u64, phase: usize, seed: u64) -> Vec<usize> {
    if n <= 1 {
        return Vec::new();
    }
    let mut rng = XorShift64::new(
        seed ^ (me as u64) << 32 ^ iter.wrapping_mul(0x9E37) ^ (phase as u64) << 17 | 1,
    );
    let k = 1 + (rng.below(3) as usize).min(n - 2);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let c = rng.below(n as u64) as usize;
        if c != me && !out.contains(&c) {
            out.push(c);
        }
    }
    out.sort_unstable();
    out
}

/// Build the AMG rank closure.
pub fn app(p: AppParams) -> impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static {
    move |rank: &mut Rank| {
        let me = rank.world_rank();
        let n = rank.world_size();
        let reply_len = (p.elems / 32).max(4);

        // State = (iteration, field, interpolation weights, patterns). The
        // weight table is seeded without a rank term: identical on every
        // rank and constant across iterations, so content-defined chunking
        // deduplicates it across both ranks and epochs.
        let mut state: (u64, Vec<f64>, Vec<f64>, Patterns) = rank.restore()?.unwrap_or_else(|| {
            let mut pats = Patterns::new();
            for _ in 0..PHASES {
                pats.declare();
            }
            (
                0,
                compute::init_field(p.elems, p.seed.wrapping_add(me as u64)),
                compute::init_field(p.elems, p.seed ^ 0xa316_11eb),
                pats,
            )
        });

        while state.0 < p.iters {
            rank.failure_point()?;
            let iter = state.0;
            for phase in 0..PHASES {
                let (_, field, weights, pats) = &mut state;
                let my_contacts = contacts(me, n, iter, phase, p.seed);

                // How many requests will reach me this phase? (Termination
                // bookkeeping; ordinary collective traffic.)
                let mut outgoing = vec![0u64; n];
                for &c in &my_contacts {
                    outgoing[c] = 1;
                }
                let sendparts: Vec<Vec<u64>> = outgoing.iter().map(|&x| vec![x]).collect();
                let counts = rank.alltoall(COMM_WORLD, &sendparts)?;
                let expected: u64 = counts.iter().map(|v| v[0]).sum();

                // --- Figure 4, wrapped in its pattern iteration ---
                pats.begin_iteration(rank, PatternId(phase as u32 + 1))?;
                let mut reply_reqs = Vec::with_capacity(my_contacts.len());
                for &c in &my_contacts {
                    // Post the reply receive, then fire the request.
                    reply_reqs.push(rank.irecv(COMM_WORLD, c as u32, TAG_REP)?);
                    let q = [me as f64, iter as f64, phase as f64];
                    rank.send(COMM_WORLD, c, TAG_REQ, &q)?;
                }
                let mut served = 0u64;
                let mut replies: Vec<Option<(Status, Vec<f64>)>> = vec![None; my_contacts.len()];
                let mut replies_done = 0usize;
                while served < expected || replies_done < my_contacts.len() {
                    let mut progressed = false;
                    // Serve whoever shows up (MPI_ANY_SOURCE + Iprobe).
                    if served < expected {
                        if let Some(st) = rank.iprobe(COMM_WORLD, Source::Any, TAG_REQ)? {
                            let (_q, qst) = rank.recv::<f64>(COMM_WORLD, st.src.0, TAG_REQ)?;
                            let ans: Vec<f64> = field
                                .iter()
                                .take(reply_len)
                                .map(|x| x + qst.src.0 as f64 * 1e-6)
                                .collect();
                            rank.send(COMM_WORLD, qst.src.idx(), TAG_REP, &ans)?;
                            served += 1;
                            progressed = true;
                        }
                    }
                    // Collect replies as they complete (MPI_Testall spirit).
                    for (i, r) in reply_reqs.iter().enumerate() {
                        if replies[i].is_none() {
                            if let Some((st, payload)) = rank.test(*r)? {
                                let data: Vec<f64> =
                                    mini_mpi::datatype::unpack(payload.as_ref().expect("reply"))?;
                                replies[i] = Some((st, data));
                                replies_done += 1;
                                progressed = true;
                            }
                        }
                    }
                    if !progressed {
                        // Nothing available: sleep until the next packet
                        // arrives (200 us at most) instead of spinning;
                        // counts as communication wait time.
                        rank.pump(std::time::Duration::from_micros(200))?;
                    }
                }
                pats.end_iteration(rank, PatternId(phase as u32 + 1))?;

                // Fold replies in contact order (canonical, arrival-independent).
                for (i, slot) in replies.iter().enumerate() {
                    let (_st, data) = slot.as_ref().expect("all replies collected");
                    for (j, v) in data.iter().enumerate() {
                        let idx = (i * 31 + j) % field.len();
                        field[idx] = 0.95 * field[idx] + 0.05 * weights[idx] * v;
                    }
                }
                compute::work_timed(field, p.compute.max(1) / 2 + 1, p.sleep_us);
            }
            state.0 += 1;
            rank.checkpoint_if_due(&state)?;
        }
        Ok(to_bytes(&compute::checksum(&state.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> AppParams {
        AppParams { iters: 3, elems: 256, compute: 1, seed: 11, sleep_us: 0 }
    }

    #[test]
    fn contacts_are_deterministic_and_valid() {
        for me in 0..6 {
            let a = contacts(me, 6, 2, 1, 42);
            let b = contacts(me, 6, 2, 1, 42);
            assert_eq!(a, b);
            assert!(!a.contains(&me));
            assert!(a.iter().all(|&c| c < 6));
            assert!(!a.is_empty());
        }
        assert!(contacts(0, 1, 0, 0, 42).is_empty());
    }

    #[test]
    fn contacts_vary_with_iteration_and_phase() {
        let base = contacts(3, 8, 0, 0, 42);
        let other_iter = contacts(3, 8, 1, 0, 42);
        let other_phase = contacts(3, 8, 0, 1, 42);
        assert!(base != other_iter || base != other_phase);
    }

    #[test]
    fn runs_and_is_deterministic() {
        let run = || Runtime::run_native(6, app(params())).unwrap().ok().unwrap().outputs;
        assert_eq!(run(), run());
    }
}
