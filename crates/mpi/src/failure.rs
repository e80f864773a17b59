//! Failure injection: chaos triggers, kill flags, and runtime events.
//!
//! The chaos engine generalizes the original "rank r dies at its nth failure
//! point" model into [`FailureTrigger`]s that can land a kill at any row of
//! a protocol layer's transition tables ([`FailureTrigger::AtTransition`]:
//! SPBC's rows are `spbc_core::WAVE_ROWS` and `spbc_core::RECOVERY_ROWS`),
//! or right after (even *during*) another cluster's recovery. Rank threads
//! and protocol layers ask the shared controller at every [`FailureSite`]
//! they pass whether they must die there; a row costs a rank no plan names
//! one relaxed atomic load.

use crate::types::RankId;
use crossbeam_channel::Sender;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// When a planned crash fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FailureTrigger {
    /// The `nth` time (1-based) the victim passes a
    /// [`crate::rank::Rank::failure_point`] *in its current incarnation*
    /// (the count restarts with the rank) — the original failure model.
    NthFailurePoint {
        /// Which occurrence triggers the crash (1-based).
        nth: u64,
    },
    /// The `nth` time (1-based, counted over the whole run, across
    /// incarnations) the victim takes transition-table row `row`, after the
    /// step and before any of its actions run.
    AtTransition {
        /// The row, as the protocol layer names it.
        row: &'static str,
        /// Which passage of that row triggers the crash (1-based).
        nth: u64,
    },
    /// The victim dies at the first failure site it passes after cluster
    /// `of_cluster` has been respawned for the `nth` time — i.e. while that
    /// cluster's `nth` recovery is still in progress. With the victim inside
    /// `of_cluster` itself this is a repeated kill of a still-recovering
    /// cluster.
    AfterRecovery {
        /// The cluster whose recovery arms this trigger.
        of_cluster: usize,
        /// Which recovery of that cluster (1-based).
        nth: u64,
    },
}

/// One planned crash: `rank` dies when `trigger` fires. Plans fire at most
/// once.
#[derive(Clone, Debug, PartialEq)]
pub struct FailurePlan {
    /// Victim rank.
    pub rank: RankId,
    /// When the victim dies.
    pub trigger: FailureTrigger,
}

impl FailurePlan {
    /// The classic plan: `rank` dies the `nth` time it passes a failure
    /// point (1-based).
    pub fn nth(rank: RankId, nth: u64) -> Self {
        FailurePlan { rank, trigger: FailureTrigger::NthFailurePoint { nth } }
    }

    /// `rank` dies the `nth` time it takes row `row`.
    pub fn at_transition(rank: RankId, row: &'static str, nth: u64) -> Self {
        FailurePlan { rank, trigger: FailureTrigger::AtTransition { row, nth } }
    }

    /// `rank` dies at its first failure site after cluster `of_cluster`'s
    /// `nth` respawn.
    pub fn after_recovery(rank: RankId, of_cluster: usize, nth: u64) -> Self {
        FailurePlan { rank, trigger: FailureTrigger::AfterRecovery { of_cluster, nth } }
    }
}

/// A crash-evaluation site a rank passes: the argument of
/// [`FailureShared::should_fail_at`].
#[derive(Clone, Copy, Debug)]
pub enum FailureSite {
    /// An application-level failure point (`occurrence` is 1-based and
    /// per-incarnation).
    FailurePoint {
        /// This incarnation's failure-point count.
        occurrence: u64,
    },
    /// A transition-table row; passages are counted by the controller.
    Transition {
        /// The row taken.
        row: &'static str,
    },
}

/// Events the rank threads report to the runtime's main loop.
#[derive(Debug)]
pub enum RuntimeEvent {
    /// `rank` hit a failure plan and is about to die; the runtime must roll
    /// back its whole cluster.
    Failure {
        /// The crashing rank.
        rank: RankId,
    },
    /// `rank`'s application closure finished with `output`.
    Done {
        /// The finishing rank.
        rank: RankId,
        /// Application output bytes.
        output: Vec<u8>,
    },
    /// `rank` exited abnormally with an error message (not an injected kill).
    Error {
        /// The erroring rank.
        rank: RankId,
        /// Description.
        message: String,
    },
    /// `rank` observed its kill flag and unwound.
    Killed {
        /// The killed rank.
        rank: RankId,
    },
}

/// The plans not yet fired.
#[derive(Default)]
struct Pending {
    /// Each with how often its victim has taken its row so far (counted for
    /// [`FailureTrigger::AtTransition`] plans only).
    plans: Vec<(FailurePlan, u64)>,
    /// Fired [`FailureTrigger::AfterRecovery`] plans: their victims die at
    /// the next failure site they pass.
    armed: Vec<FailurePlan>,
    /// Respawn count per cluster (the runtime reports each recovery).
    recoveries: HashMap<usize, u64>,
}

impl Pending {
    /// Whether a row `rank` takes can matter: a pending `AtTransition` plan
    /// names it, or it is armed.
    fn watches(&self, rank: RankId) -> bool {
        let at_row = |p: &FailurePlan| matches!(p.trigger, FailureTrigger::AtTransition { .. });
        self.armed.iter().any(|p| p.rank == rank)
            || self.plans.iter().any(|(p, _)| p.rank == rank && at_row(p))
    }
}

/// State shared between the failure controller, the runtime and the ranks.
pub struct FailureShared {
    pending: Mutex<Pending>,
    /// Per rank: [`Pending::watches`], so that a row costs every other rank
    /// one relaxed load.
    watched: Vec<AtomicBool>,
    events: Sender<RuntimeEvent>,
    kill_flags: Vec<Arc<AtomicBool>>,
    stats: Vec<Mutex<Option<Box<crate::stats::RankStats>>>>,
}

impl FailureShared {
    /// Build shared state for `total_ranks` ranks reporting on `events`.
    pub fn new(total_ranks: usize, events: Sender<RuntimeEvent>) -> Self {
        FailureShared {
            pending: Mutex::new(Pending::default()),
            watched: (0..total_ranks).map(|_| AtomicBool::new(false)).collect(),
            events,
            kill_flags: (0..total_ranks).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            stats: (0..total_ranks).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Deposit a rank's final statistics (at thread exit; the latest epoch
    /// wins).
    pub fn set_stats(&self, rank: RankId, stats: crate::stats::RankStats) {
        *self.stats[rank.idx()].lock() = Some(Box::new(stats));
    }

    /// The statistics deposit slots (read by the runtime at teardown).
    pub fn stats_slots(&self) -> &[Mutex<Option<Box<crate::stats::RankStats>>>] {
        &self.stats
    }

    /// Register a crash plan.
    pub fn schedule(&self, plan: FailurePlan) {
        let mut pending = self.pending.lock();
        let rank = plan.rank;
        pending.plans.push((plan, 0));
        self.watched[rank.idx()].store(pending.watches(rank), Ordering::Relaxed);
    }

    /// Called at each failure site a rank passes; returns `true` when the
    /// rank must crash now. Fired plans are removed so re-execution after
    /// recovery does not crash again on the same plan.
    pub fn should_fail_at(&self, rank: RankId, site: FailureSite) -> bool {
        if let FailureSite::Transition { .. } = site {
            if !self.watched[rank.idx()].load(Ordering::Relaxed) {
                return false;
            }
        }
        let mut pending = self.pending.lock();
        let fired = if let Some(i) = pending.armed.iter().position(|p| p.rank == rank) {
            pending.armed.remove(i);
            true
        } else {
            let mut fire = None;
            for (i, (p, passed)) in pending.plans.iter_mut().enumerate() {
                let hit = p.rank == rank
                    && match (&p.trigger, site) {
                        (
                            FailureTrigger::NthFailurePoint { nth },
                            FailureSite::FailurePoint { occurrence },
                        ) => *nth == occurrence,
                        (
                            FailureTrigger::AtTransition { row, nth },
                            FailureSite::Transition { row: r },
                        ) if *row == r => {
                            *passed += 1;
                            *passed == *nth
                        }
                        _ => false,
                    };
                fire = fire.or(hit.then_some(i));
            }
            fire.map(|i| pending.plans.remove(i)).is_some()
        };
        if fired {
            self.watched[rank.idx()].store(pending.watches(rank), Ordering::Relaxed);
        }
        fired
    }

    /// The runtime is respawning cluster `cluster`: bump its recovery count
    /// and arm every [`FailureTrigger::AfterRecovery`] plan that names this
    /// recovery. Armed victims die at the next failure site they pass —
    /// while the recovery is still in progress.
    pub fn note_recovery(&self, cluster: usize) {
        let mut pending = self.pending.lock();
        let count = pending.recoveries.entry(cluster).or_insert(0);
        *count += 1;
        let arms = FailureTrigger::AfterRecovery { of_cluster: cluster, nth: *count };
        let (armed, rest) =
            std::mem::take(&mut pending.plans).into_iter().partition(|(p, _)| p.trigger == arms);
        pending.plans = rest;
        for (p, _) in armed {
            self.watched[p.rank.idx()].store(true, Ordering::Relaxed);
            pending.armed.push(p);
        }
    }

    /// Report an event to the runtime (best-effort; the main loop may be
    /// gone during teardown).
    pub fn report(&self, ev: RuntimeEvent) {
        let _ = self.events.send(ev);
    }

    /// The kill flag of `rank`.
    pub fn kill_flag(&self, rank: RankId) -> Arc<AtomicBool> {
        Arc::clone(&self.kill_flags[rank.idx()])
    }

    /// Raise the kill flag of `rank`.
    pub fn kill(&self, rank: RankId) {
        self.kill_flags[rank.idx()].store(true, Ordering::SeqCst);
    }

    /// Clear the kill flag of `rank` (before respawning it).
    pub fn revive(&self, rank: RankId) {
        self.kill_flags[rank.idx()].store(false, Ordering::SeqCst);
    }

    /// The plans that have not fired (armed victims that did not die yet
    /// count): a schedule that ends with any of them tested less than it
    /// names.
    pub fn unfired(&self) -> Vec<FailurePlan> {
        let pending = self.pending.lock();
        pending.plans.iter().map(|(p, _)| p.clone()).chain(pending.armed.iter().cloned()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    fn point(occurrence: u64) -> FailureSite {
        FailureSite::FailurePoint { occurrence }
    }

    #[test]
    fn plan_fires_once() {
        let (tx, _rx) = unbounded();
        let f = FailureShared::new(4, tx);
        f.schedule(FailurePlan::nth(RankId(2), 3));
        assert!(!f.should_fail_at(RankId(2), point(1)));
        assert!(!f.should_fail_at(RankId(1), point(3)));
        assert!(f.should_fail_at(RankId(2), point(3)));
        // Re-execution passes the same point again: must not re-fire.
        assert!(!f.should_fail_at(RankId(2), point(3)));
        assert!(f.unfired().is_empty());
    }

    #[test]
    fn at_transition_counts_passages_of_watched_ranks_only() {
        let (tx, _rx) = unbounded();
        let f = FailureShared::new(4, tx);
        let plan = FailurePlan::at_transition(RankId(1), "member/Flushing/Flushed", 2);
        f.schedule(plan.clone());
        let site = FailureSite::Transition { row: "member/Flushing/Flushed" };
        assert!(!f.watched[0].load(Ordering::Relaxed) && f.watched[1].load(Ordering::Relaxed));
        assert!(!f.should_fail_at(RankId(1), site), "first passage survives");
        // A different row or rank does not advance the count.
        let other = FailureSite::Transition { row: "member/Quiescing/Commit" };
        assert!(!f.should_fail_at(RankId(1), other));
        assert!(!f.should_fail_at(RankId(0), site));
        assert_eq!(f.unfired(), [plan]);
        assert!(f.should_fail_at(RankId(1), site), "second passage dies");
        assert!(!f.should_fail_at(RankId(1), site), "fired plans are removed");
        assert!(!f.watched[1].load(Ordering::Relaxed), "nothing left to watch");
        assert!(f.unfired().is_empty());
    }

    #[test]
    fn after_recovery_arms_victim() {
        let (tx, _rx) = unbounded();
        let f = FailureShared::new(4, tx);
        let plan = FailurePlan::after_recovery(RankId(3), 0, 2);
        f.schedule(plan.clone());
        f.note_recovery(0);
        assert!(!f.should_fail_at(RankId(3), point(1)), "first recovery does not arm (nth=2)");
        assert!(!f.watched[3].load(Ordering::Relaxed));
        f.note_recovery(0);
        assert_eq!(f.unfired(), [plan], "armed, not yet dead");
        let row = FailureSite::Transition { row: "recovery/Rollback" };
        assert!(f.should_fail_at(RankId(3), row), "armed victim dies at its next row");
        assert!(!f.should_fail_at(RankId(3), point(3)), "armed state consumed");
        assert!(f.unfired().is_empty());
    }

    #[test]
    fn kill_and_revive() {
        let (tx, _rx) = unbounded();
        let f = FailureShared::new(2, tx);
        let flag = f.kill_flag(RankId(1));
        assert!(!flag.load(Ordering::SeqCst));
        f.kill(RankId(1));
        assert!(flag.load(Ordering::SeqCst));
        f.revive(RankId(1));
        assert!(!flag.load(Ordering::SeqCst));
    }

    #[test]
    fn events_flow() {
        let (tx, rx) = unbounded();
        let f = FailureShared::new(1, tx);
        f.report(RuntimeEvent::Failure { rank: RankId(0) });
        match rx.try_recv().unwrap() {
            RuntimeEvent::Failure { rank } => assert_eq!(rank, RankId(0)),
            _ => panic!(),
        }
    }
}
