//! Replay flow control (Section 5.2.2).
//!
//! A replaying process could blast its whole log at the recovering cluster,
//! overloading it — or trickle messages one at a time, starving it. SPBC
//! pre-posts up to a fixed window of replayed sends (the paper found 50 per
//! process to work well) and lets completions (rendezvous CTS round-trips)
//! refill the window.
//!
//! Ordering: per destination the queue is already in the sender's global
//! send-order (the §5.2.2 send-order log, materialized by
//! [`crate::log::MessageLog::replay_set`]); eager replays complete
//! immediately, rendezvous replays occupy a window slot until their payload
//! ships. The queues are per destination, not per channel: a per-channel
//! queue would reorder replays across communicators.
//!
//! While a destination has queued replays, *new* application sends to it must
//! be appended to its queue rather than transmitted directly — otherwise a
//! fresh envelope could overtake a windowed replay on the same channel and
//! the receiver's per-channel duplicate filter would discard the late
//! replay as stale.
//!
//! The queues and the window are part of the recovery state
//! (`recovery::Recovery`), whose transition function releases each
//! message.

/// Default pre-post window (the paper's empirically chosen value).
pub const DEFAULT_REPLAY_WINDOW: usize = 50;
