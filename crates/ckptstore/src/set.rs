//! Redundancy sets: SCR-style grouping of a cluster's ranks into sets of
//! size `g`, the unit over which [`crate::ec`] computes parity.
//!
//! Sets never straddle clusters — a whole-cluster failure (the SPBC fault
//! model) must not be able to take out two members of the same set's
//! *replacement* data, and the parity shards themselves are pushed to
//! partner clusters like any other replica. Parity shards are stored under
//! synthetic "owner" ranks derived from the set id so they ride the
//! existing `(owner, epoch)` keyed backends unchanged, and
//! [`crate::service::CkptStoreService::replicas`] hands them to the
//! protocol as opaque frames for its one push path.

use mini_mpi::types::RankId;
use std::collections::HashMap;

/// Synthetic owner-rank space for parity shards: far above any real rank.
pub const PARITY_OWNER_BASE: u32 = 1 << 30;

/// The backend "owner" under which parity shard `shard_idx` of `set_id`
/// is stored. 256 shards per set is far above any real `m`.
pub fn parity_owner(set_id: u32, shard_idx: usize) -> RankId {
    RankId(PARITY_OWNER_BASE + set_id * 256 + shard_idx as u32)
}

/// Partition of the world's ranks into redundancy sets.
#[derive(Clone, Debug, Default)]
pub struct SetMap {
    sets: Vec<Vec<u32>>,
    by_rank: HashMap<u32, (u32, usize)>,
}

impl SetMap {
    /// Build sets of at most `g` ranks, never straddling a cluster: each
    /// cluster's member list is chunked in order. A trailing chunk smaller
    /// than `g` forms its own (smaller) set.
    pub fn from_clusters(clusters: &[Vec<u32>], g: usize) -> SetMap {
        let g = g.max(1);
        let mut sets = Vec::new();
        let mut by_rank = HashMap::new();
        for members in clusters {
            for chunk in members.chunks(g) {
                let set_id = sets.len() as u32;
                for (pos, &r) in chunk.iter().enumerate() {
                    by_rank.insert(r, (set_id, pos));
                }
                sets.push(chunk.to_vec());
            }
        }
        SetMap { sets, by_rank }
    }

    /// The set containing `rank`: `(set_id, members, my_position)`.
    pub fn set_of(&self, rank: RankId) -> Option<(u32, &[u32], usize)> {
        let &(set_id, pos) = self.by_rank.get(&rank.0)?;
        Some((set_id, &self.sets[set_id as usize], pos))
    }

    /// Members of `set_id` in shard order.
    pub fn members(&self, set_id: u32) -> &[u32] {
        &self.sets[set_id as usize]
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_chunk_within_clusters() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9, 10]];
        let m = SetMap::from_clusters(&clusters, 2);
        assert_eq!(m.n_sets(), 6);
        assert_eq!(m.set_of(RankId(0)).unwrap(), (0, &[0u32, 1][..], 0));
        assert_eq!(m.set_of(RankId(1)).unwrap(), (0, &[0u32, 1][..], 1));
        assert_eq!(m.set_of(RankId(3)).unwrap(), (1, &[2u32, 3][..], 1));
        assert_eq!(m.set_of(RankId(4)).unwrap(), (2, &[4u32, 5][..], 0));
        // Trailing odd member forms a singleton set.
        assert_eq!(m.set_of(RankId(10)).unwrap(), (5, &[10u32][..], 0));
        assert!(m.set_of(RankId(99)).is_none());
    }

    #[test]
    fn group_larger_than_cluster_caps_at_cluster() {
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let m = SetMap::from_clusters(&clusters, 8);
        assert_eq!(m.n_sets(), 2);
        assert_eq!(m.set_of(RankId(1)).unwrap().1, &[0, 1]);
        assert_eq!(m.set_of(RankId(2)).unwrap().1, &[2, 3]);
    }

    #[test]
    fn parity_owners_are_disjoint_from_real_ranks() {
        let a = parity_owner(0, 0);
        let b = parity_owner(0, 1);
        let c = parity_owner(1, 0);
        assert!([a, b, c].iter().all(|o| o.0 >= PARITY_OWNER_BASE));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
