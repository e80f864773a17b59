//! Graph partitioning minimizing logged volume — the clustering tool of the
//! paper's reference \[30\] (Ropars et al., Euro-Par'11).
//!
//! Pipeline:
//! 1. collapse ranks into nodes (a node never spans clusters);
//! 2. greedy growth: repeatedly seed a cluster with the currently
//!    highest-affinity unassigned node and grow it to the target size by
//!    absorbing the unassigned node with the strongest connection;
//! 3. Kernighan–Lin-style refinement: move nodes between clusters while the
//!    cut improves, under a balance constraint;
//! 4. expand back to ranks.
//!
//! Two objectives are supported: minimizing the **total** logged volume (the
//! paper's tool) and minimizing the **maximum per-node** logged volume (the
//! alternative §6.6 suggests studying — exercised by the A2 ablation bench).

use crate::graph::CommGraph;

/// What the refinement optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Total bytes logged (the \[30\] objective).
    MinTotal,
    /// Maximum bytes any single node logs (§6.6's suggestion).
    MinMax,
}

/// Partitioning options.
#[derive(Clone, Debug)]
pub struct PartitionOpts {
    /// Ranks per node (containment granularity).
    pub node_size: usize,
    /// Allowed deviation from perfectly balanced cluster sizes, in nodes.
    pub slack: usize,
    /// Refinement passes.
    pub refine_passes: usize,
    /// Objective to optimize.
    pub objective: Objective,
}

impl Default for PartitionOpts {
    fn default() -> Self {
        PartitionOpts { node_size: 1, slack: 0, refine_passes: 8, objective: Objective::MinTotal }
    }
}

/// Partition the communication graph over `k` clusters.
///
/// Returns the per-rank cluster assignment (dense indices `0..k`).
pub fn partition(graph: &CommGraph, k: usize, opts: &PartitionOpts) -> Vec<usize> {
    let ranks = graph.len();
    assert!(k >= 1, "need at least one cluster");
    let node_graph = graph.collapse_nodes(opts.node_size);
    let nodes = node_graph.len();
    assert!(k <= nodes, "more clusters ({k}) than nodes ({nodes})");

    let mut assign = greedy_growth(&node_graph, k);
    refine(&node_graph, &mut assign, k, opts);
    normalize(&mut assign, k);

    // Expand node assignment back to ranks.
    (0..ranks).map(|r| assign[r / opts.node_size]).collect()
}

/// Greedy seeded growth on the node graph.
fn greedy_growth(g: &CommGraph, k: usize) -> Vec<usize> {
    let n = g.len();
    let target = n.div_ceil(k);
    let mut assign = vec![usize::MAX; n];
    let mut unassigned = n;

    for cluster in 0..k {
        if unassigned == 0 {
            break;
        }
        // Seed: unassigned node with the largest total affinity to other
        // unassigned nodes (ties broken by index for determinism).
        let seed = (0..n)
            .filter(|&i| assign[i] == usize::MAX)
            .max_by_key(|&i| {
                let w: u64 = (0..n)
                    .filter(|&j| j != i && assign[j] == usize::MAX)
                    .map(|j| g.affinity(i, j))
                    .sum();
                (w, std::cmp::Reverse(i))
            })
            .expect("unassigned node exists");
        assign[seed] = cluster;
        unassigned -= 1;
        let mut size = 1;

        // Leave at least one seed node for every remaining cluster.
        let reserved = k - cluster - 1;
        while size < target && unassigned > reserved {
            // Absorb the unassigned node most connected to this cluster.
            let next = (0..n)
                .filter(|&i| assign[i] == usize::MAX)
                .max_by_key(|&i| {
                    let w: u64 =
                        (0..n).filter(|&j| assign[j] == cluster).map(|j| g.affinity(i, j)).sum();
                    (w, std::cmp::Reverse(i))
                })
                .expect("unassigned node exists");
            assign[next] = cluster;
            unassigned -= 1;
            size += 1;
        }
    }
    // Leftovers (k didn't divide n): attach to their best cluster, smallest
    // clusters preferred on tie.
    for i in 0..n {
        if assign[i] == usize::MAX {
            let best = (0..k)
                .max_by_key(|&c| {
                    let w: u64 = (0..n).filter(|&j| assign[j] == c).map(|j| g.affinity(i, j)).sum();
                    (w, std::cmp::Reverse(c))
                })
                .unwrap();
            assign[i] = best;
        }
    }
    assign
}

/// Objective value of an assignment on the node graph.
fn objective_value(g: &CommGraph, assign: &[usize], objective: Objective) -> u64 {
    match objective {
        Objective::MinTotal => g.cut_bytes(assign),
        Objective::MinMax => g.logged_per_rank(assign).into_iter().max().unwrap_or(0),
    }
}

/// Node-move refinement under a balance constraint.
fn refine(g: &CommGraph, assign: &mut [usize], k: usize, opts: &PartitionOpts) {
    let n = g.len();
    if n == 0 || k <= 1 {
        return;
    }
    let target = n.div_ceil(k);
    let min_size = target.saturating_sub(1 + opts.slack).max(1);
    let max_size = target + opts.slack;
    let mut sizes = vec![0usize; k];
    for &c in assign.iter() {
        sizes[c] += 1;
    }
    let mut best = objective_value(g, assign, opts.objective);

    for _ in 0..opts.refine_passes {
        let mut improved = false;
        for i in 0..n {
            let from = assign[i];
            if sizes[from] <= min_size {
                continue;
            }
            for to in 0..k {
                if to == from || sizes[to] >= max_size {
                    continue;
                }
                assign[i] = to;
                let val = objective_value(g, assign, opts.objective);
                if val < best {
                    best = val;
                    sizes[from] -= 1;
                    sizes[to] += 1;
                    improved = true;
                    break;
                }
                assign[i] = from;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Remap cluster ids to a dense `0..k` range ordered by first appearance.
fn normalize(assign: &mut [usize], k: usize) {
    let mut remap = vec![usize::MAX; k];
    let mut next = 0;
    for a in assign.iter_mut() {
        if remap[*a] == usize::MAX {
            remap[*a] = next;
            next += 1;
        }
        *a = remap[*a];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tightly coupled quads with a weak bridge.
    fn two_communities() -> CommGraph {
        let mut g = CommGraph::empty(8);
        for group in [[0usize, 1, 2, 3], [4, 5, 6, 7]] {
            for &a in &group {
                for &b in &group {
                    if a != b {
                        g.add(a, b, 50);
                    }
                }
            }
        }
        g.add(3, 4, 1);
        g.add(4, 3, 1);
        g
    }

    #[test]
    fn finds_the_natural_communities() {
        let g = two_communities();
        let a = partition(&g, 2, &PartitionOpts::default());
        assert_eq!(a[0], a[1]);
        assert_eq!(a[0], a[3]);
        assert_eq!(a[4], a[7]);
        assert_ne!(a[0], a[4]);
        assert_eq!(g.cut_bytes(&a), 2);
    }

    #[test]
    fn beats_naive_blocks_on_interleaved_communities() {
        // Communities are {even ranks} and {odd ranks}: block clustering is
        // maximally wrong, the tool should find the interleaving.
        let mut g = CommGraph::empty(8);
        for a in 0..8usize {
            for b in 0..8usize {
                if a != b && a % 2 == b % 2 {
                    g.add(a, b, 10);
                }
            }
        }
        let blocks: Vec<usize> = (0..8).map(|r| r / 4).collect();
        let smart = partition(&g, 2, &PartitionOpts::default());
        assert!(g.cut_bytes(&smart) < g.cut_bytes(&blocks));
        assert_eq!(g.cut_bytes(&smart), 0);
    }

    #[test]
    fn respects_node_granularity() {
        let g = two_communities();
        let opts = PartitionOpts { node_size: 2, ..Default::default() };
        let a = partition(&g, 2, &opts);
        for node in 0..4 {
            assert_eq!(a[2 * node], a[2 * node + 1], "node {node} split");
        }
    }

    #[test]
    fn assignment_is_dense_and_deterministic() {
        let g = two_communities();
        let a1 = partition(&g, 4, &PartitionOpts::default());
        let a2 = partition(&g, 4, &PartitionOpts::default());
        assert_eq!(a1, a2);
        let mut ids = a1.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn k_equals_one_and_k_equals_n() {
        let g = two_communities();
        let single = partition(&g, 1, &PartitionOpts::default());
        assert!(single.iter().all(|&c| c == 0));
        let per_rank = partition(&g, 8, &PartitionOpts::default());
        let mut ids = per_rank.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn minmax_objective_balances_logging() {
        // A hub rank talks to everyone: min-total may isolate it with a few
        // friends; min-max should spread the burden no worse.
        let mut g = CommGraph::empty(6);
        for i in 1..6 {
            g.add(0, i, 30);
            g.add(i, 0, 30);
        }
        g.add(1, 2, 5);
        g.add(3, 4, 5);
        let total = partition(&g, 3, &PartitionOpts::default());
        let minmax =
            partition(&g, 3, &PartitionOpts { objective: Objective::MinMax, ..Default::default() });
        let max_of = |a: &[usize]| g.logged_per_rank(a).into_iter().max().unwrap();
        assert!(max_of(&minmax) <= max_of(&total));
    }
}
