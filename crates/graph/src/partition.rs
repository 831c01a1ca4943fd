//! Edge-cut vertex partitioning for sharded execution.
//!
//! A [`Partition`] assigns every vertex to exactly one of `k` shards; an
//! edge whose endpoints land in different shards is a **cut edge**. The
//! executor replicates each cut edge into both endpoint shards and keeps
//! the endpoint rows it does not own as *halo* rows, so the quality
//! metric a partitioner optimizes here is the communication volume of
//! that replication: fewer cut edges, balanced per-shard edge load.
//!
//! [`Partition::edge_cut_bfs`] is the one partitioner, and it is
//! deterministic: a greedy BFS grower seeds a shard at the smallest
//! unassigned vertex id and grows it along undirected adjacency until the
//! shard's share of the total edge load is reached, then repeats.
//! Frontier growth keeps neighborhoods together, so most edges close
//! inside a shard.
//!
//! Balancing uses per-vertex edge load (`1 + in_degree + out_degree`,
//! the `1` keeps isolated vertices from collapsing into one shard), and
//! all `k` shards are non-empty whenever the graph has at least `k`
//! vertices (`k` is clamped otherwise).

use crate::Graph;
use std::collections::VecDeque;

/// An assignment of every vertex to one of `num_shards` shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    num_shards: usize,
    /// `owner[v]` = shard id of vertex `v`.
    owner: Vec<u32>,
}

impl Partition {
    /// Per-vertex balancing weight: the vertex's share of the edge work.
    fn load(g: &Graph, v: usize) -> usize {
        1 + g.in_degree(v) + g.out_degree(v)
    }

    /// Greedy BFS edge-cut grower. Deterministic: shards are seeded at
    /// the smallest unassigned vertex id and grown breadth-first along
    /// undirected adjacency until the shard holds its share of the total
    /// edge load; the last shard takes the remainder.
    pub fn edge_cut_bfs(g: &Graph, k: usize) -> Self {
        let n = g.num_vertices();
        let k = k.clamp(1, n.max(1));
        let mut owner = vec![u32::MAX; n];
        let total: usize = (0..n).map(|v| Self::load(g, v)).sum();
        let mut remaining_load = total;
        let mut assigned = 0usize;
        let mut next_seed = 0usize;
        let mut queue: VecDeque<usize> = VecDeque::new();
        for s in 0..k {
            let target = remaining_load / (k - s);
            let mut shard_load = 0usize;
            queue.clear();
            while assigned < n && (s == k - 1 || shard_load < target || shard_load == 0) {
                // Leave one vertex for each shard still to come, so
                // every shard is non-empty when n ≥ k.
                if s < k - 1 && n - assigned < k - s && shard_load > 0 {
                    break;
                }
                let v = match queue.pop_front() {
                    Some(v) => v,
                    None => {
                        while owner[next_seed] != u32::MAX {
                            next_seed += 1;
                        }
                        next_seed
                    }
                };
                if owner[v] != u32::MAX {
                    continue;
                }
                owner[v] = s as u32;
                assigned += 1;
                shard_load += Self::load(g, v);
                for &u in g
                    .out_adj()
                    .neighbors(v)
                    .iter()
                    .chain(g.in_adj().neighbors(v))
                {
                    if owner[u as usize] == u32::MAX {
                        queue.push_back(u as usize);
                    }
                }
            }
            remaining_load -= shard_load;
        }
        Self {
            num_shards: k,
            owner,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of vertices the partition covers.
    pub fn num_vertices(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning vertex `v`.
    pub fn owner_of(&self, v: usize) -> usize {
        self.owner[v] as usize
    }

    /// The full owner vector (`owner[v]` = shard id).
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// Vertices per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_shards];
        for &s in &self.owner {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Number of edges of `g` whose endpoints live in different shards —
    /// the edges sharded execution replicates and patches across shards.
    pub fn cut_edges(&self, g: &Graph) -> u64 {
        g.src_slice()
            .iter()
            .zip(g.dst_slice())
            .filter(|&(&s, &d)| self.owner[s as usize] != self.owner[d as usize])
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, EdgeList};

    fn covers_everything(p: &Partition, n: usize) {
        assert_eq!(p.owner().len(), n);
        for v in 0..n {
            assert!(p.owner_of(v) < p.num_shards(), "vertex {v} unassigned");
        }
        let sizes = p.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), n);
        if n >= p.num_shards() {
            assert!(
                sizes.iter().all(|&s| s > 0),
                "empty shard in {sizes:?} over {n} vertices"
            );
        }
    }

    #[test]
    fn bfs_partition_covers_and_balances() {
        let g = Graph::from_edge_list(&generators::rmat(8, 8, 0.57, 0.19, 0.19, 3));
        for k in [1, 2, 3, 4, 7] {
            let p = Partition::edge_cut_bfs(&g, k);
            assert_eq!(p.num_shards(), k);
            covers_everything(&p, g.num_vertices());
            // Edge-load balance: no shard exceeds twice its fair share.
            let load: Vec<usize> = (0..g.num_vertices())
                .map(|v| (1 + g.in_degree(v) + g.out_degree(v), p.owner_of(v)))
                .fold(vec![0; k], |mut acc, (l, s)| {
                    acc[s] += l;
                    acc
                });
            let total: usize = load.iter().sum();
            for (s, &l) in load.iter().enumerate() {
                assert!(
                    l <= 2 * total / k + 64,
                    "shard {s} load {l} of total {total} over {k} shards"
                );
            }
        }
    }

    #[test]
    fn bfs_beats_random_locality_on_a_ring() {
        // On a ring, frontier growth yields contiguous arcs: exactly one
        // cut per shard boundary (2 per shard for the directed ring's
        // forward edges — each boundary cuts one edge).
        let g = Graph::from_edge_list(&generators::ring(64));
        let p = Partition::edge_cut_bfs(&g, 4);
        covers_everything(&p, 64);
        assert!(
            p.cut_edges(&g) <= 8,
            "BFS on a ring should cut only shard boundaries, got {}",
            p.cut_edges(&g)
        );
    }

    #[test]
    fn clamps_shard_count_to_vertex_count() {
        let g = Graph::from_edge_list(&EdgeList::from_pairs(3, &[(0, 1), (1, 2)]));
        let p = Partition::edge_cut_bfs(&g, 9);
        assert_eq!(p.num_shards(), 3);
        covers_everything(&p, 3);
        let p = Partition::edge_cut_bfs(&g, 0);
        assert_eq!(p.num_shards(), 1);
    }

    #[test]
    fn star_hub_lands_in_exactly_one_shard() {
        // Extreme hub: all spokes point at vertex 0. Every shard not
        // owning the hub sees only cut edges — the partition must still
        // cover and stay non-empty.
        let g = Graph::from_edge_list(&generators::star(32));
        for k in [2, 4] {
            let p = Partition::edge_cut_bfs(&g, k);
            covers_everything(&p, g.num_vertices());
            let hub_shard = p.owner_of(0);
            let cut = p.cut_edges(&g);
            let expected: u64 = (0..g.num_edges())
                .filter(|&e| p.owner_of(g.src(e)) != hub_shard)
                .count() as u64;
            assert_eq!(cut, expected);
        }
    }

    #[test]
    fn deterministic() {
        let g = Graph::from_edge_list(&generators::rmat(7, 4, 0.5, 0.2, 0.2, 9));
        assert_eq!(
            Partition::edge_cut_bfs(&g, 4),
            Partition::edge_cut_bfs(&g, 4)
        );
    }
}
