use crate::{EdgeList, GraphStats};

/// One direction of adjacency in CSR layout with per-entry edge ids.
///
/// `indptr` has `n + 1` entries; the neighbours of vertex `v` are
/// `nbr[indptr[v]..indptr[v+1]]` and the corresponding canonical edge ids
/// are `eid[...]` over the same range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    indptr: Vec<usize>,
    nbr: Vec<u32>,
    eid: Vec<u32>,
}

impl Adjacency {
    /// Neighbour ids of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.nbr[self.indptr[v]..self.indptr[v + 1]]
    }

    /// Canonical edge ids incident to `v` in this direction.
    pub fn edge_ids(&self, v: usize) -> &[u32] {
        &self.eid[self.indptr[v]..self.indptr[v + 1]]
    }

    /// Degree of `v` in this direction.
    pub fn degree(&self, v: usize) -> usize {
        self.indptr[v + 1] - self.indptr[v]
    }

    /// The `indptr` offsets array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }
}

/// A directed graph in dual-CSR form (by destination and by source), with a
/// canonical destination-major edge numbering shared by both directions.
///
/// This is the structure every graph-related kernel in `gnnopt-exec`
/// iterates; its `O(|V| + |E|)` index arrays are also what the IO cost
/// model charges for reading graph topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    num_edges: usize,
    /// Indexed by destination; neighbours are sources. Edge ids here are
    /// contiguous (`eid[i] == i`) by the canonical ordering.
    in_adj: Adjacency,
    /// Indexed by source; neighbours are destinations.
    out_adj: Adjacency,
    /// `src[e]`, `dst[e]` for canonical edge id `e`.
    src: Vec<u32>,
    dst: Vec<u32>,
}

impl Graph {
    /// Builds the dual-CSR representation from a canonical edge list.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let n = el.num_vertices();
        let m = el.num_edges();
        let mut src = Vec::with_capacity(m);
        let mut dst = Vec::with_capacity(m);
        for &(s, d) in el.edges() {
            src.push(s);
            dst.push(d);
        }

        // In-adjacency: the canonical order is already destination-major.
        let mut in_indptr = vec![0usize; n + 1];
        for &d in &dst {
            in_indptr[d as usize + 1] += 1;
        }
        for v in 0..n {
            in_indptr[v + 1] += in_indptr[v];
        }
        let in_adj = Adjacency {
            indptr: in_indptr,
            nbr: src.clone(),
            eid: (0..m as u32).collect(),
        };

        // Out-adjacency: counting sort by source.
        let mut out_indptr = vec![0usize; n + 1];
        for &s in &src {
            out_indptr[s as usize + 1] += 1;
        }
        for v in 0..n {
            out_indptr[v + 1] += out_indptr[v];
        }
        let mut cursor = out_indptr.clone();
        let mut out_nbr = vec![0u32; m];
        let mut out_eid = vec![0u32; m];
        for e in 0..m {
            let s = src[e] as usize;
            out_nbr[cursor[s]] = dst[e];
            out_eid[cursor[s]] = e as u32;
            cursor[s] += 1;
        }
        let out_adj = Adjacency {
            indptr: out_indptr,
            nbr: out_nbr,
            eid: out_eid,
        };

        Self {
            num_vertices: n,
            num_edges: m,
            in_adj,
            out_adj,
            src,
            dst,
        }
    }

    /// Reassembles a graph from raw dual-CSR parts **without checking
    /// any invariant** — the deserialization seam for transports that
    /// ship CSR arrays across processes, and the only
    /// way tests can build deliberately corrupt graphs for
    /// [`Graph::validate`]. Every consumer of an untrusted graph must
    /// call [`Graph::validate`] before executing on it; the session
    /// builders in `gnnopt-exec` do so unconditionally.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts_unchecked(
        num_vertices: usize,
        in_indptr: Vec<usize>,
        in_nbr: Vec<u32>,
        in_eid: Vec<u32>,
        out_indptr: Vec<usize>,
        out_nbr: Vec<u32>,
        out_eid: Vec<u32>,
        src: Vec<u32>,
        dst: Vec<u32>,
    ) -> Self {
        Self {
            num_vertices,
            num_edges: src.len(),
            in_adj: Adjacency {
                indptr: in_indptr,
                nbr: in_nbr,
                eid: in_eid,
            },
            out_adj: Adjacency {
                indptr: out_indptr,
                nbr: out_nbr,
                eid: out_eid,
            },
            src,
            dst,
        }
    }

    /// Checks every structural invariant the kernels index by, naming
    /// the first violated one: CSR `indptr` shape/monotonicity/total in
    /// both directions, in-bounds neighbor and edge endpoints,
    /// dual-CSR/edge-array agreement, and the canonical dst-major edge
    /// numbering (`in_adj.eid[i] == i`, destinations non-decreasing).
    ///
    /// Graphs built by [`Graph::from_edge_list`] or
    /// [`Graph::permute_vertices`] satisfy this by construction; the
    /// check exists so graphs arriving through
    /// [`Graph::from_raw_parts_unchecked`] (a future wire transport, a
    /// spilled file) fail **at session build** with a named invariant
    /// instead of UB-adjacent indexing deep inside a kernel. Cost is
    /// one `O(|V| + |E|)` pass per direction.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices;
        let m = self.num_edges;
        if self.src.len() != m || self.dst.len() != m {
            return Err(format!(
                "edge arrays disagree with num_edges: |src|={}, |dst|={}, m={m}",
                self.src.len(),
                self.dst.len()
            ));
        }
        if m > u32::MAX as usize || n > u32::MAX as usize {
            return Err(format!("graph exceeds u32 id space: n={n}, m={m}"));
        }
        for (name, adj) in [("in_adj", &self.in_adj), ("out_adj", &self.out_adj)] {
            if adj.indptr.len() != n + 1 {
                return Err(format!(
                    "{name}.indptr has {} entries, expected n+1={}",
                    adj.indptr.len(),
                    n + 1
                ));
            }
            if adj.indptr[0] != 0 {
                return Err(format!("{name}.indptr[0] = {}, expected 0", adj.indptr[0]));
            }
            if let Some(v) = (0..n).find(|&v| adj.indptr[v] > adj.indptr[v + 1]) {
                return Err(format!(
                    "{name}.indptr decreases at vertex {v}: {} > {}",
                    adj.indptr[v],
                    adj.indptr[v + 1]
                ));
            }
            if adj.indptr[n] != m {
                return Err(format!(
                    "{name}.indptr[n] = {}, expected num_edges = {m}",
                    adj.indptr[n]
                ));
            }
            if adj.nbr.len() != m || adj.eid.len() != m {
                return Err(format!(
                    "{name} arrays disagree with num_edges: |nbr|={}, |eid|={}, m={m}",
                    adj.nbr.len(),
                    adj.eid.len()
                ));
            }
            if let Some(i) = adj.nbr.iter().position(|&u| u as usize >= n) {
                return Err(format!(
                    "{name}.nbr[{i}] = {} is out of bounds (n={n})",
                    adj.nbr[i]
                ));
            }
            if let Some(i) = adj.eid.iter().position(|&e| e as usize >= m) {
                return Err(format!(
                    "{name}.eid[{i}] = {} is out of bounds (m={m})",
                    adj.eid[i]
                ));
            }
        }
        if let Some(i) = self.src.iter().position(|&u| u as usize >= n) {
            return Err(format!(
                "src[{i}] = {} is out of bounds (n={n})",
                self.src[i]
            ));
        }
        if let Some(i) = self.dst.iter().position(|&u| u as usize >= n) {
            return Err(format!(
                "dst[{i}] = {} is out of bounds (n={n})",
                self.dst[i]
            ));
        }
        // Canonical numbering: in_adj walks edge ids contiguously and
        // destinations are grouped dst-major.
        if let Some(i) = (0..m).find(|&i| self.in_adj.eid[i] as usize != i) {
            return Err(format!(
                "in_adj.eid[{i}] = {} breaks the canonical dst-major numbering (expected {i})",
                self.in_adj.eid[i]
            ));
        }
        if let Some(e) = (1..m).find(|&e| self.dst[e] < self.dst[e - 1]) {
            return Err(format!(
                "dst is not non-decreasing at edge {e}: {} after {}",
                self.dst[e],
                self.dst[e - 1]
            ));
        }
        for v in 0..n {
            let (lo, hi) = (self.in_adj.indptr[v], self.in_adj.indptr[v + 1]);
            for i in lo..hi {
                if self.dst[i] as usize != v {
                    return Err(format!(
                        "in_adj row {v} claims edge {i}, but dst[{i}] = {}",
                        self.dst[i]
                    ));
                }
                if self.in_adj.nbr[i] != self.src[i] {
                    return Err(format!(
                        "in_adj.nbr[{i}] = {} disagrees with src[{i}] = {}",
                        self.in_adj.nbr[i], self.src[i]
                    ));
                }
            }
            let (lo, hi) = (self.out_adj.indptr[v], self.out_adj.indptr[v + 1]);
            for i in lo..hi {
                let e = self.out_adj.eid[i] as usize;
                if self.src[e] as usize != v {
                    return Err(format!(
                        "out_adj row {v} lists edge {e}, but src[{e}] = {}",
                        self.src[e]
                    ));
                }
                if self.out_adj.nbr[i] != self.dst[e] {
                    return Err(format!(
                        "out_adj.nbr[{i}] = {} disagrees with dst[{e}] = {}",
                        self.out_adj.nbr[i], self.dst[e]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Source vertex of canonical edge `e`.
    pub fn src(&self, e: usize) -> usize {
        self.src[e] as usize
    }

    /// Destination vertex of canonical edge `e`.
    pub fn dst(&self, e: usize) -> usize {
        self.dst[e] as usize
    }

    /// All edge sources, indexed by canonical edge id.
    pub fn src_slice(&self) -> &[u32] {
        &self.src
    }

    /// All edge destinations, indexed by canonical edge id.
    pub fn dst_slice(&self) -> &[u32] {
        &self.dst
    }

    /// In-adjacency (neighbours are sources; iteration grouped by dst).
    pub fn in_adj(&self) -> &Adjacency {
        &self.in_adj
    }

    /// Out-adjacency (neighbours are destinations; iteration grouped by src).
    pub fn out_adj(&self) -> &Adjacency {
        &self.out_adj
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_adj.degree(v)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.out_adj.degree(v)
    }

    /// Degree statistics consumed by the GPU execution model.
    pub fn stats(&self) -> GraphStats {
        GraphStats::from_in_degrees(
            (0..self.num_vertices)
                .map(|v| self.in_degree(v) as u32)
                .collect(),
        )
    }

    /// Reconstructs the canonical [`EdgeList`] of this graph (sorted
    /// `(dst, src)` ascending). This is the interchange form the
    /// reordering strategies and locality metrics consume; note it
    /// re-canonicalizes, so a graph built by [`Graph::permute_vertices`]
    /// round-trips to the same vertex labeling but not necessarily the
    /// same within-group edge order.
    pub fn edge_list(&self) -> EdgeList {
        let pairs: Vec<(u32, u32)> = self
            .src
            .iter()
            .copied()
            .zip(self.dst.iter().copied())
            .collect();
        EdgeList::from_pairs(self.num_vertices, &pairs)
    }

    /// Relabels every vertex through the bijection `new_of_old`
    /// (`new_of_old[old] = new`), returning the isomorphic graph plus the
    /// induced canonical-edge-id map `new_eid_of_old` (`map[old_e]` is the
    /// relabeled graph's id of edge `old_e`).
    ///
    /// The permutation is **stable**: the new graph's edges are grouped by
    /// new destination, and inside each destination group they keep the
    /// source graph's edge order (not re-sorted by new source id). Since a
    /// destination group maps wholly onto one new destination group, every
    /// per-vertex in-neighbor *sequence* is preserved under relabeling —
    /// which is what makes `ByDst` reductions on the permuted graph
    /// bit-identical to the original, not merely equal up to
    /// floating-point reassociation.
    ///
    /// # Panics
    ///
    /// Panics if `new_of_old` is not a bijection on `0..num_vertices`.
    pub fn permute_vertices(&self, new_of_old: &[u32]) -> (Graph, Vec<u32>) {
        let n = self.num_vertices;
        let m = self.num_edges;
        assert_eq!(new_of_old.len(), n, "permutation length must match |V|");
        let mut seen = vec![false; n];
        for &id in new_of_old {
            assert!((id as usize) < n, "permutation id {id} out of range");
            assert!(!seen[id as usize], "permutation repeats id {id}");
            seen[id as usize] = true;
        }

        // Counting sort of edges by new destination, preserving the old
        // edge order inside each destination bucket (stability).
        let mut in_indptr = vec![0usize; n + 1];
        for &d in &self.dst {
            in_indptr[new_of_old[d as usize] as usize + 1] += 1;
        }
        for v in 0..n {
            in_indptr[v + 1] += in_indptr[v];
        }
        let mut cursor = in_indptr.clone();
        let mut src = vec![0u32; m];
        let mut dst = vec![0u32; m];
        let mut new_eid_of_old = vec![0u32; m];
        for e in 0..m {
            let nd = new_of_old[self.dst[e] as usize];
            let pos = cursor[nd as usize];
            cursor[nd as usize] += 1;
            src[pos] = new_of_old[self.src[e] as usize];
            dst[pos] = nd;
            new_eid_of_old[e] = pos as u32;
        }
        let in_adj = Adjacency {
            indptr: in_indptr,
            nbr: src.clone(),
            eid: (0..m as u32).collect(),
        };

        // Out-adjacency: counting sort by new source over the new order.
        let mut out_indptr = vec![0usize; n + 1];
        for &s in &src {
            out_indptr[s as usize + 1] += 1;
        }
        for v in 0..n {
            out_indptr[v + 1] += out_indptr[v];
        }
        let mut cursor = out_indptr.clone();
        let mut out_nbr = vec![0u32; m];
        let mut out_eid = vec![0u32; m];
        for e in 0..m {
            let s = src[e] as usize;
            out_nbr[cursor[s]] = dst[e];
            out_eid[cursor[s]] = e as u32;
            cursor[s] += 1;
        }
        let out_adj = Adjacency {
            indptr: out_indptr,
            nbr: out_nbr,
            eid: out_eid,
        };

        (
            Graph {
                num_vertices: n,
                num_edges: m,
                in_adj,
                out_adj,
                src,
                dst,
            },
            new_eid_of_old,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        Graph::from_edge_list(&EdgeList::from_pairs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]))
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn canonical_edge_ids_are_dst_major() {
        let g = diamond();
        // dst-major order: (0,1), (0,2), (1,3), (2,3)
        assert_eq!(g.src(0), 0);
        assert_eq!(g.dst(0), 1);
        assert_eq!(g.dst(3), 3);
        assert_eq!(g.src(3), 2);
    }

    #[test]
    fn in_adj_edge_ids_contiguous() {
        let g = diamond();
        assert_eq!(g.in_adj().edge_ids(3), &[2, 3]);
        assert_eq!(g.in_adj().neighbors(3), &[1, 2]);
    }

    #[test]
    fn out_adj_consistent_with_edges() {
        let g = diamond();
        for v in 0..g.num_vertices() {
            for (&d, &e) in g.out_adj().neighbors(v).iter().zip(g.out_adj().edge_ids(v)) {
                assert_eq!(g.src(e as usize), v);
                assert_eq!(g.dst(e as usize), d as usize);
            }
        }
    }

    #[test]
    fn degree_sums_equal_edge_count() {
        let g = diamond();
        let in_sum: usize = (0..4).map(|v| g.in_degree(v)).sum();
        let out_sum: usize = (0..4).map(|v| g.out_degree(v)).sum();
        assert_eq!(in_sum, g.num_edges());
        assert_eq!(out_sum, g.num_edges());
    }

    #[test]
    fn edge_list_roundtrips_through_from_edge_list() {
        let el = EdgeList::from_pairs(5, &[(0, 1), (3, 1), (4, 2), (1, 4)]);
        let g = Graph::from_edge_list(&el);
        assert_eq!(g.edge_list(), el);
    }

    #[test]
    fn permute_vertices_identity_is_noop() {
        let g = diamond();
        let (p, emap) = g.permute_vertices(&[0, 1, 2, 3]);
        assert_eq!(p, g);
        assert_eq!(emap, vec![0, 1, 2, 3]);
    }

    #[test]
    fn permute_vertices_relabels_consistently() {
        let g = diamond();
        // Reverse labeling: 0↔3, 1↔2.
        let (p, emap) = g.permute_vertices(&[3, 2, 1, 0]);
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.num_edges(), 4);
        for (e, &ne) in emap.iter().enumerate() {
            let ne = ne as usize;
            assert_eq!(p.src(ne), 3 - g.src(e));
            assert_eq!(p.dst(ne), 3 - g.dst(e));
        }
        // Degrees move with the labels.
        assert_eq!(p.in_degree(0), g.in_degree(3));
        assert_eq!(p.out_degree(3), g.out_degree(0));
    }

    /// The stability contract: every new destination group lists its
    /// (relabeled) sources in the *same order* the old group listed them.
    #[test]
    fn permute_vertices_preserves_in_neighbor_sequences() {
        let el = EdgeList::from_pairs(6, &[(0, 3), (5, 3), (2, 3), (1, 3), (4, 0), (3, 5)]);
        let g = Graph::from_edge_list(&el);
        let perm = [4u32, 2, 5, 1, 0, 3];
        let (p, _) = g.permute_vertices(&perm);
        for v in 0..g.num_vertices() {
            let relabeled: Vec<u32> = g
                .in_adj()
                .neighbors(v)
                .iter()
                .map(|&u| perm[u as usize])
                .collect();
            assert_eq!(
                p.in_adj().neighbors(perm[v] as usize),
                relabeled.as_slice(),
                "in-neighbor sequence of vertex {v} must be preserved"
            );
        }
    }

    #[test]
    #[should_panic(expected = "repeats id")]
    fn permute_vertices_rejects_non_bijection() {
        let _ = diamond().permute_vertices(&[0, 0, 1, 2]);
    }

    #[test]
    fn validate_accepts_constructed_graphs() {
        assert_eq!(diamond().validate(), Ok(()));
        let (p, _) = diamond().permute_vertices(&[3, 2, 1, 0]);
        assert_eq!(p.validate(), Ok(()));
        let empty = Graph::from_edge_list(&EdgeList::from_pairs(3, &[]));
        assert_eq!(empty.validate(), Ok(()));
    }

    #[test]
    fn validate_names_each_broken_invariant() {
        let g = diamond();
        let corrupt = |f: &dyn Fn(&mut Graph)| {
            let mut c = g.clone();
            f(&mut c);
            c.validate().expect_err("corruption must be detected")
        };

        let e = corrupt(&|c| c.in_adj.indptr[2] = 4);
        assert!(e.contains("indptr decreases"), "{e}");
        let e = corrupt(&|c| c.in_adj.indptr[4] = 3);
        assert!(e.contains("expected num_edges"), "{e}");
        let e = corrupt(&|c| c.out_adj.nbr[0] = 9);
        assert!(e.contains("out of bounds"), "{e}");
        let e = corrupt(&|c| c.in_adj.eid[1] = 0);
        assert!(e.contains("canonical dst-major numbering"), "{e}");
        let e = corrupt(&|c| c.dst.swap(0, 3));
        assert!(e.contains("non-decreasing"), "{e}");
        let e = corrupt(&|c| c.src[1] = 3);
        assert!(e.contains("src[1]"), "{e}");
        let e = corrupt(&|c| {
            c.src.pop();
            c.dst.pop();
        });
        assert!(e.contains("disagree with num_edges"), "{e}");
    }

    #[test]
    fn raw_parts_roundtrip_validates() {
        let g = diamond();
        let rebuilt = Graph::from_raw_parts_unchecked(
            g.num_vertices,
            g.in_adj.indptr.clone(),
            g.in_adj.nbr.clone(),
            g.in_adj.eid.clone(),
            g.out_adj.indptr.clone(),
            g.out_adj.nbr.clone(),
            g.out_adj.eid.clone(),
            g.src.clone(),
            g.dst.clone(),
        );
        assert_eq!(rebuilt, g);
        assert_eq!(rebuilt.validate(), Ok(()));
        // An unchecked constructor happily holds garbage; validate is
        // the gate.
        let bad = Graph::from_raw_parts_unchecked(
            2,
            vec![0, 1],
            vec![5],
            vec![0],
            vec![0, 1, 1],
            vec![1],
            vec![0],
            vec![0],
            vec![1],
        );
        let e = bad.validate().expect_err("bad graph must fail");
        assert!(e.contains("in_adj.indptr has 2 entries"), "{e}");
    }
}
