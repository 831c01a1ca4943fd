//! Vertex permutations: the output of every reordering strategy.

use gnnopt_graph::{EdgeList, Graph};
use gnnopt_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// A bijective relabeling of the vertices `0..n`.
///
/// Stored as `new_of_old`: `new_of_old[old] = new`. Apply it to an
/// [`EdgeList`] with [`Permutation::apply_to_edges`] and to per-vertex
/// row data with [`Permutation::permute_rows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<u32>,
}

/// Error building a permutation from user data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermutationError {
    /// An id appears twice (or an id is missing).
    NotBijective {
        /// The first duplicated/out-of-range id found.
        id: u32,
    },
    /// An id is `>= n`.
    OutOfRange {
        /// The offending id.
        id: u32,
        /// The permutation length.
        len: usize,
    },
}

impl fmt::Display for PermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermutationError::NotBijective { id } => {
                write!(
                    f,
                    "permutation is not bijective: id {id} repeated or missing"
                )
            }
            PermutationError::OutOfRange { id, len } => {
                write!(f, "permutation id {id} out of range for length {len}")
            }
        }
    }
}

impl Error for PermutationError {}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        Self {
            new_of_old: (0..n as u32).collect(),
        }
    }

    /// Builds from a `new_of_old` map (`v[old] = new`).
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError`] if the map is not a bijection on
    /// `0..v.len()`.
    pub fn from_new_of_old(v: Vec<u32>) -> Result<Self, PermutationError> {
        let n = v.len();
        let mut seen = vec![false; n];
        for &id in &v {
            if id as usize >= n {
                return Err(PermutationError::OutOfRange { id, len: n });
            }
            if seen[id as usize] {
                return Err(PermutationError::NotBijective { id });
            }
            seen[id as usize] = true;
        }
        Ok(Self { new_of_old: v })
    }

    /// Builds from a visiting order: `order[k]` is the old id placed at new
    /// position `k` (the form BFS-style strategies naturally produce).
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError`] if `order` is not a bijection.
    pub fn from_order(order: &[u32]) -> Result<Self, PermutationError> {
        let n = order.len();
        let mut new_of_old = vec![u32::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            if old as usize >= n {
                return Err(PermutationError::OutOfRange { id: old, len: n });
            }
            if new_of_old[old as usize] != u32::MAX {
                return Err(PermutationError::NotBijective { id: old });
            }
            new_of_old[old as usize] = new as u32;
        }
        Ok(Self { new_of_old })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The new id of `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old` is out of range.
    pub fn new_id(&self, old: u32) -> u32 {
        self.new_of_old[old as usize]
    }

    /// The underlying `new_of_old` slice.
    pub fn as_new_of_old(&self) -> &[u32] {
        &self.new_of_old
    }

    /// The inverse permutation (`old_of_new`).
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u32; self.new_of_old.len()];
        for (old, &new) in self.new_of_old.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        Self { new_of_old: inv }
    }

    /// Composition: applies `self` first, `then` second.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn compose(&self, then: &Self) -> Self {
        assert_eq!(
            self.len(),
            then.len(),
            "cannot compose permutations of different lengths"
        );
        Self {
            new_of_old: self
                .new_of_old
                .iter()
                .map(|&mid| then.new_of_old[mid as usize])
                .collect(),
        }
    }

    /// Relabels every edge endpoint, producing an isomorphic graph.
    ///
    /// # Panics
    ///
    /// Panics if the edge list has a different vertex count.
    pub fn apply_to_edges(&self, el: &EdgeList) -> EdgeList {
        assert_eq!(
            el.num_vertices(),
            self.len(),
            "permutation length must match the vertex count"
        );
        let pairs: Vec<(u32, u32)> = el
            .edges()
            .iter()
            .map(|&(s, d)| (self.new_id(s), self.new_id(d)))
            .collect();
        EdgeList::from_pairs(el.num_vertices(), &pairs)
    }

    /// Reorders per-vertex row data into the new vertex order: output row
    /// `new` holds the input row `old_of_new[new]`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` differs from the permutation length.
    pub fn permute_rows<T: Clone>(&self, rows: &[T]) -> Vec<T> {
        assert_eq!(rows.len(), self.len(), "row count must match");
        let mut out = rows.to_vec();
        for (old, &new) in self.new_of_old.iter().enumerate() {
            out[new as usize] = rows[old].clone();
        }
        out
    }

    /// Relabels a CSR [`Graph`] through this permutation, returning the
    /// isomorphic graph plus the induced canonical-edge-id map
    /// (`new_eid_of_old`). Delegates to [`Graph::permute_vertices`], which
    /// keeps per-destination in-neighbor *sequences* stable so `ByDst`
    /// reductions on the relabeled graph are bit-identical to the
    /// original. A `BySrc` sum adds in ascending edge id, which follows
    /// the new destination ids, so it agrees only to rounding.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a different vertex count.
    pub fn apply_to_graph(&self, g: &Graph) -> (Graph, Vec<u32>) {
        assert_eq!(
            g.num_vertices(),
            self.len(),
            "permutation length must match the vertex count"
        );
        g.permute_vertices(&self.new_of_old)
    }

    /// Moves per-vertex tensor rows into the new vertex order: output row
    /// `new_id(old)` holds input row `old`. The inverse of
    /// [`Permutation::unpermute_tensor_rows`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor's row count differs from the permutation
    /// length.
    pub fn permute_tensor_rows(&self, t: &Tensor) -> Tensor {
        assert_eq!(t.rows(), self.len(), "tensor row count must match");
        let cols = t.cols();
        // Single output-order pass (no zero prefill): output row `new`
        // holds input row `old_of_new[new]`. The O(rows) inverse-index
        // build is far cheaper than an O(rows·cols) memset.
        let mut old_of_new = vec![0u32; t.rows()];
        for (old, &new) in self.new_of_old.iter().enumerate() {
            old_of_new[new as usize] = old as u32;
        }
        let mut data = Vec::with_capacity(t.rows() * cols);
        for &old in &old_of_new {
            data.extend_from_slice(t.row(old as usize));
        }
        Tensor::new(&[t.rows(), cols], data).expect("row copies fill the shape exactly")
    }

    /// Restores permuted tensor rows to the original vertex order: output
    /// row `old` holds input row `new_id(old)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's row count differs from the permutation
    /// length.
    pub fn unpermute_tensor_rows(&self, t: &Tensor) -> Tensor {
        assert_eq!(t.rows(), self.len(), "tensor row count must match");
        let cols = t.cols();
        // Single output-order pass: output row `old` holds input row
        // `new_of_old[old]`, which is exactly iteration order here.
        let mut data = Vec::with_capacity(t.rows() * cols);
        for &new in &self.new_of_old {
            data.extend_from_slice(t.row(new as usize));
        }
        Tensor::new(&[t.rows(), cols], data).expect("row copies fill the shape exactly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let el = EdgeList::from_pairs(4, &[(0, 1), (2, 3)]);
        let p = Permutation::identity(4);
        assert_eq!(p.apply_to_edges(&el), el);
        assert_eq!(p.permute_rows(&[10, 20, 30, 40]), vec![10, 20, 30, 40]);
    }

    #[test]
    fn inverse_roundtrips() {
        let p = Permutation::from_new_of_old(vec![2, 0, 3, 1]).unwrap();
        let id = p.compose(&p.inverse());
        assert_eq!(id, Permutation::identity(4));
    }

    #[test]
    fn from_order_matches_new_of_old() {
        // Visit order [2, 0, 1]: old 2 becomes new 0, old 0 new 1, old 1 new 2.
        let p = Permutation::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(p.as_new_of_old(), &[1, 2, 0]);
    }

    #[test]
    fn rejects_duplicates_and_out_of_range() {
        assert!(matches!(
            Permutation::from_new_of_old(vec![0, 0, 1]),
            Err(PermutationError::NotBijective { id: 0 })
        ));
        assert!(matches!(
            Permutation::from_new_of_old(vec![0, 5]),
            Err(PermutationError::OutOfRange { id: 5, len: 2 })
        ));
        assert!(Permutation::from_order(&[1, 1, 0]).is_err());
    }

    #[test]
    fn relabeling_preserves_edge_count_and_degrees() {
        let el = EdgeList::from_pairs(5, &[(0, 1), (0, 2), (3, 2), (4, 0)]);
        let p = Permutation::from_new_of_old(vec![4, 3, 2, 1, 0]).unwrap();
        let out = p.apply_to_edges(&el);
        assert_eq!(out.num_edges(), el.num_edges());
        // Degree multiset is invariant under relabeling.
        let degrees = |e: &EdgeList| {
            let mut d = vec![0u32; e.num_vertices()];
            for &(_, dst) in e.edges() {
                d[dst as usize] += 1;
            }
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&el), degrees(&out));
    }

    #[test]
    fn permute_rows_moves_data_with_vertices() {
        let p = Permutation::from_new_of_old(vec![1, 2, 0]).unwrap();
        // Vertex 0 moves to slot 1, 1 → 2, 2 → 0.
        assert_eq!(p.permute_rows(&["a", "b", "c"]), vec!["c", "a", "b"]);
    }

    #[test]
    fn tensor_rows_roundtrip() {
        let p = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        let t = Tensor::new(&[3, 2], vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1]).unwrap();
        let moved = p.permute_tensor_rows(&t);
        // Vertex 0's row lands at slot 2.
        assert_eq!(moved.row(2), t.row(0));
        assert_eq!(moved.row(0), t.row(1));
        let back = p.unpermute_tensor_rows(&moved);
        assert_eq!(back.as_slice(), t.as_slice());
    }

    #[test]
    fn apply_to_graph_matches_apply_to_edges() {
        let el = EdgeList::from_pairs(5, &[(0, 1), (0, 2), (3, 2), (4, 0)]);
        let g = Graph::from_edge_list(&el);
        let p = Permutation::from_new_of_old(vec![4, 3, 2, 1, 0]).unwrap();
        let (pg, emap) = p.apply_to_graph(&g);
        // Same edge multiset as the canonical EdgeList relabeling.
        assert_eq!(pg.edge_list(), p.apply_to_edges(&el));
        // The edge map is a bijection tracking each relabeled endpoint.
        let mut seen = vec![false; emap.len()];
        for (old, &new) in emap.iter().enumerate() {
            assert!(!std::mem::replace(&mut seen[new as usize], true));
            assert_eq!(pg.src(new as usize) as u32, p.new_id(g.src(old) as u32));
            assert_eq!(pg.dst(new as usize) as u32, p.new_id(g.dst(old) as u32));
        }
    }

    #[test]
    fn display_messages_nonempty() {
        let e = PermutationError::NotBijective { id: 3 };
        assert!(!e.to_string().is_empty());
        let e = PermutationError::OutOfRange { id: 9, len: 4 };
        assert!(e.to_string().contains('9'));
    }
}
