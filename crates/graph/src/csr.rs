//! The CSR (compressed sparse row) storage backend.
//!
//! Per predicate, both adjacency directions live in two contiguous arrays:
//! `offsets[v] .. offsets[v + 1]` indexes into `targets`, targets are sorted
//! within every node's range, and the distinct `(subject, object)` pairs are
//! kept sorted for full scans. Lookups are two array reads plus a slice —
//! no hashing, no pointer chasing — and membership probes binary-search a
//! contiguous neighbor range, which is what lets the evaluator's galloping
//! intersections ([`crate::slices`]) pay off.

use crate::ids::{NodeId, PredId};
use crate::slices::contains_sorted;
use crate::store::{GraphStore, StoreKind};

/// Adjacency in one direction for a single predicate, as CSR over the graph's
/// dense node-identifier space.
#[derive(Debug, Clone, Default)]
struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes into `targets` for source node `v`.
    offsets: Vec<u32>,
    /// Neighbor lists, sorted within each source node's range.
    targets: Vec<NodeId>,
}

impl Csr {
    /// Builds one direction from `(source, target)` pairs that are already
    /// sorted by source (targets sorted within each source run) and deduped.
    fn from_sorted(num_nodes: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        let mut offsets = vec![0u32; num_nodes + 1];
        for &(src, _) in pairs {
            offsets[src.index() + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let targets = pairs.iter().map(|&(_, dst)| dst).collect();
        Csr { offsets, targets }
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// One predicate's edges in CSR form, indexed in both directions.
#[derive(Debug, Clone, Default)]
struct PredCsr {
    /// Distinct `(subject, object)` pairs, sorted by `(subject, object)`.
    pairs: Vec<(NodeId, NodeId)>,
    forward: Csr,
    backward: Csr,
    distinct_subjects: usize,
    distinct_objects: usize,
}

impl PredCsr {
    fn build(num_nodes: usize, mut pairs: Vec<(NodeId, NodeId)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let forward = Csr::from_sorted(num_nodes, &pairs);
        let mut reversed: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
        reversed.sort_unstable();
        let backward = Csr::from_sorted(num_nodes, &reversed);
        let distinct_subjects = count_runs(pairs.iter().map(|&(s, _)| s));
        let distinct_objects = count_runs(reversed.iter().map(|&(o, _)| o));
        PredCsr {
            pairs,
            forward,
            backward,
            distinct_subjects,
            distinct_objects,
        }
    }
}

fn count_runs<I: Iterator<Item = NodeId>>(sorted: I) -> usize {
    let mut count = 0;
    let mut prev: Option<NodeId> = None;
    for v in sorted {
        if prev != Some(v) {
            count += 1;
            prev = Some(v);
        }
    }
    count
}

/// The CSR storage backend: every predicate's forward and reverse adjacency
/// in sorted, contiguous arrays, built once and immutable afterwards.
#[derive(Debug, Clone, Default)]
pub struct CsrStore {
    predicates: Vec<PredCsr>,
    num_triples: usize,
}

impl CsrStore {
    /// Builds the store from per-predicate raw (possibly duplicated) edge
    /// lists. `num_nodes` is the size of the dense node-identifier space.
    pub fn build(num_nodes: usize, edges_by_predicate: Vec<Vec<(NodeId, NodeId)>>) -> Self {
        let predicates: Vec<PredCsr> = edges_by_predicate
            .into_iter()
            .map(|pairs| PredCsr::build(num_nodes, pairs))
            .collect();
        let num_triples = predicates.iter().map(|p| p.pairs.len()).sum();
        CsrStore {
            predicates,
            num_triples,
        }
    }

    #[inline]
    fn pred(&self, p: PredId) -> &PredCsr {
        &self.predicates[p.index()]
    }

    /// The sorted pair array of predicate `p`, borrowed.
    #[inline]
    pub(crate) fn pair_slice(&self, p: PredId) -> &[(NodeId, NodeId)] {
        &self.pred(p).pairs
    }
}

impl GraphStore for CsrStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Csr
    }

    fn num_predicates(&self) -> usize {
        self.predicates.len()
    }

    fn triple_count(&self) -> usize {
        self.num_triples
    }

    #[inline]
    fn cardinality(&self, p: PredId) -> usize {
        self.pred(p).pairs.len()
    }

    #[inline]
    fn pairs(&self, p: PredId) -> std::borrow::Cow<'_, [(NodeId, NodeId)]> {
        std::borrow::Cow::Borrowed(self.pair_slice(p))
    }

    #[inline]
    fn objects_of(&self, p: PredId, s: NodeId) -> &[NodeId] {
        self.pred(p).forward.neighbors(s)
    }

    #[inline]
    fn subjects_of(&self, p: PredId, o: NodeId) -> &[NodeId] {
        self.pred(p).backward.neighbors(o)
    }

    #[inline]
    fn has_triple(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        contains_sorted(self.pred(p).forward.neighbors(s), o)
    }

    fn distinct_subjects(&self, p: PredId) -> usize {
        self.pred(p).distinct_subjects
    }

    fn distinct_objects(&self, p: PredId) -> usize {
        self.pred(p).distinct_objects
    }

    fn max_out_degree(&self, p: PredId) -> usize {
        self.pred(p).forward.max_degree()
    }

    fn max_in_degree(&self, p: PredId) -> usize {
        self.pred(p).backward.max_degree()
    }

    fn heap_bytes(&self) -> usize {
        self.predicates
            .iter()
            .map(|pred| {
                pred.pairs.capacity() * std::mem::size_of::<(NodeId, NodeId)>()
                    + pred.forward.heap_bytes()
                    + pred.backward.heap_bytes()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn sample() -> CsrStore {
        // Predicate 0: 0->1, 0->2, 1->2, 3->2, plus a duplicate of 0->1.
        // Predicate 1: empty.
        CsrStore::build(
            5,
            vec![
                vec![
                    (n(0), n(1)),
                    (n(0), n(2)),
                    (n(1), n(2)),
                    (n(3), n(2)),
                    (n(0), n(1)),
                ],
                vec![],
            ],
        )
    }

    #[test]
    fn duplicates_are_removed() {
        let s = sample();
        assert_eq!(s.cardinality(PredId(0)), 4);
        assert_eq!(s.triple_count(), 4);
        assert_eq!(s.num_predicates(), 2);
    }

    #[test]
    fn forward_and_backward_adjacency_sorted() {
        let s = sample();
        let p = PredId(0);
        assert_eq!(s.objects_of(p, n(0)), &[n(1), n(2)]);
        assert_eq!(s.objects_of(p, n(2)), &[] as &[NodeId]);
        assert_eq!(s.subjects_of(p, n(2)), &[n(0), n(1), n(3)]);
    }

    #[test]
    fn membership_and_counts() {
        let s = sample();
        let p = PredId(0);
        assert!(s.has_triple(n(0), p, n(1)));
        assert!(!s.has_triple(n(1), p, n(0)));
        assert_eq!(s.distinct_subjects(p), 3);
        assert_eq!(s.distinct_objects(p), 2);
        assert_eq!(s.max_out_degree(p), 2);
        assert_eq!(s.max_in_degree(p), 3);
    }

    #[test]
    fn empty_predicate_and_out_of_range_nodes() {
        let s = sample();
        let q = PredId(1);
        assert_eq!(s.cardinality(q), 0);
        assert!(s.pairs(q).is_empty());
        assert_eq!(s.max_out_degree(q), 0);
        assert_eq!(s.objects_of(PredId(0), n(100)), &[] as &[NodeId]);
        assert_eq!(s.subjects_of(PredId(0), n(100)), &[] as &[NodeId]);
    }

    #[test]
    fn heap_bytes_grow_with_edges() {
        let empty = CsrStore::build(0, vec![]);
        let s = sample();
        assert!(s.heap_bytes() > empty.heap_bytes());
        assert_eq!(s.kind(), StoreKind::Csr);
    }
}
