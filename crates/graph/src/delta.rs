//! The delta storage backend: a mutable overlay over an immutable CSR base.
//!
//! The differential-dataflow family of systems layers updates as sorted
//! delta collections over immutable arranged batches, merging on read and
//! compacting periodically. [`DeltaStore`] brings that shape to the
//! [`GraphStore`](crate::store::GraphStore) contract:
//!
//! * the **base** is an immutable [`CsrStore`] behind an `Arc`, shared (not
//!   copied) across every version produced by a mutation;
//! * per predicate, a sorted **insert side-table** (`adds`) and a sorted
//!   **tombstone table** (`dels`) record the live difference from the base —
//!   both bounded by the compaction threshold, so cloning a version costs
//!   `O(delta)`, never `O(base)`;
//! * full scans ([`pairs`](GraphStore::pairs)) are **merge-on-read**: a
//!   linear three-way merge of the sorted base pair array with the sorted
//!   side-tables (the same merge discipline as [`crate::slices`]);
//! * per-node neighbor slices stay zero-copy: a mutation merges the touched
//!   nodes' base adjacency with the side-tables **once, at write time**, and
//!   stores the merged sorted list as an override — reads then return either
//!   the override slice or the base slice, so every slice stays sorted as
//!   the store contract requires.
//!
//! Statistics (`distinct_*`, `max_*_degree`) are recomputed exactly for the
//! predicates a mutation touches (an `O(|predicate|)` scan of the merged
//! pairs), so a delta graph's catalog — and therefore its query plans and
//! answer-graph sizes — is identical to a fresh CSR build of the same triple
//! set, which the store-equivalence churn tests assert.
//!
//! When the overlay grows past the configured fraction of the base
//! ([`Graph::apply`](crate::store::Graph::apply) checks after every batch),
//! the store **compacts**: merges everything into a fresh CSR base and
//! starts over with empty side-tables.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::csr::CsrStore;
use crate::ids::{NodeId, PredId, Triple};
use crate::store::{GraphStore, StoreKind};

/// Exact per-predicate statistics of the merged (base + delta) view.
#[derive(Debug, Clone, Copy, Default)]
struct PredStats {
    cardinality: usize,
    distinct_subjects: usize,
    distinct_objects: usize,
    max_out_degree: usize,
    max_in_degree: usize,
}

fn compute_stats(pairs: &[(NodeId, NodeId)]) -> PredStats {
    let mut stats = PredStats {
        cardinality: pairs.len(),
        ..PredStats::default()
    };
    let mut run = 0usize;
    let mut prev: Option<NodeId> = None;
    for &(s, _) in pairs {
        if prev == Some(s) {
            run += 1;
        } else {
            stats.distinct_subjects += 1;
            run = 1;
            prev = Some(s);
        }
        stats.max_out_degree = stats.max_out_degree.max(run);
    }
    let mut objects: Vec<NodeId> = pairs.iter().map(|&(_, o)| o).collect();
    objects.sort_unstable();
    run = 0;
    prev = None;
    for o in objects {
        if prev == Some(o) {
            run += 1;
        } else {
            stats.distinct_objects += 1;
            run = 1;
            prev = Some(o);
        }
        stats.max_in_degree = stats.max_in_degree.max(run);
    }
    stats
}

/// Linear three-way merge: `base ∪ adds`, minus tombstones. All three
/// inputs are ascending-sorted and mutually consistent (`adds` disjoint from
/// `base`, `dels` ⊆ `base`). Serves both the pair-scan merge (elements are
/// `(subject, object)` pairs) and the per-node neighbor merge (elements are
/// node identifiers).
fn merge_sorted<T: Copy + Ord>(base: &[T], adds: &[T], dels: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(base.len() + adds.len() - dels.len());
    let mut a = adds.iter().peekable();
    let mut d = dels.iter().peekable();
    for &item in base {
        while let Some(&&add) = a.peek() {
            if add < item {
                out.push(add);
                a.next();
            } else {
                break;
            }
        }
        if d.peek() == Some(&&item) {
            d.next();
            continue;
        }
        out.push(item);
    }
    out.extend(a.copied());
    out
}

/// One predicate's overlay: sorted side-tables plus merged per-node
/// adjacency overrides for every node the overlay touches.
#[derive(Debug, Clone, Default)]
struct PredDelta {
    /// Inserted pairs absent from the base, sorted by `(subject, object)`.
    adds: Vec<(NodeId, NodeId)>,
    /// Tombstoned base pairs, sorted by `(subject, object)`.
    dels: Vec<(NodeId, NodeId)>,
    /// Merged sorted object lists for subjects touched by the overlay.
    fwd: HashMap<NodeId, Vec<NodeId>>,
    /// Merged sorted subject lists for objects touched by the overlay.
    bwd: HashMap<NodeId, Vec<NodeId>>,
    /// Exact merged-view statistics; `None` while the overlay is empty (the
    /// base's own statistics are exact then).
    stats: Option<PredStats>,
}

impl PredDelta {
    fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.dels.is_empty()
    }

    fn delta_len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    fn heap_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(NodeId, NodeId)>();
        let node = std::mem::size_of::<NodeId>();
        self.adds.capacity() * pair
            + self.dels.capacity() * pair
            + self
                .fwd
                .values()
                .chain(self.bwd.values())
                .map(|v| v.capacity() * node + std::mem::size_of::<(NodeId, Vec<NodeId>)>())
                .sum::<usize>()
    }
}

/// The delta storage backend (`StoreKind::Delta`): an immutable shared
/// [`CsrStore`] base plus bounded per-predicate insert/tombstone overlays.
/// See the module-level documentation for the layout and cost model.
#[derive(Debug, Clone)]
pub struct DeltaStore {
    base: Arc<CsrStore>,
    preds: Vec<PredDelta>,
    num_triples: usize,
    delta_edges: usize,
}

impl DeltaStore {
    /// Wraps a freshly built CSR base with an empty overlay.
    pub fn fresh(base: CsrStore) -> Self {
        let preds = (0..base.num_predicates())
            .map(|_| PredDelta::default())
            .collect();
        let num_triples = base.triple_count();
        DeltaStore {
            base: Arc::new(base),
            preds,
            num_triples,
            delta_edges: 0,
        }
    }

    /// Builds a delta store from raw per-predicate edge lists (a CSR base
    /// with an empty overlay) — the [`StoreKind::Delta`] build path.
    pub fn build(num_nodes: usize, edges_by_predicate: Vec<Vec<(NodeId, NodeId)>>) -> Self {
        DeltaStore::fresh(CsrStore::build(num_nodes, edges_by_predicate))
    }

    /// Overlay size: pending inserts plus tombstones, across all predicates.
    pub fn delta_len(&self) -> usize {
        self.delta_edges
    }

    /// Overlay size as a fraction of the base triple count — the quantity
    /// [`Graph::apply`](crate::store::Graph::apply) compares against the
    /// compaction threshold.
    pub fn delta_fraction(&self) -> f64 {
        self.delta_edges as f64 / self.base.triple_count().max(1) as f64
    }

    /// Number of triples in the immutable base (excludes the overlay).
    pub fn base_triples(&self) -> usize {
        self.base.triple_count()
    }

    #[inline]
    fn pred(&self, p: PredId) -> &PredDelta {
        &self.preds[p.index()]
    }

    /// Base accessors guarded for predicates interned after the base was
    /// built (the base store has no entry for them).
    #[inline]
    fn base_objects(&self, p: PredId, s: NodeId) -> &[NodeId] {
        if p.index() < self.base.num_predicates() {
            self.base.objects_of(p, s)
        } else {
            &[]
        }
    }

    #[inline]
    fn base_subjects(&self, p: PredId, o: NodeId) -> &[NodeId] {
        if p.index() < self.base.num_predicates() {
            self.base.subjects_of(p, o)
        } else {
            &[]
        }
    }

    #[inline]
    fn base_pairs(&self, p: PredId) -> &[(NodeId, NodeId)] {
        if p.index() < self.base.num_predicates() {
            self.base.pair_slice(p)
        } else {
            &[]
        }
    }

    /// The merged pair list of one predicate (always owned; use
    /// [`GraphStore::pairs`] for the zero-copy fast path).
    fn merged_pairs(&self, p: PredId) -> Vec<(NodeId, NodeId)> {
        let pred = self.pred(p);
        merge_sorted(self.base_pairs(p), &pred.adds, &pred.dels)
    }

    /// Applies an already-resolved net mutation: `inserts` are currently
    /// absent, `removes` currently present (the caller —
    /// [`Graph::apply`](crate::store::Graph::apply) — resolves ordered ops
    /// and set semantics). `num_predicates` is the post-mutation predicate
    /// vocabulary size. Returns the new version; `self` is untouched (older
    /// versions keep serving).
    pub fn with_mutation(
        &self,
        num_predicates: usize,
        inserts: &[Triple],
        removes: &[Triple],
    ) -> DeltaStore {
        let mut preds = self.preds.clone();
        if preds.len() < num_predicates {
            preds.resize(num_predicates, PredDelta::default());
        }

        // Group the batch by predicate: (insert pairs, remove pairs).
        type PredBatch = (Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);
        let mut touched: HashMap<PredId, PredBatch> = HashMap::new();
        for t in inserts {
            touched
                .entry(t.predicate)
                .or_default()
                .0
                .push((t.subject, t.object));
        }
        for t in removes {
            touched
                .entry(t.predicate)
                .or_default()
                .1
                .push((t.subject, t.object));
        }

        for (&p, (ins, outs)) in &touched {
            let pred = &mut preds[p.index()];
            // Re-express the batch relative to the immutable base: an insert
            // of a tombstoned base pair revives it; a removal of a pending
            // add cancels it.
            let mut adds: BTreeSet<(NodeId, NodeId)> = pred.adds.iter().copied().collect();
            let mut dels: BTreeSet<(NodeId, NodeId)> = pred.dels.iter().copied().collect();
            for &(s, o) in ins {
                if !dels.remove(&(s, o)) {
                    adds.insert((s, o));
                }
            }
            for &(s, o) in outs {
                if !adds.remove(&(s, o)) {
                    dels.insert((s, o));
                }
            }
            pred.adds = adds.into_iter().collect();
            pred.dels = dels.into_iter().collect();

            // Rebuild the merged adjacency overrides for the touched nodes
            // (merge-on-write: reads stay plain sorted slices).
            let subjects: BTreeSet<NodeId> =
                ins.iter().chain(outs.iter()).map(|&(s, _)| s).collect();
            let objects: BTreeSet<NodeId> =
                ins.iter().chain(outs.iter()).map(|&(_, o)| o).collect();
            for s in subjects {
                let lo = pred.adds.partition_point(|&(x, _)| x < s);
                let hi = pred.adds.partition_point(|&(x, _)| x <= s);
                let add_objs: Vec<NodeId> = pred.adds[lo..hi].iter().map(|&(_, o)| o).collect();
                let lo = pred.dels.partition_point(|&(x, _)| x < s);
                let hi = pred.dels.partition_point(|&(x, _)| x <= s);
                let del_objs: Vec<NodeId> = pred.dels[lo..hi].iter().map(|&(_, o)| o).collect();
                if add_objs.is_empty() && del_objs.is_empty() {
                    pred.fwd.remove(&s);
                    continue;
                }
                let base = self.base_objects(p, s);
                pred.fwd.insert(s, merge_sorted(base, &add_objs, &del_objs));
            }
            for o in objects {
                let mut add_subs: Vec<NodeId> = pred
                    .adds
                    .iter()
                    .filter(|&&(_, x)| x == o)
                    .map(|&(s, _)| s)
                    .collect();
                add_subs.sort_unstable();
                let mut del_subs: Vec<NodeId> = pred
                    .dels
                    .iter()
                    .filter(|&&(_, x)| x == o)
                    .map(|&(s, _)| s)
                    .collect();
                del_subs.sort_unstable();
                if add_subs.is_empty() && del_subs.is_empty() {
                    pred.bwd.remove(&o);
                    continue;
                }
                let base = self.base_subjects(p, o);
                pred.bwd.insert(o, merge_sorted(base, &add_subs, &del_subs));
            }
        }

        let mut store = DeltaStore {
            base: Arc::clone(&self.base),
            preds,
            num_triples: 0,
            delta_edges: 0,
        };
        // Exact statistics for the touched predicates (O(|predicate|) each);
        // untouched predicates keep their previous exact stats.
        for &p in touched.keys() {
            let stats = if store.preds[p.index()].is_empty() {
                None // the batch cancelled out: the base is exact again
            } else {
                Some(compute_stats(&store.merged_pairs(p)))
            };
            store.preds[p.index()].stats = stats;
        }
        store.num_triples = (0..store.preds.len())
            .map(|p| store.cardinality(PredId(p as u32)))
            .sum();
        store.delta_edges = store.preds.iter().map(PredDelta::delta_len).sum();
        store
    }

    /// Merges the overlay into a fresh CSR base and starts over with empty
    /// side-tables. `num_nodes` is the current dense node-space size.
    pub fn compact(&self, num_nodes: usize) -> DeltaStore {
        let edges: Vec<Vec<(NodeId, NodeId)>> = (0..self.preds.len())
            .map(|p| self.merged_pairs(PredId(p as u32)))
            .collect();
        DeltaStore::fresh(CsrStore::build(num_nodes, edges))
    }
}

impl GraphStore for DeltaStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Delta
    }

    fn num_predicates(&self) -> usize {
        self.preds.len()
    }

    fn triple_count(&self) -> usize {
        self.num_triples
    }

    #[inline]
    fn cardinality(&self, p: PredId) -> usize {
        let pred = self.pred(p);
        match pred.stats {
            Some(stats) => stats.cardinality,
            None => self.base_pairs(p).len(),
        }
    }

    fn pairs(&self, p: PredId) -> Cow<'_, [(NodeId, NodeId)]> {
        if self.pred(p).is_empty() {
            Cow::Borrowed(self.base_pairs(p))
        } else {
            Cow::Owned(self.merged_pairs(p))
        }
    }

    #[inline]
    fn objects_of(&self, p: PredId, s: NodeId) -> &[NodeId] {
        let pred = self.pred(p);
        if pred.is_empty() {
            return self.base_objects(p, s);
        }
        match pred.fwd.get(&s) {
            Some(merged) => merged,
            None => self.base_objects(p, s),
        }
    }

    #[inline]
    fn subjects_of(&self, p: PredId, o: NodeId) -> &[NodeId] {
        let pred = self.pred(p);
        if pred.is_empty() {
            return self.base_subjects(p, o);
        }
        match pred.bwd.get(&o) {
            Some(merged) => merged,
            None => self.base_subjects(p, o),
        }
    }

    #[inline]
    fn has_triple(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        let pred = self.pred(p);
        if pred.is_empty() {
            return p.index() < self.base.num_predicates() && self.base.has_triple(s, p, o);
        }
        if pred.dels.binary_search(&(s, o)).is_ok() {
            return false;
        }
        pred.adds.binary_search(&(s, o)).is_ok()
            || (p.index() < self.base.num_predicates() && self.base.has_triple(s, p, o))
    }

    fn distinct_subjects(&self, p: PredId) -> usize {
        match self.pred(p).stats {
            Some(stats) => stats.distinct_subjects,
            None if p.index() < self.base.num_predicates() => self.base.distinct_subjects(p),
            None => 0,
        }
    }

    fn distinct_objects(&self, p: PredId) -> usize {
        match self.pred(p).stats {
            Some(stats) => stats.distinct_objects,
            None if p.index() < self.base.num_predicates() => self.base.distinct_objects(p),
            None => 0,
        }
    }

    fn max_out_degree(&self, p: PredId) -> usize {
        match self.pred(p).stats {
            Some(stats) => stats.max_out_degree,
            None if p.index() < self.base.num_predicates() => self.base.max_out_degree(p),
            None => 0,
        }
    }

    fn max_in_degree(&self, p: PredId) -> usize {
        match self.pred(p).stats {
            Some(stats) => stats.max_in_degree,
            None if p.index() < self.base.num_predicates() => self.base.max_in_degree(p),
            None => 0,
        }
    }

    fn heap_bytes(&self) -> usize {
        // The Arc-shared base is counted once per store view; overlay
        // structures are this version's own.
        self.base.heap_bytes() + self.preds.iter().map(PredDelta::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(NodeId(s), PredId(p), NodeId(o))
    }

    /// Predicate 0: 0->1, 0->2, 1->2, 3->2; predicate 1: empty.
    fn sample() -> DeltaStore {
        DeltaStore::build(
            5,
            vec![
                vec![(n(0), n(1)), (n(0), n(2)), (n(1), n(2)), (n(3), n(2))],
                vec![],
            ],
        )
    }

    #[test]
    fn fresh_store_delegates_to_the_base() {
        let s = sample();
        assert_eq!(s.kind(), StoreKind::Delta);
        assert_eq!(s.triple_count(), 4);
        assert_eq!(s.delta_len(), 0);
        assert_eq!(s.delta_fraction(), 0.0);
        assert_eq!(s.objects_of(PredId(0), n(0)), &[n(1), n(2)]);
        assert_eq!(s.subjects_of(PredId(0), n(2)), &[n(0), n(1), n(3)]);
        assert!(s.has_triple(n(0), PredId(0), n(1)));
        assert!(matches!(s.pairs(PredId(0)), Cow::Borrowed(_)));
    }

    #[test]
    fn inserts_and_tombstones_merge_on_read() {
        let s = sample();
        let v2 = s.with_mutation(2, &[t(2, 0, 4), t(0, 1, 1)], &[t(0, 0, 2)]);
        // The old version is untouched.
        assert_eq!(s.triple_count(), 4);
        assert!(s.has_triple(n(0), PredId(0), n(2)));

        assert_eq!(v2.triple_count(), 5);
        assert_eq!(v2.delta_len(), 3);
        assert!(!v2.has_triple(n(0), PredId(0), n(2)), "tombstoned");
        assert!(v2.has_triple(n(2), PredId(0), n(4)), "inserted");
        assert!(v2.has_triple(n(0), PredId(1), n(1)), "fresh predicate edge");
        assert_eq!(v2.objects_of(PredId(0), n(0)), &[n(1)], "merged override");
        assert_eq!(v2.objects_of(PredId(0), n(2)), &[n(4)]);
        assert_eq!(v2.objects_of(PredId(0), n(1)), &[n(2)], "untouched: base");
        assert_eq!(v2.subjects_of(PredId(0), n(2)), &[n(1), n(3)]);
        assert_eq!(v2.subjects_of(PredId(0), n(4)), &[n(2)]);
        assert_eq!(
            v2.pairs(PredId(0)).as_ref(),
            &[(n(0), n(1)), (n(1), n(2)), (n(2), n(4)), (n(3), n(2))]
        );
        assert_eq!(v2.cardinality(PredId(1)), 1);
        assert!(v2.heap_bytes() > s.heap_bytes());
    }

    #[test]
    fn stats_match_a_fresh_csr_of_the_merged_set() {
        let s = sample();
        let v2 = s.with_mutation(2, &[t(2, 0, 4), t(4, 0, 2)], &[t(0, 0, 1)]);
        let fresh = CsrStore::build(5, vec![v2.merged_pairs(PredId(0)), vec![]]);
        let p = PredId(0);
        assert_eq!(v2.cardinality(p), fresh.cardinality(p));
        assert_eq!(v2.distinct_subjects(p), fresh.distinct_subjects(p));
        assert_eq!(v2.distinct_objects(p), fresh.distinct_objects(p));
        assert_eq!(v2.max_out_degree(p), fresh.max_out_degree(p));
        assert_eq!(v2.max_in_degree(p), fresh.max_in_degree(p));
    }

    #[test]
    fn cancelling_operations_restore_the_base_fast_path() {
        let s = sample();
        let v2 = s.with_mutation(2, &[t(2, 0, 4)], &[]);
        assert_eq!(v2.delta_len(), 1);
        let v3 = v2.with_mutation(2, &[], &[t(2, 0, 4)]);
        assert_eq!(v3.delta_len(), 0, "a removed pending add cancels out");
        assert!(matches!(v3.pairs(PredId(0)), Cow::Borrowed(_)));
        assert_eq!(v3.objects_of(PredId(0), n(2)), &[] as &[NodeId]);

        // Tombstone + revive likewise.
        let v4 = s
            .with_mutation(2, &[], &[t(0, 0, 1)])
            .with_mutation(2, &[t(0, 0, 1)], &[]);
        assert_eq!(v4.delta_len(), 0);
        assert_eq!(v4.objects_of(PredId(0), n(0)), &[n(1), n(2)]);
    }

    #[test]
    fn compaction_absorbs_the_overlay() {
        let s = sample();
        let v2 = s.with_mutation(2, &[t(2, 0, 4), t(0, 1, 1)], &[t(0, 0, 2)]);
        assert!(v2.delta_fraction() > 0.5);
        let compacted = v2.compact(5);
        assert_eq!(compacted.delta_len(), 0);
        assert_eq!(compacted.base_triples(), 5);
        assert_eq!(compacted.triple_count(), v2.triple_count());
        for p in [PredId(0), PredId(1)] {
            assert_eq!(compacted.pairs(p).as_ref(), v2.pairs(p).as_ref());
        }
        assert!(matches!(compacted.pairs(PredId(0)), Cow::Borrowed(_)));
    }

    #[test]
    fn out_of_range_nodes_and_new_nodes_are_safe() {
        let s = sample();
        // Node 7 is beyond the base's dense space: inserts against it work,
        // probes for absent nodes return empty.
        let v2 = s.with_mutation(2, &[t(7, 0, 0)], &[]);
        assert_eq!(v2.objects_of(PredId(0), n(7)), &[n(0)]);
        assert_eq!(v2.subjects_of(PredId(0), n(0)), &[n(7)]);
        assert_eq!(v2.objects_of(PredId(0), n(100)), &[] as &[NodeId]);
        assert!(!v2.has_triple(n(100), PredId(0), n(0)));
        let compacted = v2.compact(8);
        assert_eq!(compacted.objects_of(PredId(0), n(7)), &[n(0)]);
    }

    #[test]
    fn merge_helpers_handle_edge_cases() {
        assert_eq!(merge_sorted::<NodeId>(&[], &[], &[]), Vec::<NodeId>::new());
        assert_eq!(
            merge_sorted(&[n(1), n(3)], &[n(0), n(2), n(9)], &[n(3)]),
            vec![n(0), n(1), n(2), n(9)]
        );
        assert_eq!(
            merge_sorted(&[(n(1), n(1))], &[], &[(n(1), n(1))]),
            Vec::<(NodeId, NodeId)>::new()
        );
    }
}
