//! The statistics catalog: 1-gram and 2-gram edge-label statistics.
//!
//! Wireframe's planners estimate the number of *edge walks* a candidate plan
//! performs. The estimates are driven by a catalog of per-predicate (1-gram)
//! statistics and per-predicate-pair (2-gram) join statistics, exactly the
//! statistics the paper says are "computed offline" for its cost model.
//!
//! * 1-gram: per predicate `p` — edge count, number of distinct subjects and
//!   objects, and the resulting average fan-out/fan-in.
//! * 2-gram: for a pair of predicates `(p, q)` joined on a choice of end
//!   (subject or object of each) — the exact number of joining node values and
//!   the exact cardinality of the pairwise join. These are computed lazily the
//!   first time a (p, q, ends) combination is requested and memoized, which
//!   keeps load time proportional to the data rather than to the square of the
//!   predicate vocabulary.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::ids::{NodeId, PredId};
use crate::store::GraphStore;

/// Which end of a triple pattern participates in a join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum End {
    /// The subject (source) end.
    Subject,
    /// The object (target) end.
    Object,
}

/// Per-predicate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnigramStats {
    /// Number of distinct edges with this predicate.
    pub cardinality: usize,
    /// Number of distinct subject nodes.
    pub distinct_subjects: usize,
    /// Number of distinct object nodes.
    pub distinct_objects: usize,
    /// Largest out-degree of any subject (0 for an empty predicate). Degree
    /// statistics fall out of the store build and let the planners bound
    /// skewed predicates by real rather than average fan-out.
    pub max_out_degree: usize,
    /// Largest in-degree of any object (0 for an empty predicate).
    pub max_in_degree: usize,
}

impl UnigramStats {
    /// Average number of objects per subject (fan-out). Zero for an empty predicate.
    pub fn avg_fanout(&self) -> f64 {
        if self.distinct_subjects == 0 {
            0.0
        } else {
            self.cardinality as f64 / self.distinct_subjects as f64
        }
    }

    /// Average number of subjects per object (fan-in). Zero for an empty predicate.
    pub fn avg_fanin(&self) -> f64 {
        if self.distinct_objects == 0 {
            0.0
        } else {
            self.cardinality as f64 / self.distinct_objects as f64
        }
    }

    /// Number of distinct nodes on the given end.
    pub fn distinct(&self, end: End) -> usize {
        match end {
            End::Subject => self.distinct_subjects,
            End::Object => self.distinct_objects,
        }
    }

    /// Average number of edges per distinct node on the given end.
    pub fn avg_degree(&self, end: End) -> f64 {
        match end {
            End::Subject => self.avg_fanout(),
            End::Object => self.avg_fanin(),
        }
    }

    /// Largest degree of any node on the given end.
    pub fn max_degree(&self, end: End) -> usize {
        match end {
            End::Subject => self.max_out_degree,
            End::Object => self.max_in_degree,
        }
    }
}

/// Join statistics for a pair of predicates joined on a choice of ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BigramStats {
    /// Number of distinct node values that appear on both join ends.
    pub joining_values: usize,
    /// Exact cardinality of the pairwise join
    /// `{(e1, e2) | e1 ∈ p, e2 ∈ q, e1.end_p = e2.end_q}`.
    pub join_cardinality: u64,
}

/// Sorted `(node, degree)` list for one end of one predicate.
#[derive(Debug, Clone, Default)]
struct DegreeList {
    entries: Vec<(NodeId, u32)>,
}

impl DegreeList {
    fn from_sorted_nodes<I: Iterator<Item = NodeId>>(sorted: I) -> Self {
        let mut entries: Vec<(NodeId, u32)> = Vec::new();
        for v in sorted {
            match entries.last_mut() {
                Some((last, c)) if *last == v => *c += 1,
                _ => entries.push((v, 1)),
            }
        }
        DegreeList { entries }
    }
}

/// One predicate's 1-gram statistics and its subject/object degree lists.
/// Pairs come sorted by subject (the store contract), so only the objects
/// need sorting.
fn predicate_entry(
    store: &dyn GraphStore,
    p: PredId,
) -> (UnigramStats, Arc<DegreeList>, Arc<DegreeList>) {
    let unigram = UnigramStats {
        cardinality: store.cardinality(p),
        distinct_subjects: store.distinct_subjects(p),
        distinct_objects: store.distinct_objects(p),
        max_out_degree: store.max_out_degree(p),
        max_in_degree: store.max_in_degree(p),
    };
    let pairs = store.pairs(p);
    let subjects = DegreeList::from_sorted_nodes(pairs.iter().map(|&(s, _)| s));
    let mut objects: Vec<NodeId> = pairs.iter().map(|&(_, o)| o).collect();
    objects.sort_unstable();
    let objects = DegreeList::from_sorted_nodes(objects.into_iter());
    (unigram, Arc::new(subjects), Arc::new(objects))
}

/// The statistics catalog attached to a [`Graph`](crate::store::Graph).
#[derive(Debug)]
pub struct Catalog {
    unigrams: Vec<UnigramStats>,
    /// Per predicate: sorted distinct subjects with out-degree. `Arc`-shared
    /// so [`Catalog::refreshed`] copies pointers, not degree entries, for
    /// untouched predicates.
    subject_degrees: Vec<Arc<DegreeList>>,
    /// Per predicate: sorted distinct objects with in-degree (shared
    /// likewise).
    object_degrees: Vec<Arc<DegreeList>>,
    /// Total number of nodes in the graph (for fallback selectivities).
    num_nodes: usize,
    /// Memoized 2-gram statistics.
    bigram_cache: RwLock<HashMap<(PredId, End, PredId, End), BigramStats>>,
}

impl Clone for Catalog {
    fn clone(&self) -> Self {
        Catalog {
            unigrams: self.unigrams.clone(),
            subject_degrees: self.subject_degrees.clone(),
            object_degrees: self.object_degrees.clone(),
            num_nodes: self.num_nodes,
            bigram_cache: RwLock::new(
                self.bigram_cache
                    .read()
                    .expect("catalog cache poisoned")
                    .clone(),
            ),
        }
    }
}

impl Catalog {
    /// Computes the 1-gram statistics (and the degree lists that back lazy
    /// 2-gram computation) from a storage backend. Statistics are derived
    /// from the backend-independent [`GraphStore::pairs`] view, so every
    /// backend yields the identical catalog.
    pub fn compute(store: &dyn GraphStore, num_nodes: usize) -> Self {
        let count = store.num_predicates();
        let mut unigrams = Vec::with_capacity(count);
        let mut subject_degrees = Vec::with_capacity(count);
        let mut object_degrees = Vec::with_capacity(count);
        for p in 0..count {
            let (unigram, subjects, objects) = predicate_entry(store, PredId(p as u32));
            unigrams.push(unigram);
            subject_degrees.push(subjects);
            object_degrees.push(objects);
        }
        Catalog {
            unigrams,
            subject_degrees,
            object_degrees,
            num_nodes,
            bigram_cache: RwLock::new(HashMap::new()),
        }
    }

    /// Recomputes the catalog entries of `touched` predicates against a
    /// (mutated) store, carrying every other predicate's entry over
    /// unchanged and dropping memoized 2-gram statistics that involve a
    /// touched predicate. Predicates interned after this catalog was
    /// computed must be listed in `touched`.
    ///
    /// Because untouched predicates' edges are untouched by definition, the
    /// result is identical to a full [`Catalog::compute`] — at
    /// `O(touched predicate sizes)` instead of `O(|graph|)`, which is what
    /// keeps [`Graph::apply`](crate::store::Graph::apply) cheap on the delta
    /// backend.
    pub fn refreshed(&self, store: &dyn GraphStore, touched: &[PredId], num_nodes: usize) -> Self {
        let count = store.num_predicates();
        let mut unigrams = self.unigrams.clone();
        let mut subject_degrees = self.subject_degrees.clone();
        let mut object_degrees = self.object_degrees.clone();
        unigrams.resize(count, UnigramStats::default());
        subject_degrees.resize(count, Arc::new(DegreeList::default()));
        object_degrees.resize(count, Arc::new(DegreeList::default()));
        for &p in touched {
            let i = p.index();
            (unigrams[i], subject_degrees[i], object_degrees[i]) = predicate_entry(store, p);
        }
        let bigram_cache: HashMap<_, _> = self
            .bigram_cache
            .read()
            .expect("catalog cache poisoned")
            .iter()
            .filter(|((p, _, q, _), _)| !touched.contains(p) && !touched.contains(q))
            .map(|(k, v)| (*k, *v))
            .collect();
        Catalog {
            unigrams,
            subject_degrees,
            object_degrees,
            num_nodes,
            bigram_cache: RwLock::new(bigram_cache),
        }
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of predicates covered by the catalog.
    pub fn num_predicates(&self) -> usize {
        self.unigrams.len()
    }

    /// 1-gram statistics for predicate `p`.
    pub fn unigram(&self, p: PredId) -> UnigramStats {
        self.unigrams[p.index()]
    }

    /// 2-gram statistics for predicates `p` and `q` joined on the given ends.
    /// Computed exactly on first use and memoized.
    pub fn bigram(&self, p: PredId, p_end: End, q: PredId, q_end: End) -> BigramStats {
        let key = (p, p_end, q, q_end);
        if let Some(hit) = self
            .bigram_cache
            .read()
            .expect("catalog cache poisoned")
            .get(&key)
        {
            return *hit;
        }
        let stats = self.compute_bigram(p, p_end, q, q_end);
        self.bigram_cache
            .write()
            .expect("catalog cache poisoned")
            .insert(key, stats);
        // The symmetric entry is the same statistic; cache it too.
        self.bigram_cache
            .write()
            .expect("catalog cache poisoned")
            .insert((q, q_end, p, p_end), stats);
        stats
    }

    fn degree_list(&self, p: PredId, end: End) -> &DegreeList {
        match end {
            End::Subject => &self.subject_degrees[p.index()],
            End::Object => &self.object_degrees[p.index()],
        }
    }

    fn compute_bigram(&self, p: PredId, p_end: End, q: PredId, q_end: End) -> BigramStats {
        let a = &self.degree_list(p, p_end).entries;
        let b = &self.degree_list(q, q_end).entries;
        let mut i = 0;
        let mut j = 0;
        let mut joining_values = 0usize;
        let mut join_cardinality = 0u64;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    joining_values += 1;
                    join_cardinality += a[i].1 as u64 * b[j].1 as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
        BigramStats {
            joining_values,
            join_cardinality,
        }
    }

    /// Estimated selectivity of restricting predicate `p` on end `end` to a
    /// single node value: `1 / distinct(end)`, with a fallback of
    /// `1 / num_nodes` when the predicate is empty.
    pub fn end_selectivity(&self, p: PredId, end: End) -> f64 {
        let distinct = self.unigram(p).distinct(end);
        if distinct > 0 {
            1.0 / distinct as f64
        } else if self.num_nodes > 0 {
            1.0 / self.num_nodes as f64
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// A: 1->5, 2->5, 3->5 (fan-in 3); B: 5->9; C: 9->12, 9->13 (fan-out 2).
    fn sample() -> crate::store::Graph {
        let mut b = GraphBuilder::new();
        for s in ["1", "2", "3"] {
            b.add(s, "A", "5");
        }
        b.add("5", "B", "9");
        b.add("9", "C", "12");
        b.add("9", "C", "13");
        b.build()
    }

    #[test]
    fn unigram_counts() {
        let g = sample();
        let a = g.dictionary().predicate_id("A").unwrap();
        let c = g.dictionary().predicate_id("C").unwrap();
        let ua = g.catalog().unigram(a);
        assert_eq!(ua.cardinality, 3);
        assert_eq!(ua.distinct_subjects, 3);
        assert_eq!(ua.distinct_objects, 1);
        assert!((ua.avg_fanin() - 3.0).abs() < 1e-9);
        assert_eq!(ua.max_in_degree, 3, "all three A edges hit node 5");
        assert_eq!(ua.max_out_degree, 1);
        assert_eq!(ua.max_degree(End::Object), 3);
        let uc = g.catalog().unigram(c);
        assert!((uc.avg_fanout() - 2.0).abs() < 1e-9);
        assert_eq!(uc.max_out_degree, 2);
    }

    #[test]
    fn bigram_object_subject_join() {
        // A.object joins B.subject only on node "5": 3 * 1 = 3 pairs.
        let g = sample();
        let a = g.dictionary().predicate_id("A").unwrap();
        let b = g.dictionary().predicate_id("B").unwrap();
        let s = g.catalog().bigram(a, End::Object, b, End::Subject);
        assert_eq!(s.joining_values, 1);
        assert_eq!(s.join_cardinality, 3);
    }

    #[test]
    fn bigram_is_symmetric_and_cached() {
        let g = sample();
        let b = g.dictionary().predicate_id("B").unwrap();
        let c = g.dictionary().predicate_id("C").unwrap();
        let s1 = g.catalog().bigram(b, End::Object, c, End::Subject);
        let s2 = g.catalog().bigram(c, End::Subject, b, End::Object);
        assert_eq!(s1, s2);
        assert_eq!(s1.join_cardinality, 2);
    }

    #[test]
    fn bigram_with_no_overlap() {
        let g = sample();
        let a = g.dictionary().predicate_id("A").unwrap();
        let c = g.dictionary().predicate_id("C").unwrap();
        // A subjects {1,2,3} vs C objects {12,13}: no overlap.
        let s = g.catalog().bigram(a, End::Subject, c, End::Object);
        assert_eq!(s.joining_values, 0);
        assert_eq!(s.join_cardinality, 0);
    }

    #[test]
    fn end_selectivity_bounds() {
        let g = sample();
        let a = g.dictionary().predicate_id("A").unwrap();
        let sel = g.catalog().end_selectivity(a, End::Object);
        assert!((sel - 1.0).abs() < 1e-9, "single distinct object");
        let sel_s = g.catalog().end_selectivity(a, End::Subject);
        assert!((sel_s - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn clone_preserves_cache() {
        let g = sample();
        let a = g.dictionary().predicate_id("A").unwrap();
        let b = g.dictionary().predicate_id("B").unwrap();
        let before = g.catalog().bigram(a, End::Object, b, End::Subject);
        let cloned = g.catalog().clone();
        assert_eq!(cloned.bigram(a, End::Object, b, End::Subject), before);
    }

    #[test]
    fn empty_catalog() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.catalog().num_predicates(), 0);
        assert_eq!(g.catalog().num_nodes(), 0);
    }

    #[test]
    fn refreshed_catalog_matches_a_full_recompute() {
        use crate::mutation::Mutation;
        let g = sample();
        let b = g.dictionary().predicate_id("B").unwrap();
        let c = g.dictionary().predicate_id("C").unwrap();
        // Warm a bigram that the mutation will invalidate (B × C) and one it
        // must keep (computed lazily again either way — equality is what
        // matters).
        let warmed = g.catalog().bigram(b, End::Object, c, End::Subject);
        assert_eq!(warmed.join_cardinality, 2);

        let (next, _) = g.apply(
            &Mutation::new()
                .insert("9", "C", "14")
                .remove("9", "C", "12"),
        );
        let fresh = Catalog::compute(next.store(), next.node_count());
        for p in 0..next.predicate_count() {
            let p = PredId(p as u32);
            assert_eq!(next.catalog().unigram(p), fresh.unigram(p), "{p}");
        }
        assert_eq!(
            next.catalog().bigram(b, End::Object, c, End::Subject),
            fresh.bigram(b, End::Object, c, End::Subject),
            "invalidated bigrams recompute against the mutated data"
        );
    }
}
