//! The in-memory graph store: the [`GraphStore`] trait, backend selection,
//! and the [`Graph`] facade.
//!
//! A [`Graph`] is an immutable *value*: a dictionary-encoded, edge-labeled
//! directed multigraph (an RDF dataset), built by a
//! [`GraphBuilder`](crate::builder::GraphBuilder) and queried read-only by
//! all engines without locking. Dynamic data is handled by producing new
//! versions — [`Graph::apply`] takes a [`Mutation`] batch and returns the
//! next version, leaving every existing reader untouched (cheap on the delta
//! backend, which shares its base across versions).
//!
//! The physical layout behind the lookups is pluggable: every backend
//! implements [`GraphStore`], and a [`StoreKind`] selects one at build time
//! ([`GraphBuilder::build_with_store`](crate::builder::GraphBuilder::build_with_store))
//! or re-indexes an existing graph ([`Graph::with_store`]). Two backends
//! ship, and both hand out ascending-sorted neighbor slices:
//!
//! * [`CsrStore`](crate::csr::CsrStore) (`StoreKind::Csr`, the default) —
//!   per-predicate forward/reverse adjacency in sorted, contiguous
//!   `offsets`/`targets` arrays,
//! * [`DeltaStore`](crate::delta::DeltaStore) (`StoreKind::Delta`) — an
//!   immutable CSR base plus sorted insert/tombstone overlays, for graphs
//!   that change while being served.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::dictionary::Dictionary;
use crate::ids::{NodeId, PredId, Triple};
use crate::mutation::{EdgeDelta, Mutation, MutationOp, MutationOutcome};
use crate::stats::Catalog;
use crate::{CsrStore, DeltaStore};

/// Default overlay fraction at which a delta-backed [`Graph::apply`]
/// compacts the overlay into a fresh CSR base (see
/// [`Graph::with_compaction_threshold`]).
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.25;

/// Which physical storage backend a graph is indexed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoreKind {
    /// Compressed sparse row: contiguous sorted adjacency arrays (default).
    #[default]
    Csr,
    /// Immutable CSR base plus a mutable sorted insert/tombstone overlay —
    /// the backend for dynamic graphs ([`Graph::apply`]).
    Delta,
}

impl StoreKind {
    /// Parses a store name as accepted by the `--store` CLI flags.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "csr" => Ok(StoreKind::Csr),
            "delta" => Ok(StoreKind::Delta),
            other => Err(format!(
                "unrecognized store {other:?} (accepted: csr, delta)"
            )),
        }
    }

    /// The canonical name ([`StoreKind::parse`] accepts it back).
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Csr => "csr",
            StoreKind::Delta => "delta",
        }
    }
}

/// The storage-backend contract: per-predicate edge access paths over dense
/// node identifiers.
///
/// Contract shared by every backend, relied on by the evaluators:
///
/// * [`pairs`](GraphStore::pairs) enumerates each distinct edge of a
///   predicate exactly once, sorted by `(subject, object)`;
/// * [`objects_of`](GraphStore::objects_of) / [`subjects_of`](GraphStore::subjects_of)
///   return each neighbor exactly once, in an **ascending-sorted** slice, so
///   callers binary-search and gallop ([`crate::slices`]) instead of
///   scanning;
/// * all methods accept out-of-range nodes and return empty results for them.
pub trait GraphStore: std::fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> StoreKind;

    /// Number of predicates indexed (empty ones included).
    fn num_predicates(&self) -> usize;

    /// Number of distinct triples across all predicates.
    fn triple_count(&self) -> usize;

    /// Number of distinct edges carrying predicate `p`.
    fn cardinality(&self, p: PredId) -> usize;

    /// All distinct `(subject, object)` pairs of predicate `p`, sorted.
    /// Borrowed when the backend keeps the pair array as is (CSR, and a
    /// delta predicate without overlay); merged on read otherwise.
    fn pairs(&self, p: PredId) -> Cow<'_, [(NodeId, NodeId)]>;

    /// Objects reachable from `s` over `p`.
    fn objects_of(&self, p: PredId, s: NodeId) -> &[NodeId];

    /// Subjects reaching `o` over `p`.
    fn subjects_of(&self, p: PredId, o: NodeId) -> &[NodeId];

    /// Whether the triple `(s, p, o)` is present.
    fn has_triple(&self, s: NodeId, p: PredId, o: NodeId) -> bool;

    /// Number of distinct subjects in `p`'s edges.
    fn distinct_subjects(&self, p: PredId) -> usize;

    /// Number of distinct objects in `p`'s edges.
    fn distinct_objects(&self, p: PredId) -> usize;

    /// Largest out-degree under `p` (0 for an empty predicate).
    fn max_out_degree(&self, p: PredId) -> usize;

    /// Largest in-degree under `p` (0 for an empty predicate).
    fn max_in_degree(&self, p: PredId) -> usize;

    /// Approximate heap footprint of the backend's index structures, in
    /// bytes. Divided by [`triple_count`](GraphStore::triple_count) this is
    /// the bytes-per-edge figure the `store_build` bench tracks.
    fn heap_bytes(&self) -> usize;
}

/// The selected backend. An enum rather than a boxed trait object so the
/// per-lookup dispatch on the hot paths is a jump, not a vtable call, and so
/// [`Graph`] stays plainly `Clone`.
#[derive(Debug, Clone)]
enum Store {
    Csr(CsrStore),
    Delta(DeltaStore),
}

impl Store {
    fn build(kind: StoreKind, num_nodes: usize, edges: Vec<Vec<(NodeId, NodeId)>>) -> Self {
        match kind {
            StoreKind::Csr => Store::Csr(CsrStore::build(num_nodes, edges)),
            StoreKind::Delta => Store::Delta(DeltaStore::build(num_nodes, edges)),
        }
    }

    #[inline]
    fn as_dyn(&self) -> &(dyn GraphStore + 'static) {
        match self {
            Store::Csr(s) => s,
            Store::Delta(s) => s,
        }
    }
}

/// An edge-labeled directed graph behind a selectable [`GraphStore`]
/// backend, with a precomputed statistics catalog.
///
/// Graphs are immutable values: every accessor takes `&self`, and
/// [`Graph::apply`] produces a *new* version rather than mutating in place,
/// so readers never need locks. On the [`StoreKind::Delta`] backend a new
/// version shares the CSR base, the dictionary (unless the batch interns new
/// labels), and every untouched predicate's statistics with its predecessor,
/// so applying a mutation costs `O(overlay + touched predicates)`; on the
/// CSR backend `apply` rebuilds the index (documented `O(|graph|)` — it
/// exists for static serving).
#[derive(Debug, Clone)]
pub struct Graph {
    /// Shared across versions: a mutation clones the dictionary only when it
    /// interns a label this version has never seen.
    dictionary: Arc<Dictionary>,
    num_nodes: usize,
    store: Store,
    catalog: Catalog,
    compaction_threshold: f64,
}

impl Graph {
    /// Assembles a graph from raw per-predicate edge lists. Intended to be
    /// called by [`GraphBuilder::build`](crate::builder::GraphBuilder::build).
    pub(crate) fn from_parts(
        dictionary: Dictionary,
        num_nodes: usize,
        edges_by_predicate: Vec<Vec<(NodeId, NodeId)>>,
        kind: StoreKind,
    ) -> Self {
        Graph::from_shared_parts(
            Arc::new(dictionary),
            num_nodes,
            edges_by_predicate,
            kind,
            DEFAULT_COMPACTION_THRESHOLD,
        )
    }

    pub(crate) fn from_shared_parts(
        dictionary: Arc<Dictionary>,
        num_nodes: usize,
        edges_by_predicate: Vec<Vec<(NodeId, NodeId)>>,
        kind: StoreKind,
        compaction_threshold: f64,
    ) -> Self {
        let store = Store::build(kind, num_nodes, edges_by_predicate);
        let catalog = Catalog::compute(store.as_dyn(), num_nodes);
        Graph {
            dictionary,
            num_nodes,
            store,
            catalog,
            compaction_threshold,
        }
    }

    /// The shared dictionary handle, for constructing sibling graphs (e.g.
    /// vertex-partitioned shards) over the identical label space.
    pub(crate) fn shared_dictionary(&self) -> Arc<Dictionary> {
        Arc::clone(&self.dictionary)
    }

    /// Sets the overlay fraction at which delta-backed [`Graph::apply`]
    /// compacts (builder form; default [`DEFAULT_COMPACTION_THRESHOLD`]).
    /// `0.0` compacts after every mutating batch; the CSR backend ignores
    /// the knob.
    pub fn with_compaction_threshold(mut self, threshold: f64) -> Self {
        self.compaction_threshold = threshold.max(0.0);
        self
    }

    /// The overlay fraction at which delta-backed [`Graph::apply`] compacts.
    pub fn compaction_threshold(&self) -> f64 {
        self.compaction_threshold
    }

    /// For delta-backed graphs: `(overlay edges, overlay fraction of the
    /// base)`. `None` on the CSR backend.
    pub fn delta_stats(&self) -> Option<(usize, f64)> {
        match &self.store {
            Store::Delta(s) => Some((s.delta_len(), s.delta_fraction())),
            _ => None,
        }
    }

    /// Delta-overlay size in edges; 0 on the CSR backend. Integer
    /// form of [`Graph::delta_stats`] for the metrics gauges.
    pub fn overlay_edges(&self) -> u64 {
        self.delta_stats().map_or(0, |(edges, _)| edges as u64)
    }

    /// Delta-overlay fraction of the base in parts per million; 0 on the
    /// CSR backend. Gauges are integers, and ppm keeps three decimal
    /// places of the percentage without floating point on the wire.
    pub fn overlay_fraction_ppm(&self) -> u64 {
        self.delta_stats()
            .map_or(0, |(_, fraction)| (fraction * 1e6).round() as u64)
    }

    /// Applies a [`Mutation`] and returns the resulting graph version plus
    /// what actually changed. Operations resolve in order with set semantics
    /// (see [`Mutation`]); labels never seen before are interned, so the new
    /// version's dictionary extends this one's (identifiers are stable).
    ///
    /// On [`StoreKind::Delta`] this is the cheap path: the CSR base is
    /// shared, the overlay absorbs the net change, exact statistics are
    /// recomputed only for the touched predicates, and the overlay compacts
    /// into a fresh base when its fraction reaches
    /// [`Graph::compaction_threshold`]. The dictionary is shared with the
    /// predecessor version unless the batch interns a brand-new label (only
    /// such batches pay a dictionary copy). On `csr` the whole index is
    /// rebuilt (`O(|graph|)`).
    pub fn apply(&self, mutation: &Mutation) -> (Graph, MutationOutcome) {
        // Share the dictionary across versions unless this batch actually
        // introduces a label we have never interned.
        let needs_intern = mutation.ops().iter().any(|(_, s, p, o)| {
            self.dictionary.node_id(s).is_none()
                || self.dictionary.predicate_id(p).is_none()
                || self.dictionary.node_id(o).is_none()
        });
        let dictionary = if needs_intern {
            let mut extended = Dictionary::clone(&self.dictionary);
            for (_, s, p, o) in mutation.ops() {
                extended.intern_node(s);
                extended.intern_predicate(p);
                extended.intern_node(o);
            }
            Arc::new(extended)
        } else {
            Arc::clone(&self.dictionary)
        };

        // Resolve the ordered ops into net per-triple transitions.
        let mut net: HashMap<Triple, (bool, bool)> = HashMap::new();
        for (op, s, p, o) in mutation.ops() {
            let t = Triple::new(
                dictionary.node_id(s).expect("interned above"),
                dictionary.predicate_id(p).expect("interned above"),
                dictionary.node_id(o).expect("interned above"),
            );
            let entry = net.entry(t).or_insert_with(|| {
                let before = t.predicate.index() < self.predicate_count()
                    && self.has_triple(t.subject, t.predicate, t.object);
                (before, before)
            });
            entry.1 = matches!(op, MutationOp::Insert);
        }
        let mut inserts: Vec<Triple> = Vec::new();
        let mut removes: Vec<Triple> = Vec::new();
        for (t, (before, after)) in net {
            match (before, after) {
                (false, true) => inserts.push(t),
                (true, false) => removes.push(t),
                _ => {}
            }
        }
        inserts.sort_unstable();
        removes.sort_unstable();

        let mut outcome = MutationOutcome {
            inserted: inserts.len(),
            removed: removes.len(),
            compacted: false,
            delta: EdgeDelta::new(inserts.clone(), removes.clone()),
        };
        if inserts.is_empty() && removes.is_empty() && !needs_intern {
            // Nothing changed: no net triple transitions and no new labels
            // (a batch that interns a new label must still produce a new
            // version whose dictionary and store know the label).
            return (self.clone(), outcome);
        }

        let num_nodes = dictionary.node_count();
        let num_predicates = dictionary.predicate_count();
        let mut touched: Vec<PredId> = inserts
            .iter()
            .chain(removes.iter())
            .map(|t| t.predicate)
            .collect();
        touched.sort_unstable();
        touched.dedup();

        let store = match &self.store {
            Store::Delta(delta) => {
                let next = delta.with_mutation(num_predicates, &inserts, &removes);
                if next.delta_len() > 0 && next.delta_fraction() >= self.compaction_threshold {
                    outcome.compacted = true;
                    Store::Delta(next.compact(num_nodes))
                } else {
                    Store::Delta(next)
                }
            }
            Store::Csr(_) => {
                // Static backend: rebuild from the merged triple set.
                let mut edges = vec![Vec::new(); num_predicates];
                let removed: HashSet<Triple> = removes.iter().copied().collect();
                for t in self.triples() {
                    if !removed.contains(&t) {
                        edges[t.predicate.index()].push((t.subject, t.object));
                    }
                }
                for t in &inserts {
                    edges[t.predicate.index()].push((t.subject, t.object));
                }
                Store::Csr(CsrStore::build(num_nodes, edges))
            }
        };
        let catalog = self.catalog.refreshed(store.as_dyn(), &touched, num_nodes);
        (
            Graph {
                dictionary,
                num_nodes,
                store,
                catalog,
                compaction_threshold: self.compaction_threshold,
            },
            outcome,
        )
    }

    /// Re-indexes this graph's triples into a different storage backend,
    /// reusing the dictionary (identifiers stay stable) and keeping the
    /// configured compaction threshold. Returns `self` unchanged when the
    /// backend already matches.
    pub fn with_store(self, kind: StoreKind) -> Self {
        if self.store_kind() == kind {
            return self;
        }
        let mut edges = vec![Vec::new(); self.predicate_count()];
        for t in self.triples() {
            edges[t.predicate.index()].push((t.subject, t.object));
        }
        Graph::from_shared_parts(
            Arc::clone(&self.dictionary),
            self.num_nodes,
            edges,
            kind,
            self.compaction_threshold,
        )
    }

    /// The storage backend, as the backend-agnostic [`GraphStore`] view.
    pub fn store(&self) -> &dyn GraphStore {
        self.store.as_dyn()
    }

    /// Which storage backend this graph is indexed with.
    pub fn store_kind(&self) -> StoreKind {
        self.store().kind()
    }

    /// The string dictionary used to encode this graph.
    pub fn dictionary(&self) -> &Dictionary {
        self.dictionary.as_ref()
    }

    /// Number of distinct nodes.
    pub fn node_count(&self) -> usize {
        self.num_nodes
    }

    /// Number of distinct predicates (edge labels).
    pub fn predicate_count(&self) -> usize {
        self.store().num_predicates()
    }

    /// Number of distinct triples (labeled edges).
    pub fn triple_count(&self) -> usize {
        self.store().triple_count()
    }

    /// The statistics catalog (1-gram and 2-gram edge-label statistics).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All distinct `(subject, object)` pairs carrying predicate `p`, sorted
    /// (borrowed from the CSR backend; merged on read by a delta predicate
    /// with a pending overlay).
    pub fn pairs(&self, p: PredId) -> Cow<'_, [(NodeId, NodeId)]> {
        self.store().pairs(p)
    }

    /// Objects reachable from `s` over predicate `p`, ascending-sorted.
    #[inline]
    pub fn objects_of(&self, p: PredId, s: NodeId) -> &[NodeId] {
        match &self.store {
            Store::Csr(st) => st.objects_of(p, s),
            Store::Delta(st) => st.objects_of(p, s),
        }
    }

    /// Subjects reaching `o` over predicate `p`, ascending-sorted.
    #[inline]
    pub fn subjects_of(&self, p: PredId, o: NodeId) -> &[NodeId] {
        match &self.store {
            Store::Csr(st) => st.subjects_of(p, o),
            Store::Delta(st) => st.subjects_of(p, o),
        }
    }

    /// Whether the triple `(s, p, o)` is present.
    #[inline]
    pub fn has_triple(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        match &self.store {
            Store::Csr(st) => st.has_triple(s, p, o),
            Store::Delta(st) => st.has_triple(s, p, o),
        }
    }

    /// Out-degree of `s` under predicate `p`.
    #[inline]
    pub fn out_degree(&self, p: PredId, s: NodeId) -> usize {
        self.objects_of(p, s).len()
    }

    /// In-degree of `o` under predicate `p`.
    #[inline]
    pub fn in_degree(&self, p: PredId, o: NodeId) -> usize {
        self.subjects_of(p, o).len()
    }

    /// Number of edges carrying predicate `p`.
    pub fn predicate_cardinality(&self, p: PredId) -> usize {
        self.store().cardinality(p)
    }

    /// Iterates over every triple in the graph, grouped by predicate
    /// (borrowed, zero-copy iteration on the CSR backend; a delta predicate
    /// with a pending overlay merges its scan as it goes).
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.predicate_count()).flat_map(move |p| {
            let p = PredId(p as u32);
            let pairs = self.pairs(p);
            (0..pairs.len()).map(move |i| Triple::new(pairs[i].0, p, pairs[i].1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_builder() -> GraphBuilder {
        let mut b = GraphBuilder::new();
        b.add("a", "knows", "b");
        b.add("b", "knows", "c");
        b.add("a", "likes", "c");
        b.add("a", "knows", "b"); // duplicate
        b
    }

    /// Like [`sample_builder`], plus a neighbor that arrives after a larger
    /// one, so arrival order and sorted order differ.
    fn disordered_builder() -> GraphBuilder {
        let mut b = sample_builder();
        b.add("b", "knows", "a"); // arrives after b-knows-c but sorts before it
        b
    }

    fn sample() -> Graph {
        sample_builder().build()
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.predicate_count(), 2);
        assert_eq!(g.triple_count(), 3);
        assert_eq!(g.store_kind(), StoreKind::Csr, "CSR is the default");
    }

    #[test]
    fn lookups_by_label() {
        let g = sample();
        let knows = g.dictionary().predicate_id("knows").unwrap();
        let a = g.dictionary().node_id("a").unwrap();
        let b = g.dictionary().node_id("b").unwrap();
        assert_eq!(g.objects_of(knows, a), &[b]);
        assert!(g.has_triple(a, knows, b));
        assert_eq!(g.predicate_cardinality(knows), 2);
        assert_eq!(g.out_degree(knows, a), 1);
        assert_eq!(g.in_degree(knows, b), 1);
    }

    #[test]
    fn triples_iterator_covers_everything() {
        let g = sample();
        let all: Vec<_> = g.triples().collect();
        assert_eq!(all.len(), 3);
        assert!(all
            .iter()
            .all(|t| g.has_triple(t.subject, t.predicate, t.object)));
    }

    #[test]
    fn catalog_is_computed() {
        let g = sample();
        let knows = g.dictionary().predicate_id("knows").unwrap();
        assert_eq!(g.catalog().unigram(knows).cardinality, 2);
    }

    #[test]
    fn absent_edges() {
        let g = sample();
        let likes = g.dictionary().predicate_id("likes").unwrap();
        let b = g.dictionary().node_id("b").unwrap();
        let c = g.dictionary().node_id("c").unwrap();
        assert!(!g.has_triple(b, likes, c));
        assert_eq!(g.objects_of(likes, b), &[] as &[NodeId]);
        let _ = PredId(0);
    }

    #[test]
    fn store_kinds_parse_and_roundtrip() {
        assert_eq!(StoreKind::parse("csr"), Ok(StoreKind::Csr));
        assert_eq!(StoreKind::parse("delta"), Ok(StoreKind::Delta));
        assert_eq!(StoreKind::default(), StoreKind::Csr);
        for bad in ["btree", "map"] {
            let err = StoreKind::parse(bad).unwrap_err();
            assert!(
                err.contains(bad) && err.contains("csr") && err.contains("delta"),
                "{err}"
            );
        }
        for kind in [StoreKind::Csr, StoreKind::Delta] {
            assert_eq!(StoreKind::parse(kind.name()), Ok(kind));
        }
    }

    #[test]
    fn backends_answer_identically() {
        // CSR sorts at build time; the delta store merges the late edge into
        // its overlay at write time. Both must hand out the same sorted slices.
        let csr = disordered_builder().build_with_store(StoreKind::Csr);
        let (delta, _) = sample_builder()
            .build_with_store(StoreKind::Delta)
            .with_compaction_threshold(10.0)
            .apply(&Mutation::new().insert("b", "knows", "a"));
        assert_eq!(delta.store_kind(), StoreKind::Delta);
        assert_eq!(delta.delta_stats().map(|(edges, _)| edges), Some(1));
        assert_eq!(csr.triple_count(), delta.triple_count());
        let ascending = |slice: &[NodeId]| slice.windows(2).all(|w| w[0] < w[1]);
        for p in 0..csr.predicate_count() {
            let p = PredId(p as u32);
            assert_eq!(csr.pairs(p), delta.pairs(p));
            for node in 0..csr.node_count() {
                let node = NodeId(node as u32);
                for g in [&csr, &delta] {
                    assert!(ascending(g.objects_of(p, node)));
                    assert!(ascending(g.subjects_of(p, node)));
                }
                assert_eq!(csr.objects_of(p, node), delta.objects_of(p, node));
                assert_eq!(csr.subjects_of(p, node), delta.subjects_of(p, node));
            }
            assert_eq!(
                csr.catalog().unigram(p),
                delta.catalog().unigram(p),
                "statistics are layout-independent"
            );
        }
    }

    #[test]
    fn with_store_reindexes_in_place() {
        let g = sample();
        let dictionary_ptr = g.dictionary().node_id("a");
        let as_delta = g.clone().with_store(StoreKind::Delta);
        assert_eq!(as_delta.store_kind(), StoreKind::Delta);
        assert_eq!(as_delta.triple_count(), g.triple_count());
        assert_eq!(as_delta.dictionary().node_id("a"), dictionary_ptr);
        let back = as_delta.with_store(StoreKind::Csr);
        assert_eq!(back.store_kind(), StoreKind::Csr);
        assert_eq!(back.triple_count(), 3);
        // Same-kind conversion is the identity.
        assert_eq!(
            g.clone().with_store(StoreKind::Csr).store_kind(),
            StoreKind::Csr
        );
    }

    #[test]
    fn store_trait_view() {
        let g = sample();
        let store = g.store();
        assert_eq!(store.kind(), StoreKind::Csr);
        assert_eq!(store.triple_count(), 3);
        assert!(store.heap_bytes() > 0);
    }

    #[test]
    fn apply_mutates_every_backend_identically() {
        let mutation = Mutation::new()
            .insert("c", "knows", "a")
            .remove("a", "likes", "c")
            .insert("a", "admires", "d");
        for kind in [StoreKind::Csr, StoreKind::Delta] {
            let g = sample_builder().build_with_store(kind);
            let (next, outcome) = g.apply(&mutation);
            assert_eq!(outcome.inserted, 2, "{kind:?}");
            assert_eq!(outcome.removed, 1, "{kind:?}");
            assert_eq!(next.store_kind(), kind);
            assert_eq!(next.triple_count(), 4, "{kind:?}");
            assert_eq!(next.node_count(), 4, "new node d interned");
            assert_eq!(next.predicate_count(), 3, "new predicate admires");
            let d = next.dictionary();
            let knows = d.predicate_id("knows").unwrap();
            let likes = d.predicate_id("likes").unwrap();
            let admires = d.predicate_id("admires").unwrap();
            let (a, c) = (d.node_id("a").unwrap(), d.node_id("c").unwrap());
            assert!(next.has_triple(c, knows, a), "{kind:?}");
            assert!(!next.has_triple(a, likes, c), "{kind:?}");
            assert_eq!(next.predicate_cardinality(admires), 1);
            assert_eq!(
                next.catalog().unigram(knows).cardinality,
                3,
                "{kind:?}: catalog refreshed for touched predicates"
            );
            // The original version is untouched.
            assert_eq!(g.triple_count(), 3);
            assert!(g.has_triple(a, likes, c));
        }
    }

    #[test]
    fn apply_reports_the_net_edge_delta() {
        let mutation = Mutation::new()
            .insert("c", "knows", "a")
            .remove("a", "likes", "c")
            .insert("a", "knows", "b") // already present: absent from the delta
            .insert("a", "admires", "d");
        let g = sample_builder().build_with_store(StoreKind::Delta);
        let (next, outcome) = g.apply(&mutation);
        let d = next.dictionary();
        let knows = d.predicate_id("knows").unwrap();
        let likes = d.predicate_id("likes").unwrap();
        let admires = d.predicate_id("admires").unwrap();
        let node = |l: &str| d.node_id(l).unwrap();
        assert_eq!(outcome.delta.len(), 3);
        assert_eq!(
            outcome.delta.inserted_for(knows),
            &[Triple::new(node("c"), knows, node("a"))]
        );
        assert_eq!(
            outcome.delta.inserted_for(admires),
            &[Triple::new(node("a"), admires, node("d"))]
        );
        assert_eq!(
            outcome.delta.removed_for(likes),
            &[Triple::new(node("a"), likes, node("c"))]
        );
        assert_eq!(outcome.delta.removed_for(knows), &[] as &[Triple]);
        let mut preds = outcome.delta.predicates();
        preds.sort_unstable();
        assert_eq!(preds, {
            let mut expected = vec![knows, likes, admires];
            expected.sort_unstable();
            expected
        });
        // The counters and the delta can never drift apart.
        assert_eq!(outcome.inserted, outcome.delta.inserted().len());
        assert_eq!(outcome.removed, outcome.delta.removed().len());
    }

    #[test]
    fn apply_has_set_semantics_and_resolves_in_order() {
        let g = sample_builder().build_with_store(StoreKind::Delta);
        let noop = Mutation::new()
            .insert("a", "knows", "b") // already present
            .remove("zz", "knows", "zz"); // never present (new labels intern)
        let (next, outcome) = g.apply(&noop);
        assert_eq!((outcome.inserted, outcome.removed), (0, 0));
        assert_eq!(next.triple_count(), 3);
        assert_eq!(next.node_count(), 4, "labels intern even on no-op ops");

        // Remove-then-insert within one batch leaves the triple present and
        // counts as neither an insert nor a removal (it was present before).
        let churn = Mutation::new()
            .remove("a", "knows", "b")
            .insert("a", "knows", "b");
        let (next, outcome) = g.apply(&churn);
        assert_eq!((outcome.inserted, outcome.removed), (0, 0));
        let d = next.dictionary();
        assert!(next.has_triple(
            d.node_id("a").unwrap(),
            d.predicate_id("knows").unwrap(),
            d.node_id("b").unwrap()
        ));
    }

    #[test]
    fn apply_shares_the_dictionary_unless_labels_are_new() {
        let g = sample_builder().build_with_store(StoreKind::Delta);
        // Known labels only: the dictionary Arc is shared across versions.
        let (next, _) = g.apply(&Mutation::new().insert("c", "knows", "a"));
        assert!(std::ptr::eq(g.dictionary(), next.dictionary()));
        // A new label forces a (one-time) extended copy.
        let (extended, _) = next.apply(&Mutation::new().insert("c", "knows", "zz"));
        assert!(!std::ptr::eq(next.dictionary(), extended.dictionary()));
        assert_eq!(extended.node_count(), 4);

        // An all-no-op batch that interns a new *predicate* label still
        // produces a version that knows the label (index entry included).
        let (noop, outcome) = g.apply(&Mutation::new().remove("a", "admires", "b"));
        assert_eq!((outcome.inserted, outcome.removed), (0, 0));
        let admires = noop.dictionary().predicate_id("admires").unwrap();
        assert_eq!(noop.predicate_cardinality(admires), 0);
        assert_eq!(noop.predicate_count(), 3);
    }

    #[test]
    fn with_store_keeps_the_compaction_threshold_and_shares_the_dictionary() {
        let g = sample().with_compaction_threshold(0.0);
        let delta = g.clone().with_store(StoreKind::Delta);
        assert_eq!(delta.compaction_threshold(), 0.0, "threshold survives");
        assert!(std::ptr::eq(g.dictionary(), delta.dictionary()));
        let (_, outcome) = delta.apply(&Mutation::new().insert("a", "knows", "c"));
        assert!(outcome.compacted, "the preserved 0.0 threshold compacts");
    }

    #[test]
    fn delta_compaction_respects_the_threshold() {
        let g = sample_builder()
            .build_with_store(StoreKind::Delta)
            .with_compaction_threshold(10.0);
        assert_eq!(g.delta_stats(), Some((0, 0.0)));
        assert!(sample().delta_stats().is_none(), "csr has no overlay");

        let (grown, outcome) = g.apply(&Mutation::new().insert("x", "knows", "y"));
        assert!(!outcome.compacted, "threshold 10.0 never compacts here");
        let (pending, fraction) = grown.delta_stats().unwrap();
        assert_eq!(pending, 1);
        assert!(fraction > 0.0);
        // Integer gauge forms track the float stats.
        assert_eq!(grown.overlay_edges(), 1);
        assert_eq!(
            grown.overlay_fraction_ppm(),
            (fraction * 1e6).round() as u64
        );
        assert!(grown.overlay_fraction_ppm() > 0);
        assert_eq!(sample().overlay_edges(), 0, "csr gauges read zero");
        assert_eq!(sample().overlay_fraction_ppm(), 0);

        let eager = grown.with_compaction_threshold(0.0);
        assert_eq!(eager.compaction_threshold(), 0.0);
        let (compacted, outcome) = eager.apply(&Mutation::new().insert("x", "knows", "z"));
        assert!(outcome.compacted, "threshold 0.0 compacts every batch");
        assert_eq!(compacted.delta_stats(), Some((0, 0.0)));
        assert_eq!(compacted.triple_count(), 5);
    }
}
