//! Construction of immutable [`Graph`]s.
//!
//! The builder accepts triples either as strings (interning them on the fly)
//! or as already-encoded identifiers, then freezes them into the indexed,
//! statistics-annotated [`Graph`].

use crate::dictionary::Dictionary;
use crate::ids::{NodeId, PredId, Triple};
use crate::store::{Graph, StoreKind};

/// Accumulates triples and builds an immutable [`Graph`].
///
/// # Dedup contract
///
/// Ingestion has **set semantics**, identically on every storage backend: a
/// triple added `n` times is stored once, [`Graph::triple_count`] counts
/// distinct triples, and every access path ([`Graph::pairs`],
/// [`Graph::objects_of`], degrees, statistics) sees each distinct triple
/// exactly once. Only the pre-freeze [`GraphBuilder::pending_triples`]
/// counter observes duplicates. The same semantics extend to the dynamic
/// path: [`Graph::apply`](crate::store::Graph::apply) treats re-inserting a
/// present triple and removing an absent one as no-ops. The
/// `duplicate_ingestion_is_set_semantics_on_every_store` test pins the
/// contract across all [`StoreKind`]s.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    dictionary: Dictionary,
    /// Raw edge lists grouped by predicate identifier.
    edges_by_predicate: Vec<Vec<(NodeId, NodeId)>>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that reuses an existing dictionary (useful when the
    /// caller wants stable identifiers across several graphs).
    pub fn with_dictionary(dictionary: Dictionary) -> Self {
        let edges_by_predicate = vec![Vec::new(); dictionary.predicate_count()];
        GraphBuilder {
            dictionary,
            edges_by_predicate,
        }
    }

    /// Adds a triple given as strings, interning the labels.
    pub fn add(&mut self, subject: &str, predicate: &str, object: &str) -> Triple {
        let s = self.dictionary.intern_node(subject);
        let p = self.dictionary.intern_predicate(predicate);
        let o = self.dictionary.intern_node(object);
        self.add_encoded(s, p, o);
        Triple::new(s, p, o)
    }

    /// Adds an already dictionary-encoded triple. The identifiers must have
    /// been produced by this builder's dictionary.
    pub fn add_encoded(&mut self, subject: NodeId, predicate: PredId, object: NodeId) {
        if self.edges_by_predicate.len() <= predicate.index() {
            self.edges_by_predicate
                .resize(predicate.index() + 1, Vec::new());
        }
        self.edges_by_predicate[predicate.index()].push((subject, object));
    }

    /// Interns a node label without adding any edge (e.g. for isolated nodes
    /// or to pre-allocate identifiers).
    pub fn intern_node(&mut self, label: &str) -> NodeId {
        self.dictionary.intern_node(label)
    }

    /// Interns a predicate label without adding any edge.
    pub fn intern_predicate(&mut self, label: &str) -> PredId {
        self.dictionary.intern_predicate(label)
    }

    /// Read access to the dictionary being built.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Number of triples added so far (duplicates included).
    pub fn pending_triples(&self) -> usize {
        self.edges_by_predicate.iter().map(Vec::len).sum()
    }

    /// Freezes the accumulated triples into an indexed [`Graph`] using the
    /// default storage backend ([`StoreKind::Csr`]).
    /// Duplicate triples are removed (see the dedup contract in the type
    /// docs); statistics are computed.
    pub fn build(self) -> Graph {
        self.build_with_store(StoreKind::default())
    }

    /// Freezes the accumulated triples into an indexed [`Graph`] using the
    /// given storage backend.
    pub fn build_with_store(mut self, kind: StoreKind) -> Graph {
        // Every interned predicate gets an index, even if it has no edges,
        // so that predicate identifiers always address a store entry safely.
        let num_predicates = self.dictionary.predicate_count();
        if self.edges_by_predicate.len() < num_predicates {
            self.edges_by_predicate.resize(num_predicates, Vec::new());
        }
        let num_nodes = self.dictionary.node_count();
        Graph::from_parts(self.dictionary, num_nodes, self.edges_by_predicate, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.predicate_count(), 0);
        assert_eq!(g.triple_count(), 0);
    }

    #[test]
    fn add_returns_encoded_triple() {
        let mut b = GraphBuilder::new();
        let t = b.add("x", "p", "y");
        assert_eq!(t.subject, NodeId(0));
        assert_eq!(t.predicate, PredId(0));
        assert_eq!(t.object, NodeId(1));
    }

    #[test]
    fn predicate_without_edges_gets_an_index() {
        let mut b = GraphBuilder::new();
        b.intern_predicate("unused");
        b.add("x", "p", "y");
        let g = b.build();
        assert_eq!(g.predicate_count(), 2);
        let unused = g.dictionary().predicate_id("unused").unwrap();
        assert_eq!(g.predicate_cardinality(unused), 0);
    }

    #[test]
    fn encoded_and_string_insertion_agree() {
        let mut b = GraphBuilder::new();
        let s = b.intern_node("s");
        let p = b.intern_predicate("p");
        let o = b.intern_node("o");
        b.add_encoded(s, p, o);
        b.add("s", "p", "o2");
        let g = b.build();
        assert_eq!(g.triple_count(), 2);
        assert!(g.has_triple(s, p, o));
    }

    #[test]
    fn pending_triples_counts_duplicates() {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        b.add("a", "p", "b");
        assert_eq!(b.pending_triples(), 2);
        let g = b.build();
        assert_eq!(g.triple_count(), 1);
    }

    #[test]
    fn duplicate_ingestion_is_set_semantics_on_every_store() {
        for kind in [StoreKind::Csr, StoreKind::Delta] {
            let mut b = GraphBuilder::new();
            for _ in 0..3 {
                b.add("a", "p", "b");
                b.add("b", "q", "c");
            }
            b.add("a", "p", "c");
            assert_eq!(b.pending_triples(), 7, "pre-freeze count sees duplicates");
            let g = b.build_with_store(kind);
            assert_eq!(g.triple_count(), 3, "{kind:?}");
            let d = g.dictionary();
            let p = d.predicate_id("p").unwrap();
            let a = d.node_id("a").unwrap();
            assert_eq!(g.predicate_cardinality(p), 2, "{kind:?}");
            assert_eq!(g.out_degree(p, a), 2, "{kind:?}");
            assert_eq!(g.pairs(p).len(), 2, "{kind:?}");
            assert_eq!(g.catalog().unigram(p).cardinality, 2, "{kind:?}");
        }
    }

    #[test]
    fn with_dictionary_preserves_ids() {
        let mut b1 = GraphBuilder::new();
        b1.add("a", "p", "b");
        let g1 = b1.build();
        let mut b2 = GraphBuilder::with_dictionary(g1.dictionary().clone());
        b2.add("b", "p", "c");
        let g2 = b2.build();
        assert_eq!(
            g1.dictionary().node_id("b"),
            g2.dictionary().node_id("b"),
            "shared dictionary keeps identifiers stable"
        );
    }

    #[test]
    fn isolated_nodes_count() {
        let mut b = GraphBuilder::new();
        b.intern_node("lonely");
        b.add("a", "p", "b");
        let g = b.build();
        assert_eq!(g.node_count(), 3);
    }
}
