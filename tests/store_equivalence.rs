//! Storage-backend equivalence: the CSR and delta stores must match an
//! independent reference and each other — same neighbor sets, same
//! membership answers, same statistics, and byte-identical evaluation
//! results across the full engine registry × workload matrix.
//!
//! Three layers of coverage:
//!
//! 1. A property test over random graphs (seeded shim PRNG, like
//!    `property_equivalence.rs`): every `GraphStore` access path of both
//!    backends agrees with a naive scan over the generated triple set, and
//!    every neighbor slice is strictly ascending (the store contract the
//!    evaluators' binary searches and galloping intersections rely on).
//! 2. A **churn** property test: after seeded random insert/remove batches
//!    (with and without forced compaction cycles), a mutated delta graph
//!    must match the naive scan over the batches' set-semantics result and
//!    a fresh CSR build of the final triple set on every access path and
//!    statistic, with its neighbor slices still strictly ascending.
//! 3. The full registry × workload matrix on the benchmark dataset family:
//!    every engine returns the same answer on both stores — including
//!    after seeded churn with at least one compaction — with identical
//!    embedding counts and (for the wireframe engine) identical answer-graph
//!    sizes.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wireframe::datagen::{full_workload, generate, YagoConfig};
use wireframe::graph::{
    Graph, GraphBuilder, Mutation, MutationOp, NodeId, PredId, StoreKind, UnigramStats,
};
use wireframe::Session;

const LABELS: [&str; 5] = ["A", "B", "C", "D", "E"];
const CASES: u64 = 32;

fn gen_edges(rng: &mut SmallRng) -> Vec<(u32, usize, u32)> {
    let nodes = rng.gen_range(2..40u32);
    let edges = rng.gen_range(1..200usize);
    (0..edges)
        .map(|_| {
            (
                rng.gen_range(0..nodes),
                rng.gen_range(0..LABELS.len()),
                rng.gen_range(0..nodes),
            )
        })
        .collect()
}

fn build(edges: &[(u32, usize, u32)], kind: StoreKind) -> Graph {
    let mut b = GraphBuilder::new();
    for l in LABELS {
        b.intern_predicate(l);
    }
    for &(s, p, o) in edges {
        b.add(&format!("n{s}"), LABELS[p], &format!("n{o}"));
    }
    b.build_with_store(kind)
}

/// A triple set by label: the independent reference the stores are checked
/// against. It knows nothing of dense identifiers, indexes or overlays.
type Oracle = BTreeSet<(String, String, String)>;

fn oracle_of(edges: &[(u32, usize, u32)]) -> Oracle {
    edges
        .iter()
        .map(|&(s, p, o)| (format!("n{s}"), LABELS[p].to_owned(), format!("n{o}")))
        .collect()
}

/// Applies a mutation batch to the reference in order, with set semantics.
fn apply_to_oracle(oracle: &mut Oracle, mutation: &Mutation) {
    for (op, s, p, o) in mutation.ops() {
        let t = (s.clone(), p.clone(), o.clone());
        match op {
            MutationOp::Insert => oracle.insert(t),
            MutationOp::Remove => oracle.remove(&t),
        };
    }
}

fn strictly_ascending(slice: &[NodeId]) -> bool {
    slice.windows(2).all(|w| w[0] < w[1])
}

/// Checks every access path and statistic of `graph` against a naive scan
/// over `oracle`, and that every neighbor slice is strictly ascending.
fn assert_matches_oracle(graph: &Graph, oracle: &Oracle, context: &str) {
    let d = graph.dictionary();
    let triples: Vec<(NodeId, PredId, NodeId)> = oracle
        .iter()
        .map(|(s, p, o)| {
            (
                d.node_id(s).unwrap(),
                d.predicate_id(p).unwrap(),
                d.node_id(o).unwrap(),
            )
        })
        .collect();
    assert_eq!(graph.triple_count(), triples.len(), "{context}");
    let nodes = graph.node_count() as u32;
    for p in 0..graph.predicate_count() {
        let p = PredId(p as u32);
        let mut pairs: Vec<(NodeId, NodeId)> = triples
            .iter()
            .filter(|t| t.1 == p)
            .map(|&(s, _, o)| (s, o))
            .collect();
        pairs.sort_unstable();
        assert_eq!(graph.predicate_cardinality(p), pairs.len(), "{context}");
        assert_eq!(graph.pairs(p).as_ref(), pairs.as_slice(), "{context}");

        // Per-node adjacency, degrees and membership, including
        // out-of-range probes.
        let (mut max_out, mut max_in) = (0, 0);
        for n in (0..nodes + 2).map(NodeId) {
            let objects: Vec<NodeId> = pairs.iter().filter(|e| e.0 == n).map(|e| e.1).collect();
            let mut subjects: Vec<NodeId> =
                pairs.iter().filter(|e| e.1 == n).map(|e| e.0).collect();
            subjects.sort_unstable();
            assert!(strictly_ascending(graph.objects_of(p, n)), "{context}");
            assert!(strictly_ascending(graph.subjects_of(p, n)), "{context}");
            assert_eq!(graph.objects_of(p, n), objects.as_slice(), "{context}");
            assert_eq!(graph.subjects_of(p, n), subjects.as_slice(), "{context}");
            assert_eq!(graph.out_degree(p, n), objects.len(), "{context}");
            assert_eq!(graph.in_degree(p, n), subjects.len(), "{context}");
            for o in (0..nodes + 2).map(NodeId) {
                assert_eq!(
                    graph.has_triple(n, p, o),
                    pairs.binary_search(&(n, o)).is_ok(),
                    "{context}"
                );
            }
            max_out = max_out.max(objects.len());
            max_in = max_in.max(subjects.len());
        }

        // The statistics catalog (which the planners read).
        let distinct = |end: fn(&(NodeId, NodeId)) -> NodeId| {
            pairs.iter().map(end).collect::<BTreeSet<_>>().len()
        };
        let expected = UnigramStats {
            cardinality: pairs.len(),
            distinct_subjects: distinct(|e| e.0),
            distinct_objects: distinct(|e| e.1),
            max_out_degree: max_out,
            max_in_degree: max_in,
        };
        assert_eq!(graph.catalog().unigram(p), expected, "{context}");
    }
}

#[test]
fn stores_expose_identical_access_paths_on_random_graphs() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x57AB + seed);
        let edges = gen_edges(&mut rng);
        let oracle = oracle_of(&edges);
        let csr = build(&edges, StoreKind::Csr);
        let delta = build(&edges, StoreKind::Delta);
        // Re-indexing round-trips.
        let back = delta.clone().with_store(StoreKind::Csr);
        for (name, graph) in [("csr", csr), ("delta", delta), ("re-indexed", back)] {
            assert_matches_oracle(&graph, &oracle, &format!("seed {seed} {name}"));
        }
    }
}

/// Runs the full registry × workload matrix over a list of graphs that hold
/// the same triples (sharing one dictionary) and asserts identical answers
/// everywhere.
fn assert_matrix_agrees(graphs: &[(&str, Arc<Graph>)], context: &str) {
    let workload = full_workload(&graphs[0].1).unwrap();
    let mut sessions: Vec<(&str, Session)> = graphs
        .iter()
        .map(|(name, g)| (*name, Session::shared(Arc::clone(g))))
        .collect();
    let engines: Vec<&str> = sessions[0].1.registry().names();
    for engine in engines {
        for (_, session) in &mut sessions {
            session.set_engine(engine).unwrap();
        }
        for bq in &workload {
            let reference = sessions[0].1.execute(&bq.query).unwrap();
            for (store_name, session) in &sessions[1..] {
                let answer = session.execute(&bq.query).unwrap();
                assert_eq!(
                    reference.embedding_count(),
                    answer.embedding_count(),
                    "{context}: {engine}/{} embedding counts differ on {store_name}",
                    bq.name
                );
                assert_eq!(
                    reference.answer_graph_size(),
                    answer.answer_graph_size(),
                    "{context}: {engine}/{} |AG| differs on {store_name}",
                    bq.name
                );
                assert!(
                    reference.embeddings().same_answer(answer.embeddings()),
                    "{context}: {engine}/{} answers differ on {store_name}",
                    bq.name
                );
            }
        }
    }
}

#[test]
fn every_engine_answers_identically_on_every_store() {
    let csr = Arc::new(generate(&YagoConfig::tiny()).with_store(StoreKind::Csr));
    let delta = Arc::new(generate(&YagoConfig::tiny()).with_store(StoreKind::Delta));
    assert_eq!(delta.store_kind(), StoreKind::Delta);
    assert_matrix_agrees(&[("csr", csr), ("delta", delta)], "static matrix");
}

/// A seeded mutation batch over the graph's current triples: removals sample
/// live triples, insertions mix revived/fresh edges over the known labels
/// (plus the occasional brand-new node).
fn random_batch(graph: &Graph, rng: &mut SmallRng, size: usize, fresh_tag: &mut usize) -> Mutation {
    let dict = graph.dictionary();
    let live: Vec<_> = graph.triples().collect();
    let mut mutation = Mutation::new();
    for _ in 0..size {
        if !live.is_empty() && rng.gen_range(0..10u32) < 4 {
            let t = live[rng.gen_range(0..live.len())];
            mutation = mutation.remove(
                dict.node_label(t.subject).unwrap(),
                dict.predicate_label(t.predicate).unwrap(),
                dict.node_label(t.object).unwrap(),
            );
        } else {
            let p = rng.gen_range(0..graph.predicate_count());
            let p = dict.predicate_label(PredId(p as u32)).unwrap().to_owned();
            let s = if rng.gen_range(0..8u32) == 0 {
                *fresh_tag += 1;
                format!("fresh{fresh_tag}")
            } else {
                dict.node_label(NodeId(rng.gen_range(0..graph.node_count() as u32)))
                    .unwrap()
                    .to_owned()
            };
            let o = dict
                .node_label(NodeId(rng.gen_range(0..graph.node_count() as u32)))
                .unwrap()
                .to_owned();
            mutation = mutation.insert(&s, &p, &o);
        }
    }
    mutation
}

/// Rebuilds the graph's final triple set on another backend, reusing the
/// dictionary so identifiers (and therefore answers) stay comparable.
fn rebuild_as(graph: &Graph, kind: StoreKind) -> Graph {
    let mut b = GraphBuilder::with_dictionary(graph.dictionary().clone());
    for t in graph.triples() {
        b.add_encoded(t.subject, t.predicate, t.object);
    }
    b.build_with_store(kind)
}

#[test]
fn delta_store_equals_a_fresh_csr_after_seeded_churn() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC4A2 + seed);
        let edges = gen_edges(&mut rng);
        // Even seeds compact eagerly (every batch crosses the threshold);
        // odd seeds never compact, so the overlay path itself is exercised.
        let threshold = if seed % 2 == 0 { 0.01 } else { 1e9 };
        let mut delta = build(&edges, StoreKind::Delta).with_compaction_threshold(threshold);
        let mut oracle = oracle_of(&edges);
        let mut compactions = 0usize;
        let mut fresh_tag = 0usize;
        for _ in 0..4 {
            let mutation = random_batch(&delta, &mut rng, 30, &mut fresh_tag);
            apply_to_oracle(&mut oracle, &mutation);
            let (next, outcome) = delta.apply(&mutation);
            compactions += outcome.compacted as usize;
            delta = next;
        }
        if seed % 2 == 0 {
            assert!(compactions >= 1, "seed {seed}: eager threshold compacts");
        } else {
            assert_eq!(compactions, 0, "seed {seed}: huge threshold never does");
        }

        // The mutated delta graph must match the naive scan over the
        // batches' result, with every neighbor slice strictly ascending...
        assert_matches_oracle(&delta, &oracle, &format!("seed {seed} after churn"));

        // ...and equal a fresh CSR build of the final triple set on every
        // access path and statistic.
        let fresh = rebuild_as(&delta, StoreKind::Csr);
        assert_eq!(delta.triple_count(), fresh.triple_count(), "seed {seed}");
        assert_eq!(delta.node_count(), fresh.node_count(), "seed {seed}");
        for p in 0..fresh.predicate_count() {
            let p = PredId(p as u32);
            assert_eq!(
                delta.predicate_cardinality(p),
                fresh.predicate_cardinality(p),
                "seed {seed}"
            );
            assert_eq!(delta.pairs(p), fresh.pairs(p), "seed {seed}");
            assert_eq!(
                delta.catalog().unigram(p),
                fresh.catalog().unigram(p),
                "seed {seed}: exact statistics after churn"
            );
            for n in 0..fresh.node_count() as u32 + 2 {
                let n = NodeId(n);
                assert_eq!(
                    delta.objects_of(p, n),
                    fresh.objects_of(p, n),
                    "seed {seed}"
                );
                assert_eq!(
                    delta.subjects_of(p, n),
                    fresh.subjects_of(p, n),
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn registry_workload_matrix_agrees_on_every_store_after_churn() {
    let mut delta = generate(&YagoConfig::tiny())
        .with_store(StoreKind::Delta)
        .with_compaction_threshold(0.01);
    let mut rng = SmallRng::seed_from_u64(0xD31A);
    let mut compactions = 0usize;
    let mut fresh_tag = 0usize;
    for _ in 0..5 {
        let mutation = random_batch(&delta, &mut rng, 60, &mut fresh_tag);
        let (next, outcome) = delta.apply(&mutation);
        compactions += outcome.compacted as usize;
        delta = next;
    }
    assert!(compactions >= 1, "the churn includes a compaction cycle");

    let csr = Arc::new(rebuild_as(&delta, StoreKind::Csr));
    assert_matrix_agrees(
        &[("csr", csr), ("delta", Arc::new(delta))],
        "post-churn matrix",
    );
}

/// The incremental-maintenance equivalence property: after **every** seeded
/// mutation batch, a maintained `MaterializedQuery`'s answer graph — pattern
/// edges, variable node sets, *and* the embeddings defactorized from it —
/// must be identical to a from-scratch evaluation on the mutated graph.
/// Exercised on both storage backends; on the delta store both with a
/// forced compaction cycle (even seeds) and on the pure-overlay path (odd
/// seeds).
#[test]
fn maintained_views_equal_fresh_evaluation_on_every_store() {
    use wireframe::core::{MaterializedQuery, WireframeEngine};
    use wireframe::query::{ConjunctiveQuery, CqBuilder};

    fn chain(graph: &Graph, labels: &[&str]) -> ConjunctiveQuery {
        let mut qb = CqBuilder::new(graph.dictionary());
        for (i, l) in labels.iter().enumerate() {
            qb.pattern(&format!("?v{i}"), l, &format!("?v{}", i + 1))
                .unwrap();
        }
        qb.build().unwrap()
    }

    fn two_cycle(graph: &Graph) -> ConjunctiveQuery {
        let mut qb = CqBuilder::new(graph.dictionary());
        qb.pattern("?a", "A", "?b").unwrap();
        qb.pattern("?b", "B", "?a").unwrap();
        qb.build().unwrap()
    }

    fn assert_view_matches_fresh(
        view: &MaterializedQuery,
        graph: &Graph,
        query: &ConjunctiveQuery,
        context: &str,
    ) {
        let fresh = WireframeEngine::new(graph).execute(query).unwrap();
        for q in 0..query.num_patterns() {
            let mut maintained: Vec<_> = view.answer_graph().pattern(q).iter().collect();
            let mut scratch: Vec<_> = fresh.answer_graph().pattern(q).iter().collect();
            maintained.sort_unstable();
            scratch.sort_unstable();
            assert_eq!(maintained, scratch, "{context}: pattern {q} edges");
        }
        for v in query.variables() {
            assert_eq!(
                view.answer_graph().node_set(v).to_sorted_vec(),
                fresh.answer_graph().node_set(v).to_sorted_vec(),
                "{context}: node set of {v:?}"
            );
        }
        let (embeddings, _) = view.defactorize().unwrap();
        assert_eq!(
            embeddings.len(),
            fresh.embedding_count(),
            "{context}: embedding counts"
        );
        assert!(
            embeddings.same_answer(fresh.embeddings()),
            "{context}: defactorized embeddings"
        );
    }

    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0x11A1 + seed);
        let edges = gen_edges(&mut rng);
        for kind in [StoreKind::Csr, StoreKind::Delta] {
            let mut graph = build(&edges, kind);
            if kind == StoreKind::Delta {
                // Even seeds force a compaction cycle mid-churn; odd seeds
                // stay on the overlay, so maintenance sees both shapes.
                let threshold = if seed % 2 == 0 { 0.01 } else { 1e9 };
                graph = graph.with_compaction_threshold(threshold);
            }
            let queries = vec![
                chain(&graph, &["A", "B"]),
                chain(&graph, &["C", "D", "E"]),
                two_cycle(&graph),
            ];
            let mut views: Vec<MaterializedQuery> = queries
                .iter()
                .map(|q| WireframeEngine::new(&graph).execute(q).unwrap().into_view())
                .collect();

            let mut fresh_tag = 0usize;
            let mut compactions = 0usize;
            for batch_no in 0..4u64 {
                let mutation = random_batch(&graph, &mut rng, 25, &mut fresh_tag);
                let (next, outcome) = graph.apply(&mutation);
                compactions += outcome.compacted as usize;
                graph = next;
                for (view, query) in views.iter_mut().zip(&queries) {
                    view.maintain(&graph, &outcome.delta, batch_no + 1);
                    assert_eq!(view.epoch(), batch_no + 1);
                    assert_view_matches_fresh(
                        view,
                        &graph,
                        query,
                        &format!("seed {seed} {kind:?} batch {batch_no}"),
                    );
                }
            }
            if kind == StoreKind::Delta && seed % 2 == 0 {
                assert!(
                    compactions >= 1,
                    "seed {seed}: maintenance must survive a forced compaction"
                );
            }
        }
    }
}

/// The worst-case-optimal engine's acceptance property on cyclic shapes:
/// on triangles and directed 4-cycles, its embeddings are bit-identical to
/// the triangulating wireframe configuration on every storage backend, and
/// a maintained [`wireframe::core::WcoView`] keeps that equality after
/// every seeded mutation batch (compared against both a fresh wco run and
/// fresh triangulation on the mutated graph).
#[test]
fn wco_matches_triangulation_on_cyclic_shapes_and_survives_churn() {
    use wireframe::api::Engine;
    use wireframe::core::{EvalOptions, WcoEngine, WcoView, WireframeEngine};
    use wireframe::query::templates::cycle;

    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0x77C0 + seed);
        let edges = gen_edges(&mut rng);
        for kind in [StoreKind::Csr, StoreKind::Delta] {
            let mut graph = build(&edges, kind);
            let queries = vec![
                cycle(graph.dictionary(), &["A", "B", "C"]).unwrap(),
                cycle(graph.dictionary(), &["A", "B", "C", "D"]).unwrap(),
            ];

            let triangulated = |graph: &Graph, q: &_| {
                WireframeEngine::with_options(graph, EvalOptions::default().with_edge_burnback())
                    .execute(q)
                    .unwrap()
            };

            let mut views: Vec<WcoView> = Vec::new();
            for q in &queries {
                let wco = WcoEngine::new(&graph);
                let plan = wco.plan(q).unwrap();
                let (view, _) = wco.materialize_query(q, &plan);
                let (embeddings, _) = view.defactorize().unwrap();
                let reference = triangulated(&graph, q);
                assert_eq!(
                    embeddings.len(),
                    reference.embedding_count(),
                    "seed {seed} {kind:?}: wco vs triangulation counts pre-churn"
                );
                assert!(
                    embeddings.same_answer(reference.embeddings()),
                    "seed {seed} {kind:?}: wco vs triangulation pre-churn"
                );
                views.push(view);
            }

            let mut fresh_tag = 0usize;
            for batch_no in 0..4u64 {
                let mutation = random_batch(&graph, &mut rng, 25, &mut fresh_tag);
                let (next, outcome) = graph.apply(&mutation);
                graph = next;
                for (view, q) in views.iter_mut().zip(&queries) {
                    view.maintain(&graph, &outcome.delta, batch_no + 1);
                    let (maintained, _) = view.defactorize().unwrap();
                    let fresh = WcoEngine::new(&graph).run(q).unwrap();
                    assert!(
                        maintained.same_answer(fresh.embeddings()),
                        "seed {seed} {kind:?} batch {batch_no}: \
                         maintained wco view vs fresh wco run"
                    );
                    let reference = triangulated(&graph, q);
                    assert!(
                        maintained.same_answer(reference.embeddings()),
                        "seed {seed} {kind:?} batch {batch_no}: \
                         maintained wco view vs fresh triangulation"
                    );
                }
            }
        }
    }
}

#[test]
fn random_queries_agree_across_stores_through_the_wireframe_engine() {
    use wireframe::baseline::RelationalEngine;
    use wireframe::core::WireframeEngine;
    use wireframe::query::CqBuilder;

    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC5A + seed);
        let edges = gen_edges(&mut rng);
        let csr = build(&edges, StoreKind::Csr);
        let delta = build(&edges, StoreKind::Delta);

        // A random connected chain query over the label alphabet.
        let len = rng.gen_range(1..4usize);
        let mut qb = CqBuilder::new(csr.dictionary());
        for i in 0..len {
            let l = LABELS[rng.gen_range(0..LABELS.len())];
            qb.pattern(&format!("?v{i}"), l, &format!("?v{}", i + 1))
                .unwrap();
        }
        let q = qb.build().unwrap();

        // The independent reference: pairwise hash joins, which never rely
        // on sorted adjacency.
        let reference = RelationalEngine::new(&csr).evaluate(&q).unwrap();
        let on_csr = WireframeEngine::new(&csr).execute(&q).unwrap();
        let on_delta = WireframeEngine::new(&delta).execute(&q).unwrap();
        assert_eq!(on_csr.embedding_count(), reference.len(), "seed {seed}");
        assert!(on_csr.embeddings().same_answer(&reference), "seed {seed}");
        assert_eq!(
            on_csr.answer_graph_size(),
            on_delta.answer_graph_size(),
            "seed {seed}"
        );
        assert!(on_delta.embeddings().same_answer(&reference), "seed {seed}");
    }
}
