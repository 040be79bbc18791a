//! Top-k prefix equivalence: the maintained defactorized prefix of a
//! retained view must be **bit-identical** to the first k rows of a fresh
//! full defactorization under the canonical row order — after every seeded
//! mutation batch, on every storage backend, for both engine families.
//!
//! Matrix: {csr, delta} × {wireframe `MaterializedQuery`, wco
//! `WcoView`} × 4 seeded mutation batches per seed. Delta graphs force a
//! compaction cycle on even seeds and stay on the pure overlay on odd
//! seeds, so prefix maintenance sees both store shapes. Wireframe views
//! carry a primed prefix and serve `O(k)`; wco views do not support
//! prefixes, so they exercise the fallback contract (full defactorization +
//! canonical truncation, same first-k bytes, `prefix_served: false`).
//!
//! The maintenance counters double as path coverage: across the matrix the
//! passes must report at least one underflow refill, and a deterministic
//! insert flood at the end must push one view over the churn threshold into
//! a full-re-enumeration fallback.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wireframe::api::{Engine, MaintainedView};
use wireframe::core::{MaterializedQuery, WcoEngine, WcoView, WireframeEngine};
use wireframe::graph::{Graph, GraphBuilder, Mutation, NodeId, PredId, StoreKind};
use wireframe::query::templates::cycle;
use wireframe::query::{ConjunctiveQuery, CqBuilder, EmbeddingSet};

const LABELS: [&str; 5] = ["A", "B", "C", "D", "E"];
const SEEDS: u64 = 10;
const BATCHES: u64 = 4;
const K: usize = 3;

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

/// A seeded mutation batch: 40% removals of live triples, the rest
/// insertions over the known labels (occasionally onto a brand-new node).
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

fn chain(graph: &Graph, labels: &[&str]) -> ConjunctiveQuery {
    let mut qb = CqBuilder::new(graph.dictionary());
    for (i, l) in labels.iter().enumerate() {
        qb.pattern(&format!("?v{i}"), l, &format!("?v{}", i + 1))
            .unwrap();
    }
    qb.build().unwrap()
}

fn star(graph: &Graph, labels: &[&str]) -> ConjunctiveQuery {
    let mut qb = CqBuilder::new(graph.dictionary());
    for (i, l) in labels.iter().enumerate() {
        qb.pattern("?hub", l, &format!("?leaf{i}")).unwrap();
    }
    qb.build().unwrap()
}

/// Asserts that a view's bounded evaluation equals the canonical first `k`
/// rows of `fresh` byte for byte, and that the `LimitInfo` stamp tells the
/// truth about the serving path.
fn assert_first_k_matches(
    view: &dyn MaintainedView,
    fresh: &EmbeddingSet,
    k: usize,
    context: &str,
) {
    let expect = fresh.canonical_prefix(k);
    let served = view.evaluate_limited(k).unwrap();
    assert_eq!(
        served.embeddings.schema(),
        expect.schema(),
        "{context}: projection schema"
    );
    assert_eq!(
        served.embeddings.flat_data(),
        expect.flat_data(),
        "{context}: first-{k} rows must be bit-identical to fresh evaluation"
    );
    let info = served.limited.expect("bounded evaluations carry LimitInfo");
    assert_eq!(info.limit, k, "{context}");
    assert_eq!(
        info.prefix_served,
        view.can_prefix_serve(k),
        "{context}: the serving-path stamp matches the prefix state"
    );
    assert_eq!(
        info.truncated,
        fresh.len() > k,
        "{context}: truncation reflects the full answer size"
    );
}

#[test]
fn maintained_prefixes_equal_fresh_first_k_on_every_store_and_engine() {
    let mut total_refills = 0usize;
    let mut total_fallbacks = 0usize;

    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x70_9C + seed);
        let edges = gen_edges(&mut rng);
        for kind in [StoreKind::Csr, StoreKind::Delta] {
            let mut graph = build(&edges, kind);
            if kind == StoreKind::Delta {
                // Even seeds force compaction cycles mid-churn; odd seeds
                // keep the pure overlay path.
                let threshold = if seed % 2 == 0 { 0.01 } else { 1e9 };
                graph = graph.with_compaction_threshold(threshold);
            }

            // Wireframe lane: acyclic full-projection views with primed
            // top-k prefixes (chains and a star).
            let wf_queries = vec![
                chain(&graph, &["A", "B"]),
                chain(&graph, &["C", "D", "E"]),
                star(&graph, &["A", "C"]),
            ];
            let mut wf_views: Vec<MaterializedQuery> = wf_queries
                .iter()
                .map(|q| {
                    let mut view = WireframeEngine::new(&graph).execute(q).unwrap().into_view();
                    assert!(
                        MaintainedView::prime_prefix(&mut view, K),
                        "seed {seed} {kind:?}: full-projection acyclic views support prefixes"
                    );
                    view
                })
                .collect();

            // Wco lane: cyclic views, no prefix support — bounded reads
            // must fall back to full defactorization + canonical cut.
            let wco_queries = vec![
                cycle(graph.dictionary(), &["A", "B", "C"]).unwrap(),
                cycle(graph.dictionary(), &["D", "E"]).unwrap(),
            ];
            let mut wco_views: Vec<WcoView> = wco_queries
                .iter()
                .map(|q| {
                    let wco = WcoEngine::new(&graph);
                    let plan = wco.plan(q).unwrap();
                    let (mut view, _) = wco.materialize_query(q, &plan);
                    assert!(
                        !MaintainedView::prime_prefix(&mut view, K),
                        "seed {seed} {kind:?}: wco views do not retain prefixes"
                    );
                    view
                })
                .collect();

            let mut fresh_tag = 0usize;
            for batch_no in 0..BATCHES {
                let mutation = random_batch(&graph, &mut rng, 30, &mut fresh_tag);
                let (next, outcome) = graph.apply(&mutation);
                graph = next;
                let epoch = batch_no + 1;

                for (view, query) in wf_views.iter_mut().zip(&wf_queries) {
                    let stats = MaintainedView::maintain(view, &graph, &outcome.delta, epoch);
                    total_refills += stats.prefix_refills;
                    total_fallbacks += stats.prefix_fallbacks;
                    let fresh = WireframeEngine::new(&graph).execute(query).unwrap();
                    assert_first_k_matches(
                        view,
                        fresh.embeddings(),
                        K,
                        &format!("seed {seed} {kind:?} batch {batch_no} wireframe"),
                    );
                }
                for (view, query) in wco_views.iter_mut().zip(&wco_queries) {
                    MaintainedView::maintain(view, &graph, &outcome.delta, epoch);
                    let fresh = WcoEngine::new(&graph).run(query).unwrap();
                    assert!(
                        !view.can_prefix_serve(K),
                        "seed {seed} {kind:?}: wco stays prefix-free under churn"
                    );
                    assert_first_k_matches(
                        view,
                        fresh.embeddings(),
                        K,
                        &format!("seed {seed} {kind:?} batch {batch_no} wco"),
                    );
                }
            }
        }
    }

    // Path coverage: the seeded churn (40% removals against k-row prefixes
    // of larger answers) must underflow at least one prefix into a refill.
    assert!(
        total_refills > 0,
        "the matrix must exercise the underflow-refill path"
    );
    // Fallbacks are likelier on dense seeds but not guaranteed by random
    // churn alone — the deterministic flood below pins that path down.
    let _ = total_fallbacks;
}

/// An insert flood larger than the fallback churn threshold must abandon
/// incremental prefix maintenance for one full re-enumeration — and the
/// prefix must still match fresh evaluation afterwards.
#[test]
fn an_insert_flood_forces_the_prefix_fallback_path() {
    for kind in [StoreKind::Csr, StoreKind::Delta] {
        let mut graph = build(&[(0, 0, 1), (1, 1, 2)], kind);
        let query = chain(&graph, &["A", "B"]);
        let mut view = WireframeEngine::new(&graph)
            .execute(&query)
            .unwrap()
            .into_view();
        assert!(MaterializedQuery::prime_prefix(&mut view, K));

        // 90 A-edges onto the existing B-source: every insert lands in the
        // view's answer graph, far past max(64, |AG|/4).
        let mut mutation = Mutation::new();
        for i in 0..90 {
            mutation = mutation.insert(&format!("flood{i}"), "A", "n1");
        }
        let (next, outcome) = graph.apply(&mutation);
        graph = next;
        let stats = MaterializedQuery::maintain(&mut view, &graph, &outcome.delta, 1);
        assert!(
            stats.prefix_fallbacks >= 1,
            "{kind:?}: {} answer-edge churn must trigger the fallback",
            stats.edges_added + stats.edges_removed
        );

        let fresh = WireframeEngine::new(&graph).execute(&query).unwrap();
        assert_first_k_matches(
            &view,
            fresh.embeddings(),
            K,
            &format!("{kind:?} post-flood"),
        );
        assert!(view.can_prefix_serve(K), "the fallback re-warms the prefix");
    }
}
