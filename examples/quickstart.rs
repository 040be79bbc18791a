//! Quickstart: load a small graph into a [`wireframe::Session`], run a
//! conjunctive query, and compare every registered engine through the uniform
//! `Engine` API.
//!
//! Run with `cargo run --example quickstart`.

use wireframe::graph::GraphBuilder;
use wireframe::{QueryExecutor, Session};

fn main() {
    // A tiny movie graph: people act in movies, movies have creation dates.
    let mut b = GraphBuilder::new();
    for (person, movie) in [
        ("alice", "heat"),
        ("bob", "heat"),
        ("carol", "heat"),
        ("alice", "ronin"),
        ("dave", "ronin"),
    ] {
        b.add(person, "actedIn", movie);
    }
    b.add("heat", "wasCreatedOnDate", "1995");
    b.add("ronin", "wasCreatedOnDate", "1998");
    b.add("alice", "influences", "bob");
    b.add("alice", "influences", "carol");

    let mut session = Session::new(b.build());
    println!(
        "graph: {} nodes, {} predicates, {} triples",
        session.graph().node_count(),
        session.graph().predicate_count(),
        session.graph().triple_count()
    );

    // Who influences an actor, in which movie, created when?
    let sparql = "SELECT ?x ?y ?m ?d WHERE { ?x :influences ?y . ?y :actedIn ?m . ?m :wasCreatedOnDate ?d . }";
    println!("\nquery: {sparql}");

    // One call: parse → plan → execute on the factorized engine.
    let wf = session.query(sparql).expect("query evaluates");
    let factorized = wf.factorized.as_ref().expect("wireframe factorizes");
    println!("\n— wireframe (answer-graph evaluation) —");
    println!("plan (edge order):         {:?}", factorized.plan_order);
    println!("edge walks (phase 1):      {}", factorized.edge_walks);
    println!(
        "answer-graph edges |AG|:   {}",
        factorized.answer_graph_edges
    );
    println!("embeddings |J CQ K_G|:     {}", wf.embedding_count());

    // The same query on every registered engine — one loop, no dispatch tree.
    println!("\n— all registered engines —");
    let names: Vec<&str> = session.registry().names();
    for name in names {
        session.set_engine(name).expect("registered engine");
        let ev = session.query(sparql).expect("query evaluates");
        assert!(wf.embeddings().same_answer(ev.embeddings()));
        println!(
            "{:<12} {:>3} embeddings in {:?} (factorized: {})",
            ev.engine,
            ev.embedding_count(),
            ev.timings.total(),
            ev.factorized.is_some(),
        );
    }

    // Re-running a query hits the prepared-plan cache.
    session.set_engine("wireframe").expect("registered engine");
    session.query(sparql).expect("query evaluates");
    let stats = session.stats();
    println!(
        "\nprepared-query cache: {} hits, {} misses",
        stats.cache_hits, stats.cache_misses
    );

    println!("\nthe {} embeddings:", wf.embedding_count());
    let graph = session.graph();
    let dict = graph.dictionary();
    for row in wf.embeddings().rows().take(10) {
        let labels: Vec<&str> = row
            .iter()
            .map(|n| dict.node_label(*n).unwrap_or("?"))
            .collect();
        println!("  {labels:?}");
    }
}
