//! Criterion (shim) micro-benchmark of CSR store construction: build time
//! per dataset size, plus a bytes-per-edge report so index memory cost is
//! tracked alongside query latency.
//!
//! Build cost matters because the `Session` facade re-indexes graphs on
//! `--store` switches and because bulk loads gate serving start-up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use wireframe_bench::{build_dataset, DatasetSize};
use wireframe_graph::{CsrStore, GraphStore, NodeId, PredId};

/// Extracts the raw per-predicate edge lists from a built graph, so every
/// iteration builds from identical inputs.
fn raw_edges(graph: &wireframe_graph::Graph) -> (usize, Vec<Vec<(NodeId, NodeId)>>) {
    let mut edges = vec![Vec::new(); graph.predicate_count()];
    for p in 0..graph.predicate_count() {
        let p = PredId(p as u32);
        edges[p.index()] = graph.pairs(p).into_owned();
    }
    (graph.node_count(), edges)
}

fn bench_store_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    for size in [DatasetSize::Tiny, DatasetSize::Small] {
        let graph = build_dataset(size);
        let (num_nodes, edges) = raw_edges(&graph);
        let triples = graph.triple_count().max(1);

        group.bench_with_input(BenchmarkId::new("csr", size.name()), &edges, |b, edges| {
            b.iter(|| CsrStore::build(num_nodes, edges.clone()).triple_count())
        });

        // Bytes-per-edge report (not timed — a space figure to track).
        let csr = CsrStore::build(num_nodes, edges);
        println!(
            "store_build/bytes_per_edge/csr/{}: {:.1} B/edge ({} bytes / {} edges)",
            size.name(),
            csr.heap_bytes() as f64 / triples as f64,
            csr.heap_bytes(),
            triples,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_store_build);
criterion_main!(benches);
