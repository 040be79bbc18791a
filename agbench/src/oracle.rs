//! Reference answers from the independent `relational` engine, and the
//! checks every read is held to. Nothing here is timed into an
//! end-to-end metric.

use std::time::{Duration, Instant};

use wireframe::graph::Graph;
use wireframe::query::{parse_query, EmbeddingSet};
use wireframe::{default_registry, EngineConfig, Evaluation};

use crate::dataset::QuerySpec;
use crate::stats::digest;

/// Rows a bounded read asks for.
pub const TOPK: usize = 16;
/// Rows kept as an evenly spaced sample of each reference answer.
const SAMPLE: usize = 64;

/// The reference answer of one query.
pub struct Reference {
    pub rows: usize,
    pub digest: u64,
    /// The canonical first [`TOPK`] rows.
    pub first: EmbeddingSet,
    /// Up to [`SAMPLE`] rows spread evenly over the canonical form (columns
    /// in variable order); mixed-wire writes recombine them.
    pub sample: EmbeddingSet,
    /// Wall time of the reference evaluation (reused for Table 1).
    pub elapsed: Duration,
}

/// Evaluates every query with the `relational` engine over `graph`.
pub fn references(graph: &Graph, queries: &[QuerySpec]) -> Result<Vec<Reference>, String> {
    let registry = default_registry();
    let engine = registry
        .build("relational", graph, &EngineConfig::default())
        .map_err(|e| format!("relational engine: {e}"))?;
    queries
        .iter()
        .map(|q| {
            let query =
                parse_query(&q.text, graph.dictionary()).map_err(|e| format!("{}: {e}", q.name))?;
            let started = Instant::now();
            let ev = engine.run(&query).map_err(|e| format!("{}: {e}", q.name))?;
            let elapsed = started.elapsed();
            let canonical = ev.embeddings().canonicalize();
            let step = (canonical.len() / SAMPLE).max(1);
            let data: Vec<_> = canonical
                .rows()
                .step_by(step)
                .take(SAMPLE)
                .flat_map(|row| row.iter().copied())
                .collect();
            let arity = canonical.schema().len().max(1);
            let len = data.len() / arity;
            Ok(Reference {
                rows: ev.embedding_count(),
                digest: digest(ev.embeddings()),
                first: ev.embeddings().canonical_prefix(TOPK),
                sample: EmbeddingSet::from_flat_rows(canonical.schema().to_vec(), data, len),
                elapsed,
            })
        })
        .collect()
}

/// Checks one read against its reference: an unbounded read by row count
/// and digest, a bounded one row-for-row against the canonical prefix.
pub fn check(
    name: &str,
    limit: usize,
    ev: &Evaluation,
    reference: &Reference,
) -> Result<(), String> {
    let got = ev.embeddings();
    if limit == 0 {
        if got.len() != reference.rows {
            return Err(format!(
                "{name}: {} rows, reference has {}",
                got.len(),
                reference.rows
            ));
        }
        if digest(got) != reference.digest {
            return Err(format!("{name}: row digest differs from the reference"));
        }
        return Ok(());
    }
    check_prefix(name, got, &reference.first)
}

/// Bounded answers must be the reference's canonical first rows, in order.
fn check_prefix(name: &str, got: &EmbeddingSet, first: &EmbeddingSet) -> Result<(), String> {
    if got.schema() != first.schema() {
        return Err(format!("{name}: bounded answer has another column order"));
    }
    if got.len() != first.len() || got.flat_data() != first.flat_data() {
        return Err(format!(
            "{name}: bounded answer is not the canonical first {} rows",
            first.len()
        ));
    }
    Ok(())
}
