//! Phase two: embedding generation (defactorization).
//!
//! Embeddings are produced by joining the answer graph's per-query-edge edge
//! sets. Over the *ideal* answer graph of an acyclic query no intermediate
//! tuple is ever lost, so the join order is immaterial (Section 4.II of the
//! paper); over a non-ideal AG or a cyclic query the order matters for cost,
//! so a greedy plan driven by the exact per-edge counts gathered in phase one
//! is used.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::time::Instant;

use wireframe_graph::slices::contains_sorted;
use wireframe_graph::NodeId;
use wireframe_query::{ConjunctiveQuery, EmbeddingSet, Term, Var};

use crate::answer_graph::{AnswerGraph, PatternEdges};
use crate::error::EngineError;

/// A sorted-slice join index over one pattern's answer edges: CSR-style
/// `keys`/`offsets`/`values` arrays in both directions, snapshotted once per
/// defactorization from the (hash-map-backed, mutation-friendly)
/// [`PatternEdges`] and then probed once per intermediate tuple. Joining
/// against sorted contiguous arrays replaces a hash lookup per tuple with a
/// binary search over cache-resident memory, and makes the enumeration order
/// deterministic.
#[derive(Debug)]
pub(crate) struct JoinIndex {
    /// Distinct `(subject, object)` pairs, sorted — the scan path.
    pairs: Vec<(NodeId, NodeId)>,
    fwd_keys: Vec<NodeId>,
    fwd_offsets: Vec<u32>,
    fwd_values: Vec<NodeId>,
    rev_keys: Vec<NodeId>,
    rev_offsets: Vec<u32>,
    rev_values: Vec<NodeId>,
}

/// Groups sorted `(key, value)` pairs into `keys`/`offsets`/`values` arrays.
fn group_sorted(pairs: &[(NodeId, NodeId)]) -> (Vec<NodeId>, Vec<u32>, Vec<NodeId>) {
    let mut keys = Vec::new();
    let mut offsets: Vec<u32> = Vec::new();
    let mut values = Vec::with_capacity(pairs.len());
    for &(k, v) in pairs {
        if keys.last() != Some(&k) {
            keys.push(k);
            offsets.push(values.len() as u32);
        }
        values.push(v);
    }
    offsets.push(values.len() as u32);
    (keys, offsets, values)
}

impl JoinIndex {
    fn build(edges: &PatternEdges) -> Self {
        let mut pairs: Vec<(NodeId, NodeId)> = edges.iter().collect();
        pairs.sort_unstable();
        let (fwd_keys, fwd_offsets, fwd_values) = group_sorted(&pairs);
        let mut reversed: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
        reversed.sort_unstable();
        let (rev_keys, rev_offsets, rev_values) = group_sorted(&reversed);
        JoinIndex {
            pairs,
            fwd_keys,
            fwd_offsets,
            fwd_values,
            rev_keys,
            rev_offsets,
            rev_values,
        }
    }

    #[inline]
    fn slice<'a>(
        keys: &[NodeId],
        offsets: &[u32],
        values: &'a [NodeId],
        key: NodeId,
    ) -> &'a [NodeId] {
        match keys.binary_search(&key) {
            Ok(i) => &values[offsets[i] as usize..offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Objects matched with subject `s` (ascending-sorted).
    #[inline]
    fn objects_of(&self, s: NodeId) -> &[NodeId] {
        Self::slice(&self.fwd_keys, &self.fwd_offsets, &self.fwd_values, s)
    }

    /// Subjects matched with object `o` (ascending-sorted).
    #[inline]
    fn subjects_of(&self, o: NodeId) -> &[NodeId] {
        Self::slice(&self.rev_keys, &self.rev_offsets, &self.rev_values, o)
    }

    #[inline]
    fn contains(&self, s: NodeId, o: NodeId) -> bool {
        contains_sorted(self.objects_of(s), o)
    }
}

/// One join index per pattern of `query`, snapshotted from `ag`.
fn build_indexes(query: &ConjunctiveQuery, ag: &AnswerGraph) -> Vec<JoinIndex> {
    (0..query.num_patterns())
        .map(|q| JoinIndex::build(ag.pattern(q)))
        .collect()
}

/// Statistics of the defactorization phase.
#[derive(Debug, Clone, Default)]
pub struct DefactorizationStats {
    /// Join order over the query edges (pattern indexes).
    pub join_order: Vec<usize>,
    /// Largest intermediate relation produced while joining.
    pub peak_intermediate: usize,
    /// Number of embedding tuples produced (before projection).
    pub embeddings: usize,
    /// CPU time summed across workers (index building + joining). Equals
    /// the phase's wall-clock on the sequential path; exceeds it when
    /// [`defactorize_parallel`] ran workers concurrently.
    pub cpu: std::time::Duration,
}

/// Chooses a join order for phase two: connected, smallest answer-edge set
/// first (greedy on the exact statistics the answer graph provides).
pub fn embedding_plan(query: &ConjunctiveQuery, ag: &AnswerGraph) -> Vec<usize> {
    pinned_embedding_plan(query, ag, None)
}

/// [`embedding_plan`], optionally with pattern `first` pinned as the start
/// (the seed pattern of a [`SeedEnumerator`], bound to one pair, so visiting
/// it first bounds every intermediate).
#[allow(clippy::needless_range_loop)] // `i` is the pattern id being chosen
fn pinned_embedding_plan(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    first: Option<usize>,
) -> Vec<usize> {
    let n = query.num_patterns();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    if let Some(first) = first {
        used[first] = true;
        order.push(first);
    }
    while order.len() < n {
        let mut best: Option<usize> = None;
        for i in 0..n {
            if used[i] {
                continue;
            }
            let connected = order.is_empty()
                || query.patterns()[i].variables().any(|v| {
                    order
                        .iter()
                        .any(|&j: &usize| query.patterns()[j].mentions(v))
                });
            if !connected {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => ag.edge_count(i) < ag.edge_count(b),
            };
            if better {
                best = Some(i);
            }
        }
        // A disconnected remainder can only happen for disconnected queries,
        // which the engine rejects earlier; fall back to any unused pattern.
        let pick = best.unwrap_or_else(|| (0..n).find(|&i| !used[i]).expect("pattern left"));
        used[pick] = true;
        order.push(pick);
    }
    order
}

/// Generates the embeddings of `query` from its answer graph by joining the
/// answer edges in `order` (typically produced by [`embedding_plan`]).
///
/// The result's schema contains every query variable in index order; use
/// [`EmbeddingSet::project`] for the SELECT list.
pub fn defactorize(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    order: &[usize],
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    if order.len() != query.num_patterns() {
        return Err(EngineError::Internal(
            "embedding plan does not cover every query edge".into(),
        ));
    }
    let busy = Instant::now();
    let indexes = build_indexes(query, ag);
    let seeds = indexes[order[0]].pairs.len();
    let (set, mut stats) = defactorize_indexed(query, &indexes, order, 0..seeds)?;
    stats.cpu = busy.elapsed();
    Ok((set, stats))
}

/// Below this many seed pairs per worker, [`defactorize_parallel`] stays
/// sequential: thread startup would dominate.
const MIN_SEEDS_PER_THREAD: usize = 64;

/// The machine's available parallelism, capped at 8 (defactorization is
/// memory-bound).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// Generates the embeddings of `query` from `ag` on up to `threads` workers
/// (`0` = [`auto_threads`]) in the [`embedding_plan`] order, returning the
/// full (unprojected) embedding set and merged statistics.
///
/// Each worker joins one contiguous slice of the first pattern's sorted
/// pairs against the shared join indexes. Every embedding uses exactly one
/// seed pair, so the slices partition the answer, and their rows
/// concatenate to exactly the sequential [`defactorize`] output.
/// `peak_intermediate` is the maximum over the workers. Small inputs take
/// the sequential path.
pub fn defactorize_parallel(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    threads: usize,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let threads = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    defactorize_split(query, ag, threads, MIN_SEEDS_PER_THREAD)
}

/// [`defactorize_parallel`] with an explicit per-worker seed threshold.
fn defactorize_split(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    threads: usize,
    min_seeds_per_thread: usize,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let order = embedding_plan(query, ag);
    let seeds = ag.edge_count(order[0]);
    if threads <= 1 || seeds < min_seeds_per_thread * 2 {
        return defactorize(query, ag, &order);
    }
    let busy = Instant::now();
    let indexes = build_indexes(query, ag);
    let build = busy.elapsed();

    let chunk = seeds.div_ceil(threads);
    let (indexes, order_ref) = (&indexes, &order);
    let parts: Vec<(EmbeddingSet, DefactorizationStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..seeds)
            .step_by(chunk)
            .map(|start| {
                scope.spawn(move || {
                    let busy = Instant::now();
                    let range = start..(start + chunk).min(seeds);
                    let (set, mut stats) = defactorize_indexed(query, indexes, order_ref, range)?;
                    stats.cpu = busy.elapsed();
                    Ok((set, stats))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| EngineError::Internal("worker thread panicked".into()))?
            })
            .collect::<Result<_, EngineError>>()
    })?;

    // Busy time sums the index build and every worker, so it exceeds the
    // wall-clock the caller measures once workers overlap.
    let mut stats = DefactorizationStats {
        join_order: order,
        cpu: build,
        ..DefactorizationStats::default()
    };
    let mut merged = EmbeddingSet::empty(query.variables().collect());
    for (part, part_stats) in parts {
        stats.peak_intermediate = stats.peak_intermediate.max(part_stats.peak_intermediate);
        stats.embeddings += part_stats.embeddings;
        stats.cpu += part_stats.cpu;
        // Flat row-major concatenation: one memcpy per partition.
        merged.append(&part);
    }
    Ok((merged, stats))
}

/// Phase two of a retained view: [`defactorize_parallel`] on `threads`
/// workers, projected onto the SELECT list.
pub(crate) fn defactorize_projected(
    query: &ConjunctiveQuery,
    ag: &AnswerGraph,
    threads: usize,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let (full, stats) = defactorize_parallel(query, ag, threads)?;
    let embeddings = full.into_projected_set(query).ok_or_else(|| {
        EngineError::Internal("projection referenced a variable missing from the result".into())
    })?;
    Ok((embeddings, stats))
}

/// The phase-two join loop — the only one in the crate. Joins the patterns'
/// indexes in `order`, with the first step scanning only `seeds`, a range
/// of the first pattern's sorted pairs: the full range for [`defactorize`],
/// one contiguous slice per worker for [`defactorize_parallel`], one pair
/// for [`SeedEnumerator::rows_through`]. Rows come out grouped by seed pair
/// in pair order, so adjacent ranges concatenate to the rows of their union.
fn defactorize_indexed(
    query: &ConjunctiveQuery,
    indexes: &[JoinIndex],
    order: &[usize],
    seeds: Range<usize>,
) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
    let mut stats = DefactorizationStats {
        join_order: order.to_vec(),
        ..DefactorizationStats::default()
    };

    // Bound variables so far -> column index in the intermediate tuples.
    let mut columns: HashMap<Var, usize> = HashMap::new();
    // Intermediate tuples in one flat arena: `count` rows of `arity` columns
    // each, concatenated in `data`. An extension step memcpys the parent row
    // and appends the new binding — no per-tuple allocation, which is where
    // the materializing defactorizer used to spend most of its time.
    let mut arity = 0usize;
    let mut count = 1usize; // the empty tuple
    let mut data: Vec<NodeId> = Vec::new();

    for (step, &q) in order.iter().enumerate() {
        let pattern = query.patterns()[q];
        let edges = &indexes[q];
        // Scans of unbound patterns; the first step scans only the seeds.
        let scan = if step == 0 {
            &edges.pairs[seeds.clone()]
        } else {
            &edges.pairs[..]
        };
        let s_col = pattern
            .subject
            .as_var()
            .and_then(|v| columns.get(&v).copied());
        let o_col = pattern
            .object
            .as_var()
            .and_then(|v| columns.get(&v).copied());

        let mut next_arity = arity;
        let mut next: Vec<NodeId> = Vec::with_capacity(data.len());
        let mut next_count = 0usize;

        match (pattern.subject, pattern.object) {
            // Self-loop on one variable.
            (Term::Var(a), Term::Var(b)) if a == b => {
                if let Some(col) = s_col {
                    for i in 0..count {
                        let t = &data[i * arity..(i + 1) * arity];
                        if edges.contains(t[col], t[col]) {
                            next.extend_from_slice(t);
                            next_count += 1;
                        }
                    }
                } else {
                    let new_col = columns.len();
                    columns.insert(a, new_col);
                    next_arity = arity + 1;
                    for i in 0..count {
                        let t = &data[i * arity..(i + 1) * arity];
                        for &(s, o) in scan {
                            if s == o {
                                next.extend_from_slice(t);
                                next.push(s);
                                next_count += 1;
                            }
                        }
                    }
                }
            }
            _ => {
                match (s_col, o_col) {
                    (Some(sc), Some(oc)) => {
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            if edges
                                .contains(bind(t, sc, pattern.subject), bind(t, oc, pattern.object))
                            {
                                next.extend_from_slice(t);
                                next_count += 1;
                            }
                        }
                    }
                    (Some(sc), None) => {
                        let new_col = pattern.object.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        if new_col.is_some() {
                            next_arity = arity + 1;
                        }
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            let s = bind(t, sc, pattern.subject);
                            for &o in edges.objects_of(s) {
                                if admits(pattern.object, o) {
                                    next.extend_from_slice(t);
                                    if new_col.is_some() {
                                        next.push(o);
                                    }
                                    next_count += 1;
                                }
                            }
                        }
                    }
                    (None, Some(oc)) => {
                        let new_col = pattern.subject.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        if new_col.is_some() {
                            next_arity = arity + 1;
                        }
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            let o = bind(t, oc, pattern.object);
                            for &s in edges.subjects_of(o) {
                                if admits(pattern.subject, s) {
                                    next.extend_from_slice(t);
                                    if new_col.is_some() {
                                        next.push(s);
                                    }
                                    next_count += 1;
                                }
                            }
                        }
                    }
                    (None, None) => {
                        // Neither end bound yet: constants and/or fresh variables.
                        let s_new = pattern.subject.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        let o_new = pattern.object.as_var().map(|v| {
                            let c = columns.len();
                            columns.insert(v, c);
                            c
                        });
                        next_arity =
                            arity + usize::from(s_new.is_some()) + usize::from(o_new.is_some());
                        for i in 0..count {
                            let t = &data[i * arity..(i + 1) * arity];
                            for &(s, o) in scan {
                                if !admits(pattern.subject, s) || !admits(pattern.object, o) {
                                    continue;
                                }
                                next.extend_from_slice(t);
                                if s_new.is_some() {
                                    next.push(s);
                                }
                                if o_new.is_some() {
                                    next.push(o);
                                }
                                next_count += 1;
                            }
                        }
                    }
                }
            }
        }

        arity = next_arity;
        data = next;
        count = next_count;
        stats.peak_intermediate = stats.peak_intermediate.max(count);
        if count == 0 {
            break;
        }
    }

    // Assemble the full schema: every query variable, in variable-index order.
    // Variables that never got a column (possible only if every pattern
    // mentioning them matched nothing) only occur when the result is empty.
    // The output stays one flat row-major buffer end to end.
    let schema: Vec<Var> = query.variables().collect();
    let mut out: Vec<NodeId> = Vec::with_capacity(count * schema.len());
    if count > 0 {
        let mut col_of: Vec<usize> = Vec::with_capacity(query.num_vars());
        for v in query.variables() {
            match columns.get(&v) {
                Some(&c) => col_of.push(c),
                None => {
                    return Err(EngineError::Internal(
                        "a query variable was never bound during defactorization".into(),
                    ))
                }
            }
        }
        if arity == col_of.len() && col_of.iter().enumerate().all(|(i, &c)| c == i) {
            // Columns were bound in variable-index order: the arena already
            // is the answer — move it, no gather pass.
            out = data;
        } else {
            for i in 0..count {
                let t = &data[i * arity..(i + 1) * arity];
                out.extend(col_of.iter().map(|&c| t[c]));
            }
        }
        stats.embeddings = count;
    }
    // The explicit row count matters for fully ground queries (zero-arity
    // schema): `count` empty tuples are still answers.
    Ok((EmbeddingSet::from_flat_rows(schema, out, count), stats))
}

/// Enumerates only the embeddings that pass **through one specific answer
/// edge** — the primitive behind incremental top-k prefix maintenance: an
/// inserted AG edge can only contribute rows that use it, so instead of
/// re-defactorizing everything, the maintainer seeds the join with the
/// single new pair and extends outward.
///
/// Built once per maintenance pass (the per-pattern indexes and the join
/// order of each seed pattern are shared across all seed edges of the
/// pass), then probed once per inserted edge.
#[derive(Debug)]
pub(crate) struct SeedEnumerator {
    indexes: Vec<JoinIndex>,
    /// `orders[q]`: the [`embedding_plan`] order with pattern `q` pinned first.
    orders: Vec<Vec<usize>>,
}

impl SeedEnumerator {
    /// Snapshots the current answer graph into join indexes.
    pub(crate) fn new(query: &ConjunctiveQuery, ag: &AnswerGraph) -> Self {
        SeedEnumerator {
            indexes: build_indexes(query, ag),
            orders: (0..query.num_patterns())
                .map(|q| pinned_embedding_plan(query, ag, Some(q)))
                .collect(),
        }
    }

    /// All embeddings whose binding of pattern `seed` is exactly the answer
    /// edge `(s, o)`. The schema is every query variable in index order
    /// (same as [`defactorize`]); project before comparing to an answer.
    /// An edge absent from the answer graph has no embeddings.
    pub(crate) fn rows_through(
        &self,
        query: &ConjunctiveQuery,
        seed: usize,
        s: NodeId,
        o: NodeId,
    ) -> Result<EmbeddingSet, EngineError> {
        let pairs = &self.indexes[seed].pairs;
        let range = match pairs.binary_search(&(s, o)) {
            Ok(i) => i..i + 1,
            Err(i) => i..i,
        };
        defactorize_indexed(query, &self.indexes, &self.orders[seed], range).map(|(set, _)| set)
    }
}

fn bind(tuple: &[NodeId], col: usize, term: Term) -> NodeId {
    match term {
        Term::Const(c) => c,
        Term::Var(_) => tuple[col],
    }
}

fn admits(term: Term, n: NodeId) -> bool {
    match term {
        Term::Const(c) => c == n,
        Term::Var(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalOptions;
    use crate::generate::generate;
    use wireframe_graph::{Graph, GraphBuilder};
    use wireframe_query::CqBuilder;

    fn figure1_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "5");
        b.add("2", "A", "5");
        b.add("3", "A", "5");
        b.add("4", "A", "6");
        b.add("5", "B", "9");
        b.add("7", "B", "10");
        b.add("9", "C", "12");
        b.add("9", "C", "13");
        b.add("9", "C", "14");
        b.add("9", "C", "15");
        b.add("11", "C", "15");
        b.build()
    }

    fn chain_query(g: &Graph) -> ConjunctiveQuery {
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?w", "A", "?x").unwrap();
        qb.pattern("?x", "B", "?y").unwrap();
        qb.pattern("?y", "C", "?z").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn figure1_has_twelve_embeddings_from_eight_edges() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        assert_eq!(ag.total_edges(), 8);
        let order = embedding_plan(&q, &ag);
        let (emb, stats) = defactorize(&q, &ag, &order).unwrap();
        assert_eq!(
            emb.len(),
            12,
            "the paper's Figure 1 reports twelve embedding tuples"
        );
        assert_eq!(stats.embeddings, 12);
        assert!(stats.peak_intermediate >= 12);
    }

    #[test]
    fn join_order_is_immaterial_over_the_ideal_ag() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let (a, _) = defactorize(&q, &ag, &[0, 1, 2]).unwrap();
        let (b, _) = defactorize(&q, &ag, &[2, 1, 0]).unwrap();
        let (c, _) = defactorize(&q, &ag, &[1, 0, 2]).unwrap();
        assert!(a.same_answer(&b));
        assert!(a.same_answer(&c));
    }

    #[test]
    fn embedding_plan_starts_from_smallest_pattern() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let order = embedding_plan(&q, &ag);
        assert_eq!(
            order[0], 1,
            "the single B answer edge is the cheapest start"
        );
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn constants_are_enforced() {
        let g = figure1_graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?w", "A", "5").unwrap();
        qb.pattern("5", "B", "?y").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0, 1], &EvalOptions::default()).unwrap();
        let order = embedding_plan(&q, &ag);
        let (emb, _) = defactorize(&q, &ag, &order).unwrap();
        assert_eq!(
            emb.len(),
            3,
            "three subjects reach node 5; node 5 has one B edge"
        );
        assert_eq!(emb.schema().len(), 2);
    }

    #[test]
    fn empty_answer_graph_yields_no_embeddings() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let ag = AnswerGraph::new(&q);
        let (emb, stats) = defactorize(&q, &ag, &[0, 1, 2]).unwrap();
        assert!(emb.is_empty());
        assert_eq!(stats.embeddings, 0);
    }

    #[test]
    fn fully_ground_query_returns_the_empty_tuple() {
        // A query with no variables has a zero-arity answer schema; its
        // answer is one empty tuple when the pattern holds, zero otherwise.
        let g = figure1_graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("5", "B", "9").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0], &EvalOptions::default()).unwrap();
        let (emb, stats) = defactorize(&q, &ag, &embedding_plan(&q, &ag)).unwrap();
        assert_eq!(emb.len(), 1, "the ground pattern holds: one empty tuple");
        assert_eq!(emb.schema().len(), 0);
        assert_eq!(stats.embeddings, 1);

        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("5", "B", "12").unwrap(); // no such edge
        let q2 = qb.build().unwrap();
        let (ag2, _) = generate(&g, &q2, &[0], &EvalOptions::default()).unwrap();
        let (emb2, _) = defactorize(&q2, &ag2, &embedding_plan(&q2, &ag2)).unwrap();
        assert_eq!(emb2.len(), 0);
    }

    #[test]
    fn incomplete_order_is_rejected() {
        let g = figure1_graph();
        let q = chain_query(&g);
        let ag = AnswerGraph::new(&q);
        assert!(defactorize(&q, &ag, &[0, 1]).is_err());
    }

    #[test]
    fn seed_enumeration_partitions_the_answer() {
        // Every embedding binds pattern 1 to exactly one answer edge, so
        // enumerating through each edge of pattern 1 partitions the full
        // answer: the union (as a set) equals a full defactorization.
        let g = figure1_graph();
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let (full, _) = defactorize(&q, &ag, &embedding_plan(&q, &ag)).unwrap();

        let seeds = SeedEnumerator::new(&q, &ag);
        for pat in 0..q.num_patterns() {
            let mut rows: Vec<Vec<NodeId>> = Vec::new();
            for (s, o) in ag.pattern(pat).iter() {
                let part = seeds.rows_through(&q, pat, s, o).unwrap();
                assert_eq!(part.schema(), full.schema());
                rows.extend(part.rows().map(<[NodeId]>::to_vec));
            }
            let union = EmbeddingSet::new(full.schema().to_vec(), rows);
            assert!(
                union.same_answer(&full),
                "seeding pattern {pat} must cover the full answer"
            );
        }
    }

    #[test]
    fn self_loop_defactorization() {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "1");
        b.add("2", "A", "3");
        b.add("1", "B", "4");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "A", "?x").unwrap();
        qb.pattern("?x", "B", "?y").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0, 1], &EvalOptions::default()).unwrap();
        let order = embedding_plan(&q, &ag);
        let (emb, _) = defactorize(&q, &ag, &order).unwrap();
        assert_eq!(emb.len(), 1, "only node 1 loops and has a B edge");
    }

    /// A graph producing `fan`² chain embeddings through one hub. Every
    /// pattern has `fan` answer edges, so the threaded path has `fan` seed
    /// pairs to split.
    fn fanout_graph(fan: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..fan {
            b.add(&format!("a{i}"), "A", &format!("x{i}"));
            b.add(&format!("x{i}"), "B", "hub");
            b.add("hub", "C", &format!("c{i}"));
        }
        b.build()
    }

    fn fanout_ag(fan: usize) -> (ConjunctiveQuery, AnswerGraph) {
        let g = fanout_graph(fan);
        let q = chain_query(&g);
        let (ag, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        (q, ag)
    }

    #[test]
    fn threaded_rows_equal_the_sequential_rows() {
        let (q, ag) = fanout_ag(200);
        let (sequential, seq_stats) = defactorize(&q, &ag, &embedding_plan(&q, &ag)).unwrap();
        let (threaded, par_stats) = defactorize_split(&q, &ag, 4, 1).unwrap();
        assert_eq!(threaded.len(), 200 * 200);
        assert_eq!(threaded.flat_data(), sequential.flat_data());
        assert_eq!(par_stats.embeddings, seq_stats.embeddings);
        assert!(
            par_stats.peak_intermediate <= seq_stats.peak_intermediate,
            "each worker holds a fraction of the intermediates"
        );
        // Busy time is recorded on both paths: the sequential run's equals
        // its wall-clock, the threaded run's sums over the 4 workers.
        assert!(seq_stats.cpu > std::time::Duration::ZERO);
        assert!(par_stats.cpu > std::time::Duration::ZERO);
    }

    #[test]
    fn small_inputs_take_the_sequential_path() {
        let (q, ag) = fanout_ag(3);
        let (out, _) = defactorize_parallel(&q, &ag, 0).unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn one_thread_is_sequential() {
        let (q, ag) = fanout_ag(50);
        let (out, _) = defactorize_split(&q, &ag, 1, 1).unwrap();
        assert_eq!(out.len(), 2500);
    }

    #[test]
    fn auto_threads_is_bounded() {
        assert!((1..=8).contains(&auto_threads()));
    }

    #[test]
    fn empty_answer_graph_threaded() {
        let g = fanout_graph(4);
        let q = chain_query(&g);
        let ag = AnswerGraph::new(&q);
        let (out, _) = defactorize_split(&q, &ag, 4, 1).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn forced_splits_reproduce_the_sequential_rows_over_the_workload() {
        use crate::config::PlannerKind;
        use crate::planner::plan;
        use wireframe_datagen::{full_workload, generate as generate_graph, YagoConfig};

        let g = generate_graph(&YagoConfig::tiny());
        let workload = full_workload(&g).unwrap();
        assert_eq!(workload.len(), 20);
        for bq in &workload {
            let order = plan(&g, &bq.query, PlannerKind::DpLeftDeep).unwrap().order;
            let (ag, _) = generate(&g, &bq.query, &order, &EvalOptions::default()).unwrap();
            // A threshold of one seed per worker forces a genuine split even
            // on the tiny dataset.
            let (one, one_stats) = defactorize_split(&bq.query, &ag, 1, 1).unwrap();
            for threads in [2, 4] {
                let (many, many_stats) = defactorize_split(&bq.query, &ag, threads, 1).unwrap();
                assert_eq!(
                    one.flat_data(),
                    many.flat_data(),
                    "{}: {threads} threads changed the rows or their order",
                    bq.name
                );
                assert_eq!(one.len(), many.len(), "{}", bq.name);
                assert_eq!(one_stats.embeddings, many_stats.embeddings, "{}", bq.name);
            }
        }
    }
}
