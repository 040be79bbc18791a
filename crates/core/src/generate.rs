//! Phase one: answer-graph generation.
//!
//! For each query edge of the plan, in turn, an *edge-extension* step pulls
//! from the data graph the edges with the right predicate that meet the join
//! constraints imposed by the current state of the answer graph (the node sets
//! of already-bound variables). Nodes that fail to extend are then removed and
//! the removal cascades through the already-materialized query edges — the
//! *node burnback* of the paper (Figure 2).

use wireframe_graph::slices::{contains_sorted, intersect_sorted};
use wireframe_graph::{Graph, NodeId};
use wireframe_query::{ConjunctiveQuery, Term, Var};

use crate::answer_graph::AnswerGraph;
use crate::config::EvalOptions;
use crate::error::EngineError;

/// Statistics of one edge-extension step, recorded when
/// [`EvalOptions::collect_trace`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionStep {
    /// Index of the query edge (pattern) materialized by this step.
    pub pattern: usize,
    /// Edge walks performed by this step (data edges retrieved).
    pub edge_walks: u64,
    /// Answer-graph edges added by this step.
    pub edges_added: usize,
    /// Answer-graph edges removed by the burnback cascade this step triggered.
    pub edges_burned: usize,
    /// Nodes removed from variable node sets by the cascade.
    pub nodes_burned: usize,
    /// Total answer-graph size after the step.
    pub ag_edges_after: usize,
}

/// Aggregate statistics of answer-graph generation.
#[derive(Debug, Clone, Default)]
pub struct GenerationStats {
    /// Total data edges retrieved (the paper's cost unit).
    pub edge_walks: u64,
    /// Total answer-graph edges added across all steps.
    pub edges_added: u64,
    /// Total answer-graph edges removed by node burnback.
    pub edges_burned: u64,
    /// Total nodes removed from variable node sets by node burnback.
    pub nodes_burned: u64,
    /// Per-step trace (empty unless tracing was requested).
    pub steps: Vec<ExtensionStep>,
}

/// How one end of the pattern constrains candidate data edges.
#[derive(Debug, Clone)]
enum EndConstraint {
    /// The end is a constant node.
    Const(NodeId),
    /// The end is a variable already bound by earlier steps; only these nodes
    /// qualify. The list is **ascending-sorted**: it drives iteration, and
    /// — because the store's neighbor slices are sorted too — membership
    /// probes and candidate filtering run as binary-search/galloping
    /// intersections instead of hash lookups.
    Bound(Vec<NodeId>),
    /// The end is a variable not yet bound; any node qualifies.
    Free,
}

/// Runs answer-graph generation over `graph` for `query`, materializing the
/// query edges in the order given by `order` (a permutation of the pattern
/// indexes, typically produced by the Edgifier planner).
pub fn generate(
    graph: &Graph,
    query: &ConjunctiveQuery,
    order: &[usize],
    options: &EvalOptions,
) -> Result<(AnswerGraph, GenerationStats), EngineError> {
    if order.len() != query.num_patterns() {
        return Err(EngineError::Internal(format!(
            "plan covers {} of {} query edges",
            order.len(),
            query.num_patterns()
        )));
    }
    let mut covered = vec![false; query.num_patterns()];
    for &i in order {
        if i >= query.num_patterns() || covered[i] {
            return Err(EngineError::Internal(format!(
                "plan is not a permutation of the query edges (offending index {i})"
            )));
        }
        covered[i] = true;
    }

    let mut ag = AnswerGraph::new(query);
    let mut stats = GenerationStats::default();

    for &pattern_idx in order {
        let step = extend(graph, query, &mut ag, pattern_idx, options);
        stats.edge_walks += step.edge_walks;
        stats.edges_added += step.edges_added as u64;
        stats.edges_burned += step.edges_burned as u64;
        stats.nodes_burned += step.nodes_burned as u64;
        if options.collect_trace {
            stats.steps.push(step);
        }
        // An empty materialized pattern means the whole answer is empty;
        // clear everything and stop early.
        if ag.edge_count(pattern_idx) == 0 {
            clear(&mut ag, query);
            break;
        }
    }
    Ok((ag, stats))
}

/// One edge-extension step followed by its cascading node burnback.
fn extend(
    graph: &Graph,
    query: &ConjunctiveQuery,
    ag: &mut AnswerGraph,
    pattern_idx: usize,
    _options: &EvalOptions,
) -> ExtensionStep {
    let pattern = query.patterns()[pattern_idx];
    let p = pattern.predicate;
    let self_loop = match (pattern.subject, pattern.object) {
        (Term::Var(a), Term::Var(b)) => a == b,
        _ => false,
    };

    let subject_constraint = end_constraint(ag, pattern.subject);
    let object_constraint = end_constraint(ag, pattern.object);

    let mut edge_walks = 0u64;
    let mut seen_subjects: Vec<NodeId> = Vec::new();
    let mut seen_objects: Vec<NodeId> = Vec::new();

    // Decide which side drives the retrieval: prefer the side with the fewer
    // known candidates; fall back to a full predicate scan when neither end is
    // constrained.
    let drive_subject = match (&subject_constraint, &object_constraint) {
        (EndConstraint::Free, EndConstraint::Free) => None,
        (EndConstraint::Free, _) => Some(false),
        (_, EndConstraint::Free) => Some(true),
        (s, o) => {
            let s_len = match s {
                EndConstraint::Const(_) => 1,
                EndConstraint::Bound(v) => v.len(),
                EndConstraint::Free => usize::MAX,
            };
            let o_len = match o {
                EndConstraint::Const(_) => 1,
                EndConstraint::Bound(v) => v.len(),
                EndConstraint::Free => usize::MAX,
            };
            Some(s_len <= o_len)
        }
    };

    // The extension stream below emits every `(s, o)` at most once (driving
    // nodes are distinct, stores hand out each neighbor exactly once), so
    // the matched edges are collected into one flat vector and bulk-loaded
    // into the answer graph afterwards — no per-edge hash operations.
    let mut new_edges: Vec<(NodeId, NodeId)> = Vec::new();

    // Every store hands out ascending-sorted neighbor slices, so the
    // constrained cases below are binary-search probes and galloping
    // intersections. Scratch buffer for intersections, reused across
    // candidates.
    let mut buf: Vec<NodeId> = Vec::new();
    match drive_subject {
        Some(true) => {
            let single;
            let subjects: &[NodeId] = match &subject_constraint {
                EndConstraint::Const(c) => {
                    single = [*c];
                    &single
                }
                EndConstraint::Bound(v) => v,
                EndConstraint::Free => unreachable!("driving side is constrained"),
            };
            for &s in subjects {
                let objects = graph.objects_of(p, s);
                match &object_constraint {
                    EndConstraint::Free => {
                        edge_walks += objects.len() as u64;
                        new_edges.extend(objects.iter().map(|&o| (s, o)));
                    }
                    EndConstraint::Const(c) => {
                        edge_walks += 1;
                        if contains_sorted(objects, *c) {
                            new_edges.push((s, *c));
                        }
                    }
                    EndConstraint::Bound(bound) => {
                        // Galloping intersection skips the non-joining
                        // stretches of the longer side.
                        intersect_sorted(objects, bound, &mut buf);
                        edge_walks += (buf.len() as u64).max(1);
                        if self_loop {
                            // Same variable on both ends: only the loop edge.
                            if buf.contains(&s) {
                                new_edges.push((s, s));
                            }
                        } else {
                            new_edges.extend(buf.iter().map(|&o| (s, o)));
                        }
                    }
                }
            }
        }
        Some(false) => {
            let single;
            let objects: &[NodeId] = match &object_constraint {
                EndConstraint::Const(c) => {
                    single = [*c];
                    &single
                }
                EndConstraint::Bound(v) => v,
                EndConstraint::Free => unreachable!("driving side is constrained"),
            };
            for &o in objects {
                let subjects = graph.subjects_of(p, o);
                match &subject_constraint {
                    EndConstraint::Free => {
                        edge_walks += subjects.len() as u64;
                        new_edges.extend(subjects.iter().map(|&s| (s, o)));
                    }
                    EndConstraint::Const(c) => {
                        edge_walks += 1;
                        if contains_sorted(subjects, *c) {
                            new_edges.push((*c, o));
                        }
                    }
                    EndConstraint::Bound(bound) => {
                        intersect_sorted(subjects, bound, &mut buf);
                        edge_walks += (buf.len() as u64).max(1);
                        if self_loop {
                            if buf.contains(&o) {
                                new_edges.push((o, o));
                            }
                        } else {
                            new_edges.extend(buf.iter().map(|&s| (s, o)));
                        }
                    }
                }
            }
        }
        None => {
            // Full scan of the predicate.
            let pairs = graph.pairs(p);
            edge_walks += pairs.len() as u64;
            if self_loop {
                new_edges.extend(pairs.iter().filter(|&&(s, o)| s == o));
            } else {
                new_edges.extend_from_slice(&pairs);
            }
        }
    }

    let edges_added = new_edges.len();
    seen_subjects.extend(new_edges.iter().map(|&(s, _)| s));
    seen_objects.extend(new_edges.iter().map(|&(_, o)| o));
    ag.pattern_mut(pattern_idx).bulk_load(new_edges);
    ag.mark_materialized(pattern_idx);

    // Update node sets and start the burnback cascade from nodes that failed
    // to extend.
    let mut edges_burned = 0usize;
    let mut nodes_burned = 0usize;
    let mut to_burn: Vec<(Var, NodeId)> = Vec::new();

    seen_subjects.sort_unstable();
    seen_subjects.dedup();
    seen_objects.sort_unstable();
    seen_objects.dedup();

    for (term, seen) in [
        (pattern.subject, &seen_subjects),
        (pattern.object, &seen_objects),
    ] {
        let Some(v) = term.as_var() else { continue };
        if ag.is_bound(v) {
            let failed: Vec<NodeId> = ag
                .node_set(v)
                .iter()
                .copied()
                .filter(|n| seen.binary_search(n).is_err())
                .collect();
            to_burn.extend(failed.into_iter().map(|n| (v, n)));
        } else {
            ag.node_set_mut(v).assign_sorted(seen.clone());
            ag.mark_bound(v);
        }
    }

    burn_nodes(query, ag, to_burn, &mut edges_burned, &mut nodes_burned);

    ExtensionStep {
        pattern: pattern_idx,
        edge_walks,
        edges_added,
        edges_burned,
        nodes_burned,
        ag_edges_after: ag.total_edges(),
    }
}

fn end_constraint(ag: &AnswerGraph, term: Term) -> EndConstraint {
    match term {
        Term::Const(c) => EndConstraint::Const(c),
        Term::Var(v) => {
            if ag.is_bound(v) {
                EndConstraint::Bound(ag.node_set(v).to_sorted_vec())
            } else {
                EndConstraint::Free
            }
        }
    }
}

/// Removes the given `(variable, node)` pairs from the answer graph and
/// cascades: removing a node removes its incident answer edges in every
/// materialized query edge, and any opposite node left with no support in one
/// of those query edges is removed in turn.
pub(crate) fn burn_nodes(
    query: &ConjunctiveQuery,
    ag: &mut AnswerGraph,
    mut worklist: Vec<(Var, NodeId)>,
    edges_burned: &mut usize,
    nodes_burned: &mut usize,
) {
    while let Some((v, n)) = worklist.pop() {
        if !ag.node_set_mut(v).remove(&n) {
            continue;
        }
        *nodes_burned += 1;
        for (q, pat) in query.patterns().iter().enumerate() {
            if !ag.is_materialized(q) {
                continue;
            }
            if pat.subject.as_var() == Some(v) {
                let objects = ag.pattern_mut(q).remove_subject(n);
                *edges_burned += objects.len();
                if let Some(w) = pat.object.as_var() {
                    for o in objects {
                        if !ag.pattern(q).has_object(o) && ag.node_set(w).contains(&o) {
                            worklist.push((w, o));
                        }
                    }
                }
            }
            if pat.object.as_var() == Some(v) {
                let subjects = ag.pattern_mut(q).remove_object(n);
                *edges_burned += subjects.len();
                if let Some(w) = pat.subject.as_var() {
                    for s in subjects {
                        if !ag.pattern(q).has_subject(s) && ag.node_set(w).contains(&s) {
                            worklist.push((w, s));
                        }
                    }
                }
            }
        }
    }
}

/// Empties the answer graph (used when some query edge matched nothing, which
/// makes the whole answer empty).
fn clear(ag: &mut AnswerGraph, query: &ConjunctiveQuery) {
    for v in query.variables() {
        ag.node_set_mut(v).clear();
    }
    for q in 0..query.num_patterns() {
        let subjects: Vec<NodeId> = ag.pattern(q).subjects().collect();
        for s in subjects {
            ag.pattern_mut(q).remove_subject(s);
        }
        ag.mark_materialized(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_graph::GraphBuilder;
    use wireframe_query::CqBuilder;

    /// The data graph of the paper's Figure 1/2: a chain query A/B/C where
    /// A-edges fan in to node 5 and C-edges fan out of node 9, and several
    /// nodes (4, 6, 7, 8, 10, 11) fail to survive burnback.
    fn figure1_graph() -> Graph {
        let mut b = GraphBuilder::new();
        // A-edges into 5 (plus one that dies: 4 -> 6, and 7 -> 8 dead-end)
        b.add("1", "A", "5");
        b.add("2", "A", "5");
        b.add("3", "A", "5");
        b.add("4", "A", "6");
        // B-edges
        b.add("5", "B", "9");
        b.add("7", "B", "10");
        // C-edges out of 9
        b.add("9", "C", "12");
        b.add("9", "C", "13");
        b.add("9", "C", "14");
        b.add("9", "C", "15");
        // an extra C edge from a node that no B edge reaches
        b.add("11", "C", "15");
        b.build()
    }

    fn figure1_query(g: &Graph) -> ConjunctiveQuery {
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?w", "A", "?x").unwrap();
        qb.pattern("?x", "B", "?y").unwrap();
        qb.pattern("?y", "C", "?z").unwrap();
        qb.build().unwrap()
    }

    fn node(g: &Graph, label: &str) -> NodeId {
        g.dictionary().node_id(label).unwrap()
    }

    #[test]
    fn figure1_chain_produces_ideal_answer_graph() {
        let g = figure1_graph();
        let q = figure1_query(&g);
        let opts = EvalOptions::default().with_trace();
        let (ag, stats) = generate(&g, &q, &[0, 1, 2], &opts).unwrap();

        // The ideal AG of Figure 1: A-edges {1,2,3}->5, B-edge 5->9, C-edges 9->{12,13,14,15}.
        assert_eq!(ag.edge_count(0), 3);
        assert_eq!(ag.edge_count(1), 1);
        assert_eq!(ag.edge_count(2), 4);
        assert_eq!(
            ag.total_edges(),
            8,
            "the paper counts eight labeled node pairs"
        );

        // Node sets match the figure's final answer graph.
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        assert_eq!(ag.node_set(x).len(), 1);
        assert!(ag.node_set(x).contains(&node(&g, "5")));
        assert!(ag.node_set(y).contains(&node(&g, "9")));

        // Burnback removed the A-edge 4->6 and nothing else from pattern 0.
        assert!(stats.edges_burned >= 1);
        assert_eq!(stats.steps.len(), 3);
        assert!(stats.edge_walks > 0);
    }

    #[test]
    fn reverse_order_gives_same_answer_graph() {
        let g = figure1_graph();
        let q = figure1_query(&g);
        let (fwd, _) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        let (rev, _) = generate(&g, &q, &[2, 1, 0], &EvalOptions::default()).unwrap();
        for i in 0..3 {
            let mut a: Vec<_> = fwd.pattern(i).iter().collect();
            let mut b: Vec<_> = rev.pattern(i).iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "pattern {i} differs between plans");
        }
    }

    #[test]
    fn empty_predicate_clears_everything() {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "2");
        b.intern_predicate("B");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "A", "?y").unwrap();
        qb.pattern("?y", "B", "?z").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0, 1], &EvalOptions::default()).unwrap();
        assert_eq!(ag.total_edges(), 0);
        assert_eq!(ag.total_nodes(), 0);
        assert!(ag.has_empty_pattern());
    }

    #[test]
    fn constants_restrict_extension() {
        let g = figure1_graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?w", "A", "5").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0], &EvalOptions::default()).unwrap();
        assert_eq!(ag.edge_count(0), 3, "only the A-edges into node 5 match");
    }

    #[test]
    fn self_loop_matches_only_loops() {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "1");
        b.add("1", "A", "2");
        b.add("3", "A", "3");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "A", "?x").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0], &EvalOptions::default()).unwrap();
        assert_eq!(ag.edge_count(0), 2);
        let x = q.var_by_name("x").unwrap();
        assert_eq!(ag.node_set(x).len(), 2);
    }

    #[test]
    fn bad_plans_are_rejected() {
        let g = figure1_graph();
        let q = figure1_query(&g);
        assert!(generate(&g, &q, &[0, 1], &EvalOptions::default()).is_err());
        assert!(generate(&g, &q, &[0, 1, 1], &EvalOptions::default()).is_err());
        assert!(generate(&g, &q, &[0, 1, 7], &EvalOptions::default()).is_err());
    }

    #[test]
    fn trace_is_only_collected_when_requested() {
        let g = figure1_graph();
        let q = figure1_query(&g);
        let (_, without) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default()).unwrap();
        assert!(without.steps.is_empty());
        let (_, with) = generate(&g, &q, &[0, 1, 2], &EvalOptions::default().with_trace()).unwrap();
        assert_eq!(with.steps.len(), 3);
        assert_eq!(with.steps[0].pattern, 0);
    }

    #[test]
    fn diamond_with_node_burnback_keeps_spurious_edges() {
        // Figure 4: two disjoint diamonds share no nodes, but the A-edges
        // 1->6' analog: build a graph where node burnback alone cannot detect
        // that an edge participates in no embedding.
        let mut b = GraphBuilder::new();
        // Diamond 1: 3 -A-> 4, 3 -B-> 2, 4 -C-> 1, 2 -D-> 1
        b.add("3", "A", "4");
        b.add("3", "B", "2");
        b.add("4", "C", "1");
        b.add("2", "D", "1");
        // Diamond 2: 7 -A-> 8, 7 -B-> 6, 8 -C-> 5, 6 -D-> 5
        b.add("7", "A", "8");
        b.add("7", "B", "6");
        b.add("8", "C", "5");
        b.add("6", "D", "5");
        // Spurious cross edges: 4 -C-> 5 and 8 -C-> 1 connect the two diamonds
        // only through the C side, so they survive node burnback but belong to
        // no embedding.
        b.add("4", "C", "5");
        b.add("8", "C", "1");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "A", "?e").unwrap();
        qb.pattern("?x", "B", "?z").unwrap();
        qb.pattern("?e", "C", "?y").unwrap();
        qb.pattern("?z", "D", "?y").unwrap();
        let q = qb.build().unwrap();
        let (ag, _) = generate(&g, &q, &[0, 1, 2, 3], &EvalOptions::default()).unwrap();
        // Node burnback keeps all ten edges: the two cross C-edges are spurious
        // but every node still has support in every pattern.
        assert_eq!(ag.total_edges(), 10);
        assert_eq!(
            ag.edge_count(2),
            4,
            "C pattern keeps the two spurious edges"
        );
    }
}
