//! The Edgifier: cost-based planning of the edge-extension order.
//!
//! A phase-one plan is simply an order over the CQ's query edges in which to
//! materialize them into the answer graph. The Edgifier chooses the order with
//! a bottom-up dynamic program over connected sub-plans, charging each
//! candidate extension with the estimated number of edge walks it performs
//! (the paper's cost unit). A greedy planner and an "as written" pass-through
//! are provided for large queries and for ablation experiments.

use std::collections::HashMap;

use wireframe_graph::Graph;
use wireframe_query::{ConjunctiveQuery, QueryGraph};

use crate::config::PlannerKind;
use crate::error::EngineError;
use crate::estimate::Estimator;

/// A phase-one plan: the order in which query edges are materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Pattern indexes in materialization order (a permutation of `0..n`).
    pub order: Vec<usize>,
    /// Estimated total edge walks of phase one under this order.
    pub estimated_cost: f64,
    /// Estimated answer-graph size (total matched edges) after phase one.
    pub estimated_ag_edges: f64,
    /// Which planner produced the plan.
    pub planner: PlannerKind,
}

/// Plans the edge order for `query` over `graph` using the requested planner.
pub fn plan(
    graph: &Graph,
    query: &ConjunctiveQuery,
    kind: PlannerKind,
) -> Result<Plan, EngineError> {
    let qg = QueryGraph::new(query);
    if !qg.is_connected() {
        return Err(EngineError::DisconnectedQuery);
    }
    let estimator = Estimator::new(graph, query);
    match kind {
        PlannerKind::AsWritten => Ok(as_written(graph, query)),
        PlannerKind::Greedy => Ok(greedy(&estimator, query, &qg)),
        PlannerKind::DpLeftDeep => {
            // The subset DP is exponential in the number of query edges; fall
            // back to greedy beyond a practical limit.
            if query.num_patterns() <= 20 {
                Ok(dp_left_deep(&estimator, query, &qg))
            } else {
                Ok(greedy(&estimator, query, &qg))
            }
        }
    }
}

/// Costs an explicitly given order with the same model the planners use
/// (exposed for ablation benches and tests).
pub fn cost_of_order(graph: &Graph, query: &ConjunctiveQuery, order: &[usize]) -> f64 {
    let estimator = Estimator::new(graph, query);
    let mut cards = vec![None; query.num_vars()];
    let mut total = 0.0;
    for &i in order {
        let step = estimator.estimate_step(&cards, i);
        total += step.edge_walks;
        apply_step(query, &mut cards, i, step.subject_card, step.object_card);
    }
    total
}

fn as_written(graph: &Graph, query: &ConjunctiveQuery) -> Plan {
    let order: Vec<usize> = (0..query.num_patterns()).collect();
    let estimated_cost = cost_of_order(graph, query, &order);
    Plan {
        estimated_ag_edges: estimate_ag_edges(graph, query, &order),
        order,
        estimated_cost,
        planner: PlannerKind::AsWritten,
    }
}

fn estimate_ag_edges(graph: &Graph, query: &ConjunctiveQuery, order: &[usize]) -> f64 {
    let estimator = Estimator::new(graph, query);
    let mut cards = vec![None; query.num_vars()];
    let mut total = 0.0;
    for &i in order {
        let step = estimator.estimate_step(&cards, i);
        total += step.result_edges;
        apply_step(query, &mut cards, i, step.subject_card, step.object_card);
    }
    total
}

fn apply_step(
    query: &ConjunctiveQuery,
    cards: &mut [Option<f64>],
    pattern_idx: usize,
    subject_card: f64,
    object_card: f64,
) {
    let p = &query.patterns()[pattern_idx];
    if let Some(v) = p.subject.as_var() {
        cards[v.index()] = Some(subject_card);
    }
    if let Some(v) = p.object.as_var() {
        cards[v.index()] = Some(object_card);
    }
}

/// Whether pattern `i` is connected to the set of already-planned patterns
/// (shares a variable), or the set is still empty. `chosen(j)` tells whether
/// pattern `j` is planned.
fn connected_to(query: &ConjunctiveQuery, i: usize, chosen: impl Fn(usize) -> bool) -> bool {
    let pi = &query.patterns()[i];
    let mut any_chosen = false;
    for (j, pj) in query.patterns().iter().enumerate() {
        if !chosen(j) {
            continue;
        }
        if pi.variables().any(|v| pj.mentions(v)) {
            return true;
        }
        any_chosen = true;
    }
    !any_chosen
}

fn greedy(estimator: &Estimator<'_, '_>, query: &ConjunctiveQuery, _qg: &QueryGraph) -> Plan {
    let n = query.num_patterns();
    let mut order = Vec::with_capacity(n);
    let mut cards = vec![None; query.num_vars()];
    let mut chosen = vec![false; n];
    let mut total_cost = 0.0;
    let mut total_edges = 0.0;
    for _ in 0..n {
        let mut best: Option<(usize, f64, f64, f64, f64, f64)> = None;
        for i in 0..n {
            if chosen[i] || !connected_to(query, i, |j| chosen[j]) {
                continue;
            }
            let step = estimator.estimate_step(&cards, i);
            // Expected walks decide; on a dead tie the degree-statistics
            // worst-case bound prefers the less skew-exposed candidate.
            let better = match best {
                None => true,
                Some((_, cost, worst, ..)) => {
                    step.edge_walks < cost
                        || (step.edge_walks == cost && step.worst_case_walks < worst)
                }
            };
            if better {
                best = Some((
                    i,
                    step.edge_walks,
                    step.worst_case_walks,
                    step.result_edges,
                    step.subject_card,
                    step.object_card,
                ));
            }
        }
        let (i, cost, _, edges, sc, oc) =
            best.expect("a connected query always has a next connected pattern");
        chosen[i] = true;
        order.push(i);
        total_cost += cost;
        total_edges += edges;
        apply_step(query, &mut cards, i, sc, oc);
    }
    Plan {
        order,
        estimated_cost: total_cost,
        estimated_ag_edges: total_edges,
        planner: PlannerKind::Greedy,
    }
}

#[derive(Debug, Clone)]
struct DpEntry {
    cost: f64,
    /// Accumulated worst-case walks (degree-statistics bound): the tie-break
    /// between equal-cost sub-plans, steering away from skewed predicates.
    worst: f64,
    ag_edges: f64,
    order: Vec<usize>,
    cards: Vec<Option<f64>>,
}

fn dp_left_deep(estimator: &Estimator<'_, '_>, query: &ConjunctiveQuery, _qg: &QueryGraph) -> Plan {
    let n = query.num_patterns();
    let full: u64 = (1u64 << n) - 1;
    let mut table: HashMap<u64, DpEntry> = HashMap::new();
    table.insert(
        0,
        DpEntry {
            cost: 0.0,
            worst: 0.0,
            ag_edges: 0.0,
            order: Vec::new(),
            cards: vec![None; query.num_vars()],
        },
    );

    // Process subsets in order of increasing population count so every
    // predecessor is finalized before it is extended.
    let mut by_count: Vec<Vec<u64>> = vec![Vec::new(); n + 1];
    by_count[0].push(0);
    // Enumerate reachable subsets lazily: extend level by level.
    for level in 0..n {
        let current = std::mem::take(&mut by_count[level]);
        for mask in current {
            let entry = table
                .get(&mask)
                .expect("entry exists for enumerated mask")
                .clone();
            for i in 0..n {
                if mask & (1 << i) != 0 || !connected_to(query, i, |j| mask & (1 << j) != 0) {
                    continue;
                }
                let step = estimator.estimate_step(&entry.cards, i);
                let mut cards = entry.cards.clone();
                apply_step(query, &mut cards, i, step.subject_card, step.object_card);
                let next_mask = mask | (1 << i);
                let cand = DpEntry {
                    cost: entry.cost + step.edge_walks,
                    worst: entry.worst + step.worst_case_walks,
                    ag_edges: entry.ag_edges + step.result_edges,
                    order: {
                        let mut o = entry.order.clone();
                        o.push(i);
                        o
                    },
                    cards,
                };
                match table.get(&next_mask) {
                    // Keep the cheaper sub-plan; on a dead cost tie, keep the
                    // one with the lower worst-case (skew-robust) bound.
                    Some(existing)
                        if existing.cost < cand.cost
                            || (existing.cost == cand.cost && existing.worst <= cand.worst) => {}
                    _ => {
                        if !table.contains_key(&next_mask) {
                            by_count[level + 1].push(next_mask);
                        }
                        table.insert(next_mask, cand);
                    }
                }
            }
        }
    }

    let best = table
        .remove(&full)
        .expect("connected query reaches the full subset");
    Plan {
        order: best.order,
        estimated_cost: best.cost,
        estimated_ag_edges: best.ag_edges,
        planner: PlannerKind::DpLeftDeep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_graph::GraphBuilder;
    use wireframe_query::CqBuilder;

    /// A graph where predicate `Rare` has 2 edges, `Mid` has 20, `Huge` has 500
    /// — and only a handful of Huge edges reach Mid subjects, so a plan that
    /// scans Huge first wastes hundreds of edge walks compared with one that
    /// starts at the selective end and probes Huge through bound nodes.
    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..480 {
            b.add(&format!("h{i}"), "Huge", &format!("u{i}"));
        }
        for i in 0..20 {
            b.add(&format!("hh{i}"), "Huge", &format!("m{i}"));
        }
        for i in 0..20 {
            b.add(&format!("m{i}"), "Mid", &format!("r{}", i % 2));
        }
        for i in 0..2 {
            b.add(&format!("r{i}"), "Rare", &format!("t{i}"));
        }
        b.build()
    }

    fn chain_query(g: &Graph) -> ConjunctiveQuery {
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?a", "Huge", "?b").unwrap();
        qb.pattern("?b", "Mid", "?c").unwrap();
        qb.pattern("?c", "Rare", "?d").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn plans_are_permutations() {
        let g = graph();
        let q = chain_query(&g);
        for kind in [
            PlannerKind::DpLeftDeep,
            PlannerKind::Greedy,
            PlannerKind::AsWritten,
        ] {
            let p = plan(&g, &q, kind).unwrap();
            let mut order = p.order.clone();
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2], "{kind:?} must cover every edge once");
            assert!(p.estimated_cost.is_finite());
            assert_eq!(p.planner, kind);
        }
    }

    #[test]
    fn dp_avoids_scanning_the_huge_predicate_first() {
        let g = graph();
        let q = chain_query(&g);
        let p = plan(&g, &q, PlannerKind::DpLeftDeep).unwrap();
        assert_ne!(
            p.order[0], 0,
            "scanning all 500 Huge edges first is the worst start"
        );
        // The DP order must be at least as cheap (under the cost model) as
        // every other connected order of this 3-edge chain.
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [1, 0, 2],
            [1, 2, 0],
            [2, 1, 0],
            [0, 2, 1], // disconnected middle steps are allowed by cost_of_order
            [2, 0, 1],
        ];
        for o in orders {
            assert!(
                p.estimated_cost <= cost_of_order(&g, &q, &o) + 1e-6,
                "DP cost {} beaten by {:?} = {}",
                p.estimated_cost,
                o,
                cost_of_order(&g, &q, &o)
            );
        }
    }

    #[test]
    fn dp_is_no_worse_than_as_written() {
        let g = graph();
        let q = chain_query(&g);
        let dp = plan(&g, &q, PlannerKind::DpLeftDeep).unwrap();
        let written = plan(&g, &q, PlannerKind::AsWritten).unwrap();
        assert!(dp.estimated_cost <= written.estimated_cost + 1e-9);
    }

    #[test]
    fn greedy_orders_are_connected() {
        let g = graph();
        let q = chain_query(&g);
        let p = plan(&g, &q, PlannerKind::Greedy).unwrap();
        // Every prefix of the order must be connected.
        for k in 1..p.order.len() {
            assert!(connected_to(&q, p.order[k], |j| p.order[..k].contains(&j)));
        }
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let g = graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?a", "Huge", "?b").unwrap();
        qb.pattern("?c", "Rare", "?d").unwrap();
        let q = qb.build().unwrap();
        assert_eq!(
            plan(&g, &q, PlannerKind::DpLeftDeep).unwrap_err(),
            EngineError::DisconnectedQuery
        );
    }

    #[test]
    fn cost_of_order_matches_planner_estimate() {
        let g = graph();
        let q = chain_query(&g);
        let p = plan(&g, &q, PlannerKind::DpLeftDeep).unwrap();
        let recomputed = cost_of_order(&g, &q, &p.order);
        assert!((recomputed - p.estimated_cost).abs() < 1e-6);
    }

    #[test]
    fn single_pattern_plan() {
        let g = graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?a", "Rare", "?b").unwrap();
        let q = qb.build().unwrap();
        let p = plan(&g, &q, PlannerKind::DpLeftDeep).unwrap();
        assert_eq!(p.order, vec![0]);
    }

    #[test]
    fn a_seventy_pattern_chain_plans_and_evaluates() {
        // Beyond 64 patterns no bitmask can hold the chosen set.
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        b.add("b", "p", "a");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        for i in 0..70 {
            qb.pattern(&format!("?x{i}"), "p", &format!("?x{}", i + 1))
                .unwrap();
        }
        let q = qb.build().unwrap();
        for kind in [PlannerKind::DpLeftDeep, PlannerKind::Greedy] {
            let p = plan(&g, &q, kind).unwrap();
            let mut order = p.order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..70).collect::<Vec<_>>(), "{kind:?}");
        }
        let engine = crate::WireframeEngine::new(&g);
        let out = engine.execute(&q).unwrap();
        assert_eq!(out.embedding_count(), 2, "the chain alternates a, b, a, …");
    }
}
