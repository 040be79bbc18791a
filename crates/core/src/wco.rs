//! Worst-case-optimal generic join: the `wco` engine and its cyclic views.
//!
//! [`WcoEngine`] evaluates conjunctive queries by **variable extension**
//! instead of the Wireframe engine's edge extension: variables are bound
//! one at a time along a catalog-chosen order, and each step intersects the
//! sorted neighbor slices of every pattern that constrains the new variable
//! (leapfrog-style, smallest slice first). The per-step candidate set is
//! bounded by the *smallest* constraining slice, which is what makes the
//! strategy worst-case optimal on cyclic shapes — a triangle never
//! materializes the quadratic open wedge the edge-at-a-time pipeline builds
//! before burning it back.
//!
//! The output is deliberately the same factorized artifact the rest of the
//! workspace speaks: an [`AnswerGraph`]. Every data edge that supports a
//! surviving candidate is recorded **at bind time**, so the recorded set
//! sandwiches between the ideal answer graph and the matching data edges —
//! and defactorization (which re-joins all patterns simultaneously) is
//! embedding-exact for any graph in that sandwich. A single node-burnback
//! cascade ([`crate::sharded::settle_candidates`]) then settles the
//! candidates to a subset of the node-burnback fixpoint, so the artifact is
//! never larger than the Wireframe engine's and all downstream machinery
//! (defactorization, streaming, sharded merge, views) works unchanged.
//!
//! **Cyclic views.** Because the recorded graph can sit *below* the
//! node-burnback fixpoint, [`MaterializedQuery`]'s revive-closure
//! maintenance (which only re-pulls edges incident to revived nodes) is not
//! sound here: a brand-new embedding among already-live nodes whose edge
//! leapfrog pruned would stay missing. [`WcoView`] therefore maintains by
//! **delta rules**: one rule per `(inserted triple, matching pattern)`
//! seeds that pattern's variables from the triple and re-runs the leapfrog
//! extension for the remaining variables, recording at bind time into the
//! retained graph. Any new embedding must use at least one inserted edge in
//! some pattern, so the rule family covers all of them; tombstones and one
//! settling burnback handle the rest. This is what finally makes **cyclic
//! queries maintainable** — the configuration the Wireframe engine declines
//! (`maintainable_cyclic` off under edge burnback) and serving layers used
//! to evict for.
//!
//! The maintained graph stays embedding-exact but may drift *above* the
//! size a fresh `wco` run would produce (delta rules record support the
//! fresh leapfrog would never visit); equivalence tests therefore compare
//! embeddings, not answer-graph bytes.

use std::collections::HashSet;
use std::time::Instant;

use wireframe_api::{
    Engine, EngineCapabilities, Evaluation, Factorized, MaintainedView, MaintenanceInfo,
    MaintenanceStats, PreparedQuery, Timings, WireframeError,
};
use wireframe_graph::{slices, EdgeDelta, End, Graph, NodeId, PredId};
use wireframe_query::{ConjunctiveQuery, EmbeddingSet, QueryGraph, Term, Var};

use crate::answer_graph::AnswerGraph;
use crate::config::EvalOptions;
use crate::defactorize::{defactorize_projected, DefactorizationStats};
use crate::error::EngineError;
use crate::generate::GenerationStats;
use crate::maintain::{ends_match, ProvenanceIndex};
use crate::planner::{self, Plan};
use crate::sharded::{cleared_answer_graph, settle_candidates};

/// The prepared artifact of the `wco` engine: the catalog-scored variable
/// extension order, plus the Edgifier plan (kept for its cost metadata and
/// its connectivity check — phase two and the uniform `plan_order` metric
/// still speak pattern indexes).
#[derive(Debug, Clone)]
pub struct WcoPlan {
    order: Vec<Var>,
    cyclic: bool,
    plan: Plan,
}

impl WcoPlan {
    /// The variable extension order, most selective first.
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    /// Whether the query graph is cyclic.
    pub fn cyclic(&self) -> bool {
        self.cyclic
    }
}

/// Per-variable selectivity scores from the statistics catalog: the minimum,
/// over the variable's incident pattern ends, of the number of distinct
/// values that end takes (a constant other end pins the score to 1 — one
/// slice lookup). Smaller is more selective; the catalog is bit-identical
/// across storage backends, so so is the order derived from these.
fn catalog_scores(graph: &Graph, query: &ConjunctiveQuery) -> Vec<f64> {
    let catalog = graph.catalog();
    let mut scores = vec![f64::INFINITY; query.num_vars()];
    for pat in query.patterns() {
        let arms = [
            (pat.subject, pat.object, End::Subject),
            (pat.object, pat.subject, End::Object),
        ];
        for (term, other, end) in arms {
            if let Some(v) = term.as_var() {
                let s = if matches!(other, Term::Const(_)) {
                    1.0
                } else {
                    catalog.unigram(pat.predicate).distinct(end).max(1) as f64
                };
                if s < scores[v.index()] {
                    scores[v.index()] = s;
                }
            }
        }
    }
    scores
}

/// The extension order for one delta rule: the seeded variables are already
/// bound, the remaining ones extend greedily from the bound region by the
/// same catalog scores the full order uses (ties broken by variable index).
fn delta_order(qg: &QueryGraph, scores: &[f64], seeded: &[Var], num_vars: usize) -> Vec<Var> {
    let mut bound = vec![false; num_vars];
    for &v in seeded {
        bound[v.index()] = true;
    }
    let mut order = Vec::new();
    loop {
        let mut best: Option<(f64, Var)> = None;
        let mut fallback: Option<(f64, Var)> = None;
        for vi in 0..num_vars {
            let v = Var(vi as u32);
            if bound[vi] {
                continue;
            }
            let adjacent = qg.neighbors(v).iter().any(|u| bound[u.index()]);
            let slot = if adjacent { &mut best } else { &mut fallback };
            let better = match *slot {
                Some((bs, bv)) => scores[vi] < bs || (scores[vi] == bs && vi < bv.index()),
                None => true,
            };
            if better {
                *slot = Some((scores[vi], v));
            }
        }
        let Some((_, v)) = best.or(fallback) else {
            break;
        };
        bound[v.index()] = true;
        order.push(v);
    }
    order
}

/// The end a step constraint resolves its *other* side from.
#[derive(Debug, Clone, Copy)]
enum OtherEnd {
    /// A pattern constant.
    Const(NodeId),
    /// A variable bound at an earlier step (or seeded).
    Bound(Var),
}

/// How one pattern constrains the variable being bound at a step.
#[derive(Debug, Clone, Copy)]
enum ConstraintKind {
    /// The step variable is the pattern's subject; candidates come from
    /// `subjects_of(p, other)`.
    Subject(OtherEnd),
    /// The step variable is the pattern's object; candidates come from
    /// `objects_of(p, other)`.
    Object(OtherEnd),
    /// A `?v p ?v` self-loop: a per-candidate `has_triple(n, p, n)` filter.
    SelfLoop,
}

/// One pattern's contribution to a step: the slice (or filter) it
/// constrains the candidates with, and the answer-graph edge it records for
/// each survivor.
#[derive(Debug, Clone, Copy)]
struct Constraint {
    q: usize,
    p: PredId,
    kind: ConstraintKind,
}

/// One variable-extension step.
#[derive(Debug)]
struct Step {
    var: Var,
    constraints: Vec<Constraint>,
}

/// The leapfrog extension machine, shared by full evaluation (no seed) and
/// the delta rules of view maintenance (pattern variables seeded from an
/// inserted triple). Survivor edges are streamed into `sink` at bind time.
struct Extender<'g, 'q> {
    graph: &'g Graph,
    query: &'q ConjunctiveQuery,
    edge_walks: u64,
}

impl<'g, 'q> Extender<'g, 'q> {
    fn new(graph: &'g Graph, query: &'q ConjunctiveQuery) -> Self {
        Extender {
            graph,
            query,
            edge_walks: 0,
        }
    }

    /// Runs the extension over `order` with `prebound` seed bindings,
    /// emitting every recorded `(pattern, subject, object)` edge to `sink`.
    /// Returns `false` when a pattern fully covered by the seed (or by
    /// constants alone) is absent from the data — the rule is vacuous and
    /// nothing was emitted.
    fn run(
        &mut self,
        order: &[Var],
        prebound: &[(Var, NodeId)],
        sink: &mut dyn FnMut(usize, NodeId, NodeId),
    ) -> bool {
        let num_vars = self.query.num_vars();
        let mut binding: Vec<Option<NodeId>> = vec![None; num_vars];
        // Position 0 is "known before any step": constants and seeds.
        let mut pos: Vec<usize> = vec![usize::MAX; num_vars];
        for &(v, n) in prebound {
            binding[v.index()] = Some(n);
            pos[v.index()] = 0;
        }
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i + 1;
        }

        let term_pos = |t: Term| match t {
            Term::Const(_) => 0,
            Term::Var(v) => pos[v.index()],
        };

        // Classify every pattern: fully seeded patterns validate (and
        // record) up front; all others attach to the step where their last
        // end binds.
        let mut steps: Vec<Step> = order
            .iter()
            .map(|&v| Step {
                var: v,
                constraints: Vec::new(),
            })
            .collect();
        let mut seeds: Vec<(usize, NodeId, NodeId)> = Vec::new();
        for (q, pat) in self.query.patterns().iter().enumerate() {
            let (sp, op) = (term_pos(pat.subject), term_pos(pat.object));
            debug_assert!(
                sp != usize::MAX && op != usize::MAX,
                "extension order must cover every variable"
            );
            let value = |t: Term| match t {
                Term::Const(c) => c,
                Term::Var(v) => binding[v.index()].expect("seeded variable is bound"),
            };
            if sp == 0 && op == 0 {
                let (s, o) = (value(pat.subject), value(pat.object));
                self.edge_walks += 1;
                if !ends_match(pat, s, o) || !self.graph.has_triple(s, pat.predicate, o) {
                    return false;
                }
                seeds.push((q, s, o));
                continue;
            }
            let other_end = |t: Term| match t {
                Term::Const(c) => OtherEnd::Const(c),
                Term::Var(v) => OtherEnd::Bound(v),
            };
            let kind = match (pat.subject, pat.object) {
                (Term::Var(a), Term::Var(b)) if a == b => ConstraintKind::SelfLoop,
                _ if sp > op => ConstraintKind::Subject(other_end(pat.object)),
                _ => ConstraintKind::Object(other_end(pat.subject)),
            };
            let at = sp.max(op) - 1;
            steps[at].constraints.push(Constraint {
                q,
                p: pat.predicate,
                kind,
            });
        }

        for &(q, s, o) in &seeds {
            sink(q, s, o);
        }
        if !steps.is_empty() {
            self.extend(&steps, 0, &mut binding, sink);
        }
        true
    }

    fn resolve(binding: &[Option<NodeId>], other: OtherEnd) -> NodeId {
        match other {
            OtherEnd::Const(c) => c,
            OtherEnd::Bound(w) => binding[w.index()].expect("earlier step bound this variable"),
        }
    }

    fn constraint_slice(
        &mut self,
        c: &Constraint,
        binding: &[Option<NodeId>],
    ) -> Option<&'g [NodeId]> {
        let raw = match c.kind {
            ConstraintKind::Subject(other) => {
                self.graph.subjects_of(c.p, Self::resolve(binding, other))
            }
            ConstraintKind::Object(other) => {
                self.graph.objects_of(c.p, Self::resolve(binding, other))
            }
            ConstraintKind::SelfLoop => return None,
        };
        self.edge_walks += raw.len() as u64;
        Some(raw)
    }

    /// The candidate universe for a step with no slice constraints (the
    /// first variable of a run, typically): the step variable's endpoint
    /// values in its cheapest incident pattern.
    fn universe(&mut self, v: Var) -> Vec<NodeId> {
        let mut best: Option<(usize, usize)> = None;
        for (q, pat) in self.query.patterns().iter().enumerate() {
            if pat.subject.as_var() == Some(v) || pat.object.as_var() == Some(v) {
                let card = self.graph.predicate_cardinality(pat.predicate);
                if best.is_none_or(|(bc, _)| card < bc) {
                    best = Some((card, q));
                }
            }
        }
        let Some((_, q)) = best else {
            return Vec::new();
        };
        let pat = &self.query.patterns()[q];
        let self_loop = pat.subject.as_var() == Some(v) && pat.object.as_var() == Some(v);
        let pairs = self.graph.pairs(pat.predicate);
        self.edge_walks += pairs.len() as u64;
        let mut out: Vec<NodeId> = Vec::with_capacity(pairs.len());
        for &(s, o) in pairs.iter() {
            if self_loop {
                if s == o {
                    out.push(s);
                }
            } else if pat.subject.as_var() == Some(v) {
                out.push(s);
            } else {
                out.push(o);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn extend(
        &mut self,
        steps: &[Step],
        depth: usize,
        binding: &mut Vec<Option<NodeId>>,
        sink: &mut dyn FnMut(usize, NodeId, NodeId),
    ) {
        let step = &steps[depth];

        let mut holders: Vec<&'g [NodeId]> = step
            .constraints
            .iter()
            .filter_map(|c| self.constraint_slice(c, binding))
            .collect();
        let mut candidates: Vec<NodeId> = if holders.is_empty() {
            self.universe(step.var)
        } else {
            // Leapfrog: intersect smallest-first so every later pass scans
            // no more than the current survivor set.
            holders.sort_unstable_by_key(|slice| slice.len());
            let mut current = holders[0].to_vec();
            let mut buf = Vec::new();
            for slice in &holders[1..] {
                if current.is_empty() {
                    break;
                }
                buf.clear();
                slices::intersect_sorted(&current, slice, &mut buf);
                std::mem::swap(&mut current, &mut buf);
            }
            current
        };
        for c in &step.constraints {
            if matches!(c.kind, ConstraintKind::SelfLoop) {
                self.edge_walks += candidates.len() as u64;
                let (graph, p) = (self.graph, c.p);
                candidates.retain(|&n| graph.has_triple(n, p, n));
            }
        }

        for &n in &candidates {
            binding[step.var.index()] = Some(n);
            // Record the survivor's supporting edges at bind time: every
            // real embedding extends through here, so the recorded set
            // contains the ideal answer graph; every recorded edge is a
            // matching data edge, so defactorization stays exact.
            for c in &step.constraints {
                match c.kind {
                    ConstraintKind::Subject(other) => sink(c.q, n, Self::resolve(binding, other)),
                    ConstraintKind::Object(other) => sink(c.q, Self::resolve(binding, other), n),
                    ConstraintKind::SelfLoop => sink(c.q, n, n),
                }
            }
            if depth + 1 < steps.len() {
                self.extend(steps, depth + 1, binding, sink);
            }
        }
        binding[step.var.index()] = None;
    }
}

/// The worst-case-optimal generic-join engine over one graph.
#[derive(Debug, Clone, Copy)]
pub struct WcoEngine<'g> {
    graph: &'g Graph,
    options: EvalOptions,
}

impl<'g> WcoEngine<'g> {
    /// Creates an engine with default options.
    pub fn new(graph: &'g Graph) -> Self {
        WcoEngine {
            graph,
            options: EvalOptions::default(),
        }
    }

    /// Creates an engine with explicit evaluation options.
    ///
    /// `edge_burnback` is ignored: leapfrog recording already lands at or
    /// below the node-burnback fixpoint, so there is nothing for the
    /// Triangulator to prune and views stay maintainable on every shape.
    pub fn with_options(graph: &'g Graph, options: EvalOptions) -> Self {
        WcoEngine { graph, options }
    }

    /// The graph this engine evaluates against.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The evaluation options in effect.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Plans the variable extension order (and the Edgifier metadata plan)
    /// without executing anything.
    pub fn plan(&self, query: &ConjunctiveQuery) -> Result<WcoPlan, EngineError> {
        let plan = planner::plan(self.graph, query, self.options.planner)?;
        let qg = QueryGraph::new(query);
        let scores = catalog_scores(self.graph, query);
        let order = qg.connected_order(|v| scores[v.index()]);
        Ok(WcoPlan {
            order,
            cyclic: qg.is_cyclic(),
            plan,
        })
    }

    /// Runs the leapfrog extension and settles the recorded candidates into
    /// an answer graph at (or below) the node-burnback fixpoint.
    fn build_answer_graph(
        &self,
        query: &ConjunctiveQuery,
        order: &[Var],
    ) -> (AnswerGraph, GenerationStats) {
        let mut ext = Extender::new(self.graph, query);
        let mut sets: Vec<HashSet<(NodeId, NodeId)>> = vec![HashSet::new(); query.num_patterns()];
        ext.run(order, &[], &mut |q, s, o| {
            sets[q].insert((s, o));
        });
        let mut stats = GenerationStats {
            edge_walks: ext.edge_walks,
            ..GenerationStats::default()
        };

        let mut ag = AnswerGraph::new(query);
        let mut empty_pattern = false;
        for (q, set) in sets.into_iter().enumerate() {
            let mut edges: Vec<(NodeId, NodeId)> = set.into_iter().collect();
            edges.sort_unstable();
            stats.edges_added += edges.len() as u64;
            empty_pattern |= edges.is_empty();
            if !edges.is_empty() {
                ag.pattern_mut(q).bulk_load(edges);
            }
            ag.mark_materialized(q);
        }
        if empty_pattern {
            return (cleared_answer_graph(query), stats);
        }

        let settled = settle_candidates(query, &mut ag);
        stats.edges_burned += settled.edges_burned as u64;
        stats.nodes_burned += settled.nodes_burned as u64;
        if ag.has_empty_pattern() {
            ag = cleared_answer_graph(query);
        }
        (ag, stats)
    }

    /// Evaluates phase one and wraps the result into a retained,
    /// maintainable [`WcoView`].
    pub fn materialize_query(
        &self,
        query: &ConjunctiveQuery,
        wplan: &WcoPlan,
    ) -> (WcoView, Timings) {
        let t = Instant::now();
        let (answer_graph, generation) = self.build_answer_graph(query, &wplan.order);
        let timings = Timings {
            answer_graph: t.elapsed(),
            ..Timings::default()
        };
        let view = WcoView {
            query: query.clone(),
            order: wplan.order.clone(),
            plan: wplan.plan.clone(),
            cyclic: wplan.cyclic,
            provenance: ProvenanceIndex::new(query),
            answer_graph,
            generation,
            options: self.options,
            epoch: 0,
            info: MaintenanceInfo::default(),
        };
        (view, timings)
    }

    fn wco_plan<'a>(
        &self,
        prepared: &'a PreparedQuery,
        owned: &'a mut Option<WcoPlan>,
    ) -> Result<&'a WcoPlan, EngineError> {
        match prepared.plan::<WcoPlan>() {
            Some(p) => Ok(p),
            None => {
                *owned = Some(self.plan(prepared.query())?);
                Ok(owned.as_ref().expect("just stored"))
            }
        }
    }
}

impl Engine for WcoEngine<'_> {
    fn name(&self) -> &'static str {
        "wco"
    }

    fn prepare(&self, query: &ConjunctiveQuery) -> Result<PreparedQuery, WireframeError> {
        let wplan = self.plan(query)?;
        Ok(PreparedQuery::new(self.name(), query.clone()).with_payload(wplan))
    }

    fn evaluate(&self, prepared: &PreparedQuery) -> Result<Evaluation, WireframeError> {
        self.check_prepared(prepared)?;
        let t = Instant::now();
        let mut owned = None;
        let wplan = self.wco_plan(prepared, &mut owned)?;
        let planning = t.elapsed();
        let (view, mut timings) = self.materialize_query(prepared.query(), wplan);
        timings.planning = planning;

        let t = Instant::now();
        let (embeddings, defact) = view.defactorize()?;
        timings.defactorization = t.elapsed();
        timings.defactorization_cpu = defact.cpu;

        let factorized = view.factorized();
        let metrics = factorized.metrics(defact.peak_intermediate as u64);
        let explain = self
            .options
            .explain
            .then(|| view.explain_text(&defact, embeddings.len()));
        Ok(Evaluation {
            engine: self.name().to_owned(),
            epochs: Vec::new(),
            embeddings,
            timings,
            cyclic: view.cyclic,
            factorized: Some(factorized),
            metrics,
            explain,
            maintenance: None,
            limited: None,
        })
    }

    /// Always: delta-rule maintenance covers every query shape, cyclic
    /// included.
    fn supports_maintenance(&self) -> bool {
        true
    }

    fn capabilities(&self) -> EngineCapabilities {
        EngineCapabilities {
            cyclic: true,
            factorizes: true,
            maintainable: true,
            maintainable_cyclic: true,
            parallel_defactorize: true,
            sharded_merge: true,
        }
    }

    fn materialize(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<Option<Box<dyn MaintainedView>>, WireframeError> {
        self.check_prepared(prepared)?;
        let mut owned = None;
        let wplan = self.wco_plan(prepared, &mut owned)?;
        let (view, _timings) = self.materialize_query(prepared.query(), wplan);
        Ok(Some(Box::new(view)))
    }
}

/// A retained `wco` evaluation, incrementally maintainable on **every**
/// query shape — cyclic queries included — via delta rules (see the module
/// docs for why [`MaterializedQuery`]'s revive closure cannot be reused
/// here, and why the maintained graph may drift above a fresh run's size
/// while staying embedding-exact).
///
/// [`MaterializedQuery`]: crate::MaterializedQuery
#[derive(Debug, Clone)]
pub struct WcoView {
    query: ConjunctiveQuery,
    order: Vec<Var>,
    plan: Plan,
    cyclic: bool,
    provenance: ProvenanceIndex,
    answer_graph: AnswerGraph,
    generation: GenerationStats,
    options: EvalOptions,
    epoch: u64,
    info: MaintenanceInfo,
}

impl WcoView {
    /// The query this view answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The maintained answer graph.
    pub fn answer_graph(&self) -> &AnswerGraph {
        &self.answer_graph
    }

    /// The variable extension order the view was built with.
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    /// Whether the query graph is cyclic.
    pub fn cyclic(&self) -> bool {
        self.cyclic
    }

    /// Phase-one statistics of the original materialization.
    pub fn generation(&self) -> &GenerationStats {
        &self.generation
    }

    /// Folds one mutation batch's net `delta` into the retained answer
    /// graph and stamps `epoch`. `graph` must be the post-mutation graph.
    ///
    /// Tombstoned edges are dropped from every pattern they were bound to
    /// (phase A); each inserted edge seeds one delta rule per pattern it
    /// matches, re-running the leapfrog extension for the remaining
    /// variables and recording survivors into the retained graph (phase B);
    /// one settling burnback re-derives the node sets and cascades to the
    /// fixpoint (phase C). Work is `O(|delta| · rule cost + |AG|)`.
    pub fn maintain(&mut self, graph: &Graph, delta: &EdgeDelta, epoch: u64) -> MaintenanceStats {
        let start = Instant::now();
        let mut stats = MaintenanceStats::default();
        let touched: Vec<PredId> = self.provenance.predicates().collect();

        // Phase A — tombstones.
        let mut dirty = false;
        for &p in &touched {
            for t in delta.removed_for(p) {
                for &q in self.provenance.patterns_for(p) {
                    let pat = self.query.patterns()[q];
                    if !ends_match(&pat, t.subject, t.object) {
                        continue;
                    }
                    if self.answer_graph.pattern_mut(q).remove(t.subject, t.object) {
                        stats.candidate_removals += 1;
                        stats.edges_removed += 1;
                        dirty = true;
                    }
                }
            }
        }

        // Phase B — delta rules: one per (inserted triple, matching
        // pattern). The rule seeds the pattern's variables from the triple
        // and leapfrogs the rest; at-bind recording writes straight into
        // the retained graph.
        let query = &self.query;
        let ag = &mut self.answer_graph;
        let qg = QueryGraph::new(query);
        let scores = catalog_scores(graph, query);
        let mut ext = Extender::new(graph, query);
        for &p in &touched {
            for t in delta.inserted_for(p) {
                for &q in self.provenance.patterns_for(p) {
                    let pat = query.patterns()[q];
                    if !ends_match(&pat, t.subject, t.object) {
                        continue;
                    }
                    let was_known = ag.pattern(q).contains(t.subject, t.object);
                    let mut prebound: Vec<(Var, NodeId)> = Vec::new();
                    if let Some(v) = pat.subject.as_var() {
                        prebound.push((v, t.subject));
                    }
                    if let Some(w) = pat.object.as_var() {
                        if prebound.iter().all(|&(u, _)| u != w) {
                            prebound.push((w, t.object));
                        }
                    }
                    let seeded: Vec<Var> = prebound.iter().map(|&(v, _)| v).collect();
                    let order = delta_order(&qg, &scores, &seeded, query.num_vars());
                    let mut added = 0usize;
                    ext.run(&order, &prebound, &mut |qi, s, o| {
                        if ag.pattern_mut(qi).insert(s, o) {
                            added += 1;
                        }
                    });
                    if added > 0 {
                        stats.edges_added += added;
                        dirty = true;
                        if !was_known && ag.pattern(q).contains(t.subject, t.object) {
                            stats.candidate_inserts += 1;
                        }
                    }
                }
            }
        }

        // Phase C — settle: re-derive the node sets from the maintained
        // pattern edges and burn back to the fixpoint. Simpler than suspect
        // tracking and O(|AG|) — the factorized artifact is small by design.
        if dirty {
            let before: Vec<Vec<NodeId>> = query
                .variables()
                .map(|v| ag.node_set(v).to_sorted_vec())
                .collect();
            if ag.has_empty_pattern() {
                *ag = cleared_answer_graph(query);
            } else {
                let settled = settle_candidates(query, ag);
                stats.edges_removed += settled.edges_burned;
                stats.frontier_nodes = settled.frontier;
                if ag.has_empty_pattern() {
                    *ag = cleared_answer_graph(query);
                }
            }
            for (v, old) in query.variables().zip(before) {
                let new = ag.node_set(v).to_sorted_vec();
                let (mut i, mut j) = (0, 0);
                while i < old.len() || j < new.len() {
                    match (old.get(i), new.get(j)) {
                        (Some(a), Some(b)) if a == b => {
                            i += 1;
                            j += 1;
                        }
                        (Some(a), Some(b)) if a < b => {
                            stats.nodes_removed += 1;
                            i += 1;
                        }
                        (Some(_), Some(_)) | (None, Some(_)) => {
                            stats.nodes_added += 1;
                            j += 1;
                        }
                        (Some(_), None) => {
                            stats.nodes_removed += 1;
                            i += 1;
                        }
                        (None, None) => unreachable!(),
                    }
                }
            }
        }

        self.epoch = epoch;
        self.info.maintained_epoch = epoch;
        self.info.passes += 1;
        self.info.frontier_nodes += stats.frontier_nodes as u64;
        self.info.maintenance_us += start.elapsed().as_micros() as u64;
        stats
    }

    /// Phase two on demand: defactorizes the current answer graph into
    /// projected embeddings (never retained, only re-derived).
    pub fn defactorize(&self) -> Result<(EmbeddingSet, DefactorizationStats), EngineError> {
        defactorize_projected(&self.query, &self.answer_graph, self.options.threads)
    }

    fn factorized(&self) -> Factorized {
        Factorized {
            answer_graph_edges: self.answer_graph.total_edges(),
            plan_order: self.plan.order.clone(),
            edge_walks: self.generation.edge_walks,
            edges_burned: self.generation.edges_burned,
            nodes_burned: self.generation.nodes_burned,
            edge_burnback_removed: 0,
        }
    }

    fn explain_text(&self, defact: &DefactorizationStats, embeddings: usize) -> String {
        use std::fmt::Write as _;
        let order: Vec<String> = self
            .order
            .iter()
            .map(|&v| format!("?{}", self.query.var_name(v)))
            .collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wco generic join (epoch {}, {} maintenance pass(es)):",
            self.info.maintained_epoch, self.info.passes
        );
        let _ = writeln!(
            out,
            "  variable order [{}]   |AG| = {} answer edges across {} query edges{}",
            order.join(", "),
            self.answer_graph.total_edges(),
            self.query.num_patterns(),
            if self.cyclic { "  (cyclic query)" } else { "" }
        );
        let _ = writeln!(
            out,
            "phase 2 (defactorization, on demand):\n  join order {:?}   peak intermediate {}   embeddings {}",
            defact.join_order, defact.peak_intermediate, embeddings
        );
        out
    }
}

impl MaintainedView for WcoView {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.info.maintained_epoch = epoch;
    }

    fn maintain(&mut self, graph: &Graph, delta: &EdgeDelta, epoch: u64) -> MaintenanceStats {
        WcoView::maintain(self, graph, delta, epoch)
    }

    fn evaluate(&self) -> Result<Evaluation, WireframeError> {
        let t = Instant::now();
        let (embeddings, defact) = self.defactorize()?;
        let timings = Timings {
            defactorization: t.elapsed(),
            defactorization_cpu: defact.cpu,
            ..Timings::default()
        };
        let factorized = self.factorized();
        let metrics = factorized.metrics(defact.peak_intermediate as u64);
        let explain = self
            .options
            .explain
            .then(|| self.explain_text(&defact, embeddings.len()));
        Ok(Evaluation {
            engine: "wco".to_owned(),
            epochs: Vec::new(),
            embeddings,
            timings,
            cyclic: self.cyclic,
            factorized: Some(factorized),
            metrics,
            explain,
            maintenance: Some(self.info),
            limited: None,
        })
    }

    fn info(&self) -> MaintenanceInfo {
        self.info
    }

    fn clone_view(&self) -> Box<dyn MaintainedView> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WireframeEngine;
    use wireframe_graph::{GraphBuilder, Mutation, StoreKind};
    use wireframe_query::parse_query;

    fn triangle_graph(kind: StoreKind) -> Graph {
        let mut b = GraphBuilder::new();
        // Two proper triangles plus open wedges that edge-at-a-time
        // pipelines materialize and burn back.
        for (s, p, o) in [
            ("a", "A", "b"),
            ("b", "B", "c"),
            ("c", "C", "a"),
            ("d", "A", "e"),
            ("e", "B", "f"),
            ("f", "C", "d"),
            ("a", "A", "x"),
            ("x", "B", "y"),
            ("y", "C", "z"),
            ("g", "A", "b"),
            ("h", "B", "c"),
        ] {
            b.add(s, p, o);
        }
        b.build_with_store(kind)
    }

    fn triangle_query(g: &Graph) -> ConjunctiveQuery {
        parse_query(
            "SELECT * WHERE { ?x :A ?y . ?y :B ?z . ?z :C ?x . }",
            g.dictionary(),
        )
        .unwrap()
    }

    fn assert_same_answer(g: &Graph, q: &ConjunctiveQuery, context: &str) {
        let wco = WcoEngine::new(g);
        let reference = WireframeEngine::new(g).execute(q).unwrap();
        let prepared = wco.prepare(q).unwrap();
        let ev = wco.evaluate(&prepared).unwrap();
        assert!(
            ev.embeddings.same_answer(reference.embeddings()),
            "{context}: embeddings differ from the wireframe engine"
        );
        assert!(
            ev.answer_graph_size().unwrap() <= reference.answer_graph_size(),
            "{context}: leapfrog recording must not exceed the node-burnback fixpoint"
        );
    }

    #[test]
    fn triangles_match_the_wireframe_engine_on_all_stores() {
        for kind in [StoreKind::Csr, StoreKind::Delta] {
            let g = triangle_graph(kind);
            let q = triangle_query(&g);
            assert_same_answer(&g, &q, &format!("triangle on {kind:?}"));
        }
    }

    #[test]
    fn wco_answer_graph_is_store_deterministic() {
        let reference: Vec<Vec<(NodeId, NodeId)>> = {
            let g = triangle_graph(StoreKind::Csr);
            let q = triangle_query(&g);
            let wco = WcoEngine::new(&g);
            let wplan = wco.plan(&q).unwrap();
            let (view, _) = wco.materialize_query(&q, &wplan);
            (0..q.num_patterns())
                .map(|qi| {
                    let mut edges: Vec<_> = view.answer_graph().pattern(qi).iter().collect();
                    edges.sort_unstable();
                    edges
                })
                .collect()
        };
        let g = triangle_graph(StoreKind::Delta);
        let q = triangle_query(&g);
        let wco = WcoEngine::new(&g);
        let wplan = wco.plan(&q).unwrap();
        let (view, _) = wco.materialize_query(&q, &wplan);
        for (qi, expect) in reference.iter().enumerate() {
            let mut got: Vec<_> = view.answer_graph().pattern(qi).iter().collect();
            got.sort_unstable();
            assert_eq!(&got, expect, "pattern {qi} differs on the delta store");
        }
    }

    #[test]
    fn chains_stars_and_constants_agree_with_the_wireframe_engine() {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "5");
        b.add("2", "A", "5");
        b.add("3", "A", "5");
        b.add("4", "A", "6");
        b.add("5", "B", "9");
        b.add("7", "B", "10");
        for o in ["12", "13", "14", "15"] {
            b.add("9", "C", o);
        }
        b.add("11", "C", "15");
        let g = b.build();
        for text in [
            "SELECT * WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            "SELECT DISTINCT ?x WHERE { ?w :A ?x . ?x :B ?y . }",
            "SELECT * WHERE { ?w :A 5 . }",
            "SELECT ?y WHERE { 5 :B ?y . ?y :C ?z . }",
        ] {
            let q = parse_query(text, g.dictionary()).unwrap();
            assert_same_answer(&g, &q, text);
        }
    }

    #[test]
    fn self_loops_admit_only_loops() {
        let mut b = GraphBuilder::new();
        b.add("n", "p", "n");
        b.add("n", "p", "m");
        b.add("m", "p", "n");
        let g = b.build();
        let q = parse_query("SELECT ?x WHERE { ?x :p ?x . }", g.dictionary()).unwrap();
        assert_same_answer(&g, &q, "self loop");
    }

    #[test]
    fn empty_answers_clear_the_answer_graph() {
        let g = triangle_graph(StoreKind::Csr);
        let q = parse_query("SELECT * WHERE { ?x :C ?y . ?y :C ?z . }", g.dictionary()).unwrap();
        let wco = WcoEngine::new(&g);
        let ev = wco.evaluate(&wco.prepare(&q).unwrap()).unwrap();
        assert_eq!(ev.embedding_count(), 0);
        assert_eq!(ev.answer_graph_size(), Some(0));
    }

    #[test]
    fn disconnected_queries_are_rejected() {
        let g = triangle_graph(StoreKind::Csr);
        let q = parse_query("SELECT * WHERE { ?x :A ?y . ?a :C ?b . }", g.dictionary()).unwrap();
        assert!(WcoEngine::new(&g).prepare(&q).is_err());
    }

    #[test]
    fn capabilities_cover_cyclic_views_regardless_of_options() {
        let g = triangle_graph(StoreKind::Csr);
        let wco = WcoEngine::with_options(&g, EvalOptions::default().with_edge_burnback());
        let caps = wco.capabilities();
        assert!(caps.cyclic && caps.factorizes && caps.maintainable);
        assert!(caps.maintainable_cyclic, "wco ignores edge burnback");
        assert!(caps.parallel_defactorize && caps.sharded_merge);
        assert!(wco.supports_maintenance());
    }

    /// The churn invariant: after every mutation batch, the maintained
    /// view's embeddings equal a fresh evaluation's. Answer-graph *size*
    /// may drift above a fresh run (delta rules record support leapfrog
    /// would skip), so only embeddings are compared.
    fn assert_view_matches_fresh(view: &WcoView, graph: &Graph, context: &str) {
        let wco = WcoEngine::new(graph);
        let fresh = wco.evaluate(&wco.prepare(view.query()).unwrap()).unwrap();
        let (ours, _) = view.defactorize().unwrap();
        assert!(
            ours.same_answer(&fresh.embeddings),
            "{context}: maintained embeddings differ from a fresh evaluation"
        );
    }

    #[test]
    fn cyclic_views_survive_churn() {
        let g = triangle_graph(StoreKind::Delta);
        let q = triangle_query(&g);
        let wco = WcoEngine::new(&g);
        let wplan = wco.plan(&q).unwrap();
        let (mut view, _) = wco.materialize_query(&q, &wplan);
        assert_view_matches_fresh(&view, &g, "after materialization");

        // Close the open wedge a→x→y into a triangle: a brand-new
        // embedding whose first two edges were leapfrog-pruned. This is
        // exactly the case the revive-closure maintenance misses.
        let (g1, out1) = g.apply(&Mutation::new().insert("y", "C", "a"));
        let stats = view.maintain(&g1, &out1.delta, 1);
        assert!(stats.edges_added >= 3, "the whole new triangle is recorded");
        assert_eq!(view.epoch(), 1);
        assert_view_matches_fresh(&view, &g1, "after closing a wedge");

        // Break one of the original triangles.
        let (g2, out2) = g1.apply(&Mutation::new().remove("b", "B", "c"));
        let stats = view.maintain(&g2, &out2.delta, 2);
        assert!(stats.edges_removed >= 1);
        assert_view_matches_fresh(&view, &g2, "after breaking a triangle");

        // A mixed batch: remove the just-added closure, add a non-closing
        // edge, plus a predicate the query ignores.
        let (g3, out3) = g2.apply(
            &Mutation::new()
                .remove("y", "C", "a")
                .insert("z", "C", "a")
                .insert("y", "Z", "a"),
        );
        view.maintain(&g3, &out3.delta, 3);
        assert_view_matches_fresh(&view, &g3, "after a mixed batch");

        // Empty the answer entirely, then resurrect it.
        let (g4, out4) = g3.apply(
            &Mutation::new()
                .remove("a", "A", "b")
                .remove("g", "A", "b")
                .remove("d", "A", "e")
                .remove("a", "A", "x"),
        );
        view.maintain(&g4, &out4.delta, 4);
        assert_eq!(view.answer_graph().total_edges(), 0);
        assert_view_matches_fresh(&view, &g4, "after emptying");

        let (g5, out5) = g4.apply(&Mutation::new().insert("d", "A", "e"));
        view.maintain(&g5, &out5.delta, 5);
        assert!(view.answer_graph().total_edges() >= 3, "answer resurrected");
        assert_view_matches_fresh(&view, &g5, "after resurrection");
    }

    #[test]
    fn four_cycle_views_survive_churn() {
        let mut b = GraphBuilder::new();
        for (s, p, o) in [
            ("1", "A", "2"),
            ("2", "B", "3"),
            ("3", "C", "4"),
            ("4", "D", "1"),
            ("5", "A", "6"),
            ("6", "B", "7"),
            ("7", "C", "8"),
        ] {
            b.add(s, p, o);
        }
        let g = b.build_with_store(StoreKind::Delta);
        let q = parse_query(
            "SELECT * WHERE { ?a :A ?b . ?b :B ?c . ?c :C ?d . ?d :D ?a . }",
            g.dictionary(),
        )
        .unwrap();
        assert_same_answer(&g, &q, "4-cycle");

        let wco = WcoEngine::new(&g);
        let wplan = wco.plan(&q).unwrap();
        let (mut view, _) = wco.materialize_query(&q, &wplan);
        let (g1, out1) = g.apply(&Mutation::new().insert("8", "D", "5"));
        view.maintain(&g1, &out1.delta, 1);
        assert_view_matches_fresh(&view, &g1, "after closing the second 4-cycle");

        let (g2, out2) = g1.apply(&Mutation::new().remove("2", "B", "3"));
        view.maintain(&g2, &out2.delta, 2);
        assert_view_matches_fresh(&view, &g2, "after breaking the first 4-cycle");
    }

    #[test]
    fn view_evaluate_serves_uniform_evaluations() {
        let g = triangle_graph(StoreKind::Csr);
        let q = triangle_query(&g);
        let wco = WcoEngine::new(&g);
        let view = wco
            .materialize(&wco.prepare(&q).unwrap())
            .unwrap()
            .expect("wco always materializes");
        let ev = view.evaluate().unwrap();
        assert_eq!(ev.engine, "wco");
        assert!(ev.cyclic);
        assert!(ev.factorized.is_some());
        assert_eq!(ev.embedding_count(), 2, "one embedding per triangle");
        assert!(ev.maintenance.is_some());
    }

    #[test]
    fn explain_renders_the_variable_order() {
        let g = triangle_graph(StoreKind::Csr);
        let q = triangle_query(&g);
        let wco = WcoEngine::with_options(&g, EvalOptions::default().with_explain());
        let ev = wco.evaluate(&wco.prepare(&q).unwrap()).unwrap();
        let explain = ev.explain.expect("explain was requested");
        assert!(explain.contains("wco generic join"));
        assert!(explain.contains("variable order"));
    }
}
