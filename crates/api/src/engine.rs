//! The `Engine` trait: the uniform evaluator contract.

use wireframe_graph::StoreKind;
use wireframe_query::ConjunctiveQuery;

use crate::error::WireframeError;
use crate::evaluation::Evaluation;
use crate::prepared::PreparedQuery;
use crate::view::MaintainedView;

/// Engine-independent evaluation knobs, passed to registry factories.
///
/// Each engine maps the config onto its own options and ignores knobs that do
/// not apply (e.g. the baselines ignore `edge_burnback`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// For cyclic queries on factorized engines: triangulate and run edge
    /// burnback after node burnback, guaranteeing the ideal answer graph at
    /// extra cost.
    pub edge_burnback: bool,
    /// Ask the engine to render a plan/statistics explanation into
    /// [`Evaluation::explain`].
    pub explain: bool,
    /// Worker threads for parallelizable phases (the Wireframe engine's
    /// phase-two defactorizer). `0` (the default) keeps the engine's own
    /// default; `1` forces sequential evaluation; `n > 1` requests `n`
    /// workers. Engines without parallel phases ignore the knob.
    pub threads: usize,
    /// The graph storage backend queries should run against (`--store` on
    /// the CLIs). `None` (the default) keeps whatever backend the graph was
    /// built with; `Some(kind)` requests a re-index. Engines themselves are
    /// backend-agnostic — they see the uniform `Graph` access paths — so
    /// this knob is honored by whoever *builds* the graph (the `Session`
    /// facade, `wfquery`, `wfbench`), before engines are constructed over
    /// it.
    pub store: Option<StoreKind>,
    /// Row bound for answers, `0` (the default) meaning unlimited. Engines
    /// that honor it truncate each evaluation to the first `limit` rows
    /// under the canonical row order (recording
    /// [`LimitInfo`](crate::LimitInfo)); serving layers additionally use it
    /// as the retention capacity `k` for maintained top-k prefixes, so
    /// bounded queries are served in `O(k)` instead of
    /// `O(|Embeddings|)`.
    pub limit: usize,
}

impl EngineConfig {
    /// Enables edge burnback.
    pub fn with_edge_burnback(mut self) -> Self {
        self.edge_burnback = true;
        self
    }

    /// Selects the graph storage backend (`None`, the default, keeps the
    /// graph's own backend).
    pub fn with_store(mut self, store: StoreKind) -> Self {
        self.store = Some(store);
        self
    }

    /// Requests a rendered explanation alongside each evaluation.
    pub fn with_explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Requests `threads` workers for parallelizable phases (`0` = engine
    /// default, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Bounds answers to the canonical first `limit` rows (`0` = unlimited).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }
}

/// What an engine can do, beyond answering acyclic conjunctive queries.
///
/// Serving layers route on these flags instead of matching engine *names*:
/// the `Session` facade consults `maintainable` / `maintainable_cyclic` to
/// decide between view maintenance and eviction, and `ShardedCluster` admits
/// any engine with `sharded_merge`. Registries carry a static copy per entry
/// (see `EngineRegistry::register`) so capability listings — e.g.
/// `wfquery --engine help` — need not build an engine first; the instance
/// method [`Engine::capabilities`] reflects the engine's actual
/// configuration and may be narrower (e.g. wireframe under edge burnback
/// loses `maintainable_cyclic`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCapabilities {
    /// Evaluates cyclic queries exactly (all in-tree engines do).
    pub cyclic: bool,
    /// Produces a factorized `AnswerGraph` artifact ([`Evaluation::factorized`]).
    pub factorizes: bool,
    /// Can materialize retained, incrementally-maintained views
    /// ([`Engine::materialize`]) for at least the acyclic class.
    pub maintainable: bool,
    /// Maintains views for *cyclic* queries too — no eviction fallback.
    pub maintainable_cyclic: bool,
    /// Honors `EngineConfig::threads` with a parallel defactorization phase.
    pub parallel_defactorize: bool,
    /// Its factorized output composes under the sharded scatter-gather
    /// merge, so a `ShardedCluster` may serve it.
    pub sharded_merge: bool,
}

impl EngineCapabilities {
    /// Renders the set flags as a short comma-separated list (for CLI
    /// listings); "-" when none are set.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.cyclic {
            parts.push("cyclic");
        }
        if self.factorizes {
            parts.push("factorized");
        }
        if self.maintainable {
            parts.push("views");
        }
        if self.maintainable_cyclic {
            parts.push("cyclic-views");
        }
        if self.parallel_defactorize {
            parts.push("parallel");
        }
        if self.sharded_merge {
            parts.push("sharded");
        }
        if parts.is_empty() {
            "-".to_owned()
        } else {
            parts.join(",")
        }
    }
}

/// A conjunctive-query evaluator over one graph.
///
/// Implemented by the factorized Wireframe engine and every baseline, so
/// harnesses, the CLI and the equivalence tests drive all of them through one
/// interface. The two-step `prepare` / `evaluate` split exists so that
/// callers (notably the `Session` facade) can cache prepared queries — plans
/// included — keyed by the canonical query signature.
pub trait Engine {
    /// The engine's registry name (e.g. `"wireframe"`, `"relational"`).
    fn name(&self) -> &'static str;

    /// Prepares `query` for repeated evaluation: validates it, derives
    /// structural facts, and (for planning engines) computes and attaches the
    /// execution plan.
    fn prepare(&self, query: &ConjunctiveQuery) -> Result<PreparedQuery, WireframeError>;

    /// Evaluates a prepared query, returning the uniform [`Evaluation`].
    ///
    /// Implementations must reuse any plan payload carried by `prepared`
    /// rather than re-planning, so that prepared-query caching actually
    /// saves work.
    fn evaluate(&self, prepared: &PreparedQuery) -> Result<Evaluation, WireframeError>;

    /// Convenience: `prepare` + `evaluate` in one call.
    fn run(&self, query: &ConjunctiveQuery) -> Result<Evaluation, WireframeError> {
        let prepared = self.prepare(query)?;
        self.evaluate(&prepared)
    }

    /// Whether this engine can [`materialize`](Engine::materialize) prepared
    /// queries into retained, incrementally-maintained views. Serving layers
    /// use the capability to decide between footprint-*maintenance* and
    /// footprint-*eviction* when the graph mutates. Default: `false`.
    fn supports_maintenance(&self) -> bool {
        false
    }

    /// The capability set of this engine **instance** (i.e. as configured).
    ///
    /// The default is derived from
    /// [`supports_maintenance`](Engine::supports_maintenance): every in-tree
    /// engine answers cyclic queries exactly, and a maintaining engine is
    /// assumed to maintain at least the acyclic class. Engines with richer
    /// behavior (factorized output, cyclic views, sharded merge) override
    /// this.
    fn capabilities(&self) -> EngineCapabilities {
        EngineCapabilities {
            cyclic: true,
            maintainable: self.supports_maintenance(),
            ..EngineCapabilities::default()
        }
    }

    /// Materializes `prepared` into a retained [`MaintainedView`] over this
    /// engine's current graph: runs the (phase-one) pipeline once and keeps
    /// the factorized state for incremental maintenance. `Ok(None)` means
    /// this particular query is not maintainable (or the engine does not
    /// maintain at all) — callers must fall back to plain evaluation plus
    /// eviction-on-mutation. Default: `Ok(None)`.
    fn materialize(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<Option<Box<dyn MaintainedView>>, WireframeError> {
        let _ = prepared;
        Ok(None)
    }

    /// Guard for implementations: errors when `prepared` was produced by a
    /// different engine.
    fn check_prepared(&self, prepared: &PreparedQuery) -> Result<(), WireframeError> {
        if prepared.engine() == self.name() {
            Ok(())
        } else {
            Err(WireframeError::EngineMismatch {
                prepared_by: prepared.engine().to_owned(),
                evaluated_by: self.name().to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::Timings;
    use wireframe_graph::GraphBuilder;
    use wireframe_query::{CqBuilder, EmbeddingSet};

    /// A trivial engine that answers every query with the empty set, proving
    /// the trait is implementable outside the workspace's engine crates.
    struct NullEngine;

    impl Engine for NullEngine {
        fn name(&self) -> &'static str {
            "null"
        }

        fn prepare(&self, query: &ConjunctiveQuery) -> Result<PreparedQuery, WireframeError> {
            Ok(PreparedQuery::new(self.name(), query.clone()))
        }

        fn evaluate(&self, prepared: &PreparedQuery) -> Result<Evaluation, WireframeError> {
            self.check_prepared(prepared)?;
            Ok(Evaluation {
                engine: self.name().to_owned(),
                epochs: Vec::new(),
                embeddings: EmbeddingSet::empty(prepared.query().projection().to_vec()),
                timings: Timings::default(),
                cyclic: prepared.cyclic(),
                factorized: None,
                metrics: Vec::new(),
                explain: None,
                maintenance: None,
                limited: None,
            })
        }
    }

    fn any_query() -> ConjunctiveQuery {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "p", "?y").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn run_is_prepare_then_evaluate() {
        let q = any_query();
        let ev = NullEngine.run(&q).unwrap();
        assert_eq!(ev.engine, "null");
        assert!(ev.embeddings.is_empty());
    }

    #[test]
    fn mismatched_prepared_query_is_rejected() {
        let q = any_query();
        let foreign = PreparedQuery::new("other", q);
        let err = NullEngine.evaluate(&foreign).unwrap_err();
        assert!(matches!(err, WireframeError::EngineMismatch { .. }));
    }

    #[test]
    fn default_capabilities_derive_from_supports_maintenance() {
        let caps = NullEngine.capabilities();
        assert!(caps.cyclic);
        assert!(!caps.maintainable, "NullEngine does not maintain");
        assert!(!caps.factorizes && !caps.maintainable_cyclic);
        assert!(!caps.parallel_defactorize && !caps.sharded_merge);
        assert_eq!(caps.summary(), "cyclic");
        assert_eq!(EngineCapabilities::default().summary(), "-");
        let full = EngineCapabilities {
            cyclic: true,
            factorizes: true,
            maintainable: true,
            maintainable_cyclic: true,
            parallel_defactorize: true,
            sharded_merge: true,
        };
        assert_eq!(
            full.summary(),
            "cyclic,factorized,views,cyclic-views,parallel,sharded"
        );
    }

    #[test]
    fn config_builders() {
        let c = EngineConfig::default()
            .with_edge_burnback()
            .with_explain()
            .with_threads(4)
            .with_store(StoreKind::Delta)
            .with_limit(25);
        assert!(c.edge_burnback && c.explain);
        assert_eq!(c.threads, 4);
        assert_eq!(c.store, Some(StoreKind::Delta));
        assert_eq!(c.limit, 25);
        assert_eq!(
            EngineConfig::default(),
            EngineConfig {
                edge_burnback: false,
                explain: false,
                threads: 0,
                store: None,
                limit: 0,
            }
        );
    }
}
