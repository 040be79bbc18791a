//! The stock engine registry: all five engines of the workspace by name.

use wireframe_api::{Engine, EngineCapabilities, EngineConfig, EngineRegistry};
use wireframe_baseline::{ExplorationEngine, RelationalEngine, SortMergeEngine};
use wireframe_core::{EvalOptions, WcoEngine, WireframeEngine};
use wireframe_graph::Graph;

fn eval_options(config: &EngineConfig) -> EvalOptions {
    let mut options = EvalOptions::default();
    if config.edge_burnback {
        options = options.with_edge_burnback();
    }
    if config.explain {
        options = options.with_explain();
    }
    if config.threads > 0 {
        options = options.with_threads(config.threads);
    }
    if config.limit > 0 {
        options = options.with_limit(config.limit);
    }
    options
}

fn build_wireframe<'g>(
    graph: &'g Graph,
    config: &EngineConfig,
) -> Box<dyn Engine + Send + Sync + 'g> {
    Box::new(WireframeEngine::with_options(graph, eval_options(config)))
}

fn build_wco<'g>(graph: &'g Graph, config: &EngineConfig) -> Box<dyn Engine + Send + Sync + 'g> {
    Box::new(WcoEngine::with_options(graph, eval_options(config)))
}

fn build_relational<'g>(
    graph: &'g Graph,
    _config: &EngineConfig,
) -> Box<dyn Engine + Send + Sync + 'g> {
    Box::new(RelationalEngine::new(graph))
}

fn build_sortmerge<'g>(
    graph: &'g Graph,
    _config: &EngineConfig,
) -> Box<dyn Engine + Send + Sync + 'g> {
    Box::new(SortMergeEngine::new(graph))
}

fn build_exploration<'g>(
    graph: &'g Graph,
    _config: &EngineConfig,
) -> Box<dyn Engine + Send + Sync + 'g> {
    Box::new(ExplorationEngine::new(graph))
}

/// The nominal capabilities of a factorized engine under default options.
const FACTORIZED: EngineCapabilities = EngineCapabilities {
    cyclic: true,
    factorizes: true,
    maintainable: true,
    maintainable_cyclic: true,
    parallel_defactorize: true,
    sharded_merge: true,
};

/// The nominal capabilities of a single-pass baseline: evaluates every
/// shape, retains nothing.
const BASELINE: EngineCapabilities = EngineCapabilities {
    cyclic: true,
    factorizes: false,
    maintainable: false,
    maintainable_cyclic: false,
    parallel_defactorize: false,
    sharded_merge: false,
};

/// The registry with every engine of the workspace:
///
/// * `wireframe` — the factorized answer-graph engine (the paper's
///   contribution; the default),
/// * `wco` — worst-case-optimal generic join (leapfrog variable extension)
///   producing the same factorized artifact; keeps **cyclic** views
///   maintainable even where `wireframe` declines,
/// * `relational` — pairwise hash joins with full materialization
///   (PostgreSQL / Virtuoso proxy),
/// * `sortmerge` — sort-merge joins over column-shaped scans (MonetDB proxy),
/// * `exploration` — depth-first backtracking pattern matching (Neo4J proxy).
///
/// Engines are storage-backend- and version-agnostic: they are built per
/// call over whatever [`Graph`] snapshot the `Session` facade hands them
/// (`csr` or the dynamic `delta` backend), and the session — not the
/// engine — stamps the mutation epoch into each `Evaluation`.
///
/// Each entry carries its **nominal** capability set (what a
/// default-configured instance can do); serving layers route on these (and
/// on the narrower per-instance [`Engine::capabilities`]) instead of
/// matching names.
pub fn default_registry() -> EngineRegistry {
    let mut registry = EngineRegistry::new();
    registry
        .register(
            "wireframe",
            "factorized answer-graph evaluation (the paper's engine; default)",
            FACTORIZED,
            build_wireframe,
        )
        .register(
            "wco",
            "worst-case-optimal generic join; maintainable cyclic views",
            FACTORIZED,
            build_wco,
        )
        .register(
            "relational",
            "hash joins with full intermediate materialization (PostgreSQL/Virtuoso proxy)",
            BASELINE,
            build_relational,
        )
        .register(
            "sortmerge",
            "sort-merge joins over column-shaped scans (MonetDB proxy)",
            BASELINE,
            build_sortmerge,
        )
        .register(
            "exploration",
            "depth-first backtracking graph exploration (Neo4J proxy)",
            BASELINE,
            build_exploration,
        );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_api::WireframeError;
    use wireframe_graph::GraphBuilder;
    use wireframe_query::{parse_query, QueryError};

    #[test]
    fn all_five_engines_are_registered_and_buildable() {
        let registry = default_registry();
        assert_eq!(
            registry.names(),
            vec!["wireframe", "wco", "relational", "sortmerge", "exploration"]
        );
        assert_eq!(registry.default_engine(), Some("wireframe"));

        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let g = b.build();
        let q = parse_query("SELECT * WHERE { ?x :p ?y . }", g.dictionary()).unwrap();
        for name in registry.names() {
            let engine = registry
                .build(name, &g, &EngineConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(engine.name(), name);
            let ev = engine.run(&q).unwrap();
            assert_eq!(ev.embedding_count(), 1, "{name}");
        }
    }

    #[test]
    fn every_engine_rejects_a_projected_variable_no_pattern_binds() {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let mut session = crate::Session::new(b.build());
        for name in default_registry().names() {
            session.set_engine(name).unwrap();
            let err = session.query("SELECT ?z WHERE { ?x :p ?y . }").unwrap_err();
            assert!(
                matches!(
                    &err,
                    WireframeError::Query(QueryError::UnknownVariable(v)) if v == "?z"
                ),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn capabilities_drive_routing_not_names() {
        let registry = default_registry();
        let caps = |name: &str| registry.capabilities(name).unwrap();
        assert!(caps("wireframe").factorizes && caps("wco").factorizes);
        assert!(!caps("relational").factorizes);
        assert!(!caps("exploration").maintainable);
        assert!(caps("wco").maintainable_cyclic);
        assert_eq!(
            registry.find_capable(|c| c.maintainable_cyclic),
            Some("wireframe"),
            "nominal (default-options) wireframe maintains cyclic views too"
        );
        assert_eq!(registry.find_capable(|c| !c.factorizes), Some("relational"));

        // The instance-level narrowing: a wireframe configured with edge
        // burnback loses cyclic maintainability, wco never does.
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let g = b.build();
        let config = EngineConfig::default().with_edge_burnback();
        let wf = registry.build("wireframe", &g, &config).unwrap();
        assert!(!wf.capabilities().maintainable_cyclic);
        let wco = registry.build("wco", &g, &config).unwrap();
        assert!(wco.capabilities().maintainable_cyclic);
    }

    #[test]
    fn config_reaches_the_wireframe_engine() {
        let mut b = GraphBuilder::new();
        // Two diamonds plus cross-diamond C edges: the cross edges survive
        // node burnback (their endpoints stay supported) but close no diamond,
        // so only edge burnback removes them.
        b.add("3", "A", "4");
        b.add("3", "B", "2");
        b.add("4", "C", "1");
        b.add("2", "D", "1");
        b.add("7", "A", "8");
        b.add("7", "B", "6");
        b.add("8", "C", "5");
        b.add("6", "D", "5");
        b.add("4", "C", "5");
        b.add("8", "C", "1");
        let g = b.build();
        let q = parse_query(
            "SELECT * WHERE { ?x :A ?e . ?x :B ?z . ?e :C ?y . ?z :D ?y . }",
            g.dictionary(),
        )
        .unwrap();

        let registry = default_registry();
        let plain = registry
            .build("wireframe", &g, &EngineConfig::default())
            .unwrap()
            .run(&q)
            .unwrap();
        let burned = registry
            .build(
                "wireframe",
                &g,
                &EngineConfig::default().with_edge_burnback().with_explain(),
            )
            .unwrap()
            .run(&q)
            .unwrap();
        assert!(plain.embeddings().same_answer(burned.embeddings()));
        let plain_ag = plain.answer_graph_size().expect("wireframe factorizes");
        let burned_ag = burned.answer_graph_size().expect("wireframe factorizes");
        assert!(burned_ag < plain_ag);
        assert!(plain.explain.is_none());
        assert!(
            burned.explain.as_deref().unwrap_or("").contains("plan"),
            "explain must render when requested"
        );

        // The wco engine agrees with both on the cyclic diamond, with an
        // answer graph no larger than the node-burnback fixpoint.
        let wco = registry
            .build("wco", &g, &EngineConfig::default())
            .unwrap()
            .run(&q)
            .unwrap();
        assert!(wco.embeddings().same_answer(plain.embeddings()));
        assert!(wco.answer_graph_size().unwrap() <= plain_ag);
    }
}
