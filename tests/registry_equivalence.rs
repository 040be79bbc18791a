//! Cross-engine equivalence driven entirely through the [`Engine`] trait and
//! the engine registry: every registered engine must return the identical
//! answer on every query of the generated mixed-shape workload (chains,
//! stars, snowflakes, cycles), and the `Session` facade must agree with the
//! engines it wraps.

use wireframe::datagen::{full_workload, generate, YagoConfig};
use wireframe::{default_registry, EngineConfig, QueryExecutor, Session};

#[test]
fn every_registered_engine_agrees_on_every_workload_shape() {
    let g = generate(&YagoConfig::tiny());
    let registry = default_registry();
    let names = registry.names();
    assert_eq!(
        names,
        vec!["wireframe", "wco", "relational", "sortmerge", "exploration"],
        "all five engines are reachable by name"
    );

    let engines: Vec<_> = names
        .iter()
        .map(|name| {
            registry
                .build(name, &g, &EngineConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();

    let workload = full_workload(&g).unwrap();
    assert_eq!(
        workload.len(),
        20,
        "5 chains + 5 stars + 5 snowflakes + 5 cycles"
    );

    let mut nonempty = 0usize;
    for bq in &workload {
        let reference = engines[0].run(&bq.query).unwrap();
        if reference.embedding_count() > 0 {
            nonempty += 1;
        }
        for engine in &engines[1..] {
            let other = engine.run(&bq.query).unwrap();
            assert!(
                reference.embeddings().same_answer(other.embeddings()),
                "{}: {} ({} embeddings) and {} ({} embeddings) disagree",
                bq.name,
                reference.engine,
                reference.embedding_count(),
                other.engine,
                other.embedding_count()
            );
            assert_eq!(reference.cyclic, other.cyclic, "{}", bq.name);
        }
    }
    assert_eq!(
        nonempty,
        workload.len(),
        "the planted cores make every workload query non-empty"
    );
}

#[test]
fn edge_burnback_config_never_changes_answers_across_the_registry() {
    // Only the wireframe engine interprets the edge_burnback knob; the
    // baselines must ignore it and still agree.
    let g = generate(&YagoConfig::tiny());
    let registry = default_registry();
    let config = EngineConfig::default().with_edge_burnback();
    let workload = full_workload(&g).unwrap();

    for bq in workload.iter().filter(|bq| bq.query.num_patterns() == 4) {
        let mut answers = Vec::new();
        for name in registry.names() {
            let engine = registry.build(name, &g, &config).unwrap();
            answers.push(engine.run(&bq.query).unwrap().embeddings);
        }
        for other in &answers[1..] {
            assert!(answers[0].same_answer(other), "{}", bq.name);
        }
    }
}

#[test]
fn session_answers_match_direct_engine_runs() {
    let g = generate(&YagoConfig::tiny());
    let registry = default_registry();
    let workload = full_workload(&g).unwrap();

    let mut session = Session::new(generate(&YagoConfig::tiny()));
    for name in registry.names() {
        session.set_engine(name).unwrap();
        for bq in workload.iter().take(6) {
            let direct = registry
                .build(name, &g, &EngineConfig::default())
                .unwrap()
                .run(&bq.query)
                .unwrap();
            let via_session = session.execute(&bq.query).unwrap();
            assert!(
                direct.embeddings().same_answer(via_session.embeddings()),
                "{name} on {}",
                bq.name
            );
        }
    }
    // A second pass over a query already seen by an engine reuses its
    // prepared plan instead of preparing again.
    let misses_before = session.stats().cache_misses;
    session.set_engine("wireframe").unwrap();
    session.execute(&workload[0].query).unwrap();
    let stats = session.stats();
    assert!(stats.cache_hits > 0, "second pass hits the cache");
    assert_eq!(stats.cache_misses, misses_before, "nothing re-prepared");
}
