//! Parallel defactorization determinism: for every query of the registry
//! equivalence workload, `threads = 1` and `threads = 4` must produce the
//! identical rows in the identical order through the public
//! `defactorize_parallel`, and the identical embedding set end to end
//! through the engine registry's `threads` knob. (The split itself, forced
//! onto the tiny dataset, is pinned by the unit tests of `wireframe-core`.)

use wireframe::core::{
    defactorize_parallel, generate as generate_ag, plan, EvalOptions, PlannerKind,
};
use wireframe::datagen::{full_workload, generate, YagoConfig};
use wireframe::{default_registry, EngineConfig};

#[test]
fn low_level_parallel_defactorization_is_thread_count_invariant() {
    let g = generate(&YagoConfig::tiny());
    let workload = full_workload(&g).unwrap();
    assert_eq!(workload.len(), 20);

    for bq in &workload {
        let order = plan(&g, &bq.query, PlannerKind::DpLeftDeep).unwrap().order;
        let (ag, _) = generate_ag(&g, &bq.query, &order, &EvalOptions::default()).unwrap();

        let (one, one_stats) = defactorize_parallel(&bq.query, &ag, 1).unwrap();
        let (four, four_stats) = defactorize_parallel(&bq.query, &ag, 4).unwrap();

        assert_eq!(
            one.flat_data(),
            four.flat_data(),
            "{}: thread count changed the rows",
            bq.name
        );
        assert_eq!(
            one_stats.embeddings, four_stats.embeddings,
            "{}: phase-two statistics disagree on the embedding count",
            bq.name
        );
    }
}

#[test]
fn registry_threads_knob_is_answer_invariant_across_the_workload() {
    let g = generate(&YagoConfig::tiny());
    let registry = default_registry();
    let workload = full_workload(&g).unwrap();

    let sequential = registry
        .build("wireframe", &g, &EngineConfig::default().with_threads(1))
        .unwrap();
    let parallel = registry
        .build("wireframe", &g, &EngineConfig::default().with_threads(4))
        .unwrap();

    for bq in &workload {
        let one = sequential.run(&bq.query).unwrap();
        let four = parallel.run(&bq.query).unwrap();
        assert!(
            one.embeddings().same_answer(four.embeddings()),
            "{}: registry threads knob changed the answer",
            bq.name
        );
        assert_eq!(
            one.answer_graph_size(),
            four.answer_graph_size(),
            "{}: phase one must be untouched by the phase-two thread count",
            bq.name
        );
    }
}
