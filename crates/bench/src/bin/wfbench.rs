//! `wfbench` — the concurrent closed-loop benchmark driver with
//! machine-readable output and baseline regression checking.
//!
//! ```text
//! wfbench [options]
//!
//! options:
//!   --size tiny|small|benchmark|large   dataset size (default: WIREFRAME_BENCH_SIZE or small)
//!   --threads <N>                 closed-loop driver threads (default: auto, capped at 8);
//!                                 also passed to the wireframe engine's parallel
//!                                 phase-two defactorizer
//!   --iterations <N>              workload passes per thread (default 5)
//!   --engines <a,b,…>             engines to measure (default: every registered engine)
//!   --workload full|table1|chains|stars   query mix (default full = all 20)
//!   --store csr|delta             graph storage backend to index the dataset with
//!                                 (default csr; churn is cheap only on delta)
//!   --scenario serve|churn|serve-net|sharded|cyclic
//!                                 static serving loop (default); dynamic-graph
//!                                 churn: per epoch, one seeded mutation batch then
//!                                 the read workload, reporting per-epoch QPS and
//!                                 cache invalidation/compaction counters;
//!                                 serve-net: closed-loop clients over real TCP
//!                                 sockets against a wireframe-serve server, mixed
//!                                 read/write traffic with one subscriber, reporting
//!                                 p50/p95/p99/p999 tails, shed-rate, batching and
//!                                 subscription-lag counters; sharded:
//!                                 scatter-gather serving over --shards vertex
//!                                 partitions, every answer cross-checked exactly
//!                                 against an unsharded reference session before
//!                                 and after a seeded mutation batch; or cyclic:
//!                                 the worst-case-optimal engine vs triangulation
//!                                 on a triangle-heavy instance, answers
//!                                 cross-checked bit-for-bit before and after a
//!                                 seeded mutation batch
//!   --shards <N>                  sharded: number of vertex partitions (default 2)
//!   --maintenance incremental|reeval
//!                                 mutation policy for cached plans (default
//!                                 incremental): maintain retained answer-graph
//!                                 views in O(delta), or evict intersecting plans
//!                                 and re-evaluate from scratch (the pre-maintenance
//!                                 behavior, kept for comparison)
//!   --epochs <N>                  churn: measured epochs (default 4)
//!   --batch <N>                   churn: mutation ops per epoch (default 64)
//!   --insert-fraction <F>         churn: insert share of each batch, 0..=1 (default 0.6)
//!   --churn-seed <N>              churn / serve-net: traffic-mix PRNG seed
//!                                 (default 12648430)
//!   --limit <K>                   churn: cap every read at the first K rows of
//!                                 the canonical row order, pushing the limit
//!                                 into evaluation so retained views answer
//!                                 from their maintained top-k prefixes in
//!                                 O(K); the report gains a topk section
//!                                 comparing prefix-served against
//!                                 full-defactorization latency (default 0 =
//!                                 unlimited)
//!   --clients <N>                 serve-net: closed-loop TCP client threads (default 4)
//!   --requests <N>                serve-net: requests per client (default 100)
//!   --write-fraction <F>          serve-net: mutation share of the mix, 0..=1
//!                                 (default 0.2)
//!   --queue-depth <N>             serve-net: admission-queue bound before shedding
//!                                 (default 128; 0 sheds every read — overload drill)
//!   --compaction-threshold <F>    delta store: overlay fraction that triggers
//!                                 compaction (default 0.25; lower it to force
//!                                 compaction cycles within a short churn run)
//!   --edge-burnback               enable triangulation + edge burnback (wireframe only)
//!   --obs on|off                  telemetry histograms/spans (default on; counters
//!                                 stay live either way). `--scenario serve-net
//!                                 --obs off` is the instrumentation-overhead A/B:
//!                                 compare its report against an --obs on baseline
//!   --metrics-out <path>          serve-net: scrape the server's Prometheus
//!                                 endpoint at the end of the run and write the
//!                                 text rendering here
//!   --json <path>                 write the BENCH_*.json report here
//!   --baseline <path>             compare against a previous report …
//!   --tolerance <P%>              … allowing P% slack on latency/QPS (default 15%)
//!
//! exit codes: 0 ok · 1 regression against the baseline · 2 usage or runtime error
//! ```
//!
//! The JSON schema is documented in `wireframe_bench::report` and in the
//! README's Benchmarking section. Counts (|AG|, |Embeddings|) and seeded
//! churn counters must match the baseline exactly; latency and QPS regress
//! only beyond the tolerance.

use std::process::ExitCode;
use std::sync::Arc;

use wireframe::{
    core::auto_threads, EngineConfig, QueryExecutor, Session, SessionConfig, StoreKind,
};
use wireframe_bench::churn::{run_churn, ChurnOptions};
use wireframe_bench::cyclic::{
    cyclic_dataset, cyclic_workload, run_cyclic, CyclicOptions, DATASET_SEED,
};
use wireframe_bench::driver::run_engine;
use wireframe_bench::report::{
    compare, parse_tolerance, BenchReport, PhaseBreakdown, SCHEMA_VERSION,
};
use wireframe_bench::servenet::{run_serve_net, ServeNetOptions};
use wireframe_bench::sharded::{run_sharded, ShardedOptions};
use wireframe_bench::{build_dataset_with_store, DatasetSize};
use wireframe_datagen::{chain_queries, full_workload, star_queries, table1_queries};
use wireframe_serve::ServeConfig;

#[derive(Debug)]
struct Options {
    size: DatasetSize,
    threads: usize,
    iterations: usize,
    engines: Option<Vec<String>>,
    workload: String,
    store: StoreKind,
    scenario: String,
    maintenance: bool,
    epochs: usize,
    batch: usize,
    insert_fraction: f64,
    churn_seed: u64,
    limit: usize,
    clients: usize,
    requests: usize,
    write_fraction: f64,
    queue_depth: usize,
    shards: usize,
    compaction_threshold: Option<f64>,
    edge_burnback: bool,
    obs: bool,
    metrics_out: Option<String>,
    json: Option<String>,
    baseline: Option<String>,
    tolerance: Option<f64>,
}

fn usage() -> &'static str {
    "usage: wfbench [--size tiny|small|benchmark|large] [--threads N] [--iterations N] \
     [--engines a,b,…] [--workload full|table1|chains|stars] [--store csr|delta] \
     [--scenario serve|churn|serve-net|sharded|cyclic [--epochs N] [--batch N] [--insert-fraction F] \
     [--churn-seed N] [--limit K] [--clients N] [--requests N] [--write-fraction F] [--queue-depth N] \
     [--shards N]] [--maintenance incremental|reeval] [--compaction-threshold F] \
     [--edge-burnback] [--obs on|off] [--metrics-out PATH] [--json PATH] \
     [--baseline PATH [--tolerance P%]]"
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    // Resolved lazily after the flags: an explicit --size must win before
    // the environment variable gets a chance to reject the process.
    let mut size: Option<DatasetSize> = None;
    let defaults = ChurnOptions::default();
    let serve_defaults = ServeNetOptions::default();
    let mut options = Options {
        size: DatasetSize::Small,
        threads: auto_threads(),
        iterations: 5,
        engines: None,
        workload: "full".to_owned(),
        store: StoreKind::default(),
        scenario: "serve".to_owned(),
        maintenance: true,
        epochs: defaults.epochs,
        batch: defaults.batch,
        insert_fraction: defaults.insert_fraction,
        churn_seed: defaults.seed,
        limit: defaults.limit,
        clients: serve_defaults.clients,
        requests: serve_defaults.requests,
        write_fraction: serve_defaults.write_fraction,
        queue_depth: serve_defaults.config.queue_depth,
        shards: ShardedOptions::default().shards,
        compaction_threshold: None,
        edge_burnback: false,
        obs: true,
        metrics_out: None,
        json: None,
        baseline: None,
        tolerance: None,
    };
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => size = Some(DatasetSize::parse(&value(&mut args, "--size")?)?),
            "--threads" => {
                options.threads = value(&mut args, "--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_owned())?;
                if options.threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
            }
            "--iterations" => {
                options.iterations = value(&mut args, "--iterations")?
                    .parse()
                    .map_err(|_| "--iterations must be a positive integer".to_owned())?;
                if options.iterations == 0 {
                    return Err("--iterations must be at least 1".to_owned());
                }
            }
            "--engines" => {
                options.engines = Some(
                    value(&mut args, "--engines")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--workload" => {
                let name = value(&mut args, "--workload")?;
                if !["full", "table1", "chains", "stars"].contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (accepted: full, table1, chains, stars)"
                    ));
                }
                options.workload = name;
            }
            "--store" => options.store = StoreKind::parse(&value(&mut args, "--store")?)?,
            "--scenario" => {
                let name = value(&mut args, "--scenario")?;
                if !["serve", "churn", "serve-net", "sharded", "cyclic"].contains(&name.as_str()) {
                    return Err(format!(
                        "unknown scenario {name:?} \
                         (accepted: serve, churn, serve-net, sharded, cyclic)"
                    ));
                }
                options.scenario = name;
            }
            "--maintenance" => {
                let policy = value(&mut args, "--maintenance")?;
                options.maintenance = match policy.as_str() {
                    "incremental" => true,
                    "reeval" => false,
                    other => {
                        return Err(format!(
                            "unknown maintenance policy {other:?} (accepted: incremental, reeval)"
                        ))
                    }
                };
            }
            "--epochs" => {
                options.epochs = value(&mut args, "--epochs")?
                    .parse()
                    .map_err(|_| "--epochs must be a positive integer".to_owned())?;
                if options.epochs == 0 {
                    return Err("--epochs must be at least 1".to_owned());
                }
            }
            "--batch" => {
                options.batch = value(&mut args, "--batch")?
                    .parse()
                    .map_err(|_| "--batch must be a positive integer".to_owned())?;
                if options.batch == 0 {
                    return Err("--batch must be at least 1".to_owned());
                }
            }
            "--insert-fraction" => {
                options.insert_fraction = value(&mut args, "--insert-fraction")?
                    .parse()
                    .map_err(|_| "--insert-fraction must be a number in 0..=1".to_owned())?;
                if !(0.0..=1.0).contains(&options.insert_fraction) {
                    return Err("--insert-fraction must be within 0..=1".to_owned());
                }
            }
            "--churn-seed" => {
                options.churn_seed = value(&mut args, "--churn-seed")?
                    .parse()
                    .map_err(|_| "--churn-seed must be an unsigned integer".to_owned())?;
            }
            "--limit" => {
                options.limit = value(&mut args, "--limit")?
                    .parse()
                    .map_err(|_| "--limit must be a positive integer".to_owned())?;
                if options.limit == 0 {
                    return Err("--limit must be at least 1 (omit it for unlimited)".to_owned());
                }
            }
            "--clients" => {
                options.clients = value(&mut args, "--clients")?
                    .parse()
                    .map_err(|_| "--clients must be a positive integer".to_owned())?;
                if options.clients == 0 {
                    return Err("--clients must be at least 1".to_owned());
                }
            }
            "--requests" => {
                options.requests = value(&mut args, "--requests")?
                    .parse()
                    .map_err(|_| "--requests must be a positive integer".to_owned())?;
                if options.requests == 0 {
                    return Err("--requests must be at least 1".to_owned());
                }
            }
            "--write-fraction" => {
                options.write_fraction = value(&mut args, "--write-fraction")?
                    .parse()
                    .map_err(|_| "--write-fraction must be a number in 0..=1".to_owned())?;
                if !(0.0..=1.0).contains(&options.write_fraction) {
                    return Err("--write-fraction must be within 0..=1".to_owned());
                }
            }
            "--queue-depth" => {
                options.queue_depth = value(&mut args, "--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth must be a non-negative integer".to_owned())?;
            }
            "--shards" => {
                options.shards = value(&mut args, "--shards")?
                    .parse()
                    .map_err(|_| "--shards must be a positive integer".to_owned())?;
                if options.shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
            }
            "--compaction-threshold" => {
                let threshold: f64 = value(&mut args, "--compaction-threshold")?
                    .parse()
                    .map_err(|_| {
                        "--compaction-threshold must be a non-negative number".to_owned()
                    })?;
                if !threshold.is_finite() || threshold < 0.0 {
                    return Err("--compaction-threshold must be a non-negative number".to_owned());
                }
                options.compaction_threshold = Some(threshold);
            }
            "--edge-burnback" => options.edge_burnback = true,
            "--obs" => {
                options.obs = match value(&mut args, "--obs")?.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return Err("--obs must be on or off".to_owned()),
                }
            }
            "--metrics-out" => options.metrics_out = Some(value(&mut args, "--metrics-out")?),
            "--json" => options.json = Some(value(&mut args, "--json")?),
            "--baseline" => options.baseline = Some(value(&mut args, "--baseline")?),
            "--tolerance" => {
                options.tolerance = Some(parse_tolerance(&value(&mut args, "--tolerance")?)?)
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    if options.tolerance.is_some() && options.baseline.is_none() {
        return Err("--tolerance only applies together with --baseline".to_owned());
    }
    if options.metrics_out.is_some() && options.scenario != "serve-net" {
        return Err("--metrics-out only applies to --scenario serve-net".to_owned());
    }
    if options.limit > 0 && options.scenario != "churn" {
        return Err("--limit only applies to --scenario churn".to_owned());
    }
    options.size = size.unwrap_or_else(DatasetSize::from_env);
    Ok(options)
}

/// Reads and parses the `--baseline` report up front, so a bad path or file
/// fails fast (exit 2) instead of after the whole benchmark has run.
fn load_baseline(
    options: &Options,
) -> Result<Option<wireframe_bench::report::BenchReport>, String> {
    let Some(path) = &options.baseline else {
        return Ok(None);
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    BenchReport::from_json(&text)
        .map(Some)
        .map_err(|e| format!("cannot parse baseline {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let options = parse_args(std::env::args().skip(1))?;
    let baseline = load_baseline(&options)?;

    if options.scenario == "cyclic" {
        // The lane builds its own triangle-heavy instance instead of the
        // Yago dataset: the generic-join/triangulation gap shows on skewed
        // cyclic structure the paper-workload generator does not plant.
        return run_cyclic_scenario(&options, baseline.as_ref());
    }

    let mut graph = build_dataset_with_store(options.size, options.store);
    if let Some(threshold) = options.compaction_threshold {
        graph = graph.with_compaction_threshold(threshold);
    }
    let graph = Arc::new(graph);
    eprintln!(
        "dataset {}: {} triples, {} predicates · {} store · {} threads × {} iterations",
        options.size.name(),
        graph.triple_count(),
        graph.predicate_count(),
        options.store.name(),
        options.threads,
        options.iterations
    );

    let workload = match options.workload.as_str() {
        "table1" => table1_queries(&graph),
        "chains" => chain_queries(&graph),
        "stars" => star_queries(&graph),
        _ => full_workload(&graph),
    }
    .map_err(|e| format!("workload does not build: {e}"))?;

    let mut config = EngineConfig::default()
        .with_threads(options.threads)
        .with_store(options.store);
    if options.edge_burnback {
        config = config.with_edge_burnback();
    }

    let registry = wireframe::default_registry();
    let engine_names: Vec<String> = match &options.engines {
        Some(names) => names.clone(),
        None => registry.names().iter().map(|&n| n.to_owned()).collect(),
    };

    let mut report = BenchReport {
        schema_version: SCHEMA_VERSION,
        dataset: options.size.name().to_owned(),
        store: options.store.name().to_owned(),
        scenario: options.scenario.clone(),
        triples: graph.triple_count() as u64,
        threads: options.threads,
        iterations: options.iterations,
        workload: options.workload.clone(),
        engines: Vec::new(),
    };
    let churn_options = ChurnOptions {
        epochs: options.epochs,
        batch: options.batch,
        insert_fraction: options.insert_fraction,
        threads: options.threads,
        iterations: options.iterations,
        seed: options.churn_seed,
        limit: options.limit,
    };
    let servenet_options = ServeNetOptions {
        clients: options.clients,
        requests: options.requests,
        write_fraction: options.write_fraction,
        seed: options.churn_seed,
        config: ServeConfig {
            queue_depth: options.queue_depth,
            ..ServeConfig::default()
        },
        obs: options.obs,
        metrics_out: options.metrics_out.clone(),
        ..ServeNetOptions::default()
    };

    if options.scenario == "sharded" {
        // One lane, wireframe only: the cluster merges factorized answer
        // graphs, which only the wireframe engine produces.
        let sharded_options = ShardedOptions {
            shards: options.shards,
            threads: options.threads,
            iterations: options.iterations,
            batch: options.batch,
            seed: options.churn_seed,
        };
        let session_config = SessionConfig::new()
            .engine_config(config)
            .maintenance(options.maintenance);
        let run = run_sharded(&graph, &workload, session_config, &sharded_options)
            .map_err(|e| format!("sharded: {e}"))?;
        eprintln!(
            "{:<12} {:>8.1} qps · {:>8.1} ms wall · {} shards · answers match the \
             unsharded reference exactly (pre- and post-churn)",
            run.engine, run.qps, run.wall_ms, options.shards
        );
        report.engines.push(run);
        print_summary(&report);
        if let Some(path) = &options.json {
            std::fs::write(path, report.to_json_string())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("report written to {path}");
        }
        return check_baseline(&report, baseline.as_ref(), &options);
    }

    for name in &engine_names {
        // Each engine gets a fresh executor over the shared base graph —
        // churn mutations are per-executor versions, so every engine starts
        // from the identical dataset and applies the identical seeded mix.
        let session_config = SessionConfig::new()
            .engine_config(config)
            .maintenance(options.maintenance)
            .obs(options.obs)
            .engine(name);
        let executor: Arc<dyn QueryExecutor> = Arc::new(
            Session::from_config(Arc::clone(&graph), session_config).map_err(|e| e.to_string())?,
        );
        let run = match options.scenario.as_str() {
            "churn" => {
                run_churn(executor.as_ref(), &workload, &churn_options).map_err(|e| e.to_string())
            }
            "serve-net" => run_serve_net(&executor, &workload, &servenet_options),
            _ => run_engine(
                executor.as_ref(),
                &workload,
                options.threads,
                options.iterations,
            )
            .map_err(|e| e.to_string()),
        }
        .map_err(|e| format!("{name}: {e}"))?;
        if let Some(serve) = &run.serve {
            eprintln!(
                "{:<12} {:>8.1} qps · {:>8.1} ms wall · {} clients × {} reqs · \
                 p99 {:.2} ms · p999 {:.2} ms · shed {:.1}% · {} batches \
                 ({} coalesced) · sub lag {} epochs",
                run.engine,
                run.qps,
                run.wall_ms,
                serve.clients,
                serve.requests / serve.clients.max(1),
                serve.p99_ms,
                serve.p999_ms,
                serve.shed_rate * 100.0,
                serve.mutation_batches,
                serve.coalesced_mutations,
                serve.subscription_lag_epochs,
            );
            if !serve.obs {
                eprintln!(
                    "{:<12} telemetry histograms/spans OFF (overhead A/B lane)",
                    run.engine
                );
            }
            report.engines.push(run);
            continue;
        }
        match &run.churn {
            Some(churn) => eprintln!(
                "{:<12} {:>8.1} qps · {:>8.1} ms wall · {} epochs · {} mutations · \
                 {} maintained · {} invalidations · {} compactions",
                run.engine,
                run.qps,
                run.wall_ms,
                churn.final_epoch,
                churn.total_mutations,
                churn.total_maintained.unwrap_or(0),
                churn.total_invalidations,
                churn.total_compactions
            ),
            None => eprintln!(
                "{:<12} {:>8.1} qps · {:>8.1} ms wall · cache {} hits / {} misses",
                run.engine, run.qps, run.wall_ms, run.cache_hits, run.cache_misses
            ),
        }
        report.engines.push(run);
    }

    print_summary(&report);

    if let Some(path) = &options.json {
        std::fs::write(path, report.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }

    check_baseline(&report, baseline.as_ref(), &options)
}

/// The `--scenario cyclic` lane: builds the triangle-heavy instance, runs
/// the verified wco-vs-triangulation comparison, and reports both engines.
fn run_cyclic_scenario(options: &Options, baseline: Option<&BenchReport>) -> Result<bool, String> {
    let graph = Arc::new(cyclic_dataset(options.size, options.store, DATASET_SEED));
    eprintln!(
        "cyclic dataset {}: {} triples, {} predicates · {} store · {} threads × {} iterations",
        options.size.name(),
        graph.triple_count(),
        graph.predicate_count(),
        options.store.name(),
        options.threads,
        options.iterations
    );
    let workload = cyclic_workload(&graph).map_err(|e| format!("workload does not build: {e}"))?;

    let config = EngineConfig::default()
        .with_threads(options.threads)
        .with_store(options.store);
    let cyclic_options = CyclicOptions {
        threads: options.threads,
        iterations: options.iterations,
        batch: options.batch,
        seed: options.churn_seed,
    };
    let (wco, triangulation) = run_cyclic(&graph, &workload, config, &cyclic_options)
        .map_err(|e| format!("cyclic: {e}"))?;
    for run in [&wco, &triangulation] {
        eprintln!(
            "{:<13} {:>8.1} qps · {:>8.1} ms wall · cache {} hits / {} misses",
            run.engine, run.qps, run.wall_ms, run.cache_hits, run.cache_misses
        );
    }
    eprintln!(
        "wco / triangulation speedup: {:.2}x · answers bit-identical (pre- and post-churn)",
        wco.qps / triangulation.qps.max(1e-9)
    );

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        dataset: options.size.name().to_owned(),
        store: options.store.name().to_owned(),
        scenario: options.scenario.clone(),
        triples: graph.triple_count() as u64,
        threads: options.threads,
        iterations: options.iterations,
        workload: "cyclic".to_owned(),
        engines: vec![wco, triangulation],
    };
    print_summary(&report);
    if let Some(path) = &options.json {
        std::fs::write(path, report.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    check_baseline(&report, baseline, options)
}

/// Compares the finished report against the optional baseline; `Ok(false)`
/// means regressions were found (exit code 1).
fn check_baseline(
    report: &BenchReport,
    baseline: Option<&BenchReport>,
    options: &Options,
) -> Result<bool, String> {
    let Some(baseline) = baseline else {
        return Ok(true);
    };
    let path = options.baseline.as_deref().unwrap_or("<baseline>");
    let tolerance = options.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    let regressions = compare(report, baseline, tolerance);
    if regressions.is_empty() {
        eprintln!(
            "no regression against {path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
        Ok(true)
    } else {
        eprintln!("{} regression(s) against {path}:", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        Ok(false)
    }
}

/// Latency/QPS slack applied when `--baseline` is given without `--tolerance`.
const DEFAULT_TOLERANCE: f64 = 0.15;

fn print_summary(report: &BenchReport) {
    if report.scenario == "serve-net" {
        println!(
            "{:<12} {:>7} {:>8} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>9} {:>7}",
            "engine",
            "clients",
            "requests",
            "queries",
            "writes",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "p999 ms",
            "shed%",
            "batches",
            "coalesced",
            "lag"
        );
        for engine in &report.engines {
            let Some(s) = &engine.serve else { continue };
            println!(
                "{:<12} {:>7} {:>8} {:>8} {:>7} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>7.1} {:>8} {:>9} {:>7}",
                engine.engine,
                s.clients,
                s.requests,
                s.queries,
                s.mutations,
                s.p50_ms,
                s.p95_ms,
                s.p99_ms,
                s.p999_ms,
                s.shed_rate * 100.0,
                s.mutation_batches,
                s.coalesced_mutations,
                s.subscription_lag_epochs,
            );
        }
        return;
    }
    if report.scenario == "churn" {
        println!(
            "{:<12} {:>6} {:>9} {:>8} {:>8} {:>8} {:>10} {:>9} {:>9} {:>12} {:>9} {:>9}",
            "engine",
            "epoch",
            "qps",
            "+triples",
            "-triples",
            "invalid.",
            "maintained",
            "maint.µs",
            "frontier",
            "compactions",
            "hits",
            "misses"
        );
        for engine in &report.engines {
            for e in engine.churn.iter().flat_map(|c| c.epochs.iter()) {
                println!(
                    "{:<12} {:>6} {:>9.1} {:>8} {:>8} {:>8} {:>10} {:>9} {:>9} {:>12} {:>9} {:>9}",
                    engine.engine,
                    e.epoch,
                    e.qps,
                    e.inserted,
                    e.removed,
                    e.invalidations,
                    e.maintained,
                    e.maintenance_us,
                    e.frontier_nodes,
                    e.compactions,
                    e.cache_hits,
                    e.cache_misses,
                );
            }
            println!(
                "{:<12} {:<6} {:>9.1} qps over {} queries",
                engine.engine, "all", engine.qps, engine.total_queries
            );
            if let Some(t) = engine.churn.as_ref().and_then(|c| c.topk.as_ref()) {
                println!(
                    "{:<12} {:<6} limit {} · prefix p50 {:.1} µs / p99 {:.1} µs \
                     over {} serves · full p50 {:.1} µs / p99 {:.1} µs over {} \
                     serves · {} refills · {} fallbacks",
                    engine.engine,
                    "topk",
                    t.limit,
                    t.prefix_p50_us,
                    t.prefix_p99_us,
                    t.prefix_serves,
                    t.full_p50_us,
                    t.full_p99_us,
                    t.full_serves,
                    t.prefix_refills,
                    t.prefix_fallbacks,
                );
            }
        }
        return;
    }
    println!(
        "{:<12} {:<7} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "engine", "query", "p50 ms", "p95 ms", "p99 ms", "|AG|", "|Emb|", "AG/Emb"
    );
    for engine in &report.engines {
        for q in &engine.queries {
            println!(
                "{:<12} {:<7} {:>9.3} {:>9.3} {:>9.3} {:>9} {:>12} {:>9}",
                engine.engine,
                q.name,
                q.p50_ms,
                q.p95_ms,
                q.p99_ms,
                q.answer_graph_edges
                    .map_or("-".to_owned(), |v| v.to_string()),
                q.embeddings,
                q.ag_over_embeddings
                    .map_or("-".to_owned(), |v| format!("{v:.4}")),
            );
        }
        if !engine.queries.is_empty() {
            // Label the two defactorization columns explicitly: the wall
            // clock is what a client waits; the worker-cpu sum is what the
            // parallel phase-two defactorizer actually burned across its
            // threads (equal when sequential, larger when parallel).
            let n = engine.queries.len() as f64;
            let mean = |pick: fn(&PhaseBreakdown) -> f64| {
                engine.queries.iter().map(|q| pick(&q.phases)).sum::<f64>() / n
            };
            println!(
                "{:<12} {:<7} plan {:.3} · ag {:.3} · burnback {:.3} · \
                 defac {:.3} wall / {:.3} worker-cpu · exec {:.3} (mean ms)",
                engine.engine,
                "phases",
                mean(|p| p.planning_ms),
                mean(|p| p.answer_graph_ms),
                mean(|p| p.edge_burnback_ms),
                mean(|p| p.defactorization_ms),
                mean(|p| p.defactorization_cpu_ms),
                mean(|p| p.execution_ms),
            );
        }
        println!(
            "{:<12} {:<7} {:>9.1} qps over {} queries",
            engine.engine, "all", engine.qps, engine.total_queries
        );
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn store_flag_parses() {
        assert_eq!(parse(&[]).unwrap().store, StoreKind::Csr);
        assert_eq!(
            parse(&["--store", "delta"]).unwrap().store,
            StoreKind::Delta
        );
        for bad in ["btree", "map"] {
            let err = parse(&["--store", bad]).unwrap_err();
            assert!(err.contains("csr") && err.contains("delta"), "{err}");
        }
    }

    #[test]
    fn churn_flags_parse_with_sane_defaults() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.scenario, "serve");
        assert_eq!(options.epochs, 4);
        assert_eq!(options.batch, 64);
        assert!((options.insert_fraction - 0.6).abs() < 1e-9);

        let options = parse(&[
            "--scenario",
            "churn",
            "--epochs",
            "2",
            "--batch",
            "10",
            "--insert-fraction",
            "0.5",
            "--churn-seed",
            "99",
        ])
        .unwrap();
        assert_eq!(options.scenario, "churn");
        assert_eq!(
            (options.epochs, options.batch, options.churn_seed),
            (2, 10, 99)
        );

        assert!(parse(&["--scenario", "replay"]).is_err());
        assert!(parse(&["--epochs", "0"]).is_err());
        assert!(
            parse(&[]).unwrap().maintenance,
            "incremental is the default"
        );
        assert!(
            parse(&["--maintenance", "incremental"])
                .unwrap()
                .maintenance
        );
        assert!(!parse(&["--maintenance", "reeval"]).unwrap().maintenance);
        let err = parse(&["--maintenance", "magic"]).unwrap_err();
        assert!(
            err.contains("incremental") && err.contains("reeval"),
            "{err}"
        );
        assert!(parse(&["--batch", "0"]).is_err());
        assert!(parse(&["--insert-fraction", "1.5"]).is_err());

        assert_eq!(parse(&[]).unwrap().compaction_threshold, None);
        assert_eq!(
            parse(&["--compaction-threshold", "0.05"])
                .unwrap()
                .compaction_threshold,
            Some(0.05)
        );
        assert!(parse(&["--compaction-threshold", "-1"]).is_err());

        assert_eq!(parse(&[]).unwrap().limit, 0, "unlimited by default");
        assert_eq!(
            parse(&["--scenario", "churn", "--limit", "8"])
                .unwrap()
                .limit,
            8
        );
        assert!(parse(&["--scenario", "churn", "--limit", "0"]).is_err());
        assert!(
            parse(&["--limit", "8"]).is_err(),
            "--limit is a churn-lane knob"
        );
    }

    #[test]
    fn serve_net_flags_parse_with_sane_defaults() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.clients, 4);
        assert_eq!(options.requests, 100);
        assert!((options.write_fraction - 0.2).abs() < 1e-9);
        assert_eq!(options.queue_depth, 128);

        let options = parse(&[
            "--scenario",
            "serve-net",
            "--clients",
            "2",
            "--requests",
            "25",
            "--write-fraction",
            "0.5",
            "--queue-depth",
            "0",
        ])
        .unwrap();
        assert_eq!(options.scenario, "serve-net");
        assert_eq!(
            (options.clients, options.requests, options.queue_depth),
            (2, 25, 0)
        );
        assert!((options.write_fraction - 0.5).abs() < 1e-9);

        assert!(parse(&["--clients", "0"]).is_err());
        assert!(parse(&["--requests", "0"]).is_err());
        assert!(parse(&["--write-fraction", "1.5"]).is_err());
        assert!(parse(&["--write-fraction", "-0.1"]).is_err());
        assert!(parse(&["--queue-depth", "-1"]).is_err());
    }

    #[test]
    fn sharded_flags_parse_and_validate_before_any_work() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.shards, 2, "the sharded default is 2 partitions");

        let options = parse(&["--scenario", "sharded", "--shards", "4"]).unwrap();
        assert_eq!(options.scenario, "sharded");
        assert_eq!(options.shards, 4);

        // Invalid shard counts are usage errors (exit 2), rejected at parse
        // time — matching the --baseline/--tolerance fail-fast precedent.
        let err = parse(&["--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = parse(&["--shards", "two"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        assert!(parse(&["--shards"]).is_err(), "a value is required");
    }

    #[test]
    fn obs_and_metrics_out_flags_parse() {
        assert!(parse(&[]).unwrap().obs, "telemetry defaults to on");
        assert!(parse(&["--obs", "on"]).unwrap().obs);
        assert!(!parse(&["--obs", "off"]).unwrap().obs);
        assert!(parse(&["--obs", "maybe"]).is_err());

        let options = parse(&["--scenario", "serve-net", "--metrics-out", "m.txt"]).unwrap();
        assert_eq!(options.metrics_out.as_deref(), Some("m.txt"));
        // The scrape rides on the serve-net server; elsewhere it is a
        // usage error, rejected before any benchmark work starts.
        let err = parse(&["--metrics-out", "m.txt"]).unwrap_err();
        assert!(err.contains("serve-net"), "{err}");
    }

    #[test]
    fn tolerance_without_baseline_is_a_usage_error() {
        let err = parse(&["--tolerance", "30%"]).unwrap_err();
        assert!(err.contains("--baseline"), "{err}");
        assert!(parse(&["--baseline", "x.json", "--tolerance", "30%"]).is_ok());
        // Malformed tolerances are still rejected at parse time.
        assert!(parse(&["--baseline", "x.json", "--tolerance", "abc"]).is_err());
    }

    #[test]
    fn missing_baseline_file_fails_before_the_benchmark_runs() {
        let options = parse(&["--baseline", "/nonexistent/definitely-not-here.json"]).unwrap();
        let err = load_baseline(&options).unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
    }

    #[test]
    fn unparsable_baseline_fails_with_a_clear_message() {
        let path = std::env::temp_dir().join("wfbench_test_bad_baseline.json");
        std::fs::write(&path, "{ not json").unwrap();
        let options = parse(&["--baseline", path.to_str().unwrap()]).unwrap();
        let err = load_baseline(&options).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("cannot parse baseline"), "{err}");
    }
}
