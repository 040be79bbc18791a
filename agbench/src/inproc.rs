//! The in-process workloads, `cold` and `warm`: closed-loop readers
//! calling `Session::query_limited` on a default `Session` (CSR store).
//!
//! * `cold` — one reader; `Session::clear_cache` runs, untimed, before
//!   every read, so every read plans, generates the answer graph and
//!   defactorizes (the paper's Table 1 setting).
//! * `warm` — two readers over one session whose views and top-k prefixes
//!   were primed during set-up, so every read is a view hit.
//!
//! Each round sends every query twice (unbounded and `limit 16`) in a
//! seeded order; runs measure whole rounds. After the timed region a write
//! probe times single-triple writes on the pad predicate, which no query
//! uses: it keeps the read loop as specified while every run still reports
//! the write and push metrics (see `METRICS.md`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wireframe::core::{plan, EvalOptions, MaterializedQuery, WireframeEngine};
use wireframe::graph::{Graph, StoreKind};
use wireframe::query::parse_query;
use wireframe::{default_registry, EngineConfig, ExecutorStats, Mutation, QueryExecutor};
use wireframe::{Session, SessionConfig};

use crate::dataset::{pad_label, Dataset, QuerySpec, PAD_NODES, PAD_PREDICATE, WORK_DIR};
use crate::oracle::{self, Reference, TOPK};
use crate::stats::{band_percentile, mean, median, rss_mib, shuffle, windowed, windowed_rate};
use crate::trace::Trace;
use crate::{Args, Metric, Outcome, SETUP_REPS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Warm,
}

/// Writes the probe times after the read loop.
const PROBE_WRITES: usize = 40;

/// Durations of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: Duration,
    pub load: Duration,
    pub index: Duration,
}

fn setup(data: &Dataset, mode: Mode) -> Result<(Session, SetupTimes), String> {
    let started = Instant::now();
    let graph = data.load()?;
    let load = started.elapsed();
    let t = Instant::now();
    let graph = graph.with_store(StoreKind::Csr);
    let index = t.elapsed();
    let session = Session::from_config(graph, SessionConfig::new()).map_err(|e| e.to_string())?;
    if mode == Mode::Warm {
        for q in &data.queries {
            session
                .prime(&q.text)
                .map_err(|e| format!("{}: {e}", q.name))?;
            session
                .query_limited(&q.text, TOPK)
                .map_err(|e| format!("{}: {e}", q.name))?;
        }
    }
    let times = SetupTimes {
        total: started.elapsed(),
        load,
        index,
    };
    Ok((session, times))
}

/// Runs [`SETUP_REPS`] set-ups and keeps the last one.
fn setup_repeated(data: &Dataset, mode: Mode) -> Result<(Session, Vec<SetupTimes>), String> {
    let mut kept = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (session, t) = setup(data, mode)?;
        times.push(t);
        kept = Some(session);
    }
    Ok((kept.expect("SETUP_REPS > 0"), times))
}

pub fn setup_medians(times: &[SetupTimes]) -> (f64, f64, f64) {
    let pick = |f: fn(&SetupTimes) -> Duration| {
        median(&times.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>())
    };
    (pick(|t| t.total), pick(|t| t.load), pick(|t| t.index))
}

/// Latencies of one reader thread, in milliseconds.
#[derive(Default)]
struct Samples {
    acyclic: Vec<f64>,
    cyclic: Vec<f64>,
    topk: Vec<f64>,
    /// Every read in order, as `(is_read, ms)` for [`windowed_rate`].
    ops: Vec<(bool, f64)>,
    /// Unbounded latencies per query (Table 1's WF column).
    per_query: BTreeMap<usize, Vec<f64>>,
    failed: u64,
    /// Time spent inside program calls (excludes the untimed cache clears,
    /// answer checks and replays).
    busy: Duration,
}

impl Samples {
    fn reads(&self) -> usize {
        self.acyclic.len() + self.cyclic.len() + self.topk.len()
    }

    fn merge(&mut self, other: Samples) {
        self.acyclic.extend(other.acyclic);
        self.cyclic.extend(other.cyclic);
        self.topk.extend(other.topk);
        self.ops.extend(other.ops);
        for (q, v) in other.per_query {
            self.per_query.entry(q).or_default().extend(v);
        }
        self.failed += other.failed;
        self.busy += other.busy;
    }
}

/// Exact work counts of one counted pass (the traced run's first round).
#[derive(Default, Clone)]
struct Counts {
    edge_walks: u64,
    estimated_cost: f64,
    ag_edges: u64,
    rows: u64,
    peak_intermediate: u64,
    prefix_hits: u64,
    prefix_refills: u64,
    prefix_fallbacks: u64,
    /// |AG| per query of its unbounded read (Table 1).
    ag_per_query: BTreeMap<usize, u64>,
}

/// What the traced readers share.
struct Tracing<'a> {
    trace: &'a Trace,
    /// `warm`: the benchmark's own retained views, defactorized to time
    /// `MaterializedQuery::defactorize` on unbounded view hits.
    views: Vec<MaterializedQuery>,
    counts: Mutex<Option<Counts>>,
}

/// What every reader of a phase shares.
#[derive(Clone, Copy)]
struct Readers<'a> {
    session: &'a Session,
    queries: &'a [QuerySpec],
    refs: &'a [Reference],
    mode: Mode,
    tracing: Option<&'a Tracing<'a>>,
}

fn reader(r: Readers<'_>, seed: u64, requests: u64, deadline: Instant) -> Result<Samples, String> {
    let Readers {
        session,
        queries,
        refs,
        mode,
        tracing,
    } = r;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops: Vec<(usize, usize)> = (0..queries.len())
        .flat_map(|q| [(q, 0), (q, TOPK)])
        .collect();
    let mut samples = Samples::default();
    let mut request = requests;
    let mut first_round = true;
    loop {
        shuffle(&mut ops, &mut rng);
        let mut counts = Counts::default();
        let before = first_round.then(|| session.stats());
        for &(qi, limit) in &ops {
            let q = &queries[qi];
            if mode == Mode::Cold {
                session.clear_cache();
            }
            let start = Instant::now();
            let result = session.query_limited(&q.text, limit);
            let end = Instant::now();
            request += 1;
            let ev = match result {
                Ok(ev) => ev,
                Err(e) => {
                    eprintln!("agbench: {} failed: {e}", q.name);
                    samples.failed += 1;
                    continue;
                }
            };
            let ms = (end - start).as_secs_f64() * 1e3;
            samples.busy += end - start;
            samples.ops.push((true, ms));
            match (limit, q.cyclic) {
                (0, false) => samples.acyclic.push(ms),
                (0, true) => samples.cyclic.push(ms),
                _ => samples.topk.push(ms),
            }
            if limit == 0 {
                samples.per_query.entry(qi).or_default().push(ms);
            }
            oracle::check(&q.name, limit, &ev, &refs[qi])?;
            if let Some(t) = tracing {
                let exec = t.trace.record("session.execute", request, None, start, end);
                if ev.limited.is_some_and(|i| i.prefix_served) {
                    counts.prefix_hits += 1;
                }
                replay(r, t, qi, limit, request, exec, &mut counts)?;
            }
        }
        if let Some(before) = before {
            first_round = false;
            let after = session.stats();
            counts.prefix_refills = after.prefix_refills - before.prefix_refills;
            counts.prefix_fallbacks = after.prefix_fallbacks - before.prefix_fallbacks;
            if let Some(t) = tracing {
                let mut slot = t.counts.lock().expect("a reader panicked");
                slot.get_or_insert(counts);
            }
        }
        if Instant::now() >= deadline {
            return Ok(samples);
        }
    }
}

/// Re-runs one read's pipeline through each layer's public function, each
/// call a child span of the session call it decomposes.
fn replay(
    r: Readers<'_>,
    t: &Tracing<'_>,
    qi: usize,
    limit: usize,
    request: u64,
    exec: u32,
    counts: &mut Counts,
) -> Result<(), String> {
    let q = &r.queries[qi];
    let graph = r.session.graph();
    let (query, _) = t.trace.time("query.parse", request, Some(exec), || {
        parse_query(&q.text, graph.dictionary())
    });
    let query = query.map_err(|e| format!("{}: {e}", q.name))?;
    if r.mode == Mode::Warm {
        if limit == 0 {
            let view = &t.views[qi];
            let (out, _) = t.trace.time("core.defactorize", request, Some(exec), || {
                view.defactorize()
            });
            let (rows, stats) = out.map_err(|e| format!("{}: {e}", q.name))?;
            counts.rows += rows.len() as u64;
            counts.peak_intermediate += stats.peak_intermediate as u64;
            counts.ag_edges += view.answer_graph().total_edges() as u64;
        }
        return Ok(());
    }
    let options = EvalOptions::default();
    let (planned, _) = t.trace.time("core.plan", request, Some(exec), || {
        plan(&graph, &query, options.planner)
    });
    let planned = planned.map_err(|e| format!("{}: {e}", q.name))?;
    let engine = WireframeEngine::with_options(&graph, options);
    let (built, _) = t.trace.time("core.generate", request, Some(exec), || {
        engine.materialize_with_plan(&query, &planned)
    });
    let (mut view, _) = built.map_err(|e| format!("{}: {e}", q.name))?;
    counts.edge_walks += view.generation().edge_walks;
    counts.estimated_cost += planned.estimated_cost;
    if limit == 0 {
        let (out, _) = t.trace.time("core.defactorize", request, Some(exec), || {
            view.defactorize()
        });
        let (rows, stats) = out.map_err(|e| format!("{}: {e}", q.name))?;
        let ag = view.answer_graph().total_edges() as u64;
        counts.rows += rows.len() as u64;
        counts.peak_intermediate += stats.peak_intermediate as u64;
        counts.ag_edges += ag;
        counts.ag_per_query.insert(qi, ag);
    } else {
        t.trace.time("core.defactorize", request, Some(exec), || {
            view.prime_prefix(limit)
        });
    }
    Ok(())
}

/// Runs the read loop on `threads` closed-loop readers until `duration`
/// has passed (whole rounds only).
fn read_phase(
    r: Readers<'_>,
    seed: u64,
    threads: usize,
    duration: Duration,
) -> Result<Vec<Samples>, String> {
    let deadline = Instant::now() + duration;
    let results: Vec<Result<Samples, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let seed = seed.wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let requests = (t as u64 + 1) << 40;
                scope.spawn(move || reader(r, seed, requests, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a reader panicked".to_owned()))
            })
            .collect()
    });
    results.into_iter().collect()
}

/// `reads_per_s` and the read percentiles from the readers' sequences.
fn read_metrics(threads: &[Samples], queries: &[QuerySpec]) -> Vec<Metric> {
    let n = queries.len();
    let cyclic_n = queries.iter().filter(|q| q.cyclic).count();
    let of = |f: fn(&Samples) -> &Vec<f64>| -> Vec<&[f64]> {
        threads.iter().map(|s| f(s).as_slice()).collect()
    };
    let ops: Vec<&[(bool, f64)]> = threads.iter().map(|s| s.ops.as_slice()).collect();
    let (acyclic, cyclic, topk) = (of(|s| &s.acyclic), of(|s| &s.cyclic), of(|s| &s.topk));
    vec![
        Metric::new("reads_per_s", windowed_rate(&ops, 2 * n), "1/s"),
        Metric::new(
            "acyclic_p50_ms",
            windowed(&acyclic, n - cyclic_n, 50.0),
            "ms",
        ),
        Metric::new(
            "acyclic_p90_ms",
            windowed(&acyclic, n - cyclic_n, 90.0),
            "ms",
        ),
        Metric::new("cyclic_p50_ms", windowed(&cyclic, cyclic_n, 50.0), "ms"),
        Metric::new("cyclic_p90_ms", windowed(&cyclic, cyclic_n, 90.0), "ms"),
        Metric::new("topk_p50_ms", windowed(&topk, n, 50.0), "ms"),
        Metric::new("topk_p90_ms", windowed(&topk, n, 90.0), "ms"),
    ]
}

/// Merges the readers' samples (for totals; the reported percentiles use
/// the per-reader sequences).
fn merged(threads: Vec<Samples>) -> Samples {
    let mut all = Samples::default();
    for s in threads {
        all.merge(s);
    }
    all
}

/// Latencies of the write probe, in milliseconds.
struct Probe {
    write: Vec<f64>,
    push: Vec<f64>,
    mutations: Vec<Mutation>,
    /// Session call spans of the writes (traced run), in write order.
    spans: Vec<u32>,
    before: Arc<Graph>,
    stats: (ExecutorStats, ExecutorStats),
}

/// Single-triple writes over the pad predicate, which no query uses:
/// alternately an insert of a new edge between two seeded pad nodes and
/// its removal, so the graph ends as it started.
/// An epoch listener stands in for a subscriber: push latency runs from
/// the write call to the listener seeing the write's epoch.
fn write_probe(session: &Session, seed: u64, trace: Option<&Trace>) -> Result<Probe, String> {
    let seen: Arc<Mutex<Vec<(u64, Instant)>>> = Arc::default();
    {
        let seen = Arc::clone(&seen);
        session.add_epoch_listener(move |epoch, _| {
            seen.lock()
                .expect("the listener never panics")
                .push((epoch, Instant::now()));
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F0B);
    let before = session.graph();
    let stats_before = session.stats();
    let mut probe = Probe {
        write: Vec::with_capacity(PROBE_WRITES),
        push: Vec::with_capacity(PROBE_WRITES),
        mutations: Vec::with_capacity(PROBE_WRITES),
        spans: Vec::new(),
        before,
        stats: (stats_before, stats_before),
    };
    let mut inserted: Option<(String, String)> = None;
    for k in 0..PROBE_WRITES {
        let mutation = match inserted.take() {
            Some((s, o)) => Mutation::new().remove(&s, PAD_PREDICATE, &o),
            None => {
                let s = pad_label(rng.gen_range(0..PAD_NODES));
                let o = pad_label(rng.gen_range(0..PAD_NODES));
                let m = Mutation::new().insert(&s, PAD_PREDICATE, &o);
                inserted = Some((s, o));
                m
            }
        };
        let start = Instant::now();
        session.apply_mutation(&mutation);
        let end = Instant::now();
        let epoch = session.epoch();
        if let Some(trace) = trace {
            probe
                .spans
                .push(trace.record("session.apply_mutation", k as u64, None, start, end));
        }
        let pushed = seen
            .lock()
            .expect("the listener never panics")
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|&(_, at)| at)
            .ok_or_else(|| format!("write probe: epoch {epoch} was never announced"))?;
        probe.write.push((end - start).as_secs_f64() * 1e3);
        probe.push.push((pushed - start).as_secs_f64() * 1e3);
        probe.mutations.push(mutation);
    }
    probe.stats.1 = session.stats();
    Ok(probe)
}

pub fn run(data: &Dataset, args: &Args, mode: Mode) -> Result<Outcome, String> {
    let (session, setups) = setup_repeated(data, mode)?;
    let (setup_s, load_s, index_s) = setup_medians(&setups);
    let refs = oracle::references(&session.graph(), &data.queries)?;
    let threads = match mode {
        Mode::Cold => 1,
        Mode::Warm => 2,
    };
    let queries = &data.queries;
    let readers = Readers {
        session: &session,
        queries,
        refs: &refs,
        mode,
        tracing: None,
    };

    if !args.trace {
        let threads = read_phase(readers, args.seed, threads, args.seconds)?;
        let rss = rss_mib();
        let probe = write_probe(&session, args.seed, None)?;
        let read_metrics = read_metrics(&threads, queries);
        let samples = merged(threads);
        print_samples(&samples, &probe);
        let attempted = samples.reads() as u64 + samples.failed + probe.write.len() as u64;
        let mut metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("rss_mb", rss, "MiB"),
        ];
        metrics.extend(read_metrics);
        metrics.extend([
            Metric::new("write_p50_ms", band_percentile(&probe.write, 50.0), "ms"),
            Metric::new("write_p90_ms", band_percentile(&probe.write, 90.0), "ms"),
            Metric::new("push_p50_ms", band_percentile(&probe.push, 50.0), "ms"),
            Metric::new("push_p90_ms", band_percentile(&probe.push, 90.0), "ms"),
        ]);
        return Ok(Outcome {
            attempted,
            failed: samples.failed,
            metrics,
        });
    }

    // Traced run: half the time untraced (the reference end-to-end mean),
    // half traced, then the traced write probe and its replay.
    let half = args.seconds / 2;
    let plain = merged(read_phase(readers, args.seed, threads, half)?);
    let trace = Trace::new();
    let views = if mode == Mode::Warm {
        own_views(&session.graph(), queries)?
    } else {
        Vec::new()
    };
    let tracing = Tracing {
        trace: &trace,
        views,
        counts: Mutex::new(None),
    };
    let stats_before = session.stats();
    let traced_readers = Readers {
        tracing: Some(&tracing),
        ..readers
    };
    let traced = merged(read_phase(traced_readers, args.seed, threads, half)?);
    let stats_after = session.stats();
    let probe = write_probe(&session, args.seed, Some(&trace))?;
    let mut compactions = 0u64;
    let mut graph = Graph::clone(&probe.before);
    for (m, &span) in probe.mutations.iter().zip(&probe.spans) {
        let ((next, outcome), _) = trace.time("graph.apply", 0, Some(span), || graph.apply(m));
        compactions += u64::from(outcome.compacted);
        graph = next;
    }
    drop(graph);
    print_samples(&traced, &probe);

    let counts = tracing
        .counts
        .lock()
        .expect("readers are done")
        .clone()
        .unwrap_or_default();
    let selfs = trace.self_micros();
    let reads = traced.reads().max(1) as f64;
    let per_read = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / reads;
    let writes = probe.write.len().max(1) as f64;
    let read_spans: Vec<f64> = trace
        .spans()
        .iter()
        .filter(|s| s.name == "session.execute")
        .map(|s| s.duration().as_secs_f64() * 1e6)
        .collect();
    let execute_us = mean(&read_spans);
    let residual_us = per_read("session.execute");
    let untraced_us = plain.busy.as_secs_f64() * 1e6 / plain.reads().max(1) as f64;
    let apply_us = selfs.get("graph.apply").copied().unwrap_or(0.0) / writes;
    let maintain = |f: fn(&ExecutorStats) -> u64| (f(&probe.stats.1) - f(&probe.stats.0)) as f64;
    let delta = |f: fn(&ExecutorStats) -> u64| (f(&stats_after) - f(&stats_before)) as f64;

    let mut metrics = vec![
        Metric::new("graph.load_s", load_s, "s"),
        Metric::new("graph.index_s", index_s, "s"),
        Metric::new("graph.apply_us", apply_us, "us"),
        Metric::new("graph.compactions", compactions as f64, "count"),
        Metric::new("query.parse_us", per_read("query.parse"), "us"),
        Metric::new("core.plan_us", per_read("core.plan"), "us"),
        Metric::new(
            "core.plan_est_over_walks",
            ratio(counts.estimated_cost, counts.edge_walks as f64),
            "ratio",
        ),
        Metric::new("core.generate_us", per_read("core.generate"), "us"),
        Metric::new("core.edge_walks", counts.edge_walks as f64, "count"),
        Metric::new("core.ag_edges", counts.ag_edges as f64, "count"),
        // The default configuration does not enable edge burnback.
        Metric::new("core.edge_burnback_us", 0.0, "us"),
        Metric::new("core.defactorize_us", per_read("core.defactorize"), "us"),
        Metric::new("core.rows", counts.rows as f64, "count"),
        Metric::new(
            "core.peak_intermediate",
            counts.peak_intermediate as f64,
            "count",
        ),
        Metric::new(
            "core.ag_over_rows",
            ratio(counts.ag_edges as f64, counts.rows as f64),
            "ratio",
        ),
        Metric::new(
            "core.maintain_us",
            maintain(|s| s.maintenance_micros) / writes,
            "us",
        ),
        Metric::new(
            "core.views_maintained",
            maintain(|s| s.plans_maintained),
            "count",
        ),
        Metric::new(
            "core.views_evicted",
            maintain(|s| s.cache_invalidations),
            "count",
        ),
        Metric::new(
            "core.maintain_frontier_nodes",
            maintain(|s| s.maintenance_frontier_nodes),
            "count",
        ),
        Metric::new("core.prefix_refills", counts.prefix_refills as f64, "count"),
        Metric::new(
            "core.prefix_fallbacks",
            counts.prefix_fallbacks as f64,
            "count",
        ),
        Metric::new("session.execute_us", execute_us, "us"),
        Metric::new("session.residual_us", residual_us, "us"),
        Metric::new(
            "session.hit_ratio",
            delta(|s| s.view_serves) / reads,
            "ratio",
        ),
        Metric::new("session.prefix_hits", counts.prefix_hits as f64, "count"),
        Metric::new("serve.residual_us", 0.0, "us"),
        Metric::new("serve.batches", 0.0, "count"),
        Metric::new("serve.updates_pushed", 0.0, "count"),
        Metric::new("serve.shed", 0.0, "count"),
    ];
    metrics.extend(baselines(
        mode,
        &session.graph(),
        queries,
        &refs,
        &plain,
        &counts,
    )?);
    metrics.push(Metric::new(
        "trace.residual_us",
        untraced_us - execute_us,
        "us",
    ));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        (execute_us / untraced_us.max(1e-9) - 1.0) * 100.0,
        "%",
    ));
    let attempted = (plain.reads() + traced.reads()) as u64
        + plain.failed
        + traced.failed
        + probe.write.len() as u64;
    let failed = plain.failed + traced.failed;
    metrics.push(Metric::new(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    let path =
        std::path::Path::new(WORK_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    trace.write(&path)?;
    eprintln!("agbench: spans written to {}", path.display());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The benchmark's own views of every query, built over `graph` through
/// the engine's public phase-one call (warm traced runs only).
fn own_views(graph: &Graph, queries: &[QuerySpec]) -> Result<Vec<MaterializedQuery>, String> {
    let options = EvalOptions::default();
    let engine = WireframeEngine::with_options(graph, options);
    queries
        .iter()
        .map(|q| {
            let query =
                parse_query(&q.text, graph.dictionary()).map_err(|e| format!("{}: {e}", q.name))?;
            let planned =
                plan(graph, &query, options.planner).map_err(|e| format!("{}: {e}", q.name))?;
            engine
                .materialize_with_plan(&query, &planned)
                .map(|(view, _)| view)
                .map_err(|e| format!("{}: {e}", q.name))
        })
        .collect()
}

/// Table 1 (traced `cold` only): the three baseline engines on CQS-1..5
/// and CQD-1..5 through the engine registry, beside the cold session's
/// median unbounded read. The relational times are the oracle's.
fn baselines(
    mode: Mode,
    graph: &Graph,
    queries: &[QuerySpec],
    refs: &[Reference],
    plain: &Samples,
    counts: &Counts,
) -> Result<Vec<Metric>, String> {
    let mut rel = Vec::new();
    let mut sm = Vec::new();
    let mut expl = Vec::new();
    let mut expl_walks = 0u64;
    if mode == Mode::Cold {
        let registry = default_registry();
        let config = EngineConfig::default();
        let sortmerge = registry
            .build("sortmerge", graph, &config)
            .map_err(|e| e.to_string())?;
        let exploration = registry
            .build("exploration", graph, &config)
            .map_err(|e| e.to_string())?;
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8}",
            "query", "WF_ms", "REL_ms", "SM_ms", "EXPL_ms", "|AG|", "|Emb|", "ratio"
        );
        for (qi, q) in queries.iter().enumerate() {
            if !(q.name.starts_with("CQS") || q.name.starts_with("CQD")) {
                continue;
            }
            let query = parse_query(&q.text, graph.dictionary()).map_err(|e| e.to_string())?;
            let timed = |engine: &dyn wireframe::Engine| -> Result<(f64, u64), String> {
                let start = Instant::now();
                let ev = engine.run(&query).map_err(|e| format!("{}: {e}", q.name))?;
                let us = start.elapsed().as_secs_f64() * 1e6;
                oracle::check(&q.name, 0, &ev, &refs[qi])?;
                Ok((us, ev.metric("edge_walks").unwrap_or(0)))
            };
            let (sm_us, _) = timed(sortmerge.as_ref())?;
            let (expl_us, walks) = timed(exploration.as_ref())?;
            let rel_us = refs[qi].elapsed.as_secs_f64() * 1e6;
            let wf_ms = plain.per_query.get(&qi).map_or(0.0, |v| median(v));
            let ag = counts.ag_per_query.get(&qi).copied().unwrap_or(0);
            println!(
                "{:<6} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>8} {:>8.1}",
                q.name,
                wf_ms,
                rel_us / 1e3,
                sm_us / 1e3,
                expl_us / 1e3,
                ag,
                refs[qi].rows,
                refs[qi].rows as f64 / ag.max(1) as f64
            );
            rel.push(rel_us);
            sm.push(sm_us);
            expl.push(expl_us);
            expl_walks += walks;
        }
    }
    Ok(vec![
        Metric::new("baseline.relational_us", mean(&rel), "us"),
        Metric::new("baseline.sortmerge_us", mean(&sm), "us"),
        Metric::new("baseline.exploration_us", mean(&expl), "us"),
        Metric::new(
            "baseline.exploration_edge_walks",
            expl_walks as f64,
            "count",
        ),
    ])
}

fn print_samples(samples: &Samples, probe: &Probe) {
    println!(
        "samples: acyclic={} cyclic={} topk={} write={} push={}",
        samples.acyclic.len(),
        samples.cyclic.len(),
        samples.topk.len(),
        probe.write.len(),
        probe.push.len()
    );
}
