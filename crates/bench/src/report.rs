//! The machine-readable `wfbench` report: the `BENCH_*.json` schema, its
//! renderer/parser, and baseline regression comparison.
//!
//! # Schema (version 4)
//!
//! Version 4 adds the churn section's `topk` subsection (the
//! `--scenario churn --limit K` top-k serving lane; null for unlimited
//! runs). Version 3 added the per-engine `serve` section (the `serve-net`
//! network lane; null for every other scenario). Version 2 added the
//! `scenario` field and the per-engine `churn` section (null for serve
//! runs). Versions 1–3 still parse: v1 reads back as `scenario: "serve"`
//! with no churn data, pre-v3 reads back with `serve: null`, and pre-v4
//! churn sections read back with `topk: null`.
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "dataset": "tiny",          // DatasetSize name
//!   "store": "csr",             // graph storage backend (csr / map / delta)
//!   "scenario": "serve",        // driver scenario (serve / churn)
//!   "triples": 4100,            // dataset size actually generated
//!   "threads": 4,               // closed-loop driver threads
//!   "iterations": 5,            // workload passes per thread
//!   "workload": "full",         // workload name (20 queries for "full")
//!   "engines": [ {
//!     "engine": "wireframe",
//!     "total_queries": 400,     // queries issued across all threads
//!     "wall_ms": 123.4,         // driver wall-clock for this engine
//!     "qps": 3241.5,            // total_queries / wall seconds
//!     "cache_hits": 396,        // Session prepared-plan cache counters
//!     "cache_misses": 4,
//!     "churn": null,            // churn-scenario section, see below
//!     "queries": [ {
//!       "name": "CQS-1",
//!       "shape": "snowflake",
//!       "samples": 20,          // measured latencies (threads × iterations)
//!       "p50_ms": 0.8, "p95_ms": 1.1, "p99_ms": 1.4, "mean_ms": 0.9,
//!       "phases": {             // mean per-phase breakdown, milliseconds
//!         "planning_ms": 0.0, "answer_graph_ms": 0.5,
//!         "edge_burnback_ms": 0.0, "defactorization_ms": 0.3,
//!         "execution_ms": 0.0
//!       },
//!       "embeddings": 1216,            // |Embeddings|
//!       "answer_graph_edges": 48,      // |AG|; null for non-factorizing engines
//!       "ag_over_embeddings": 0.039    // |AG| / |Embeddings|; null likewise
//!     } ]
//!   } ]
//! }
//! ```
//!
//! A churn run (`wfbench --scenario churn`) leaves `queries` empty — answers
//! legitimately drift across epochs, so per-query percentiles are replaced
//! by a per-epoch breakdown:
//!
//! ```json
//! "churn": {
//!   "final_epoch": 4,           // session epoch after the last batch
//!   "total_mutations": 256,     // triples actually inserted + removed
//!   "total_invalidations": 12,  // cached plans evicted by footprint
//!   "total_compactions": 1,     // delta-store compactions triggered
//!   "total_maintained": 16,     // retained views maintained in place
//!   "total_full_evaluations": 24, // full pipeline runs across the session
//!   "epochs": [ {
//!     "epoch": 1, "wall_ms": 40.2, "queries": 40, "qps": 995.0,
//!     "inserted": 38, "removed": 26,          // this batch's net effect
//!     "invalidations": 3, "evictions": 0, "compactions": 0,
//!     "cache_hits": 37, "cache_misses": 3,    // this epoch's read phase
//!     "maintained": 4,            // views updated in O(delta) by the batch
//!     "maintenance_us": 180,      // wall-clock spent maintaining them
//!     "frontier_nodes": 9         // nodes the maintenance cascade touched
//!   } ],
//!   "topk": {                     // --limit K lane only; null otherwise
//!     "limit": 8,                 // rows requested per read
//!     "prefix_serves": 120,       // reads answered from a warm prefix, O(k)
//!     "full_serves": 60,          // reads that paid a full defactorization
//!     "prefix_refills": 20,       // prefix recomputes (priming + underflow)
//!     "prefix_fallbacks": 0,      // churn/overflow full-recompute fallbacks
//!     "prefix_p50_us": 11.0, "prefix_p99_us": 35.0,  // prefix view-serve µs
//!     "full_p50_us": 950.0, "full_p99_us": 2100.0    // full view-serve µs
//!   }
//! }
//! ```
//!
//! A network run (`wfbench --scenario serve-net`) also leaves `queries`
//! empty — the graph mutates underneath the readers, so per-query
//! percentiles are replaced by whole-run tail latency over real TCP:
//!
//! ```json
//! "serve": {
//!   "clients": 4,               // closed-loop TCP client threads
//!   "requests": 400,            // requests issued across all clients
//!   "queries": 323,             // … of which reads (seed-deterministic)
//!   "mutations": 77,            // … of which mutate scripts (ditto)
//!   "shed": 0,                  // refused by admission control
//!   "shed_rate": 0.0,           // shed / requests
//!   "p50_ms": 0.9, "p95_ms": 2.1, "p99_ms": 3.0, "p999_ms": 3.4,
//!   "mutation_batches": 61,     // maintenance passes actually run
//!   "coalesced_mutations": 30,  // mutate requests that shared a batch
//!   "subscription_updates": 44, // embedding deltas pushed to the subscriber
//!   "subscription_lag_epochs": 2, // worst observed subscriber staleness
//!   "final_epoch": 61           // server epoch when the run drained
//! }
//! ```
//!
//! `clients` / `requests` / `queries` / `mutations` are deterministic given
//! the seed and are compared exactly against a baseline; `p50_ms` is
//! compared with tolerance + the latency floor; everything else is
//! timing-dependent (shed, batching, lag) and reported for observability
//! only.
//!
//! The `maintained` / `maintenance_us` / `frontier_nodes` counters compare
//! the two `--maintenance` policies directly: under `incremental` the epochs
//! report maintained views and a small frontier, under `reeval` they report
//! zero maintenance and correspondingly higher invalidation/miss counts.
//! Version-2 reports written before these counters existed still parse
//! (epochs read back as zero; the totals read back as unknown and are not
//! compared).
//!
//! All latencies are milliseconds (floats); all counts are exact integers.
//! `ag_over_embeddings` is the paper's factorization claim in ratio form:
//! well below 1.0 means the answer graph is much smaller than the embedding
//! set it represents.

use serde::json::{self, Value};
use serde::Serialize;

/// Version stamp for `BENCH_*.json`; bump when the shape changes. The
/// parser also accepts version-1 (pre-churn), version-2 (pre-serving), and
/// version-3 (pre-top-k) documents.
pub const SCHEMA_VERSION: u64 = 4;

/// Mean per-phase latency breakdown, in milliseconds. Factorized phases are
/// zero for single-pass engines and vice versa (mirrors
/// [`wireframe::Timings`]).
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseBreakdown {
    /// Planning (Edgifier + Triangulator).
    pub planning_ms: f64,
    /// Phase one: answer-graph generation.
    pub answer_graph_ms: f64,
    /// Optional edge burnback.
    pub edge_burnback_ms: f64,
    /// Phase two: embedding generation — **wall-clock** (what a client
    /// waits), even when parallel workers split the work.
    pub defactorization_ms: f64,
    /// Single-pass execution (non-factorized engines).
    pub execution_ms: f64,
    /// Phase two **cpu-sum** across defactorization workers: equals
    /// `defactorization_ms` on the sequential path, exceeds it when
    /// parallel workers overlap. Never added into totals. Reports written
    /// before the field existed read back as zero.
    pub defactorization_cpu_ms: f64,
}

/// Measured statistics of one query on one engine.
#[derive(Debug, Clone, Serialize)]
pub struct QueryReport {
    /// Query name (`CQC-1` … `CQD-5`).
    pub name: String,
    /// Query shape (`chain`, `star`, `snowflake`, `cycle`).
    pub shape: String,
    /// Number of latency samples behind the percentiles.
    pub samples: usize,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Mean per-phase breakdown.
    pub phases: PhaseBreakdown,
    /// Number of embeddings (identical across engines, asserted by the driver).
    pub embeddings: u64,
    /// Answer-graph size |AG|; `None` for engines that do not factorize.
    pub answer_graph_edges: Option<u64>,
    /// |AG| / |Embeddings| — the paper's factorization gap (small is good);
    /// `None` for engines that do not factorize.
    pub ag_over_embeddings: Option<f64>,
}

/// One epoch of a churn run: the mutation batch applied, the read phase
/// measured against the resulting graph version, and the counter deltas.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// Session epoch after the batch (1-based).
    pub epoch: u64,
    /// Wall-clock of this epoch's read phase.
    pub wall_ms: f64,
    /// Queries issued in this epoch's read phase.
    pub queries: u64,
    /// Read throughput at this epoch.
    pub qps: f64,
    /// Triples the batch actually inserted (net, set semantics).
    pub inserted: u64,
    /// Triples the batch actually removed.
    pub removed: u64,
    /// Cached plans evicted because their footprint intersected the batch.
    pub invalidations: u64,
    /// Cached plans evicted by the capacity bound during this epoch.
    pub evictions: u64,
    /// Delta-store compactions triggered by the batch.
    pub compactions: u64,
    /// Prepared-plan cache hits during this epoch's reads.
    pub cache_hits: u64,
    /// Prepared-plan cache misses during this epoch's reads
    /// (re-preparations of invalidated plans).
    pub cache_misses: u64,
    /// Retained views maintained in place by this epoch's batch (instead of
    /// being evicted). Zero under the `reeval` policy and for engines that
    /// do not maintain; reports written before maintenance existed read
    /// back as zero.
    pub maintained: u64,
    /// Wall-clock spent maintaining those views, in microseconds.
    pub maintenance_us: u64,
    /// Answer-graph nodes from which maintenance cascaded (the frontier) —
    /// the `O(delta)` cost unit of incremental maintenance.
    pub frontier_nodes: u64,
}

/// The top-k serving lane of a churn run (`--scenario churn --limit K`):
/// every read pushes `limit` into evaluation, and view serves are split by
/// path — answered from the maintained defactorized prefix in `O(k)`, or by
/// a full defactorization (the per-epoch unlimited sweep, plus any limited
/// read the prefix could not answer).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TopKReport {
    /// Rows requested per read (the `--limit` value).
    pub limit: u64,
    /// Measured reads answered from a warm prefix in `O(limit)`.
    pub prefix_serves: u64,
    /// Measured reads that paid a full defactorization.
    pub full_serves: u64,
    /// Prefix recomputes across the run (priming + underflow refills).
    pub prefix_refills: u64,
    /// Full-recompute fallbacks across the run (churn threshold or
    /// candidate overflow during maintenance).
    pub prefix_fallbacks: u64,
    /// Median view-serve latency of prefix-served reads, microseconds.
    pub prefix_p50_us: f64,
    /// 99th-percentile view-serve latency of prefix-served reads.
    pub prefix_p99_us: f64,
    /// Median view-serve latency of full-defactorization reads.
    pub full_p50_us: f64,
    /// 99th-percentile view-serve latency of full-defactorization reads.
    pub full_p99_us: f64,
}

/// The churn-scenario section of an [`EngineRun`].
#[derive(Debug, Clone, Serialize)]
pub struct ChurnReport {
    /// Session epoch after the last batch (= number of batches applied).
    pub final_epoch: u64,
    /// Net triples inserted + removed across all batches.
    pub total_mutations: u64,
    /// Cached plans evicted by predicate footprints, total.
    pub total_invalidations: u64,
    /// Delta-store compactions, total.
    pub total_compactions: u64,
    /// Retained views maintained in place, total. `None` when the report
    /// predates maintenance counters (those baselines stay parseable and
    /// are simply not compared on this metric).
    pub total_maintained: Option<u64>,
    /// Full pipeline runs (plan + generate + burnback) the engine's session
    /// performed across the whole churn run — the quantity incremental
    /// maintenance exists to minimize. `None` on pre-maintenance reports.
    pub total_full_evaluations: Option<u64>,
    /// Per-epoch breakdown, in order.
    pub epochs: Vec<EpochReport>,
    /// Top-k serving lane (`--limit K`); `None` for unlimited runs and on
    /// pre-v4 reports.
    pub topk: Option<TopKReport>,
}

/// The `serve-net` network-lane section of an [`EngineRun`]: tail latency
/// and admission-control observability for a closed-loop multi-client run
/// over real TCP sockets.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Closed-loop TCP client threads.
    pub clients: u64,
    /// Requests issued across all clients (`queries + mutations`).
    pub requests: u64,
    /// Read requests issued. Deterministic given the seed (shed requests
    /// still count — admission happens after the client decided what to
    /// send).
    pub queries: u64,
    /// Mutate requests issued. Deterministic given the seed.
    pub mutations: u64,
    /// Requests refused by admission control (`overloaded` responses).
    pub shed: u64,
    /// `shed / requests` — the headline overload signal.
    pub shed_rate: f64,
    /// Median request latency over the socket (shed requests excluded).
    pub p50_ms: f64,
    /// 95th-percentile request latency.
    pub p95_ms: f64,
    /// 99th-percentile request latency.
    pub p99_ms: f64,
    /// 99.9th-percentile request latency.
    pub p999_ms: f64,
    /// Mutation batches actually applied (maintenance passes run).
    pub mutation_batches: u64,
    /// Mutate requests that shared a batch with at least one other — the
    /// write-batching payoff (`mutations - mutation_batches` when every
    /// batch coalesces).
    pub coalesced_mutations: u64,
    /// Embedding-delta frames pushed to the subscriber.
    pub subscription_updates: u64,
    /// Worst observed subscriber staleness: server epoch at delta receipt
    /// minus the delta's epoch, maximized over all updates.
    pub subscription_lag_epochs: u64,
    /// Server epoch when the run drained (= `mutation_batches`).
    pub final_epoch: u64,
    /// Whether telemetry histograms and span sampling were enabled for the
    /// run (`wfbench --scenario serve-net --obs off` is the A/B lever for
    /// measuring instrumentation overhead). Reports written before the
    /// flag existed read back as `true`.
    pub obs: bool,
}

/// One engine's closed-loop run over the whole workload.
#[derive(Debug, Clone, Serialize)]
pub struct EngineRun {
    /// Registry name of the engine.
    pub engine: String,
    /// Queries issued across all driver threads.
    pub total_queries: u64,
    /// Wall-clock time of the closed loop.
    pub wall_ms: f64,
    /// Aggregate throughput: `total_queries` / wall seconds.
    pub qps: f64,
    /// Prepared-plan cache hits observed by the serving `Session`.
    pub cache_hits: u64,
    /// Prepared-plan cache misses observed by the serving `Session`.
    pub cache_misses: u64,
    /// Per-query statistics, in workload order (empty for churn runs, whose
    /// answers drift across epochs by design).
    pub queries: Vec<QueryReport>,
    /// Churn-scenario breakdown; `None` for serve runs.
    pub churn: Option<ChurnReport>,
    /// Network-lane (`serve-net`) breakdown; `None` for every other
    /// scenario, and on all pre-v3 reports.
    pub serve: Option<ServeReport>,
}

/// A complete `wfbench` run: the `BENCH_*.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Dataset size name (`tiny` / `small` / `benchmark`).
    pub dataset: String,
    /// Graph storage backend the run was indexed with (`csr` / `delta`). Reports written before the field existed read back as
    /// `csr`.
    pub store: String,
    /// Driver scenario (`serve` / `churn`). Version-1 reports read back as
    /// `serve`.
    pub scenario: String,
    /// Triples in the generated dataset.
    pub triples: u64,
    /// Closed-loop driver threads.
    pub threads: usize,
    /// Workload passes per thread.
    pub iterations: usize,
    /// Workload name (`full`, `table1`, `chains`, `stars`).
    pub workload: String,
    /// One run per measured engine.
    pub engines: Vec<EngineRun>,
}

impl BenchReport {
    /// Renders the report as indented JSON (the `BENCH_*.json` format).
    pub fn to_json_string(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Parses a report back from JSON, for `--baseline` comparison. Accepts
    /// the current schema, version 2 (pre-serving: no per-engine `serve`
    /// section), and version 1 (pre-churn: additionally no `scenario` and
    /// no per-engine `churn` section).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = json::from_str(text).map_err(|e| e.to_string())?;
        let version = field_u64(&doc, "schema_version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema_version {version} (this binary reads 1..={SCHEMA_VERSION})"
            ));
        }
        Ok(BenchReport {
            schema_version: version,
            dataset: field_str(&doc, "dataset")?,
            store: doc
                .get("store")
                .and_then(Value::as_str)
                .unwrap_or("csr")
                .to_owned(),
            scenario: doc
                .get("scenario")
                .and_then(Value::as_str)
                .unwrap_or("serve")
                .to_owned(),
            triples: field_u64(&doc, "triples")?,
            threads: field_u64(&doc, "threads")? as usize,
            iterations: field_u64(&doc, "iterations")? as usize,
            workload: field_str(&doc, "workload")?,
            engines: field_array(&doc, "engines")?
                .iter()
                .map(engine_from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

fn engine_from_json(doc: &Value) -> Result<EngineRun, String> {
    let churn = match doc.get("churn") {
        None | Some(Value::Null) => None,
        Some(section) => Some(churn_from_json(section)?),
    };
    // Absent on pre-v3 reports: those baselines stay loadable with no
    // serve section to compare against.
    let serve = match doc.get("serve") {
        None | Some(Value::Null) => None,
        Some(section) => Some(serve_from_json(section)?),
    };
    Ok(EngineRun {
        engine: field_str(doc, "engine")?,
        total_queries: field_u64(doc, "total_queries")?,
        wall_ms: field_f64(doc, "wall_ms")?,
        qps: field_f64(doc, "qps")?,
        cache_hits: field_u64(doc, "cache_hits")?,
        cache_misses: field_u64(doc, "cache_misses")?,
        queries: field_array(doc, "queries")?
            .iter()
            .map(query_from_json)
            .collect::<Result<_, _>>()?,
        churn,
        serve,
    })
}

fn serve_from_json(doc: &Value) -> Result<ServeReport, String> {
    Ok(ServeReport {
        clients: field_u64(doc, "clients")?,
        requests: field_u64(doc, "requests")?,
        queries: field_u64(doc, "queries")?,
        mutations: field_u64(doc, "mutations")?,
        shed: field_u64(doc, "shed")?,
        shed_rate: field_f64(doc, "shed_rate")?,
        p50_ms: field_f64(doc, "p50_ms")?,
        p95_ms: field_f64(doc, "p95_ms")?,
        p99_ms: field_f64(doc, "p99_ms")?,
        p999_ms: field_f64(doc, "p999_ms")?,
        mutation_batches: field_u64(doc, "mutation_batches")?,
        coalesced_mutations: field_u64(doc, "coalesced_mutations")?,
        subscription_updates: field_u64(doc, "subscription_updates")?,
        subscription_lag_epochs: field_u64(doc, "subscription_lag_epochs")?,
        final_epoch: field_u64(doc, "final_epoch")?,
        // Absent on pre-telemetry reports, which always ran instrumented.
        obs: doc.get("obs").and_then(Value::as_bool).unwrap_or(true),
    })
}

fn churn_from_json(doc: &Value) -> Result<ChurnReport, String> {
    // Absent on pre-v4 reports and on unlimited runs alike: both read back
    // with no top-k lane to compare against.
    let topk = match doc.get("topk") {
        None | Some(Value::Null) => None,
        Some(section) => Some(topk_from_json(section)?),
    };
    Ok(ChurnReport {
        final_epoch: field_u64(doc, "final_epoch")?,
        total_mutations: field_u64(doc, "total_mutations")?,
        total_invalidations: field_u64(doc, "total_invalidations")?,
        total_compactions: field_u64(doc, "total_compactions")?,
        // Absent on pre-maintenance reports (schema 2 without the counters):
        // keep those parseable, with the metric marked unknown.
        total_maintained: doc.get("total_maintained").and_then(Value::as_u64),
        total_full_evaluations: doc.get("total_full_evaluations").and_then(Value::as_u64),
        epochs: field_array(doc, "epochs")?
            .iter()
            .map(epoch_from_json)
            .collect::<Result<_, _>>()?,
        topk,
    })
}

fn topk_from_json(doc: &Value) -> Result<TopKReport, String> {
    Ok(TopKReport {
        limit: field_u64(doc, "limit")?,
        prefix_serves: field_u64(doc, "prefix_serves")?,
        full_serves: field_u64(doc, "full_serves")?,
        prefix_refills: field_u64(doc, "prefix_refills")?,
        prefix_fallbacks: field_u64(doc, "prefix_fallbacks")?,
        prefix_p50_us: field_f64(doc, "prefix_p50_us")?,
        prefix_p99_us: field_f64(doc, "prefix_p99_us")?,
        full_p50_us: field_f64(doc, "full_p50_us")?,
        full_p99_us: field_f64(doc, "full_p99_us")?,
    })
}

fn epoch_from_json(doc: &Value) -> Result<EpochReport, String> {
    Ok(EpochReport {
        epoch: field_u64(doc, "epoch")?,
        wall_ms: field_f64(doc, "wall_ms")?,
        queries: field_u64(doc, "queries")?,
        qps: field_f64(doc, "qps")?,
        inserted: field_u64(doc, "inserted")?,
        removed: field_u64(doc, "removed")?,
        invalidations: field_u64(doc, "invalidations")?,
        evictions: field_u64(doc, "evictions")?,
        compactions: field_u64(doc, "compactions")?,
        cache_hits: field_u64(doc, "cache_hits")?,
        cache_misses: field_u64(doc, "cache_misses")?,
        // Pre-maintenance epochs read back as zero (counters did not exist).
        maintained: doc.get("maintained").and_then(Value::as_u64).unwrap_or(0),
        maintenance_us: doc
            .get("maintenance_us")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        frontier_nodes: doc
            .get("frontier_nodes")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    })
}

fn query_from_json(doc: &Value) -> Result<QueryReport, String> {
    let phases = doc
        .get("phases")
        .ok_or_else(|| "query report is missing \"phases\"".to_owned())?;
    Ok(QueryReport {
        name: field_str(doc, "name")?,
        shape: field_str(doc, "shape")?,
        samples: field_u64(doc, "samples")? as usize,
        p50_ms: field_f64(doc, "p50_ms")?,
        p95_ms: field_f64(doc, "p95_ms")?,
        p99_ms: field_f64(doc, "p99_ms")?,
        mean_ms: field_f64(doc, "mean_ms")?,
        phases: PhaseBreakdown {
            planning_ms: field_f64(phases, "planning_ms")?,
            answer_graph_ms: field_f64(phases, "answer_graph_ms")?,
            edge_burnback_ms: field_f64(phases, "edge_burnback_ms")?,
            defactorization_ms: field_f64(phases, "defactorization_ms")?,
            execution_ms: field_f64(phases, "execution_ms")?,
            // Absent on reports written before the wall/cpu split.
            defactorization_cpu_ms: phases
                .get("defactorization_cpu_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        },
        embeddings: field_u64(doc, "embeddings")?,
        answer_graph_edges: doc.get("answer_graph_edges").and_then(Value::as_u64),
        ag_over_embeddings: doc.get("ag_over_embeddings").and_then(Value::as_f64),
    })
}

fn field<'a>(doc: &'a Value, name: &str) -> Result<&'a Value, String> {
    doc.get(name)
        .ok_or_else(|| format!("report is missing field {name:?}"))
}

fn field_str(doc: &Value, name: &str) -> Result<String, String> {
    field(doc, name)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field {name:?} is not a string"))
}

fn field_u64(doc: &Value, name: &str) -> Result<u64, String> {
    field(doc, name)?
        .as_u64()
        .ok_or_else(|| format!("field {name:?} is not an unsigned integer"))
}

fn field_f64(doc: &Value, name: &str) -> Result<f64, String> {
    field(doc, name)?
        .as_f64()
        .ok_or_else(|| format!("field {name:?} is not a number"))
}

fn field_array<'a>(doc: &'a Value, name: &str) -> Result<&'a [Value], String> {
    field(doc, name)?
        .as_array()
        .ok_or_else(|| format!("field {name:?} is not an array"))
}

/// Latency differences below this absolute floor never count as regressions:
/// tiny-dataset queries answer in microseconds, where scheduler jitter alone
/// exceeds any sensible relative tolerance.
pub const LATENCY_FLOOR_MS: f64 = 0.5;

/// One regression found by [`compare`].
#[derive(Debug, Clone)]
pub struct Regression {
    /// Engine the regression was observed on.
    pub engine: String,
    /// Query name, or `*` for engine-level metrics (QPS).
    pub query: String,
    /// Which metric regressed (`p50_ms`, `qps`, `embeddings`, …).
    pub metric: &'static str,
    /// The committed baseline value.
    pub baseline: f64,
    /// The value measured by this run.
    pub current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} regressed from {:.3} to {:.3}",
            self.engine, self.query, self.metric, self.baseline, self.current
        )
    }
}

/// Compares `current` against a committed `baseline` with a relative
/// `tolerance` (0.15 = 15% slack).
///
/// * Latency (`p50_ms`) and throughput (`qps`) regress when they are worse
///   than the baseline by more than the tolerance; latency additionally must
///   exceed [`LATENCY_FLOOR_MS`] of absolute slowdown.
/// * Result counts (`embeddings`, `answer_graph_edges`) must match exactly —
///   a drifting answer is a correctness bug, not a performance matter, so
///   tolerance never excuses it.
/// * Churn counters (`total_mutations`, `total_invalidations`,
///   `total_compactions`) are deterministic given the seed, so they also
///   must match exactly when the baseline recorded a churn section.
/// * The top-k lane's `limit` is configuration and must match exactly when
///   the baseline recorded a `topk` section; `prefix_p50_us` / `full_p50_us`
///   regress like any latency (tolerance + floor). Serve/refill counts are
///   interleaving-dependent and never compared.
/// * Serve-net traffic counts (`clients`, `requests`, `queries`,
///   `mutations`) are seed-deterministic and must match exactly when the
///   baseline recorded a serve section; `serve_p50_ms` regresses like any
///   latency (tolerance + floor). Shed/batching/lag counters are
///   timing-dependent and never compared.
/// * Engine × query pairs absent from the baseline are skipped (the workload
///   is allowed to grow); pairs absent from the current run regress as
///   `missing` (a silently dropped measurement must not pass).
pub fn compare(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for base_engine in &baseline.engines {
        let Some(cur_engine) = current
            .engines
            .iter()
            .find(|e| e.engine == base_engine.engine)
        else {
            regressions.push(Regression {
                engine: base_engine.engine.clone(),
                query: "*".to_owned(),
                metric: "missing",
                baseline: base_engine.total_queries as f64,
                current: 0.0,
            });
            continue;
        };
        if let Some(base_churn) = &base_engine.churn {
            let cur_churn = cur_engine.churn.as_ref();
            let pairs: [(&'static str, u64, Option<u64>); 3] = [
                (
                    "churn_mutations",
                    base_churn.total_mutations,
                    cur_churn.map(|c| c.total_mutations),
                ),
                (
                    "churn_invalidations",
                    base_churn.total_invalidations,
                    cur_churn.map(|c| c.total_invalidations),
                ),
                (
                    "churn_compactions",
                    base_churn.total_compactions,
                    cur_churn.map(|c| c.total_compactions),
                ),
            ];
            for (metric, base_value, cur_value) in pairs {
                if cur_value != Some(base_value) {
                    regressions.push(Regression {
                        engine: base_engine.engine.clone(),
                        query: "*".to_owned(),
                        metric,
                        baseline: base_value as f64,
                        current: cur_value.unwrap_or(0) as f64,
                    });
                }
            }
            // Seeded maintenance counters are deterministic too, but only
            // comparable when the baseline recorded them (pre-maintenance
            // baselines parse with the metric unknown and are skipped).
            if let Some(base_maintained) = base_churn.total_maintained {
                let cur_maintained = cur_churn.and_then(|c| c.total_maintained);
                if cur_maintained != Some(base_maintained) {
                    regressions.push(Regression {
                        engine: base_engine.engine.clone(),
                        query: "*".to_owned(),
                        metric: "churn_maintained",
                        baseline: base_maintained as f64,
                        current: cur_maintained.unwrap_or(0) as f64,
                    });
                }
            }
            // The top-k lane: the requested limit is configuration and must
            // match exactly — comparing different limits would be
            // meaningless. The per-path view-serve medians regress like any
            // latency (tolerance + the absolute floor, in microseconds).
            // Serve/refill counts depend on thread interleaving and are
            // reported for observability only.
            if let Some(base_topk) = base_churn.topk {
                let cur_topk = cur_churn.and_then(|c| c.topk);
                if cur_topk.map(|t| t.limit) != Some(base_topk.limit) {
                    regressions.push(Regression {
                        engine: base_engine.engine.clone(),
                        query: "*".to_owned(),
                        metric: "topk_limit",
                        baseline: base_topk.limit as f64,
                        current: cur_topk.map_or(0.0, |t| t.limit as f64),
                    });
                }
                if let Some(cur_topk) = cur_topk {
                    let floor_us = LATENCY_FLOOR_MS * 1000.0;
                    let latencies: [(&'static str, f64, f64); 2] = [
                        (
                            "topk_prefix_p50_us",
                            base_topk.prefix_p50_us,
                            cur_topk.prefix_p50_us,
                        ),
                        (
                            "topk_full_p50_us",
                            base_topk.full_p50_us,
                            cur_topk.full_p50_us,
                        ),
                    ];
                    for (metric, base_value, cur_value) in latencies {
                        if cur_value > base_value * (1.0 + tolerance)
                            && cur_value - base_value > floor_us
                        {
                            regressions.push(Regression {
                                engine: base_engine.engine.clone(),
                                query: "*".to_owned(),
                                metric,
                                baseline: base_value,
                                current: cur_value,
                            });
                        }
                    }
                }
            }
        }
        if let Some(base_serve) = &base_engine.serve {
            let cur_serve = cur_engine.serve.as_ref();
            let pairs: [(&'static str, u64, Option<u64>); 4] = [
                (
                    "serve_clients",
                    base_serve.clients,
                    cur_serve.map(|s| s.clients),
                ),
                (
                    "serve_requests",
                    base_serve.requests,
                    cur_serve.map(|s| s.requests),
                ),
                (
                    "serve_queries",
                    base_serve.queries,
                    cur_serve.map(|s| s.queries),
                ),
                (
                    "serve_mutations",
                    base_serve.mutations,
                    cur_serve.map(|s| s.mutations),
                ),
            ];
            for (metric, base_value, cur_value) in pairs {
                if cur_value != Some(base_value) {
                    regressions.push(Regression {
                        engine: base_engine.engine.clone(),
                        query: "*".to_owned(),
                        metric,
                        baseline: base_value as f64,
                        current: cur_value.unwrap_or(0) as f64,
                    });
                }
            }
            if let Some(cur_serve) = cur_serve {
                if cur_serve.p50_ms > base_serve.p50_ms * (1.0 + tolerance)
                    && cur_serve.p50_ms - base_serve.p50_ms > LATENCY_FLOOR_MS
                {
                    regressions.push(Regression {
                        engine: base_engine.engine.clone(),
                        query: "*".to_owned(),
                        metric: "serve_p50_ms",
                        baseline: base_serve.p50_ms,
                        current: cur_serve.p50_ms,
                    });
                }
            }
        }
        if cur_engine.qps < base_engine.qps / (1.0 + tolerance) {
            regressions.push(Regression {
                engine: base_engine.engine.clone(),
                query: "*".to_owned(),
                metric: "qps",
                baseline: base_engine.qps,
                current: cur_engine.qps,
            });
        }
        for base_query in &base_engine.queries {
            let Some(cur_query) = cur_engine
                .queries
                .iter()
                .find(|q| q.name == base_query.name)
            else {
                regressions.push(Regression {
                    engine: base_engine.engine.clone(),
                    query: base_query.name.clone(),
                    metric: "missing",
                    baseline: base_query.embeddings as f64,
                    current: 0.0,
                });
                continue;
            };
            if cur_query.p50_ms > base_query.p50_ms * (1.0 + tolerance)
                && cur_query.p50_ms - base_query.p50_ms > LATENCY_FLOOR_MS
            {
                regressions.push(Regression {
                    engine: base_engine.engine.clone(),
                    query: base_query.name.clone(),
                    metric: "p50_ms",
                    baseline: base_query.p50_ms,
                    current: cur_query.p50_ms,
                });
            }
            if cur_query.embeddings != base_query.embeddings {
                regressions.push(Regression {
                    engine: base_engine.engine.clone(),
                    query: base_query.name.clone(),
                    metric: "embeddings",
                    baseline: base_query.embeddings as f64,
                    current: cur_query.embeddings as f64,
                });
            }
            // A baseline |AG| disappearing from the current run is itself a
            // regression (the engine stopped factorizing, or the measurement
            // was dropped) — not a pass.
            if let Some(base_ag) = base_query.answer_graph_edges {
                if cur_query.answer_graph_edges != Some(base_ag) {
                    regressions.push(Regression {
                        engine: base_engine.engine.clone(),
                        query: base_query.name.clone(),
                        metric: "answer_graph_edges",
                        baseline: base_ag as f64,
                        current: cur_query.answer_graph_edges.unwrap_or(0) as f64,
                    });
                }
            }
        }
    }
    regressions
}

/// Parses a tolerance argument: `15%` or a bare ratio like `0.15`.
///
/// A bare value above 1.0 is rejected: `--tolerance 15` almost certainly
/// means `15%`, and silently reading it as 1500% slack would disable the
/// regression gate. Use the `%` form for slack beyond 100%.
pub fn parse_tolerance(text: &str) -> Result<f64, String> {
    let (digits, percent) = match text.strip_suffix('%') {
        Some(d) => (d, true),
        None => (text, false),
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid tolerance {text:?} (examples: 15%, 0.15)"))?;
    if !percent && value > 1.0 {
        return Err(format!(
            "ambiguous tolerance {text:?}: bare values are ratios (max 1.0); \
             did you mean {value}%?"
        ));
    }
    let ratio = if percent { value / 100.0 } else { value };
    if !(0.0..=100.0).contains(&ratio) {
        return Err(format!("tolerance {text:?} out of range"));
    }
    Ok(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            dataset: "tiny".into(),
            store: "csr".into(),
            scenario: "serve".into(),
            triples: 4100,
            threads: 2,
            iterations: 3,
            workload: "full".into(),
            engines: vec![EngineRun {
                engine: "wireframe".into(),
                total_queries: 120,
                wall_ms: 100.0,
                qps: 1200.0,
                cache_hits: 114,
                cache_misses: 6,
                churn: None,
                serve: None,
                queries: vec![QueryReport {
                    name: "CQS-1".into(),
                    shape: "snowflake".into(),
                    samples: 6,
                    p50_ms: 2.0,
                    p95_ms: 3.0,
                    p99_ms: 3.5,
                    mean_ms: 2.2,
                    phases: PhaseBreakdown {
                        planning_ms: 0.1,
                        answer_graph_ms: 1.2,
                        edge_burnback_ms: 0.0,
                        defactorization_ms: 0.9,
                        execution_ms: 0.0,
                        defactorization_cpu_ms: 0.9,
                    },
                    embeddings: 1216,
                    answer_graph_edges: Some(48),
                    ag_over_embeddings: Some(48.0 / 1216.0),
                }],
            }],
        }
    }

    fn churn_report() -> BenchReport {
        let mut report = sample_report();
        report.scenario = "churn".into();
        report.store = "delta".into();
        report.engines[0].queries.clear();
        report.engines[0].churn = Some(ChurnReport {
            final_epoch: 2,
            total_mutations: 90,
            total_invalidations: 7,
            total_compactions: 1,
            total_maintained: Some(5),
            total_full_evaluations: Some(11),
            epochs: vec![
                EpochReport {
                    epoch: 1,
                    wall_ms: 40.0,
                    queries: 40,
                    qps: 1000.0,
                    inserted: 30,
                    removed: 15,
                    invalidations: 4,
                    evictions: 0,
                    compactions: 0,
                    cache_hits: 36,
                    cache_misses: 4,
                    maintained: 2,
                    maintenance_us: 120,
                    frontier_nodes: 6,
                },
                EpochReport {
                    epoch: 2,
                    wall_ms: 41.0,
                    queries: 40,
                    qps: 975.6,
                    inserted: 30,
                    removed: 15,
                    invalidations: 3,
                    evictions: 0,
                    compactions: 1,
                    cache_hits: 37,
                    cache_misses: 3,
                    maintained: 3,
                    maintenance_us: 150,
                    frontier_nodes: 8,
                },
            ],
            topk: None,
        });
        report
    }

    fn topk_report() -> BenchReport {
        let mut report = churn_report();
        report.engines[0].churn.as_mut().unwrap().topk = Some(TopKReport {
            limit: 8,
            prefix_serves: 120,
            full_serves: 60,
            prefix_refills: 20,
            prefix_fallbacks: 1,
            prefix_p50_us: 11.0,
            prefix_p99_us: 35.0,
            full_p50_us: 950.0,
            full_p99_us: 2100.0,
        });
        report
    }

    fn serve_report() -> BenchReport {
        let mut report = sample_report();
        report.scenario = "serve-net".into();
        report.store = "delta".into();
        report.engines[0].queries.clear();
        report.engines[0].serve = Some(ServeReport {
            clients: 4,
            requests: 400,
            queries: 323,
            mutations: 77,
            shed: 3,
            shed_rate: 3.0 / 400.0,
            p50_ms: 0.9,
            p95_ms: 2.1,
            p99_ms: 3.0,
            p999_ms: 3.4,
            mutation_batches: 61,
            coalesced_mutations: 30,
            subscription_updates: 44,
            subscription_lag_epochs: 2,
            final_epoch: 61,
            obs: true,
        });
        report
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json_string();
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.dataset, "tiny");
        assert_eq!(parsed.store, "csr");
        assert_eq!(parsed.scenario, "serve");
        assert!(parsed.engines[0].churn.is_none());
        assert_eq!(parsed.engines.len(), 1);
        let q = &parsed.engines[0].queries[0];
        assert_eq!(q.name, "CQS-1");
        assert_eq!(q.embeddings, 1216);
        assert_eq!(q.answer_graph_edges, Some(48));
        assert!((q.p50_ms - 2.0).abs() < 1e-9);
        assert!((q.phases.answer_graph_ms - 1.2).abs() < 1e-9);
        assert!(compare(&parsed, &report, 0.15).is_empty());
    }

    #[test]
    fn reports_without_a_store_field_read_as_csr() {
        // Baselines recorded before the store field existed must stay readable.
        let text = sample_report()
            .to_json_string()
            .replace("\"store\": \"csr\",", "");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.store, "csr");
    }

    #[test]
    fn churn_sections_round_trip() {
        let report = churn_report();
        let text = report.to_json_string();
        assert!(text.contains("\"final_epoch\": 2"), "{text}");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.scenario, "churn");
        let churn = parsed.engines[0].churn.as_ref().unwrap();
        assert_eq!(churn.final_epoch, 2);
        assert_eq!(churn.total_mutations, 90);
        assert_eq!(churn.total_invalidations, 7);
        assert_eq!(churn.total_compactions, 1);
        assert_eq!(churn.total_maintained, Some(5));
        assert_eq!(churn.total_full_evaluations, Some(11));
        assert_eq!(churn.epochs.len(), 2);
        assert_eq!(churn.epochs[1].compactions, 1);
        assert_eq!(churn.epochs[1].maintained, 3);
        assert_eq!(churn.epochs[1].maintenance_us, 150);
        assert_eq!(churn.epochs[1].frontier_nodes, 8);
        assert!((churn.epochs[0].qps - 1000.0).abs() < 1e-9);
        assert!(parsed.engines[0].churn.as_ref().unwrap().topk.is_none());
        assert!(compare(&parsed, &report, 0.15).is_empty());
    }

    #[test]
    fn topk_sections_round_trip_and_gate_like_latencies() {
        let report = topk_report();
        let text = report.to_json_string();
        assert!(text.contains("\"prefix_p50_us\""), "{text}");
        let parsed = BenchReport::from_json(&text).unwrap();
        let topk = parsed.engines[0].churn.as_ref().unwrap().topk.unwrap();
        assert_eq!(topk.limit, 8);
        assert_eq!(topk.prefix_serves, 120);
        assert_eq!(topk.full_serves, 60);
        assert_eq!(topk.prefix_refills, 20);
        assert_eq!(topk.prefix_fallbacks, 1);
        assert!((topk.prefix_p50_us - 11.0).abs() < 1e-9);
        assert!((topk.full_p99_us - 2100.0).abs() < 1e-9);
        assert!(compare(&parsed, &report, 0.15).is_empty());

        // A different --limit is configuration drift, not a perf matter:
        // regression regardless of tolerance.
        let mut other = topk_report();
        other.engines[0]
            .churn
            .as_mut()
            .unwrap()
            .topk
            .as_mut()
            .unwrap()
            .limit = 4;
        let found = compare(&other, &report, 100.0);
        assert!(found.iter().any(|r| r.metric == "topk_limit"), "{found:?}");

        // Prefix-path latency regresses with tolerance + the µs floor.
        let mut slow = topk_report();
        slow.engines[0]
            .churn
            .as_mut()
            .unwrap()
            .topk
            .as_mut()
            .unwrap()
            .prefix_p50_us = 900.0;
        let found = compare(&slow, &report, 0.15);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "topk_prefix_p50_us");
        // …but a sub-floor absolute wobble on a microsecond-scale path is
        // runner noise, not a regression.
        let mut wobble = topk_report();
        wobble.engines[0]
            .churn
            .as_mut()
            .unwrap()
            .topk
            .as_mut()
            .unwrap()
            .prefix_p50_us = 40.0;
        assert!(compare(&wobble, &report, 0.15).is_empty());

        // Serve/refill counts are interleaving-dependent: never compared.
        let mut drifted = topk_report();
        {
            let topk = drifted.engines[0]
                .churn
                .as_mut()
                .unwrap()
                .topk
                .as_mut()
                .unwrap();
            topk.prefix_serves = 1;
            topk.prefix_refills = 99;
            topk.prefix_fallbacks = 99;
        }
        assert!(compare(&drifted, &report, 0.15).is_empty());

        // Losing the whole lane regresses the limit (a silently dropped
        // measurement must not pass); a baseline without the lane is growth.
        let mut lost = topk_report();
        lost.engines[0].churn.as_mut().unwrap().topk = None;
        let found = compare(&lost, &report, 100.0);
        assert!(found.iter().any(|r| r.metric == "topk_limit"), "{found:?}");
        assert!(compare(&report, &lost, 0.15).is_empty());
    }

    #[test]
    fn v3_churn_baselines_without_topk_still_parse() {
        // Pre-top-k churn baselines carry no "topk" key at all; they must
        // stay readable and must not be compared on the unknown lane.
        let mut text = churn_report().to_json_string();
        text = text.replace("\"schema_version\": 4", "\"schema_version\": 3");
        text = text.replace("\"topk\": null", "\"legacy\": null");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.schema_version, 3);
        assert!(parsed.engines[0].churn.as_ref().unwrap().topk.is_none());
        assert!(compare(&topk_report(), &parsed, 0.15)
            .iter()
            .all(|r| !r.metric.starts_with("topk")));
    }

    #[test]
    fn v2_reports_without_maintenance_counters_still_parse() {
        // Baselines committed before incremental maintenance existed carry
        // no maintained/maintenance_us/frontier_nodes fields; they must
        // stay readable and must not be compared on the unknown metric.
        let fields = [
            "total_maintained",
            "total_full_evaluations",
            "maintained",
            "maintenance_us",
            "frontier_nodes",
        ];
        // Drop every line mentioning the fields (all are scalar lines),
        // repairing the trailing comma a removed last-field leaves behind.
        let mut lines: Vec<String> = Vec::new();
        for line in churn_report().to_json_string().lines() {
            if fields.iter().any(|f| line.contains(&format!("\"{f}\""))) {
                continue;
            }
            let closes = matches!(line.trim_start().chars().next(), Some('}') | Some(']'));
            if closes {
                if let Some(prev) = lines.last_mut() {
                    if prev.trim_end().ends_with(',') {
                        *prev = prev.trim_end().trim_end_matches(',').to_owned();
                    }
                }
            }
            lines.push(line.to_owned());
        }
        let text = lines.join("\n");
        let parsed = BenchReport::from_json(&text).unwrap();
        let churn = parsed.engines[0].churn.as_ref().unwrap();
        assert_eq!(churn.total_maintained, None);
        assert_eq!(churn.total_full_evaluations, None);
        assert!(churn.epochs.iter().all(|e| e.maintained == 0));
        assert!(churn.epochs.iter().all(|e| e.maintenance_us == 0));
        assert!(churn.epochs.iter().all(|e| e.frontier_nodes == 0));
        // A maintenance-era run against a pre-maintenance baseline is not a
        // regression on the unknown counter…
        assert!(compare(&churn_report(), &parsed, 0.15)
            .iter()
            .all(|r| r.metric != "churn_maintained"));
        // …but drift against a baseline that *did* record it is.
        let mut drifted = churn_report();
        drifted.engines[0].churn.as_mut().unwrap().total_maintained = Some(4);
        let found = compare(&drifted, &churn_report(), 0.15);
        assert!(found.iter().any(|r| r.metric == "churn_maintained"));
    }

    #[test]
    fn version_1_reports_still_parse_as_serve() {
        // A committed pre-churn baseline must stay readable.
        let mut text = sample_report().to_json_string();
        text = text.replace("\"schema_version\": 4", "\"schema_version\": 1");
        text = text.replace("\"scenario\": \"serve\",", "");
        text = text.replace("\"churn\": null,", "");
        text = text.replace("\"serve\": null,", "");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.schema_version, 1);
        assert_eq!(parsed.scenario, "serve");
        assert!(parsed.engines[0].churn.is_none());
        assert!(parsed.engines[0].serve.is_none());
    }

    #[test]
    fn version_2_reports_parse_with_no_serve_section() {
        // A committed pre-serving baseline (v2: scenario + churn, but no
        // per-engine serve section) must stay readable.
        let mut text = churn_report().to_json_string();
        text = text.replace("\"schema_version\": 4", "\"schema_version\": 2");
        text = text.replace("\"serve\": null,", "");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.schema_version, 2);
        assert!(parsed.engines[0].churn.is_some());
        assert!(parsed.engines[0].serve.is_none());
        // A serve-era run against a pre-serving baseline is growth, not a
        // regression.
        assert!(compare(&serve_report(), &parsed, 0.15)
            .iter()
            .all(|r| !r.metric.starts_with("serve")));
    }

    #[test]
    fn pre_telemetry_reports_read_back_with_defaults() {
        // Reports written before the wall/cpu split and the obs flag carry
        // neither field; renaming the keys simulates their absence (the
        // parser ignores unknown fields).
        let text = sample_report()
            .to_json_string()
            .replace("\"defactorization_cpu_ms\"", "\"legacy\"");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(
            parsed.engines[0].queries[0].phases.defactorization_cpu_ms,
            0.0
        );
        let text = serve_report()
            .to_json_string()
            .replace("\"obs\"", "\"legacy\"");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert!(parsed.engines[0].serve.as_ref().unwrap().obs);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut text = sample_report().to_json_string();
        text = text.replace("\"schema_version\": 4", "\"schema_version\": 999");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn serve_sections_round_trip() {
        let report = serve_report();
        let text = report.to_json_string();
        assert!(text.contains("\"p999_ms\""), "{text}");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.scenario, "serve-net");
        let serve = parsed.engines[0].serve.as_ref().unwrap();
        assert_eq!(serve.clients, 4);
        assert_eq!(serve.requests, 400);
        assert_eq!(serve.queries, 323);
        assert_eq!(serve.mutations, 77);
        assert_eq!(serve.shed, 3);
        assert_eq!(serve.mutation_batches, 61);
        assert_eq!(serve.coalesced_mutations, 30);
        assert_eq!(serve.subscription_updates, 44);
        assert_eq!(serve.subscription_lag_epochs, 2);
        assert_eq!(serve.final_epoch, 61);
        assert!((serve.p999_ms - 3.4).abs() < 1e-9);
        assert!((serve.shed_rate - 3.0 / 400.0).abs() < 1e-9);
        assert!(compare(&parsed, &report, 0.15).is_empty());
    }

    #[test]
    fn serve_traffic_drift_is_a_regression_but_timing_counters_are_not() {
        let baseline = serve_report();
        let mut current = serve_report();
        // Timing-dependent observability may drift freely.
        {
            let serve = current.engines[0].serve.as_mut().unwrap();
            serve.shed = 17;
            serve.shed_rate = 17.0 / 400.0;
            serve.mutation_batches = 40;
            serve.coalesced_mutations = 60;
            serve.subscription_updates = 12;
            serve.subscription_lag_epochs = 9;
            serve.final_epoch = 40;
            serve.p999_ms = 50.0;
        }
        assert!(compare(&current, &baseline, 0.15).is_empty());

        // Seed-deterministic traffic counts must not.
        current.engines[0].serve.as_mut().unwrap().queries = 322;
        current.engines[0].serve.as_mut().unwrap().mutations = 78;
        let found = compare(&current, &baseline, 100.0);
        let metrics: Vec<_> = found.iter().map(|r| r.metric).collect();
        assert!(metrics.contains(&"serve_queries"), "{metrics:?}");
        assert!(metrics.contains(&"serve_mutations"), "{metrics:?}");

        // p50 regresses like any latency (tolerance + absolute floor).
        let mut slow = serve_report();
        slow.engines[0].serve.as_mut().unwrap().p50_ms = 9.0;
        let found = compare(&slow, &baseline, 0.15);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "serve_p50_ms");

        // Losing the whole serve section regresses every traffic count.
        let mut lost = serve_report();
        lost.engines[0].serve = None;
        let found = compare(&lost, &baseline, 100.0);
        assert_eq!(
            found
                .iter()
                .filter(|r| r.metric.starts_with("serve"))
                .count(),
            4
        );
    }

    #[test]
    fn churn_counter_drift_is_a_regression() {
        let baseline = churn_report();
        let mut current = churn_report();
        assert!(compare(&current, &baseline, 0.15).is_empty());
        current.engines[0]
            .churn
            .as_mut()
            .unwrap()
            .total_invalidations = 8;
        current.engines[0].churn.as_mut().unwrap().total_compactions = 0;
        let found = compare(&current, &baseline, 100.0);
        let metrics: Vec<_> = found.iter().map(|r| r.metric).collect();
        assert!(metrics.contains(&"churn_invalidations"), "{metrics:?}");
        assert!(metrics.contains(&"churn_compactions"), "{metrics:?}");

        // Losing the whole churn section regresses every churn metric
        // (including the maintenance counter the baseline recorded).
        current.engines[0].churn = None;
        let found = compare(&current, &baseline, 100.0);
        assert_eq!(
            found
                .iter()
                .filter(|r| r.metric.starts_with("churn"))
                .count(),
            4
        );
        // The reverse (baseline without churn, current with) is growth.
        assert!(compare(
            &baseline,
            &{
                let mut b = churn_report();
                b.engines[0].churn = None;
                b
            },
            0.15
        )
        .iter()
        .all(|r| !r.metric.starts_with("churn")));
    }

    #[test]
    fn latency_regressions_respect_tolerance_and_floor() {
        let baseline = sample_report();
        let mut current = sample_report();
        // 10% slower with 15% tolerance: fine.
        current.engines[0].queries[0].p50_ms = 2.2;
        assert!(compare(&current, &baseline, 0.15).is_empty());
        // 100% slower: regression (and well past the absolute floor).
        current.engines[0].queries[0].p50_ms = 4.0;
        let found = compare(&current, &baseline, 0.15);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "p50_ms");
        assert!(found[0].to_string().contains("CQS-1"));
        // Huge relative slowdown on a microsecond-scale query: under the
        // absolute floor, so not a regression.
        let mut tiny_base = sample_report();
        tiny_base.engines[0].queries[0].p50_ms = 0.01;
        let mut tiny_cur = sample_report();
        tiny_cur.engines[0].queries[0].p50_ms = 0.05;
        assert!(compare(&tiny_cur, &tiny_base, 0.15).is_empty());
    }

    #[test]
    fn count_drift_is_a_regression_regardless_of_tolerance() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.engines[0].queries[0].embeddings = 1215;
        let found = compare(&current, &baseline, 100.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "embeddings");
    }

    #[test]
    fn qps_and_missing_entries_regress() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.engines[0].qps = 100.0;
        let found = compare(&current, &baseline, 0.15);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "qps");

        let mut empty = sample_report();
        empty.engines[0].queries.clear();
        let found = compare(&empty, &baseline, 0.15);
        assert!(found.iter().any(|r| r.metric == "missing"));

        // A *grown* workload (baseline misses entries) is not a regression.
        assert!(compare(&baseline, &empty, 0.15).is_empty());
    }

    #[test]
    fn tolerance_parsing() {
        assert_eq!(parse_tolerance("15%"), Ok(0.15));
        assert_eq!(parse_tolerance("0.15"), Ok(0.15));
        assert_eq!(parse_tolerance("900%"), Ok(9.0));
        assert!(parse_tolerance("abc").is_err());
        assert!(parse_tolerance("-5%").is_err());
        // A bare "15" is almost certainly a forgotten %; never read it as
        // 1500% slack.
        let err = parse_tolerance("15").unwrap_err();
        assert!(err.contains("15%"), "suggests the percent form: {err}");
    }

    #[test]
    fn vanished_answer_graph_measurement_is_a_regression() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.engines[0].queries[0].answer_graph_edges = None;
        current.engines[0].queries[0].ag_over_embeddings = None;
        let found = compare(&current, &baseline, 100.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "answer_graph_edges");
        // The reverse (baseline has no |AG|, current gained one) is growth,
        // not regression.
        assert!(compare(&baseline, &current, 0.15).is_empty());
    }
}
