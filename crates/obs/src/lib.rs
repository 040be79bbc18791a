//! # Wireframe observability — the one telemetry subsystem of the workspace.
//!
//! Every layer of the serving stack (engines → views → session → cluster →
//! serve) records into the same three primitives, owned by a shared
//! [`Registry`]:
//!
//! * [`Counter`] — a named monotone `u64`, one relaxed `fetch_add` per
//!   record. The session/cluster/server counters that used to live in
//!   ad-hoc `AtomicU64` fields are now registry-owned handles, so a
//!   [`MetricsSnapshot`] is the single source of truth.
//! * [`Gauge`] — a named point-in-time `u64` (overlay sizes, active
//!   connections), one relaxed `store` per set.
//! * [`Histogram`] — a fixed-bucket **log-linear** latency histogram
//!   (microseconds): 8 sub-buckets per power of two, so any quantile is
//!   reported within 12.5 % of the true sample value. Recording is one
//!   relaxed `fetch_add` into a bucket; histograms **merge** exactly
//!   (bucket-wise addition), which is what makes per-shard and per-thread
//!   recording composable — the property the merge tests pin.
//!
//! [`Registry::snapshot`] exports everything as plain data
//! ([`MetricsSnapshot`]), which supports [`MetricsSnapshot::merge`] (shard
//! aggregation), [`MetricsSnapshot::delta`] (before/after benchmark
//! windows), p50/p95/p99/p999 extraction via [`HistogramSnapshot::quantile`]
//! (the same nearest-rank math the bench driver uses on raw samples,
//! extracted here as [`percentile_sorted`]), and a Prometheus-style text
//! rendering ([`render_prometheus`]) for scrape endpoints.
//!
//! [`Tracer`] adds structured spans for the query pipeline: sampled (1 in N)
//! span trees with a bounded ring-buffer sink and an optional slow-query
//! threshold that emits completed span trees for outliers. Span recording
//! is post-hoc — spans are synthesized from already-measured phase timings
//! after the query returns — so the non-sampled hot path pays one relaxed
//! counter increment and one comparison.
//!
//! The crate is dependency-free (std only), consistent with the workspace's
//! hand-rolled vendor policy, and sits at the bottom of the dependency
//! graph so every layer can reach it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod prom;
mod trace;

pub use metrics::{
    percentile_ms, percentile_sorted, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsSnapshot, Registry, BUCKET_COUNT,
};
pub use prom::render_prometheus;
pub use trace::{Span, Tracer, TracerConfig};

/// Canonical metric names, shared by recorders ([`Registry`] users) and
/// consumers (`ExecutorStats::from_snapshot`, dashboards, the docs
/// catalog) so the two can never drift apart.
pub mod names {
    /// Prepared-plan cache hits (session).
    pub const CACHE_HITS: &str = "executor.cache_hits";
    /// Prepared-plan cache misses (session).
    pub const CACHE_MISSES: &str = "executor.cache_misses";
    /// Cache entries evicted by the capacity bound.
    pub const CACHE_EVICTIONS: &str = "executor.cache_evictions";
    /// Cache entries evicted by mutation footprints.
    pub const CACHE_INVALIDATIONS: &str = "executor.cache_invalidations";
    /// Evaluations served purely from a retained view.
    pub const VIEW_SERVES: &str = "executor.view_serves";
    /// Full pipeline runs (evaluations + view materializations).
    pub const FULL_EVALUATIONS: &str = "executor.full_evaluations";
    /// Retained views maintained in place by mutations.
    pub const PLANS_MAINTAINED: &str = "executor.plans_maintained";
    /// Maintenance frontier nodes across all maintained views.
    pub const MAINTENANCE_FRONTIER_NODES: &str = "executor.maintenance_frontier_nodes";
    /// Wall-clock spent maintaining views, microseconds.
    pub const MAINTENANCE_MICROS: &str = "executor.maintenance_micros";
    /// Cache entries examined by mutation footprint passes.
    pub const MUTATION_CACHE_TOUCHES: &str = "executor.mutation_cache_touches";
    /// Delta-store compactions triggered by mutations.
    pub const COMPACTIONS: &str = "executor.compactions";

    /// End-to-end query latency (execute call to return), microseconds.
    pub const QUERY_LATENCY_US: &str = "query.latency_us";
    /// Per-mutation-batch view-maintenance cost, microseconds.
    pub const MAINTAIN_BATCH_US: &str = "maintain.batch_us";
    /// Per-view maintenance cost within a batch, microseconds.
    pub const MAINTAIN_VIEW_US: &str = "maintain.view_us";
    /// Bounded queries served from a maintained top-k prefix in O(k).
    pub const MAINTAIN_PREFIX_HITS: &str = "maintain.prefix_hits";
    /// Prefix refills: re-enumerations after the prefix underflowed below k
    /// (or to warm a cold prefix).
    pub const MAINTAIN_PREFIX_REFILLS: &str = "maintain.prefix_refills";
    /// Prefix fallbacks: maintenance passes that abandoned incremental
    /// prefix upkeep because the delta invalidated too much.
    pub const MAINTAIN_PREFIX_FALLBACKS: &str = "maintain.prefix_fallbacks";
    /// Rows retained across all maintained top-k prefixes (gauge).
    pub const MAINTAIN_PREFIX_ROWS: &str = "maintain.prefix_rows";

    /// Total triples in the current graph version (gauge).
    pub const GRAPH_TRIPLES: &str = "graph.triples";
    /// Delta-store overlay size in edges (gauge; 0 on the csr store).
    pub const GRAPH_OVERLAY_EDGES: &str = "graph.delta_overlay_edges";
    /// Delta-store overlay/base fraction in parts per million (gauge).
    pub const GRAPH_OVERLAY_PPM: &str = "graph.delta_overlay_ppm";

    /// Shards in a sharded cluster (gauge; absent on a plain session).
    pub const CLUSTER_SHARDS: &str = "cluster.shards";
    /// Scatter phase (parallel per-shard candidate scans), microseconds.
    pub const CLUSTER_SCATTER_US: &str = "cluster.scatter_us";
    /// Gather phase (merge of per-shard candidates), microseconds.
    pub const CLUSTER_MERGE_US: &str = "cluster.merge_us";

    /// Connections accepted by the serve layer.
    pub const SERVE_CONNECTIONS: &str = "serve.connections";
    /// Requests received (parsed frames).
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Queries answered.
    pub const SERVE_QUERIES: &str = "serve.queries";
    /// Mutate requests acknowledged.
    pub const SERVE_MUTATIONS: &str = "serve.mutations";
    /// Mutation batches applied.
    pub const SERVE_MUTATION_BATCHES: &str = "serve.mutation_batches";
    /// Mutate requests coalesced into shared batches.
    pub const SERVE_COALESCED_MUTATIONS: &str = "serve.coalesced_mutations";
    /// Requests shed because the job queue was full.
    pub const SERVE_SHED_QUEUE_FULL: &str = "serve.shed_queue_full";
    /// Requests shed because their queueing deadline expired.
    pub const SERVE_SHED_DEADLINE: &str = "serve.shed_deadline";
    /// Subscription updates pushed.
    pub const SERVE_UPDATES_PUSHED: &str = "serve.updates_pushed";
    /// Active subscriptions (gauge).
    pub const SERVE_SUBSCRIPTIONS_ACTIVE: &str = "serve.subscriptions_active";
    /// End-to-end request handling latency on a worker, microseconds.
    pub const SERVE_REQUEST_US: &str = "serve.request_us";
}
