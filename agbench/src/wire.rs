//! The `mixed-wire` workload: an in-process `wfserve` server
//! (`Server::start`, 2 workers, delta store) over loopback.
//!
//! One client runs a seeded closed loop of rounds on one connection: five
//! small mutation scripts, each followed by waiting for its update to reach
//! the subscriber, then every query once as a `limit 16` read (80 % reads,
//! 20 % writes). It then reads every query unbounded and `limit 16`
//! in-process from the served session: unbounded answers cannot cross the
//! wire at this size (a CQS answer outgrows the 16 MiB frame cap), and
//! sub-millisecond wire reads swing with the host's thread wake-up latency,
//! so the wire reads are load and answer checks while the read metrics come
//! from the in-process reads. One subscriber connection holds `limit 16`
//! subscriptions to a seeded snowflake, diamond and chain or star, and
//! checks that each subscription's update chain has no gaps.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wireframe::api::obs::{MetricsSnapshot, Span as ObsSpan};
use wireframe::core::{plan, EvalOptions, WireframeEngine};
use wireframe::graph::{Graph, NodeId, StoreKind};
use wireframe::query::{parse_query, ConjunctiveQuery, EmbeddingSet};
use wireframe::{
    EpochListener, Evaluation, ExecutorStats, Mutation, MutationOutcome, QueryExecutor, Session,
    SessionConfig, WireframeError,
};
use wireframe_serve::frame::{self, FrameReader};
use wireframe_serve::wire::{self, Request, Response, ServeStats};
use wireframe_serve::{Client, ClientError, ServeConfig, Server};

use crate::dataset::{pad_label, Dataset, QuerySpec, PAD_NODES, WORK_DIR};
use crate::inproc::{setup_medians, SetupTimes};
use crate::oracle::{self, Reference, TOPK};
use crate::stats::{mean, rss_mib, shuffle, windowed, windowed_rate};
use crate::trace::Trace;
use crate::{Args, Metric, Outcome, SETUP_REPS};

/// Server worker threads.
const WORKERS: usize = 2;
/// Joining edges inserted and removed per round; with one fresh write,
/// five writes beside one read of every query (20 % of requests).
const JOINING_PER_ROUND: usize = 2;
/// Lock-step rounds whose work counts are reported (traced run).
const COUNTED_ROUNDS: usize = 2;
/// How long the subscriber may take to catch up before the run fails.
const CATCH_UP: Duration = Duration::from_secs(60);

/// What the executor wrapper saw of the request in flight.
#[derive(Default, Clone, Copy)]
struct Call {
    execute: Duration,
    phase_one: bool,
    maintain_us: u64,
}

/// Fan-out evaluations (subscription re-evaluations on every epoch).
#[derive(Default, Clone, Copy)]
struct Fanout {
    calls: u64,
    rows: u64,
    peak_intermediate: u64,
    defactorize: Duration,
}

/// The traced run's `QueryExecutor`: forwards every call to the session
/// and, while enabled, times the calls the server makes into it.
struct TracedExecutor {
    inner: Arc<Session>,
    trace: Arc<Trace>,
    enabled: AtomicBool,
    /// Span id of the client request in flight (its round-trip span).
    parent: AtomicU32,
    last: Mutex<Option<Call>>,
    fanout: Mutex<Fanout>,
}

impl TracedExecutor {
    fn on(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    fn finish(&self, name: &'static str, start: Instant, call: Call) {
        let parent = self.parent.load(Ordering::SeqCst);
        self.trace
            .record(name, 0, Some(parent), start, start + call.execute);
        *self.last.lock().expect("no recorder panics") = Some(call);
    }

    fn take(&self) -> Option<Call> {
        self.last.lock().expect("no recorder panics").take()
    }
}

impl QueryExecutor for TracedExecutor {
    fn engine_name(&self) -> &str {
        self.inner.engine_name()
    }

    /// Unbounded: the server's subscription snapshot and fan-out path.
    fn query(&self, text: &str) -> Result<Evaluation, WireframeError> {
        if !self.on() {
            return QueryExecutor::query(&*self.inner, text);
        }
        let start = Instant::now();
        let result = QueryExecutor::query(&*self.inner, text);
        let end = Instant::now();
        self.trace.record("session.fanout", 0, None, start, end);
        if let Ok(ev) = &result {
            let mut f = self.fanout.lock().expect("no recorder panics");
            f.calls += 1;
            f.rows += ev.embedding_count() as u64;
            f.peak_intermediate += ev.metric("peak_intermediate").unwrap_or(0);
            f.defactorize += ev.timings.defactorization;
        }
        result
    }

    fn query_limited(&self, text: &str, limit: usize) -> Result<Evaluation, WireframeError> {
        if !self.on() {
            return self.inner.query_limited(text, limit);
        }
        let start = Instant::now();
        let result = self.inner.query_limited(text, limit);
        let execute = start.elapsed();
        let phase_one = result
            .as_ref()
            .is_ok_and(|ev| ev.timings.answer_graph > Duration::ZERO);
        self.finish(
            "session.execute",
            start,
            Call {
                execute,
                phase_one,
                maintain_us: 0,
            },
        );
        result
    }

    fn execute(&self, query: &ConjunctiveQuery) -> Result<Evaluation, WireframeError> {
        QueryExecutor::execute(&*self.inner, query)
    }

    fn execute_limited(
        &self,
        query: &ConjunctiveQuery,
        limit: usize,
    ) -> Result<Evaluation, WireframeError> {
        QueryExecutor::execute_limited(&*self.inner, query, limit)
    }

    fn prime(&self, text: &str) -> Result<bool, WireframeError> {
        QueryExecutor::prime(&*self.inner, text)
    }

    fn apply_mutation(&self, mutation: &Mutation) -> MutationOutcome {
        if !self.on() {
            return QueryExecutor::apply_mutation(&*self.inner, mutation);
        }
        let before = self.inner.maintenance_micros();
        let start = Instant::now();
        let outcome = QueryExecutor::apply_mutation(&*self.inner, mutation);
        let execute = start.elapsed();
        let maintain_us = self.inner.maintenance_micros() - before;
        self.finish(
            "session.apply_mutation",
            start,
            Call {
                execute,
                phase_one: false,
                maintain_us,
            },
        );
        outcome
    }

    fn epoch(&self) -> u64 {
        QueryExecutor::epoch(&*self.inner)
    }

    fn epoch_vector(&self) -> Vec<u64> {
        self.inner.epoch_vector()
    }

    fn graph(&self) -> Arc<Graph> {
        QueryExecutor::graph(&*self.inner)
    }

    fn add_epoch_listener(&self, listener: EpochListener) {
        QueryExecutor::add_epoch_listener(&*self.inner, listener)
    }

    fn stats(&self) -> ExecutorStats {
        self.inner.stats()
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        QueryExecutor::metrics_snapshot(&*self.inner)
    }

    fn recent_spans(&self) -> Vec<ObsSpan> {
        self.inner.recent_spans()
    }
}

/// An edge that lands in one query's answer graph: for the query's first
/// pattern `?a p ?b`, the `?a` of the last sampled answer row joined to the
/// `?b` of the middle one. The answers it adds sort after the query's
/// canonical first rows, so maintenance updates the answer graph without
/// having to refill that query's top-k prefix. The set is the same for
/// every seed; the seed only orders it.
fn joining_edges(
    graph: &Graph,
    queries: &[QuerySpec],
    refs: &[Reference],
) -> Result<Vec<String>, String> {
    let dict = graph.dictionary();
    let label = |n: NodeId| dict.node_label(n).unwrap_or("?").to_owned();
    let mut out = Vec::new();
    for (q, r) in queries.iter().zip(refs) {
        let query = parse_query(&q.text, dict).map_err(|e| format!("{}: {e}", q.name))?;
        let schema = r.sample.schema();
        let column = |v| schema.iter().position(|&x| x == v);
        let edge = query.patterns().iter().find_map(|pattern| {
            let a = column(pattern.subject.as_var()?)?;
            let b = column(pattern.object.as_var()?)?;
            let last = r.sample.row(r.sample.len().checked_sub(1)?)?;
            let middle = r.sample.row(r.sample.len() / 2)?;
            let p = dict.predicate_label(pattern.predicate)?;
            Some(format!("{} {p} {}", label(last[a]), label(middle[b])))
        });
        out.push(edge.ok_or_else(|| format!("{}: no pattern to write into", q.name))?);
    }
    Ok(out)
}

/// The seeded operation stream of the client.
///
/// A round is five writes, then every query once as a `limit 16` wire read
/// (80 % reads, 20 % writes on the connection), then every query twice —
/// unbounded and `limit 16` — read in-process from the served session.
/// The client waits for each write's update to reach every subscription
/// before its next request, so each write's push is timed alone and the
/// fan-out never runs under a read.
///
/// Of the five writes, four insert two queries' *joining edges* (see
/// [`joining_edges`]) and remove them again, so maintenance does real work
/// and each round leaves the answers as it found them. The fifth inserts
/// an edge over a query predicate between two pad nodes used by no earlier
/// write: no query can match it, so maintenance only runs its footprint
/// pass. A cycle visits every joining edge once; runs measure whole
/// cycles, so every seed times the same writes.
struct Program {
    rng: SmallRng,
    edges: Vec<String>,
    predicates: Vec<String>,
    /// Joining edges of the current cycle still to visit.
    queue: Vec<usize>,
    next_node: usize,
}

/// One round: the writes, then the wire reads (query indexes), then the
/// in-process reads (query index and limit).
struct Round {
    writes: Vec<String>,
    reads: Vec<usize>,
    local: Vec<(usize, usize)>,
}

impl Program {
    fn new(edges: Vec<String>, seed: u64) -> Program {
        let mut predicates: Vec<String> = edges
            .iter()
            .map(|e| e.split(' ').nth(1).unwrap_or("?").to_owned())
            .collect();
        predicates.sort();
        predicates.dedup();
        Program {
            rng: SmallRng::seed_from_u64(seed),
            edges,
            predicates,
            queue: Vec::new(),
            next_node: 0,
        }
    }

    /// Whether the last round completed a cycle.
    fn cycle_done(&self) -> bool {
        self.queue.is_empty()
    }

    /// Rounds per cycle.
    fn cycle_rounds(&self) -> usize {
        self.edges.len().div_ceil(JOINING_PER_ROUND)
    }

    fn round(&mut self, data: &Dataset) -> Round {
        let mut edges = Vec::with_capacity(JOINING_PER_ROUND);
        for _ in 0..JOINING_PER_ROUND {
            if self.queue.is_empty() {
                self.queue = (0..self.edges.len()).collect();
                shuffle(&mut self.queue, &mut self.rng);
            }
            edges.push(self.queue.pop().expect("refilled above"));
        }
        // Seeded order over the tokens [fresh, e1, e1, e2, e2]: an edge's
        // first token inserts it, its second removes it.
        let mut tokens: Vec<Option<usize>> = vec![None];
        for &e in &edges {
            tokens.extend([Some(e), Some(e)]);
        }
        shuffle(&mut tokens, &mut self.rng);
        let mut inserted = Vec::new();
        let writes = tokens
            .into_iter()
            .map(|t| match t {
                None => self.fresh_write(),
                Some(e) if inserted.contains(&e) => format!("- {}\n", self.edges[e]),
                Some(e) => {
                    inserted.push(e);
                    format!("+ {}\n", self.edges[e])
                }
            })
            .collect();
        let mut reads: Vec<usize> = (0..data.queries.len()).collect();
        shuffle(&mut reads, &mut self.rng);
        let mut local: Vec<(usize, usize)> = (0..data.queries.len())
            .flat_map(|q| [(q, 0), (q, TOPK)])
            .collect();
        shuffle(&mut local, &mut self.rng);
        Round {
            writes,
            reads,
            local,
        }
    }

    fn fresh_write(&mut self) -> String {
        let p = &self.predicates[self.rng.gen_range(0..self.predicates.len())];
        let n = self.next_node % PAD_NODES;
        self.next_node += 2;
        format!("+ {} {p} {}\n", pad_label(n), pad_label(n + 1))
    }
}

/// Per-subscription arrivals, shared with the subscriber thread.
#[derive(Default)]
struct Arrivals {
    /// Per subscription id: `(epoch, arrival)` in arrival order.
    by_sub: BTreeMap<u64, Vec<(u64, Instant)>>,
    /// Lowest epoch every subscription has reached.
    floor: u64,
    error: Option<String>,
}

struct Subscriber {
    state: Arc<(Mutex<Arrivals>, Condvar)>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Opens the subscriber connection and subscribes (`limit 16`) to `subs`.
fn subscribe(
    addr: SocketAddr,
    queries: &[QuerySpec],
    subs: &[usize],
) -> Result<Subscriber, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("subscriber: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new();
    let mut last = BTreeMap::new();
    for (k, &qi) in subs.iter().enumerate() {
        let id = k as u64 + 1;
        let request = Request::Subscribe {
            id,
            query: queries[qi].text.clone(),
            limit: TOPK as u64,
        };
        frame::write_frame(&mut stream, &serde::json::to_string(&request))
            .map_err(|e| format!("subscribe: {e}"))?;
        match read_response(&mut reader, &mut stream)? {
            Some(Response::Subscribed { id: got, epoch, .. }) if got == id => {
                last.insert(id, epoch);
            }
            other => return Err(format!("subscribe {}: got {other:?}", queries[qi].name)),
        }
    }
    let floor = last.values().copied().min().unwrap_or(0);
    let state = Arc::new((
        Mutex::new(Arrivals {
            by_sub: last.keys().map(|&id| (id, Vec::new())).collect(),
            floor,
            error: None,
        }),
        Condvar::new(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let handle = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || listen(stream, reader, last, &state, &stop))
    };
    Ok(Subscriber {
        state,
        stop,
        handle,
    })
}

fn read_response(
    reader: &mut FrameReader,
    stream: &mut TcpStream,
) -> Result<Option<Response>, String> {
    match reader.read_frame(stream, frame::DEFAULT_MAX_FRAME) {
        Ok(None) => Ok(None),
        Ok(Some(payload)) => {
            let doc = wire::parse_frame(&payload).map_err(|e| e.to_string())?;
            Response::from_json(&doc)
                .map(Some)
                .map_err(|e| e.to_string())
        }
        Err(e) => Err(format!("subscriber read: {e}")),
    }
}

/// The subscriber loop: checks every update continues its subscription's
/// chain (`prev_epoch` is the last epoch seen) and records arrivals.
fn listen(
    mut stream: TcpStream,
    mut reader: FrameReader,
    mut last: BTreeMap<u64, u64>,
    state: &(Mutex<Arrivals>, Condvar),
    stop: &AtomicBool,
) {
    let fail = |msg: String| {
        let mut a = state.0.lock().expect("no subscriber panics");
        a.error.get_or_insert(msg);
        state.1.notify_all();
    };
    while !stop.load(Ordering::SeqCst) {
        let response = match reader.read_frame(&mut stream, frame::DEFAULT_MAX_FRAME) {
            Ok(Some(payload)) => match wire::parse_frame(&payload)
                .map_err(|e| e.to_string())
                .and_then(|doc| Response::from_json(&doc).map_err(|e| e.to_string()))
            {
                Ok(r) => r,
                Err(e) => return fail(format!("subscriber: {e}")),
            },
            Ok(None) => return fail("subscriber: server closed the connection".to_owned()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return fail(format!("subscriber: {e}")),
        };
        let Response::Update { id, delta } = response else {
            continue;
        };
        let arrived = Instant::now();
        let Some(prev) = last.get_mut(&id) else {
            return fail(format!("update for unknown subscription {id}"));
        };
        if delta.prev_epoch != *prev || delta.epoch <= delta.prev_epoch {
            return fail(format!(
                "subscription {id}: update {} -> {} after epoch {prev} (gap in the chain)",
                delta.prev_epoch, delta.epoch
            ));
        }
        *prev = delta.epoch;
        let floor = last.values().copied().min().unwrap_or(0);
        let mut a = state.0.lock().expect("no subscriber panics");
        a.by_sub
            .get_mut(&id)
            .expect("every subscription has an arrival list")
            .push((delta.epoch, arrived));
        a.floor = floor;
        state.1.notify_all();
    }
}

impl Subscriber {
    /// Waits until every subscription has seen `epoch`.
    fn wait_for(&self, epoch: u64) -> Result<(), String> {
        let deadline = Instant::now() + CATCH_UP;
        let mut a = self.state.0.lock().expect("no subscriber panics");
        loop {
            if let Some(e) = &a.error {
                return Err(e.clone());
            }
            if a.floor >= epoch {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!(
                    "subscriber stuck at epoch {} of {epoch}: updates were lost",
                    a.floor
                ));
            }
            a = self
                .state
                .1
                .wait_timeout(a, deadline - now)
                .expect("no subscriber panics")
                .0;
        }
    }

    /// Push latency of each write: from sending it to every subscription
    /// holding an update that covers its epoch.
    fn push_latencies(&self, writes: &[(u64, Instant)]) -> Vec<f64> {
        let a = self.state.0.lock().expect("no subscriber panics");
        writes
            .iter()
            .filter_map(|&(epoch, sent)| {
                let mut covered = sent;
                for arrivals in a.by_sub.values() {
                    let at = arrivals.iter().find(|(e, _)| *e >= epoch)?.1;
                    covered = covered.max(at);
                }
                Some((covered - sent).as_secs_f64() * 1e3)
            })
            .collect()
    }

    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "the subscriber thread panicked".to_owned())?;
        let a = self.state.0.lock().expect("no subscriber panics");
        a.error.clone().map_or(Ok(()), Err)
    }
}

/// The seeded subscription subset: one snowflake, one diamond and one
/// chain or star.
fn subscription_set(queries: &[QuerySpec], rng: &mut SmallRng) -> Vec<usize> {
    let pick = |rng: &mut SmallRng, prefix: &str| {
        let of: Vec<usize> = (0..queries.len())
            .filter(|&i| queries[i].name.starts_with(prefix))
            .collect();
        of[rng.gen_range(0..of.len())]
    };
    let small = if rng.gen_range(0..2usize) == 0 {
        "CQC"
    } else {
        "CQT"
    };
    vec![pick(rng, "CQS"), pick(rng, "CQD"), pick(rng, small)]
}

/// A running server with its subscriber and client connections.
struct Running {
    session: Arc<Session>,
    traced: Option<Arc<TracedExecutor>>,
    server: Server,
    subscriber: Subscriber,
    client: Client,
}

fn setup(
    data: &Dataset,
    subs: &[usize],
    trace: Option<&Arc<Trace>>,
) -> Result<(Running, SetupTimes), String> {
    let started = Instant::now();
    let graph = data.load()?;
    let load = started.elapsed();
    let t = Instant::now();
    let graph = graph.with_store(StoreKind::Delta);
    let index = t.elapsed();
    let session = Arc::new(
        Session::from_config(graph, SessionConfig::new().store(StoreKind::Delta))
            .map_err(|e| e.to_string())?,
    );
    let traced = trace.map(|trace| {
        Arc::new(TracedExecutor {
            inner: Arc::clone(&session),
            trace: Arc::clone(trace),
            enabled: AtomicBool::new(false),
            parent: AtomicU32::new(0),
            last: Mutex::new(None),
            fanout: Mutex::new(Fanout::default()),
        })
    });
    let executor: Arc<dyn QueryExecutor> = match &traced {
        Some(t) => Arc::clone(t) as Arc<dyn QueryExecutor>,
        None => Arc::clone(&session) as Arc<dyn QueryExecutor>,
    };
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::start(executor, "127.0.0.1:0", config)
        .map_err(|e| format!("cannot start the server: {e}"))?;
    for q in &data.queries {
        session
            .prime(&q.text)
            .map_err(|e| format!("{}: {e}", q.name))?;
        session
            .query_limited(&q.text, TOPK)
            .map_err(|e| format!("{}: {e}", q.name))?;
    }
    let subscriber = subscribe(server.local_addr(), &data.queries, subs)?;
    let client = Client::connect(server.local_addr()).map_err(|e| format!("client: {e}"))?;
    let times = SetupTimes {
        total: started.elapsed(),
        load,
        index,
    };
    Ok((
        Running {
            session,
            traced,
            server,
            subscriber,
            client,
        },
        times,
    ))
}

impl Running {
    fn close(self) -> Result<(), String> {
        drop(self.client);
        let stopped = self.subscriber.stop();
        self.server.shutdown();
        stopped
    }
}

/// A client step: a wire request, or a read made in-process (query index
/// and limit).
enum Op {
    Write(String),
    Read(usize),
    Local(usize, usize),
}

/// What every read must return. Each round removes the joining edges it
/// inserts and pad edges match no query, so after a round's writes every
/// answer equals the generated graph's.
struct Expected {
    refs: Vec<Reference>,
    /// The canonical first rows of each reference, as node labels.
    first: Vec<Vec<Vec<String>>>,
}

/// One client-side operation record.
struct OpRecord {
    write: bool,
    round_trip: Duration,
    call: Option<Call>,
    replay: Duration,
}

#[derive(Default)]
struct Phase {
    acyclic: Vec<f64>,
    cyclic: Vec<f64>,
    /// In-process `limit 16` reads.
    topk: Vec<f64>,
    /// Wire `limit 16` reads.
    wire_reads: Vec<f64>,
    write: Vec<f64>,
    /// `(epoch, sent)` of every acknowledged write.
    writes: Vec<(u64, Instant)>,
    mutations: Vec<Mutation>,
    /// Every request in order, as `(is_read, ms)`.
    ops: Vec<(bool, f64)>,
    records: Vec<OpRecord>,
    failed: u64,
    /// Wire reads.
    reads: u64,
    /// In-process reads.
    local: u64,
    /// Exact counts of the replays (phase one re-run after evictions).
    edge_walks: u64,
    estimated_cost: f64,
    ag_edges: u64,
}

/// How a phase of the client loop runs.
struct PhaseSpec {
    end: End,
    traced: bool,
}

enum End {
    Rounds(usize),
    Deadline(Instant),
}

fn client_phase(
    run: &mut Running,
    data: &Dataset,
    expect: &Expected,
    program: &mut Program,
    spec: &PhaseSpec,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut last_epoch = 0u64;
    let mut rounds = 0usize;
    if let Some(t) = &run.traced {
        t.enabled.store(spec.traced, Ordering::SeqCst);
    }
    loop {
        let round = program.round(data);
        let ops = round
            .writes
            .into_iter()
            .map(Op::Write)
            .chain(round.reads.into_iter().map(Op::Read))
            .chain(
                round
                    .local
                    .into_iter()
                    .map(|(q, limit)| Op::Local(q, limit)),
            );
        for op in ops {
            if let Op::Local(qi, limit) = op {
                let q = &data.queries[qi];
                let start = Instant::now();
                let ev = run
                    .session
                    .query_limited(&q.text, limit)
                    .map_err(|e| format!("{}: {e}", q.name))?;
                let elapsed = start.elapsed();
                oracle::check(&q.name, limit, &ev, &expect.refs[qi])?;
                let ms = elapsed.as_secs_f64() * 1e3;
                phase.ops.push((true, ms));
                phase.local += 1;
                match (limit, q.cyclic) {
                    (0, false) => phase.acyclic.push(ms),
                    (0, true) => phase.cyclic.push(ms),
                    _ => phase.topk.push(ms),
                }
                continue;
            }
            let span = run.traced.as_ref().filter(|_| spec.traced).map(|t| {
                let id = t.trace.reserve();
                t.parent.store(id, Ordering::SeqCst);
                id
            });
            let start = Instant::now();
            let (epoch, write) = match &op {
                Op::Read(qi) => {
                    let q = &data.queries[*qi];
                    match run.client.query(&q.text, TOPK as u64) {
                        Ok(answer) => {
                            if answer.rows.rows != expect.first[*qi] {
                                return Err(format!(
                                    "{}: limit-{TOPK} answer is not the canonical first rows",
                                    q.name
                                ));
                            }
                            (Some(answer.epoch), false)
                        }
                        Err(e) => (fail(e)?, false),
                    }
                }
                Op::Write(script) => match run.client.mutate(script) {
                    Ok(ack) => (Some(ack.epoch), true),
                    Err(e) => (fail(e)?, true),
                },
                Op::Local(..) => unreachable!("handled above"),
            };
            let end = Instant::now();
            let Some(epoch) = epoch else {
                phase.failed += 1;
                continue;
            };
            if epoch < last_epoch {
                return Err(format!("epoch went backwards ({epoch} after {last_epoch})"));
            }
            last_epoch = epoch;
            let ms = (end - start).as_secs_f64() * 1e3;
            phase.ops.push((!write, ms));
            if let Op::Write(script) = &op {
                phase.write.push(ms);
                phase.writes.push((epoch, start));
                phase
                    .mutations
                    .push(Mutation::parse_script(script).map_err(|e| e.to_string())?);
            } else {
                phase.wire_reads.push(ms);
                phase.reads += 1;
            }
            if let (Some(t), Some(id)) = (&run.traced, span) {
                t.trace.record_as(
                    id,
                    if write { "client.write" } else { "client.read" },
                    0,
                    None,
                    start,
                    end,
                );
                let call = t.take();
                let mut replay = Duration::ZERO;
                if let (Op::Read(qi), Some(call)) = (&op, call) {
                    replay =
                        replay_read(&run.session, t, &data.queries[*qi], call, id, &mut phase)?;
                }
                phase.records.push(OpRecord {
                    write,
                    round_trip: end - start,
                    call,
                    replay,
                });
            }
            if write {
                run.subscriber.wait_for(epoch)?;
            }
        }
        rounds += 1;
        let done = match spec.end {
            End::Rounds(n) => rounds >= n,
            End::Deadline(at) => program.cycle_done() && Instant::now() >= at,
        };
        if done {
            return Ok(phase);
        }
    }
}

/// Shed requests are failures of the operation; anything else fails the run.
fn fail(e: ClientError) -> Result<Option<u64>, String> {
    match e {
        ClientError::Overloaded(_) => Ok(None),
        other => Err(format!("request failed: {other}")),
    }
}

/// Replays a wire read's layers on the client thread after the response:
/// `parse_query`, and — when the read re-ran phase one because a write
/// had evicted its view — `plan` and the engine's phase-one call.
fn replay_read(
    session: &Session,
    t: &TracedExecutor,
    q: &QuerySpec,
    call: Call,
    client_span: u32,
    phase: &mut Phase,
) -> Result<Duration, String> {
    let graph = session.graph();
    let parent = Some(client_span);
    let started = Instant::now();
    let (query, _) = t.trace.time("query.parse", 0, parent, || {
        parse_query(&q.text, graph.dictionary())
    });
    let query = query.map_err(|e| format!("{}: {e}", q.name))?;
    if call.phase_one {
        let options = EvalOptions::default();
        let (planned, _) = t.trace.time("core.plan", 0, parent, || {
            plan(&graph, &query, options.planner)
        });
        let planned = planned.map_err(|e| format!("{}: {e}", q.name))?;
        let engine = WireframeEngine::with_options(&graph, options);
        let (built, _) = t.trace.time("core.generate", 0, parent, || {
            engine.materialize_with_plan(&query, &planned)
        });
        let (view, _) = built.map_err(|e| format!("{}: {e}", q.name))?;
        phase.edge_walks += view.generation().edge_walks;
        phase.estimated_cost += planned.estimated_cost;
        phase.ag_edges += view.answer_graph().total_edges() as u64;
    }
    Ok(started.elapsed())
}

/// After the timed region: every query's served `limit 16` answer over
/// the wire must be the canonical first rows of a fresh `relational`
/// evaluation of the final graph.
fn check_served(
    run: &mut Running,
    queries: &[QuerySpec],
    refs: &[Reference],
) -> Result<(), String> {
    let graph = run.session.graph();
    let dict = graph.dictionary();
    for (q, r) in queries.iter().zip(refs) {
        let answer = run
            .client
            .query(&q.text, TOPK as u64)
            .map_err(|e| format!("{}: {e}", q.name))?;
        let expected = labels(&r.first, dict);
        if answer.rows.rows != expected {
            return Err(format!(
                "{}: served limit-{TOPK} answer differs from the reference",
                q.name
            ));
        }
        if answer.rows.total as usize != r.rows && !answer.rows.prefix_served {
            return Err(format!(
                "{}: served total {} of {}",
                q.name, answer.rows.total, r.rows
            ));
        }
    }
    Ok(())
}

fn labels(rows: &EmbeddingSet, dict: &wireframe::graph::Dictionary) -> Vec<Vec<String>> {
    rows.rows()
        .map(|row| {
            row.iter()
                .map(|&n| dict.node_label(n).unwrap_or("?").to_owned())
                .collect()
        })
        .collect()
}

pub fn run(data: &Dataset, args: &Args) -> Result<Outcome, String> {
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let subs = subscription_set(&data.queries, &mut rng);
    let trace = args.trace.then(|| Arc::new(Trace::new()));
    let mut kept: Option<Running> = None;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.close()?;
        }
        let (running, t) = setup(data, &subs, trace.as_ref())?;
        setups.push(t);
        kept = Some(running);
    }
    let mut run = kept.expect("SETUP_REPS > 0");
    let (setup_s, load_s, index_s) = setup_medians(&setups);
    let initial = run.session.graph();
    let refs = oracle::references(&initial, &data.queries)?;
    let mut program = Program::new(
        joining_edges(&initial, &data.queries, &refs)?,
        args.seed ^ 0xA11C_E5ED,
    );
    let first = refs
        .iter()
        .map(|r| labels(&r.first, initial.dictionary()))
        .collect();
    let expect = Expected { refs, first };

    if !args.trace {
        let phase = client_phase(
            &mut run,
            data,
            &expect,
            &mut program,
            &PhaseSpec {
                end: End::Deadline(Instant::now() + args.seconds),
                traced: false,
            },
        )?;
        let rss = rss_mib();
        run.subscriber.wait_for(run.session.epoch())?;
        let push = run.subscriber.push_latencies(&phase.writes);
        let refs = oracle::references(&run.session.graph(), &data.queries)?;
        check_served(&mut run, &data.queries, &refs)?;
        run.close()?;
        println!(
            "samples: acyclic={} cyclic={} topk={} write={} push={} wire_reads={}",
            phase.acyclic.len(),
            phase.cyclic.len(),
            phase.topk.len(),
            phase.write.len(),
            push.len(),
            phase.wire_reads.len()
        );
        let attempted = phase.attempted();
        let n = data.queries.len();
        let cyclic_n = data.queries.iter().filter(|q| q.cyclic).count();
        // Main-loop slices are whole cycles: every cycle makes the same
        // writes, so each slice holds the same mix of writes and of reads
        // that refill a prefix after them.
        let cycle = program.cycle_rounds();
        let (reads_c, writes_c) = (n * cycle, (1 + 2 * JOINING_PER_ROUND) * cycle);
        let (acyclic_c, cyclic_c) = ((n - cyclic_n) * cycle, cyclic_n * cycle);
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("rss_mb", rss, "MiB"),
            Metric::new(
                "reads_per_s",
                windowed_rate(&[&phase.ops], 3 * reads_c + writes_c),
                "1/s",
            ),
            Metric::new(
                "acyclic_p50_ms",
                windowed(&[&phase.acyclic], acyclic_c, 50.0),
                "ms",
            ),
            Metric::new(
                "acyclic_p90_ms",
                windowed(&[&phase.acyclic], acyclic_c, 90.0),
                "ms",
            ),
            Metric::new(
                "cyclic_p50_ms",
                windowed(&[&phase.cyclic], cyclic_c, 50.0),
                "ms",
            ),
            Metric::new(
                "cyclic_p90_ms",
                windowed(&[&phase.cyclic], cyclic_c, 90.0),
                "ms",
            ),
            Metric::new("topk_p50_ms", windowed(&[&phase.topk], reads_c, 50.0), "ms"),
            Metric::new("topk_p90_ms", windowed(&[&phase.topk], reads_c, 90.0), "ms"),
            Metric::new(
                "write_p50_ms",
                windowed(&[&phase.write], writes_c, 50.0),
                "ms",
            ),
            Metric::new(
                "write_p90_ms",
                windowed(&[&phase.write], writes_c, 90.0),
                "ms",
            ),
            Metric::new("push_p50_ms", windowed(&[&push], writes_c, 50.0), "ms"),
            Metric::new("push_p90_ms", windowed(&[&push], writes_c, 90.0), "ms"),
        ];
        return Ok(Outcome {
            attempted,
            failed: phase.failed,
            metrics,
        });
    }

    let trace = trace.expect("traced run");
    let traced = Arc::clone(run.traced.as_ref().expect("traced run"));

    // Counted window: a fixed number of rounds before the timed halves, so
    // every count is a function of the seed.
    let exec0 = run.session.stats();
    let serve0 = run.server.stats();
    let counted = client_phase(
        &mut run,
        data,
        &expect,
        &mut program,
        &PhaseSpec {
            end: End::Rounds(COUNTED_ROUNDS),
            traced: true,
        },
    )?;
    let exec1 = run.session.stats();
    let serve1 = run.server.stats();
    let fanout_counted = *traced.fanout.lock().expect("no recorder panics");
    let mut counted_graph = Graph::clone(&initial);
    let mut compactions = 0u64;
    for m in &counted.mutations {
        let (next, outcome) = counted_graph.apply(m);
        compactions += u64::from(outcome.compacted);
        counted_graph = next;
    }
    drop(counted_graph);

    // Timed halves: untraced (the reference end-to-end mean), then traced.
    let half = args.seconds / 2;
    let plain = client_phase(
        &mut run,
        data,
        &expect,
        &mut program,
        &PhaseSpec {
            end: End::Deadline(Instant::now() + half),
            traced: false,
        },
    )?;
    *traced.fanout.lock().expect("no recorder panics") = Fanout::default();
    let timed = client_phase(
        &mut run,
        data,
        &expect,
        &mut program,
        &PhaseSpec {
            end: End::Deadline(Instant::now() + half),
            traced: true,
        },
    )?;
    traced.enabled.store(false, Ordering::SeqCst);
    let fanout = *traced.fanout.lock().expect("no recorder panics");
    run.subscriber.wait_for(run.session.epoch())?;
    let refs = oracle::references(&run.session.graph(), &data.queries)?;
    check_served(&mut run, &data.queries, &refs)?;
    run.close()?;

    // Graph::apply replayed over the run's whole mutation sequence.
    let mut graph = Graph::clone(&initial);
    let mut apply = Duration::ZERO;
    let all: Vec<&Mutation> = counted
        .mutations
        .iter()
        .chain(&plain.mutations)
        .chain(&timed.mutations)
        .collect();
    for m in &all {
        let started = Instant::now();
        let (next, _) = graph.apply(m);
        apply += started.elapsed();
        graph = next;
    }
    drop(graph);
    let apply_us = apply.as_secs_f64() * 1e6 / all.len().max(1) as f64;

    // Per-op layer means over the traced half.
    let ops = timed.records.len().max(1) as f64;
    let reads = timed.records.iter().filter(|r| !r.write).count().max(1) as f64;
    let writes = timed.records.iter().filter(|r| r.write).count().max(1) as f64;
    let selfs = trace.self_micros();
    let per = |name: &str, n: f64| selfs.get(name).copied().unwrap_or(0.0) / n;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let execute = mean(
        &timed
            .records
            .iter()
            .map(|r| r.call.map_or(0.0, |c| us(c.execute)))
            .collect::<Vec<_>>(),
    );
    let serve_residual = mean(
        &timed
            .records
            .iter()
            .map(|r| us(r.round_trip) - r.call.map_or(0.0, |c| us(c.execute)))
            .collect::<Vec<_>>(),
    );
    let maintain_total: u64 = timed
        .records
        .iter()
        .filter_map(|r| r.call.map(|c| c.maintain_us))
        .sum();
    let replays: f64 = timed.records.iter().map(|r| us(r.replay)).sum();
    let core_per_op = (replays + maintain_total as f64 + apply_us * writes) / ops;
    // Residual and overhead on the wire reads: many, and each of the same
    // kind, so the two halves' means compare like with like.
    let untraced = mean(&plain.wire_reads) * 1e3;
    let traced_read = mean(
        &timed
            .records
            .iter()
            .filter(|r| !r.write)
            .map(|r| us(r.round_trip))
            .collect::<Vec<_>>(),
    );
    let d = |f: fn(&ExecutorStats) -> u64| (f(&exec1) - f(&exec0)) as f64;
    let s = |f: fn(&ServeStats) -> u64| (f(&serve1) - f(&serve0)) as f64;
    let failed = counted.failed + plain.failed + timed.failed;
    let attempted = counted.attempted() + plain.attempted() + timed.attempted();
    let metrics = vec![
        Metric::new("graph.load_s", load_s, "s"),
        Metric::new("graph.index_s", index_s, "s"),
        Metric::new("graph.apply_us", apply_us, "us"),
        Metric::new("graph.compactions", compactions as f64, "count"),
        Metric::new("query.parse_us", per("query.parse", reads), "us"),
        Metric::new("core.plan_us", per("core.plan", reads), "us"),
        Metric::new(
            "core.plan_est_over_walks",
            if counted.edge_walks == 0 {
                0.0
            } else {
                counted.estimated_cost / counted.edge_walks as f64
            },
            "ratio",
        ),
        Metric::new("core.generate_us", per("core.generate", reads), "us"),
        Metric::new("core.edge_walks", counted.edge_walks as f64, "count"),
        Metric::new("core.ag_edges", counted.ag_edges as f64, "count"),
        Metric::new("core.edge_burnback_us", 0.0, "us"),
        Metric::new(
            "core.defactorize_us",
            fanout.defactorize.as_secs_f64() * 1e6 / writes,
            "us",
        ),
        Metric::new("core.rows", fanout_counted.rows as f64, "count"),
        Metric::new(
            "core.peak_intermediate",
            fanout_counted.peak_intermediate as f64,
            "count",
        ),
        Metric::new(
            "core.ag_over_rows",
            if fanout_counted.rows == 0 {
                0.0
            } else {
                counted.ag_edges as f64 / fanout_counted.rows as f64
            },
            "ratio",
        ),
        Metric::new("core.maintain_us", maintain_total as f64 / writes, "us"),
        Metric::new("core.views_maintained", d(|s| s.plans_maintained), "count"),
        Metric::new("core.views_evicted", d(|s| s.cache_invalidations), "count"),
        Metric::new(
            "core.maintain_frontier_nodes",
            d(|s| s.maintenance_frontier_nodes),
            "count",
        ),
        Metric::new("core.prefix_refills", d(|s| s.prefix_refills), "count"),
        Metric::new("core.prefix_fallbacks", d(|s| s.prefix_fallbacks), "count"),
        Metric::new("session.execute_us", execute, "us"),
        Metric::new("session.residual_us", execute - core_per_op, "us"),
        Metric::new(
            "session.hit_ratio",
            d(|s| s.view_serves)
                / (counted.reads + counted.local + fanout_counted.calls).max(1) as f64,
            "ratio",
        ),
        Metric::new("session.prefix_hits", d(|s| s.prefix_hits), "count"),
        Metric::new("serve.residual_us", serve_residual, "us"),
        Metric::new("serve.batches", s(|s| s.mutation_batches), "count"),
        Metric::new("serve.updates_pushed", s(|s| s.updates_pushed), "count"),
        Metric::new(
            "serve.shed",
            s(|s| s.shed_queue_full + s.shed_deadline),
            "count",
        ),
        Metric::new("baseline.relational_us", 0.0, "us"),
        Metric::new("baseline.sortmerge_us", 0.0, "us"),
        Metric::new("baseline.exploration_us", 0.0, "us"),
        Metric::new("baseline.exploration_edge_walks", 0.0, "count"),
        Metric::new("trace.residual_us", untraced - traced_read, "us"),
        Metric::new(
            "trace.overhead_pct",
            (traced_read / untraced.max(1e-9) - 1.0) * 100.0,
            "%",
        ),
        Metric::new(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
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

impl Phase {
    fn attempted(&self) -> u64 {
        self.reads + self.local + self.write.len() as u64 + self.failed
    }
}
