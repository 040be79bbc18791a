//! Spans recorded by the traced run (`--trace 1`), all from the
//! benchmark's own code around calls into the program's public functions.
//!
//! A span has a name (the layer), start and end, an optional parent and
//! the request id of the operation it belongs to. Spans stay in memory and
//! are written out as JSON lines when the run ends. A layer's self time is
//! its span's duration minus the durations of its child spans; the replayed
//! layer calls that decompose a program call are recorded as children of
//! that call's span (see `METRICS.md`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The in-memory span store of one run; shared by every thread that
/// records (client threads and the executor wrapper on server threads).
pub struct Trace {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so a span's children can name it as their
    /// parent before it is recorded (e.g. server-side work done while a
    /// client request is in flight).
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &self,
        id: u32,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                id,
                parent,
                name,
                request,
                start,
                end,
            });
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record_as(id, name, request, parent, start, end);
        id
    }

    /// Times `f` as a span and returns its result with the span id.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, request, parent, start, Instant::now());
        (out, id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Total self time per layer name, in microseconds.
    pub fn self_micros(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u32, Duration> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let own = s.duration().as_secs_f64() * 1e6
                - children.get(&s.id).map_or(0.0, |d| d.as_secs_f64() * 1e6);
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self.spans();
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for s in &spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.name,
                s.request,
                ns(s.start),
                ns(s.end)
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}
