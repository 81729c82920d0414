//! Benchmark-side spans around every call into a layer's public API.
//!
//! Each span carries a name, start, end, parent span and request id. Spans
//! are kept in memory and written out once, at the end of the traced run,
//! as Chrome trace-event JSON that Perfetto loads. A disabled tracer hands
//! out inert guards and never reads the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Request the span works for; 0 for layer probes outside a request.
    pub req: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id,
                parent,
                name,
                req,
                start_ns: self.now_ns(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Write every span as a Chrome trace-event file, each event tagged
    /// with its id, parent, request id and self time.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.req,
                self_ns[i] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start_ns: u64,
}

pub struct SpanGuard<'a> {
    open: Option<Open<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else {
            return;
        };
        let end_ns = o.tracer.now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            req: o.req,
            tid: TID.with(|t| *t),
            start_ns: o.start_ns,
            end_ns,
        };
        // Never panic in drop: a poisoned sink just loses the span.
        if let Ok(mut spans) = o.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of each span: its duration minus its children's. Children
/// run on the parent's thread inside its interval, so they never overlap
/// one another and a plain sum is the covered part.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Per span name: (count, total ns, self ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    out
}

/// Durations in microseconds of every span with this name.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}
