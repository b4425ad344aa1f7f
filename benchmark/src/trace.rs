//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around each call into a
//! layer (never inside the program), kept in memory, and written once at
//! the end as Chrome-trace JSON in the line-per-event layout that
//! `hastm_sim::chrome_trace_json` emits, so `validate_chrome_trace`
//! accepts it.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent` is 0 for a root span.
#[derive(Clone, Debug)]
pub struct Span {
    name: &'static str,
    detail: String,
    tid: usize,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
}

/// Shared recorder: hands out span ids and collects finished spans.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id (ids only need to be unique, so `Relaxed`).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// A finished span, to be kept with [`Tracer::record`] or
    /// [`Tracer::extend`].
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        name: &'static str,
        detail: String,
        tid: usize,
        start: Instant,
        end: Instant,
        id: u64,
        parent: u64,
    ) -> Span {
        Span {
            name,
            detail,
            tid,
            start_ns: self.now_ns(start),
            end_ns: self.now_ns(end),
            id,
            parent,
        }
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Records many spans at once (per-thread buffers merged at join).
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .extend(spans);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Chrome-trace JSON: one event object per line inside a JSON array,
    /// timestamps in microseconds, parent links in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut tids: Vec<usize> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut lines = Vec::with_capacity(spans.len() + tids.len());
        for tid in tids {
            let label = if tid == 0 {
                "bench main".to_string()
            } else {
                format!("bench worker {tid}")
            };
            lines.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        for s in spans.iter() {
            let mut line = String::with_capacity(160);
            let _ = write!(
                line,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"detail\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                escape(&s.detail),
            );
            lines.push(line);
        }
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
