//! In-memory spans, written once as Chrome trace-event JSON, plus the
//! process counters (CPU time, peak RSS) read from `/proc`.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (`tid << 32 | sequence number` within the lane).
    pub id: u64,
    /// The enclosing span's id (0 for a root).
    pub parent: u64,
    /// Layer-qualified name, e.g. `simnet.run`.
    pub name: &'static str,
    /// Thread lane the span was recorded on (0 = the benchmark's main
    /// thread, `1 + node id` for node threads).
    pub tid: u64,
    /// Microseconds since the process epoch.
    pub start_us: f64,
    /// Microseconds since the process epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch.
pub fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    /// The id the span will carry (children name it as their parent).
    pub id: u64,
    parent: u64,
    name: &'static str,
    start_us: f64,
}

/// A single-owner span buffer: one per thread, so recording never takes
/// a shared lock.
#[derive(Debug)]
pub struct SpanBuf {
    tid: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// An empty buffer for thread lane `tid`.
    pub fn new(tid: u64) -> Self {
        epoch();
        SpanBuf {
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Starts a span under `parent` (0 for a root).
    pub fn open(&mut self, name: &'static str, parent: u64) -> Open {
        self.next += 1;
        Open {
            id: (self.tid << 32) | self.next,
            parent,
            name,
            start_us: now_us(),
        }
    }

    /// Ends `open` now and returns its duration in milliseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid: self.tid,
            start_us: open.start_us,
            end_us: now_us(),
        };
        let ms = span.ms();
        self.spans.push(span);
        ms
    }

    /// Times `f` as a span; returns its result and duration in ms.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves the spans out.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Appends spans recorded on another thread.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
            s.name,
            s.tid,
            s.start_us,
            s.end_us - s.start_us,
            s.id,
            s.parent
        );
    }
    out.push_str("]}\n");
    out
}

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat` (clock-tick resolution, 100 Hz on Linux).
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut buf = SpanBuf::new(0);
        let root = buf.open("root", 0);
        let root_id = root.id;
        let ((), _) = buf.time("child", root_id, || std::hint::black_box(()));
        let ms = buf.close(root);
        assert!(ms >= 0.0);
        let spans = buf.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root_id);
        assert_eq!(spans[1].id, root_id);
        assert!(spans[1].end_us >= spans[0].end_us);
        let json = chrome_json(spans);
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_secs() >= 0.0);
    }
}
