//! Structured telemetry: hierarchical spans, metrics and a JSONL event sink.
//!
//! The paper's pipeline is a days-long triple loop (GP generations ×
//! candidate features × measured loops); this module is its observability
//! layer. Three design rules govern everything here:
//!
//! 1. **Purely observational.** Telemetry never draws randomness, never
//!    participates in checkpoint or shard serialization, and never changes a
//!    control-flow decision. A run with telemetry enabled produces
//!    byte-identical checkpoints and dataset shards to a run without it
//!    (proved by `tests/telemetry_neutrality.rs`).
//! 2. **Zero new dependencies.** Event emission hand-rolls its JSON so the
//!    hot path allocates one line buffer and takes one short lock; only the
//!    offline [`report`] reader uses `serde_json` (already a dependency).
//! 3. **Resume-safe.** Every event carries a monotonically increasing
//!    sequence number. Opening a sink on an existing `events.jsonl` scans it
//!    and continues numbering after the largest sequence seen, so a
//!    killed-and-resumed run appends a well-formed merged log.
//!
//! The [`Telemetry`] handle is an `Arc` the size of one pointer; cloning is
//! cheap and a disabled handle (the default) makes every operation a no-op
//! without locking or allocation.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

pub mod report;

/// File name of the JSONL event log inside a telemetry directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// CLI-facing configuration for building a [`Telemetry`] handle.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Directory receiving `events.jsonl`; `None` disables the file sink.
    pub dir: Option<PathBuf>,
    /// Mirror every event as a JSON line on stderr (`--log-json`).
    pub log_json: bool,
    /// Emit human-readable progress lines on stderr (`--progress`).
    pub progress: bool,
}

impl TelemetryConfig {
    /// Builds the handle. Returns a disabled handle when nothing is asked
    /// for, so callers can thread the result unconditionally.
    pub fn build(&self) -> io::Result<Telemetry> {
        if self.dir.is_none() && !self.log_json && !self.progress {
            return Ok(Telemetry::disabled());
        }
        let sink = match &self.dir {
            Some(dir) => Some(FileSink::open(dir)?),
            None => None,
        };
        let seq0 = sink.as_ref().map_or(0, |s| s.next_seq);
        Ok(Telemetry {
            inner: Some(Arc::new(Inner {
                seq: AtomicU64::new(seq0),
                sink: sink.map(|s| Mutex::new(SinkKind::File(s.file))),
                mirror_stderr: self.log_json,
                progress: self.progress,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            })),
        })
    }
}

struct FileSink {
    file: std::fs::File,
    next_seq: u64,
}

impl FileSink {
    /// Opens (append mode) `dir/events.jsonl`, first scanning any existing
    /// content for the largest `"seq"` so numbering continues across resume.
    /// A truncated trailing line (from a hard kill) is simply skipped.
    fn open(dir: &Path) -> io::Result<FileSink> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(EVENTS_FILE);
        let (next_seq, needs_newline) = match std::fs::read(&path) {
            Ok(bytes) => {
                let mut max: Option<u64> = None;
                for line in bytes.split(|&b| b == b'\n') {
                    if let Some(seq) = std::str::from_utf8(line).ok().and_then(scan_seq) {
                        max = Some(max.map_or(seq, |m| m.max(seq)));
                    }
                }
                (
                    max.map_or(0, |m| m + 1),
                    bytes.last().is_some_and(|&b| b != b'\n'),
                )
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, false),
            Err(e) => return Err(e),
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if needs_newline {
            // A hard kill can leave a truncated tail line; terminate it so
            // the resumed run's first event starts on its own line.
            file.write_all(b"\n")?;
        }
        Ok(FileSink { file, next_seq })
    }
}

/// Extracts the value of a leading `{"seq":N` prefix without a JSON parser.
fn scan_seq(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"seq\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

enum SinkKind {
    File(std::fs::File),
    Memory(Vec<String>),
}

/// Aggregated statistics of one histogram metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStats {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistStats {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

struct Inner {
    seq: AtomicU64,
    sink: Option<Mutex<SinkKind>>,
    mirror_stderr: bool,
    progress: bool,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    hists: Mutex<BTreeMap<String, HistStats>>,
}

/// Cloneable, thread-safe telemetry handle. The default handle is disabled
/// and every operation on it is a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

impl Telemetry {
    /// The no-op handle.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A handle writing events to an in-memory buffer (for tests).
    pub fn memory() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                seq: AtomicU64::new(0),
                sink: Some(Mutex::new(SinkKind::Memory(Vec::new()))),
                mirror_stderr: false,
                progress: false,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A handle appending JSONL events to `dir/events.jsonl`.
    pub fn to_dir(dir: &Path) -> io::Result<Telemetry> {
        TelemetryConfig {
            dir: Some(dir.to_path_buf()),
            ..TelemetryConfig::default()
        }
        .build()
    }

    /// Whether any sink or mirror is active.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Takes the lines written to an in-memory sink (empty otherwise).
    pub fn drain_memory(&self) -> Vec<String> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let Some(sink) = &inner.sink else {
            return Vec::new();
        };
        match &mut *sink.lock() {
            SinkKind::Memory(lines) => std::mem::take(lines),
            SinkKind::File(_) => Vec::new(),
        }
    }

    /// Starts building an event of the given kind. Call field methods, then
    /// [`Event::emit`]. Costs nothing when disabled.
    pub fn event(&self, kind: &str) -> Event<'_> {
        match &self.inner {
            Some(inner) => {
                let mut buf = String::with_capacity(96);
                buf.push_str(",\"kind\":\"");
                escape_into(&mut buf, kind);
                buf.push('"');
                Event {
                    inner: Some(inner),
                    buf,
                }
            }
            None => Event {
                inner: None,
                buf: String::new(),
            },
        }
    }

    /// Opens a hierarchical span. The returned guard emits one `span` event
    /// with the full slash-joined path and wall-clock duration when dropped.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            Some(inner) => {
                let path = SPAN_STACK.with(|s| {
                    let mut s = s.borrow_mut();
                    let path = if s.is_empty() {
                        name.to_owned()
                    } else {
                        format!("{}/{name}", s.last().expect("non-empty"))
                    };
                    s.push(path.clone());
                    path
                });
                Span {
                    inner: Some(Arc::clone(inner)),
                    name: name.to_owned(),
                    path,
                    start: Instant::now(),
                }
            }
            None => Span {
                inner: None,
                name: String::new(),
                path: String::new(),
                start: Instant::now(),
            },
        }
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            *inner.counters.lock().entry(name.to_owned()).or_insert(0) += delta;
        }
    }

    /// Sets a named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.gauges.lock().insert(name.to_owned(), value);
        }
    }

    /// Records one observation of a named histogram metric.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .hists
                .lock()
                .entry(name.to_owned())
                .or_insert(HistStats {
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                })
                .observe(value);
        }
    }

    /// Emits the current value of every registered metric as `metric`
    /// events, tagged with `scope`. Values are cumulative; a reader takes
    /// the last emission per metric name.
    pub fn emit_metrics(&self, scope: &str) {
        let Some(inner) = &self.inner else { return };
        let counters: Vec<(String, u64)> = inner
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for (name, v) in counters {
            self.event("metric")
                .str("scope", scope)
                .str("metric", &name)
                .str("type", "counter")
                .u64("value", v)
                .emit();
        }
        let gauges: Vec<(String, f64)> = inner
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for (name, v) in gauges {
            self.event("metric")
                .str("scope", scope)
                .str("metric", &name)
                .str("type", "gauge")
                .f64("value", v)
                .emit();
        }
        let hists: Vec<(String, HistStats)> = inner
            .hists
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for (name, h) in hists {
            self.event("metric")
                .str("scope", scope)
                .str("metric", &name)
                .str("type", "histogram")
                .u64("count", h.count)
                .f64("sum", h.sum)
                .f64("min", h.min)
                .f64("max", h.max)
                .emit();
        }
    }

    /// Snapshot of a counter's current value (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.counters.lock().get(name).copied())
            .unwrap_or(0)
    }

    /// Snapshot of a histogram's aggregate stats.
    pub fn hist_stats(&self, name: &str) -> Option<HistStats> {
        self.inner
            .as_ref()
            .and_then(|i| i.hists.lock().get(name).copied())
    }

    /// Writes a human-readable progress line to stderr when `--progress` is
    /// active. Deliberately not a `println!`/`eprintln!` macro call so the
    /// library-crate print lints stay clean.
    pub fn progress(&self, msg: &str) {
        if let Some(inner) = &self.inner {
            if inner.progress {
                let mut err = io::stderr().lock();
                let _ = writeln!(err, "[fegen] {msg}");
            }
        }
    }
}

/// Builder for one JSONL event. Field methods chain; [`Event::emit`] writes
/// the line (sequence number and timestamp are assigned at emit time).
pub struct Event<'a> {
    inner: Option<&'a Arc<Inner>>,
    buf: String,
}

impl Event<'_> {
    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        if self.inner.is_some() {
            self.key(key);
            let _ = write_u64(&mut self.buf, value);
        }
        self
    }

    /// Adds a signed integer field.
    pub fn i64(mut self, key: &str, value: i64) -> Self {
        if self.inner.is_some() {
            self.key(key);
            self.buf.push_str(&value.to_string());
        }
        self
    }

    /// Adds a float field; non-finite values are encoded as `null`.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        if self.inner.is_some() {
            self.key(key);
            if value.is_finite() {
                self.buf.push_str(&format!("{value}"));
                // `{}` on an integral f64 prints no decimal point, which is
                // still valid JSON (a number token).
            } else {
                self.buf.push_str("null");
            }
        }
        self
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        if self.inner.is_some() {
            self.key(key);
            self.buf.push('"');
            escape_into(&mut self.buf, value);
            self.buf.push('"');
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        if self.inner.is_some() {
            self.key(key);
            self.buf.push_str(if value { "true" } else { "false" });
        }
        self
    }

    fn key(&mut self, key: &str) {
        self.buf.push_str(",\"");
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Assigns the next sequence number and writes the line to the sink
    /// (and, when mirroring, to stderr).
    pub fn emit(self) {
        let Some(inner) = self.inner else { return };
        // Number the line under the sink's lock: threads that emit at once
        // then write their lines in sequence order.
        let mut sink = inner.sink.as_ref().map(|s| s.lock());
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let ts = now_ms();
        let line = format!("{{\"seq\":{seq},\"ts_ms\":{ts}{}}}", self.buf);
        if let Some(sink) = sink.as_deref_mut() {
            match sink {
                SinkKind::File(f) => {
                    // One write per line keeps the log well-formed under an
                    // abrupt kill (modulo at most one truncated tail line,
                    // which the resume scan and report reader both skip).
                    let _ = writeln!(f, "{line}");
                    let _ = f.flush();
                }
                SinkKind::Memory(lines) => lines.push(line.clone()),
            }
        }
        drop(sink);
        if inner.mirror_stderr {
            let mut err = io::stderr().lock();
            let _ = writeln!(err, "{line}");
        }
    }
}

fn write_u64(buf: &mut String, v: u64) -> std::fmt::Result {
    use std::fmt::Write as _;
    write!(buf, "{v}")
}

/// RAII guard of one hierarchical span; see [`Telemetry::span`].
pub struct Span {
    inner: Option<Arc<Inner>>,
    name: String,
    path: String,
    start: Instant,
}

impl Span {
    /// The slash-joined path from the thread's span root.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own entry; nesting is LIFO per thread by construction.
            if let Some(pos) = s.iter().rposition(|p| *p == self.path) {
                s.remove(pos);
            }
        });
        let dur_us = self.start.elapsed().as_micros() as u64;
        Telemetry { inner: Some(inner) }
            .event("span")
            .str("name", &self.name)
            .str("path", &self.path)
            .u64("dur_us", dur_us)
            .emit();
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Minimal JSON string escaping: quotes, backslashes and control bytes.
fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.event("x").u64("a", 1).emit();
        t.counter_add("c", 3);
        t.observe("h", 1.5);
        let _span = t.span("s");
        assert_eq!(t.counter_value("c"), 0);
        assert!(t.drain_memory().is_empty());
    }

    #[test]
    fn events_are_sequenced_and_parse() {
        use report::{field, field_bool, field_f64, field_str, field_u64};
        let t = Telemetry::memory();
        t.event("alpha").u64("n", 7).str("s", "a\"b\\c\n").emit();
        t.event("beta")
            .f64("x", 1.5)
            .f64("bad", f64::NAN)
            .bool("ok", true)
            .emit();
        let lines = t.drain_memory();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v: serde::Value = serde_json::from_str(line).expect("line parses");
            assert_eq!(field_u64(&v, "seq"), Some(i as u64));
        }
        let v: serde::Value = serde_json::from_str(&lines[0]).expect("parses");
        assert_eq!(field_str(&v, "kind"), Some("alpha"));
        assert_eq!(field_str(&v, "s"), Some("a\"b\\c\n"));
        let v: serde::Value = serde_json::from_str(&lines[1]).expect("parses");
        assert_eq!(field_f64(&v, "x"), Some(1.5));
        assert_eq!(field(&v, "bad"), Some(&serde::Value::Unit));
        assert_eq!(field_bool(&v, "ok"), Some(true));
    }

    #[test]
    fn concurrent_events_land_in_sequence_order() {
        let t = Telemetry::memory();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for i in 0..2_000 {
                        t.event("tick").u64("i", i).emit();
                    }
                });
            }
        });
        let seqs: Vec<u64> = t
            .drain_memory()
            .iter()
            .filter_map(|l| scan_seq(l))
            .collect();
        assert_eq!(seqs, (0..8_000).collect::<Vec<u64>>());
    }

    #[test]
    fn metrics_aggregate_and_emit() {
        let t = Telemetry::memory();
        t.counter_add("evals", 2);
        t.counter_add("evals", 3);
        t.gauge_set("jobs", 4.0);
        t.observe("lat_us", 10.0);
        t.observe("lat_us", 30.0);
        assert_eq!(t.counter_value("evals"), 5);
        let h = t.hist_stats("lat_us").expect("recorded");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 40.0);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 30.0);
        t.emit_metrics("test");
        let lines = t.drain_memory();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.contains("\"metric\"")));
    }

    #[test]
    fn spans_nest_and_time() {
        use report::field_str;
        let t = Telemetry::memory();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let lines = t.drain_memory();
        assert_eq!(lines.len(), 2);
        let first: serde::Value = serde_json::from_str(&lines[0]).expect("parses");
        assert_eq!(field_str(&first, "name"), Some("inner"));
        assert_eq!(field_str(&first, "path"), Some("outer/inner"));
        let second: serde::Value = serde_json::from_str(&lines[1]).expect("parses");
        assert_eq!(field_str(&second, "path"), Some("outer"));
    }

    #[test]
    fn file_sink_resumes_sequence_numbers() {
        let dir = std::env::temp_dir().join(format!(
            "fegen-telemetry-test-{}-{}",
            std::process::id(),
            now_ms()
        ));
        let t1 = Telemetry::to_dir(&dir).expect("open");
        t1.event("a").emit();
        t1.event("b").emit();
        drop(t1);
        // Simulate a truncated tail from a hard kill.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(EVENTS_FILE))
                .expect("open for append");
            let _ = write!(f, "{{\"seq\":2,\"ts_ms\":0,\"kind\":\"tr");
        }
        let t2 = Telemetry::to_dir(&dir).expect("reopen");
        t2.event("c").emit();
        drop(t2);
        let content = std::fs::read_to_string(dir.join(EVENTS_FILE)).expect("read");
        let seqs: Vec<u64> = content.lines().filter_map(scan_seq).collect();
        // 0, 1, the truncated 2, then the resumed event at 3.
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        let last = content.lines().last().expect("non-empty");
        let v: serde::Value = serde_json::from_str(last).expect("parses");
        assert_eq!(report::field_str(&v, "kind"), Some("c"));
        assert_eq!(report::field_u64(&v, "seq"), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_seq_rejects_garbage() {
        assert_eq!(scan_seq("{\"seq\":41,\"x\":1}"), Some(41));
        assert_eq!(scan_seq("{\"ts\":41}"), None);
        assert_eq!(scan_seq("not json"), None);
    }
}
