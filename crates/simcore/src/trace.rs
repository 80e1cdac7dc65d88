//! Opt-in request-lifecycle tracing.
//!
//! A fixed-capacity ring buffer of typed span events that every layer of
//! the stack (engine, QoS controllers, scheduler, device) can append to
//! through a thread-local recorder. Recording is off by default: the
//! probe in [`record_with`] is a single thread-local boolean read and a
//! predicted-not-taken branch, and the event itself is only constructed
//! once the recorder is known to be installed. After [`install`] the
//! recorder never allocates again — capacity overflow evicts the oldest
//! event and bumps a `dropped` counter instead.
//!
//! The schema is deliberately flat: every event is a [`TraceEvent`] of
//! seven integers (`t`, kind, request id, group, device, two payload
//! words) so the recorder stays `Copy`-only and the JSONL export is
//! line-oriented — a truncated file (e.g. from a cell that panicked
//! mid-run) is still parseable up to the last complete line. Per-kind
//! payload meaning is documented on [`TraceKind`] and in DESIGN.md §13.
//!
//! # Example
//!
//! ```
//! use simcore::trace::{self, TraceEvent, TraceKind};
//!
//! trace::install(1024);
//! trace::record_with(|| TraceEvent::new(10, TraceKind::Submit, 1, 0, 0, 4096, 0));
//! trace::record_with(|| TraceEvent::new(99, TraceKind::RunEnd, 0, 0, 0, 0, 0));
//! let t = trace::take().unwrap();
//! assert_eq!(t.events.len(), 2);
//! assert!(t.is_complete());
//! let jsonl = t.to_jsonl();
//! let back = simcore::trace::Trace::from_jsonl(&jsonl).unwrap();
//! assert_eq!(back.events, t.events);
//! ```

use std::cell::{Cell, RefCell};

/// The type of a trace event. The numeric value is stable (it is what
/// golden traces commit to); new kinds append at the end.
///
/// Payload-word semantics per kind (`a` / `b` columns; unused = 0):
///
/// | kind | `req` | `a` | `b` |
/// |---|---|---|---|
/// | `Submit` | request | len (bytes) | op ∣ pattern«1 ∣ prio«2 |
/// | `QosEnter` | request | holding stage (0 io.max, 1 io.cost, 2 io.latency) | — |
/// | `IoMaxPass` | request | len (bytes) | op |
/// | `VtimeAdvance` | request | vtime `f64::to_bits` | abs cost `f64::to_bits` |
/// | `SchedEnqueue` | request | prio class (0 rt, 1 be, 2 idle) | op |
/// | `SchedDispatch` | request | prio class | op |
/// | `DeviceStart` | request | len (bytes) | op |
/// | `DeviceComplete` | request | len (bytes) | op |
/// | `DeviceError` | request | status code | retries so far |
/// | `DeviceAbort` | request | — | — |
/// | `TimeoutFired` | request | retries so far | — |
/// | `RetryScheduled` | request | retry number | backoff (ns) |
/// | `RetryRequeue` | request | retry number | — |
/// | `DeviceReset` | — | requests bounced | restart time (ns) |
/// | `DeviceRestart` | — | — | — |
/// | `Complete` | request | issue→complete latency (ns) | op |
/// | `Fail` | request | retries consumed | — |
/// | `CfgDevice` | — | max queue depth | parallel units |
/// | `CfgSched` | — | scheduler kind (0 none, 1 mq-dl, 2 bfq; 3 reserved) | — |
/// | `CfgIoMax` | bucket (0 rbps, 1 wbps, 2 riops, 3 wiops) | limit | — |
/// | `RunEnd` | — | — | — |
///
/// `op` is 0 for reads, 1 for writes; `prio` is the MQ-DL class index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// An application issued a request.
    Submit = 0,
    /// A QoS stage held the request.
    QosEnter = 1,
    /// The request passed (consumed budget from) the `io.max` throttler.
    IoMaxPass = 2,
    /// blk-iocost charged the request and advanced its group's vtime.
    VtimeAdvance = 3,
    /// The request cleared the QoS chain and entered the I/O scheduler.
    SchedEnqueue = 4,
    /// The scheduler handed the request to the dispatch path.
    SchedDispatch = 5,
    /// The device began servicing the request.
    DeviceStart = 6,
    /// The device completed the request successfully.
    DeviceComplete = 7,
    /// The device completed the request with an error.
    DeviceError = 8,
    /// The host aborted the in-flight command (timeout path).
    DeviceAbort = 9,
    /// The host's I/O timeout fired for the request.
    TimeoutFired = 10,
    /// The host scheduled a retry after a failed attempt.
    RetryScheduled = 11,
    /// The retry backoff elapsed and the request re-entered the scheduler.
    RetryRequeue = 12,
    /// A controller reset took the device offline.
    DeviceReset = 13,
    /// The device came back online after a reset.
    DeviceRestart = 14,
    /// The application observed the completion.
    Complete = 15,
    /// The request exhausted its retry budget and failed.
    Fail = 16,
    /// Run configuration: device geometry.
    CfgDevice = 17,
    /// Run configuration: scheduler kind on a device.
    CfgSched = 18,
    /// Run configuration: one `io.max` bucket limit on (group, device).
    CfgIoMax = 19,
    /// The run reached its configured end time (trace is complete).
    RunEnd = 20,
}

impl TraceKind {
    /// All kinds, in numeric order.
    pub const ALL: [TraceKind; 21] = [
        TraceKind::Submit,
        TraceKind::QosEnter,
        TraceKind::IoMaxPass,
        TraceKind::VtimeAdvance,
        TraceKind::SchedEnqueue,
        TraceKind::SchedDispatch,
        TraceKind::DeviceStart,
        TraceKind::DeviceComplete,
        TraceKind::DeviceError,
        TraceKind::DeviceAbort,
        TraceKind::TimeoutFired,
        TraceKind::RetryScheduled,
        TraceKind::RetryRequeue,
        TraceKind::DeviceReset,
        TraceKind::DeviceRestart,
        TraceKind::Complete,
        TraceKind::Fail,
        TraceKind::CfgDevice,
        TraceKind::CfgSched,
        TraceKind::CfgIoMax,
        TraceKind::RunEnd,
    ];

    /// The stable wire name used in the JSONL export.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceKind::Submit => "submit",
            TraceKind::QosEnter => "qos_enter",
            TraceKind::IoMaxPass => "iomax_pass",
            TraceKind::VtimeAdvance => "vtime",
            TraceKind::SchedEnqueue => "sched_enqueue",
            TraceKind::SchedDispatch => "sched_dispatch",
            TraceKind::DeviceStart => "dev_start",
            TraceKind::DeviceComplete => "dev_complete",
            TraceKind::DeviceError => "dev_error",
            TraceKind::DeviceAbort => "dev_abort",
            TraceKind::TimeoutFired => "timeout",
            TraceKind::RetryScheduled => "retry_sched",
            TraceKind::RetryRequeue => "retry_requeue",
            TraceKind::DeviceReset => "dev_reset",
            TraceKind::DeviceRestart => "dev_restart",
            TraceKind::Complete => "complete",
            TraceKind::Fail => "fail",
            TraceKind::CfgDevice => "cfg_device",
            TraceKind::CfgSched => "cfg_sched",
            TraceKind::CfgIoMax => "cfg_iomax",
            TraceKind::RunEnd => "run_end",
        }
    }

    /// Parses a wire name back into a kind.
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceKind> {
        TraceKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

/// One recorded lifecycle event. `Copy`, seven words, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time in nanoseconds.
    pub t: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Request id (`ReqId`), or a kind-specific small integer for
    /// configuration events (see [`TraceKind`]).
    pub req: u64,
    /// Cgroup index (0 when not applicable).
    pub group: u32,
    /// Device index.
    pub dev: u32,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

impl TraceEvent {
    /// Creates an event; field meaning is kind-specific (see [`TraceKind`]).
    #[must_use]
    pub const fn new(
        t: u64,
        kind: TraceKind,
        req: u64,
        group: u32,
        dev: u32,
        a: u64,
        b: u64,
    ) -> Self {
        TraceEvent {
            t,
            kind,
            req,
            group,
            dev,
            a,
            b,
        }
    }
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s. Allocates once at
/// construction; on overflow the oldest event is evicted (and counted).
#[derive(Debug)]
pub struct TraceRecorder {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
    /// Fault-injection hook: panic once this many more events record.
    panic_after: Option<u64>,
}

impl TraceRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TraceRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
            panic_after: None,
        }
    }

    /// Creates a recorder that never evicts: the buffer grows on demand
    /// and `dropped` stays 0. Used by sharded runs to journal every event
    /// between epoch flushes (the journal is drained frequently, so the
    /// buffer stays small in practice).
    #[must_use]
    pub fn unbounded() -> Self {
        TraceRecorder {
            buf: Vec::new(),
            cap: usize::MAX,
            head: 0,
            dropped: 0,
            panic_after: None,
        }
    }

    /// Arms the fault-injection hook: the recorder panics when the `n`-th
    /// subsequent event is pushed. Used by the CI partial-trace check.
    pub fn arm_panic_after(&mut self, n: u64) {
        self.panic_after = Some(n.max(1));
    }

    /// Takes every retained event (oldest-first), leaving the recorder
    /// installed and empty. Eviction state is reset; the dropped count is
    /// preserved.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.rotate_left(self.head);
        self.head = 0;
        std::mem::take(&mut self.buf)
    }

    /// Appends an event, evicting the oldest if at capacity.
    ///
    /// # Panics
    ///
    /// Panics when an armed [`TraceRecorder::arm_panic_after`] counter
    /// reaches zero (deliberate fault injection).
    pub fn push(&mut self, ev: TraceEvent) {
        if let Some(n) = self.panic_after.as_mut() {
            *n -= 1;
            if *n == 0 {
                self.panic_after = None;
                panic!("injected panic (trace recorder fault injection)");
            }
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted due to capacity so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the recorder, returning the retained events oldest-first.
    #[must_use]
    pub fn into_trace(mut self) -> Trace {
        self.buf.rotate_left(self.head);
        Trace {
            events: self.buf,
            dropped: self.dropped,
        }
    }
}

/// A finished trace: retained events oldest-first plus the eviction count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted by the ring buffer (0 = the trace is lossless).
    pub dropped: u64,
}

impl Trace {
    /// `true` if the run reached its end marker (the trace covers the
    /// whole run rather than being cut short by a panic).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.events
            .last()
            .is_some_and(|e| e.kind == TraceKind::RunEnd)
    }

    /// `true` if no events were evicted (the retained window is the whole
    /// event stream, so counting invariants are checkable).
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.dropped == 0
    }

    /// Serializes to JSONL: one header line, then one line per event.
    /// Line-oriented on purpose — a truncated file parses up to the last
    /// complete line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        // ~64 bytes per line.
        let mut out = String::with_capacity(64 * (self.events.len() + 1));
        out.push_str(&format!(
            "{{\"trace\":\"isol-bench\",\"version\":1,\"events\":{},\"dropped\":{}}}\n",
            self.events.len(),
            self.dropped
        ));
        for e in &self.events {
            out.push_str(&format!(
                "{{\"t\":{},\"k\":\"{}\",\"req\":{},\"g\":{},\"dev\":{},\"a\":{},\"b\":{}}}\n",
                e.t,
                e.kind.as_str(),
                e.req,
                e.group,
                e.dev,
                e.a,
                e.b
            ));
        }
        out
    }

    /// Parses the JSONL form back into a trace.
    ///
    /// A missing or malformed *final* line is tolerated (treated as a
    /// truncated write from an interrupted run); malformed interior lines
    /// are errors.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed non-final line, or of
    /// a bad header.
    pub fn from_jsonl(s: &str) -> Result<Trace, String> {
        let mut lines = s.lines().enumerate().peekable();
        let mut dropped = 0u64;
        // Header (optional, but always written by `to_jsonl`).
        if let Some(&(_, first)) = lines.peek() {
            if first.contains("\"trace\"") {
                let fields = parse_flat_object(first).map_err(|e| format!("trace header: {e}"))?;
                dropped = fields
                    .iter()
                    .find(|(k, _)| k == "dropped")
                    .and_then(|(_, v)| v.as_u64())
                    .ok_or_else(|| "trace header: missing dropped".to_owned())?;
                lines.next();
            }
        }
        let mut events = Vec::new();
        while let Some((idx, line)) = lines.next() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_event_line(line) {
                Ok(ev) => events.push(ev),
                // Tolerate a truncated final line only.
                Err(_) if lines.peek().is_none() => break,
                Err(e) => return Err(format!("line {}: {e}", idx + 1)),
            }
        }
        Ok(Trace { events, dropped })
    }

    /// Exports the trace in Chrome `trace_event` JSON (the format
    /// `chrome://tracing` / Perfetto load). Spans: one `request` slice
    /// per request lifetime, one `sched` slice per queue→dispatch pair,
    /// one `device` slice per device attempt; instants for timeouts,
    /// retries and resets. `pid` is the device, `tid` the cgroup.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        use std::collections::HashMap;

        let mut out = String::with_capacity(128 * self.events.len() + 64);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |s: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            out.push_str(&s);
            *first = false;
        };

        // (req -> event) open-span bookkeeping.
        let mut submit: HashMap<u64, TraceEvent> = HashMap::new();
        let mut enqueue: HashMap<u64, TraceEvent> = HashMap::new();
        let mut start: HashMap<u64, TraceEvent> = HashMap::new();
        let mut seen_pids: Vec<u32> = Vec::new();
        let mut seen_tids: Vec<(u32, u32)> = Vec::new();

        for e in &self.events {
            if !seen_pids.contains(&e.dev) {
                seen_pids.push(e.dev);
            }
            let tid_key = (e.dev, e.group);
            if !seen_tids.contains(&tid_key) {
                seen_tids.push(tid_key);
            }
            match e.kind {
                TraceKind::Submit => {
                    submit.insert(e.req, *e);
                }
                TraceKind::SchedEnqueue => {
                    enqueue.insert(e.req, *e);
                }
                TraceKind::SchedDispatch => {
                    if let Some(q) = enqueue.remove(&e.req) {
                        emit(span("sched", &q, e.t.saturating_sub(q.t)), &mut first);
                    }
                }
                TraceKind::DeviceStart => {
                    start.insert(e.req, *e);
                }
                TraceKind::DeviceComplete | TraceKind::DeviceError | TraceKind::DeviceAbort => {
                    if let Some(s0) = start.remove(&e.req) {
                        let name = match e.kind {
                            TraceKind::DeviceComplete => "device",
                            TraceKind::DeviceError => "device (error)",
                            _ => "device (aborted)",
                        };
                        emit(span(name, &s0, e.t.saturating_sub(s0.t)), &mut first);
                    }
                }
                TraceKind::Complete | TraceKind::Fail => {
                    if let Some(s0) = submit.remove(&e.req) {
                        let name = if e.kind == TraceKind::Complete {
                            "request"
                        } else {
                            "request (failed)"
                        };
                        emit(span(name, &s0, e.t.saturating_sub(s0.t)), &mut first);
                    }
                }
                TraceKind::TimeoutFired
                | TraceKind::RetryScheduled
                | TraceKind::RetryRequeue
                | TraceKind::DeviceReset
                | TraceKind::DeviceRestart => {
                    emit(instant(e), &mut first);
                }
                _ => {}
            }
        }
        for d in seen_pids {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{d},\"tid\":0,\
                     \"args\":{{\"name\":\"nvme{d}\"}}}}"
                ),
                &mut first,
            );
        }
        for (d, g) in seen_tids {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{d},\"tid\":{g},\
                     \"args\":{{\"name\":\"cg{g}\"}}}}"
                ),
                &mut first,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Chrome timestamps are microseconds; keep sub-µs precision as decimals.
fn chrome_ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn span(name: &str, open: &TraceEvent, dur_ns: u64) -> String {
    format!(
        "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"io\",\"ts\":{},\"dur\":{},\
         \"pid\":{},\"tid\":{},\"args\":{{\"req\":{}}}}}",
        chrome_ts(open.t),
        chrome_ts(dur_ns),
        open.dev,
        open.group,
        open.req
    )
}

fn instant(e: &TraceEvent) -> String {
    format!(
        "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"io\",\"ts\":{},\"s\":\"p\",\
         \"pid\":{},\"tid\":{},\"args\":{{\"req\":{}}}}}",
        e.kind.as_str(),
        chrome_ts(e.t),
        e.dev,
        e.group,
        e.req
    )
}

/// A parsed flat-JSON value: this module's wire format only uses
/// unsigned integers and strings.
#[derive(Debug, PartialEq)]
enum FlatValue {
    Num(u64),
    Str(String),
}

impl FlatValue {
    fn as_u64(&self) -> Option<u64> {
        match self {
            FlatValue::Num(n) => Some(*n),
            FlatValue::Str(_) => None,
        }
    }
}

/// Parses a single-line flat JSON object of string/u64 values. This is
/// not a general JSON parser — just enough for this module's own wire
/// format (no nesting, no escapes, no floats).
fn parse_flat_object(line: &str) -> Result<Vec<(String, FlatValue)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "not an object".to_owned())?;
    let mut fields = Vec::new();
    for part in inner.split(',') {
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| format!("bad field `{part}`"))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("bad key `{k}`"))?;
        let v = v.trim();
        let value = if let Some(s) = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
            FlatValue::Str(s.to_owned())
        } else {
            FlatValue::Num(
                v.parse::<u64>()
                    .map_err(|_| format!("bad value `{v}` for `{key}`"))?,
            )
        };
        fields.push((key.to_owned(), value));
    }
    Ok(fields)
}

fn parse_event_line(line: &str) -> Result<TraceEvent, String> {
    let fields = parse_flat_object(line)?;
    let get = |name: &str| -> Result<u64, String> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| format!("missing field `{name}`"))
    };
    let kind = fields
        .iter()
        .find(|(k, _)| k == "k")
        .and_then(|(_, v)| match v {
            FlatValue::Str(s) => TraceKind::parse(s),
            FlatValue::Num(_) => None,
        })
        .ok_or_else(|| "missing or unknown kind".to_owned())?;
    Ok(TraceEvent {
        t: get("t")?,
        kind,
        req: get("req")?,
        group: u32::try_from(get("g")?).map_err(|_| "group out of range".to_owned())?,
        dev: u32::try_from(get("dev")?).map_err(|_| "dev out of range".to_owned())?,
        a: get("a")?,
        b: get("b")?,
    })
}

thread_local! {
    /// Fast-path flag: `true` iff a recorder is installed on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<TraceRecorder>> = const { RefCell::new(None) };
}

/// `true` if a recorder is installed on this thread.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ACTIVE.with(Cell::get)
}

/// Installs a fresh recorder with the given capacity on this thread,
/// replacing (and discarding) any previous one.
pub fn install(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(TraceRecorder::new(capacity)));
    ACTIVE.with(|a| a.set(true));
}

/// Installs a fresh unbounded recorder on this thread, replacing (and
/// discarding) any previous one. Shard workers use this to journal the
/// events of each pop; the journal drains it after every handled event,
/// so it never grows past a single event batch.
pub fn install_unbounded() {
    RECORDER.with(|r| *r.borrow_mut() = Some(TraceRecorder::unbounded()));
    ACTIVE.with(|a| a.set(true));
}

/// Drains every event recorded on this thread so far (oldest-first),
/// leaving the recorder installed. Returns an empty vec when tracing is
/// not installed.
#[must_use]
pub fn drain_events() -> Vec<TraceEvent> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map_or_else(Vec::new, TraceRecorder::drain)
    })
}

/// Arms the installed recorder to panic after `n` more events — the CI
/// hook that exercises the partial-trace path. No-op when disabled.
pub fn arm_panic_after(n: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.arm_panic_after(n);
        }
    });
}

/// Removes this thread's recorder and returns its trace, or `None` if
/// tracing was not installed.
pub fn take() -> Option<Trace> {
    ACTIVE.with(|a| a.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(TraceRecorder::into_trace)
}

/// Records an event if tracing is enabled on this thread. The closure
/// only runs (and the event is only constructed) when a recorder is
/// installed; when disabled this is one thread-local read and a branch.
#[inline]
pub fn record_with<F: FnOnce() -> TraceEvent>(f: F) {
    if enabled() {
        record_slow(f());
    }
}

#[cold]
#[inline(never)]
fn record_slow(ev: TraceEvent) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.push(ev);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind, req: u64) -> TraceEvent {
        TraceEvent::new(t, kind, req, 1, 0, 4096, 0)
    }

    #[test]
    fn ring_keeps_newest_oldest_first() {
        let mut r = TraceRecorder::new(3);
        for i in 0..5 {
            r.push(ev(i, TraceKind::Submit, i));
        }
        assert_eq!(r.dropped(), 2);
        let t = r.into_trace();
        let ids: Vec<u64> = t.events.iter().map(|e| e.req).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(t.dropped, 2);
        assert!(!t.is_lossless());
    }

    #[test]
    fn below_capacity_is_lossless() {
        let mut r = TraceRecorder::new(8);
        for i in 0..5 {
            r.push(ev(i, TraceKind::Submit, i));
        }
        assert_eq!(r.len(), 5);
        let t = r.into_trace();
        assert!(t.is_lossless());
        assert_eq!(t.events.len(), 5);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut r = TraceRecorder::new(16);
        r.push(ev(5, TraceKind::Submit, 1));
        r.push(ev(9, TraceKind::DeviceStart, 1));
        r.push(TraceEvent::new(20, TraceKind::RunEnd, 0, 0, 0, 0, 0));
        let t = r.into_trace();
        assert!(t.is_complete());
        let s = t.to_jsonl();
        let back = Trace::from_jsonl(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn unbounded_never_evicts_and_drain_resets() {
        let mut r = TraceRecorder::unbounded();
        for i in 0..1000 {
            r.push(ev(i, TraceKind::Submit, i));
        }
        assert_eq!(r.dropped(), 0);
        let first: Vec<u64> = r.drain().iter().map(|e| e.req).collect();
        assert_eq!(first, (0..1000).collect::<Vec<_>>());
        // The recorder stays usable after a drain, still without loss.
        r.push(ev(7, TraceKind::Submit, 7));
        r.push(ev(8, TraceKind::Complete, 8));
        let second: Vec<u64> = r.drain().iter().map(|e| e.req).collect();
        assert_eq!(second, vec![7, 8]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn thread_local_unbounded_install_and_drain() {
        install_unbounded();
        assert!(enabled());
        record_with(|| ev(1, TraceKind::Submit, 1));
        record_with(|| ev(2, TraceKind::DeviceStart, 1));
        let drained = drain_events();
        assert_eq!(drained.len(), 2);
        // Drain leaves the recorder installed and empty...
        assert!(enabled());
        record_with(|| ev(3, TraceKind::Complete, 1));
        let t = take().expect("recorder still installed");
        assert_eq!(t.events.len(), 1);
        assert!(t.is_lossless());
        // ...and take() uninstalls as usual.
        assert!(!enabled());
        assert!(drain_events().is_empty());
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let mut r = TraceRecorder::new(16);
        r.push(ev(5, TraceKind::Submit, 1));
        r.push(ev(9, TraceKind::DeviceStart, 1));
        let s = t_to_truncated(r.into_trace());
        let back = Trace::from_jsonl(&s).unwrap();
        assert_eq!(back.events.len(), 1);
        assert!(!back.is_complete());
    }

    fn t_to_truncated(t: Trace) -> String {
        let s = t.to_jsonl();
        // Chop the last line in half (simulating a mid-write crash).
        let cut = s.trim_end().rfind('\n').unwrap() + 10;
        s[..cut].to_owned()
    }

    #[test]
    fn malformed_interior_line_is_an_error() {
        let s = "{\"t\":1,\"k\":\"submit\",\"req\":1,\"g\":0,\"dev\":0,\"a\":0,\"b\":0}\n\
                 garbage\n\
                 {\"t\":2,\"k\":\"run_end\",\"req\":0,\"g\":0,\"dev\":0,\"a\":0,\"b\":0}\n";
        assert!(Trace::from_jsonl(s).is_err());
    }

    #[test]
    fn thread_local_recorder_lifecycle() {
        assert!(!enabled());
        assert!(take().is_none());
        record_with(|| unreachable!("disabled recorder must not build events"));
        install(4);
        assert!(enabled());
        record_with(|| ev(1, TraceKind::Submit, 7));
        let t = take().unwrap();
        assert_eq!(t.events.len(), 1);
        assert!(!enabled());
        assert!(take().is_none());
    }

    #[test]
    fn kind_names_round_trip() {
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(TraceKind::parse("bogus"), None);
    }

    #[test]
    fn chrome_export_contains_spans() {
        let mut r = TraceRecorder::new(16);
        r.push(ev(10, TraceKind::Submit, 1));
        r.push(ev(20, TraceKind::SchedEnqueue, 1));
        r.push(ev(30, TraceKind::SchedDispatch, 1));
        r.push(ev(40, TraceKind::DeviceStart, 1));
        r.push(ev(90, TraceKind::DeviceComplete, 1));
        r.push(ev(95, TraceKind::Complete, 1));
        let json = r.into_trace().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"request\""));
        assert!(json.contains("\"name\":\"sched\""));
        assert!(json.contains("\"name\":\"device\""));
        assert!(json.contains("\"name\":\"nvme0\""));
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn armed_recorder_panics() {
        let mut r = TraceRecorder::new(4);
        r.arm_panic_after(2);
        r.push(ev(1, TraceKind::Submit, 1));
        r.push(ev(2, TraceKind::Submit, 2));
    }
}
