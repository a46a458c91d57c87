//! Long-running prediction service: a JSON-lines protocol over the
//! [`ShardedRegistry`].
//!
//! The wire format is one JSON object per line in both directions, built on
//! the in-tree [`fgcs_runtime::json`] codec (the workspace stays std-only).
//! Requests carry an `"op"` field:
//!
//! | op        | request fields                                               |
//! |-----------|--------------------------------------------------------------|
//! | `ping`    | —                                                            |
//! | `ingest`  | `host`, `states` (digits `1`–`5`), optional `day_index`      |
//! | `predict` | `host`, `start`, `hours`, opt. `day_type`, `init`            |
//! | `sweep`   | `host`, `start`, `hours`, opt. `day_type`, `init`, `points`  |
//! | `batch`   | `ops`: array of `ping`/`ingest`/`predict`/`sweep` requests   |
//! | `host`    | `host` — stored-day count (readiness probe after recovery)   |
//! | `health`  | — liveness/durability document for load balancers            |
//! | `stats`   | —                                                            |
//! | `shutdown`| —                                                            |
//!
//! Successful replies carry `"ok": true` — except `sweep`, whose reply is
//! exactly the JSON the `fgcs sweep --json` CLI prints for the same
//! history ([`sweep_json`] is the single shared formatter), so a streamed
//! serve answer can be byte-compared against the offline CLI answer.
//! Failures of any op are `{"ok":false,"error":"…"}`; a malformed line
//! never kills the connection.
//!
//! # Wire-path memory discipline
//!
//! The request path is allocation-free once warm. Every line is scanned
//! in place by [`JsonSlice::scan_in`] — a borrowed view that never builds a
//! tree and accepts exactly the objects the tree parser accepts. An
//! escaped key or string is decoded into a per-request [`JsonArena`],
//! which escape-free lines never allocate. Replies are appended to a
//! pooled [`JsonWriter`] whose buffer is cleared (capacity kept) between
//! requests. Field errors are borrowed ([`SliceError`]) and render their
//! message only when an error reply is actually written. [`Json::parse`]
//! runs only on a line or batch element the scanner rejected, to name its
//! error. Both transports reuse one read buffer and one reply buffer per
//! connection; `stats` reports the high-water marks of both pools.
//!
//! # Batch requests
//!
//! `{"op":"batch","ops":[…]}` answers each nested op with its own reply
//! line, concatenated in request order — byte-identical to sending the ops
//! as individual lines. Internally the ops are grouped by registry shard so
//! each shard's lock is taken once per batch ([`ShardedRegistry::session`]),
//! and runs of `predict` ops against one `(host, day_type, window)` are
//! answered from a single Eq.-3 recursion (the curve is prefix-closed, so
//! the values are bit-identical to independent solves). Per-host op order
//! is preserved. `stats`, `shutdown`, and nested `batch` ops are rejected
//! per-op; an empty `ops` array is an error.
//!
//! The same [`Server`] drives both transports:
//!
//! * [`Server::serve_lines`] — oneshot batch mode (`fgcs serve --oneshot`):
//!   requests on stdin, replies on stdout, exits at EOF or `shutdown`;
//! * [`Server::serve_tcp`] — a [`TcpListener`] accept loop
//!   (`fgcs serve`), thread-per-connection over the shared registry, shut
//!   down cleanly by the `shutdown` op from any connection.
//!
//! # Hardened transport
//!
//! Both transports read request lines through a bounded reader: a line
//! longer than [`ServeConfig::max_line_bytes`] is drained (in buffered
//! chunks, never materialized) and answered with a structured
//! `{"ok":false,"code":"too_large",…}` reply, after which the connection
//! keeps working. TCP connections additionally get a per-connection read
//! and write deadline ([`ServeConfig::read_timeout`]) so a stalled peer
//! releases its thread, and `TCP_NODELAY`, so no reply waits for the
//! peer's delayed ACK of the one before. The accept loop sheds
//! connections beyond [`ServeConfig::max_connections`] with a one-line
//! `busy` reply instead of growing without bound. Each request is wrapped in
//! [`std::panic::catch_unwind`]: a panicking handler yields a structured
//! `panic` error reply, the half-written reply bytes are rolled back, and
//! any shard mutex poisoned by the unwind is recovered by the registry —
//! the shard keeps serving, its predictions tagged `"quality":"stale"`
//! (the [`fgcs_core::robust::PredictionQuality`] vocabulary) until the
//! process is restarted. With [`ServeConfig::data_dir`] set the registry
//! write-ahead-logs every ingest before acknowledging it and the server
//! fsyncs + snapshots on graceful shutdown; see the fgcs-core registry
//! docs for the durability model.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use fgcs_core::batch::TrCurve;
use fgcs_core::registry::{
    IngestAck, RegistryConfig, RegistryError, ShardSession, ShardedRegistry,
};
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow, SECS_PER_DAY};
use fgcs_runtime::json::{
    Json, JsonArena, JsonError, JsonSlice, JsonSliceArray, JsonWriter, SliceError,
};

/// Configuration for [`Server::new`] / [`Server::open`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry shard count (see [`RegistryConfig::shards`]).
    pub shards: usize,
    /// Sliding history bound per host and coordinate (`None` = unbounded).
    pub max_history_days: Option<usize>,
    /// Longest accepted request line in bytes (newline excluded). Longer
    /// lines are drained and answered with a `too_large` error reply;
    /// the read buffer never grows past this bound.
    pub max_line_bytes: usize,
    /// Per-TCP-connection read *and* write deadline (`None` = block
    /// forever). A peer idle past the deadline is disconnected, freeing
    /// its handler thread.
    pub read_timeout: Option<Duration>,
    /// Simultaneous TCP connections served; further accepts are shed with
    /// a one-line `busy` reply.
    pub max_connections: usize,
    /// Durability root (per-shard WAL + snapshots). `None` keeps the
    /// registry in memory only (see [`RegistryConfig::data_dir`]).
    pub data_dir: Option<PathBuf>,
    /// WAL fsync cadence (see [`RegistryConfig::fsync_every`]).
    pub fsync_every: u64,
    /// Snapshot cadence in WAL appends (see
    /// [`RegistryConfig::snapshot_every`]).
    pub snapshot_every: u64,
    /// Enables the `debug_panic` op, which panics inside the request
    /// handler — the chaos/containment test hook. Off in production: the
    /// op is then an ordinary unknown-op error.
    pub debug_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 8,
            max_history_days: None,
            max_line_bytes: 8 << 20,
            read_timeout: Some(Duration::from_secs(120)),
            max_connections: 256,
            data_dir: None,
            fsync_every: 256,
            snapshot_every: 4096,
            debug_ops: false,
        }
    }
}

/// One handled request: the reply line(s) (no trailing newline) and
/// whether the request asked the service to stop. A `batch` request yields
/// one reply line per nested op, joined by `'\n'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The serialized JSON reply.
    pub line: String,
    /// `true` when the request was a `shutdown` op.
    pub shutdown: bool,
}

/// Canned replies for the field-free ops (no allocation, no formatting).
const PING_LINE: &str = "{\"ok\":true,\"op\":\"ping\"}\n";
const SHUTDOWN_LINE: &str = "{\"ok\":true,\"op\":\"shutdown\"}\n";
const EMPTY_BATCH: &str = "batch needs at least one op";
/// Shed reply for connections beyond the configured limit.
const BUSY_LINE: &str =
    "{\"ok\":false,\"code\":\"busy\",\"error\":\"connection limit reached, retry later\"}\n";
/// Containment reply when a request handler panicked.
const PANIC_LINE: &str =
    "{\"ok\":false,\"code\":\"panic\",\"error\":\"internal error: request handler panicked\"}\n";
/// Reply for request bytes that are not UTF-8 (the protocol is JSON text).
const BAD_UTF8_LINE: &str =
    "{\"ok\":false,\"code\":\"bad_utf8\",\"error\":\"request line is not valid UTF-8\"}\n";

/// The prediction service: a [`ShardedRegistry`] plus the JSON-lines
/// protocol. Transport-agnostic; see [`Server::serve_lines`] and
/// [`Server::serve_tcp`].
pub struct Server {
    registry: ShardedRegistry,
    /// Request-line length cap (bytes, newline excluded).
    max_line_bytes: usize,
    /// Per-connection read/write deadline for the TCP transport.
    read_timeout: Option<Duration>,
    /// TCP connection-count limit; excess accepts are shed.
    max_connections: usize,
    /// Whether the `debug_panic` containment hook is armed.
    debug_ops: bool,
    /// Largest request line (bytes) handled so far — the steady-state size
    /// of a pooled read buffer.
    read_hwm: AtomicU64,
    /// Most reply bytes written for a single request — the steady-state
    /// size of a pooled reply buffer.
    write_hwm: AtomicU64,
    /// Requests handled since startup (the `health` op's logical uptime —
    /// wall-clock-free, so health replies stay deterministic under test).
    requests: AtomicU64,
    /// Request handlers that panicked and were contained.
    panics: AtomicU64,
    /// Predict replies answered from a poisoned (degraded) shard.
    degraded_predictions: AtomicU64,
    /// Currently open TCP connections.
    active_connections: AtomicU64,
    /// Connections shed with the `busy` reply.
    shed_connections: AtomicU64,
    /// Request lines rejected for exceeding `max_line_bytes`.
    oversize_lines: AtomicU64,
}

/// One decoded request. Every field is `Copy` or borrows from the request
/// line (or its [`JsonArena`]), except an ingest's decoded states.
enum Request<'a> {
    Ping,
    Shutdown,
    Stats,
    Health,
    Host { host: u64 },
    Shard(ShardOp),
    Batch(JsonSliceArray<'a>),
}

/// An op answered under its host's shard lock. An ingest's digits are
/// decoded while the request is parsed, before any lock is taken.
enum ShardOp {
    Ingest {
        host: u64,
        day_index: Option<u64>,
        states: Vec<State>,
    },
    Predict {
        host: u64,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    },
    Sweep {
        host: u64,
        day_type: DayType,
        window: TimeWindow,
        init: State,
        points: usize,
    },
}

impl ShardOp {
    fn host(&self) -> u64 {
        match *self {
            ShardOp::Ingest { host, .. }
            | ShardOp::Predict { host, .. }
            | ShardOp::Sweep { host, .. } => host,
        }
    }
}

/// A protocol error. Field-shape errors stay borrowed ([`SliceError`]);
/// only the validators that already build owned messages ([`parse_window`]
/// & friends) carry a `String` — and every variant formats its message
/// only when the error reply is written.
enum WireError<'a> {
    Slice(SliceError<'a>),
    UnknownOp(&'a str),
    NotInBatch(&'a str),
    Msg(String),
}

impl fmt::Display for WireError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Slice(e) => e.fmt(f),
            WireError::UnknownOp(op) => write!(f, "unknown op `{op}`"),
            WireError::NotInBatch(op) => write!(f, "op `{op}` not allowed inside batch"),
            WireError::Msg(m) => f.write_str(m),
        }
    }
}

impl<'a> From<SliceError<'a>> for WireError<'a> {
    fn from(e: SliceError<'a>) -> WireError<'a> {
        WireError::Slice(e)
    }
}

/// Decodes one request object. `op` is resolved before any other field,
/// and inside a batch the ops that may not nest are refused before their
/// fields are read.
fn parse_request<'a>(s: &JsonSlice<'a>, in_batch: bool) -> Result<Request<'a>, WireError<'a>> {
    let op = s.get_str("op")?;
    if in_batch && matches!(op, "stats" | "shutdown" | "batch" | "health" | "host") {
        return Err(WireError::NotInBatch(op));
    }
    let shard_op = match op {
        "ping" => return Ok(Request::Ping),
        "shutdown" => return Ok(Request::Shutdown),
        "stats" => return Ok(Request::Stats),
        "health" => return Ok(Request::Health),
        "host" => {
            return Ok(Request::Host {
                host: s.get_u64("host")?,
            })
        }
        "batch" => return Ok(Request::Batch(s.array("ops")?)),
        "ingest" => {
            let host = s.get_u64("host")?;
            let day_index = s.get_opt_u64("day_index")?;
            let states = decode_states(s.get_str("states")?).map_err(WireError::Msg)?;
            ShardOp::Ingest {
                host,
                day_index,
                states,
            }
        }
        "predict" => {
            let host = s.get_u64("host")?;
            let (day_type, window, init) = coords(s)?;
            ShardOp::Predict {
                host,
                day_type,
                window,
                init,
            }
        }
        "sweep" => {
            let host = s.get_u64("host")?;
            let (day_type, window, init) = coords(s)?;
            let points = s.get_opt_u64("points")?.unwrap_or(12) as usize;
            ShardOp::Sweep {
                host,
                day_type,
                window,
                init,
                points,
            }
        }
        other => return Err(WireError::UnknownOp(other)),
    };
    Ok(Request::Shard(shard_op))
}

/// The query coordinates of `predict`/`sweep`: `start`/`hours`
/// (fractional hours), optional `day_type` (default weekday) and `init`
/// (default S1).
fn coords<'a>(s: &JsonSlice<'a>) -> Result<(DayType, TimeWindow, State), WireError<'a>> {
    let start = s.get_f64("start")?;
    let hours = s.get_f64("hours")?;
    let day_type = match s.get_opt_str("day_type")? {
        None => DayType::Weekday,
        Some(v) => parse_day_type(v).map_err(WireError::Msg)?,
    };
    let init = match s.get_opt_str("init")? {
        None => State::S1,
        Some(v) => parse_init(v).map_err(WireError::Msg)?,
    };
    Ok((
        day_type,
        parse_window(start, hours).map_err(WireError::Msg)?,
        init,
    ))
}

/// What one op produced, carried out of the shard lock: its reply is
/// formatted by [`Server::write_answer`] after the lock is released.
enum Answer<'a> {
    Ping,
    Error(WireError<'a>),
    /// A batch element that is not an object (its raw text).
    Rejected(&'a str),
    Ingest(Result<IngestAck, RegistryError>),
    Predict {
        host: u64,
        day_type: DayType,
        window: TimeWindow,
        init: State,
        tr: Result<f64, RegistryError>,
    },
    Sweep {
        day_type: DayType,
        window: TimeWindow,
        init: State,
        points: usize,
        curve: Result<TrCurve, RegistryError>,
    },
}

/// Runs one op under its shard's held lock.
fn run_op(session: &mut ShardSession<'_>, op: ShardOp) -> Answer<'static> {
    match op {
        ShardOp::Ingest {
            host,
            day_index,
            states,
        } => Answer::Ingest(session.ingest_day(host, day_index.map(|d| d as usize), states)),
        ShardOp::Predict {
            host,
            day_type,
            window,
            init,
        } => Answer::Predict {
            host,
            day_type,
            window,
            init,
            tr: session.predict(host, day_type, window, init),
        },
        ShardOp::Sweep {
            host,
            day_type,
            window,
            init,
            points,
        } => Answer::Sweep {
            day_type,
            window,
            init,
            points,
            curve: session.sweep(host, day_type, window),
        },
    }
}

/// `{"ok":false,"error":…}` with the message rendered straight into the
/// reply buffer (escaped on the fly, no intermediate `String`).
// lint: no-alloc
fn write_error_line(out: &mut JsonWriter, err: &dyn fmt::Display) {
    out.raw("{\"ok\":false,\"error\":");
    out.display_string(err);
    out.raw("}\n");
}

/// The error reply for a document [`JsonSlice::scan_in`] refused — a
/// request line or a batch element. The tree parser names it: its syntax
/// error, or the kind of a document that is not an object.
fn write_rejected_line(out: &mut JsonWriter, text: &str) {
    match Json::parse(text) {
        Err(e) => write_error_line(out, &format_args!("bad request: {e}")),
        Ok(doc) => write_error_line(out, &JsonError::not_an_object("op", &doc)),
    }
}

/// The `ingest` ack.
// lint: no-alloc
fn write_ingest_line(out: &mut JsonWriter, ack: &IngestAck) {
    out.raw("{\"ok\":true,\"op\":\"ingest\",\"host\":");
    out.u64(ack.host);
    out.raw(",\"day_index\":");
    out.u64(ack.day_index as u64);
    out.raw(",\"days\":");
    out.u64(ack.days as u64);
    out.raw("}\n");
}

/// The `predict` reply. `degraded` appends the `"quality":"stale"` tag
/// (the shard answered after poison recovery); a healthy shard's reply
/// bytes are unchanged from before the hardening, so byte-compare oracles
/// over healthy servers still hold.
// lint: no-alloc
fn write_predict_line(
    out: &mut JsonWriter,
    host: u64,
    window: TimeWindow,
    day_type: DayType,
    init: State,
    tr: f64,
    degraded: bool,
) {
    out.raw("{\"ok\":true,\"op\":\"predict\",\"host\":");
    out.u64(host);
    out.raw(",\"window\":");
    out.display_string(&window);
    out.raw(",\"day_type\":");
    out.display_string(&day_type);
    out.raw(",\"init\":");
    out.display_string(&init);
    out.raw(",\"tr\":");
    out.f64(tr);
    if degraded {
        out.raw(",\"quality\":\"stale\"");
    }
    out.raw("}\n");
}

/// Appends `,"key":value` for each pair — the body of the counter replies.
// lint: no-alloc
fn write_u64_fields(out: &mut JsonWriter, fields: &[(&str, u64)]) {
    for &(key, value) in fields {
        out.raw(",\"");
        out.raw(key);
        out.raw("\":");
        out.u64(value);
    }
}

/// The `host` readiness reply: how many days the registry stores for one
/// host (what a recovered server has actually replayed).
// lint: no-alloc
fn write_host_line(out: &mut JsonWriter, host: u64, days: usize) {
    out.raw("{\"ok\":true,\"op\":\"host\",\"host\":");
    out.u64(host);
    out.raw(",\"days\":");
    out.u64(days as u64);
    out.raw("}\n");
}

impl Server {
    /// Creates a service with an empty registry.
    ///
    /// # Panics
    /// Panics when [`ServeConfig::data_dir`] is set and opening it fails —
    /// use [`Server::open`] to handle durability errors.
    #[must_use]
    pub fn new(config: &ServeConfig) -> Server {
        Server::open(config).expect("opening the registry data dir")
    }

    /// Creates a service, recovering any prior state from
    /// [`ServeConfig::data_dir`] when set (snapshot load + WAL replay; see
    /// [`ShardedRegistry::open`]).
    ///
    /// # Errors
    /// Returns the registry's error when the data dir cannot be scanned,
    /// created or replayed.
    pub fn open(config: &ServeConfig) -> Result<Server, RegistryError> {
        let registry = ShardedRegistry::open(RegistryConfig {
            shards: config.shards,
            max_history_days: config.max_history_days,
            data_dir: config.data_dir.clone(),
            fsync_every: config.fsync_every,
            snapshot_every: config.snapshot_every,
            ..RegistryConfig::default()
        })?;
        Ok(Server {
            registry,
            max_line_bytes: config.max_line_bytes,
            read_timeout: config.read_timeout,
            max_connections: config.max_connections.max(1),
            debug_ops: config.debug_ops,
            read_hwm: AtomicU64::new(0),
            write_hwm: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            degraded_predictions: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            oversize_lines: AtomicU64::new(0),
        })
    }

    /// The registry behind the service.
    #[must_use]
    pub fn registry(&self) -> &ShardedRegistry {
        &self.registry
    }

    /// Handles one request line and renders the reply. Never panics on
    /// malformed input: protocol errors become `{"ok":false,…}` replies.
    ///
    /// Convenience wrapper over
    /// [`handle_line_into`](Server::handle_line_into) that allocates a
    /// fresh reply `String`; the serving loops use the pooled variant.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> Reply {
        let mut out = JsonWriter::new();
        let shutdown = self.handle_line_into(line, &mut out);
        let mut line = out.as_str().to_string();
        line.pop(); // every reply line is '\n'-terminated
        Reply { line, shutdown }
    }

    /// Handles one request line, appending one `'\n'`-terminated reply
    /// line per answered op (one line for everything except `batch`) to
    /// `out`. Returns `true` when the request was a `shutdown` op.
    ///
    /// This is the zero-allocation hot path: with a warm `out` buffer, a
    /// `ping` or cache-hit `predict` request allocates nothing — the line
    /// is scanned in place and the reply is formatted into the pooled
    /// buffer. The caller owns clearing `out` between requests.
    ///
    /// A handler panic is contained here: the half-written reply is rolled
    /// back and replaced by a structured `panic` error line, so one bad
    /// request never takes down a transport loop. Any shard mutex poisoned
    /// by the unwind is recovered by the registry; that shard's predict
    /// replies carry `"quality":"stale"` from then on.
    // lint: no-alloc
    pub fn handle_line_into(&self, line: &str, out: &mut JsonWriter) -> bool {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.read_hwm
            .fetch_max(line.len() as u64, Ordering::Relaxed);
        let before = out.len();
        let shutdown = match catch_unwind(AssertUnwindSafe(|| self.dispatch(line, out))) {
            Ok(shutdown) => shutdown,
            Err(_) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                out.truncate(before);
                out.raw(PANIC_LINE);
                false
            }
        };
        self.write_hwm
            .fetch_max((out.len() - before) as u64, Ordering::Relaxed);
        shutdown
    }

    /// Scans one request line and answers it. The arena stays unallocated
    /// unless the line holds an escape.
    fn dispatch(&self, line: &str, out: &mut JsonWriter) -> bool {
        let mut arena = JsonArena::new();
        let Some(req) = JsonSlice::scan_in(line, &mut arena) else {
            write_rejected_line(out, line);
            return false;
        };
        if self.debug_ops && matches!(req.get_str("op"), Ok("debug_panic")) {
            panic!("debug_panic op (containment test hook)");
        }
        match parse_request(&req, false) {
            Err(e) => write_error_line(out, &e),
            Ok(Request::Ping) => out.raw(PING_LINE),
            Ok(Request::Shutdown) => {
                out.raw(SHUTDOWN_LINE);
                return true;
            }
            Ok(Request::Stats) => self.write_stats_line(out),
            Ok(Request::Health) => self.write_health_line(out),
            Ok(Request::Host { host }) => match self.registry.host_days(host) {
                Some(days) => write_host_line(out, host, days),
                None => write_error_line(out, &RegistryError::UnknownHost(host)),
            },
            Ok(Request::Shard(op)) => {
                let answer = {
                    let mut session = self.registry.session(self.registry.shard_index(op.host()));
                    run_op(&mut session, op)
                };
                self.write_answer(out, answer);
            }
            Ok(Request::Batch(ops)) => self.run_batch(&req, ops, out),
        }
        false
    }

    /// The shard-batched pipeline behind the `batch` op: parse each nested
    /// op, group the shard ops by shard, take each shard lock once, answer
    /// `predict` runs against one `(host, day_type, window)` from a single
    /// curve solve, then — every lock released — write the replies in
    /// request order.
    fn run_batch(&self, req: &JsonSlice<'_>, ops: JsonSliceArray<'_>, out: &mut JsonWriter) {
        let mut answers: Vec<Option<Answer<'_>>> = Vec::new();
        let mut sharded: Vec<Vec<(usize, ShardOp)>> = (0..self.registry.shard_count())
            .map(|_| Vec::new())
            .collect();
        for (i, raw) in ops.enumerate() {
            let answer = match req.nested(raw).map(|el| parse_request(&el, true)) {
                None => Answer::Rejected(raw),
                Some(Err(e)) => Answer::Error(e),
                Some(Ok(Request::Shard(op))) => {
                    sharded[self.registry.shard_index(op.host())].push((i, op));
                    answers.push(None);
                    continue;
                }
                Some(Ok(Request::Ping)) => Answer::Ping,
                Some(Ok(_)) => unreachable!("parse_request refuses nested control ops"),
            };
            answers.push(Some(answer));
        }
        if answers.is_empty() {
            write_error_line(out, &EMPTY_BATCH);
            return;
        }
        for (shard, ops) in sharded.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let mut session = self.registry.session(shard);
            let mut ops = ops.into_iter().peekable();
            while let Some((i, op)) = ops.next() {
                let ShardOp::Predict {
                    host,
                    day_type,
                    window,
                    init,
                } = op
                else {
                    answers[i] = Some(run_op(&mut session, op));
                    continue;
                };
                // Maximal run of predicts against one coordinate: one curve
                // solve answers them all, bit-identically to scalar predicts.
                let mut run = vec![(i, init)];
                while let Some(&(
                    j,
                    ShardOp::Predict {
                        host: h,
                        day_type: d,
                        window: w,
                        init,
                    },
                )) = ops.peek()
                {
                    if (h, d, w) != (host, day_type, window) {
                        break;
                    }
                    run.push((j, init));
                    ops.next();
                }
                let inits: Vec<State> = run.iter().map(|&(_, init)| init).collect();
                let results = session.predict_many(host, day_type, window, &inits);
                for (&(j, init), tr) in run.iter().zip(results) {
                    answers[j] = Some(Answer::Predict {
                        host,
                        day_type,
                        window,
                        init,
                        tr,
                    });
                }
            }
        }
        for answer in answers {
            self.write_answer(out, answer.expect("every batch op is answered"));
        }
    }

    /// Writes one op's reply line — the one formatter single and batched
    /// requests share.
    fn write_answer(&self, out: &mut JsonWriter, answer: Answer<'_>) {
        match answer {
            Answer::Ping => out.raw(PING_LINE),
            Answer::Error(e) => write_error_line(out, &e),
            Answer::Rejected(raw) => write_rejected_line(out, raw),
            Answer::Ingest(Ok(ack)) => write_ingest_line(out, &ack),
            Answer::Predict {
                host,
                day_type,
                window,
                init,
                tr: Ok(tr),
            } => {
                let degraded = self.predict_degraded(host);
                write_predict_line(out, host, window, day_type, init, tr, degraded);
            }
            // The reply is exactly the `fgcs sweep --json` document, so
            // serve answers can be byte-compared against the CLI.
            Answer::Sweep {
                day_type,
                window,
                init,
                points,
                curve: Ok(curve),
            } => match sweep_json(&curve, day_type, window, init, points) {
                Ok(doc) => {
                    out.raw(&doc.to_string());
                    out.raw_char('\n');
                }
                Err(msg) => write_error_line(out, &msg),
            },
            Answer::Ingest(Err(e))
            | Answer::Predict { tr: Err(e), .. }
            | Answer::Sweep { curve: Err(e), .. } => write_error_line(out, &e),
        }
    }

    /// The `stats` reply: registry counters, kernel-dedup effectiveness,
    /// and the pooled-buffer high-water marks.
    // lint: no-alloc
    fn write_stats_line(&self, out: &mut JsonWriter) {
        let stats = self.registry.stats();
        let hit_rate = if stats.kernel_dedup_lookups == 0 {
            0.0
        } else {
            stats.kernel_dedup_hits as f64 / stats.kernel_dedup_lookups as f64
        };
        out.raw("{\"ok\":true,\"op\":\"stats\"");
        write_u64_fields(
            out,
            &[
                ("shards", stats.shards as u64),
                ("hosts", stats.hosts as u64),
                ("days", stats.days as u64),
                ("log_records", stats.log_records as u64),
                ("kernel_dedup_hits", stats.kernel_dedup_hits),
                ("kernel_dedup_lookups", stats.kernel_dedup_lookups),
                ("kernel_dedup_entries", stats.kernel_dedup_entries as u64),
            ],
        );
        out.raw(",\"kernel_dedup_hit_rate\":");
        out.f64(hit_rate);
        write_u64_fields(
            out,
            &[
                ("read_buf_hwm", self.read_hwm.load(Ordering::Relaxed)),
                ("write_buf_hwm", self.write_hwm.load(Ordering::Relaxed)),
            ],
        );
        out.raw("}\n");
    }

    /// Whether predict replies for `host` must carry the degraded-quality
    /// tag: its shard recovered from a lock poisoned by a panicking
    /// request. Counts every tagged reply.
    fn predict_degraded(&self, host: u64) -> bool {
        let degraded = self
            .registry
            .shard_poisoned(self.registry.shard_index(host));
        if degraded {
            self.degraded_predictions.fetch_add(1, Ordering::Relaxed);
        }
        degraded
    }

    /// The `health` reply: logical uptime (requests handled, not wall
    /// clock — byte-stable under test), durability lag, poison and
    /// containment counters, connection accounting. What a load balancer
    /// or the chaos harness polls.
    // lint: no-alloc
    fn write_health_line(&self, out: &mut JsonWriter) {
        let stats = self.registry.stats();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        out.raw("{\"ok\":true,\"op\":\"health\"");
        write_u64_fields(
            out,
            &[
                ("uptime_ticks", load(&self.requests)),
                ("shards", stats.shards as u64),
                ("hosts", stats.hosts as u64),
            ],
        );
        out.raw(",\"durable\":");
        out.bool(stats.durable);
        write_u64_fields(
            out,
            &[
                ("wal_records", stats.wal_records),
                ("wal_synced_records", stats.wal_synced_records),
                ("snapshot_lag", stats.snapshot_lag),
                ("snapshots_written", stats.snapshots_written),
                ("poisoned_shards", stats.poisoned_shards as u64),
                ("degraded_predictions", load(&self.degraded_predictions)),
                ("panics", load(&self.panics)),
                ("active_connections", load(&self.active_connections)),
                ("shed_connections", load(&self.shed_connections)),
                ("oversize_lines", load(&self.oversize_lines)),
            ],
        );
        out.raw("}\n");
    }

    /// Graceful-stop durability hook: fsync the WALs and write fresh
    /// snapshots so a restart replays nothing. Failures are survivable
    /// (the WAL already holds every acknowledged ingest) and tracked by
    /// the registry's snapshot-failure counter.
    fn finalize(&self) {
        let _ = self.registry.sync_all();
        let _ = self.registry.snapshot_all();
    }

    /// Oneshot batch mode: handles request lines from `input` until EOF or
    /// a `shutdown` op, writing one reply line each to `output`. Returns
    /// whether a `shutdown` op was seen.
    pub fn serve_lines(
        &self,
        mut input: impl BufRead,
        mut output: impl Write,
    ) -> std::io::Result<bool> {
        let saw_shutdown = self.serve_stream(&mut input, &mut output)?;
        self.finalize();
        Ok(saw_shutdown)
    }

    /// The request loop both transports run: reads bounded lines from
    /// `input`, answers each non-blank one and writes (and flushes) its
    /// reply to `output`. Returns `Ok(true)` right after answering a
    /// `shutdown` op, `Ok(false)` at EOF or when a read deadline expires —
    /// a *clean* close: the peer idled past the timeout.
    ///
    /// One read buffer and one reply buffer serve the whole stream: both
    /// are cleared (capacity kept) between requests, so a warm request
    /// costs no per-line allocation — and the read buffer never grows past
    /// `max_line_bytes` (oversized lines are drained and answered with a
    /// structured `too_large` reply).
    fn serve_stream(&self, input: &mut impl BufRead, output: &mut impl Write) -> io::Result<bool> {
        let mut buf: Vec<u8> = Vec::new();
        let mut out = JsonWriter::new();
        loop {
            out.clear();
            let shutdown = match read_bounded_line(input, &mut buf, self.max_line_bytes) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e),
                Ok(LineRead::Eof) => return Ok(false),
                Ok(LineRead::TooLarge) => {
                    self.write_too_large(&mut out);
                    false
                }
                Ok(LineRead::Line) => match std::str::from_utf8(&buf) {
                    Err(_) => {
                        out.raw(BAD_UTF8_LINE);
                        false
                    }
                    Ok(text) => {
                        let trimmed = text.trim();
                        if trimmed.is_empty() {
                            continue;
                        }
                        self.handle_line_into(trimmed, &mut out)
                    }
                },
            };
            output.write_all(out.as_str().as_bytes())?;
            output.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
    }

    /// Renders the `too_large` shed reply and counts the rejection.
    // lint: no-alloc
    fn write_too_large(&self, out: &mut JsonWriter) {
        self.oversize_lines.fetch_add(1, Ordering::Relaxed);
        out.raw("{\"ok\":false,\"code\":\"too_large\",\"error\":\"request line exceeds ");
        out.u64(self.max_line_bytes as u64);
        out.raw(" bytes\"}\n");
    }

    /// TCP accept loop: one handler thread per connection, all sharing the
    /// registry. Blocks until some connection sends the `shutdown` op
    /// (acknowledged before the listener stops); shutdown then completes
    /// once every other open connection has drained or disconnected.
    /// Connection-level I/O errors (including read-deadline expiry) drop
    /// that connection only. Connections beyond `max_connections` are shed
    /// with a one-line `busy` reply without spawning a handler. On exit
    /// the WALs are fsynced and fresh snapshots written.
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if self.active_connections.load(Ordering::Acquire) >= self.max_connections as u64 {
                    self.shed_connections.fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    let _ = stream.write_all(BUSY_LINE.as_bytes());
                    continue; // dropping the stream closes it
                }
                // Only this loop increments, so the check above cannot be
                // raced past the limit; handler threads decrement through
                // the slot guard (released even if the handler errors).
                self.active_connections.fetch_add(1, Ordering::Release);
                let shutdown = &shutdown;
                scope.spawn(move || {
                    let _slot = ConnSlot(&self.active_connections);
                    let _ = self.handle_conn(stream, shutdown, addr);
                });
            }
        });
        self.finalize();
        Ok(())
    }

    fn handle_conn(
        &self,
        stream: TcpStream,
        shutdown: &AtomicBool,
        addr: SocketAddr,
    ) -> std::io::Result<()> {
        // Each reply leaves as soon as it is written: under Nagle, the
        // second reply of a pipelined pair would wait for the peer's
        // delayed ACK of the first (tens of milliseconds).
        stream.set_nodelay(true)?;
        // Deadlines on both directions: a peer that stops sending *or*
        // stops draining replies releases this thread at the timeout.
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.read_timeout)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        if self.serve_stream(&mut reader, &mut writer)? {
            shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop; the flag makes it exit before
            // serving the wake-up connection.
            let _ = TcpStream::connect(addr);
        }
        Ok(())
    }
}

/// RAII release of one TCP connection slot; `Drop` runs even when the
/// handler exits through an error, so abrupt disconnects never leak the
/// slot.
struct ConnSlot<'a>(&'a AtomicU64);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// The stream ended before any byte of a new line.
    Eof,
    /// `buf` holds one complete line (newline stripped), at most `max`
    /// bytes long.
    Line,
    /// The line exceeded `max` bytes; it has been drained (in buffered
    /// chunks, never materialized) up to and including its newline.
    TooLarge,
}

/// Reads one `\n`-terminated line into `buf`, never retaining more than
/// `max + 1` bytes: the bounded-memory replacement for
/// [`BufRead::read_line`] on untrusted transports. Oversized lines are
/// consumed to their end via [`BufRead::fill_buf`]/`consume` so the
/// connection can keep serving after the error reply.
fn read_bounded_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<LineRead> {
    buf.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: an unterminated final line still counts as a line.
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        // Accept at most one byte past `max`: enough to distinguish "fits
        // exactly" from "too long" without buffering the excess.
        let room = max + 1 - buf.len();
        if let Some(i) = chunk.iter().take(room).position(|&b| b == b'\n') {
            // Content length `buf.len() + i` ≤ `max` by the room bound.
            buf.extend_from_slice(&chunk[..i]);
            reader.consume(i + 1);
            return Ok(LineRead::Line);
        }
        let take_n = chunk.len().min(room);
        buf.extend_from_slice(&chunk[..take_n]);
        reader.consume(take_n);
        if buf.len() > max {
            break;
        }
    }
    // Oversized: drain to the newline (or EOF) without growing `buf`.
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                break;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
    Ok(LineRead::TooLarge)
}

/// Connects to `addr` with bounded retry and doubling backoff — the
/// client-side tolerance for a server still replaying its WAL (or not yet
/// listening). `sleep` is injected so tests observe the exact schedule
/// deterministically; production passes `std::thread::sleep`.
///
/// # Errors
/// Returns the last connection error, annotated with the attempt count,
/// after `attempts` failures.
pub fn connect_with_retry(
    addr: &str,
    attempts: u32,
    initial_delay: Duration,
    sleep: &mut dyn FnMut(Duration),
) -> Result<TcpStream, String> {
    let mut delay = initial_delay;
    let mut last_err = String::new();
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e.to_string(),
        }
        if attempt + 1 < attempts {
            sleep(delay);
            delay = delay.saturating_mul(2);
        }
    }
    Err(format!(
        "connecting {addr}: {last_err} (after {} attempts)",
        attempts.max(1)
    ))
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("registry", &self.registry)
            .field("read_hwm", &self.read_hwm.load(Ordering::Relaxed))
            .field("write_hwm", &self.write_hwm.load(Ordering::Relaxed))
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .field("panics", &self.panics.load(Ordering::Relaxed))
            .field(
                "active_connections",
                &self.active_connections.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

/// Decodes a digit-per-sample state string (`'1'`–`'5'` for S1–S5), the
/// wire encoding of one day of classified samples.
pub fn decode_states(digits: &str) -> Result<Vec<State>, String> {
    digits
        .bytes()
        .map(|b| match b {
            b'1'..=b'5' => Ok(State::from_index((b - b'1') as usize)),
            other => Err(format!(
                "invalid state digit {:?} (expected 1-5)",
                other as char
            )),
        })
        .collect()
}

/// Encodes one day of states as the wire digit string (inverse of
/// [`decode_states`]).
#[must_use]
pub fn encode_states(states: &[State]) -> String {
    states
        .iter()
        .map(|s| char::from(b'1' + s.index() as u8))
        .collect()
}

/// Parses `"weekday"`/`"weekend"` (the [`DayType`] display strings).
pub fn parse_day_type(s: &str) -> Result<DayType, String> {
    match s {
        "weekday" => Ok(DayType::Weekday),
        "weekend" => Ok(DayType::Weekend),
        other => Err(format!("day_type must be weekday or weekend, got {other}")),
    }
}

/// Parses an operational initial state (`"S1"`/`"S2"`, case-insensitive).
pub fn parse_init(s: &str) -> Result<State, String> {
    match s {
        "S1" | "s1" => Ok(State::S1),
        "S2" | "s2" => Ok(State::S2),
        other => Err(format!("init must be S1 or S2, got {other}")),
    }
}

/// Validating counterpart of [`TimeWindow::from_hours`]: protocol input
/// must produce an error line, never a panic.
pub fn parse_window(start: f64, hours: f64) -> Result<TimeWindow, String> {
    if !start.is_finite() || !hours.is_finite() || start < 0.0 || hours <= 0.0 {
        return Err(format!("invalid window: start {start}h + {hours}h"));
    }
    let start_secs = (start * 3600.0).round() as u32;
    let len_secs = (hours * 3600.0).round() as u32;
    if start_secs >= SECS_PER_DAY {
        return Err(format!("window must start within the day, got {start}h"));
    }
    if len_secs == 0 {
        return Err(format!("window too short: {hours}h rounds to 0s"));
    }
    if start_secs + len_secs > 2 * SECS_PER_DAY {
        return Err(format!(
            "window may cross at most one midnight: {start}h + {hours}h"
        ));
    }
    Ok(TimeWindow::new(start_secs, len_secs))
}

/// Renders a TR-vs-horizon sweep as a single JSON document: the evenly
/// spaced horizon grid of `fgcs sweep`, machine-readable.
///
/// This is the **shared** formatter behind both the `fgcs sweep --json`
/// CLI and the serve `sweep` reply — one code path, so the two outputs are
/// byte-identical over the same history (asserted in CI).
pub fn sweep_json(
    curve: &TrCurve,
    day_type: DayType,
    window: TimeWindow,
    init: State,
    points: usize,
) -> Result<Json, String> {
    if points == 0 {
        return Err("points must be positive".into());
    }
    let steps = curve.horizon_steps();
    let mut rows = Vec::with_capacity(points);
    for i in 1..=points {
        let m = i * steps / points;
        let tr = curve.tr(init, m).map_err(|e| e.to_string())?;
        let horizon_hr = m as f64 * f64::from(curve.step_secs()) / 3600.0;
        rows.push(Json::Obj(vec![
            ("steps".into(), Json::U64(m as u64)),
            ("horizon_hr".into(), Json::F64(horizon_hr)),
            ("tr".into(), Json::F64(tr)),
        ]));
    }
    Ok(Json::Obj(vec![
        ("window".into(), Json::Str(window.to_string())),
        ("day_type".into(), Json::Str(day_type.to_string())),
        ("init".into(), Json::Str(init.to_string())),
        ("step_secs".into(), Json::U64(u64::from(curve.step_secs()))),
        ("horizon_steps".into(), Json::U64(steps as u64)),
        ("points".into(), Json::Arr(rows)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::log::{DayLog, HistoryStore, StateLog};
    use fgcs_core::model::AvailabilityModel;
    use fgcs_core::predictor::SmpPredictor;

    fn server() -> Server {
        Server::new(&ServeConfig::default())
    }

    fn warm_server(host: u64, days: usize) -> Server {
        let s = server();
        let day = "1".repeat(14_400);
        for d in 0..days {
            let req = format!(
                "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{d},\"states\":\"{day}\"}}"
            );
            let reply = s.handle_line(&req);
            assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        }
        s
    }

    #[test]
    fn ping_stats_shutdown_roundtrip() {
        let s = server();
        assert_eq!(
            s.handle_line(r#"{"op":"ping"}"#).line,
            r#"{"ok":true,"op":"ping"}"#
        );
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.line.contains("\"hosts\":0"), "{}", stats.line);
        let bye = s.handle_line(r#"{"op":"shutdown"}"#);
        assert!(bye.shutdown);
        assert_eq!(bye.line, r#"{"ok":true,"op":"shutdown"}"#);
    }

    #[test]
    fn malformed_lines_become_error_replies() {
        let s = server();
        for bad in [
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"noop":1}"#,
            r#"{"op":"ingest","host":1,"states":"129"}"#,
            r#"{"op":"predict","host":1,"start":30.0,"hours":1.0}"#,
            r#"{"op":"predict","host":1,"start":9.0,"hours":-1.0}"#,
            r#"{"op":"predict","host":1,"start":9.0,"hours":1.0,"init":"S3"}"#,
        ] {
            let reply = s.handle_line(bad);
            assert!(
                reply.line.starts_with(r#"{"ok":false,"error":"#),
                "{bad} -> {}",
                reply.line
            );
            assert!(!reply.shutdown);
        }
    }

    #[test]
    fn ingest_then_predict_matches_oracle_bitwise() {
        let s = warm_server(5, 4);
        let reply = s.handle_line(r#"{"op":"predict","host":5,"start":9.0,"hours":2.0}"#);
        let json = Json::parse(&reply.line).unwrap();
        assert!(json.get::<bool>("ok").unwrap());
        let got: f64 = json.get("tr").unwrap();

        let model = AvailabilityModel::default();
        let mut history = HistoryStore::new();
        for d in 0..4 {
            history.push_day(DayLog::new(d, StateLog::new(6, vec![State::S1; 14_400])));
        }
        let want = SmpPredictor::new(model)
            .predict(
                &history,
                DayType::Weekday,
                TimeWindow::from_hours(9.0, 2.0),
                State::S1,
            )
            .unwrap();
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn sweep_reply_is_the_shared_formatter_output() {
        let s = warm_server(2, 5);
        let reply = s.handle_line(r#"{"op":"sweep","host":2,"start":9.0,"hours":2.0,"points":6}"#);
        assert!(
            reply.line.starts_with(r#"{"window":"09:00+2.00h""#),
            "{}",
            reply.line
        );
        let window = TimeWindow::from_hours(9.0, 2.0);
        let curve = s.registry().sweep(2, DayType::Weekday, window).unwrap();
        let want = sweep_json(&curve, DayType::Weekday, window, State::S1, 6)
            .unwrap()
            .to_string();
        assert_eq!(reply.line, want);
    }

    #[test]
    fn state_digit_codec_roundtrips() {
        let all = [State::S1, State::S2, State::S3, State::S4, State::S5];
        let digits = encode_states(&all);
        assert_eq!(digits, "12345");
        assert_eq!(decode_states(&digits).unwrap(), all);
        assert!(decode_states("120").is_err());
        assert_eq!(decode_states("").unwrap(), Vec::new());
    }

    #[test]
    fn window_validation_rejects_panicking_inputs() {
        assert!(parse_window(9.0, 2.0).is_ok());
        assert!(parse_window(23.0, 10.0).is_ok()); // one midnight: fine
        assert!(parse_window(24.0, 1.0).is_err());
        assert!(parse_window(-1.0, 1.0).is_err());
        assert!(parse_window(9.0, 0.0).is_err());
        assert!(parse_window(9.0, f64::NAN).is_err());
        assert!(parse_window(23.0, 26.0).is_err());
        assert!(parse_window(0.0, 1e-9).is_err());
    }

    #[test]
    fn oneshot_batch_processes_until_shutdown() {
        let s = server();
        let day = "1".repeat(14_400);
        let input = format!(
            "{{\"op\":\"ingest\",\"host\":1,\"states\":\"{day}\"}}\n\
             {{\"op\":\"ingest\",\"host\":1,\"states\":\"{day}\"}}\n\
             \n\
             {{\"op\":\"predict\",\"host\":1,\"start\":8.0,\"hours\":1.0}}\n\
             {{\"op\":\"shutdown\"}}\n\
             {{\"op\":\"ping\"}}\n"
        );
        let mut out = Vec::new();
        let saw_shutdown = s.serve_lines(input.as_bytes(), &mut out).unwrap();
        assert!(saw_shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        // Two ingest acks, one predict, one shutdown ack — the trailing
        // ping is never processed.
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("\"tr\":"));
        assert_eq!(lines[3], r#"{"ok":true,"op":"shutdown"}"#);
    }

    #[test]
    fn tcp_serve_answers_and_shuts_down() {
        let s = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.serve_tcp(&listener));
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            for (req, expect) in [
                (r#"{"op":"ping"}"#, r#"{"ok":true,"op":"ping"}"#),
                (r#"{"op":"shutdown"}"#, r#"{"ok":true,"op":"shutdown"}"#),
            ] {
                writeln!(writer, "{req}").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line.trim_end(), expect);
            }
            handle.join().unwrap().unwrap();
        });
    }

    /// Every request in `reqs` sent to a fresh server sequentially, and as
    /// one `batch` to another fresh server: the reply streams must match
    /// byte for byte.
    fn assert_batch_matches_sequential(warm: &dyn Fn() -> Server, reqs: &[String]) {
        let sequential = warm();
        let want: String = reqs
            .iter()
            .map(|r| {
                let mut line = sequential.handle_line(r).line;
                line.push('\n');
                line
            })
            .collect();

        let batched = warm();
        let batch = format!("{{\"op\":\"batch\",\"ops\":[{}]}}", reqs.join(","));
        let mut out = JsonWriter::new();
        assert!(!batched.handle_line_into(&batch, &mut out));
        assert_eq!(out.as_str(), want);
    }

    #[test]
    fn batch_replies_match_sequential_bitwise() {
        let day = "1".repeat(14_400);
        let warm = || {
            let s = server();
            for host in [0u64, 1, 2, 7, 8] {
                for d in 0..3 {
                    let _ = s.handle_line(&format!(
                        "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{d},\"states\":\"{day}\"}}"
                    ));
                }
            }
            s
        };
        let reqs: Vec<String> = vec![
            r#"{"op":"ping"}"#.into(),
            // A predict run on one coordinate (both inits) — answered from
            // one curve solve in the batch pipeline.
            r#"{"op":"predict","host":0,"start":9.0,"hours":2.0}"#.into(),
            r#"{"op":"predict","host":0,"start":9.0,"hours":2.0,"init":"S2"}"#.into(),
            // Same coordinate on other hosts and shards.
            r#"{"op":"predict","host":1,"start":9.0,"hours":2.0}"#.into(),
            r#"{"op":"predict","host":8,"start":9.0,"hours":2.0}"#.into(),
            // An ingest between predicts on the same host must stay ordered.
            format!("{{\"op\":\"ingest\",\"host\":2,\"day_index\":3,\"states\":\"{day}\"}}"),
            r#"{"op":"predict","host":2,"start":9.0,"hours":2.0}"#.into(),
            // Error replies ride along without poisoning the batch.
            r#"{"op":"predict","host":99,"start":9.0,"hours":2.0}"#.into(),
            r#"{"op":"predict","host":0,"start":9.0,"hours":-1.0}"#.into(),
            r#"{"op":"nope"}"#.into(),
            r#"{"op":"sweep","host":7,"start":9.0,"hours":2.0,"points":4}"#.into(),
        ];
        assert_batch_matches_sequential(&warm, &reqs);
    }

    #[test]
    fn batch_rejects_control_ops_and_empty_sets() {
        let s = server();
        let reply = s.handle_line(r#"{"op":"batch","ops":[]}"#);
        assert_eq!(
            reply.line,
            r#"{"ok":false,"error":"batch needs at least one op"}"#
        );
        let reply = s.handle_line(
            r#"{"op":"batch","ops":[{"op":"stats"},{"op":"shutdown"},{"op":"batch","ops":[{"op":"ping"}]},{"op":"ping"}]}"#,
        );
        assert!(!reply.shutdown);
        let lines: Vec<&str> = reply.line.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"ok":false,"error":"op `stats` not allowed inside batch"}"#,
                r#"{"ok":false,"error":"op `shutdown` not allowed inside batch"}"#,
                r#"{"ok":false,"error":"op `batch` not allowed inside batch"}"#,
                r#"{"ok":true,"op":"ping"}"#,
            ]
        );
        let reply = s.handle_line(r#"{"op":"batch"}"#);
        assert_eq!(
            reply.line,
            r#"{"ok":false,"error":"json error: missing field `ops`"}"#
        );
        let reply = s.handle_line(r#"{"op":"batch","ops":3}"#);
        assert_eq!(
            reply.line,
            r#"{"ok":false,"error":"json error: ops: expected array, found number"}"#
        );
    }

    #[test]
    fn escaped_requests_match_their_literal_twins() {
        // Escaped keys and strings decode into the request's arena, so an
        // escaped request gets exactly the bytes of its escape-free twin.
        let s = warm_server(3, 4);
        let predict = r#"{"op":"predict","host":3,"start":9.0,"hours":2.0,"init":"S1"}"#;
        for (literal, escaped) in [
            // An escaped key.
            (
                predict,
                r#"{"\u006fp":"predict","host":3,"start":9.0,"hours":2.0,"init":"S1"}"#,
            ),
            // An escaped `init`.
            (
                predict,
                r#"{"op":"predict","host":3,"start":9.0,"hours":2.0,"init":"\u0053\u0031"}"#,
            ),
            // A surrogate pair, in an unknown op and in an ignored field.
            (r#"{"op":"🦀"}"#, r#"{"op":"\ud83e\udd80"}"#),
            (
                r#"{"op":"ping","note":"🦀"}"#,
                r#"{"op":"ping","note":"\ud83e\udd80"}"#,
            ),
        ] {
            assert_eq!(
                s.handle_line(literal).line,
                s.handle_line(escaped).line,
                "{escaped}"
            );
        }

        // Escaped `op`s inside a batch take the shard-grouped pipeline and
        // answer like the literal batch and like sequential requests.
        let reqs = [
            r#"{"op":"predict","host":3,"start":9.0,"hours":2.0}"#,
            r#"{"op":"predict","host":3,"start":9.0,"hours":2.0,"init":"S2"}"#,
            r#"{"op":"sweep","host":3,"start":9.0,"hours":2.0,"points":3}"#,
            r#"{"op":"stats"}"#,
        ];
        let literal = format!("{{\"op\":\"batch\",\"ops\":[{}]}}", reqs.join(","));
        let escaped = literal
            .replace("\"predict\"", "\"pr\\u0065dict\"")
            .replace("\"sweep\"", "\"\\u0073weep\"");
        assert_ne!(literal, escaped);
        let want = s.handle_line(&literal).line;
        assert_eq!(s.handle_line(&escaped).line, want);
        let sequential: Vec<String> = reqs[..3].iter().map(|r| s.handle_line(r).line).collect();
        assert!(want.starts_with(&sequential.join("\n")), "{want}");

        // Escaped ingest states store the same day as their literal twin.
        let (a, b) = (warm_server(3, 4), warm_server(3, 4));
        let day = "12".repeat(7_200);
        let ingest = |digits: &str| {
            format!("{{\"op\":\"ingest\",\"host\":3,\"day_index\":4,\"states\":\"{digits}\"}}")
        };
        assert_eq!(
            a.handle_line(&ingest(&day)).line,
            b.handle_line(&ingest(&day.replace('2', "\\u0032"))).line
        );
        let sweep = r#"{"op":"sweep","host":3,"start":9.0,"hours":2.0}"#;
        assert_eq!(a.handle_line(sweep).line, b.handle_line(sweep).line);
    }

    #[test]
    fn rejected_lines_keep_their_error_bytes() {
        let s = server();
        for (req, want) in [
            (
                "[1]",
                r#"{"ok":false,"error":"json error: expected object with field `op`, found array"}"#,
            ),
            (
                "not json",
                r#"{"ok":false,"error":"bad request: json error: expected `null` at byte 0"}"#,
            ),
            (
                r#"{"op":"batch","ops":[3,{"op":"ping"}]}"#,
                "{\"ok\":false,\"error\":\"json error: expected object with field `op`, found number\"}\n\
                 {\"ok\":true,\"op\":\"ping\"}",
            ),
            (
                r#"{"op":"p\"x"}"#,
                r#"{"ok":false,"error":"unknown op `p\"x`"}"#,
            ),
            (
                "{\"op\":\"ping\",\"a\":\"tab\there\"}",
                r#"{"ok":false,"error":"bad request: json error: control character in string at byte 21"}"#,
            ),
        ] {
            assert_eq!(s.handle_line(req).line, want, "{req}");
        }
    }

    #[test]
    fn stats_reports_dedup_and_buffer_high_water_marks() {
        let s = warm_server(1, 3);
        for _ in 0..3 {
            let _ = s.handle_line(r#"{"op":"predict","host":1,"start":9.0,"hours":2.0}"#);
        }
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        let json = Json::parse(&stats.line).unwrap();
        let lookups: u64 = json.get("kernel_dedup_lookups").unwrap();
        let hits: u64 = json.get("kernel_dedup_hits").unwrap();
        let rate: f64 = json.get("kernel_dedup_hit_rate").unwrap();
        assert!(lookups >= 1, "{}", stats.line);
        assert!(hits <= lookups);
        assert!((0.0..=1.0).contains(&rate));
        // The ingest lines were the longest requests; the reply high-water
        // mark covers at least one full predict reply.
        let read_hwm: u64 = json.get("read_buf_hwm").unwrap();
        let write_hwm: u64 = json.get("write_buf_hwm").unwrap();
        assert!(read_hwm >= 14_400, "{}", stats.line);
        assert!(write_hwm >= 50, "{}", stats.line);
    }

    /// The `stats` and `health` bytes of a fixed durable session that
    /// moves every counter they report except the connection counts,
    /// pinned byte for byte: `ci.sh` and the wire benchmark parse them.
    #[test]
    fn stats_and_health_reply_bytes_are_pinned() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("fgcs-serve-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Server::open(&ServeConfig {
            shards: 4,
            data_dir: Some(dir.clone()),
            snapshot_every: 3,
            max_line_bytes: 20_000,
            debug_ops: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let day: String = (0..14_400)
            .map(|i| match i % 97 {
                70..=89 => '2',
                90..=93 => '3',
                _ => '1',
            })
            .collect();
        let mut input = String::new();
        for host in [3, 11] {
            for d in 0..4 {
                input += &format!(
                    "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{d},\"states\":\"{day}\"}}\n"
                );
            }
        }
        input += r#"{"op":"predict","host":3,"start":9.0,"hours":2.0}
{"op":"predict","host":11,"start":9.0,"hours":2.0}
{"op":"predict","host":3,"start":9.0,"hours":2.0,"init":"S2"}
{"op":"sweep","host":3,"start":9.0,"hours":2.0,"points":4}
{"op":"batch","ops":[{"op":"ping"},{"op":"predict","host":11,"start":13.0,"hours":1.0}]}
not json
{"op":"predict","host":99,"start":9.0,"hours":2.0}
"#;
        input += &"x".repeat(30_000);
        input += "\n{\"op\":\"debug_panic\"}\n{\"op\":\"host\",\"host\":11}\n";
        input += "{\"op\":\"stats\"}\n{\"op\":\"health\"}\n";
        let mut out = Vec::new();
        s.serve_lines(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let tail: Vec<&str> = text.lines().rev().take(2).collect();
        assert_eq!(
            tail[1],
            "{\"ok\":true,\"op\":\"stats\",\"shards\":4,\"hosts\":2,\"days\":8,\"log_records\":8,\
             \"kernel_dedup_hits\":1,\"kernel_dedup_lookups\":3,\"kernel_dedup_entries\":2,\
             \"kernel_dedup_hit_rate\":0.3333333333333333,\"read_buf_hwm\":14451,\"write_buf_hwm\":253}"
        );
        assert_eq!(
            tail[0],
            "{\"ok\":true,\"op\":\"health\",\"uptime_ticks\":19,\"shards\":4,\"hosts\":2,\
             \"durable\":true,\"wal_records\":8,\"wal_synced_records\":0,\"snapshot_lag\":2,\
             \"snapshots_written\":2,\"poisoned_shards\":0,\"degraded_predictions\":0,\"panics\":1,\
             \"active_connections\":0,\"shed_connections\":0,\"oversize_lines\":1}"
        );

        // Poison host 3's shard, then answer one degraded predict.
        let shard = s.registry().shard_index(3);
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _session = s.registry().session(shard);
                    panic!("deliberate test panic while holding the shard lock");
                })
                .join();
        });
        let predict = s.handle_line(r#"{"op":"predict","host":3,"start":9.0,"hours":2.0}"#);
        assert!(
            predict.line.ends_with(",\"quality\":\"stale\"}"),
            "{}",
            predict.line
        );
        assert_eq!(
            s.handle_line(r#"{"op":"stats"}"#).line,
            "{\"ok\":true,\"op\":\"stats\",\"shards\":4,\"hosts\":2,\"days\":8,\"log_records\":8,\
             \"kernel_dedup_hits\":1,\"kernel_dedup_lookups\":3,\"kernel_dedup_entries\":2,\
             \"kernel_dedup_hit_rate\":0.3333333333333333,\"read_buf_hwm\":14451,\"write_buf_hwm\":277}"
        );
        assert_eq!(
            s.handle_line(r#"{"op":"health"}"#).line,
            "{\"ok\":true,\"op\":\"health\",\"uptime_ticks\":22,\"shards\":4,\"hosts\":2,\
             \"durable\":true,\"wal_records\":8,\"wal_synced_records\":8,\"snapshot_lag\":0,\
             \"snapshots_written\":6,\"poisoned_shards\":1,\"degraded_predictions\":1,\"panics\":1,\
             \"active_connections\":0,\"shed_connections\":0,\"oversize_lines\":1}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_lines_get_structured_reply_and_session_continues() {
        let s = Server::open(&ServeConfig {
            max_line_bytes: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let big = "x".repeat(10_000);
        let input =
            format!("{{\"op\":\"ingest\",\"host\":1,\"states\":\"{big}\"}}\n{{\"op\":\"ping\"}}\n");
        let mut out = Vec::new();
        s.serve_lines(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            lines[0],
            "{\"ok\":false,\"code\":\"too_large\",\"error\":\"request line exceeds 64 bytes\"}"
        );
        // The oversized line was drained, not buffered: the session goes on.
        assert_eq!(lines[1], r#"{"ok":true,"op":"ping"}"#);
        let health = s.handle_line(r#"{"op":"health"}"#);
        assert!(
            health.line.contains("\"oversize_lines\":1"),
            "{}",
            health.line
        );
    }

    #[test]
    fn line_length_boundary_is_exact() {
        let s = Server::open(&ServeConfig {
            max_line_bytes: 32,
            ..ServeConfig::default()
        })
        .unwrap();
        // Exactly at the limit: still parsed (and rejected as non-JSON, not
        // as oversized). One byte past: the structured `too_large` reply.
        for (len, too_large) in [(32usize, false), (33, true)] {
            let input = format!("{}\n", "a".repeat(len));
            let mut out = Vec::new();
            s.serve_lines(input.as_bytes(), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert_eq!(text.contains("too_large"), too_large, "len {len}: {text}");
        }
    }

    #[test]
    fn non_utf8_lines_get_structured_reply() {
        let s = server();
        let mut input: Vec<u8> = vec![0xFF, 0xFE, b'\n'];
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut out = Vec::new();
        s.serve_lines(&input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], BAD_UTF8_LINE.trim_end());
        assert_eq!(lines[1], r#"{"ok":true,"op":"ping"}"#);
    }

    #[test]
    fn health_reports_liveness_and_durability_counters() {
        let s = warm_server(1, 2);
        let reply = s.handle_line(r#"{"op":"health"}"#);
        let json = Json::parse(&reply.line).unwrap();
        assert!(json.get::<bool>("ok").unwrap(), "{}", reply.line);
        // Logical uptime: two ingests plus this health request.
        assert_eq!(json.get::<u64>("uptime_ticks").unwrap(), 3);
        assert!(!json.get::<bool>("durable").unwrap());
        assert_eq!(json.get::<u64>("wal_records").unwrap(), 0);
        assert_eq!(json.get::<u64>("poisoned_shards").unwrap(), 0);
        assert_eq!(json.get::<u64>("degraded_predictions").unwrap(), 0);
        assert_eq!(json.get::<u64>("panics").unwrap(), 0);
        assert_eq!(json.get::<u64>("active_connections").unwrap(), 0);
        assert_eq!(json.get::<u64>("shed_connections").unwrap(), 0);
    }

    #[test]
    fn host_op_reports_stored_days() {
        let s = warm_server(6, 3);
        let reply = s.handle_line(r#"{"op":"host","host":6}"#);
        assert_eq!(reply.line, r#"{"ok":true,"op":"host","host":6,"days":3}"#);
        let reply = s.handle_line(r#"{"op":"host","host":7}"#);
        assert!(reply.line.starts_with(r#"{"ok":false"#), "{}", reply.line);
    }

    #[test]
    fn batch_rejects_health_and_host_ops() {
        // `health` and `host` answer from cross-shard state; allowing them
        // inside a batch would break the batch ≡ sequential byte identity.
        let s = server();
        let reply = s.handle_line(
            r#"{"op":"batch","ops":[{"op":"health"},{"op":"host","host":1},{"op":"ping"}]}"#,
        );
        let lines: Vec<&str> = reply.line.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"ok":false,"error":"op `health` not allowed inside batch"}"#,
                r#"{"ok":false,"error":"op `host` not allowed inside batch"}"#,
                r#"{"ok":true,"op":"ping"}"#,
            ]
        );
    }

    #[test]
    fn poisoned_shard_tags_predictions_stale() {
        let s = warm_server(9, 3);
        let healthy = s.handle_line(r#"{"op":"predict","host":9,"start":9.0,"hours":2.0}"#);
        assert!(!healthy.line.contains("quality"), "{}", healthy.line);

        // Poison the host's shard by panicking while holding its session.
        let shard = s.registry().shard_index(9);
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _session = s.registry().session(shard);
                    panic!("deliberate test panic while holding the shard lock");
                })
                .join();
        });

        // Same numeric answer, now tagged as degraded.
        let degraded = s.handle_line(r#"{"op":"predict","host":9,"start":9.0,"hours":2.0}"#);
        assert!(
            degraded.line.ends_with(",\"quality\":\"stale\"}"),
            "{}",
            degraded.line
        );
        assert_eq!(
            degraded.line.replace(",\"quality\":\"stale\"", ""),
            healthy.line
        );
        let health = s.handle_line(r#"{"op":"health"}"#);
        let json = Json::parse(&health.line).unwrap();
        assert_eq!(json.get::<u64>("poisoned_shards").unwrap(), 1);
        assert!(json.get::<u64>("degraded_predictions").unwrap() >= 1);
    }

    #[test]
    fn panicking_requests_are_contained() {
        let s = Server::open(&ServeConfig {
            debug_ops: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let reply = s.handle_line(r#"{"op":"debug_panic"}"#);
        assert_eq!(reply.line, PANIC_LINE.trim_end());
        assert!(!reply.shutdown);
        // The session (and the process) continues.
        assert_eq!(
            s.handle_line(r#"{"op":"ping"}"#).line,
            r#"{"ok":true,"op":"ping"}"#
        );
        let health = s.handle_line(r#"{"op":"health"}"#);
        assert!(health.line.contains("\"panics\":1"), "{}", health.line);

        // Without `debug_ops` the hook is an ordinary unknown op.
        let prod = server();
        let reply = prod.handle_line(r#"{"op":"debug_panic"}"#);
        assert!(
            reply.line.starts_with(r#"{"ok":false"#) && !reply.line.contains("panicked"),
            "{}",
            reply.line
        );
    }

    #[test]
    fn panic_rolls_back_half_written_reply_bytes() {
        let s = Server::open(&ServeConfig {
            debug_ops: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut out = JsonWriter::new();
        out.raw("prefix:");
        s.handle_line_into(r#"{"op":"debug_panic"}"#, &mut out);
        assert_eq!(out.as_str(), format!("prefix:{PANIC_LINE}"));
    }

    #[test]
    fn connect_with_retry_backs_off_deterministically() {
        // Bind-then-drop: the freed port refuses connections.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut delays = Vec::new();
        let err = connect_with_retry(&addr, 3, Duration::from_millis(7), &mut |d| {
            delays.push(d);
        })
        .unwrap_err();
        // Sleeps only between attempts, doubling: 7ms then 14ms.
        assert_eq!(
            delays,
            vec![Duration::from_millis(7), Duration::from_millis(14)]
        );
        assert!(err.contains("after 3 attempts"), "{err}");

        // First-try success never sleeps.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut delays = Vec::new();
        let stream = connect_with_retry(&addr, 3, Duration::from_millis(7), &mut |d| {
            delays.push(d);
        });
        assert!(stream.is_ok());
        assert!(delays.is_empty());
    }

    #[test]
    fn connection_limit_sheds_with_busy_reply() {
        let s = Server::open(&ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.serve_tcp(&listener));
            let first = TcpStream::connect(addr).unwrap();
            let mut first_reader = BufReader::new(first.try_clone().unwrap());
            let mut first_writer = first;
            let mut line = String::new();
            writeln!(first_writer, "{{\"op\":\"ping\"}}").unwrap();
            first_reader.read_line(&mut line).unwrap();
            assert_eq!(line, PING_LINE);

            // The only slot is held: the next connection is shed with a
            // structured `busy` reply, then closed.
            let second = TcpStream::connect(addr).unwrap();
            let mut second_reader = BufReader::new(second);
            line.clear();
            second_reader.read_line(&mut line).unwrap();
            assert_eq!(line, BUSY_LINE);
            line.clear();
            assert_eq!(second_reader.read_line(&mut line).unwrap(), 0);

            writeln!(first_writer, "{{\"op\":\"shutdown\"}}").unwrap();
            line.clear();
            first_reader.read_line(&mut line).unwrap();
            handle.join().unwrap().unwrap();
        });
        let health = s.handle_line(r#"{"op":"health"}"#);
        assert!(
            health.line.contains("\"shed_connections\":1"),
            "{}",
            health.line
        );
    }

    #[test]
    fn idle_connections_hit_the_read_deadline() {
        let s = Server::open(&ServeConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.serve_tcp(&listener));
            // Connect and send nothing: the deadline must disconnect us.
            let idle = TcpStream::connect(addr).unwrap();
            let mut idle_reader = BufReader::new(idle);
            let mut line = String::new();
            assert_eq!(idle_reader.read_line(&mut line).unwrap(), 0);
            // The server is still alive for punctual clients.
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writeln!(writer, "{{\"op\":\"ping\"}}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, PING_LINE);
            writeln!(writer, "{{\"op\":\"shutdown\"}}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            handle.join().unwrap().unwrap();
        });
    }

    #[test]
    fn pipelined_replies_are_not_held_back_by_nagle() {
        let s = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.serve_tcp(&listener));
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            // Lockstep warm-up: past the connection's initial quick-ACK
            // phase, the client delays its ACKs.
            for _ in 0..40 {
                writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
            }
            // Two pings per write: the second reply follows the first
            // while it is still unacknowledged.
            let mut waits = Vec::new();
            for _ in 0..10 {
                writer
                    .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n")
                    .unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                let second = std::time::Instant::now();
                line.clear();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line, PING_LINE);
                waits.push(second.elapsed());
            }
            writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            handle.join().unwrap().unwrap();
            waits.sort();
            assert!(waits[5] < Duration::from_millis(20), "{waits:?}");
        });
    }

    #[test]
    fn pooled_reply_buffer_reuses_capacity_across_requests() {
        let s = warm_server(4, 3);
        let mut out = JsonWriter::new();
        // Warm the buffer, then confirm repeats reuse the same capacity.
        s.handle_line_into(
            r#"{"op":"predict","host":4,"start":9.0,"hours":2.0}"#,
            &mut out,
        );
        let first = out.as_str().to_string();
        let cap = out.capacity();
        for _ in 0..10 {
            out.clear();
            s.handle_line_into(
                r#"{"op":"predict","host":4,"start":9.0,"hours":2.0}"#,
                &mut out,
            );
            assert_eq!(out.as_str(), first);
            assert_eq!(out.capacity(), cap);
        }
    }
}
