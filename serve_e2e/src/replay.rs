//! In-process replays of a run's exact request streams.
//!
//! * The **check** replays every stream through `Server::handle_line_into`
//!   and compares each reply's bytes (by hash) with what the TCP server
//!   sent.
//! * The **traced** replay decomposes requests into the calls the server
//!   makes, in its order, and records a span around each call into a
//!   layer's public functions: `JsonSlice::scan` and its getters,
//!   `decode_states`, `ShardedRegistry::session` (the lock wait), the
//!   `ShardSession` op and `sweep_json`. Every fourth request of each op
//!   goes through `handle_line_into` whole instead; those spans are the
//!   dispatch times the decomposed layers are held against.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fgcs::core::registry::{RegistryError, ShardedRegistry};
use fgcs::core::state::State;
use fgcs::core::window::{DayType, TimeWindow};
use fgcs::runtime::json::{JsonSlice, JsonWriter};
use fgcs::runtime::metrics::{self, Counter};
use fgcs::serve::{decode_states, parse_day_type, parse_init, parse_window, sweep_json, Server};

use crate::server::reply_hash;
use crate::workload::{Inputs, Op, Req};

/// One ordered request stream and the replies the TCP server sent for it.
pub type Stream<'a> = Vec<(&'a Req, u64)>;

/// A phase of the run: streams replayed in parallel, phases in order.
pub struct Phase<'a> {
    pub name: &'static str,
    pub timed: bool,
    pub streams: Vec<Stream<'a>>,
}

/// Replays every phase through `handle_line_into` on two threads and
/// returns the number of replies whose bytes differ from the TCP run's.
pub fn check(server: &Server, inputs: &Inputs, phases: &[Phase<'_>]) -> Result<usize, String> {
    let mut mismatches = 0;
    for phase in phases {
        let per_thread = split_two(&phase.streams);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = per_thread
                .iter()
                .map(|streams| {
                    s.spawn(move || {
                        let mut line = String::new();
                        let mut out = JsonWriter::new();
                        let mut bad = 0;
                        for stream in streams {
                            for (req, want) in stream.iter() {
                                line.clear();
                                inputs.render(req, &mut line);
                                out.clear();
                                server.handle_line_into(&line, &mut out);
                                if reply_hash(out.as_str().as_bytes()) != *want {
                                    if bad < 3 {
                                        eprintln!(
                                            "serve_e2e: {} reply mismatch for {:.120} -> {:.200}",
                                            phase.name,
                                            line,
                                            out.as_str()
                                        );
                                    }
                                    bad += 1;
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "replay thread panicked".to_string()))
                .collect::<Result<_, _>>()
        })?;
        mismatches += counts.iter().sum::<usize>();
    }
    Ok(mismatches)
}

/// Deals the streams to two threads, alternately.
fn split_two<'s, 'a>(streams: &'s [Stream<'a>]) -> [Vec<&'s Stream<'a>>; 2] {
    let mut out = [Vec::new(), Vec::new()];
    for (i, s) in streams.iter().enumerate() {
        out[i % 2].push(s);
    }
    out
}

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same thread's list (`u32::MAX` for
    /// a root).
    pub parent: u32,
    /// Request line length (for per-KB parse cost).
    pub bytes: u32,
}

/// Per-thread span recorder. A request's spans hang off its root span, so
/// the root's index is the request's id; spans stay in memory and are
/// aggregated when the run ends, never written out.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    bytes: u32,
}

impl Tracer {
    fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
            bytes: 0,
        }
    }

    fn open(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().map_or(u32::MAX, |&p| p as u32);
        let start = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            bytes: self.bytes,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx));
    }

    fn dur(&self, idx: usize) -> u64 {
        self.spans[idx].end - self.spans[idx].start
    }
}

/// What the traced replay measured.
pub struct Traced {
    pub spans: Vec<Vec<Span>>,
    /// Durations (ns) of the requests during which a snapshot was written.
    pub snapshot_ns: Vec<f64>,
    /// Counter deltas over the timed phase, by metric name.
    pub timed_counters: HashMap<String, u64>,
    pub timed_dedup_hits: u64,
    pub timed_dedup_lookups: u64,
    pub failures: usize,
}

/// Counters the traced replay reads at phase boundaries.
const COUNTERS: [&str; 9] = [
    "core.qh_cache.hits",
    "core.qh_cache.misses",
    "core.qh_cache.evictions",
    "core.registry.queries",
    "core.registry.incremental_rebuilds",
    "core.registry.fullscan_fallbacks",
    "core.registry.snapshots_written",
    "core.solver.fast_runs",
    "core.solver.fast_steps",
];

/// Replays the phases on `server` with spans. `threads` is 1 or 2; with
/// one thread a snapshot is attributed to the request during which the
/// registry's snapshot counter rose.
pub fn traced(
    server: &Server,
    inputs: &Inputs,
    phases: &[Phase<'_>],
    threads: usize,
) -> Result<Traced, String> {
    metrics::set_enabled(true);
    let reg = metrics::registry();
    let counters: Vec<Arc<Counter>> = COUNTERS.iter().map(|n| reg.counter(n)).collect();
    let misses = Arc::clone(&counters[1]);
    let snaps = Arc::clone(&counters[6]);
    let t0 = Instant::now();
    let mut tracers: Vec<Tracer> = (0..threads).map(|_| Tracer::new(t0)).collect();
    let mut out = Traced {
        spans: Vec::new(),
        snapshot_ns: Vec::new(),
        timed_counters: HashMap::new(),
        timed_dedup_hits: 0,
        timed_dedup_lookups: 0,
        failures: 0,
    };
    for phase in phases {
        let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
        let stats_before = server.registry().stats();
        let assigned: Vec<Vec<&Stream<'_>>> = if threads == 1 {
            vec![phase.streams.iter().collect()]
        } else {
            split_two(&phase.streams).into_iter().collect()
        };
        let results: Vec<(usize, Vec<f64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .zip(&assigned)
                .map(|(tracer, streams)| {
                    let misses = &misses;
                    let snaps = &snaps;
                    s.spawn(move || {
                        let mut failures = 0;
                        let mut snapshot_ns = Vec::new();
                        let mut per_op = [0usize; 5];
                        let mut line = String::new();
                        let mut out = JsonWriter::new();
                        for stream in streams {
                            for (req, _) in stream.iter() {
                                line.clear();
                                inputs.render(req, &mut line);
                                tracer.bytes = line.len() as u32;
                                let op = req.op();
                                per_op[op.index()] += 1;
                                let snaps_before = snaps.get();
                                let timed_idx = if per_op[op.index()] % 4 == 0 {
                                    let root = tracer.open(handle_span(op));
                                    out.clear();
                                    server.handle_line_into(&line, &mut out);
                                    tracer.close(root);
                                    if out.as_str().starts_with("{\"ok\":false") {
                                        failures += 1;
                                    }
                                    root
                                } else {
                                    match decomposed(server, op, &line, tracer, misses) {
                                        Ok(idx) => idx,
                                        Err(e) => {
                                            tracer.stack.clear();
                                            if failures < 3 {
                                                eprintln!("serve_e2e: traced request failed: {e}");
                                            }
                                            failures += 1;
                                            continue;
                                        }
                                    }
                                };
                                if threads == 1 && snaps.get() > snaps_before {
                                    snapshot_ns.push(tracer.dur(timed_idx) as f64);
                                }
                            }
                        }
                        (failures, snapshot_ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "traced replay thread panicked".to_string())
                })
                .collect::<Result<_, _>>()
        })?;
        for (failures, snapshot_ns) in results {
            out.failures += failures;
            if phase.timed {
                out.snapshot_ns.extend(snapshot_ns);
            }
        }
        if phase.timed {
            for (name, (c, b)) in COUNTERS.iter().zip(counters.iter().zip(&before)) {
                *out.timed_counters.entry((*name).to_string()).or_default() += c.get() - b;
            }
            let stats = server.registry().stats();
            out.timed_dedup_hits += stats.kernel_dedup_hits - stats_before.kernel_dedup_hits;
            out.timed_dedup_lookups +=
                stats.kernel_dedup_lookups - stats_before.kernel_dedup_lookups;
        }
    }
    metrics::set_enabled(false);
    out.spans = tracers.into_iter().map(|t| t.spans).collect();
    Ok(out)
}

fn handle_span(op: Op) -> &'static str {
    match op {
        Op::Ingest => "serve.handle.ingest",
        Op::Predict => "serve.handle.predict",
        Op::Sweep => "serve.handle.sweep",
        Op::Batch => "serve.handle.batch",
        Op::Host => "serve.handle.host",
    }
}

/// Decoded query coordinates, validated exactly as the server does.
fn coords<'a>(s: &JsonSlice<'a>) -> Result<(u64, DayType, TimeWindow, State), String> {
    let host = s.get_u64("host").map_err(|e| e.to_string())?;
    let start = s.get_f64("start").map_err(|e| e.to_string())?;
    let hours = s.get_f64("hours").map_err(|e| e.to_string())?;
    let day_type = match s.get_opt_str("day_type").map_err(|e| e.to_string())? {
        None => DayType::Weekday,
        Some(v) => parse_day_type(v)?,
    };
    let init = match s.get_opt_str("init").map_err(|e| e.to_string())? {
        None => State::S1,
        Some(v) => parse_init(v)?,
    };
    Ok((host, day_type, parse_window(start, hours)?, init))
}

fn reg_err(e: RegistryError) -> String {
    e.to_string()
}

/// One request as the server's layers see it, each call in its own span
/// under a `serve.request.<op>` root. Returns the index of the span that
/// holds the registry work (for snapshot attribution).
fn decomposed(
    server: &Server,
    op: Op,
    line: &str,
    tr: &mut Tracer,
    misses: &Counter,
) -> Result<usize, String> {
    let reg: &ShardedRegistry = server.registry();
    let (root_name, scan_name) = match op {
        Op::Ingest => ("serve.request.ingest", "json.scan.ingest"),
        Op::Predict => ("serve.request.predict", "json.scan.predict"),
        Op::Sweep => ("serve.request.sweep", "json.scan.sweep"),
        Op::Batch => ("serve.request.batch", "json.scan.batch"),
        Op::Host => return Err("the host op is not traced".into()),
    };
    let root = tr.open(root_name);
    let scan = tr.open(scan_name);
    let slice = JsonSlice::scan(line).ok_or("request is not an escape-free object")?;
    let op = slice.get_str("op").map_err(|e| e.to_string())?;
    let work = match op {
        "ingest" => {
            let host = slice.get_u64("host").map_err(|e| e.to_string())?;
            let day_index = slice.get_opt_u64("day_index").map_err(|e| e.to_string())?;
            let digits = slice.get_str("states").map_err(|e| e.to_string())?;
            tr.close(scan);
            let d = tr.open("serve.decode_states");
            let states = decode_states(digits)?;
            tr.close(d);
            let l = tr.open("registry.lock_wait");
            let mut session = reg.session(reg.shard_index(host));
            tr.close(l);
            let w = tr.open("registry.ingest");
            session
                .ingest_day(host, day_index.map(|d| d as usize), states)
                .map_err(reg_err)?;
            tr.close(w);
            w
        }
        "predict" => {
            let (host, day_type, window, init) = coords(&slice)?;
            tr.close(scan);
            let l = tr.open("registry.lock_wait");
            let mut session = reg.session(reg.shard_index(host));
            tr.close(l);
            let before = misses.get();
            let w = tr.open("registry.predict");
            session
                .predict(host, day_type, window, init)
                .map_err(reg_err)?;
            tr.close(w);
            tr.spans[w].name = if misses.get() > before {
                "registry.predict_miss"
            } else {
                "registry.predict_hit"
            };
            w
        }
        "sweep" => {
            let (host, day_type, window, init) = coords(&slice)?;
            let points = slice
                .get_opt_u64("points")
                .map_err(|e| e.to_string())?
                .unwrap_or(12) as usize;
            tr.close(scan);
            let l = tr.open("registry.lock_wait");
            let mut session = reg.session(reg.shard_index(host));
            tr.close(l);
            let w = tr.open("registry.sweep");
            let curve = session.sweep(host, day_type, window).map_err(reg_err)?;
            tr.close(w);
            drop(session);
            let j = tr.open("serve.sweep_json");
            let doc = sweep_json(&curve, day_type, window, init, points)?.to_string();
            std::hint::black_box(doc);
            tr.close(j);
            w
        }
        _ => {
            let mut items = Vec::new();
            for raw in slice.array("ops").map_err(|e| e.to_string())? {
                let el = JsonSlice::element_object(raw).ok_or("batch element is not an object")?;
                el.get_str("op").map_err(|e| e.to_string())?;
                items.push(coords(&el)?);
            }
            tr.close(scan);
            let mut sharded: Vec<Vec<(u64, DayType, TimeWindow, State)>> =
                vec![Vec::new(); reg.shard_count()];
            for item in items {
                sharded[reg.shard_index(item.0)].push(item);
            }
            let mut last = root;
            for ops in sharded.iter().filter(|ops| !ops.is_empty()) {
                let l = tr.open("registry.lock_wait");
                let mut session = reg.session(reg.shard_index(ops[0].0));
                tr.close(l);
                let mut k = 0;
                while k < ops.len() {
                    let (h, dt, w, _) = ops[k];
                    let end = k + ops[k..]
                        .iter()
                        .take_while(|o| o.0 == h && o.1 == dt && o.2 == w)
                        .count();
                    let inits: Vec<State> = ops[k..end].iter().map(|o| o.3).collect();
                    let m = tr.open("registry.predict_many");
                    for r in session.predict_many(h, dt, w, &inits) {
                        r.map_err(reg_err)?;
                    }
                    tr.close(m);
                    last = m;
                    k = end;
                }
            }
            last
        }
    };
    tr.close(root);
    Ok(work)
}
