//! `serve_e2e`: a wire-level, layer-attributed benchmark of `fgcs serve`.
//!
//! One run spawns the release `fgcs serve` as a child process, sets it up
//! (several times, reporting the median set-up time), drives one workload
//! over loopback TCP for `--seconds`, checks every reply against an
//! in-process `Server::handle_line_into` replay of the same inputs, and
//! prints every metric with its unit and sample count. The last stdout
//! line is the JSON result: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced in-process replay with `--trace 1`.
//! See `serve_e2e/README.md` for the workloads and what each metric judges.

mod layers;
mod loadgen;
mod replay;
mod server;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fgcs::core::registry::{RegistryConfig, ShardedRegistry};
use fgcs::runtime::json::Json;
use fgcs::serve::{ServeConfig, Server};

use loadgen::Replies;
use replay::{Phase, Stream};
use server::{Conn, ScratchDir, ServerProc};
use stats::{max, Report};
use workload::{Inputs, Kind, Op, Req, Spec};

const USAGE: &str =
    "usage: serve_e2e --fgcs PATH --workload predict_hot|ingest_durable|schedule_cold \
--seed N --seconds S --trace 0|1";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The end-to-end metrics of the result line (`--trace 0`). Each workload
/// fills the tail latency with its own primary request; see the README.
/// `latency_p50_us` is reported but not on the result line: in the open
/// loop it moves with host scheduling noise by several times between runs.
const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "latency_tail_us", "server_rss_mb"];

/// The per-layer metrics of the result line (`--trace 1`). A value the
/// workload does not exercise, or a percentile with fewer than ten samples
/// beyond it, is written as 0; the report lines above it say which.
const PER_LAYER: [&str; 48] = [
    "serve.transport_us.p50",
    "serve.handle.predict_ns.p50",
    "serve.handle.sweep_ns.p50",
    "serve.handle.ingest_ns.p50",
    "serve.handle.batch_ns.p50",
    "serve.decode_states_ns.p50",
    "serve.sweep_json_ns.p50",
    "json.scan_ns.p50",
    "json.scan_ns_per_kb",
    "registry.lock_wait_ns.p99",
    "registry.ingest_ns.p50",
    "registry.ingest_ns.p999",
    "registry.ingest_ns.max",
    "registry.predict_hit_ns.p50",
    "registry.predict_miss_ns.p50",
    "registry.predict_many_ns.p50",
    "registry.sweep_ns.p50",
    "registry.snapshots",
    "registry.snapshot_ms.p50",
    "registry.snapshot_ms.max",
    "registry.recover_s",
    "cache.qh_hit_ratio",
    "cache.qh_evictions",
    "cache.kernel_dedup_hit_ratio",
    "solver.runs_per_query",
    "estimator.sync_ns.p50",
    "estimator.params_ns.p50",
    "estimator.full_scan_ns.p50",
    "registry.incremental_rebuilds",
    "registry.fullscan_fallbacks",
    "solver.tr_ns.p50",
    "solver.curve_ns.p50",
    "solver.steps",
    "wal.append_ns.p50",
    "wal.fsync_ms.p50",
    "wal.fsyncs",
    "wal.bytes_per_user_byte",
    "loadgen.lag_ms.p99",
    "trace.coverage",
    "server.qh_hits",
    "server.qh_misses",
    "server.qh_evictions",
    "server.fullscan_fallbacks",
    "server.incremental_rebuilds",
    "server.wal_appends",
    "server.snapshots_written",
    "server.solver_fast_runs",
    "server.solver_fast_steps",
];

/// Server counters exported by `--metrics-out`, under their report names.
const SERVER_COUNTS: [(&str, &str); 9] = [
    ("server.qh_hits", "core.qh_cache.hits"),
    ("server.qh_misses", "core.qh_cache.misses"),
    ("server.qh_evictions", "core.qh_cache.evictions"),
    (
        "server.fullscan_fallbacks",
        "core.registry.fullscan_fallbacks",
    ),
    (
        "server.incremental_rebuilds",
        "core.registry.incremental_rebuilds",
    ),
    ("server.wal_appends", "core.registry.wal_appends"),
    (
        "server.snapshots_written",
        "core.registry.snapshots_written",
    ),
    ("server.solver_fast_runs", "core.solver.fast_runs"),
    ("server.solver_fast_steps", "core.solver.fast_steps"),
];

/// Open-loop validity limits: the generator may issue a request at most
/// this late (p99), and leave at most this share of the schedule
/// unanswered when the last request falls due.
const MAX_LAG_P99_MS: f64 = 20.0;
const MAX_BACKLOG_SHARE: f64 = 0.02;

struct Args {
    fgcs: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let num = |flag: &str| -> Result<u64, String> {
        need(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        fgcs: PathBuf::from(need("--fgcs")?),
        workload: need("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("serve_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Wire ops sent and error replies received, over the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, reqs: &[Req], replies: &Replies) {
        self.attempted += reqs.iter().map(|r| r.wire_ops() as u64).sum::<u64>();
        self.failed += replies.iter().map(|&(_, f)| u64::from(f)).sum::<u64>();
    }
}

/// What the timed phase produced.
struct Timed {
    /// Request streams in the order each connection sent them.
    streams: Vec<(Vec<Req>, Replies)>,
    lat_ns: [Vec<f64>; 5],
    /// Completion time of each latency sample, in seconds into the phase.
    done_s: [Vec<f64>; 5],
    /// Closed loops only: wire ops completed in each window.
    window_ops: Vec<f64>,
    wire_ops: u64,
    elapsed: Duration,
    /// Open loop only: how long the server had a request in hand, summed
    /// over requests from the time each could start (sent, and the previous
    /// reply received) to its reply. A lockstep client would need this long.
    busy: Duration,
    /// Open loop only: generator lag per request and backlog at the end.
    lag_ns: Vec<f64>,
    backlog_end: usize,
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let durable = spec.kind == Kind::IngestDurable;
    let t = Instant::now();
    let inputs = Inputs::new(spec, args.seed);
    println!(
        "inputs: {} pool days, built in {:.3} s",
        inputs.pool.len(),
        t.elapsed().as_secs_f64()
    );
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let tmp = cwd.join(".bench_tmp");
    server::remove_stale(&tmp);
    let scratch = ScratchDir::create(tmp.join(format!("serve_e2e-{}", std::process::id())))?;
    let preload = inputs.preload();
    let warm = inputs.warm();
    let mut tally = Tally::default();
    let mut problems: Vec<String> = Vec::new();
    let mut e2e = Report::default();

    // Set-up, several times over; the last server stays for the timed phase.
    let mut setup_s = Vec::new();
    let mut reference: Option<([Replies; 2], [Replies; 2])> = None;
    let mut kept = None;
    for i in 0..SETUPS {
        let data = durable.then(|| scratch.path.join(format!("data-{i}")));
        let metrics_out = scratch.path.join(format!("metrics-{i}.json"));
        let t = Instant::now();
        let proc = ServerProc::spawn(&args.fgcs, spec.shards, data.as_deref(), Some(&metrics_out))?;
        let pre = loadgen::pipelined_pair(&proc.addr, &inputs, &preload)?;
        let wrm = loadgen::pipelined_pair(&proc.addr, &inputs, &warm)?;
        setup_s.push(t.elapsed().as_secs_f64());
        for k in 0..2 {
            tally.add(&preload[k], &pre[k]);
            tally.add(&warm[k], &wrm[k]);
        }
        match &reference {
            None => reference = Some((pre, wrm)),
            Some(r) if *r != (pre, wrm) => {
                problems.push(format!("set-up {i} replies differ from set-up 0's"))
            }
            Some(_) => {}
        }
        if i + 1 < SETUPS {
            drop(proc);
            if let Some(d) = data {
                let _ = std::fs::remove_dir_all(d);
            }
        } else {
            kept = Some((proc, data, metrics_out));
        }
    }
    let (reference, (proc, data, metrics_out)) = (
        reference.expect("at least one set-up ran"),
        kept.expect("the last set-up is kept"),
    );
    let mut setup_sorted = setup_s.clone();
    setup_sorted.sort_unstable_by(f64::total_cmp);
    e2e.put("setup_s", Some(setup_sorted[SETUPS / 2]), "s", SETUPS);

    // Timed phase. Dirty pages left by set-up are flushed first, so the
    // durable timed phase does not pay for earlier writes.
    if durable {
        flush_page_cache()?;
    }
    let snaps_before = health_u64(&proc.addr, "snapshots_written")?;
    let timed = timed_phase(args, &inputs, &proc.addr)?;
    for (reqs, replies) in &timed.streams {
        tally.add(reqs, replies);
    }
    let snaps_timed = health_u64(&proc.addr, "snapshots_written")? - snaps_before;
    let stats_line = Conn::connect(&proc.addr)?.call_line("{\"op\":\"stats\"}")?;
    println!("server stats after the timed phase: {stats_line}");

    // Durable: the answers a restart must reproduce.
    let finals = if durable {
        inputs.final_predicts()
    } else {
        Vec::new()
    };
    let final_pre = if durable {
        let r = loadgen::pipelined(&proc.addr, &inputs, &finals)?;
        tally.add(&finals, &r);
        r
    } else {
        Vec::new()
    };
    let rss_mb = proc.peak_rss_mb()?;
    let shutdown_s = proc.shutdown()?.as_secs_f64();
    let server_counts = read_server_counts(&metrics_out)?;

    // The workload's own metrics, over the whole timed phase.
    let ops_per_s = timed.wire_ops as f64 / timed.elapsed.as_secs_f64();
    e2e.put(
        "timed_ops_per_s",
        Some(ops_per_s),
        "1/s",
        timed.wire_ops as usize,
    );
    let (primary, own): (Op, &[(&str, Op, f64)]) = match spec.kind {
        Kind::PredictHot => (
            Op::Predict,
            &[
                ("predict_p50_us", Op::Predict, 0.5),
                ("predict_p99_us", Op::Predict, 0.99),
                ("sweep_p50_us", Op::Sweep, 0.5),
            ],
        ),
        Kind::ScheduleCold => (
            Op::Batch,
            &[
                ("batch_p50_ms", Op::Batch, 0.5),
                ("batch_p95_ms", Op::Batch, 0.95),
                ("batch_p99_ms", Op::Batch, 0.99),
            ],
        ),
        Kind::IngestDurable => (
            Op::Ingest,
            &[
                ("ingest_p50_us", Op::Ingest, 0.5),
                ("ingest_p99_us", Op::Ingest, 0.99),
                ("ingest_p999_us", Op::Ingest, 0.999),
                ("predict_p50_us", Op::Predict, 0.5),
                ("predict_p99_us", Op::Predict, 0.99),
            ],
        ),
    };
    for &(name, op, q) in own {
        let (scale, unit) = if name.ends_with("_ms") {
            (1e-6, "ms")
        } else {
            (1e-3, "us")
        };
        e2e.pct(name, &mut timed.lat_ns[op.index()].clone(), q, scale, unit);
    }
    // The result line's metrics. A closed loop's throughput and median
    // latency are medians over the phase's windows; every tail comes from
    // the whole phase, so a stall in a few windows still moves it.
    let (lat_p, done_p) = (
        &timed.lat_ns[primary.index()],
        &timed.done_s[primary.index()],
    );
    let windows = timed.window_ops.len();
    let mut per_window = vec![Vec::new(); windows];
    for (&v, &t) in lat_p.iter().zip(done_p) {
        if let Some(w) = per_window.get_mut((t / stats::WINDOW_S) as usize) {
            w.push(v);
        }
    }
    let window_p50: Vec<String> = per_window
        .iter_mut()
        .map(|w| stats::percentile(w, 0.5).map_or("-".into(), |v| format!("{:.0}", v * 1e-3)))
        .collect();
    println!(
        "timed {} p50 per window (us): {}",
        primary_name(primary),
        window_p50.join(" ")
    );
    // The open loop sends at the schedule's rate; its `ops_per_s` is the
    // server's capacity instead: ops over the time the server had one in
    // hand, snapshot stalls included.
    let (ops, ops_n, p50, tail) = match spec.kind {
        Kind::IngestDurable => (
            Some(timed.wire_ops as f64 / timed.busy.as_secs_f64()),
            timed.wire_ops as usize,
            stats::windowed(lat_p, done_p, windows, 0.5).map(|v| v * 1e-3),
            e2e.get("ingest_p99_us"),
        ),
        _ => {
            println!("timed wire ops/s per window: {:?}", timed.window_ops);
            let mut w = timed.window_ops.clone();
            w.sort_unstable_by(f64::total_cmp);
            let p50 = stats::windowed(lat_p, done_p, windows, 0.5);
            let tail = if spec.kind == Kind::PredictHot {
                e2e.get("predict_p99_us")
            } else {
                e2e.get("batch_p95_ms").map(|v| v * 1e3)
            };
            (
                (!w.is_empty()).then(|| stats::median_sorted(&w)),
                windows,
                p50.map(|v| v * 1e-3),
                tail,
            )
        }
    };
    e2e.put("ops_per_s", ops, "1/s", ops_n);
    e2e.put("latency_p50_us", p50, "us", lat_p.len());
    e2e.put("latency_tail_us", tail, "us", lat_p.len());
    e2e.put("server_rss_mb", Some(rss_mb), "MB", 1);
    e2e.put("shutdown_s", Some(shutdown_s), "s", 1);

    if durable {
        e2e.put(
            "loadgen.offered_share_of_capacity",
            ops.map(|capacity| ops_per_s / capacity),
            "ratio",
            ops_n,
        );
        let mut lag = timed.lag_ns.clone();
        let lag_p99 = stats::percentile(&mut lag, 0.99).map(|v| v * 1e-6);
        let backlog_limit = (MAX_BACKLOG_SHARE * timed.lag_ns.len() as f64) as usize;
        e2e.put("loadgen.lag_ms.p99", lag_p99, "ms", timed.lag_ns.len());
        e2e.put(
            "loadgen.backlog_end",
            Some(timed.backlog_end as f64),
            "count",
            1,
        );
        if lag_p99.is_none_or(|l| l > MAX_LAG_P99_MS) || timed.backlog_end > backlog_limit {
            problems.push(format!(
                "open loop invalid: generator lag p99 {lag_p99:?} ms (limit {MAX_LAG_P99_MS}), \
                 backlog at the end {} (limit {backlog_limit})",
                timed.backlog_end
            ));
        }
        // Every shard crosses the snapshot cadence at least twice: the
        // per-shard WAL record counts are fixed by the balanced host set.
        let snapshot_every = ServeConfig::default().snapshot_every;
        let per_shard_before = (spec.hosts / spec.shards * spec.preload_days) as u64;
        let per_shard_after =
            per_shard_before + (spec.hosts / spec.shards * spec.timed_days) as u64;
        let expected_per_shard =
            per_shard_after / snapshot_every - per_shard_before / snapshot_every;
        e2e.count("snapshots_in_timed_phase", snaps_timed);
        if expected_per_shard < 2 || snaps_timed != expected_per_shard * spec.shards as u64 {
            problems.push(format!(
                "expected {expected_per_shard} snapshots on each of {} shards in the timed phase, saw {snaps_timed} in all",
                spec.shards
            ));
        }
    }

    // Durable: data on disk, restart, recovery checks.
    if let Some(data) = &data {
        let disk = dir_bytes(data)?;
        let user = (spec.hosts * (spec.preload_days + spec.timed_days)) as u64 * inputs.day_bytes();
        e2e.put(
            "disk_bytes_per_user_byte",
            Some(disk as f64 / user as f64),
            "ratio",
            1,
        );
        let t = Instant::now();
        let restart_metrics = scratch.path.join("metrics-restart.json");
        let restarted =
            ServerProc::spawn(&args.fgcs, spec.shards, Some(data), Some(&restart_metrics))?;
        let pong = Conn::connect(&restarted.addr)?.call_line("{\"op\":\"ping\"}")?;
        let recovery_s = t.elapsed().as_secs_f64();
        if pong != "{\"ok\":true,\"op\":\"ping\"}" {
            problems.push(format!("restarted server answered ping with {pong}"));
        }
        e2e.put("recovery_s", Some(recovery_s), "s", 1);
        let want_days = spec.preload_days + spec.timed_days;
        let mut conn = Conn::connect(&restarted.addr)?;
        let mut line = String::new();
        let mut wrong_days = 0;
        for host in 0..spec.hosts as u32 {
            line.clear();
            inputs.render(&Req::Host { host }, &mut line);
            let reply = conn.call_line(&line)?;
            tally.attempted += 1;
            let days = Json::parse(&reply)
                .ok()
                .and_then(|j| j.field("days").ok().and_then(Json::as_u64));
            if days != Some(want_days as u64) {
                wrong_days += 1;
            }
        }
        if wrong_days > 0 {
            problems.push(format!(
                "{wrong_days} hosts recovered a day count other than the {want_days} acked"
            ));
        }
        let final_post = loadgen::pipelined(&restarted.addr, &inputs, &finals)?;
        tally.add(&finals, &final_post);
        if final_post != final_pre {
            problems.push("predictions after recovery differ from those before shutdown".into());
        }
        drop(restarted);
    }

    let error_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    e2e.put(
        "error_share",
        Some(error_share),
        "ratio",
        tally.attempted as usize,
    );
    if tally.failed > 0 {
        problems.push(format!(
            "{} of {} ops failed",
            tally.failed, tally.attempted
        ));
    }

    // Correctness: every reply byte-identical to an in-process replay.
    let phases = replay_phases(
        &inputs, &preload, &reference, &warm, &timed, &finals, &final_pre,
    );
    let checker = Server::new(&ServeConfig {
        shards: spec.shards,
        ..ServeConfig::default()
    });
    let mismatches = replay::check(&checker, &inputs, &phases)?;
    drop(checker);
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} replies differ from the in-process replay"
        ));
    }

    println!(
        "workload {} seed {} seconds {} ({} hosts, {} shards, set-up times {setup_s:?} s)",
        spec.name, args.seed, args.seconds, spec.hosts, spec.shards
    );
    e2e.print("end_to_end");
    for (name, v) in &server_counts {
        println!("server_count {name} = {v}");
    }
    println!(
        "check replies_compared={} mismatches={mismatches}",
        phases
            .iter()
            .map(|p| p.streams.iter().map(Vec::len).sum::<usize>())
            .sum::<usize>()
    );
    for p in &problems {
        println!("problem: {p}");
    }

    let metrics_json = if args.trace {
        let layer = traced_layers(
            &inputs,
            &phases,
            &timed,
            &e2e,
            data.as_deref(),
            &scratch.path,
            &server_counts,
        )?;
        layer.0.print("per_layer");
        if layer.1 > 0 {
            problems.push(format!("{} traced requests failed", layer.1));
        }
        layer.0.json_object(&PER_LAYER)?
    } else {
        for name in END_TO_END {
            if e2e.get(name).is_none() {
                problems.push(format!("end-to-end metric {name} has too few samples"));
            }
        }
        e2e.json_object(&END_TO_END)?
    };
    let ok = problems.is_empty();
    Ok((
        format!(
            "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
            tally.attempted, tally.failed
        ),
        ok,
    ))
}

fn timed_phase(args: &Args, inputs: &Inputs, addr: &str) -> Result<Timed, String> {
    let mut out = Timed {
        streams: Vec::new(),
        lat_ns: Default::default(),
        done_s: Default::default(),
        window_ops: vec![0.0; (args.seconds as f64 / stats::WINDOW_S) as usize],
        wire_ops: 0,
        elapsed: Duration::ZERO,
        busy: Duration::ZERO,
        lag_ns: Vec::new(),
        backlog_end: 0,
    };
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(args.seconds);
    match inputs.spec.kind {
        Kind::PredictHot | Kind::ScheduleCold => {
            let conns = if inputs.spec.kind == Kind::PredictHot {
                2
            } else {
                1
            };
            let runs: Vec<loadgen::Closed> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..conns)
                    .map(|c| s.spawn(move || loadgen::closed_loop(addr, inputs, c, deadline)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| "closed-loop connection panicked".to_string())?
                    })
                    .collect::<Result<_, _>>()
            })?;
            out.elapsed = runs.iter().map(|r| r.end).max().unwrap_or(t0) - t0;
            for run in runs {
                for ((req, lat), done) in run.reqs.iter().zip(&run.lat_ns).zip(&run.done) {
                    let at = (*done - t0).as_secs_f64();
                    out.lat_ns[req.op().index()].push(*lat);
                    out.done_s[req.op().index()].push(at);
                    out.wire_ops += req.wire_ops() as u64;
                    // Spread each request's ops over the windows its round
                    // trip overlapped, so a window's rate is not quantized to
                    // whole requests.
                    let start = at - lat * 1e-9;
                    let rate = req.wire_ops() as f64 / (at - start).max(1e-9);
                    let first = (start.max(0.0) / stats::WINDOW_S) as usize;
                    for (k, w) in out.window_ops.iter_mut().enumerate().skip(first) {
                        let lo = (k as f64 * stats::WINDOW_S).max(start);
                        let hi = ((k + 1) as f64 * stats::WINDOW_S).min(at);
                        if hi <= lo {
                            break;
                        }
                        *w += rate * (hi - lo) / stats::WINDOW_S;
                    }
                }
                out.streams.push((run.reqs, run.replies));
            }
        }
        Kind::IngestDurable => {
            let schedule = inputs.durable_schedule();
            let interval = Duration::from_secs(args.seconds) / schedule.len() as u32;
            let open = loadgen::open_loop(addr, inputs, &schedule, interval)?;
            let (mut prev_reply, mut busy_s) = (0.0, 0.0);
            for (i, ((req, lat), lag)) in schedule
                .iter()
                .zip(&open.lat_ns)
                .zip(&open.lag_ns)
                .enumerate()
            {
                let due = (interval * i as u32).as_secs_f64();
                let reply = due + lat * 1e-9;
                busy_s += (reply - (due + lag * 1e-9).max(prev_reply)).max(0.0);
                prev_reply = reply;
                out.lat_ns[req.op().index()].push(*lat);
                out.done_s[req.op().index()].push(reply);
                out.wire_ops += req.wire_ops() as u64;
            }
            out.elapsed = Duration::from_secs_f64(prev_reply);
            out.busy = Duration::from_secs_f64(busy_s);
            out.lag_ns = open.lag_ns;
            out.backlog_end = open.backlog_end;
            out.streams.push((schedule, open.replies));
        }
    }
    Ok(out)
}

/// The run's request streams as replay phases. Streams keep each host's
/// requests in order; the timed phase's single open-loop stream is split
/// by host parity, and a single closed-loop stream (read-only) in halves.
fn replay_phases<'a>(
    inputs: &Inputs,
    preload: &'a [Vec<Req>; 2],
    reference: &'a ([Replies; 2], [Replies; 2]),
    warm: &'a [Vec<Req>; 2],
    timed: &'a Timed,
    finals: &'a [Req],
    final_pre: &'a Replies,
) -> Vec<Phase<'a>> {
    let zip = |reqs: &'a [Req], replies: &'a Replies| -> Stream<'a> {
        reqs.iter().zip(replies.iter().map(|r| r.0)).collect()
    };
    let by_parity = |stream: Stream<'a>| -> Vec<Stream<'a>> {
        let mut out = vec![Vec::new(), Vec::new()];
        for (req, h) in stream {
            let host = match req {
                Req::Ingest { host, .. }
                | Req::Predict { host, .. }
                | Req::Sweep { host, .. }
                | Req::Host { host } => *host,
                Req::Batch(_) => 0,
            };
            out[host as usize % 2].push((req, h));
        }
        out
    };
    let mut timed_streams = Vec::new();
    for (reqs, replies) in &timed.streams {
        let stream = zip(reqs, replies);
        match inputs.spec.kind {
            Kind::IngestDurable => timed_streams.extend(by_parity(stream)),
            Kind::ScheduleCold => {
                let mid = stream.len() / 2;
                timed_streams.push(stream[..mid].to_vec());
                timed_streams.push(stream[mid..].to_vec());
            }
            Kind::PredictHot => timed_streams.push(stream),
        }
    }
    let mut phases = vec![
        Phase {
            name: "preload",
            timed: false,
            streams: vec![
                zip(&preload[0], &reference.0[0]),
                zip(&preload[1], &reference.0[1]),
            ],
        },
        Phase {
            name: "warm",
            timed: false,
            streams: vec![
                zip(&warm[0], &reference.1[0]),
                zip(&warm[1], &reference.1[1]),
            ],
        },
        Phase {
            name: "timed",
            timed: true,
            streams: timed_streams,
        },
    ];
    if !finals.is_empty() {
        phases.push(Phase {
            name: "final",
            timed: false,
            streams: by_parity(zip(finals, final_pre)),
        });
    }
    phases
}

/// The traced run: per-layer metrics from spans, the lower-layer replays
/// and the real server's counts. Returns the report and the number of
/// traced requests that failed.
fn traced_layers(
    inputs: &Inputs,
    phases: &[Phase<'_>],
    timed: &Timed,
    e2e: &Report,
    data: Option<&Path>,
    scratch: &Path,
    server_counts: &[(String, u64)],
) -> Result<(Report, usize), String> {
    let spec: Spec = inputs.spec;
    let durable = spec.kind == Kind::IngestDurable;
    let trace_data = scratch.join("trace-data");
    let server = Server::open(&ServeConfig {
        shards: spec.shards,
        data_dir: durable.then(|| trace_data.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("opening the traced server: {e}"))?;
    // The replay runs on as many threads as the timed phase had
    // connections, so lock waits match what the server saw. With one
    // thread, snapshot attribution is exact.
    let threads = if spec.kind == Kind::PredictHot { 2 } else { 1 };
    let traced = replay::traced(&server, inputs, phases, threads)?;
    drop(server);
    let _ = std::fs::remove_dir_all(&trace_data);
    let mut spans = layers::aggregate(&traced.spans);
    let (coverage, per_op) = spans.coverage();
    let mut r = Report::default();

    // Transport: client round trip minus the whole-request dispatch time.
    let mut handle = [
        spans.take("serve.handle.predict"),
        spans.take("serve.handle.sweep"),
        spans.take("serve.handle.ingest"),
        spans.take("serve.handle.batch"),
    ];
    let primary = match spec.kind {
        Kind::PredictHot => 0,
        Kind::IngestDurable => 2,
        Kind::ScheduleCold => 3,
    };
    let mut rtt =
        timed.lat_ns[[Op::Predict, Op::Sweep, Op::Ingest, Op::Batch][primary].index()].clone();
    let transport = match (
        stats::percentile(&mut rtt, 0.5),
        stats::percentile(&mut handle[primary].clone(), 0.5),
    ) {
        (Some(a), Some(b)) => Some((a - b) * 1e-3),
        _ => None,
    };
    r.put(
        "serve.transport_us.p50",
        transport,
        "us",
        rtt.len().min(handle[primary].len()),
    );
    for (i, op) in ["predict", "sweep", "ingest", "batch"].iter().enumerate() {
        r.pct(
            &format!("serve.handle.{op}_ns.p50"),
            &mut handle[i],
            0.5,
            1.0,
            "ns",
        );
    }
    r.pct(
        "serve.decode_states_ns.p50",
        &mut spans.take("serve.decode_states"),
        0.5,
        1.0,
        "ns",
    );
    r.pct(
        "serve.sweep_json_ns.p50",
        &mut spans.take("serve.sweep_json"),
        0.5,
        1.0,
        "ns",
    );
    r.pct(
        "json.scan_ns.p50",
        &mut spans.take("json.scan.predict"),
        0.5,
        1.0,
        "ns",
    );
    let mut per_kb = std::mem::take(&mut spans.scan_ns_per_kb);
    r.pct("json.scan_ns_per_kb", &mut per_kb, 0.5, 1.0, "ns/KB");
    r.pct(
        "registry.lock_wait_ns.p99",
        &mut spans.take("registry.lock_wait"),
        0.99,
        1.0,
        "ns",
    );
    let mut ingest = spans.take("registry.ingest");
    r.pct("registry.ingest_ns.p50", &mut ingest, 0.5, 1.0, "ns");
    r.pct("registry.ingest_ns.p999", &mut ingest, 0.999, 1.0, "ns");
    r.put("registry.ingest_ns.max", max(&ingest), "ns", ingest.len());
    r.pct(
        "registry.predict_hit_ns.p50",
        &mut spans.take("registry.predict_hit"),
        0.5,
        1.0,
        "ns",
    );
    r.pct(
        "registry.predict_miss_ns.p50",
        &mut spans.take("registry.predict_miss"),
        0.5,
        1.0,
        "ns",
    );
    r.pct(
        "registry.predict_many_ns.p50",
        &mut spans.take("registry.predict_many"),
        0.5,
        1.0,
        "ns",
    );
    r.pct(
        "registry.sweep_ns.p50",
        &mut spans.take("registry.sweep"),
        0.5,
        1.0,
        "ns",
    );

    // Snapshots and recovery.
    let c = |name: &str| traced.timed_counters.get(name).copied().unwrap_or(0);
    r.count("registry.snapshots", c("core.registry.snapshots_written"));
    let mut snap = traced.snapshot_ns.clone();
    r.pct("registry.snapshot_ms.p50", &mut snap, 0.5, 1e-6, "ms");
    r.put(
        "registry.snapshot_ms.max",
        max(&snap).map(|v| v * 1e-6),
        "ms",
        snap.len(),
    );
    let recover_s = match data {
        Some(dir) => {
            let t = Instant::now();
            let reg = ShardedRegistry::open(RegistryConfig {
                shards: spec.shards,
                data_dir: Some(dir.to_path_buf()),
                ..RegistryConfig::default()
            })
            .map_err(|e| format!("recovering {}: {e}", dir.display()))?;
            let s = t.elapsed().as_secs_f64();
            drop(reg);
            Some(s)
        }
        None => None,
    };
    r.put(
        "registry.recover_s",
        recover_s,
        "s",
        usize::from(recover_s.is_some()),
    );

    // Caches, over the timed phase.
    let (hits, misses) = (c("core.qh_cache.hits"), c("core.qh_cache.misses"));
    r.put(
        "cache.qh_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        (hits + misses) as usize,
    );
    r.count("cache.qh_evictions", c("core.qh_cache.evictions"));
    r.put(
        "cache.kernel_dedup_hit_ratio",
        ratio(traced.timed_dedup_hits, traced.timed_dedup_lookups),
        "ratio",
        traced.timed_dedup_lookups as usize,
    );
    let queries = c("core.registry.queries");
    r.put(
        "solver.runs_per_query",
        ratio(c("core.solver.fast_runs"), queries),
        "ratio",
        queries as usize,
    );

    // Estimator and solver, replayed directly.
    let mut lower = layers::estimator_and_solver(inputs);
    r.pct("estimator.sync_ns.p50", &mut lower.sync_ns, 0.5, 1.0, "ns");
    r.pct(
        "estimator.params_ns.p50",
        &mut lower.params_ns,
        0.5,
        1.0,
        "ns",
    );
    r.pct(
        "estimator.full_scan_ns.p50",
        &mut lower.full_scan_ns,
        0.5,
        1.0,
        "ns",
    );
    r.count(
        "registry.incremental_rebuilds",
        c("core.registry.incremental_rebuilds"),
    );
    r.count(
        "registry.fullscan_fallbacks",
        c("core.registry.fullscan_fallbacks"),
    );
    r.pct("solver.tr_ns.p50", &mut lower.tr_ns, 0.5, 1.0, "ns");
    r.pct("solver.curve_ns.p50", &mut lower.curve_ns, 0.5, 1.0, "ns");
    r.count("solver.steps", c("core.solver.fast_steps"));

    // WAL, replayed at the server's fsync cadence (durable workload only).
    if durable {
        let defaults = ServeConfig::default();
        layers::wal(
            inputs,
            &timed.streams[0].0,
            scratch,
            defaults.fsync_every,
            &mut lower,
        )?;
    }
    r.pct(
        "wal.append_ns.p50",
        &mut lower.wal_append_ns,
        0.5,
        1.0,
        "ns",
    );
    r.pct("wal.fsync_ms.p50", &mut lower.wal_fsync_ns, 0.5, 1e-6, "ms");
    r.count("wal.fsyncs", lower.wal_fsync_ns.len() as u64);
    r.put(
        "wal.bytes_per_user_byte",
        lower.wal_bytes_per_user_byte,
        "ratio",
        usize::from(lower.wal_bytes_per_user_byte.is_some()),
    );

    let lag = e2e.metrics.iter().find(|m| m.name == "loadgen.lag_ms.p99");
    r.put(
        "loadgen.lag_ms.p99",
        lag.and_then(|m| m.value),
        "ms",
        lag.map_or(0, |m| m.n),
    );
    r.put("trace.coverage", coverage, "ratio", per_op.len());
    for (op, cov) in per_op {
        println!("trace coverage {op} = {cov}");
    }
    for (name, v) in server_counts {
        r.count(name, *v);
    }
    Ok((r, traced.failures))
}

/// Writes every dirty page in the system back to disk (`sync(1)`).
fn flush_page_cache() -> Result<(), String> {
    let status = std::process::Command::new("sync")
        .status()
        .map_err(|e| format!("running sync: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("sync exited with {status}"))
    }
}

fn primary_name(op: Op) -> &'static str {
    match op {
        Op::Ingest => "ingest",
        Op::Predict => "predict",
        Op::Sweep => "sweep",
        Op::Batch => "batch",
        Op::Host => "host",
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// A counter from the server's `health` reply.
fn health_u64(addr: &str, field: &str) -> Result<u64, String> {
    let line = Conn::connect(addr)?.call_line("{\"op\":\"health\"}")?;
    Json::parse(&line)
        .ok()
        .and_then(|j| j.field(field).ok().and_then(Json::as_u64))
        .ok_or_else(|| format!("health reply lacks {field}: {line}"))
}

/// The server's exported counters (absent ones never fired: 0).
fn read_server_counts(path: &Path) -> Result<Vec<(String, u64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing the metrics export: {e}"))?;
    let counters = json
        .field("counters")
        .map_err(|e| format!("metrics export: {e}"))?;
    Ok(SERVER_COUNTS
        .iter()
        .map(|(name, key)| {
            let v = counters.field(key).ok().and_then(Json::as_u64).unwrap_or(0);
            ((*name).to_string(), v)
        })
        .collect())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
