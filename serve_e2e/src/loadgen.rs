//! Load generation over loopback TCP: pipelined set-up streams, closed
//! loops and the open loop.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::server::{write_line, Conn};
use crate::workload::{Inputs, Req};

/// Reply hash and count of error lines of each request, in request order.
pub type Replies = Vec<(u64, u32)>;

/// Requests a set-up connection keeps in flight. Their replies (a few KB)
/// always fit the socket buffers, so the server never blocks writing to a
/// client that is itself blocked writing.
const WINDOW: usize = 32;

/// Sends `reqs` on one connection from one thread, keeping up to
/// [`WINDOW`] requests in flight.
pub fn pipelined(addr: &str, inputs: &Inputs, reqs: &[Req]) -> Result<Replies, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = Vec::with_capacity(reqs.len());
    let mut line = String::new();
    for (i, req) in reqs.iter().enumerate() {
        line.clear();
        inputs.render(req, &mut line);
        conn.queue(&line)?;
        if i + 1 - out.len() >= WINDOW {
            conn.flush()?;
            out.push(conn.recv(reqs[out.len()].reply_lines())?);
        }
    }
    conn.flush()?;
    while out.len() < reqs.len() {
        out.push(conn.recv(reqs[out.len()].reply_lines())?);
    }
    Ok(out)
}

/// Both set-up connections at once, one thread each.
pub fn pipelined_pair(
    addr: &str,
    inputs: &Inputs,
    reqs: &[Vec<Req>; 2],
) -> Result<[Replies; 2], String> {
    std::thread::scope(|s| {
        let a = s.spawn(|| pipelined(addr, inputs, &reqs[0]));
        let b = pipelined(addr, inputs, &reqs[1]);
        let a = a
            .join()
            .map_err(|_| "set-up connection panicked".to_string())?;
        Ok([a?, b?])
    })
}

/// One closed-loop connection's record.
pub struct Closed {
    pub reqs: Vec<Req>,
    pub lat_ns: Vec<f64>,
    /// When each reply completed.
    pub done: Vec<Instant>,
    pub replies: Replies,
    pub end: Instant,
}

/// Sends the connection's request stream in lockstep until `deadline`.
pub fn closed_loop(
    addr: &str,
    inputs: &Inputs,
    conn_idx: usize,
    deadline: Instant,
) -> Result<Closed, String> {
    let mut conn = Conn::connect(addr)?;
    let mut rng = inputs.closed_loop_rng(conn_idx);
    let mut out = Closed {
        reqs: Vec::new(),
        lat_ns: Vec::new(),
        done: Vec::new(),
        replies: Vec::new(),
        end: Instant::now(),
    };
    let mut line = String::new();
    while Instant::now() < deadline {
        let req = inputs.next_closed(&mut rng);
        line.clear();
        inputs.render(&req, &mut line);
        let t = Instant::now();
        conn.send(&line)?;
        let reply = conn.recv(req.reply_lines())?;
        let now = Instant::now();
        out.lat_ns.push((now - t).as_nanos() as f64);
        out.done.push(now);
        out.replies.push(reply);
        out.reqs.push(req);
    }
    out.end = Instant::now();
    Ok(out)
}

/// The open loop's record.
pub struct Open {
    /// Latency of each request from the time it was due.
    pub lat_ns: Vec<f64>,
    /// How late the generator issued each request.
    pub lag_ns: Vec<f64>,
    pub replies: Replies,
    /// Requests sent but not answered when the last one fell due.
    pub backlog_end: usize,
}

/// Issues `reqs` at a fixed rate on one pipelined connection. A scheduler
/// thread hands each request to a writer thread when it falls due, so a
/// server stall delays the replies (timed from the due time) but never the
/// schedule.
pub fn open_loop(
    addr: &str,
    inputs: &Inputs,
    reqs: &[Req],
    interval: Duration,
) -> Result<Open, String> {
    let (mut w, mut r) = Conn::connect(addr)?.split();
    let answered = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + interval * i as u32;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<String>();
        let writer = s.spawn(move || -> Result<(), String> {
            for line in rx {
                write_line(&mut w, &line)?;
                w.flush().map_err(|e| format!("sending: {e}"))?;
            }
            Ok(())
        });
        let answered = &answered;
        let scheduler = s.spawn(move || {
            let mut lag_ns = Vec::with_capacity(reqs.len());
            for (i, req) in reqs.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag_ns.push(Instant::now().saturating_duration_since(at).as_nanos() as f64);
                let mut line = String::new();
                inputs.render(req, &mut line);
                if tx.send(line).is_err() {
                    break;
                }
            }
            let backlog_end = reqs.len() - answered.load(Ordering::Acquire);
            (lag_ns, backlog_end)
        });
        let mut lat_ns = Vec::with_capacity(reqs.len());
        let mut replies = Vec::with_capacity(reqs.len());
        let mut err = None;
        for (i, req) in reqs.iter().enumerate() {
            match r.recv(req.reply_lines()) {
                Ok(x) => {
                    lat_ns.push(Instant::now().saturating_duration_since(due(i)).as_nanos() as f64);
                    replies.push(x);
                    answered.fetch_add(1, Ordering::Release);
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let (lag_ns, backlog_end) = scheduler
            .join()
            .map_err(|_| "open-loop scheduler panicked".to_string())?;
        let sent = writer
            .join()
            .map_err(|_| "open-loop writer panicked".to_string())?;
        if let Some(e) = err {
            return Err(e);
        }
        sent?;
        Ok(Open {
            lat_ns,
            lag_ns,
            replies,
            backlog_end,
        })
    })
}
