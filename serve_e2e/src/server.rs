//! The server under test as a child process, and the wire client.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A scratch directory removed with everything in it when dropped, on every
/// exit path including a panic.
pub struct ScratchDir {
    pub path: PathBuf,
}

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes scratch directories (`serve_e2e-<pid>`) left under `parent` by
/// runs that were killed before they could clean up, first killing the
/// server each recorded in its `server.pid` if that process still runs.
pub fn remove_stale(parent: &Path) {
    let Ok(entries) = std::fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix("serve_e2e-")) else {
            continue;
        };
        if Path::new("/proc").join(pid).exists() {
            continue;
        }
        let dir = entry.path();
        if let Ok(server) = std::fs::read_to_string(dir.join("server.pid")) {
            let server = server.trim();
            let cmdline = std::fs::read(format!("/proc/{server}/cmdline")).unwrap_or_default();
            let dir_arg = dir.to_string_lossy().into_owned();
            if String::from_utf8_lossy(&cmdline).contains(&dir_arg) {
                let _ = Command::new("kill").args(["-9", server]).status();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A running `fgcs serve` child. Dropping it kills the process and waits
/// for it, so no exit path of the benchmark leaks a server holding a WAL
/// or a port.
pub struct ServerProc {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub pid: u32,
}

impl ServerProc {
    /// Spawns `fgcs serve` on an ephemeral loopback port and waits until it
    /// announces its address (a durable server recovers before that).
    pub fn spawn(
        fgcs: &Path,
        shards: usize,
        data_dir: Option<&Path>,
        metrics_out: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let mut cmd = Command::new(fgcs);
        if let Some(m) = metrics_out {
            cmd.arg("--metrics-out").arg(m);
        }
        cmd.args(["serve", "--port", "0", "--shards", &shards.to_string()]);
        if let Some(d) = data_dir {
            cmd.arg("--data-dir").arg(d);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", fgcs.display()))?;
        let pid = child.id();
        if let Some(dir) = metrics_out.and_then(Path::parent) {
            let _ = std::fs::write(dir.join("server.pid"), pid.to_string());
        }
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServerProc {
            child: Some(child),
            _stdout: BufReader::new(stdout),
            addr: String::new(),
            pid,
        };
        let mut line = String::new();
        proc._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("server did not start (banner {line:?})"))?
            .to_string();
        Ok(proc)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("reading server status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in server status")?;
        Ok(kb / 1024.0)
    }

    /// Sends `shutdown` and waits for the process to exit cleanly; returns
    /// the time from the request to the exit.
    pub fn shutdown(mut self) -> Result<Duration, String> {
        let t0 = Instant::now();
        let mut conn = Conn::connect(&self.addr)?;
        let reply = conn.call_line("{\"op\":\"shutdown\"}")?;
        if reply != "{\"ok\":true,\"op\":\"shutdown\"}" {
            return Err(format!("unexpected shutdown reply {reply:?}"));
        }
        drop(conn);
        let mut child = self.child.take().expect("child is live until shutdown");
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        let elapsed = t0.elapsed();
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(elapsed)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Hash of one request's reply bytes: what the correctness check compares.
pub fn reply_hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Whether a reply line reports a failed or refused op.
pub fn is_error(line: &str) -> bool {
    line.starts_with("{\"ok\":false")
}

/// A lockstep or pipelined client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        let read = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, read),
            writer: std::io::BufWriter::with_capacity(1 << 16, stream),
            line: String::new(),
        })
    }

    /// Splits into a write half and a read half for pipelining.
    pub fn split(self) -> (std::io::BufWriter<TcpStream>, Replies) {
        (
            self.writer,
            Replies {
                reader: self.reader,
                line: self.line,
            },
        )
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.queue(line)?;
        self.flush()
    }

    /// Buffers one request line; [`flush`](Conn::flush) sends it.
    pub fn queue(&mut self, line: &str) -> Result<(), String> {
        write_line(&mut self.writer, line)
    }

    pub fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("sending: {e}"))
    }

    /// Reads `lines` reply lines; returns their hash and how many report
    /// an error.
    pub fn recv(&mut self, lines: usize) -> Result<(u64, u32), String> {
        read_replies(&mut self.reader, &mut self.line, lines)
    }

    /// One lockstep single-line request; returns the reply line.
    pub fn call_line(&mut self, req: &str) -> Result<String, String> {
        self.send(req)?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(self.line.trim_end().to_string())
    }
}

/// The read half of a pipelined connection.
pub struct Replies {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Replies {
    /// Reads one request's reply lines, then re-arms `TCP_QUICKACK` (Linux
    /// drops it on its own): a pipelining client that delays its ACKs makes
    /// a server without `TCP_NODELAY` hold each reply behind the previous
    /// one until the ACK timer fires, which would measure the client's TCP
    /// stack instead of the server.
    pub fn recv(&mut self, lines: usize) -> Result<(u64, u32), String> {
        let out = read_replies(&mut self.reader, &mut self.line, lines);
        let _ = self.reader.get_ref().set_quickack(true);
        out
    }
}

pub fn write_line(w: &mut impl Write, line: &str) -> Result<(), String> {
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("sending: {e}"))
}

fn read_replies(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    lines: usize,
) -> Result<(u64, u32), String> {
    let mut h = DefaultHasher::new();
    let mut failed = 0;
    for _ in 0..lines {
        line.clear();
        let n = reader
            .read_line(line)
            .map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        failed += u32::from(is_error(line));
        h.write(line.as_bytes());
    }
    Ok((h.finish(), failed))
}
