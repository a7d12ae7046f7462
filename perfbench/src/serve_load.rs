//! The serve workloads: an in-process `dcdiff-serve` `Server` on loopback
//! driven by a closed loop of keep-alive connections.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dcdiff_serve::http::{parse_status_line, read_message, write_request};
use dcdiff_serve::{ServeConfig, Server};
use dcdiff_telemetry::Telemetry;

use crate::scenes::{References, Scene, Workload};

/// Largest response the client accepts (a 128×128 PPM is 48 KiB).
const MAX_RESPONSE: usize = 16 << 20;

/// Client-side response timeout; far above any served latency, so hitting
/// it means the server stalled.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Span the client records around each request in a traced window.
pub const SPAN_CLIENT_REQUEST: &str = "perfbench.client.request";

/// The server's own breakdown of one request (`Server-Timing`), in ms.
#[derive(Debug, Clone, Copy)]
pub struct ServerTiming {
    pub queue: f64,
    pub exec: f64,
    pub total: f64,
}

impl ServerTiming {
    fn parse(header: &str) -> Option<ServerTiming> {
        let dur = |name: &str| -> Option<f64> {
            header
                .split(',')
                .map(str::trim)
                .find_map(|part| part.strip_prefix(name)?.strip_prefix(";dur=")?.parse().ok())
        };
        Some(ServerTiming {
            queue: dur("queue")?,
            exec: dur("exec")?,
            total: dur("total")?,
        })
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
    pub timing: ServerTiming,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// Front door (client wall − server total), queue and exec, in ms.
    pub fn breakdown(&self) -> [f64; 3] {
        [
            self.latency_ms() - self.timing.total,
            self.timing.queue,
            self.timing.exec,
        ]
    }
}

/// The served configuration: shipped defaults except for the bind address
/// (any free loopback port) and the spool directory (inside the work dir).
pub fn config(workload: Workload, spool: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        spool_dir: spool.to_path_buf(),
        method: workload.method(),
        ..ServeConfig::default()
    }
}

/// Closed-loop client count: one per hardware thread, capped by the
/// server's per-client in-flight limit so no request is refused with 429
/// (every connection comes from the same loopback address).
pub fn connections(cfg: &ServeConfig) -> usize {
    crate::sys::nproc().min(cfg.per_client_inflight).max(1)
}

/// Bind a server with `tel`, and return it once one warm-up request has
/// been served and checked, with the set-up time.
pub fn start(
    cfg: &ServeConfig,
    tel: Telemetry,
    scenes: &[Scene],
    refs: &References,
) -> Result<(Server, Duration), String> {
    let started = Instant::now();
    let server = Server::bind_with(cfg.clone(), tel).map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::open(server.local_addr())?;
    conn.recover(0, scenes, refs)?;
    Ok((server, started.elapsed()))
}

/// Drain a server and confirm it shut down cleanly.
pub fn stop(server: Server) -> Result<(), String> {
    let report = server.drain();
    if report.abandoned_connections > 0 {
        return Err(format!(
            "drain abandoned {} connection(s)",
            report.abandoned_connections
        ));
    }
    Ok(())
}

/// What a closed loop runs: every pool scene once, or round-robin over the
/// pool until a deadline.
#[derive(Clone, Copy)]
pub enum Plan {
    EachOnce,
    Until(Instant),
}

/// Run `conns` keep-alive connections, each sending its next request only
/// after the previous response arrived and passed its output check.
/// Returns every completed request.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    plan: Plan,
    scenes: &[Scene],
    refs: &References,
    trace: Option<&Telemetry>,
) -> Result<Vec<Sample>, String> {
    let next = AtomicUsize::new(0);
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::open(addr)?;
                    let mut samples = Vec::new();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let scene = match plan {
                            Plan::EachOnce if n >= scenes.len() => break,
                            Plan::Until(end) if Instant::now() >= end => break,
                            _ => n % scenes.len(),
                        };
                        let sample = conn.recover(scene, scenes, refs)?;
                        if let Some(tel) = trace {
                            tel.record_span(SPAN_CLIENT_REQUEST, sample.start, sample.end);
                        }
                        samples.push(sample);
                    }
                    Ok(samples)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for samples in per_conn {
        all.extend(samples?);
    }
    Ok(all)
}

/// One keep-alive client connection.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(250)))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Conn { stream })
    }

    /// POST scene `i` to `/recover` with the default class, read the full
    /// response and check it. The sample spans request write to response
    /// read.
    fn recover(&mut self, i: usize, scenes: &[Scene], refs: &References) -> Result<Sample, String> {
        let scene = &scenes[i];
        let start = Instant::now();
        write_request(&mut self.stream, "POST", "/recover", &[], &scene.jpeg)
            .map_err(|e| format!("scene {i}: send: {e}"))?;
        let message = read_message(&mut self.stream, MAX_RESPONSE, RESPONSE_TIMEOUT, &|| false)
            .map_err(|e| format!("scene {i}: response: {e}"))?
            .ok_or_else(|| format!("scene {i}: server closed the connection"))?;
        let end = Instant::now();
        let status = parse_status_line(&message.start_line)
            .map_err(|e| format!("scene {i}: status line: {e}"))?;
        if status != 200 {
            return Err(format!(
                "scene {i}: HTTP {status}: {}",
                String::from_utf8_lossy(&message.body).trim()
            ));
        }
        let timing = message
            .header("server-timing")
            .and_then(ServerTiming::parse)
            .ok_or_else(|| format!("scene {i}: no Server-Timing header"))?;
        refs.check(i, scene.size, &message.body)?;
        Ok(Sample { start, end, timing })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_timing_parses() {
        let t = ServerTiming::parse("queue;dur=0.3, exec;dur=41.2, total;dur=41.5").unwrap();
        assert_eq!((t.queue, t.exec, t.total), (0.3, 41.2, 41.5));
        assert!(ServerTiming::parse("exec;dur=1").is_none());
    }
}
