//! Live telemetry plane: a hand-rolled `std::net::TcpListener` HTTP
//! server exposing the metrics registry while a simulation runs, so
//! `promtool`/Grafana can scrape a long sweep instead of waiting for the
//! end-of-run `obs.json`.
//!
//! Same zero-dependency discipline as the rest of the crate: blocking
//! `std::net` on one background thread, minimal HTTP/1.1, six routes:
//!
//! * `GET /metrics` — Prometheus text exposition 0.0.4
//!   ([`crate::export::prometheus_text`], lint-clean by construction);
//! * `GET /metrics.json` — the JSON snapshot
//!   ([`crate::export::snapshot_json`]): the shape of `obs.json`, without
//!   the flight records;
//! * `GET /qos` — the QoS-conformance view ([`crate::qos::qos_json`]):
//!   windowed `P_HD`/`P_CB` estimators, violation clocks, efficiency
//!   integrals, Eq.-4 calibration;
//! * `GET /alerts` — the SLO watchdog's burn-rate alert view
//!   ([`crate::alert::alerts_json`]): config, fired totals, the alert
//!   table, and the transition log;
//! * `GET /explain?req=SEQ` / `GET /explain?cell=N&last=K` — the flight
//!   recorder ([`crate::flight::explain_json`]): complete admission
//!   decision records with their classified denial cause;
//! * `GET /healthz` — liveness probe. `200 ok` while healthy; `503
//!   degraded` naming every firing SLO alert.
//!
//! The accept thread installs the [`crate::Obs`] handle of the thread
//! that started the server, so it renders what that thread's run (and the
//! sweep workers sharing its handle) records. It only reads — relaxed
//! atomic loads and short mutex holds — so attaching it cannot perturb a
//! running simulation (the obs on/off determinism test runs with a server
//! attached). Scrapes are served one at a time; a Prometheus scrape
//! interval is orders of magnitude above the render cost, so no
//! connection pool is needed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::{prometheus_text, snapshot_json};

/// Content type of the Prometheus text exposition, version included.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A running scrape endpoint. Dropping the handle shuts the server down
/// (signals the accept loop and joins the thread).
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, or port `0` for an
    /// ephemeral port) and starts serving this thread's telemetry handle
    /// on a background thread.
    pub fn start(addr: &str) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept so the loop can observe the stop flag
        // without needing a self-connection to wake it.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let obs = crate::current();
        let handle = std::thread::Builder::new()
            .name("qres-obs-serve".into())
            .spawn(move || {
                crate::install(obs);
                accept_loop(listener, &stop_flag)
            })?;
        Ok(ObsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline; scrapes are rare and rendering is cheap.
                let _ = serve_connection(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn serve_connection(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let path = match read_request_path(&mut stream)? {
        Some(p) => p,
        None => return Ok(()), // malformed request line; just close
    };
    let (status, content_type, body) = route(&path);
    write_response(&mut stream, status, content_type, &body)
}

/// Resolves a request path to `(status line, content type, body)`.
fn route(path: &str) -> (&'static str, &'static str, String) {
    // Scrapers may append query strings; route on the bare path.
    let bare = path.split('?').next().unwrap_or(path);
    match bare {
        "/metrics" => ("200 OK", PROMETHEUS_CONTENT_TYPE, prometheus_text()),
        "/metrics.json" => (
            "200 OK",
            "application/json",
            snapshot_json().to_compact_string(),
        ),
        "/qos" => (
            "200 OK",
            "application/json",
            crate::qos::qos_json().to_compact_string(),
        ),
        "/alerts" => (
            "200 OK",
            "application/json",
            crate::alert::alerts_json().to_compact_string(),
        ),
        "/explain" => (
            "200 OK",
            "application/json",
            crate::flight::explain_json(
                query_param(path, "req").and_then(|s| s.parse::<u64>().ok()),
                query_param(path, "cell").and_then(|s| s.parse::<u32>().ok()),
                query_param(path, "last")
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or(10),
            )
            .to_compact_string(),
        ),
        "/healthz" => healthz(),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found (routes: /metrics, /metrics.json, /qos, /alerts, /explain, /healthz)\n"
                .to_string(),
        ),
    }
}

/// Extracts one `key=value` pair from a request path's query string
/// (no percent-decoding: request sequences and cell ids never need it).
fn query_param(path: &str, key: &str) -> Option<String> {
    let (_, query) = path.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key && !v.is_empty()).then(|| v.to_string())
    })
}

/// The liveness probe: `503 degraded` naming every firing SLO alert;
/// `200 ok` otherwise.
fn healthz() -> (&'static str, &'static str, String) {
    let firing = crate::alert::firing_alerts();
    if firing.is_empty() {
        return ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string());
    }
    let mut body = String::from("degraded\n");
    for a in firing {
        match a.cell {
            Some(cell) => body.push_str(&format!(
                "firing: {} cell={cell} since={}\n",
                a.rule, a.since
            )),
            None => body.push_str(&format!("firing: {} since={}\n", a.rule, a.since)),
        }
    }
    ("503 Service Unavailable", "text/plain; charset=utf-8", body)
}

/// Reads the request head (up to the blank line) and returns the path of
/// the request line, or `None` when the line is not `GET <path> ...`.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        };
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-process HTTP client for the tests (and reused by the
    /// workspace integration tests via copy — no extra deps).
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response must have a head/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_on_ephemeral_port() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        assert_ne!(server.port(), 0);

        let (head, body) = http_get(server.addr(), "/healthz");
        // Alert tests in this crate may have registered firing alerts
        // concurrently, so both probe outcomes are legal here; the
        // dedicated healthz test pins each path.
        assert!(
            head.starts_with("HTTP/1.1 200") || head.starts_with("HTTP/1.1 503"),
            "head: {head}"
        );
        assert!(
            body.starts_with("ok\n") || body.starts_with("degraded\n"),
            "healthz body: {body}"
        );

        let (head, body) = http_get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(head.contains("version=0.0.4"));
        crate::export::validate_prometheus_text(&body).expect("scrape must lint clean");

        let (head, body) = http_get(server.addr(), "/metrics.json");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.starts_with('{'), "json body: {body}");

        let (head, body) = http_get(server.addr(), "/qos");
        assert!(head.starts_with("HTTP/1.1 200"));
        let qos = qres_json::Value::parse(&body).expect("/qos must serve valid JSON");
        assert!(qos.get("window_secs").is_some());
        assert!(qos.get("cells").is_some());
        assert!(qos.get("calib").is_some());

        let (head, body) = http_get(server.addr(), "/alerts");
        assert!(head.starts_with("HTTP/1.1 200"));
        let alerts = qres_json::Value::parse(&body).expect("/alerts must serve valid JSON");
        assert!(alerts.get("config").is_some());
        assert!(alerts.get("fired_total").is_some());
        assert!(alerts.get("transitions").is_some());

        let (head, body) = http_get(server.addr(), "/explain?req=1");
        assert!(head.starts_with("HTTP/1.1 200"));
        let explain = qres_json::Value::parse(&body).expect("/explain must serve valid JSON");
        assert!(explain.get("query").is_some());
        assert!(explain.get("matched").is_some());
        assert!(explain.get("records").is_some());
        let (head, body) = http_get(server.addr(), "/explain?cell=4&last=5");
        assert!(head.starts_with("HTTP/1.1 200"));
        let explain = qres_json::Value::parse(&body).expect("cell /explain parses");
        assert_eq!(
            explain.get("query").and_then(|q| q.get("last")),
            Some(&qres_json::Value::Int(5))
        );

        // Query strings are tolerated; unknown routes 404.
        let (head, _) = http_get(server.addr(), "/metrics?format=prometheus");
        assert!(head.starts_with("HTTP/1.1 200"));
        let (head, _) = http_get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        for gone in ["/workers", "/query"] {
            let (head, body) = http_get(server.addr(), gone);
            assert!(head.starts_with("HTTP/1.1 404"), "{gone}: {head}");
            assert!(!body.contains(gone), "404 body lists only live routes");
        }

        server.shutdown();
    }

    #[test]
    fn query_param_parses_pairs() {
        assert_eq!(
            query_param("/explain?cell=7&last=3", "cell").as_deref(),
            Some("7")
        );
        assert_eq!(
            query_param("/explain?cell=7&last=3", "last").as_deref(),
            Some("3")
        );
        assert_eq!(query_param("/explain?req=", "req"), None);
        assert_eq!(query_param("/explain", "req"), None);
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let server = ObsServer::start("127.0.0.1:0").unwrap();
        let addr = server.addr();
        server.shutdown();
        // Port is free again: a new server can bind it (races with other
        // processes are possible in principle; retry on the ephemeral
        // port instead of asserting the exact address).
        let again = ObsServer::start("127.0.0.1:0").unwrap();
        assert_ne!(again.port(), 0);
        drop(again);
        let _ = addr;
    }
}
