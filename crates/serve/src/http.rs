//! Minimal live scrape endpoint: `GET /metrics` + `GET /healthz` over
//! hand-rolled HTTP/1.0 — no async runtime, no dependencies, one thread.
//!
//! The server exists so an operator can point Prometheus (or `curl`) at a
//! running `h2serve serve` deployment while traffic flows. It is
//! deliberately not a web framework: a request head is read under one
//! overall deadline (a peer cannot extend it by dribbling bytes), only the
//! request line is parsed, every response closes the connection,
//! and the accept loop polls a non-blocking listener so
//! [`MetricsServer::stop`] (or drop) terminates promptly. The metrics body
//! is produced by a caller-supplied closure at scrape time, so one server
//! can compose any mix of sources (service, registry, cache, net/telemetry
//! counters) without this module knowing about them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one scrape may take to send its whole request head, and again
/// to drain the response.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-loop poll interval; bounds the shutdown latency.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Longest request head we bother reading (the request line is all we use).
const MAX_REQUEST_BYTES: usize = 4096;

/// A background thread serving `GET /metrics` and `GET /healthz`.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (port 0 picks an ephemeral port) and serves until
    /// [`Self::stop`] or drop. `render` is called once per `/metrics`
    /// scrape, on the server thread, to produce the exposition body.
    pub fn start(
        addr: &str,
        render: impl Fn() -> String + Send + 'static,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("h2-metrics-http".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &render),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => std::thread::sleep(POLL_INTERVAL),
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address, e.g. to print a scrape URL.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves one connection: read the request head, answer, close.
fn serve_one(mut stream: TcpStream, render: &impl Fn() -> String) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
    let path = match read_request_path(&mut stream) {
        Request::Get(path) => path,
        Request::OtherMethod => {
            // Prometheus only ever GETs; anything else is a wrong verb on
            // a real resource, not a malformed request.
            let _ = write_response(&mut stream, "405 Method Not Allowed", "GET only\n");
            return;
        }
        Request::Bad => {
            let _ = write_response(&mut stream, "400 Bad Request", "bad request\n");
            return;
        }
    };
    h2_telemetry::counter_add!("serve.http_requests", 1);
    match path.as_str() {
        "/metrics" => {
            let _ = write_response(&mut stream, "200 OK", &render());
        }
        "/healthz" => {
            let _ = write_response(&mut stream, "200 OK", "ok\n");
        }
        _ => {
            let _ = write_response(&mut stream, "404 Not Found", "not found\n");
        }
    }
}

/// Outcome of parsing a request head.
enum Request {
    /// A well-formed `GET` and its target path.
    Get(String),
    /// Well-formed request line with any other method → 405.
    OtherMethod,
    /// Malformed, oversized, unreadable, or not complete within
    /// [`CLIENT_IO_TIMEOUT`] → 400.
    Bad,
}

/// Reads up to the end of the request head and classifies the request line
/// (the only part this server uses). The whole head shares one
/// [`CLIENT_IO_TIMEOUT`] deadline: each `read` may only wait for what is
/// left of it, so a peer sending a byte now and then cannot hold the
/// single server thread — and with it `/healthz` — beyond the deadline.
fn read_request_path(stream: &mut TcpStream) -> Request {
    let deadline = Instant::now() + CLIENT_IO_TIMEOUT;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        // A zero timeout is an error to `set_read_timeout`, not "poll".
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return Request::Bad;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => return Request::Bad,
        }
    }
    let Ok(head) = std::str::from_utf8(&buf) else {
        return Request::Bad;
    };
    let Some(line) = head.lines().next() else {
        return Request::Bad;
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Request::Bad;
    };
    // Methods are tokens of ASCII letters; anything else is line noise.
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Request::Bad;
    }
    if method != "GET" {
        return Request::OtherMethod;
    }
    Request::Get(path.to_string())
}

fn write_response(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let mut srv =
            MetricsServer::start("127.0.0.1:0", || "h2_test_metric 42\n".to_string()).unwrap();
        let addr = srv.addr();
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(head.contains("Content-Type: text/plain"), "{head}");
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(body, "h2_test_metric 42\n");
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404 Not Found"), "{head}");
        srv.stop();
        srv.stop(); // idempotent
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may still accept briefly; a request must go
                // unanswered either way once the thread is gone.
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = write!(s, "GET /healthz HTTP/1.0\r\n\r\n");
                let mut out = String::new();
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                s.read_to_string(&mut out).is_err() || out.is_empty()
            },
            "server still answering after stop"
        );
    }

    #[test]
    fn a_dribbling_peer_cannot_hold_the_server_past_the_deadline() {
        let srv = MetricsServer::start("127.0.0.1:0", String::new).unwrap();
        let addr = srv.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let (connected, is_connected) = std::sync::mpsc::channel();
        // One byte every 100 ms, never a blank line: each `read` succeeds
        // well inside any per-read timeout, the head never completes.
        let dribbler = std::thread::spawn({
            let stop = stop.clone();
            move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(b"G").unwrap();
                connected.send(()).unwrap();
                while !stop.load(Ordering::Relaxed) && s.write_all(b"x").is_ok() {
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        });
        // Queue behind the dribbler: the server accepts in connection order.
        is_connected.recv().unwrap();
        let t = Instant::now();
        let (head, body) = get(addr, "/healthz");
        let waited = t.elapsed();
        stop.store(true, Ordering::Relaxed);
        dribbler.join().unwrap();
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        assert!(
            waited <= 2 * CLIENT_IO_TIMEOUT,
            "/healthz waited {waited:?} behind a dribbling peer"
        );
    }

    #[test]
    fn render_sees_live_state_per_scrape() {
        use std::sync::atomic::AtomicU64;
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let srv = MetricsServer::start("127.0.0.1:0", move || {
            format!("scrapes {}\n", h.fetch_add(1, Ordering::Relaxed) + 1)
        })
        .unwrap();
        assert_eq!(get(srv.addr(), "/metrics").1, "scrapes 1\n");
        assert_eq!(get(srv.addr(), "/metrics").1, "scrapes 2\n");
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        // A non-GET request gets 405 without calling render; garbage that
        // is not HTTP at all still gets 400.
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 405"), "{resp}");
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        write!(s, "\x01\x02 not http\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 400"), "{resp}");
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
