//! The std-only thread-pool TCP server.
//!
//! Topology: one acceptor thread feeds accepted connections through an
//! `mpsc` channel to `conn_threads` connection workers (each handles one
//! connection at a time: binary frame loop or a single HTTP exchange);
//! evaluation requests flow into the [`Batcher`], and `exec_threads`
//! executor workers pull coalesced batches and run them on the
//! [`Engine`]. Graceful shutdown: a shutdown request (either front door)
//! flips an `AtomicBool`, closes the batcher (drain mode), and self-
//! connects to the loopback listener to unblock the blocking `accept`;
//! every queued request is still answered before the threads exit.

use crate::batcher::Batcher;
use crate::engine::Engine;
use crate::http;
use crate::json::{self, Value};
use crate::lifecycle::{self, State, Tracker};
use crate::metrics::Metrics;
use crate::protocol::{self, Opcode};
use fmm_sync::atomic::{AtomicBool, Ordering};
use fmm_sync::mpsc;
use fmm_sync::thread::JoinHandle;
use fmm_sync::Mutex;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection-handling threads.
    pub conn_threads: usize,
    /// Batch-executing threads.
    pub exec_threads: usize,
    /// Coalescing window: how long the first request of a shape waits
    /// for company before its batch closes.
    pub window: Duration,
    /// Largest coalesced batch.
    pub max_batch: usize,
    /// Shared plan-registry capacity (resident plans).
    pub registry_capacity: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            conn_threads: 4,
            exec_threads: 2,
            window: Duration::from_millis(2),
            max_batch: 64,
            registry_capacity: 64,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Everything a connection handler needs to trigger a graceful stop.
struct ShutdownHandle {
    flag: AtomicBool,
    addr: SocketAddr,
    batcher: Arc<Batcher>,
}

impl ShutdownHandle {
    fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        self.batcher.shutdown();
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server; dropping it does NOT stop it — call
/// [`Server::shutdown`] or let a client hit the shutdown endpoint and
/// [`Server::join`].
pub struct Server {
    local_addr: SocketAddr,
    engine: Arc<Engine>,
    shutdown: Arc<ShutdownHandle>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start all threads.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let engine = Arc::new(Engine::new(cfg.registry_capacity));
        let batcher = Arc::new(Batcher::new(cfg.window, cfg.max_batch));
        let shutdown = Arc::new(ShutdownHandle {
            flag: AtomicBool::new(false),
            addr: local_addr,
            batcher: Arc::clone(&batcher),
        });

        let mut threads = Vec::new();

        // Executor workers: drain the batcher until shutdown.
        for i in 0..cfg.exec_threads.max(1) {
            let eng = Arc::clone(&engine);
            let bat = Arc::clone(&batcher);
            threads.push(
                fmm_sync::thread::Builder::new()
                    .name(format!("fmm-exec-{i}"))
                    .spawn(move || {
                        while let Some((shape, jobs)) = bat.next_batch() {
                            eng.run_batch(shape, jobs);
                        }
                    })?,
            );
        }

        // Connection workers.
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for i in 0..cfg.conn_threads.max(1) {
            let rx = Arc::clone(&conn_rx);
            let eng = Arc::clone(&engine);
            let bat = Arc::clone(&batcher);
            let sd = Arc::clone(&shutdown);
            let read_timeout = cfg.read_timeout;
            threads.push(
                fmm_sync::thread::Builder::new()
                    .name(format!("fmm-conn-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the recv, not the handling.
                        let stream = rx.lock().unwrap().recv();
                        match stream {
                            Ok(s) => {
                                let _ = s.set_read_timeout(Some(read_timeout));
                                let _ = s.set_nodelay(true);
                                let _ = handle_connection(s, &eng, &bat, &sd);
                            }
                            Err(_) => return, // acceptor gone: drain done
                        }
                    })?,
            );
        }

        // Acceptor.
        {
            let sd = Arc::clone(&shutdown);
            let eng = Arc::clone(&engine);
            threads.push(
                fmm_sync::thread::Builder::new()
                    .name("fmm-accept".into())
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if sd.flag.load(Ordering::SeqCst) {
                                break; // the wake-up connection lands here
                            }
                            if let Ok(s) = stream {
                                Metrics::inc(&eng.metrics.connections_total);
                                if conn_tx.send(s).is_err() {
                                    break;
                                }
                            }
                        }
                        // Dropping conn_tx lets the connection workers
                        // finish their queues and exit.
                    })?,
            );
        }

        Ok(Server {
            local_addr,
            engine,
            shutdown,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Trigger a graceful stop from the owning process.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Wait for all threads (returns once a shutdown has been triggered
    /// and every queued request answered).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Route one connection: binary protocol if it opens with the magic,
/// otherwise a single HTTP exchange.
fn handle_connection(
    mut stream: TcpStream,
    engine: &Arc<Engine>,
    batcher: &Arc<Batcher>,
    shutdown: &Arc<ShutdownHandle>,
) -> io::Result<()> {
    let mut head = [0u8; 4];
    let n = stream.peek(&mut head)?;
    if n == 4 && head == protocol::MAGIC {
        handle_binary(stream, engine, batcher, shutdown)
    } else {
        handle_http(&mut stream, engine, batcher, shutdown)
    }
}

/// Submit an evaluation and wait for its result, driving the caller's
/// lifecycle witness (at [`State::Frame`] on entry). Validation errors
/// leave the witness at `Frame` — the caller's error reply takes the
/// `error-reply` edge; the shutdown and executor-lost exits advance to
/// [`State::Drain`] here, where the distinction is visible.
fn evaluate(
    engine: &Arc<Engine>,
    batcher: &Arc<Batcher>,
    req: protocol::EvalRequest,
    lc: &mut Tracker<'_>,
) -> Result<protocol::EvalResponse, String> {
    let m = &engine.metrics;
    Metrics::inc(&m.requests_total);
    // Refuse bad input at the door, before it can be coalesced with (and
    // fail) other tenants' requests.
    let checked = fmm_core::BatchRequest {
        positions: &req.positions,
        charges: &req.charges,
    };
    if let Err(e) = checked.validate() {
        Metrics::inc(&m.errors_total);
        return Err(e);
    }
    let rx = match batcher.submit(req) {
        Ok(rx) => rx,
        Err(e) => {
            Metrics::inc(&m.errors_total);
            lc.advance(State::Drain);
            return Err(e);
        }
    };
    lc.advance(State::Enqueue);
    Metrics::max(&m.queue_depth_peak, batcher.queue_depth() as u64);
    match rx.recv() {
        Ok(r) => {
            lc.advance(State::Batch);
            r
        }
        Err(_) => {
            lc.advance(State::Drain);
            Err("executor dropped the request".into())
        }
    }
}

/// Close a request's lifecycle walk after its response went out: any
/// walk still mid-machine took a reply edge (`error-reply` from
/// `Frame`, `result-delivered` from `Batch`); drain exits already sit
/// on their terminal.
fn finish_replied(mut lc: Tracker<'_>) {
    if !lc.finished() {
        lc.advance(State::Reply);
    }
    lc.finish();
}

/// The `/info` document.
fn info_json(engine: &Arc<Engine>) -> String {
    let reg = engine.registry().stats();
    let mut registry = BTreeMap::new();
    registry.insert("plan_builds".into(), Value::Num(reg.plan_builds as f64));
    registry.insert("plan_hits".into(), Value::Num(reg.plan_hits as f64));
    registry.insert("evictions".into(), Value::Num(reg.evictions as f64));
    registry.insert("entries".into(), Value::Num(reg.entries as f64));
    registry.insert("capacity".into(), Value::Num(reg.capacity as f64));
    let plans: Vec<Value> = engine
        .registry()
        .snapshot()
        .into_iter()
        .map(|(k, bytes)| {
            let mut p = BTreeMap::new();
            p.insert("depth".into(), Value::Num(k.depth as f64));
            p.insert("k".into(), Value::Num(k.k as f64));
            p.insert("bytes".into(), Value::Num(bytes as f64));
            Value::Obj(p)
        })
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert(
        "service".into(),
        Value::Str("fmm-serve (Anderson O(N) hierarchical N-body)".into()),
    );
    obj.insert(
        "kernel".into(),
        Value::Str(fmm_linalg::Kernel::detect().name().to_string()),
    );
    obj.insert(
        "transports".into(),
        Value::Arr(
            fmm_core::Fabric::ALL
                .iter()
                .map(|f| Value::Str(f.name().to_string()))
                .collect(),
        ),
    );
    obj.insert("registry".into(), Value::Obj(registry));
    obj.insert("plans".into(), Value::Arr(plans));
    json::write(&Value::Obj(obj))
}

fn handle_binary(
    mut stream: TcpStream,
    engine: &Arc<Engine>,
    batcher: &Arc<Batcher>,
    shutdown: &Arc<ShutdownHandle>,
) -> io::Result<()> {
    use std::io::Read;
    let mut magic = [0u8; 4];
    stream.read_exact(&mut magic)?;
    loop {
        let payload = match protocol::read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return Ok(()), // EOF or timeout: client done
        };
        if payload.is_empty() {
            protocol::write_frame(&mut stream, &protocol::encode_error("empty frame"))?;
            continue;
        }
        match Opcode::from_u8(payload[0]) {
            Some(Opcode::Evaluate) => {
                Metrics::inc(&engine.metrics.binary_requests_total);
                let mut lc = lifecycle::serve_machine().track();
                lc.advance(State::Frame);
                let resp = match protocol::decode_evaluate(&payload[1..]) {
                    Ok(req) => evaluate(engine, batcher, req, &mut lc),
                    Err(e) => Err(e),
                };
                let frame = match resp {
                    Ok(r) => protocol::encode_eval_response(&r),
                    Err(e) => protocol::encode_error(&e),
                };
                protocol::write_frame(&mut stream, &frame)?;
                finish_replied(lc);
            }
            Some(Opcode::Info) => {
                protocol::write_frame(&mut stream, &protocol::encode_text(&info_json(engine)))?;
            }
            Some(Opcode::Metrics) => {
                let text = engine.metrics.render(engine.registry());
                protocol::write_frame(&mut stream, &protocol::encode_text(&text))?;
            }
            Some(Opcode::Shutdown) => {
                protocol::write_frame(&mut stream, &protocol::encode_text("draining"))?;
                shutdown.trigger();
                return Ok(());
            }
            None => {
                protocol::write_frame(
                    &mut stream,
                    &protocol::encode_error(&format!("unknown opcode {}", payload[0])),
                )?;
            }
        }
    }
}

fn handle_http(
    stream: &mut TcpStream,
    engine: &Arc<Engine>,
    batcher: &Arc<Batcher>,
    shutdown: &Arc<ShutdownHandle>,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let req = match http::read_request(&mut reader) {
        Ok(r) => r,
        Err(_) => return Ok(()), // unparseable / timed-out request
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/evaluate") => {
            Metrics::inc(&engine.metrics.http_requests_total);
            let mut lc = lifecycle::serve_machine().track();
            lc.advance(State::Frame);
            let result = http::eval_request_from_json(&req.body)
                .and_then(|er| evaluate(engine, batcher, er, &mut lc));
            let out = match result {
                Ok(r) => http::write_response(
                    stream,
                    200,
                    "OK",
                    "application/json",
                    http::eval_response_to_json(&r).as_bytes(),
                ),
                Err(e) => http::write_response(
                    stream,
                    400,
                    "Bad Request",
                    "application/json",
                    http::error_to_json(&e).as_bytes(),
                ),
            };
            finish_replied(lc);
            out
        }
        ("GET", "/info") => http::write_response(
            stream,
            200,
            "OK",
            "application/json",
            info_json(engine).as_bytes(),
        ),
        ("GET", "/metrics") => http::write_response(
            stream,
            200,
            "OK",
            "text/plain; version=0.0.4",
            engine.metrics.render(engine.registry()).as_bytes(),
        ),
        ("GET", "/healthz") => http::write_response(stream, 200, "OK", "text/plain", b"ok\n"),
        ("POST", "/shutdown") => {
            let r = http::write_response(stream, 200, "OK", "text/plain", b"draining\n");
            let _ = stream.flush();
            shutdown.trigger();
            r
        }
        _ => http::write_response(
            stream,
            404,
            "Not Found",
            "application/json",
            http::error_to_json(&format!("no route {} {}", req.method, req.path)).as_bytes(),
        ),
    }
}
