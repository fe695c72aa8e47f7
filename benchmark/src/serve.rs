//! The served workload: an in-process `Server` and closed-loop clients on
//! persistent binary-door connections. Only `fmm_serve::{Server,
//! ServeConfig, protocol}` and the `Fmm` facade are used here.
//!
//! Callers of an evaluation service wait for each reply before they send
//! the next request, hence a closed loop: a slower server receives less
//! load, and latency is the time from the first byte written to the reply
//! frame fully read.

use crate::e2e::{call, peak_rss_mb, push_peak_rss, same_bits, Bits, Budget};
use crate::inputs::request_points;
use crate::layers::{self, ServeCounters};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::workloads::{RequestClass, Serve};
use fmm_core::{Fmm, FmmConfig};
use fmm_serve::protocol::{self, EvalRequest, Shape};
use fmm_serve::{ServeConfig, Server};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Instant;

/// A request prepared before the clock starts: its frame, and the bits a
/// solo evaluation of the same particles gives, which the reply must match.
pub struct Canned {
    pub request: EvalRequest,
    pub frame: Vec<u8>,
    pub potentials: Vec<f64>,
    pub fields: Option<Vec<[f64; 3]>>,
}

impl Canned {
    pub fn bits(&self) -> Bits<'_> {
        Bits {
            potentials: &self.potentials,
            fields: self.fields.as_deref(),
        }
    }
}

/// Per client, per class, the pool of canned requests its sequence cycles
/// through.
pub struct Traffic {
    pub pools: Vec<[Vec<Canned>; 2]>,
}

fn shape_of(class: &RequestClass) -> Shape {
    Shape {
        order: class.order as u16,
        depth: class.depth,
        separation: 2,
        mixed: false,
        forces: class.forces,
    }
}

impl Traffic {
    /// Generate every client's pools from the seed and evaluate each
    /// request once with no server, on the configuration the engine
    /// derives from the request's shape.
    pub fn build(spec: &Serve, seed: u64, out: &mut Outcome) -> Traffic {
        let mut pools: Vec<[Vec<Canned>; 2]> = (0..spec.clients)
            .map(|_| [Vec::new(), Vec::new()])
            .collect();
        for (class, c) in spec.classes.iter().enumerate() {
            let solo = Fmm::new(FmmConfig::order(c.order).depth(c.depth));
            out.check(solo.is_ok(), || {
                format!("Fmm::new failed: {:?}", solo.as_ref().err())
            });
            let Ok(solo) = solo else { continue };
            for (client, pools) in pools.iter_mut().enumerate() {
                for index in 0..c.pool {
                    let positions =
                        request_points(c.n, seed, client as u64, class as u64, index as u64);
                    let charges = vec![1.0; c.n];
                    let result = call(&solo, &positions, &charges, c.forces);
                    out.check(result.is_ok(), || {
                        format!("solo evaluate failed: {:?}", result.as_ref().err())
                    });
                    let Ok(result) = result else { continue };
                    let request = EvalRequest {
                        shape: shape_of(c),
                        positions,
                        charges,
                    };
                    pools[class].push(Canned {
                        frame: protocol::encode_evaluate(&request),
                        request,
                        potentials: result.potentials,
                        fields: result.fields,
                    });
                }
            }
        }
        Traffic { pools }
    }
}

/// A binary-door connection: connect, disable Nagle, send the preamble.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&protocol::MAGIC)?;
    Ok(stream)
}

/// Send one canned request and wait for its reply frame; the seconds from
/// the first byte written to the frame fully read, and the frame.
fn exchange(stream: &mut TcpStream, canned: &Canned) -> io::Result<(Instant, f64, Vec<u8>)> {
    let start = Instant::now();
    protocol::write_frame(stream, &canned.frame)?;
    let reply = protocol::read_frame(stream)?;
    Ok((start, start.elapsed().as_secs_f64(), reply))
}

/// Whether a reply frame decodes to exactly the solo result.
fn reply_matches(reply: &[u8], canned: &Canned) -> bool {
    protocol::decode_eval_response(reply, canned.request.shape.forces).is_ok_and(|r| {
        let reply = Bits {
            potentials: &r.potentials,
            fields: r.fields.as_deref(),
        };
        same_bits(reply, canned.bits())
    })
}

/// Start a server and wait for the first reply of each shape: what a
/// deployment pays before it can answer. Returns the server, still
/// running, and the seconds it took.
pub fn start_server(traffic: &Traffic, out: &mut Outcome) -> io::Result<(Server, f64)> {
    let t0 = Instant::now();
    let server = Server::start(ServeConfig::default())?;
    let first_replies = (|| -> io::Result<bool> {
        let mut stream = connect(server.local_addr())?;
        let mut ok = true;
        for pool in &traffic.pools[0] {
            let (_, _, reply) = exchange(&mut stream, &pool[0])?;
            ok &= reply_matches(&reply, &pool[0]);
        }
        Ok(ok)
    })();
    let setup_s = t0.elapsed().as_secs_f64();
    match first_replies {
        Ok(ok) => {
            out.check(ok, || {
                "first reply of a fresh server differs from solo evaluate".into()
            });
            Ok((server, setup_s))
        }
        Err(e) => {
            stop_server(server);
            Err(e)
        }
    }
}

pub fn stop_server(server: Server) {
    server.shutdown();
    server.join();
}

/// What the timed section of a mix produced.
pub struct MixResult {
    /// Latencies in seconds, `[small, medium]`.
    pub latencies: [Vec<f64>; 2],
    /// From the moment all clients start their timed section to the moment
    /// the last one finishes it.
    pub wall_s: f64,
    /// Replies that were error frames, malformed, or not bitwise equal to
    /// the solo result; and connections that failed.
    pub failed: u64,
    pub tracers: Vec<Tracer>,
}

impl MixResult {
    pub fn requests(&self) -> usize {
        self.latencies.iter().map(Vec::len).sum()
    }
}

/// One closed-loop client: `warmup` untimed requests, then timed requests
/// until `budget` is spent. With a tracer, each request records an
/// exchange span (write → reply) and a decode span.
fn client(
    addr: SocketAddr,
    pools: &[Vec<Canned>; 2],
    warmup: usize,
    budget: Budget,
    start_line: &Barrier,
    mut tracer: Option<Tracer>,
) -> (io::Result<()>, [Vec<f64>; 2], u64, Option<Tracer>) {
    let mut latencies = [Vec::new(), Vec::new()];
    let mut failed = 0u64;
    let mut sent = [0usize; 2];
    let mut next = |i: usize| {
        let class = Serve::class_of(i);
        let canned = &pools[class][sent[class] % pools[class].len()];
        sent[class] += 1;
        (class, canned)
    };
    let warm = connect(addr).and_then(|mut stream| {
        for i in 0..warmup {
            exchange(&mut stream, next(i).1)?;
        }
        Ok(stream)
    });
    // Every client reaches the barrier, connected or not, so none waits
    // forever for one that failed.
    start_line.wait();
    let run = warm.and_then(|mut stream| {
        let start = Instant::now();
        let mut i = 0;
        while i < budget.min_reps || start.elapsed().as_secs_f64() < budget.seconds {
            let (class, canned) = next(warmup + i);
            let (t0, latency, reply) = exchange(&mut stream, canned)?;
            latencies[class].push(latency);
            let ok = match tracer.as_mut() {
                Some(tr) => {
                    let rep = i as u32;
                    tr.record("serve.client.exchange", rep, t0, latency);
                    tr.span("serve.client.decode", rep, |_| {
                        reply_matches(&reply, canned)
                    })
                }
                None => reply_matches(&reply, canned),
            };
            failed += u64::from(!ok);
            i += 1;
        }
        Ok(())
    });
    (run, latencies, failed, tracer)
}

/// Run the mix: every client on its own thread and connection, released
/// together after their warm-ups. `epoch` turns client-side spans on.
pub fn run_mix(
    addr: SocketAddr,
    traffic: &Traffic,
    warmup: usize,
    budget: Budget,
    epoch: Option<Instant>,
) -> MixResult {
    let n = traffic.pools.len();
    let start_line = Barrier::new(n + 1);
    let (results, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .pools
            .iter()
            .enumerate()
            .map(|(lane, pools)| {
                let tracer = epoch.map(|e| Tracer::new(e, lane as u32 + 1));
                let start_line = &start_line;
                s.spawn(move || client(addr, pools, warmup, budget, start_line, tracer))
            })
            .collect();
        start_line.wait();
        let t0 = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, t0.elapsed().as_secs_f64())
    });
    let mut mix = MixResult {
        latencies: [Vec::new(), Vec::new()],
        wall_s,
        failed: 0,
        tracers: Vec::new(),
    };
    for (run, latencies, failed, tracer) in results {
        if let Err(e) = run {
            eprintln!("client connection failed: {e}");
            mix.failed += 1;
        }
        mix.failed += failed;
        for (all, mine) in mix.latencies.iter_mut().zip(latencies) {
            all.extend(mine);
        }
        mix.tracers.extend(tracer);
    }
    mix
}

/// The samples of `setup_s`: the run's own server and `setup_reps - 1` more
/// fresh ones, each stopped before the next starts.
pub fn setup_samples(spec: &Serve, first: f64, traffic: &Traffic, out: &mut Outcome) -> Vec<f64> {
    let mut times = vec![first];
    for _ in 1..spec.setup_reps {
        match start_server(traffic, out) {
            Ok((server, s)) => {
                stop_server(server);
                times.push(s);
            }
            Err(e) => out.check(false, || format!("server start failed: {e}")),
        }
    }
    times
}

/// RMS relative potential error of what the server returns (the solo
/// results, which every reply is checked to equal bitwise) against direct
/// summation, pooled over every particle of the first client's requests.
pub fn served_error(traffic: &Traffic) -> f64 {
    let (mut err, mut reference) = (0.0, 0.0);
    for c in traffic.pools[0].iter().flatten() {
        let exact = fmm_direct::potentials_at(
            &c.request.positions,
            &c.request.positions,
            &c.request.charges,
        );
        for (got, want) in c.potentials.iter().zip(exact) {
            err += (got - want) * (got - want);
            reference += want * want;
        }
    }
    (err / reference).sqrt()
}

/// Count the mix's requests and its failures into the outcome.
pub fn count_mix(mix: &MixResult, out: &mut Outcome) {
    out.attempted += mix.requests() as u64;
    if mix.failed > 0 {
        out.failed += mix.failed;
        out.failures.push(format!(
            "{} served replies were errors or differed bitwise from solo evaluate",
            mix.failed
        ));
    }
}

/// The server's own view of the run: it answered no request with an error
/// and built each plan once.
pub fn check_counters(spec: &Serve, counters: &ServeCounters, out: &mut Outcome) {
    out.check(counters.errors_total == 0, || {
        format!("server counted {} errors", counters.errors_total)
    });
    out.check(counters.plan_builds == spec.plans(), || {
        format!(
            "{} plan builds, expected {}",
            counters.plan_builds,
            spec.plans()
        )
    });
}

/// The end-to-end metrics of the served workload.
pub fn run_serve(spec: &Serve, seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let traffic = Traffic::build(spec, seed, &mut out);
    if !out.correct() {
        return out;
    }
    let started = start_server(&traffic, &mut out);
    out.check(started.is_ok(), || {
        format!("server start failed: {:?}", started.as_ref().err())
    });
    let Ok((server, first_setup_s)) = started else {
        return out;
    };
    let per_client = Budget {
        min_reps: budget.min_reps * 4,
        ..budget
    };
    let mix = run_mix(server.local_addr(), &traffic, spec.warmup, per_client, None);
    check_counters(spec, &layers::serve_counters(&server), &mut out);
    let peak = peak_rss_mb();
    stop_server(server);
    count_mix(&mix, &mut out);

    let setups = setup_samples(spec, first_setup_s, &traffic, &mut out);
    out.push_timing("setup_s", &setups, "s");
    if mix.requests() > 0 {
        out.push_timing("eval_s", &mix.latencies.concat(), "s");
        out.push("req_per_s", mix.requests() as f64 / mix.wall_s, "1/s");
    }
    let err = served_error(&traffic);
    out.push("err_rms", err, "relative");
    out.check(err <= spec.err_bound, || {
        format!("err_rms {err:.3e} above the bound {:.3e}", spec.err_bound)
    });
    push_peak_rss(peak, &mut out);
    out
}
