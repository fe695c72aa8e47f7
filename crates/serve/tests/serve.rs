//! End-to-end service tests on a loopback listener: both front doors,
//! coalescing under concurrency, metrics, and graceful shutdown.

use fmm_core::{Fmm, FmmConfig};
use fmm_serve::protocol::{self, EvalRequest, Opcode, Shape};
use fmm_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts: Vec<[f64; 3]> = (0..n).map(|_| [next(), next(), next()]).collect();
    let q: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
    (pts, q)
}

fn shape() -> Shape {
    Shape {
        order: 3,
        depth: 2,
        separation: 2,
        mixed: false,
        forces: false,
    }
}

fn start(window_ms: u64, max_batch: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        conn_threads: 8,
        exec_threads: 2,
        window: Duration::from_millis(window_ms),
        max_batch,
        registry_capacity: 16,
        read_timeout: Duration::from_secs(10),
    })
    .expect("bind loopback")
}

fn binary_evaluate(addr: &str, req: &EvalRequest) -> Result<protocol::EvalResponse, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.write_all(&protocol::MAGIC).map_err(|e| e.to_string())?;
    protocol::write_frame(&mut s, &protocol::encode_evaluate(req)).map_err(|e| e.to_string())?;
    let frame = protocol::read_frame(&mut s).map_err(|e| e.to_string())?;
    protocol::decode_eval_response(&frame, req.shape.forces)
}

fn http_roundtrip(addr: &str, request: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut r = BufReader::new(s);
    let mut status = String::new();
    r.read_line(&mut status).unwrap();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        r.read_line(&mut h).unwrap();
        if h.trim_end().is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn binary_round_trip_is_bitwise_vs_local() {
    let server = start(1, 64);
    let addr = server.local_addr().to_string();
    let (pts, q) = system(80, 7);
    let resp = binary_evaluate(
        &addr,
        &EvalRequest {
            shape: shape(),
            positions: pts.clone(),
            charges: q.clone(),
        },
    )
    .unwrap();
    let local = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
    let want = local.evaluate(&pts, &q).unwrap().potentials;
    assert_eq!(resp.potentials.len(), want.len());
    for (a, b) in resp.potentials.iter().zip(&want) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    server.shutdown();
    server.join();
}

#[test]
fn forces_round_trip_carries_fields() {
    let server = start(1, 64);
    let addr = server.local_addr().to_string();
    let (pts, q) = system(48, 21);
    let mut sh = shape();
    sh.forces = true;
    let resp = binary_evaluate(
        &addr,
        &EvalRequest {
            shape: sh,
            positions: pts.clone(),
            charges: q.clone(),
        },
    )
    .unwrap();
    let local = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
    let want = local.evaluate_forces(&pts, &q).unwrap();
    let fields = resp.fields.expect("fields in forces response");
    for (a, b) in fields.iter().zip(&want.fields.unwrap()) {
        for d in 0..3 {
            assert_eq!(a[d].to_bits(), b[d].to_bits());
        }
    }
    server.shutdown();
    server.join();
}

#[test]
fn json_front_door_round_trips() {
    let server = start(1, 64);
    let addr = server.local_addr().to_string();
    let (pts, q) = system(32, 3);
    let flat: Vec<String> = pts
        .iter()
        .flat_map(|p| p.iter().map(|c| format!("{}", c)))
        .collect();
    let charges: Vec<String> = q.iter().map(|c| format!("{}", c)).collect();
    let body = format!(
        "{{\"order\":3,\"depth\":2,\"positions\":[{}],\"charges\":[{}]}}",
        flat.join(","),
        charges.join(",")
    );
    let raw = format!(
        "POST /evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let (status, resp) = http_roundtrip(&addr, &raw);
    assert!(status.contains("200"), "{status}: {resp}");
    let v = fmm_serve::json::parse(&resp).unwrap();
    let served = v.get("potentials").unwrap().as_f64_array().unwrap();
    let local = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
    let want = local.evaluate(&pts, &q).unwrap().potentials;
    for (a, b) in served.iter().zip(&want) {
        assert_eq!(a.to_bits(), b.to_bits(), "JSON round-trip must be bitwise");
    }

    // Unknown route and malformed body are clean errors, not hangs.
    let (nf, _) = http_roundtrip(&addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(nf.contains("404"));
    let (bad, _) = http_roundtrip(
        &addr,
        "POST /evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}",
    );
    assert!(bad.contains("400"));

    server.shutdown();
    server.join();
}

/// A non-finite value is rejected at the binary door with an error frame
/// that names it — not answered with NaN potentials — and the connection
/// pool keeps serving.
#[test]
fn binary_door_rejects_non_finite_input() {
    let server = start(1, 64);
    let addr = server.local_addr().to_string();
    let (pts, q) = system(40, 11);
    for (bad_position, bad_charge) in [(f64::NAN, 1.0), (0.5, f64::NEG_INFINITY)] {
        let mut positions = pts.clone();
        positions[7][2] = bad_position;
        let mut charges = q.clone();
        charges[3] *= bad_charge;
        let err = binary_evaluate(
            &addr,
            &EvalRequest {
                shape: shape(),
                positions,
                charges,
            },
        )
        .expect_err("non-finite input must not be evaluated");
        let what = if bad_position.is_nan() {
            "position 7"
        } else {
            "charge 3"
        };
        assert!(err.contains(what) && err.contains("not finite"), "{err}");
    }
    let good = EvalRequest {
        shape: shape(),
        positions: pts,
        charges: q,
    };
    let resp = binary_evaluate(&addr, &good).unwrap();
    assert!(resp.potentials.iter().all(|p| p.is_finite()));
    server.shutdown();
    server.join();
}

/// The JSON door answers a non-finite value (an overflowing literal is the
/// one JSON can carry) with HTTP 400 and the same complaint.
#[test]
fn json_door_rejects_non_finite_input() {
    let server = start(1, 64);
    let addr = server.local_addr().to_string();
    let body =
        "{\"order\":3,\"depth\":2,\"positions\":[0.1,0.2,0.3,0.4,1e999,0.6],\"charges\":[1,1]}";
    let raw = format!(
        "POST /evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let (status, resp) = http_roundtrip(&addr, &raw);
    assert!(status.contains("400"), "{status}: {resp}");
    assert!(
        resp.contains("position 1") && resp.contains("not finite"),
        "{resp}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn concurrent_same_shape_requests_coalesce() {
    // A generous window so concurrent clients land in one batch.
    let server = start(150, 64);
    let addr = server.local_addr().to_string();
    let clients = 8;
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (pts, q) = system(48, 100 + i as u64);
                let resp = binary_evaluate(
                    &addr,
                    &EvalRequest {
                        shape: shape(),
                        positions: pts.clone(),
                        charges: q.clone(),
                    },
                )
                .unwrap();
                let local = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
                let want = local.evaluate(&pts, &q).unwrap().potentials;
                for (a, b) in resp.potentials.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "client {i}");
                }
                resp.batch_size
            })
        })
        .collect();
    let sizes: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let max = *sizes.iter().max().unwrap();
    assert!(
        max >= 2,
        "no coalescing observed: batch sizes {sizes:?} (window too short for the host?)"
    );
    // However the batches landed, the registry built exactly one plan.
    assert_eq!(server.engine().registry().stats().plan_builds, 1);
    server.shutdown();
    server.join();
}

#[test]
fn metrics_and_info_report_the_registry() {
    let server = start(1, 64);
    let addr = server.local_addr().to_string();
    let (pts, q) = system(32, 5);
    binary_evaluate(
        &addr,
        &EvalRequest {
            shape: shape(),
            positions: pts,
            charges: q,
        },
    )
    .unwrap();
    let (status, metrics) = http_roundtrip(&addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(status.contains("200"));
    assert!(metrics.contains("fmm_requests_total 1"), "{metrics}");
    assert!(metrics.contains("fmm_plan_builds 1"), "{metrics}");
    assert!(metrics.contains("fmm_set_builds 1"), "{metrics}");
    assert!(metrics.contains("fmm_set_hits 0"), "{metrics}");
    assert!(metrics.contains("fmm_set_entries 1"), "{metrics}");
    assert!(metrics.contains("fmm_batches_total 1"), "{metrics}");

    // Info over the binary door.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(&protocol::MAGIC).unwrap();
    protocol::write_frame(&mut s, &[Opcode::Info as u8]).unwrap();
    let info = protocol::decode_text(&protocol::read_frame(&mut s).unwrap()).unwrap();
    let v = fmm_serve::json::parse(&info).unwrap();
    assert_eq!(
        v.get("registry")
            .unwrap()
            .get("plan_builds")
            .unwrap()
            .as_usize(),
        Some(1)
    );
    // One translation set: the order-3 octahedron's.
    let Some(fmm_serve::json::Value::Arr(sets)) = v.get("sets") else {
        panic!("no sets array: {info}")
    };
    assert_eq!(sets.len(), 1, "{info}");
    assert_eq!(sets[0].get("rule").unwrap().as_str(), Some("octahedron"));
    assert!(sets[0].get("bytes").unwrap().as_usize().unwrap() > 0);
    // The fabrics the SPMD executor can run over, in declaration order.
    assert!(
        info.contains(r#""transports":["inprocess","unix","tcp"]"#),
        "{info}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let server = start(1, 64);
    let addr = server.local_addr().to_string();
    let (pts, q) = system(32, 9);
    binary_evaluate(
        &addr,
        &EvalRequest {
            shape: shape(),
            positions: pts,
            charges: q,
        },
    )
    .unwrap();
    let (status, body) = http_roundtrip(
        &addr,
        "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(status.contains("200"));
    assert!(body.contains("draining"));
    // join() must return: acceptor unblocked, workers drained.
    server.join();
    // The port is released: connecting now fails (or is refused fast).
    assert!(TcpStream::connect(&addr).is_err());
}
