//! Example client for fmm-serve: exercises both front doors and verifies
//! that served results are bitwise identical to a local
//! [`fmm_core::Fmm::evaluate`] of the same request.
//!
//! ```text
//! serve-client --addr 127.0.0.1:7331 json      # HTTP/JSON round-trip + verify
//! serve-client --addr 127.0.0.1:7331 binary    # binary round-trip + verify
//! serve-client --addr 127.0.0.1:7331 storm     # 16 concurrent binary requests
//! serve-client --addr 127.0.0.1:7331 metrics   # scrape /metrics
//! serve-client --addr 127.0.0.1:7331 info      # GET /info
//! serve-client --addr 127.0.0.1:7331 shutdown  # request graceful drain
//! ```
//!
//! Exits non-zero on any mismatch or protocol error.

use fmm_core::{Fmm, FmmConfig};
use fmm_serve::protocol::{self, EvalRequest, Opcode, Shape};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    // The repo's standard LCG (bench/tests), so servers and clients
    // agree on inputs without sharing code.
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
        order: 5,
        depth: 2,
        separation: 2,
        mixed: false,
        forces: false,
    }
}

fn local_reference(positions: &[[f64; 3]], charges: &[f64]) -> Vec<f64> {
    let fmm = Fmm::new(FmmConfig::order(5).depth(2)).expect("local config");
    fmm.evaluate(positions, charges)
        .expect("local evaluate")
        .potentials
}

fn http_exchange(addr: &str, request: &str) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).map_err(|e| e.to_string())?;
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).map_err(|e| e.to_string())?;
        if h.trim_end().is_empty() {
            break;
        }
        if let Some((name, val)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = val.trim().parse().map_err(|_| "bad content-length")?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok((
        status.trim_end().to_string(),
        String::from_utf8_lossy(&body).into_owned(),
    ))
}

fn http_post(addr: &str, path: &str, body: &str) -> Result<(String, String), String> {
    http_exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn http_get(addr: &str, path: &str) -> Result<(String, String), String> {
    http_exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    )
}

fn check_bitwise(got: &[f64], want: &[f64], label: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{label}: {} potentials, wanted {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "{label}: potential {i} differs: served {a:e} vs local {b:e}"
            ));
        }
    }
    Ok(())
}

fn run_json(addr: &str) -> Result<(), String> {
    let (pts, q) = system(96, 42);
    let flat: Vec<String> = pts
        .iter()
        .flat_map(|p| p.iter().map(|c| format!("{}", c)))
        .collect();
    let charges: Vec<String> = q.iter().map(|c| format!("{}", c)).collect();
    let body = format!(
        "{{\"order\":5,\"depth\":2,\"positions\":[{}],\"charges\":[{}]}}",
        flat.join(","),
        charges.join(",")
    );
    let (status, resp) = http_post(addr, "/evaluate", &body)?;
    if !status.contains("200") {
        return Err(format!("JSON evaluate: {status}: {resp}"));
    }
    let v = fmm_serve::json::parse(&resp)?;
    let served = v
        .get("potentials")
        .and_then(fmm_serve::json::Value::as_f64_array)
        .ok_or("response has no potentials array")?;
    check_bitwise(&served, &local_reference(&pts, &q), "JSON round-trip")?;
    println!("json: OK ({} potentials bitwise identical)", served.len());
    Ok(())
}

/// One request frame on a fresh binary-door connection; the reply frame.
fn binary_exchange(addr: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut send = || {
        stream.write_all(&protocol::MAGIC)?;
        protocol::write_frame(&mut stream, payload)?;
        protocol::read_frame(&mut stream)
    };
    send().map_err(|e| e.to_string())
}

fn binary_evaluate(addr: &str, req: &EvalRequest) -> Result<protocol::EvalResponse, String> {
    let frame = binary_exchange(addr, &protocol::encode_evaluate(req))?;
    protocol::decode_eval_response(&frame, req.shape.forces)
}

fn run_binary(addr: &str) -> Result<(), String> {
    let (pts, q) = system(128, 1234);
    let resp = binary_evaluate(
        addr,
        &EvalRequest {
            shape: shape(),
            positions: pts.clone(),
            charges: q.clone(),
        },
    )?;
    check_bitwise(
        &resp.potentials,
        &local_reference(&pts, &q),
        "binary round-trip",
    )?;
    println!(
        "binary: OK ({} potentials bitwise identical, batch_size {})",
        resp.potentials.len(),
        resp.batch_size
    );
    Ok(())
}

/// Fire concurrent same-shape requests so the server's window actually
/// coalesces them; verify each against the local reference.
fn run_storm(addr: &str) -> Result<(), String> {
    let clients = 16;
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.to_string();
            std::thread::spawn(move || -> Result<usize, String> {
                let (pts, q) = system(64, 5000 + i as u64);
                let resp = binary_evaluate(
                    &addr,
                    &EvalRequest {
                        shape: shape(),
                        positions: pts.clone(),
                        charges: q.clone(),
                    },
                )?;
                check_bitwise(
                    &resp.potentials,
                    &local_reference(&pts, &q),
                    &format!("storm client {i}"),
                )?;
                Ok(resp.batch_size)
            })
        })
        .collect();
    let mut max_batch = 0usize;
    for h in handles {
        max_batch = max_batch.max(h.join().map_err(|_| "client panicked")??);
    }
    println!("storm: OK ({clients} clients bitwise identical, max batch_size {max_batch})");
    Ok(())
}

fn run_binary_text(addr: &str, op: Opcode) -> Result<String, String> {
    protocol::decode_text(&binary_exchange(addr, &[op as u8])?)
}

fn main() {
    let mut addr = "127.0.0.1:7331".to_string();
    let mut command = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => {
                addr = args.next().unwrap_or_else(|| {
                    eprintln!("--addr needs a value");
                    std::process::exit(2);
                })
            }
            "json" | "binary" | "storm" | "metrics" | "info" | "shutdown" => command = Some(a),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let command = command.unwrap_or_else(|| {
        eprintln!("usage: serve-client [--addr HOST:PORT] json|binary|storm|metrics|info|shutdown");
        std::process::exit(2);
    });

    let result = match command.as_str() {
        "json" => run_json(&addr),
        "binary" => run_binary(&addr),
        "storm" => run_storm(&addr),
        "metrics" => http_get(&addr, "/metrics").map(|(_, body)| print!("{body}")),
        "info" => run_binary_text(&addr, Opcode::Info).map(|t| println!("{t}")),
        "shutdown" => http_post(&addr, "/shutdown", "").map(|(s, _)| println!("shutdown: {s}")),
        _ => unreachable!(),
    };
    if let Err(e) = result {
        eprintln!("serve-client {command}: FAILED: {e}");
        std::process::exit(1);
    }
}
