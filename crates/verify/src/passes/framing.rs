//! Pass 7 — framing totality over every binary protocol.
//!
//! Three protocols cross a process boundary, each a message codec on the
//! one frame layer in [`fmm_wire`]: `FMM1` (the serve door,
//! [`fmm_serve::protocol`]), `FMMW` (the SPMD data plane,
//! [`fmm_spmd::transport`]) and `FMMC` (the launcher's control plane,
//! [`fmm_spmd::distributed`]). Each must be *total*, and this pass runs
//! every codec through its own read path over one deterministic corpus:
//!
//! * **round trip** — a valid message, framed and read back, re-encodes
//!   to the same bytes (so every f64 survives bit for bit);
//! * **truncation** — every strict prefix of its frame is a clean `Err`
//!   (never a panic, never a partial parse), and so is every strict
//!   prefix of its payload framed whole, wherever the codec delimits its
//!   own messages (an `FMMW` word count, and a text reply, is implied by
//!   the frame length, so only their frame cuts count);
//! * **hostile input** — bad magic, a wrong opcode, and element counts
//!   no frame can back are rejected before anything is allocated;
//! * **cap before allocate** — a length prefix past the protocol's cap,
//!   with no body behind it, is rejected as invalid rather than read;
//! * every `FMM1` opcode byte is either a known frame or `None`.
//!
//! The randomized counterparts (proptest over arbitrary byte soup) are
//! `fmm-wire`'s `fuzz_frames.rs` for the frame layer and the codecs'
//! own `fuzz_protocol.rs` and `fuzz_fmmw.rs`.

use std::io;
use std::time::Duration;

use fmm_serve::protocol::{
    self, decode_eval_response, decode_evaluate, decode_text, encode_error, encode_eval_response,
    encode_evaluate, encode_text, EvalRequest, EvalResponse, Opcode, Shape,
};
use fmm_spmd::distributed::{
    encode_hello, encode_job, encode_result, read_hello, read_job, read_result, JobSpec, MAX_CTRL,
};
use fmm_spmd::transport::{self, encode_msg, read_msg, HEADER};
use fmm_spmd::WorkerOut;
use fmm_wire::{invalid, put_u32, put_u64};

/// Summary of a clean framing analysis.
#[derive(Debug, Clone, Default)]
pub struct FramingSummary {
    /// The protocols checked, in corpus order.
    pub protocols: Vec<&'static str>,
    /// Encode→read→encode identities verified.
    pub round_trips: usize,
    /// Truncated frames and payloads that read as a clean error.
    pub truncations: usize,
    /// Hostile frames (bad magic or opcode, unbackable counts, lengths
    /// past the cap) that read as a clean error.
    pub hostile: usize,
    /// `FMM1` opcode bytes classified (the whole `u8` space).
    pub opcodes: usize,
}

/// A protocol's read path for one message kind: read one frame off the
/// stream, decode it, and re-encode what was decoded.
type ReadPath = Box<dyn Fn(&mut &[u8]) -> io::Result<Vec<u8>>>;

enum Expect {
    /// A valid message; `self_delimiting` when no strict prefix of the
    /// payload is itself a message.
    RoundTrip { self_delimiting: bool },
    /// A payload the read path must reject.
    Reject,
}

struct Case {
    protocol: &'static str,
    what: String,
    cap: usize,
    payload: Vec<u8>,
    read: ReadPath,
    expect: Expect,
}

fn frame(payload: &[u8], cap: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    fmm_wire::write_frame(&mut wire, payload, cap).expect("corpus payloads fit their cap");
    wire
}

fn shapes() -> Vec<Shape> {
    let base = Shape {
        order: 3,
        depth: 2,
        separation: 2,
        mixed: false,
        forces: false,
    };
    vec![
        base,
        Shape {
            forces: true,
            ..base
        },
        Shape {
            mixed: true,
            separation: 1,
            ..base
        },
        Shape {
            order: 8,
            depth: 5,
            forces: true,
            mixed: true,
            ..base
        },
    ]
}

fn points(n: usize) -> Vec<[f64; 3]> {
    (0..n)
        .map(|i| {
            let f = i as f64 / (n.max(1) as f64);
            [f, (f * 1.7) % 1.0, (f * 2.3) % 1.0]
        })
        .collect()
}

/// Bit patterns a lossy codec would disturb: signed zero, NaN payloads,
/// infinities, subnormals.
fn awkward(n: usize) -> Vec<f64> {
    let pool = [
        -0.0,
        f64::from_bits(0x7ff8_dead_beef_0001),
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 3.0,
        1.0 / 3.0,
    ];
    (0..n).map(|i| pool[i % pool.len()]).collect()
}

fn fmm1_cases() -> Vec<Case> {
    let cap = protocol::MAX_FRAME as usize;
    let case = |what: String, payload: Vec<u8>, read: ReadPath, expect| Case {
        protocol: "FMM1",
        what,
        cap,
        payload,
        read,
        expect,
    };
    // The server hands `decode_evaluate` the payload after its opcode
    // byte (`handle_binary`); a response decoder takes the whole payload.
    let request = || -> ReadPath {
        Box::new(|r| {
            let payload = protocol::read_frame(r)?;
            match payload.split_first() {
                Some((&op, body)) if op == Opcode::Evaluate as u8 => decode_evaluate(body)
                    .map(|req| encode_evaluate(&req))
                    .map_err(invalid),
                _ => Err(invalid("not an evaluate frame".into())),
            }
        })
    };
    let response = |forces: bool| -> ReadPath {
        Box::new(move |r| {
            let payload = protocol::read_frame(r)?;
            decode_eval_response(&payload, forces)
                .map(|resp| encode_eval_response(&resp))
                .map_err(invalid)
        })
    };
    let text = || -> ReadPath {
        Box::new(|r| {
            let payload = protocol::read_frame(r)?;
            Ok(match decode_text(&payload) {
                Ok(text) => encode_text(&text),
                Err(msg) => encode_error(&msg),
            })
        })
    };

    let round_trip = || Expect::RoundTrip {
        self_delimiting: true,
    };
    let mut cases = Vec::new();
    for shape in shapes() {
        for n in [1usize, 3, 17] {
            let req = EvalRequest {
                shape,
                positions: points(n),
                charges: awkward(n),
            };
            let what = format!("evaluate request ({shape:?}, n={n})");
            cases.push(case(what, encode_evaluate(&req), request(), round_trip()));
            let resp = EvalResponse {
                potentials: awkward(n),
                fields: shape.forces.then(|| points(n)),
                batch_size: n,
            };
            let what = format!("evaluate response ({shape:?}, n={n})");
            let payload = encode_eval_response(&resp);
            cases.push(case(what, payload, response(shape.forces), round_trip()));
        }
    }
    let whole = || Expect::RoundTrip {
        self_delimiting: false,
    };
    cases.push(case(
        "text".into(),
        encode_text("{\"ok\":1}"),
        text(),
        whole(),
    ));
    cases.push(case("error".into(), encode_error("boom"), text(), whole()));

    // A particle count no frame can back must fail before allocating
    // 96 GiB, in a request and in a response.
    let mut hostile = encode_evaluate(&EvalRequest {
        shape: shapes()[0],
        positions: vec![],
        charges: vec![],
    });
    hostile[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
    cases.push(case(
        "request of 2^32-1 particles".into(),
        hostile,
        request(),
        Expect::Reject,
    ));
    let mut hostile = encode_eval_response(&EvalResponse {
        potentials: vec![],
        fields: None,
        batch_size: 1,
    });
    hostile[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    cases.push(case(
        "response of 2^32-1 particles".into(),
        hostile,
        response(true),
        Expect::Reject,
    ));
    cases
}

fn fmmw_cases() -> Vec<Case> {
    let case = |what: String, payload: Vec<u8>, expect| Case {
        protocol: "FMMW",
        what,
        cap: transport::MAX_FRAME,
        payload,
        read: Box::new(|r| read_msg(r).map(|(from, tag, data)| encode_msg(from, tag, &data))),
        expect,
    };
    let mut cases = Vec::new();
    for (i, n) in [0usize, 1, 3, 17].into_iter().enumerate() {
        let (from, tag) = (i as u32 * 0x0101_0101, u64::MAX >> i);
        let what = format!("message from {from} tag {tag:#x}, {n} words");
        let expect = Expect::RoundTrip {
            self_delimiting: false,
        };
        cases.push(case(what, encode_msg(from, tag, &awkward(n)), expect));
    }
    let valid = encode_msg(1, 7, &[1.0, 2.0]);
    let mut bad_magic = valid.clone();
    bad_magic[3] = b'X';
    cases.push(case("bad magic".into(), bad_magic, Expect::Reject));
    let short = valid[..HEADER - 1].to_vec();
    cases.push(case("short header".into(), short, Expect::Reject));
    let ragged = valid[..HEADER + 7].to_vec();
    cases.push(case("ragged word".into(), ragged, Expect::Reject));
    cases
}

fn job(n: usize, workers: u32, cost_weighted: bool) -> JobSpec {
    JobSpec {
        order: 5,
        m_trunc: 3,
        outer_ratio: 1.6,
        inner_ratio: 1.0,
        depth: 3,
        softening: 1e-3,
        kernel: "scalar".into(),
        supernodes: !cost_weighted,
        cost_weighted,
        with_fields: cost_weighted,
        workers,
        domain_min: [-0.0, 0.25, -1.5],
        domain_size: 2.5,
        positions: points(n),
        charges: awkward(n),
        peers: (0..workers)
            .map(|r| format!("unix:/tmp/fmm.r{r}"))
            .collect(),
    }
}

fn worker_out(n: usize, fields: bool) -> WorkerOut {
    let mut out = WorkerOut {
        orig: (0..n).rev().collect(),
        pot: awkward(n),
        fields: fields.then(|| points(n)),
        p2o_flops: 1,
        eval_flops: 2,
        traversal_flops: 3,
        times: [Duration::from_nanos(u64::MAX >> 2); 6],
        wait: [Duration::from_nanos(7); 6],
        ..WorkerOut::default()
    };
    out.counters.set_phase(3);
    out.counters.add_messages(11);
    out.counters.add_words(13);
    out.counters.add_local_words(17);
    out.counters.set_phase(0);
    out.near_stats.pair_interactions = 19;
    out
}

fn fmmc_cases() -> Vec<Case> {
    let case = |what: &str, payload: Vec<u8>, read: ReadPath, expect| Case {
        protocol: "FMMC",
        what: what.into(),
        cap: MAX_CTRL,
        payload,
        read,
        expect,
    };
    let hello =
        || -> ReadPath { Box::new(|r| read_hello(r).map(|(rank, a)| encode_hello(rank, &a))) };
    let job_path = || -> ReadPath { Box::new(|r| read_job(r).map(|j| encode_job(&j))) };
    let result = || -> ReadPath {
        Box::new(|r| read_result(r).map(|(rank, out)| encode_result(rank, &out)))
    };
    let valid = || Expect::RoundTrip {
        self_delimiting: true,
    };

    let mut cases = vec![
        case(
            "Hello",
            encode_hello(3, "tcp:127.0.0.1:4000"),
            hello(),
            valid(),
        ),
        case(
            "Job (one rank)",
            encode_job(&job(1, 1, false)),
            job_path(),
            valid(),
        ),
        case(
            "Job (four ranks)",
            encode_job(&job(5, 4, true)),
            job_path(),
            valid(),
        ),
        case(
            "Result",
            encode_result(2, &worker_out(3, false)),
            result(),
            valid(),
        ),
        case(
            "Result (fields)",
            encode_result(0, &worker_out(4, true)),
            result(),
            valid(),
        ),
    ];

    let mut bad_magic = encode_hello(0, "unix:/x");
    bad_magic[0] = b'X';
    cases.push(case("bad magic", bad_magic, hello(), Expect::Reject));
    let hello_as_job = encode_hello(0, "unix:/x");
    cases.push(case(
        "Hello read as a Job",
        hello_as_job,
        job_path(),
        Expect::Reject,
    ));

    // Counts no frame can back: a Result of 2^40 particles, a Job of 2^61
    // (whose 8 · 3 · n bytes wrap to 0 in u64) and of 2^32-1 peers.
    let mut b = encode_result(0, &WorkerOut::default());
    b.truncate(4 + 1 + 4 + 3 * 8 * 6); // magic, opcode, rank, counters
    put_u64(&mut b, 1 << 40);
    cases.push(case(
        "Result of 2^40 particles",
        b,
        result(),
        Expect::Reject,
    ));
    let job_head = |workers| {
        let mut head = job(0, 0, false);
        head.workers = workers;
        let mut b = encode_job(&head);
        b.truncate(b.len() - 12); // particle count u64, peer count u32
        b
    };
    let mut b = job_head(0);
    put_u64(&mut b, 1 << 61);
    put_u32(&mut b, 0);
    cases.push(case("Job of 2^61 particles", b, job_path(), Expect::Reject));
    let mut b = job_head(u32::MAX);
    put_u64(&mut b, 0);
    put_u32(&mut b, u32::MAX);
    cases.push(case("Job of 2^32-1 peers", b, job_path(), Expect::Reject));
    let mut short = job(1, 2, false);
    short.peers.pop();
    let b = encode_job(&short);
    cases.push(case("Job with a peer short", b, job_path(), Expect::Reject));
    cases
}

/// Run every codec over the corpus.
pub fn check() -> Result<FramingSummary, Vec<String>> {
    let mut errors = Vec::new();
    let mut summary = FramingSummary::default();
    let cases: Vec<Case> = [fmm1_cases(), fmmw_cases(), fmmc_cases()]
        .into_iter()
        .flatten()
        .collect();

    for c in &cases {
        let label = format!("{} {}", c.protocol, c.what);
        let wire = frame(&c.payload, c.cap);
        let rejects = |bytes: &[u8]| (c.read)(&mut &bytes[..]).is_err();
        let self_delimiting = match c.expect {
            Expect::Reject => {
                if rejects(&wire) {
                    summary.hostile += 1;
                } else {
                    errors.push(format!("{label}: accepted"));
                }
                continue;
            }
            Expect::RoundTrip { self_delimiting } => self_delimiting,
        };
        match (c.read)(&mut wire.as_slice()) {
            Ok(back) if back == c.payload => summary.round_trips += 1,
            Ok(_) => errors.push(format!("{label}: round trip not identity")),
            Err(e) => errors.push(format!("{label}: round trip failed: {e}")),
        }
        for cut in 0..wire.len() {
            if rejects(&wire[..cut]) {
                summary.truncations += 1;
            } else {
                errors.push(format!(
                    "{label}: frame cut at {cut} of {} bytes read as valid",
                    wire.len()
                ));
            }
        }
        for cut in (0..c.payload.len()).filter(|_| self_delimiting) {
            if rejects(&frame(&c.payload[..cut], c.cap)) {
                summary.truncations += 1;
            } else {
                errors.push(format!(
                    "{label}: payload cut at {cut} of {} bytes read as valid",
                    c.payload.len()
                ));
            }
        }
    }

    // The cap holds on each protocol's read path: a length prefix past
    // it, with no body behind it, is rejected as invalid — a reader that
    // allocated and read first would report the missing body instead.
    for c in &cases {
        if summary.protocols.last() == Some(&c.protocol) {
            continue;
        }
        summary.protocols.push(c.protocol);
        for len in [c.cap as u32 + 1, u32::MAX] {
            match (c.read)(&mut len.to_le_bytes().as_slice()) {
                Err(e) if e.kind() == io::ErrorKind::InvalidData => summary.hostile += 1,
                Err(e) => errors.push(format!(
                    "{}: a {len}-byte length over the {}-byte cap was read, not rejected ({e})",
                    c.protocol, c.cap
                )),
                Ok(_) => errors.push(format!("{}: a {len}-byte frame accepted", c.protocol)),
            }
        }
    }

    // FMM1's opcode space is total: the four known frames and nothing else.
    for b in 0..=255u8 {
        let known = matches!(b, 1..=4);
        match Opcode::from_u8(b) {
            Some(_) if known => summary.opcodes += 1,
            None if !known => summary.opcodes += 1,
            Some(op) => errors.push(format!("opcode byte {b} unexpectedly maps to {op:?}")),
            None => errors.push(format!("known opcode byte {b} rejected")),
        }
    }

    if errors.is_empty() {
        Ok(summary)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_total() {
        let s = check().expect("codecs total over the corpus");
        assert_eq!(s.protocols, ["FMM1", "FMMW", "FMMC"]);
        assert!(s.round_trips >= 35, "round trips: {}", s.round_trips);
        assert!(s.truncations > 5000, "truncations: {}", s.truncations);
        assert!(s.hostile >= 17, "hostile: {}", s.hostile);
        assert_eq!(s.opcodes, 256);
    }
}
