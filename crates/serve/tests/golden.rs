//! Golden bytes of the `FMM1` binary protocol: one fixed message per
//! frame kind, framed exactly as the server writes it. Any change to the
//! wire format — field order, widths, the length prefix — fails here
//! before it can strand a deployed client.

use fmm_serve::protocol::{
    decode_eval_response, decode_evaluate, decode_text, encode_error, encode_eval_response,
    encode_evaluate, encode_text, read_frame, write_frame, EvalRequest, EvalResponse, Opcode,
    Shape,
};

/// Bytes from hex, whitespace ignored (fields are grouped for reading).
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

/// The frame `write_frame` puts on the wire for `payload`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).unwrap();
    wire
}

/// The payload `read_frame` takes off the wire for `golden`, which must
/// be exactly one frame.
fn unframed(golden: &[u8]) -> Vec<u8> {
    let mut r = golden;
    let payload = read_frame(&mut r).unwrap();
    assert!(r.is_empty(), "{} bytes after the frame", r.len());
    payload
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

// length | opcode | flags (forces, mixed) | separation | order u16 |
// depth u32 | n u32 | positions 0.5 -0.25 1.0 | charges -2.5
const EVALUATE: &str = "2d000000 01 03 02 0500 02000000 01000000
    000000000000e03f 000000000000d0bf 000000000000f03f 00000000000004c0";

// length | status ok | n u32 | batch size u32 | potentials 0.5 |
// fields 1.0 -0.25 0.5
const EVAL_RESPONSE: &str = "29000000 00 01000000 03000000
    000000000000e03f 000000000000f03f 000000000000d0bf 000000000000e03f";

// length | status ok | "ok"
const TEXT: &str = "03000000 00 6f6b";

// length | status error | "boom"
const ERROR: &str = "05000000 01 626f6f6d";

#[test]
fn evaluate_request_bytes_are_pinned() {
    let shape = Shape {
        order: 5,
        depth: 2,
        separation: 2,
        mixed: true,
        forces: true,
    };
    let req = EvalRequest {
        shape,
        positions: vec![[0.5, -0.25, 1.0]],
        charges: vec![-2.5],
    };
    assert_eq!(framed(&encode_evaluate(&req)), hex(EVALUATE));

    let payload = unframed(&hex(EVALUATE));
    assert_eq!(payload[0], Opcode::Evaluate as u8);
    let back = decode_evaluate(&payload[1..]).unwrap();
    assert_eq!(back.shape, shape);
    assert_eq!(
        bits(back.positions.as_flattened()),
        bits(&[0.5, -0.25, 1.0])
    );
    assert_eq!(bits(&back.charges), bits(&[-2.5]));
}

#[test]
fn evaluate_response_bytes_are_pinned() {
    let resp = EvalResponse {
        potentials: vec![0.5],
        fields: Some(vec![[1.0, -0.25, 0.5]]),
        batch_size: 3,
    };
    assert_eq!(framed(&encode_eval_response(&resp)), hex(EVAL_RESPONSE));

    let back = decode_eval_response(&unframed(&hex(EVAL_RESPONSE)), true).unwrap();
    assert_eq!(back.batch_size, 3);
    assert_eq!(bits(&back.potentials), bits(&[0.5]));
    let fields = back.fields.unwrap();
    assert_eq!(bits(fields.as_flattened()), bits(&[1.0, -0.25, 0.5]));
}

#[test]
fn text_bytes_are_pinned() {
    assert_eq!(framed(&encode_text("ok")), hex(TEXT));
    assert_eq!(decode_text(&unframed(&hex(TEXT))).unwrap(), "ok");
}

#[test]
fn error_bytes_are_pinned() {
    assert_eq!(framed(&encode_error("boom")), hex(ERROR));
    assert_eq!(decode_text(&unframed(&hex(ERROR))).unwrap_err(), "boom");
    let as_eval = decode_eval_response(&unframed(&hex(ERROR)), false);
    assert_eq!(as_eval.unwrap_err(), "boom");
}
