//! Wire protocol shared by both front doors.
//!
//! The binary protocol is length-prefixed frames over TCP:
//!
//! ```text
//! magic  "FMM1"          (4 bytes, once per connection, client → server)
//! frame  u32 LE length | payload               (both directions)
//! ```
//!
//! A request payload is `opcode (u8)` followed by opcode-specific data;
//! a response payload is `status (u8)` — 0 = ok, 1 = error — followed by
//! the result (ok) or a UTF-8 message (error). All integers are
//! little-endian; all reals are `f64` LE bit patterns, so a round-trip
//! is bitwise by construction.
//!
//! `Evaluate` request data:
//!
//! ```text
//! flags (u8: bit0 = forces, bit1 = mixed precision)
//! separation (u8: 1 | 2) · order (u16) · depth (u32) · n (u32)
//! positions: 3·n f64 · charges: n f64
//! ```
//!
//! `Evaluate` ok-response data: `n (u32)`, `n` potentials, then (iff
//! forces) `3·n` field components. `Info` and `Metrics` ok-responses
//! carry UTF-8 text (JSON and Prometheus-style respectively); `Shutdown`
//! acknowledges with an empty ok before the server begins draining.

use std::io::{self, Read, Write};

use fmm_wire::{put_f64s, put_f64x3s, put_u16, put_u32, put_u8, Reader};

/// Connection preamble identifying the binary protocol (HTTP requests
/// never start with these bytes).
pub const MAGIC: [u8; 4] = *b"FMM1";

/// Largest accepted frame (64 MiB): bounds a single request at ~2.7M
/// particles and keeps a malformed length prefix from looking like an
/// allocation request.
pub const MAX_FRAME: u32 = 64 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    Evaluate = 1,
    Info = 2,
    Metrics = 3,
    Shutdown = 4,
}

impl Opcode {
    pub fn from_u8(x: u8) -> Option<Opcode> {
        match x {
            1 => Some(Opcode::Evaluate),
            2 => Some(Opcode::Info),
            3 => Some(Opcode::Metrics),
            4 => Some(Opcode::Shutdown),
            _ => None,
        }
    }
}

/// The evaluation parameters every request carries; requests whose shapes
/// agree are coalescable (they evaluate as one batch on one
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shape {
    pub order: u16,
    pub depth: u32,
    /// Well-separateness d ∈ {1, 2}; the engine serves 2 only.
    pub separation: u8,
    /// Mixed-precision near field.
    pub mixed: bool,
    /// Forces (potentials + fields) rather than potentials only.
    pub forces: bool,
}

/// One parsed evaluation request.
#[derive(Debug, Clone)]
pub struct EvalRequest {
    pub shape: Shape,
    pub positions: Vec<[f64; 3]>,
    pub charges: Vec<f64>,
}

/// One evaluation result (request particle order).
#[derive(Debug, Clone)]
pub struct EvalResponse {
    pub potentials: Vec<f64>,
    pub fields: Option<Vec<[f64; 3]>>,
    /// How many requests shared the batch this one rode in (≥ 1).
    pub batch_size: usize,
}

/// Read one length-prefixed frame payload (at most [`MAX_FRAME`] bytes).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    fmm_wire::read_frame(r, MAX_FRAME as usize)
}

/// Write one length-prefixed frame; a payload over [`MAX_FRAME`] is
/// refused.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    fmm_wire::write_frame(w, payload, MAX_FRAME as usize)
}

/// Encode an `Evaluate` request payload (opcode byte included).
pub fn encode_evaluate(req: &EvalRequest) -> Vec<u8> {
    let n = req.positions.len();
    let mut out = Vec::with_capacity(13 + 8 * (3 * n + n));
    put_u8(&mut out, Opcode::Evaluate as u8);
    put_u8(
        &mut out,
        u8::from(req.shape.forces) | u8::from(req.shape.mixed) << 1,
    );
    put_u8(&mut out, req.shape.separation);
    put_u16(&mut out, req.shape.order);
    put_u32(&mut out, req.shape.depth);
    put_u32(&mut out, n as u32);
    put_f64x3s(&mut out, &req.positions);
    put_f64s(&mut out, &req.charges);
    out
}

/// Decode an `Evaluate` request payload (after the opcode byte).
pub fn decode_evaluate(b: &[u8]) -> Result<EvalRequest, String> {
    evaluate_body(&mut Reader::new(b)).map_err(|e| e.to_string())
}

fn evaluate_body(r: &mut Reader) -> io::Result<EvalRequest> {
    let flags = r.u8()?;
    let separation = r.u8()?;
    let order = r.u16()?;
    let depth = r.u32()?;
    let n = r.u32()?.into();
    let positions = r.f64x3s(n)?;
    let charges = r.f64s(n)?;
    r.done()?;
    Ok(EvalRequest {
        shape: Shape {
            order,
            depth,
            separation,
            mixed: flags & 2 != 0,
            forces: flags & 1 != 0,
        },
        positions,
        charges,
    })
}

/// Encode an ok response for `Evaluate`.
pub fn encode_eval_response(resp: &EvalResponse) -> Vec<u8> {
    let n = resp.potentials.len();
    let mut out = Vec::with_capacity(9 + 8 * n);
    put_u8(&mut out, 0); // status ok
    put_u32(&mut out, n as u32);
    put_u32(&mut out, resp.batch_size as u32);
    put_f64s(&mut out, &resp.potentials);
    if let Some(f) = &resp.fields {
        put_f64x3s(&mut out, f);
    }
    out
}

/// The body of an ok response payload, or the text of an error one.
fn ok_body(b: &[u8]) -> Result<Reader<'_>, String> {
    let mut r = Reader::new(b);
    match r.u8().map_err(|e| e.to_string())? {
        0 => Ok(r),
        _ => Err(String::from_utf8_lossy(r.rest()).into_owned()),
    }
}

/// Decode an `Evaluate` response payload. `forces` must match the request.
pub fn decode_eval_response(b: &[u8], forces: bool) -> Result<EvalResponse, String> {
    eval_response_body(&mut ok_body(b)?, forces).map_err(|e| e.to_string())
}

fn eval_response_body(r: &mut Reader, forces: bool) -> io::Result<EvalResponse> {
    let n = r.u32()?.into();
    let batch_size = r.u32()? as usize;
    let potentials = r.f64s(n)?;
    let fields = if forces { Some(r.f64x3s(n)?) } else { None };
    r.done()?;
    Ok(EvalResponse {
        potentials,
        fields,
        batch_size,
    })
}

fn status_text(status: u8, text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + text.len());
    put_u8(&mut out, status);
    out.extend_from_slice(text.as_bytes());
    out
}

/// Encode an error response.
pub fn encode_error(msg: &str) -> Vec<u8> {
    status_text(1, msg)
}

/// Encode an ok response carrying UTF-8 text (`Info` / `Metrics`).
pub fn encode_text(text: &str) -> Vec<u8> {
    status_text(0, text)
}

/// Decode a text response (`Info` / `Metrics` / `Shutdown` ack).
pub fn decode_text(b: &[u8]) -> Result<String, String> {
    Ok(String::from_utf8_lossy(ok_body(b)?.rest()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_request_round_trips_bitwise() {
        let req = EvalRequest {
            shape: Shape {
                order: 5,
                depth: 2,
                separation: 2,
                mixed: false,
                forces: true,
            },
            positions: vec![[0.1, 0.2, 0.3], [1.0 / 3.0, -0.0, 1e-200]],
            charges: vec![1.0, -2.5],
        };
        let enc = encode_evaluate(&req);
        assert_eq!(enc[0], Opcode::Evaluate as u8);
        let dec = decode_evaluate(&enc[1..]).unwrap();
        assert_eq!(dec.shape, req.shape);
        for (a, b) in dec.positions.iter().zip(&req.positions) {
            for d in 0..3 {
                assert_eq!(a[d].to_bits(), b[d].to_bits());
            }
        }
        for (a, b) in dec.charges.iter().zip(&req.charges) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn eval_response_round_trips() {
        let resp = EvalResponse {
            potentials: vec![1.5, -2.25, 1.0 / 7.0],
            fields: Some(vec![[1.0, 2.0, 3.0]; 3]),
            batch_size: 17,
        };
        let dec = decode_eval_response(&encode_eval_response(&resp), true).unwrap();
        assert_eq!(dec.batch_size, 17);
        for (a, b) in dec.potentials.iter().zip(&resp.potentials) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(dec.fields.unwrap().len(), 3);
    }

    #[test]
    fn error_and_text_paths() {
        assert_eq!(
            decode_text(&encode_error("boom")).unwrap_err(),
            "boom".to_string()
        );
        assert_eq!(decode_text(&encode_text("ok")).unwrap(), "ok");
    }

    #[test]
    fn frame_cap_is_enforced() {
        let mut buf: &[u8] = &(MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut buf).is_err());
    }
}
