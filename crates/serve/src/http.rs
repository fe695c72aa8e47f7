//! Minimal HTTP/1.1 front door: enough of the protocol for `curl` and
//! load generators — request-line + headers + `Content-Length` body, one
//! request per connection (`Connection: close`). The JSON request/
//! response mapping for `/evaluate` lives here too.

use crate::json::{self, Value};
use crate::protocol::{EvalRequest, EvalResponse, Shape};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};

/// One parsed HTTP request.
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// Longest request line or header line the reader accepts, terminator
/// included.
const MAX_LINE: u64 = 8 * 1024;

/// Most header lines the reader accepts.
const MAX_HEADERS: usize = 64;

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One line of the request head, read through `take` so a peer that never
/// sends a newline costs at most [`MAX_LINE`] bytes.
fn read_head_line<R: Read>(r: &mut BufReader<R>) -> io::Result<String> {
    let mut line = String::new();
    let n = r.by_ref().take(MAX_LINE).read_line(&mut line)?;
    if n as u64 == MAX_LINE && !line.ends_with('\n') {
        return Err(invalid("request head line too long"));
    }
    Ok(line)
}

/// Read a single HTTP request from the stream. The head is bounded (each
/// line at 8 KiB, at most 64 headers; `InvalidData` past either), the body
/// at the binary protocol's frame cap.
pub fn read_request<R: Read>(r: &mut BufReader<R>) -> io::Result<HttpRequest> {
    let line = read_head_line(r)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| invalid("empty request line"))?
        .to_string();
    let path = parts.next().ok_or_else(|| invalid("no path"))?.to_string();
    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let h = read_head_line(r)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        if let Some((name, val)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = val
                    .trim()
                    .parse()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
            }
        }
    }
    if content_length > crate::protocol::MAX_FRAME as usize {
        return Err(invalid("body too large"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(HttpRequest { method, path, body })
}

/// Write an HTTP response and close-worthy headers.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason,
        content_type,
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Parse the `/evaluate` JSON body. Required: `positions` (flat, 3·n) and
/// `charges` (n). Optional with defaults: `order` 5, `depth` 2,
/// `separation` 2, `precision` `"f64"`, `forces` false. Any other
/// `separation` parses, but the engine refuses it: the method's near field
/// is two-separated.
pub fn eval_request_from_json(body: &[u8]) -> Result<EvalRequest, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let v = json::parse(text)?;
    let positions_flat = v
        .get("positions")
        .and_then(Value::as_f64_array)
        .ok_or("missing numeric array \"positions\"")?;
    if positions_flat.len() % 3 != 0 {
        return Err(format!(
            "\"positions\" length {} is not a multiple of 3",
            positions_flat.len()
        ));
    }
    let charges = v
        .get("charges")
        .and_then(Value::as_f64_array)
        .ok_or("missing numeric array \"charges\"")?;
    let order = v
        .get("order")
        .map(|x| {
            x.as_usize()
                .ok_or("\"order\" must be a non-negative integer")
        })
        .transpose()?
        .unwrap_or(5);
    let depth = v
        .get("depth")
        .map(|x| {
            x.as_usize()
                .ok_or("\"depth\" must be a non-negative integer")
        })
        .transpose()?
        .unwrap_or(2);
    let separation = v
        .get("separation")
        .map(|x| x.as_usize().ok_or("\"separation\" must be 1 or 2"))
        .transpose()?
        .unwrap_or(2);
    let mixed = match v.get("precision").map(|x| x.as_str()) {
        None => false,
        Some(Some("f64")) => false,
        Some(Some("mixed")) => true,
        Some(_) => return Err("\"precision\" must be \"f64\" or \"mixed\"".into()),
    };
    let forces = v
        .get("forces")
        .map(|x| x.as_bool().ok_or("\"forces\" must be a boolean"))
        .transpose()?
        .unwrap_or(false);
    let positions: Vec<[f64; 3]> = positions_flat
        .chunks_exact(3)
        .map(|c| [c[0], c[1], c[2]])
        .collect();
    Ok(EvalRequest {
        shape: Shape {
            order: order.min(u16::MAX as usize) as u16,
            depth: depth.min(u32::MAX as usize) as u32,
            separation: separation.min(u8::MAX as usize) as u8,
            mixed,
            forces,
        },
        positions,
        charges,
    })
}

/// Render the `/evaluate` JSON response.
pub fn eval_response_to_json(resp: &EvalResponse) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("n".to_string(), Value::Num(resp.potentials.len() as f64));
    obj.insert("batch_size".to_string(), Value::Num(resp.batch_size as f64));
    obj.insert("potentials".to_string(), json::num_array(&resp.potentials));
    if let Some(f) = &resp.fields {
        let flat: Vec<f64> = f.iter().flat_map(|r| r.iter().copied()).collect();
        obj.insert("fields".to_string(), json::num_array(&flat));
    }
    json::write(&Value::Obj(obj))
}

/// Render a JSON error body.
pub fn error_to_json(msg: &str) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("error".to_string(), Value::Str(msg.to_string()));
    json::write(&Value::Obj(obj))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_evaluate_body() {
        let body =
            br#"{"positions":[0.1,0.2,0.3,0.4,0.5,0.6],"charges":[1,-1],"depth":2,"order":3}"#;
        let req = eval_request_from_json(body).unwrap();
        assert_eq!(req.positions.len(), 2);
        assert_eq!(req.shape.order, 3);
        assert_eq!(req.shape.depth, 2);
        assert!(!req.shape.forces);
    }

    #[test]
    fn json_response_round_trips_potentials_bitwise() {
        let resp = EvalResponse {
            potentials: vec![1.0 / 3.0, -2.5e-7],
            fields: None,
            batch_size: 4,
        };
        let text = eval_response_to_json(&resp);
        let v = json::parse(&text).unwrap();
        let back = v.get("potentials").unwrap().as_f64_array().unwrap();
        for (a, b) in back.iter().zip(&resp.potentials) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(v.get("batch_size").unwrap().as_usize(), Some(4));
    }

    #[test]
    fn http_request_parses_from_bytes() {
        let raw = b"POST /evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/evaluate");
        assert_eq!(req.body, b"abcd");
    }
}
