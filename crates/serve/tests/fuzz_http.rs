//! Proptest fuzzing of the HTTP/1.1 front door: the request reader over
//! arbitrary byte soup and structured-but-random requests, and the
//! `/evaluate` JSON body parser over soup, near-miss JSON, and generated
//! valid bodies.

use fmm_serve::http::{eval_request_from_json, eval_response_to_json, read_request};
use fmm_serve::json;
use fmm_serve::protocol::EvalResponse;
use proptest::prelude::*;
use std::io::BufReader;

fn ascii(range: std::ops::Range<u8>, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    proptest::collection::vec(range, len).prop_map(|v| String::from_utf8(v).expect("ascii"))
}

/// A token of URL-ish characters (no whitespace, no CR/LF).
fn token() -> impl Strategy<Value = String> {
    proptest::collection::vec(33u8..127, 1..12).prop_map(|v| String::from_utf8(v).expect("ascii"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup on the socket never panics the reader: it
    /// yields a request or an io::Error, and any body it does return is
    /// bounded by MAX_FRAME.
    #[test]
    fn reader_is_total_over_byte_soup(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let mut r = BufReader::new(bytes.as_slice());
        if let Ok(req) = read_request(&mut r) {
            prop_assert!(req.body.len() <= fmm_serve::protocol::MAX_FRAME as usize);
        }
    }

    /// A well-formed request with arbitrary method/path/headers/body
    /// parses back exactly.
    #[test]
    fn well_formed_requests_round_trip(
        method in token(),
        path in token(),
        junk_header in ascii(33u8..58, 1..10),
        body in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let mut raw = Vec::new();
        raw.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\n{junk_header}: x\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        raw.extend_from_slice(&body);
        let mut r = BufReader::new(raw.as_slice());
        let req = read_request(&mut r).expect("well-formed request parses");
        prop_assert_eq!(req.method, method);
        prop_assert_eq!(req.path, path);
        prop_assert_eq!(req.body, body);
    }

    /// A Content-Length larger than the bytes that follow is an Err, not
    /// a hang or a short read surfacing as a request.
    #[test]
    fn short_bodies_error(claim in 1usize..4096, supplied in 0usize..32) {
        let supplied = supplied.min(claim.saturating_sub(1));
        let mut raw = Vec::new();
        raw.extend_from_slice(
            format!("POST /evaluate HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n").as_bytes(),
        );
        raw.extend(std::iter::repeat_n(b'x', supplied));
        let mut r = BufReader::new(raw.as_slice());
        prop_assert!(read_request(&mut r).is_err());
    }

    /// The JSON body parser never panics on soup — ASCII or arbitrary.
    #[test]
    fn json_parser_is_total_over_soup(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = eval_request_from_json(&bytes);
    }

    /// Structurally valid `/evaluate` bodies parse to matching shapes.
    #[test]
    fn generated_bodies_parse(
        n in 0usize..20,
        order in 1usize..12,
        depth in 1usize..6,
        forces in proptest::bool::ANY,
    ) {
        let positions: Vec<String> = (0..3 * n).map(|i| format!("{}", i as f64 * 0.01)).collect();
        let charges: Vec<String> = (0..n).map(|i| format!("{}", 1.0 - (i % 2) as f64 * 2.0)).collect();
        let body = format!(
            "{{\"positions\":[{}],\"charges\":[{}],\"order\":{order},\"depth\":{depth},\"forces\":{forces}}}",
            positions.join(","),
            charges.join(","),
        );
        let req = eval_request_from_json(body.as_bytes()).expect("valid body parses");
        prop_assert_eq!(req.positions.len(), n);
        prop_assert_eq!(req.charges.len(), n);
        prop_assert_eq!(req.shape.order as usize, order);
        prop_assert_eq!(req.shape.depth as usize, depth);
        prop_assert_eq!(req.shape.forces, forces);
    }

    /// A positions array whose length is not a multiple of 3 is rejected
    /// with a diagnostic, never truncated silently.
    #[test]
    fn ragged_positions_are_rejected(n in 0usize..10, extra in 1usize..3) {
        let positions: Vec<String> = (0..3 * n + extra).map(|_| "0.5".to_string()).collect();
        let body = format!(
            "{{\"positions\":[{}],\"charges\":[]}}",
            positions.join(","),
        );
        let err = eval_request_from_json(body.as_bytes()).expect_err("ragged positions rejected");
        prop_assert!(err.contains("multiple of 3"), "{}", err);
    }

    /// Response rendering → JSON parse preserves every potential bitwise
    /// (for finite values — JSON has no NaN).
    #[test]
    fn response_json_round_trips_finite_values(
        potentials in proptest::collection::vec(-1e12f64..1e12, 0..20),
        batch in 0usize..100,
    ) {
        let resp = EvalResponse {
            potentials: potentials.clone(),
            fields: None,
            batch_size: batch,
        };
        let text = eval_response_to_json(&resp);
        let v = json::parse(&text).expect("own JSON parses");
        let back = v.get("potentials").unwrap().as_f64_array().unwrap();
        prop_assert_eq!(back.len(), potentials.len());
        for (a, b) in back.iter().zip(&potentials) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(v.get("batch_size").unwrap().as_usize(), Some(batch));
    }
}

/// A reader that counts the bytes taken from it.
struct Counting<R> {
    inner: R,
    taken: std::rc::Rc<std::cell::Cell<usize>>,
}

impl<R: std::io::Read> std::io::Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.taken.set(self.taken.get() + n);
        Ok(n)
    }
}

/// The request head is bounded: a header that never ends is refused after
/// at most 8 KiB past the request line, not buffered whole, and so is a
/// head of more than 64 headers.
#[test]
fn unbounded_request_heads_are_refused() {
    let first = b"GET /healthz HTTP/1.1\r\n";
    let mut raw = first.to_vec();
    raw.extend_from_slice(b"X-Pad: ");
    raw.extend(std::iter::repeat_n(b'a', 1 << 20));
    let taken = std::rc::Rc::new(std::cell::Cell::new(0));
    let src = Counting {
        inner: raw.as_slice(),
        taken: taken.clone(),
    };
    // A one-byte buffer: every byte the reader consumes is counted, and no
    // more.
    let mut r = BufReader::with_capacity(1, src);
    let err = read_request(&mut r).err().expect("endless header refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        taken.get() <= first.len() + 8 * 1024,
        "read {} bytes",
        taken.get()
    );

    let mut raw = first.to_vec();
    for i in 0..65 {
        raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let err = read_request(&mut BufReader::new(raw.as_slice()))
        .err()
        .expect("65 headers refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
