//! Proptest fuzzing of the FMM1 message codec — the randomized
//! counterpart of the deterministic-corpus `framing-totality` pass in
//! `fmm-verify`. The frame layer under it (byte soup, the cap, every
//! truncation of a frame) is fuzzed in `fmm-wire`'s `fuzz_frames.rs`.
//!
//! Three families of properties:
//!
//! 1. **No panic on byte soup** — every decoder is total over arbitrary
//!    input: it returns `Ok` or `Err`, never panics, never allocates
//!    proportionally to a hostile length field.
//! 2. **Round-trip identity** — encode→decode is the identity for
//!    arbitrary requests/responses, bit-for-bit (NaNs and infinities
//!    included: payload f64s are drawn from raw bit patterns).
//! 3. **Decode idempotence** — anything a decoder accepts re-encodes to
//!    a payload the decoder maps to the same value.

use fmm_serve::protocol::{
    decode_eval_response, decode_evaluate, decode_text, encode_eval_response, encode_evaluate,
    encode_text, EvalRequest, EvalResponse, Shape,
};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        1u16..=16,
        1u32..=8,
        1u8..=2,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(order, depth, separation, mixed, forces)| Shape {
            order,
            depth,
            separation,
            mixed,
            forces,
        })
}

/// f64s from raw bit patterns: includes NaNs, infinities, subnormals.
fn arb_bits_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

fn arb_request() -> impl Strategy<Value = EvalRequest> {
    (arb_shape(), 0usize..40).prop_flat_map(|(shape, n)| {
        (
            Just(shape),
            proptest::collection::vec(
                (arb_bits_f64(), arb_bits_f64(), arb_bits_f64()).prop_map(|(x, y, z)| [x, y, z]),
                n,
            ),
            proptest::collection::vec(arb_bits_f64(), n),
        )
            .prop_map(|(shape, positions, charges)| EvalRequest {
                shape,
                positions,
                charges,
            })
    })
}

fn req_bits_eq(a: &EvalRequest, b: &EvalRequest) -> bool {
    a.shape == b.shape
        && a.positions.len() == b.positions.len()
        && a.charges.len() == b.charges.len()
        && a.positions
            .iter()
            .zip(&b.positions)
            .all(|(x, y)| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()))
        && a.charges
            .iter()
            .zip(&b.charges)
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics any decoder.
    #[test]
    fn decoders_are_total_over_byte_soup(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_evaluate(&bytes);
        let _ = decode_eval_response(&bytes, false);
        let _ = decode_eval_response(&bytes, true);
        let _ = decode_text(&bytes);
    }

    /// A hostile particle count in an otherwise plausible header is
    /// rejected before any allocation of that size.
    #[test]
    fn hostile_counts_fail_fast(count in 1u32 << 20 .. u32::MAX, pad in 0usize..16) {
        let mut b = vec![0u8; 8];
        b.extend_from_slice(&count.to_le_bytes());
        b.extend(std::iter::repeat_n(0u8, pad));
        prop_assert!(decode_evaluate(&b).is_err());
    }

    /// Request encode→decode is the identity, bit for bit.
    #[test]
    fn request_round_trips_bitwise(req in arb_request()) {
        let enc = encode_evaluate(&req);
        // [0] is the opcode byte; the server hands the decoder the rest.
        let back = decode_evaluate(&enc[1..]).expect("self-encoded request decodes");
        prop_assert!(req_bits_eq(&req, &back));
    }

    /// Anything `decode_evaluate` accepts is a fixed point: re-encoding
    /// and re-decoding yields the same value.
    #[test]
    fn accepted_requests_are_fixed_points(bytes in proptest::collection::vec(0u8..=255, 0..192)) {
        if let Ok(req) = decode_evaluate(&bytes) {
            let enc = encode_evaluate(&req);
            let again = decode_evaluate(&enc[1..]).expect("re-encoded request decodes");
            prop_assert!(req_bits_eq(&req, &again));
        }
    }

    /// Response encode→decode is the identity, bit for bit.
    #[test]
    fn response_round_trips_bitwise(
        potentials in proptest::collection::vec(arb_bits_f64(), 0..40),
        forces in proptest::bool::ANY,
        batch in 0usize..1000,
    ) {
        let fields = forces.then(|| {
            potentials.iter().map(|&p| [p, -p, p * 0.5]).collect::<Vec<_>>()
        });
        let resp = EvalResponse {
            potentials: potentials.clone(),
            fields,
            batch_size: batch,
        };
        let enc = encode_eval_response(&resp);
        let back = decode_eval_response(&enc, forces).expect("self-encoded response decodes");
        prop_assert_eq!(back.batch_size, resp.batch_size);
        prop_assert_eq!(back.potentials.len(), resp.potentials.len());
        for (a, b) in back.potentials.iter().zip(&resp.potentials) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back.fields.is_some(), resp.fields.is_some());
        if let (Some(x), Some(y)) = (&back.fields, &resp.fields) {
            for (r, s) in x.iter().zip(y) {
                for (a, b) in r.iter().zip(s) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Text frames round-trip arbitrary (printable-ish) strings.
    #[test]
    fn text_round_trips(chars in proptest::collection::vec(32u8..127, 0..64)) {
        let s = String::from_utf8(chars).expect("ascii");
        // The leading status byte (0 = ok) is consumed by the decoder.
        let enc = encode_text(&s);
        let back = decode_text(&enc).expect("self-encoded text decodes");
        prop_assert_eq!(back, s);
    }
}
