//! Proptest fuzzing of the FMMW data-plane message codec — the SPMD
//! socket fabrics' counterpart of `fmm-serve`'s FMM1 fuzz
//! (`fuzz_protocol.rs`). The frame layer under both (byte soup, the cap,
//! every truncation of a frame) is fuzzed in `fmm-wire`'s
//! `fuzz_frames.rs`.
//!
//! Two families of properties:
//!
//! 1. **No panic on byte soup** — `read_msg`, the codec's one decode
//!    path, is total over arbitrary input, framed or not.
//! 2. **Round-trip identity** — encode→frame→read is the identity for
//!    arbitrary (from, tag, payload) triples, bit-for-bit: payload f64s
//!    are drawn from raw bit patterns, NaNs and infinities included.

use fmm_spmd::transport::{encode_msg, read_msg, HEADER, MAX_FRAME};
use fmm_wire::write_frame;
use proptest::prelude::*;

/// f64s from raw bit patterns: includes NaNs, infinities, subnormals.
fn arb_bits_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

fn arb_msg() -> impl Strategy<Value = (u32, u64, Vec<f64>)> {
    (
        0u32..=u32::MAX,
        0u64..=u64::MAX,
        proptest::collection::vec(arb_bits_f64(), 0..64),
    )
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, payload, MAX_FRAME).expect("in-cap payload");
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `read_msg` is total: arbitrary bytes produce Ok or Err, never a
    /// panic — as a raw stream, and as the payload of a well-formed frame
    /// (with and without the right magic in front).
    #[test]
    fn read_msg_never_panics_on_byte_soup(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = read_msg(&mut bytes.as_slice());
        let _ = read_msg(&mut framed(&bytes).as_slice());
        let magic = [b"FMMW".as_slice(), &bytes].concat();
        let _ = read_msg(&mut framed(&magic).as_slice());
    }

    /// encode→frame→read is the identity, bit for bit, for arbitrary
    /// header fields and payload bit patterns.
    #[test]
    fn round_trip_is_identity((from, tag, data) in arb_msg()) {
        let payload = encode_msg(from, tag, &data);
        prop_assert_eq!(payload.len(), HEADER + 8 * data.len());

        let frame = framed(&payload);
        let mut stream = frame.as_slice();
        let (f2, t2, d2) = read_msg(&mut stream).unwrap();
        prop_assert!(stream.is_empty());
        prop_assert_eq!((f2, t2), (from, tag));
        prop_assert_eq!(d2.len(), data.len());
        for (a, b) in data.iter().zip(&d2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
