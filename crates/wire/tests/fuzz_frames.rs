//! Proptest fuzzing of the frame layer every binary protocol shares —
//! the randomized counterpart of fmm-verify's `framing-totality` pass,
//! which runs the `FMM1`, `FMMW` and `FMMC` codecs on top of it over a
//! deterministic corpus. The codecs' own round-trip properties live with
//! them (`fmm-serve`'s `fuzz_protocol.rs`, `fmm-spmd`'s `fuzz_fmmw.rs`).
//!
//! Four families of properties:
//!
//! 1. **No panic on byte soup** — the frame reader and every cursor take
//!    are total over arbitrary input.
//! 2. **Round-trip identity** — write→read is the identity on payloads.
//! 3. **Truncation is always an error** — every strict prefix of a frame
//!    is rejected, at every cut point.
//! 4. **Caps and counts bound allocation** — a length over the cap is
//!    rejected before the body is read (so before it is allocated), an
//!    oversize payload is refused before anything is written, and a
//!    hostile element count fails without consuming or allocating.

use std::io::ErrorKind;

use fmm_wire::{read_frame, write_frame, Reader};
use proptest::prelude::*;

/// The protocol caps: `FMM1`, `FMMW`, `FMMC`.
const CAPS: [usize; 3] = [64 << 20, 256 << 20, 1 << 30];

fn frame(payload: &[u8], cap: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload, cap).expect("in-cap payload frames");
    wire
}

/// Every cursor take, in turn, until one fails — the counts drawn from
/// the input itself, as a hostile message would supply them.
fn drain(bytes: &[u8]) {
    let mut r = Reader::new(bytes);
    let _ = r.magic(*b"FMMW");
    let _ = r.u8();
    let _ = r.u16();
    let _ = r.str();
    let _ = r.f64();
    if let Ok(n) = r.u64() {
        let _ = r.f64s(n);
        let _ = r.u64s(n);
        let _ = r.f64x3s(n);
    }
    if let Ok(n) = r.u32() {
        let _ = r.f64x3s(n.into());
    }
    let _ = r.done();
    let _ = r.rest();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes produce `Ok` or `Err` from the frame reader and
    /// from every cursor take, never a panic.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        for cap in [0, 16].into_iter().chain(CAPS) {
            let _ = read_frame(&mut bytes.as_slice(), cap);
        }
        drain(&bytes);
        if bytes.len() > 4 {
            drain(&bytes[4..]);
        }
    }

    /// write_frame→read_frame is the identity for in-cap payloads, and
    /// the reader consumes exactly one frame.
    #[test]
    fn frames_round_trip(payload in proptest::collection::vec(0u8..=255, 0..512)) {
        for cap in CAPS {
            let wire = frame(&payload, cap);
            prop_assert_eq!(wire.len(), 4 + payload.len());
            let mut r = wire.as_slice();
            prop_assert_eq!(read_frame(&mut r, cap).expect("read own frame"), payload.clone());
            prop_assert!(r.is_empty());
        }
    }

    /// Every strict prefix of a valid frame is rejected — no cut point
    /// reads as a frame.
    #[test]
    fn truncation_is_always_an_error(
        payload in proptest::collection::vec(0u8..=255, 0..256),
        frac in 0.0f64..1.0,
    ) {
        let wire = frame(&payload, CAPS[0]);
        let cut = ((wire.len() as f64) * frac) as usize; // < len: strict prefix
        let err = read_frame(&mut &wire[..cut], CAPS[0]).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at {}", cut);
    }

    /// A length prefix over the cap is rejected as invalid before the
    /// body is touched: with the body absent, a reader that allocated
    /// and read first would report end of input instead.
    #[test]
    fn lengths_over_the_cap_are_rejected_before_the_body(
        cap in 0usize..1024,
        over in 1u32..=u32::MAX - 1024,
        body in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut wire = (cap as u32 + over).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        let err = read_frame(&mut wire.as_slice(), cap).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
        for cap in CAPS {
            let len = (cap as u64 + u64::from(over)).min(u32::MAX as u64) as u32;
            let err = read_frame(&mut len.to_le_bytes().as_slice(), cap).unwrap_err();
            prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
        }
    }

    /// A payload over the cap is refused, and nothing reaches the writer.
    #[test]
    fn oversize_payloads_are_refused_unwritten(cap in 0usize..256, over in 1usize..256) {
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &vec![0u8; cap + over], cap).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::InvalidInput);
        prop_assert!(wire.is_empty());
    }

    /// A count the remaining bytes cannot back fails at once, consuming
    /// nothing — whatever the product of count and width would be.
    #[test]
    fn hostile_counts_fail_without_consuming(
        len in 0usize..256,
        excess in 1u64..=u64::MAX >> 8,
    ) {
        let buf = vec![0u8; len];
        let mut r = Reader::new(&buf);
        let words = len as u64 / 8;
        prop_assert!(r.f64s(words + excess).is_err());
        prop_assert!(r.u64s(words + excess).is_err());
        prop_assert!(r.f64x3s(words / 3 + excess).is_err());
        prop_assert!(r.f64s(u64::MAX - excess).is_err());
        prop_assert_eq!(r.remaining(), len);
        prop_assert_eq!(r.f64s(words).expect("backed count").len() as u64, words);
    }
}
