//! # fmm-wire — the one frame layer under every binary protocol
//!
//! Every byte that crosses a process boundary in this workspace is a
//! length-prefixed little-endian frame:
//!
//! ```text
//! u32 LE  payload length (bytes, excluding this prefix)
//! [u8]    payload
//! ```
//!
//! Three protocols are message codecs on top of this module, each with
//! its own cap — a protocol constant, not a knob: `FMM1`
//! (`fmm_serve::protocol`, the serve door, 64 MiB), `FMMW`
//! (`fmm_spmd::transport`, the SPMD data plane, 256 MiB) and `FMMC`
//! (`fmm_spmd::distributed`, the launcher's control plane, 1 GiB).
//! Integers and reals travel little-endian; an `f64` travels as its exact
//! bit pattern, so a round trip is bitwise by construction.
//!
//! Totality is the contract: nothing here panics on, or allocates in
//! proportion to, a number read off the wire. [`read_frame`] rejects a
//! length over the cap before it allocates the payload, and every
//! [`Reader`] take — counted arrays included — is checked against the
//! bytes that remain before anything is allocated. Malformed input is an
//! [`io::ErrorKind::InvalidData`] error.

#![forbid(unsafe_code)]

use std::io::{self, IoSlice, Read, Write};

/// The error every decoder on this layer reports for malformed input.
pub fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read one frame and return its payload. A length over `cap` is
/// rejected before the payload is allocated.
pub fn read_frame<R: Read>(r: &mut R, cap: usize) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > cap {
        return Err(invalid(format!(
            "frame of {len} bytes exceeds the {cap}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Write `payload` as one frame — prefix and payload in one vectored
/// write where the writer supports it — then flush. A payload over `cap`
/// is refused with [`io::ErrorKind::InvalidInput`] before anything is
/// written.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], cap: usize) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|_| payload.len() <= cap)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "payload of {} bytes exceeds the {cap}-byte frame cap",
                    payload.len()
                ),
            )
        })?;
    let prefix = len.to_le_bytes();
    // `sent` counts frame bytes written, prefix first.
    let mut sent = 0;
    while sent < prefix.len() {
        match w.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(payload)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(&payload[sent - prefix.len()..])?;
    w.flush()
}

/// One little-endian take per fixed-width type, named after it.
macro_rules! takes {
    ($($t:ident),*) => {$(
        pub fn $t(&mut self) -> io::Result<$t> {
            self.array().map($t::from_le_bytes)
        }
    )*};
}

/// Bounds-checked little-endian decode cursor over one payload.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(invalid(format!(
                "truncated payload: wanted {n} bytes, had {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    takes!(u8, u16, u32, u64, f64);

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|e| invalid(format!("string is not UTF-8: {e}")))
    }

    /// Four magic bytes, which must be `want`.
    pub fn magic(&mut self, want: [u8; 4]) -> io::Result<()> {
        let got: [u8; 4] = self.array()?;
        if got != want {
            return Err(invalid(format!(
                "bad magic {got:02x?}, expected {}",
                String::from_utf8_lossy(&want)
            )));
        }
        Ok(())
    }

    /// Succeeds iff the whole payload has been consumed.
    pub fn done(&self) -> io::Result<()> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(invalid(format!("{n} trailing bytes after the message"))),
        }
    }

    /// The 8-byte words of `count` items of `per_item` words each. The
    /// byte count is a checked multiplication bounded by the remaining
    /// bytes, so a hostile count fails here, before the caller allocates
    /// anything.
    fn words(&mut self, count: u64, per_item: usize) -> io::Result<&'a [[u8; 8]]> {
        let n = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(8 * per_item))
            .filter(|&n| n <= self.buf.len())
            .ok_or_else(|| {
                invalid(format!(
                    "count {count} of {}-byte items overruns the {} bytes left",
                    8 * per_item,
                    self.buf.len()
                ))
            })?;
        Ok(self.take(n)?.as_chunks().0)
    }

    /// `count` `f64`s.
    pub fn f64s(&mut self, count: u64) -> io::Result<Vec<f64>> {
        let words = self.words(count, 1)?;
        Ok(words.iter().map(|&w| f64::from_le_bytes(w)).collect())
    }

    /// `count` `u64`s.
    pub fn u64s(&mut self, count: u64) -> io::Result<Vec<u64>> {
        let words = self.words(count, 1)?;
        Ok(words.iter().map(|&w| u64::from_le_bytes(w)).collect())
    }

    /// `count` `f64` triples (positions, fields), stored flat.
    pub fn f64x3s(&mut self, count: u64) -> io::Result<Vec<[f64; 3]>> {
        let (triples, _) = self.words(count, 3)?.as_chunks::<3>();
        Ok(triples.iter().map(|&t| t.map(f64::from_le_bytes)).collect())
    }
}

/// One little-endian writer per fixed-width type, the inverse of the
/// [`Reader`] take of the same type.
macro_rules! puts {
    ($($name:ident: $t:ty),*) => {$(
        pub fn $name(b: &mut Vec<u8>, v: $t) {
            b.extend_from_slice(&v.to_le_bytes());
        }
    )*};
}

puts!(put_u8: u8, put_u16: u16, put_u32: u32, put_u64: u64, put_f64: f64);

/// A `u32`-length-prefixed UTF-8 string, as [`Reader::str`] reads it.
/// Every frame cap is under 4 GiB, so a string too long for its `u32`
/// length makes an oversize payload, which [`write_frame`] refuses.
pub fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// The words of `xs`, without a count (the message carries it).
pub fn put_f64s(b: &mut Vec<u8>, xs: &[f64]) {
    for &x in xs {
        put_f64(b, x);
    }
}

/// The triples of `xs`, flat and without a count, as [`Reader::f64x3s`]
/// reads them.
pub fn put_f64x3s(b: &mut Vec<u8>, xs: &[[f64; 3]]) {
    put_f64s(b, xs.as_flattened());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_takes_every_width_little_endian() {
        let mut b = Vec::new();
        put_u8(&mut b, 7);
        put_u16(&mut b, 0x0102);
        put_u32(&mut b, 0x0304_0506);
        put_u64(&mut b, 0x0708_090a_0b0c_0d0e);
        put_f64(&mut b, -0.0);
        put_str(&mut b, "fmm");
        put_f64s(&mut b, &[1.5]);
        put_f64x3s(&mut b, &[[1.0, 2.0, 3.0]]);
        b.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(&b[1..3], &[0x02, 0x01]);

        let mut r = Reader::new(&b);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u32().unwrap(), 0x0304_0506);
        assert_eq!(r.u64().unwrap(), 0x0708_090a_0b0c_0d0e);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "fmm");
        assert_eq!(r.f64s(1).unwrap(), [1.5]);
        assert_eq!(r.f64x3s(1).unwrap(), [[1.0, 2.0, 3.0]]);
        assert!(r.done().is_err());
        assert_eq!(r.u64s(1).unwrap(), [9]);
        r.done().unwrap();
        assert!(r.u8().is_err());
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        let mut r = Reader::new(&[0u8; 64]);
        for count in [9, 1 << 40, 1 << 61, u64::MAX] {
            assert!(r.f64s(count).is_err(), "f64s({count})");
            assert!(r.u64s(count).is_err(), "u64s({count})");
            assert!(r.f64x3s(count).is_err(), "f64x3s({count})");
        }
        // A failed take consumes nothing.
        assert_eq!(r.remaining(), 64);
        assert_eq!(r.f64x3s(2).unwrap().len(), 2);
        assert_eq!(r.f64s(2).unwrap().len(), 2);
        r.done().unwrap();
    }

    #[test]
    fn magic_and_strings_are_checked() {
        assert!(Reader::new(b"FMMX").magic(*b"FMMW").is_err());
        Reader::new(b"FMMW").magic(*b"FMMW").unwrap();
        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(Reader::new(&bad).str().is_err());
        let mut long = Vec::new();
        put_u32(&mut long, u32::MAX);
        assert!(Reader::new(&long).str().is_err());
    }

    /// A writer that takes at most `chunk` bytes per call, like a socket
    /// under pressure, and counts the calls. Only a `vectored` one takes
    /// bytes from more than one buffer per call.
    struct Trickle {
        out: Vec<u8>,
        chunk: usize,
        vectored: bool,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.chunk);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.vectored {
                let first = bufs.iter().find(|b| !b.is_empty());
                return self.write(first.map_or(&[][..], |b| b));
            }
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.chunk - n);
                self.out.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn trickle(payload: &[u8], chunk: usize, vectored: bool) -> Trickle {
        let mut w = Trickle {
            out: Vec::new(),
            chunk,
            vectored,
            calls: 0,
        };
        write_frame(&mut w, payload, 1 << 10).unwrap();
        assert_eq!(read_frame(&mut w.out.as_slice(), 1 << 10).unwrap(), payload);
        w
    }

    #[test]
    fn short_writes_still_put_the_whole_frame() {
        let payload: Vec<u8> = (0..=255).collect();
        for chunk in [1, 3, 4, 5, 300] {
            trickle(&payload, chunk, true);
            trickle(&payload, chunk, false);
        }
        trickle(&[], 1, true);
    }

    #[test]
    fn a_frame_costs_one_vectored_write_or_two_plain_ones() {
        assert_eq!(trickle(b"payload", 64, true).calls, 1);
        assert_eq!(trickle(b"payload", 64, false).calls, 2);
    }
}
