//! Socket transports and the `FMMW` message codec.
//!
//! A fabric message is one [`fmm_wire`] frame whose payload is:
//!
//! ```text
//! [4]     magic "FMMW"
//! u32 LE  sending rank
//! u64 LE  collective tag
//! f64 LE  payload words (count implied by the frame length)
//! ```
//!
//! f64s travel as their exact little-endian bit patterns — the same
//! discipline as `fmm_serve`'s `FMM1` protocol — so a potential computed
//! across OS processes is bitwise the one computed in-process. Frames are
//! capped at [`MAX_FRAME`], checked before the payload is allocated, so a
//! corrupt or hostile length field cannot balloon memory.
//!
//! [`SocketTransport`] runs the codec over any stream that can be split
//! into a read and a write half ([`MeshStream`]: UNIX-domain or TCP
//! sockets, which also bind, accept and connect at a [`FabricAddr`] for
//! the multi-process rendezvous). Sends are handed to a per-peer writer
//! thread, which keeps the fabric's "send never blocks" contract even
//! when a large halo frame meets a full kernel socket buffer — the
//! receiving rank may be deep in a compute phase, and two ranks blocked
//! in `write` at each other would deadlock a schedule that is provably
//! deadlock-free under non-blocking sends.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;

use fmm_wire::{invalid, put_f64s, put_u32, put_u64, Reader};

use crate::fabric::{Mailbox, Transport, RECV_TIMEOUT};

/// Frame magic, first bytes of every fabric message.
pub const MAGIC: [u8; 4] = *b"FMMW";

/// Payload bytes before the words: magic + from + tag.
pub const HEADER: usize = 4 + 4 + 8;

/// Refuse frames beyond this (256 MiB) — far above any real halo
/// exchange, far below an allocation amplification attack.
pub const MAX_FRAME: usize = 256 << 20;

/// Encode one fabric message as a frame payload, which
/// [`fmm_wire::write_frame`] prefixes with its length.
pub fn encode_msg(from: u32, tag: u64, data: &[f64]) -> Vec<u8> {
    let mut b = Vec::with_capacity(HEADER + 8 * data.len());
    b.extend_from_slice(&MAGIC);
    put_u32(&mut b, from);
    put_u64(&mut b, tag);
    put_f64s(&mut b, data);
    b
}

/// Read one fabric message off a stream: a frame of at most
/// [`MAX_FRAME`] bytes whose payload is magic, sender, tag and a whole
/// number of words.
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<(u32, u64, Vec<f64>)> {
    let payload = fmm_wire::read_frame(r, MAX_FRAME)?;
    let mut d = Reader::new(&payload);
    d.magic(MAGIC)?;
    let from = d.u32()?;
    let tag = d.u64()?;
    let data = d.f64s(d.remaining() as u64 / 8)?;
    d.done()?;
    Ok((from, tag, data))
}

/// A duplex byte stream a [`SocketTransport`] can split into a reading
/// half and an independently-owned writing half, and that can bind,
/// accept and connect at a [`FabricAddr`] of its own kind.
pub trait MeshStream: Read + Write + Send + Sized + 'static {
    type Listener;
    fn clone_stream(&self) -> io::Result<Self>;
    fn read_timeout(&self, d: std::time::Duration) -> io::Result<()>;
    /// Bind at `addr`, returning the listener and the address peers dial:
    /// for `tcp:host:0` the port the OS assigned.
    fn bind(addr: &FabricAddr) -> io::Result<(Self::Listener, FabricAddr)>;
    fn accept(listener: &Self::Listener) -> io::Result<Self>;
    fn connect(addr: &FabricAddr) -> io::Result<Self>;
}

fn wrong_kind(addr: &FabricAddr, want: &str) -> io::Error {
    invalid(format!("{addr} is not a {want} address"))
}

impl MeshStream for TcpStream {
    type Listener = TcpListener;
    fn clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn read_timeout(&self, d: std::time::Duration) -> io::Result<()> {
        self.set_read_timeout(Some(d))
    }
    fn bind(addr: &FabricAddr) -> io::Result<(TcpListener, FabricAddr)> {
        let FabricAddr::Tcp(a) = addr else {
            return Err(wrong_kind(addr, "tcp"));
        };
        let l = TcpListener::bind(a.as_str())?;
        let at = FabricAddr::Tcp(l.local_addr()?.to_string());
        Ok((l, at))
    }
    fn accept(listener: &TcpListener) -> io::Result<Self> {
        Ok(listener.accept()?.0)
    }
    fn connect(addr: &FabricAddr) -> io::Result<Self> {
        match addr {
            FabricAddr::Tcp(a) => TcpStream::connect(a.as_str()),
            _ => Err(wrong_kind(addr, "tcp")),
        }
    }
}

#[cfg(unix)]
impl MeshStream for UnixStream {
    type Listener = UnixListener;
    fn clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn read_timeout(&self, d: std::time::Duration) -> io::Result<()> {
        self.set_read_timeout(Some(d))
    }
    /// Binds over a stale socket file left at `addr`.
    fn bind(addr: &FabricAddr) -> io::Result<(UnixListener, FabricAddr)> {
        let FabricAddr::Unix(p) = addr else {
            return Err(wrong_kind(addr, "unix"));
        };
        let _ = std::fs::remove_file(p);
        Ok((UnixListener::bind(p)?, addr.clone()))
    }
    fn accept(listener: &UnixListener) -> io::Result<Self> {
        Ok(listener.accept()?.0)
    }
    fn connect(addr: &FabricAddr) -> io::Result<Self> {
        match addr {
            FabricAddr::Unix(p) => UnixStream::connect(p),
            _ => Err(wrong_kind(addr, "unix")),
        }
    }
}

/// A bound [`MeshStream`] listener and the address peers dial. Dropping
/// it removes a UNIX socket's file, so no exit path leaves one behind.
pub(crate) struct Listener<S: MeshStream> {
    inner: S::Listener,
    pub(crate) addr: FabricAddr,
}

impl<S: MeshStream> Listener<S> {
    pub(crate) fn bind(addr: &FabricAddr) -> io::Result<Self> {
        let (inner, addr) = S::bind(addr)?;
        Ok(Listener { inner, addr })
    }

    pub(crate) fn accept(&self) -> io::Result<S> {
        S::accept(&self.inner)
    }
}

impl<S: MeshStream> Drop for Listener<S> {
    fn drop(&mut self) {
        if let FabricAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// [`Transport`] over a mesh of framed streams, one per peer rank
/// (`None` at this rank's own slot). Writes go through per-peer writer
/// threads so `send` never blocks; reads come off buffered per-peer
/// streams into the same `(from, tag)` mailbox as the channel fabric's.
pub struct SocketTransport {
    rank: usize,
    writers: Vec<Option<Sender<Vec<u8>>>>,
    writer_joins: Vec<JoinHandle<()>>,
    readers: Vec<Option<BufReader<Box<dyn ReadStream>>>>,
    mailbox: Mailbox,
}

/// Object-safe read half (the concrete stream type is erased so
/// `SocketTransport` itself stays non-generic and boxable).
trait ReadStream: Read + Send {}
impl<S: Read + Send> ReadStream for S {}

impl SocketTransport {
    /// Wire rank `rank` over `streams[s]` to each peer `s`
    /// (`streams[rank]` must be `None`). Spawns one writer thread per
    /// peer and applies the fabric receive timeout to each read half.
    pub fn new<S: MeshStream>(rank: usize, streams: Vec<Option<S>>) -> io::Result<Self> {
        let mut writers = Vec::with_capacity(streams.len());
        let mut writer_joins = Vec::new();
        let mut readers: Vec<Option<BufReader<Box<dyn ReadStream>>>> =
            Vec::with_capacity(streams.len());
        for (peer, s) in streams.into_iter().enumerate() {
            let Some(s) = s else {
                assert_eq!(peer, rank, "only this rank's own slot may be unwired");
                writers.push(None);
                readers.push(None);
                continue;
            };
            s.read_timeout(RECV_TIMEOUT)?;
            let mut wh = s.clone_stream()?;
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            writer_joins.push(std::thread::spawn(move || {
                // Drain until every sender clone is dropped: frames
                // queued at teardown still reach the peer.
                for payload in rx {
                    fmm_wire::write_frame(&mut wh, &payload, MAX_FRAME)
                        .expect("fabric write failed");
                }
            }));
            writers.push(Some(tx));
            readers.push(Some(BufReader::new(Box::new(s) as Box<dyn ReadStream>)));
        }
        Ok(SocketTransport {
            rank,
            writers,
            writer_joins,
            readers,
            mailbox: Mailbox::default(),
        })
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        let payload = encode_msg(self.rank as u32, tag, &data);
        self.writers[to]
            .as_ref()
            .expect("send to unwired peer")
            .send(payload)
            .expect("fabric peer hung up");
    }

    fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        let rank = self.rank;
        let reader = self.readers[from].as_mut().expect("recv from unwired peer");
        self.mailbox.recv(from, tag, || match read_msg(reader) {
            Ok((src, t, data)) => {
                assert_eq!(
                    src as usize, from,
                    "frame on rank {rank}'s link to {from} claims source {src}"
                );
                (from, t, data)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                panic!("spmd rank {rank} timed out waiting for (from={from}, tag={tag})")
            }
            Err(e) => panic!("spmd rank {rank}: fabric read from {from} failed: {e}"),
        })
    }

    fn close(&mut self) {
        for w in self.writers.iter_mut() {
            *w = None; // drop the sender: writer drains, flushes, exits
        }
        for j in self.writer_joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.close();
    }
}

/// A rendezvous or mesh endpoint address, as written on `--fabric` CLI
/// knobs: `unix:/path/to.sock` or `tcp:host:port`. Its kind is the wire
/// the ranks of a multi-process run talk over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricAddr {
    Unix(PathBuf),
    Tcp(String),
}

impl FabricAddr {
    pub fn parse(s: &str) -> Result<FabricAddr, String> {
        match s.split_once(':') {
            Some(("unix", path)) if !path.is_empty() => Ok(FabricAddr::Unix(path.into())),
            Some(("tcp", addr)) if addr.contains(':') => Ok(FabricAddr::Tcp(addr.into())),
            _ => Err(format!(
                "bad fabric address {s:?}: expected unix:/path or tcp:host:port"
            )),
        }
    }

    /// The address kind, `"unix"` or `"tcp"`: also the name of its
    /// `fmm_machine::TransportModel`.
    pub fn kind(&self) -> &'static str {
        match self {
            FabricAddr::Unix(_) => "unix",
            FabricAddr::Tcp(_) => "tcp",
        }
    }
}

impl std::fmt::Display for FabricAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            FabricAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Establish this rank's row of a cross-process mesh: connect to every
/// lower rank (identifying ourselves with a 4-byte rank header), accept
/// from every higher rank. Every rank's listener is bound before any
/// address table is published (the rendezvous guarantees it), so
/// connections can only land in a bound listener's backlog.
pub fn connect_mesh<S: MeshStream>(
    rank: usize,
    p: usize,
    mut connect: impl FnMut(usize) -> io::Result<S>,
    mut accept: impl FnMut() -> io::Result<S>,
) -> io::Result<Vec<Option<S>>> {
    let mut row: Vec<Option<S>> = (0..p).map(|_| None).collect();
    for (peer, slot) in row.iter_mut().enumerate().take(rank) {
        let mut s = connect(peer)?;
        s.write_all(&(rank as u32).to_le_bytes())?;
        *slot = Some(s);
    }
    for _ in rank + 1..p {
        let mut s = accept()?;
        let mut hdr = [0u8; 4];
        s.read_exact(&mut hdr)?;
        let from = u32::from_le_bytes(hdr) as usize;
        if from <= rank || from >= p || row[from].is_some() {
            return Err(invalid(format!(
                "mesh handshake: unexpected peer rank {from} at rank {rank}"
            )));
        }
        row[from] = Some(s);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        fmm_wire::write_frame(&mut frame, payload, MAX_FRAME).unwrap();
        frame
    }

    #[test]
    fn codec_round_trips_bit_patterns() {
        let data = [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::from_bits(0x7ff8_dead_beef_0001),
        ];
        let frame = framed(&encode_msg(3, 42, &data));
        let (from, tag, out) = read_msg(&mut frame.as_slice()).unwrap();
        assert_eq!((from, tag), (3, 42));
        assert_eq!(out.len(), data.len());
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_rejects_truncation_everywhere() {
        let frame = framed(&encode_msg(1, 7, &[1.0, 2.0, 3.0]));
        for cut in 0..frame.len() {
            assert!(
                read_msg(&mut &frame[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        // Inside a whole frame, a short header or a ragged word is an error.
        let payload = encode_msg(1, 7, &[1.0]);
        for cut in (0..payload.len()).filter(|c| *c < HEADER || !(c - HEADER).is_multiple_of(8)) {
            let frame = framed(&payload[..cut]);
            assert!(
                read_msg(&mut frame.as_slice()).is_err(),
                "payload cut {cut}"
            );
        }
        let mut bad_magic = payload;
        bad_magic[3] = b'X';
        assert!(read_msg(&mut framed(&bad_magic).as_slice()).is_err());
    }

    #[test]
    fn read_msg_caps_hostile_lengths_before_allocating() {
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(u32::MAX).to_le_bytes());
        hostile.extend_from_slice(&[0u8; 64]);
        let err = read_msg(&mut hostile.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn fabric_addr_parses_both_ways() {
        let u = FabricAddr::parse("unix:/tmp/fmm.sock").unwrap();
        assert_eq!(u.kind(), "unix");
        assert_eq!(u.to_string(), "unix:/tmp/fmm.sock");
        let t = FabricAddr::parse("tcp:127.0.0.1:9001").unwrap();
        assert_eq!(t.kind(), "tcp");
        assert_eq!(t.to_string(), "tcp:127.0.0.1:9001");
        assert!(FabricAddr::parse("carrier-pigeon:coop").is_err());
        assert!(FabricAddr::parse("tcp:nohost").is_err());
    }

    #[cfg(unix)]
    #[test]
    fn socket_transport_parks_out_of_order_tags() {
        let (a, b) = UnixStream::pair().unwrap();
        let t0 = SocketTransport::new(0, vec![None, Some(a)]).unwrap();
        let t1 = SocketTransport::new(1, vec![Some(b), None]).unwrap();
        let h = std::thread::spawn(move || {
            let mut t = t1;
            t.send(0, 0, vec![10.0]);
            t.send(0, 1, vec![20.0]);
            let got = t.recv(0, 0);
            t.close();
            got
        });
        let mut t = t0;
        let b = t.recv(1, 1); // arrives second, requested first
        let a = t.recv(1, 0);
        t.send(1, 0, vec![a[0] + b[0]]);
        t.close();
        assert_eq!((a[0], b[0]), (10.0, 20.0));
        assert_eq!(h.join().unwrap(), vec![30.0]);
    }
}
