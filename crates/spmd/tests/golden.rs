//! Golden bytes of the SPMD wire protocols, taken off real sockets: one
//! `FMMW` data-plane message as `SocketTransport` sends and receives it,
//! and the three `FMMC` control-plane frames (magic `FMC4`) of a
//! multi-process run —
//! `Hello` and `Result` as a worker sends them, `Job` as the launcher
//! broadcasts it. Any change to either format fails here first.
#![cfg(unix)]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use fmm_core::{Fmm, FmmConfig, Kernel};
use fmm_spmd::{evaluate_distributed, FabricAddr, LaunchConfig, SocketTransport, Transport};

/// Bytes from hex, whitespace ignored (fields are grouped for reading).
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

fn to_hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One length-prefixed frame, prefix included, read raw off `s`.
fn raw_frame(s: &mut impl Read) -> Vec<u8> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    let mut frame = vec![0u8; 4 + u32::from_le_bytes(len) as usize];
    frame[..4].copy_from_slice(&len);
    s.read_exact(&mut frame[4..]).unwrap();
    frame
}

const TAG: u64 = 0x0102_0304_0506_0708;

// length | "FMMW" | from u32 (rank 0) | tag u64 | words 0.5 -2.5
const FMMW: &str = "20000000 464d4d57 00000000 0807060504030201
    000000000000e03f 00000000000004c0";

#[test]
fn fmmw_message_bytes_are_pinned() {
    // Rank 0 sends to a raw socket standing in for rank 1.
    let (a, mut peer) = UnixStream::pair().unwrap();
    let mut t0 = SocketTransport::new(0, vec![None, Some(a)]).unwrap();
    t0.send(1, TAG, vec![0.5, -2.5]);
    t0.close();
    assert_eq!(to_hex(&raw_frame(&mut peer)), to_hex(&hex(FMMW)));

    // Rank 1 receives the golden frame from a raw socket standing in
    // for rank 0.
    let (b, mut peer) = UnixStream::pair().unwrap();
    let mut t1 = SocketTransport::new(1, vec![Some(b), None]).unwrap();
    peer.write_all(&hex(FMMW)).unwrap();
    assert_eq!(bits(&t1.recv(0, TAG)), bits(&[0.5, -2.5]));
    t1.close();
}

// length | "FMC4" | op Hello | rank u32 | mesh address "unix:/golden"
const HELLO: &str = "19000000 464d4334 01 00000000 0c000000 756e69783a2f676f6c64656e";

// length | "FMC4" | op Job | order u32 | m_trunc u32 | outer ratio f64 |
// inner ratio f64 | depth u32 | softening f64 |
// kernel "scalar" | supernodes u32 | cost-weighted u32 | with fields u32 |
// workers u32 | domain min f64 × 3 | domain size f64 | n u64 |
// positions f64 × 3n | charges f64 × n | peer count u32 | peer "unix:/golden"
const JOB: &str = "bf000000 464d4334 02 03000000 02000000
    9a9999999999f93f 000000000000f03f 02000000 0000000000000000
    06000000 7363616c6172 00000000 00000000 00000000 01000000
    d0dcffffffffcf3f a0b9ffffffffbf3f 68eeffffffffd73f 981100000000e03f
    0200000000000000
    000000000000d03f 000000000000e03f 000000000000e83f
    000000000000e83f 000000000000d03f 000000000000e03f
    000000000000f03f 000000000000f0bf
    01000000 0c000000 756e69783a2f676f6c64656e";

// length | "FMC4" | op Result | rank u32 |
// counters per phase (messages, bytes, local words) u64 × 3 × 6 |
// n u64 | orig u64 × n | potentials f64 × n | fields flag u32 |
// near (pairs, box pairs, flops) | ghost pairs | p2o, eval, traversal flops |
// phase wall times ns u64 × 6 | phase wait times ns u64 × 6
const RESULT: &str = "5d010000 464d4334 03 00000000
    0000000000000000 0000000000000000 0000000000000000
    0000000000000000 0000000000000000 0000000000000000
    0700000000000000 2003000000000000 0300000000000000
    0000000000000000 0000000000000000 0000000000000000
    0000000000000000 0000000000000000 0000000000000000
    0000000000000000 0000000000000000 0000000000000000
    0200000000000000 0100000000000000 0000000000000000
    000000000000e03f 00000000000004c0
    00000000
    0900000000000000 0400000000000000 6300000000000000
    0600000000000000
    0100000000000000 0200000000000000 0300000000000000
    0500000000000000 0500000000000000 0500000000000000
    0500000000000000 0500000000000000 0500000000000000
    0200000000000000 0200000000000000 0200000000000000
    0200000000000000 0200000000000000 0200000000000000";

/// A one-rank distributed run whose worker is this test: it sends the
/// golden `Hello`, checks the launcher's `Job` against the golden bytes,
/// answers with the golden `Result`, and checks what the launcher
/// assembled from it.
#[test]
fn fmmc_frame_bytes_are_pinned() {
    let fmm = Fmm::new(FmmConfig::order(3).depth(2).kernel(Kernel::Scalar)).unwrap();
    let positions = [[0.25, 0.5, 0.75], [0.75, 0.25, 0.5]];
    let charges = [1.0, -1.0];
    let sock = std::env::temp_dir().join(format!("fmm-golden-{}.sock", std::process::id()));
    let lc = LaunchConfig {
        rendezvous: FabricAddr::Unix(sock.clone()),
        workers: 1,
        with_fields: false,
        worker_bin: None,
        capacity_bytes: None,
    };
    std::thread::scope(|s| {
        let launcher = s.spawn(|| evaluate_distributed(&fmm, &positions, &charges, &lc));
        let mut conn = (0..500)
            .find_map(|_| {
                UnixStream::connect(&sock)
                    .map_err(|_| std::thread::sleep(Duration::from_millis(10)))
                    .ok()
            })
            .expect("launcher never bound the rendezvous");
        conn.write_all(&hex(HELLO)).unwrap();
        assert_eq!(to_hex(&raw_frame(&mut conn)), to_hex(&hex(JOB)));
        conn.write_all(&hex(RESULT)).unwrap();

        let out = launcher.join().unwrap().unwrap();
        assert_eq!(bits(&out.potentials), bits(&[-2.5, 0.5]));
        assert!(out.fields.is_none());
        assert_eq!(
            (
                out.near_stats.pair_interactions,
                out.near_stats.box_pairs,
                out.near_stats.flops
            ),
            (9, 4, 99)
        );
        let rep = out.spmd.unwrap();
        assert_eq!(rep.ghost_pairs, 6);
        assert_eq!(rep.phases[2].messages, 7);
        assert_eq!(rep.phases[2].bytes, 800);
        assert_eq!(rep.phases[2].local_words, 3);
        assert_eq!(
            (rep.worker_busy_ns, rep.worker_wait_ns),
            (vec![18], vec![12])
        );
    });
}
