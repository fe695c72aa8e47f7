//! True multi-process execution: `evaluate_distributed` spawning real
//! `fmm-worker` OS processes over a UNIX-socket (and TCP) rendezvous
//! must reproduce the in-process run bit for bit — potentials, forces,
//! counters — and the launcher's counters must stay byte-exact against
//! `communication_budget_with` exactly as the in-process model test
//! demands; and no exit path leaves a socket file behind.

use fmm_core::{Balance, Executor, Fmm, FmmConfig};
use fmm_machine::{
    communication_budget_with, predicted_bytes, predicted_messages, ProgramConfig, VuGrid,
};
use fmm_spmd::distributed::read_hello;
use fmm_spmd::{evaluate_distributed, worker_join, FabricAddr, LaunchConfig, Partition};
use std::path::PathBuf;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fmm-worker"))
}

fn system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts = (0..n).map(|_| [next(), next(), next()]).collect();
    let q = (0..n).map(|_| next() * 2.0 - 1.0).collect();
    (pts, q)
}

fn fmm(p: usize, depth: u32, bal: Balance) -> Fmm {
    fmm_spmd::install();
    Fmm::new(
        FmmConfig::order(3)
            .depth(depth)
            .executor(Executor::spmd(p))
            .balance(bal),
    )
    .unwrap()
}

fn assert_bitwise_eq(a: &fmm_core::EvalOutput, b: &fmm_core::EvalOutput, what: &str) {
    assert_eq!(a.potentials.len(), b.potentials.len());
    for (i, (x, y)) in a.potentials.iter().zip(&b.potentials).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: potential {i}");
    }
    match (&a.fields, &b.fields) {
        (None, None) => {}
        (Some(fa), Some(fb)) => {
            for (i, (x, y)) in fa.iter().zip(fb).enumerate() {
                for d in 0..3 {
                    assert_eq!(x[d].to_bits(), y[d].to_bits(), "{what}: force {i}[{d}]");
                }
            }
        }
        _ => panic!("{what}: field presence differs"),
    }
    let (ra, rb) = (a.spmd.as_ref().unwrap(), b.spmd.as_ref().unwrap());
    assert_eq!(ra.phases, rb.phases, "{what}: counters");
    assert_eq!(ra.partition, rb.partition, "{what}: partition");
    assert_eq!(a.near_stats, b.near_stats, "{what}: near stats");
}

#[cfg(unix)]
#[test]
fn four_processes_over_unix_sockets_match_in_process_bitwise() {
    const P: usize = 4;
    const DEPTH: u32 = 3;
    let (pts, q) = system(2048, 0xd15c);
    let f = fmm(P, DEPTH, Balance::Uniform);
    let local = f.evaluate_forces(&pts, &q).unwrap();
    let sock = std::env::temp_dir().join(format!("fmm-dist-{}.sock", std::process::id()));
    let remote = evaluate_distributed(
        &f,
        &pts,
        &q,
        &LaunchConfig {
            rendezvous: FabricAddr::Unix(sock),
            workers: P,
            with_fields: true,
            worker_bin: Some(worker_bin()),
            capacity_bytes: Some(1 << 30),
        },
    )
    .unwrap();
    assert_bitwise_eq(&local, &remote, "unix 4-process");

    // The launcher's counters byte-exact against the machine model on
    // the deterministic phases (upward gather, downward halo+broadcast).
    let report = remote.spmd.as_ref().unwrap();
    let budget = communication_budget_with(
        &ProgramConfig {
            depth: DEPTH,
            k: f.k(),
            m: f.config().m_trunc,
            particles_per_box: pts.len() as f64 / 8f64.powi(DEPTH as i32),
            vu_grid: VuGrid::new(report.vu_dims),
            supernodes: false,
            sort_miss_fraction: 1.0 - 1.0 / P as f64,
            forces_near: true,
        },
        None,
    );
    for i in [2usize, 3] {
        assert_eq!(
            predicted_messages(&budget.phases[i].comm),
            report.phases[i].messages,
            "phase {i} messages"
        );
        assert_eq!(
            predicted_bytes(&budget.phases[i].comm, f.k()),
            report.phases[i].bytes,
            "phase {i} bytes"
        );
    }
}

#[cfg(unix)]
#[test]
fn cost_weighted_processes_reproduce_the_partitioned_run() {
    const P: usize = 4;
    const DEPTH: u32 = 3;
    // Clustered: cost-weighted cuts land far from uniform.
    let (mut pts, q) = system(1536, 0xc0c0);
    for p in pts.iter_mut().take(1152) {
        for x in p.iter_mut() {
            *x *= 0.25;
        }
    }
    let f = fmm(P, DEPTH, Balance::CostWeighted);
    let local = f.evaluate(&pts, &q).unwrap();
    let sock = std::env::temp_dir().join(format!("fmm-dist-cw-{}.sock", std::process::id()));
    let remote = evaluate_distributed(
        &f,
        &pts,
        &q,
        &LaunchConfig {
            rendezvous: FabricAddr::Unix(sock),
            workers: P,
            with_fields: false,
            worker_bin: Some(worker_bin()),
            capacity_bytes: None,
        },
    )
    .unwrap();
    assert_bitwise_eq(&local, &remote, "unix cost-weighted");

    // Partition-derived phases byte-exact against the partitioned budget.
    let report = remote.spmd.as_ref().unwrap();
    let splits = report.partition.clone().expect("partitioned report");
    let part = Partition::from_splits(DEPTH, splits);
    let budget = communication_budget_with(
        &ProgramConfig {
            depth: DEPTH,
            k: f.k(),
            m: f.config().m_trunc,
            particles_per_box: pts.len() as f64 / 8f64.powi(DEPTH as i32),
            vu_grid: VuGrid::new(report.vu_dims),
            supernodes: false,
            sort_miss_fraction: 1.0 - 1.0 / P as f64,
            forces_near: false,
        },
        Some(&part),
    );
    for i in [2usize, 3] {
        assert_eq!(
            predicted_bytes(&budget.phases[i].comm, f.k()),
            report.phases[i].bytes,
            "phase {i} bytes"
        );
    }
}

#[test]
fn two_processes_over_tcp_match_in_process_bitwise() {
    const P: usize = 2;
    let (pts, q) = system(512, 0x7c9);
    let f = fmm(P, 2, Balance::Uniform);
    let local = f.evaluate(&pts, &q).unwrap();
    let remote = evaluate_distributed(
        &f,
        &pts,
        &q,
        &LaunchConfig {
            rendezvous: FabricAddr::Tcp("127.0.0.1:0".into()),
            workers: P,
            with_fields: false,
            worker_bin: Some(worker_bin()),
            capacity_bytes: None,
        },
    )
    .unwrap();
    assert_bitwise_eq(&local, &remote, "tcp 2-process");
}

/// The fabric × balance rows the tests above leave open, over TCP: the
/// block layout's particle halo (forces) and the partition-routed
/// travelling slots (`shift_slots_part`, potentials) both cross a socket.
#[test]
fn tcp_carries_uniform_forces_and_partitioned_slots_bitwise() {
    const P: usize = 4;
    let (pts, q) = system(1024, 0x7c9f);
    for (bal, with_fields) in [(Balance::Uniform, true), (Balance::CostWeighted, false)] {
        let f = fmm(P, 3, bal);
        let local = if with_fields {
            f.evaluate_forces(&pts, &q)
        } else {
            f.evaluate(&pts, &q)
        }
        .unwrap();
        let remote = evaluate_distributed(
            &f,
            &pts,
            &q,
            &LaunchConfig {
                rendezvous: FabricAddr::Tcp("127.0.0.1:0".into()),
                workers: P,
                with_fields,
                worker_bin: Some(worker_bin()),
                capacity_bytes: None,
            },
        )
        .unwrap();
        assert_bitwise_eq(
            &local,
            &remote,
            &format!("tcp {bal:?} forces={with_fields}"),
        );
    }
}

#[test]
fn preflight_refuses_undersized_capacity_before_spawning() {
    let (pts, q) = system(512, 0xbad);
    let f = fmm(4, 3, Balance::Uniform);
    let missing = PathBuf::from("/nonexistent/fmm-worker-not-here");
    // An undersized capacity must fail *before* any worker is spawned —
    // a worker_bin that cannot exist proves spawn was never reached.
    let err = evaluate_distributed(
        &f,
        &pts,
        &q,
        &LaunchConfig {
            rendezvous: FabricAddr::Tcp("127.0.0.1:0".into()),
            workers: 4,
            with_fields: false,
            worker_bin: Some(missing),
            capacity_bytes: Some(1000),
        },
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("pre-flight"), "{msg}");
    assert!(msg.contains("1000-byte"), "{msg}");
}

#[cfg(unix)]
#[test]
fn failed_spawn_leaves_no_rendezvous_file() {
    let (pts, q) = system(256, 0x5a);
    let f = fmm(2, 2, Balance::Uniform);
    let sock = std::env::temp_dir().join(format!("fmm-dist-nobin-{}.sock", std::process::id()));
    let err = evaluate_distributed(
        &f,
        &pts,
        &q,
        &LaunchConfig {
            rendezvous: FabricAddr::Unix(sock.clone()),
            workers: 2,
            with_fields: false,
            worker_bin: Some(PathBuf::from("/nonexistent/fmm-worker-not-here")),
            capacity_bytes: None,
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("worker spawn"), "{err}");
    assert!(
        !sock.exists(),
        "rendezvous file {} left behind",
        sock.display()
    );
}

#[cfg(unix)]
#[test]
fn malformed_job_leaves_no_mesh_socket_file() {
    use std::io::Write;
    use std::os::unix::net::UnixListener;

    let sock = std::env::temp_dir().join(format!("fmm-dist-badjob-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let launcher = UnixListener::bind(&sock).unwrap();
    let addr = FabricAddr::Unix(sock.clone());
    let worker = std::thread::spawn(move || worker_join(&addr, 0));
    // A stand-in launcher: take the Hello, answer with a Job frame whose
    // body stops after its opcode.
    let (mut conn, _) = launcher.accept().unwrap();
    let (rank, mesh) = read_hello(&mut conn).unwrap();
    assert_eq!(
        (rank, mesh.as_str()),
        (0, format!("unix:{}.r0", sock.display()).as_str())
    );
    conn.write_all(&[5, 0, 0, 0, b'F', b'M', b'M', b'C', 2])
        .unwrap();
    let err = worker.join().unwrap().unwrap_err();
    assert!(err.contains("job read"), "{err}");
    let mesh_file = PathBuf::from(format!("{}.r0", sock.display()));
    assert!(
        !mesh_file.exists(),
        "mesh socket {} left behind",
        mesh_file.display()
    );
    drop(launcher);
    let _ = std::fs::remove_file(&sock);
}
