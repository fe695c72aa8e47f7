//! The transport seam's contract: the *same* `CommProgram` run by
//! in-process channel ranks (`Executor::spmd(p)`) and by ranks launched
//! through a UNIX or TCP rendezvous (`evaluate_distributed`, each rank a
//! `worker_join` on a thread here) produces **bitwise identical**
//! potentials, forces, channel counters, partition and near-field stats.
//! The wire moves bytes; it never touches arithmetic, schedule, tags, or
//! counting.
#![cfg(unix)]

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};

use fmm_core::{Balance, EvalOutput, Executor, Fmm, FmmConfig};
use fmm_spmd::{evaluate_distributed, worker_join, FabricAddr, LaunchConfig};
use proptest::prelude::*;

fn system(lo: usize, hi: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<f64>)> {
    (lo..hi).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| [x, y, z]),
                n,
            ),
            proptest::collection::vec(-2.0f64..2.0, n),
        )
    })
}

fn fmm(depth: u32, p: usize, bal: Balance) -> Fmm {
    fmm_spmd::install();
    let cfg = FmmConfig::order(3)
        .depth(depth)
        .executor(Executor::spmd(p))
        .balance(bal);
    Fmm::new(cfg).unwrap()
}

/// A fresh rendezvous of each kind. The TCP one names a port the OS just
/// handed out: the ranks here must dial it, not a `:0` wildcard.
fn rendezvous() -> [FabricAddr; 2] {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let sock = format!("fmm-fabrics-{}-{run}.sock", std::process::id());
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .port();
    [
        FabricAddr::Unix(std::env::temp_dir().join(sock)),
        FabricAddr::Tcp(format!("127.0.0.1:{port}")),
    ]
}

/// `fmm` on `p` ranks joined through `at`, every rank a thread.
fn distributed(
    fmm: &Fmm,
    pts: &[[f64; 3]],
    q: &[f64],
    p: usize,
    forces: bool,
    at: FabricAddr,
) -> EvalOutput {
    let lc = LaunchConfig {
        rendezvous: at,
        workers: p,
        with_fields: forces,
        worker_bin: None,
        capacity_bytes: None,
    };
    std::thread::scope(|s| {
        let launcher = s.spawn(|| evaluate_distributed(fmm, pts, q, &lc));
        for rank in 0..p {
            let at = &lc.rendezvous;
            s.spawn(move || worker_join(at, rank).unwrap());
        }
        launcher.join().unwrap().unwrap()
    })
}

/// Every rendezvous kind against the in-process run, bit for bit; the
/// first difference is returned, naming the wire and the quantity.
fn compare(
    pts: &[[f64; 3]],
    q: &[f64],
    depth: u32,
    p: usize,
    bal: Balance,
    forces: bool,
) -> Result<(), String> {
    let f = fmm(depth, p, bal);
    let base = if forces {
        f.evaluate_forces(pts, q)
    } else {
        f.evaluate(pts, q)
    }
    .unwrap();
    for at in rendezvous() {
        let out = distributed(&f, pts, q, p, forces, at.clone());
        let cell = format!("{} p={p} depth={depth} bal={bal:?}", at.kind());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&base.potentials) != bits(&out.potentials) {
            return Err(format!("potentials differ on {cell}"));
        }
        let force_bits = |o: &EvalOutput| o.fields.as_ref().map(|f| bits(f.as_flattened()));
        if force_bits(&base) != force_bits(&out) {
            return Err(format!("forces differ on {cell}"));
        }
        // Counters are functions of the program, not the wire.
        let (a, b) = (base.spmd.as_ref().unwrap(), out.spmd.as_ref().unwrap());
        if a.phases != b.phases {
            return Err(format!("counters differ on {cell}"));
        }
        if a.partition != b.partition {
            return Err(format!("partition differs on {cell}"));
        }
        if base.near_stats != out.near_stats {
            return Err(format!("near stats differ on {cell}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Potentials, forces, and per-phase counters are bit-for-bit equal
    /// across channels, UNIX and TCP, for p ∈ {2, 4, 8}, depths 2–3, both
    /// balance modes, potentials-only and forces runs.
    #[test]
    fn fabrics_are_bitwise_interchangeable((pts, q) in system(40, 160),
                                           depth in 2u32..4,
                                           log_p in 1u32..4,
                                           cost_weighted in proptest::bool::ANY,
                                           forces in proptest::bool::ANY) {
        let p = 1usize << log_p;
        let bal = if cost_weighted { Balance::CostWeighted } else { Balance::Uniform };
        let verdict = compare(&pts, &q, depth, p, bal, forces);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// The acceptance grid pinned exactly: every p ∈ {2, 4, 8} × depth ∈
/// {2, 3} × balance cell agrees across wires on one fixed system, with
/// potentials and with forces (proptest samples the space; this leaves no
/// cell to chance).
#[test]
fn acceptance_grid_is_bitwise_identical() {
    let mut state = 0x5eed5eedu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts: Vec<[f64; 3]> = (0..96).map(|_| [next(), next(), next()]).collect();
    let q: Vec<f64> = (0..96).map(|_| next() * 2.0 - 1.0).collect();
    for p in [2usize, 4, 8] {
        for depth in [2u32, 3] {
            for bal in [Balance::Uniform, Balance::CostWeighted] {
                for forces in [false, true] {
                    compare(&pts, &q, depth, p, bal, forces).unwrap();
                }
            }
        }
    }
}
