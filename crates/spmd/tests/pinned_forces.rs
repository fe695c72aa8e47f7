//! `evaluate_forces` against recorded bits. The cross-executor tests in
//! `bitwise.rs` hold the executors equal to each other; this one holds all
//! of them equal to recorded output: first that of the commit before the
//! leaf evaluation computed value and gradient rows in one pass over the
//! same `P_n`, re-recorded once when the force near field began summing
//! neighbour rows instead of neighbour boxes (old hashes `0xbef77eea33d06348`,
//! `0x274fbda0af040142`), and once when it moved onto the third-law row
//! sweep, the potentials' schedule (old hashes `0x198d48786312fbf8`,
//! `0x1c5d082da4b21883`; every finite output within 2.1e-15·max|Φ| and
//! 1.8e-15·max|E| of the old one), and once when the translation set
//! began storing one T2 matrix per mirror orbit and the downward sweep
//! ran T2 mirror by mirror (old hashes `0xe30a50fd8a70d663`,
//! `0x45ab307a4f040fbd` over every output). Since then the outputs of
//! particles that share their position with another are left out of the
//! hashes, and the count of non-finite outputs is pinned on its own: the
//! clamping puts some points on top of one another, and what those get is
//! a question of its own (ROADMAP item 27), which can move the count
//! without moving the hashes.

use fmm_core::{Executor, Fmm, FmmConfig, Kernel};

/// 2 000 points of a Plummer sphere (scale 0.1, centre off the middle),
/// clamped into the unit cube, with charges in [−1, 1). Only `+ − × ÷ √`
/// are used, so the points are the same bits on every host: the radius is
/// `a·s/√(1 − s²)` with `s` the largest of three uniforms (`s³` is then
/// uniform, which is what Plummer's mass profile inverts), the direction a
/// normalised rejection sample of the unit ball.
fn plummer(n: usize) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pts = Vec::with_capacity(n);
    while pts.len() < n {
        let d = [2.0 * next() - 1.0, 2.0 * next() - 1.0, 2.0 * next() - 1.0];
        let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if !(1e-6..=1.0).contains(&d2) {
            continue;
        }
        let s = next().max(next()).max(next()).min(0.999);
        let r = 0.1 * s / (1.0 - s * s).sqrt() / d2.sqrt();
        let c = [0.45, 0.5, 0.55];
        let mut p = [0.0; 3];
        for k in 0..3 {
            p[k] = (c[k] + r * d[k]).clamp(0.0, 1.0);
        }
        pts.push(p);
    }
    let q = (0..n).map(|_| 2.0 * next() - 1.0).collect();
    (pts, q)
}

fn fnv1a(h: &mut u64, v: f64) {
    for b in v.to_bits().to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per particle, whether another one sits at the same position.
fn coincident(pts: &[[f64; 3]]) -> Vec<bool> {
    let key = |i: usize| pts[i].map(f64::to_bits);
    let mut order: Vec<usize> = (0..pts.len()).collect();
    order.sort_unstable_by_key(|&i| key(i));
    let mut shared = vec![false; pts.len()];
    for w in order.windows(2) {
        if key(w[0]) == key(w[1]) {
            shared[w[0]] = true;
            shared[w[1]] = true;
        }
    }
    shared
}

#[test]
fn evaluate_forces_reproduces_the_recorded_bits_on_every_executor() {
    fmm_spmd::install();
    let (pts, q) = plummer(2000);
    let shared = coincident(&pts);
    for executor in [Executor::Serial, Executor::Rayon, Executor::spmd(2)] {
        // The scalar tier runs everywhere, so the recorded bits do too.
        let cfg = FmmConfig::order(5)
            .depth(3)
            .kernel(Kernel::Scalar)
            .executor(executor);
        let out = Fmm::new(cfg).unwrap().evaluate_forces(&pts, &q).unwrap();
        let fields = out.fields.expect("forces were requested");
        let outputs = out.potentials.iter().chain(fields.iter().flatten());
        let non_finite = outputs.filter(|v| !v.is_finite()).count();
        let (mut hp, mut hf) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for (i, (&p, f)) in out.potentials.iter().zip(&fields).enumerate() {
            let finite = p.is_finite() && f.iter().all(|v| v.is_finite());
            assert!(
                finite || shared[i],
                "{executor:?}: particle {i} alone, not finite"
            );
            if !shared[i] {
                fnv1a(&mut hp, p);
                f.iter().for_each(|&v| fnv1a(&mut hf, v));
            }
        }
        assert_eq!(
            (non_finite, hp, hf),
            (16, 0xac6a_3fca_3111_3e21, 0x841e_1c37_ce31_8814),
            "{executor:?}: non-finite outputs / potentials / fields moved"
        );
    }
}
