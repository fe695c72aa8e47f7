//! Multigrid-embed / Multigrid-extract cost comparison (paper Fig. 7).
//!
//! Embedding a temporary per-level array of potential vectors into the
//! 4-D/5-D hierarchy array can be done three ways:
//!
//! * **general send** — what the CMF compiler emits for any assignment
//!   between arrays of different shape: a router send whose address
//!   computation scans the whole array ("overhead … about linear in the
//!   array size … may dominate the actual communication"),
//! * **local copy** — when at least one box per VU exists at the level,
//!   array aliasing + sectioning turns the embed into a pure local copy,
//! * **two-step** — near the root (< 1 box/VU): send into a temporary at
//!   the first level with ≥ 1 box/VU (cheap: tiny array), then local copy.
//!
//! The paper measured up to two orders of magnitude improvement from
//! local-copy / two-step over the general send (Fig. 7).

use fmm_machine::Counters;

/// How an embed/extract is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedMethod {
    GeneralSend,
    LocalCopy,
    TwoStep,
}

impl EmbedMethod {
    pub fn name(self) -> &'static str {
        match self {
            EmbedMethod::GeneralSend => "general send",
            EmbedMethod::LocalCopy => "local copy",
            EmbedMethod::TwoStep => "two-step",
        }
    }
}

/// Data-motion counters of one Multigrid-embed of `n_boxes` boxes into a
/// hierarchy array of `dest_boxes` boxes on a machine with `n_vus` VUs.
///
/// The general send's address computation scans both operands — that is
/// the paper's "overhead … about linear in the array size \[which\] may
/// dominate the actual communication"; the two-step scheme's first send
/// only scans a one-box-per-VU temporary.
pub fn embed_counters(
    n_boxes: usize,
    dest_boxes: usize,
    n_vus: usize,
    method: EmbedMethod,
) -> Counters {
    let mut c = Counters::default();
    match method {
        EmbedMethod::GeneralSend => {
            c.sends = 1;
            c.send_address_scans = (n_boxes + dest_boxes) as u64;
            c.off_vu_boxes = n_boxes as u64; // router path, worst case
        }
        EmbedMethod::LocalCopy => {
            c.local_box_moves = n_boxes as u64;
        }
        EmbedMethod::TwoStep => {
            // Step 1: send into a temporary with one box per VU.
            c.sends = 1;
            c.send_address_scans = (n_boxes + n_vus.min(dest_boxes)) as u64;
            c.off_vu_boxes = n_boxes as u64;
            // Step 2: local copy into the final embedding (aliasing +
            // sectioning: pure index arithmetic, no scan).
            c.local_box_moves = n_boxes as u64;
        }
    }
    c
}

/// The method the paper's implementation picks for a level: local copy
/// when the level has at least one box per VU, two-step otherwise.
pub fn best_method(n_boxes: usize, n_vus: usize) -> EmbedMethod {
    if n_boxes >= n_vus {
        EmbedMethod::LocalCopy
    } else {
        EmbedMethod::TwoStep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::cost::CostModel;

    #[test]
    fn best_method_switches_at_one_box_per_vu() {
        assert_eq!(best_method(512, 1024), EmbedMethod::TwoStep);
        assert_eq!(best_method(4096, 1024), EmbedMethod::LocalCopy);
        assert_eq!(best_method(1024, 1024), EmbedMethod::LocalCopy);
    }

    #[test]
    fn send_dominated_by_scan_overhead() {
        let m = CostModel::cm5e();
        let n = 1 << 21; // 2M boxes into a 16M-box destination
        let dest = 1 << 24;
        let send = m.time_s(&embed_counters(n, dest, 1024, EmbedMethod::GeneralSend), 12);
        let local = m.time_s(&embed_counters(n, dest, 1024, EmbedMethod::LocalCopy), 12);
        // Paper Fig. 7: one to two orders of magnitude.
        assert!(send / local > 8.0, "send {} local {}", send, local);
    }

    #[test]
    fn two_step_beats_send_near_root() {
        let m = CostModel::cm5e();
        let n = 512; // fewer boxes than VUs
        let dest = 1 << 24;
        let send = m.time_s(&embed_counters(n, dest, 1024, EmbedMethod::GeneralSend), 12);
        let two = m.time_s(&embed_counters(n, dest, 1024, EmbedMethod::TwoStep), 12);
        assert!(two < send / 50.0, "two-step {} vs send {}", two, send);
    }

    #[test]
    fn counters_scale_linearly() {
        let a = embed_counters(1000, 1 << 20, 64, EmbedMethod::LocalCopy);
        let b = embed_counters(2000, 1 << 20, 64, EmbedMethod::LocalCopy);
        assert_eq!(2 * a.local_box_moves, b.local_box_moves);
    }
}
