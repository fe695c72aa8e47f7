//! **E4 — Paper Fig. 7**: Multigrid-embed via general send vs the
//! local-copy / two-step scheme, as a function of the temporary array
//! size (boxes at the level being embedded).
//!
//! The paper measured up to two orders of magnitude improvement; the
//! two-step scheme is used when a level has fewer boxes than VUs, local
//! copy otherwise.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_fig7`

use fmm_bench::machine::cost::CostModel;
use fmm_bench::machine::multigrid::{best_method, embed_counters, EmbedMethod};
use fmm_bench::util::header;

fn main() {
    header("Fig. 7 — Multigrid-embed: general send vs local-copy / two-step");
    let n_vus = 1024; // 256-node CM-5E
    let k = 12;
    let dest = 1usize << 24; // leaf-level layer of the 5-D potential array
    let cost = CostModel::cm5e();
    println!(
        "machine: {} VUs, destination array {} boxes, K = {}\n",
        n_vus, dest, k
    );
    println!(
        "{:>12} {:>14} {:>14} {:>12} {:>8}",
        "temp boxes", "send (s)", "ours (s)", "method", "speedup"
    );
    let mut n = 4096usize; // 4K .. 16M, the paper's x-axis
    while n <= (1 << 24) {
        let send = cost.time_s(&embed_counters(n, dest, n_vus, EmbedMethod::GeneralSend), k);
        let method = best_method(n, n_vus);
        let ours = cost.time_s(&embed_counters(n, dest, n_vus, method), k);
        println!(
            "{:>12} {:>14.4} {:>14.6} {:>12} {:>8.1}",
            n,
            send,
            ours,
            method.name(),
            send / ours
        );
        n *= 8; // one hierarchy level per point, as in the paper
    }
    println!(
        "\nPaper: the send curve sits one to two orders of magnitude above\n\
         the local-copy/two-step curve across 4K–16M boxes (two-step used\n\
         for the first two sizes on their 1024-VU machine)."
    );
}
