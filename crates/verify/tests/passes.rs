//! Unit/integration tests of the analyzer itself: clean programs pass
//! every structural pass at every machine shape, and each injected
//! mutation is caught by the pass that owns it.

use fmm_machine::VuGrid;
use fmm_spmd::{vu_grid_for, CommProgram};
use fmm_verify::passes::{budget, deadlock, endpoints};
use fmm_verify::{apply_mutation, lower, run_checks, CheckConfig, Mutation};

fn table4_program() -> CommProgram {
    CommProgram::build(VuGrid::new([8, 4, 4]), 4, 6, false, false)
}

#[test]
fn structural_passes_clean_across_machine_shapes() {
    for p in [1usize, 2, 4, 8, 16, 64, 128] {
        for depth in 2..=4u32 {
            let grid = vu_grid_for(p);
            if grid.dims.iter().any(|&d| d > 1usize << depth) {
                continue; // grid does not fit the leaf level
            }
            for forces in [false, true] {
                let prog = CommProgram::build(grid, depth, 6, forces, false);
                let low = lower(&prog);
                let e = endpoints::check(&low)
                    .unwrap_or_else(|errs| panic!("p={p} depth={depth}: {errs:?}"));
                assert_eq!(e.steps, prog.step_count());
                let d = deadlock::check(&low)
                    .unwrap_or_else(|errs| panic!("p={p} depth={depth}: {errs:?}"));
                assert_eq!(d.steps, prog.step_count());
                // Single-rank programs exchange nothing.
                if p == 1 {
                    assert_eq!(e.matched_messages, 0);
                }
            }
        }
    }
}

#[test]
fn budget_pass_clean_and_byte_exact_where_static() {
    for p in [1usize, 2, 4, 8, 16, 128] {
        let depth = if p == 128 { 4 } else { 3 };
        let prog = CommProgram::build(vu_grid_for(p), depth, 6, false, false);
        let low = lower(&prog);
        let s = budget::check(&low, 2).unwrap_or_else(|errs| panic!("p={p}: {errs:?}"));
        // Any phase with a statically known, nonzero byte total must be
        // byte-exact against the closed-form budget — that is the claim
        // the axis-aware halo accounting makes.
        for (i, ph) in s.phases.iter().enumerate() {
            if ph.bytes.is_some_and(|b| b > 0) {
                assert!(
                    s.byte_exact_phases.contains(&i),
                    "p={p} phase {i}: static bytes {:?} not byte-exact",
                    ph.bytes
                );
            }
        }
    }
}

/// Under both supernode settings the lowered downward phase (halos with
/// ghost 5 or 4, and the embedded broadcast carrying `far` beside
/// `local` under supernodes) is byte-exact against the closed-form
/// budget, on the block layout and on a partition.
#[test]
fn budget_pass_byte_exact_under_both_supernode_settings() {
    for supernodes in [false, true] {
        for (p, depth) in [(2usize, 5u32), (8, 5), (16, 4), (128, 4)] {
            let prog = CommProgram::build(vu_grid_for(p), depth, 12, false, supernodes);
            let low = lower(&prog);
            let s = budget::check(&low, 3)
                .unwrap_or_else(|errs| panic!("p={p} sn={supernodes}: {errs:?}"));
            assert!(
                s.byte_exact_phases.contains(&3),
                "p={p} depth={depth} supernodes={supernodes}: downward not byte-exact"
            );
        }
        let prog = CommProgram::build_partitioned(
            vu_grid_for(8),
            4,
            12,
            true,
            supernodes,
            fmm_spmd::Partition::uniform(4, 8),
        );
        let s = budget::check(&lower(&prog), 3).unwrap();
        assert!(
            s.byte_exact_phases.contains(&3),
            "partitioned, sn={supernodes}"
        );
    }
    // Supernodes shrink the child-level halo: fewer bytes at p = 8.
    let bytes = |sn| {
        let prog = CommProgram::build(vu_grid_for(8), 5, 12, false, sn);
        budget::static_phases(&lower(&prog))[3].bytes.unwrap()
    };
    assert!(bytes(true) < bytes(false));
}

#[test]
fn table4_static_totals_are_the_pr2_constants() {
    let low = lower(&table4_program());
    let phases = budget::static_phases(&low);
    let msgs: Vec<u64> = phases.iter().map(|p| p.messages).collect();
    assert_eq!(msgs, [1, 0, 127, 19, 0, 6]);
    assert_eq!(phases[2].bytes, Some(86_016));
    assert_eq!(phases[3].bytes, Some(24_351_744));
    // Sort and near-field payloads are data-dependent.
    assert_eq!(phases[0].bytes, None);
    assert_eq!(phases[5].bytes, None);
}

#[test]
fn flipped_halo_is_rejected_by_endpoints_and_deadlock() {
    let mut low = lower(&table4_program());
    apply_mutation(&mut low, Mutation::FlippedHalo);
    let errs = endpoints::check(&low).expect_err("a flipped halo must not match");
    assert!(!errs.is_empty());
    deadlock::check(&low).expect_err("a flipped halo must not complete");
}

#[test]
fn dropped_recv_is_rejected_with_one_unmatched_send() {
    let mut low = lower(&table4_program());
    apply_mutation(&mut low, Mutation::DroppedRecv);
    let errs = endpoints::check(&low).expect_err("dropped receive must not match");
    assert_eq!(errs.len(), 1);
    assert!(matches!(
        errs[0],
        endpoints::EndpointError::UnmatchedSend {
            to: 0,
            count: 1,
            ..
        }
    ));
    let derrs = deadlock::check(&low).expect_err("dropped receive leaves a message in flight");
    assert!(derrs.iter().all(|e| e.undelivered > 0));
}

#[test]
fn mutation_parsing() {
    assert_eq!(Mutation::parse("flipped-halo"), Some(Mutation::FlippedHalo));
    assert_eq!(Mutation::parse("dropped-recv"), Some(Mutation::DroppedRecv));
    assert_eq!(Mutation::parse("no-such-fault"), None);
}

#[test]
fn run_checks_reports_the_failing_pass_by_name() {
    let mut cfg = CheckConfig::table4();
    cfg.skip_lints = true; // source tree state is the lint pass's own test
    let clean = run_checks(&cfg);
    assert!(clean.ok(), "{:?}", clean.failing());

    cfg.mutate = Some(Mutation::FlippedHalo);
    let bad = run_checks(&cfg);
    assert!(!bad.ok());
    assert!(bad.failing().contains(&"endpoint-matching"));
}
