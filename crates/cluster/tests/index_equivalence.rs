//! Property suite pinning indexed server selection to the linear
//! reference scan, bit for bit.
//!
//! `AllocationSim` selects servers through the incrementally maintained
//! [`gsf_vmalloc::PlacementIndex`]; `PlacementPolicy::choose_linear`
//! (a full O(N) pool scan) is kept as the executable specification, and
//! [`AllocationSim::with_linear_selection`] runs a simulator on it.
//! These tests replay identical inputs through both selection paths and
//! assert the outcomes agree exactly — same `SimOutcome` (including
//! metrics and the usage ledger's float totals, compared via `to_bits`)
//! and same `FaultSummary` — across random traces, random cluster
//! shapes, all three policies, sampled fault plans and `reset()` reuse.
//! Sizing on the two selection paths is compared in
//! `prepared_equivalence.rs`, whose reference sizing runs the linear
//! scan.
//!
//! Two layers of checking compound here: the indexed runs below execute
//! in debug mode, so every single selection is also cross-checked
//! against `choose_linear` (and the whole index revalidated) by the
//! `debug_assert`s in the simulator — a per-request pin far stronger
//! than end-of-run outcome equality alone.

mod common;

use common::{assert_bitwise, mixed_transform, random_trace};
use gsf_cluster::sizing::FaultInjection;
use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, PlacementPolicy,
    PreparedTrace,
};
use proptest::prelude::*;

const POLICIES: [PlacementPolicy; 3] =
    [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fault-free, all three policies: indexed selection == linear scan.
    #[test]
    fn indexed_matches_linear_fault_free(
        n_vms in 1usize..60,
        baseline in 1u32..6,
        green in 0u32..4,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.03);
        let config = ClusterConfig::mixed(baseline, green);
        for policy in POLICIES {
            let indexed = AllocationSim::new(config, policy).replay(&trace, &mixed_transform);
            let linear = AllocationSim::new(config, policy)
                .with_linear_selection()
                .replay(&trace, &mixed_transform);
            assert_bitwise(&indexed, &linear);
        }
    }

    /// Faulted, AFR-sampled plans, all three policies: fail/degrade
    /// strikes and the evacuation re-placements they trigger pick
    /// identical servers indexed vs. linear, so outcome and
    /// `FaultSummary` match exactly.
    #[test]
    fn indexed_matches_linear_under_sampled_faults(
        n_vms in 1usize..60,
        baseline in 2u32..6,
        green in 1u32..4,
        seed in 0u64..400,
        model_seed in 0u64..64,
        afr_scale in 1.0..60.0f64,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let config = ClusterConfig::mixed(baseline, green);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = afr_scale;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let plan = inj.plan_for(&config, trace.duration_s());
        for policy in POLICIES {
            let (out_i, sum_i) = AllocationSim::new(config, policy)
                .replay_faulted(&trace, &mixed_transform, &plan);
            let (out_l, sum_l) = AllocationSim::new(config, policy)
                .with_linear_selection()
                .replay_faulted(&trace, &mixed_transform, &plan);
            assert_bitwise(&out_i, &out_l);
            assert_eq!(sum_i, sum_l);
        }
    }

    /// One indexed simulator reused across `reset()` cycles (the
    /// sizing-probe pattern, including shrinking pools) stays pinned to
    /// fresh linear runs at every cluster size — `rebuild` must leave no
    /// stale leaves behind.
    #[test]
    fn indexed_reset_reuse_matches_fresh_linear_runs(
        n_vms in 1usize..40,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let mut sim = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for (b, g) in [(1u32, 0u32), (4, 2), (2, 3), (1, 0)] {
            let config = ClusterConfig::mixed(b, g);
            sim.reset(config);
            let out_i = sim.replay_prepared(&prepared);
            let out_l = AllocationSim::new(config, PlacementPolicy::BestFit)
                .with_linear_selection()
                .replay_unprepared(&trace, &mixed_transform);
            assert_bitwise(&out_i, &out_l);
        }
    }
}

/// Hand-built plan covering both fault kinds, repeat strikes on a dead
/// server, and heavy degradation that forces evictions — the index must
/// track every one of those mutations to keep choosing the linear
/// scan's server.
#[test]
fn hand_built_fault_plan_matches_bitwise() {
    let trace = random_trace(40, 7, 0.0);
    let config = ClusterConfig::mixed(3, 2);
    let plan = FaultPlan::new(
        vec![
            FaultEvent {
                time_s: 300.0,
                pool: FaultPool::Baseline,
                server: 0,
                kind: FaultKind::PartialDegrade { cores_lost: 40, mem_lost_gb: 256.0 },
            },
            FaultEvent {
                time_s: 600.0,
                pool: FaultPool::Green,
                server: 1,
                kind: FaultKind::FullFailure,
            },
            // Second strike on a dead server: a no-op for both paths.
            FaultEvent {
                time_s: 900.0,
                pool: FaultPool::Green,
                server: 1,
                kind: FaultKind::FullFailure,
            },
            // Degrade to near-zero: evicts everything resident.
            FaultEvent {
                time_s: 1200.0,
                pool: FaultPool::Baseline,
                server: 1,
                kind: FaultKind::PartialDegrade { cores_lost: 79, mem_lost_gb: 760.0 },
            },
            FaultEvent {
                time_s: 1500.0,
                pool: FaultPool::Baseline,
                server: 2,
                kind: FaultKind::FullFailure,
            },
        ],
        3,
        3,
        2,
    )
    .unwrap();
    for policy in POLICIES {
        let (out_i, sum_i) =
            AllocationSim::new(config, policy).replay_faulted(&trace, &mixed_transform, &plan);
        let (out_l, sum_l) = AllocationSim::new(config, policy)
            .with_linear_selection()
            .replay_faulted(&trace, &mixed_transform, &plan);
        assert_bitwise(&out_i, &out_l);
        assert_eq!(sum_i, sum_l);
        assert!(sum_i.full_failures >= 1, "plan should land at least one full failure");
    }
}
