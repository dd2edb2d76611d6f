//! Property suite for the slot-arena replay core (DESIGN.md §13).
//!
//! The arena rewrite replaced per-server `BTreeMap` VM storage with one
//! struct-of-arrays arena plus sorted occupancy lists. Its contract:
//!
//! 1. **Bit-identity across engines** — the prepared, unprepared, and
//!    sharded engines still agree bitwise on every outcome (including
//!    the low mantissa bits of every usage total) across random traces,
//!    all three policies, and fault plans with failures, degrades, and
//!    revivals. Ascending-VM-id iteration order is what makes this
//!    hold; a storage layer that iterated in slot order would drift in
//!    the float reductions.
//! 2. **Storage consistency** — after any replay, occupancy lists and
//!    the arena agree: per-server occupancy sums to the arena's live
//!    count and every server's cores/mem aggregates match a fold over
//!    its slots.
//! 3. **Reuse** — a simulator reused across `reset()` cycles (the
//!    sizing-probe pattern, which keeps arena capacity) matches fresh
//!    runs bitwise, and both sizing searches are stable across repeated
//!    invocations against a reused probe.

mod common;

use common::{assert_bitwise, green_transform, random_small_vm_trace};
use gsf_cluster::sizing::{
    right_size_baseline_only_prepared, right_size_mixed_prepared, FaultInjection,
};
use gsf_maintenance::{FaultModel, FaultTopology, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, PlacementPolicy,
    PlacementRequest, PreparedTrace, ServerShape, ShardedSim,
};
use gsf_workloads::VmSpec;
use proptest::prelude::*;

const POLICIES: [PlacementPolicy; 3] =
    [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

/// A deterministic handcrafted plan mixing full failures, partial
/// degrades (including degrade-to-zero on one server), and revivals on
/// both pools — the event kinds that exercise every arena mutation path.
fn handcrafted_plan(baseline: u32, green: u32, duration_s: f64) -> FaultPlan {
    let mut events = Vec::new();
    let full = |time_s: f64, pool, server| FaultEvent {
        time_s,
        pool,
        server,
        kind: FaultKind::FullFailure,
    };
    let degrade = |time_s: f64, pool, server, cores_lost, mem_lost_gb| FaultEvent {
        time_s,
        pool,
        server,
        kind: FaultKind::PartialDegrade { cores_lost, mem_lost_gb },
    };
    let revive =
        |time_s: f64, pool, server| FaultEvent { time_s, pool, server, kind: FaultKind::Revive };
    events.push(full(0.10 * duration_s, FaultPool::Baseline, 0));
    if baseline > 1 {
        events.push(degrade(0.20 * duration_s, FaultPool::Baseline, 1, 16, 64.0));
        // Degrade-to-zero: larger losses than any shape, clamped to a
        // zero-capacity server whose densities must stay finite.
        events.push(degrade(0.30 * duration_s, FaultPool::Baseline, 1, 10_000, 1e9));
    }
    events.push(revive(0.55 * duration_s, FaultPool::Baseline, 0));
    if green > 0 {
        events.push(full(0.40 * duration_s, FaultPool::Green, 0));
        events.push(revive(0.80 * duration_s, FaultPool::Green, 0));
    }
    if green > 1 {
        events.push(degrade(0.60 * duration_s, FaultPool::Green, 1, 24, 96.0));
    }
    events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    FaultPlan::new(events, 4, baseline, green).unwrap()
}

/// A seeded, repair-enabled sampled model for broader fault coverage.
fn sampled_plan(config: &ClusterConfig, duration_s: f64, model_seed: u64) -> FaultPlan {
    let mut model = FaultModel::paper(model_seed);
    model.afr_scale = 40.0;
    let model = model
        .with_topology(FaultTopology::rack(3))
        .and_then(|m| m.with_repair_days(10.0))
        .unwrap_or_else(|e| panic!("valid knobs rejected: {e}"));
    let inj = FaultInjection {
        model: &model,
        baseline_devices: PoolDevices::baseline(),
        green_devices: PoolDevices::greensku_full(),
        slo: None,
    };
    inj.plan_for(config, duration_s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every policy, engine, and fault shape agrees bitwise on the
    /// arena core, the arena stays internally consistent after every
    /// replay, and `reset()` reuse (retained arena capacity) changes
    /// nothing.
    #[test]
    fn arena_replay_is_bit_identical_and_consistent(
        n_vms in 1usize..50,
        seed in 0u64..200,
        model_seed in 0u64..32,
        baseline in 2u32..6,
        green in 2u32..5,
    ) {
        let trace = random_small_vm_trace(n_vms, seed);
        let config = ClusterConfig::mixed(baseline, green);
        let prepared = PreparedTrace::new(&trace, &green_transform);
        let plans = [
            handcrafted_plan(baseline, green, trace.duration_s()),
            sampled_plan(&config, trace.duration_s(), model_seed),
        ];
        for plan in &plans {
            for policy in POLICIES {
                let mut sim_p = AllocationSim::new(config, policy);
                let (out_p, sum_p) = sim_p.replay_prepared_faulted(&prepared, plan);
                prop_assert!(sim_p.storage_consistent());

                let mut sim_u = AllocationSim::new(config, policy).with_linear_selection();
                let (out_u, sum_u) = sim_u.replay_faulted_unprepared(
                    &trace, &green_transform, plan,
                );
                prop_assert!(sim_u.storage_consistent());
                assert_bitwise(&out_p, &out_u);
                prop_assert_eq!(&sum_p, &sum_u);

                let (out_s, sum_s) =
                    ShardedSim::new(config, policy, 1).replay_prepared_faulted(&prepared, plan);
                assert_bitwise(&out_p, &out_s);
                prop_assert_eq!(&sum_p, &sum_s);

                // Reuse the first simulator across reset() cycles: the
                // retained arena capacity must not leak state.
                sim_p.reset(config);
                prop_assert!(sim_p.storage_consistent());
                let (out_r, sum_r) = sim_p.replay_prepared_faulted(&prepared, plan);
                prop_assert!(sim_p.storage_consistent());
                assert_bitwise(&out_p, &out_r);
                prop_assert_eq!(&sum_p, &sum_r);

                // Degraded-to-zero servers must never poison the
                // packing metrics with NaN (satellite: density guards).
                for pool in [&out_p.metrics.baseline, &out_p.metrics.green] {
                    prop_assert!(pool.mean_core_density().is_finite());
                    prop_assert!(pool.mean_mem_density().is_finite());
                    prop_assert!(pool.mean_max_mem_util().is_finite());
                }
            }
        }
    }

    /// Both sizing searches run on the arena core: repeated invocations
    /// are stable, and replaying at the found size on a reused
    /// simulator matches a fresh one bitwise.
    #[test]
    fn arena_sizing_searches_are_stable_and_reusable(
        n_vms in 1usize..30,
        seed in 0u64..100,
    ) {
        let trace = random_small_vm_trace(n_vms, seed);
        let prepared = PreparedTrace::new(&trace, &green_transform);
        let prepared_baseline =
            PreparedTrace::new(&trace, &|vm: &VmSpec| PlacementRequest::baseline_only(vm));
        let shape = ServerShape::baseline_gen3();
        let green = ServerShape::greensku();

        let size_a = right_size_baseline_only_prepared(
            &prepared_baseline, shape, PlacementPolicy::BestFit, None,
        );
        let size_b = right_size_baseline_only_prepared(
            &prepared_baseline, shape, PlacementPolicy::BestFit, None,
        );
        prop_assert_eq!(&size_a, &size_b);

        let plan_a = right_size_mixed_prepared(
            &prepared, &prepared_baseline, shape, green, PlacementPolicy::BestFit, None,
        );
        let plan_b = right_size_mixed_prepared(
            &prepared, &prepared_baseline, shape, green, PlacementPolicy::BestFit, None,
        );
        prop_assert_eq!(&plan_a, &plan_b);

        let mut reused = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for (b, g) in [(3u32, 2u32), (5, 1), (2, 4), (3, 2)] {
            let config = ClusterConfig::mixed(b, g);
            reused.reset(config);
            let out_reused = reused.replay_prepared(&prepared);
            prop_assert!(reused.storage_consistent());
            let out_fresh =
                AllocationSim::new(config, PlacementPolicy::BestFit).replay_prepared(&prepared);
            assert_bitwise(&out_reused, &out_fresh);
        }
    }
}
