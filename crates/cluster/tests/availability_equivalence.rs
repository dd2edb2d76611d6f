//! Property suite for the fault-domain / repair / availability layer.
//!
//! Pins three contracts on top of the engine-equivalence suites:
//!
//! 1. **Back-compat** — a model with the flat topology and repairs
//!    disabled is the *same model* as before those knobs existed: its
//!    signature and sampled plans are bit-identical, and replays,
//!    sizing searches, and `reset()` reuse all agree bitwise across
//!    the prepared, unprepared, and sharded engines.
//! 2. **Sharding** — under correlated domain faults, revivals, and
//!    retry-queue drains, the sharded engine (any shard count, any
//!    worker count) stays bitwise identical to its serial reference,
//!    and one shard stays bitwise identical to the unsharded engine.
//! 3. **Semantics** — horizon-edge events behave identically in every
//!    engine; SLO-constrained sizing is monotone in the budget; and
//!    the simulated steady-state out-of-service fraction agrees with
//!    the closed-form Little's-law `oos_fraction`.

mod common;

use common::{assert_bitwise, green_transform, random_small_vm_trace};
use gsf_cluster::sharded::replay_sharded;
use gsf_cluster::sizing::{
    right_size_baseline_only_prepared, right_size_mixed_prepared, AvailabilitySlo, FaultInjection,
};
use gsf_maintenance::{oos_fraction, FaultModel, FaultTopology, PoolDevices, ServerAfr};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, PlacementPolicy,
    PlacementRequest, PreparedTrace, ServerShape, ShardedSim, SimOutcome,
};
use gsf_workloads::{Trace, VmSpec};
use proptest::prelude::*;

const POLICIES: [PlacementPolicy; 3] =
    [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

/// A repair-enabled, domain-correlated model aggressive enough to land
/// full failures, revivals, and retry-queue traffic on small clusters.
fn domain_repair_model(seed: u64, afr_scale: f64) -> FaultModel {
    let mut model = FaultModel::paper(seed);
    model.afr_scale = afr_scale;
    model
        .with_topology(FaultTopology::rack(3))
        .and_then(|m| m.with_repair_days(10.0))
        .unwrap_or_else(|e| panic!("valid knobs rejected: {e}"))
}

fn injection(model: &FaultModel, slo: Option<AvailabilitySlo>) -> FaultInjection<'_> {
    FaultInjection {
        model,
        baseline_devices: PoolDevices::baseline(),
        green_devices: PoolDevices::greensku_full(),
        slo,
    }
}

// ---------------------------------------------------------------------------
// 1. Back-compat: flat topology + repairs off is the pre-repair model.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Explicitly setting the default knobs changes nothing: same
    /// signature (so sizing-cache keys are preserved), same sampled
    /// plan bit for bit, and identical replays on every engine and
    /// policy.
    #[test]
    fn flat_no_repair_is_bit_identical_to_the_base_model(
        n_vms in 1usize..50,
        seed in 0u64..200,
        model_seed in 0u64..32,
        afr_scale in 5.0..50.0f64,
    ) {
        let mut base = FaultModel::paper(model_seed);
        base.afr_scale = afr_scale;
        let flat = base
            .with_topology(FaultTopology::flat())
            .and_then(|m| m.with_repair_days(0.0))
            .unwrap_or_else(|e| panic!("default knobs rejected: {e}"));
        prop_assert_eq!(flat.signature(), base.signature());

        let trace = random_small_vm_trace(n_vms, seed);
        let config = ClusterConfig::mixed(4, 3);
        let plan_base = injection(&base, None).plan_for(&config, trace.duration_s());
        let plan_flat = injection(&flat, None).plan_for(&config, trace.duration_s());
        prop_assert_eq!(&plan_base, &plan_flat);
        for (a, b) in plan_base.events().iter().zip(plan_flat.events()) {
            prop_assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        }

        let prepared = PreparedTrace::new(&trace, &green_transform);
        for policy in POLICIES {
            let (out_p, sum_p) = AllocationSim::new(config, policy)
                .replay_prepared_faulted(&prepared, &plan_flat);
            let (out_u, sum_u) = AllocationSim::new(config, policy)
                .with_linear_selection()
                .replay_faulted_unprepared(&trace, &green_transform, &plan_flat);
            assert_bitwise(&out_p, &out_u);
            prop_assert_eq!(&sum_p, &sum_u);
            let (out_s, sum_s) = ShardedSim::new(config, policy, 1)
                .replay_prepared_faulted(&prepared, &plan_flat);
            assert_bitwise(&out_p, &out_s);
            prop_assert_eq!(&sum_p, &sum_s);
        }
    }

    /// The sizing searches see the flat/no-repair model as the base
    /// model, and a single simulator reused across `reset()` cycles
    /// (the sizing-probe pattern) matches fresh runs under faults.
    #[test]
    fn flat_no_repair_sizing_and_reset_reuse_match(
        n_vms in 1usize..30,
        seed in 0u64..100,
        model_seed in 0u64..16,
    ) {
        let mut base = FaultModel::paper(model_seed);
        base.afr_scale = 30.0;
        let flat = base
            .with_topology(FaultTopology::flat())
            .and_then(|m| m.with_repair_days(0.0))
            .unwrap_or_else(|e| panic!("default knobs rejected: {e}"));
        let trace = random_small_vm_trace(n_vms, seed);
        let prepared = PreparedTrace::new(&trace, &green_transform);
        let prepared_baseline =
            PreparedTrace::new(&trace, &|vm: &VmSpec| PlacementRequest::baseline_only(vm));
        let shape = ServerShape::baseline_gen3();
        let green = ServerShape::greensku();
        let inj_base = injection(&base, None);
        let inj_flat = injection(&flat, None);
        prop_assert_eq!(
            right_size_baseline_only_prepared(
                &prepared_baseline, shape, PlacementPolicy::BestFit, Some(&inj_base)
            ),
            right_size_baseline_only_prepared(
                &prepared_baseline, shape, PlacementPolicy::BestFit, Some(&inj_flat)
            )
        );
        prop_assert_eq!(
            right_size_mixed_prepared(
                &prepared, &prepared_baseline, shape, green,
                PlacementPolicy::BestFit, Some(&inj_base),
            ),
            right_size_mixed_prepared(
                &prepared, &prepared_baseline, shape, green,
                PlacementPolicy::BestFit, Some(&inj_flat),
            )
        );

        let mut sim = AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for (b, g) in [(2u32, 1u32), (4, 3), (3, 2), (2, 1)] {
            let config = ClusterConfig::mixed(b, g);
            let plan = inj_flat.plan_for(&config, trace.duration_s());
            sim.reset(config);
            let (out_reused, sum_reused) = sim.replay_prepared_faulted(&prepared, &plan);
            let (out_fresh, sum_fresh) = AllocationSim::new(config, PlacementPolicy::BestFit)
                .replay_prepared_faulted(&prepared, &plan);
            assert_bitwise(&out_reused, &out_fresh);
            prop_assert_eq!(sum_reused, sum_fresh);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Sharded == serial under domain faults, revivals, retry drains.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Correlated domain strikes, return-to-service revivals, and the
    /// pending-placement retry queue all survive the global→(shard,
    /// local) fault fan-out: every shard count replays bitwise
    /// identically on every worker count, and one shard is the
    /// unsharded engine.
    #[test]
    fn sharded_matches_serial_under_domain_faults_and_revivals(
        n_vms in 10usize..50,
        seed in 0u64..100,
        model_seed in 0u64..16,
        afr_scale in 20.0..60.0f64,
    ) {
        let model = domain_repair_model(model_seed, afr_scale);
        let trace = random_small_vm_trace(n_vms, seed);
        let prepared = PreparedTrace::new(&trace, &green_transform);
        let config = ClusterConfig::mixed(7, 5);
        let plan = injection(&model, None).plan_for(&config, trace.duration_s());
        let (out_1, sum_1) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .replay_prepared_faulted(&prepared, &plan);
        for shards in [1usize, 2, 7] {
            let (exp_out, exp_sum) = ShardedSim::new(config, PlacementPolicy::BestFit, shards)
                .replay_prepared_faulted(&prepared, &plan);
            if shards == 1 {
                assert_bitwise(&exp_out, &out_1);
                prop_assert_eq!(&exp_sum, &sum_1);
            }
            for workers in [1usize, 2, 8] {
                let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
                let (out, sum) = replay_sharded(&mut sim, &prepared, &plan, workers);
                assert_bitwise(&out, &exp_out);
                prop_assert_eq!(&sum, &exp_sum);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Semantics: horizon edges, SLO monotonicity, OOS consistency.
// ---------------------------------------------------------------------------

fn replay_all_engines(
    trace: &Trace,
    config: ClusterConfig,
    plan: &FaultPlan,
) -> (SimOutcome, gsf_vmalloc::FaultSummary) {
    let prepared = PreparedTrace::new(trace, &green_transform);
    let (out_p, sum_p) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .replay_prepared_faulted(&prepared, plan);
    let (out_u, sum_u) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_linear_selection()
        .replay_faulted_unprepared(trace, &green_transform, plan);
    assert_bitwise(&out_p, &out_u);
    assert_eq!(sum_p, sum_u);
    for shards in [1usize, 2] {
        let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
        let (out_s, sum_s) = replay_sharded(&mut sim, &prepared, plan, 2);
        let (out_ser, sum_ser) = ShardedSim::new(config, PlacementPolicy::BestFit, shards)
            .replay_prepared_faulted(&prepared, plan);
        assert_bitwise(&out_s, &out_ser);
        assert_eq!(sum_s, sum_ser);
        if shards == 1 {
            assert_bitwise(&out_s, &out_p);
            assert_eq!(sum_s, sum_p);
        }
    }
    (out_p, sum_p)
}

fn full_fault(time_s: f64, server: u32) -> FaultEvent {
    FaultEvent { time_s, pool: FaultPool::Baseline, server, kind: FaultKind::FullFailure }
}

fn revive(time_s: f64, server: u32) -> FaultEvent {
    FaultEvent { time_s, pool: FaultPool::Baseline, server, kind: FaultKind::Revive }
}

/// A fault landing exactly at `t == duration` still strikes — in every
/// engine, identically.
#[test]
fn fault_exactly_at_horizon_strikes_in_every_engine() {
    let trace = random_small_vm_trace(20, 3);
    let config = ClusterConfig::mixed(3, 2);
    let duration = trace.duration_s();
    let plan = FaultPlan::new(vec![full_fault(duration, 0)], 3, 3, 2).unwrap();
    let (_, summary) = replay_all_engines(&trace, config, &plan);
    assert_eq!(summary.full_failures, 1, "horizon-edge fault must strike: {summary:?}");
}

/// A repair completing past the horizon never lands: the replay is
/// bit-identical to the same plan without the Revive — in every engine.
#[test]
fn repair_past_horizon_is_ignored_in_every_engine() {
    let trace = random_small_vm_trace(20, 5);
    let config = ClusterConfig::mixed(3, 2);
    let duration = trace.duration_s();
    let with_late_revive =
        FaultPlan::new(vec![full_fault(100.0, 0), revive(duration + 50.0, 0)], 3, 3, 2).unwrap();
    let without = FaultPlan::new(vec![full_fault(100.0, 0)], 3, 3, 2).unwrap();
    let (out_a, sum_a) = replay_all_engines(&trace, config, &with_late_revive);
    let (out_b, sum_b) = replay_all_engines(&trace, config, &without);
    assert_bitwise(&out_a, &out_b);
    assert_eq!(sum_a, sum_b);
    assert_eq!(sum_a.revivals, 0, "past-horizon repair must not land: {sum_a:?}");
}

/// A repair completing exactly at `t == duration` does land (the
/// trailing-fault rule is `time_s <= duration_s` for every kind), and
/// identically so in every engine.
#[test]
fn repair_exactly_at_horizon_lands_in_every_engine() {
    let trace = random_small_vm_trace(20, 7);
    let config = ClusterConfig::mixed(3, 2);
    let duration = trace.duration_s();
    let plan = FaultPlan::new(vec![full_fault(100.0, 0), revive(duration, 0)], 3, 3, 2).unwrap();
    let (_, summary) = replay_all_engines(&trace, config, &plan);
    assert_eq!(summary.revivals, 1, "horizon-edge repair must land: {summary:?}");
}

/// Tightening the availability SLO can only grow the cluster: the
/// feasible sets nest, so the minimal feasible size is monotone
/// non-increasing in the budget.
#[test]
fn slo_constrained_sizing_is_monotone_in_the_budget() {
    let trace = random_small_vm_trace(40, 9);
    let prepared_baseline =
        PreparedTrace::new(&trace, &|vm: &VmSpec| PlacementRequest::baseline_only(vm));
    let shape = ServerShape::baseline_gen3();
    let mut model = FaultModel::paper(5);
    model.afr_scale = 60.0;
    let model = model
        .with_topology(FaultTopology::rack(2))
        .and_then(|m| m.with_repair_days(20.0))
        .unwrap_or_else(|e| panic!("valid knobs rejected: {e}"));
    let size_at = |budget: f64| -> u32 {
        let inj = injection(&model, Some(AvailabilitySlo { max_vm_minutes_lost: budget }));
        right_size_baseline_only_prepared(
            &prepared_baseline,
            shape,
            PlacementPolicy::BestFit,
            Some(&inj),
        )
        .unwrap_or_else(|e| panic!("sizing infeasible at budget {budget}: {e}"))
    };
    let budgets = [1e12, 1e4, 100.0, 1.0, 0.0];
    let sizes: Vec<u32> = budgets.iter().map(|&b| size_at(b)).collect();
    for pair in sizes.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "tighter SLO shrank the cluster: sizes {sizes:?} at budgets {budgets:?}"
        );
    }
}

/// Little's-law consistency: over a large pool, the simulated
/// steady-state out-of-service fraction (server-down time per
/// server-hour of horizon) matches the closed-form
/// `oos_fraction(repair_rate, repair_days)` the maintenance component
/// uses, within statistical tolerance.
#[test]
fn simulated_oos_fraction_matches_littles_law() {
    let servers = 200u32;
    let afr_scale = 30.0;
    let repair_days = 3.0;
    let mut model = FaultModel::paper(13);
    model.afr_scale = afr_scale;
    // All failures full (FIP off) so every event produces downtime.
    model.fip = gsf_maintenance::FipPolicy::disabled();
    let model = model
        .with_repair_days(repair_days)
        .unwrap_or_else(|e| panic!("valid repair rejected: {e}"));
    let trace = random_small_vm_trace(5, 21);
    let config = ClusterConfig::baseline_only(servers);
    let plan = injection(&model, None).plan_for(&config, trace.duration_s());
    let prepared = PreparedTrace::new(&trace, &|vm: &VmSpec| PlacementRequest::baseline_only(vm));
    let (_, summary) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .replay_prepared_faulted(&prepared, &plan);
    let measured =
        summary.availability.server_down_seconds / (f64::from(servers) * trace.duration_s());
    let devices = PoolDevices::baseline();
    let afr = ServerAfr::new(&model.afrs, devices.dimms, devices.ssds);
    let expected = oos_fraction(afr.total * afr_scale, repair_days);
    assert!(expected > 0.005, "fixture should produce measurable downtime: {expected}");
    let rel = (measured - expected).abs() / expected;
    assert!(
        rel < 0.35,
        "simulated OOS {measured:.5} vs Little's law {expected:.5} (rel err {rel:.2})"
    );
}
