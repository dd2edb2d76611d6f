//! Property suite pinning the prepared replay engine to the unprepared
//! reference engine, bit for bit.
//!
//! The sizing searches and the pipeline run every feasibility probe on
//! [`PreparedTrace`] plans; the unprepared path is kept as the
//! executable specification, and here it also runs with linear server
//! selection (`with_linear_selection`) so the comparison is production
//! (prepared + indexed) vs. full reference (unprepared + linear scan) —
//! `index_equivalence.rs` isolates the selection axis on its own.
//! These tests assert the two engines agree
//! exactly — same `SimOutcome` (including metrics and the usage
//! ledger's float totals, compared via `to_bits`) and same
//! `FaultSummary` — across random traces, random cluster shapes,
//! hand-built fault plans, and sampled AFR-model plans, and that every
//! prepared sizing entry point returns what the reference sizing
//! (`right_size_unprepared`) returns, work counters included.
//! The sizing probes' verdict-only replay
//! (`AllocationSim::probe_prepared_faulted`) is pinned here to the full
//! prepared replay it stands in for.

mod common;

use common::{assert_bitwise, baseline_transform, mixed_transform, random_trace};
use gsf_cluster::sizing::{
    right_size_baseline_only_prepared, right_size_mixed_prepared, right_size_prepared,
    right_size_unprepared, AvailabilitySlo, FaultInjection,
};
use gsf_maintenance::{FaultModel, FaultTopology, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool, FaultSummary,
    PlacementPolicy, PreparedTrace, ServerShape,
};
use proptest::prelude::*;

const POLICIES: [PlacementPolicy; 3] =
    [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

/// `FaultSummary` equality plus bit-level equality on its floats.
fn assert_summary_bitwise(a: &FaultSummary, b: &FaultSummary) {
    assert_eq!(a, b);
    let bits = |s: &FaultSummary| {
        [
            s.mem_lost_gb.to_bits(),
            s.availability.vm_seconds_lost.to_bits(),
            s.availability.vm_seconds_served.to_bits(),
            s.availability.server_down_seconds.to_bits(),
        ]
    };
    assert_eq!(bits(a), bits(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The verdict-only probe against the full prepared replay, over
    /// random traces, cluster shapes (including too-small ones) and
    /// fault plans (none, flat, and rack-correlated with repairs), with
    /// and without an availability SLO: the probe is `None` exactly
    /// when the full replay rejects an arrival; otherwise its summary
    /// equals the full replay's bit for bit, and the fault-side
    /// predicate (`FaultInjection::admits`) gives the same verdict.
    #[test]
    fn probe_verdict_matches_full_replay(
        n_vms in 1usize..60,
        baseline in 0u32..6,
        green in 0u32..4,
        seed in 0u64..400,
        faults in 0u8..3,
        model_seed in 0u64..64,
        afr_scale in 1.0..60.0f64,
        with_slo in 0u8..2,
        slo_minutes in 0.0..600.0f64,
    ) {
        let trace = random_trace(n_vms, seed, 0.03);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let config = ClusterConfig::mixed(baseline, green);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = afr_scale;
        if faults == 2 {
            model = model
                .with_topology(FaultTopology::rack(3))
                .and_then(|m| m.with_repair_days(10.0))
                .unwrap();
        }
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: (with_slo == 1).then_some(AvailabilitySlo { max_vm_minutes_lost: slo_minutes }),
        };
        let plan =
            if faults == 0 { FaultPlan::empty() } else { inj.plan_for(&config, trace.duration_s()) };
        for policy in
            [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit]
        {
            let (full, full_summary) =
                AllocationSim::new(config, policy).replay_prepared_faulted(&prepared, &plan);
            // A reused simulator, as the sizing searches run the probe.
            let mut sim = AllocationSim::new(ClusterConfig::mixed(3, 1), policy);
            sim.replay_prepared(&prepared);
            sim.reset(config);
            let probe = sim.probe_prepared_faulted(&prepared, &plan);
            prop_assert_eq!(probe.is_none(), !full.no_rejections());
            if let Some(summary) = probe {
                assert_summary_bitwise(&summary, &full_summary);
                prop_assert_eq!(inj.admits(&summary), inj.admits(&full_summary));
            }
        }
    }

    /// Fault-free: `replay` (prepared) == `replay_unprepared`.
    #[test]
    fn prepared_matches_unprepared_fault_free(
        n_vms in 1usize..60,
        baseline in 1u32..6,
        green in 0u32..4,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.03);
        let config = ClusterConfig::mixed(baseline, green);
        for policy in
            [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit]
        {
            let prepared = AllocationSim::new(config, policy).replay(&trace, &mixed_transform);
            let unprepared = AllocationSim::new(config, policy)
                .with_linear_selection()
                .replay_unprepared(&trace, &mixed_transform);
            assert_bitwise(&prepared, &unprepared);
        }
    }

    /// Faulted, AFR-sampled plans: `replay_faulted` (prepared) ==
    /// `replay_faulted_unprepared`, outcome and `FaultSummary` alike.
    #[test]
    fn prepared_matches_unprepared_under_sampled_faults(
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
        let (out_p, sum_p) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .replay_faulted(&trace, &mixed_transform, &plan);
        let (out_u, sum_u) = AllocationSim::new(config, PlacementPolicy::BestFit)
            .with_linear_selection()
            .replay_faulted_unprepared(&trace, &mixed_transform, &plan);
        assert_bitwise(&out_p, &out_u);
        assert_eq!(sum_p, sum_u);
    }

    /// One `PreparedTrace` replayed across many `reset()` cycles (the
    /// sizing-probe pattern) stays pinned to a fresh unprepared run at
    /// every cluster size.
    #[test]
    fn prepared_plan_reuse_across_resets_matches_fresh_runs(
        n_vms in 1usize..40,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let mut sim =
            AllocationSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit);
        for (b, g) in [(1u32, 0u32), (4, 2), (2, 3), (1, 0)] {
            let config = ClusterConfig::mixed(b, g);
            sim.reset(config);
            let out_p = sim.replay_prepared(&prepared);
            let out_u = AllocationSim::new(config, PlacementPolicy::BestFit)
                .with_linear_selection()
                .replay_unprepared(&trace, &mixed_transform);
            assert_bitwise(&out_p, &out_u);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every prepared sizing entry point against the reference sizing,
    /// all three policies, faulted and fault-free: the one-pass
    /// `right_size_prepared` (unsharded) returns the oracle's whole
    /// `ClusterSizing` — `n0`, plan and work counters — or its error;
    /// `right_size_mixed_prepared` its plan; and
    /// `right_size_baseline_only_prepared` its `n0`. The production
    /// side runs indexed selection on the prepared engine, the oracle
    /// linear selection on the unprepared one, so both axes are
    /// covered at once.
    #[test]
    fn sizing_agrees_with_the_reference(
        n_vms in 1usize..40,
        seed in 0u64..200,
        model_seed in 0u64..32,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let shape = ServerShape::baseline_gen3();
        let green = ServerShape::greensku();
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_transform);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = 30.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        for policy in POLICIES {
            for faults in [None, Some(&inj)] {
                let oracle =
                    right_size_unprepared(&trace, &mixed_transform, shape, green, policy, faults);
                prop_assert_eq!(
                    &right_size_prepared(
                        &prepared, &prepared_baseline, shape, green, policy, faults, 1, 1,
                    ),
                    &oracle
                );
                prop_assert_eq!(
                    right_size_mixed_prepared(
                        &prepared, &prepared_baseline, shape, green, policy, faults,
                    ),
                    oracle.clone().map(|sizing| sizing.plan)
                );
                let n0 =
                    right_size_baseline_only_prepared(&prepared_baseline, shape, policy, faults);
                match &oracle {
                    Ok(sizing) => prop_assert_eq!(n0, Ok(sizing.baseline_only)),
                    // The oracle's error comes from its baseline search
                    // or from its mixed search; a failed baseline
                    // search must fail the same way.
                    Err(err) => {
                        if let Err(n0_err) = n0 {
                            prop_assert_eq!(&n0_err, err);
                        }
                    }
                }
            }
        }
    }
}

/// Hand-built plan covering both fault kinds, a fault landing exactly
/// on a snapshot boundary, and a strike against an already-offline
/// server — the orderings the snapshot-drain fix pinned down.
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
            // Exactly on the snapshot boundary: the snapshot due at
            // t=600 must sample pre-fault state in both engines.
            FaultEvent {
                time_s: 600.0,
                pool: FaultPool::Green,
                server: 1,
                kind: FaultKind::FullFailure,
            },
            // Second strike on a dead server: a no-op in both engines.
            FaultEvent {
                time_s: 900.0,
                pool: FaultPool::Green,
                server: 1,
                kind: FaultKind::FullFailure,
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
    let (out_p, sum_p) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_snapshot_interval(600.0)
        .replay_faulted(&trace, &mixed_transform, &plan);
    let (out_u, sum_u) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_snapshot_interval(600.0)
        .with_linear_selection()
        .replay_faulted_unprepared(&trace, &mixed_transform, &plan);
    assert_bitwise(&out_p, &out_u);
    assert_eq!(sum_p, sum_u);
    assert!(sum_p.full_failures >= 1, "plan should land at least one full failure");
}

/// The empty fault plan is the identity on both engines, and both
/// match the plain replay entry points.
#[test]
fn empty_fault_plan_is_identity_on_both_engines() {
    let trace = random_trace(30, 11, 0.05);
    let config = ClusterConfig::mixed(3, 2);
    let plain_p =
        AllocationSim::new(config, PlacementPolicy::BestFit).replay(&trace, &mixed_transform);
    let plain_u = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_linear_selection()
        .replay_unprepared(&trace, &mixed_transform);
    let (faulted_p, sum_p) = AllocationSim::new(config, PlacementPolicy::BestFit).replay_faulted(
        &trace,
        &mixed_transform,
        &FaultPlan::empty(),
    );
    let (faulted_u, sum_u) = AllocationSim::new(config, PlacementPolicy::BestFit)
        .with_linear_selection()
        .replay_faulted_unprepared(&trace, &mixed_transform, &FaultPlan::empty());
    assert_bitwise(&plain_p, &plain_u);
    assert_bitwise(&plain_p, &faulted_p);
    assert_bitwise(&plain_p, &faulted_u);
    assert_eq!(sum_p, sum_u);
    assert_eq!(sum_p.displaced, 0);
}
