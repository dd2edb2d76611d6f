//! Property suite pinning the parallel sharded replay driver to its
//! serial reference, bit for bit.
//!
//! The sharded engine's semantics are defined by
//! [`ShardedSim::replay_prepared_faulted`]: run each shard's task in
//! ascending shard order on one thread, then merge in that same order.
//! [`gsf_cluster::replay_sharded`] executes the *same* per-shard tasks
//! on a worker pool — so for every worker count the outcome (including
//! the usage ledger's float totals, compared via `to_bits`) and the
//! `FaultSummary` must equal the serial reference exactly. These tests
//! assert that across random traces, all three policies, fault plans
//! landing precisely on shard boundaries, `reset()` reuse, and the
//! sharded sizing pass of `right_size_prepared`; they also pin
//! `shards == 1` to the unsharded engine, closing the chain unsharded
//! == 1-shard-serial == 1-shard-parallel.

mod common;

use common::{assert_bitwise, baseline_transform, mixed_transform, random_trace};
use gsf_cluster::sharded::replay_sharded;
use gsf_cluster::sizing::right_size_prepared;
use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    merge_probes, AllocationSim, ClusterConfig, FaultEvent, FaultKind, FaultPlan, FaultPool,
    PlacementPolicy, PreparedTrace, ServerShape, ShardedSim,
};
use proptest::prelude::*;

const POLICIES: [PlacementPolicy; 3] =
    [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fault-free, all three policies and shard counts: every worker
    /// count reproduces the serial reference bit for bit.
    #[test]
    fn parallel_matches_serial_fault_free(
        n_vms in 1usize..60,
        baseline in 1u32..8,
        green in 0u32..5,
        shards in 1usize..5,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.03);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let config = ClusterConfig::mixed(baseline, green);
        for policy in POLICIES {
            let expected =
                ShardedSim::new(config, policy, shards).replay_prepared(&prepared);
            for workers in WORKER_COUNTS {
                let mut sim = ShardedSim::new(config, policy, shards);
                let (out, _) = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), workers);
                assert_bitwise(&out, &expected);
            }
        }
    }

    /// Faulted, AFR-sampled plans: strikes and the evacuations they
    /// trigger stay inside each fault's home shard, so outcome *and*
    /// `FaultSummary` match the serial reference for any worker count.
    #[test]
    fn parallel_matches_serial_under_sampled_faults(
        n_vms in 1usize..60,
        baseline in 2u32..8,
        green in 1u32..5,
        shards in 2usize..5,
        seed in 0u64..400,
        model_seed in 0u64..64,
        afr_scale in 1.0..60.0f64,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let config = ClusterConfig::mixed(baseline, green);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = afr_scale;
        let inj = gsf_cluster::sizing::FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let plan = inj.plan_for(&config, trace.duration_s());
        for policy in POLICIES {
            let (exp_out, exp_sum) =
                ShardedSim::new(config, policy, shards).replay_prepared_faulted(&prepared, &plan);
            for workers in WORKER_COUNTS {
                let mut sim = ShardedSim::new(config, policy, shards);
                let (out, sum) = replay_sharded(&mut sim, &prepared, &plan, workers);
                assert_bitwise(&out, &exp_out);
                assert_eq!(sum, exp_sum);
            }
            // The per-shard verdict-only probes, merged in shard order:
            // `None` exactly when the replay rejects, otherwise its
            // summary (blast radius assigned from the global plan, as
            // the serial reference does).
            let mut sim = ShardedSim::new(config, policy, shards);
            let probes: Vec<_> =
                sim.shard_tasks(&prepared, &plan).iter_mut().map(|t| t.probe(&prepared)).collect();
            let merged = merge_probes(probes).map(|mut s| {
                if s.faults_applied() {
                    s.availability.blast_radius_servers = plan.max_correlated_strikes();
                }
                s
            });
            prop_assert_eq!(merged.is_none(), !exp_out.no_rejections());
            if let Some(summary) = merged {
                prop_assert_eq!(summary, exp_sum);
            }
        }
    }

    /// One shard is the unsharded engine, bitwise: the routing hash has
    /// a single candidate, events split into one run, and the one-part
    /// merge is the identity.
    #[test]
    fn one_shard_is_the_unsharded_engine(
        n_vms in 1usize..50,
        baseline in 1u32..6,
        green in 0u32..4,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let config = ClusterConfig::mixed(baseline, green);
        for policy in POLICIES {
            let unsharded = AllocationSim::new(config, policy).replay_prepared(&prepared);
            for workers in [1usize, 4] {
                let mut sim = ShardedSim::new(config, policy, 1);
                let (out, _) = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), workers);
                assert_bitwise(&out, &unsharded);
            }
        }
    }

    /// One sharded simulator reused across `reset()` cycles (the sizing
    /// probe pattern, including shrinking pools) stays pinned to fresh
    /// serial runs at every cluster size, parallel or not.
    #[test]
    fn reset_reuse_matches_fresh_serial_runs(
        n_vms in 1usize..40,
        shards in 2usize..4,
        seed in 0u64..400,
    ) {
        let trace = random_trace(n_vms, seed, 0.02);
        let prepared = PreparedTrace::new(&trace, &mixed_transform);
        let mut sim = ShardedSim::new(ClusterConfig::mixed(1, 1), PlacementPolicy::BestFit, shards);
        for (b, g) in [(1u32, 0u32), (6, 3), (3, 4), (1, 0)] {
            let config = ClusterConfig::mixed(b, g);
            sim.reset(config);
            let (out, _) = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), 3);
            let expected =
                ShardedSim::new(config, PlacementPolicy::BestFit, shards).replay_prepared(&prepared);
            assert_bitwise(&out, &expected);
        }
    }

    /// The sharded sizing pass returns the same `ClusterSizing` (`n0`,
    /// plan and work counters, or the same error) for every worker
    /// count — the probe's parallelism must never leak into the
    /// search's answer.
    #[test]
    fn sharded_sizing_is_worker_count_invariant(
        n_vms in 1usize..40,
        shards in 1usize..4,
        seed in 0u64..200,
        model_seed in 0u64..32,
    ) {
        let trace = random_trace(n_vms, seed, 0.0);
        let shape = ServerShape::baseline_gen3();
        let green = ServerShape::greensku();
        let prepared_baseline = PreparedTrace::new(&trace, &baseline_transform);
        let prepared_mixed = PreparedTrace::new(&trace, &mixed_transform);
        let mut model = FaultModel::paper(model_seed);
        model.afr_scale = 30.0;
        let inj = gsf_cluster::sizing::FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        for faults in [None, Some(&inj)] {
            let size = |workers| {
                right_size_prepared(
                    &prepared_mixed, &prepared_baseline, shape, green,
                    PlacementPolicy::BestFit, faults, shards, workers,
                )
            };
            let serial = size(1);
            for workers in [2usize, 5] {
                prop_assert_eq!(size(workers), serial.clone());
            }
        }
    }
}

/// Hand-built fault plan striking **exactly on the shard boundaries**:
/// the first and last global server index of every shard in both pools,
/// plus repeat strikes and a near-total degrade. Off-by-one errors in
/// the global→(shard, local) fault remap would double-strike a
/// neighbor's server or miss one entirely; the serial/parallel and
/// conservation checks below would both catch that.
#[test]
fn boundary_fault_plan_matches_bitwise() {
    let trace = random_trace(50, 11, 0.0);
    let prepared = PreparedTrace::new(&trace, &mixed_transform);
    let config = ClusterConfig::mixed(7, 5);
    for shards in [2usize, 3, 5] {
        let probe = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
        let mut events = Vec::new();
        let mut t = 100.0;
        for s in 0..probe.shards() {
            // First and last server of this shard's slice of each pool,
            // in *global* indices (what FaultInjection produces).
            let (b_lo, b_hi) = probe.plan().baseline_range(s);
            let (g_lo, g_hi) = probe.plan().green_range(s);
            for (pool, lo, hi) in
                [(FaultPool::Baseline, b_lo, b_hi), (FaultPool::Green, g_lo, g_hi)]
            {
                if lo == hi {
                    continue; // empty slice: no servers in this shard
                }
                events.push(FaultEvent {
                    time_s: t,
                    pool,
                    server: lo,
                    kind: FaultKind::PartialDegrade { cores_lost: 40, mem_lost_gb: 256.0 },
                });
                events.push(FaultEvent {
                    time_s: t + 50.0,
                    pool,
                    server: hi - 1,
                    kind: FaultKind::FullFailure,
                });
                // Repeat strike on the dead boundary server: a no-op
                // that must stay a no-op after the local remap.
                events.push(FaultEvent {
                    time_s: t + 75.0,
                    pool,
                    server: hi - 1,
                    kind: FaultKind::FullFailure,
                });
                t += 100.0;
            }
        }
        let plan = FaultPlan::new(events, 3, 7, 5).unwrap();
        for policy in POLICIES {
            let (exp_out, exp_sum) =
                ShardedSim::new(config, policy, shards).replay_prepared_faulted(&prepared, &plan);
            for workers in WORKER_COUNTS {
                let mut sim = ShardedSim::new(config, policy, shards);
                let (out, sum) = replay_sharded(&mut sim, &prepared, &plan, workers);
                assert_bitwise(&out, &exp_out);
                assert_eq!(sum, exp_sum);
            }
            assert!(exp_sum.full_failures >= 1, "plan should land full failures");
        }
    }
}
