//! Parallel driver and sizing probe for the sharded replay engine
//! (`gsf_vmalloc::shard`).
//!
//! The shard module defines the semantics and the serial reference
//! ([`ShardedSim::replay_prepared_faulted`]); this module adds the
//! multi-worker execution path ([`replay_sharded`]) and the feasibility
//! probe behind the `shards`/`workers` knobs of
//! [`crate::sizing::right_size_prepared`]. Because every shard task
//! touches only its own state and results merge in ascending shard
//! order, the parallel driver is bitwise identical to the serial
//! reference for any worker count — the `shard_equivalence` suite
//! gates exactly that.

use crate::parallel::map_parallel_mut;
use crate::sizing::{admitted, probe_plan, FaultInjection};
use gsf_vmalloc::{
    merge_outcomes, merge_probes, ClusterConfig, FaultPlan, FaultSummary, PlacementPolicy,
    PreparedTrace, ShardedSim, SimOutcome,
};

/// Replays `prepared` (with `faults`) across `sim`'s shards on
/// `workers` threads, merging per-shard results in ascending shard
/// order. Bit-identical to the serial reference
/// [`ShardedSim::replay_prepared_faulted`] for every worker count;
/// `workers == 1` runs inline with no threading overhead.
pub fn replay_sharded(
    sim: &mut ShardedSim,
    prepared: &PreparedTrace,
    faults: &FaultPlan,
    workers: usize,
) -> (SimOutcome, FaultSummary) {
    let mut tasks = sim.shard_tasks(prepared, faults);
    let parts = map_parallel_mut(&mut tasks, workers, |_, task| task.run(prepared));
    let (out, mut summary) = merge_outcomes(parts);
    // The blast radius comes from the *global* plan, exactly as the
    // serial reference assigns it post-merge — per-shard replays only
    // see their local slice of a correlated domain event.
    if summary.faults_applied() {
        summary.availability.blast_radius_servers = faults.max_correlated_strikes();
    }
    (out, summary)
}

/// Verdict-only replay on the sharded engine: each shard runs the
/// probe replay ([`gsf_vmalloc::ShardTask::probe`]) on `workers`
/// threads, and the verdicts merge in ascending shard order. `None`
/// when any shard rejected an arrival, otherwise the merged summary,
/// bit-identical to [`replay_sharded`]'s.
fn probe_sharded(
    sim: &mut ShardedSim,
    prepared: &PreparedTrace,
    faults: &FaultPlan,
    workers: usize,
) -> Option<FaultSummary> {
    let mut tasks = sim.shard_tasks(prepared, faults);
    let parts = map_parallel_mut(&mut tasks, workers, |_, task| task.probe(prepared));
    let mut summary = merge_probes(parts)?;
    // The blast radius comes from the global plan, as in
    // [`replay_sharded`].
    if summary.faults_applied() {
        summary.availability.blast_radius_servers = faults.max_correlated_strikes();
    }
    Some(summary)
}

/// Feasibility probe on the sharded engine: one `shards`-way
/// simulator, reset and reused by every probe of one search, probes
/// `prepared` on `workers` threads and requires no rejections (and,
/// under fault injection, full evacuation or the availability-SLO
/// budget). The sharded analogue of the unsharded prepared probe.
pub(crate) fn sharded_probe<'a>(
    prepared: &'a PreparedTrace,
    policy: PlacementPolicy,
    faults: Option<&'a FaultInjection<'a>>,
    shards: usize,
    workers: usize,
) -> impl FnMut(ClusterConfig) -> bool + 'a {
    let mut sim = ShardedSim::new(ClusterConfig::baseline_only(0), policy, shards);
    move |config| {
        sim.reset(config);
        let plan = probe_plan(faults, &config, prepared.duration_s());
        admitted(probe_sharded(&mut sim, prepared, &plan, workers), faults)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sizing::{right_size_prepared, size_pass, ClusterSizing};
    use gsf_vmalloc::{PlacementRequest, ServerShape};
    use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

    fn vm(id: u64, cores: u32) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * 4.0,
            app_index: (id % 4) as u16,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    fn concurrent_trace(n: u64) -> Trace {
        let vms: Vec<VmSpec> = (0..n).map(|i| vm(i, 8)).collect();
        let mut events = Vec::new();
        for i in 0..n {
            events.push(VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: i });
            events.push(VmEvent { time_s: 1000.0, kind: VmEventKind::Departure, vm_id: i });
        }
        Trace::new(2000.0, vms, events)
    }

    #[test]
    fn parallel_driver_matches_serial_reference() {
        let trace = concurrent_trace(60);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let prepared = PreparedTrace::new(&trace, &transform);
        let config = ClusterConfig::mixed(4, 3);
        for shards in [1usize, 2, 4] {
            let mut serial = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
            let expected = serial.replay_prepared_faulted(&prepared, &FaultPlan::empty());
            for workers in [1usize, 2, 8] {
                let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, shards);
                let got = replay_sharded(&mut sim, &prepared, &FaultPlan::empty(), workers);
                assert_eq!(got, expected, "shards={shards} workers={workers}");
            }
        }
    }

    /// Both sizing plans of `trace` under adoption at 1.25×.
    fn plans(trace: &Trace) -> (PreparedTrace, PreparedTrace) {
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let baseline_transform = |v: &VmSpec| PlacementRequest::baseline_only(v);
        (PreparedTrace::new(trace, &transform), PreparedTrace::new(trace, &baseline_transform))
    }

    fn size(
        prepared: &PreparedTrace,
        prepared_baseline: &PreparedTrace,
        shards: usize,
        workers: usize,
    ) -> ClusterSizing {
        right_size_prepared(
            prepared,
            prepared_baseline,
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
            None,
            shards,
            workers,
        )
        .unwrap()
    }

    #[test]
    fn sharded_sizing_at_one_shard_matches_unsharded() {
        // `right_size_prepared` probes the unsharded engine at one
        // shard; the sharded probe, forced to one shard, must size the
        // same cluster with the same probes.
        let (prepared, prepared_baseline) = plans(&concurrent_trace(30));
        let sharded = size_pass(
            prepared_baseline.peak_demand(),
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            sharded_probe(&prepared_baseline, PlacementPolicy::BestFit, None, 1, 4),
            sharded_probe(&prepared, PlacementPolicy::BestFit, None, 1, 4),
        )
        .unwrap();
        assert_eq!(sharded, size(&prepared, &prepared_baseline, 1, 1));
    }

    #[test]
    fn sharded_sizing_never_smaller_than_unsharded() {
        // Shard routing can only *restrict* placement choices (no
        // cross-shard overflow), so the sharded search needs at least
        // as many servers.
        let (prepared, prepared_baseline) = plans(&concurrent_trace(40));
        let unsharded = size(&prepared, &prepared_baseline, 1, 1);
        for shards in [2usize, 4] {
            let sharded = size(&prepared, &prepared_baseline, shards, 2);
            assert!(
                sharded.baseline_only >= unsharded.baseline_only
                    && sharded.plan.total() >= unsharded.plan.total(),
                "K={shards}: sharded {sharded:?} < unsharded {unsharded:?}"
            );
        }
    }
}
