//! Pins the arena replay core's allocation budget (DESIGN.md §13).
//!
//! After one warming replay, the steady-state event loop must not touch
//! the heap per event: VM storage lives in the retained slot arena,
//! occupancy lists and scratch buffers keep their capacity across
//! `reset()`, and the per-pass evacuation buffers are reused. The only
//! allocations left per replay are O(distinct apps) usage-ledger nodes
//! — independent of the event count. So the pin is: a warmed replay of
//! a 10×-larger trace allocates *exactly* as much as the small one
//! (zero marginal allocations per event), and that shared constant is
//! small in absolute terms. The sizing searches' verdict-only probe
//! (`probe_prepared_faulted`) runs the same loop without the usage
//! ledger, so the same pin holds for it, at a constant no larger than
//! the full replay's.
//!
//! This test must be the only `#[test]` in its binary: the counting
//! allocator is process-global, and a concurrently running test would
//! perturb the counts.

use gsf_perf::alloc_count::CountingAllocator;
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
};
use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const APPS: u16 = 8;

/// A deterministic arrival/departure churn trace touching all `APPS`
/// app indices; no RNG so the test needs no dev-dependency on one.
fn churn_trace(n_vms: usize, duration_s: f64) -> Trace {
    let mut vms = Vec::with_capacity(n_vms);
    let mut events = Vec::with_capacity(2 * n_vms);
    for id in 0..n_vms as u64 {
        let cores = [1u32, 2, 4][id as usize % 3];
        vms.push(VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * 4.0,
            app_index: (id % u64::from(APPS)) as u16,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        });
        let arrive = (id as f64 * 7.0) % (0.6 * duration_s);
        events.push(VmEvent { time_s: arrive, kind: VmEventKind::Arrival, vm_id: id });
        events.push(VmEvent {
            time_s: arrive + 0.3 * duration_s,
            kind: VmEventKind::Departure,
            vm_id: id,
        });
    }
    Trace::new(duration_s, vms, events)
}

#[test]
fn steady_state_replay_allocates_zero_per_event() {
    let transform = |vm: &VmSpec| PlacementRequest::baseline_only(vm);
    let small = churn_trace(150, 10_000.0);
    let large = churn_trace(1_500, 10_000.0);
    let prepared_small = PreparedTrace::new(&small, &transform);
    let prepared_large = PreparedTrace::new(&large, &transform);
    // Ample capacity: zero rejections, so both traces place every VM
    // and touch the identical app set (identical ledger-node counts).
    let config = ClusterConfig::baseline_only(60);
    let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);

    // Warm: grow the arena, occupancy lists, and scratch buffers to the
    // large trace's high-water marks.
    sim.replay_prepared(&prepared_large);
    sim.reset(config);
    sim.replay_prepared(&prepared_small);
    sim.reset(config);

    let mut measure = |prepared: &PreparedTrace, n_vms: usize| -> u64 {
        let before = ALLOC.allocations();
        let out = sim.replay_prepared(prepared);
        let allocated = ALLOC.allocations() - before;
        assert_eq!(out.rejected, 0, "fixture must not reject");
        assert_eq!(out.placed_baseline, n_vms);
        sim.reset(config);
        allocated
    };

    let small_allocs = measure(&prepared_small, 150);
    let large_allocs = measure(&prepared_large, 1_500);

    assert_eq!(
        small_allocs, large_allocs,
        "heap allocations grew with the event count: a hot-loop \
         allocation crept back into the arena replay core \
         (small trace: {small_allocs}, 10x trace: {large_allocs})"
    );
    // The shared constant is the O(apps) ledger nodes (currently one
    // BTreeMap root holding all eight apps) — nowhere near the
    // thousands a per-event allocation would show.
    assert!(
        small_allocs <= 2 * u64::from(APPS),
        "per-replay allocation constant regressed: {small_allocs}"
    );

    // The verdict-only probe on the same warmed simulator.
    let no_faults = FaultPlan::empty();
    let mut measure_probe = |prepared: &PreparedTrace| -> u64 {
        let before = ALLOC.allocations();
        let verdict = sim.probe_prepared_faulted(prepared, &no_faults);
        let allocated = ALLOC.allocations() - before;
        assert!(verdict.is_some(), "fixture must not reject");
        sim.reset(config);
        allocated
    };
    let small_probe = measure_probe(&prepared_small);
    let large_probe = measure_probe(&prepared_large);
    assert_eq!(
        small_probe, large_probe,
        "probe allocations grew with the event count \
         (small trace: {small_probe}, 10x trace: {large_probe})"
    );
    assert!(
        small_probe <= small_allocs,
        "a probe allocated more than a full replay: {small_probe} > {small_allocs}"
    );
}
