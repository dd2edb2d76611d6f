//! Trace generators, transforms and outcome checks shared by the
//! equivalence suites. Each variant is kept as it was when the suites
//! carried their own copies, so every suite draws exactly the cases it
//! always drew.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use gsf_vmalloc::{PlacementRequest, SimOutcome};
use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};
use rand::{Rng, SeedableRng};

/// A random trace of `n_vms` VMs over a 2100 s horizon: a share
/// `full_node_pct` of full-node VMs (80 cores, 768 GB), the rest 1–16
/// cores at 2–10 GB per core, arrivals in the first 1000 s. About a
/// fifth of the VMs never depart, so placements keep competing for
/// fragmented capacity and settlement at the horizon is exercised.
pub fn random_trace(n_vms: usize, seed: u64, full_node_pct: f64) -> Trace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut vms = Vec::new();
    let mut events = Vec::new();
    for id in 0..n_vms as u64 {
        let full_node = rng.gen_bool(full_node_pct);
        let cores =
            if full_node { 80 } else { *[1u32, 2, 4, 8, 16].get(rng.gen_range(0..5)).unwrap() };
        let mem = if full_node { 768.0 } else { f64::from(cores) * rng.gen_range(2.0..10.0) };
        vms.push(VmSpec {
            id,
            cores,
            mem_gb: mem,
            app_index: rng.gen_range(0..20),
            generation: ServerGeneration::Gen3,
            full_node,
            max_mem_util: rng.gen_range(0.1..1.0),
            avg_cpu_util: rng.gen_range(0.05..0.6),
        });
        let t = rng.gen_range(0.0..1000.0);
        events.push(VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id });
        if rng.gen_bool(0.8) {
            events.push(VmEvent {
                time_s: t + rng.gen_range(1.0..1500.0),
                kind: VmEventKind::Departure,
                vm_id: id,
            });
        }
    }
    Trace::new(2100.0, vms, events)
}

/// [`random_trace`] without full-node VMs and without the full-node
/// draw, so the same seed gives another trace than
/// `random_trace(.., 0.0)`.
pub fn random_small_vm_trace(n_vms: usize, seed: u64) -> Trace {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut vms = Vec::new();
    let mut events = Vec::new();
    for id in 0..n_vms as u64 {
        let cores = *[1u32, 2, 4, 8, 16].get(rng.gen_range(0..5)).unwrap();
        vms.push(VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * rng.gen_range(2.0..10.0),
            app_index: rng.gen_range(0..20),
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: rng.gen_range(0.1..1.0),
            avg_cpu_util: rng.gen_range(0.05..0.6),
        });
        let t = rng.gen_range(0.0..1000.0);
        events.push(VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id });
        if rng.gen_bool(0.8) {
            events.push(VmEvent {
                time_s: t + rng.gen_range(1.0..1500.0),
                kind: VmEventKind::Departure,
                vm_id: id,
            });
        }
    }
    Trace::new(2100.0, vms, events)
}

/// Adoption routing: full-node VMs stay on baseline servers, every
/// other VM prefers a GreenSKU at a 1.25× scaling factor.
pub fn mixed_transform(vm: &VmSpec) -> PlacementRequest {
    if vm.full_node {
        PlacementRequest::baseline_only(vm)
    } else {
        PlacementRequest::prefer_green(vm, 1.25)
    }
}

/// Every VM prefers a GreenSKU at a 1.25× scaling factor.
pub fn green_transform(vm: &VmSpec) -> PlacementRequest {
    PlacementRequest::prefer_green(vm, 1.25)
}

/// Every VM on baseline servers at its original size.
pub fn baseline_transform(vm: &VmSpec) -> PlacementRequest {
    PlacementRequest::baseline_only(vm)
}

/// `SimOutcome` equality plus bit-level equality on the usage ledger's
/// accumulated floats — `PartialEq` on `f64` would let `-0.0 == 0.0`
/// slide, and determinism here means the *bits* match.
pub fn assert_bitwise(a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a, b);
    assert_eq!(
        a.usage.total_baseline_core_hours().to_bits(),
        b.usage.total_baseline_core_hours().to_bits()
    );
    assert_eq!(
        a.usage.total_green_core_hours().to_bits(),
        b.usage.total_green_core_hours().to_bits()
    );
}
