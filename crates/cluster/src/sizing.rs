//! Cluster sizing: the §V search for the right mix of baseline SKUs and
//! GreenSKUs.
//!
//! The paper's procedure: right-size a baseline-only cluster (smallest
//! server count hosting the trace without rejections), then replace
//! baseline SKUs with GreenSKUs until no further replacement is
//! possible; VMs that cannot adopt the GreenSKU pin the residual
//! baseline pool. Both steps are monotone feasibility searches, so they
//! run as binary searches over simulator replays.
//!
//! One pass runs both searches, over one engine's feasibility probes:
//!
//! - [`right_size_prepared`] — production: prepared plans, unsharded
//!   (indexed selection) or sharded;
//! - [`right_size_baseline_only_prepared`] and
//!   [`right_size_mixed_prepared`] — its two results on their own, on
//!   the unsharded engine;
//! - [`right_size_unprepared`] — the test oracle: the same pass on the
//!   unprepared reference engine with linear selection, which the
//!   `prepared_equivalence` suite pins the others to.

use crate::sharded::sharded_probe;
use gsf_maintenance::{FaultModel, PoolDevices};
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultPlan, PlacementPolicy, PlacementRequest, PreparedTrace,
    ServerShape, VmTransform,
};
use gsf_workloads::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Availability SLO for the fault-aware sizing searches: instead of
/// demanding that *every* displaced VM is immediately re-placed, allow
/// a bounded amount of measured downtime. A tighter bound (smaller
/// `max_vm_minutes_lost`) shrinks the feasible set, so the resulting
/// cluster can only grow — the searches stay monotone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilitySlo {
    /// Maximum tolerated VM-minutes of downtime over the replay
    /// (queue wait of displaced VMs; `0.0` is as strict as the
    /// all-evacuated default, but additionally rejects any nonzero
    /// wait even if the VM is eventually re-placed).
    pub max_vm_minutes_lost: f64,
}

/// Fault injection as seen by the sizing searches: a model plus the
/// per-pool device counts it needs to derive server AFRs. When present,
/// "feasible" tightens from "no rejections" to "no rejections *and*
/// every fault-displaced VM found a new home" — sizing then provisions
/// enough slack to ride out the sampled failures. An optional
/// [`AvailabilitySlo`] relaxes the latter into a downtime budget.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection<'a> {
    /// The fault model (must be enabled; a disabled model is the same
    /// as passing `None`).
    pub model: &'a FaultModel,
    /// Device counts per baseline server.
    pub baseline_devices: PoolDevices,
    /// Device counts per GreenSKU server.
    pub green_devices: PoolDevices,
    /// Downtime budget; `None` keeps the strict all-evacuated
    /// predicate.
    pub slo: Option<AvailabilitySlo>,
}

impl FaultInjection<'_> {
    /// The fault plan this injection schedules for one candidate
    /// cluster configuration.
    pub fn plan_for(&self, config: &ClusterConfig, duration_s: f64) -> FaultPlan {
        self.model.plan(config, self.baseline_devices, self.green_devices, duration_s)
    }

    /// The fault-side feasibility predicate: strict all-evacuated by
    /// default, or the downtime budget when an SLO is set.
    pub fn admits(&self, summary: &gsf_vmalloc::FaultSummary) -> bool {
        match self.slo {
            None => summary.all_evacuated(),
            Some(slo) => summary.availability.vm_minutes_lost() <= slo.max_vm_minutes_lost,
        }
    }
}

/// The sized cluster: how many of each SKU the workload needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterPlan {
    /// Baseline servers required.
    pub baseline: u32,
    /// GreenSKU servers required.
    pub green: u32,
}

impl ClusterPlan {
    /// Total servers in the plan.
    pub fn total(&self) -> u32 {
        self.baseline + self.green
    }
}

/// Errors from the sizing search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizingError {
    /// The trace cannot be hosted even at the search bound (e.g. a
    /// single VM larger than any server).
    Infeasible {
        /// The bound at which the search gave up.
        bound: u32,
    },
}

impl fmt::Display for SizingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizingError::Infeasible { bound } => {
                write!(f, "trace cannot be hosted even with {bound} servers")
            }
        }
    }
}

impl std::error::Error for SizingError {}

/// Work counters of one sizing pass: searches and feasibility probes
/// run. They are exact and clock-free, so the same inputs always give
/// the same counts and a test can pin them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizingWork {
    /// Baseline-only (`n0`) searches run.
    pub baseline_searches: u32,
    /// Feasibility probes those searches ran.
    pub baseline_probes: u32,
    /// Feasibility probes the mixed search ran. A configuration the
    /// search already decided is answered from its verdict memo and is
    /// not a probe.
    pub mixed_probes: u32,
}

/// Both sizing results of one evaluation, from one pass
/// ([`right_size_prepared`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSizing {
    /// Right-sized baseline-only server count (`n0`).
    pub baseline_only: u32,
    /// Right-sized mixed cluster.
    pub plan: ClusterPlan,
    /// What the pass cost.
    pub work: SizingWork,
}

/// The feasibility predicate over one probe's verdict: no rejected
/// arrival (`Some`), and under fault injection the fault summary
/// admitted as well.
pub(crate) fn admitted(
    verdict: Option<gsf_vmalloc::FaultSummary>,
    faults: Option<&FaultInjection<'_>>,
) -> bool {
    verdict.is_some_and(|summary| faults.is_none_or(|inj| inj.admits(&summary)))
}

/// The fault plan a probe of `config` replays: empty without fault
/// injection.
pub(crate) fn probe_plan(
    faults: Option<&FaultInjection<'_>>,
    config: &ClusterConfig,
    duration_s: f64,
) -> FaultPlan {
    faults.map_or_else(FaultPlan::empty, |inj| inj.plan_for(config, duration_s))
}

/// Feasibility probe on the prepared replay engine with indexed server
/// selection: one simulator, reset and reused by every probe of one
/// search, runs the verdict-only replay
/// ([`AllocationSim::probe_prepared_faulted`]) of `prepared`, whose
/// answer matches the full replay's bit for bit.
fn prepared_probe<'a>(
    prepared: &'a PreparedTrace,
    policy: PlacementPolicy,
    faults: Option<&'a FaultInjection<'a>>,
) -> impl FnMut(ClusterConfig) -> bool + 'a {
    let mut sim = AllocationSim::new(ClusterConfig::baseline_only(0), policy);
    move |config| {
        sim.reset(config);
        let plan = probe_plan(faults, &config, prepared.duration_s());
        admitted(sim.probe_prepared_faulted(prepared, &plan), faults)
    }
}

/// Feasibility probe on the unprepared reference engine with linear
/// server selection: every probe re-resolves each event of `trace`
/// through `transform` and scans the whole pool per placement.
fn unprepared_probe<'a>(
    trace: &'a Trace,
    transform: &'a VmTransform<'a>,
    policy: PlacementPolicy,
    faults: Option<&'a FaultInjection<'a>>,
) -> impl FnMut(ClusterConfig) -> bool + 'a {
    let mut sim =
        AllocationSim::new(ClusterConfig::baseline_only(0), policy).with_linear_selection();
    move |config| {
        sim.reset(config);
        let plan = probe_plan(faults, &config, trace.duration_s());
        let (outcome, summary) = sim.replay_faulted_unprepared(trace, transform, &plan);
        admitted(outcome.no_rejections().then_some(summary), faults)
    }
}

/// Smallest `n` in `[lo, hi]` with `pred(n)` true, assuming monotone
/// feasibility; `None` if the range is empty or even `hi` fails.
fn binary_search_min(lo: u32, hi: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
    // An empty range has no feasible point; without this guard the
    // search would return `Some(lo)` without ever evaluating `pred(lo)`.
    if lo > hi {
        return None;
    }
    if !pred(hi) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// The baseline-only search skeleton: peak-demand lower bound, 4× upper
/// bound (minimum 8), binary search over `probe`. The probe captures
/// its own simulator (prepared, unprepared, or sharded — the skeleton is
/// engine-agnostic) and answers whether one candidate configuration
/// hosts the trace.
fn baseline_search(
    peak_demand: (u64, f64),
    baseline_shape: ServerShape,
    mut probe: impl FnMut(ClusterConfig) -> bool,
) -> Result<u32, SizingError> {
    let (peak_cores, peak_mem) = peak_demand;
    let by_cores = peak_cores.div_ceil(u64::from(baseline_shape.cores));
    let by_mem = (peak_mem / baseline_shape.mem_gb).ceil() as u64;
    let lower = by_cores.max(by_mem).max(1) as u32;
    let bound = lower.saturating_mul(4).max(8);
    let config = |n: u32| ClusterConfig {
        baseline_count: n,
        baseline_shape,
        green_count: 0,
        green_shape: ServerShape::greensku(),
    };
    binary_search_min(lower, bound, |n| probe(config(n))).ok_or(SizingError::Infeasible { bound })
}

/// The mixed-cluster search skeleton given a right-sized baseline-only
/// count `n0`: fewest baseline servers first (with an adaptively
/// doubling green cap), then fewest GreenSKUs.
fn mixed_search(
    n0: u32,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    mut probe: impl FnMut(ClusterConfig) -> bool,
) -> Result<ClusterPlan, SizingError> {
    // A green server is at least as large as a baseline server in both
    // dimensions for the standard shapes; scale the green cap by the
    // shape ratio plus slack for scaling-factor inflation. The 1.6×
    // slack covers scaling factors up to ~1.6; beyond that the cap
    // doubles adaptively below.
    let cap_ratio = (f64::from(baseline_shape.cores) / f64::from(green_shape.cores))
        .max(baseline_shape.mem_gb / green_shape.mem_gb);
    let mut green_cap = ((f64::from(n0) * cap_ratio * 1.6).ceil() as u32).max(8);
    let cap_limit = green_cap.saturating_mul(64);

    // Verdict memo: the searches below revisit configurations (the
    // g-search starts at `(b_min, green_cap)`, which the b-search has
    // already proved feasible). Probes are deterministic, so a memoized
    // verdict is the verdict a repeat probe would return.
    let mut verdicts: BTreeMap<(u32, u32), bool> = BTreeMap::new();
    let mut verdict = |b: u32, g: u32| {
        *verdicts.entry((b, g)).or_insert_with(|| {
            probe(ClusterConfig { baseline_count: b, baseline_shape, green_count: g, green_shape })
        })
    };

    // Fewest baseline servers first (the residual pool for non-adopting
    // and full-node VMs). When even the full baseline pool rejects at
    // the current green cap, the cap itself is the constraint (large
    // scaling factors, packing anomalies) — double it and retry.
    let mut b_min = loop {
        let found = binary_search_min(0, n0, |b| verdict(b, green_cap));
        if let Some(b) = found {
            break b;
        }
        if green_cap >= cap_limit {
            return Err(SizingError::Infeasible { bound: n0 + green_cap });
        }
        green_cap = green_cap.saturating_mul(2).min(cap_limit);
    };
    // A capped green pool can also pin baseline servers a larger pool
    // would free; keep doubling while that shrinks the baseline count.
    while b_min > 0 && green_cap < cap_limit {
        let doubled = green_cap.saturating_mul(2).min(cap_limit);
        match binary_search_min(0, b_min - 1, |b| verdict(b, doubled)) {
            Some(b) => {
                green_cap = doubled;
                b_min = b;
            }
            None => break,
        }
    }
    // ...then the fewest GreenSKUs given that baseline pool. The cap
    // itself was feasible with `b_min` in the searches above (its
    // verdict comes from the memo), so this search cannot come up
    // empty — but report Infeasible rather than panicking if that
    // invariant is ever broken.
    let g_min = binary_search_min(0, green_cap, |g| verdict(b_min, g))
        .ok_or(SizingError::Infeasible { bound: n0 + green_cap })?;
    Ok(ClusterPlan { baseline: b_min, green: g_min })
}

/// One sizing pass: the baseline-only search over `baseline_probe`,
/// then the mixed search from its `n0` over `mixed_probe`, with the
/// work counted. `peak_demand` is that of the baseline-only requests.
/// Each search has its own probe (and simulator): the baseline probe is
/// dropped before the mixed search grows its pools, which keeps the
/// peak memory of a pass at that of one search. Every sizing entry
/// point, production and oracle, is this pass (or its baseline half)
/// over some engine's probes, so there is one copy of the search.
pub(crate) fn size_pass(
    peak_demand: (u64, f64),
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    baseline_probe: impl FnMut(ClusterConfig) -> bool,
    mut mixed_probe: impl FnMut(ClusterConfig) -> bool,
) -> Result<ClusterSizing, SizingError> {
    let mut work = SizingWork { baseline_searches: 1, ..SizingWork::default() };
    let n0 = {
        // Moved into this block so it is dropped at its end.
        let mut probe = baseline_probe;
        baseline_search(peak_demand, baseline_shape, |config| {
            work.baseline_probes += 1;
            probe(config)
        })?
    };
    let plan = mixed_search(n0, baseline_shape, green_shape, |config| {
        work.mixed_probes += 1;
        mixed_probe(config)
    })?;
    Ok(ClusterSizing { baseline_only: n0, plan, work })
}

/// Right-sizes both clusters of one evaluation in one pass: the
/// baseline-only search runs once, and its `n0` both is the result's
/// [`ClusterSizing::baseline_only`] and seeds the mixed search, which
/// starts from the right-sized baseline-only cluster and replaces
/// baseline SKUs with GreenSKUs until some VM would be rejected,
/// returning the plan with the fewest baseline servers (and, given
/// that, the fewest GreenSKUs).
///
/// `prepared` carries the routed (adoption-transformed) requests the
/// mixed search probes with: adopting VMs issue green-preferring
/// (scaled) requests, others baseline-only ones. `prepared_baseline`
/// carries the baseline-only requests (every VM at its original size)
/// the `n0` search probes with. Both are built once per (trace, routing
/// decision) and replayed by every probe; the `EvalContext` prepared
/// cache in `gsf-core` shares them across sweep points.
///
/// Under fault injection each candidate configuration is probed with
/// its own fault plan, and it is feasible only if no VM is rejected
/// *and* every fault-displaced VM is re-placed (or, with an
/// [`AvailabilitySlo`], the downtime stays within budget). `None` (or a
/// disabled model) is the fault-free search.
///
/// `shards > 1` probes under the sharded replay semantics (see
/// [`crate::sharded`]), each probe on `workers` threads; the result is
/// identical for any worker count. `shards <= 1` probes the unsharded
/// indexed engine and ignores `workers`.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] if the baseline-only trace cannot
/// be hosted at the search bound (4× the peak-demand lower bound,
/// minimum 8), or the mixed search finds no plan within its green cap.
#[allow(clippy::too_many_arguments)]
pub fn right_size_prepared(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
    shards: usize,
    workers: usize,
) -> Result<ClusterSizing, SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let peak_demand = prepared_baseline.peak_demand();
    if shards > 1 {
        size_pass(
            peak_demand,
            baseline_shape,
            green_shape,
            sharded_probe(prepared_baseline, policy, faults, shards, workers),
            sharded_probe(prepared, policy, faults, shards, workers),
        )
    } else {
        size_pass(
            peak_demand,
            baseline_shape,
            green_shape,
            prepared_probe(prepared_baseline, policy, faults),
            prepared_probe(prepared, policy, faults),
        )
    }
}

/// The baseline-only search of [`right_size_prepared`] on its own: the
/// minimum number of `baseline_shape` servers hosting `prepared` (built
/// with the baseline-only transform) on the unsharded engine.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as [`right_size_prepared`] does.
pub fn right_size_baseline_only_prepared(
    prepared: &PreparedTrace,
    baseline_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<u32, SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    baseline_search(
        prepared.peak_demand(),
        baseline_shape,
        prepared_probe(prepared, policy, faults),
    )
}

/// The mixed plan of [`right_size_prepared`] on the unsharded engine.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as [`right_size_prepared`] does.
pub fn right_size_mixed_prepared(
    prepared: &PreparedTrace,
    prepared_baseline: &PreparedTrace,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<ClusterPlan, SizingError> {
    right_size_prepared(
        prepared,
        prepared_baseline,
        baseline_shape,
        green_shape,
        policy,
        faults,
        1,
        1,
    )
    .map(|sizing| sizing.plan)
}

/// Reference sizing, the test oracle for [`right_size_prepared`]: the
/// same pass (same searches, same work counters) with every probe on
/// the unprepared replay engine with linear server selection, which
/// re-resolves each event through `transform` (or the baseline-only
/// transform, for the `n0` search) on every probe and scans the whole
/// pool per placement. Bit-identical to `right_size_prepared(.., 1, 1)`
/// over plans built from the same `trace` and `transform`, by the
/// replay- and index-equivalence contracts.
///
/// # Errors
///
/// Returns [`SizingError::Infeasible`] as [`right_size_prepared`] does.
pub fn right_size_unprepared(
    trace: &Trace,
    transform: &VmTransform<'_>,
    baseline_shape: ServerShape,
    green_shape: ServerShape,
    policy: PlacementPolicy,
    faults: Option<&FaultInjection<'_>>,
) -> Result<ClusterSizing, SizingError> {
    let faults = faults.filter(|f| !f.model.is_none());
    let baseline_transform = |vm: &gsf_workloads::VmSpec| PlacementRequest::baseline_only(vm);
    size_pass(
        trace.peak_demand(),
        baseline_shape,
        green_shape,
        unprepared_probe(trace, &baseline_transform, policy, faults),
        unprepared_probe(trace, transform, policy, faults),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

    fn vm(id: u64, cores: u32, full_node: bool) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: f64::from(cores) * 4.0,
            app_index: 0,
            generation: ServerGeneration::Gen3,
            full_node,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    /// `n` concurrent 8-core VMs.
    fn concurrent_trace(n: u64) -> Trace {
        let vms: Vec<VmSpec> = (0..n).map(|i| vm(i, 8, false)).collect();
        let mut events = Vec::new();
        for i in 0..n {
            events.push(VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: i });
            events.push(VmEvent { time_s: 1000.0, kind: VmEventKind::Departure, vm_id: i });
        }
        Trace::new(2000.0, vms, events)
    }

    fn baseline_transform(v: &VmSpec) -> PlacementRequest {
        PlacementRequest::baseline_only(v)
    }

    /// Baseline-only sizing of `trace` on 80-core baseline servers.
    fn size_baseline(
        trace: &Trace,
        policy: PlacementPolicy,
        faults: Option<&FaultInjection<'_>>,
    ) -> Result<u32, SizingError> {
        let prepared = PreparedTrace::new(trace, &baseline_transform);
        right_size_baseline_only_prepared(&prepared, ServerShape::baseline_gen3(), policy, faults)
    }

    /// One best-fit sizing pass over `trace` routed through `transform`.
    fn size(
        trace: &Trace,
        transform: &VmTransform<'_>,
        faults: Option<&FaultInjection<'_>>,
    ) -> Result<ClusterSizing, SizingError> {
        right_size_prepared(
            &PreparedTrace::new(trace, transform),
            &PreparedTrace::new(trace, &baseline_transform),
            ServerShape::baseline_gen3(),
            ServerShape::greensku(),
            PlacementPolicy::BestFit,
            faults,
            1,
            1,
        )
    }

    #[test]
    fn baseline_sizing_matches_arithmetic() {
        // 30 concurrent 8-core VMs = 240 cores → exactly 3 × 80-core
        // servers (10 VMs each; memory 4 GB/core fits easily).
        let n = size_baseline(&concurrent_trace(30), PlacementPolicy::BestFit, None).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn infeasible_vm_reported() {
        // A 200-core VM fits no server.
        let trace = Trace::new(
            10.0,
            vec![vm(0, 200, false)],
            vec![VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: 0 }],
        );
        assert!(matches!(
            size_baseline(&trace, PlacementPolicy::BestFit, None),
            Err(SizingError::Infeasible { .. })
        ));
    }

    #[test]
    fn all_adopting_workload_goes_fully_green() {
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let plan = size(&concurrent_trace(24), &transform, None).unwrap().plan;
        assert_eq!(plan.baseline, 0);
        // 24 VMs × 10 green cores = 240 cores → 2 × 128-core servers.
        assert_eq!(plan.green, 2);
    }

    #[test]
    fn full_node_vms_pin_baseline_servers() {
        // 2 full-node VMs + 10 adopting VMs.
        let mut vms: Vec<VmSpec> = (0..2).map(|i| vm(i, 80, true)).collect();
        vms.extend((2..12).map(|i| vm(i, 8, false)));
        let mut events = Vec::new();
        for v in &vms {
            events.push(VmEvent { time_s: 1.0, kind: VmEventKind::Arrival, vm_id: v.id });
            events.push(VmEvent { time_s: 500.0, kind: VmEventKind::Departure, vm_id: v.id });
        }
        // Full-node memory must fit the baseline shape.
        for v in vms.iter_mut().filter(|v| v.full_node) {
            v.mem_gb = 768.0;
        }
        let trace = Trace::new(1000.0, vms, events);
        let transform = |v: &VmSpec| {
            if v.full_node {
                PlacementRequest::baseline_only(v)
            } else {
                PlacementRequest::prefer_green(v, 1.0)
            }
        };
        let plan = size(&trace, &transform, None).unwrap().plan;
        assert_eq!(plan.baseline, 2);
        assert_eq!(plan.green, 1);
    }

    #[test]
    fn mixed_plan_never_larger_capacity_than_double_baseline() {
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.5);
        let trace = concurrent_trace(40);
        let ClusterSizing { baseline_only: n0, plan, .. } = size(&trace, &transform, None).unwrap();
        let plan_cores = plan.baseline * 80 + plan.green * 128;
        assert!(plan_cores <= 2 * n0 * 80, "plan {plan:?} vs baseline {n0}");
    }

    #[test]
    fn large_scaling_factor_still_goes_fully_green() {
        // Scaling factor 2.0 exceeds the green cap's built-in 1.6×
        // slack: 200 VMs × 8 cores need n0 = 20 baseline servers but
        // 200 × 16 = 3200 green cores = 25 GreenSKUs, above the initial
        // cap of ceil(20 × 0.75 × 1.6) = 24. The adaptive cap must
        // still find the all-green plan instead of pinning baseline
        // servers (or reporting the trace infeasible).
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 2.0);
        let plan = size(&concurrent_trace(200), &transform, None).unwrap().plan;
        assert_eq!(plan.baseline, 0, "plan {plan:?}");
        assert_eq!(plan.green, 25);
    }

    #[test]
    fn disabled_fault_model_sizes_identically() {
        let trace = concurrent_trace(30);
        let model = FaultModel::none();
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let plain = size_baseline(&trace, PlacementPolicy::BestFit, None).unwrap();
        let faulted = size_baseline(&trace, PlacementPolicy::BestFit, Some(&inj)).unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn fault_injection_never_shrinks_the_cluster() {
        // Aggressive failure injection: the sized cluster must be at
        // least as large as the fault-free one, and large enough that
        // replaying its own fault plan causes no violations.
        let trace = concurrent_trace(30);
        let mut model = FaultModel::paper(13);
        model.afr_scale = 40.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let shape = ServerShape::baseline_gen3();
        let plain = size_baseline(&trace, PlacementPolicy::BestFit, None).unwrap();
        let faulted = size_baseline(&trace, PlacementPolicy::BestFit, Some(&inj)).unwrap();
        assert!(faulted >= plain, "faulted {faulted} < plain {plain}");
        let config = ClusterConfig {
            baseline_count: faulted,
            baseline_shape: shape,
            green_count: 0,
            green_shape: ServerShape::greensku(),
        };
        let plan = inj.plan_for(&config, trace.duration_s());
        assert!(!plan.is_empty(), "at 40x AFR the plan should contain faults");
        let mut sim = AllocationSim::new(config, PlacementPolicy::BestFit);
        let (out, summary) =
            sim.replay_faulted(&trace, &|vm: &VmSpec| PlacementRequest::baseline_only(vm), &plan);
        assert!(out.no_rejections());
        assert!(summary.all_evacuated());
    }

    #[test]
    fn faulted_mixed_sizing_is_deterministic() {
        let trace = concurrent_trace(24);
        let mut model = FaultModel::paper(21);
        model.afr_scale = 30.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let run = || size(&trace, &transform, Some(&inj)).unwrap().plan;
        let a = run();
        assert_eq!(a, run());
        // And at least the fault-free capacity.
        let plain = size(&trace, &transform, None).unwrap().plan;
        assert!(a.total() >= plain.total(), "faulted {a:?} vs plain {plain:?}");
    }

    #[test]
    fn searches_pin_probe_counts_and_never_repeat_a_configuration() {
        // Exact work counters on a small fixture: 24 adopting 8-core
        // VMs size to n0 = 3 baseline servers, then to 0 + 2 GreenSKUs.
        // A counting closure around the real probe records every
        // configuration each search asks about.
        let trace = concurrent_trace(24);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let prepared = PreparedTrace::new(&trace, &transform);
        let prepared_baseline =
            PreparedTrace::new(&trace, &|v: &VmSpec| PlacementRequest::baseline_only(v));
        let (baseline_shape, green_shape) = (ServerShape::baseline_gen3(), ServerShape::greensku());
        let mut baseline_probe = prepared_probe(&prepared_baseline, PlacementPolicy::BestFit, None);
        let mut mixed_probe = prepared_probe(&prepared, PlacementPolicy::BestFit, None);
        let mut probed = Vec::new();
        let n0 = baseline_search(prepared_baseline.peak_demand(), baseline_shape, |config| {
            probed.push((config.baseline_count, config.green_count));
            baseline_probe(config)
        })
        .unwrap();
        let baseline_probes = probed.len();
        let plan = mixed_search(n0, baseline_shape, green_shape, |config| {
            probed.push((config.baseline_count, config.green_count));
            mixed_probe(config)
        })
        .unwrap();
        assert_eq!((n0, plan), (3, ClusterPlan { baseline: 0, green: 2 }));
        // Baseline: [3, 12] → 12, 7, 5, 4, 3.
        assert_eq!(probed[..baseline_probes], [(12, 0), (7, 0), (5, 0), (4, 0), (3, 0)]);
        let mixed = &probed[baseline_probes..];
        let distinct: std::collections::BTreeSet<_> = mixed.iter().collect();
        assert_eq!(distinct.len(), mixed.len(), "a configuration was probed twice: {mixed:?}");
        // b-search at the green cap of 8 over [0, 3], then the
        // g-search over [0, 8] at b = 0; its first probe, (0, 8), is a
        // memo hit.
        assert_eq!(mixed, [(3, 8), (1, 8), (0, 8), (0, 4), (0, 2), (0, 1)]);

        // The one-pass entry point runs the same probes and reports
        // them, with one baseline search.
        let sizing = size(&trace, &transform, None).unwrap();
        assert_eq!((sizing.baseline_only, sizing.plan), (n0, plan));
        assert_eq!(
            sizing.work,
            SizingWork { baseline_searches: 1, baseline_probes: 5, mixed_probes: 6 }
        );
    }

    #[test]
    fn binary_search_min_behaviour() {
        assert_eq!(binary_search_min(0, 10, |n| n >= 7), Some(7));
        assert_eq!(binary_search_min(0, 10, |_| true), Some(0));
        assert_eq!(binary_search_min(0, 10, |_| false), None);
        assert_eq!(binary_search_min(3, 3, |n| n == 3), Some(3));
    }

    #[test]
    fn binary_search_min_empty_range_is_none_without_probing() {
        // lo > hi used to return Some(lo) without ever evaluating
        // pred(lo) — an unvetted "feasible" answer. The empty range must
        // be None, and the predicate must never run.
        let mut calls = 0usize;
        let result = binary_search_min(5, 4, |_| {
            calls += 1;
            true
        });
        assert_eq!(result, None);
        assert_eq!(calls, 0);
        // One-past inverted and far-inverted ranges alike.
        assert_eq!(binary_search_min(u32::MAX, 0, |_| true), None);
    }

    #[test]
    fn prepared_sizing_matches_unprepared() {
        let trace = concurrent_trace(30);
        let transform = |v: &VmSpec| PlacementRequest::prefer_green(v, 1.25);
        let mut model = FaultModel::paper(13);
        model.afr_scale = 40.0;
        let inj = FaultInjection {
            model: &model,
            baseline_devices: PoolDevices::baseline(),
            green_devices: PoolDevices::greensku_full(),
            slo: None,
        };
        for faults in [None, Some(&inj)] {
            assert_eq!(
                size(&trace, &transform, faults),
                right_size_unprepared(
                    &trace,
                    &transform,
                    ServerShape::baseline_gen3(),
                    ServerShape::greensku(),
                    PlacementPolicy::BestFit,
                    faults,
                ),
            );
        }
    }
}
