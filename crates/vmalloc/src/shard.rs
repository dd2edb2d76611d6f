//! Sharded fleet replay: deterministic pool partitioning for
//! parallel-within-one-simulation replay.
//!
//! The baseline and green pools are split into `K` contiguous shards;
//! every shard is a full [`AllocationSim`] over its slice of the
//! cluster (own servers, own [`crate::PlacementIndex`]es). Each VM is
//! routed to exactly one *home shard* by a stable hash of its id over
//! the shards that could ever host its request, so the per-shard event
//! streams — and therefore the per-shard replays — are independent of
//! each other and of whatever order shards execute in.
//!
//! # Exact determinism
//!
//! Sharded replay is **its own semantics**: a VM whose home shard is
//! full is rejected even if another shard had room (there is no
//! cross-shard retry — that would couple shards and serialize them).
//! What is pinned bit-identical is *parallel vs serial execution of the
//! same sharded semantics*: every shard's replay touches only its own
//! `AllocationSim` and its own event/fault slice, and the per-shard
//! `(SimOutcome, FaultSummary)` results are merged in ascending shard
//! order by [`merge_outcomes`] — so a run on `N` workers is bitwise
//! equal to the serial reference
//! ([`ShardedSim::replay_prepared_faulted`]), which the
//! `shard_equivalence` suite in `gsf-cluster` gates in CI. At `K = 1`
//! every VM routes to shard 0 and the merge is the identity, so the
//! sharded engine degenerates to the unsharded one bit-for-bit.
//!
//! # Fault ownership
//!
//! A fault addresses `(pool, global server index)`; the shard plan maps
//! it to the shard owning that server and rewrites the index to be
//! shard-local, so faults strike and evacuate entirely within one
//! shard (evacuation targets are the home shard's surviving servers,
//! consistent with the no-cross-shard-placement rule). Faults
//! addressing servers beyond the pool are dropped, exactly as the
//! unsharded engine ignores them.

use crate::cluster::{ClusterConfig, ServerShape};
use crate::faults::{FaultPlan, FaultPool, FaultSummary};
use crate::policy::PlacementPolicy;
use crate::prepared::{PreparedEvent, PreparedTrace};
use crate::server::mem_fits;
use crate::simulator::{AllocationSim, PlacementRequest, ReplayMode, SimOutcome, TargetPool};

/// Version tag of the routing policy below; cache keys over sharded
/// evaluations include it so a future routing change invalidates them.
pub const SHARD_ROUTING_VERSION: u64 = 1;

/// SplitMix64 finalizer: the stable id → shard hash. Fixed constants,
/// no per-run state — the same VM id routes identically in every
/// process, which is what makes sharded results reproducible.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a server of `shape` could host `(cores, mem_gb)` when
/// empty — the static half of [`crate::ServerState::fits`], sharing its
/// memory-epsilon predicate.
fn shape_admits(shape: ServerShape, cores: u32, mem_gb: f64) -> bool {
    shape.cores >= cores && mem_fits(shape.mem_gb, mem_gb)
}

/// Splits `count` servers into `shards` contiguous `[lo, hi)` ranges;
/// the first `count % shards` shards take one extra server.
fn split_bounds(count: u32, shards: usize) -> Vec<(u32, u32)> {
    let shards_u32 = shards as u32;
    let base = count / shards_u32;
    let extra = count % shards_u32;
    let mut bounds = Vec::with_capacity(shards);
    let mut lo = 0u32;
    for s in 0..shards_u32 {
        let len = base + u32::from(s < extra);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

/// Resolves a global pool index to `(shard, local index)` against
/// contiguous bounds; `None` when the index is past the pool.
fn locate(bounds: &[(u32, u32)], global: u32) -> Option<(usize, u32)> {
    // First shard whose range ends past `global`; ranges are contiguous
    // and ascending, so it is the only candidate.
    let s = bounds.partition_point(|&(_, hi)| hi <= global);
    let &(lo, hi) = bounds.get(s)?;
    (global >= lo && global < hi).then_some((s, global - lo))
}

/// How a cluster is partitioned into shards, and where requests route.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    config: ClusterConfig,
    baseline_bounds: Vec<(u32, u32)>,
    green_bounds: Vec<(u32, u32)>,
    /// Shards with ≥1 baseline server, ascending.
    with_baseline: Vec<u32>,
    /// Shards with ≥1 green server, ascending.
    with_green: Vec<u32>,
    /// Shards with ≥1 server in either pool, ascending.
    with_any: Vec<u32>,
}

impl ShardPlan {
    /// Partitions `config` into `shards` contiguous slices per pool
    /// (`shards` floors at 1).
    pub fn new(config: ClusterConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        let baseline_bounds = split_bounds(config.baseline_count, shards);
        let green_bounds = split_bounds(config.green_count, shards);
        let nonempty = |bounds: &[(u32, u32)]| {
            bounds
                .iter()
                .enumerate()
                .filter(|(_, &(lo, hi))| hi > lo)
                .map(|(s, _)| s as u32)
                .collect::<Vec<u32>>()
        };
        let with_baseline = nonempty(&baseline_bounds);
        let with_green = nonempty(&green_bounds);
        let mut with_any: Vec<u32> =
            with_baseline.iter().chain(with_green.iter()).copied().collect();
        with_any.sort_unstable();
        with_any.dedup();
        Self { config, baseline_bounds, green_bounds, with_baseline, with_green, with_any }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.baseline_bounds.len()
    }

    /// The cluster slice owned by shard `s`.
    pub fn shard_config(&self, s: usize) -> ClusterConfig {
        let (blo, bhi) = self.baseline_bounds[s];
        let (glo, ghi) = self.green_bounds[s];
        ClusterConfig {
            baseline_count: bhi - blo,
            baseline_shape: self.config.baseline_shape,
            green_count: ghi - glo,
            green_shape: self.config.green_shape,
        }
    }

    /// Shard `s`'s `[lo, hi)` slice of the global baseline pool.
    pub fn baseline_range(&self, s: usize) -> (u32, u32) {
        self.baseline_bounds[s]
    }

    /// Shard `s`'s `[lo, hi)` slice of the global green pool.
    pub fn green_range(&self, s: usize) -> (u32, u32) {
        self.green_bounds[s]
    }

    /// The home shard for a request: a stable hash of the VM id over
    /// the shards that could ever host it (≥1 server of an admitting
    /// shape in a pool the request targets). A request no shard could
    /// host hashes over all shards — it will be rejected wherever it
    /// lands, matching the unsharded engine's rejection.
    pub fn route(&self, vm_id: u64, request: &PlacementRequest) -> usize {
        let admits_baseline = shape_admits(
            self.config.baseline_shape,
            request.baseline_cores,
            request.baseline_mem_gb,
        );
        let candidates: &[u32] = match request.target {
            TargetPool::BaselineOnly => {
                if admits_baseline {
                    &self.with_baseline
                } else {
                    &[]
                }
            }
            TargetPool::PreferGreen => {
                let admits_green = shape_admits(
                    self.config.green_shape,
                    request.green_cores,
                    request.green_mem_gb,
                );
                match (admits_green, admits_baseline) {
                    (true, true) => &self.with_any,
                    (true, false) => &self.with_green,
                    (false, true) => &self.with_baseline,
                    (false, false) => &[],
                }
            }
        };
        let h = splitmix64(vm_id);
        if candidates.is_empty() {
            (h % self.shards() as u64) as usize
        } else {
            candidates[(h % candidates.len() as u64) as usize] as usize
        }
    }

    /// Splits `prepared`'s events into per-shard streams: both events
    /// of a VM follow its home shard, relative order preserved.
    pub(crate) fn split_events(&self, prepared: &PreparedTrace) -> Vec<Vec<PreparedEvent>> {
        let home: Vec<usize> = (0..prepared.vm_count() as u32)
            .map(|slot| {
                let vm = prepared.vm(slot);
                self.route(vm.id, &vm.request)
            })
            .collect();
        let mut by_shard: Vec<Vec<PreparedEvent>> = vec![Vec::new(); self.shards()];
        for event in prepared.events() {
            by_shard[home[event.slot as usize]].push(*event);
        }
        by_shard
    }

    /// Splits a fault plan by struck-server ownership, rewriting each
    /// event's server index to be shard-local. Faults addressing
    /// servers past the pool are dropped (the unsharded engine ignores
    /// them identically).
    pub fn split_faults(&self, plan: &FaultPlan) -> Vec<FaultPlan> {
        let mut by_shard: Vec<Vec<crate::faults::FaultEvent>> = vec![Vec::new(); self.shards()];
        for event in plan.events() {
            let bounds = match event.pool {
                FaultPool::Baseline => &self.baseline_bounds,
                FaultPool::Green => &self.green_bounds,
            };
            if let Some((s, local)) = locate(bounds, event.server) {
                let mut local_event = *event;
                local_event.server = local;
                by_shard[s].push(local_event);
            }
        }
        // `presorted` skips validation: every local index came out of
        // `locate`, so it is in range for its shard by construction.
        by_shard
            .into_iter()
            .map(|events| FaultPlan::presorted(events, plan.max_evac_passes()))
            .collect()
    }
}

/// One shard's share of a replay: its simulator plus its event and
/// fault slices. Tasks are independent (`Send`), so a driver may run
/// them serially or on worker threads; either way the results must be
/// merged in ascending shard order ([`merge_outcomes`]).
pub struct ShardTask<'a> {
    sim: &'a mut AllocationSim,
    events: Vec<PreparedEvent>,
    faults: FaultPlan,
}

impl ShardTask<'_> {
    /// Replays this shard's slice. `prepared` must be the trace the
    /// task was built from.
    pub fn run(&mut self, prepared: &PreparedTrace) -> (SimOutcome, FaultSummary) {
        self.sim.replay_prepared_events(prepared, &self.events, &self.faults, ReplayMode::Full)
    }

    /// The verdict-only replay of this shard's slice (see
    /// [`AllocationSim::probe_prepared_faulted`]): `None` at the
    /// shard's first rejected arrival, otherwise its share of the
    /// summary, bit-identical to [`Self::run`]'s. Merge the shards'
    /// verdicts with [`merge_probes`].
    pub fn probe(&mut self, prepared: &PreparedTrace) -> Option<FaultSummary> {
        let (outcome, summary) = self.sim.replay_prepared_events(
            prepared,
            &self.events,
            &self.faults,
            ReplayMode::Verdict,
        );
        outcome.no_rejections().then_some(summary)
    }
}

/// Merges per-shard probe verdicts in the order given (callers pass
/// ascending shard order), as [`merge_outcomes`] merges the summaries:
/// `None` when any shard rejected (a rejection anywhere rejects the
/// merged replay) or when `parts` is empty. Like the full merge, this
/// leaves the blast radius for the caller to assign from the global
/// plan.
pub fn merge_probes(parts: impl IntoIterator<Item = Option<FaultSummary>>) -> Option<FaultSummary> {
    let mut merged: Option<FaultSummary> = None;
    for part in parts {
        let part = part?;
        match merged.as_mut() {
            None => merged = Some(part),
            Some(summary) => summary.merge(&part),
        }
    }
    merged
}

/// Merges per-shard results in the order given (callers pass ascending
/// shard order): counters sum, packing summaries combine via the
/// Welford parallel reduction, usage ledgers add per-app in ascending
/// app order. With a single part this is the identity.
///
/// # Panics
///
/// Panics when `parts` is empty: a merge needs at least one shard.
pub fn merge_outcomes(parts: Vec<(SimOutcome, FaultSummary)>) -> (SimOutcome, FaultSummary) {
    let mut iter = parts.into_iter();
    let (mut out, mut summary) = iter.next().expect("merge_outcomes needs at least one shard");
    for (o, s) in iter {
        out.rejected += o.rejected;
        out.placed_green += o.placed_green;
        out.placed_baseline += o.placed_baseline;
        out.green_overflow += o.green_overflow;
        out.metrics.merge(&o.metrics);
        out.usage.merge(&o.usage);
        summary.merge(&s);
    }
    (out, summary)
}

/// A cluster partitioned into `K` independent [`AllocationSim`] shards.
#[derive(Debug)]
pub struct ShardedSim {
    sims: Vec<AllocationSim>,
    plan: ShardPlan,
    policy: PlacementPolicy,
}

impl ShardedSim {
    /// Creates `shards` shard simulators over `config` (floors at 1).
    pub fn new(config: ClusterConfig, policy: PlacementPolicy, shards: usize) -> Self {
        let plan = ShardPlan::new(config, shards);
        let sims =
            (0..plan.shards()).map(|s| AllocationSim::new(plan.shard_config(s), policy)).collect();
        Self { sims, plan, policy }
    }

    /// Switches every shard to the linear reference selection (see
    /// [`AllocationSim::with_linear_selection`]); survives `reset`.
    pub fn with_linear_selection(mut self) -> Self {
        self.sims = self.sims.into_iter().map(AllocationSim::with_linear_selection).collect();
        self
    }

    /// Re-shapes to `config`, keeping the shard count; every shard
    /// resets like a fresh simulator.
    pub fn reset(&mut self, config: ClusterConfig) {
        self.plan = ShardPlan::new(config, self.plan.shards());
        for (s, sim) in self.sims.iter_mut().enumerate() {
            sim.reset(self.plan.shard_config(s));
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sims.len()
    }

    /// The current shard plan (partition bounds and routing).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The placement policy every shard uses.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Splits `prepared` and `faults` across the shards, returning one
    /// independent task per shard (ascending shard order). Drivers run
    /// the tasks however they like and merge results **in this order**
    /// with [`merge_outcomes`]; [`Self::replay_prepared_faulted`] is
    /// the serial reference driver.
    pub fn shard_tasks<'a>(
        &'a mut self,
        prepared: &PreparedTrace,
        faults: &FaultPlan,
    ) -> Vec<ShardTask<'a>> {
        let events = self.plan.split_events(prepared);
        let fault_plans = self.plan.split_faults(faults);
        self.sims
            .iter_mut()
            .zip(events.into_iter().zip(fault_plans))
            .map(|(sim, (events, faults))| ShardTask { sim, events, faults })
            .collect()
    }

    /// Serial reference replay: runs shard 0, 1, … in order and merges.
    /// Any parallel driver over [`Self::shard_tasks`] must be bitwise
    /// equal to this — including the blast radius, which is assigned
    /// from the *global* plan after the merge (per-shard replays only
    /// see their local slice of a correlated domain event).
    pub fn replay_prepared_faulted(
        &mut self,
        prepared: &PreparedTrace,
        faults: &FaultPlan,
    ) -> (SimOutcome, FaultSummary) {
        let mut parts = Vec::with_capacity(self.shards());
        for task in &mut self.shard_tasks(prepared, faults) {
            parts.push(task.run(prepared));
        }
        let (out, mut summary) = merge_outcomes(parts);
        if summary.faults_applied() {
            summary.availability.blast_radius_servers = faults.max_correlated_strikes();
        }
        (out, summary)
    }

    /// Serial reference replay without faults.
    pub fn replay_prepared(&mut self, prepared: &PreparedTrace) -> SimOutcome {
        self.replay_prepared_faulted(prepared, &FaultPlan::empty()).0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind};
    use gsf_workloads::{ServerGeneration, Trace, VmEvent, VmEventKind, VmSpec};

    fn vm(id: u64, cores: u32, mem: f64) -> VmSpec {
        VmSpec {
            id,
            cores,
            mem_gb: mem,
            app_index: (id % 3) as u16,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.5,
            avg_cpu_util: 0.2,
        }
    }

    fn arrive(id: u64, t: f64) -> VmEvent {
        VmEvent { time_s: t, kind: VmEventKind::Arrival, vm_id: id }
    }

    fn depart(id: u64, t: f64) -> VmEvent {
        VmEvent { time_s: t, kind: VmEventKind::Departure, vm_id: id }
    }

    fn sample_trace(n: u64) -> Trace {
        let vms: Vec<VmSpec> = (0..n).map(|i| vm(i, 8, 32.0)).collect();
        let mut events: Vec<VmEvent> = (0..n).map(|i| arrive(i, 1.0 + i as f64)).collect();
        events.extend((0..n / 2).map(|i| depart(i, 5000.0 + i as f64)));
        Trace::new(10_000.0, vms, events)
    }

    fn transform(v: &VmSpec) -> PlacementRequest {
        PlacementRequest::prefer_green(v, 1.25)
    }

    #[test]
    fn bounds_partition_contiguously() {
        assert_eq!(split_bounds(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(split_bounds(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(split_bounds(0, 2), vec![(0, 0), (0, 0)]);
        for (bounds, count) in [(split_bounds(10, 3), 10), (split_bounds(2, 4), 2)] {
            assert_eq!(bounds.first().unwrap().0, 0);
            assert_eq!(bounds.last().unwrap().1, count);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    #[test]
    fn locate_maps_globals_to_shard_locals() {
        let bounds = split_bounds(10, 3);
        assert_eq!(locate(&bounds, 0), Some((0, 0)));
        assert_eq!(locate(&bounds, 3), Some((0, 3)));
        assert_eq!(locate(&bounds, 4), Some((1, 0)));
        assert_eq!(locate(&bounds, 9), Some((2, 2)));
        assert_eq!(locate(&bounds, 10), None);
        // Empty trailing shards are never located into.
        let sparse = split_bounds(2, 4);
        assert_eq!(locate(&sparse, 1), Some((1, 0)));
        assert_eq!(locate(&sparse, 2), None);
    }

    #[test]
    fn routing_is_stable_and_respects_feasibility() {
        let plan = ShardPlan::new(ClusterConfig::mixed(6, 2), 4);
        // Green servers only exist in shards 0 and 1 (1 each); a
        // green-only-feasible request must route there.
        assert_eq!(plan.green_range(0), (0, 1));
        assert_eq!(plan.green_range(1), (1, 2));
        let big_green = PlacementRequest {
            target: TargetPool::PreferGreen,
            baseline_cores: 100, // > 80: no baseline server admits it
            baseline_mem_gb: 32.0,
            green_cores: 100,
            green_mem_gb: 32.0,
        };
        for id in 0..64u64 {
            let s = plan.route(id, &big_green);
            assert!(s < 2, "green-only request routed to greenless shard {s}");
            assert_eq!(s, plan.route(id, &big_green), "routing must be stable");
        }
        // An infeasible-everywhere request still routes somewhere.
        let impossible = PlacementRequest {
            target: TargetPool::BaselineOnly,
            baseline_cores: 1000,
            baseline_mem_gb: 32.0,
            green_cores: 1000,
            green_mem_gb: 32.0,
        };
        assert!(plan.route(7, &impossible) < plan.shards());
    }

    #[test]
    fn split_events_keeps_vm_pairs_together_in_order() {
        let t = sample_trace(40);
        let prepared = PreparedTrace::new(&t, &transform);
        let plan = ShardPlan::new(ClusterConfig::mixed(4, 2), 3);
        let by_shard = plan.split_events(&prepared);
        assert_eq!(by_shard.len(), 3);
        let total: usize = by_shard.iter().map(Vec::len).sum();
        assert_eq!(total, prepared.event_count());
        for events in &by_shard {
            // Time order preserved within each shard.
            for w in events.windows(2) {
                assert!(w[0].time_s <= w[1].time_s);
            }
        }
        // A VM's arrival and departure land in the same shard.
        for (s, events) in by_shard.iter().enumerate() {
            for e in events {
                let home = plan.route(prepared.vm(e.slot).id, &prepared.vm(e.slot).request);
                assert_eq!(home, s);
            }
        }
    }

    #[test]
    fn split_faults_remaps_to_local_indices() {
        let plan = ShardPlan::new(ClusterConfig::mixed(10, 0), 3);
        let fault = |server: u32| FaultEvent {
            time_s: 5.0,
            pool: FaultPool::Baseline,
            server,
            kind: FaultKind::FullFailure,
        };
        // Globals 0, 4 (first of shard 1), 9 (last of shard 2), and an
        // out-of-range 10 (dropped — the plan declares an 11-server
        // pool, but the sharded cluster only has 10).
        let split = plan.split_faults(
            &FaultPlan::new(vec![fault(0), fault(4), fault(9), fault(10)], 7, 11, 0).unwrap(),
        );
        assert_eq!(split.len(), 3);
        assert_eq!(split[0].events().iter().map(|e| e.server).collect::<Vec<_>>(), vec![0]);
        assert_eq!(split[1].events().iter().map(|e| e.server).collect::<Vec<_>>(), vec![0]);
        assert_eq!(split[2].events().iter().map(|e| e.server).collect::<Vec<_>>(), vec![2]);
        for p in &split {
            assert_eq!(p.max_evac_passes(), 7);
        }
    }

    #[test]
    fn single_shard_is_bitwise_the_unsharded_engine() {
        let t = sample_trace(60);
        let prepared = PreparedTrace::new(&t, &transform);
        let config = ClusterConfig::mixed(4, 3);
        let plan = FaultPlan::new(
            vec![FaultEvent {
                time_s: 100.0,
                pool: FaultPool::Green,
                server: 0,
                kind: FaultKind::FullFailure,
            }],
            3,
            4,
            3,
        )
        .unwrap();
        let mut flat = AllocationSim::new(config, PlacementPolicy::BestFit);
        let expected = flat.replay_prepared_faulted(&prepared, &plan);
        let mut sharded = ShardedSim::new(config, PlacementPolicy::BestFit, 1);
        let got = sharded.replay_prepared_faulted(&prepared, &plan);
        assert_eq!(got, expected);
    }

    #[test]
    fn sharded_replay_is_deterministic_across_runs_and_resets() {
        let t = sample_trace(50);
        let prepared = PreparedTrace::new(&t, &transform);
        let config = ClusterConfig::mixed(5, 3);
        let mut sim = ShardedSim::new(config, PlacementPolicy::BestFit, 3);
        let first = sim.replay_prepared(&prepared);
        sim.reset(config);
        let second = sim.replay_prepared(&prepared);
        assert_eq!(first, second);
        let fresh = ShardedSim::new(config, PlacementPolicy::BestFit, 3).replay_prepared(&prepared);
        assert_eq!(first, fresh);
    }

    #[test]
    fn shard_counts_conserve_placements() {
        // Whatever the shard count, every arrival is either placed or
        // rejected — nothing disappears in the split/merge.
        let t = sample_trace(80);
        let prepared = PreparedTrace::new(&t, &transform);
        let config = ClusterConfig::mixed(6, 4);
        for shards in [1usize, 2, 3, 5, 8] {
            let out = ShardedSim::new(config, PlacementPolicy::BestFit, shards)
                .replay_prepared(&prepared);
            assert_eq!(out.rejected + out.placed_green + out.placed_baseline, 80, "K={shards}");
        }
    }

    #[test]
    fn merge_is_identity_for_one_part_and_sums_counters() {
        let t = sample_trace(30);
        let prepared = PreparedTrace::new(&t, &transform);
        let mut sim = AllocationSim::new(ClusterConfig::mixed(3, 2), PlacementPolicy::BestFit);
        let part = sim.replay_prepared_faulted(&prepared, &FaultPlan::empty());
        let merged = merge_outcomes(vec![part.clone()]);
        assert_eq!(merged, part);
        let doubled = merge_outcomes(vec![part.clone(), part.clone()]);
        assert_eq!(doubled.0.placed_green, 2 * part.0.placed_green);
        assert_eq!(doubled.0.placed_baseline, 2 * part.0.placed_baseline);
        assert_eq!(doubled.0.metrics.snapshots(), 2 * part.0.metrics.snapshots());
    }
}
