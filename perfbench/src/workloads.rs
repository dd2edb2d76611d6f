//! The three benchmark workloads: their inputs, set-up, black-box op,
//! traced rebuild of the op, and outcome digests.
//!
//! Every input is made from the workload seed. The default seed (2024)
//! with full-size inputs reproduces the `gsf-bench` fixtures, and its
//! outcome digests are pinned below. The pins are regression pins on
//! synthetic traces: the model is not validated against production
//! data for these traces, so no accuracy figure is claimed.

use crate::spans::Spans;
use gsf_carbon::breakdown::FleetCategory;
use gsf_carbon::component::ComponentClass;
use gsf_carbon::datasets::open_source;
use gsf_carbon::units::CarbonIntensity;
use gsf_carbon::ServerSpec;
use gsf_cluster::savings_fraction;
use gsf_cluster::sizing::{
    right_size_baseline_only_prepared, right_size_mixed_prepared, AvailabilitySlo, ClusterPlan,
    FaultInjection,
};
use gsf_core::components::MaintenanceComponent;
use gsf_core::{
    EvalContext, GreenSkuDesign, GsfPipeline, PipelineConfig, PipelineOutcome, SizingOutcome,
    VmRouter,
};
use gsf_maintenance::{ComponentAfrs, FaultModel, FaultTopology, FipPolicy, PoolDevices};
use gsf_stats::rng::SeedFactory;
use gsf_vmalloc::{
    AllocationSim, ClusterConfig, FaultSummary, PlacementRequest, PreparedTrace, ServerShape,
};
use gsf_workloads::{
    decode_chunks, write_chunks, ServerGeneration, Trace, TraceGenerator, TraceParams, VmSpec,
    DEFAULT_CHUNK_EVENTS,
};
use std::hint::black_box;
use std::sync::Arc;

/// The seed whose full-size outcomes are pinned.
pub const DEFAULT_SEED: u64 = 2024;

/// Fault-sampling seed of `faults-24k` (the `gsf faults` default).
const FAULT_SEED: u64 = 7;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["fleet-24k", "faults-24k", "sweep-warm"];

pub type BenchResult<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// FNV-1a over 64-bit words: the outcome digest.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn words(self, ws: &[u64]) -> Self {
        ws.iter().fold(self, |d, &w| d.word(w))
    }
}

/// Combines per-op reference digests into one workload digest.
fn combine(digests: &[u64]) -> u64 {
    Digest::new().words(digests).0
}

/// The checked part of one pipeline evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub baseline_only: u32,
    pub plan: ClusterPlan,
    pub plan_buffered: ClusterPlan,
    pub cluster_savings: f64,
    pub dc_savings: f64,
    pub faults: FaultSummary,
    pub rejected: usize,
}

impl Outcome {
    fn from_pipeline(o: &PipelineOutcome) -> Self {
        Self {
            baseline_only: o.baseline_only_servers,
            plan: o.plan,
            plan_buffered: o.plan_buffered,
            cluster_savings: o.cluster_savings,
            dc_savings: o.dc_savings,
            faults: o.faults,
            rejected: o.replay.rejected,
        }
    }

    fn digest(&self) -> u64 {
        let f = &self.faults;
        let a = &f.availability;
        Digest::new()
            .words(&[
                u64::from(self.baseline_only),
                u64::from(self.plan.baseline),
                u64::from(self.plan.green),
                u64::from(self.plan_buffered.baseline),
                u64::from(self.plan_buffered.green),
                self.cluster_savings.to_bits(),
                self.dc_savings.to_bits(),
                f.full_failures as u64,
                f.partial_degrades as u64,
                f.revivals as u64,
                f.displaced as u64,
                f.evacuated as u64,
                f.evacuation_failures as u64,
                f.cores_lost,
                f.mem_lost_gb.to_bits(),
                a.vm_seconds_lost.to_bits(),
                a.vm_seconds_served.to_bits(),
                a.max_simultaneous_displaced as u64,
                a.blast_radius_servers as u64,
                a.server_down_seconds.to_bits(),
                self.rejected as u64,
            ])
            .0
    }
}

/// Work counts of the last traced op, reported as per-layer counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub rejected: usize,
    pub displaced: usize,
    pub evacuated: usize,
    pub evacuation_failures: usize,
    pub fault_events: usize,
    pub servers: u32,
    pub events: usize,
}

/// Cache lookups made by traced ops (`EvalContext::stats` deltas).
#[derive(Clone, Copy, Debug, Default)]
pub struct Lookups {
    pub assess_hits: usize,
    pub assess_misses: usize,
    pub sizing_hits: usize,
    pub sizing_misses: usize,
}

impl Lookups {
    fn add(&mut self, before: gsf_core::CacheStats, after: gsf_core::CacheStats) {
        self.assess_hits += after.hits - before.hits;
        self.assess_misses += after.misses - before.misses;
        self.sizing_hits += after.sizing_hits - before.sizing_hits;
        self.sizing_misses += after.sizing_misses - before.sizing_misses;
    }
}

/// One benchmark workload. An op is one closed-loop request; set-up
/// runs once per timed set-up and ends with one discarded warm-up op,
/// whose outcome becomes the reference every later op must match.
pub trait Workload {
    /// Bytes one set-up decodes.
    fn decoded_bytes(&self) -> usize;
    fn setup(&mut self, spans: &mut Spans) -> BenchResult<()>;
    /// Untimed work after the last set-up: reference outcomes that need
    /// more than the warm-up op.
    fn references(&mut self) -> BenchResult<()> {
        Ok(())
    }
    /// Runs op `i` through the public entry point; returns its digest.
    fn op(&mut self, i: usize) -> BenchResult<u64>;
    /// Rebuilds op `i` from the layers' public calls, with one span per
    /// call under an op root span; returns its digest.
    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> BenchResult<u64>;
    /// The decoded trace; an error before the first set-up.
    fn trace(&self) -> BenchResult<&Trace>;
    /// The digest op `i` must produce.
    fn expected(&self, i: usize) -> u64;
    /// One digest over every reference op outcome.
    fn combined(&self) -> u64;
    fn counts(&self) -> Counts;
    fn lookups(&self) -> Lookups;
    /// The share of a traced op its layer spans must cover.
    fn min_span_coverage(&self) -> f64 {
        0.9
    }
}

/// Builds the named workload. `smoke` shrinks every input so the whole
/// workload runs in well under a second.
pub fn make(name: &str, seed: u64, smoke: bool) -> BenchResult<Box<dyn Workload>> {
    Ok(match name {
        "fleet-24k" => Box::new(Fleet::new(seed, smoke, false)?),
        "faults-24k" => Box::new(Fleet::new(seed, smoke, true)?),
        "sweep-warm" => Box::new(Sweep::new(seed, smoke)?),
        other => return Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    })
}

/// The pinned combined digest of the reference outcomes, for the
/// default seed with full-size inputs.
pub fn pin_for(name: &str, seed: u64, smoke: bool) -> Option<u64> {
    if seed != DEFAULT_SEED || smoke {
        return None;
    }
    match name {
        "fleet-24k" => Some(0xac04_9ed3_27d2_4451),
        "faults-24k" => Some(0xe8f8_bc05_36db_04bf),
        "sweep-warm" => Some(0xaf5b_5dd0_c041_7945),
        _ => None,
    }
}

/// Encodes a trace as the chunked file a `--trace-file` run reads.
fn chunked(trace: &Trace) -> BenchResult<Vec<u8>> {
    let mut bytes = Vec::new();
    write_chunks(trace, &mut bytes, DEFAULT_CHUNK_EVENTS).map_err(err)?;
    Ok(bytes)
}

fn pool_devices(sku: &ServerSpec) -> PoolDevices {
    PoolDevices {
        dimms: sku.device_count(ComponentClass::Dram) + sku.device_count(ComponentClass::CxlDram),
        ssds: sku.device_count(ComponentClass::Ssd),
    }
}

/// `GsfPipeline::evaluate_at`, rebuilt from the public calls it makes,
/// with a span around each call into another layer. Work `core` does
/// itself (routing tables, cache lookups, savings arithmetic) stays
/// outside the child spans and shows as the root's self time.
fn rebuild_evaluate(
    ctx: &EvalContext,
    config: &PipelineConfig,
    design: &GreenSkuDesign,
    trace: &Trace,
    ci: CarbonIntensity,
    s: &mut Spans,
) -> BenchResult<(Outcome, usize)> {
    let params = config.carbon_params.with_carbon_intensity(ci);
    let (green_a, baseline_a) = s
        .span("carbon.assess", |_| {
            Ok::<_, gsf_carbon::CarbonError>((
                ctx.assess(&params, &design.carbon)?,
                ctx.baselines(&params)?,
            ))
        })
        .map_err(err)?;
    let router = VmRouter::from_assessments(&green_a, &baseline_a, design);
    let gen3_a = Arc::clone(
        &baseline_a
            .iter()
            .find(|(g, _)| *g == ServerGeneration::Gen3)
            .ok_or("Gen3 baseline assessment missing")?
            .1,
    );
    let baseline_shape = ServerShape::baseline_gen3();
    let green_shape =
        ServerShape { cores: design.carbon.cores(), mem_gb: design.carbon.memory_capacity().get() };
    let baseline_devices = pool_devices(&open_source::baseline_gen3());
    let green_devices = pool_devices(&design.carbon);
    let decision_signature = router.decision_signature();
    let mut fault_signature = config.faults.signature();
    if let Some(budget) = config.availability_slo {
        fault_signature.push(1);
        fault_signature.push(budget.to_bits());
    }
    let slo = config.availability_slo.map(|m| AvailabilitySlo { max_vm_minutes_lost: m });
    let mut fault_events = 0;

    let trace_hash = s.span("workloads.hash", |_| trace.content_hash());
    let sizing = ctx.sizing_hashed(
        trace_hash,
        &decision_signature,
        baseline_shape,
        green_shape,
        config.policy,
        config.buffer.capacity_fraction,
        &fault_signature,
        config.shards,
        || -> BenchResult<SizingOutcome> {
            let transform = |vm: &VmSpec| router.request(vm);
            let baseline_transform = |vm: &VmSpec| PlacementRequest::baseline_only(vm);
            let h = s.span("workloads.hash", |_| trace.content_hash());
            let prepared = s.span("vmalloc.prepare", |_| {
                ctx.prepared_by_hash(h, &decision_signature, || {
                    PreparedTrace::new(trace, &transform)
                })
            });
            let h = s.span("workloads.hash", |_| trace.content_hash());
            let prepared_baseline = s.span("vmalloc.prepare", |_| {
                ctx.prepared_by_hash(h, &[], || PreparedTrace::new(trace, &baseline_transform))
            });
            let injection =
                FaultInjection { model: &config.faults, baseline_devices, green_devices, slo };
            let faults = (!config.faults.is_none()).then_some(&injection);
            let n0 = s
                .span("cluster.size_baseline", |_| {
                    right_size_baseline_only_prepared(
                        &prepared_baseline,
                        baseline_shape,
                        config.policy,
                        faults,
                    )
                })
                .map_err(err)?;
            let plan = s
                .span("cluster.size_mixed", |_| {
                    right_size_mixed_prepared(
                        &prepared,
                        &prepared_baseline,
                        baseline_shape,
                        green_shape,
                        config.policy,
                        faults,
                    )
                })
                .map_err(err)?;
            let buffered = config.buffer.apply(&plan, baseline_shape.cores, green_shape.cores);
            let cluster = ClusterConfig {
                baseline_count: buffered.baseline,
                baseline_shape,
                green_count: buffered.green,
                green_shape,
            };
            let mut sim = AllocationSim::new(cluster, config.policy);
            let (replay, faults) = match faults {
                None => (
                    s.span("vmalloc.replay", |_| sim.replay_prepared(&prepared)),
                    FaultSummary::default(),
                ),
                Some(inj) => {
                    let fault_plan = s.span("maintenance.fault_plan", |_| {
                        inj.plan_for(&cluster, trace.duration_s())
                    });
                    fault_events = fault_plan.len();
                    s.span("vmalloc.faulted_replay", |_| {
                        sim.replay_prepared_faulted(&prepared, &fault_plan)
                    })
                }
            };
            Ok(SizingOutcome { baseline_only: n0, plan, replay, faults })
        },
    )?;

    // Maintenance inflation, growth buffer and savings, as the
    // pipeline's outcome assembly does them.
    let m = &config.maintenance;
    let oos_baseline = m.oos_fraction(m.repair_rate(baseline_devices.dimms, baseline_devices.ssds));
    let oos_green = m.oos_fraction(m.repair_rate(green_devices.dimms, green_devices.ssds));
    let n0 = sizing.baseline_only;
    let plan = sizing.plan;
    let baseline_buffered = config.buffer.apply(
        &ClusterPlan { baseline: n0, green: 0 },
        baseline_shape.cores,
        green_shape.cores,
    );
    let plan_buffered = config.buffer.apply(&plan, baseline_shape.cores, green_shape.cores);
    let emissions = |p: &ClusterPlan| {
        gen3_a.total_per_server() * (f64::from(p.baseline) * (1.0 + oos_baseline))
            + green_a.total_per_server() * (f64::from(p.green) * (1.0 + oos_green))
    };
    let cluster_savings =
        savings_fraction(emissions(&plan_buffered), emissions(&baseline_buffered));
    let compute_share = config
        .fleet
        .breakdown(config.renewable_fraction)
        .category_share(FleetCategory::ComputeServers);
    black_box(config.faults.expected_capacity_loss(
        &ClusterConfig {
            baseline_count: plan_buffered.baseline,
            baseline_shape,
            green_count: plan_buffered.green,
            green_shape,
        },
        baseline_devices,
        green_devices,
    ));
    black_box(router.adoption_rate_gen3());
    let outcome = Outcome {
        baseline_only: n0,
        plan,
        plan_buffered,
        cluster_savings,
        dc_savings: cluster_savings * compute_share,
        faults: sizing.faults,
        rejected: sizing.replay.rejected,
    };
    Ok((outcome, fault_events))
}

/// The router of the full design at the default parameters, for the
/// routing probe.
pub fn probe_router() -> BenchResult<VmRouter> {
    VmRouter::new(PipelineConfig::default().carbon_params, &GreenSkuDesign::full()).map_err(err)
}

/// One pass of `VmRouter::request` (adoption decision and `perf`
/// scaling) over the workload's VMs, in a probe span outside any op.
pub fn route_probe(router: &VmRouter, w: &dyn Workload, spans: &mut Spans) -> BenchResult<()> {
    let vms = w.trace()?.vms();
    spans.span("core.route", |_| {
        for vm in vms {
            black_box(router.request(vm));
        }
    });
    Ok(())
}

fn counts_of(o: &Outcome, fault_events: usize, events: usize) -> Counts {
    Counts {
        rejected: o.rejected,
        displaced: o.faults.displaced,
        evacuated: o.faults.evacuated,
        evacuation_failures: o.faults.evacuation_failures,
        fault_events,
        servers: o.plan_buffered.total(),
        events,
    }
}

/// `fleet-24k` and `faults-24k`: one cold `gsf fleet --trace-file` run
/// per op, on the ~24k-VM fleet trace, optionally fault-injected.
struct Fleet {
    bytes: Vec<u8>,
    config: PipelineConfig,
    trace: Option<Trace>,
    reference: u64,
    counts: Counts,
    lookups: Lookups,
}

impl Fleet {
    fn new(seed: u64, smoke: bool, faults: bool) -> BenchResult<Self> {
        let (hours, rate) = if smoke { (2.0, 100.0) } else { (24.0, 1000.0) };
        let trace = TraceGenerator::new(TraceParams {
            duration_hours: hours,
            arrivals_per_hour: rate,
            size_classes: vec![(8, 0.4), (16, 0.3), (32, 0.2), (64, 0.1)],
            mem_per_core_classes: vec![(4.0, 0.6), (8.0, 0.4)],
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(seed), 2);
        let mut config = PipelineConfig::default();
        if faults {
            // Paper AFRs ×20, 16-server fault domains, 3-day repair,
            // and a 60 VM-minute availability SLO. The fault seed is
            // fixed, as the trace is the workload's input: seeded fault
            // plans moved the op time by ~15 % between workload seeds.
            let paper = FaultModel::paper(FAULT_SEED);
            config.faults = FaultModel::new(
                ComponentAfrs::paper(),
                FipPolicy::paper(),
                20.0,
                1.0,
                paper.degrade_core_fraction,
                paper.degrade_mem_fraction,
                paper.max_evac_passes,
                FAULT_SEED,
            )
            .and_then(|m| m.with_topology(FaultTopology::rack(16)))
            .and_then(|m| m.with_repair_days(3.0))
            .map_err(err)?;
            config.availability_slo = Some(60.0);
        }
        Ok(Self {
            bytes: chunked(&trace)?,
            config,
            trace: None,
            reference: 0,
            counts: Counts::default(),
            lookups: Lookups::default(),
        })
    }
}

fn before_setup() -> String {
    "op before set-up".to_string()
}

impl Workload for Fleet {
    fn decoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn trace(&self) -> BenchResult<&Trace> {
        self.trace.as_ref().ok_or_else(before_setup)
    }

    fn setup(&mut self, spans: &mut Spans) -> BenchResult<()> {
        // A set-up holds one trace, as a fresh process does.
        self.trace = None;
        let trace =
            spans.span("workloads.decode", |_| decode_chunks(&self.bytes[..])).map_err(err)?;
        self.trace = Some(trace);
        self.reference = self.op(0)?;
        Ok(())
    }

    fn op(&mut self, _i: usize) -> BenchResult<u64> {
        let pipeline = GsfPipeline::new(self.config.clone());
        let outcome = pipeline.evaluate(&GreenSkuDesign::full(), self.trace()?).map_err(err)?;
        Ok(Outcome::from_pipeline(&outcome).digest())
    }

    fn traced_op(&mut self, _i: usize, spans: &mut Spans) -> BenchResult<u64> {
        let trace = self.trace.as_ref().ok_or_else(before_setup)?;
        let ctx = EvalContext::new();
        let before = ctx.stats();
        let design = GreenSkuDesign::full();
        let ci = self.config.carbon_params.carbon_intensity;
        let (outcome, fault_events) = spans
            .span("core.op", |s| rebuild_evaluate(&ctx, &self.config, &design, trace, ci, s))?;
        self.lookups.add(before, ctx.stats());
        self.counts = counts_of(&outcome, fault_events, trace.events().len());
        Ok(outcome.digest())
    }

    fn expected(&self, _i: usize) -> u64 {
        self.reference
    }

    fn combined(&self) -> u64 {
        combine(&[self.reference])
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn lookups(&self) -> Lookups {
        self.lookups
    }
}

/// `sweep-warm`: the Fig. 11/12 carbon-intensity sweep for three
/// designs runs in set-up through one shared `EvalContext`; each op is
/// one `evaluate_at` at the next of the 60 (design, intensity) points,
/// answered from the warm sizing cache.
struct Sweep {
    bytes: Vec<u8>,
    points: Vec<(GreenSkuDesign, f64)>,
    trace: Option<Trace>,
    pipeline: GsfPipeline,
    references: Vec<u64>,
    sweep_savings: Vec<f64>,
    counts: Counts,
    lookups: Lookups,
}

impl Sweep {
    fn new(seed: u64, smoke: bool) -> BenchResult<Self> {
        let (hours, rate) = if smoke { (4.0, 40.0) } else { (24.0, 80.0) };
        let trace = TraceGenerator::new(TraceParams {
            duration_hours: hours,
            arrivals_per_hour: rate,
            ..TraceParams::default()
        })
        .generate(&SeedFactory::new(seed), 1);
        let intensities: Vec<f64> = (0..20).map(|i| 0.02 + 0.48 * f64::from(i) / 19.0).collect();
        let points = [GreenSkuDesign::efficient(), GreenSkuDesign::cxl(), GreenSkuDesign::full()]
            .into_iter()
            .flat_map(|d| intensities.iter().map(move |&ci| (d.clone(), ci)))
            .collect();
        Ok(Self {
            bytes: chunked(&trace)?,
            points,
            trace: None,
            pipeline: GsfPipeline::new(PipelineConfig::default()),
            references: Vec::new(),
            sweep_savings: Vec::new(),
            counts: Counts::default(),
            lookups: Lookups::default(),
        })
    }
}

impl Workload for Sweep {
    fn decoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn trace(&self) -> BenchResult<&Trace> {
        self.trace.as_ref().ok_or_else(before_setup)
    }

    fn setup(&mut self, spans: &mut Spans) -> BenchResult<()> {
        // A set-up holds one trace and one context, as a fresh process
        // does.
        self.trace = None;
        self.pipeline = GsfPipeline::new(PipelineConfig::default());
        let trace =
            spans.span("workloads.decode", |_| decode_chunks(&self.bytes[..])).map_err(err)?;
        self.sweep_savings.clear();
        for chunk in self.points.chunks(20) {
            let intensities: Vec<f64> = chunk.iter().map(|(_, ci)| *ci).collect();
            let sweep = self
                .pipeline
                .savings_sweep_with_workers(&chunk[0].0, &trace, &intensities, 1)
                .map_err(err)?;
            self.sweep_savings.extend(sweep.iter().map(|(_, s)| *s));
        }
        self.trace = Some(trace);
        self.references.clear();
        black_box(self.op(0)?);
        Ok(())
    }

    fn op(&mut self, i: usize) -> BenchResult<u64> {
        let (design, ci) = &self.points[i % self.points.len()];
        let trace = self.trace.as_ref().ok_or_else(before_setup)?;
        let outcome =
            self.pipeline.evaluate_at(design, trace, CarbonIntensity::new(*ci)).map_err(err)?;
        Ok(Outcome::from_pipeline(&outcome).digest())
    }

    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> BenchResult<u64> {
        let (design, ci) = &self.points[i % self.points.len()];
        let trace = self.trace.as_ref().ok_or_else(before_setup)?;
        let ctx = self.pipeline.context();
        let before = ctx.stats();
        let (outcome, fault_events) = spans.span("core.op", |s| {
            rebuild_evaluate(
                ctx,
                self.pipeline.config(),
                design,
                trace,
                CarbonIntensity::new(*ci),
                s,
            )
        })?;
        self.lookups.add(before, ctx.stats());
        self.counts = counts_of(&outcome, fault_events, trace.events().len());
        Ok(outcome.digest())
    }

    /// Per-point reference digests from the warm cache, each checked
    /// against the savings the set-up sweep returned for that point.
    fn references(&mut self) -> BenchResult<()> {
        let trace = self.trace()?;
        let mut references = Vec::with_capacity(self.points.len());
        for ((design, ci), swept) in self.points.iter().zip(&self.sweep_savings) {
            let o =
                self.pipeline.evaluate_at(design, trace, CarbonIntensity::new(*ci)).map_err(err)?;
            if o.cluster_savings.to_bits() != swept.to_bits() {
                return Err(format!(
                    "{} at {ci}: evaluate_at savings {} differ from the sweep's {swept}",
                    design.name(),
                    o.cluster_savings
                ));
            }
            references.push(Outcome::from_pipeline(&o).digest());
        }
        self.references = references;
        Ok(())
    }

    fn expected(&self, i: usize) -> u64 {
        self.references[i % self.references.len()]
    }

    /// None: a tenth of this op is cache-key work inside `core`, left
    /// outside the child spans and reported as `core.self_ms`.
    fn min_span_coverage(&self) -> f64 {
        0.0
    }

    fn combined(&self) -> u64 {
        combine(&self.references)
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn lookups(&self) -> Lookups {
        self.lookups
    }
}
