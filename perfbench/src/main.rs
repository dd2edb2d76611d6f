//! GSF benchmark runner: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans <file>]
//! ```
//!
//! The load is a closed loop with one client on one thread: the next op
//! starts when the previous one returns. Set-up runs five times, spread
//! over the run (once when traced or in smoke mode), and its median is
//! reported. With `--trace 0` the end-to-end metrics are measured with
//! nothing traced; with `--trace 1` each black-box op is followed by the
//! same op rebuilt from the layers' public calls with a span around each
//! call, and the per-layer metrics come from those spans. The last line
//! of standard output is one JSON report. `perfbench/run.py` builds this
//! program, runs it and turns the report into the benchmark's result
//! line.

mod spans;
mod workloads;

use spans::{Phase, Profile, Spans};
use std::time::{Duration, Instant};
use workloads::{BenchResult, Workload};

/// Ops whose spans the spans file keeps; every op's spans feed the
/// per-layer metrics. A traced `sweep-warm` run makes ~150k ops, whose
/// spans would fill ~80 MB.
const SPAN_FILE_OPS: usize = 1000;

/// Timed set-ups per run; `setup_s` is their median. Spread over the
/// run, they see the same host as the ops do: three back-to-back
/// set-ups varied by up to a quarter of their median between runs.
const SETUPS: usize = 5;

/// Op times kept for the percentiles. A run keeps every op's time up to
/// this many ops, then a uniform sample of this many. A vector of every
/// op time grew with the op rate, and with it `peak_rss_mb`: by 1.6 MB
/// on `sweep-warm` between a quiet and a busy host.
const OP_SAMPLE: usize = 1 << 16;

/// How much faster than the black-box op the traced rebuild may be.
/// A rebuild that skips work the program does is faster; the limit is
/// the `op_ms_p50` bound of `BENCHMARK.json`.
const MAX_TRACED_SPEEDUP: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<String>,
}

fn parse_args() -> BenchResult<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err(bad(&"must be within 0..=3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required; one of {:?}", workloads::NAMES));
    }
    Ok(args)
}

/// A uniform sample of at most [`OP_SAMPLE`] values (reservoir
/// sampling, with a fixed xorshift stream so a run needs no seed).
struct Sample {
    values: Vec<f64>,
    seen: usize,
    rng: u64,
}

impl Sample {
    fn new() -> Self {
        Self { values: Vec::with_capacity(OP_SAMPLE), seen: 0, rng: 0x9e37_79b9_7f4a_7c15 }
    }

    fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < OP_SAMPLE {
            self.values.push(v);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        // `seen` fits in u64 and the remainder is below it.
        let j = (self.rng % self.seen as u64) as usize;
        if j < OP_SAMPLE {
            self.values[j] = v;
        }
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The value at the highest percentile that still has at least ten ops
/// beyond it, with that percentile, kept within p50..=p90. On a shared
/// host the percentiles above p90 of a sub-millisecond op measure host
/// stalls, not the op, and vary by half from run to run; below twenty
/// ops the percentile would fall under the median, so the median is
/// reported as percentile 50.
fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= 20 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let beyond = (n / 10).max(10);
    (v[n - 1 - beyond], 100.0 * (n - beyond) as f64 / n as f64)
}

/// Process lifetime peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    checks: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    info: Vec<(&'static str, f64)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check_op(&mut self, what: &str, result: BenchResult<u64>, expected: u64) {
        self.attempted += 1;
        let failure = match result {
            Ok(d) if d == expected => return,
            Ok(d) => {
                format!("{what}: digest {d:#018x} differs from the reference {expected:#018x}")
            }
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        // One message per kind of failure is enough to diagnose it.
        if self.checks.len() < 8 {
            self.checks.push(failure);
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// One timed set-up, then the untimed reference outcomes after it;
/// returns the combined reference digest, which must equal `first`,
/// the first set-up's, when given.
fn set_up(
    w: &mut dyn Workload,
    setup_s: &mut Vec<f64>,
    first: Option<u64>,
    report: &mut Report,
) -> BenchResult<u64> {
    let t = Instant::now();
    w.setup(&mut Spans::new(false))?;
    setup_s.push(t.elapsed().as_secs_f64());
    w.references()?;
    let digest = w.combined();
    if let Some(first) = first.filter(|&f| f != digest) {
        report.checks.push(format!(
            "set-up {} gave reference digest {digest:#018x}, the first gave {first:#018x}",
            setup_s.len()
        ));
    }
    Ok(digest)
}

/// The closed loop of black-box ops, with the timed set-ups spread over
/// it: one before the first op, one after the last, and the others at
/// even shares of the measured phase. Set-up time is left out of the
/// phase, so the ops still run for `--seconds`.
fn measure(w: &mut dyn Workload, args: &Args, report: &mut Report) -> BenchResult<()> {
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let reference = Some(set_up(w, &mut setup_s, None, report)?);

    let budget = args.seconds;
    let mut times = Sample::new();
    let mut phase_s = 0.0;
    while times.seen == 0 || phase_s < budget {
        let done = setup_s.len();
        if done + 1 < setups && phase_s >= budget * done as f64 / (setups - 1) as f64 {
            set_up(w, &mut setup_s, reference, report)?;
        }
        let i = times.seen;
        let t = Instant::now();
        let result = w.op(i);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        report.check_op(&format!("op {i}"), result, w.expected(i));
        phase_s += t.elapsed().as_secs_f64();
    }
    while setup_s.len() < setups {
        set_up(w, &mut setup_s, reference, report)?;
    }
    let rss = peak_rss_mb()?;

    let (tail_ms, tail_pct) = tail(&times.values);
    report.metric("op_ms_p50", median(&times.values), "ms");
    report.metric("op_ms_tail", tail_ms, "ms");
    report.metric("ops_per_s", times.seen as f64 / phase_s, "1/s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("setup_s", median(&setup_s), "s");
    report.info.push(("ops", times.seen as f64));
    report.info.push(("sampled_ops", times.values.len() as f64));
    report.info.push(("tail_percentile", tail_pct));
    report.info.push(("setups", setups as f64));
    report.info.push(("failed_ops_frac", report.failed as f64 / report.attempted as f64));
    Ok(())
}

/// One traced set-up, then pairs of (black-box op, rebuilt traced op),
/// each followed by a routing probe outside the op's span.
fn trace(w: &mut dyn Workload, args: &Args, report: &mut Report) -> BenchResult<Spans> {
    let mut spans = Spans::new(true);
    spans.begin(Phase::Setup, 0);
    w.setup(&mut spans)?;
    w.references()?;

    let router = workloads::probe_router()?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut untraced = Vec::new();
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed() < budget {
        let i = untraced.len();
        let t = Instant::now();
        let result = w.op(i);
        untraced.push(t.elapsed().as_secs_f64() * 1e9);
        report.check_op(&format!("op {i}"), result, w.expected(i));
        spans.begin(Phase::Op, i);
        let result = w.traced_op(i, &mut spans);
        report.check_op(&format!("traced op {i}"), result, w.expected(i));
        spans.begin(Phase::Probe, i);
        workloads::route_probe(&router, w, &mut spans)?;
    }

    let profile = Profile::new(spans.spans());
    let per_op = |name: &str| median(&profile.per_unit_ns(name));
    let roots = profile.op_roots();
    let root_ns: Vec<f64> = roots.iter().map(|r| r.0).collect();
    let self_ns: Vec<f64> = roots.iter().map(|r| r.0 - r.1).collect();
    let coverage: Vec<f64> = roots.iter().map(|r| r.1 / r.0).collect();
    let traced_p50 = median(&root_ns);
    let untraced_p50 = median(&untraced);

    let decode_ns = per_op("workloads.decode");
    let replay_ns = per_op("vmalloc.replay");
    let faulted_ns = per_op("vmalloc.faulted_replay");
    let final_replay_ns = replay_ns + faulted_ns;
    let sizing_ns = per_op("cluster.size_baseline") + per_op("cluster.size_mixed");
    let counts = w.counts();
    let lookups = w.lookups();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    report.metric("workloads.decode_ms", ms(decode_ns), "ms");
    report.metric(
        "workloads.decode_mb_per_s",
        ratio(w.decoded_bytes() as f64 / 1e6, decode_ns / 1e9),
        "MB/s",
    );
    report.metric("workloads.hash_us", per_op("workloads.hash") / 1e3, "us");
    report.metric("workloads.events", counts.events as f64, "count");
    report.metric("vmalloc.prepare_ms", ms(per_op("vmalloc.prepare")), "ms");
    report.metric("vmalloc.replay_ms", ms(replay_ns), "ms");
    report.metric(
        "vmalloc.replay_events_per_s",
        ratio(counts.events as f64, final_replay_ns / 1e9),
        "1/s",
    );
    report.metric("vmalloc.faulted_replay_ms", ms(faulted_ns), "ms");
    report.metric("vmalloc.rejected", counts.rejected as f64, "count");
    report.metric("vmalloc.displaced", counts.displaced as f64, "count");
    report.metric("vmalloc.evacuated", counts.evacuated as f64, "count");
    report.metric("vmalloc.evacuation_failures", counts.evacuation_failures as f64, "count");
    report.metric("vmalloc.servers", f64::from(counts.servers), "count");
    report.metric("cluster.size_baseline_ms", ms(per_op("cluster.size_baseline")), "ms");
    report.metric("cluster.size_mixed_ms", ms(per_op("cluster.size_mixed")), "ms");
    report.metric("cluster.replays_per_sizing", ratio(sizing_ns, final_replay_ns), "ratio");
    report.metric("maintenance.fault_plan_ms", ms(per_op("maintenance.fault_plan")), "ms");
    report.metric("maintenance.fault_events", counts.fault_events as f64, "count");
    report.metric("carbon.assess_us", per_op("carbon.assess") / 1e3, "us");
    report.metric("core.route_ms", ms(median(&profile.probe_ns("core.route"))), "ms");
    report.metric("core.self_ms", ms(median(&self_ns)), "ms");
    report.metric(
        "core.sizing_hit_ratio",
        ratio(lookups.sizing_hits as f64, (lookups.sizing_hits + lookups.sizing_misses) as f64),
        "ratio",
    );
    report.metric(
        "core.assess_hit_ratio",
        ratio(lookups.assess_hits as f64, (lookups.assess_hits + lookups.assess_misses) as f64),
        "ratio",
    );
    report.metric("core.span_coverage", median(&coverage), "ratio");
    report.metric("core.traced_op_ms", ms(traced_p50), "ms");
    report.metric(
        "core.trace_overhead_frac",
        ratio(traced_p50 - untraced_p50, untraced_p50),
        "ratio",
    );
    report.info.push(("ops", untraced.len() as f64));
    report.info.push(("untraced_op_ms_p50", ms(untraced_p50)));

    // The profile must still describe the program's op: its layers
    // cover the op, and the rebuild does not skip work the op does.
    let floor = w.min_span_coverage();
    if median(&coverage) < floor {
        report.checks.push(format!(
            "layer spans cover {:.3} of the traced op, below {floor}",
            median(&coverage)
        ));
    }
    // With one op of each (smoke) the two medians are single timings.
    if !args.smoke && traced_p50 < untraced_p50 * (1.0 - MAX_TRACED_SPEEDUP) {
        report.checks.push(format!(
            "traced op p50 {:.6} ms is more than {MAX_TRACED_SPEEDUP} below the black-box {:.6} ms",
            ms(traced_p50),
            ms(untraced_p50)
        ));
    }
    Ok(spans)
}

fn run(args: &Args) -> BenchResult<String> {
    let mut w = workloads::make(&args.workload, args.seed, args.smoke)?;
    let mut report = Report::default();
    let spans = if args.trace {
        Some(trace(w.as_mut(), args, &mut report)?)
    } else {
        measure(w.as_mut(), args, &mut report)?;
        None
    };
    let combined = w.combined();
    let pin = workloads::pin_for(&args.workload, args.seed, args.smoke);
    if let Some(pin) = pin {
        if combined != pin {
            report.checks.push(format!(
                "outcome digest {combined:#018x} differs from the pinned {pin:#018x} for seed {}",
                args.seed
            ));
        }
    }
    if let (Some(path), Some(spans)) = (&args.spans, &spans) {
        std::fs::write(path, spans.to_json(SPAN_FILE_OPS))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    let correct = report.checks.is_empty() && report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(n),
                json_number(*v),
                json_string(u)
            )
        })
        .collect();
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(n, v)| format!("{}:{}", json_string(n), json_number(*v)))
        .collect();
    let checks: Vec<String> = report.checks.iter().map(|c| json_string(c)).collect();
    Ok(format!(
        "{{\"workload\":{},\"seed\":{},\"smoke\":{},\"trace\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"digest\":\"{combined:#018x}\",\"pinned\":{},\"checks\":[{}],\"info\":{{{}}},\"metrics\":{{{}}}}}",
        json_string(&args.workload),
        args.seed,
        args.smoke,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        pin.is_some(),
        checks.join(","),
        info.join(","),
        metrics.join(","),
    ))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_ops_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many), (9000.0, 90.0));
        assert_eq!(tail(&v[..21]), (11.0, 100.0 * 11.0 / 21.0));
        assert_eq!(tail(&v[..5]), (3.0, 50.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn sample_keeps_at_most_op_sample_values() {
        let mut s = Sample::new();
        let n = 4 * OP_SAMPLE;
        for v in 0..n {
            s.push(v as f64);
        }
        assert_eq!((s.seen, s.values.len()), (n, OP_SAMPLE));
        // A uniform sample of 0..n has its median near n / 2.
        let m = median(&s.values) / n as f64;
        assert!((0.48..0.52).contains(&m), "{m}");
    }
}
