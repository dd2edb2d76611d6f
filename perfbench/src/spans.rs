//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the measured crates is
//! instrumented. Spans stay in memory and are written out once, at the
//! end of the run.

use std::time::Instant;

/// What a span belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// One timed set-up (decode, warm-up op).
    Setup,
    /// One rebuilt op.
    Op,
    /// A standalone layer call made beside an op, outside its span.
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Op => "op",
            Phase::Probe => "probe",
        }
    }
}

/// One recorded span: a named interval with its cause.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    /// Set-up or op number the span belongs to.
    pub id: usize,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. A disabled recorder only runs the wrapped calls, so
/// the same code serves timed set-ups (untraced) and traced set-ups.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    phase: Phase,
    id: usize,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            phase: Phase::Setup,
            id: 0,
        }
    }

    /// Attributes the spans recorded from now on to `phase` number `id`.
    pub fn begin(&mut self, phase: Phase, id: usize) {
        self.phase = phase;
        self.id = id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            phase: self.phase,
            id: self.id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        out
    }

    /// The spans of set-ups and of the first `max_id` ops and probes as
    /// a JSON document, one object per span; `index` and `parent` are
    /// positions in the full in-memory record.
    pub fn to_json(&self, max_id: usize) -> String {
        let kept: Vec<(usize, &Span)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == Phase::Setup || s.id < max_id)
            .collect();
        let mut out = String::from("{\"spans\":[\n");
        for (n, (i, s)) in kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"index\":{i},\"name\":\"{}\",\"phase\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.phase.name(),
                s.id,
                s.start_ns,
                s.end_ns,
                if n + 1 == kept.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-unit totals of one set-up or op: summed span time by name.
pub struct Profile<'a> {
    spans: &'a [Span],
}

impl<'a> Profile<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        Self { spans }
    }

    /// Nanoseconds spent in spans named `name`, summed per op, one
    /// entry per op. Falls back to the set-ups when no op calls the
    /// layer (decode runs in set-up); empty when neither does.
    pub fn per_unit_ns(&self, name: &str) -> Vec<f64> {
        for phase in [Phase::Op, Phase::Setup] {
            let in_phase = || self.spans.iter().filter(move |s| s.phase == phase);
            let units = in_phase().map(|s| s.id + 1).max().unwrap_or(0);
            let mut sums = vec![0.0; units];
            let mut called = false;
            for s in in_phase().filter(|s| s.name == name) {
                sums[s.id] += s.ns() as f64;
                called = true;
            }
            if called {
                return sums;
            }
        }
        Vec::new()
    }

    /// Nanoseconds of probe spans named `name`, one entry per span.
    pub fn probe_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.phase == Phase::Probe && s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// For each op's root span: (root ns, ns covered by its direct
    /// children).
    pub fn op_roots(&self) -> Vec<(f64, f64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(|(s, _)| s.phase == Phase::Op && s.parent.is_none())
            .map(|(root, covered)| (root.ns() as f64, covered as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_units() {
        let mut s = Spans::new(true);
        s.begin(Phase::Op, 0);
        s.span("core.op", |s| {
            s.span("a", |_| ());
            s.span("a", |_| ());
        });
        s.begin(Phase::Op, 1);
        s.span("core.op", |s| s.span("a", |_| ()));
        assert_eq!(s.spans().len(), 5);
        assert_eq!(s.spans()[1].parent, Some(0));
        let p = Profile::new(s.spans());
        assert_eq!(p.per_unit_ns("a").len(), 2);
        assert_eq!(p.op_roots().len(), 2);
        assert!(p.per_unit_ns("missing").is_empty());
    }

    #[test]
    fn disabled_recorder_runs_the_call_only() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", |_| 7), 7);
        assert!(s.spans().is_empty());
    }
}
