//! Spans, sample statistics and metric records shared by every workload.
//!
//! Spans are recorded only by this benchmark, around its own calls into the
//! workspace crates' public functions. A disabled [`Tracer`] records nothing,
//! so the untraced run pays one branch per would-be span.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (its index in the dump).
pub type SpanId = u32;

/// One closed span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// In-memory span recorder, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id
    /// (`None` when tracing is off).
    pub fn record(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name: name.into(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
        };
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(span);
        Some((spans.len() - 1) as SpanId)
    }

    /// Opens a span whose end is not known yet, so children can name it as
    /// their parent; close it with [`Tracer::close`].
    pub fn open(&self, name: impl Into<String>, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.offset(Instant::now());
            self.spans.lock().expect("span list lock poisoned")[id as usize].end_ns = end;
        }
    }

    /// Times `f` as a span.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Sum of the durations of spans whose name starts with `prefix`.
    pub fn total(&self, prefix: &str) -> Duration {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::duration)
            .sum()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Quantile `q` (0..=1) of `values` by the nearest-rank rule; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Converts a duration to the number a metric reports.
pub type Scale = fn(Duration) -> f64;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `durations` in the unit `scale` converts to (0 when empty:
/// the workload never called that layer).
pub fn median_of(durations: &[Duration], scale: Scale) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    median(&durations.iter().map(|&d| scale(d)).collect::<Vec<_>>())
}

/// Calls `f` `reps` times, recording each call as a span; returns the median
/// in the unit `scale` converts to.
pub fn probe<R>(
    tracer: &Tracer,
    name: &str,
    reps: usize,
    scale: Scale,
    mut f: impl FnMut() -> R,
) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        let end = Instant::now();
        tracer.record(name, None, start, end);
        samples.push(end - start);
    }
    median_of(&samples, scale)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile (`None` for counts and single timings).
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn sampled(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            samples: Some(n),
            ..Metric::new(name, value, unit)
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure was counted (printed, never in the JSON line).
    pub failures: Vec<String>,
    /// Set-up times in seconds; `setup_s` is their median.
    pub setups: Vec<f64>,
    /// What one timed operation is, for the report.
    pub op: &'static str,
    /// Latency of each timed operation of the window, in ms.
    pub latencies_ms: Vec<f64>,
    /// Work items completed in the window and the time they took.
    pub items: usize,
    pub busy: Duration,
    pub per_layer: Vec<Metric>,
    /// Extra report lines (coverage checks and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; `Err` marks it failed with a reason.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Marks an already attempted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 7), 7);
        assert!(t.open("y", None).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_keep_parents_and_durations() {
        let t = Tracer::new(true);
        let root = t.open("root", None);
        t.span("child", root, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].duration() >= spans[1].duration());
        assert!(t.durations("child")[0] >= Duration::from_millis(2));
    }

    #[test]
    fn outcome_counts_failures() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("bad".into()));
        assert_eq!((o.attempted, o.failed), (2, 1));
    }
}
