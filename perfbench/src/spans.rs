//! The traced run's span recorder. Spans are opened by the benchmark
//! around its calls into each layer, kept in memory, and written out at
//! exit as Chrome trace-event JSON in the `pi3d.trace.v1` shape that
//! `--trace-out` emits, so `pi3d trace` can profile a benchmark run.

use pi3d_telemetry::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span: `name` is `<layer>.<call>` or `op.<class>`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn set_enabled(on: bool) {
    let _ = epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Open span; recorded when dropped, if recording was on when opened.
pub struct Guard {
    name: &'static str,
    start: Option<Instant>,
}

pub fn span(name: &'static str) -> Guard {
    let start = ENABLED.load(Ordering::Relaxed).then(Instant::now);
    Guard { name, start }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let span = Span {
                name: self.name,
                tid: TID.with(|t| *t),
                start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
                dur_ns: start.elapsed().as_nanos() as u64,
            };
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Every span recorded so far, in recording order.
pub fn recorded() -> Vec<Span> {
    SPANS.lock().map(|s| s.clone()).unwrap_or_default()
}

/// Median duration in milliseconds of the spans named `name` (0 if none).
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    crate::measure::median(&durations)
}

/// Share of the wall time of the `op.*` spans that no layer span covers.
/// An op's layer calls may run on other threads (the coopt-sweep replay
/// fans out over two); an instant counts as covered when a layer span on
/// any thread is open.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let (mut wall, mut uncovered) = (0u64, 0u64);
    for op in spans.iter().filter(|s| s.name.starts_with("op.")) {
        let (lo, hi) = (op.start_ns, op.start_ns + op.dur_ns);
        let mut intervals: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| !s.name.starts_with("op."))
            .map(|s| (s.start_ns.max(lo), (s.start_ns + s.dur_ns).min(hi)))
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort_unstable();
        let (mut covered, mut end) = (0u64, lo);
        for (a, b) in intervals {
            let a = a.max(end);
            if b > a {
                covered += b - a;
                end = b;
            }
        }
        wall += op.dur_ns;
        uncovered += op.dur_ns - covered.min(op.dur_ns);
    }
    if wall > 0 {
        uncovered as f64 / wall as f64
    } else {
        0.0
    }
}

/// Renders spans as a Chrome trace-event document with the
/// `pi3d.trace.v1` schema marker.
pub fn to_chrome_json(spans: &[Span]) -> Json {
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut events: Vec<Json> = tids
        .iter()
        .map(|&tid| {
            Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::num(1.0)),
                ("tid", Json::num(tid as f64)),
                (
                    "args",
                    Json::obj([("name", Json::str(format!("bench-{tid}")))]),
                ),
            ])
        })
        .collect();
    events.extend(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name)),
            (
                "cat",
                Json::str(s.name.split('.').next().unwrap_or("bench")),
            ),
            ("pid", Json::num(1.0)),
            ("tid", Json::num(s.tid as f64)),
            ("ts", Json::num(s.start_ns as f64 / 1e3)),
            ("ph", Json::str("X")),
            ("dur", Json::num(s.dur_ns as f64 / 1e3)),
        ])
    }));
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([
                ("schema", Json::str("pi3d.trace.v1")),
                ("dropped_events", Json::num(0.0)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, tid: u64, start: u64, dur: u64) -> Span {
        Span {
            name,
            tid,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn unattributed_counts_op_time_no_layer_span_covers() {
        let spans = [
            sp("op.a", 1, 0, 100),
            sp("mesh.evaluate", 1, 10, 40),
            sp("solver.max_ir", 1, 50, 40),
        ];
        assert!((unattributed_frac(&spans) - 0.2).abs() < 1e-12);
        // A span on another thread covers [0, 10) as well.
        let mut two = spans.to_vec();
        two.push(sp("mesh.evaluate", 2, 0, 30));
        assert!((unattributed_frac(&two) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_carries_the_trace_schema() {
        let doc = to_chrome_json(&[sp("op.a", 1, 0, 1000)]);
        let schema = doc.get("otherData").and_then(|o| o.get("schema"));
        assert_eq!(schema.and_then(Json::as_str), Some("pi3d.trace.v1"));
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
