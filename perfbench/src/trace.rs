//! In-memory spans recorded by the benchmark around its own calls into each layer,
//! written out as a Chrome trace (`chrome://tracing`, Perfetto) when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span. `id` groups the spans of one request (0 for spans that belong
/// to no request), `parent` names the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub id: u64,
    pub parent: &'static str,
}

/// The span store of one run. Disabled recorders keep nothing and cost one branch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span between two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
                id,
                parent,
            });
        }
    }

    /// Time `f`, record it as a span, and return its result with its duration in µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, id, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// Durations (µs) of every span named `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Render every span as Chrome trace JSON.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // One lane for request lifetimes (root spans), one for the replay, one for
            // the generator's calls, so overlapping spans never share a lane.
            let lane = match s.parent {
                "" => 2,
                "replay" => 3,
                _ => 1,
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
                s.name, lane, s.start_us, s.dur_us, s.id, s.parent
            );
        }
        out.push_str("]}\n");
        out
    }
}
