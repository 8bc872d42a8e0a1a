//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end relative to the run's start, and the
//! span that caused it. Spans are kept in memory and written out once, when
//! the run ends; a span's self time is its duration minus the time its
//! children cover.

use swque_trace::Json;

use crate::clock::Stopwatch;

/// Index of an open or closed span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// The span recorder of one benchmark run.
#[derive(Debug)]
pub struct Spans {
    epoch: Stopwatch,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the recorder was created.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.secs()
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: 0,
            end_ns: None,
        });
        // Read the clock last, so the span does not time its own bookkeeping.
        let id = self.spans.len() - 1;
        self.spans[id].start_ns = self.epoch.ns();
        id
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.epoch.ns();
        let span = &mut self.spans[id];
        span.end_ns = Some(end);
        end.saturating_sub(span.start_ns)
    }

    /// Runs `f` inside a span; returns its value and the span's duration.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name, Some(parent));
        let value = f();
        (value, self.close(id))
    }

    fn duration(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        s.end_ns.map_or(0, |end| end.saturating_sub(s.start_ns))
    }

    /// Total duration of every closed span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i))
            .sum()
    }

    /// Every span with its self time, as a JSON array.
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.duration(i);
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::from(i)),
                        ("name", Json::from(s.name.as_str())),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", s.end_ns.map_or(Json::Null, Json::from)),
                        (
                            "self_ns",
                            Json::from(self.duration(i).saturating_sub(child_ns[i])),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let root = spans.open("root", None);
        let (_, child) = spans.time("child", root, || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        let total = spans.close(root);
        assert!(total >= child);
        assert_eq!(spans.total_ns("child"), child);
        let json = spans.to_json();
        let rows = json.as_arr().expect("array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(
            rows[0].get("self_ns").and_then(Json::as_u64),
            Some(total - child)
        );
    }
}
