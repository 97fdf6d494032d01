//! In-memory spans around the calls the benchmark makes into each layer,
//! written out at exit as Chrome Trace Event JSON (`"ph": "X"` complete
//! events), which Perfetto and `chrome://tracing` open.
//!
//! Every span is also the benchmark's stopwatch: [`Spans::close`]
//! returns the elapsed time whether or not the recorder is enabled. A
//! disabled recorder (the measurement run) stores nothing, so the
//! end-to-end numbers are taken with tracing off.

use louvain_core::json::Json;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// Offset from the recorder's creation.
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
    args: Vec<(String, Json)>,
}

/// Handle of an open span; pass it back to [`Spans::close`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    start: Instant,
    id: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { start, id: None };
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: start - self.t0,
            dur: Duration::ZERO,
            parent: self.stack.last().copied(),
            args: Vec::new(),
        });
        self.stack.push(id);
        Open {
            start,
            id: Some(id),
        }
    }

    /// Closes `open` and returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if let Some(id) = open.id {
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].dur = dur;
        }
        dur
    }

    pub fn annotate(&mut self, open: Open, key: &str, value: Json) {
        if let Some(id) = open.id {
            self.spans[id].args.push((key.to_string(), value));
        }
    }

    /// Total and self time per span name, in first-seen order. Self time
    /// is a span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> Vec<(&'static str, Duration, Duration)> {
        let mut child_cover = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.dur;
            }
        }
        let mut out: Vec<(&'static str, Duration, Duration)> = Vec::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            let own = s.dur.saturating_sub(cover);
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += s.dur;
                    row.2 += own;
                }
                None => out.push((s.name, s.dur, own)),
            }
        }
        out
    }

    /// The spans as a Chrome Trace Event document (timestamps in µs).
    pub fn chrome_trace(&self) -> Json {
        let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("cat".to_string(), Json::Str("louvain-perf".to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("ts".to_string(), us(s.start)),
                    ("dur".to_string(), us(s.dur)),
                    ("pid".to_string(), Json::UInt(1)),
                    ("tid".to_string(), Json::UInt(1)),
                    ("args".to_string(), Json::Obj(s.args.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_times_but_stores_nothing() {
        let mut s = Spans::new(false);
        let o = s.open("x");
        s.annotate(o, "k", Json::UInt(1));
        std::thread::sleep(Duration::from_millis(1));
        assert!(s.close(o) >= Duration::from_millis(1));
        assert!(s.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.open("outer");
        let inner = s.open("inner");
        std::thread::sleep(Duration::from_millis(2));
        let inner_d = s.close(inner);
        let outer_d = s.close(outer);
        let rows = s.self_times();
        assert_eq!(rows[0].0, "outer");
        assert_eq!(rows[0].2, outer_d - inner_d);
        assert_eq!(rows[1], ("inner", inner_d, inner_d));
        assert_eq!(s.spans[1].parent, Some(0));
    }
}
