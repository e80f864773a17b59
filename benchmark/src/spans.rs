//! Spans the benchmark records around each rep and each layer drive.
//!
//! Spans are recorded from the benchmark's own (single) driving thread, kept
//! in memory, and written out once at the end. Each span knows its parent,
//! so a layer's *self time* — its duration minus the part its children
//! cover — can be listed next to the per-layer metrics.

use spbc_trace::json::escape;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder for one thread.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span called `name`, child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end_us = self.now_us();
    }

    /// Total self time per span name, in milliseconds: each span's duration
    /// minus the durations of its direct children.
    pub fn self_times_ms(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_us) {
            let own = (s.end_us - s.start_us).saturating_sub(covered);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// The spans as Chrome trace events (`B`/`E` pairs on one thread of
    /// process `pid`), comma-joined, after the process-name metadata event.
    /// Spans are recorded in start order by one thread, so walking each
    /// span's children between its `B` and its `E` nests them as recorded.
    pub fn chrome_events(&self, pid: u32, process_name: &str) -> String {
        let mut children = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = vec![format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
            escape(process_name)
        )];
        // Explicit stack: (span, next child to visit).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in roots {
            stack.push((root, 0));
            out.push(self.begin_event(pid, root));
            while let Some(&mut (i, ref mut next)) = stack.last_mut() {
                if let Some(&c) = children[i].get(*next) {
                    *next += 1;
                    out.push(self.begin_event(pid, c));
                    stack.push((c, 0));
                } else {
                    out.push(format!(
                        "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":0,\"ts\":{}}}",
                        self.spans[i].end_us
                    ));
                    stack.pop();
                }
            }
        }
        out.join(",")
    }

    fn begin_event(&self, pid: u32, i: usize) -> String {
        let s = &self.spans[i];
        let parent = s.parent.map_or(-1, |p| p as i64);
        format!(
            "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":{},\"cat\":\"bench\",\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
            s.start_us,
            escape(&s.name)
        )
    }
}

/// Splice extra comma-joined events into the front of a Chrome trace
/// rendered by `spbc_trace::chrome_trace` (`{"traceEvents":[...],...}`).
pub fn splice_into_chrome_trace(trace: &str, events: &str) -> String {
    const HEAD: &str = "{\"traceEvents\":[";
    match trace.strip_prefix(HEAD) {
        Some(rest) if rest.starts_with(']') => format!("{HEAD}{events}{rest}"),
        Some(rest) => format!("{HEAD}{events},{rest}"),
        None => trace.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spbc_trace::json::parse;

    fn fixed(spans: &[(&str, u64, u64, Option<usize>)]) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: spans
                .iter()
                .map(|&(n, s, e, p)| Span { name: n.into(), start_us: s, end_us: e, parent: p })
                .collect(),
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let s = fixed(&[
            ("run", 0, 10_000, None),
            ("layer", 1_000, 7_000, Some(0)),
            ("drive", 2_000, 3_000, Some(1)),
            ("drive", 4_000, 6_500, Some(1)),
        ]);
        let t = s.self_times_ms();
        assert_eq!(t["run"], 4.0);
        assert_eq!(t["layer"], 2.5);
        assert_eq!(t["drive"], 3.5);
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let mut s = Spans::new();
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        s.exit(inner);
        s.exit(outer);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans[0].end_us >= s.spans[1].end_us);
        assert!(s.open.is_empty());
    }

    #[test]
    fn chrome_events_balance_even_at_equal_timestamps() {
        let s = fixed(&[
            ("a", 0, 10, None),
            ("b", 0, 10, Some(0)),
            ("c", 10, 10, None),
            ("d", 10, 20, None),
        ]);
        let doc = format!("[{}]", s.chrome_events(1, "bench"));
        let v = parse(&doc).unwrap();
        let mut stack = Vec::new();
        for e in v.as_arr().unwrap() {
            match e.get("ph").unwrap().as_str().unwrap() {
                "B" => stack.push(e.get("name").unwrap().as_str().unwrap().to_string()),
                "E" => {
                    stack.pop().expect("E without B");
                }
                _ => {}
            }
            // "b" may only be open while "a" is.
            if stack.iter().any(|n| n == "b") {
                assert_eq!(stack[0], "a");
            }
        }
        assert!(stack.is_empty());
    }

    #[test]
    fn splice_keeps_the_trace_parseable() {
        let s = fixed(&[("rep", 0, 5, None)]);
        let ev = s.chrome_events(1, "bench");
        for trace in [
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}",
            "{\"traceEvents\":[{\"ph\":\"i\",\"ts\":1}],\"displayTimeUnit\":\"ms\"}",
        ] {
            let out = splice_into_chrome_trace(trace, &ev);
            let v = parse(&out).unwrap();
            assert!(v.get("traceEvents").unwrap().as_arr().unwrap().len() >= 3);
        }
    }
}
