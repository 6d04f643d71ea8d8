//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer; the library itself is not instrumented. The recorder
//! keeps every span in memory and renders them once, at the end.

use std::time::Instant;

/// One closed interval of benchmark work.
pub struct Span {
    pub name: String,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_s = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its direct children cover
    /// (children never overlap: the recorder is single-threaded).
    pub fn self_time(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_s - c.start_s)
            .sum();
        (s.end_s - s.start_s) - children
    }

    /// JSON array of `{name, start_s, end_s, self_s, parent}` objects.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\": {:?}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \"parent\": {}}}",
                    s.name,
                    s.start_s,
                    s.end_s,
                    self.self_time(i),
                    s.parent.map_or_else(|| "null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t.self_time(0) < spans[0].end_s - spans[0].start_s);
        assert!(t.self_time(1) >= 0.004);
    }
}
