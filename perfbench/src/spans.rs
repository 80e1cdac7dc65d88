//! Benchmark-owned spans around each call into the simulator.
//!
//! Spans stay in memory while a pass runs and are written out once,
//! when the run ends. Each span holds its name, start and end (host
//! nanoseconds since the pass began), the span that was open when it
//! started, and the cell it belongs to.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the interval covers (`stage`, `build_host`, `run`, `cell`, …).
    pub name: String,
    /// Host nanoseconds from the pass origin to the start.
    pub start_ns: u64,
    /// Host nanoseconds from the pass origin to the end (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell this span belongs to, if any.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in host seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The spans of one pass.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &str, cell: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and
    /// returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &str, cell: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Times `f` as a span named `name`; a panic in `f` closes the span
    /// and yields `None`.
    pub fn try_time<R>(
        &mut self,
        name: &str,
        cell: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        let id = self.open(name, cell);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
        self.close(id);
        out
    }

    /// Total seconds of the spans named `name` or `name:<detail>`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Durations of the spans named `name` or `name:<detail>`, in
    /// opening order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| {
                s.name
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with(':'))
            })
            .map(Span::seconds)
            .collect()
    }

    /// Appends the spans as a JSON array.
    pub fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.cell)
            );
        }
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut spans = Spans::new();
        let outer = spans.open("pass", None);
        let a = spans.time("cell", Some(0), || 1);
        let b = spans.time("cell:fig4", Some(1), || 2);
        spans.time("cells", None, || ());
        spans.close(outer);
        assert_eq!(a + b, 3);
        let all = &spans.spans;
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].cell, Some(1));
        assert_eq!(spans.durations("cell").len(), 2);
        assert!(spans.total("pass") >= spans.total("cell"));
        let mut json = String::new();
        spans.write_json(&mut json);
        assert!(json.starts_with("[{\"name\":\"pass\""));
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut spans = Spans::new();
        let outer = spans.open("pass", None);
        let _inner = spans.open("cell", None);
        spans.close(outer);
    }
}
