//! In-memory spans around calls into the system's public API, their
//! per-stage self times, and a Chrome trace-event rendering.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
    /// Which traced season of the run the span belongs to.
    pub season: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records nested spans; [`Tracer::enter`] and [`Tracer::exit`] must
/// pair up like brackets.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    season: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            season: 0,
        }
    }

    /// Opens a span as a child of the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            cell,
            season: self.season,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end = self.origin.elapsed();
        assert_eq!(self.open.pop(), Some(id), "spans close in nesting order");
        self.spans[id].end = end;
    }

    /// Starts the next traced season: later spans carry its number.
    pub fn next_season(&mut self) {
        assert!(self.open.is_empty(), "a season starts with no open span");
        self.season += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): one complete event per span, times in microseconds.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"loadbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"cell\":{cell},\"season\":{},\"workload\":\"{workload}\"}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.season,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One stage of a season: every span with that name.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    pub name: &'static str,
    pub calls: usize,
    pub total: f64,
    /// Duration minus the part covered by direct children.
    pub self_time: f64,
}

/// Per-stage totals and self times over the spans below `root`
/// (inclusive), in order of first appearance.
pub fn stages(spans: &[Span], root: usize) -> Vec<Stage> {
    let mut inside = vec![false; spans.len()];
    let mut children = vec![0.0; spans.len()];
    inside[root] = true;
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        // Spans are recorded in start order, so a parent precedes its
        // children and membership propagates in one pass.
        if let Some(p) = s.parent.filter(|&p| inside[p]) {
            inside[i] = true;
            children[p] += s.secs();
        }
    }
    let mut out: Vec<Stage> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| inside[*i]) {
        let self_time = s.secs() - children[i];
        match out.iter_mut().find(|st| st.name == s.name) {
            Some(st) => {
                st.calls += 1;
                st.total += s.secs();
                st.self_time += self_time;
            }
            None => out.push(Stage {
                name: s.name,
                calls: 1,
                total: s.secs(),
                self_time,
            }),
        }
    }
    out
}

/// Share of `root`'s wall time covered by its direct children.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::secs)
        .sum();
    covered / spans[root].secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            cell: None,
            season: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("season", 0, 100, None),
            span("plan", 0, 30, Some(0)),
            span("negotiate", 30, 80, Some(0)),
            span("inner", 40, 60, Some(2)),
            span("other-season", 100, 200, None),
            span("plan", 100, 150, Some(4)),
        ];
        let st = stages(&spans, 0);
        let names: Vec<_> = st.iter().map(|s| s.name).collect();
        assert_eq!(names, ["season", "plan", "negotiate", "inner"]);
        let get = |n| st.iter().find(|s| s.name == n).unwrap();
        assert!((get("season").self_time - 0.020).abs() < 1e-9);
        assert!((get("negotiate").self_time - 0.030).abs() < 1e-9);
        assert_eq!(get("plan").calls, 1, "the other season's plan is excluded");
        assert!((coverage(&spans, 0) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_renders() {
        let mut t = Tracer::new();
        let root = t.enter("season", None);
        let child = t.enter("negotiate", Some(3));
        t.exit(child);
        t.exit(root);
        assert_eq!(t.spans()[child].parent, Some(root));
        let json = t.chrome_json("w");
        assert!(json.contains("\"name\":\"negotiate\""));
        assert!(json.contains("\"cell\":3"));
        assert!(json.contains("\"parent\":0"));
    }
}
