//! Harness-side spans: one per call into a layer, recorded in memory and
//! written out when the child exits. A span's self time is its duration
//! minus the part its children cover, so the self times of a tree sum to
//! the root's duration.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.add(name, now, now, parent)
    }

    pub fn close(&mut self, id: usize) -> &Span {
        self.spans[id].end_ns = self.now_ns();
        &self.spans[id]
    }

    /// Records a span whose bounds were measured elsewhere (a heartbeat
    /// timestamp, a `RoundWalls` duration laid out from the round's start).
    /// Clamped into its parent so self times stay non-negative.
    pub fn add(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        let (mut start_ns, mut end_ns) = (start_ns, end_ns.max(start_ns));
        if let Some(p) = parent {
            let p = &self.spans[p];
            if p.end_ns > p.start_ns {
                start_ns = start_ns.clamp(p.start_ns, p.end_ns);
                end_ns = end_ns.clamp(start_ns, p.end_ns);
            }
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of `id` not covered by its direct children, in seconds.
    /// Children of one parent are laid end to end by every caller, so the
    /// covered part is the sum of their durations.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        own.saturating_sub(children) as f64 / 1e9
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, workload}`.
    pub fn to_ndjson(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"self_ns\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                (self.self_seconds(id) * 1e9).round() as u64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut s = Spans::new();
        let root = s.add("root", 0, 1_000, None);
        let a = s.add("a", 0, 400, Some(root));
        s.add("a.1", 100, 250, Some(a));
        s.add("b", 400, 900, Some(root));
        let total: f64 = (0..s.all().len()).map(|i| s.self_seconds(i)).sum();
        assert!((total - s.get(root).seconds()).abs() < 1e-12);
        assert!((s.self_seconds(root) - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn measured_children_are_clamped_into_their_parent() {
        let mut s = Spans::new();
        let root = s.add("root", 100, 200, None);
        let c = s.add("late", 150, 400, Some(root));
        assert_eq!((s.get(c).start_ns, s.get(c).end_ns), (150, 200));
        assert!(s.self_seconds(root) >= 0.0);
    }

    #[test]
    fn ndjson_has_one_line_per_span() {
        let mut s = Spans::new();
        let root = s.add("root", 0, 10, None);
        s.add("leaf", 2, 5, Some(root));
        let text = s.to_ndjson("w");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"workload\":\"w\""));
    }
}
