//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent, request)`; the spans of one
//! request share its id. They are recorded from the benchmark's own
//! files, around the calls into each layer, kept in memory while the
//! load runs and written to `benchmark/out/trace_<workload>.jsonl`
//! afterwards. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded interval, nanoseconds from the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span sits on, e.g. `client.knn`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (search, or lock-step round) the span belongs to.
    pub request: u64,
}

/// Spans and counts of one thread of the traced run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Recorded spans; a span's id is its index.
    pub spans: Vec<Span>,
    /// Counts taken at the same boundaries.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// Record a finished span; returns its id for children to name.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Add to a named count.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Total self time per span name, ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            *out.entry(s.name).or_insert(0) += self_time(s.start_ns, s.end_ns, kids);
        }
        out
    }

    /// Write one JSON object per span, then one per count and per
    /// self-time total.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(w, "{{\"count\":\"{name}\",\"value\":{value}}}")?;
        }
        for (name, ns) in self.self_times() {
            writeln!(w, "{{\"self_time\":\"{name}\",\"ns\":{ns}}}")?;
        }
        w.flush()
    }
}

/// `[start, end)` minus the union of `children` clipped to it, ns.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.clamp(cursor, end);
        let e = e.clamp(cursor, end);
        covered += e - s;
        cursor = e;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time(10, 110, &mut []), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &mut [(10, 20), (50, 70)]), 70);
        // Overlapping children (two shards in parallel) count once.
        assert_eq!(self_time(0, 100, &mut [(10, 60), (40, 80)]), 30);
        // Children are clipped to the parent.
        assert_eq!(self_time(50, 100, &mut [(0, 60), (90, 200)]), 30);
        // A nested child changes nothing.
        assert_eq!(self_time(0, 100, &mut [(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_times_total_per_name() {
        let mut rec = Recorder::default();
        let root = rec.span("client.knn", 0, 100, None, 1);
        rec.span("server.request", 10, 90, Some(root), 1);
        let root = rec.span("client.knn", 200, 260, None, 2);
        let server = rec.span("server.request", 210, 250, Some(root), 2);
        rec.span("shard.busy", 215, 245, Some(server), 2);
        rec.count("searches", 1);
        rec.count("searches", 1);
        let st = rec.self_times();
        assert_eq!(st["client.knn"], 20 + 20);
        assert_eq!(st["server.request"], 80 + 10);
        assert_eq!(st["shard.busy"], 30);
        assert_eq!(rec.counts["searches"], 2);
        assert_eq!(rec.durations("server.request"), vec![80, 40]);
    }
}
