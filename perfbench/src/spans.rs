//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each module's public functions. Each records its name, start, end,
//! parent and request id; they stay in memory and are written out as
//! JSON lines when the run ends. A span's *self time* is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::measure::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// One thread's spans. Recorders of several threads share an epoch so
/// their timestamps line up when merged.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder whose spans only run their closure.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span of this recorder.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Records an already-timed interval as a root span (used for client
    /// round trips, whose timer starts before the request is written).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time in µs of every span: duration minus the union of its
/// children's intervals.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)) as f64 / 1e3
        })
        .collect()
}

/// Per-request totals of each span name: for every request id, the sum
/// of the self times (or, with `total`, the durations) of the spans with
/// that name. One sample per request that has the name.
pub fn per_request(spans: &[Span], total: bool) -> BTreeMap<&'static str, Samples> {
    let selfs = self_times_us(spans);
    let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let v = if total {
            (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1e3
        } else {
            self_us
        };
        *sums.entry((s.name, s.request)).or_default() += v;
    }
    let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for ((name, _), v) in sums {
        out.entry(name).or_default().push(v);
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 10_000, None),
            span("a", 1_000, 4_000, Some(0)),
            span("b", 3_000, 6_000, Some(0)),
            span("c", 8_000, 9_000, Some(0)),
        ];
        let selfs = self_times_us(&spans);
        // Children cover [1, 6) and [8, 9) µs: 6 of the root's 10.
        assert_eq!(selfs, vec![4.0, 3.0, 3.0, 1.0]);
    }
}
