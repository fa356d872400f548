//! Host-clock spans recorded from outside the library: the benchmark
//! wraps each call into a layer's public function in a span. Spans stay
//! in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Per-name aggregate: self time (duration minus the part covered by
/// direct children) and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub self_ns: u64,
    pub calls: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation (one fit, one replayed round, one
    /// request): spans recorded from now on carry its fresh id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let op = self.op;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a leaf span that started at `start_ns` and ends now; used
    /// where the name depends on the call's result.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
            e.calls += 1;
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `op  name  start_ns  end_ns  parent` (parent is a line index or -1).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        w.flush()
    }
}
