//! The harness's own spans. The traced run times every call into a layer's
//! public functions from here (spans inside the program are a later change),
//! keeps the spans in memory and writes them once, when the workload ends.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier shared by all spans of one query or request.
    pub query: usize,
    pub name: &'static str,
    /// Index of the span that caused this one, `None` for a query's root.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// What one traced query did, kept beside its spans.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub query: usize,
    pub label: String,
    pub pass: usize,
    pub wall_us: f64,
}

/// In-memory span store for one workload.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    pub queries: Vec<QueryRecord>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            queries: Vec::new(),
        }
    }

    /// Microseconds from the recorder's origin to `at`.
    fn at(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        query: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            query,
            name,
            parent,
            start_us: self.at(start),
            end_us: self.at(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_us();
            }
        }
        own
    }

    /// Largest share, over all queries, of a query's wall time that no
    /// layer's span covers: the self time of its root span. (Self times sum
    /// to the wall time by construction; what can go wrong is a step of the
    /// path left outside every span.)
    pub fn worst_unattributed_share(&self) -> f64 {
        let own = self.self_times_us();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(span, _)| span.parent.is_none())
            .map(|(span, own)| own / span.duration_us().max(1.0))
            .fold(0.0, f64::max)
    }

    /// Writes `trace-<workload>.json` under the benchmark's `out/` directory
    /// and returns the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let own = self.self_times_us();
        let mut json = String::with_capacity(128 * self.spans.len() + 256);
        let _ = write!(
            json,
            "{{\n\"workload\": \"{workload}\",\n\"seed\": {seed},\n\"time_unit\": \"us\",\n\"queries\": ["
        );
        for (i, q) in self.queries.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                json,
                "{sep}{{\"query\": {}, \"label\": \"{}\", \"pass\": {}, \"wall_us\": {:.1}}}",
                q.query, q.label, q.pass, q.wall_us
            );
        }
        json.push_str("\n],\n\"spans\": [");
        for (i, (span, own)) in self.spans.iter().zip(&own).enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                json,
                "{sep}{{\"id\": {i}, \"query\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}",
                span.query, span.name, span.start_us, span.end_us, own
            );
        }
        json.push_str("\n]\n}\n");
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

/// `out/` beside the benchmark's manifest: trace files and spill files live
/// here, inside the checkout, and are git-ignored.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
