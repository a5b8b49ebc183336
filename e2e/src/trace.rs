//! Spans and count deltas, recorded from outside the program: one root
//! span per operation, one child span per call into a layer's public
//! function. Everything stays in memory until the workload ends.

use std::time::Instant;

use crate::json::Json;

/// Indices into [`Counts`]. Every one of these is work the program
/// reports about itself (or a size the harness reads off a public
/// value); with one client thread they repeat exactly for a seed.
pub mod c {
    pub const STMT_BYTES: usize = 0;
    pub const PARSES: usize = 1;
    pub const TERM_SIZE_IN: usize = 2;
    pub const TERM_SIZE_OUT: usize = 3;
    pub const EST_COST_IN: usize = 4;
    pub const EST_COST_OUT: usize = 5;
    pub const KERNEL_RUNS: usize = 6;
    pub const CHECKS: usize = 7;
    pub const APPLICATIONS: usize = 8;
    pub const REJECTED: usize = 9;
    pub const TERM_HITS: usize = 10;
    pub const TERM_MISSES: usize = 11;
    pub const SHAPE_HITS: usize = 12;
    pub const SHAPE_MISSES: usize = 13;
    pub const EVICTIONS: usize = 14;
    pub const INVALIDATIONS: usize = 15;
    pub const EVALS: usize = 16;
    pub const ROWS_EMITTED: usize = 17;
    pub const COMBINATIONS: usize = 18;
    pub const FIX_ITERATIONS: usize = 19;
    pub const RESULT_ROWS: usize = 20;
    pub const N: usize = 21;
}

/// Names of the counters, as they appear in a trace file and in the
/// determinism self-check's error message.
pub const COUNT_NAMES: [&str; c::N] = [
    "esql.stmt_bytes",
    "esql.parses",
    "lera.term_size_in",
    "lera.term_size_out",
    "lera.est_cost_in",
    "lera.est_cost_out",
    "rewrite.kernel_runs",
    "rewrite.condition_checks",
    "rewrite.applications",
    "rewrite.rejected",
    "core.term_hits",
    "core.term_misses",
    "core.shape_hits",
    "core.shape_misses",
    "core.evictions",
    "core.invalidations",
    "engine.evals",
    "engine.rows_emitted",
    "engine.combinations_tried",
    "engine.fix_iterations",
    "engine.result_rows",
];

/// Count deltas of one operation, or their sum over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts(pub [u64; c::N]);

impl Counts {
    pub fn add(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// One timed interval. `id` is 1-based; `parent` 0 marks an
/// operation's root span. Spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub kind: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items the span processed (rows loaded, objects created); 1 for a
    /// plain call. Per-call means divide by this.
    pub units: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of every operation's root span.
pub const ROOT: &str = "op";

/// The span recorder. When off, `enter`/`exit` do nothing, so set-up
/// code can be written once for traced and untraced sessions.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    ops: u32,
    kind: &'static str,
    /// Count deltas per operation, in operation order.
    pub counts: Vec<(u32, Counts)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
            kind: "",
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new operation of `kind`.
    pub fn begin_op(&mut self, kind: &'static str) -> u32 {
        self.ops += 1;
        self.kind = kind;
        self.enter(ROOT)
    }

    /// Operations begun so far; the next one gets this plus one.
    pub fn ops(&self) -> u32 {
        self.ops
    }

    /// Close the operation's root span and keep its count deltas.
    pub fn end_op(&mut self, root: u32, counts: Counts) {
        self.exit(root);
        if self.on {
            self.counts.push((self.ops, counts));
        }
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.ops,
            kind: self.kind,
            name,
            start_ns: 0,
            end_ns: 0,
            units: 1,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping stays out of the interval.
        self.spans[id as usize - 1].start_ns = self.now_ns();
        id
    }

    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Close a span whose name depends on what the call did.
    pub fn exit_as(&mut self, id: u32, name: &'static str) {
        self.exit(id);
        if self.on {
            self.spans[id as usize - 1].name = name;
        }
    }

    /// Close a span that processed `units` items.
    pub fn exit_units(&mut self, id: u32, units: u64) {
        self.exit(id);
        if self.on {
            self.spans[id as usize - 1].units = units;
        }
    }

    /// Sum of the count deltas of the operations numbered `from_op` up.
    pub fn counts_from(&self, from_op: u32) -> Counts {
        let mut total = Counts::default();
        for (_, counts) in self.counts.iter().filter(|(op, _)| *op >= from_op) {
            total.add(counts);
        }
        total
    }

    /// Spans directly under a root: the layer boundaries.
    pub fn stages(&self) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(|s| s.parent != 0 && self.spans[s.parent as usize - 1].parent == 0)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The trace file's content: spans with their self time, and the
    /// non-zero count deltas of each operation.
    pub fn to_json(&self) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("id", Json::from(u64::from(s.id))),
                    ("parent", Json::from(u64::from(s.parent))),
                    ("op", Json::from(u64::from(s.op))),
                    ("kind", Json::from(s.kind)),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(self_ns)),
                    ("units", Json::from(s.units)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(op, counts)| {
                let mut fields = vec![("op".to_owned(), Json::from(u64::from(*op)))];
                for (name, value) in COUNT_NAMES.iter().zip(counts.0) {
                    if value != 0 {
                        fields.push(((*name).to_owned(), Json::from(value)));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("counts", Json::Arr(counts))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let root = tr.begin_op("k");
        let a = tr.enter("a");
        let b = tr.enter("b");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(b);
        tr.exit_as(a, "a2");
        tr.end_op(root, Counts::default());
        assert_eq!(tr.spans.len(), 3);
        assert_eq!((tr.spans[1].parent, tr.spans[2].parent), (1, 2));
        assert_eq!(tr.spans[1].name, "a2");
        assert!(tr.spans.iter().all(|s| s.op == 1));
        let own = tr.self_ns();
        assert!(own[2] >= 2_000_000);
        assert!(own[1] < tr.spans[1].dur_ns());
        assert_eq!(tr.stages().count(), 1);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let root = tr.begin_op("k");
        let a = tr.enter("a");
        tr.exit(a);
        tr.end_op(root, Counts::default());
        assert!(tr.spans.is_empty() && tr.counts.is_empty());
    }
}
