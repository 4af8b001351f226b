//! In-memory span ledger of the traced pass: one span per call into a
//! layer's public function (name, start, end, parent), written out as a
//! Chrome-trace document when the pass ends.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the ledger's origin.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Trainer rank the call ran for, when it belongs to one.
    pub trainer: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`close`](Self::close).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trainer: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trainer,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span and return its result with the span's id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trainer: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent, trainer);
        let r = std::hint::black_box(f());
        self.close(id);
        (r, id)
    }

    /// Durations in seconds of every span called `name`, in call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, d| a + d)
    }

    /// Self seconds of every span called `name`: its duration minus its
    /// direct children's.
    pub fn self_durations(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_s();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_s() - c)
            .collect()
    }

    /// Chrome-trace (Perfetto) document with one track per layer — the
    /// span name up to its first `.` — and the span tree in `args`.
    pub fn chrome_trace(&self, other: Value) -> Value {
        let mut tracks: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            let n = tracks.len() as u64 + 1;
            tracks.entry(layer_of(s.name)).or_insert(n);
        }
        let mut events: Vec<Value> = tracks
            .iter()
            .map(|(layer, tid)| {
                Value::obj([
                    ("name", "thread_name".to_value()),
                    ("ph", "M".to_value()),
                    ("pid", 1u64.to_value()),
                    ("tid", tid.to_value()),
                    ("args", Value::obj([("name", layer.to_value())])),
                ])
            })
            .collect();
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![("id", (id as u64).to_value())];
            if let Some(p) = s.parent {
                args.push(("parent", (p as u64).to_value()));
                args.push(("parent_name", self.spans[p].name.to_value()));
            }
            if let Some(t) = s.trainer {
                args.push(("trainer", (t as u64).to_value()));
            }
            events.push(Value::obj([
                ("name", s.name.to_value()),
                ("cat", layer_of(s.name).to_value()),
                ("ph", "X".to_value()),
                ("ts", (s.start_ns as f64 / 1e3).to_value()),
                ("dur", ((s.end_ns - s.start_ns) as f64 / 1e3).to_value()),
                ("pid", 1u64.to_value()),
                ("tid", tracks[layer_of(s.name)].to_value()),
                ("args", Value::obj(args)),
            ]));
        }
        Value::obj([
            ("traceEvents", Value::arr(events)),
            ("displayTimeUnit", "ms".to_value()),
            ("otherData", other),
        ])
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Nearest-rank quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
