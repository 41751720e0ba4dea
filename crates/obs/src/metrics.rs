//! A zero-dependency runtime metrics registry: monotonic counters,
//! gauges, and fixed-bucket histograms, with Prometheus text-format and
//! line-JSON exposition.
//!
//! # Design
//!
//! [`Metrics`] mirrors the [`Trace`](crate::Trace) recorder: a cheap
//! cloneable handle whose disabled form (the [`Default`]) is a true
//! no-op — every operation is an inlined early return on a `None`,
//! performs zero heap allocations, and takes no locks
//! (`crates/obs/tests/overhead.rs` pins this with a counting global
//! allocator). Enabled, each series is an [`Arc`]'d cell of atomics:
//! updates through a [`Counter`]/[`Gauge`]/[`Histogram`] handle are
//! **lock-free** (`Relaxed` atomic adds); the registry `Mutex` guards
//! only series registration and snapshotting.
//!
//! For hot loops a [`MetricsScope`] buffers deltas in per-thread plain
//! integers (no atomics, no locks) and merges them into the shared
//! cells on drop/flush — in registration-index order, so concurrent
//! scopes always merge deterministically (sums are commutative; the
//! order makes that obvious and keeps the single lock acquisition per
//! flush, exactly like [`TraceScope`](crate::TraceScope)).
//!
//! # Exposition
//!
//! [`Metrics::to_prometheus`] renders the classic Prometheus text
//! format (`# TYPE` headers, `name{labels} value` samples, cumulative
//! `_bucket{le=...}`/`_sum`/`_count` histogram series, label-value
//! escaping). [`Metrics::to_json`] renders the same snapshot as one
//! JSON object with stable key order. Both walk the series sorted by
//! `(name, labels)`, so output order never depends on registration or
//! thread timing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::escape_into;

/// Fixed latency bucket upper bounds, in microseconds, shared by every
/// request-latency histogram in the workspace (daemon and soak driver)
/// so their distributions are directly comparable. An implicit `+Inf`
/// overflow bucket is always appended.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// The kind of a metric series, fixed at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing sum.
    Counter,
    /// A value that can be set or moved in either direction.
    Gauge,
    /// A fixed-bucket distribution with a total sum and count.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered series: the atomics plus its identity. Shared between
/// the registry (for exposition) and any number of handles (for
/// updates).
#[derive(Debug)]
struct Cell {
    name: String,
    /// Sorted label pairs, e.g. `[("op", "points_to")]`.
    labels: Vec<(String, String)>,
    /// Pre-rendered inner label text (`op="points_to"`), empty when
    /// unlabeled. Used both as the registry key and for exposition.
    label_text: String,
    kind: MetricKind,
    /// Dense registration index; [`MetricsScope`] buffers are keyed by
    /// it and flushed in its order.
    index: usize,
    /// Counter total, gauge value, or histogram observation count.
    value: AtomicU64,
    /// Histogram sum of observed values (unused otherwise).
    sum: AtomicU64,
    /// Per-bucket (non-cumulative) histogram counts; the last slot is
    /// the `+Inf` overflow bucket. Empty for counters/gauges.
    buckets: Vec<AtomicU64>,
    /// Histogram bucket upper bounds (empty for counters/gauges).
    bounds: Vec<u64>,
}

impl Cell {
    #[inline]
    fn bucket_index(&self, v: u64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    by_key: BTreeMap<(String, String), usize>,
    cells: Vec<Arc<Cell>>,
}

#[derive(Debug, Default)]
struct Registry {
    inner: Mutex<RegistryInner>,
}

/// A cloneable metrics registry handle. See the [module docs](self);
/// disabled handles (the [`Default`]) record nothing and allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    reg: Option<Arc<Registry>>,
}

impl Metrics {
    /// A disabled registry: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// An enabled, empty registry.
    #[must_use]
    pub fn enabled() -> Metrics {
        Metrics {
            reg: Some(Arc::new(Registry::default())),
        }
    }

    /// `true` if series are being recorded.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.reg.is_some()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        bounds: &[u64],
    ) -> Option<Arc<Cell>> {
        let reg = self.reg.as_ref()?;
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        sorted.sort();
        let label_text = render_labels(&sorted);
        let mut inner = reg.inner.lock().unwrap();
        if let Some(&idx) = inner.by_key.get(&(name.to_owned(), label_text.clone())) {
            let cell = Arc::clone(&inner.cells[idx]);
            assert_eq!(
                cell.kind, kind,
                "metric {name} re-registered with a different kind"
            );
            return Some(cell);
        }
        let index = inner.cells.len();
        let buckets = if kind == MetricKind::Histogram {
            (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect()
        } else {
            Vec::new()
        };
        let cell = Arc::new(Cell {
            name: name.to_owned(),
            labels: sorted,
            label_text: label_text.clone(),
            kind,
            index,
            value: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets,
            bounds: bounds.to_vec(),
        });
        inner.by_key.insert((name.to_owned(), label_text), index);
        inner.cells.push(Arc::clone(&cell));
        Some(cell)
    }

    /// Registers (or re-resolves) a counter series. Handles are cheap
    /// clones of an `Arc`; cache them outside hot loops.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            cell: self.register(name, labels, MetricKind::Counter, &[]),
        }
    }

    /// Registers (or re-resolves) a gauge series.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge {
            cell: self.register(name, labels, MetricKind::Gauge, &[]),
        }
    }

    /// Registers (or re-resolves) a histogram series with the given
    /// bucket upper bounds (strictly increasing; an implicit `+Inf`
    /// overflow bucket is appended).
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            cell: self.register(name, labels, MetricKind::Histogram, bounds),
        }
    }

    /// Opens a per-thread buffering scope. On a disabled registry the
    /// scope is itself a no-op (and never allocates).
    #[must_use]
    pub fn scope(&self) -> MetricsScope {
        MetricsScope {
            reg: self.reg.clone(),
            counts: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Current value of the series (counter total, gauge value, or
    /// histogram observation count), or `None` if it does not exist or
    /// the registry is disabled. Intended for tests and smoke checks.
    #[must_use]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let reg = self.reg.as_ref()?;
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        sorted.sort();
        let key = (name.to_owned(), render_labels(&sorted));
        let inner = reg.inner.lock().unwrap();
        let idx = *inner.by_key.get(&key)?;
        Some(inner.cells[idx].value.load(Ordering::Relaxed))
    }

    /// Snapshot of all cells sorted by `(name, labels)` — the canonical
    /// exposition order.
    fn sorted_cells(&self) -> Vec<Arc<Cell>> {
        let Some(reg) = &self.reg else {
            return Vec::new();
        };
        let inner = reg.inner.lock().unwrap();
        let mut cells: Vec<Arc<Cell>> = inner.cells.iter().map(Arc::clone).collect();
        cells.sort_by(|a, b| (&a.name, &a.label_text).cmp(&(&b.name, &b.label_text)));
        cells
    }

    /// Renders every series in the Prometheus text exposition format.
    /// Deterministic: series are sorted by `(name, labels)` and a
    /// `# TYPE` header precedes each distinct metric name.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let cells = self.sorted_cells();
        let mut out = String::with_capacity(cells.len() * 48 + 16);
        let mut last_name = "";
        for cell in &cells {
            if cell.name != last_name {
                out.push_str("# TYPE ");
                out.push_str(&cell.name);
                out.push(' ');
                out.push_str(cell.kind.as_str());
                out.push('\n');
            }
            match cell.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    out.push_str(&cell.name);
                    if !cell.label_text.is_empty() {
                        out.push('{');
                        out.push_str(&cell.label_text);
                        out.push('}');
                    }
                    out.push(' ');
                    out.push_str(&cell.value.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                }
                MetricKind::Histogram => {
                    let mut cum = 0u64;
                    for (i, b) in cell.buckets.iter().enumerate() {
                        cum += b.load(Ordering::Relaxed);
                        out.push_str(&cell.name);
                        out.push_str("_bucket{");
                        if !cell.label_text.is_empty() {
                            out.push_str(&cell.label_text);
                            out.push(',');
                        }
                        out.push_str("le=\"");
                        match cell.bounds.get(i) {
                            Some(bound) => out.push_str(&bound.to_string()),
                            None => out.push_str("+Inf"),
                        }
                        out.push_str("\"} ");
                        out.push_str(&cum.to_string());
                        out.push('\n');
                    }
                    for (suffix, v) in [
                        ("_sum", cell.sum.load(Ordering::Relaxed)),
                        ("_count", cell.value.load(Ordering::Relaxed)),
                    ] {
                        out.push_str(&cell.name);
                        out.push_str(suffix);
                        if !cell.label_text.is_empty() {
                            out.push('{');
                            out.push_str(&cell.label_text);
                            out.push('}');
                        }
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                }
            }
            last_name = &cell.name;
        }
        out
    }

    /// Renders every series as one JSON object (hand-rolled, stable key
    /// order): `{"counters":[...],"gauges":[...],"histograms":[...]}`.
    /// Histogram bucket counts are cumulative, matching Prometheus.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cells = self.sorted_cells();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        for cell in &cells {
            let target = match cell.kind {
                MetricKind::Counter => &mut counters,
                MetricKind::Gauge => &mut gauges,
                MetricKind::Histogram => &mut hists,
            };
            if !target.is_empty() {
                target.push(',');
            }
            target.push_str("{\"name\":\"");
            escape_into(target, &cell.name);
            target.push_str("\",\"labels\":{");
            for (i, (k, v)) in cell.labels.iter().enumerate() {
                if i > 0 {
                    target.push(',');
                }
                target.push('"');
                escape_into(target, k);
                target.push_str("\":\"");
                escape_into(target, v);
                target.push('"');
            }
            target.push('}');
            match cell.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    target.push_str(",\"value\":");
                    target.push_str(&cell.value.load(Ordering::Relaxed).to_string());
                }
                MetricKind::Histogram => {
                    target.push_str(",\"count\":");
                    target.push_str(&cell.value.load(Ordering::Relaxed).to_string());
                    target.push_str(",\"sum\":");
                    target.push_str(&cell.sum.load(Ordering::Relaxed).to_string());
                    target.push_str(",\"buckets\":[");
                    let mut cum = 0u64;
                    for (i, b) in cell.buckets.iter().enumerate() {
                        cum += b.load(Ordering::Relaxed);
                        if i > 0 {
                            target.push(',');
                        }
                        target.push_str("{\"le\":\"");
                        match cell.bounds.get(i) {
                            Some(bound) => target.push_str(&bound.to_string()),
                            None => target.push_str("+Inf"),
                        }
                        target.push_str("\",\"count\":");
                        target.push_str(&cum.to_string());
                        target.push('}');
                    }
                    target.push(']');
                }
            }
            target.push('}');
        }
        format!("{{\"counters\":[{counters}],\"gauges\":[{gauges}],\"histograms\":[{hists}]}}")
    }
}

/// Renders sorted label pairs as Prometheus inner label text
/// (`k1="v1",k2="v2"`), escaping `\`, `"` and newlines in values.
fn render_labels(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// A monotonic counter handle. All methods are lock-free; disabled
/// handles are no-ops.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<Cell>>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total (0 when disabled).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.value.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// A gauge handle. All methods are lock-free; disabled handles are
/// no-ops.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<Cell>>,
}

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n` (saturating at 0 is the caller's job: pair every
    /// `sub` with a prior `add`).
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Raises the value to at least `v` (high-water mark).
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.value.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// A fixed-bucket histogram handle. All methods are lock-free; disabled
/// handles are no-ops.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<Cell>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.buckets[cell.bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
            cell.value.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of observations (0 when disabled).
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.value.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Sum of observed values (0 when disabled).
    #[inline]
    #[must_use]
    pub fn sum(&self) -> u64 {
        match &self.cell {
            Some(cell) => cell.sum.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`), clamped to the highest finite bucket bound
    /// when the quantile lands in the `+Inf` overflow bucket. Returns 0
    /// when empty or disabled.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(cell) = &self.cell else {
            return 0;
        };
        let count = cell.value.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in cell.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return match cell.bounds.get(i) {
                    Some(&bound) => bound,
                    None => cell.bounds.last().copied().unwrap_or(0),
                };
            }
        }
        cell.bounds.last().copied().unwrap_or(0)
    }
}

#[derive(Debug)]
struct HistShard {
    index: usize,
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
}

/// A per-thread buffering scope: counter increments and histogram
/// observations accumulate in plain (non-atomic) integers and merge
/// into the shared cells on drop/flush, in registration-index order.
/// All methods are inlined no-ops when the parent [`Metrics`] is
/// disabled.
#[derive(Debug)]
pub struct MetricsScope {
    reg: Option<Arc<Registry>>,
    /// Dense per-cell-index counter deltas.
    counts: Vec<u64>,
    /// Sparse histogram deltas, kept sorted by cell index.
    hists: Vec<HistShard>,
}

impl MetricsScope {
    /// `true` if this scope records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.reg.is_some()
    }

    /// Buffers `Counter::inc` locally.
    #[inline]
    pub fn inc(&mut self, c: &Counter) {
        self.add(c, 1);
    }

    /// Buffers `Counter::add` locally.
    #[inline]
    pub fn add(&mut self, c: &Counter, n: u64) {
        if self.reg.is_none() {
            return;
        }
        let Some(cell) = &c.cell else {
            return;
        };
        if cell.index >= self.counts.len() {
            self.counts.resize(cell.index + 1, 0);
        }
        self.counts[cell.index] += n;
    }

    /// Buffers `Histogram::observe` locally.
    #[inline]
    pub fn observe(&mut self, h: &Histogram, v: u64) {
        if self.reg.is_none() {
            return;
        }
        let Some(cell) = &h.cell else {
            return;
        };
        let pos = match self.hists.binary_search_by_key(&cell.index, |s| s.index) {
            Ok(pos) => pos,
            Err(pos) => {
                self.hists.insert(
                    pos,
                    HistShard {
                        index: cell.index,
                        count: 0,
                        sum: 0,
                        buckets: vec![0; cell.buckets.len()],
                    },
                );
                pos
            }
        };
        let shard = &mut self.hists[pos];
        shard.buckets[cell.bucket_index(v)] += 1;
        shard.sum += v;
        shard.count += 1;
    }

    /// Merges buffered deltas into the registry without closing the
    /// scope (the only locking this type ever does).
    pub fn flush(&mut self) {
        let Some(reg) = &self.reg else {
            return;
        };
        if self.counts.iter().all(|&d| d == 0) && self.hists.is_empty() {
            return;
        }
        let inner = reg.inner.lock().unwrap();
        for (idx, d) in self.counts.iter_mut().enumerate() {
            if *d != 0 {
                inner.cells[idx].value.fetch_add(*d, Ordering::Relaxed);
                *d = 0;
            }
        }
        for shard in self.hists.drain(..) {
            let cell = &inner.cells[shard.index];
            for (b, d) in cell.buckets.iter().zip(&shard.buckets) {
                if *d != 0 {
                    b.fetch_add(*d, Ordering::Relaxed);
                }
            }
            cell.sum.fetch_add(shard.sum, Ordering::Relaxed);
            cell.value.fetch_add(shard.count, Ordering::Relaxed);
        }
    }
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_a_no_op() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        let c = m.counter("x_total", &[]);
        let g = m.gauge("g", &[]);
        let h = m.histogram("h", &[], &[10, 20]);
        c.inc();
        g.set(5);
        h.observe(15);
        let mut s = m.scope();
        s.inc(&c);
        s.observe(&h, 3);
        drop(s);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(m.value("x_total", &[]), None);
        assert!(m.to_prometheus().is_empty());
        assert_eq!(
            m.to_json(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
    }

    #[test]
    fn counters_gauges_and_lookup() {
        let m = Metrics::enabled();
        let a = m.counter("req_total", &[("op", "points_to")]);
        let b = m.counter("req_total", &[("op", "devirt")]);
        a.inc();
        a.add(2);
        b.inc();
        // Re-registration resolves the same cell.
        let a2 = m.counter("req_total", &[("op", "points_to")]);
        a2.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(m.value("req_total", &[("op", "points_to")]), Some(4));
        assert_eq!(m.value("req_total", &[("op", "devirt")]), Some(1));
        assert_eq!(m.value("req_total", &[("op", "missing")]), None);
        let g = m.gauge("depth", &[]);
        g.add(7);
        g.sub(3);
        g.fetch_max(2);
        assert_eq!(g.get(), 4);
        g.fetch_max(9);
        assert_eq!(g.get(), 9);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let m = Metrics::enabled();
        let h = m.histogram("lat_us", &[], &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5626);
        // Buckets: le=10 -> {5,10}, le=100 -> {11,100}, le=1000 -> {500},
        // +Inf -> {5000}.
        assert_eq!(h.quantile(0.01), 10);
        assert_eq!(h.quantile(0.5), 100);
        assert_eq!(h.quantile(0.75), 1000);
        // The overflow bucket clamps to the highest finite bound.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn scope_buffers_and_merges() {
        let m = Metrics::enabled();
        let c = m.counter("c_total", &[]);
        let h = m.histogram("h_us", &[], &[10, 100]);
        let mut s = m.scope();
        s.inc(&c);
        s.add(&c, 4);
        s.observe(&h, 7);
        s.observe(&h, 70);
        // Nothing visible until the scope flushes.
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        s.flush();
        assert_eq!(c.get(), 5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 77);
        // Flush is idempotent; drop re-flushes whatever accumulated.
        s.flush();
        s.inc(&c);
        drop(s);
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn scope_merge_is_deterministic_across_thread_interleavings() {
        // Two scopes updating the same series from different threads
        // must always sum to the same totals.
        let m = Metrics::enabled();
        let c = m.counter("c_total", &[]);
        let h = m.histogram("h_us", &[], &[10]);
        std::thread::scope(|t| {
            for _ in 0..4 {
                let (m, c, h) = (m.clone(), c.clone(), h.clone());
                t.spawn(move || {
                    let mut s = m.scope();
                    for i in 0..100u64 {
                        s.inc(&c);
                        s.observe(&h, i % 20);
                    }
                });
            }
        });
        assert_eq!(c.get(), 400);
        assert_eq!(h.count(), 400);
        let prom = m.to_prometheus();
        assert!(prom.contains("c_total 400\n"));
    }

    #[test]
    fn prometheus_text_shape_golden() {
        let m = Metrics::enabled();
        m.counter("req_total", &[("op", "devirt")]).add(2);
        m.counter("req_total", &[("op", "points_to")]).add(5);
        m.gauge("depth", &[]).set(3);
        let h = m.histogram("lat_us", &[("op", "points_to")], &[10, 100]);
        h.observe(7);
        h.observe(50);
        h.observe(5000);
        assert_eq!(
            m.to_prometheus(),
            "# TYPE depth gauge\n\
             depth 3\n\
             # TYPE lat_us histogram\n\
             lat_us_bucket{op=\"points_to\",le=\"10\"} 1\n\
             lat_us_bucket{op=\"points_to\",le=\"100\"} 2\n\
             lat_us_bucket{op=\"points_to\",le=\"+Inf\"} 3\n\
             lat_us_sum{op=\"points_to\"} 5057\n\
             lat_us_count{op=\"points_to\"} 3\n\
             # TYPE req_total counter\n\
             req_total{op=\"devirt\"} 2\n\
             req_total{op=\"points_to\"} 5\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let m = Metrics::enabled();
        m.counter("e_total", &[("k", "a\"b\\c\nd")]).inc();
        let prom = m.to_prometheus();
        assert!(prom.contains("e_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"));
        let json = m.to_json();
        assert!(json.contains("\"labels\":{\"k\":\"a\\\"b\\\\c\\nd\"}"));
    }

    #[test]
    fn json_shape_golden() {
        let m = Metrics::enabled();
        m.counter("req_total", &[("op", "stats")]).add(3);
        m.gauge("depth", &[]).set(1);
        let h = m.histogram("lat_us", &[], &[10]);
        h.observe(4);
        h.observe(40);
        assert_eq!(
            m.to_json(),
            "{\"counters\":[{\"name\":\"req_total\",\"labels\":{\"op\":\"stats\"},\"value\":3}],\
             \"gauges\":[{\"name\":\"depth\",\"labels\":{},\"value\":1}],\
             \"histograms\":[{\"name\":\"lat_us\",\"labels\":{},\"count\":2,\"sum\":44,\
             \"buckets\":[{\"le\":\"10\",\"count\":1},{\"le\":\"+Inf\",\"count\":2}]}]}"
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let m = Metrics::enabled();
        let _ = m.counter("x", &[]);
        let _ = m.gauge("x", &[]);
    }
}
