//! The metrics registry: named, labelled handles plus text exposition.
//!
//! Registration (name interning) takes a mutex — it happens once per
//! metric at component construction, never on a hot path. The handles
//! it returns are `Arc`s onto the lock-free primitives in
//! [`crate::metrics`] / [`crate::histogram`]; instrumented code keeps
//! the handle and never touches the registry again.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge};
use crate::trace::SpanLog;

/// A metric's identity: family name plus sorted label pairs.
type Key = (String, Vec<(String, String)>);

/// The quantiles every histogram family reports in the JSON snapshot.
const SNAPSHOT_QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    metric: Metric,
}

/// A set of named metrics plus a span log, rendered on demand as
/// Prometheus text or a JSON snapshot.
///
/// Handles are get-or-create: asking twice for the same name and
/// labels returns the same underlying metric, which is what makes
/// read-through views (one component writes, another assembles a
/// snapshot) work without extra plumbing.
pub struct Registry {
    entries: Mutex<BTreeMap<Key, Entry>>,
    spans: SpanLog,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        f.debug_struct("Registry")
            .field("metrics", &n)
            .field("span_capacity", &self.spans.capacity())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Default retained span count; enough for the monitor's most recent
/// decode history without unbounded growth.
const DEFAULT_SPAN_CAPACITY: usize = 1024;

impl Registry {
    /// An empty registry with the default span-log capacity.
    #[must_use]
    pub fn new() -> Self {
        Registry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An empty registry retaining at most `spans` completed spans.
    #[must_use]
    pub fn with_span_capacity(spans: usize) -> Self {
        Registry {
            entries: Mutex::new(BTreeMap::new()),
            spans: SpanLog::new(spans),
        }
    }

    /// The registry's span log (pass it to [`span!`](crate::span)).
    #[must_use]
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Get-or-create a counter with no labels.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// Get-or-create a counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        let fallback = |m: &Metric| match m {
            Metric::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        };
        self.intern(name, labels, help, fallback, || {
            let c = Arc::new(Counter::new());
            (Metric::Counter(Arc::clone(&c)), c)
        })
    }

    /// Get-or-create a gauge with no labels.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// Get-or-create a gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        let fallback = |m: &Metric| match m {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        };
        self.intern(name, labels, help, fallback, || {
            let g = Arc::new(Gauge::new());
            (Metric::Gauge(Arc::clone(&g)), g)
        })
    }

    /// Get-or-create a histogram with no labels.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[], help)
    }

    /// Get-or-create a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Histogram> {
        let fallback = |m: &Metric| match m {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        };
        self.intern(name, labels, help, fallback, || {
            let h = Arc::new(Histogram::new());
            (Metric::Histogram(Arc::clone(&h)), h)
        })
    }

    /// Shared get-or-create: returns the existing handle when the key
    /// is present with the right type, otherwise registers a fresh
    /// one. A type clash (same name, different metric type) yields a
    /// fresh *detached* handle — the caller's instrument still works,
    /// the exposition keeps the first registration, and nothing
    /// panics.
    fn intern<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        existing: impl Fn(&Metric) -> Option<Arc<T>>,
        create: impl FnOnce() -> (Metric, Arc<T>),
    ) -> Arc<T> {
        let key = make_key(name, labels);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = entries.get(&key) {
            if let Some(handle) = existing(&entry.metric) {
                return handle;
            }
            debug_assert!(false, "metric {name} re-registered with a different type");
            return create().1;
        }
        let (metric, handle) = create();
        entries.insert(
            key,
            Entry {
                help: help.to_string(),
                metric,
            },
        );
        handle
    }

    /// Renders every metric in Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` once per family, histograms
    /// as cumulative `_bucket`/`_sum`/`_count` series. Deterministic
    /// order (name, then labels).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        let mut last_family = "";
        for ((name, labels), entry) in entries.iter() {
            if name != last_family {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&entry.help));
                let _ = writeln!(out, "# TYPE {name} {}", entry.metric.type_name());
            }
            last_family = name;
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for (bound, cum) in snap.cumulative() {
                        let le = match bound {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            render_labels(labels, Some(&le))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_sum{} {}",
                        render_labels(labels, None),
                        snap.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        render_labels(labels, None),
                        snap.count()
                    );
                }
            }
        }
        out
    }

    /// Renders every metric — histograms with estimated p50/p95/p99 —
    /// plus the retained spans as a JSON document.
    #[must_use]
    pub fn render_json(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("{\"metrics\":[");
        for (i, ((name, labels), entry)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"type\":\"{}\",\"labels\":{{",
                json_string(name),
                entry.metric.type_name()
            );
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(k), json_string(v));
            }
            out.push('}');
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"value\":{}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ",\"value\":{}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = write!(out, ",\"count\":{},\"sum\":{}", snap.count(), snap.sum());
                    for (label, q) in SNAPSHOT_QUANTILES {
                        match snap.quantile(q) {
                            Some(v) => {
                                let _ = write!(out, ",\"{label}\":{}", render_f64(v));
                            }
                            None => {
                                let _ = write!(out, ",\"{label}\":null");
                            }
                        }
                    }
                }
            }
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"spans\":{{\"capacity\":{},\"dropped\":{},\"events\":[",
            self.spans.capacity(),
            self.spans.dropped()
        );
        for (i, ev) in self.spans.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"enter_micros\":{},\"exit_micros\":{}}}",
                ev.id,
                ev.parent,
                json_string(ev.name),
                ev.enter_micros,
                ev.exit_micros
            );
        }
        out.push_str("]}}");
        out
    }
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

/// `{k="v",…}` with an optional extra `le` label, empty string when
/// there are no labels at all.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Renders an `f64` the way Prometheus and JSON both accept: plain
/// decimal, no exponent for the magnitudes metrics take, `0` for
/// non-finite junk.
fn render_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn json_string(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", "requests");
        let b = reg.counter("requests_total", "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Distinct labels are distinct metrics.
        let c = reg.counter_with("requests_total", &[("shard", "0")], "requests");
        c.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn prometheus_text_has_help_type_and_series() {
        let reg = Registry::new();
        reg.counter("a_total", "counts a").add(7);
        reg.gauge_with("b_depth", &[("shard", "1")], "depth").set(3);
        reg.histogram("lat_micros", "latency").record(3);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP a_total counts a"), "{text}");
        assert!(text.contains("# TYPE a_total counter"), "{text}");
        assert!(text.contains("a_total 7"), "{text}");
        assert!(text.contains("b_depth{shard=\"1\"} 3"), "{text}");
        assert!(text.contains("# TYPE lat_micros histogram"), "{text}");
        assert!(text.contains("lat_micros_bucket{le=\"4\"} 1"), "{text}");
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("lat_micros_sum 3"), "{text}");
        assert!(text.contains("lat_micros_count 1"), "{text}");
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let reg = Registry::new();
        for shard in ["0", "1", "2"] {
            reg.counter_with("family_total", &[("shard", shard)], "per-shard")
                .inc();
        }
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# HELP family_total").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE family_total").count(), 1, "{text}");
        assert_eq!(text.matches("family_total{shard=").count(), 3, "{text}");
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let reg = Registry::new();
        reg.counter("a_total", "a").inc();
        reg.histogram("h_micros", "h").record(100);
        {
            let _s = reg.spans().enter("unit");
        }
        let json = reg.render_json();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.contains("\"name\":\"a_total\""), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
        assert!(json.contains("\"spans\":{"), "{json}");
        assert!(json.contains("\"name\":\"unit\""), "{json}");
        assert!(json.ends_with("]}}"), "{json}");
        // Balanced braces/brackets outside strings — cheap sanity
        // check that the hand-rolled JSON is well-formed.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in json.chars() {
            match c {
                _ if esc => esc = false,
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("esc_total", &[("path", "a\"b\\c")], "esc")
            .inc();
        let text = reg.render_prometheus();
        assert!(text.contains("esc_total{path=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
