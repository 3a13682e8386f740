//! Counter and histogram registry with a schema-stable JSON export.
//!
//! Names are dotted paths (`"stats.cycles"`, `"cache.l1.hits"`); the JSON
//! export nests them into objects, so the on-disk schema mirrors the metric
//! namespace. Counters are `u64` and exported exactly (see
//! [`crate::json::Json::U64`]); histograms use power-of-two buckets, which
//! is plenty for p50/p99 latency reporting and costs 65 words per series.

use std::collections::BTreeMap;

use crate::json::Json;

/// Version stamp written at the top level of every export. Bump when the
/// key layout documented in DESIGN.md §7 changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

const BUCKETS: usize = 65; // bucket i holds values with bit-length i

/// A power-of-two-bucket histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { count: 0, sum: 0, min: 0, max: 0, buckets: [0; BUCKETS] }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `p`-th percentile (0–100), or `None` when empty.
    ///
    /// Resolution is one power-of-two bucket; the result is clamped to
    /// `[min, max]`, so a single-sample histogram reports that sample for
    /// every percentile.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Representative value: upper bound of the bucket.
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Cumulative bucket counts for exposition formats: `(upper, count)`
    /// pairs where `count` is the number of samples `<= upper`, one pair
    /// per non-empty power-of-two bucket (the top bucket's upper is
    /// `u64::MAX`). Pairs are monotone in both fields, as Prometheus'
    /// cumulative `le` buckets require; the final count equals
    /// [`Histogram::count`].
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
            out.push((upper, cum));
        }
        out
    }

    /// JSON summary: count/sum/min/max plus p50/p90/p99/p999.
    ///
    /// `max` is tracked exactly (not bucket-quantized), so the deep tail is
    /// always bounded by a true sample; `p999` is bucket-resolution like the
    /// other percentiles but clamped to `[min, max]`.
    pub fn to_json(&self) -> Json {
        let pct = |p: f64| self.percentile(p).map_or(Json::Null, Json::U64);
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("min", self.min().map_or(Json::Null, Json::U64)),
            ("max", self.max().map_or(Json::Null, Json::U64)),
            ("p50", pct(50.0)),
            ("p90", pct(90.0)),
            ("p99", pct(99.0)),
            ("p999", pct(99.9)),
        ])
    }
}

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// A named collection of counters and histograms.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the counter at `path`, creating it at zero.
    pub fn counter_add(&mut self, path: &str, delta: u64) {
        *self.counters.entry(path.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (zero if absent).
    pub fn counter(&self, path: &str) -> u64 {
        self.counters.get(path).copied().unwrap_or(0)
    }

    /// Records one sample into the histogram at `path`.
    pub fn record(&mut self, path: &str, value: u64) {
        self.histograms.entry(path.to_string()).or_default().record(value);
    }

    /// The histogram at `path`, if any samples were recorded.
    pub fn histogram(&self, path: &str) -> Option<&Histogram> {
        self.histograms.get(path)
    }

    /// Folds `other` into this registry: counters add, histograms merge.
    ///
    /// Merging is exact and associative — merging N per-worker registries
    /// yields the same result in any grouping, and in any *order* too (sums
    /// commute; histogram buckets are counts). Fleet aggregation leans on
    /// this: a parallel merge tree must equal the sequential fold
    /// bit-for-bit.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Exports the registry in the Prometheus text exposition format
    /// (version 0.0.4, the `text/plain` scrape format).
    ///
    /// Dotted paths become underscore-joined metric names under a `shift_`
    /// prefix (`cache.l1.hits` → `shift_cache_l1_hits`); every series gets
    /// a `# TYPE` line. Histograms expand to cumulative `_bucket{le="..."}`
    /// lines at the power-of-two bucket uppers plus the mandatory `+Inf`
    /// bucket, `_sum`, and `_count`. Output order is sorted within each
    /// section, so exports diff cleanly — same stability contract as
    /// [`Registry::to_json`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (path, v) in &self.counters {
            let name = prom_name(path);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (path, h) in &self.histograms {
            let name = prom_name(path);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (upper, cum) in h.cumulative_buckets() {
                if upper == u64::MAX {
                    continue; // folded into the +Inf bucket below
                }
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }

    /// Exports the registry as a nested JSON object.
    ///
    /// Dotted metric paths become nested objects; a `schema_version` field
    /// is always present at the top level. Key order is deterministic
    /// (sorted within each section), so diffs between exports are stable.
    pub fn to_json(&self) -> Json {
        let mut root = Json::Obj(vec![("schema_version".to_string(), Json::U64(SCHEMA_VERSION))]);
        for (path, v) in &self.counters {
            insert_path(&mut root, path, Json::U64(*v));
        }
        for (path, h) in &self.histograms {
            insert_path(&mut root, path, h.to_json());
        }
        root
    }
}

/// Maps a dotted metric path onto a Prometheus-legal name: every character
/// outside `[A-Za-z0-9_]` becomes `_`, under a `shift_` namespace prefix.
fn prom_name(path: &str) -> String {
    let mut name = String::with_capacity(path.len() + 6);
    name.push_str("shift_");
    for c in path.chars() {
        name.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    name
}

fn insert_path(node: &mut Json, path: &str, value: Json) {
    let Json::Obj(pairs) = node else { return };
    match path.split_once('.') {
        None => match pairs.iter_mut().find(|(k, _)| k == path) {
            Some((_, slot)) => *slot = value,
            None => pairs.push((path.to_string(), value)),
        },
        Some((head, rest)) => {
            let idx = match pairs.iter().position(|(k, _)| k == head) {
                Some(i) => i,
                None => {
                    pairs.push((head.to_string(), Json::Obj(vec![])));
                    pairs.len() - 1
                }
            };
            if !matches!(pairs[idx].1, Json::Obj(_)) {
                pairs[idx].1 = Json::Obj(vec![]);
            }
            insert_path(&mut pairs[idx].1, rest, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(99.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.to_json().get("p50"), Some(&Json::Null));
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let mut h = Histogram::new();
        h.record(12345);
        assert_eq!(h.percentile(0.0), Some(12345));
        assert_eq!(h.percentile(50.0), Some(12345));
        assert_eq!(h.percentile(99.0), Some(12345));
        assert_eq!(h.percentile(100.0), Some(12345));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 12345);
    }

    #[test]
    fn percentiles_are_monotone_and_bucket_accurate() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        let p999 = h.percentile(99.9).unwrap();
        assert!(p50 <= p99 && p99 <= p999);
        // 500 has bit-length 9; the bucket's upper bound is 511.
        assert_eq!(p50, 511);
        // Rank 999 lands in the top bucket (513..=1000), clamped to max.
        assert_eq!(p999, 1000);
        assert_eq!(h.percentile(100.0), Some(1000));
        assert_eq!(h.min(), Some(1));
    }

    #[test]
    fn zero_samples_are_representable() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.percentile(50.0), Some(0));
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 9, 120, 77] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 5000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_nests_dotted_paths() {
        let mut r = Registry::new();
        r.counter_add("cache.l1.hits", 10);
        r.counter_add("cache.l1.misses", 2);
        r.counter_add("stats.cycles", 99);
        r.record("serve.latency_cycles", 400);
        let json = r.to_json();
        assert_eq!(json.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        let l1 = json.get("cache").and_then(|c| c.get("l1")).unwrap();
        assert_eq!(l1.get("hits").and_then(Json::as_u64), Some(10));
        let lat = json.get("serve").and_then(|s| s.get("latency_cycles")).unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let mut a = Registry::new();
        a.counter_add("x", 1);
        a.record("h", 10);
        let mut b = Registry::new();
        b.counter_add("x", 2);
        b.record("h", 20);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn registry_merge_is_associative_and_order_independent() {
        // The fleet-aggregation contract: counters and histograms merge to
        // the same bits in any grouping or order.
        let mk = |seed: u64| {
            let mut r = Registry::new();
            r.counter_add("req", seed);
            r.record("lat", seed * 3 + 1);
            r.record("lat", seed * 7 + 2);
            r
        };
        let (a, b, c) = (mk(1), mk(5), mk(9));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);

        assert_eq!(left.to_json().render(), right.to_json().render());
        assert_eq!(left.to_json().render(), rev.to_json().render());
        assert_eq!(left.counter("req"), 15);
        assert_eq!(left.histogram("lat").unwrap().count(), 6);
    }

    proptest::proptest! {
        /// Merge-then-percentile equals percentile-of-merged: summary
        /// statistics computed from a merged histogram are bit-identical to
        /// recording every sample into one histogram — the property the
        /// fleet relies on when it quotes p50/p99 over merged per-worker
        /// latency series.
        #[test]
        fn merged_percentiles_match_percentiles_of_merged(
            xs in proptest::prelude::prop::collection::vec(0u64..=u64::MAX, 0..64),
            ys in proptest::prelude::prop::collection::vec(0u64..=u64::MAX, 0..64),
        ) {
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            let mut all = Histogram::new();
            for &v in &xs {
                a.record(v);
                all.record(v);
            }
            for &v in &ys {
                b.record(v);
                all.record(v);
            }
            a.merge(&b);
            for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                proptest::prelude::prop_assert_eq!(a.percentile(p), all.percentile(p));
            }
            // Tail percentiles may be quantized, but never escape the exact
            // sample range, and never invert.
            if let (Some(p99), Some(p999), Some(max)) =
                (a.percentile(99.0), a.percentile(99.9), a.max())
            {
                proptest::prelude::prop_assert!(p99 <= p999 && p999 <= max);
            }
            proptest::prelude::prop_assert_eq!(
                a.to_json().render(),
                all.to_json().render(),
                "to_json (count/sum/min/max/p50/p90/p99/p999) must agree"
            );
        }
    }

    #[test]
    fn prometheus_export_emits_typed_series_and_cumulative_buckets() {
        let mut r = Registry::new();
        r.counter_add("cache.l1.hits", 10);
        r.record("serve.latency_cycles", 3); // bucket upper 3
        r.record("serve.latency_cycles", 400); // bucket upper 511
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE shift_cache_l1_hits counter\n"));
        assert!(text.contains("shift_cache_l1_hits 10\n"));
        assert!(text.contains("# TYPE shift_serve_latency_cycles histogram\n"));
        assert!(text.contains("shift_serve_latency_cycles_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("shift_serve_latency_cycles_bucket{le=\"511\"} 2\n"));
        assert!(text.contains("shift_serve_latency_cycles_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("shift_serve_latency_cycles_sum 403\n"));
        assert!(text.contains("shift_serve_latency_cycles_count 2\n"));
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 7, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "uppers must strictly increase");
            assert!(w[0].1 <= w[1].1, "counts must be cumulative");
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
        assert_eq!(buckets.last().unwrap().0, u64::MAX, "u64::MAX lands in the top bucket");
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let mut r = Registry::new();
        r.counter_add("stats.cycles", u64::MAX);
        r.record("lat", 7);
        let text = r.to_json().render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("stats").and_then(|s| s.get("cycles")).and_then(Json::as_u64),
            Some(u64::MAX)
        );
    }
}
