//! Virtual-time telemetry: an allocation-free periodic snapshotter over
//! [`crate::Metrics`].
//!
//! End-of-run counters answer "how much happened"; they cannot answer
//! "when did the queue start growing" or "which link saturated first
//! under the fault". The [`Sampler`] turns the metrics registry into a
//! *time series*: at every period boundary of virtual time it records
//! the delta of each tracked counter, the busy-time delta of each
//! tracked resource (utilization over the interval), and a set of
//! caller-supplied gauges (instantaneous values the registry does not
//! hold, e.g. a scheduler's queue depth).
//!
//! Everything is preallocated at construction: the ring of sample slots,
//! and each slot's counter/gauge/busy arrays. Sampling is a handful of
//! array reads and subtractions — no allocation, no hashing — so it can
//! sit inside a serving loop's hot path within the overhead budget the
//! perf gate pins (see `DESIGN.md` §17). When the ring is full the
//! oldest sample is overwritten and [`Sampler::dropped`] counts it, so a
//! bounded ring never silently loses the *fact* that it lost data.
//!
//! Export paths: [`Sampler::to_json`] (a `serve_telemetry.json`-style
//! time series) and [`Sampler::to_chrome_json`] (Perfetto counter
//! tracks, loadable beside an engine trace).

use crate::engine::ResourceId;
use crate::json::{self, Pid};
use crate::metrics::{CounterId, Metrics};
use crate::time::{Duration, Time};

/// Shape of a [`Sampler`]: sampling period and ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Virtual-time distance between samples.
    pub period: Duration,
    /// Ring capacity in samples; the oldest sample is overwritten when
    /// full (and counted in [`Sampler::dropped`]).
    pub capacity: usize,
}

impl SamplerConfig {
    /// A sampler taking one sample every `period_us` microseconds of
    /// virtual time, keeping the most recent `capacity` samples.
    pub fn new(period_us: f64, capacity: usize) -> SamplerConfig {
        SamplerConfig {
            period: Duration::from_us(period_us.max(1e-6)),
            capacity: capacity.max(1),
        }
    }
}

/// One recorded snapshot: deltas since the previous sample.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sample {
    /// Virtual instant of the sample (a period boundary).
    pub at: Time,
    /// Per-tracked-counter delta since the previous sample, in
    /// [`Sampler::counter_names`] order.
    pub counters: Vec<u64>,
    /// Caller-supplied gauge values (instantaneous, not deltas), in
    /// [`Sampler::gauge_names`] order.
    pub gauges: Vec<u64>,
    /// Per-tracked-resource busy-time delta since the previous sample,
    /// in [`Sampler::resource_labels`] order. Divide by the inter-sample
    /// gap for utilization.
    pub busy: Vec<Duration>,
}

/// The allocation-free periodic snapshotter.
#[derive(Debug, Clone)]
pub struct Sampler {
    period: Duration,
    next: Time,
    last_at: Time,
    counter_names: Vec<String>,
    counter_ids: Vec<CounterId>,
    gauge_names: Vec<String>,
    resource_labels: Vec<String>,
    resource_ids: Vec<ResourceId>,
    last_counters: Vec<u64>,
    last_busy: Vec<Duration>,
    ring: Vec<Sample>,
    head: usize,
    len: usize,
    dropped: u64,
    taken: u64,
}

impl Sampler {
    /// Builds a sampler with a fixed gauge schema. Counters and
    /// resources are registered afterwards with
    /// [`Sampler::track_counter`] / [`Sampler::track_resources`];
    /// registration must finish before the first [`Sampler::sample`].
    pub fn new(cfg: SamplerConfig, gauge_names: &[&str]) -> Sampler {
        let capacity = cfg.capacity;
        Sampler {
            period: cfg.period,
            next: Time::ZERO + cfg.period,
            last_at: Time::ZERO,
            counter_names: Vec::new(),
            counter_ids: Vec::new(),
            gauge_names: gauge_names.iter().map(|&s| s.to_owned()).collect(),
            resource_labels: Vec::new(),
            resource_ids: Vec::new(),
            last_counters: Vec::new(),
            last_busy: Vec::new(),
            ring: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            dropped: 0,
            taken: 0,
        }
    }

    /// Registers a named counter (resolved to a dense id once, here) and
    /// anchors its delta baseline at the counter's current value.
    pub fn track_counter(&mut self, metrics: &mut Metrics, name: &str) {
        let id = metrics.counter_id(name);
        self.counter_names.push(name.to_owned());
        self.counter_ids.push(id);
        self.last_counters.push(metrics.value(id));
    }

    /// Registers every *labeled* resource of the registry for busy-delta
    /// (utilization) tracking. Unlabeled resources are skipped — they
    /// are internal bookkeeping, not links.
    pub fn track_resources(&mut self, metrics: &Metrics) {
        for stat in metrics.resources() {
            if stat.label.is_empty() {
                continue;
            }
            self.resource_labels.push(stat.label.clone());
            self.resource_ids.push(stat.id);
            self.last_busy.push(stat.busy);
        }
    }

    /// The sampling period.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Tracked counter names, in sample-array order.
    pub fn counter_names(&self) -> &[String] {
        &self.counter_names
    }

    /// Gauge names, in sample-array order.
    pub fn gauge_names(&self) -> &[String] {
        &self.gauge_names
    }

    /// Tracked resource labels, in sample-array order.
    pub fn resource_labels(&self) -> &[String] {
        &self.resource_labels
    }

    /// Whether `now` has crossed the next period boundary (a sample is
    /// due). The caller polls this at its own convenient points; virtual
    /// time may jump several periods between polls, in which case one
    /// sample covers the whole gap (the deltas absorb it).
    pub fn due(&self, now: Time) -> bool {
        now >= self.next
    }

    /// Records one sample at the latest period boundary at or before
    /// `now`, with deltas against the previous sample. No-op unless
    /// [`Sampler::due`]. `gauges` must match the gauge schema length.
    pub fn sample(&mut self, now: Time, metrics: &Metrics, gauges: &[u64]) {
        if !self.due(now) {
            return;
        }
        assert_eq!(
            gauges.len(),
            self.gauge_names.len(),
            "gauge values must match the schema"
        );
        // The boundary this sample is stamped with: the last one <= now.
        let periods = (now - self.next).as_ps() / self.period.as_ps();
        let at = self.next + Duration::from_ps(periods * self.period.as_ps());
        self.next = at + self.period;

        let slot = if self.len < self.ring.capacity() {
            let idx = (self.head + self.len) % self.ring.capacity();
            if idx == self.ring.len() {
                self.ring.push(Sample {
                    at,
                    counters: vec![0; self.counter_ids.len()],
                    gauges: vec![0; self.gauge_names.len()],
                    busy: vec![Duration::ZERO; self.resource_ids.len()],
                });
            }
            self.len += 1;
            idx
        } else {
            // Overwrite the oldest; its preallocated arrays are reused.
            let idx = self.head;
            self.head = (self.head + 1) % self.ring.capacity();
            self.dropped += 1;
            idx
        };
        let s = &mut self.ring[slot];
        s.at = at;
        for (i, &id) in self.counter_ids.iter().enumerate() {
            let v = metrics.value(id);
            s.counters[i] = v - self.last_counters[i];
            self.last_counters[i] = v;
        }
        for (i, &rid) in self.resource_ids.iter().enumerate() {
            let b = metrics.busy(rid);
            s.busy[i] = b.saturating_sub(self.last_busy[i]);
            self.last_busy[i] = b;
        }
        s.gauges.copy_from_slice(gauges);
        self.last_at = at;
        self.taken += 1;
    }

    /// Samples kept, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        let cap = self.ring.capacity().max(1);
        (0..self.len).map(move |i| &self.ring[(self.head + i) % cap])
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Samples overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total samples ever taken (kept + dropped).
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Samples oldest first, each with the per-resource utilization of
    /// its interval: the busy delta divided by the gap since the previous
    /// sample (the period for the first sample), capped at 1.
    fn rows(&self) -> impl Iterator<Item = (&Sample, Vec<f64>)> {
        let mut prev_at = None;
        self.samples().map(move |s| {
            let gap = prev_at.map_or(self.period, |p| s.at - p);
            prev_at = Some(s.at);
            let gap_us = gap.as_us().max(1e-9);
            let util = s.busy.iter().map(|b| (b.as_us() / gap_us).min(1.0));
            (s, util.collect())
        })
    }

    /// Serializes the series as a JSON time-series document: schema
    /// arrays once, then one compact row per sample with the counter
    /// deltas, the gauges and each resource's utilization.
    pub fn to_json(&self) -> String {
        let names = |v: &[String]| json::join(v.iter().map(|n| json::quote(n)));
        let rows = self.rows().map(|(s, util)| {
            format!(
                "{{\"t_us\":{:.3},\"counters\":[{}],\"gauges\":[{}],\"utilization\":[{}]}}",
                s.at.as_us(),
                json::join(&s.counters),
                json::join(&s.gauges),
                json::join(util.iter().map(|u| format!("{u:.4}")))
            )
        });
        format!(
            "{{\"period_us\":{:.3},\"dropped\":{},\"counters\":[{}],\"gauges\":[{}],\"resources\":[{}],\"samples\":[{}]}}",
            self.period.as_us(),
            self.dropped,
            names(&self.counter_names),
            names(&self.gauge_names),
            names(&self.resource_labels),
            json::join(rows)
        )
    }

    /// Serializes the series as Chrome trace-event JSON counter tracks
    /// (`ph:"C"`, one track per counter, gauge and resource) under
    /// [`Pid::Telemetry`], so the document loads beside an engine trace
    /// without track collisions. Load in <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let pid = Pid::Telemetry;
        let mut events = vec![pid.process_name()];
        for (s, util) in self.rows() {
            let ts = s.at.as_us();
            let mut track = |name: &str, value: &dyn std::fmt::Display| {
                let name = json::quote(name);
                events.push(format!(
                    "{{\"name\":{name},\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":{pid},\"args\":{{\"value\":{value}}}}}"
                ));
            };
            let named = self.counter_names.iter().zip(&s.counters);
            for (name, v) in named.chain(self.gauge_names.iter().zip(&s.gauges)) {
                track(name, v);
            }
            for (label, u) in self.resource_labels.iter().zip(util) {
                track(&format!("util {label}"), &format_args!("{u:.4}"));
            }
        }
        format!("[{}]", json::join(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: f64) -> Time {
        Time::from_ps((x * 1e6) as u64)
    }

    #[test]
    fn samples_record_counter_deltas_not_totals() {
        let mut m = Metrics::default();
        m.inc("work.items", 5);
        let mut s = Sampler::new(SamplerConfig::new(10.0, 8), &["depth"]);
        s.track_counter(&mut m, "work.items");
        // Baseline anchored at 5: the pre-existing total never leaks
        // into the first delta.
        m.inc("work.items", 3);
        assert!(!s.due(us(9.0)));
        s.sample(us(9.0), &m, &[1]); // not due: no-op
        assert_eq!(s.len(), 0);
        s.sample(us(10.0), &m, &[1]);
        m.inc("work.items", 7);
        s.sample(us(20.0), &m, &[2]);
        let got: Vec<&Sample> = s.samples().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].counters, vec![3]);
        assert_eq!(got[0].gauges, vec![1]);
        assert_eq!(got[1].counters, vec![7]);
        assert_eq!(got[1].at, us(20.0));
    }

    #[test]
    fn time_jumps_collapse_to_one_boundary_sample() {
        let mut m = Metrics::default();
        let mut s = Sampler::new(SamplerConfig::new(10.0, 8), &[]);
        s.track_counter(&mut m, "x");
        m.inc("x", 4);
        // The clock jumps 5 periods at once: one sample at the latest
        // boundary covers the gap.
        s.sample(us(52.0), &m, &[]);
        assert_eq!(s.len(), 1);
        let sm = s.samples().next().unwrap();
        assert_eq!(sm.at, us(50.0));
        assert_eq!(sm.counters, vec![4]);
        // The next boundary continues from there.
        assert!(!s.due(us(59.0)));
        assert!(s.due(us(60.0)));
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let mut m = Metrics::default();
        let mut s = Sampler::new(SamplerConfig::new(1.0, 3), &["g"]);
        s.track_counter(&mut m, "x");
        for i in 1..=5u64 {
            m.inc("x", 1);
            s.sample(us(i as f64), &m, &[i]);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.taken(), 5);
        let gauges: Vec<u64> = s.samples().map(|sm| sm.gauges[0]).collect();
        assert_eq!(gauges, vec![3, 4, 5], "oldest samples were overwritten");
        // Deltas are anchored to the previous *sample*, dropped or not.
        assert!(s.samples().all(|sm| sm.counters == vec![1]));
    }

    #[test]
    fn json_exports_schema_and_utilization() {
        let mut m = Metrics::default();
        m.add_resource();
        m.set_label(crate::engine::ResourceId(0), "egress r0");
        let mut s = Sampler::new(SamplerConfig::new(10.0, 4), &["queue_depth"]);
        s.track_counter(&mut m, "serve.completed");
        s.track_resources(&m);
        m.inc("serve.completed", 2);
        m.on_acquire(
            crate::engine::ResourceId(0),
            Duration::from_us(5.0),
            Duration::ZERO,
        );
        s.sample(us(10.0), &m, &[7]);
        let json = s.to_json();
        assert!(json.contains("\"period_us\":10.000"), "{json}");
        assert!(
            json.contains("\"counters\":[\"serve.completed\"]"),
            "{json}"
        );
        assert!(json.contains("\"gauges\":[\"queue_depth\"]"), "{json}");
        assert!(json.contains("\"resources\":[\"egress r0\"]"), "{json}");
        // 5us busy over a 10us period: utilization 0.5.
        assert!(json.contains("\"utilization\":[0.5000]"), "{json}");
        let chrome = s.to_chrome_json();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert!(chrome.contains("\"name\":\"serve.completed\",\"ph\":\"C\""));
        assert!(chrome.contains("\"name\":\"util egress r0\""));
        assert!(chrome.contains("\"name\":\"process_name\""));
    }

    #[test]
    fn sampling_is_allocation_free_after_warmup() {
        // Indirect but deterministic: the ring's backing storage never
        // reallocates (capacity is reserved up front), and slot arrays
        // are reused on overwrite — observable as stable pointers.
        let mut m = Metrics::default();
        let mut s = Sampler::new(SamplerConfig::new(1.0, 2), &["g"]);
        s.track_counter(&mut m, "x");
        s.sample(us(1.0), &m, &[0]);
        s.sample(us(2.0), &m, &[0]);
        let p0 = s.ring.as_ptr();
        let c0 = s.ring[0].counters.as_ptr();
        for i in 3..50u64 {
            s.sample(us(i as f64), &m, &[i]);
        }
        assert_eq!(p0, s.ring.as_ptr(), "ring reallocated");
        assert_eq!(c0, s.ring[0].counters.as_ptr(), "slot arrays reallocated");
    }
}
