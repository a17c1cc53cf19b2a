//! The metrics registry: named monotonic counters plus per-resource
//! accounting (busy time, bytes carried, acquisitions, queueing delay).
//!
//! Every [`crate::Engine`] owns one [`Metrics`] registry. Processes
//! increment counters through [`crate::Ctx::count`]; resource accounting
//! is updated automatically by [`crate::Ctx::acquire_after`] and by
//! explicit [`crate::Ctx::meter_bytes`] calls at transfer sites. The
//! registry is append-only and deterministic: counters iterate in name
//! order, resources in allocation order.
//!
//! Counter names are interned (single owned copy per distinct name) and
//! values live in a dense id-indexed array, so `inc` is a short hash
//! probe plus an array add — cheap enough for per-instruction accounting
//! on the simulator's hot path. Sites that increment the same counter
//! many times should resolve a [`CounterId`] once and use
//! [`Metrics::inc_id`], which skips even the hash.

use crate::engine::ResourceId;
use crate::intern::Interner;
use crate::time::Duration;

/// A pre-resolved counter handle (see [`Metrics::counter_id`]): stable
/// for the lifetime of the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// A snapshot of one resource's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceStat {
    /// The resource.
    pub id: ResourceId,
    /// Diagnostic label (empty if never labeled).
    pub label: String,
    /// Cumulative occupied time.
    pub busy: Duration,
    /// Cumulative bytes metered through the resource.
    pub bytes: u64,
    /// Number of acquisitions.
    pub acquires: u64,
    /// Cumulative time acquisitions spent queued behind earlier work
    /// (actual start minus requested start).
    pub queue_delay: Duration,
}

/// Monotonic counters and per-resource accounting for one engine.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    names: Interner,
    values: Vec<u64>,
    labels: Vec<String>,
    busy: Vec<Duration>,
    bytes: Vec<u64>,
    acquires: Vec<u64>,
    queue_delay: Vec<Duration>,
}

/// Counter equality is *content* equality (same name → value mapping),
/// independent of first-increment order, so two deterministic runs that
/// discover counters in different orders still compare equal.
impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels
            && self.busy == other.busy
            && self.bytes == other.bytes
            && self.acquires == other.acquires
            && self.queue_delay == other.queue_delay
            && self.sorted_counters() == other.sorted_counters()
    }
}

impl Eq for Metrics {}

impl Metrics {
    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, delta: u64) {
        let id = self.counter_id(name);
        self.values[id.0 as usize] += delta;
    }

    /// Resolves a name to a stable [`CounterId`] (creating the counter at
    /// zero if new). Resolve once, then use [`Metrics::inc_id`] on hot
    /// paths.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        let id = self.names.get_or_intern(name);
        if id as usize == self.values.len() {
            self.values.push(0);
        }
        CounterId(id)
    }

    /// Adds `delta` to a pre-resolved counter: one array add.
    pub fn inc_id(&mut self, id: CounterId, delta: u64) {
        self.values[id.0 as usize] += delta;
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.names
            .get(name)
            .map_or(0, |id| self.values[id as usize])
    }

    /// Current value of a pre-resolved counter: one array read. The hot
    /// read path for periodic samplers ([`crate::telemetry::Sampler`]).
    pub fn value(&self, id: CounterId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Name/value pairs sorted by name (the deterministic iteration
    /// order, regardless of first-increment order).
    fn sorted_counters(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .names
            .strings()
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), self.values[i]))
            .collect();
        v.sort_unstable_by_key(|&(name, _)| name);
        v
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.sorted_counters().into_iter()
    }

    /// Counters whose names start with `prefix`, in name order — the
    /// export path for a subsystem's counter family (e.g. `serve.` for
    /// the serving scheduler, `fault.` for recovery).
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.sorted_counters()
            .into_iter()
            .filter(move |(name, _)| name.starts_with(prefix))
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.names
            .strings()
            .iter()
            .enumerate()
            .filter(|(_, name)| name.starts_with(prefix))
            .map(|(i, _)| self.values[i])
            .sum()
    }

    pub(crate) fn add_resource(&mut self) {
        self.labels.push(String::new());
        self.busy.push(Duration::ZERO);
        self.bytes.push(0);
        self.acquires.push(0);
        self.queue_delay.push(Duration::ZERO);
    }

    pub(crate) fn set_label(&mut self, r: ResourceId, label: &str) {
        label.clone_into(&mut self.labels[r.0]);
    }

    pub(crate) fn on_acquire(&mut self, r: ResourceId, busy: Duration, queued: Duration) {
        self.busy[r.0] += busy;
        self.acquires[r.0] += 1;
        self.queue_delay[r.0] += queued;
    }

    pub(crate) fn add_bytes(&mut self, r: ResourceId, bytes: u64) {
        self.bytes[r.0] += bytes;
    }

    /// Adds a replayed run's accounting for one resource.
    pub(crate) fn on_replay(
        &mut self,
        r: ResourceId,
        busy: Duration,
        bytes: u64,
        acquires: u64,
        queued: Duration,
    ) {
        self.busy[r.0] += busy;
        self.bytes[r.0] += bytes;
        self.acquires[r.0] += acquires;
        self.queue_delay[r.0] += queued;
    }

    /// Removes busy time that an abort cancelled before it elapsed
    /// (best-effort: clamped to the accumulated total).
    pub(crate) fn cancel_busy(&mut self, r: ResourceId, overhang: Duration) {
        self.busy[r.0] = self.busy[r.0].saturating_sub(overhang);
    }

    /// Cumulative occupied time of a resource.
    pub fn busy(&self, r: ResourceId) -> Duration {
        self.busy[r.0]
    }

    /// Cumulative bytes metered through a resource.
    pub fn bytes(&self, r: ResourceId) -> u64 {
        self.bytes[r.0]
    }

    /// Snapshot of one resource's accounting.
    pub fn resource(&self, r: ResourceId) -> ResourceStat {
        ResourceStat {
            id: r,
            label: self.labels[r.0].clone(),
            busy: self.busy[r.0],
            bytes: self.bytes[r.0],
            acquires: self.acquires[r.0],
            queue_delay: self.queue_delay[r.0],
        }
    }

    /// Snapshots of every resource, in allocation order.
    pub fn resources(&self) -> Vec<ResourceStat> {
        (0..self.labels.len())
            .map(|i| self.resource(ResourceId(i)))
            .collect()
    }

    /// Number of resources tracked.
    pub fn resource_count(&self) -> usize {
        self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_ordered() {
        let mut m = Metrics::default();
        m.inc("b.two", 2);
        m.inc("a.one", 1);
        m.inc("b.two", 3);
        assert_eq!(m.counter("b.two"), 5);
        assert_eq!(m.counter("a.one"), 1);
        assert_eq!(m.counter("missing"), 0);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
    }

    #[test]
    fn counter_sum_covers_prefix_only() {
        let mut m = Metrics::default();
        m.inc("sync.waits", 4);
        m.inc("sync.signals", 2);
        m.inc("synchronous", 100); // prefix match is string-wise
        m.inc("other", 7);
        assert_eq!(m.counter_sum("sync."), 6);
        assert_eq!(m.counter_sum("sync"), 106);
        assert_eq!(m.counter_sum("zzz"), 0);
    }

    #[test]
    fn counter_ids_are_stable_and_fast_path_matches_named_path() {
        let mut m = Metrics::default();
        let id = m.counter_id("instr.put");
        assert_eq!(m.counter("instr.put"), 0, "resolved counters exist at 0");
        m.inc_id(id, 3);
        m.inc("instr.put", 2);
        assert_eq!(m.counter_id("instr.put"), id);
        assert_eq!(m.counter("instr.put"), 5);
    }

    #[test]
    fn equality_ignores_first_increment_order() {
        let mut a = Metrics::default();
        a.inc("x", 1);
        a.inc("y", 2);
        let mut b = Metrics::default();
        b.inc("y", 2);
        b.inc("x", 1);
        assert_eq!(a, b);
        b.inc("x", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn resource_accounting_accumulates() {
        let mut m = Metrics::default();
        m.add_resource();
        let r = ResourceId(0);
        m.set_label(r, "egress r0");
        m.on_acquire(r, Duration::from_ns(10.0), Duration::ZERO);
        m.on_acquire(r, Duration::from_ns(10.0), Duration::from_ns(10.0));
        m.add_bytes(r, 2270);
        let s = m.resource(r);
        assert_eq!(s.label, "egress r0");
        assert_eq!(s.busy.as_ns(), 20.0);
        assert_eq!(s.bytes, 2270);
        assert_eq!(s.acquires, 2);
        assert_eq!(s.queue_delay.as_ns(), 10.0);
        assert_eq!(m.resources().len(), 1);
    }
}
