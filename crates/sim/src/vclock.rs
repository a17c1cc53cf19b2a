//! Vector clocks for happens-before tracking.
//!
//! A [`VClock`] maps thread indices to epochs. The sanitizer in the
//! MSCCL++ interpreter keeps one clock per simulated thread block and one
//! per synchronization cell: signals *release* (join the signaller's
//! clock into the cell's), waits *acquire* (join the cell's clock into
//! the waiter's). Two accesses are then ordered iff the later thread's
//! clock has caught up with the earlier access's epoch — the standard
//! vector-clock happens-before test.
//!
//! The static verifier (`commverify`) keeps sparse clocks of its own, one
//! per synchronization epoch of its happens-before graph.

/// A sparse-tailed vector clock: component `i` is thread `i`'s epoch.
///
/// Missing components read as zero, so clocks over differently-sized
/// thread sets compare cleanly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The empty clock (all components zero).
    pub fn new() -> VClock {
        VClock::default()
    }

    /// Component `i`, zero if never set.
    pub fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    /// Sets component `i` to `v`, growing the clock as needed.
    pub fn set(&mut self, i: usize, v: u64) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = v;
    }

    /// Increments component `i` and returns the new value.
    pub fn bump(&mut self, i: usize) -> u64 {
        let v = self.get(i) + 1;
        self.set(i, v);
        v
    }

    /// Componentwise maximum: `self = max(self, other)`.
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Whether every component of `self` is `>=` the corresponding
    /// component of `other` (i.e. `other`'s knowledge is contained).
    pub fn dominates(&self, other: &VClock) -> bool {
        (0..other.0.len().max(self.0.len())).all(|i| self.get(i) >= other.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_takes_componentwise_max() {
        let mut a = VClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VClock::new();
        b.set(0, 1);
        b.set(1, 5);
        a.join(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn missing_components_read_zero_and_dominance_holds() {
        let mut a = VClock::new();
        a.set(3, 2);
        assert_eq!(a.get(7), 0);
        let mut b = VClock::new();
        b.set(3, 1);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        b.set(0, 1);
        assert!(!a.dominates(&b));
    }

    #[test]
    fn bump_increments_from_zero() {
        let mut c = VClock::new();
        assert_eq!(c.bump(4), 1);
        assert_eq!(c.bump(4), 2);
        assert_eq!(c.get(4), 2);
    }
}
