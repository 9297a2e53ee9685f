//! Structural-hazard primitives: issue ports and finite MSHR files.

use crate::config::Cycle;

/// A pipelined port group: up to `width` operations may *start* per cycle.
///
/// Models TLB/cache ports as a throughput limit — an operation granted at
/// cycle `t` completes after the structure's fixed latency, but no more than
/// `width` grants are handed out for any single cycle.
#[derive(Debug, Clone)]
pub struct Ports {
    width: u32,
    cycle: Cycle,
    used: u32,
}

impl Ports {
    /// Creates a port group with `width` issue slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "port width must be nonzero");
        Self { width, cycle: 0, used: 0 }
    }

    /// Grants an issue slot at or after `now`, returning the start cycle.
    pub fn grant(&mut self, now: Cycle) -> Cycle {
        if now > self.cycle {
            self.cycle = now;
            self.used = 0;
        }
        if self.used < self.width {
            self.used += 1;
            self.cycle
        } else {
            self.cycle += 1;
            self.used = 1;
            self.cycle
        }
    }

    /// The cycle [`Ports::grant`] would return for `now`, without
    /// consuming a slot (the fast path's structural-hazard probe).
    pub fn peek_grant(&self, now: Cycle) -> Cycle {
        if now > self.cycle {
            now
        } else if self.used < self.width {
            self.cycle
        } else {
            self.cycle + 1
        }
    }
}

/// Outcome of attempting to track a miss in an MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrGrant {
    /// A new entry was allocated; the caller must issue the fill.
    Allocated,
    /// An entry for the same key already existed; the request was merged.
    Merged,
    /// The file is full; the request must be queued and retried.
    Full,
}

/// A finite file of miss-status holding registers keyed by `K`, each
/// carrying a list of waiter tokens `W`.
///
/// Lookups are hash-indexed: the file sits on the per-access hot path of
/// every cache level, so linear scans would dominate simulation time.
#[derive(Debug, Clone)]
pub struct MshrFile<K, W> {
    capacity: usize,
    entries: crate::fxhash::FxHashMap<K, Vec<W>>,
    /// Retired waiter vectors, kept so steady-state allocate/complete
    /// cycles reuse capacity instead of hitting the allocator every miss.
    /// A recycling pool, not a hot per-element structure.
    spare: Vec<Vec<W>>,
}

impl<K: std::hash::Hash + Eq + Copy, W> MshrFile<K, W> {
    /// Creates a file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, entries: crate::fxhash::FxHashMap::default(), spare: Vec::new() }
    }

    /// Registers a miss for `key` with waiter `w`.
    pub fn request(&mut self, key: K, w: W) -> MshrGrant {
        if let Some(waiters) = self.entries.get_mut(&key) {
            waiters.push(w);
            return MshrGrant::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrGrant::Full;
        }
        let mut waiters = self.spare.pop().unwrap_or_default();
        waiters.push(w);
        self.entries.insert(key, waiters);
        MshrGrant::Allocated
    }

    /// Whether an in-flight entry exists for `key`.
    pub fn contains(&self, key: K) -> bool {
        self.entries.contains_key(&key)
    }

    /// Adds a waiter to an existing entry; `false` if no entry exists.
    pub fn merge(&mut self, key: K, w: W) -> bool {
        if let Some(waiters) = self.entries.get_mut(&key) {
            waiters.push(w);
            true
        } else {
            false
        }
    }

    /// Completes the miss for `key`, returning its waiters.
    pub fn complete(&mut self, key: K) -> Option<Vec<W>> {
        self.entries.remove(&key)
    }

    /// Removes one waiter equal to `w` from the entry for `key`,
    /// dropping the entry when its waiter list empties. Returns whether
    /// a waiter was removed. Tolerates both a missing entry and a
    /// missing waiter — the remote-access completion path races benignly
    /// with ordinary resolution, and whichever side runs second must be
    /// a no-op.
    pub fn remove_waiter(&mut self, key: K, w: &W) -> bool
    where
        W: PartialEq,
    {
        let Some(waiters) = self.entries.get_mut(&key) else {
            return false;
        };
        let Some(pos) = waiters.iter().position(|x| x == w) else {
            return false;
        };
        waiters.remove(pos);
        if waiters.is_empty() {
            let empty = self.entries.remove(&key).expect("entry just accessed");
            self.recycle(empty);
        }
        true
    }

    /// Returns a drained waiter vector to the file's spare pool.
    ///
    /// Every engine caller of [`MshrFile::complete`] drains the waiters
    /// and hands the empty vector back here, which makes the
    /// allocate/complete cycle allocation-free in steady state. Non-empty
    /// vectors are cleared.
    pub fn recycle(&mut self, mut waiters: Vec<W>) {
        waiters.clear();
        if self.spare.len() < self.capacity && waiters.capacity() > 0 {
            self.spare.push(waiters);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Visits every waiter of every live entry (checked-mode reference
    /// audits recompute per-request refcounts this way). Read-only;
    /// iteration order is unspecified.
    #[allow(
        clippy::disallowed_methods,
        reason = "order is unspecified by contract; the callers are audits that count waiters"
    )]
    pub fn for_each_waiter(&self, mut f: impl FnMut(&W)) {
        for waiters in self.entries.values() {
            for w in waiters {
                f(w);
            }
        }
    }

    /// Asserts file consistency: never above capacity, no entry without a
    /// waiter (an MSHR exists only to hold whoever is waiting on the
    /// fill), and every pooled spare vector empty. Read-only; called
    /// periodically by the engine in checked (`invariants` feature)
    /// builds.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[allow(clippy::disallowed_methods, reason = "asserts a property of every entry; order-free")]
    pub fn audit_invariants(&self) {
        assert!(
            self.entries.len() <= self.capacity,
            "MSHR file over capacity: {} entries, capacity {}",
            self.entries.len(),
            self.capacity
        );
        for waiters in self.entries.values() {
            assert!(!waiters.is_empty(), "MSHR entry with no waiters");
        }
        assert!(self.spare.len() <= self.capacity, "spare pool over capacity");
        assert!(
            self.spare.iter().all(Vec::is_empty),
            "spare pool holds a non-empty waiter vector"
        );
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "an oracle independent of the hasher under test")]
mod tests {
    use super::*;

    #[test]
    fn ports_limit_starts_per_cycle() {
        let mut p = Ports::new(2);
        assert_eq!(p.grant(10), 10);
        assert_eq!(p.grant(10), 10);
        assert_eq!(p.grant(10), 11);
        assert_eq!(p.grant(10), 11);
        assert_eq!(p.grant(10), 12);
    }

    #[test]
    fn ports_reset_on_later_cycle() {
        let mut p = Ports::new(1);
        assert_eq!(p.grant(5), 5);
        assert_eq!(p.grant(5), 6);
        assert_eq!(p.grant(100), 100);
    }

    #[test]
    fn ports_do_not_go_backwards() {
        let mut p = Ports::new(1);
        assert_eq!(p.grant(10), 10);
        // A request arriving "earlier" (same-cycle reordering) still gets a
        // slot no earlier than the port's high-water mark.
        assert_eq!(p.grant(3), 11);
    }

    #[test]
    fn peek_grant_matches_grant_without_consuming() {
        let mut p = Ports::new(2);
        // Fresh port: a future cycle resets the window.
        assert_eq!(p.peek_grant(10), 10);
        assert_eq!(p.grant(10), 10);
        // One slot left this cycle.
        assert_eq!(p.peek_grant(10), 10);
        assert_eq!(p.grant(10), 10);
        // Cycle full: the next grant spills to 11 — and peeking never
        // consumed anything along the way.
        assert_eq!(p.peek_grant(10), 11);
        assert_eq!(p.peek_grant(10), 11);
        assert_eq!(p.grant(10), 11);
        // High-water mark: an "earlier" request peeks the same late slot
        // `grant` would give it.
        assert_eq!(p.peek_grant(3), 11);
        assert_eq!(p.grant(3), 11);
    }

    #[test]
    fn mshr_for_each_waiter_visits_all() {
        let mut m: MshrFile<u64, u32> = MshrFile::new(4);
        m.request(1, 10);
        m.merge(1, 11);
        m.request(2, 20);
        let mut seen: Vec<u32> = Vec::new();
        m.for_each_waiter(|w| seen.push(*w));
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 11, 20]);
    }

    #[test]
    fn mshr_alloc_merge_full() {
        let mut m: MshrFile<u64, u32> = MshrFile::new(2);
        assert_eq!(m.request(100, 1), MshrGrant::Allocated);
        assert_eq!(m.request(100, 2), MshrGrant::Merged);
        assert_eq!(m.request(200, 3), MshrGrant::Allocated);
        assert_eq!(m.request(300, 4), MshrGrant::Full);
        assert_eq!(m.complete(100), Some(vec![1, 2]));
        assert_eq!(m.request(300, 4), MshrGrant::Allocated);
        assert!(m.is_full());
    }

    #[test]
    fn mshr_complete_hands_back_waiters_and_frees_the_entry() {
        let mut m: MshrFile<u64, u32> = MshrFile::new(4);
        m.request(1, 10);
        m.merge(1, 11);
        m.request(2, 20);
        assert_eq!(m.len(), 2);
        // The entry goes away; its waiters come back in arrival order.
        assert_eq!(m.complete(1), Some(vec![10, 11]));
        assert_eq!(m.len(), 1);
        assert!(!m.contains(1) && m.contains(2));
        assert_eq!(m.complete(2), Some(vec![20]));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn mshr_recycle_reuses_capacity() {
        let mut m: MshrFile<u64, u32> = MshrFile::new(4);
        m.request(1, 10);
        m.merge(1, 11);
        let waiters = m.complete(1).unwrap();
        let cap = waiters.capacity();
        m.recycle(waiters);
        // The next allocation draws from the spare pool: same capacity,
        // fresh contents.
        assert_eq!(m.request(2, 20), MshrGrant::Allocated);
        let again = m.complete(2).unwrap();
        assert_eq!(again, vec![20]);
        assert!(again.capacity() >= cap);
    }

    #[test]
    fn mshr_complete_unknown_key_is_none() {
        let mut m: MshrFile<u64, ()> = MshrFile::new(1);
        assert_eq!(m.complete(42), None);
    }

    #[test]
    fn mshr_merge_only_into_existing() {
        let mut m: MshrFile<u64, u8> = MshrFile::new(4);
        assert!(!m.merge(5, 1));
        m.request(5, 0);
        assert!(m.merge(5, 1));
        assert_eq!(m.complete(5), Some(vec![0, 1]));
    }

    // Property tests (hand-rolled generators over SimRng; the registry
    // is unreachable, so no proptest). These lived in the integration
    // suite until `port` became `pub(crate)`.

    use crate::rng::SimRng;

    const TRIALS: u64 = 64;

    fn vec_of<T>(
        rng: &mut SimRng,
        min: usize,
        max: usize,
        mut gen: impl FnMut(&mut SimRng) -> T,
    ) -> Vec<T> {
        let n = min + rng.index(max - min + 1);
        (0..n).map(|_| gen(rng)).collect()
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "checks every count; order-free")]
    fn ports_grants_are_monotonic_and_bounded() {
        for trial in 0..TRIALS {
            let mut rng = SimRng::seed_from_u64(0x1001 ^ trial);
            let width = 1 + rng.next_below(7) as u32;
            let mut times = vec_of(&mut rng, 1, 200, |r| r.next_below(1000));
            times.sort_unstable();
            let mut p = Ports::new(width);
            let mut grants = Vec::new();
            for t in times {
                grants.push(p.grant(t));
            }
            // Monotonic when requests arrive in time order.
            for w in grants.windows(2) {
                assert!(w[1] >= w[0], "trial {trial}: grants went backwards");
            }
            // No cycle is granted more than `width` times.
            let mut counts = std::collections::HashMap::new();
            for g in grants {
                *counts.entry(g).or_insert(0u32) += 1;
            }
            assert!(counts.values().all(|&c| c <= width), "trial {trial}: cycle over-granted");
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "sums waiter counts; order-free")]
    fn mshr_capacity_is_respected() {
        for trial in 0..TRIALS {
            let mut rng = SimRng::seed_from_u64(0x1002 ^ trial);
            let cap = 1 + rng.index(15);
            let keys = vec_of(&mut rng, 1, 100, |r| r.next_below(32));
            let mut m: MshrFile<u64, usize> = MshrFile::new(cap);
            let mut live = std::collections::HashSet::new();
            for (i, k) in keys.iter().enumerate() {
                match m.request(*k, i) {
                    MshrGrant::Allocated => {
                        assert!(live.insert(*k), "trial {trial}: double allocation");
                        assert!(live.len() <= cap, "trial {trial}: capacity exceeded");
                    }
                    MshrGrant::Merged => assert!(live.contains(k), "trial {trial}"),
                    MshrGrant::Full => {
                        assert_eq!(live.len(), cap, "trial {trial}");
                        assert!(!live.contains(k), "trial {trial}");
                    }
                }
                assert_eq!(m.len(), live.len(), "trial {trial}");
            }
            // Completion returns every merged waiter exactly once.
            let total_waiters: usize =
                live.iter().map(|k| m.complete(*k).map(|w| w.len()).unwrap_or(0)).sum();
            assert!(total_waiters <= keys.len(), "trial {trial}");
            assert_eq!(m.len(), 0, "trial {trial}");
        }
    }
}
