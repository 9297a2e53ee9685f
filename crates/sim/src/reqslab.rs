//! Generation-tagged slab for in-flight memory requests.
//!
//! The engine used to push every `MemReq` into a grow-only `Vec` — one
//! slot per coalesced sector request, millions per cell, none ever
//! reclaimed. This slab recycles completed slots through a free list, so
//! resident request memory is bounded by the *peak in-flight* request
//! count instead of the total issued. Each slot carries a generation
//! counter, bumped on free; a [`ReqId`] captures the generation it was
//! minted with, so a stale handle (an event that somehow outlived its
//! request) can never silently alias the slot's next tenant — lookups
//! through a stale id return `None`, and checked-mode audits assert it
//! never happens at all.

/// Handle to a slab slot: index plus the generation it was allocated in.
///
/// Copyable and order-free — ids are compared only for identity, never
/// ranked — so they can ride inside calendar events and MSHR waiter lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId {
    slot: u32,
    gen: u32,
}

impl ReqId {
    /// Slot index (stable for the lifetime of the allocation; reused —
    /// under a new generation — after the request is freed).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

/// One slab slot: the payload plus the slot's current generation.
#[derive(Debug, Clone)]
struct Slot<T> {
    /// Bumped every time the slot is freed; a [`ReqId`] is live iff its
    /// generation matches.
    gen: u32,
    /// `None` only while the slot sits on the free list.
    val: Option<T>,
}

/// A free-list slab of request payloads with generation-tagged handles.
#[derive(Debug, Clone, Default)]
pub struct ReqSlab<T> {
    slots: Vec<Slot<T>>,
    /// Retired slot indices, reused LIFO.
    free: Vec<u32>,
}

impl<T> ReqSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self { slots: Vec::new(), free: Vec::new() }
    }

    /// Allocates a slot for `val`, reusing a freed slot if one exists.
    pub fn insert(&mut self, val: T) -> ReqId {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.val.is_none(), "free-listed slot still occupied");
            s.val = Some(val);
            ReqId { slot, gen: s.gen }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot { gen: 0, val: Some(val) });
            ReqId { slot, gen: 0 }
        }
    }

    /// The payload for `id`, or `None` if the id is stale (its slot was
    /// freed, and possibly reallocated, since it was minted).
    pub fn get(&self, id: ReqId) -> Option<&T> {
        let s = self.slots.get(id.slot as usize)?;
        if s.gen == id.gen {
            s.val.as_ref()
        } else {
            None
        }
    }

    /// Mutable payload access; `None` on a stale id.
    pub fn get_mut(&mut self, id: ReqId) -> Option<&mut T> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.gen == id.gen {
            s.val.as_mut()
        } else {
            None
        }
    }

    /// Frees the slot for `id`, returning its payload and bumping the
    /// generation so every outstanding copy of `id` goes stale. `None` if
    /// `id` is already stale.
    pub fn remove(&mut self, id: ReqId) -> Option<T> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.gen != id.gen {
            return None;
        }
        let val = s.val.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        Some(val)
    }

    /// Number of live (allocated) payloads.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no payload is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (the resident-memory high-water mark).
    #[cfg_attr(not(test), allow(dead_code, reason = "crate-private; test-exercised API completeness"))]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Visits every live payload with its id, in slot order. Read-only.
    pub fn for_each(&self, mut f: impl FnMut(ReqId, &T)) {
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(v) = &s.val {
                f(ReqId { slot: i as u32, gen: s.gen }, v);
            }
        }
    }

    /// Asserts slab consistency: free-list conservation (every slot is
    /// live or free-listed exactly once, so `live + free == slots`), no
    /// free-listed slot still holding a payload, and no out-of-range or
    /// duplicated free index. Read-only; called periodically by the engine
    /// in checked (`invariants` feature) builds.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn audit_invariants(&self) {
        let occupied = self.slots.iter().filter(|s| s.val.is_some()).count();
        assert_eq!(
            occupied + self.free.len(),
            self.slots.len(),
            "request slab slots leaked: {} occupied + {} free != {} slots",
            occupied,
            self.free.len(),
            self.slots.len()
        );
        let mut seen = vec![false; self.slots.len()];
        for &f in &self.free {
            let i = f as usize;
            assert!(i < self.slots.len(), "free list holds out-of-range slot {f}");
            assert!(!seen[i], "slot {f} free-listed twice");
            seen[i] = true;
            assert!(self.slots[i].val.is_none(), "free slot {f} still holds a request");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: ReqSlab<&str> = ReqSlab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(b), Some(&"b"));
    }

    #[test]
    fn free_list_conservation_under_churn() {
        let mut s: ReqSlab<u64> = ReqSlab::new();
        // Steady-state churn: never more than 8 requests live, so the
        // slab must never grow past the high-water mark.
        let mut live = Vec::new();
        for round in 0..1000u64 {
            for k in 0..8 {
                live.push(s.insert(round * 8 + k));
            }
            s.audit_invariants();
            for id in live.drain(..) {
                assert!(s.remove(id).is_some());
            }
            s.audit_invariants();
        }
        assert!(s.is_empty());
        assert!(s.capacity() <= 8, "slab grew to {} despite recycling", s.capacity());
    }

    #[test]
    fn stale_id_is_rejected_after_reuse() {
        let mut s: ReqSlab<u32> = ReqSlab::new();
        let old = s.insert(1);
        assert_eq!(s.remove(old), Some(1));
        // The freed slot is recycled under a new generation...
        let new = s.insert(2);
        assert_eq!(new.slot(), old.slot());
        assert_ne!(new, old);
        // ...and every access through the stale id misses.
        assert_eq!(s.get(old), None);
        assert_eq!(s.get_mut(old), None);
        assert_eq!(s.remove(old), None);
        // The new tenant is untouched by the stale traffic.
        assert_eq!(s.get(new), Some(&2));
    }

    #[test]
    fn double_remove_is_inert() {
        let mut s: ReqSlab<u32> = ReqSlab::new();
        let id = s.insert(7);
        assert_eq!(s.remove(id), Some(7));
        assert_eq!(s.remove(id), None, "second remove through the same id");
        s.audit_invariants();
        assert!(s.is_empty());
    }

    #[test]
    fn for_each_visits_live_only() {
        let mut s: ReqSlab<u32> = ReqSlab::new();
        let a = s.insert(10);
        let _b = s.insert(20);
        let c = s.insert(30);
        s.remove(a);
        let mut seen = Vec::new();
        s.for_each(|id, v| seen.push((id.slot(), *v)));
        assert_eq!(seen, vec![(1, 20), (2, 30)]);
        assert!(s.get(c).is_some());
    }

    #[test]
    fn audit_detects_double_free() {
        let mut s: ReqSlab<u32> = ReqSlab::new();
        let id = s.insert(1);
        s.remove(id);
        s.free.push(id.slot()); // corrupt: same slot free-listed twice
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.audit_invariants()));
        assert!(err.is_err(), "audit must catch a double-freed slot");
    }
}
