//! Fixture: a zero-delta self-schedule pays a full calendar round-trip
//! (insert, pop, dispatch) to run code in the same cycle.

impl SmLane {
    fn kick(&mut self, sm: u32, warp: u32, now: u64) {
        self.sched(sm, now, LaneEv::Tick { sm, warp });
    }
}
