//! Fixture: same-cycle work runs as a direct call; only genuinely
//! future work goes through the calendar.

impl SmLane {
    fn kick(&mut self, sm: u32, warp: u32, now: u64) {
        self.start_warp(now, sm, warp);
        self.sched(sm, now + 1, LaneEv::Tick { sm, warp });
    }
}
