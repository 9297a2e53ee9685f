//! Fixture: a probe span opened but never closed inside one function.

pub fn bad_span(p: &mut RecordLog, now: u64) {
    p.span_enter(SpanPoint::FastPath, Track::sm_warp(0, 0), now);
    // early return path forgot the close: the trace nesting corrupts
}
