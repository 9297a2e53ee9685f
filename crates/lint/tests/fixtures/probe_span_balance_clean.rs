//! Fixture: the sanctioned shape — span opened and closed in one function.

pub fn good_span(p: &mut RecordLog, now: u64, done: u64) {
    p.span_enter(SpanPoint::FastPath, Track::sm_warp(0, 0), now);
    p.span_exit(SpanPoint::FastPath, Track::sm_warp(0, 0), done);
}
