//! Fixture: wall-clock data inside a session event payload.
pub fn report(log: &mut super::EventLog, started: std::time::Instant) {
    log.push(SessionEvent::StallStart { at: secs(started.elapsed()) });
}
