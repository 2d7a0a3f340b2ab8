//! Bounded flight recorder: a ring of recent structured events for
//! postmortems.
//!
//! The serving engine's state tags (a session silently flipping to
//! poisoned, a model hot-swap evicting cache entries, a panicked
//! forward) are invisible after the fact. The recorder keeps the last
//! `capacity` such events with sequence numbers and microsecond
//! timestamps, so a `ServeHandle` snapshot can answer "what happened
//! right before this engine misbehaved" without any logging
//! infrastructure.
//!
//! Recording takes one short mutex on the ring — events are rare
//! (fallbacks, swaps, panicked forwards), never per-request — and a
//! disabled recorder declines before locking.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What kind of incident a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlightEventKind {
    /// A session update crossed a structural boundary and fell back to a
    /// full pipeline rebuild (the rebuild succeeded).
    Fallback,
    /// A session's G-net column space crossed the tombstone threshold and
    /// the fallback rebuild compacted it, renumbering columns and
    /// invalidating downstream activation caches.
    Compaction,
    /// A structural fallback's rebuild failed; the session pipeline is
    /// poisoned and will refuse further traffic.
    Poisoned,
    /// A session update panicked mid-application; the session is wedged.
    Wedged,
    /// A model version was hot-swapped in the registry, evicting the
    /// displaced version's cache entries.
    HotSwap,
    /// A forward pass panicked: its requester got `WorkerLost` and the
    /// key's waiters started over.
    WorkerLost,
}

impl std::fmt::Display for FlightEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FlightEventKind::Fallback => "fallback",
            FlightEventKind::Compaction => "compaction",
            FlightEventKind::Poisoned => "poisoned",
            FlightEventKind::Wedged => "wedged",
            FlightEventKind::HotSwap => "hot-swap",
            FlightEventKind::WorkerLost => "worker-lost",
        };
        f.write_str(s)
    }
}

/// One recorded incident.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotone sequence number (total events ever recorded, including
    /// ones the ring has since dropped).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Incident kind.
    pub kind: FlightEventKind,
    /// What the event is about — a design name, `shard N`, or a model
    /// name, depending on the kind.
    pub scope: String,
    /// Free-form detail (reason, counts).
    pub detail: String,
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} +{:.3}s {} [{}] {}",
            self.seq,
            self.at_us as f64 / 1e6,
            self.kind,
            self.scope,
            self.detail
        )
    }
}

struct FlightState {
    ring: VecDeque<FlightEvent>,
    seq: u64,
}

/// The bounded event ring. One per engine.
pub struct FlightRecorder {
    enabled: AtomicBool,
    capacity: usize,
    started: Instant,
    state: Mutex<FlightState>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("total", &self.total())
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// An enabled recorder keeping the most recent `capacity` events
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            capacity: capacity.max(1),
            started: Instant::now(),
            state: Mutex::new(FlightState { ring: VecDeque::new(), seq: 0 }),
        }
    }

    /// A recorder that drops everything (the engine off-switch).
    pub fn disabled() -> Self {
        let r = Self::new(1);
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Whether events are currently kept. Call sites formatting an
    /// expensive detail string may check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event (dropped without locking when disabled).
    pub fn record(&self, kind: FlightEventKind, scope: &str, detail: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        let at_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.seq += 1;
        let ev = FlightEvent {
            seq: st.seq,
            at_us,
            kind,
            scope: scope.to_string(),
            detail: detail.into(),
        };
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
        }
        st.ring.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.ring.iter().cloned().collect()
    }

    /// Total events ever recorded (including ones the ring dropped).
    pub fn total(&self) -> u64 {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let r = FlightRecorder::new(8);
        r.record(FlightEventKind::Fallback, "d0", "structural crossing: 3 nets");
        r.record(FlightEventKind::HotSwap, "lhnn", "v1 -> v2");
        let evs = r.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 1);
        assert_eq!(evs[0].kind, FlightEventKind::Fallback);
        assert_eq!(evs[1].scope, "lhnn");
        assert!(evs[1].at_us >= evs[0].at_us);
        let line = format!("{}", evs[0]);
        assert!(line.contains("fallback"), "got {line}");
        assert!(line.contains("[d0]"), "got {line}");
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let r = FlightRecorder::new(3);
        for i in 0..10 {
            r.record(FlightEventKind::Fallback, "d0", format!("update {i}"));
        }
        let evs = r.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 8, "oldest retained event");
        assert_eq!(evs[2].seq, 10);
        assert_eq!(r.total(), 10);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(FlightEventKind::Wedged, "d0", "panic");
        assert!(r.snapshot().is_empty());
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn kinds_render_stably() {
        // the CLI greps/pretty-prints these names; keep them fixed
        assert_eq!(FlightEventKind::Fallback.to_string(), "fallback");
        assert_eq!(FlightEventKind::Compaction.to_string(), "compaction");
        assert_eq!(FlightEventKind::Poisoned.to_string(), "poisoned");
        assert_eq!(FlightEventKind::Wedged.to_string(), "wedged");
        assert_eq!(FlightEventKind::HotSwap.to_string(), "hot-swap");
        assert_eq!(FlightEventKind::WorkerLost.to_string(), "worker-lost");
    }
}
