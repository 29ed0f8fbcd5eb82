//! Explicit clocks for span timing.
//!
//! Spans are always timed against a [`Clock`] passed in by the caller rather
//! than an ambient time source: the discrete-event simulator stamps spans
//! with *simulated* nanoseconds via [`ManualClock`], while the real CPU
//! trainer uses [`WallClock`]. Keeping the clock explicit is what lets the
//! same tracing code produce deterministic output under simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock {
    /// Current time in nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
}

/// Wall time relative to clock construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A clock advanced explicitly by its owner — the simulator sets it to the
/// current event time before recording spans.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Moves the clock to `ns`. Monotonicity is the caller's contract;
    /// moving backwards is permitted (e.g. replaying a second run) but spans
    /// straddling the jump will be nonsensical.
    pub fn set_ns(&self, ns: u64) {
        self.ns.store(ns, Ordering::Relaxed);
    }

    /// Advances the clock by `delta` nanoseconds.
    pub fn advance_ns(&self, delta: u64) {
        self.ns.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_settable() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.set_ns(42);
        assert_eq!(clock.now_ns(), 42);
        clock.advance_ns(8);
        assert_eq!(clock.now_ns(), 50);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}
