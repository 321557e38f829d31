//! EDAC-style error counters.
//!
//! Linux exposes per-DIMM/rank CE/UE counts through the EDAC subsystem; the
//! paper reads those to drive the GA fitness function and to draw the polar
//! distribution of Fig. 1b. [`EccCounters`] is the simulated equivalent:
//! thread-safe tallies of each [`EventKind`] that can be snapshotted and
//! diffed around a virus run.

use crate::classify::EventKind;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Correctable (single-bit) errors.
    pub ce: u64,
    /// Detected uncorrectable errors.
    pub ue: u64,
    /// Silent miscorrections (≥3-bit words "corrected" to wrong data).
    pub sdc_miscorrected: u64,
    /// Undetected multi-bit errors.
    pub sdc_undetected: u64,
    /// Clean reads observed.
    pub clean: u64,
}

impl CounterSnapshot {
    /// Total visible errors (CE + UE) — what real EDAC hardware can report.
    pub fn visible(&self) -> u64 {
        self.ce + self.ue
    }

    /// Total silent corruptions — observable only in simulation, where
    /// ground truth is known.
    pub fn silent(&self) -> u64 {
        self.sdc_miscorrected + self.sdc_undetected
    }

    /// Tallies one decode outcome into this snapshot. The lock-free local
    /// accumulator behind per-run deltas: callers that already know which
    /// events a run produced can count them here instead of diffing two
    /// full [`EccCounters`] snapshots around the run.
    pub fn count(&mut self, kind: EventKind) {
        self.count_many(kind, 1);
    }

    /// Tallies `count` decode outcomes of the same kind at once.
    pub fn count_many(&mut self, kind: EventKind, count: u64) {
        match kind {
            EventKind::None => self.clean += count,
            EventKind::Ce => self.ce += count,
            EventKind::Ue => self.ue += count,
            EventKind::SdcMiscorrected => self.sdc_miscorrected += count,
            EventKind::SdcUndetected => self.sdc_undetected += count,
        }
    }

    /// Element-wise difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            ce: self.ce.saturating_sub(earlier.ce),
            ue: self.ue.saturating_sub(earlier.ue),
            sdc_miscorrected: self
                .sdc_miscorrected
                .saturating_sub(earlier.sdc_miscorrected),
            sdc_undetected: self.sdc_undetected.saturating_sub(earlier.sdc_undetected),
            clean: self.clean.saturating_sub(earlier.clean),
        }
    }
}

impl std::ops::Add for CounterSnapshot {
    type Output = CounterSnapshot;

    fn add(self, rhs: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            ce: self.ce + rhs.ce,
            ue: self.ue + rhs.ue,
            sdc_miscorrected: self.sdc_miscorrected + rhs.sdc_miscorrected,
            sdc_undetected: self.sdc_undetected + rhs.sdc_undetected,
            clean: self.clean + rhs.clean,
        }
    }
}

/// Thread-safe CE/UE/SDC tallies for one error domain (a DIMM rank, an MCU…).
///
/// # Examples
///
/// ```
/// use dstress_ecc::{EccCounters, EventKind};
///
/// let counters = EccCounters::new();
/// counters.record(EventKind::Ce);
/// counters.record(EventKind::Ue);
/// let snap = counters.snapshot();
/// assert_eq!(snap.ce, 1);
/// assert_eq!(snap.visible(), 2);
/// ```
#[derive(Debug, Default)]
pub struct EccCounters {
    inner: Mutex<CounterSnapshot>,
}

impl Clone for EccCounters {
    /// Clones by snapshotting: the replica starts with the same counts but
    /// its own lock, so parallel evaluation workers can own independent
    /// copies of a server.
    fn clone(&self) -> Self {
        EccCounters {
            inner: Mutex::new(self.snapshot()),
        }
    }
}

impl EccCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        EccCounters::default()
    }

    /// Records one decode outcome.
    pub fn record(&self, kind: EventKind) {
        self.inner.lock().count(kind);
    }

    /// Records many outcomes of the same kind at once (bulk scrub results).
    pub fn record_many(&self, kind: EventKind, count: u64) {
        self.inner.lock().count_many(kind, count);
    }

    /// Adds a whole counter delta under one lock: the bulk equivalent of
    /// one [`Self::record`] per outcome it counts.
    pub fn record_snapshot(&self, delta: &CounterSnapshot) {
        let mut c = self.inner.lock();
        *c = *c + *delta;
    }

    /// Returns a copy of the current tallies.
    pub fn snapshot(&self) -> CounterSnapshot {
        *self.inner.lock()
    }

    /// Resets all tallies to zero (the paper clears EDAC counters between
    /// virus runs).
    pub fn reset(&self) {
        *self.inner.lock() = CounterSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_each_kind() {
        let c = EccCounters::new();
        c.record(EventKind::None);
        c.record(EventKind::Ce);
        c.record(EventKind::Ce);
        c.record(EventKind::Ue);
        c.record(EventKind::SdcMiscorrected);
        c.record(EventKind::SdcUndetected);
        let s = c.snapshot();
        assert_eq!(s.clean, 1);
        assert_eq!(s.ce, 2);
        assert_eq!(s.ue, 1);
        assert_eq!(s.sdc_miscorrected, 1);
        assert_eq!(s.sdc_undetected, 1);
        assert_eq!(s.visible(), 3);
        assert_eq!(s.silent(), 2);
    }

    #[test]
    fn record_many_bulk() {
        let c = EccCounters::new();
        c.record_many(EventKind::Ce, 1000);
        assert_eq!(c.snapshot().ce, 1000);
    }

    #[test]
    fn record_snapshot_adds_every_field() {
        let c = EccCounters::new();
        c.record(EventKind::Ce);
        let delta = CounterSnapshot {
            ce: 2,
            ue: 3,
            sdc_miscorrected: 4,
            sdc_undetected: 5,
            clean: 6,
        };
        c.record_snapshot(&delta);
        assert_eq!(c.snapshot(), CounterSnapshot { ce: 3, ..delta });
    }

    #[test]
    fn reset_zeroes() {
        let c = EccCounters::new();
        c.record(EventKind::Ce);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn since_diffs_and_saturates() {
        let a = CounterSnapshot {
            ce: 10,
            ue: 1,
            sdc_miscorrected: 0,
            sdc_undetected: 0,
            clean: 5,
        };
        let b = CounterSnapshot {
            ce: 4,
            ue: 2,
            sdc_miscorrected: 0,
            sdc_undetected: 0,
            clean: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.ce, 6);
        assert_eq!(d.ue, 0, "saturating subtraction");
        assert_eq!(d.clean, 4);
    }

    #[test]
    fn add_is_elementwise() {
        let a = CounterSnapshot {
            ce: 1,
            ue: 2,
            sdc_miscorrected: 3,
            sdc_undetected: 4,
            clean: 5,
        };
        let sum = a + a;
        assert_eq!(sum.ce, 2);
        assert_eq!(sum.ue, 4);
        assert_eq!(sum.sdc_miscorrected, 6);
        assert_eq!(sum.sdc_undetected, 8);
        assert_eq!(sum.clean, 10);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let c = Arc::new(EccCounters::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.record(EventKind::Ce);
                }
            }));
        }
        for h in handles {
            h.join().expect("thread panicked");
        }
        assert_eq!(c.snapshot().ce, 8000);
    }
}
