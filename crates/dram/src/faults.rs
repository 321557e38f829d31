//! Injectable logical fault models (paper §II "DRAM errors", §VII).
//!
//! The MARCH/MATS literature classifies DRAM faults the tests are designed
//! to detect: stuck-at faults, transition faults, and coupling faults
//! between an aggressor and a victim cell. The retention physics of
//! [`crate::Dimm`] covers the *pattern-sensitive leakage* class the paper
//! targets; this module adds the classic *logical* fault classes as
//! injectable defects so the MARCH comparison can show both sides — MARCH
//! detects stuck-at/coupling faults, but only the synthesized viruses
//! expose the pattern-sensitive population.

use crate::geometry::Location;
use serde::{Deserialize, Serialize};

/// A logical (hard) fault on one cell or cell pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogicalFault {
    /// The cell always reads the given value, whatever was written.
    StuckAt {
        /// The affected word.
        loc: Location,
        /// Bit within the word.
        bit: u8,
        /// The stuck value.
        value: bool,
    },
    /// The cell cannot perform one of its transitions: a write of `to`
    /// is ignored when the cell currently holds `!to` (transition fault).
    Transition {
        /// The affected word.
        loc: Location,
        /// Bit within the word.
        bit: u8,
        /// The transition target that fails (e.g. `true` = the 0→1 write
        /// fails).
        to: bool,
    },
    /// Idempotent coupling fault (CFid): a write that causes a transition
    /// to `trigger` on the aggressor bit forces the victim bit to
    /// `victim_value`.
    Coupling {
        /// The aggressor word.
        aggressor: Location,
        /// Aggressor bit.
        aggressor_bit: u8,
        /// Aggressor transition target that triggers the fault.
        trigger: bool,
        /// The victim word (may differ from the aggressor's word).
        victim: Location,
        /// Victim bit.
        victim_bit: u8,
        /// The value forced onto the victim.
        victim_value: bool,
    },
}

impl LogicalFault {
    /// Applies the fault to a value being read from `loc`.
    pub fn apply_on_read(&self, loc: Location, value: u64) -> u64 {
        match self {
            LogicalFault::StuckAt {
                loc: fault_loc,
                bit,
                value: stuck,
            } if *fault_loc == loc => {
                if *stuck {
                    value | (1 << bit)
                } else {
                    value & !(1 << bit)
                }
            }
            _ => value,
        }
    }

    /// Transforms a write of `new` over `old` at `loc`, returning the value
    /// actually stored (transition faults) — coupling side effects are
    /// handled separately by [`FaultSet::coupling_side_effects`].
    pub fn apply_on_write(&self, loc: Location, old: u64, new: u64) -> u64 {
        match self {
            LogicalFault::Transition {
                loc: fault_loc,
                bit,
                to,
            } if *fault_loc == loc => {
                let mask = 1u64 << bit;
                let old_bit = old & mask != 0;
                let new_bit = new & mask != 0;
                if new_bit == *to && old_bit != *to {
                    // The transition fails: the bit keeps its old value.
                    (new & !mask) | (old & mask)
                } else {
                    new
                }
            }
            _ => new,
        }
    }
}

/// A collection of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSet {
    faults: Vec<LogicalFault>,
}

impl FaultSet {
    /// An empty (healthy) fault set.
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// Injects a fault.
    pub fn inject(&mut self, fault: LogicalFault) {
        self.faults.push(fault);
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Applies all read faults to a value read from `loc`.
    pub fn apply_on_read(&self, loc: Location, mut value: u64) -> u64 {
        for f in &self.faults {
            value = f.apply_on_read(loc, value);
        }
        value
    }

    /// Applies all write-transforming faults, returning the stored value.
    pub fn apply_on_write(&self, loc: Location, old: u64, mut new: u64) -> u64 {
        for f in &self.faults {
            new = f.apply_on_write(loc, old, new);
        }
        new
    }

    /// Coupling side effects of a write at `loc` transitioning `old → new`:
    /// returns `(victim location, victim bit, forced value)` for every
    /// triggered coupling fault.
    pub fn coupling_side_effects(
        &self,
        loc: Location,
        old: u64,
        new: u64,
    ) -> Vec<(Location, u8, bool)> {
        let mut out = Vec::new();
        for f in &self.faults {
            if let LogicalFault::Coupling {
                aggressor,
                aggressor_bit,
                trigger,
                victim,
                victim_bit,
                victim_value,
            } = f
            {
                if *aggressor != loc {
                    continue;
                }
                let mask = 1u64 << aggressor_bit;
                let old_bit = old & mask != 0;
                let new_bit = new & mask != 0;
                if old_bit != new_bit && new_bit == *trigger {
                    out.push((*victim, *victim_bit, *victim_value));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(col: u32) -> Location {
        Location::new(0, 0, 0, col)
    }

    #[test]
    fn stuck_at_forces_reads() {
        let f = LogicalFault::StuckAt {
            loc: loc(3),
            bit: 5,
            value: true,
        };
        assert_eq!(f.apply_on_read(loc(3), 0), 1 << 5);
        assert_eq!(f.apply_on_read(loc(3), u64::MAX), u64::MAX);
        // Other words unaffected.
        assert_eq!(f.apply_on_read(loc(4), 0), 0);
        let f0 = LogicalFault::StuckAt {
            loc: loc(3),
            bit: 5,
            value: false,
        };
        assert_eq!(f0.apply_on_read(loc(3), u64::MAX), !(1u64 << 5));
    }

    #[test]
    fn transition_fault_blocks_one_direction() {
        // 0 -> 1 transition fails.
        let f = LogicalFault::Transition {
            loc: loc(1),
            bit: 0,
            to: true,
        };
        assert_eq!(
            f.apply_on_write(loc(1), 0b0, 0b1),
            0b0,
            "up-transition must fail"
        );
        assert_eq!(
            f.apply_on_write(loc(1), 0b1, 0b0),
            0b0,
            "down-transition works"
        );
        assert_eq!(
            f.apply_on_write(loc(1), 0b1, 0b1),
            0b1,
            "no transition, no effect"
        );
        assert_eq!(
            f.apply_on_write(loc(2), 0b0, 0b1),
            0b1,
            "other words unaffected"
        );
    }

    #[test]
    fn coupling_triggers_on_the_right_transition() {
        let mut set = FaultSet::new();
        set.inject(LogicalFault::Coupling {
            aggressor: loc(0),
            aggressor_bit: 2,
            trigger: true,
            victim: loc(9),
            victim_bit: 7,
            victim_value: false,
        });
        // 0->1 on aggressor bit 2 triggers.
        let effects = set.coupling_side_effects(loc(0), 0b000, 0b100);
        assert_eq!(effects, vec![(loc(9), 7, false)]);
        // 1->0 does not.
        assert!(set.coupling_side_effects(loc(0), 0b100, 0b000).is_empty());
        // No transition does not.
        assert!(set.coupling_side_effects(loc(0), 0b100, 0b100).is_empty());
        // Other aggressor words do not.
        assert!(set.coupling_side_effects(loc(5), 0b000, 0b100).is_empty());
    }

    #[test]
    fn fault_set_composes() {
        let mut set = FaultSet::new();
        set.inject(LogicalFault::StuckAt {
            loc: loc(0),
            bit: 0,
            value: true,
        });
        set.inject(LogicalFault::StuckAt {
            loc: loc(0),
            bit: 1,
            value: false,
        });
        assert_eq!(set.apply_on_read(loc(0), 0b10), 0b01);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }
}
