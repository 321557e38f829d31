//! Physics-based DRAM device model for the DStress reproduction.
//!
//! The paper evaluates viruses on four real 8 GB DDR3 DIMMs whose internal
//! design is unknown to the framework. This crate substitutes a simulated
//! DIMM whose *hidden* internal design produces, as emergent behaviour, the
//! phenomena the paper measures:
//!
//! * data-dependent retention: a cell leaks only while *charged*, and whether
//!   a stored logic value charges the capacitor depends on the hidden
//!   true-/anti-cell layout ([`topology`]);
//! * cell-to-cell interference: charged physical neighbours on the same
//!   bitline pair and in adjacent rows accelerate leakage ([`retention`]);
//! * row-disturbance: activations of nearby rows in the same bank remove
//!   victim charge with distance decay and saturation ([`disturb`]);
//! * temperature / voltage dependence: Arrhenius-style retention scaling and
//!   supply-voltage charge scaling ([`retention`]);
//! * variable retention time: a fraction of weak cells stochastically change
//!   retention state between refresh windows, producing run-to-run noise
//!   ([`weak`]);
//! * DIMM-to-DIMM variation: per-DIMM seeds draw different weak-cell
//!   densities and topologies ([`weak`]).
//!
//! The framework above this crate observes only what real hardware exposes:
//! written data, row activations, and the per-word bit flips found when a
//! refresh window elapses ([`Dimm::advance_window`]).
//!
//! # Examples
//!
//! ```
//! use dstress_dram::{ActivationCounts, Dimm, DimmConfig, Location, OperatingEnv};
//!
//! let mut dimm = Dimm::new(DimmConfig::default(), 42);
//! // Fill the first row of bank 0 with the paper's worst-case sub-pattern.
//! let words = dimm.geometry().words_per_row();
//! for col in 0..words {
//!     dimm.write_word(Location::new(0, 0, 0, col as u32), 0xCCCC_CCCC_CCCC_CCCC);
//! }
//! let env = OperatingEnv::relaxed(60.0);
//! let events = dimm.advance_window(&env, &ActivationCounts::new(), 0);
//! // Each event reports which stored bits of a word leaked this window.
//! for e in &events {
//!     assert!(e.flip_mask != 0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod contents;
pub mod dimm;
pub mod disturb;
pub mod env;
pub mod events;
pub mod geometry;
pub mod plan;
pub mod retention;
pub mod topology;
pub mod weak;

pub use address::AddressMap;
pub use dimm::{Dimm, DimmConfig};
pub use disturb::{ActivationCounts, DisturbanceModel};
pub use env::OperatingEnv;
pub use events::WordEvent;
pub use geometry::{DimmGeometry, Location};
pub use plan::{PlanError, RunPlan, VrtWord, MAX_LANES};
pub use retention::PhysicsParams;
pub use topology::{CellKind, Topology};
pub use weak::{WeakCell, WeakCellPopulation};
