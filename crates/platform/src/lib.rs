//! An X-Gene-2-like experimental server (paper §IV), fully simulated.
//!
//! The paper's testbed is a commodity AppliedMicro X-Gene 2 ARMv8 server:
//! four memory controller units (MCUs) in two memory controller bridges
//! (MCBs), one DDR3 DIMM per MCU, per-MCU refresh period (TREFP), per-MCB
//! supply voltage (VDD), firmware-disabled interleaving, EDAC error counters,
//! and a custom heater + PID thermal rig holding each DIMM at a setpoint.
//! This crate reproduces that platform on top of `dstress-dram`:
//!
//! * [`server`] — the [`XGene2Server`]: MCU/MCB structure, parameter knobs,
//!   per-domain ECC counters, virus-run evaluation;
//! * [`session`] — virtual memory sessions and the [`MemoryBus`] trait the
//!   virus interpreter drives; records the access trace of a virus;
//! * [`cache`] — a set-associative LRU cache model (the paper's viruses use
//!   no `clflush`, so DRAM sees only cache misses, §V-A.4);
//! * [`replay`] — converts one recorded trace pass into per-window row
//!   activation counts ("trace once, replay analytically" — the substitution
//!   that makes a 7-month campaign simulable; see DESIGN.md);
//! * [`thermal`] — heating element + PID controller per DIMM;
//! * [`power`] — the DRAM/system power model behind the paper's 17.7 % /
//!   8.6 % savings numbers (Fig. 14).
//!
//! # Examples
//!
//! ```
//! use dstress_platform::{ServerConfig, XGene2Server};
//! use dstress_platform::session::MemoryBus;
//!
//! let mut server = XGene2Server::new(ServerConfig::small());
//! server.set_dimm_temperature(2, 60.0).expect("MCU 2 exists");
//! let mut session = server.session(2);
//! let buf = session.alloc(4096)?;
//! for i in 0..512 {
//!     session.write_u64(buf + i * 8, 0x3333_3333_3333_3333)?;
//! }
//! let run = session.finish();
//! let outcome = server.evaluate_run(&run, 7).expect("run bound to fresh contents");
//! println!("CEs observed: {}", outcome.totals.ce);
//! # Ok::<(), dstress_platform::session::SessionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod power;
pub mod replay;
pub mod server;
pub mod session;
pub mod thermal;

pub use config::{AccessModelConfig, ServerConfig};
pub use power::{PowerModel, PowerReport};
pub use replay::ReplayProfile;
pub use server::{
    DomainCounts, PreparedRun, RowErrors, RunOutcome, RunsTotal, XGene2Server, MCUS, RANKS,
};
pub use session::{MemoryBus, RecordedRun, Session, VirtAddr};
pub use thermal::{PidController, SettleReport, ThermalError, ThermalPlant, ThermalTestbed};
