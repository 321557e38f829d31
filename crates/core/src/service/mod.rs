//! The `dstressd` campaign service: a long-running multi-tenant daemon
//! serving many concurrent clients over a line-delimited JSON protocol.
//!
//! The paper frames virus synthesis as long-running search campaigns that
//! operators launch, monitor, and harvest over hours. This module is the
//! server shape of that workflow, composed from pieces the library already
//! provides:
//!
//! * [`protocol`] — the wire types: newline-delimited JSON requests,
//!   responses, and progress events, every one a plain serde round-trip.
//! * [`broadcast`] — a bounded broadcast channel with lagging-client drop
//!   semantics, one bus per campaign, feeding `watch` subscribers.
//! * [`registry`] — the on-disk campaign registry: a spec file, a
//!   per-campaign write-ahead journal (isolation), and a result file per
//!   campaign, scanned on boot so every unfinished campaign resumes
//!   bit-identically after a daemon restart.
//! * [`engine`] — the network-free service core: campaigns grouped by
//!   evaluation substrate, each group fair-share scheduled over one
//!   persistent [`EvalPool`](dstress_ga::pool::EvalPool), with the same
//!   journaling protocol as
//!   [`search_word64_journaled`](crate::DStress::search_word64_journaled).
//! * [`daemon`] — the TCP front-end: an accept loop, one thread per
//!   client connection, and a single engine thread that owns all campaign
//!   state (so no search state is ever shared across threads).
//!
//! # Determinism contract
//!
//! A campaign submitted to the daemon produces the same journal, the same
//! record stream, and the same leaderboard as a solo
//! [`DStress::search_word64`](crate::DStress::search_word64) run with the
//! same spec — regardless of how many other campaigns share the pool, of
//! the worker count, and of daemon restarts in between. The integration
//! suite pins this byte-for-byte on the journal snapshots.

pub mod broadcast;
pub mod daemon;
pub mod engine;
pub mod protocol;
pub mod registry;

pub use broadcast::{EventBus, Recv, Subscriber};
pub use daemon::{DaemonConfig, Dstressd};
pub use engine::{campaign_db_paths, Reply, ServiceEngine, ServiceError};
pub use protocol::{
    parse_request, read_frame, CampaignSpec, Event, FrameError, FrameReader, LeaderboardEntry,
    Request, Response, SeqEvent, StatusReport, MAX_FRAME_BYTES,
};
pub use registry::CampaignRegistry;
