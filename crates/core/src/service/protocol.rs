//! The `dstressd` wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one JSON document on one line. Clients send a
//! [`Request`] per line; the daemon answers each with exactly one
//! [`Response`] line — except `watch`, which answers with a
//! [`Response::Watching`] acknowledgement followed by a stream of
//! [`Event`] lines until the campaign reaches a terminal state.
//!
//! The grammar is deliberately tiny and self-describing (externally
//! tagged enums), e.g.:
//!
//! ```text
//! -> {"Submit":{"spec":{"temp_c":60.0,"seed":42,"scale":"quick"}}}
//! <- {"Submitted":{"campaign":0,"name":"word64-ce-max-60C"}}
//! -> {"Watch":{"campaign":0}}
//! <- {"Watching":{"campaign":0}}
//! <- {"Generation":{"campaign":0,"generation":1,...}}
//! ```
//!
//! Malformed input never kills the daemon: a torn or unparseable frame, a
//! frame longer than [`MAX_FRAME_BYTES`], or an unknown command all
//! produce a typed [`Response::Error`] and the connection stays usable.

use dstress_ga::{EvalStats, Incident};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead};

/// The longest frame the daemon will buffer; longer lines are discarded
/// and answered with a typed error (a client cannot balloon daemon memory
/// by never sending a newline).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Everything a client must say to launch a campaign. Fields mirror the
/// `search-word64` CLI flags; every field has a default so a minimal
/// submit is `{"Submit":{"spec":{}}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Experiment scale: `"quick"` or `"paper"`.
    #[serde(default)]
    pub scale: String,
    /// DIMM2 temperature in °C (0 means the 60 °C default).
    #[serde(default)]
    pub temp_c: f64,
    /// Optimize for uncorrectable-error runs instead of average CEs.
    #[serde(default)]
    pub ue: bool,
    /// Minimize the metric instead of maximizing it.
    #[serde(default)]
    pub minimize: bool,
    /// Framework seed; the engine seed is derived exactly as a solo
    /// `search_word64` run would derive its first campaign seed.
    #[serde(default)]
    pub seed: u64,
    /// Generation-step budget; `0` = unbounded. A campaign that exhausts
    /// its budget pauses (checkpointed, resumable), it does not finish.
    #[serde(default)]
    pub step_budget: u64,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            scale: String::new(),
            temp_c: 0.0,
            ue: false,
            minimize: false,
            seed: 0,
            step_budget: 0,
        }
    }
}

impl CampaignSpec {
    /// The temperature with the unset-default applied.
    pub fn temperature(&self) -> f64 {
        if self.temp_c == 0.0 {
            60.0
        } else {
            self.temp_c
        }
    }

    /// The seed with the unset-default applied.
    pub fn framework_seed(&self) -> u64 {
        if self.seed == 0 {
            42
        } else {
            self.seed
        }
    }
}

/// One client request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Launch a campaign; answered with [`Response::Submitted`].
    Submit {
        /// What to search for.
        spec: CampaignSpec,
    },
    /// One campaign's progress; answered with [`Response::Status`].
    Status {
        /// The campaign id [`Response::Submitted`] returned.
        campaign: u64,
    },
    /// Every campaign's progress; answered with [`Response::List`].
    List,
    /// Stop scheduling a campaign (state is kept, resumable).
    Pause {
        /// The campaign to pause.
        campaign: u64,
    },
    /// Resume a paused campaign exactly where it stopped.
    Resume {
        /// The campaign to resume.
        campaign: u64,
    },
    /// Cancel a campaign: it stops permanently (journal retained).
    Cancel {
        /// The campaign to cancel.
        campaign: u64,
    },
    /// Subscribe to a campaign's live event stream.
    Watch {
        /// The campaign to watch.
        campaign: u64,
        /// Resume the stream from this sequence number: every retained
        /// event with `seq >= from_seq` is replayed before live ones.
        /// `0` (the default) streams the retained backlog and then live
        /// events, which is also the right value for a first watch.
        #[serde(default)]
        from_seq: u64,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
}

/// One entry of a campaign leaderboard, wire-encoded as the genome's
/// 64-bit words plus its fitness (user orientation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderboardEntry {
    /// The chromosome as 64-bit words.
    pub genes: Vec<u64>,
    /// Its fitness in user orientation.
    pub fitness: f64,
}

/// A point-in-time progress report for one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// The campaign id.
    pub campaign: u64,
    /// The campaign's database key (e.g. `word64-ce-max-60C`).
    pub name: String,
    /// `running`, `paused`, `budget-paused`, `failed`, `done` or
    /// `cancelled`.
    pub state: String,
    /// Completed generations.
    pub generation: u32,
    /// Best fitness so far (absent before the first evaluation).
    pub best: Option<LeaderboardEntry>,
    /// Distinct evaluations run so far.
    pub evaluations: u64,
    /// Evaluations served from the campaign's cache.
    pub cache_hits: u64,
    /// Supervision incidents so far.
    pub incidents: u64,
    /// Whether the similarity criterion has been met.
    pub converged: bool,
    /// The storage error that quarantined the campaign, when `state` is
    /// `failed` (absent otherwise).
    #[serde(default)]
    pub error: Option<String>,
}

/// One daemon response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A campaign was registered and scheduled.
    Submitted {
        /// Its id (use with status / watch / pause / cancel).
        campaign: u64,
        /// Its database key.
        name: String,
    },
    /// One campaign's progress.
    Status {
        /// The report.
        report: StatusReport,
    },
    /// Every campaign's progress, in id order.
    List {
        /// One report per campaign ever submitted.
        campaigns: Vec<StatusReport>,
    },
    /// A pause / resume / cancel took effect.
    Ok,
    /// The event stream for this campaign follows on this connection.
    Watching {
        /// The watched campaign.
        campaign: u64,
    },
    /// Liveness answer.
    Pong,
    /// The request could not be served; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// One live progress event on a `watch` stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A campaign advanced one generation.
    Generation {
        /// The campaign id.
        campaign: u64,
        /// Completed generations after this step.
        generation: u32,
        /// Best entry so far.
        best: Option<LeaderboardEntry>,
        /// Leaderboard entries that are new since the previous event.
        leaderboard_delta: Vec<LeaderboardEntry>,
        /// Cumulative evaluation statistics, including pool counters.
        stats: EvalStats,
        /// Supervision incidents this generation.
        incidents: Vec<Incident>,
    },
    /// A campaign finished (converged or exhausted its generations).
    Completed {
        /// The campaign id.
        campaign: u64,
        /// Total generations.
        generations: u32,
        /// Whether the similarity criterion was met.
        converged: bool,
        /// The final leaderboard, best first.
        leaderboard: Vec<LeaderboardEntry>,
    },
    /// A campaign was cancelled by a client.
    Cancelled {
        /// The campaign id.
        campaign: u64,
    },
    /// A campaign hit a journal/registry storage fault and was
    /// quarantined: its scheduler slot was released, its on-disk journal
    /// is intact, and a `resume` will retry recovery.
    Failed {
        /// The campaign id.
        campaign: u64,
        /// The storage error that quarantined it.
        error: String,
        /// The sequence number of the last event published before the
        /// failure.
        at_seq: u64,
        /// The deterministic backoff (recorded, not slept) a client
        /// should wait before the next `resume` attempt.
        resume_backoff_ms: u64,
    },
    /// This subscriber fell behind and `missed` events were dropped
    /// (bounded-buffer lagging-client semantics).
    Lagged {
        /// How many events were dropped since the last delivery.
        missed: u64,
    },
}

/// One event on the wire, stamped with its per-campaign sequence number.
///
/// Sequence numbers start at 1 and increase by one per published event;
/// they survive daemon restarts (a revived campaign continues its
/// numbering), which is what makes `watch --from-seq` reconnects exact:
/// a client that saw seq `n` asks for `from_seq = n + 1` and receives no
/// duplicate and no gap (within the retained ring). Connection-local
/// notifications ([`Event::Lagged`]) carry seq `0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeqEvent {
    /// The per-campaign sequence number (`0` for connection-local
    /// notifications).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection (clean end of stream).
    Eof,
    /// The line exceeded [`MAX_FRAME_BYTES`]; the overflow was discarded
    /// up to the next newline, so the connection is still usable.
    TooLong,
    /// Transport failure.
    Io(io::Error),
}

/// Reads one newline-delimited frame, enforcing [`MAX_FRAME_BYTES`]: one
/// [`FrameReader::read`] by a reader that keeps nothing between frames.
///
/// On [`FrameError::TooLong`] the oversized line is consumed to its
/// terminating newline (or EOF), so the caller can reply with a typed
/// error and keep serving the connection.
///
/// # Errors
///
/// [`FrameError::Eof`] at end of stream, [`FrameError::TooLong`] for an
/// oversized line, [`FrameError::Io`] on transport failures — a read
/// timeout included, which loses the partial frame.
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<String, FrameError> {
    FrameReader::new()
        .read(reader)?
        .ok_or_else(|| FrameError::Io(io::ErrorKind::TimedOut.into()))
}

/// A stateful frame reader for sockets with a read timeout.
///
/// [`read_frame`] drops a partial line on a timeout. `FrameReader`
/// instead keeps it — [`read`](FrameReader::read) returns `Ok(None)`
/// when the underlying read times out ([`io::ErrorKind::WouldBlock`] or
/// [`io::ErrorKind::TimedOut`]) and resumes the same frame on the next
/// call. This is what lets the daemon poll a per-client deadline
/// (reaping idle and slow-loris connections) without ever tearing a
/// legitimate slow frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    partial: Vec<u8>,
    /// Mid-discard of an oversized line (waiting for its newline).
    overflow: bool,
}

impl FrameReader {
    /// A reader with no partial frame.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Whether a frame has started arriving but not yet completed — the
    /// slow-loris signal a caller's frame deadline applies to.
    pub fn mid_frame(&self) -> bool {
        !self.partial.is_empty() || self.overflow
    }

    /// Reads the next newline-delimited frame, enforcing
    /// [`MAX_FRAME_BYTES`]. Returns `Ok(None)` on a read timeout with
    /// the partial frame retained for the next call.
    ///
    /// # Errors
    ///
    /// [`FrameError::Eof`] at end of stream, [`FrameError::TooLong`]
    /// once an oversized line has been consumed to its newline,
    /// [`FrameError::Io`] on transport failures other than timeouts.
    pub fn read<R: BufRead>(&mut self, reader: &mut R) -> Result<Option<String>, FrameError> {
        loop {
            let available = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(FrameError::Io(e)),
            };
            if available.is_empty() {
                if self.overflow {
                    self.overflow = false;
                    return Err(FrameError::TooLong);
                }
                if self.partial.is_empty() {
                    return Err(FrameError::Eof);
                }
                // A torn final frame (no newline): surface what arrived;
                // the parse layer will answer it with a typed error.
                let line = std::mem::take(&mut self.partial);
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let take = newline.map_or(available.len(), |n| n + 1);
            if self.overflow {
                reader.consume(take);
                if newline.is_some() {
                    self.overflow = false;
                    return Err(FrameError::TooLong);
                }
                continue;
            }
            if self.partial.len() + take > MAX_FRAME_BYTES + 1 {
                self.partial.clear();
                reader.consume(take);
                if newline.is_some() {
                    return Err(FrameError::TooLong);
                }
                self.overflow = true;
                continue;
            }
            self.partial.extend_from_slice(&available[..take]);
            reader.consume(take);
            if newline.is_some() {
                while self.partial.last() == Some(&b'\n') || self.partial.last() == Some(&b'\r') {
                    self.partial.pop();
                }
                let line = std::mem::take(&mut self.partial);
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
        }
    }
}

/// Parses a request frame into either a [`Request`] or the typed error
/// reply the daemon sends back verbatim.
// The Err variant is always the small `Response::Error`; the enum's big
// variants never travel this path, so boxing would tax the hot side for
// nothing.
#[allow(clippy::result_large_err)]
pub fn parse_request(frame: &str) -> Result<Request, Response> {
    if frame.trim().is_empty() {
        return Err(Response::Error {
            message: "empty frame (send one JSON request per line)".into(),
        });
    }
    serde_json::from_str::<Request>(frame).map_err(|e| Response::Error {
        message: format!("unparseable request: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request::Submit {
                spec: CampaignSpec {
                    scale: "quick".into(),
                    temp_c: 72.5,
                    ue: true,
                    minimize: false,
                    seed: 7,
                    step_budget: 3,
                },
            },
            Request::Status { campaign: 9 },
            Request::List,
            Request::Pause { campaign: 0 },
            Request::Resume { campaign: 0 },
            Request::Cancel { campaign: 1 },
            Request::Watch {
                campaign: 2,
                from_seq: 9,
            },
            Request::Ping,
        ];
        for request in requests {
            let json = serde_json::to_string(&request).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, request, "{json}");
        }
    }

    #[test]
    fn responses_and_events_round_trip_through_json() {
        let report = StatusReport {
            campaign: 3,
            name: "word64-ce-max-60C".into(),
            state: "running".into(),
            generation: 4,
            best: Some(LeaderboardEntry {
                genes: vec![0x3333_3333_3333_3333],
                fitness: 812.5,
            }),
            evaluations: 48,
            cache_hits: 12,
            incidents: 0,
            converged: false,
            error: None,
        };
        let responses = vec![
            Response::Submitted {
                campaign: 3,
                name: "word64-ce-max-60C".into(),
            },
            Response::Status {
                report: report.clone(),
            },
            Response::List {
                campaigns: vec![report],
            },
            Response::Ok,
            Response::Watching { campaign: 3 },
            Response::Pong,
            Response::Error {
                message: "no such campaign".into(),
            },
        ];
        for response in responses {
            let json = serde_json::to_string(&response).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back, response, "{json}");
        }
        let events = vec![
            Event::Generation {
                campaign: 1,
                generation: 2,
                best: None,
                leaderboard_delta: vec![],
                stats: EvalStats::default(),
                incidents: vec![],
            },
            Event::Completed {
                campaign: 1,
                generations: 9,
                converged: true,
                leaderboard: vec![LeaderboardEntry {
                    genes: vec![1, 2],
                    fitness: -3.5,
                }],
            },
            Event::Cancelled { campaign: 1 },
            Event::Failed {
                campaign: 2,
                error: "injected fault at op 7".into(),
                at_seq: 4,
                resume_backoff_ms: 200,
            },
            Event::Lagged { missed: 17 },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "{json}");
            let stamped = SeqEvent {
                seq: 3,
                event: event.clone(),
            };
            let json = serde_json::to_string(&stamped).unwrap();
            let back: SeqEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, stamped, "{json}");
        }
    }

    #[test]
    fn watch_without_from_seq_defaults_to_zero() {
        let request: Request = serde_json::from_str(r#"{"Watch":{"campaign":3}}"#).unwrap();
        assert_eq!(
            request,
            Request::Watch {
                campaign: 3,
                from_seq: 0
            }
        );
    }

    #[test]
    fn minimal_submit_uses_defaults() {
        let request: Request = serde_json::from_str(r#"{"Submit":{"spec":{}}}"#).unwrap();
        let Request::Submit { spec } = request else {
            panic!("expected submit");
        };
        assert_eq!(spec, CampaignSpec::default());
        assert_eq!(spec.temperature(), 60.0);
        assert_eq!(spec.framework_seed(), 42);
    }

    #[test]
    fn unknown_commands_are_typed_errors_not_panics() {
        for bad in [
            "",
            "   ",
            "{",
            "nonsense",
            r#"{"Explode":{}}"#,
            r#"{"Submit":{"spec":{"seed":"not a number"}}}"#,
            r#"["Submit"]"#,
        ] {
            match parse_request(bad) {
                Err(Response::Error { message }) => {
                    assert!(!message.is_empty(), "{bad:?}");
                }
                other => panic!("{bad:?} produced {other:?}"),
            }
        }
    }

    #[test]
    fn read_frame_splits_lines_and_handles_eof() {
        let mut reader = BufReader::new(&b"{\"Ping\"}\r\n{\"List\"}\ntail"[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"Ping\"}");
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"List\"}");
        // A torn final frame is surfaced (the parser will reject it) …
        assert_eq!(read_frame(&mut reader).unwrap(), "tail");
        // … and the next read is a clean EOF.
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Eof)));
    }

    #[test]
    fn read_frame_rejects_oversized_lines_but_keeps_the_connection() {
        let mut data = vec![b'x'; MAX_FRAME_BYTES + 10];
        data.push(b'\n');
        data.extend_from_slice(b"\"Ping\"\n");
        let mut reader = BufReader::new(data.as_slice());
        assert!(matches!(read_frame(&mut reader), Err(FrameError::TooLong)));
        // The oversized line was fully consumed: the next frame parses.
        assert_eq!(read_frame(&mut reader).unwrap(), "\"Ping\"");
    }
}
