//! The network-free service core: multi-tenant campaign execution.
//!
//! [`ServiceEngine`] owns every live campaign. Campaigns whose evaluation
//! substrate is identical (same scale, same temperature, same metric) are
//! grouped onto one [`CampaignScheduler`] over one persistent
//! [`EvalPool`], so concurrent tenants share worker threads and replica
//! caches; campaigns with different substrates get their own group. One
//! [`tick`](ServiceEngine::tick) advances every runnable campaign by
//! exactly one generation round and then settles each campaign the
//! scheduler reports as stepped: journal its new records and incidents,
//! publish a progress event, and append its post-step checkpoint (or
//! finish the journal when done). Every client request enters through
//! [`handle`](ServiceEngine::handle), which answers with the reply frame
//! (or, for a `watch`, the event stream to pump).
//!
//! Journaling goes through the routine the campaign driver
//! [`run_campaigns`](dstress_ga::run_campaigns) uses —
//! [`JournaledCampaign`]: records, incidents, checkpoint after every
//! step — so a daemon killed at any point resumes every unfinished
//! campaign **bit-identically** at the next boot, and a finished
//! campaign's journal snapshot is byte-for-byte the snapshot a solo
//! [`search_word64_journaled`](crate::DStress::search_word64_journaled)
//! run with the same spec would have written.
//!
//! # Failure domains
//!
//! Each campaign is its own fault domain. All engine I/O flows through
//! the [`Storage`] trait (generic, [`DiskStorage`] by default), and a
//! journal or registry fault during a campaign's settle **quarantines
//! only that campaign**: it transitions to the `failed` state, its
//! scheduler slot (and eval-pool share) is released to the surviving
//! tenants, its on-disk journal stays intact, and an [`Event::Failed`]
//! is broadcast carrying the error, the last published sequence number,
//! and the deterministic backoff a client should wait before asking for
//! recovery. A `resume` on a failed campaign retries recovery from the
//! retained journal; every retry is recorded against a bounded
//! exponential [`SupervisionPolicy`] schedule (recorded, never slept on
//! the engine thread). [`tick`](ServiceEngine::tick) itself is
//! infallible — no tenant fault ever propagates out of it.
//!
//! Every broadcast event is stamped with a per-campaign sequence number
//! ([`SeqEvent`]) and retained in a small ring, so a `watch` that
//! reconnects with `from_seq` replays exactly the missed suffix. The
//! numbering survives restarts and quarantines: it is kept relative to
//! the journal, with its lead persisted in the spec file.

use crate::error::DStressError;
use crate::evaluate::{Metric, ParallelBitFitness};
use crate::patterns::BitCodec;
use crate::scale::ExperimentScale;
use crate::search::{Campaign, DStress};
use crate::service::broadcast::{EventBus, Subscriber};
use crate::service::protocol::{
    CampaignSpec, Event, LeaderboardEntry, Request, Response, SeqEvent, StatusReport,
};
use crate::service::registry::{CampaignRegistry, StoredResult, StoredSpec};
use dstress_ga::journal::{CampaignJournal, DiskStorage, JournaledCampaign, Storage};
use dstress_ga::{BitGenome, CampaignScheduler, EvalPool, SearchSession, SupervisionPolicy};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};

/// A typed service-layer failure: what went wrong, machine-matchable.
///
/// [`ServiceEngine::handle`] renders these verbatim into
/// [`Response::Error`] frames; nothing in the service layer panics on
/// them.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// No campaign with this id was ever submitted.
    UnknownCampaign(u64),
    /// The operation needs a live campaign, but this one has reached the
    /// named lifecycle state.
    Terminal {
        /// The campaign id.
        campaign: u64,
        /// Its lifecycle state (`done`, `cancelled`, `failed`, …).
        state: String,
    },
    /// The submitted spec cannot be built (unknown scale, a temperature
    /// the thermal rig cannot settle, a corrupt checkpoint).
    Spec(String),
    /// A journal or registry storage operation failed; the affected
    /// campaign was quarantined, not the daemon.
    Storage(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownCampaign(id) => write!(f, "no campaign {id}"),
            ServiceError::Terminal { campaign, state } => {
                write!(f, "campaign {campaign} is {state}")
            }
            ServiceError::Spec(m) | ServiceError::Storage(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for DStressError {
    fn from(e: ServiceError) -> Self {
        DStressError::Service(e.to_string())
    }
}

/// What the engine answers a [`Request`] with.
#[derive(Debug)]
pub enum Reply {
    /// The one response frame.
    Response(Response),
    /// A `watch` was accepted: the retained backlog from the requested
    /// cut, then the live subscription to pump until the bus closes.
    Watch {
        /// The watched campaign.
        campaign: u64,
        /// Retained events with `seq >= from_seq`, after a seq-0
        /// [`Event::Lagged`] when older ones were requested.
        backlog: Vec<SeqEvent>,
        /// The live subscription.
        subscriber: Subscriber<SeqEvent>,
    },
}

/// Resolves a spec's scale name (`""` defaults to `quick` — the service
/// is a long-running multiplexer, so the cheap scale is the safe default).
fn scale_named(name: &str) -> Result<ExperimentScale, String> {
    match name {
        "" | "quick" => Ok(ExperimentScale::quick()),
        "paper" => Ok(ExperimentScale::paper()),
        other => Err(format!("unknown scale `{other}` (quick|paper)")),
    }
}

/// The word64 campaign a spec describes.
fn spec_campaign(spec: &CampaignSpec) -> Campaign<BitCodec> {
    let metric = if spec.ue {
        Metric::UeRuns
    } else {
        Metric::CeAverage
    };
    Campaign::word64(spec.temperature(), metric, spec.minimize)
}

/// The scheduler step budget of a spec's stint (`0` = unbounded).
fn spec_budget(spec: &CampaignSpec) -> Option<u64> {
    (spec.step_budget > 0).then_some(spec.step_budget)
}

/// Steps a session has taken: the seed pass plus its generations, or 0
/// before the seed pass. The generation-`g` event is the `(g + 1)`-th.
fn steps_of(session: &SearchSession<BitGenome>) -> u64 {
    if session.eval_stats().evaluations > 0 {
        u64::from(session.generation()) + 1
    } else {
        0
    }
}

fn entry(genome: &BitGenome, fitness: f64) -> LeaderboardEntry {
    LeaderboardEntry {
        genes: genome.to_words(),
        fitness,
    }
}

fn invalid_data<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The bounded-exponential schedule for `failed`-campaign recovery
/// retries: 100 ms, 200 ms, 400 ms, … capped at 5 s. Recorded into
/// [`Event::Failed::resume_backoff_ms`] for clients, never slept on the
/// engine thread.
fn recovery_policy() -> SupervisionPolicy {
    SupervisionPolicy {
        backoff_base_ms: 100,
        backoff_cap_ms: 5_000,
        ..SupervisionPolicy::default()
    }
}

/// One campaign's event stream: its sequence numbering, its broadcast
/// bus, and the ring of recent events backing `watch --from-seq`.
///
/// Numbering is kept relative to the journal so it survives restarts: a
/// journaled step's replay after a kill gets its old seq back, and
/// everything else — quarantine notices, steps a recovery re-ran — moves
/// the numbering ahead of the journal for good. That lead
/// ([`offset`](Self::offset)) is persisted with every state change,
/// together with the journaled steps it is relative to. A revived
/// campaign numbers on from both, and moves past any steps its journal
/// gained since when the journal reopens, so no seq is ever published
/// twice for different events, even when the journal never reopens.
struct EventLog {
    bus: EventBus<SeqEvent>,
    ring: VecDeque<SeqEvent>,
    capacity: usize,
    /// The seq of the last published event (0 = none yet).
    last_seq: u64,
    /// The steps the journal resumes from (its checkpoint's).
    journaled: u64,
}

impl EventLog {
    /// A stream whose numbering leads the journal's `journaled` steps by
    /// `offset`.
    fn new(capacity: usize, offset: u64, journaled: u64) -> Self {
        EventLog {
            bus: EventBus::new(capacity),
            ring: VecDeque::new(),
            capacity,
            last_seq: offset + journaled,
            journaled,
        }
    }

    /// Stamps, retains and broadcasts one event.
    fn publish(&mut self, event: Event) {
        self.last_seq += 1;
        let stamped = SeqEvent {
            seq: self.last_seq,
            event,
        };
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(stamped.clone());
        self.bus.publish(&stamped);
    }

    /// The journal now resumes from `steps` (a commit, or a finished
    /// journal's 0).
    fn committed(&mut self, steps: u64) {
        self.journaled = steps;
    }

    /// The journal was (re)opened at `steps`: numbering moves past the
    /// steps it gained since it was last seen (all of them after a
    /// restart), and never back.
    fn opened(&mut self, steps: u64) {
        self.last_seq += steps.saturating_sub(self.journaled);
        self.journaled = steps;
    }

    /// How far the numbering leads the journal's steps.
    fn offset(&self) -> u64 {
        self.last_seq.saturating_sub(self.journaled)
    }

    /// The retained backlog from `from_seq` on (0 or 1 = everything
    /// retained), prefixed with a seq-0 [`Event::Lagged`] counting the
    /// events older than the ring, plus a live subscriber.
    fn watch(&self, from_seq: u64) -> (Vec<SeqEvent>, Subscriber<SeqEvent>) {
        let from = from_seq.max(1);
        let first_retained = self.ring.front().map_or(self.last_seq + 1, |e| e.seq);
        let mut backlog = Vec::new();
        if from < first_retained {
            backlog.push(SeqEvent {
                seq: 0,
                event: Event::Lagged {
                    missed: first_retained - from,
                },
            });
        }
        backlog.extend(self.ring.iter().filter(|e| e.seq >= from).cloned());
        (backlog, self.bus.subscribe())
    }
}

/// The scheduler-side state of a live campaign. Whether it is running,
/// client-paused or budget-paused is the scheduler's to say.
struct Live<S: Storage> {
    group: usize,
    sched: usize,
    journal: CampaignJournal<S>,
    /// The campaign's side of the shared journaling routine.
    log: JournaledCampaign,
    /// Chromosomes already reported on the leaderboard, for event deltas.
    board_genes: HashSet<Vec<u64>>,
}

/// The quarantine record of a `failed` campaign.
struct Failure {
    /// The last sequence number published before the failure.
    at_seq: u64,
    /// Recovery attempts so far, indexing the backoff schedule.
    attempts: u32,
    /// The progress snapshot taken at quarantine time, carrying the
    /// storage error that quarantined it (the latest recovery attempt's
    /// once retries begin).
    report: StatusReport,
}

impl Failure {
    /// A quarantine with no progress snapshot to report.
    fn blank(id: u64, name: &str, error: String, at_seq: u64) -> Self {
        Failure {
            at_seq,
            attempts: 0,
            report: blank_report(id, name, "failed", Some(error)),
        }
    }
}

/// Where a campaign is in its lifecycle, with the state that stage owns.
enum Stage<S: Storage> {
    /// Holds a scheduler slot.
    Live(Box<Live<S>>),
    /// Quarantined after a storage fault: scheduler slot released,
    /// journal intact, waiting for a `resume` to retry recovery.
    Failed(Failure),
    /// Finished (converged or out of generations), with its terminal
    /// report — absent when the result file never landed (a crash
    /// between journal completion and the result write).
    Done(Option<StatusReport>),
    /// Cancelled by a client (the journal is retained), with its report.
    Cancelled(Option<StatusReport>),
}

/// One campaign the engine knows about, live or terminal.
struct Runtime<S: Storage> {
    id: u64,
    name: String,
    spec: CampaignSpec,
    stage: Stage<S>,
    events: EventLog,
}

/// Snapshots a live session into a client-facing progress report.
fn report_from_session(
    id: u64,
    name: &str,
    state: &str,
    session: &SearchSession<BitGenome>,
    error: Option<String>,
) -> StatusReport {
    let board = session.leaderboard();
    StatusReport {
        campaign: id,
        name: name.to_string(),
        state: state.to_string(),
        generation: session.generation(),
        best: board.first().map(|(g, f)| entry(g, *f)),
        evaluations: session.eval_stats().evaluations,
        cache_hits: session.eval_stats().cache_hits,
        incidents: session.incidents().len() as u64,
        converged: session.converged(),
        error,
    }
}

/// A progress report for a campaign without a live session to snapshot:
/// its identity, state and error, with no progress.
fn blank_report(id: u64, name: &str, state: &str, error: Option<String>) -> StatusReport {
    StatusReport {
        campaign: id,
        name: name.to_string(),
        state: state.to_string(),
        generation: 0,
        best: None,
        evaluations: 0,
        cache_hits: 0,
        incidents: 0,
        converged: false,
        error,
    }
}

/// Campaigns sharing one evaluation substrate, fair-share scheduled over
/// one persistent pool.
struct Group {
    /// Substrate identity: scale name, temperature bits, UE metric flag.
    key: (String, u64, bool),
    scheduler: CampaignScheduler<BitGenome, ParallelBitFitness>,
}

/// The multi-tenant campaign engine behind `dstressd` (network-free; the
/// daemon front-end owns exactly one, on one thread).
///
/// Generic over [`Storage`] so the fault-injection suite can drive it
/// over a [`SharedStorage<MemStorage>`](dstress_ga::journal::SharedStorage)
/// and fail any individual journal or registry operation.
pub struct ServiceEngine<S: Storage + Clone = DiskStorage> {
    registry: CampaignRegistry<S>,
    /// The storage every per-campaign journal is opened through (cloned
    /// per journal; clones of a shared storage view the same files).
    storage: S,
    groups: Vec<Group>,
    /// Every campaign ever submitted, in id order.
    campaigns: Vec<Runtime<S>>,
    workers: usize,
    event_capacity: usize,
}

impl<S: Storage + Clone> std::fmt::Debug for ServiceEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("dir", &self.registry.dir())
            .field("groups", &self.groups.len())
            .field("campaigns", &self.campaigns.len())
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl ServiceEngine<DiskStorage> {
    /// Boots the engine over a registry directory on the real
    /// filesystem. See [`with_storage`](Self::with_storage).
    ///
    /// # Errors
    ///
    /// Propagates registry I/O failures; a recovered spec that no longer
    /// builds (unknown scale, unsettleable temperature, corrupt
    /// checkpoint) aborts the boot with [`io::ErrorKind::InvalidData`]
    /// rather than silently dropping the campaign.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `event_capacity` is zero.
    pub fn new(dir: impl Into<PathBuf>, workers: usize, event_capacity: usize) -> io::Result<Self> {
        Self::with_storage(DiskStorage::new(), dir, workers, event_capacity)
    }
}

impl<S: Storage + Clone> ServiceEngine<S> {
    /// Boots the engine over a registry directory reached through
    /// `storage`: scans it and resumes every unfinished campaign from
    /// its journal checkpoint, bit-identically. Previously paused
    /// campaigns come back paused; previously `failed` campaigns come
    /// back quarantined (a `resume` retries their recovery). A campaign
    /// whose journal cannot be opened is quarantined, not a boot
    /// failure — only an unbuildable spec aborts the boot.
    ///
    /// # Errors
    ///
    /// Propagates registry I/O failures; a recovered spec that no longer
    /// builds is [`io::ErrorKind::InvalidData`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `event_capacity` is zero.
    pub fn with_storage(
        storage: S,
        dir: impl Into<PathBuf>,
        workers: usize,
        event_capacity: usize,
    ) -> io::Result<Self> {
        assert!(workers >= 1, "at least one evaluation worker is required");
        assert!(event_capacity >= 1, "subscribers buffer at least one event");
        let (registry, recovered) = CampaignRegistry::open_with(storage.clone(), dir)?;
        let mut engine = ServiceEngine {
            registry,
            storage,
            groups: Vec::new(),
            campaigns: Vec::new(),
            workers,
            event_capacity,
        };
        for campaign in recovered {
            engine.revive(campaign.id, campaign.stored)?;
        }
        Ok(engine)
    }

    /// The registry directory this engine persists into.
    pub fn dir(&self) -> &Path {
        self.registry.dir()
    }

    /// Whether no campaign currently has schedulable work.
    pub fn idle(&self) -> bool {
        self.groups.iter().all(|g| g.scheduler.idle())
    }

    /// Answers one client request: the one path from a request frame to
    /// its reply. Failures become [`Response::Error`] frames carrying the
    /// [`ServiceError`] text.
    pub fn handle(&mut self, request: Request) -> Reply {
        let response = match request {
            Request::Ping => Ok(Response::Pong),
            Request::Submit { spec } => self
                .submit(spec)
                .map(|(campaign, name)| Response::Submitted { campaign, name }),
            Request::Status { campaign } => self
                .status(campaign)
                .map(|report| Response::Status { report }),
            Request::List => Ok(Response::List {
                campaigns: self.list(),
            }),
            Request::Pause { campaign } => self.set_paused(campaign, true).map(|()| Response::Ok),
            Request::Resume { campaign } => self.set_paused(campaign, false).map(|()| Response::Ok),
            Request::Cancel { campaign } => self.cancel(campaign).map(|()| Response::Ok),
            Request::Watch { campaign, from_seq } => match self.watch(campaign, from_seq) {
                Ok((backlog, subscriber)) => {
                    return Reply::Watch {
                        campaign,
                        backlog,
                        subscriber,
                    }
                }
                Err(e) => Err(e),
            },
        };
        Reply::Response(response.unwrap_or_else(|e| Response::Error {
            message: e.to_string(),
        }))
    }

    fn index(&self, id: u64) -> Result<usize, ServiceError> {
        self.campaigns
            .iter()
            .position(|r| r.id == id)
            .ok_or(ServiceError::UnknownCampaign(id))
    }

    /// The lifecycle state a campaign reports and persists.
    fn state_name(&self, stage: &Stage<S>) -> &'static str {
        match stage {
            Stage::Live(live) => {
                let scheduler = &self.groups[live.group].scheduler;
                if scheduler.is_paused(live.sched) {
                    "paused"
                } else if scheduler.budget_spent(live.sched) {
                    "budget-paused"
                } else {
                    "running"
                }
            }
            Stage::Failed(_) => "failed",
            Stage::Done(_) => "done",
            Stage::Cancelled(_) => "cancelled",
        }
    }

    /// The error for an operation that needs a live campaign.
    fn not_live(&self, idx: usize) -> ServiceError {
        let runtime = &self.campaigns[idx];
        ServiceError::Terminal {
            campaign: runtime.id,
            state: self.state_name(&runtime.stage).to_string(),
        }
    }

    fn persist_state(&mut self, idx: usize) -> io::Result<()> {
        let runtime = &self.campaigns[idx];
        let stored = StoredSpec {
            spec: runtime.spec.clone(),
            name: runtime.name.clone(),
            state: self.state_name(&runtime.stage).to_string(),
            error: match &runtime.stage {
                Stage::Failed(failure) => failure.report.error.clone(),
                _ => None,
            },
            seq_offset: runtime.events.offset(),
            seq_steps: runtime.events.journaled,
        };
        self.registry.write_spec(runtime.id, &stored)
    }

    /// [`persist_state`](Self::persist_state) for a client-requested
    /// transition: a storage fault quarantines the campaign.
    fn persist_or_quarantine(&mut self, idx: usize) -> Result<(), ServiceError> {
        self.persist_state(idx).map_err(|e| {
            let id = self.campaigns[idx].id;
            self.fail_campaign(idx, format!("campaign {id} storage failure: {e}"));
            ServiceError::Storage(format!("persisting campaign state: {e}"))
        })
    }

    fn ensure_group(&mut self, spec: &CampaignSpec) -> Result<usize, String> {
        let scale = scale_named(&spec.scale)?;
        let key = (
            scale.name.to_string(),
            spec.temperature().to_bits(),
            spec.ue,
        );
        if let Some(i) = self.groups.iter().position(|g| g.key == key) {
            return Ok(i);
        }
        self.release_idle_groups();
        let fitness = DStress::new(scale, 0)
            .fitness(&spec_campaign(spec))
            .map_err(|e| e.to_string())?;
        self.groups.push(Group {
            key,
            scheduler: CampaignScheduler::new(EvalPool::new(&fitness, self.workers)),
        });
        Ok(self.groups.len() - 1)
    }

    /// Drops every group whose scheduler holds no campaign, with its pool
    /// and worker threads, and renumbers the live campaigns' group
    /// indices. Called only before a new group is built: tenants of one
    /// substrate can all finish in one tick, and their pool then serves the
    /// next submit on that substrate instead of being rebuilt.
    fn release_idle_groups(&mut self) {
        let held = |g: &Group| g.scheduler.campaigns() > 0;
        for runtime in &mut self.campaigns {
            if let Stage::Live(live) = &mut runtime.stage {
                live.group = self.groups[..live.group].iter().filter(|g| held(g)).count();
            }
        }
        self.groups.retain(held);
    }

    /// Opens a campaign on its journal: resumed from the journal
    /// checkpoint when one matches the campaign name, fresh otherwise.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for an unknown scale or a corrupt
    /// checkpoint.
    fn open_session(
        spec: &CampaignSpec,
        name: &str,
        journal: &CampaignJournal<S>,
    ) -> io::Result<(JournaledCampaign, SearchSession<BitGenome>)> {
        let scale = scale_named(&spec.scale).map_err(invalid_data)?;
        JournaledCampaign::open(journal, name, || {
            // The engine seed of the first campaign a solo framework with
            // this seed would start — the determinism contract.
            let seed = DStress::campaign_seed(spec.framework_seed(), 1);
            spec_campaign(spec).start(scale.ga, seed)
        })
    }

    /// Registers and schedules a campaign, returning its id and name.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Spec`] for an invalid spec (unknown scale, a
    /// temperature the thermal rig cannot settle) or
    /// [`ServiceError::Storage`] for a persistence failure; nothing is
    /// scheduled on error, and any partially written journal is
    /// discarded so a later campaign reusing the id cannot resume a
    /// stale checkpoint.
    pub fn submit(&mut self, spec: CampaignSpec) -> Result<(u64, String), ServiceError> {
        let group = self.ensure_group(&spec).map_err(ServiceError::Spec)?;
        let name = spec_campaign(&spec).name;
        let id = self.registry.alloc_id();
        match self.schedule_submitted(id, &name, spec, group) {
            Ok(()) => Ok((id, name)),
            Err(e) => {
                self.registry.discard_journal(id);
                Err(e)
            }
        }
    }

    /// The fallible tail of [`submit`](Self::submit), so the caller can
    /// roll back the journal files on any error.
    fn schedule_submitted(
        &mut self,
        id: u64,
        name: &str,
        spec: CampaignSpec,
        group: usize,
    ) -> Result<(), ServiceError> {
        let mut journal = CampaignJournal::open(self.storage.clone(), self.registry.db_path(id))
            .map_err(|e| ServiceError::Storage(format!("opening campaign journal: {e}")))?;
        let (log, session) = Self::open_session(&spec, name, &journal)
            .map_err(|e| ServiceError::Spec(e.to_string()))?;
        log.checkpoint(&mut journal, &session)
            .map_err(|e| ServiceError::Storage(format!("journaling: {e}")))?;
        let sched = self.groups[group]
            .scheduler
            .add(session, spec_budget(&spec));
        self.campaigns.push(Runtime {
            id,
            name: name.to_string(),
            spec,
            stage: Stage::Live(Box::new(Live {
                group,
                sched,
                journal,
                log,
                board_genes: HashSet::new(),
            })),
            events: EventLog::new(self.event_capacity, 0, 0),
        });
        if let Err(e) = self.persist_state(self.campaigns.len() - 1) {
            // Roll back: the campaign was never durably registered.
            let _ = self.groups[group].scheduler.remove(sched);
            self.campaigns.pop();
            return Err(ServiceError::Storage(format!(
                "persisting campaign spec: {e}"
            )));
        }
        Ok(())
    }

    /// Rebuilds one campaign recovered by the boot scan.
    fn revive(&mut self, id: u64, stored: StoredSpec) -> io::Result<()> {
        let mut events = EventLog::new(self.event_capacity, stored.seq_offset, stored.seq_steps);
        // Set when the journal cannot be reopened: the campaign is then
        // quarantined, and the rest of the boot proceeds.
        let mut fault = None;
        let stage = match stored.state.as_str() {
            "done" | "cancelled" => {
                events.bus.close();
                let report = self.registry.read_result(id)?.map(|r| r.report);
                if stored.state == "done" {
                    Stage::Done(report)
                } else {
                    Stage::Cancelled(report)
                }
            }
            // Quarantined across the restart: no scheduler slot until a
            // `resume` retries recovery. The bus stays open.
            "failed" => {
                let error = stored
                    .error
                    .clone()
                    .unwrap_or_else(|| "storage failure".into());
                Stage::Failed(Failure::blank(id, &stored.name, error, events.last_seq))
            }
            state => {
                let paused = matches!(state, "paused" | "budget-paused");
                match self.open_live(id, &stored.name, &stored.spec, paused) {
                    Ok((live, steps)) => {
                        events.opened(steps);
                        Stage::Live(live)
                    }
                    // An unbuildable spec is a registry corruption: refuse
                    // the boot rather than silently dropping the campaign.
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                    Err(e) => {
                        let error = format!("recovering campaign {id}: {e}");
                        fault = Some(error.clone());
                        Stage::Failed(Failure::blank(id, &stored.name, error, events.last_seq))
                    }
                }
            }
        };
        self.campaigns.push(Runtime {
            id,
            name: stored.name,
            spec: stored.spec,
            stage,
            events,
        });
        if let Some(error) = fault {
            self.fail_campaign(self.campaigns.len() - 1, error);
        }
        Ok(())
    }

    /// Opens a campaign's journal and takes a scheduler slot for it
    /// (client-paused when `paused`): the boot-revive and
    /// quarantine-recovery path. Returns the slot and the steps the
    /// journal resumes from.
    fn open_live(
        &mut self,
        id: u64,
        name: &str,
        spec: &CampaignSpec,
        paused: bool,
    ) -> io::Result<(Box<Live<S>>, u64)> {
        let group = self.ensure_group(spec).map_err(invalid_data)?;
        let journal = CampaignJournal::open(self.storage.clone(), self.registry.db_path(id))?;
        let (log, session) = Self::open_session(spec, name, &journal)?;
        let steps = steps_of(&session);
        let scheduler = &mut self.groups[group].scheduler;
        let sched = scheduler.add(session, spec_budget(spec));
        scheduler.set_paused(sched, paused);
        let live = Live {
            group,
            sched,
            journal,
            log,
            board_genes: HashSet::new(),
        };
        Ok((Box::new(live), steps))
    }

    /// Quarantines one campaign after a storage fault: releases its
    /// scheduler slot back to the surviving tenants, snapshots its
    /// progress, records the failure, and broadcasts [`Event::Failed`]
    /// (the bus stays open for the recovery's events). On a quarantined
    /// campaign it records and broadcasts the new error against the
    /// original failure; idempotent on terminal campaigns.
    fn fail_campaign(&mut self, idx: usize, error: String) {
        let runtime = &mut self.campaigns[idx];
        let (at_seq, attempts) = match &mut runtime.stage {
            Stage::Done(_) | Stage::Cancelled(_) => return,
            Stage::Failed(failure) => {
                failure.report.error = Some(error.clone());
                (failure.at_seq, failure.attempts)
            }
            Stage::Live(live) => {
                let session = self.groups[live.group].scheduler.remove(live.sched);
                let (id, name) = (runtime.id, &runtime.name);
                let report = report_from_session(id, name, "failed", &session, Some(error.clone()));
                let at_seq = runtime.events.last_seq;
                runtime.stage = Stage::Failed(Failure {
                    at_seq,
                    attempts: 0,
                    report,
                });
                (at_seq, 0)
            }
        };
        runtime.events.publish(Event::Failed {
            campaign: runtime.id,
            error,
            at_seq,
            resume_backoff_ms: recovery_policy().backoff_ms(attempts + 1),
        });
        // Best-effort: the same storage that faulted may refuse this too;
        // the in-memory quarantine is authoritative until it heals.
        let _ = self.persist_state(idx);
    }

    /// Retries recovery of a `failed` campaign from its retained
    /// journal: the `resume` path for quarantined tenants.
    fn recover(&mut self, idx: usize) -> Result<(), ServiceError> {
        let runtime = &mut self.campaigns[idx];
        let Stage::Failed(failure) = &mut runtime.stage else {
            return Ok(());
        };
        failure.attempts += 1;
        let attempts = failure.attempts;
        let (id, name, spec) = (runtime.id, runtime.name.clone(), runtime.spec.clone());
        match self.open_live(id, &name, &spec, false) {
            Ok((live, steps)) => {
                let runtime = &mut self.campaigns[idx];
                runtime.stage = Stage::Live(live);
                runtime.events.opened(steps);
                self.persist_or_quarantine(idx)
            }
            Err(e) => {
                let backoff = recovery_policy().backoff_ms(attempts);
                let message =
                    format!("recovery attempt {attempts} failed: {e}; retry in {backoff} ms");
                self.fail_campaign(idx, message.clone());
                Err(ServiceError::Storage(message))
            }
        }
    }

    /// Advances every runnable campaign by one generation round and
    /// settles each one that stepped (journal, events, checkpoints).
    /// Returns `false` when nothing had schedulable work.
    ///
    /// Infallible by design: a journal or registry fault quarantines the
    /// affected campaign ([`Event::Failed`], `failed` state) and every
    /// other tenant keeps running.
    pub fn tick(&mut self) -> bool {
        let mut worked = false;
        for group in 0..self.groups.len() {
            let stepped = self.groups[group].scheduler.tick();
            if stepped.is_empty() {
                continue;
            }
            worked = true;
            for idx in 0..self.campaigns.len() {
                let Stage::Live(live) = &self.campaigns[idx].stage else {
                    continue;
                };
                if live.group == group && stepped.binary_search(&live.sched).is_ok() {
                    if let Err(e) = self.settle(idx) {
                        let id = self.campaigns[idx].id;
                        self.fail_campaign(idx, format!("campaign {id} storage failure: {e}"));
                    }
                }
            }
        }
        worked
    }

    /// Runs [`tick`](ServiceEngine::tick) until no campaign has
    /// schedulable work left.
    pub fn run_until_idle(&mut self) {
        while self.tick() {}
    }

    /// Journals one stepped campaign's new results, publishes its
    /// progress event, and checkpoints it — the shared
    /// [`JournaledCampaign::commit_step`], per tenant — then finishes it
    /// when its search is done, or persists its budget pause.
    ///
    /// On error the campaign's scheduler slot is still intact; the
    /// caller ([`tick`](Self::tick)) quarantines it.
    fn settle(&mut self, idx: usize) -> io::Result<()> {
        let runtime = &mut self.campaigns[idx];
        let Stage::Live(live) = &mut runtime.stage else {
            return Ok(());
        };
        let scheduler = &mut self.groups[live.group].scheduler;
        let session = scheduler.session_mut(live.sched);
        let (id, name) = (runtime.id, &runtime.name);
        let (events, board_genes) = (&mut runtime.events, &mut live.board_genes);
        // Failure-ordering: when the search is done the journal finishes
        // (and the result is persisted below) while the scheduler slot is
        // still held, so a fault leaves a quarantinable live campaign
        // (recovery re-runs a finished journal idempotently).
        let done = live.log.commit_step(
            &mut live.journal,
            session,
            |genome, value| Campaign::<BitCodec>::record(name, genome, value),
            |session, incidents| {
                let board = session.leaderboard();
                let delta: Vec<LeaderboardEntry> = board
                    .iter()
                    .filter(|(g, _)| !board_genes.contains(&g.to_words()))
                    .map(|(g, f)| entry(g, *f))
                    .collect();
                for (g, _) in &board {
                    board_genes.insert(g.to_words());
                }
                events.publish(Event::Generation {
                    campaign: id,
                    generation: session.generation(),
                    best: board.first().map(|(g, f)| entry(g, *f)),
                    leaderboard_delta: delta,
                    stats: session.eval_stats().clone(),
                    incidents,
                });
            },
        )?;
        // A finished journal holds no checkpoint: it resumes from scratch.
        events.committed(if done { 0 } else { steps_of(session) });
        if done {
            self.finish(idx, false)
        } else if scheduler.budget_spent(live.sched) {
            self.persist_state(idx)
        } else {
            Ok(())
        }
    }

    /// Ends a live campaign as `done` (or `cancelled`): persists its
    /// result, releases its scheduler slot, publishes the final event,
    /// closes its stream, and persists the new state.
    ///
    /// # Errors
    ///
    /// A failed result write leaves the campaign live, so the caller can
    /// quarantine it; a failed state write leaves it ended.
    fn finish(&mut self, idx: usize, cancelled: bool) -> io::Result<()> {
        let runtime = &self.campaigns[idx];
        let Stage::Live(live) = &runtime.stage else {
            return Ok(());
        };
        let (id, group, sched) = (runtime.id, live.group, live.sched);
        let session = self.groups[group].scheduler.session(sched);
        let state = if cancelled { "cancelled" } else { "done" };
        let report = report_from_session(id, &runtime.name, state, session, None);
        let leaderboard: Vec<LeaderboardEntry> = session
            .leaderboard()
            .iter()
            .map(|(g, f)| entry(g, *f))
            .collect();
        let event = if cancelled {
            Event::Cancelled { campaign: id }
        } else {
            Event::Completed {
                campaign: id,
                generations: report.generation,
                converged: report.converged,
                leaderboard: leaderboard.clone(),
            }
        };
        self.registry.write_result(
            id,
            &StoredResult {
                report: report.clone(),
                leaderboard,
            },
        )?;
        let _ = self.groups[group].scheduler.remove(sched);
        let runtime = &mut self.campaigns[idx];
        runtime.stage = if cancelled {
            Stage::Cancelled(Some(report))
        } else {
            Stage::Done(Some(report))
        };
        runtime.events.publish(event);
        runtime.events.bus.close();
        self.persist_state(idx)
    }

    /// A point-in-time progress report for one campaign.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownCampaign`] for an unknown id.
    pub fn status(&self, id: u64) -> Result<StatusReport, ServiceError> {
        Ok(self.report(&self.campaigns[self.index(id)?]))
    }

    fn report(&self, runtime: &Runtime<S>) -> StatusReport {
        match &runtime.stage {
            Stage::Live(live) => {
                let session = self.groups[live.group].scheduler.session(live.sched);
                let state = self.state_name(&runtime.stage);
                report_from_session(runtime.id, &runtime.name, state, session, None)
            }
            Stage::Failed(Failure { report, .. })
            | Stage::Done(Some(report))
            | Stage::Cancelled(Some(report)) => report.clone(),
            Stage::Done(None) | Stage::Cancelled(None) => {
                let state = self.state_name(&runtime.stage);
                blank_report(runtime.id, &runtime.name, state, None)
            }
        }
    }

    /// Progress reports for every campaign ever submitted, in id order.
    pub fn list(&self) -> Vec<StatusReport> {
        self.campaigns.iter().map(|r| self.report(r)).collect()
    }

    /// Pauses or resumes a campaign. Resuming a budget-paused campaign
    /// grants it a fresh stint of `step_budget` generations; resuming a
    /// `failed` campaign retries its quarantine recovery from the
    /// retained journal.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownCampaign`] for an unknown id,
    /// [`ServiceError::Terminal`] for a terminal campaign (or pausing a
    /// failed one), [`ServiceError::Storage`] when persistence — or a
    /// failed campaign's recovery — fails.
    pub fn set_paused(&mut self, id: u64, paused: bool) -> Result<(), ServiceError> {
        let idx = self.index(id)?;
        let runtime = &self.campaigns[idx];
        let live = match &runtime.stage {
            Stage::Live(live) => live,
            Stage::Failed(_) if !paused => return self.recover(idx),
            _ => return Err(self.not_live(idx)),
        };
        let scheduler = &mut self.groups[live.group].scheduler;
        scheduler.set_paused(live.sched, paused);
        if !paused && scheduler.budget_spent(live.sched) {
            let next = scheduler.steps_taken(live.sched) + runtime.spec.step_budget;
            scheduler.set_step_budget(live.sched, Some(next));
        }
        self.persist_or_quarantine(idx)
    }

    /// Cancels a campaign: its session is discarded, its journal (with
    /// the latest checkpoint) is retained on disk, and its event bus
    /// closes after a [`Event::Cancelled`] notification.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownCampaign`] for an unknown id,
    /// [`ServiceError::Terminal`] for a non-live campaign,
    /// [`ServiceError::Storage`] when persisting the result fails (the
    /// campaign is then quarantined, not cancelled).
    pub fn cancel(&mut self, id: u64) -> Result<(), ServiceError> {
        let idx = self.index(id)?;
        if !matches!(self.campaigns[idx].stage, Stage::Live(_)) {
            return Err(self.not_live(idx));
        }
        // The result persists before the cancel commits, so a storage
        // fault quarantines a still-recoverable campaign.
        self.finish(idx, true).map_err(|e| {
            let what = match self.campaigns[idx].stage {
                Stage::Live(_) => "result",
                _ => "state",
            };
            self.fail_campaign(idx, format!("campaign {id} storage failure: {e}"));
            ServiceError::Storage(format!("persisting campaign {what}: {e}"))
        })
    }

    /// Subscribes to a campaign's event stream from `from_seq` onward:
    /// returns the retained backlog (every ring event with
    /// `seq >= from_seq`) plus a live subscriber for what follows.
    /// `from_seq` 0 or 1 means "everything retained". If events older
    /// than the ring were requested, the backlog is prefixed with a
    /// seq-0 [`Event::Lagged`] counting the unrecoverable gap.
    ///
    /// Watching a terminal campaign yields its retained tail and a
    /// subscriber that immediately reports closure.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownCampaign`] for an unknown id.
    pub fn watch(
        &self,
        id: u64,
        from_seq: u64,
    ) -> Result<(Vec<SeqEvent>, Subscriber<SeqEvent>), ServiceError> {
        Ok(self.campaigns[self.index(id)?].events.watch(from_seq))
    }
}

/// Derives the per-campaign journal paths for
/// `search-word64 --campaigns N --db FILE`: campaign `i` journals into
/// `{stem}-c{i}{ext}` next to `FILE`.
///
/// # Errors
///
/// Returns the typed message when `db` has no file name, or when the
/// derived set collides (duplicates, or a derived path equal to `db`
/// itself) — each campaign must own its journal exclusively.
pub fn campaign_db_paths(db: &str, campaigns: usize) -> Result<Vec<PathBuf>, String> {
    let base = Path::new(db);
    let Some(file) = base.file_name().and_then(|f| f.to_str()) else {
        return Err(format!("--db: `{db}` has no file name"));
    };
    let (stem, ext) = match file.rfind('.') {
        Some(dot) if dot > 0 => (&file[..dot], &file[dot..]),
        _ => (file, ""),
    };
    let mut paths = Vec::with_capacity(campaigns);
    let mut seen: HashSet<PathBuf> = HashSet::new();
    for i in 0..campaigns {
        let path = base.with_file_name(format!("{stem}-c{i}{ext}"));
        if path == base || !seen.insert(path.clone()) {
            return Err(format!(
                "--db: derived journal path `{}` collides; every campaign needs its own journal",
                path.display()
            ));
        }
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::BitCampaign;
    use crate::service::broadcast::Recv;
    use dstress_ga::journal::{MemStorage, SharedStorage};
    use dstress_ga::{run_campaigns, CampaignRun};
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dstress-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            scale: "quick".into(),
            seed,
            ..CampaignSpec::default()
        }
    }

    /// A solo journaled run with the given framework seed, returning the
    /// final snapshot bytes.
    fn solo_snapshot(dir: &Path, seed: u64) -> Vec<u8> {
        let path = dir.join(format!("solo-{seed}.db.json"));
        let mut journal = CampaignJournal::open(DiskStorage::new(), &path).unwrap();
        let mut dstress = DStress::new(ExperimentScale::quick(), seed);
        dstress
            .search_word64_journaled(&mut journal, 60.0, Metric::CeAverage, false)
            .unwrap();
        std::fs::read(&path).unwrap()
    }

    /// A solo journaled run against an in-memory storage, returning the
    /// final snapshot bytes.
    fn solo_mem_snapshot(seed: u64) -> Vec<u8> {
        let path = PathBuf::from(format!("solo-{seed}.db.json"));
        let mut journal = CampaignJournal::open(MemStorage::new(), &path).unwrap();
        let mut dstress = DStress::new(ExperimentScale::quick(), seed);
        dstress
            .search_word64_journaled(&mut journal, 60.0, Metric::CeAverage, false)
            .unwrap();
        journal.into_storage().contents(&path).unwrap().to_vec()
    }

    /// A batch of quick word64 campaigns over one pool on a framework
    /// seeded 42, campaign `i` journaled into `paths[i]`.
    fn journaled_batch(paths: &[PathBuf], workers: usize) -> Vec<BitCampaign> {
        let mut journals: Vec<_> = paths
            .iter()
            .map(|p| CampaignJournal::open(DiskStorage::new(), p).unwrap())
            .collect();
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        dstress.set_workers(workers);
        let campaign = Campaign::word64(60.0, Metric::CeAverage, false);
        let runs = journals.iter_mut().map(Some).collect();
        dstress
            .run(&campaign, runs, None)
            .unwrap()
            .into_iter()
            .map(Option::unwrap)
            .collect()
    }

    #[test]
    fn concurrent_tenants_match_solo_journaled_runs_byte_for_byte() {
        let dir = temp_dir("tenants");
        let mut engine = ServiceEngine::new(dir.join("daemon"), 2, 64).unwrap();
        let (a, name_a) = engine.submit(quick_spec(41)).unwrap();
        let (b, _) = engine.submit(quick_spec(42)).unwrap();
        assert_eq!(name_a, "word64-ce-max-60C");
        engine.run_until_idle();
        for id in [a, b] {
            let report = engine.status(id).unwrap();
            assert_eq!(report.state, "done");
            assert!(report.generation > 0);
        }
        let daemon_a = std::fs::read(engine.dir().join(format!("c{a}.db.json"))).unwrap();
        let daemon_b = std::fs::read(engine.dir().join(format!("c{b}.db.json"))).unwrap();
        assert_eq!(daemon_a, solo_snapshot(&dir, 41), "campaign A diverged");
        assert_eq!(daemon_b, solo_snapshot(&dir, 42), "campaign B diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_restart_mid_campaign_resumes_bit_identically() {
        let dir = temp_dir("restart");
        let id = {
            let mut engine = ServiceEngine::new(dir.join("daemon"), 2, 64).unwrap();
            let (id, _) = engine.submit(quick_spec(7)).unwrap();
            for _ in 0..3 {
                engine.tick();
            }
            id
            // Dropping the engine models a daemon kill at tick
            // granularity: the journal holds the post-step checkpoint.
        };
        let mut engine = ServiceEngine::new(dir.join("daemon"), 1, 64).unwrap();
        engine.run_until_idle();
        assert_eq!(engine.status(id).unwrap().state, "done");
        let resumed = std::fs::read(engine.dir().join(format!("c{id}.db.json"))).unwrap();
        assert_eq!(resumed, solo_snapshot(&dir, 7), "restart diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pause_cancel_and_watch_lifecycles() {
        let dir = temp_dir("lifecycle");
        let mut engine = ServiceEngine::new(dir.join("daemon"), 1, 64).unwrap();
        let (id, _) = engine.submit(quick_spec(9)).unwrap();
        let (backlog, sub) = engine.watch(id, 0).unwrap();
        assert!(backlog.is_empty(), "nothing published yet");
        engine.tick();
        match sub.recv_timeout(Duration::from_secs(1)) {
            Recv::Event(SeqEvent {
                seq,
                event:
                    Event::Generation {
                        campaign,
                        generation,
                        ..
                    },
            }) => {
                assert_eq!(campaign, id);
                assert_eq!(seq, 1, "sequence numbers start at 1");
                // The first scheduler step evaluates the seed population;
                // generations count from the first evolved one.
                assert_eq!(generation, 0);
            }
            other => panic!("expected a generation event, got {other:?}"),
        }
        engine.set_paused(id, true).unwrap();
        assert!(engine.idle(), "a paused campaign contributes no work");
        assert_eq!(engine.status(id).unwrap().state, "paused");
        engine.set_paused(id, false).unwrap();
        engine.tick();
        engine.cancel(id).unwrap();
        let report = engine.status(id).unwrap();
        assert_eq!(report.state, "cancelled");
        assert_eq!(report.generation, 1);
        // The stream drains its queued events, reports the cancellation,
        // then closes.
        let mut saw_cancelled = false;
        loop {
            match sub.recv_timeout(Duration::from_secs(1)) {
                Recv::Event(SeqEvent {
                    event: Event::Cancelled { campaign },
                    ..
                }) => {
                    assert_eq!(campaign, id);
                    saw_cancelled = true;
                }
                Recv::Event(_) | Recv::Lagged(_) => {}
                Recv::Closed => break,
                Recv::Empty => panic!("stream stalled"),
            }
        }
        assert!(saw_cancelled);
        // Terminal operations are rejected with typed errors.
        assert!(engine
            .cancel(id)
            .unwrap_err()
            .to_string()
            .contains("cancelled"));
        assert!(engine.set_paused(id, true).is_err());
        assert_eq!(engine.status(999), Err(ServiceError::UnknownCampaign(999)));
        // The cancelled campaign survives a restart as cancelled.
        drop(engine);
        let engine = ServiceEngine::new(dir.join("daemon"), 1, 64).unwrap();
        assert_eq!(engine.status(id).unwrap().state, "cancelled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn groups_without_campaigns_are_released_before_a_new_one_is_built() {
        let dir = temp_dir("release");
        let mut engine = ServiceEngine::new(dir.join("daemon"), 1, 64).unwrap();
        let spec_at = |temp_c: f64| CampaignSpec {
            temp_c,
            ..quick_spec(21)
        };
        for temp_c in [55.0, 60.0, 65.0] {
            let (id, _) = engine.submit(spec_at(temp_c)).unwrap();
            engine.tick();
            engine.cancel(id).unwrap();
        }
        let (hot, _) = engine.submit(spec_at(70.0)).unwrap();
        assert_eq!(engine.groups.len(), 1, "idle groups must be released");
        // A live tenant behind a released group keeps its state: its group
        // index is renumbered with the removal.
        let (kept, _) = engine.submit(spec_at(62.0)).unwrap();
        engine.tick();
        engine.cancel(hot).unwrap();
        let before = engine.status(kept).unwrap();
        assert_eq!(before.generation, 0);
        let (cool, _) = engine.submit(spec_at(58.0)).unwrap();
        assert_eq!(engine.groups.len(), 2);
        assert_eq!(engine.status(kept).unwrap(), before);
        engine.run_until_idle();
        for id in [kept, cool] {
            assert_eq!(engine.status(id).unwrap().state, "done");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_pause_then_resume_still_matches_the_solo_run() {
        let dir = temp_dir("budget");
        let mut engine = ServiceEngine::new(dir.join("daemon"), 1, 64).unwrap();
        let mut spec = quick_spec(11);
        spec.step_budget = 2;
        let (id, _) = engine.submit(spec).unwrap();
        engine.run_until_idle();
        let report = engine.status(id).unwrap();
        assert_eq!(report.state, "budget-paused");
        assert_eq!(
            report.generation, 1,
            "two steps = seed pass + one generation"
        );
        // Resume grants another stint; repeat until the search finishes.
        for _ in 0..32 {
            if engine.status(id).unwrap().state == "done" {
                break;
            }
            engine.set_paused(id, false).unwrap();
            engine.run_until_idle();
        }
        assert_eq!(engine.status(id).unwrap().state, "done");
        let bytes = std::fs::read(engine.dir().join(format!("c{id}.db.json"))).unwrap();
        assert_eq!(bytes, solo_snapshot(&dir, 11), "budget stints diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_storage_fault_quarantines_one_tenant_and_spares_the_other() {
        let storage = SharedStorage::new(MemStorage::new());
        let mut engine =
            ServiceEngine::with_storage(storage.clone(), PathBuf::from("daemon"), 1, 64).unwrap();
        let (a, _) = engine.submit(quick_spec(41)).unwrap();
        let (b, _) = engine.submit(quick_spec(42)).unwrap();
        // Fail one mutating storage op a little into the run phase: one
        // tenant quarantines, the other must be untouched.
        storage.with(|s| s.fail_op(5));
        engine.run_until_idle();
        let reports = [engine.status(a).unwrap(), engine.status(b).unwrap()];
        let failed: Vec<_> = reports.iter().filter(|r| r.state == "failed").collect();
        let done: Vec<_> = reports.iter().filter(|r| r.state == "done").collect();
        assert_eq!(failed.len(), 1, "exactly one tenant hit the fault");
        assert_eq!(done.len(), 1, "the other tenant finished");
        let victim = failed[0].campaign;
        let survivor = done[0].campaign;
        assert!(
            failed[0].error.as_deref().unwrap_or("").contains("fault"),
            "the quarantine reports the injected fault: {:?}",
            failed[0].error
        );
        // The survivor's snapshot is byte-identical to a solo run.
        let survivor_seed = if survivor == a { 41 } else { 42 };
        let path = PathBuf::from(format!("daemon/c{survivor}.db.json"));
        let snapshot = storage.with(|s| s.contents(&path).unwrap().to_vec());
        assert_eq!(snapshot, solo_mem_snapshot(survivor_seed));
        // Pausing a failed campaign is rejected; resuming retries
        // recovery — and succeeds once the fault clears.
        assert!(engine.set_paused(victim, true).is_err());
        storage.with(|s| s.clear_faults());
        engine.set_paused(victim, false).unwrap();
        engine.run_until_idle();
        assert_eq!(engine.status(victim).unwrap().state, "done");
        let victim_seed = if victim == a { 41 } else { 42 };
        let path = PathBuf::from(format!("daemon/c{victim}.db.json"));
        let snapshot = storage.with(|s| s.contents(&path).unwrap().to_vec());
        assert_eq!(
            snapshot,
            solo_mem_snapshot(victim_seed),
            "recovery diverged from the solo run"
        );
    }

    /// The retained events of a campaign from `from_seq` on as
    /// `(seq, kind)`, a `Generation` rendered as `g{generation}`.
    fn retained<S: Storage + Clone>(
        engine: &ServiceEngine<S>,
        id: u64,
        from_seq: u64,
    ) -> Vec<(u64, String)> {
        let (backlog, _) = engine.watch(id, from_seq).unwrap();
        backlog
            .into_iter()
            .map(|e| {
                let kind = match e.event {
                    Event::Generation { generation, .. } => format!("g{generation}"),
                    Event::Failed { .. } => "failed".to_string(),
                    other => format!("{other:?}"),
                };
                (e.seq, kind)
            })
            .collect()
    }

    #[test]
    fn a_paused_co_tenant_settles_nothing_while_its_neighbour_steps() {
        let dir = temp_dir("co-tenant");
        let mut engine = ServiceEngine::new(dir.join("daemon"), 1, 64).unwrap();
        let (a, _) = engine.submit(quick_spec(21)).unwrap();
        let (b, _) = engine.submit(quick_spec(22)).unwrap();
        engine.tick();
        engine.set_paused(b, true).unwrap();
        engine.tick();
        engine.tick();
        let kinds =
            |id| -> Vec<String> { retained(&engine, id, 0).into_iter().map(|e| e.1).collect() };
        assert_eq!(kinds(a), ["g0", "g1", "g2"]);
        assert_eq!(kinds(b), ["g0"], "the paused campaign published again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_seqs_stay_unique_across_quarantine_recovery_and_restart() {
        let storage = SharedStorage::new(MemStorage::new());
        let boot = || {
            ServiceEngine::with_storage(storage.clone(), PathBuf::from("daemon"), 1, 64).unwrap()
        };
        let mut engine = boot();
        let (id, _) = engine.submit(quick_spec(5)).unwrap();
        engine.tick();
        engine.tick();
        // The third step's first journal append fails: quarantined.
        storage.with(|s| s.fail_op(0));
        engine.tick();
        assert_eq!(engine.status(id).unwrap().state, "failed");
        storage.with(|s| s.clear_faults());
        engine.set_paused(id, false).unwrap();
        engine.tick();
        engine.tick();
        let expected: Vec<(u64, String)> = ["g0", "g1", "failed", "g2", "g3"]
            .iter()
            .enumerate()
            .map(|(i, kind)| (i as u64 + 1, kind.to_string()))
            .collect();
        assert_eq!(retained(&engine, id, 0), expected);
        // After a restart the numbering continues past every published
        // seq, so a watcher reconnecting with `from_seq 6` misses nothing.
        drop(engine);
        let mut engine = boot();
        engine.tick();
        assert_eq!(retained(&engine, id, 6), vec![(6, "g4".to_string())]);
    }

    #[test]
    fn a_failed_recovery_after_a_restart_numbers_past_every_published_seq() {
        let storage = SharedStorage::new(MemStorage::new());
        let boot = || {
            ServiceEngine::with_storage(storage.clone(), PathBuf::from("daemon"), 1, 64).unwrap()
        };
        let mut engine = boot();
        let (id, _) = engine.submit(quick_spec(5)).unwrap();
        engine.tick();
        engine.tick();
        // The third step's first journal append fails: quarantined, with
        // the notice one seq ahead of the two journaled steps.
        storage.with(|s| s.fail_op(0));
        engine.tick();
        storage.with(|s| s.clear_faults());
        assert_eq!(
            retained(&engine, id, 0),
            [(1, "g0"), (2, "g1"), (3, "failed")].map(|(seq, kind)| (seq, kind.to_string()))
        );
        // Restart with the journal unreadable: the campaign revives
        // `failed`, and its recovery fails before the journal reopens.
        drop(engine);
        let path = PathBuf::from(format!("daemon/c{id}.db.json"));
        storage.with(|s| s.install(path, b"not a journal".to_vec()));
        let mut engine = boot();
        assert_eq!(engine.status(id).unwrap().state, "failed");
        assert!(engine.set_paused(id, false).is_err());
        assert_eq!(retained(&engine, id, 4), vec![(4, "failed".to_string())]);
    }

    #[test]
    fn watch_from_seq_replays_the_retained_suffix_and_flags_gaps() {
        let dir = temp_dir("fromseq");
        let mut engine = ServiceEngine::new(dir.join("daemon"), 1, 4).unwrap();
        let (id, _) = engine.submit(quick_spec(13)).unwrap();
        engine.run_until_idle();
        let report = engine.status(id).unwrap();
        assert_eq!(report.state, "done");
        let last_seq = u64::from(report.generation) + 2; // seed pass + Completed
                                                         // Reconnecting from within the ring replays exactly the suffix.
        let (backlog, _) = engine.watch(id, last_seq - 1).unwrap();
        assert_eq!(
            backlog.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![last_seq - 1, last_seq]
        );
        // Reconnecting from before the ring flags the unrecoverable gap
        // with a connection-local (seq 0) Lagged notice, then the ring.
        let (backlog, _) = engine.watch(id, 1).unwrap();
        assert_eq!(backlog[0].seq, 0);
        let Event::Lagged { missed } = backlog[0].event else {
            panic!("expected a Lagged prefix, got {:?}", backlog[0].event);
        };
        assert_eq!(missed, last_seq - 4, "events 1..=N-4 fell out of the ring");
        let seqs: Vec<u64> = backlog[1..].iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (last_seq - 3..=last_seq).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_db_paths_derive_and_reject() {
        let paths = campaign_db_paths("out/word64.json", 3).unwrap();
        assert_eq!(
            paths,
            vec![
                PathBuf::from("out/word64-c0.json"),
                PathBuf::from("out/word64-c1.json"),
                PathBuf::from("out/word64-c2.json"),
            ]
        );
        // No extension: the suffix still lands before the end.
        assert_eq!(
            campaign_db_paths("db", 2).unwrap(),
            vec![PathBuf::from("db-c0"), PathBuf::from("db-c1")]
        );
        // A hidden file keeps its leading dot as part of the stem.
        assert_eq!(
            campaign_db_paths(".journal", 1).unwrap(),
            vec![PathBuf::from(".journal-c0")]
        );
        assert!(campaign_db_paths("..", 1).is_err());
    }

    #[test]
    fn journaled_multi_campaign_batch_matches_the_concurrent_path() {
        let dir = temp_dir("multi");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = campaign_db_paths(dir.join("word64.json").to_str().unwrap(), 2).unwrap();
        let journaled = journaled_batch(&paths, 2);
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        let concurrent: Vec<BitCampaign> = dstress
            .run::<_, DiskStorage>(
                &Campaign::word64(60.0, Metric::CeAverage, false),
                vec![None, None],
                None,
            )
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        for (j, c) in journaled.iter().zip(&concurrent) {
            assert_eq!(j.name, c.name);
            assert_eq!(j.result.best, c.result.best);
            assert_eq!(j.result.best_fitness, c.result.best_fitness);
            assert_eq!(j.result.leaderboard, c.result.leaderboard);
        }
        // Re-running the finished batch is idempotent: the snapshots do
        // not change.
        let before: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        journaled_batch(&paths, 1);
        let after: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_resumes_a_campaign_interrupted_under_the_solo_driver() {
        // Campaign c1 of a two-campaign batch is interrupted by the solo
        // journaled driver (same name, seed and configuration the batch
        // gives it), then the batch finishes both campaigns. Both drivers
        // journal through one routine, so the snapshots must match an
        // uninterrupted batch byte for byte.
        let dir = temp_dir("cross-driver");
        std::fs::create_dir_all(&dir).unwrap();
        let batch = |base: &str, workers| {
            let paths = campaign_db_paths(dir.join(base).to_str().unwrap(), 2).unwrap();
            journaled_batch(&paths, workers);
            paths
                .iter()
                .map(|p| std::fs::read(p).unwrap())
                .collect::<Vec<_>>()
        };
        let clean = batch("clean.json", 2);

        let paths = campaign_db_paths(dir.join("resumed.json").to_str().unwrap(), 2).unwrap();
        let name = format!(
            "{}-c1",
            DStress::word64_campaign_name(60.0, &Metric::CeAverage, false)
        );
        let campaign = Campaign::word64(60.0, Metric::CeAverage, false);
        let mut fitness = DStress::new(ExperimentScale::quick(), 42)
            .fitness(&campaign)
            .unwrap();
        let mut journal = CampaignJournal::open(DiskStorage::new(), &paths[1]).unwrap();
        let run = CampaignRun::journaled(
            &mut journal,
            &name,
            || campaign.start(ExperimentScale::quick().ga, DStress::campaign_seed(42, 2)),
            |genome, value| Campaign::<BitCodec>::record(&name, genome, value),
        )
        .unwrap();
        let interrupted = run_campaigns(&mut fitness, 1, vec![run], Some(3)).unwrap();
        assert!(!interrupted[0].done(), "the step budget interrupts c1");
        // The routine the batch opens c1 with resumes it mid-search.
        let (_, session): (_, SearchSession<BitGenome>) =
            JournaledCampaign::open(&journal, &name, || {
                unreachable!("c1 must resume from its checkpoint")
            })
            .unwrap();
        assert_eq!(session.generation(), 2, "seed pass + two generations");
        drop(journal);
        assert_eq!(batch("resumed.json", 1), clean);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
