//! The network-free service core: multi-tenant campaign execution.
//!
//! [`ServiceEngine`] owns every live campaign. Campaigns whose evaluation
//! substrate is identical (same scale, same temperature, same metric) are
//! grouped onto one [`CampaignScheduler`] over one persistent
//! [`EvalPool`], so concurrent tenants share worker threads and replica
//! caches; campaigns with different substrates get their own group. One
//! [`tick`](ServiceEngine::tick) advances every runnable campaign by
//! exactly one generation round and then settles each stepped campaign:
//! journal its new records and incidents, publish a progress event, and
//! append its post-step checkpoint (or finish the journal when done).
//!
//! Journaling goes through the routine
//! [`run_journaled`](dstress_ga::run_journaled) uses —
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
//! reconnects with `from_seq` replays exactly the missed suffix.

use crate::error::DStressError;
use crate::evaluate::{Metric, ParallelBitFitness};
use crate::patterns::BitCodec;
use crate::scale::ExperimentScale;
use crate::search::{BitCampaign, DStress, EnvKind, Seeding};
use crate::service::broadcast::{EventBus, Subscriber};
use crate::service::protocol::{CampaignSpec, Event, LeaderboardEntry, SeqEvent, StatusReport};
use crate::service::registry::{CampaignRegistry, StoredResult, StoredSpec};
use dstress_ga::journal::{CampaignJournal, DiskStorage, JournaledCampaign, Storage};
use dstress_ga::{
    BitGenome, CampaignScheduler, EvalPool, Genome, ParallelFitness, SearchSession,
    SupervisionPolicy, VirusRecord,
};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};

/// A typed service-layer failure: what went wrong, machine-matchable.
///
/// The daemon renders these verbatim into
/// [`Response::Error`](crate::service::protocol::Response::Error) frames;
/// nothing in the service layer panics on them.
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
    /// An engine invariant did not hold. The affected campaign is
    /// quarantined; a daemon must never panic on its own bookkeeping.
    StateMismatch(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownCampaign(id) => write!(f, "no campaign {id}"),
            ServiceError::Terminal { campaign, state } => {
                write!(f, "campaign {campaign} is {state}")
            }
            ServiceError::Spec(m) | ServiceError::Storage(m) => write!(f, "{m}"),
            ServiceError::StateMismatch(m) => write!(f, "internal state mismatch: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for DStressError {
    fn from(e: ServiceError) -> Self {
        DStressError::Service(e.to_string())
    }
}

/// The word64 chromosome codec every service campaign uses.
fn word64_codec() -> BitCodec {
    BitCodec::Word64 {
        param: "PATTERN".into(),
    }
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

fn spec_metric(spec: &CampaignSpec) -> Metric {
    if spec.ue {
        Metric::UeRuns
    } else {
        Metric::CeAverage
    }
}

fn entry(genome: &BitGenome, fitness: f64) -> LeaderboardEntry {
    LeaderboardEntry {
        genes: genome.to_words(),
        fitness,
    }
}

fn make_record(campaign: &str, genome: &BitGenome, value: f64) -> VirusRecord {
    VirusRecord {
        campaign: campaign.to_string(),
        genes: genome.to_words(),
        gene_len: genome.len(),
        fitness: value,
        ce: value.max(0.0) as u64,
        ue: 0,
        sequence: 0,
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

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CampaignState {
    /// Scheduled: contributes tasks to every tick.
    Running,
    /// Client-paused: keeps all state, contributes nothing.
    Paused,
    /// Exhausted its step budget: checkpointed, waiting for a resume.
    BudgetPaused,
    /// Quarantined after a storage fault: scheduler slot released,
    /// journal intact, waiting for a `resume` to retry recovery.
    Failed,
    /// Finished (converged or out of generations).
    Done,
    /// Cancelled by a client; the journal is retained.
    Cancelled,
}

impl CampaignState {
    fn as_str(self) -> &'static str {
        match self {
            CampaignState::Running => "running",
            CampaignState::Paused => "paused",
            CampaignState::BudgetPaused => "budget-paused",
            CampaignState::Failed => "failed",
            CampaignState::Done => "done",
            CampaignState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, CampaignState::Done | CampaignState::Cancelled)
    }
}

/// The scheduler-side state of a live (non-terminal) campaign.
struct Live<S: Storage> {
    group: usize,
    sched: usize,
    journal: CampaignJournal<S>,
    /// The campaign's side of the shared journaling routine.
    log: JournaledCampaign,
    /// Chromosomes already reported on the leaderboard, for event deltas.
    board_genes: HashSet<Vec<u64>>,
    /// The scheduler step budget currently in force (steps counted from
    /// this boot's `add`), mirroring the scheduler's own budget.
    budget: Option<u64>,
}

/// The quarantine record of a `failed` campaign.
struct Failure {
    /// The storage error that quarantined it (latest recovery attempt's
    /// error once retries begin).
    error: String,
    /// The last sequence number published before the failure.
    at_seq: u64,
    /// Recovery attempts so far, indexing the backoff schedule.
    attempts: u32,
    /// The progress snapshot taken at quarantine time.
    report: StatusReport,
}

/// One campaign the engine knows about, live or terminal.
struct Runtime<S: Storage> {
    id: u64,
    name: String,
    spec: CampaignSpec,
    state: CampaignState,
    live: Option<Live<S>>,
    bus: EventBus<SeqEvent>,
    /// The sequence number of the last published event (0 = none yet).
    event_seq: u64,
    /// The ring of recently published events backing `watch --from-seq`
    /// reconnects.
    recent: VecDeque<SeqEvent>,
    /// The quarantine record, when `state` is [`CampaignState::Failed`].
    failure: Option<Failure>,
    /// The terminal report, once the campaign is done or cancelled.
    report: Option<StatusReport>,
}

/// Stamps, retains, and broadcasts one event on a campaign's bus.
///
/// A free function over the runtime's disjoint fields so callers can hold
/// other `Runtime` borrows (e.g. `live`) across the publish.
fn publish(
    bus: &EventBus<SeqEvent>,
    recent: &mut VecDeque<SeqEvent>,
    event_seq: &mut u64,
    capacity: usize,
    event: Event,
) {
    *event_seq += 1;
    let stamped = SeqEvent {
        seq: *event_seq,
        event,
    };
    if recent.len() == capacity {
        recent.pop_front();
    }
    recent.push_back(stamped.clone());
    bus.publish(&stamped);
}

/// Snapshots a live session into a client-facing progress report.
fn report_from_session(
    id: u64,
    name: &str,
    state: CampaignState,
    session: &SearchSession<BitGenome>,
    error: Option<String>,
) -> StatusReport {
    let board = session.leaderboard();
    StatusReport {
        campaign: id,
        name: name.to_string(),
        state: state.as_str().to_string(),
        generation: session.generation(),
        best: board.first().map(|(g, f)| entry(g, *f)),
        evaluations: session.eval_stats().evaluations,
        cache_hits: session.eval_stats().cache_hits,
        incidents: session.incidents().len() as u64,
        converged: session.converged(),
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

    fn runtime(&self, id: u64) -> Result<usize, ServiceError> {
        self.campaigns
            .iter()
            .position(|r| r.id == id)
            .ok_or(ServiceError::UnknownCampaign(id))
    }

    fn persist_state(&mut self, idx: usize) -> io::Result<()> {
        let runtime = &self.campaigns[idx];
        let id = runtime.id;
        let stored = StoredSpec {
            spec: runtime.spec.clone(),
            name: runtime.name.clone(),
            state: runtime.state.as_str().to_string(),
            error: runtime.failure.as_ref().map(|f| f.error.clone()),
        };
        self.registry.write_spec(id, &stored)
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
        let dstress = DStress::new(scale, 0);
        let fitness = ParallelBitFitness {
            evaluator: dstress
                .evaluator(&EnvKind::Word64, spec.temperature(), spec_metric(spec))
                .map_err(|e| e.to_string())?,
            codec: word64_codec(),
        };
        self.groups.push(Group {
            key,
            scheduler: CampaignScheduler::new(EvalPool::new(&fitness, self.workers)),
        });
        Ok(self.groups.len() - 1)
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
        let mut config = scale.ga;
        config.minimize = spec.minimize;
        JournaledCampaign::open(journal, name, || {
            let bits = word64_codec().genome_bits();
            // The engine seed of the first campaign a solo framework with
            // this seed would start — the determinism contract.
            let seed = DStress::campaign_seed(spec.framework_seed(), 1);
            SearchSession::start(config, seed, |rng| {
                Seeding::Random.initial_genome(rng, bits)
            })
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
        let name =
            DStress::word64_campaign_name(spec.temperature(), &spec_metric(&spec), spec.minimize);
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
        let budget = (spec.step_budget > 0).then_some(spec.step_budget);
        let sched = self.groups[group].scheduler.add(session, budget);
        self.campaigns.push(Runtime {
            id,
            name: name.to_string(),
            spec,
            state: CampaignState::Running,
            live: Some(Live {
                group,
                sched,
                journal,
                log,
                board_genes: HashSet::new(),
                budget,
            }),
            bus: EventBus::new(self.event_capacity),
            event_seq: 0,
            recent: VecDeque::new(),
            failure: None,
            report: None,
        });
        if let Err(e) = self.persist_state(self.campaigns.len() - 1) {
            // Roll back: the campaign was never durably registered.
            if let Some(mut runtime) = self.campaigns.pop() {
                if let Some(live) = runtime.live.take() {
                    let _ = self.groups[live.group].scheduler.remove(live.sched);
                }
            }
            return Err(ServiceError::Storage(format!(
                "persisting campaign spec: {e}"
            )));
        }
        Ok(())
    }

    /// Rebuilds one campaign recovered by the boot scan.
    fn revive(&mut self, id: u64, stored: StoredSpec) -> io::Result<()> {
        let state = match stored.state.as_str() {
            "done" => CampaignState::Done,
            "cancelled" => CampaignState::Cancelled,
            "failed" => CampaignState::Failed,
            "paused" | "budget-paused" => CampaignState::Paused,
            _ => CampaignState::Running,
        };
        let bus = EventBus::new(self.event_capacity);
        if state.terminal() {
            let report = self.registry.read_result(id)?.map(|r| r.report);
            bus.close();
            self.campaigns.push(Runtime {
                id,
                name: stored.name,
                spec: stored.spec,
                state,
                live: None,
                bus,
                event_seq: 0,
                recent: VecDeque::new(),
                failure: None,
                report,
            });
            return Ok(());
        }
        if state == CampaignState::Failed {
            // Quarantined across the restart: no scheduler slot until a
            // `resume` retries recovery. The bus stays open.
            let error = stored
                .error
                .clone()
                .unwrap_or_else(|| "storage failure".to_string());
            let report = StatusReport {
                campaign: id,
                name: stored.name.clone(),
                state: CampaignState::Failed.as_str().to_string(),
                generation: 0,
                best: None,
                evaluations: 0,
                cache_hits: 0,
                incidents: 0,
                converged: false,
                error: Some(error.clone()),
            };
            self.campaigns.push(Runtime {
                id,
                name: stored.name,
                spec: stored.spec,
                state,
                live: None,
                bus,
                event_seq: 0,
                recent: VecDeque::new(),
                failure: Some(Failure {
                    error,
                    at_seq: 0,
                    attempts: 0,
                    report,
                }),
                report: None,
            });
            return Ok(());
        }
        self.campaigns.push(Runtime {
            id,
            name: stored.name,
            spec: stored.spec,
            state,
            live: None,
            bus,
            event_seq: 0,
            recent: VecDeque::new(),
            failure: None,
            report: None,
        });
        let idx = self.campaigns.len() - 1;
        match self.open_live(idx) {
            Ok(()) => Ok(()),
            // An unbuildable spec is a registry corruption: refuse the
            // boot rather than silently dropping the campaign.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(e),
            // A storage fault quarantines this campaign only; the rest
            // of the boot proceeds.
            Err(e) => {
                self.fail_campaign(idx, format!("recovering campaign {id}: {e}"));
                Ok(())
            }
        }
    }

    /// (Re)opens a campaign's journal and scheduler slot from its
    /// persisted state: the quarantine-recovery and boot-revive path.
    fn open_live(&mut self, idx: usize) -> io::Result<()> {
        let (id, name, spec, paused) = {
            let runtime = &self.campaigns[idx];
            (
                runtime.id,
                runtime.name.clone(),
                runtime.spec.clone(),
                runtime.state == CampaignState::Paused,
            )
        };
        let group = self.ensure_group(&spec).map_err(invalid_data)?;
        let journal = CampaignJournal::open(self.storage.clone(), self.registry.db_path(id))?;
        let (log, session) = Self::open_session(&spec, &name, &journal)?;
        let budget = (spec.step_budget > 0).then_some(spec.step_budget);
        let evaluations = session.eval_stats().evaluations;
        let generation = session.generation();
        let scheduler = &mut self.groups[group].scheduler;
        let sched = scheduler.add(session, budget);
        if paused {
            scheduler.set_paused(sched, true);
        }
        let runtime = &mut self.campaigns[idx];
        runtime.live = Some(Live {
            group,
            sched,
            journal,
            log,
            board_genes: HashSet::new(),
            budget,
        });
        if runtime.event_seq == 0 && evaluations > 0 {
            // Continue the pre-restart numbering: the generation-`g`
            // event carried seq `g + 1` (seq 1 was the seed pass), so a
            // `watch --from-seq` reconnect across the restart sees no
            // duplicate and no gap.
            runtime.event_seq = u64::from(generation) + 1;
        }
        Ok(())
    }

    /// Quarantines one campaign after a storage fault: releases its
    /// scheduler slot back to the surviving tenants, snapshots its
    /// progress, records the failure, and broadcasts [`Event::Failed`]
    /// (the bus stays open for the recovery's events). Idempotent on
    /// terminal campaigns.
    fn fail_campaign(&mut self, idx: usize, error: String) {
        let runtime = &mut self.campaigns[idx];
        if runtime.state.terminal() {
            return;
        }
        let attempts = runtime.failure.as_ref().map_or(0, |f| f.attempts);
        let live = runtime.live.take();
        let session = live.map(|l| self.groups[l.group].scheduler.remove(l.sched));
        let runtime = &mut self.campaigns[idx];
        let report = if let Some(session) = &session {
            report_from_session(
                runtime.id,
                &runtime.name,
                CampaignState::Failed,
                session,
                Some(error.clone()),
            )
        } else if let Some(prev) = runtime.failure.take() {
            let mut report = prev.report;
            report.error = Some(error.clone());
            report
        } else {
            StatusReport {
                campaign: runtime.id,
                name: runtime.name.clone(),
                state: CampaignState::Failed.as_str().to_string(),
                generation: 0,
                best: None,
                evaluations: 0,
                cache_hits: 0,
                incidents: 0,
                converged: false,
                error: Some(error.clone()),
            }
        };
        let at_seq = runtime.event_seq;
        runtime.state = CampaignState::Failed;
        runtime.failure = Some(Failure {
            error: error.clone(),
            at_seq,
            attempts,
            report,
        });
        publish(
            &runtime.bus,
            &mut runtime.recent,
            &mut runtime.event_seq,
            self.event_capacity,
            Event::Failed {
                campaign: runtime.id,
                error,
                at_seq,
                resume_backoff_ms: recovery_policy().backoff_ms(attempts + 1),
            },
        );
        // Best-effort: the same storage that faulted may refuse this too;
        // the in-memory quarantine is authoritative until it heals.
        let _ = self.persist_state(idx);
    }

    /// Retries recovery of a `failed` campaign from its retained
    /// journal: the `resume` path for quarantined tenants.
    fn recover(&mut self, idx: usize) -> Result<(), ServiceError> {
        let id = self.campaigns[idx].id;
        let attempts = {
            let runtime = &mut self.campaigns[idx];
            let attempts = runtime.failure.as_ref().map_or(0, |f| f.attempts) + 1;
            if let Some(failure) = runtime.failure.as_mut() {
                failure.attempts = attempts;
            }
            attempts
        };
        match self.open_live(idx) {
            Ok(()) => {
                let runtime = &mut self.campaigns[idx];
                runtime.state = CampaignState::Running;
                runtime.failure = None;
                if let Err(e) = self.persist_state(idx) {
                    self.fail_campaign(idx, format!("campaign {id} storage failure: {e}"));
                    return Err(ServiceError::Storage(format!(
                        "persisting campaign state: {e}"
                    )));
                }
                Ok(())
            }
            Err(e) => {
                let backoff = recovery_policy().backoff_ms(attempts);
                let message =
                    format!("recovery attempt {attempts} failed: {e}; retry in {backoff} ms");
                let runtime = &mut self.campaigns[idx];
                let at_seq = runtime.failure.as_ref().map_or(0, |f| f.at_seq);
                if let Some(failure) = runtime.failure.as_mut() {
                    failure.error = message.clone();
                    failure.report.error = Some(message.clone());
                }
                publish(
                    &runtime.bus,
                    &mut runtime.recent,
                    &mut runtime.event_seq,
                    self.event_capacity,
                    Event::Failed {
                        campaign: id,
                        error: message.clone(),
                        at_seq,
                        resume_backoff_ms: recovery_policy().backoff_ms(attempts + 1),
                    },
                );
                let _ = self.persist_state(idx);
                Err(ServiceError::Storage(message))
            }
        }
    }

    /// Advances every runnable campaign by one generation round and
    /// settles the results (journal, events, checkpoints). Returns
    /// `false` when nothing had schedulable work.
    ///
    /// Infallible by design: a journal or registry fault quarantines the
    /// affected campaign ([`Event::Failed`], `failed` state) and every
    /// other tenant keeps running.
    pub fn tick(&mut self) -> bool {
        let mut worked = false;
        for group in 0..self.groups.len() {
            let stepped: Vec<(usize, u64)> = self
                .campaigns
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    let live = r.live.as_ref()?;
                    (live.group == group)
                        .then(|| (i, self.groups[group].scheduler.steps_taken(live.sched)))
                })
                .collect();
            if !self.groups[group].scheduler.tick() {
                continue;
            }
            worked = true;
            for (idx, steps_before) in stepped {
                let Some(live) = self.campaigns[idx].live.as_ref() else {
                    // The slot vanished mid-round: an engine bookkeeping
                    // bug, but one tenant's — never a daemon panic.
                    let id = self.campaigns[idx].id;
                    self.fail_campaign(
                        idx,
                        ServiceError::StateMismatch(format!(
                            "campaign {id} stepped without live state"
                        ))
                        .to_string(),
                    );
                    continue;
                };
                if self.groups[group].scheduler.steps_taken(live.sched) > steps_before {
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
    /// progress event, and checkpoints (or completes) it — the shared
    /// [`JournaledCampaign::commit_step`], per tenant.
    ///
    /// On error the campaign's scheduler slot is still intact; the
    /// caller ([`tick`](Self::tick)) quarantines it.
    fn settle(&mut self, idx: usize) -> io::Result<()> {
        let capacity = self.event_capacity;
        let runtime = &mut self.campaigns[idx];
        let Some(live) = runtime.live.as_mut() else {
            return Ok(());
        };
        let group = &mut self.groups[live.group];
        let session = group.scheduler.session_mut(live.sched);
        let id = runtime.id;
        let name = &runtime.name;
        let (bus, recent, event_seq) = (&runtime.bus, &mut runtime.recent, &mut runtime.event_seq);
        let board_genes = &mut live.board_genes;
        // Failure-ordering: when the search is done the journal finishes
        // (and the result is persisted below) while the scheduler slot is
        // still held, so a fault leaves a quarantinable live campaign
        // (recovery re-runs a finished journal idempotently).
        let done = live.log.commit_step(
            &mut live.journal,
            session,
            |genome, value| make_record(name, genome, value),
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
                publish(
                    bus,
                    recent,
                    event_seq,
                    capacity,
                    Event::Generation {
                        campaign: id,
                        generation: session.generation(),
                        best: board.first().map(|(g, f)| entry(g, *f)),
                        leaderboard_delta: delta,
                        stats: session.eval_stats().clone(),
                        incidents,
                    },
                );
            },
        )?;
        if done {
            let report = report_from_session(id, name, CampaignState::Done, session, None);
            let leaderboard: Vec<LeaderboardEntry> = session
                .leaderboard()
                .iter()
                .map(|(g, f)| entry(g, *f))
                .collect();
            self.registry.write_result(
                id,
                &StoredResult {
                    report: report.clone(),
                    leaderboard: leaderboard.clone(),
                },
            )?;
            let _ = group.scheduler.remove(live.sched);
            runtime.live = None;
            runtime.state = CampaignState::Done;
            publish(
                &runtime.bus,
                &mut runtime.recent,
                &mut runtime.event_seq,
                capacity,
                Event::Completed {
                    campaign: id,
                    generations: report.generation,
                    converged: report.converged,
                    leaderboard,
                },
            );
            runtime.bus.close();
            runtime.report = Some(report);
            self.persist_state(idx)?;
        } else if live
            .budget
            .is_some_and(|b| group.scheduler.steps_taken(live.sched) >= b)
            && runtime.state == CampaignState::Running
        {
            runtime.state = CampaignState::BudgetPaused;
            self.persist_state(idx)?;
        }
        Ok(())
    }

    /// A point-in-time progress report for one campaign.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownCampaign`] for an unknown id.
    pub fn status(&self, id: u64) -> Result<StatusReport, ServiceError> {
        let idx = self.runtime(id)?;
        let runtime = &self.campaigns[idx];
        if let Some(report) = &runtime.report {
            return Ok(report.clone());
        }
        if let Some(failure) = &runtime.failure {
            return Ok(failure.report.clone());
        }
        let Some(live) = runtime.live.as_ref() else {
            // A terminal campaign whose result file never landed (e.g. a
            // crash between journal completion and the result write).
            return Ok(StatusReport {
                campaign: runtime.id,
                name: runtime.name.clone(),
                state: runtime.state.as_str().to_string(),
                generation: 0,
                best: None,
                evaluations: 0,
                cache_hits: 0,
                incidents: 0,
                converged: false,
                error: None,
            });
        };
        let session = self.groups[live.group].scheduler.session(live.sched);
        Ok(report_from_session(
            runtime.id,
            &runtime.name,
            runtime.state,
            session,
            None,
        ))
    }

    /// Progress reports for every campaign ever submitted, in id order.
    pub fn list(&self) -> Vec<StatusReport> {
        let mut ids: Vec<u64> = self.campaigns.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| self.status(id).ok())
            .collect()
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
        let idx = self.runtime(id)?;
        if self.campaigns[idx].state == CampaignState::Failed {
            return if paused {
                Err(ServiceError::Terminal {
                    campaign: id,
                    state: CampaignState::Failed.as_str().to_string(),
                })
            } else {
                self.recover(idx)
            };
        }
        let runtime = &mut self.campaigns[idx];
        let Some(live) = runtime.live.as_mut() else {
            return Err(ServiceError::Terminal {
                campaign: id,
                state: runtime.state.as_str().to_string(),
            });
        };
        let scheduler = &mut self.groups[live.group].scheduler;
        scheduler.set_paused(live.sched, paused);
        if paused {
            runtime.state = CampaignState::Paused;
        } else {
            let taken = scheduler.steps_taken(live.sched);
            if live.budget.is_some_and(|b| taken >= b) {
                let next = taken + runtime.spec.step_budget.max(1);
                live.budget = Some(next);
                scheduler.set_step_budget(live.sched, Some(next));
            }
            runtime.state = CampaignState::Running;
        }
        if let Err(e) = self.persist_state(idx) {
            self.fail_campaign(idx, format!("campaign {id} storage failure: {e}"));
            return Err(ServiceError::Storage(format!(
                "persisting campaign state: {e}"
            )));
        }
        Ok(())
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
        let idx = self.runtime(id)?;
        let runtime = &self.campaigns[idx];
        let Some(live) = runtime.live.as_ref() else {
            return Err(ServiceError::Terminal {
                campaign: id,
                state: runtime.state.as_str().to_string(),
            });
        };
        let (group, sched) = (live.group, live.sched);
        let session = self.groups[group].scheduler.session(sched);
        let report =
            report_from_session(id, &runtime.name, CampaignState::Cancelled, session, None);
        let leaderboard: Vec<LeaderboardEntry> = session
            .leaderboard()
            .iter()
            .map(|(g, f)| entry(g, *f))
            .collect();
        // Persist the result before committing the cancel, so a storage
        // fault quarantines a still-recoverable campaign.
        if let Err(e) = self.registry.write_result(
            id,
            &StoredResult {
                report: report.clone(),
                leaderboard,
            },
        ) {
            self.fail_campaign(idx, format!("campaign {id} storage failure: {e}"));
            return Err(ServiceError::Storage(format!(
                "persisting campaign result: {e}"
            )));
        }
        let runtime = &mut self.campaigns[idx];
        runtime.live = None;
        let _ = self.groups[group].scheduler.remove(sched);
        runtime.state = CampaignState::Cancelled;
        runtime.report = Some(report);
        publish(
            &runtime.bus,
            &mut runtime.recent,
            &mut runtime.event_seq,
            self.event_capacity,
            Event::Cancelled { campaign: id },
        );
        runtime.bus.close();
        self.persist_state(idx)
            .map_err(|e| ServiceError::Storage(format!("persisting campaign state: {e}")))
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
        let idx = self.runtime(id)?;
        let runtime = &self.campaigns[idx];
        let from = from_seq.max(1);
        let first_retained = runtime
            .recent
            .front()
            .map_or(runtime.event_seq + 1, |e| e.seq);
        let mut backlog = Vec::new();
        if from < first_retained {
            backlog.push(SeqEvent {
                seq: 0,
                event: Event::Lagged {
                    missed: first_retained - from,
                },
            });
        }
        backlog.extend(runtime.recent.iter().filter(|e| e.seq >= from).cloned());
        Ok((backlog, runtime.bus.subscribe()))
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

/// Runs `paths.len()` independent 64-bit data-pattern searches
/// concurrently over one persistent pool — like
/// [`search_word64_concurrent`](DStress::search_word64_concurrent) — with
/// every campaign write-ahead journaled into **its own** database file,
/// so an interrupted batch resumes bit-identically per campaign. Campaign
/// `i` is named `{base}-c{i}` and draws the same seed its solo equivalent
/// would; a campaign whose journal already finished is re-run
/// idempotently (same records, deduplicated).
///
/// # Errors
///
/// Propagates evaluator construction and journal I/O failures.
///
/// # Panics
///
/// Panics if `paths` is empty or `workers` is zero.
#[allow(clippy::too_many_arguments)] // campaign knobs mirror the solo entry point
pub fn run_word64_campaigns_journaled(
    scale: ExperimentScale,
    framework_seed: u64,
    workers: usize,
    supervision: SupervisionPolicy,
    temp_c: f64,
    metric: Metric,
    minimize: bool,
    paths: &[PathBuf],
) -> Result<Vec<BitCampaign>, DStressError> {
    assert!(!paths.is_empty(), "at least one campaign is required");
    let base = DStress::word64_campaign_name(temp_c, &metric, minimize);
    let codec = word64_codec();
    let bits = codec.genome_bits();
    let mut config = scale.ga;
    config.minimize = minimize;
    let dstress = DStress::new(scale, framework_seed);
    let mut fitness = ParallelBitFitness {
        evaluator: dstress.evaluator(&EnvKind::Word64, temp_c, metric)?,
        codec,
    };
    let mut scheduler = CampaignScheduler::new(EvalPool::new(&fitness, workers));
    struct Slot {
        journal: CampaignJournal<DiskStorage>,
        log: JournaledCampaign,
        sched: usize,
        result: Option<dstress_ga::SearchResult<BitGenome>>,
    }
    let mut slots: Vec<Slot> = Vec::with_capacity(paths.len());
    for (i, path) in paths.iter().enumerate() {
        let mut journal = CampaignJournal::open(DiskStorage::new(), path)?;
        let (log, mut session) =
            JournaledCampaign::open(&journal, &format!("{base}-c{i}"), || {
                let seed = DStress::campaign_seed(framework_seed, i as u64 + 1);
                SearchSession::start(config, seed, |rng| {
                    Seeding::Random.initial_genome(rng, bits)
                })
            })?;
        session.set_supervision(supervision);
        log.checkpoint(&mut journal, &session)?;
        let sched = scheduler.add(session, None);
        slots.push(Slot {
            journal,
            log,
            sched,
            result: None,
        });
    }
    while scheduler.tick() {
        for slot in slots.iter_mut().filter(|s| s.result.is_none()) {
            let name = slot.log.name().to_string();
            let done = slot.log.commit_step(
                &mut slot.journal,
                scheduler.session_mut(slot.sched),
                |genome, value| make_record(&name, genome, value),
                |_, _| {},
            )?;
            if done {
                slot.result = Some(scheduler.remove(slot.sched).finish());
            }
        }
    }
    let (_, replicas) = scheduler.finish();
    for replica in replicas {
        fitness.absorb(replica);
    }
    let compile_hits = fitness.evaluator.compile_hits;
    let failed = fitness.evaluator.failed_evaluations;
    let mut campaigns = Vec::with_capacity(slots.len());
    for slot in slots {
        let name = slot.log.name().to_string();
        let mut result = slot.result.ok_or_else(|| {
            DStressError::from(ServiceError::StateMismatch(format!(
                "the scheduler never drained campaign `{name}`"
            )))
        })?;
        result.eval_stats.compile_hits = compile_hits;
        campaigns.push(BitCampaign {
            name,
            result,
            env: EnvKind::Word64,
            failed_evaluations: failed,
        });
    }
    Ok(campaigns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::broadcast::Recv;
    use dstress_ga::journal::{MemStorage, SharedStorage};
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
        let scale = ExperimentScale::quick();
        let journaled = run_word64_campaigns_journaled(
            scale,
            42,
            2,
            SupervisionPolicy::default(),
            60.0,
            Metric::CeAverage,
            false,
            &paths,
        )
        .unwrap();
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        let concurrent = dstress
            .search_word64_concurrent(2, 60.0, Metric::CeAverage, false)
            .unwrap();
        for (j, c) in journaled.iter().zip(&concurrent) {
            assert_eq!(j.name, c.name);
            assert_eq!(j.result.best, c.result.best);
            assert_eq!(j.result.best_fitness, c.result.best_fitness);
            assert_eq!(j.result.leaderboard, c.result.leaderboard);
        }
        // Re-running the finished batch is idempotent: the snapshots do
        // not change.
        let before: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        run_word64_campaigns_journaled(
            ExperimentScale::quick(),
            42,
            1,
            SupervisionPolicy::default(),
            60.0,
            Metric::CeAverage,
            false,
            &paths,
        )
        .unwrap();
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
            run_word64_campaigns_journaled(
                ExperimentScale::quick(),
                42,
                workers,
                SupervisionPolicy::default(),
                60.0,
                Metric::CeAverage,
                false,
                &paths,
            )
            .unwrap();
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
        let dstress = DStress::new(ExperimentScale::quick(), 42);
        let mut fitness = ParallelBitFitness {
            evaluator: dstress
                .evaluator(&EnvKind::Word64, 60.0, Metric::CeAverage)
                .unwrap(),
            codec: word64_codec(),
        };
        let bits = word64_codec().genome_bits();
        let mut journal = CampaignJournal::open(DiskStorage::new(), &paths[1]).unwrap();
        let interrupted = dstress_ga::run_journaled(
            &mut journal,
            &name,
            ExperimentScale::quick().ga,
            DStress::campaign_seed(42, 2),
            |rng| Seeding::Random.initial_genome(rng, bits),
            &mut fitness,
            1,
            |genome, value| make_record(&name, genome, value),
            Some(3),
            SupervisionPolicy::default(),
            None,
        )
        .unwrap();
        assert!(interrupted.is_none(), "the step budget interrupts c1");
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
