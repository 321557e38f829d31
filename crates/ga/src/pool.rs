//! The persistent evaluation pool — the engine's only executor — and the
//! multi-campaign scheduler built on it.
//!
//! [`EvalPool`] spawns its workers **once per campaign driver**: each owns
//! a warm [`ParallelFitness`] replica whose plan/profile/compile caches
//! survive across generations. A batch's candidates wait in one FIFO
//! queue, and every free worker claims the front task, so one expensive
//! candidate — a retry storm, a step-budget blowout, a cold plan cache —
//! holds up only the worker running it; the others keep draining the
//! queue until the generation barrier. A serial search is a pool of one
//! worker.
//!
//! # Why the claim order cannot change the result
//!
//! Everything observable is keyed by the **campaign-dense evaluation
//! index** assigned during the cache pre-pass (cache hits never consume
//! indices), never by worker identity or completion time:
//!
//! * replicas are pure (the [`ParallelFitness`] contract), so a verdict
//!   does not depend on which replica produced it;
//! * injected hazards fire on `(eval index, attempt)`, so retries and
//!   quarantines replay identically under any interleaving;
//! * a [`Hazard::KillWorker`] fires exactly once, when *some* worker first
//!   claims that task — the task is requeued for the survivors (losing the
//!   last worker revives the pool), and the recorded incident carries the
//!   evaluation index, not the worker;
//! * verdicts are drained in dealing order and incidents are canonically
//!   sorted by `(eval index, attempt, phase)`.
//!
//! The result — scores, journal records, incident stream — is therefore
//! bit-identical for any worker count, any claim interleaving and any
//! hazard schedule; the differential suites pin this, and pin the pool
//! against a serial reference loop in the engine's tests.
//!
//! # Fair-share scheduling
//!
//! [`CampaignScheduler`] multiplexes N concurrent [`SearchSession`]s over
//! one pool: each tick opens one generation round per runnable campaign,
//! interleaves the rounds' tasks round-robin (campaign 0's first task,
//! campaign 1's first task, …) so every campaign gets a fair share of the
//! workers within the batch, and completes each round from its own
//! verdicts. Per-campaign step budgets pause a campaign without blocking
//! the others — the scheduling core of the roadmap's `dstressd`, shipped
//! without the network front-end.
//!
//! [`Hazard::KillWorker`]: crate::supervise::Hazard::KillWorker

use crate::engine::{PoolRoundStats, RoundExecution, SearchSession};
use crate::fitness::ParallelFitness;
use crate::genome::Genome;
use crate::supervise::{
    supervise_one, EvalVerdict, HazardPlan, IncidentKind, PendingIncident, SupervisionPolicy,
};
use std::collections::{HashSet, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One pending candidate handed to the pool: its dealing-order slot in the
/// round, its campaign-dense evaluation index, and the chromosome.
#[derive(Debug)]
pub(crate) struct PoolTask<G> {
    pub(crate) slot: usize,
    pub(crate) eval_index: u64,
    pub(crate) genome: G,
}

/// One campaign's round of tasks plus the supervision it runs under.
#[derive(Debug)]
pub(crate) struct RoundSubmission<G> {
    pub(crate) tasks: Vec<PoolTask<G>>,
    pub(crate) policy: SupervisionPolicy,
    pub(crate) hazards: Option<HazardPlan>,
}

/// A task in the batch queue, tagged with the round it belongs to.
#[derive(Debug)]
struct QueuedTask<G> {
    round: usize,
    slot: usize,
    eval_index: u64,
    genome: G,
}

/// A finished task, reported back under the pool lock.
struct TaskDone {
    round: usize,
    slot: usize,
    verdict: EvalVerdict,
    incidents: Vec<PendingIncident>,
    worker: usize,
    busy_ns: u64,
}

/// The in-flight batch: the tasks not yet claimed, in fair-share order,
/// per-round supervision, and the completions accumulated so far.
struct Batch<G> {
    queue: VecDeque<QueuedTask<G>>,
    outstanding: usize,
    supervision: Vec<(SupervisionPolicy, Option<HazardPlan>)>,
    done: Vec<TaskDone>,
    /// `(round, eval index)` of every worker loss in this batch.
    losses: Vec<(usize, u64)>,
}

/// Everything behind the pool mutex.
struct PoolState<G, F> {
    batch: Option<Batch<G>>,
    /// Workers currently dead (killed by a hazard). Persists across
    /// batches — a dead worker stays dead for the rest of the campaign
    /// unless the whole pool dies and is revived.
    dead: HashSet<usize>,
    shutdown: bool,
    /// Replicas handed back by exiting workers, by worker slot.
    retired: Vec<Option<F>>,
}

struct Shared<G, F> {
    state: Mutex<PoolState<G, F>>,
    /// Workers wait here for tasks (or shutdown).
    work: Condvar,
    /// The coordinator waits here for the batch to complete.
    idle: Condvar,
}

/// What a worker claimed from the queue, with the supervision snapshot of
/// the task's round.
struct Claimed<G> {
    task: QueuedTask<G>,
    policy: SupervisionPolicy,
    hazards: Option<HazardPlan>,
}

/// The front task of the batch, unless worker `id` is dead.
fn claim<G, F>(state: &mut PoolState<G, F>, id: usize) -> Option<Claimed<G>> {
    if state.dead.contains(&id) {
        return None;
    }
    let batch = state.batch.as_mut()?;
    let task = batch.queue.pop_front()?;
    let (policy, hazards) = batch.supervision[task.round].clone();
    Some(Claimed {
        task,
        policy,
        hazards,
    })
}

fn worker_loop<G, F>(id: usize, mut replica: F, shared: Arc<Shared<G, F>>)
where
    G: Genome,
    F: ParallelFitness<G>,
{
    loop {
        let claimed = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    state.retired[id] = Some(replica);
                    return;
                }
                if let Some(claimed) = claim(&mut state, id) {
                    break claimed;
                }
                state = shared.work.wait(state).expect("pool state poisoned");
            }
        };
        let Claimed {
            task,
            policy,
            hazards,
        } = claimed;
        if hazards
            .as_ref()
            .is_some_and(|h| h.take_kill(task.eval_index))
        {
            // The worker dies before touching this candidate. Requeue the
            // task at the front — a survivor claims it next (the kill
            // fired once, so it cannot fire again) — and record the loss
            // against the task's campaign. Losing the last worker revives
            // the whole pool so the batch always completes.
            let mut state = shared.state.lock().expect("pool state poisoned");
            state.dead.insert(id);
            let workers = state.retired.len();
            if state.dead.len() >= workers {
                state.dead.clear();
            }
            let batch = state
                .batch
                .as_mut()
                .expect("a claimed task implies a batch");
            batch.losses.push((task.round, task.eval_index));
            batch.queue.push_front(task);
            drop(state);
            shared.work.notify_all();
            continue;
        }
        let started = Instant::now();
        let mut local = Vec::new();
        let verdict = supervise_one(
            &mut replica,
            &task.genome,
            task.eval_index,
            &policy,
            hazards.as_ref(),
            &mut local,
        );
        let busy_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut state = shared.state.lock().expect("pool state poisoned");
        let batch = state
            .batch
            .as_mut()
            .expect("a claimed task implies a batch");
        batch.done.push(TaskDone {
            round: task.round,
            slot: task.slot,
            verdict,
            incidents: local,
            worker: id,
            busy_ns,
        });
        batch.outstanding -= 1;
        if batch.outstanding == 0 {
            drop(state);
            shared.idle.notify_all();
        }
    }
}

/// A persistent evaluation pool: long-lived worker threads, each owning a
/// warm [`ParallelFitness`] replica, fed task batches by one or more
/// [`SearchSession`]s. See the [module docs](self) for the determinism
/// argument.
///
/// Construct one per campaign driver (or per process), drive sessions
/// through a [`CampaignScheduler`], and
/// [`shutdown`](EvalPool::shutdown) at the end to absorb the replicas'
/// bookkeeping back into the master fitness.
#[derive(Debug)]
pub struct EvalPool<G, F> {
    shared: Arc<Shared<G, F>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl<G, F> std::fmt::Debug for Shared<G, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl<G, F> EvalPool<G, F>
where
    G: Genome + 'static,
    F: ParallelFitness<G> + 'static,
{
    /// Spawns `workers` persistent evaluation threads, each owning a fresh
    /// replica of `fitness`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread cannot be spawned.
    pub fn new(fitness: &F, workers: usize) -> Self {
        assert!(workers >= 1, "at least one evaluation worker is required");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                batch: None,
                dead: HashSet::new(),
                shutdown: false,
                retired: (0..workers).map(|_| None).collect(),
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|id| {
                let replica = fitness.replicate();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dstress-eval-{id}"))
                    .spawn(move || worker_loop(id, replica, shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        EvalPool {
            shared,
            handles,
            workers,
        }
    }

    /// The number of worker threads (alive or hazard-killed).
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn lock(&self) -> MutexGuard<'_, PoolState<G, F>> {
        self.shared.state.lock().expect("pool state poisoned")
    }

    /// Runs one batch: the submissions' tasks are interleaved round-robin
    /// across campaigns (fair share) into one queue, which the live
    /// workers drain from the front until every task has a verdict.
    /// Returns one [`RoundExecution`] per submission, in order.
    pub(crate) fn execute(&self, rounds: Vec<RoundSubmission<G>>) -> Vec<RoundExecution> {
        let sizes: Vec<usize> = rounds.iter().map(|r| r.tasks.len()).collect();
        let total: usize = sizes.iter().sum();
        assert!(total > 0, "a pool batch needs at least one task");
        let wall = Instant::now();
        let mut supervision = Vec::with_capacity(rounds.len());
        let mut task_streams = Vec::with_capacity(rounds.len());
        for submission in rounds {
            supervision.push((submission.policy, submission.hazards));
            task_streams.push(submission.tasks.into_iter());
        }
        // Fair-share interleave: one task from every round per cycle, so
        // within the batch no campaign waits behind another's whole round.
        let mut interleaved = VecDeque::with_capacity(total);
        loop {
            let before = interleaved.len();
            for (round, stream) in task_streams.iter_mut().enumerate() {
                if let Some(task) = stream.next() {
                    interleaved.push_back(QueuedTask {
                        round,
                        slot: task.slot,
                        eval_index: task.eval_index,
                        genome: task.genome,
                    });
                }
            }
            if interleaved.len() == before {
                break;
            }
        }
        {
            let mut state = self.lock();
            assert!(state.batch.is_none(), "one pool batch at a time");
            state.batch = Some(Batch {
                queue: interleaved,
                outstanding: total,
                supervision,
                done: Vec::with_capacity(total),
                losses: Vec::new(),
            });
        }
        self.shared.work.notify_all();
        let (batch, dead_after) = {
            let mut state = self.lock();
            while state.batch.as_ref().expect("batch in flight").outstanding > 0 {
                state = self.shared.idle.wait(state).expect("pool state poisoned");
            }
            let dead = state.dead.len();
            (state.batch.take().expect("batch in flight"), dead)
        };
        let wall_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.assemble(batch, &sizes, dead_after, wall_ns)
    }

    /// Reassembles a completed batch into per-round executions: verdicts
    /// placed by slot, incidents (task-level plus worker losses)
    /// canonically sorted, and the batch's observability counters split by
    /// the round each task belonged to.
    fn assemble(
        &self,
        batch: Batch<G>,
        sizes: &[usize],
        dead_after: usize,
        wall_ns: u64,
    ) -> Vec<RoundExecution> {
        let mut verdicts: Vec<Vec<Option<EvalVerdict>>> =
            sizes.iter().map(|&len| vec![None; len]).collect();
        let mut incidents: Vec<Vec<PendingIncident>> = sizes.iter().map(|_| Vec::new()).collect();
        let mut stats: Vec<PoolRoundStats> = sizes
            .iter()
            .map(|_| PoolRoundStats {
                worker_tasks: vec![0; self.workers],
                ..PoolRoundStats::default()
            })
            .collect();
        let mut busy = vec![0u64; self.workers];
        for done in batch.done {
            verdicts[done.round][done.slot] = Some(done.verdict);
            incidents[done.round].extend(done.incidents);
            let round_stats = &mut stats[done.round];
            round_stats.worker_tasks[done.worker] += 1;
            busy[done.worker] += done.busy_ns;
        }
        for (round, eval_index) in batch.losses {
            incidents[round].push(PendingIncident {
                eval_index,
                attempt: 0,
                kind: IncidentKind::WorkerLoss,
            });
        }
        // The straggler tail is a property of the whole batch (the workers
        // served every round in it), so each round reports the same value.
        let max_idle = busy
            .iter()
            .map(|&b| wall_ns.saturating_sub(b))
            .max()
            .unwrap_or(0);
        let alive_workers = self.workers - dead_after;
        verdicts
            .into_iter()
            .zip(incidents)
            .zip(stats)
            .map(|((round_verdicts, mut round_incidents), mut round_stats)| {
                round_incidents.sort_by_key(|incident| incident.sort_key());
                round_stats.max_worker_idle_ns = max_idle;
                RoundExecution {
                    verdicts: round_verdicts
                        .into_iter()
                        .map(|v| v.expect("every pending candidate has a verdict"))
                        .collect(),
                    incidents: round_incidents,
                    alive_workers,
                    pool: round_stats,
                }
            })
            .collect()
    }

    /// Stops the workers and returns their replicas (in worker order) so
    /// the campaign driver can [`absorb`](ParallelFitness::absorb) their
    /// bookkeeping back into the master fitness.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked outside supervised evaluation.
    pub fn shutdown(mut self) -> Vec<F> {
        self.lock().shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            handle.join().expect("pool worker panicked");
        }
        let mut state = self.lock();
        (0..self.workers)
            .map(|id| {
                state.retired[id]
                    .take()
                    .expect("every worker retires its replica")
            })
            .collect()
    }
}

impl<G, F> Drop for EvalPool<G, F> {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        // Recover a poisoned lock: if a worker panicked while holding it,
        // the shutdown flag must still be set or the remaining workers
        // would park forever and the joins below would deadlock.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.shutdown = true;
        drop(state);
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One campaign under the scheduler: its session, how many steps it has
/// taken, its optional step budget, and whether a client has paused it.
#[derive(Debug)]
struct Scheduled<G> {
    session: SearchSession<G>,
    steps_taken: u64,
    step_budget: Option<u64>,
    paused: bool,
}

impl<G> Scheduled<G> {
    fn runnable(&self) -> bool
    where
        G: Genome + PartialEq + Eq + Hash + Sync,
    {
        !self.paused
            && !self.session.done()
            && self
                .step_budget
                .is_none_or(|budget| self.steps_taken < budget)
    }
}

/// Multiplexes N concurrent [`SearchSession`]s over one [`EvalPool`] with
/// fair-share dealing and per-campaign step budgets — the scheduling core
/// of a multi-tenant campaign service. See the [module docs](self).
///
/// Each [`tick`](CampaignScheduler::tick) advances every runnable campaign
/// by exactly one generation round, with all the rounds' candidates
/// interleaved into a single pool batch; campaigns that converge or
/// exhaust their budget simply stop contributing tasks. Because every
/// campaign keeps its own session (indices, cache, RNG, incidents), its
/// results and journal records are bit-identical to running it alone on
/// the same pool.
#[derive(Debug)]
pub struct CampaignScheduler<G, F> {
    pool: EvalPool<G, F>,
    /// Slot-stable campaign table: ids are indices, removal leaves a
    /// `None` hole so surviving campaigns keep their ids (and therefore
    /// their dealing order and campaign-dense eval indices).
    campaigns: Vec<Option<Scheduled<G>>>,
}

impl<G, F> CampaignScheduler<G, F>
where
    G: Genome + PartialEq + Eq + Hash + Sync + 'static,
    F: ParallelFitness<G> + 'static,
{
    /// Wraps a pool. Campaigns are added with
    /// [`add`](CampaignScheduler::add).
    pub fn new(pool: EvalPool<G, F>) -> Self {
        CampaignScheduler {
            pool,
            campaigns: Vec::new(),
        }
    }

    /// Adds a campaign with an optional step budget (generation rounds it
    /// may take before pausing; `None` = unbounded). Returns its id, which
    /// stays valid until the campaign is [`remove`](Self::remove)d — ids
    /// are never reused or shifted by other campaigns' removal.
    pub fn add(&mut self, session: SearchSession<G>, step_budget: Option<u64>) -> usize {
        self.campaigns.push(Some(Scheduled {
            session,
            steps_taken: 0,
            step_budget,
            paused: false,
        }));
        self.campaigns.len() - 1
    }

    /// Removes a campaign and returns its session. The surviving
    /// campaigns keep their ids, their dealing order, and (because every
    /// session owns its campaign-dense eval indices) their exact
    /// trajectories — removal mid-run cannot shift another campaign's
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned or is already removed.
    pub fn remove(&mut self, id: usize) -> SearchSession<G> {
        self.campaigns[id]
            .take()
            .expect("campaign already removed")
            .session
    }

    /// Whether `id` names a live (not yet removed) campaign.
    pub fn contains(&self, id: usize) -> bool {
        self.campaigns.get(id).is_some_and(Option::is_some)
    }

    /// The number of live campaigns.
    pub fn campaigns(&self) -> usize {
        self.campaigns.iter().flatten().count()
    }

    fn scheduled(&self, id: usize) -> &Scheduled<G> {
        self.campaigns[id]
            .as_ref()
            .expect("campaign already removed")
    }

    fn scheduled_mut(&mut self, id: usize) -> &mut Scheduled<G> {
        self.campaigns[id]
            .as_mut()
            .expect("campaign already removed")
    }

    /// The campaign's session (leaderboard, incidents, eval stats …).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn session(&self, id: usize) -> &SearchSession<G> {
        &self.scheduled(id).session
    }

    /// Mutable access to a campaign's session — how a journaling driver
    /// drains [`SearchSession::take_newly_evaluated`] and
    /// [`SearchSession::take_new_incidents`] between ticks.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn session_mut(&mut self, id: usize) -> &mut SearchSession<G> {
        &mut self.scheduled_mut(id).session
    }

    /// Steps a campaign has taken under this scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn steps_taken(&self, id: usize) -> u64 {
        self.scheduled(id).steps_taken
    }

    /// Pauses or resumes a campaign: a paused campaign contributes no
    /// tasks to subsequent ticks but keeps all its state and resumes
    /// exactly where it stopped.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn set_paused(&mut self, id: usize, paused: bool) {
        self.scheduled_mut(id).paused = paused;
    }

    /// Whether a campaign is client-paused.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn is_paused(&self, id: usize) -> bool {
        self.scheduled(id).paused
    }

    /// Replaces a campaign's step budget (counted from its first step
    /// under this scheduler, not from now).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn set_step_budget(&mut self, id: usize, step_budget: Option<u64>) {
        self.scheduled_mut(id).step_budget = step_budget;
    }

    /// Whether every campaign is finished, client-paused, or paused on
    /// its budget.
    pub fn idle(&self) -> bool {
        !self.campaigns.iter().flatten().any(Scheduled::runnable)
    }

    /// Whether a campaign has taken every step of its budget (always
    /// `false` without one).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or removed.
    pub fn budget_spent(&self, id: usize) -> bool {
        let campaign = self.scheduled(id);
        campaign
            .step_budget
            .is_some_and(|budget| campaign.steps_taken >= budget)
    }

    /// Advances every runnable campaign by one generation round, their
    /// candidates interleaved fair-share into one pool batch. Returns the
    /// ids that stepped, in id order; all-cached rounds count as steps.
    /// Empty (and nothing done) once no campaign is runnable.
    pub fn tick(&mut self) -> Vec<usize> {
        let workers = self.pool.workers();
        let mut opened = Vec::new();
        for (id, slot) in self.campaigns.iter_mut().enumerate() {
            let Some(campaign) = slot else { continue };
            if !campaign.runnable() {
                continue;
            }
            campaign.session.note_workers(workers);
            if let Some(round) = campaign.session.begin_round() {
                campaign.steps_taken += 1;
                opened.push((id, round));
            }
        }
        if opened.is_empty() {
            return Vec::new();
        }
        // Rounds with pending candidates go to the pool; all-cached rounds
        // finish immediately (their sessions still advance a generation).
        let mut submissions = Vec::new();
        let mut submitted = Vec::new();
        for (position, (id, round)) in opened.iter().enumerate() {
            if round.plan.pending.is_empty() {
                continue;
            }
            submissions.push(RoundSubmission {
                tasks: round.plan.pool_tasks(),
                policy: self.session(*id).supervision_policy(),
                hazards: self.session(*id).hazard_plan(),
            });
            submitted.push(position);
        }
        let executions = if submissions.is_empty() {
            Vec::new()
        } else {
            self.pool.execute(submissions)
        };
        let mut executions = executions.into_iter();
        let mut submitted = submitted.into_iter().peekable();
        let stepped = opened.iter().map(|(id, _)| *id).collect();
        for (position, (id, round)) in opened.into_iter().enumerate() {
            let execution = if submitted.peek() == Some(&position) {
                submitted.next();
                Some(executions.next().expect("one execution per submission"))
            } else {
                None
            };
            self.session_mut(id).finish_round(round, execution);
        }
        stepped
    }

    /// Ticks until every campaign is finished or budget-paused.
    pub fn run(&mut self) {
        while !self.tick().is_empty() {}
    }

    /// Consumes the scheduler: the live sessions (in add order; removed
    /// campaigns are skipped) and the pool's replicas, ready for
    /// [`absorb`](ParallelFitness::absorb).
    pub fn finish(self) -> (Vec<SearchSession<G>>, Vec<F>) {
        let sessions = self
            .campaigns
            .into_iter()
            .flatten()
            .map(|campaign| campaign.session)
            .collect();
        (sessions, self.pool.shutdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EvalStats, GaConfig, SearchResult};
    use crate::fitness::Fitness;
    use crate::genome::BitGenome;
    use crate::supervise::Hazard;
    use rand::rngs::StdRng;

    /// A popcount fitness with an internal memo, whose counters show what
    /// each replica evaluated.
    #[derive(Debug, Clone, Default)]
    struct MemoPopcount {
        memo: std::collections::HashMap<Vec<u64>, f64>,
        warm: u64,
        cold: u64,
    }

    impl Fitness<BitGenome> for MemoPopcount {
        fn evaluate(&mut self, genome: &BitGenome) -> f64 {
            let key = genome.to_words();
            if let Some(&score) = self.memo.get(&key) {
                self.warm += 1;
                return score;
            }
            self.cold += 1;
            let score = genome.count_ones() as f64;
            self.memo.insert(key, score);
            score
        }
    }

    impl ParallelFitness<BitGenome> for MemoPopcount {
        fn replicate(&self) -> Self {
            MemoPopcount::default()
        }

        fn absorb(&mut self, replica: Self) {
            self.warm += replica.warm;
            self.cold += replica.cold;
        }
    }

    fn small_config() -> GaConfig {
        let mut config = GaConfig::paper_defaults();
        config.population_size = 12;
        config.max_generations = 6;
        config
    }

    fn session_with(seed: u64, hazards: Option<HazardPlan>) -> SearchSession<BitGenome> {
        let mut session = SearchSession::start(small_config(), seed, |rng: &mut StdRng| {
            BitGenome::random(rng, 32)
        });
        session.set_hazards(hazards);
        session
    }

    fn run_pooled(
        seed: u64,
        workers: usize,
        hazards: Option<HazardPlan>,
    ) -> SearchResult<BitGenome> {
        let mut session = session_with(seed, hazards);
        let pool = EvalPool::new(&MemoPopcount::default(), workers);
        while !session.done() {
            session.step(&pool);
        }
        pool.shutdown();
        session.finish()
    }

    fn hazard_mix() -> HazardPlan {
        let plan = HazardPlan::new();
        plan.schedule(2, Hazard::Panic);
        plan.schedule(5, Hazard::Transient);
        for attempt in 0..4 {
            plan.schedule_attempt(9, attempt, Hazard::Transient);
        }
        plan.schedule(11, Hazard::BudgetBlowout);
        plan.schedule(14, Hazard::KillWorker);
        plan.schedule(23, Hazard::KillWorker);
        plan
    }

    fn assert_same_search(a: &SearchResult<BitGenome>, b: &SearchResult<BitGenome>, tag: &str) {
        assert_eq!(a.best, b.best, "{tag}: best");
        assert_eq!(a.best_fitness, b.best_fitness, "{tag}: best fitness");
        assert_eq!(a.leaderboard, b.leaderboard, "{tag}: leaderboard");
        assert_eq!(a.history, b.history, "{tag}: history");
        assert_eq!(a.generations, b.generations, "{tag}: generations");
        assert_eq!(a.incidents, b.incidents, "{tag}: incidents");
        assert_eq!(
            a.eval_stats.evaluations, b.eval_stats.evaluations,
            "{tag}: evaluations"
        );
        assert_eq!(
            a.eval_stats.cache_hits, b.eval_stats.cache_hits,
            "{tag}: cache hits"
        );
    }

    #[test]
    fn pooled_matches_scoped_for_any_worker_count() {
        // The reference is the pool at one worker; the pool's one-worker
        // trajectory is pinned against the serial reference loop in the
        // engine's tests.
        let reference = run_pooled(77, 1, None);
        for workers in [1usize, 2, 8] {
            let pooled = run_pooled(77, workers, None);
            assert_same_search(&pooled, &reference, &format!("workers={workers}"));
        }
    }

    #[test]
    fn pooled_matches_scoped_under_hazards() {
        let reference = run_pooled(53, 1, Some(hazard_mix()));
        assert!(reference.quarantined() >= 2);
        assert!(reference.workers_lost() >= 1);
        for workers in [1usize, 2, 8] {
            let pooled = run_pooled(53, workers, Some(hazard_mix()));
            assert_same_search(&pooled, &reference, &format!("hazard workers={workers}"));
        }
    }

    #[test]
    fn killing_every_pool_worker_revives_the_pool() {
        // A `HazardPlan` clone shares the fire-once schedule, so each run
        // gets a freshly built plan.
        let kills = || {
            let plan = HazardPlan::new();
            plan.schedule(1, Hazard::KillWorker);
            plan.schedule(3, Hazard::KillWorker);
            plan.schedule(4, Hazard::KillWorker);
            plan
        };
        let pooled = run_pooled(19, 2, Some(kills()));
        let lone = run_pooled(19, 1, Some(kills()));
        assert_same_search(&pooled, &lone, "revival");
        assert_eq!(pooled.workers_lost(), 3);
        assert!(pooled.best_fitness.is_finite());
    }

    #[test]
    fn pool_stats_account_for_every_evaluation() {
        let mut session = session_with(31, None);
        let pool = EvalPool::new(&MemoPopcount::default(), 4);
        while !session.done() {
            session.step(&pool);
        }
        let replicas = pool.shutdown();
        assert_eq!(replicas.len(), 4);
        let stats = session.eval_stats().clone();
        assert_eq!(
            stats.worker_tasks.iter().sum::<u64>(),
            stats.evaluations,
            "every distinct evaluation runs exactly once on some worker"
        );
        let replica_evaluations: u64 = replicas.iter().map(|r| r.warm + r.cold).sum();
        assert_eq!(
            replica_evaluations, stats.evaluations,
            "each task reached exactly one replica"
        );
    }

    #[test]
    fn a_killed_worker_claims_no_further_tasks() {
        let plan = HazardPlan::new();
        plan.schedule(3, Hazard::KillWorker);
        let mut session = session_with(61, Some(plan));
        let pool = EvalPool::new(&MemoPopcount::default(), 2);
        session.step(&pool);
        assert_eq!(session.eval_stats().workers, 1, "one worker died");
        let at_kill = session.eval_stats().worker_tasks.clone();
        while !session.done() {
            session.step(&pool);
        }
        pool.shutdown();
        let stats = session.eval_stats();
        let working = (0..2)
            .filter(|&w| stats.worker_tasks[w] > at_kill[w])
            .count();
        assert_eq!(
            working, 1,
            "only the survivor ran later rounds: {at_kill:?} -> {:?}",
            stats.worker_tasks
        );
        assert_eq!(stats.worker_tasks.iter().sum::<u64>(), stats.evaluations);
    }

    #[test]
    fn scheduler_campaigns_match_solo_runs() {
        let seeds = [101u64, 202, 303];
        let solo: Vec<SearchResult<BitGenome>> = seeds
            .iter()
            .map(|&seed| run_pooled(seed, 3, None))
            .collect();
        let mut scheduler = CampaignScheduler::new(EvalPool::new(&MemoPopcount::default(), 3));
        for &seed in &seeds {
            scheduler.add(session_with(seed, None), None);
        }
        scheduler.run();
        assert!(scheduler.idle());
        let (sessions, replicas) = scheduler.finish();
        assert_eq!(replicas.len(), 3);
        for ((session, reference), &seed) in sessions.into_iter().zip(&solo).zip(&seeds) {
            let result = session.finish();
            assert_same_search(&result, reference, &format!("seed={seed}"));
        }
    }

    #[test]
    fn scheduler_step_budget_pauses_without_blocking_others() {
        let mut scheduler = CampaignScheduler::new(EvalPool::new(&MemoPopcount::default(), 2));
        let budgeted = scheduler.add(session_with(7, None), Some(2));
        let free = scheduler.add(session_with(8, None), None);
        scheduler.run();
        assert_eq!(scheduler.steps_taken(budgeted), 2);
        assert!(!scheduler.session(budgeted).done(), "paused, not finished");
        assert!(
            scheduler.session(free).done(),
            "unbudgeted campaign ran out"
        );
        // Raising the budget is adding a new scheduler on the same pool; a
        // paused session can simply keep stepping.
        let (mut sessions, _replicas) = scheduler.finish();
        let paused = &mut sessions[0];
        let pool = EvalPool::new(&MemoPopcount::default(), 1);
        while !paused.done() {
            paused.step(&pool);
        }
        let resumed = std::mem::replace(paused, session_with(7, None)).finish();
        let reference = run_pooled(7, 1, None);
        assert_same_search(&resumed, &reference, "budget-paused continuation");
    }

    #[test]
    fn eval_stats_merge_is_deterministic_and_total() {
        let mut a = EvalStats {
            evaluations: 10,
            cache_hits: 3,
            workers: 2,
            cache_size: 5,
            compile_hits: 4,
            max_worker_idle_ns: 100,
            worker_tasks: vec![6, 4],
            generation_eval_seconds: vec![0.5, 0.25],
        };
        let b = EvalStats {
            evaluations: 7,
            cache_hits: 1,
            workers: 4,
            cache_size: 7,
            compile_hits: 2,
            max_worker_idle_ns: 40,
            worker_tasks: vec![1, 2, 3, 1],
            generation_eval_seconds: vec![0.125],
        };
        a.merge(&b);
        assert_eq!(a.evaluations, 17);
        assert_eq!(a.cache_hits, 4);
        assert_eq!(a.workers, 4, "workers is the max across campaigns");
        assert_eq!(a.cache_size, 12);
        assert_eq!(a.compile_hits, 6);
        assert_eq!(a.max_worker_idle_ns, 100);
        assert_eq!(a.worker_tasks, vec![7, 6, 3, 1]);
        assert_eq!(a.generation_eval_seconds, vec![0.625, 0.25]);
    }

    #[test]
    #[should_panic(expected = "at least one evaluation worker")]
    fn zero_workers_is_rejected() {
        EvalPool::new(&MemoPopcount::default(), 0);
    }

    /// A popcount fitness whose replicas carry a shared token, so a test
    /// can prove every worker thread exited (and released its replica).
    #[derive(Debug, Clone)]
    struct TokenPopcount {
        token: Arc<()>,
    }

    impl Fitness<BitGenome> for TokenPopcount {
        fn evaluate(&mut self, genome: &BitGenome) -> f64 {
            genome.count_ones() as f64
        }
    }

    impl ParallelFitness<BitGenome> for TokenPopcount {
        fn replicate(&self) -> Self {
            TokenPopcount {
                token: Arc::clone(&self.token),
            }
        }

        fn absorb(&mut self, _replica: Self) {}
    }

    #[test]
    fn dropping_a_live_pool_mid_campaign_joins_every_worker() {
        let token = Arc::new(());
        let master = TokenPopcount {
            token: Arc::clone(&token),
        };
        // The leak scenario: a campaign driver panics between spawning the
        // pool and draining the campaign, unwinding through a live pool
        // with warm workers. Drop must signal shutdown and join them all.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = session_with(41, None);
            let pool = EvalPool::new(&master, 4);
            session.step(&pool);
            assert!(!session.done(), "campaign must still be mid-flight");
            panic!("campaign driver dies with the pool live");
        }));
        assert!(outcome.is_err(), "the driver panic must propagate");
        // Drop joined the workers and released the shared pool state, so
        // every replica (and each worker's Arc on it) is gone: only the
        // test's token and the master's clone remain. No sleeps — if a
        // worker thread outlived the drop, this count would still include
        // its replica.
        assert_eq!(Arc::strong_count(&token), 2);
        drop(master);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn removing_a_campaign_mid_round_leaves_survivors_bit_identical() {
        let seeds = [101u64, 202, 303];
        let solo: Vec<SearchResult<BitGenome>> = seeds
            .iter()
            .map(|&seed| run_pooled(seed, 3, None))
            .collect();
        let mut scheduler = CampaignScheduler::new(EvalPool::new(&MemoPopcount::default(), 3));
        let ids: Vec<usize> = seeds
            .iter()
            .map(|&seed| scheduler.add(session_with(seed, None), None))
            .collect();
        // Advance everyone two rounds, then cancel the middle campaign —
        // the survivors' ids, dealing order, and eval indices must not
        // shift under them.
        scheduler.tick();
        scheduler.tick();
        let removed = scheduler.remove(ids[1]);
        assert!(!removed.done(), "removed while still searching");
        assert!(!scheduler.contains(ids[1]));
        assert_eq!(scheduler.campaigns(), 2);
        scheduler.run();
        for &survivor in [ids[0], ids[2]].iter() {
            assert!(scheduler.session(survivor).done());
        }
        let first = scheduler.remove(ids[0]).finish();
        let last = scheduler.remove(ids[2]).finish();
        assert_same_search(&first, &solo[0], "survivor before the removal");
        assert_same_search(&last, &solo[2], "survivor after the removal");
        let (sessions, replicas) = scheduler.finish();
        assert!(sessions.is_empty());
        assert_eq!(replicas.len(), 3);
    }

    #[test]
    fn tick_reports_exactly_the_campaigns_that_stepped() {
        let mut scheduler = CampaignScheduler::new(EvalPool::new(&MemoPopcount::default(), 2));
        let running = scheduler.add(session_with(11, None), None);
        let paused = scheduler.add(session_with(12, None), None);
        let budgeted = scheduler.add(session_with(13, None), Some(1));
        let removed = scheduler.add(session_with(14, None), None);
        // A one-bit genome has two chromosomes: once the seed pass has
        // scored both, every later round is served from the cache. Its
        // shorter run finishes while `running` still steps.
        let mut short = small_config();
        short.max_generations = 3;
        let cached = scheduler.add(
            SearchSession::start(short, 15, |rng: &mut StdRng| BitGenome::random(rng, 1)),
            None,
        );
        scheduler.set_paused(paused, true);
        let _ = scheduler.remove(removed);
        assert_eq!(scheduler.tick(), vec![running, budgeted, cached]);
        assert!(scheduler.budget_spent(budgeted));
        assert!(!scheduler.budget_spent(running));
        let evaluations = scheduler.session(cached).eval_stats().evaluations;
        let generation = scheduler.session(cached).generation();
        assert_eq!(scheduler.tick(), vec![running, cached]);
        let session = scheduler.session(cached);
        assert_eq!(
            session.eval_stats().evaluations,
            evaluations,
            "the second round was all cached"
        );
        assert_eq!(session.generation(), generation + 1);
        // A finished campaign never steps again; once nothing is runnable
        // a tick reports no steps.
        loop {
            let live: Vec<usize> = [running, cached]
                .into_iter()
                .filter(|&id| !scheduler.session(id).done())
                .collect();
            let stepped = scheduler.tick();
            if stepped.is_empty() {
                break;
            }
            assert_eq!(stepped, live);
        }
        assert!(scheduler.session(running).done());
        assert!(scheduler.session(cached).done());
        assert!(scheduler.tick().is_empty());
        scheduler.set_paused(paused, false);
        assert_eq!(scheduler.tick(), vec![paused]);
    }

    #[test]
    fn pausing_a_campaign_preserves_its_trajectory() {
        let reference = run_pooled(909, 2, None);
        let mut scheduler = CampaignScheduler::new(EvalPool::new(&MemoPopcount::default(), 2));
        let id = scheduler.add(session_with(909, None), None);
        scheduler.tick();
        scheduler.set_paused(id, true);
        assert!(scheduler.is_paused(id));
        assert!(scheduler.idle(), "a paused campaign contributes no work");
        assert!(scheduler.tick().is_empty(), "nothing runnable while paused");
        scheduler.set_paused(id, false);
        scheduler.run();
        let result = scheduler.remove(id).finish();
        assert_same_search(&result, &reference, "pause/resume continuation");
    }
}
