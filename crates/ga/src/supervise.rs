//! Supervised fault-tolerant evaluation (the paper's two-week live-hardware
//! campaigns, §V, survive flaky evaluations instead of aborting).
//!
//! A production DStress campaign evaluates every candidate virus on real
//! hardware, where hung runs, transient platform faults and outright worker
//! crashes are routine. This module is the supervision layer the engine's
//! parallel evaluation path runs every candidate under:
//!
//! * each evaluation is isolated with `catch_unwind`, so a panicking
//!   substrate downgrades to a fault instead of killing the campaign;
//! * [`EvalFault`]s are classified **transient** (retried on a bounded,
//!   deterministic backoff schedule) or **permanent** (panic, step-budget
//!   blowout, hard substrate errors — never retried);
//! * a candidate that keeps faulting is **quarantined**: it scores `NaN`,
//!   which the engine's NaN-last total order ranks below every finite
//!   fitness, and the decision is recorded as an [`Incident`] so the
//!   journal can replay it bit-identically on `--resume`;
//! * a [`HazardPlan`] injects panics, faults, budget blowouts and worker
//!   deaths at scheduled evaluation indices — the evaluation-side mirror of
//!   `MemStorage`'s op-counted storage faults — which is what lets the
//!   differential suites sweep hazards across worker counts and kill
//!   points.
//!
//! Everything the supervisor decides is a pure function of the evaluation
//! index and the attempt number, never of wall-clock time or worker
//! identity; that is what keeps a supervised search bit-identical for any
//! worker count and across crash/resume boundaries.

use crate::fitness::{EvalFault, FaultKind, ParallelFitness};
use crate::genome::Genome;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Retry/quarantine policy for supervised evaluation.
///
/// The schedule is deterministic: the decision for a candidate depends only
/// on the sequence of faults it produced and these knobs, so the same
/// policy replays the same decisions on any worker count and on resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionPolicy {
    /// Transient faults retried per candidate before giving up (default 3).
    pub max_retries: u32,
    /// Total faults (of any kind) after which a candidate is quarantined
    /// (default 4 = `max_retries + 1`). Must be at least 1.
    pub quarantine_after: u32,
    /// Base of the exponential backoff before retry `n`:
    /// `backoff_base_ms << (n - 1)`, capped. Zero (the default) disables
    /// sleeping — the schedule is still recorded in the incidents.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff wait (default 1000 ms).
    pub backoff_cap_ms: u64,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            max_retries: 3,
            quarantine_after: 4,
            backoff_base_ms: 0,
            backoff_cap_ms: 1000,
        }
    }
}

impl SupervisionPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.quarantine_after == 0 {
            return Err("quarantine_after must be at least 1".into());
        }
        Ok(())
    }

    /// The deterministic backoff before retry `n` (1-based): exponential in
    /// the retry number, bounded by `backoff_cap_ms`.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        if self.backoff_base_ms == 0 || retry == 0 {
            return 0;
        }
        let shift = (retry - 1).min(20);
        self.backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ms)
    }
}

/// A fault injected by a [`HazardPlan`] at a scheduled evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Hazard {
    /// The evaluation panics (exercises the `catch_unwind` isolation).
    Panic,
    /// The evaluation reports a transient fault (retried).
    Transient,
    /// The evaluation reports a permanent fault (quarantined immediately).
    Permanent,
    /// The evaluation reports a step-budget blowout — the injected twin of
    /// the VM watchdog's `ExecutionLimit`.
    BudgetBlowout,
    /// The worker thread holding the candidate dies before evaluating it;
    /// its in-flight share is redealt to the surviving workers.
    KillWorker,
}

#[derive(Debug, Default)]
struct HazardSchedule {
    /// Non-fatal hazards keyed by (evaluation index, attempt).
    scheduled: HashMap<(u64, u32), Hazard>,
    /// Evaluation indices at which the dealing worker dies (fire-once).
    kills: HashSet<u64>,
}

/// A deterministic fault-injection schedule for supervised evaluation —
/// the evaluation-side mirror of [`MemStorage::fail_op`].
///
/// Hazards are keyed by the **substrate evaluation index** (the position in
/// the engine's dealing-order stream of distinct, uncached chromosomes,
/// counted across the whole search) and the attempt number, so a plan fires
/// identically for any worker count. Every hazard fires at most once.
///
/// [`MemStorage::fail_op`]: crate::journal::MemStorage::fail_op
#[derive(Debug, Clone, Default)]
pub struct HazardPlan {
    inner: Arc<Mutex<HazardSchedule>>,
}

impl HazardPlan {
    /// An empty plan (no hazards fire).
    pub fn new() -> Self {
        HazardPlan::default()
    }

    /// Schedules a hazard at the first attempt of evaluation `index`.
    /// [`Hazard::KillWorker`] kills the worker *before* the attempt.
    pub fn schedule(&self, index: u64, hazard: Hazard) {
        self.schedule_attempt(index, 0, hazard);
    }

    /// Schedules a hazard at a specific `(index, attempt)` pair — attempt 0
    /// is the first try, attempt `n` the `n`-th retry. A `KillWorker`
    /// hazard ignores the attempt (workers die between candidates).
    pub fn schedule_attempt(&self, index: u64, attempt: u32, hazard: Hazard) {
        let mut inner = self.inner.lock().expect("hazard plan poisoned");
        if hazard == Hazard::KillWorker {
            inner.kills.insert(index);
        } else {
            inner.scheduled.insert((index, attempt), hazard);
        }
    }

    /// Whether any hazard is still scheduled.
    #[cfg(test)]
    pub fn is_exhausted(&self) -> bool {
        let inner = self.inner.lock().expect("hazard plan poisoned");
        inner.scheduled.is_empty() && inner.kills.is_empty()
    }

    /// Consumes the hazard scheduled at `(index, attempt)`, if any.
    fn take(&self, index: u64, attempt: u32) -> Option<Hazard> {
        self.inner
            .lock()
            .expect("hazard plan poisoned")
            .scheduled
            .remove(&(index, attempt))
    }

    /// Consumes a worker-kill scheduled at `index`, if any (fire-once: the
    /// redealt candidate must not kill the survivor too).
    pub(crate) fn take_kill(&self, index: u64) -> bool {
        self.inner
            .lock()
            .expect("hazard plan poisoned")
            .kills
            .remove(&index)
    }
}

/// What the supervisor decided about one evaluation, recorded so the
/// journal can prove a resumed search replays the same decisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IncidentKind {
    /// A transient fault was retried.
    Retry {
        /// The failed attempt (0 = first try).
        attempt: u32,
        /// The deterministic backoff waited before the retry.
        backoff_ms: u64,
        /// The fault that triggered the retry.
        fault: EvalFault,
    },
    /// The candidate was quarantined: scored `NaN` (worst-rank under the
    /// NaN-last total order) and never re-evaluated.
    Quarantine {
        /// Faults the candidate produced in total.
        faults: u32,
        /// The final fault.
        fault: EvalFault,
    },
    /// A worker died; its in-flight candidates were redealt to survivors.
    WorkerLoss,
}

/// One supervision decision, with its campaign-scoped sequence number and
/// the substrate evaluation index it concerns. The stream of incidents is a
/// deterministic function of the search (never of worker identity or
/// wall-clock), so it is bit-identical across worker counts and resumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Position in the search's incident stream (0-based).
    pub seq: u64,
    /// The substrate evaluation index (dealing order, search-global).
    pub eval_index: u64,
    /// What happened.
    pub kind: IncidentKind,
}

/// An incident before its sequence number is assigned, with the sort key
/// that canonicalizes the stream across worker interleavings.
#[derive(Debug, Clone)]
pub(crate) struct PendingIncident {
    pub eval_index: u64,
    pub attempt: u32,
    pub kind: IncidentKind,
}

impl PendingIncident {
    /// Tie-break within one `(eval_index, attempt)`: a worker dies before
    /// the candidate is tried, a retry precedes the quarantine verdict.
    fn rank(&self) -> u8 {
        match self.kind {
            IncidentKind::WorkerLoss => 0,
            IncidentKind::Retry { .. } => 1,
            IncidentKind::Quarantine { .. } => 2,
        }
    }

    pub(crate) fn sort_key(&self) -> (u64, u32, u8) {
        (self.eval_index, self.attempt, self.rank())
    }
}

/// The supervisor's verdict on one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EvalVerdict {
    /// The evaluation produced a fitness value.
    Scored(f64),
    /// The candidate was quarantined (score `NaN`, worst rank).
    Quarantined,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one candidate under supervision: catches panics, retries transient
/// faults on the policy's deterministic backoff schedule, and quarantines
/// after permanent faults or exhausted retries. Appends every decision to
/// `incidents`.
pub(crate) fn supervise_one<G, F>(
    replica: &mut F,
    genome: &G,
    eval_index: u64,
    policy: &SupervisionPolicy,
    hazards: Option<&HazardPlan>,
    incidents: &mut Vec<PendingIncident>,
) -> EvalVerdict
where
    G: Genome,
    F: ParallelFitness<G>,
{
    let mut faults = 0u32;
    let mut attempt = 0u32;
    loop {
        let injected = hazards.and_then(|h| h.take(eval_index, attempt));
        let outcome = catch_unwind(AssertUnwindSafe(|| match injected {
            Some(Hazard::Panic) => panic!("injected panic at evaluation {eval_index}"),
            Some(Hazard::Transient) => Err(EvalFault::transient("injected transient fault")),
            Some(Hazard::Permanent) => Err(EvalFault::permanent("injected permanent fault")),
            Some(Hazard::BudgetBlowout) => {
                Err(EvalFault::budget_exhausted("injected step-budget blowout"))
            }
            Some(Hazard::KillWorker) | None => replica.try_evaluate(genome),
        }));
        let fault = match outcome {
            Ok(Ok(value)) => return EvalVerdict::Scored(value),
            Ok(Err(fault)) => fault,
            Err(payload) => EvalFault {
                kind: FaultKind::Panic,
                message: panic_message(payload.as_ref()),
            },
        };
        faults += 1;
        if fault.is_retryable() && attempt < policy.max_retries && faults < policy.quarantine_after
        {
            let backoff_ms = policy.backoff_ms(attempt + 1);
            incidents.push(PendingIncident {
                eval_index,
                attempt,
                kind: IncidentKind::Retry {
                    attempt,
                    backoff_ms,
                    fault,
                },
            });
            if backoff_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
            }
            attempt += 1;
        } else {
            incidents.push(PendingIncident {
                eval_index,
                attempt,
                kind: IncidentKind::Quarantine { faults, fault },
            });
            return EvalVerdict::Quarantined;
        }
    }
}

/// The NaN-last total order on engine scores, descending-compatible:
/// finite values compare as usual (`-0.0 == +0.0`), and `NaN` — the
/// quarantine score — ranks below every finite value. This is the same
/// order [`crate::db`] uses to rank virus records.
pub(crate) fn nan_last_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.partial_cmp(&b).expect("both values are finite"),
    }
}

/// The best (largest, NaN-last) score in a slice; `NaN` when every entry is
/// `NaN` or the slice is empty. `NaN` round-trips through JSON checkpoints
/// (as `null`), which `-inf` would not.
pub(crate) fn nan_last_max(scores: &[f64]) -> f64 {
    let mut best = f64::NAN;
    for &s in scores {
        if s.is_nan() {
            continue;
        }
        if best.is_nan() || s > best {
            best = s;
        }
    }
    best
}

/// Mean over the finite entries; `NaN` when there are none.
pub(crate) fn finite_mean(scores: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &s in scores {
        if !s.is_nan() {
            sum += s;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{Fitness, FnFitness};
    use crate::genome::BitGenome;

    struct PanickyFitness;

    impl Fitness<BitGenome> for PanickyFitness {
        fn evaluate(&mut self, _genome: &BitGenome) -> f64 {
            panic!("substrate exploded");
        }
    }

    impl ParallelFitness<BitGenome> for PanickyFitness {
        fn replicate(&self) -> Self {
            PanickyFitness
        }
    }

    fn popcount() -> impl ParallelFitness<BitGenome> {
        FnFitness::new(|g: &BitGenome| g.count_ones() as f64)
    }

    #[test]
    fn clean_evaluation_scores_without_incidents() {
        let mut incidents = Vec::new();
        let verdict = supervise_one(
            &mut popcount(),
            &BitGenome::from_words(&[0xFF], 64),
            0,
            &SupervisionPolicy::default(),
            None,
            &mut incidents,
        );
        assert_eq!(verdict, EvalVerdict::Scored(8.0));
        assert!(incidents.is_empty());
    }

    #[test]
    fn panic_is_caught_and_quarantined_immediately() {
        let mut incidents = Vec::new();
        let verdict = supervise_one(
            &mut PanickyFitness,
            &BitGenome::zeros(8),
            3,
            &SupervisionPolicy::default(),
            None,
            &mut incidents,
        );
        assert_eq!(verdict, EvalVerdict::Quarantined);
        assert_eq!(incidents.len(), 1);
        match &incidents[0].kind {
            IncidentKind::Quarantine { faults, fault } => {
                assert_eq!(*faults, 1);
                assert_eq!(fault.kind, FaultKind::Panic);
                assert!(fault.message.contains("substrate exploded"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(incidents[0].eval_index, 3);
    }

    #[test]
    fn transient_faults_retry_then_succeed() {
        let plan = HazardPlan::new();
        plan.schedule_attempt(7, 0, Hazard::Transient);
        plan.schedule_attempt(7, 1, Hazard::Transient);
        let mut incidents = Vec::new();
        let verdict = supervise_one(
            &mut popcount(),
            &BitGenome::from_words(&[0xF], 64),
            7,
            &SupervisionPolicy::default(),
            Some(&plan),
            &mut incidents,
        );
        assert_eq!(verdict, EvalVerdict::Scored(4.0));
        assert_eq!(incidents.len(), 2);
        for (i, incident) in incidents.iter().enumerate() {
            match &incident.kind {
                IncidentKind::Retry { attempt, fault, .. } => {
                    assert_eq!(*attempt as usize, i);
                    assert_eq!(fault.kind, FaultKind::Transient);
                }
                other => panic!("expected retry, got {other:?}"),
            }
        }
        assert!(plan.is_exhausted());
    }

    #[test]
    fn transient_faults_exhaust_retries_into_quarantine() {
        let policy = SupervisionPolicy {
            max_retries: 2,
            quarantine_after: 10,
            ..SupervisionPolicy::default()
        };
        let plan = HazardPlan::new();
        for attempt in 0..3 {
            plan.schedule_attempt(0, attempt, Hazard::Transient);
        }
        let mut incidents = Vec::new();
        let verdict = supervise_one(
            &mut popcount(),
            &BitGenome::zeros(8),
            0,
            &policy,
            Some(&plan),
            &mut incidents,
        );
        assert_eq!(verdict, EvalVerdict::Quarantined);
        // Two retries, then the third fault quarantines.
        assert_eq!(incidents.len(), 3);
        assert!(matches!(
            incidents[2].kind,
            IncidentKind::Quarantine { faults: 3, .. }
        ));
    }

    #[test]
    fn quarantine_after_caps_total_faults() {
        let policy = SupervisionPolicy {
            max_retries: 10,
            quarantine_after: 2,
            ..SupervisionPolicy::default()
        };
        let plan = HazardPlan::new();
        for attempt in 0..5 {
            plan.schedule_attempt(0, attempt, Hazard::Transient);
        }
        let mut incidents = Vec::new();
        let verdict = supervise_one(
            &mut popcount(),
            &BitGenome::zeros(8),
            0,
            &policy,
            Some(&plan),
            &mut incidents,
        );
        assert_eq!(verdict, EvalVerdict::Quarantined);
        assert_eq!(incidents.len(), 2, "one retry, then quarantine");
    }

    #[test]
    fn permanent_and_budget_faults_never_retry() {
        for hazard in [Hazard::Permanent, Hazard::BudgetBlowout] {
            let plan = HazardPlan::new();
            plan.schedule(0, hazard);
            let mut incidents = Vec::new();
            let verdict = supervise_one(
                &mut popcount(),
                &BitGenome::zeros(8),
                0,
                &SupervisionPolicy::default(),
                Some(&plan),
                &mut incidents,
            );
            assert_eq!(verdict, EvalVerdict::Quarantined, "{hazard:?}");
            assert_eq!(incidents.len(), 1);
        }
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let policy = SupervisionPolicy {
            backoff_base_ms: 100,
            backoff_cap_ms: 350,
            ..SupervisionPolicy::default()
        };
        assert_eq!(policy.backoff_ms(1), 100);
        assert_eq!(policy.backoff_ms(2), 200);
        assert_eq!(policy.backoff_ms(3), 350, "capped");
        assert_eq!(policy.backoff_ms(40), 350, "shift saturates");
        let disabled = SupervisionPolicy::default();
        assert_eq!(disabled.backoff_ms(1), 0, "zero base disables waiting");
    }

    #[test]
    fn policy_validation_rejects_zero_quarantine() {
        let mut policy = SupervisionPolicy::default();
        assert!(policy.validate().is_ok());
        policy.quarantine_after = 0;
        assert!(policy.validate().is_err());
    }

    #[test]
    fn kill_hazards_fire_once() {
        let plan = HazardPlan::new();
        plan.schedule(5, Hazard::KillWorker);
        assert!(plan.take_kill(5));
        assert!(!plan.take_kill(5), "a kill must not fire twice");
        assert!(plan.is_exhausted());
    }

    #[test]
    fn nan_last_order_ranks_nan_below_everything() {
        use std::cmp::Ordering;
        assert_eq!(nan_last_cmp(1.0, f64::NAN), Ordering::Greater);
        assert_eq!(nan_last_cmp(f64::NAN, -1.0e300), Ordering::Less);
        assert_eq!(nan_last_cmp(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(nan_last_cmp(-0.0, 0.0), Ordering::Equal);
        assert_eq!(nan_last_max(&[f64::NAN, 2.0, 1.0]), 2.0);
        assert!(nan_last_max(&[f64::NAN, f64::NAN]).is_nan());
        assert_eq!(finite_mean(&[f64::NAN, 2.0, 4.0]), 3.0);
        assert!(finite_mean(&[]).is_nan());
    }

    #[test]
    fn incident_serialization_round_trips() {
        let incident = Incident {
            seq: 9,
            eval_index: 41,
            kind: IncidentKind::Retry {
                attempt: 1,
                backoff_ms: 200,
                fault: EvalFault::transient("thermal drift"),
            },
        };
        let json = serde_json::to_string(&incident).unwrap();
        let back: Incident = serde_json::from_str(&json).unwrap();
        assert_eq!(back, incident);
    }
}
