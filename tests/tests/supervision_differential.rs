//! Differential tests for the supervised evaluation runtime at the campaign
//! level: a `HazardPlan` injected into the real word64 search (panics,
//! transient faults, permanent faults, step-budget blowouts, worker deaths)
//! must never abort the campaign — the search completes (or quarantines the
//! offenders) with bit-identical results and an identical incident stream
//! for every worker count, and a campaign killed mid-search under hazards
//! resumes from the journal replaying the same supervision decisions.

use dstress::search::Campaign;
use dstress::{
    CampaignJournal, DStress, ExperimentScale, Hazard, HazardPlan, IncidentKind, MemStorage,
    Metric, SupervisionPolicy,
};
use dstress_ga::{BitGenome, FaultKind, SearchResult};

/// The hazard schedule every test run replays: one of each fault class,
/// all within the initial population (12 distinct candidates at quick
/// scale), so the plan fires regardless of convergence.
///
/// Expected outcome under the default policy (3 retries, quarantine at 4
/// faults): 4 quarantines (panic, exhausted transient, permanent, budget
/// blowout), 4 retries (one lone transient + three on the exhausted
/// candidate), 1 worker loss.
fn full_plan() -> HazardPlan {
    let plan = HazardPlan::new();
    plan.schedule(1, Hazard::Panic);
    plan.schedule(3, Hazard::Transient);
    for attempt in 0..4 {
        plan.schedule_attempt(5, attempt, Hazard::Transient);
    }
    plan.schedule(7, Hazard::Permanent);
    plan.schedule(9, Hazard::BudgetBlowout);
    plan.schedule(6, Hazard::KillWorker);
    plan
}

fn supervised_search(workers: usize, plan: Option<HazardPlan>) -> SearchResult<BitGenome> {
    let mut dstress = DStress::new(ExperimentScale::quick(), 42);
    dstress.set_workers(workers);
    dstress.set_supervision(SupervisionPolicy::default());
    dstress.set_hazard_plan(plan);
    dstress
        .search_word64(60.0, Metric::CeAverage, false)
        .expect("a hazard plan must never abort the campaign")
        .result
}

/// Bit-level equality that survives `NaN` scores (quarantined candidates
/// sit in the leaderboard with `NaN`, and `NaN != NaN` under `==`).
fn assert_search_identical(a: &SearchResult<BitGenome>, b: &SearchResult<BitGenome>, ctx: &str) {
    assert_eq!(a.best, b.best, "{ctx}");
    assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits(), "{ctx}");
    let bits = |r: &SearchResult<BitGenome>| {
        r.leaderboard
            .iter()
            .map(|(g, f)| (g.clone(), f.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(a), bits(b), "{ctx}");
    assert_eq!(a.generations, b.generations, "{ctx}");
    assert_eq!(a.converged, b.converged, "{ctx}");
    assert_eq!(a.incidents, b.incidents, "{ctx}");
    assert_eq!(a.eval_stats.evaluations, b.eval_stats.evaluations, "{ctx}");
    assert_eq!(a.eval_stats.cache_hits, b.eval_stats.cache_hits, "{ctx}");
}

#[test]
fn hazard_sweep_is_bit_identical_across_worker_counts() {
    let reference = supervised_search(1, Some(full_plan()));
    assert_eq!(reference.quarantined(), 4, "one per fatal hazard");
    assert_eq!(reference.workers_lost(), 1);
    let retries = reference
        .incidents
        .iter()
        .filter(|i| matches!(i.kind, IncidentKind::Retry { .. }))
        .count();
    assert_eq!(retries, 4, "one lone transient + three exhausted ones");

    // CI pins 1 and 4; DSTRESS_WORKERS lets the sweep widen without a
    // recompile.
    let mut counts = vec![2, 4];
    if let Some(extra) = std::env::var("DSTRESS_WORKERS")
        .ok()
        .and_then(|w| w.parse::<usize>().ok())
    {
        counts.push(extra.max(1));
    }
    for workers in counts {
        let run = supervised_search(workers, Some(full_plan()));
        assert_search_identical(&run, &reference, &format!("workers={workers}"));
    }
}

#[test]
fn benign_hazards_leave_the_search_outcome_unchanged() {
    // Retried transients and worker deaths never change a score, so the
    // search trajectory — every generation, every winner — must match the
    // clean run exactly; only the incident stream differs.
    let clean = supervised_search(2, None);
    assert!(clean.incidents.is_empty());
    let plan = HazardPlan::new();
    plan.schedule(3, Hazard::Transient);
    plan.schedule(8, Hazard::Transient);
    plan.schedule(4, Hazard::KillWorker);
    plan.schedule(10, Hazard::KillWorker);
    let hazarded = supervised_search(2, Some(plan));
    assert_eq!(hazarded.workers_lost(), 2);
    assert_eq!(hazarded.quarantined(), 0);
    assert_eq!(hazarded.best, clean.best, "the winner survives supervision");
    assert_eq!(
        hazarded.best_fitness.to_bits(),
        clean.best_fitness.to_bits()
    );
    assert_eq!(hazarded.leaderboard, clean.leaderboard);
    assert_eq!(hazarded.history, clean.history);
}

#[test]
fn step_budget_watchdog_quarantines_every_runaway_deterministically() {
    // The real watchdog, not an injected hazard: a 1-step VM budget makes
    // every virus a "runaway". The campaign still completes — every
    // distinct candidate is quarantined with a budget fault, none is ever
    // re-evaluated, and the outcome is worker-count invariant.
    let run = |workers: usize| {
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        dstress.set_workers(workers);
        dstress.set_step_budget(Some(1));
        dstress
            .search_word64(60.0, Metric::CeAverage, false)
            .expect("budget blowouts must never abort the campaign")
    };
    let reference = run(1);
    assert_eq!(
        reference.result.quarantined() as u64,
        reference.result.eval_stats.evaluations,
        "every evaluated candidate trips the watchdog"
    );
    assert!(
        reference.result.best_fitness.is_nan(),
        "an all-quarantined campaign has no finite winner"
    );
    assert!(reference.result.incidents.iter().all(|i| matches!(
        &i.kind,
        IncidentKind::Quarantine { faults: 1, fault } if fault.kind == FaultKind::BudgetExhausted
    )));
    assert_eq!(
        reference.failed_evaluations, reference.result.eval_stats.evaluations,
        "the evaluator counted each blowout exactly once"
    );
    let other = run(3);
    assert_eq!(other.result.incidents, reference.result.incidents);
    assert_eq!(other.result.best, reference.result.best);
}

#[test]
fn campaign_killed_under_hazards_resumes_with_the_same_incident_stream() {
    // Kill the journaled word64 campaign at every generation boundary while
    // the hazard plan is live, crash, and resume with a *fresh* identical
    // plan: cached pre-checkpoint evaluations never re-fire their hazards,
    // post-checkpoint hazards fire exactly once, and the replayed incident
    // stream matches the uninterrupted run's bit for bit.
    let search = |journal: &mut CampaignJournal<MemStorage>, max_steps: Option<u32>, plan| {
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        dstress.set_workers(2);
        dstress.set_hazard_plan(Some(plan));
        let campaign = Campaign::word64(60.0, Metric::CeAverage, false);
        dstress
            .run(&campaign, vec![Some(journal)], max_steps.map(u64::from))
            .expect("journaled search")
            .pop()
            .flatten()
    };
    let mut clean = CampaignJournal::open(MemStorage::new(), "viruses.json").unwrap();
    let reference = search(&mut clean, None, full_plan()).expect("clean run finishes");
    assert_eq!(reference.result.quarantined(), 4);
    let campaign = reference.name.clone();
    let journaled: Vec<_> = clean.campaign_incidents(&campaign).cloned().collect();
    assert_eq!(
        journaled, reference.result.incidents,
        "every supervision decision is acked into the journal"
    );

    for boundary in 0u32.. {
        let mut journal = CampaignJournal::open(MemStorage::new(), "viruses.json").unwrap();
        let interrupted = search(&mut journal, Some(boundary), full_plan()).is_none();
        let mut storage = journal.into_storage();
        storage.crash();
        let mut journal = CampaignJournal::open(storage, "viruses.json").unwrap();
        let resumed = search(&mut journal, None, full_plan()).expect("resumed run finishes");
        let ctx = format!("boundary={boundary}");
        assert_search_identical(&resumed.result, &reference.result, &ctx);
        let replayed: Vec<_> = journal.campaign_incidents(&campaign).cloned().collect();
        assert_eq!(replayed, journaled, "{ctx}: journaled incidents replay");
        assert_eq!(journal.db().records(), clean.db().records(), "{ctx}");
        if !interrupted {
            break; // the budget outlived the search: every boundary covered
        }
    }
}
