//! Differential tests for the batched evaluation path: the engine's
//! per-round chromosome dedup, the server's shared plan and replay-profile
//! caches, the lane-packed VRT window kernel and the VM's bulk-fill fast
//! path are pure optimizations, so every score must be bit-identical to the
//! uncached per-candidate reference oracle
//! (`VirusEvaluator::evaluate_bindings_reference`: the tree-walking
//! interpreter plus the per-cell retention loop, one run at a time) — for
//! any worker count, any cache state, and under hazard schedules. Also pins
//! typed stale-plan errors, exact index narrowing, and the bounded
//! evaluation cache.

use std::collections::HashMap;

use dstress::templates;
use dstress::{DStress, DStressError, ExperimentScale, Hazard, HazardPlan, Metric, VirusEvaluator};
use dstress_platform::{MemoryBus, XGene2Server};
use dstress_vpl::BoundValue;
use proptest::prelude::*;

/// A word64 evaluator on a quick-scale server heated to `temp_c`.
fn evaluator(temp_c: f64) -> VirusEvaluator {
    let scale = ExperimentScale::quick();
    let mut server = XGene2Server::new(scale.server);
    server.relax_second_domain();
    server.set_dimm_temperature(2, temp_c).unwrap();
    let template = templates::process(templates::WORD64, &scale).unwrap();
    let mem_words = scale.dimm_words();
    let env: HashMap<String, BoundValue> = [
        ("MEM_BYTES".to_string(), BoundValue::Scalar(mem_words * 8)),
        ("MEM_WORDS".to_string(), BoundValue::Scalar(mem_words)),
    ]
    .into_iter()
    .collect();
    VirusEvaluator::new(server, template, env, Metric::CeAverage, 3, 2)
}

fn chromosome(pattern: u64) -> HashMap<String, BoundValue> {
    [("PATTERN".to_string(), BoundValue::Scalar(pattern))].into()
}

/// Scores `patterns` in population order through one evaluator — its
/// caches warm across the population, exactly as one pool worker's replica
/// is — asserting that no slot faulted.
fn batched_scores(eval: &mut VirusEvaluator, patterns: &[u64]) -> Vec<f64> {
    patterns
        .iter()
        .map(|&p| {
            eval.evaluate_bindings(chromosome(p))
                .expect("quick-scale word64 candidates never fault")
                .fitness
        })
        .collect()
}

#[test]
fn batched_generations_match_the_uncached_reference_oracle() {
    // Two generations through one evaluator: the second round hits warm
    // plan and profile caches for the repeated patterns and cold paths for
    // the fresh ones — exactly the mixed cache state a real search sees.
    let round1: Vec<u64> = vec![
        0x3333_3333_3333_3333,
        0xCCCC_CCCC_CCCC_CCCC,
        0x3333_3333_3333_3333, // repeat within the generation
        0x0000_0000_0000_0000,
    ];
    let round2: Vec<u64> = vec![
        0xCCCC_CCCC_CCCC_CCCC, // warm from round 1
        0x5A5A_5A5A_5A5A_5A5A, // cold
        0x3333_3333_3333_7333, // cold
        0x3333_3333_3333_3333, // warm
    ];
    for temp_c in [60.0, 70.0] {
        let mut batched = evaluator(temp_c);
        let got1 = batched_scores(&mut batched, &round1);
        let got2 = batched_scores(&mut batched, &round2);
        // The oracle re-instantiates, re-executes and re-plans every
        // candidate from scratch on a fresh evaluator — no caches anywhere.
        for (&pattern, &got) in round1.iter().zip(&got1).chain(round2.iter().zip(&got2)) {
            let expected = evaluator(temp_c)
                .evaluate_bindings_reference(chromosome(pattern))
                .unwrap()
                .fitness;
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "pattern {pattern:#018x} at {temp_c} °C"
            );
        }
    }
}

#[test]
fn cache_state_never_leaks_into_batched_scores() {
    // Clearing the shared plan/profile caches mid-campaign (as a thermal
    // sweep would) must not change a single bit of any later score.
    let patterns: Vec<u64> = vec![0x3333_3333_3333_3333, 0xCCCC_CCCC_CCCC_CCCC];
    let mut warm = evaluator(60.0);
    let before = batched_scores(&mut warm, &patterns);
    warm.server_mut().clear_eval_caches();
    let after = batched_scores(&mut warm, &patterns);
    let before_bits: Vec<u64> = before.iter().map(|f| f.to_bits()).collect();
    let after_bits: Vec<u64> = after.iter().map(|f| f.to_bits()).collect();
    assert_eq!(before_bits, after_bits);
}

#[test]
fn batched_campaign_is_bit_identical_across_worker_counts() {
    // The full word64 search at 1, 2 and 8 workers: the batched evaluation
    // path must keep every worker count on the same trajectory, and the
    // bounded evaluation cache must report the same (bounded) size.
    let run = |workers: usize| {
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        dstress.set_workers(workers);
        dstress
            .search_word64(60.0, Metric::CeAverage, false)
            .expect("campaign runs")
            .result
    };
    let reference = run(1);
    assert!(
        reference.eval_stats.cache_size <= 1024,
        "the evaluation cache is bounded"
    );
    assert!(reference.eval_stats.cache_size > 0);
    // CI pins 1 and 4 via DSTRESS_WORKERS; the sweep widens without a
    // recompile.
    let mut counts = vec![2usize, 8];
    if let Some(extra) = std::env::var("DSTRESS_WORKERS")
        .ok()
        .and_then(|w| w.parse::<usize>().ok())
    {
        counts.push(extra.max(1));
    }
    for workers in counts {
        let other = run(workers);
        assert_eq!(
            other.leaderboard, reference.leaderboard,
            "workers={workers}"
        );
        assert_eq!(other.best, reference.best);
        assert_eq!(
            other.best_fitness.to_bits(),
            reference.best_fitness.to_bits()
        );
        assert_eq!(other.history, reference.history);
        assert_eq!(
            other.eval_stats.evaluations,
            reference.eval_stats.evaluations
        );
        assert_eq!(other.eval_stats.cache_hits, reference.eval_stats.cache_hits);
        assert_eq!(other.eval_stats.cache_size, reference.eval_stats.cache_size);
    }
}

#[test]
fn hazard_schedules_ride_the_batched_path_unchanged() {
    // Supervision hazards interleave retries and redeals with batched
    // rounds; the surviving scores must still match the clean campaign.
    let run = |plan: Option<HazardPlan>| {
        let mut dstress = DStress::new(ExperimentScale::quick(), 42);
        dstress.set_workers(2);
        dstress.set_hazard_plan(plan);
        dstress
            .search_word64(60.0, Metric::CeAverage, false)
            .expect("hazards never abort the campaign")
            .result
    };
    let clean = run(None);
    let plan = HazardPlan::new();
    plan.schedule(2, Hazard::Transient);
    plan.schedule(5, Hazard::KillWorker);
    let hazarded = run(Some(plan));
    assert_eq!(hazarded.best, clean.best);
    assert_eq!(hazarded.leaderboard, clean.leaderboard);
    assert_eq!(hazarded.history, clean.history);
}

#[test]
fn stale_plan_misuse_stays_a_typed_error_through_the_stack() {
    // Regression for the stale-plan panic: a plan evaluated against
    // superseded DIMM contents must surface as a typed, permanent,
    // non-retryable error at every layer, never a panic.
    let scale = ExperimentScale::quick();
    let mut server = XGene2Server::new(scale.server);
    server.relax_second_domain();
    server.set_dimm_temperature(2, 60.0).unwrap();
    let mut session = server.session(2);
    let base = session.alloc(64 * 8).unwrap();
    for i in 0..64u64 {
        session
            .write_u64(base + i * 8, 0x3333_3333_3333_3333)
            .unwrap();
    }
    let run = session.finish();
    let prepared = server.prepare_run(&run).unwrap();
    // Supersede the contents the plan was built against.
    let mut session = server.session(2);
    let other = session.alloc(64).unwrap();
    session.write_u64(other, 0xFFFF_FFFF_FFFF_FFFF).unwrap();
    drop(session.finish());
    let err = server
        .evaluate_prepared_runs(&prepared, 1, 1)
        .expect_err("superseded contents must be rejected");
    assert!(matches!(err, dstress_dram::PlanError::Stale { .. }));
    let wrapped: DStressError = err.into();
    assert!(wrapped.to_string().contains("stale RunPlan"));
    assert!(matches!(wrapped, DStressError::Plan(_)));
}

#[test]
fn plan_index_overflow_reports_the_offending_dimension() {
    // Regression for the silent `as u32` truncation: overflow is now a
    // typed error naming the dimension and the value that overflowed.
    let err = dstress_dram::PlanError::IndexOverflow {
        what: "weak-cell word index",
        value: u32::MAX as usize + 1,
    };
    let msg = err.to_string();
    assert!(msg.contains("weak-cell word index"), "{msg}");
    assert!(msg.contains("4294967296"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any population of word64 patterns (repeats and all), at any of the
    /// campaign operating points, scores bit-identically through the
    /// batched generation path and the uncached per-candidate oracle.
    #[test]
    fn batched_generation_equals_oracle_for_random_populations(
        patterns in proptest::collection::vec(any::<u64>(), 1..5),
        temp_idx in 0usize..3,
    ) {
        let temp_c = [45.0, 60.0, 70.0][temp_idx];
        let mut batched = evaluator(temp_c);
        let got = batched_scores(&mut batched, &patterns);
        let mut oracle = evaluator(temp_c);
        for (&pattern, &score) in patterns.iter().zip(&got) {
            let expected = oracle
                .evaluate_bindings_reference(chromosome(pattern))
                .unwrap()
                .fitness;
            prop_assert_eq!(score.to_bits(), expected.to_bits());
        }
    }
}
