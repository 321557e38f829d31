//! Integration: the §VI use cases (margin discovery, power savings) and the
//! §III-F resume workflow.

use dstress::usecases::{find_marginal_trefp, savings_at_margin, SafetyCriterion};
use dstress::{DStress, EnvKind, ExperimentScale, WORST_WORD};
use dstress_dram::env::{MAX_TREFP_S, NOMINAL_TREFP_S};
use dstress_ga::{BitGenome, GaConfig, GaEngine, Genome, VirusDatabase, VirusRecord};
use dstress_vpl::BoundValue;
use std::collections::HashMap;

fn worst_chromosome() -> HashMap<String, BoundValue> {
    [("PATTERN".to_string(), BoundValue::Scalar(WORST_WORD))].into()
}

#[test]
fn margins_shrink_with_temperature() {
    // Fig. 14: hotter DIMMs leave less refresh headroom.
    let dstress = DStress::new(ExperimentScale::quick(), 1);
    let chromosome = worst_chromosome();
    let mut previous = f64::INFINITY;
    for temp in [50.0, 60.0, 70.0] {
        let margin = find_marginal_trefp(
            &dstress,
            &EnvKind::Word64,
            &chromosome,
            temp,
            SafetyCriterion::NoErrors,
            8,
        )
        .expect("margin sweep");
        assert!(
            margin.marginal_trefp_s <= previous,
            "margin grew from {previous} to {} at {temp} C",
            margin.marginal_trefp_s
        );
        assert!(margin.marginal_trefp_s >= NOMINAL_TREFP_S);
        previous = margin.marginal_trefp_s;
    }
    assert!(
        previous < MAX_TREFP_S,
        "70 C cannot sustain the platform maximum"
    );
}

#[test]
fn ue_tolerant_margins_dominate_and_both_save_power() {
    let dstress = DStress::new(ExperimentScale::quick(), 2);
    let chromosome = worst_chromosome();
    let strict = find_marginal_trefp(
        &dstress,
        &EnvKind::Word64,
        &chromosome,
        60.0,
        SafetyCriterion::NoErrors,
        8,
    )
    .expect("margin sweep");
    let lenient = find_marginal_trefp(
        &dstress,
        &EnvKind::Word64,
        &chromosome,
        60.0,
        SafetyCriterion::NoUncorrectable,
        8,
    )
    .expect("margin sweep");
    assert!(lenient.marginal_trefp_s >= strict.marginal_trefp_s);
    let strict_savings = savings_at_margin(strict.marginal_trefp_s, 1.0e6);
    let lenient_savings = savings_at_margin(lenient.marginal_trefp_s, 1.0e6);
    assert!(strict_savings.dram_savings > 0.0);
    assert!(lenient_savings.dram_savings >= strict_savings.dram_savings);
    assert!(strict_savings.system_savings < strict_savings.dram_savings);
}

#[test]
fn margin_validation_under_benign_workloads() {
    // §VI: the paper validates margins by running ordinary benchmarks for
    // three weeks without a single error. Our analogue: at the discovered
    // no-error margin, both synthetic workloads run clean.
    let scale = ExperimentScale::quick();
    let dstress = DStress::new(scale, 3);
    let margin = find_marginal_trefp(
        &dstress,
        &EnvKind::Word64,
        &worst_chromosome(),
        60.0,
        SafetyCriterion::NoErrors,
        8,
    )
    .expect("margin sweep");
    for workload in [dstress::Workload::Kmeans, dstress::Workload::Memcached] {
        let mut server = dstress.server_at(60.0).unwrap();
        server.set_trefp(2, margin.marginal_trefp_s);
        server.set_trefp(3, margin.marginal_trefp_s);
        let run = workload.deploy(&mut server, 9).expect("deploys");
        let outcome = server.evaluate_run(&run, 17).expect("evaluate");
        let stressed: u64 = outcome
            .per_domain
            .iter()
            .filter(|d| d.mcu == 2)
            .map(|d| d.counts.visible())
            .sum();
        assert_eq!(
            stressed,
            0,
            "{} erred at the virus-validated margin {} s",
            workload.name(),
            margin.marginal_trefp_s
        );
    }
}

#[test]
fn interrupted_search_resumes_from_database() {
    // §III-F: record every virus; resume a new search from the best
    // discovered chromosomes.
    let mut db = VirusDatabase::new();
    // Phase 1: a short, interrupted search on a synthetic objective.
    let mut config = GaConfig::paper_defaults();
    config.population_size = 10;
    config.max_generations = 3;
    let mut engine = GaEngine::new(config, 4);
    let mut fitness = dstress_ga::FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
    let first = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
    for (g, f) in &first.leaderboard {
        db.record(VirusRecord {
            campaign: "resume-demo".into(),
            genes: g.to_words(),
            gene_len: g.len(),
            fitness: *f,
            ce: *f as u64,
            ue: 0,
            sequence: 0,
        });
    }
    // Phase 2: resume from the database's top records.
    let top: Vec<BitGenome> = db
        .top("resume-demo", 10)
        .iter()
        .map(|r| BitGenome::from_words(&r.genes, r.gene_len))
        .collect();
    assert_eq!(top.len(), 10);
    let mut config = GaConfig::paper_defaults();
    config.population_size = 10;
    config.max_generations = 40;
    let mut engine = GaEngine::new(config, 5);
    let resumed = engine.run_from_parallel(1, top, &mut fitness);
    assert!(
        resumed.best_fitness >= first.best_fitness,
        "resumed search ({}) must not regress below the recorded best ({})",
        resumed.best_fitness,
        first.best_fitness
    );
}

#[test]
fn trefp_grid_brackets_the_platform_range() {
    let grid = dstress::usecases::trefp_grid(12);
    assert_eq!(grid.len(), 12);
    assert!((grid[0] - NOMINAL_TREFP_S).abs() < 1e-12);
    assert!((grid[11] - MAX_TREFP_S).abs() < 1e-9);
}
