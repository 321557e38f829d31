//! End-to-end checks of the figure runner: the committed EXPERIMENTS.md is
//! the rendering of the committed reports, the claims that hold at the
//! quick scale keep holding, and a bad `--only` key is refused.

use dstress::ExperimentScale;
use dstress_bench::claims::{Verdict, CLAIMS};
use dstress_bench::figures::{parse_only, Reports, RunInfo};
use dstress_bench::render::render;
use dstress_bench::{workspace_root, CAMPAIGN_SEED};
use std::process::Command;

#[test]
fn experiments_md_is_the_rendering_of_the_committed_results() {
    let root = workspace_root();
    let reports = Reports::load(&root.join("results")).unwrap();
    let run: RunInfo =
        serde_json::from_str(&std::fs::read_to_string(root.join("results/run.json")).unwrap())
            .unwrap();
    let committed = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    assert!(
        render(&reports, &run) == committed,
        "EXPERIMENTS.md is not the rendering of results/*.json; rerun \
         `cargo run --release -p dstress-bench --bin all_figures`"
    );
}

/// The claims that hold at the quick scale with the campaign seed.
const HOLD_AT_QUICK_SCALE: &[&str] = &[
    "ga_crossover",
    "ga_generations",
    "f8c_converges",
    "f8c_worst_vs_best_smf",
    "f8d_ue_runs",
    "f8d_not_converged",
    "f8e_best_weakest",
    "f9_gain",
    "f10_no_gain",
    "f11_not_converged",
    "f12_not_converged",
    "f13a_normal",
    "f13_order",
    "f14_temperature",
    "f14_ue_margins",
    "f14_dram_savings",
    "f14_system_savings",
];

#[test]
fn quick_scale_claims_hold() {
    let scale = ExperimentScale::quick();
    let figures: Vec<_> = CLAIMS
        .iter()
        .filter(|c| HOLD_AT_QUICK_SCALE.contains(&c.id))
        .map(|c| c.figure.key())
        .collect();
    let mut reports = Reports::default();
    for figure in parse_only(&figures.join(",")).unwrap() {
        reports.run(figure, scale, CAMPAIGN_SEED).unwrap();
    }
    for id in HOLD_AT_QUICK_SCALE {
        let claim = CLAIMS.iter().find(|c| c.id == *id).expect("claim exists");
        let (measured, verdict) = claim.check(&reports, &scale);
        assert_eq!(verdict, Verdict::Pass, "{id}: {measured:?}");
    }
}

#[test]
fn unknown_only_key_exits_non_zero_listing_the_keys() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--only", "fig09_10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure `fig09_10`"), "{stderr}");
    assert!(stderr.contains("fig09_fig10") && stderr.contains("ablation_study"));
}
