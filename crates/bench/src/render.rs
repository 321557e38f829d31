//! Renders EXPERIMENTS.md, and the runner's verdict listing, from the typed
//! reports and the run metadata.

use crate::claims::{Kind, Verdict, CLAIMS};
use crate::figures::{Figure, Reports, RunInfo};
use dstress::ExperimentScale;

/// The EXPERIMENTS.md preamble: what the file is and how to read it.
const PREAMBLE: &str = "# EXPERIMENTS — paper vs. measured

<!-- Generated by `cargo run --release -p dstress-bench --bin all_figures` from
results/*.json and results/run.json. Edit crates/bench/src/render.rs (prose) or
crates/bench/src/claims.rs (claims, tolerances, deviation reasons) instead. -->

Every table and figure of the paper's evaluation (§V–§VI), regenerated on
the simulated platform. Absolute error counts are simulator-specific (the
substrate is a scaled device model, not the authors' testbed); the claims
to compare are the *shape* claims — who wins, by what factor, what converges.

**Scale.** The default `paper` scale uses a 1 MB DIMM with 2 KB rows (¼ of
the real 8 KB rows; the device is ~8000× smaller than an 8 GB module, with
the weak-cell population and the access rate scaled to keep per-row
activation rates and per-DIMM error counts in realistic regimes). The
paper's \"24 KB pattern\" (victim row + two same-bank neighbours) is therefore
a 6 KB chromosome here, and the \"512 KB pattern\" (64 consecutive chunks) is
128 KB; the structural relationships are identical. Exposures are 12 refresh
windows per run averaged over 10 runs (for the paper's 2-hour runs averaged
over 10).

**Regeneration.** `cargo run --release -p dstress-bench --bin all_figures`
runs every figure at the `paper` scale with the fixed campaign seed, writes
each typed report to `results/<figure>.json` and the run's metadata to
`results/run.json`, and renders this file from them. `--only <figure>[,…]`
runs the named figures and the ones they read; `DSTRESS_SCALE=quick` runs a
smoke-scale campaign. Either prints the reports and verdicts and writes
nothing. A tier-1 test checks that this file is exactly the rendering of the
committed JSON.

**Verdicts.** Each row is one claim, checked in code against the typed
report (`crates/bench/src/claims.rs`). `PASS`: the measured value is within
tolerance. `FAIL`: it is not. `EXPECTED DEVIATION`: it is not, for the cause
given under the table. Tolerances come from the paper's text or from
DESIGN.md §5's shape claims (i)–(ix). A magnitude the paper quotes without
error bars, and that §5 does not bound otherwise, must lie within a factor of
two of the paper's value (\"within 2×\").
";

/// One EXPERIMENTS.md section: a title, the figures whose claims it
/// tabulates, and prose that follows the table.
struct Section {
    title: &'static str,
    figures: &'static [Figure],
    note: &'static str,
}

const SECTIONS: &[Section] = &[
    Section {
        title: "§V GA parameter calibration (popcount fitness)",
        figures: &[Figure::GaParams],
        note: "",
    },
    Section {
        title: "Fig. 1b — workload-dependent error behaviour",
        figures: &[Figure::Fig01b],
        note: "",
    },
    Section {
        title: "Fig. 2 — address mapping",
        figures: &[Figure::Fig02Mapping],
        note: "Bit-exact reproduction of the documented mapping (consecutive 8 KB chunks
stripe across banks; chunks c, c+8, c+16 are adjacent rows of one bank).
Verified by unit + property tests (`dram::address`), printed by
`--only fig02_mapping`.",
    },
    Section {
        title: "Fig. 8 — 64-bit data patterns",
        figures: &[Figure::Fig08],
        note: "**Known deviation (no claim row).** The paper cross-checks that the
CE-maximizing patterns of Fig. 8a do *not* trigger UEs at 62 °C. In our
device model the UE-prone clustered pairs share the TTAA layout with the
singles, so the worst-case CE pattern charges them too and does raise UEs at
62 °C. Separating the two populations (e.g. placing pairs predominantly in
scrambled rows) would reproduce that check at the cost of a more contrived
hidden layout; we kept the simpler model and note the difference.",
    },
    Section {
        title: "Figs. 9 & 10 — 24 KB-class and 512 KB-class patterns",
        figures: &[Figure::Fig09Fig10],
        note: "",
    },
    Section {
        title: "Figs. 11 & 12 — memory-access patterns",
        figures: &[Figure::Fig11Fig12],
        note: "",
    },
    Section {
        title: "Fig. 13 — GA efficiency",
        figures: &[Figure::Fig13],
        note: "The random samples are compared against the GA winners of the same run:
the Fig. 8 worst case at 60 °C (a) and the Fig. 11 template-1 best (b). The
paper's §V-A.5 sentence mixes two framings (\"probability a better pattern
exists\" vs the abstract's \"finds the worst case with probability\"); the
rows report P(a random sample beats the GA result) under the fitted
Gaussian, which is 1 minus the abstract's probability.",
    },
    Section {
        title: "Fig. 14 — operating-parameter margins & savings",
        figures: &[Figure::Fig14],
        note: "The margin sweeps probe the canonical worst-case artifacts (the converged
forms the searches discover), not this run's GA winners. That benign
workloads run clean at the margins (paper: 3 weeks, 0 errors) is checked by
the integration test `margin_validation_under_benign_workloads`.",
    },
];

/// The extensions' closing section.
const EXTENSIONS: &str = "## Extensions (not in the paper's figures)

* **MARCH comparison** (`--only march_comparison`): MSCAN/MATS+/MARCH X/
  MARCH C- as stress workloads vs the synthesized virus — the §VII claim
  that uniform-background tests under-stress pattern-sensitive cells.
* **Rowhammer regimes** (`--only rowhammer`): the paper's cached regime vs a
  `clflush` attacker on the same victim rows (§VI Security).
* **Retention profiling** (`--only retention_profile`): RAIDR-style per-row
  retention profiles under worst-case vs benign fill — the §I critique of
  retention-profiling micro-benchmarks.
* **SDC accounting** (`--only sdc_accounting`): silent miscorrections and
  undetected multi-bit errors the CE/UE counters cannot see (§III-C).
* **Ablation study** (`--only ablation_study`): GA selection, crossover,
  convergence threshold and fitness averaging depth (DESIGN.md §6).
";

fn kind_label(kind: Kind) -> &'static str {
    match kind {
        Kind::Shape => "shape",
        Kind::Magnitude => "magnitude",
        Kind::ExpectedDeviation { .. } => "known deviation",
    }
}

/// Renders the whole of EXPERIMENTS.md.
pub fn render(reports: &Reports, run: &RunInfo) -> String {
    let scale = run.experiment_scale();
    let mut out = String::from(PREAMBLE);

    let total: f64 = run.wall_s.iter().map(|(_, s)| s).sum();
    out.push_str(&format!(
        "\n**This run.** Commit `{}`, scale `{}`, campaign seed `{:#x}`, `nproc` = {}, \
         {total:.1} s wall-clock in all:\n\n| figure | wall-clock |\n|---|---|\n",
        run.commit, run.scale, run.seed, run.nproc
    ));
    for (figure, secs) in &run.wall_s {
        out.push_str(&format!("| `{figure}` | {secs:.1} s |\n"));
    }

    let verdicts: Vec<Verdict> = CLAIMS.iter().map(|c| c.check(reports, &scale).1).collect();
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    out.push_str(&format!(
        "\n**Summary.** {} claims: {} PASS, {} FAIL, {} EXPECTED DEVIATION",
        CLAIMS.len(),
        count(Verdict::Pass),
        count(Verdict::Fail),
        count(Verdict::ExpectedDeviation),
    ));
    match count(Verdict::NotRun) {
        0 => out.push_str(".\n"),
        n => out.push_str(&format!(", {n} NOT RUN.\n")),
    }

    for section in SECTIONS {
        out.push_str(&format!("\n## {}\n", section.title));
        let claims: Vec<_> = CLAIMS
            .iter()
            .filter(|c| section.figures.contains(&c.figure))
            .collect();
        if !claims.is_empty() {
            out.push_str(
                "\n| claim | kind | paper | measured | tolerance | verdict |\n\
                 |---|---|---|---|---|---|\n",
            );
        }
        let mut deviations = Vec::new();
        for claim in &claims {
            let (measured, verdict) = claim.check(reports, &scale);
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} ({}) | {} |\n",
                claim.what,
                kind_label(claim.kind),
                claim.paper,
                measured.map_or_else(|| "—".to_string(), |m| m.text),
                claim.tolerance.describe(claim.unit),
                claim.source,
                verdict.label(),
            ));
            if let Kind::ExpectedDeviation { reason } = claim.kind {
                deviations.push(format!("* **{}.** {reason}\n", claim.what));
            }
        }
        if !deviations.is_empty() {
            out.push_str("\n**Deviation causes.**\n\n");
            out.push_str(&deviations.concat());
        }
        if !section.note.is_empty() {
            out.push('\n');
            out.push_str(section.note);
            out.push('\n');
        }
    }
    out.push('\n');
    out.push_str(EXTENSIONS);
    out
}

/// One line per claim whose figure ran: verdict, id, measured value, paper
/// value and tolerance. The runner prints this after the reports.
pub fn verdicts(reports: &Reports, scale: &ExperimentScale) -> String {
    let mut out = String::new();
    for claim in CLAIMS {
        if let (Some(m), verdict) = claim.check(reports, scale) {
            out.push_str(&format!(
                "{:<18}  {}: {} (paper {}; tolerance {})\n",
                verdict.label(),
                claim.id,
                m.text,
                claim.paper,
                claim.tolerance.describe(claim.unit),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress::experiments::ga_params::{GaParamPoint, GaParamsReport};

    fn ga_report(population: usize) -> Reports {
        let point = |population, mean_generations| GaParamPoint {
            mutation: 0.5,
            crossover: 0.9,
            population,
            mean_generations,
            solve_rate: 1.0,
        };
        Reports {
            ga_params: Some(GaParamsReport {
                points: vec![point(40, 80.0), point(60, 60.0)],
                best: point(population, 60.0),
            }),
            ..Reports::default()
        }
    }

    fn run_info() -> RunInfo {
        RunInfo {
            commit: "abc123".into(),
            scale: "paper".into(),
            seed: 0xD57E55,
            nproc: 2,
            wall_s: vec![("ga_params".into(), 3.3)],
        }
    }

    fn row<'a>(text: &'a str, claim: &str) -> &'a str {
        text.lines()
            .find(|l| l.starts_with(&format!("| {claim} |")))
            .unwrap_or_else(|| panic!("no row for {claim}"))
    }

    #[test]
    fn rendered_rows_carry_pass_fail_and_deviation_verdicts() {
        let mut reports = ga_report(40);
        // The 24 KB margin just above the 64-bit one at 50 °C.
        reports.fig14 = crate::claims::tests::fig14_report(0.2501).fig14;
        let text = render(&reports, &run_info());
        assert!(row(&text, "optimal population size").ends_with("| PASS |"));
        let generations = row(
            &text,
            "generations to all-ones at mutation 0.5 / crossover 0.9 / population 40",
        );
        assert!(
            generations.ends_with(
                "| ≈80 | 80.0 (solve rate 100 %) | 40 to 160 (paper §V, within 2×) | PASS |"
            ),
            "{generations}"
        );
        let order = row(
            &text,
            "no-error margin order access ≤ 24 KB ≤ 64-bit (temperatures where it breaks, of 3)",
        );
        assert!(order.ends_with("| EXPECTED DEVIATION |"), "{order}");
        // One grid step away from the paper's population: FAIL.
        let text = render(&ga_report(60), &run_info());
        assert!(row(&text, "optimal population size").ends_with("| FAIL |"));
        // Figures that did not run are counted, not graded.
        assert!(row(&text, "worst/best CE ratio").ends_with("| NOT RUN |"));
        assert!(text.contains("NOT RUN."));
        assert!(text.contains("| `ga_params` | 3.3 s |"), "{text}");
        // Every known deviation's cause is printed under its table.
        for claim in CLAIMS {
            if let Kind::ExpectedDeviation { reason } = claim.kind {
                assert!(text.contains(reason), "{}", claim.id);
            }
        }
        assert!(!text.contains("MEASURED_"));
    }

    #[test]
    fn verdict_listing_skips_claims_whose_figure_did_not_run() {
        let text = verdicts(&ga_report(60), &ExperimentScale::paper());
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(text
            .lines()
            .any(|l| l.starts_with("FAIL") && l.contains("ga_population")));
    }
}
