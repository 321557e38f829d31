//! The paper's evaluation claims, each checked against the typed reports.
//!
//! A claim names its figure, the paper's value, a predicate over the
//! reports (a measured number and the [`Tolerance`] it must fall in), the
//! source of that tolerance, and a [`Kind`]. Tolerances come from the
//! paper's text or from DESIGN.md §5's shape claims (i)–(ix). A magnitude
//! the paper states without error bars ("≈ 8×", "+16 %") and that §5 does
//! not bound otherwise must lie within a factor of two of the paper's value:
//! the substrate is a scaled device model, so only the order of the effect
//! carries over.

use crate::figures::{Figure, Reports};
use dstress::experiments::efficiency::RandomDistribution;
use dstress::experiments::fig09_fig10::Fig0910Report;
use dstress::experiments::fig14::{Fig14Report, VirusFamily};
use dstress::usecases::{SafetyCriterion, SavingsReport};
use dstress::ExperimentScale;
use std::cmp::Ordering;

/// What kind of statement a claim is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Who wins, an ordering, or whether a search converges.
    Shape,
    /// A size the paper quotes.
    Magnitude,
    /// A claim this model is known to miss, for the stated cause. A miss
    /// reads `EXPECTED DEVIATION` instead of `FAIL`; a hold still reads
    /// `PASS`.
    ExpectedDeviation {
        /// The cause of the miss, shown in EXPERIMENTS.md.
        reason: &'static str,
    },
}

/// The interval a measured value must fall in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// `value == x` (grid points and counts).
    Equals(f64),
    /// `value >= x`.
    AtLeast(f64),
    /// `value <= x`.
    AtMost(f64),
    /// `value > x`.
    Above(f64),
    /// `value < x`.
    Below(f64),
    /// `lo <= value <= hi`.
    Within(f64, f64),
    /// `lo < value < hi`.
    Between(f64, f64),
}

impl Tolerance {
    /// Whether `value` satisfies the tolerance (NaN never does).
    pub fn admits(self, value: f64) -> bool {
        match self {
            Tolerance::Equals(x) => (value - x).abs() <= 1e-9 * x.abs().max(1.0),
            Tolerance::AtLeast(x) => value >= x,
            Tolerance::AtMost(x) => value <= x,
            Tolerance::Above(x) => value > x,
            Tolerance::Below(x) => value < x,
            Tolerance::Within(lo, hi) => lo <= value && value <= hi,
            Tolerance::Between(lo, hi) => lo < value && value < hi,
        }
    }

    /// The tolerance as text, with `unit` after each bound.
    pub fn describe(self, unit: &str) -> String {
        let n = |x: f64| {
            if x != 0.0 && x.abs() < 1e-3 {
                format!("{x:e}{unit}")
            } else {
                format!("{x}{unit}")
            }
        };
        match self {
            Tolerance::Equals(x) => format!("= {}", n(x)),
            Tolerance::AtLeast(x) => format!("≥ {}", n(x)),
            Tolerance::AtMost(x) => format!("≤ {}", n(x)),
            Tolerance::Above(x) => format!("> {}", n(x)),
            Tolerance::Below(x) => format!("< {}", n(x)),
            Tolerance::Within(lo, hi) => format!("{} to {}", n(lo), n(hi)),
            Tolerance::Between(lo, hi) => format!("strictly between {} and {}", n(lo), n(hi)),
        }
    }
}

/// A claim's measurement: the number the tolerance is checked on, and the
/// text shown for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The checked value.
    pub value: f64,
    /// What the measured column shows.
    pub text: String,
}

fn measured(value: f64, text: impl Into<String>) -> Option<Measured> {
    Some(Measured {
        value,
        text: text.into(),
    })
}

/// The outcome of checking one claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The measured value is within tolerance.
    Pass,
    /// Outside tolerance.
    Fail,
    /// Outside tolerance, for the claim's stated cause.
    ExpectedDeviation,
    /// The claim's figure has not run.
    NotRun,
}

impl Verdict {
    /// The verdict as shown in tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::ExpectedDeviation => "EXPECTED DEVIATION",
            Verdict::NotRun => "NOT RUN",
        }
    }
}

/// One claim of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// A stable identifier.
    pub id: &'static str,
    /// The figure whose report the claim reads.
    pub figure: Figure,
    /// What the paper claims.
    pub what: &'static str,
    /// The paper's value.
    pub paper: &'static str,
    /// The interval the measured value must fall in.
    pub tolerance: Tolerance,
    /// Unit suffix of the measured value's bounds (`""`, `" %"`, `"×"`).
    pub unit: &'static str,
    /// Where the tolerance comes from.
    pub source: &'static str,
    /// Shape, magnitude, or a known deviation.
    pub kind: Kind,
    /// The predicate: the measured value, or `None` if the figure has not
    /// run.
    pub measure: fn(&Reports, &ExperimentScale) -> Option<Measured>,
}

impl Claim {
    /// Measures the claim and grades it.
    pub fn check(&self, reports: &Reports, scale: &ExperimentScale) -> (Option<Measured>, Verdict) {
        let Some(m) = (self.measure)(reports, scale) else {
            return (None, Verdict::NotRun);
        };
        let verdict = match (self.tolerance.admits(m.value), self.kind) {
            (true, _) => Verdict::Pass,
            (false, Kind::ExpectedDeviation { .. }) => Verdict::ExpectedDeviation,
            (false, _) => Verdict::Fail,
        };
        (Some(m), verdict)
    }
}

fn converged(flag: bool) -> &'static str {
    if flag {
        "converged"
    } else {
        "not converged"
    }
}

/// A leaderboard-similarity measurement (`label` is `SMF` or `JW`), with
/// the search's convergence and, where reported, its generation count.
fn similarity(
    label: &str,
    value: f64,
    converged: bool,
    generations: Option<u32>,
) -> Option<Measured> {
    let generations = generations.map_or(String::new(), |g| format!(", {g} generations"));
    measured(
        value,
        format!(
            "{label} {value:.2}, {}{generations}",
            self::converged(converged)
        ),
    )
}

fn normality(d: &RandomDistribution) -> Option<Measured> {
    let n = d.normality;
    measured(n.p_value, format!("K² = {:.1}, p = {:.3}", n.k2, n.p_value))
}

fn p_better(d: &RandomDistribution) -> Option<Measured> {
    measured(d.p_better_exists, format!("{:.1e}", d.p_better_exists))
}

/// A savings fraction at 50 °C, in percent, with every temperature's shown.
fn savings(r: &Reports, pick: fn(&SavingsReport) -> f64) -> Option<Measured> {
    let savings = &r.fig14.as_ref()?.savings;
    let at_50 = pick(&savings.iter().find(|(t, _)| *t == 50.0)?.1) * 100.0;
    let all: Vec<String> = savings
        .iter()
        .map(|(t, s)| format!("{:.1} % at {t:.0} °C", pick(s) * 100.0))
        .collect();
    measured(at_50, all.join(", "))
}

fn gain(value: f64, reference: f64) -> f64 {
    100.0 * (value / reference - 1.0)
}

const TEMPS: [f64; 3] = [50.0, 60.0, 70.0];
const FAMILIES: [VirusFamily; 3] = [
    VirusFamily::Word64,
    VirusFamily::RowTriple,
    VirusFamily::RowAccess,
];

fn margin(r: &Fig14Report, family: VirusFamily, temp: f64, criterion: SafetyCriterion) -> f64 {
    r.margin(family, temp, criterion).unwrap_or(f64::NAN)
}

/// Why the Fig. 14 margin order misses (see [`CLAIMS`]).
const ROW_TRIPLE_FILL: &str = "The row-triple (24 KB) virus writes its three searched rows \
    around each victim and fills the rest of its buffer with 0: `EnvKind::RowTriple` binds \
    the template's `FILL` to 0, and the compiled virus opens with `fused for i < 130048: \
    buf[i] = #0` over the whole 1 MB buffer. A 0 word charges only the anti-cells, so \
    outside the victim neighbourhoods half the cells the 64-bit virus charges hold no \
    charge, and the whole-DIMM no-error margin comes out larger. With `FILL` bound to the \
    worst word instead (a one-line experiment, not adopted), the 24 KB margins fall to \
    0.211 / 0.095 / 0.064 s at 50 / 60 / 70 °C, equal to the 64-bit virus's, and the order \
    holds.";

/// Every claim, in EXPERIMENTS.md order.
pub static CLAIMS: &[Claim] = &[
    // §V GA parameters.
    Claim {
        id: "ga_mutation",
        figure: Figure::GaParams,
        what: "optimal mutation probability",
        paper: "0.5",
        tolerance: Tolerance::Equals(0.5),
        unit: "",
        source: "paper §V",
        kind: Kind::Shape,
        measure: |r, _| {
            let b = r.ga_params.as_ref()?.best;
            measured(b.mutation, format!("{:.1}", b.mutation))
        },
    },
    Claim {
        id: "ga_crossover",
        figure: Figure::GaParams,
        what: "optimal crossover probability",
        paper: "0.9",
        tolerance: Tolerance::Equals(0.9),
        unit: "",
        source: "paper §V",
        kind: Kind::Shape,
        measure: |r, _| {
            let b = r.ga_params.as_ref()?.best;
            measured(b.crossover, format!("{:.1}", b.crossover))
        },
    },
    Claim {
        id: "ga_population",
        figure: Figure::GaParams,
        what: "optimal population size",
        paper: "40",
        tolerance: Tolerance::Equals(40.0),
        unit: "",
        source: "paper §V",
        kind: Kind::Shape,
        measure: |r, _| {
            let b = r.ga_params.as_ref()?.best;
            measured(
                b.population as f64,
                format!(
                    "{} ({:.1} mean generations, solve rate {:.0} %)",
                    b.population,
                    b.mean_generations,
                    b.solve_rate * 100.0
                ),
            )
        },
    },
    Claim {
        id: "ga_generations",
        figure: Figure::GaParams,
        what: "generations to all-ones at mutation 0.5 / crossover 0.9 / population 40",
        paper: "≈80",
        tolerance: Tolerance::Within(40.0, 160.0),
        unit: "",
        source: "paper §V, within 2×",
        kind: Kind::Magnitude,
        measure: |r, _| {
            let p = r
                .ga_params
                .as_ref()?
                .points
                .iter()
                .find(|p| p.mutation == 0.5 && p.crossover == 0.9 && p.population == 40)?;
            measured(
                p.mean_generations,
                format!(
                    "{:.1} (solve rate {:.0} %)",
                    p.mean_generations,
                    p.solve_rate * 100.0
                ),
            )
        },
    },
    // Fig. 1b.
    Claim {
        id: "f1b_workload_ratio",
        figure: Figure::Fig01b,
        what: "max workload-to-workload CE ratio (same domain)",
        paper: "up to 1000×",
        tolerance: Tolerance::Within(500.0, 2000.0),
        unit: "×",
        source: "paper Fig. 1b, within 2×",
        kind: Kind::Magnitude,
        measure: |r, _| {
            let v = r.fig01b.as_ref()?.max_workload_ratio;
            measured(v, format!("{v:.0}×"))
        },
    },
    Claim {
        id: "f1b_dimm_ratio",
        figure: Figure::Fig01b,
        what: "max DIMM-to-DIMM CE ratio (same workload)",
        paper: "633×",
        tolerance: Tolerance::Within(316.5, 1266.0),
        unit: "×",
        source: "paper Fig. 1b, within 2×",
        kind: Kind::Magnitude,
        measure: |r, _| {
            let v = r.fig01b.as_ref()?.max_dimm_ratio;
            measured(v, format!("{v:.0}×"))
        },
    },
    // Fig. 8.
    Claim {
        id: "f8a_converges",
        figure: Figure::Fig08,
        what: "(a) worst-case search at 55 °C converges",
        paper: "SMF 0.89, ~80 generations",
        tolerance: Tolerance::Above(0.85),
        unit: "",
        source: "DESIGN.md §5 (vii): SMF > 0.85",
        kind: Kind::Shape,
        measure: |r, _| {
            let s = &r.fig08.as_ref()?.worst_55c;
            similarity("SMF", s.similarity, s.converged, Some(s.generations))
        },
    },
    Claim {
        id: "f8a_1100",
        figure: Figure::Fig08,
        what: "worst pattern is the repeating `1100`",
        paper: "yes",
        tolerance: Tolerance::AtLeast(0.9),
        unit: "",
        source: "DESIGN.md §5 (i): `1100` wins",
        kind: Kind::Shape,
        measure: |r, _| {
            let s = &r.fig08.as_ref()?.worst_55c;
            measured(
                s.best_1100_match,
                format!("{:.2} of bits match a phase of `1100`", s.best_1100_match),
            )
        },
    },
    Claim {
        id: "f8b_cross_temperature",
        figure: Figure::Fig08,
        what: "(b) the 60 °C search finds the same patterns (cross-temperature SMF)",
        paper: "0.90",
        tolerance: Tolerance::Above(0.85),
        unit: "",
        source: "DESIGN.md §5 (i) temperature-stable, at (vii)'s SMF bar",
        kind: Kind::Shape,
        measure: |r, _| {
            let v = r.fig08.as_ref()?.cross_temperature_smf;
            measured(v, format!("{v:.2}"))
        },
    },
    Claim {
        id: "f8c_converges",
        figure: Figure::Fig08,
        what: "(c) best-case search converges",
        paper: "SMF 0.92",
        tolerance: Tolerance::Above(0.85),
        unit: "",
        source: "DESIGN.md §5 (vii): SMF > 0.85",
        kind: Kind::Shape,
        measure: |r, _| {
            let s = &r.fig08.as_ref()?.best_55c;
            similarity("SMF", s.similarity, s.converged, Some(s.generations))
        },
    },
    Claim {
        id: "f8c_worst_vs_best_smf",
        figure: Figure::Fig08,
        what: "worst-vs-best leaderboard SMF",
        paper: "0.62",
        tolerance: Tolerance::Within(0.31, 1.0),
        unit: "",
        source: "paper Fig. 8c, within 2×, capped at SMF 1",
        kind: Kind::ExpectedDeviation {
            reason: "The model's cells are true- and anti-cells in a TTAA layout, so the word \
                that charges the fewest cells is the bitwise complement of the word that \
                charges the most. The best-case search converges onto that complement \
                (`0xcccc…` against the worst case's `0x3333…`, shown in the measured \
                column), and complementary boards share almost no bits. The paper's \
                hardware left more overlap.",
        },
        measure: |r, _| {
            let f = r.fig08.as_ref()?;
            let worst = f.worst_55c.leaderboard.first()?.0;
            let best = f.best_55c.leaderboard.first()?.0;
            let relation = if best == !worst {
                "is the complement of"
            } else {
                "is not the complement of"
            };
            measured(
                f.worst_vs_best_smf,
                format!(
                    "{:.2}; best `{best:#018x}` {relation} worst `{worst:#018x}`",
                    f.worst_vs_best_smf
                ),
            )
        },
    },
    Claim {
        id: "f8c_ratio",
        figure: Figure::Fig08,
        what: "worst/best CE ratio",
        paper: "≈8×",
        tolerance: Tolerance::Within(4.0, 16.0),
        unit: "×",
        source: "DESIGN.md §5 (iii), within 2×",
        kind: Kind::Magnitude,
        measure: |r, _| {
            let v = r.fig08.as_ref()?.worst_over_best;
            measured(v, format!("{v:.1}×"))
        },
    },
    Claim {
        id: "f8d_ue_runs",
        figure: Figure::Fig08,
        what: "(d) UE search at 62 °C: UEs in every run",
        paper: "100 % of runs",
        tolerance: Tolerance::Equals(100.0),
        unit: " %",
        source: "paper Fig. 8d",
        kind: Kind::Shape,
        measure: |r, scale| {
            let best = r.fig08.as_ref()?.ue_62c.best_fitness;
            let runs = f64::from(scale.runs_per_virus);
            measured(100.0 * best / runs, format!("{best:.0}/{runs:.0} runs"))
        },
    },
    Claim {
        id: "f8d_not_converged",
        figure: Figure::Fig08,
        what: "(d) UE search does **not** converge",
        paper: "SMF 0.58",
        tolerance: Tolerance::AtMost(0.85),
        unit: "",
        source: "DESIGN.md §5 (vii): UE searches do not converge",
        kind: Kind::Shape,
        measure: |r, _| {
            let s = &r.fig08.as_ref()?.ue_62c;
            similarity("SMF", s.similarity, s.converged, None)
        },
    },
    Claim {
        id: "f8e_worst_vs_classic",
        figure: Figure::Fig08,
        what: "(e) GA worst case over the strongest classic micro-benchmark",
        paper: "≥ +45 %",
        tolerance: Tolerance::AtLeast(45.0),
        unit: " %",
        source: "DESIGN.md §5 (ii)",
        kind: Kind::Magnitude,
        measure: |r, _| {
            let f = r.fig08.as_ref()?;
            let (name, strongest) = f.baselines_60c.iter().max_by(|a, b| a.1.total_cmp(&b.1))?;
            let v = gain(f.ga_worst_ce, *strongest);
            measured(v, format!("{v:+.1} % over {name}"))
        },
    },
    Claim {
        id: "f8e_best_weakest",
        figure: Figure::Fig08,
        what:
            "(e) GA best case is the weakest pattern of all (ratio to the weakest micro-benchmark)",
        paper: "yes",
        tolerance: Tolerance::Below(1.0),
        unit: "",
        source: "paper Fig. 8e",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig08.as_ref()?;
            let (name, weakest) = f.baselines_60c.iter().min_by(|a, b| a.1.total_cmp(&b.1))?;
            measured(
                f.ga_best_ce / weakest,
                format!("{:.1} vs {name} {weakest:.1} CEs/run", f.ga_best_ce),
            )
        },
    },
    // Figs. 9 & 10.
    Claim {
        id: "f9_converges",
        figure: Figure::Fig09Fig10,
        what: "24 KB-class search converges",
        paper: "SMF 0.89",
        tolerance: Tolerance::Above(0.85),
        unit: "",
        source: "DESIGN.md §5 (vii): SMF > 0.85",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig09_fig10.as_ref()?;
            similarity(
                "SMF",
                f.triple_smf,
                f.triple_converged,
                Some(f.triple_generations),
            )
        },
    },
    Claim {
        id: "f9_gain",
        figure: Figure::Fig09Fig10,
        what: "24 KB-class gain over the 64-bit worst case (victim rows)",
        paper: "+16 %",
        tolerance: Tolerance::Within(8.0, 32.0),
        unit: " %",
        source: "DESIGN.md §5 (iv), within 2×",
        kind: Kind::Magnitude,
        measure: |r, _| {
            let f = r.fig09_fig10.as_ref()?;
            let v = gain(f.triple_ce, f.word64_ce);
            measured(v, format!("{v:+.1} %"))
        },
    },
    Claim {
        id: "f9_structure",
        figure: Figure::Fig09Fig10,
        what: "winner charges the victim row and discharges its neighbours (least-aligned row's \
               fraction in its role)",
        paper: "implied by §V-A.2",
        tolerance: Tolerance::Above(0.5),
        unit: "",
        source: "paper §V-A.2: a majority of each row's cells in its role",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig09_fig10.as_ref()?;
            let words = &f.triple_words;
            let n = f.row_words;
            let charged = |range: std::ops::Range<usize>| {
                Some(Fig0910Report::charged_fraction(words.get(range)?))
            };
            let (prev, victim, next) = (charged(0..n)?, charged(n..2 * n)?, charged(2 * n..3 * n)?);
            measured(
                victim.min(1.0 - prev).min(1.0 - next),
                format!(
                    "victim {:.0} % charged; neighbours {:.0} % / {:.0} % charged",
                    victim * 100.0,
                    prev * 100.0,
                    next * 100.0
                ),
            )
        },
    },
    Claim {
        id: "f10_no_gain",
        figure: Figure::Fig09Fig10,
        what: "512 KB-class gains nothing over 24 KB (no cross-bank coupling)",
        paper: "max does not exceed",
        tolerance: Tolerance::Within(-8.0, 8.0),
        unit: " %",
        source: "DESIGN.md §5 (v), under half of (iv)'s +16 %",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig09_fig10.as_ref()?;
            let v = gain(f.chunks_ce, f.triple_ce);
            measured(
                v,
                format!(
                    "{v:+.2} %; SMF {:.2}, {}",
                    f.chunks_smf,
                    converged(f.chunks_converged)
                ),
            )
        },
    },
    // Figs. 11 & 12.
    Claim {
        id: "f11_gain",
        figure: Figure::Fig11Fig12,
        what: "access template 1 gain over the worst data pattern",
        paper: "+71 %",
        tolerance: Tolerance::Within(35.5, 142.0),
        unit: " %",
        source: "DESIGN.md §5 (vi), within 2×",
        kind: Kind::Magnitude,
        measure: |r, _| {
            let f = r.fig11_fig12.as_ref()?;
            let v = gain(f.row_access_ce, f.data_pattern_ce);
            measured(v, format!("{v:+.1} %"))
        },
    },
    Claim {
        id: "f11_not_converged",
        figure: Figure::Fig11Fig12,
        what: "template 1 does **not** converge",
        paper: "SMF 0.5",
        tolerance: Tolerance::AtMost(0.85),
        unit: "",
        source: "DESIGN.md §5 (vii): access searches do not converge",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig11_fig12.as_ref()?;
            similarity("SMF", f.row_access_smf, f.row_access_converged, None)
        },
    },
    Claim {
        id: "f12_between",
        figure: Figure::Fig11Fig12,
        what: "template 2 (strides) sits between the data pattern and template 1 (position \
               from data = 0 to template 1 = 1)",
        paper: "+10 % over data, below t1",
        tolerance: Tolerance::Between(0.0, 1.0),
        unit: "",
        source: "DESIGN.md §5 (vi)",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig11_fig12.as_ref()?;
            let position =
                (f.stride_ce - f.data_pattern_ce) / (f.row_access_ce - f.data_pattern_ce);
            measured(
                position,
                format!(
                    "{position:.2}: {:+.1} % over data, {:+.1} % vs template 1",
                    gain(f.stride_ce, f.data_pattern_ce),
                    gain(f.stride_ce, f.row_access_ce)
                ),
            )
        },
    },
    Claim {
        id: "f12_not_converged",
        figure: Figure::Fig11Fig12,
        what: "template 2 similarity stays low",
        paper: "JW 0.45",
        tolerance: Tolerance::AtMost(0.85),
        unit: "",
        source: "DESIGN.md §5 (vii): access searches do not converge",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig11_fig12.as_ref()?;
            similarity("JW", f.stride_jw, f.stride_converged, None)
        },
    },
    // Fig. 13.
    Claim {
        id: "f13a_normal",
        figure: Figure::Fig13,
        what: "random data-pattern CEs pass D'Agostino–Pearson (p-value)",
        paper: "normal",
        tolerance: Tolerance::AtLeast(0.05),
        unit: "",
        source: "DESIGN.md §5 (viii), α = 0.05",
        kind: Kind::Shape,
        measure: |r, _| normality(&r.fig13.as_ref()?.data_patterns),
    },
    Claim {
        id: "f13a_p_better",
        figure: Figure::Fig13,
        what: "P(a better data pattern than the GA's exists)",
        paper: "4×10⁻⁷",
        tolerance: Tolerance::AtMost(4e-7),
        unit: "",
        source: "paper abstract: found with probability 1 − 4×10⁻⁷",
        kind: Kind::Magnitude,
        measure: |r, _| p_better(&r.fig13.as_ref()?.data_patterns),
    },
    Claim {
        id: "f13b_normal",
        figure: Figure::Fig13,
        what: "random access-pattern CEs pass D'Agostino–Pearson (p-value)",
        paper: "normal",
        tolerance: Tolerance::AtLeast(0.05),
        unit: "",
        source: "DESIGN.md §5 (viii), α = 0.05",
        kind: Kind::Shape,
        measure: |r, _| normality(&r.fig13.as_ref()?.access_patterns),
    },
    Claim {
        id: "f13b_p_better",
        figure: Figure::Fig13,
        what: "P(a better access pattern than the GA's exists)",
        paper: "0.05",
        tolerance: Tolerance::AtMost(0.05),
        unit: "",
        source: "paper abstract: found with probability 0.95",
        kind: Kind::Magnitude,
        measure: |r, _| p_better(&r.fig13.as_ref()?.access_patterns),
    },
    Claim {
        id: "f13_order",
        figure: Figure::Fig13,
        what: "a better access pattern is likelier than a better data pattern \
               (P(access) − P(data))",
        paper: "0.05 > 4×10⁻⁷",
        tolerance: Tolerance::Above(0.0),
        unit: "",
        source: "DESIGN.md §5 (viii): the tail-probability ordering",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig13.as_ref()?;
            let (access, data) = (
                f.access_patterns.p_better_exists,
                f.data_patterns.p_better_exists,
            );
            measured(access - data, format!("{access:.1e} vs {data:.1e}"))
        },
    },
    // Fig. 14.
    Claim {
        id: "f14_temperature",
        figure: Figure::Fig14,
        what: "margins shrink with temperature (series that rise, of 6)",
        paper: "yes",
        tolerance: Tolerance::Equals(0.0),
        unit: "",
        source: "paper Fig. 14",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig14.as_ref()?;
            let rising = FAMILIES
                .iter()
                .flat_map(|&family| {
                    [SafetyCriterion::NoErrors, SafetyCriterion::NoUncorrectable]
                        .map(move |c| (family, c))
                })
                .filter(|&(family, c)| {
                    TEMPS
                        .windows(2)
                        .any(|t| margin(f, family, t[1], c) > margin(f, family, t[0], c))
                })
                .count();
            measured(rising as f64, format!("{rising} of 6 series rise"))
        },
    },
    Claim {
        id: "f14_order",
        figure: Figure::Fig14,
        what: "no-error margin order access ≤ 24 KB ≤ 64-bit (temperatures where it breaks, of 3)",
        paper: "yes",
        tolerance: Tolerance::Equals(0.0),
        unit: "",
        source: "DESIGN.md §5 (ix)",
        kind: Kind::ExpectedDeviation {
            reason: ROW_TRIPLE_FILL,
        },
        measure: |r, _| {
            let f = r.fig14.as_ref()?;
            let at = |family, temp| margin(f, family, temp, SafetyCriterion::NoErrors);
            let broken = TEMPS
                .iter()
                .filter(|&&t| {
                    !(at(VirusFamily::RowAccess, t) <= at(VirusFamily::RowTriple, t)
                        && at(VirusFamily::RowTriple, t) <= at(VirusFamily::Word64, t))
                })
                .count();
            let cells: Vec<String> = TEMPS
                .iter()
                .map(|&t| {
                    format!(
                        "{t:.0} °C {:.3} / {:.3} / {:.3} s",
                        at(VirusFamily::RowAccess, t),
                        at(VirusFamily::RowTriple, t),
                        at(VirusFamily::Word64, t)
                    )
                })
                .collect();
            measured(
                broken as f64,
                format!(
                    "{broken} of 3; access / 24 KB / 64-bit: {}",
                    cells.join("; ")
                ),
            )
        },
    },
    Claim {
        id: "f14_ue_margins",
        figure: Figure::Fig14,
        what:
            "UE-only margins exceed no-error margins (virus × temperature points where not, of 9)",
        paper: "yes",
        tolerance: Tolerance::Equals(0.0),
        unit: "",
        source: "DESIGN.md §5 (ix)",
        kind: Kind::Shape,
        measure: |r, _| {
            let f = r.fig14.as_ref()?;
            let not = FAMILIES
                .iter()
                .flat_map(|&family| TEMPS.map(move |t| (family, t)))
                .filter(|&(family, t)| {
                    margin(f, family, t, SafetyCriterion::NoUncorrectable).partial_cmp(&margin(
                        f,
                        family,
                        t,
                        SafetyCriterion::NoErrors,
                    )) != Some(Ordering::Greater)
                })
                .count();
            measured(not as f64, format!("{not} of 9"))
        },
    },
    Claim {
        id: "f14_dram_savings",
        figure: Figure::Fig14,
        what: "DRAM energy savings at the no-error margin (50 °C)",
        paper: "17.7 %",
        tolerance: Tolerance::AtLeast(10.0),
        unit: " %",
        source: "DESIGN.md §5 (ix): double-digit savings",
        kind: Kind::Magnitude,
        measure: |r, _| savings(r, |s| s.dram_savings),
    },
    Claim {
        id: "f14_system_savings",
        figure: Figure::Fig14,
        what: "system energy savings at the no-error margin (50 °C)",
        paper: "8.6 %",
        tolerance: Tolerance::Within(4.3, 17.2),
        unit: " %",
        source: "paper Fig. 14, within 2×",
        kind: Kind::Magnitude,
        measure: |r, _| savings(r, |s| s.system_savings),
    },
];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dstress_dram::geometry::RowKey;

    fn claim(id: &str) -> &'static Claim {
        CLAIMS.iter().find(|c| c.id == id).expect("claim exists")
    }

    /// A hand-built Figs. 9/10 report: the 24 KB winner is `triple_ce`
    /// against a 64-bit reference of 100.
    fn fig0910(triple_ce: f64) -> Reports {
        Reports {
            fig09_fig10: Some(Fig0910Report {
                victims: vec![RowKey::new(0, 0, 13)],
                word64_ce: 100.0,
                triple_ce,
                triple_smf: 0.9,
                triple_converged: true,
                triple_generations: 40,
                chunks_ce: 250.0,
                chunks_smf: 0.8,
                chunks_converged: false,
                triple_words: [
                    0xCCCC_CCCC_CCCC_CCCC,
                    0x3333_3333_3333_3333,
                    0xCCCC_CCCC_CCCC_CCCC,
                ]
                .to_vec(),
                row_words: 1,
            }),
            ..Reports::default()
        }
    }

    #[test]
    fn verdicts_follow_the_tolerance_edges() {
        let scale = ExperimentScale::quick();
        let gain = claim("f9_gain");
        assert_eq!(gain.tolerance, Tolerance::Within(8.0, 32.0));
        // +16 % is the paper's value; +8 % and +32 % are the edges.
        for (triple, verdict) in [
            (116.0, Verdict::Pass),
            (108.01, Verdict::Pass),
            (131.99, Verdict::Pass),
            (107.99, Verdict::Fail),
            (132.01, Verdict::Fail),
        ] {
            let (m, v) = gain.check(&fig0910(triple), &scale);
            assert_eq!(v, verdict, "triple {triple}: {m:?}");
        }
        // Hand-built structure: victim fully charged, neighbours fully
        // discharged.
        let (m, v) = claim("f9_structure").check(&fig0910(116.0), &scale);
        assert_eq!(v, Verdict::Pass);
        assert_eq!(m.unwrap().value, 1.0);
        // 512 KB at 250 over a 24 KB of 116 is a +115 % "gain": FAIL.
        assert_eq!(
            claim("f10_no_gain").check(&fig0910(116.0), &scale).1,
            Verdict::Fail
        );
        assert_eq!(
            claim("f10_no_gain").check(&fig0910(250.0), &scale).1,
            Verdict::Pass
        );
        // Claims of figures that did not run are not graded.
        assert_eq!(
            claim("f8c_ratio").check(&fig0910(116.0), &scale).1,
            Verdict::NotRun
        );
    }

    /// A hand-built Fig. 14 report: every no-error margin falls with
    /// temperature and the three viruses tie, except the 24 KB virus's
    /// 50 °C margin, which is `triple_50c`.
    pub(crate) fn fig14_report(triple_50c: f64) -> Reports {
        use dstress::experiments::fig14::MarginPoint;
        let point = |family, temp_c, criterion, marginal_trefp_s| MarginPoint {
            family,
            temp_c,
            criterion,
            marginal_trefp_s,
        };
        Reports {
            fig14: Some(Fig14Report {
                points: FAMILIES
                    .iter()
                    .flat_map(|&family| {
                        TEMPS.map(move |t| {
                            let m = if family == VirusFamily::RowTriple && t == 50.0 {
                                triple_50c
                            } else {
                                0.3 - t / 1000.0
                            };
                            [
                                point(family, t, SafetyCriterion::NoErrors, m),
                                point(family, t, SafetyCriterion::NoUncorrectable, 2.0),
                            ]
                        })
                    })
                    .flatten()
                    .collect(),
                savings: vec![],
            }),
            ..Reports::default()
        }
    }

    #[test]
    fn expected_deviations_read_as_such_only_when_they_miss() {
        let report = fig14_report;
        let scale = ExperimentScale::quick();
        let order = claim("f14_order");
        assert!(matches!(order.kind, Kind::ExpectedDeviation { .. }));
        // Equal margins keep the order: PASS.
        assert_eq!(order.check(&report(0.25), &scale).1, Verdict::Pass);
        // The 24 KB margin just above the 64-bit one breaks it.
        let (m, v) = order.check(&report(0.2501), &scale);
        assert_eq!(v, Verdict::ExpectedDeviation, "{m:?}");
        assert!(m.unwrap().text.starts_with("1 of 3"));
        assert_eq!(
            claim("f14_ue_margins").check(&report(0.25), &scale).1,
            Verdict::Pass
        );
        assert_eq!(
            claim("f14_temperature").check(&report(0.25), &scale).1,
            Verdict::Pass
        );
        // A 24 KB margin that rises from 50 to 60 °C is a Shape FAIL.
        assert_eq!(
            claim("f14_temperature").check(&report(0.1), &scale).1,
            Verdict::Fail
        );
    }

    #[test]
    fn claim_ids_are_unique_and_every_tolerance_cites_a_source() {
        let mut ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CLAIMS.len());
        for c in CLAIMS {
            assert!(
                c.source.starts_with("paper") || c.source.starts_with("DESIGN.md §5 ("),
                "{}: {}",
                c.id,
                c.source
            );
        }
    }

    #[test]
    fn tolerances_describe_their_bounds() {
        assert_eq!(Tolerance::AtMost(4e-7).describe(""), "≤ 4e-7");
        assert_eq!(Tolerance::Within(8.0, 32.0).describe(" %"), "8 % to 32 %");
        assert_eq!(Tolerance::Equals(40.0).describe(""), "= 40");
        assert!(!Tolerance::AtLeast(0.85).admits(f64::NAN));
    }
}
