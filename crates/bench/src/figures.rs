//! The figure registry: one key per table or figure, the order they run in,
//! the reports they pass to each other, and their JSON archive.

use dstress::experiments::ablation::{self, AblationReport};
use dstress::experiments::efficiency::{self, Fig13Report};
use dstress::experiments::fig01b::{self, Fig01bReport};
use dstress::experiments::fig02::{self, MappingReport};
use dstress::experiments::fig08::{self, Fig08Report};
use dstress::experiments::fig09_fig10::{self, Fig0910Report};
use dstress::experiments::fig11_fig12::{self, Fig1112Report};
use dstress::experiments::fig14::{self, Fig14Report};
use dstress::experiments::ga_params::{self, GaParamsReport};
use dstress::experiments::march_comparison::{self, MarchReport};
use dstress::experiments::retention::{self, RetentionReport};
use dstress::experiments::rowhammer::{self, RowhammerReport};
use dstress::experiments::sdc::{self, SdcReport};
use dstress::{DStressError, ExperimentScale};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;

/// One table or figure the runner can regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Figure {
    /// §V GA-parameter calibration (popcount fitness).
    GaParams,
    /// Fig. 1b: workload-dependent error distribution.
    Fig01b,
    /// Fig. 2: the address mapping.
    Fig02Mapping,
    /// Fig. 8a–e: the 64-bit data-pattern searches.
    Fig08,
    /// Figs. 9 & 10: the 24 KB-class and 512 KB-class searches.
    Fig09Fig10,
    /// Figs. 11 & 12: the access-pattern searches.
    Fig11Fig12,
    /// Fig. 13: GA efficiency against random viruses.
    Fig13,
    /// Fig. 14: operating-parameter margins and savings.
    Fig14,
    /// Extension: MARCH tests against the synthesized virus.
    MarchComparison,
    /// Extension: cached vs clflush rowhammer regimes.
    Rowhammer,
    /// Extension: retention profiling under worst vs benign fill.
    RetentionProfile,
    /// Extension: silent-data-corruption accounting.
    SdcAccounting,
    /// Extension: design-choice ablations.
    AblationStudy,
}

impl Figure {
    /// Every figure in run order: each runs after the figures it reads.
    pub const ALL: [Figure; 13] = [
        Figure::GaParams,
        Figure::Fig01b,
        Figure::Fig02Mapping,
        Figure::Fig08,
        Figure::Fig09Fig10,
        Figure::Fig11Fig12,
        Figure::Fig13,
        Figure::Fig14,
        Figure::MarchComparison,
        Figure::Rowhammer,
        Figure::RetentionProfile,
        Figure::SdcAccounting,
        Figure::AblationStudy,
    ];

    /// The `--only` key, which is also the report's JSON file stem.
    pub fn key(self) -> &'static str {
        match self {
            Figure::GaParams => "ga_params",
            Figure::Fig01b => "fig01b",
            Figure::Fig02Mapping => "fig02_mapping",
            Figure::Fig08 => "fig08",
            Figure::Fig09Fig10 => "fig09_fig10",
            Figure::Fig11Fig12 => "fig11_fig12",
            Figure::Fig13 => "fig13",
            Figure::Fig14 => "fig14",
            Figure::MarchComparison => "march_comparison",
            Figure::Rowhammer => "rowhammer",
            Figure::RetentionProfile => "retention_profile",
            Figure::SdcAccounting => "sdc_accounting",
            Figure::AblationStudy => "ablation_study",
        }
    }

    /// The figures whose reports this one reads: the Fig. 9 winner is
    /// Fig. 11's reference, and the Fig. 8 / Fig. 11 winners are what
    /// Fig. 13's random samples are compared against.
    pub fn dependencies(self) -> &'static [Figure] {
        match self {
            Figure::Fig11Fig12 => &[Figure::Fig09Fig10],
            Figure::Fig13 => &[Figure::Fig08, Figure::Fig11Fig12],
            _ => &[],
        }
    }
}

/// Parses an `--only` list (`key[,key…]`) into the figures to run: the
/// named ones and everything they depend on, in run order.
///
/// # Errors
///
/// Names the unknown key and lists the valid ones.
pub fn parse_only(list: &str) -> Result<Vec<Figure>, String> {
    fn select(figure: Figure, selected: &mut BTreeSet<Figure>) {
        if selected.insert(figure) {
            for &dep in figure.dependencies() {
                select(dep, selected);
            }
        }
    }
    let mut selected = BTreeSet::new();
    for key in list.split(',').map(str::trim) {
        let figure = Figure::ALL
            .into_iter()
            .find(|f| f.key() == key)
            .ok_or_else(|| {
                let keys: Vec<&str> = Figure::ALL.iter().map(|f| f.key()).collect();
                format!("unknown figure `{key}`; valid keys: {}", keys.join(", "))
            })?;
        select(figure, &mut selected);
    }
    Ok(Figure::ALL
        .into_iter()
        .filter(|f| selected.contains(f))
        .collect())
}

/// A typed figure report: serializable, and printable as the text the
/// runner shows for it.
trait Report: Serialize + Deserialize {
    fn text(&self) -> String;
}

macro_rules! reports {
    ($($ty:ty),* $(,)?) => {
        $(impl Report for $ty {
            fn text(&self) -> String {
                self.render()
            }
        })*
    };
}

reports!(
    GaParamsReport,
    Fig01bReport,
    MappingReport,
    Fig08Report,
    Fig0910Report,
    Fig1112Report,
    Fig13Report,
    Fig14Report,
    MarchReport,
    RowhammerReport,
    RetentionReport,
    SdcReport,
    AblationReport,
);

/// One figure's place in [`Reports`], whatever its report type.
trait Slot {
    fn text(&self) -> Option<String>;
    fn json(&self) -> Option<String>;
    fn parse(&mut self, json: &str) -> Result<(), String>;
}

impl<R: Report> Slot for Option<R> {
    fn text(&self) -> Option<String> {
        self.as_ref().map(Report::text)
    }

    fn json(&self) -> Option<String> {
        self.as_ref()
            .map(|r| serde_json::to_string_pretty(r).expect("figure reports serialize"))
    }

    fn parse(&mut self, json: &str) -> Result<(), String> {
        *self = Some(serde_json::from_str(json).map_err(|e| e.to_string())?);
        Ok(())
    }
}

/// Every figure's typed report; `None` where the figure has not run.
#[derive(Debug, Clone, Default, PartialEq)]
#[allow(missing_docs)]
pub struct Reports {
    pub ga_params: Option<GaParamsReport>,
    pub fig01b: Option<Fig01bReport>,
    pub fig02_mapping: Option<MappingReport>,
    pub fig08: Option<Fig08Report>,
    pub fig09_fig10: Option<Fig0910Report>,
    pub fig11_fig12: Option<Fig1112Report>,
    pub fig13: Option<Fig13Report>,
    pub fig14: Option<Fig14Report>,
    pub march_comparison: Option<MarchReport>,
    pub rowhammer: Option<RowhammerReport>,
    pub retention_profile: Option<RetentionReport>,
    pub sdc_accounting: Option<SdcReport>,
    pub ablation_study: Option<AblationReport>,
}

fn dependency<R>(report: &Option<R>, figure: Figure) -> Result<&R, DStressError> {
    report.as_ref().ok_or_else(|| {
        DStressError::Experiment(format!(
            "{} runs after {:?}",
            figure.key(),
            figure.dependencies()
        ))
    })
}

impl Reports {
    /// Runs one figure at `scale` with campaign seed `seed`, reading the
    /// reports of its [dependencies](Figure::dependencies) from `self`.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's failure, or names a dependency that has
    /// not run.
    pub fn run(
        &mut self,
        figure: Figure,
        scale: ExperimentScale,
        seed: u64,
    ) -> Result<(), DStressError> {
        let quick = scale.name == "quick";
        match figure {
            Figure::GaParams => {
                self.ga_params = Some(ga_params::run(if quick { 3 } else { 10 }));
            }
            Figure::Fig01b => self.fig01b = Some(fig01b::run(scale, seed)?),
            Figure::Fig02Mapping => self.fig02_mapping = Some(fig02::run()?),
            Figure::Fig08 => self.fig08 = Some(fig08::run(scale, seed)?),
            Figure::Fig09Fig10 => self.fig09_fig10 = Some(fig09_fig10::run(scale, seed)?),
            Figure::Fig11Fig12 => {
                let reference = dependency(&self.fig09_fig10, figure)?.triple_ce;
                self.fig11_fig12 = Some(fig11_fig12::run(scale, seed, reference)?);
            }
            Figure::Fig13 => {
                let data = dependency(&self.fig08, figure)?.ga_worst_ce;
                let access = dependency(&self.fig11_fig12, figure)?.row_access_ce;
                self.fig13 = Some(efficiency::run(scale, seed, data, access)?);
            }
            Figure::Fig14 => self.fig14 = Some(fig14::run(scale, seed)?),
            Figure::MarchComparison => {
                self.march_comparison = Some(march_comparison::run(scale, seed)?);
            }
            Figure::Rowhammer => self.rowhammer = Some(rowhammer::run(scale, seed)?),
            Figure::RetentionProfile => {
                self.retention_profile = Some(retention::run(scale, seed)?);
            }
            Figure::SdcAccounting => self.sdc_accounting = Some(sdc::run(scale, seed)?),
            Figure::AblationStudy => {
                self.ablation_study = Some(ablation::run(scale, if quick { 3 } else { 8 })?);
            }
        }
        Ok(())
    }

    fn slot(&self, figure: Figure) -> &dyn Slot {
        match figure {
            Figure::GaParams => &self.ga_params,
            Figure::Fig01b => &self.fig01b,
            Figure::Fig02Mapping => &self.fig02_mapping,
            Figure::Fig08 => &self.fig08,
            Figure::Fig09Fig10 => &self.fig09_fig10,
            Figure::Fig11Fig12 => &self.fig11_fig12,
            Figure::Fig13 => &self.fig13,
            Figure::Fig14 => &self.fig14,
            Figure::MarchComparison => &self.march_comparison,
            Figure::Rowhammer => &self.rowhammer,
            Figure::RetentionProfile => &self.retention_profile,
            Figure::SdcAccounting => &self.sdc_accounting,
            Figure::AblationStudy => &self.ablation_study,
        }
    }

    fn slot_mut(&mut self, figure: Figure) -> &mut dyn Slot {
        match figure {
            Figure::GaParams => &mut self.ga_params,
            Figure::Fig01b => &mut self.fig01b,
            Figure::Fig02Mapping => &mut self.fig02_mapping,
            Figure::Fig08 => &mut self.fig08,
            Figure::Fig09Fig10 => &mut self.fig09_fig10,
            Figure::Fig11Fig12 => &mut self.fig11_fig12,
            Figure::Fig13 => &mut self.fig13,
            Figure::Fig14 => &mut self.fig14,
            Figure::MarchComparison => &mut self.march_comparison,
            Figure::Rowhammer => &mut self.rowhammer,
            Figure::RetentionProfile => &mut self.retention_profile,
            Figure::SdcAccounting => &mut self.sdc_accounting,
            Figure::AblationStudy => &mut self.ablation_study,
        }
    }

    /// The figure's printed text, if it has run.
    pub fn text(&self, figure: Figure) -> Option<String> {
        self.slot(figure).text()
    }

    /// The figure's report as pretty JSON, if it has run.
    pub fn json(&self, figure: Figure) -> Option<String> {
        self.slot(figure).json()
    }

    /// Loads every `<key>.json` report present in `dir`.
    ///
    /// # Errors
    ///
    /// Names the file that cannot be read or parsed.
    pub fn load(dir: &Path) -> Result<Reports, String> {
        let mut reports = Reports::default();
        for figure in Figure::ALL {
            let path = dir.join(format!("{}.json", figure.key()));
            if !path.exists() {
                continue;
            }
            let json =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            reports
                .slot_mut(figure)
                .parse(&json)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(reports)
    }
}

/// What one runner invocation was: `results/run.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunInfo {
    /// `git describe --always --dirty` of the source tree, or `unknown`.
    pub commit: String,
    /// The experiment scale's name.
    pub scale: String,
    /// The campaign seed.
    pub seed: u64,
    /// Hardware threads available to the run.
    pub nproc: usize,
    /// `(figure key, wall-clock seconds)` in run order.
    pub wall_s: Vec<(String, f64)>,
}

impl RunInfo {
    /// The experiment scale this run used.
    pub fn experiment_scale(&self) -> ExperimentScale {
        if self.scale == "quick" {
            ExperimentScale::quick()
        } else {
            ExperimentScale::paper()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_accepts_every_key_and_adds_dependencies_in_run_order() {
        for figure in Figure::ALL {
            let run = parse_only(figure.key()).unwrap();
            assert_eq!(run.last(), Some(&figure), "{}", figure.key());
            for dep in figure.dependencies() {
                assert!(run.contains(dep), "{} needs {}", figure.key(), dep.key());
            }
        }
        assert_eq!(
            parse_only("fig13").unwrap(),
            [
                Figure::Fig08,
                Figure::Fig09Fig10,
                Figure::Fig11Fig12,
                Figure::Fig13
            ]
        );
        assert_eq!(
            parse_only("rowhammer, ga_params,rowhammer").unwrap(),
            [Figure::GaParams, Figure::Rowhammer]
        );
    }

    #[test]
    fn only_rejects_unknown_keys_listing_the_valid_ones() {
        for bad in ["fig09_10", "fig08,fig99", "", "fig08,"] {
            let err = parse_only(bad).unwrap_err();
            assert!(err.starts_with("unknown figure"), "{bad}: {err}");
            for figure in Figure::ALL {
                assert!(err.contains(figure.key()), "{err}");
            }
        }
    }

    #[test]
    fn reports_round_trip_through_json() {
        let mut reports = Reports::default();
        reports
            .run(Figure::Fig02Mapping, ExperimentScale::quick(), 1)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("dstress-figures-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = reports.json(Figure::Fig02Mapping).unwrap();
        std::fs::write(dir.join("fig02_mapping.json"), json).unwrap();
        let loaded = Reports::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded, reports);
        assert_eq!(loaded.text(Figure::Fig08), None);
    }
}
