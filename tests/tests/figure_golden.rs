//! Golden pins for the figure reports: at quick scale with the campaign
//! seed, each pinned figure's report JSON (as `all_figures` archives it)
//! must hash to the same FNV-1a value, and so must the victim rows that
//! `DStress::profile_victims` returns. A refactor of the evaluation
//! pipeline that moves any measured number shows up here, even when no
//! claim verdict flips.
//!
//! A change that moves a pin lists old → new in CHANGES.md and says why.

use dstress::{DStress, ExperimentScale, WORST_WORD};
use dstress_bench::figures::{Figure, Reports};
use dstress_bench::CAMPAIGN_SEED;

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Each figure's `--only` key and the FNV-1a of its quick-scale report
/// JSON, in [`Figure::ALL`]'s run order, so every figure runs after the
/// figures it reads.
const FIGURE_PINS: &[(Figure, u64)] = &[
    (Figure::GaParams, 0x1c35_b610_b844_828a),
    (Figure::Fig01b, 0x732f_2299_7389_b729),
    (Figure::Fig02Mapping, 0x6af4_2bb7_a253_312f),
    (Figure::Fig08, 0x2cb6_25af_673d_5694),
    (Figure::Fig09Fig10, 0xaaa7_1b30_0ea3_f02a),
    (Figure::Fig11Fig12, 0xc81d_5c26_6a6f_ffdf),
    (Figure::Fig13, 0x428f_39ae_1631_de09),
    (Figure::Fig14, 0x3e39_4a32_791b_2a6c),
    (Figure::MarchComparison, 0x7df3_8d56_02f9_a153),
    (Figure::Rowhammer, 0x4c08_53a3_e51d_e4a1),
    (Figure::RetentionProfile, 0xcb0d_1966_b5e3_3da2),
    (Figure::SdcAccounting, 0xb509_dcdc_6a85_708b),
    (Figure::AblationStudy, 0xd4b6_e2ca_dc68_927e),
];

/// FNV-1a of the JSON of `profile_victims(60.0, WORST_WORD)`'s rows.
const VICTIM_ROWS_PIN: u64 = 0x9d0b_f6f0_4b2e_d996;

#[test]
fn quick_scale_figure_reports_match_their_pins() {
    let scale = ExperimentScale::quick();
    let mut reports = Reports::default();
    let mut moved = Vec::new();
    for &(figure, pin) in FIGURE_PINS {
        reports.run(figure, scale, CAMPAIGN_SEED).unwrap();
        let json = reports.json(figure).expect("the figure ran");
        let got = fnv(json.as_bytes());
        if got != pin {
            moved.push(format!(
                "{}: {got:#018x} (pinned {pin:#018x})",
                figure.key()
            ));
        }
    }
    assert!(moved.is_empty(), "moved figure pins:\n{}", moved.join("\n"));
}

#[test]
fn quick_scale_victim_rows_match_their_pin() {
    let mut dstress = DStress::new(ExperimentScale::quick(), CAMPAIGN_SEED);
    let rows = dstress.profile_victims(60.0, WORST_WORD).unwrap();
    assert!(!rows.is_empty());
    let got = fnv(serde_json::to_string(&rows).unwrap().as_bytes());
    assert_eq!(got, VICTIM_ROWS_PIN, "victim rows pin moved: {got:#018x}");
}
