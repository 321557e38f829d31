//! Prepared run plans: the window-evaluation fast path.
//!
//! For a fixed (contents, operating point, disturbance profile), a weak
//! cell's flip decision `effective_retention < trefp` involves no per-window
//! quantity except the VRT state — everything else is invariant across the
//! refresh windows of a run. A [`RunPlan`] is built once per run (see
//! [`crate::Dimm::prepare_run`]) and partitions the weak-cell population
//! into three classes:
//!
//! * **statically failing** — cells that flip in every window. Whole words
//!   of them become pre-built [`WordEvent`]s (`written` captured at plan
//!   time; contents do not change during a run), the same every window of
//!   every run;
//! * **statically safe** — cells that can never flip this run. They are
//!   dropped from the plan entirely and cost nothing per window;
//! * **VRT-contingent** — variable-retention-time cells whose flip decision
//!   differs between the degraded and the healthy state. Only these need
//!   per-window work: one deterministic Bernoulli draw
//!   ([`crate::weak::vrt_degraded`]) and a mask-OR.
//!
//! The one per-window kernel, [`RunPlan::advance_window_vrt_lanes`],
//! evaluates the VRT-contingent cells for up to [`MAX_LANES`] runs at once
//! and writes one `u64` lane mask per cell (bit `l`: lane `l`'s draw flips
//! it); callers account for the static events and base masks once per
//! plan. The per-window cost therefore collapses from "retention physics
//! for every weak cell" to "a hash per VRT cell per run", and the
//! VRT-contingent subset is tiny (most VRT cells are statically safe or
//! statically failing in *both* states at any given operating point). Per
//! lane, the flip masks rebuilt from the lane masks
//! ([`RunPlan::lane_flip_mask`]) merged with [`RunPlan::static_events`] in
//! location order are bit-identical to the per-cell loop
//! ([`crate::Dimm::advance_window_profiled`], the reference oracle) at the
//! same window nonce, because the plan evaluates the exact same
//! floating-point expressions at build time.
//!
//! The VRT-contingent cells are stored structure-of-arrays style
//! (`RunPlan::bit_masks` / `RunPlan::bit_indices` et al.) with per-word
//! ranges into the flat arrays.

use crate::events::WordEvent;
use crate::geometry::Location;
use crate::weak::vrt_degraded;

/// Errors from building or evaluating a [`RunPlan`].
///
/// Every variant is a *programming* error in the calling layer (a plan used
/// after the contents it was built against changed, or a weak-cell
/// population too large for the plan's index width) — never a property of
/// the candidate being evaluated. Callers surfacing this into a fitness
/// fault must classify it as permanent/non-retryable so a supervisor does
/// not retry and quarantine an innocent chromosome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The DIMM contents changed since the plan was built; the plan bakes
    /// in per-cell charge state and written words, so it must be rebuilt
    /// after any write.
    Stale {
        /// Contents generation the plan was built against.
        built: u64,
        /// Current contents generation of the DIMM.
        current: u64,
    },
    /// A flat-array index in the plan under construction does not fit the
    /// plan's `u32` index width (a weak-cell population beyond 2^32 cells).
    IndexOverflow {
        /// Which counter overflowed (`"bits_start"` or `"bits_end"`).
        what: &'static str,
        /// The value that did not fit.
        value: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Stale { built, current } => write!(
                f,
                "stale RunPlan: built against contents generation {built}, \
                 contents are now at generation {current}"
            ),
            PlanError::IndexOverflow { what, value } => write!(
                f,
                "run plan index overflow: {what} = {value} does not fit u32 \
                 (weak-cell population too large for the plan layout)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Maximum number of evaluation lanes one [`RunPlan::advance_window_vrt_lanes`]
/// call can serve: one bit of a `u64` lane mask per candidate-run.
pub const MAX_LANES: usize = 64;

/// One weak word with at least one VRT-contingent cell: its static base
/// flip mask plus the range of contingent cells in the plan's flat arrays
/// (the range [`RunPlan::advance_window_vrt_lanes`] writes its lane masks
/// to).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrtWord {
    /// The word these cells live in.
    pub loc: Location,
    /// Contents of the word, captured at plan-build time.
    pub written: u64,
    /// Flip mask of the word's statically-failing cells.
    pub base_mask: u64,
    /// Start of this word's contingent cells in the flat arrays.
    pub bits_start: u32,
    /// One past the end of this word's contingent cells.
    pub bits_end: u32,
}

impl VrtWord {
    /// The word's contingent cells as a range of flat-array indices.
    pub fn cells(&self) -> std::ops::Range<usize> {
        self.bits_start as usize..self.bits_end as usize
    }
}

/// A prepared evaluation plan for one DIMM and one run
/// (contents × operating point × disturbance profile).
///
/// Build with [`crate::Dimm::prepare_run`], evaluate windows with
/// [`crate::Dimm::advance_window_planned_lanes`]. The plan is tied to the
/// contents generation it was built against; writing to the DIMM
/// invalidates it, and evaluating it then returns [`PlanError::Stale`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Contents generation the plan was built against.
    pub(crate) generation: u64,
    /// Per-window probability of the degraded VRT state.
    pub(crate) vrt_degraded_prob: f64,
    /// Pre-built events for words whose flip mask is window-invariant,
    /// in population (word) order.
    pub(crate) static_events: Vec<WordEvent>,
    /// Words with VRT-contingent cells, in population order.
    pub(crate) vrt_words: Vec<VrtWord>,
    /// Flat per-contingent-cell bit masks (`1 << bit`).
    pub(crate) bit_masks: Vec<u64>,
    /// Flat per-contingent-cell VRT indices (the Bernoulli draw's key).
    pub(crate) bit_indices: Vec<u32>,
    /// Flat per-contingent-cell flip polarity: whether the cell flips in
    /// the *degraded* state (the common case; `false` covers a
    /// `vrt_degraded_mult > 1` configuration where degradation lengthens
    /// retention).
    pub(crate) bit_flip_when_degraded: Vec<bool>,
}

impl RunPlan {
    /// Number of pre-built (window-invariant) word events.
    pub fn static_words(&self) -> usize {
        self.static_events.len()
    }

    /// Number of words carrying at least one VRT-contingent cell.
    pub fn vrt_words(&self) -> usize {
        self.vrt_words.len()
    }

    /// Number of VRT-contingent cells — the only cells doing per-window
    /// work.
    pub fn vrt_cells(&self) -> usize {
        self.bit_masks.len()
    }

    /// The contents generation this plan was built against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pre-built (window-invariant) word events, in population order.
    ///
    /// Batched callers classify these once per plan instead of once per
    /// `(run, window)` — they are byte-identical every window by
    /// construction.
    pub fn static_events(&self) -> &[WordEvent] {
        &self.static_events
    }

    /// The words with VRT-contingent cells, in population (location)
    /// order.
    pub fn vrt_word_sites(&self) -> &[VrtWord] {
        &self.vrt_words
    }

    /// The flat per-contingent-cell bit masks (`1 << bit`), indexed by
    /// [`VrtWord::cells`].
    pub fn vrt_cell_masks(&self) -> &[u64] {
        &self.bit_masks
    }

    /// Lane `lane`'s flip mask of `word` from one window's lane masks (as
    /// [`RunPlan::advance_window_vrt_lanes`] writes them): the word's base
    /// mask plus every contingent cell whose lane-mask bit `lane` is set.
    /// Zero means the lane saw no event in the word.
    pub fn lane_flip_mask(&self, word: &VrtWord, lane_masks: &[u64], lane: usize) -> u64 {
        let cells = word.cells();
        self.bit_masks[cells.clone()]
            .iter()
            .zip(&lane_masks[cells])
            .filter(|&(_, lanes)| lanes >> lane & 1 == 1)
            .fold(word.base_mask, |mask, (bit, _)| mask | bit)
    }

    /// Evaluates one refresh window for up to [`MAX_LANES`] evaluation
    /// lanes at once: `out[i]` (one entry per VRT-contingent cell, in the
    /// order of [`VrtWord::cells`]) becomes the lane mask of cell `i`, bit
    /// `l` set when lane `l`'s draw flips the cell. Static events and base
    /// masks are invariant across lanes and windows, so callers account for
    /// them from the plan, and a word whose one contingent cell flips in
    /// `k` lanes costs a popcount instead of `k` events.
    ///
    /// `nonces[l]` is lane `l`'s window nonce; lane `l`'s bits are set only
    /// when bit `l` of `live` is set (dead lanes — runs already stopped on
    /// an uncorrectable error — never set a bit). Per lane, the flip masks
    /// [`RunPlan::lane_flip_mask`] rebuilds from `out`, merged with
    /// [`RunPlan::static_events`] in location order, are bit-identical to
    /// [`crate::Dimm::advance_window_profiled`] at the same nonce: the same
    /// `vrt_degraded` draws, and the same flip verdicts the plan build took
    /// from the reference expressions.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_LANES`] lanes are requested or `out` does
    /// not hold one mask per VRT-contingent cell.
    pub fn advance_window_vrt_lanes(&self, seed: u64, nonces: &[u64], live: u64, out: &mut [u64]) {
        assert!(nonces.len() <= MAX_LANES, "at most {MAX_LANES} lanes");
        assert_eq!(out.len(), self.bit_masks.len(), "one lane mask per cell");
        let live = match nonces.len() {
            MAX_LANES => live,
            lanes => live & ((1u64 << lanes) - 1),
        };
        let prob = self.vrt_degraded_prob;
        for ((mask, &index), &flip_when_degraded) in out
            .iter_mut()
            .zip(&self.bit_indices)
            .zip(&self.bit_flip_when_degraded)
        {
            // Every lane draws, dead ones included: a dense, branch-free
            // lane loop costs less than skipping the few dead lanes.
            let mut degraded = 0u64;
            for (lane, &nonce) in nonces.iter().enumerate() {
                degraded |= u64::from(vrt_degraded(seed, nonce, index, prob)) << lane;
            }
            let flipping = if flip_when_degraded {
                degraded
            } else {
                !degraded
            };
            *mask = live & flipping;
        }
    }
}
