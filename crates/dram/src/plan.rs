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
//! evaluates the VRT-contingent cells for up to [`MAX_LANES`] runs at once;
//! callers account for the static events once per plan. The per-window
//! cost therefore collapses from "retention physics for every weak cell"
//! to "a hash per VRT cell per run", and the VRT-contingent subset is tiny
//! (most VRT cells are statically safe or statically failing in *both*
//! states at any given operating point). Per lane, the kernel's events
//! merged with [`RunPlan::static_events`] in location order are
//! bit-identical to the per-cell loop
//! ([`crate::Dimm::advance_window_profiled`], the reference oracle) at the
//! same window nonce, because the plan evaluates the exact same
//! floating-point expressions at build time.
//!
//! The VRT-contingent cells are stored structure-of-arrays style
//! (`RunPlan::bit_masks` / `RunPlan::bit_indices` et al.) with per-word
//! ranges, mirroring the flattened cell cache inside [`crate::Dimm`].

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

/// One lane's flips in one VRT word during one window: the word's index in
/// [`RunPlan::vrt_word_sites`] and the mask of its data bits that flipped.
/// The lane kernel emits these instead of full [`WordEvent`]s; a caller
/// resolves the word's location and contents once per plan, not per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VrtEvent {
    /// Index of the word in [`RunPlan::vrt_word_sites`].
    pub word: u32,
    /// Mask of data bits that flipped this window (never zero).
    pub flip_mask: u64,
}

/// One weak word with at least one VRT-contingent cell: its static base
/// flip mask plus the range of contingent bits in the plan's flat arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VrtWord {
    /// The word these cells live in.
    pub(crate) loc: Location,
    /// Contents of the word, captured at plan-build time.
    pub(crate) written: u64,
    /// Flip mask of the word's statically-failing cells.
    pub(crate) base_mask: u64,
    /// Start of this word's contingent bits in the flat arrays.
    pub(crate) bits_start: u32,
    /// One past the end of this word's contingent bits.
    pub(crate) bits_end: u32,
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

    /// The location and plan-time contents of each word with VRT-contingent
    /// cells, in population order; [`VrtEvent::word`] indexes this.
    pub fn vrt_word_sites(&self) -> impl ExactSizeIterator<Item = (Location, u64)> + '_ {
        self.vrt_words.iter().map(|word| (word.loc, word.written))
    }

    /// Evaluates one refresh window for up to [`MAX_LANES`] evaluation
    /// lanes at once, emitting **only the VRT-word events** of lane `l`
    /// into `out[l]` (cleared first), as compact [`VrtEvent`]s. Static
    /// events are invariant across lanes and windows; batched callers
    /// account for them through a precomputed summary of
    /// [`RunPlan::static_events`] instead of re-materializing them per
    /// lane.
    ///
    /// `nonces[l]` is lane `l`'s window nonce; a lane is evaluated only
    /// when bit `l` of `live` is set (dead lanes — runs already stopped on
    /// an uncorrectable error — keep an empty buffer). The cell loop is
    /// outer and the lane loop inner: each VRT-contingent cell's Bernoulli
    /// draws for all live lanes are packed into one `u64` lane mask, then
    /// scattered into per-lane flip masks, so one pass over the flat SoA
    /// serves the whole batch.
    ///
    /// Per lane, the emitted events, resolved through
    /// [`RunPlan::vrt_word_sites`] and merged with
    /// [`RunPlan::static_events`] in location order, are bit-identical to
    /// [`crate::Dimm::advance_window_profiled`] at the same nonce: the
    /// same `vrt_degraded` draws, and the same flip verdicts the plan
    /// build took from the reference expressions.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_LANES`] lanes are requested or the buffer
    /// count does not match the nonce count.
    pub fn advance_window_vrt_lanes(
        &self,
        seed: u64,
        nonces: &[u64],
        live: u64,
        out: &mut [Vec<VrtEvent>],
    ) {
        assert!(nonces.len() <= MAX_LANES, "at most {MAX_LANES} lanes");
        assert_eq!(nonces.len(), out.len(), "one event buffer per lane");
        for buf in out.iter_mut() {
            buf.clear();
        }
        let live = if nonces.len() == MAX_LANES {
            live
        } else {
            live & ((1u64 << nonces.len()) - 1)
        };
        if live == 0 {
            return;
        }
        let mut lane_masks = [0u64; MAX_LANES];
        for (word_index, word) in (0u32..).zip(&self.vrt_words) {
            // Lanes where at least one contingent cell flipped; only their
            // masks differ from the word's base mask.
            let mut flipped = 0u64;
            for i in word.bits_start as usize..word.bits_end as usize {
                let index = self.bit_indices[i];
                let flip_when_degraded = self.bit_flip_when_degraded[i];
                // One u64 of Bernoulli outcomes across the batch: bit `l`
                // set iff lane `l`'s draw flips this cell.
                let mut flipping = 0u64;
                let mut lanes = live;
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    if vrt_degraded(seed, nonces[lane], index, self.vrt_degraded_prob)
                        == flip_when_degraded
                    {
                        flipping |= 1u64 << lane;
                    }
                }
                let mask = self.bit_masks[i];
                let mut lanes = flipping;
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    let before = if flipped & (1u64 << lane) != 0 {
                        lane_masks[lane]
                    } else {
                        word.base_mask
                    };
                    lane_masks[lane] = before | mask;
                }
                flipped |= flipping;
            }
            let mut lanes = if word.base_mask != 0 { live } else { flipped };
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let flip_mask = if flipped & (1u64 << lane) != 0 {
                    lane_masks[lane]
                } else {
                    word.base_mask
                };
                out[lane].push(VrtEvent {
                    word: word_index,
                    flip_mask,
                });
            }
        }
    }
}
