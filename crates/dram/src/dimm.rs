//! The simulated DIMM: contents, hidden topology, weak cells and the
//! per-refresh-window fault evaluation.

use crate::address::AddressMap;
use crate::contents::RowStore;
use crate::disturb::{ActivationCounts, DisturbanceModel};
use crate::env::OperatingEnv;
use crate::events::WordEvent;
use crate::faults::FaultSet;
use crate::geometry::{DimmGeometry, Location, RowKey};
use crate::plan::{PlanError, RunPlan, VrtWord};
use crate::retention::PhysicsParams;
use crate::topology::{CellKind, Topology, TopologyConfig};
use crate::weak::{vrt_degraded, WeakCellConfig, WeakCellPopulation};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Full configuration of a simulated DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DimmConfig {
    /// Array organization.
    pub geometry: DimmGeometry,
    /// Hidden-layout parameters (scrambling, remapping).
    pub topology: TopologyConfig,
    /// Retention-physics coefficients.
    pub physics: PhysicsParams,
    /// Weak-cell population parameters.
    pub weak: WeakCellConfig,
    /// Row-disturbance coefficients.
    pub disturbance: DisturbanceModel,
    /// The word value unwritten memory reads as.
    pub default_fill: u64,
}

/// Cached per-weak-cell state that depends only on stored data (not on the
/// operating point or on activations): whether the cell is charged and the
/// data-dependent interference multiplier.
///
/// Stored structure-of-arrays style: one flat array per attribute, with
/// `offsets[w]..offsets[w + 1]` covering the cells of weak word `w`. The
/// flat layout keeps the window-evaluation and plan-construction loops on
/// two dense arrays instead of chasing one heap allocation per weak word.
#[derive(Debug, Clone, Default)]
struct CellCache {
    /// Per-word start offsets into the flat arrays (`words + 1` entries).
    offsets: Vec<u32>,
    /// Whether each cell currently holds charge.
    charged: Vec<bool>,
    /// Data-dependent interference multiplier of each cell (1.0 when
    /// discharged).
    interference: Vec<f64>,
}

/// Marks a probe clipped at a row end (bitline neighbour) or at a bank edge
/// (adjacent row).
const NO_PROBE: u32 = u32::MAX;

/// Where the cell-state refresh looks for one weak cell: logical bit
/// positions (word column × 64 + bit) with remapping and per-row scrambling
/// already applied, so a refresh only tests bits of stored words.
#[derive(Debug, Clone, Copy)]
struct CellProbe {
    /// The cell itself, in its own row.
    bit: u32,
    /// Whether the cell is an anti-cell. Its adjacent-row probes share its
    /// physical column, hence its polarity. A cell is charged when its
    /// stored bit differs from its anti flag.
    anti: bool,
    /// Whether each bitline neighbour is an anti-cell.
    neighbour_anti: [bool; 2],
    /// The cell's physical left and right bitline neighbours, in its own
    /// row.
    neighbours: [u32; 2],
    /// The cell's physical position in the rows above and below (row − 1,
    /// row + 1) of the same bank.
    adjacent: [u32; 2],
}

/// The data-independent half of the cell-state refresh: one [`CellProbe`]
/// per weak cell, in population order.
fn probe_table(topology: &Topology, population: &WeakCellPopulation) -> Vec<CellProbe> {
    let rows_per_bank = topology.geometry().rows_per_bank;
    let mut cells = Vec::with_capacity(population.total_cells());
    for word in population.words() {
        let row = word.loc.row_key();
        for cell in &word.cells {
            let bit = word.loc.col * 64 + cell.bit as u32;
            let phys = topology.physical_bit(row, bit);
            let (left, right) = topology.physical_neighbours(phys);
            let mut neighbours = [NO_PROBE; 2];
            let mut neighbour_anti = [false; 2];
            for (i, np) in [left, right].into_iter().enumerate() {
                if let Some(np) = np {
                    neighbours[i] = topology.logical_bit(row, np);
                    neighbour_anti[i] = topology.kind_at_physical(np) == CellKind::Anti;
                }
            }
            let mut adjacent = [NO_PROBE; 2];
            for (i, adj) in [row.row.checked_sub(1), row.row.checked_add(1)]
                .into_iter()
                .enumerate()
            {
                if let Some(adj) = adj.filter(|&r| r < rows_per_bank) {
                    adjacent[i] = topology.logical_bit(RowKey::new(row.rank, row.bank, adj), phys);
                }
            }
            cells.push(CellProbe {
                bit,
                anti: topology.kind_at_physical(phys) == CellKind::Anti,
                neighbour_anti,
                neighbours,
                adjacent,
            });
        }
    }
    cells
}

/// A simulated DIMM.
///
/// The public surface mirrors what a platform can do with real memory —
/// write words, read words, activate rows (implicitly, via the platform's
/// access accounting) and observe per-window fault events. The hidden
/// internals (topology, weak cells) are reachable read-only for calibration
/// and tests, mirroring a vendor's fab-level knowledge; the DStress
/// framework layers never touch them.
#[derive(Debug, Clone)]
pub struct Dimm {
    config: DimmConfig,
    seed: u64,
    topology: Topology,
    population: WeakCellPopulation,
    contents: RowStore,
    map: AddressMap,
    cache: CellCache,
    cache_generation: Option<u64>,
    /// The topology and the population never change after [`Dimm::new`],
    /// so the probe table is built once, on the first cell-state refresh
    /// (a DIMM that is never evaluated never pays for it), and shared by
    /// every clone.
    probes: Arc<OnceLock<Vec<CellProbe>>>,
    faults: FaultSet,
}

impl Dimm {
    /// Builds a DIMM from a configuration and a device seed (the paper's
    /// DIMM-to-DIMM variation: each physical module is a different seed).
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(config: DimmConfig, seed: u64) -> Self {
        config.geometry.validate().expect("invalid DIMM geometry");
        let population = WeakCellPopulation::sample(config.geometry, &config.weak, seed);
        Dimm::with_population(config, seed, population)
    }

    /// Builds a DIMM around a given weak-cell population instead of one
    /// sampled from `config.weak` — for tests that need weak cells at
    /// exact positions, such as several VRT cells in one word, which the
    /// sampler never places.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation or a weak word lies outside
    /// it.
    pub fn with_population(config: DimmConfig, seed: u64, population: WeakCellPopulation) -> Self {
        config.geometry.validate().expect("invalid DIMM geometry");
        assert!(
            population
                .words()
                .iter()
                .all(|w| config.geometry.contains(w.loc)),
            "weak word outside the DIMM geometry"
        );
        let topology = Topology::new(config.geometry, config.topology, seed);
        let contents = RowStore::new(config.geometry, config.default_fill);
        let map = AddressMap::new(config.geometry);
        Dimm {
            config,
            seed,
            topology,
            population,
            contents,
            map,
            cache: CellCache::default(),
            cache_generation: None,
            probes: Arc::default(),
            faults: FaultSet::new(),
        }
    }

    /// The DIMM's geometry.
    pub fn geometry(&self) -> DimmGeometry {
        self.config.geometry
    }

    /// The configuration the DIMM was built with.
    pub fn config(&self) -> &DimmConfig {
        &self.config
    }

    /// The device seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The address-mapping function of this DIMM (paper Fig. 2).
    pub fn address_map(&self) -> AddressMap {
        self.map
    }

    /// Read-only view of the hidden weak-cell population. **Calibration and
    /// test use only** — the DStress framework never inspects this,
    /// mirroring the paper's no-internal-knowledge premise.
    pub fn population(&self) -> &WeakCellPopulation {
        &self.population
    }

    /// Read-only view of the hidden topology. **Calibration and test use
    /// only.**
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Injects a logical (hard) fault into the array — see
    /// [`crate::faults`] for the fault classes. Used by the MARCH-test
    /// experiments; the GA campaigns run on fault-free devices, as the
    /// paper's DIMMs passed their vendor tests.
    pub fn inject_fault(&mut self, fault: crate::faults::LogicalFault) {
        self.faults.inject(fault);
    }

    /// The injected logical faults.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Writes one 64-bit word (honouring injected transition and coupling
    /// faults).
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn write_word(&mut self, loc: Location, value: u64) {
        if self.faults.is_empty() {
            self.contents.write_word(loc, value);
            return;
        }
        let old = self.contents.read_word(loc);
        let stored = self.faults.apply_on_write(loc, old, value);
        self.contents.write_word(loc, stored);
        for (victim, bit, forced) in self.faults.coupling_side_effects(loc, old, stored) {
            let current = self.contents.read_word(victim);
            let new = if forced {
                current | (1 << bit)
            } else {
                current & !(1 << bit)
            };
            self.contents.write_word(victim, new);
        }
    }

    /// Reads one 64-bit word (logical contents; transient retention errors
    /// are corrected by the platform's scrubbing, so reads return what was
    /// written — except where an injected stuck-at fault corrupts the
    /// read).
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn read_word(&self, loc: Location) -> u64 {
        let value = self.contents.read_word(loc);
        if self.faults.is_empty() {
            value
        } else {
            self.faults.apply_on_read(loc, value)
        }
    }

    /// Reads the 64-bit word at a DIMM-local address (the low three bits
    /// are ignored): [`Self::read_word`] at the address's
    /// [`AddressMap::map`] location, decoded with one divide. Falls back to
    /// that decode when logical faults are injected (they are keyed by
    /// location).
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the DIMM capacity.
    #[inline]
    pub fn read_addr(&self, addr: u64) -> u64 {
        if self.faults.is_empty() {
            self.contents.read_addr(addr)
        } else {
            self.read_word(self.locate(addr))
        }
    }

    /// Writes the 64-bit word at a DIMM-local address (the low three bits
    /// are ignored): [`Self::write_word`] at the address's
    /// [`AddressMap::map`] location, decoded with one divide. Falls back to
    /// that decode when logical faults are injected.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the DIMM capacity.
    #[inline]
    pub fn write_addr(&mut self, addr: u64, value: u64) {
        if self.faults.is_empty() {
            self.contents.write_addr(addr, value);
        } else {
            self.write_word(self.locate(addr), value);
        }
    }

    /// The location of a DIMM-local address (the low three bits ignored).
    fn locate(&self, addr: u64) -> Location {
        self.map
            .map(addr & !7)
            .expect("address within DIMM capacity")
    }

    /// Overwrites a whole row at once (fast path for fill phases).
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the row size.
    pub fn write_row(&mut self, row: RowKey, words: &[u64]) {
        self.contents.write_row(row, words);
    }

    /// Writes a contiguous run of words within one row: one row lookup
    /// instead of one per word. Falls back to per-word writes when logical
    /// faults are injected (fault side-effects are word-granular).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn write_words(&mut self, start: Location, values: &[u64]) {
        if self.faults.is_empty() {
            self.contents.write_words(start, values);
        } else {
            for (i, &value) in values.iter().enumerate() {
                let loc = Location::new(start.rank, start.bank, start.row, start.col + i as u32);
                self.write_word(loc, value);
            }
        }
    }

    /// Reads a contiguous run of words within one row: one row lookup
    /// instead of one per word. Falls back to per-word reads when logical
    /// faults are injected (stuck-at corruption is word-granular).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn read_words(&self, start: Location, out: &mut [u64]) {
        if self.faults.is_empty() {
            self.contents.read_words(start, out);
        } else {
            for (i, slot) in out.iter_mut().enumerate() {
                let loc = Location::new(start.rank, start.bank, start.row, start.col + i as u32);
                *slot = self.read_word(loc);
            }
        }
    }

    /// The contents generation counter — bumped whenever stored bits
    /// change. A [`RunPlan`] is valid only for the generation it was built
    /// against.
    pub fn contents_generation(&self) -> u64 {
        self.contents.generation()
    }

    /// Restores all memory to the default fill.
    pub fn clear_contents(&mut self) {
        self.contents.clear();
    }

    /// Number of rows the workload has materialized.
    pub fn materialized_rows(&self) -> usize {
        self.contents.materialized_rows()
    }

    /// Advances one refresh window under the given operating point and
    /// activation profile, returning every word whose stored bits leaked.
    ///
    /// `nonce` identifies the (run, window) pair and seeds the VRT state;
    /// repeat runs with different nonces to observe run-to-run variation
    /// (the paper averages each virus over 10 runs, §V-A.1).
    ///
    /// The platform is expected to scrub-correct CE words after each window
    /// (patrol scrubbing), so contents are not mutated here; persistent weak
    /// cells re-fail every window, which is how EDAC accumulates counts on
    /// the real server.
    pub fn advance_window(
        &mut self,
        env: &OperatingEnv,
        acts: &ActivationCounts,
        nonce: u64,
    ) -> Vec<WordEvent> {
        let disturbance = self.disturbance_profile(acts);
        self.advance_window_profiled(env, &disturbance, nonce)
    }

    /// Precomputes the per-weak-word disturbance factors for an activation
    /// profile (aligned with the population's word order). The profile is
    /// invariant across the refresh windows of a run, so callers evaluating
    /// many windows compute it once and use
    /// [`Self::advance_window_profiled`] or [`Self::prepare_run`].
    ///
    /// Activations are bucketed per (rank, bank) and sorted by row index so
    /// each victim row scans only the aggressors that can disturb it and the
    /// hammer sum always accumulates in the same order (floating-point
    /// addition is order-sensitive; a deterministic order keeps repeat
    /// evaluations bit-identical). The population is sorted by location, so
    /// words sharing a row are consecutive and the per-row factor is
    /// memoized across them.
    pub fn disturbance_profile(&self, acts: &ActivationCounts) -> Vec<f64> {
        let words = self.population.words();
        if acts.total() == 0 {
            return vec![0.0; words.len()];
        }
        let geo = self.config.geometry;
        let banks = geo.banks as usize;
        let mut by_bank: Vec<Vec<(u32, u64)>> = vec![Vec::new(); geo.ranks as usize * banks];
        for (row, count) in acts.iter() {
            // Aggressors outside the geometry share a bank with no victim.
            if row.rank < geo.ranks && row.bank < geo.banks {
                by_bank[row.rank as usize * banks + row.bank as usize].push((row.row, count));
            }
        }
        for bank_acts in &mut by_bank {
            bank_acts.sort_unstable();
        }
        let model = &self.config.disturbance;
        let mut profile = Vec::with_capacity(words.len());
        let mut memo: Option<(RowKey, f64)> = None;
        for word in words {
            let row = word.loc.row_key();
            let factor = match memo {
                Some((r, f)) if r == row => f,
                _ => {
                    let bank_acts = &by_bank[row.rank as usize * banks + row.bank as usize];
                    let mut hammer = 0.0;
                    for &(aggressor, count) in bank_acts {
                        if aggressor == row.row {
                            continue;
                        }
                        let distance = (aggressor as f64 - row.row as f64).abs();
                        hammer += count as f64 * (-distance / model.decay_rows).exp();
                    }
                    let f = model.factor_from_hammer(hammer);
                    memo = Some((row, f));
                    f
                }
            };
            profile.push(factor);
        }
        profile
    }

    /// [`Self::advance_window`] with a precomputed disturbance profile
    /// (see [`Self::disturbance_profile`]).
    ///
    /// This is the **reference** per-cell loop: it re-evaluates the full
    /// retention expression for every weak cell each window, sampling each
    /// VRT cell's two-state process per window. Multi-window runs build a
    /// [`RunPlan`] with [`Self::prepare_run`] and evaluate it through
    /// [`Self::advance_window_planned_lanes`] instead, whose events, merged
    /// with the plan's static events, are bit-identical at a fraction of
    /// the cost; this loop is the oracle the differential tests pin that
    /// kernel against.
    ///
    /// # Panics
    ///
    /// Panics if the profile length does not match the weak-word count.
    pub fn advance_window_profiled(
        &mut self,
        env: &OperatingEnv,
        disturbance: &[f64],
        nonce: u64,
    ) -> Vec<WordEvent> {
        assert_eq!(
            disturbance.len(),
            self.population.words().len(),
            "disturbance profile length mismatch"
        );
        self.refresh_cache_if_stale();
        let physics = &self.config.physics;
        let env_factor = physics.env_factor(env);
        let mut events = Vec::new();
        for (w, (word, &row_disturb)) in self.population.words().iter().zip(disturbance).enumerate()
        {
            // Clustered defect pairs are comparatively hammer-resistant
            // (see PhysicsParams::pair_disturbance_mult).
            let word_disturb = if word.cells.len() >= 2 {
                row_disturb * physics.pair_disturbance_mult
            } else {
                row_disturb
            };
            let base = self.cache.offsets[w] as usize;
            let mut flip_mask = 0u64;
            for (i, cell) in word.cells.iter().enumerate() {
                let mut retention = cell.base_retention_s * env_factor;
                if cell.is_vrt
                    && vrt_degraded(self.seed, nonce, cell.vrt_index, physics.vrt_degraded_prob)
                {
                    retention *= physics.vrt_degraded_mult;
                }
                if self.cache.charged[base + i] {
                    retention /= self.cache.interference[base + i] * (1.0 + word_disturb);
                } else {
                    retention *= physics.discharged_retention_mult;
                }
                if retention < env.trefp_s {
                    flip_mask |= 1u64 << cell.bit;
                }
            }
            if flip_mask != 0 {
                let written = self.contents.read_word(word.loc);
                events.push(WordEvent {
                    loc: word.loc,
                    written,
                    flip_mask,
                });
            }
        }
        events
    }

    /// Builds a [`RunPlan`] for one run: a fixed operating point and
    /// disturbance profile over the current contents.
    ///
    /// For every weak cell the flip decision `retention < trefp` is
    /// evaluated **here**, once, for both VRT states — using exactly the
    /// floating-point expression sequence of
    /// [`Self::advance_window_profiled`], so the resulting plan reproduces
    /// the reference loop's events bit for bit. Cells whose decision does
    /// not depend on the VRT draw collapse into per-word static flip masks
    /// (or vanish entirely); only the cells whose decision differs between
    /// the two VRT states remain for per-window work.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::IndexOverflow`] if the weak-cell population is
    /// too large for the plan's `u32` index layout (beyond 2^32
    /// VRT-contingent cells — unreachable for any physical DIMM, but
    /// checked rather than silently truncated into a wrong-but-plausible
    /// plan).
    ///
    /// # Panics
    ///
    /// Panics if the profile length does not match the weak-word count.
    pub fn prepare_run(
        &mut self,
        env: &OperatingEnv,
        disturbance: &[f64],
    ) -> Result<RunPlan, PlanError> {
        assert_eq!(
            disturbance.len(),
            self.population.words().len(),
            "disturbance profile length mismatch"
        );
        self.refresh_cache_if_stale();
        let physics = &self.config.physics;
        let env_factor = physics.env_factor(env);
        let mut static_events = Vec::new();
        let mut vrt_words = Vec::new();
        let mut bit_masks = Vec::new();
        let mut bit_indices = Vec::new();
        let mut bit_flip_when_degraded = Vec::new();
        for (w, (word, &row_disturb)) in self.population.words().iter().zip(disturbance).enumerate()
        {
            let word_disturb = if word.cells.len() >= 2 {
                row_disturb * physics.pair_disturbance_mult
            } else {
                row_disturb
            };
            let base = self.cache.offsets[w] as usize;
            let bits_start = bit_masks.len();
            let mut base_mask = 0u64;
            for (i, cell) in word.cells.iter().enumerate() {
                let charged = self.cache.charged[base + i];
                let interference = self.cache.interference[base + i];
                let flips = |mut retention: f64| {
                    if charged {
                        retention /= interference * (1.0 + word_disturb);
                    } else {
                        retention *= physics.discharged_retention_mult;
                    }
                    retention < env.trefp_s
                };
                let flip_normal = flips(cell.base_retention_s * env_factor);
                if cell.is_vrt {
                    let flip_degraded =
                        flips(cell.base_retention_s * env_factor * physics.vrt_degraded_mult);
                    if flip_degraded == flip_normal {
                        if flip_normal {
                            base_mask |= 1u64 << cell.bit;
                        }
                    } else {
                        bit_masks.push(1u64 << cell.bit);
                        bit_indices.push(cell.vrt_index);
                        bit_flip_when_degraded.push(flip_degraded);
                    }
                } else if flip_normal {
                    base_mask |= 1u64 << cell.bit;
                }
            }
            let bits_end = bit_masks.len();
            if bits_end > bits_start {
                vrt_words.push(VrtWord {
                    loc: word.loc,
                    written: self.contents.read_word(word.loc),
                    base_mask,
                    bits_start: plan_index("bits_start", bits_start)?,
                    bits_end: plan_index("bits_end", bits_end)?,
                });
            } else if base_mask != 0 {
                static_events.push(WordEvent {
                    loc: word.loc,
                    written: self.contents.read_word(word.loc),
                    flip_mask: base_mask,
                });
            }
        }
        Ok(RunPlan {
            generation: self.contents.generation(),
            vrt_degraded_prob: physics.vrt_degraded_prob,
            static_events,
            vrt_words,
            bit_masks,
            bit_indices,
            bit_flip_when_degraded,
        })
    }

    /// Evaluates one refresh window of a prepared plan for up to
    /// [`crate::plan::MAX_LANES`] evaluation lanes at once, writing one lane
    /// mask per VRT-contingent cell into `out` (see
    /// [`RunPlan::advance_window_vrt_lanes`]). Lane `l` runs with window
    /// nonce `nonces[l]` and only while bit `l` of `live` is set.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Stale`] if contents changed since the plan was
    /// built.
    pub fn advance_window_planned_lanes(
        &self,
        plan: &RunPlan,
        nonces: &[u64],
        live: u64,
        out: &mut [u64],
    ) -> Result<(), PlanError> {
        self.ensure_plan_fresh(plan)?;
        plan.advance_window_vrt_lanes(self.seed, nonces, live, out);
        Ok(())
    }

    /// Checks that a plan was built against the current contents.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Stale`] if contents changed since the plan was
    /// built. Callers that evaluate many windows or lanes can check once
    /// up front: contents cannot change during window evaluation.
    pub fn ensure_plan_fresh(&self, plan: &RunPlan) -> Result<(), PlanError> {
        let current = self.contents.generation();
        if plan.generation() != current {
            return Err(PlanError::Stale {
                built: plan.generation(),
                current,
            });
        }
        Ok(())
    }

    /// Recomputes the data-dependent per-cell state when contents changed.
    ///
    /// Per weak row it looks up the row and its two adjacent rows once;
    /// per cell it only tests the bits its [`CellProbe`] names. The result
    /// must be bit-identical to `cell_cache_reference`.
    fn refresh_cache_if_stale(&mut self) {
        let generation = self.contents.generation();
        if self.cache_generation == Some(generation) {
            return;
        }
        let probes = self
            .probes
            .get_or_init(|| probe_table(&self.topology, &self.population));
        let physics = self.config.physics;
        let contents = &self.contents;
        let default = contents.default_word();
        let bit_at = |words: Option<&[u64]>, bit: u32| {
            let word = words.map_or(default, |w| w[(bit / 64) as usize]);
            (word >> (bit % 64)) & 1 == 1
        };
        let cache = &mut self.cache;
        cache.offsets.clear();
        cache.charged.clear();
        cache.interference.clear();
        let mut probes = probes.iter();
        let mut fetched: Option<RowKey> = None;
        let mut rows: [Option<&[u64]>; 3] = [None; 3];
        for word in self.population.words() {
            let row = word.loc.row_key();
            if fetched != Some(row) {
                // Probes into a clipped adjacent row are NO_PROBE, so the
                // out-of-bank neighbour of an edge row is never read.
                let adj = |r: Option<u32>| {
                    r.and_then(|r| contents.row_words(RowKey::new(row.rank, row.bank, r)))
                };
                rows = [
                    contents.row_words(row),
                    adj(row.row.checked_sub(1)),
                    adj(row.row.checked_add(1)),
                ];
                fetched = Some(row);
            }
            let [own, above, below] = rows;
            cache.offsets.push(cache.charged.len() as u32);
            for probe in probes.by_ref().take(word.cells.len()) {
                let charged = bit_at(own, probe.bit) != probe.anti;
                let interference = if charged {
                    let mut intra = 0u32;
                    for (&np, &anti) in probe.neighbours.iter().zip(&probe.neighbour_anti) {
                        if np != NO_PROBE && bit_at(own, np) != anti {
                            intra += 1;
                        }
                    }
                    // Inter-row interference: a charged victim node facing a
                    // *discharged* node in the adjacent row of the same bank
                    // sees the largest field and leaks fastest. (A uniform
                    // worst-word fill charges everything and gets none of
                    // this — which is exactly why the per-row 24 KB patterns
                    // can beat it, Fig. 9.)
                    let mut inter = 0u32;
                    for (words, &bit) in [above, below].into_iter().zip(&probe.adjacent) {
                        if bit != NO_PROBE && bit_at(words, bit) == probe.anti {
                            inter += 1;
                        }
                    }
                    1.0 + physics.intra_row_coupling * intra as f64
                        + physics.inter_row_coupling * inter as f64
                } else {
                    1.0
                };
                cache.charged.push(charged);
                cache.interference.push(interference);
            }
        }
        cache.offsets.push(cache.charged.len() as u32);
        self.cache_generation = Some(generation);
    }

    /// The cell-state oracle: re-derives every physical position, polarity
    /// and neighbour from the topology, cell by cell. The differential
    /// tests pin [`Self::refresh_cache_if_stale`] against it.
    #[cfg(test)]
    fn cell_cache_reference(&self) -> CellCache {
        let physics = self.config.physics;
        let geometry = self.config.geometry;
        let total = self.population.total_cells();
        let mut cache = CellCache {
            offsets: Vec::with_capacity(self.population.words().len() + 1),
            charged: Vec::with_capacity(total),
            interference: Vec::with_capacity(total),
        };
        for word in self.population.words() {
            let row = word.loc.row_key();
            cache.offsets.push(cache.charged.len() as u32);
            for cell in &word.cells {
                let logical = word.loc.col * 64 + cell.bit as u32;
                let value = self.contents.read_bit(row, logical);
                let phys = self.topology.physical_bit(row, logical);
                let kind = self.topology.kind_at_physical(phys);
                let charged = kind.charged(value);
                let interference = if charged {
                    let mut intra = 0u32;
                    let (left, right) = self.topology.physical_neighbours(phys);
                    for np in [left, right].into_iter().flatten() {
                        if self.physical_cell_charged(row, np) {
                            intra += 1;
                        }
                    }
                    let mut inter = 0u32;
                    for adj in [row.row.checked_sub(1), row.row.checked_add(1)]
                        .into_iter()
                        .flatten()
                        .filter(|&r| r < geometry.rows_per_bank)
                    {
                        let adj_row = RowKey::new(row.rank, row.bank, adj);
                        if !self.physical_cell_charged(adj_row, phys) {
                            inter += 1;
                        }
                    }
                    1.0 + physics.intra_row_coupling * intra as f64
                        + physics.inter_row_coupling * inter as f64
                } else {
                    1.0
                };
                cache.charged.push(charged);
                cache.interference.push(interference);
            }
        }
        cache.offsets.push(cache.charged.len() as u32);
        cache
    }

    /// Whether the cell at a *physical* bitline position of a row is
    /// charged, given current contents.
    #[cfg(test)]
    fn physical_cell_charged(&self, row: RowKey, phys: u32) -> bool {
        let logical = self.topology.logical_bit(row, phys);
        let value = self.contents.read_bit(row, logical);
        self.topology.kind_at_physical(phys).charged(value)
    }
}

/// Narrows a plan-build counter to the plan's `u32` index width, failing
/// loudly instead of silently truncating into a wrong-but-plausible plan.
fn plan_index(what: &'static str, value: usize) -> Result<u32, PlanError> {
    value
        .try_into()
        .map_err(|_| PlanError::IndexOverflow { what, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The worst-case word under the TTAA layout: LSB-first bit string
    /// `1100 1100 …` = hex 0x3333….
    const WORST: u64 = 0x3333_3333_3333_3333;
    /// The opposite phase discharges every unscrambled cell.
    const BEST: u64 = 0xCCCC_CCCC_CCCC_CCCC;

    fn dimm(seed: u64) -> Dimm {
        Dimm::new(DimmConfig::default(), seed)
    }

    fn fill_all(d: &mut Dimm, word: u64) {
        let geo = d.geometry();
        let row_words = vec![word; geo.words_per_row()];
        for rank in 0..geo.ranks {
            for bank in 0..geo.banks {
                for row in 0..geo.rows_per_bank {
                    d.write_row(RowKey::new(rank, bank, row), &row_words);
                }
            }
        }
    }

    fn count_flips(events: &[WordEvent]) -> u64 {
        events.iter().map(|e| e.flipped_bits() as u64).sum()
    }

    #[test]
    fn no_errors_at_nominal_parameters() {
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let env = OperatingEnv::nominal(55.0);
        let events = d.advance_window(&env, &ActivationCounts::new(), 0);
        assert!(
            events.is_empty(),
            "{} events at nominal parameters",
            events.len()
        );
    }

    #[test]
    fn relaxed_parameters_manifest_errors() {
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let env = OperatingEnv::relaxed(60.0);
        let events = d.advance_window(&env, &ActivationCounts::new(), 0);
        assert!(!events.is_empty(), "relaxed 60C should manifest errors");
    }

    #[test]
    fn worst_pattern_beats_uniform_patterns() {
        // The 1100 pattern charges ~every cell; all-0s / all-1s /
        // checkerboard charge ~half (paper §V-A.1).
        let env = OperatingEnv::relaxed(60.0);
        let mut counts = HashMap::new();
        for (name, word) in [
            ("worst", WORST),
            ("all0", 0u64),
            ("all1", u64::MAX),
            ("cb", 0x5555_5555_5555_5555),
        ] {
            let mut d = dimm(11);
            fill_all(&mut d, word);
            let events = d.advance_window(&env, &ActivationCounts::new(), 0);
            counts.insert(name, count_flips(&events));
        }
        let worst = counts["worst"];
        for name in ["all0", "all1", "cb"] {
            assert!(
                worst as f64 >= 1.45 * counts[name] as f64,
                "worst={} vs {}={}",
                worst,
                name,
                counts[name]
            );
        }
    }

    #[test]
    fn best_pattern_is_roughly_8x_below_worst() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let worst = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        let mut d = dimm(11);
        fill_all(&mut d, BEST);
        let best = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        let ratio = worst as f64 / best.max(1) as f64;
        assert!(
            (3.0..30.0).contains(&ratio),
            "worst/best ratio {ratio} (worst={worst} best={best})"
        );
    }

    #[test]
    fn hammering_neighbour_rows_increases_errors() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let quiet = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        let mut acts = ActivationCounts::new();
        let geo = d.geometry();
        for rank in 0..geo.ranks {
            for bank in 0..geo.banks {
                for row in 0..geo.rows_per_bank {
                    acts.add(RowKey::new(rank, bank, row), 3000);
                }
            }
        }
        let hammered = count_flips(&d.advance_window(&env, &acts, 0));
        assert!(
            hammered as f64 > 1.2 * quiet as f64,
            "hammered={hammered} quiet={quiet}"
        );
    }

    #[test]
    fn temperature_increases_error_count_monotonically() {
        let mut previous = 0u64;
        for temp in [50.0, 55.0, 60.0, 65.0, 70.0] {
            let mut d = dimm(13);
            fill_all(&mut d, WORST);
            let env = OperatingEnv::relaxed(temp);
            let flips = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
            assert!(
                flips >= previous,
                "errors dropped from {previous} to {flips} at {temp}C"
            );
            previous = flips;
        }
        assert!(previous > 0);
    }

    #[test]
    fn multi_bit_words_appear_only_at_high_temperature() {
        let worst_multi = |temp: f64| {
            let mut d = dimm(17);
            fill_all(&mut d, WORST);
            let env = OperatingEnv::relaxed(temp);
            d.advance_window(&env, &ActivationCounts::new(), 0)
                .iter()
                .filter(|e| e.flipped_bits() >= 2)
                .count()
        };
        assert_eq!(worst_multi(55.0), 0, "UE-prone pairs must not fail at 55C");
        assert!(worst_multi(66.0) > 0, "UE-prone pairs must fail by 66C");
    }

    #[test]
    fn run_to_run_variation_from_vrt() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(19);
        fill_all(&mut d, WORST);
        let counts: Vec<u64> = (0..10)
            .map(|run| count_flips(&d.advance_window(&env, &ActivationCounts::new(), run)))
            .collect();
        let distinct: std::collections::HashSet<_> = counts.iter().collect();
        assert!(
            distinct.len() > 1,
            "VRT should cause run-to-run variation: {counts:?}"
        );
    }

    #[test]
    fn different_seeds_have_different_error_counts() {
        let env = OperatingEnv::relaxed(60.0);
        let count_for = |seed| {
            let mut d = dimm(seed);
            fill_all(&mut d, WORST);
            count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0))
        };
        assert_ne!(count_for(1), count_for(2));
    }

    #[test]
    fn events_report_written_data() {
        let env = OperatingEnv::relaxed(65.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        for e in d.advance_window(&env, &ActivationCounts::new(), 0) {
            assert_eq!(e.written, WORST);
            assert_ne!(e.flip_mask, 0);
            assert_ne!(e.corrupted(), e.written);
        }
    }

    /// One lane's full event stream: its VRT-word flip masks rebuilt from
    /// the kernel's lane masks, merged with the static events in location
    /// order (the order the reference loop emits in).
    fn lane_stream(plan: &RunPlan, masks: &[u64], lane: usize) -> Vec<WordEvent> {
        let mut events: Vec<WordEvent> = plan
            .vrt_word_sites()
            .iter()
            .map(|word| WordEvent {
                loc: word.loc,
                written: word.written,
                flip_mask: plan.lane_flip_mask(word, masks, lane),
            })
            .filter(|e| e.flip_mask != 0)
            .chain(plan.static_events().iter().copied())
            .collect();
        events.sort_by_key(|e| e.loc);
        events
    }

    #[test]
    fn planned_window_matches_reference_loop() {
        let env = OperatingEnv::relaxed(62.0);
        let mut d = dimm(23);
        fill_all(&mut d, WORST);
        let mut acts = ActivationCounts::new();
        acts.add(RowKey::new(0, 0, 9), 4000);
        acts.add(RowKey::new(0, 0, 11), 4000);
        acts.add(RowKey::new(1, 3, 20), 50_000);
        let profile = d.disturbance_profile(&acts);
        let plan = d.prepare_run(&env, &profile).unwrap();
        assert!(plan.static_words() + plan.vrt_words() > 0);
        let mut masks = vec![0; plan.vrt_cells()];
        for nonce in 0..50u64 {
            d.advance_window_planned_lanes(&plan, &[nonce], 1, &mut masks)
                .unwrap();
            let reference = d.advance_window_profiled(&env, &profile, nonce);
            assert_eq!(lane_stream(&plan, &masks, 0), reference, "nonce {nonce}");
        }
    }

    #[test]
    fn lane_kernel_matches_per_lane_vrt_events() {
        let env = OperatingEnv::relaxed(62.0);
        let mut d = dimm(23);
        fill_all(&mut d, WORST);
        let mut acts = ActivationCounts::new();
        acts.add(RowKey::new(0, 0, 9), 4000);
        acts.add(RowKey::new(1, 3, 20), 50_000);
        let profile = d.disturbance_profile(&acts);
        let plan = d.prepare_run(&env, &profile).unwrap();
        assert!(plan.vrt_words() > 0, "need VRT-contingent words");
        // 7 lanes with irregular nonces and a hole in the live mask.
        let nonces: Vec<u64> = (0..7u64).map(|l| l.wrapping_mul(0x9E37_79B9) ^ 5).collect();
        let live = 0b110_1011u64;
        let mut masks = vec![0; plan.vrt_cells()];
        d.advance_window_planned_lanes(&plan, &nonces, live, &mut masks)
            .unwrap();
        for (l, &nonce) in nonces.iter().enumerate() {
            if live & (1 << l) == 0 {
                assert!(masks.iter().all(|m| m >> l & 1 == 0), "dead lane {l}");
                continue;
            }
            let reference = d.advance_window_profiled(&env, &profile, nonce);
            assert_eq!(lane_stream(&plan, &masks, l), reference, "lane {l}");
        }
    }

    #[test]
    fn vrt_words_with_a_static_base_mask_match_reference_loop() {
        // Each word pairs a statically failing cell (bit 0) with a VRT cell
        // (bit 1) whose retention spans five decades across the words, so
        // some VRT cells are contingent and their words carry a base mask:
        // a lane whose VRT cell holds must still emit the base-mask event.
        let words = (0..256u32)
            .map(|i| crate::weak::WeakWord {
                loc: Location::new(0, 0, i / 32, i % 32),
                cells: vec![
                    crate::weak::WeakCell {
                        bit: 0,
                        base_retention_s: 1e-3,
                        is_vrt: false,
                        vrt_index: 0,
                    },
                    crate::weak::WeakCell {
                        bit: 1,
                        base_retention_s: 10f64.powf(-2.0 + 5.0 * i as f64 / 256.0),
                        is_vrt: true,
                        vrt_index: i,
                    },
                ],
            })
            .collect();
        let population = WeakCellPopulation::from_words(words);
        let mut d = Dimm::with_population(DimmConfig::default(), 7, population);
        let env = OperatingEnv::relaxed(60.0);
        let profile = d.disturbance_profile(&ActivationCounts::new());
        let plan = d.prepare_run(&env, &profile).unwrap();
        assert!(plan.vrt_words() > 0, "need VRT-contingent words");
        let nonces: Vec<u64> = (0..crate::plan::MAX_LANES as u64).collect();
        let mut masks = vec![0; plan.vrt_cells()];
        d.advance_window_planned_lanes(&plan, &nonces, u64::MAX, &mut masks)
            .unwrap();
        let base_only = (0..nonces.len())
            .flat_map(|l| {
                let plan = &plan;
                let masks = &masks;
                plan.vrt_word_sites()
                    .iter()
                    .map(move |word| plan.lane_flip_mask(word, masks, l))
            })
            .filter(|&mask| mask == 1)
            .count();
        assert!(base_only > 0, "no lane emitted a base-mask-only event");
        for (l, &nonce) in nonces.iter().enumerate() {
            let reference = d.advance_window_profiled(&env, &profile, nonce);
            assert_eq!(lane_stream(&plan, &masks, l), reference, "lane {l}");
        }
    }

    #[test]
    fn plan_shrinks_population_to_vrt_contingent_cells() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(29);
        fill_all(&mut d, WORST);
        let profile = d.disturbance_profile(&ActivationCounts::new());
        let plan = d.prepare_run(&env, &profile).unwrap();
        // The per-window workload must be a small fraction of the full
        // population — that's the entire point of the plan.
        assert!(
            plan.vrt_cells() * 10 < d.population().total_cells(),
            "{} VRT-contingent cells out of {}",
            plan.vrt_cells(),
            d.population().total_cells()
        );
    }

    #[test]
    fn stale_plan_is_a_typed_error_not_a_panic() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let profile = d.disturbance_profile(&ActivationCounts::new());
        let plan = d.prepare_run(&env, &profile).unwrap();
        let built = plan.generation();
        d.write_word(Location::new(0, 0, 0, 0), BEST);
        let current = d.contents_generation();
        assert_ne!(built, current);
        let mut masks = vec![0; plan.vrt_cells()];
        let err = d
            .advance_window_planned_lanes(&plan, &[0], 1, &mut masks)
            .unwrap_err();
        assert_eq!(err, PlanError::Stale { built, current });
        assert!(err.to_string().contains("stale RunPlan"), "{err}");
        assert_eq!(d.ensure_plan_fresh(&plan), Err(err));
    }

    #[test]
    fn plan_index_narrows_exactly_to_u32() {
        assert_eq!(plan_index("bits_end", 0), Ok(0));
        assert_eq!(plan_index("bits_end", u32::MAX as usize), Ok(u32::MAX));
        let err = plan_index("bits_end", u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            err,
            PlanError::IndexOverflow {
                what: "bits_end",
                value: u32::MAX as usize + 1,
            }
        );
        let text = err.to_string();
        assert!(
            text.contains("bits_end") && text.contains("4294967296"),
            "{text}"
        );
    }

    /// Drives one DIMM through `write_addr`/`read_addr` and a twin through
    /// `AddressMap::map` + `write_word`/`read_word`, word by word, and
    /// checks that values, generation bumps and materialized rows agree.
    fn assert_addr_path_matches_location_path(fault: Option<crate::LogicalFault>) {
        // Not a power of two in any dimension, so no bit slicing could
        // stand in for the divide.
        let geometry = DimmGeometry {
            ranks: 2,
            banks: 3,
            rows_per_bank: 6,
            row_bytes: 24,
        };
        let config = DimmConfig {
            geometry,
            default_fill: 0xAAAA_AAAA_AAAA_AAAA,
            ..DimmConfig::default()
        };
        let mut by_addr = Dimm::new(config, 5);
        let mut by_loc = Dimm::new(config, 5);
        if let Some(fault) = fault {
            by_addr.inject_fault(fault);
            by_loc.inject_fault(fault);
        }
        let map = by_loc.address_map();
        let capacity = geometry.capacity_bytes();
        let check = |by_addr: &Dimm, by_loc: &Dimm| {
            assert_eq!(by_addr.contents_generation(), by_loc.contents_generation());
            assert_eq!(by_addr.materialized_rows(), by_loc.materialized_rows());
            for addr in (0..capacity).step_by(8) {
                let loc = map.map(addr).unwrap();
                assert_eq!(by_addr.read_addr(addr), by_loc.read_word(loc), "{loc}");
                // Unaligned addresses read the word they fall in.
                assert_eq!(by_addr.read_addr(addr + 5), by_loc.read_word(loc), "{loc}");
            }
        };
        check(&by_addr, &by_loc);
        // Default-valued writes (no-ops that still materialize rows), then
        // distinct values, then the same values again (no-ops).
        let default: fn(u64) -> u64 = |_| 0xAAAA_AAAA_AAAA_AAAA;
        let distinct: fn(u64) -> u64 = |addr| addr * 0x9E37 + 1;
        let words = capacity / 8;
        for value in [default, distinct, distinct] {
            // A stride coprime to the word count visits every word once,
            // with rows materializing out of address order.
            for w in 0..words {
                let addr = w * 7 % words * 8;
                by_addr.write_addr(addr, value(addr));
                by_loc.write_word(map.map(addr).unwrap(), value(addr));
                check(&by_addr, &by_loc);
            }
        }
    }

    #[test]
    fn address_path_matches_location_path() {
        assert_addr_path_matches_location_path(None);
    }

    #[test]
    fn address_path_matches_location_path_with_stuck_at_fault() {
        assert_addr_path_matches_location_path(Some(crate::LogicalFault::StuckAt {
            // Bit 3 is set in the default fill and in the value written
            // there, so the fault shows on every read of the word.
            loc: Location::new(1, 2, 4, 1),
            bit: 3,
            value: false,
        }));
    }

    #[test]
    fn write_words_matches_per_word_writes() {
        let mut a = dimm(31);
        let mut b = dimm(31);
        let start = Location::new(0, 2, 7, 100);
        let values = [1u64, 2, 3, WORST, BEST];
        a.write_words(start, &values);
        for (i, &v) in values.iter().enumerate() {
            b.write_word(
                Location::new(start.rank, start.bank, start.row, start.col + i as u32),
                v,
            );
        }
        for i in 0..values.len() as u32 + 1 {
            let loc = Location::new(start.rank, start.bank, start.row, start.col + i);
            assert_eq!(a.read_word(loc), b.read_word(loc));
        }
    }

    #[test]
    fn read_words_matches_per_word_reads() {
        let mut d = dimm(31);
        let start = Location::new(0, 2, 7, 100);
        let values = [1u64, 2, 3, WORST, BEST];
        d.write_words(start, &values);
        // Spans over written and default (unmaterialized) columns.
        for (from, n) in [(98u32, 10usize), (100, 5), (0, 3)] {
            let begin = Location::new(0, 2, 7, from);
            let mut bulk = vec![0u64; n];
            d.read_words(begin, &mut bulk);
            for (i, &got) in bulk.iter().enumerate() {
                let loc = Location::new(0, 2, 7, from + i as u32);
                assert_eq!(got, d.read_word(loc), "column {}", from + i as u32);
            }
        }
    }

    /// Word bits that carry a weak cell in every word of the probe
    /// fixture: both word edges (so the first and last bit of each row are
    /// weak, whatever the remapping) and a few bits in between.
    const PROBE_BITS: [u8; 8] = [0, 1, 2, 3, 31, 60, 62, 63];
    const PROBE_BANKS: u8 = 2;
    const PROBE_ROWS: u32 = 6;
    const PROBE_COLS: u32 = 4;

    /// A tiny DIMM whose every word carries weak cells at [`PROBE_BITS`]:
    /// half its rows scrambled, two word-column swaps drawn per bank, and
    /// every row — including rows 0 and `rows_per_bank − 1` — weak.
    fn probe_fixture(seed: u64, default_fill: u64) -> Dimm {
        let config = DimmConfig {
            geometry: DimmGeometry {
                ranks: 1,
                banks: PROBE_BANKS,
                rows_per_bank: PROBE_ROWS,
                row_bytes: PROBE_COLS * 8,
            },
            topology: TopologyConfig {
                scrambled_row_fraction: 0.5,
                scramble_mask: 0b10,
                remapped_pairs_per_bank: 2,
            },
            weak: WeakCellConfig {
                singles_per_rank: 0,
                pairs_per_rank: 0,
                triples_per_rank: 0,
                ..WeakCellConfig::default()
            },
            default_fill,
            ..DimmConfig::default()
        };
        let mut d = Dimm::new(config, seed);
        let mut words = Vec::new();
        for bank in 0..PROBE_BANKS {
            for row in 0..PROBE_ROWS {
                for col in 0..PROBE_COLS {
                    let cells = PROBE_BITS
                        .iter()
                        .map(|&bit| crate::weak::WeakCell {
                            bit,
                            base_retention_s: 1.0,
                            is_vrt: false,
                            vrt_index: 0,
                        })
                        .collect();
                    words.push(crate::weak::WeakWord {
                        loc: Location::new(0, bank, row, col),
                        cells,
                    });
                }
            }
        }
        d.population = WeakCellPopulation::from_words(words);
        d
    }

    /// Asserts the probe-table refresh reproduces the reference walk bit
    /// for bit.
    fn assert_cache_matches_reference(d: &mut Dimm) {
        d.refresh_cache_if_stale();
        let want = d.cell_cache_reference();
        assert_eq!(d.cache.offsets, want.offsets);
        assert_eq!(d.cache.charged, want.charged);
        let bits = |c: &CellCache| {
            c.interference
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&d.cache), bits(&want));
    }

    #[test]
    fn probe_fixture_covers_scrambled_rows_and_remapped_columns() {
        for seed in 0..8 {
            let d = probe_fixture(seed, 0);
            let topo = d.topology();
            let rows: Vec<RowKey> = (0..PROBE_BANKS)
                .flat_map(|bank| (0..PROBE_ROWS).map(move |row| RowKey::new(0, bank, row)))
                .collect();
            let scrambled = rows.iter().filter(|&&r| topo.is_scrambled(r)).count();
            assert!(scrambled > 0 && scrambled < rows.len(), "seed {seed}");
            let remapped = rows.iter().any(|&r| {
                (0..PROBE_COLS).any(|col| topo.physical_bit(r, col * 64 + 8) / 64 != col)
            });
            assert!(remapped, "seed {seed}");
        }
    }

    #[test]
    fn probe_table_is_built_lazily_and_shared_by_clones() {
        let mut d = probe_fixture(3, 0);
        assert!(d.probes.get().is_none(), "Dimm::new must not build it");
        let mut replica = d.clone();
        replica.write_word(Location::new(0, 1, 2, 3), WORST);
        replica.refresh_cache_if_stale();
        assert!(Arc::ptr_eq(&d.probes, &replica.probes));
        assert!(
            d.probes.get().is_some(),
            "a clone's build serves the original"
        );
        assert_cache_matches_reference(&mut d);
    }

    /// One contents mutation of the probe-table differential test.
    #[derive(Debug, Clone)]
    enum ContentsOp {
        Word(u8, u32, u32, u64),
        Row(u8, u32, Vec<u64>),
        Clear,
    }

    fn word_value() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0),
            Just(u64::MAX),
            Just(WORST),
            Just(BEST),
            any::<u64>()
        ]
    }

    fn contents_op() -> impl Strategy<Value = ContentsOp> {
        prop_oneof![
            6 => (0..PROBE_BANKS, 0..PROBE_ROWS, 0..PROBE_COLS, word_value())
                .prop_map(|(b, r, c, v)| ContentsOp::Word(b, r, c, v)),
            3 => (0..PROBE_BANKS, 0..PROBE_ROWS, proptest::collection::vec(word_value(), PROBE_COLS as usize))
                .prop_map(|(b, r, words)| ContentsOp::Row(b, r, words)),
            1 => Just(ContentsOp::Clear),
        ]
    }

    proptest! {
        /// The probe-table refresh must equal the per-cell reference walk
        /// after any sequence of writes and clears — including rows next to
        /// never-written (default-fill) rows.
        #[test]
        fn probe_refresh_matches_reference_walk(
            seed in 0u64..8,
            default_fill in word_value(),
            ops in proptest::collection::vec(contents_op(), 1..24),
        ) {
            let mut d = probe_fixture(seed, default_fill);
            assert_cache_matches_reference(&mut d);
            for op in ops {
                match op {
                    ContentsOp::Word(bank, row, col, value) => {
                        d.write_word(Location::new(0, bank, row, col), value)
                    }
                    ContentsOp::Row(bank, row, words) => d.write_row(RowKey::new(0, bank, row), &words),
                    ContentsOp::Clear => d.clear_contents(),
                }
                assert_cache_matches_reference(&mut d);
            }
        }
    }

    #[test]
    fn probe_refresh_matches_reference_walk_on_the_default_dimm() {
        let mut d = dimm(21);
        assert_cache_matches_reference(&mut d);
        fill_all(&mut d, WORST);
        assert_cache_matches_reference(&mut d);
        let geo = d.geometry();
        for row in (0..geo.rows_per_bank).step_by(3) {
            d.write_row(RowKey::new(1, 4, row), &vec![BEST; geo.words_per_row()]);
        }
        assert_cache_matches_reference(&mut d);
    }

    #[test]
    fn cache_invalidation_on_write() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let with_worst = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        fill_all(&mut d, BEST);
        let with_best = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        assert!(with_worst > with_best, "cache must follow contents changes");
    }
}
