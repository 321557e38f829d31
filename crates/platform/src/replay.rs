//! Analytic trace replay: from one recorded pass of a virus body to
//! per-refresh-window row-activation counts.
//!
//! The paper runs each virus for two hours and lets the hardware accumulate
//! errors; simulating every dynamic instruction of such a run is
//! intractable. Instead the virus body is *executed once* (recording its
//! access trace) and then treated as a periodic workload: the recorded pass
//! is filtered through the cache model and the per-bank row-buffer (only
//! misses that also miss the open row activate a row), and the resulting
//! activation histogram is scaled to the number of memory operations the
//! core sustains per refresh window. This preserves the quantity that the
//! disturbance physics consumes — activations per aggressor row per window —
//! while decoupling simulation cost from run length.

use crate::cache::Cache;
use crate::config::AccessModelConfig;
use crate::session::RecordedRun;
use dstress_dram::{ActivationCounts, AddressMap};

/// Activation tallies for one profile build, stored flat in address-map
/// row order: MCU `m`'s rows are slots `first_row[m]..first_row[m + 1]`,
/// and its row `r` holds DIMM-local addresses from `r × row_bytes` (the
/// row-table order of the DIMM's contents), so a DRAM-reaching load finds
/// its row with one divide. Each row slot also names its bank's entry in
/// `open`, the per-(mcu, rank, bank) open-row register that holds the open
/// row's slot + 1 (0 = no row open). The counts become
/// [`ActivationCounts`] once, when the profile is assembled.
struct RowActivations {
    /// First row slot of each MCU, plus the total slot count at the end.
    first_row: Vec<usize>,
    /// Activations per row slot.
    counts: Vec<u64>,
    /// The `open` entry of each row slot's bank.
    bank_of: Vec<u32>,
    /// Open row slot + 1 per bank; 0 when the bank has no row open.
    open: Vec<u32>,
}

impl RowActivations {
    fn new(maps: &[AddressMap]) -> Self {
        let mut first_row = Vec::with_capacity(maps.len() + 1);
        let mut bank_of = Vec::new();
        let mut banks = 0u32;
        for map in maps {
            let geo = map.geometry();
            first_row.push(bank_of.len());
            // Address-map order: rank, then row, then bank (fastest).
            for _rank in 0..geo.ranks {
                for _row in 0..geo.rows_per_bank {
                    bank_of.extend(banks..banks + geo.banks as u32);
                }
                banks += geo.banks as u32;
            }
        }
        first_row.push(bank_of.len());
        RowActivations {
            first_row,
            counts: vec![0; bank_of.len()],
            bank_of,
            open: vec![0; banks as usize],
        }
    }

    /// Opens the row holding DIMM-local `addr` on `mcu`, counting an
    /// activation unless that row is already open in its bank. Addresses
    /// beyond the DIMM reach no row.
    #[inline]
    fn load(&mut self, mcu: usize, addr: u64, row_bytes: u64) {
        let (first, end) = (self.first_row[mcu], self.first_row[mcu + 1]);
        let row = addr / row_bytes;
        if row >= (end - first) as u64 {
            return;
        }
        let slot = first + row as usize;
        let bank = self.bank_of[slot] as usize;
        let tagged = slot as u32 + 1;
        if self.open[bank] != tagged {
            self.open[bank] = tagged;
            self.counts[slot] += 1;
        }
    }

    /// MCU `mcu`'s tally with every count scaled by `factor` and rounded
    /// (rows rounding to zero drop out), or unscaled without a factor.
    fn counts(&self, mcu: usize, map: &AddressMap, factor: Option<f64>) -> ActivationCounts {
        let row_bytes = map.geometry().row_bytes as u64;
        let rows = &self.counts[self.first_row[mcu]..self.first_row[mcu + 1]];
        rows.iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(row, &n)| {
                let loc = map
                    .map(row as u64 * row_bytes)
                    .expect("row slots lie inside the DIMM");
                let n = factor.map_or(n, |f| (n as f64 * f).round().max(0.0) as u64);
                (loc.row_key(), n)
            })
            .collect()
    }
}

/// Per-MCU activation counts for one refresh window, derived from a
/// recorded virus trace.
#[derive(Debug, Clone, Default)]
pub struct ReplayProfile {
    /// Activation counts per refresh window, indexed by MCU.
    pub acts_per_window: Vec<ActivationCounts>,
    /// Cache hit rate observed over the recorded pass.
    pub cache_hit_rate: f64,
    /// DRAM-reaching accesses per recorded pass, indexed by MCU.
    pub dram_accesses: Vec<u64>,
}

impl ReplayProfile {
    /// Builds the profile for a recorded run.
    ///
    /// `maps` gives the address-mapping function of each MCU's DIMM and
    /// `trefp_s` each MCU's refresh period (activations per window scale
    /// with the window length).
    pub fn build(
        run: &RecordedRun,
        access: &AccessModelConfig,
        maps: &[AddressMap],
        trefp_s: &[f64],
    ) -> ReplayProfile {
        let mcus = maps.len();
        let mut dram_accesses = vec![0u64; mcus];
        if run.is_empty() {
            return ReplayProfile {
                acts_per_window: vec![ActivationCounts::new(); mcus],
                cache_hit_rate: 0.0,
                dram_accesses,
            };
        }
        let mut cache = Cache::new(access.cache_bytes, access.cache_ways, access.line_bytes);
        let mut rows = RowActivations::new(maps);
        let row_bytes: Vec<u64> = maps.iter().map(|m| m.geometry().row_bytes as u64).collect();
        // A row boundary falls inside a cache line only when the row size
        // is not a multiple of the (power-of-two) line size.
        let line_bytes = access.line_bytes as u64;
        let rows_split_lines: Vec<bool> = row_bytes.iter().map(|&r| r % line_bytes != 0).collect();
        // Stores are setup (the fill phase runs once); the recorded *load*
        // stream is the virus's periodic steady state. The cache and
        // row-buffer models still see every operation in program order so
        // the loads meet warm state, but only loads count toward the
        // periodic activation profile.
        //
        // The trace arrives as contiguous spans, consumed one cache-line
        // segment at a time. Within a segment, words after the first are
        // guaranteed hits (the first access made the line resident), so
        // they go through the bulk [`Cache::access_repeat`] path; and all
        // words share one DRAM row (segments stop at row boundaries), so at
        // most one activation decision is needed per segment. The resulting
        // profile is bit-identical to a per-word walk.
        let mut read_ops = 0u64;
        for span in run.spans() {
            let mcu = span.mcu as usize;
            // Tag addresses with the MCU so lines from different DIMMs
            // never alias in the shared cache model.
            let mcu_tag = (span.mcu as u64) << 56;
            let mut word_addr = span.local_addr;
            let mut left = span.words;
            while left > 0 {
                // Words of this span inside word_addr's cache line, capped
                // at the DRAM row boundary so the one-activation-per-
                // segment argument above holds for any geometry.
                let mut end = (word_addr | (line_bytes - 1)) + 1;
                if rows_split_lines[mcu] {
                    end = end.min((word_addr / row_bytes[mcu] + 1) * row_bytes[mcu]);
                }
                let k = (end - word_addr).div_ceil(8).min(left);
                let first_hit = cache.access(word_addr | mcu_tag);
                cache.access_repeat(word_addr | mcu_tag, k - 1);
                let addr = word_addr;
                word_addr += k * 8;
                left -= k;
                if span.is_write {
                    continue;
                }
                read_ops += k;
                if first_hit && access.model_cache {
                    continue;
                }
                // DRAM-reaching loads: just the first word of the segment
                // when the cache filters (the rest hit the fresh line),
                // every word when it does not.
                dram_accesses[mcu] += if access.model_cache { 1 } else { k };
                rows.load(mcu, addr, row_bytes[mcu]);
            }
        }
        // Scale one recorded pass to a full refresh window: the core
        // sustains `accesses_per_s` loads of the steady-state loop, so one
        // window holds `accesses_per_s * trefp / read_ops` passes. A
        // pure-fill virus has no steady-state loop: memory then idles and
        // the counts stay unscaled.
        let acts_per_window = maps
            .iter()
            .enumerate()
            .map(|(mcu, map)| {
                let passes_per_window =
                    (read_ops > 0).then(|| access.accesses_per_s * trefp_s[mcu] / read_ops as f64);
                rows.counts(mcu, map, passes_per_window)
            })
            .collect();
        ReplayProfile {
            acts_per_window,
            cache_hit_rate: cache.hit_rate(),
            dram_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::reference::StampCache;
    use crate::session::TraceOp;
    use dstress_dram::DimmGeometry;
    use proptest::prelude::*;

    fn maps() -> Vec<AddressMap> {
        (0..4)
            .map(|_| AddressMap::new(DimmGeometry::default()))
            .collect()
    }

    fn access() -> AccessModelConfig {
        AccessModelConfig::default()
    }

    fn run_of(ops: Vec<TraceOp>) -> RecordedRun {
        RecordedRun::from_trace(ops, 2)
    }

    /// A trace that streams `rows` whole rows on MCU 2 (touching each word).
    fn streaming_rows(rows: u64) -> RecordedRun {
        let mut ops = Vec::new();
        for row_chunk in 0..rows {
            for word in 0..1024u64 {
                ops.push(TraceOp {
                    mcu: 2,
                    local_addr: row_chunk * 8192 + word * 8,
                    is_write: false,
                });
            }
        }
        run_of(ops)
    }

    /// Open-row state per (mcu, rank, bank), found through the
    /// [`AddressMap::map`] decode: the oracle's row-buffer model.
    struct OpenRows {
        offsets: Vec<usize>,
        banks: Vec<usize>,
        entries: Vec<u64>,
    }

    impl OpenRows {
        fn new(maps: &[AddressMap]) -> Self {
            let mut offsets = Vec::new();
            let mut banks = Vec::new();
            let mut total = 0usize;
            for map in maps {
                let geo = map.geometry();
                offsets.push(total);
                banks.push(geo.banks as usize);
                total += geo.ranks as usize * geo.banks as usize;
            }
            OpenRows {
                offsets,
                banks,
                entries: vec![0; total],
            }
        }

        fn activate(&mut self, mcu: usize, rank: u8, bank: u8, row: u32) -> bool {
            let idx = self.offsets[mcu] + rank as usize * self.banks[mcu] + bank as usize;
            let tagged = row as u64 + 1;
            let opened = self.entries[idx] != tagged;
            self.entries[idx] = tagged;
            opened
        }
    }

    /// The per-word replay walk through the stamp-based reference cache,
    /// the full address decode and a hashed activation tally: the oracle
    /// for the span-consuming production path.
    fn build_word_at_a_time(
        run: &RecordedRun,
        access: &AccessModelConfig,
        maps: &[AddressMap],
        trefp_s: &[f64],
    ) -> ReplayProfile {
        let mcus = maps.len();
        let mut acts: Vec<dstress_dram::ActivationCounts> =
            vec![dstress_dram::ActivationCounts::new(); mcus];
        let mut dram_accesses = vec![0u64; mcus];
        if run.is_empty() {
            return ReplayProfile {
                acts_per_window: acts,
                cache_hit_rate: 0.0,
                dram_accesses,
            };
        }
        let mut cache = StampCache::new(access.cache_bytes, access.cache_ways, access.line_bytes);
        let mut open_rows = OpenRows::new(maps);
        let mut read_ops = 0u64;
        for op in run.iter() {
            let mcu = op.mcu as usize;
            if !op.is_write {
                read_ops += 1;
            }
            let tagged = op.local_addr | ((op.mcu as u64) << 56);
            let hit = cache.access(tagged) && access.model_cache;
            if hit || op.is_write {
                continue;
            }
            dram_accesses[mcu] += 1;
            let word_addr = op.local_addr & !7;
            if let Ok(loc) = maps[mcu].map(word_addr) {
                if open_rows.activate(mcu, loc.rank, loc.bank, loc.row) {
                    acts[mcu].add(loc.row_key(), 1);
                }
            }
        }
        if read_ops == 0 {
            return ReplayProfile {
                acts_per_window: acts,
                cache_hit_rate: cache.hit_rate(),
                dram_accesses,
            };
        }
        for (mcu, a) in acts.iter_mut().enumerate() {
            let passes_per_window = access.accesses_per_s * trefp_s[mcu] / read_ops as f64;
            *a = a
                .iter()
                .map(|(row, n)| (row, (n as f64 * passes_per_window).round().max(0.0) as u64))
                .collect();
        }
        ReplayProfile {
            acts_per_window: acts,
            cache_hit_rate: cache.hit_rate(),
            dram_accesses,
        }
    }

    fn assert_profiles_match(run: &RecordedRun, access: &AccessModelConfig) {
        let spanned = ReplayProfile::build(run, access, &maps(), &[2.283; 4]);
        let word = build_word_at_a_time(run, access, &maps(), &[2.283; 4]);
        assert_eq!(spanned.dram_accesses, word.dram_accesses);
        assert_eq!(spanned.cache_hit_rate, word.cache_hit_rate);
        for (a, b) in spanned.acts_per_window.iter().zip(&word.acts_per_window) {
            assert_eq!(a.total(), b.total());
            assert_eq!(a.iter().count(), b.iter().count());
        }
    }

    #[test]
    fn span_replay_matches_word_at_a_time_oracle() {
        // Shapes that stress every segment case: long contiguous streams
        // (many-word spans crossing lines and rows), a mixed write/read
        // pass, mid-line starts, singleton ops, and revisits that flip
        // segment-leading accesses between hit and miss.
        let mut mixed = Vec::new();
        for i in 0..3000u64 {
            mixed.push(TraceOp {
                mcu: 2,
                local_addr: 16 + i * 8,
                is_write: true,
            });
        }
        for _ in 0..3 {
            for i in 0..3000u64 {
                mixed.push(TraceOp {
                    mcu: 2,
                    local_addr: 16 + i * 8,
                    is_write: false,
                });
            }
        }
        mixed.push(TraceOp {
            mcu: 1,
            local_addr: 24,
            is_write: false,
        });
        mixed.push(TraceOp {
            mcu: 2,
            local_addr: 40,
            is_write: false,
        });
        let runs = [run_of(mixed), streaming_rows(64), streaming_rows(1)];
        for run in &runs {
            for model_cache in [true, false] {
                let mut a = access();
                a.model_cache = model_cache;
                assert_profiles_match(run, &a);
            }
        }
    }

    #[test]
    fn empty_run_yields_empty_profile() {
        let run = RecordedRun::idle(2);
        let p = ReplayProfile::build(&run, &access(), &maps(), &[2.283; 4]);
        assert!(p.acts_per_window.iter().all(|a| a.total() == 0));
        assert_eq!(p.dram_accesses, vec![0; 4]);
    }

    #[test]
    fn repeated_small_footprint_is_cache_absorbed() {
        // 8 lines touched 1000 times: everything after warmup hits cache.
        let mut ops = Vec::new();
        for _ in 0..1000 {
            for line in 0..8u64 {
                ops.push(TraceOp {
                    mcu: 2,
                    local_addr: line * 64,
                    is_write: false,
                });
            }
        }
        let p = ReplayProfile::build(&run_of(ops), &access(), &maps(), &[2.283; 4]);
        assert!(p.cache_hit_rate > 0.99);
        assert_eq!(p.dram_accesses[2], 8, "only the cold misses reach DRAM");
    }

    #[test]
    fn streaming_many_rows_thrashes_and_activates() {
        // 64 rows x 8 KB = 512 KB working set > 256 KB cache.
        let p = ReplayProfile::build(&streaming_rows(64), &access(), &maps(), &[2.283; 4]);
        assert!(p.cache_hit_rate < 0.95);
        assert!(
            p.acts_per_window[2].iter().count() > 32,
            "many rows must activate"
        );
        assert_eq!(p.acts_per_window[0].total(), 0, "other MCUs stay quiet");
    }

    #[test]
    fn sequential_words_in_a_row_activate_once_per_pass() {
        // A single row streamed once: 128 line misses but one activation.
        let p = ReplayProfile::build(&streaming_rows(1), &access(), &maps(), &[1.0; 4]);
        // Scale: one pass = 1024 ops; passes/window = 20e6 * 1.0 / 1024.
        let expected_scale = (20.0e6_f64 / 1024.0).round() as u64;
        assert_eq!(p.acts_per_window[2].total(), expected_scale);
        assert_eq!(p.acts_per_window[2].iter().count(), 1);
    }

    #[test]
    fn longer_trefp_means_more_activations_per_window() {
        let short = ReplayProfile::build(&streaming_rows(64), &access(), &maps(), &[0.064; 4]);
        let long = ReplayProfile::build(&streaming_rows(64), &access(), &maps(), &[2.283; 4]);
        assert!(long.acts_per_window[2].total() > 10 * short.acts_per_window[2].total());
    }

    proptest! {
        /// Random span traces over small geometries (rows that split cache
        /// lines, bank counts that are not powers of two, spans running
        /// past the DIMM) replay exactly as the word-at-a-time oracle does.
        #[test]
        fn random_traces_match_word_at_a_time_oracle(
            ranks in 1u8..3,
            banks in 1u8..6,
            rows_per_bank in 1u32..6,
            row_bytes in prop_oneof![Just(24u32), Just(64), Just(96), Just(256), Just(1024)],
            ways in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
            sets_log2 in 0u32..4,
            model_cache in any::<bool>(),
            spans in proptest::collection::vec(
                (0u8..4, 0u64..1200, 1u64..40, any::<bool>()),
                0..120,
            ),
        ) {
            let geometry = DimmGeometry { ranks, banks, rows_per_bank, row_bytes };
            let maps: Vec<AddressMap> = (0..4).map(|_| AddressMap::new(geometry)).collect();
            let access = AccessModelConfig {
                cache_bytes: (1 << sets_log2) * ways * 64,
                cache_ways: ways,
                model_cache,
                ..AccessModelConfig::default()
            };
            let mut run = RecordedRun::idle(2);
            for &(mcu, word, words, is_write) in &spans {
                run.push_span(mcu, word * 8, words, is_write);
            }
            let trefps = [0.064, 1.0, 2.283, 0.5];
            let fast = ReplayProfile::build(&run, &access, &maps, &trefps);
            let oracle = build_word_at_a_time(&run, &access, &maps, &trefps);
            prop_assert_eq!(fast.acts_per_window, oracle.acts_per_window);
            prop_assert_eq!(fast.dram_accesses, oracle.dram_accesses);
            prop_assert_eq!(fast.cache_hit_rate.to_bits(), oracle.cache_hit_rate.to_bits());
        }
    }
}
