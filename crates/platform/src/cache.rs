//! A set-associative LRU cache model.
//!
//! The paper's viruses issue only ordinary loads and stores — no `clflush` —
//! so the DRAM access intensity is whatever leaks through the cache
//! hierarchy (§V-A.4: "we access to DRAMs only when a row is not cached and
//! thus we obtain a much lower DRAM access intensity"). This model filters a
//! recorded access trace down to the accesses that actually reach DRAM.

use serde::{Deserialize, Serialize};

/// A physical-address-indexed, set-associative, true-LRU cache.
///
/// The line size and the set count are powers of two, so an address finds
/// its set with a shift and a mask. Each set keeps its resident lines in
/// recency order, most recent first: a hit moves the line to the front, a
/// miss shifts the new line in at the front and drops the last one (the
/// least recently used, or an empty way while the set is still filling).
///
/// # Examples
///
/// ```
/// use dstress_platform::cache::Cache;
///
/// let mut cache = Cache::new(1024, 2, 64);
/// assert!(!cache.access(0));  // cold miss
/// assert!(cache.access(0));   // now resident
/// assert!(cache.access(8));   // same line
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    /// `sets × ways` line numbers (address >> line shift), one block of
    /// `ways` per set in recency order; [`EMPTY`] marks an unfilled way.
    lines: Vec<u64>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

/// An unfilled way. No address reaches this line number: lines are at
/// least one 64-bit word, so a line number has its top bits clear.
const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Creates a cache of `capacity_bytes` with the given associativity and
    /// line size. Capacity is rounded down to a whole number of sets; at
    /// least one set is always present.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, if `line_bytes` is not a power of two of
    /// at least one 64-bit word, or if the set count is not a power of two.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            line_bytes >= 8 && line_bytes.is_power_of_two(),
            "cache line size must be a power of two of at least 8 bytes"
        );
        let set_count = (capacity_bytes / (ways * line_bytes)).max(1);
        assert!(
            set_count.is_power_of_two(),
            "cache set count {set_count} must be a power of two"
        );
        Cache {
            lines: vec![EMPTY; set_count * ways],
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: set_count as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// The line number of `addr` and the recency-ordered ways of its set.
    #[inline]
    fn set_of(&mut self, addr: u64) -> (u64, &mut [u64]) {
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.ways;
        (line, &mut self.lines[base..base + self.ways])
    }

    /// Simulates one access to `addr`; returns `true` on hit. Misses fill
    /// the line (allocate-on-miss for both reads and writes).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (line, set) = self.set_of(addr);
        let hit = promote(set, line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Records `n` further accesses to `addr`'s line, which must be
    /// resident. State and statistics end up exactly as after `n`
    /// sequential [`Self::access`] calls that all hit: `n` hits and the
    /// line most recently used, without `n` set scans. This is the bulk
    /// path behind span replay ([`crate::replay::ReplayProfile::build`]):
    /// words 2…k of a cache line touched by a contiguous span are
    /// guaranteed hits.
    ///
    /// # Panics
    ///
    /// Panics when `n > 0` and the line is not resident.
    #[inline]
    pub fn access_repeat(&mut self, addr: u64, n: u64) {
        if n == 0 {
            return;
        }
        let (line, set) = self.set_of(addr);
        assert!(promote(set, line), "access_repeat requires a resident line");
        self.hits += n;
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses (0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Empties the cache and statistics.
    pub fn clear(&mut self) {
        self.lines.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
    }
}

/// Moves `line` to the front of a recency-ordered `set` in one pass, each
/// way taking the line ahead of it, and returns whether the set held it.
/// When it did not, the last way (the least recently used line, or an
/// unfilled way) drops out.
#[inline]
fn promote(set: &mut [u64], line: u64) -> bool {
    let mut carried = line;
    for way in set.iter_mut() {
        let held = std::mem::replace(way, carried);
        if held == line {
            return true;
        }
        carried = held;
    }
    false
}

/// The stamp-and-scan true-LRU model [`Cache`] replaced, kept as the
/// reference the recency-ordered sets are pinned against: every access
/// bumps a tick, a hit restamps the line, a miss fills an empty way or
/// evicts the way with the oldest stamp.
#[cfg(test)]
pub(crate) mod reference {
    #[derive(Debug, Clone, Copy)]
    struct CacheLine {
        tag: u64,
        last_used: u64,
    }

    /// Stamp-based LRU cache with the same interface as [`super::Cache`].
    #[derive(Debug, Clone)]
    pub(crate) struct StampCache {
        sets: Vec<Vec<CacheLine>>,
        ways: usize,
        line_bytes: u64,
        set_count: u64,
        hits: u64,
        misses: u64,
        tick: u64,
    }

    impl StampCache {
        pub(crate) fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
            let set_count = (capacity_bytes / (ways * line_bytes)).max(1) as u64;
            StampCache {
                sets: vec![Vec::with_capacity(ways); set_count as usize],
                ways,
                line_bytes: line_bytes as u64,
                set_count,
                hits: 0,
                misses: 0,
                tick: 0,
            }
        }

        pub(crate) fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let line = addr / self.line_bytes;
            let set_idx = (line % self.set_count) as usize;
            let tag = line / self.set_count;
            let set = &mut self.sets[set_idx];
            if let Some(entry) = set.iter_mut().find(|l| l.tag == tag) {
                entry.last_used = self.tick;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let fresh = CacheLine {
                tag,
                last_used: self.tick,
            };
            if set.len() < self.ways {
                set.push(fresh);
            } else {
                let victim = set
                    .iter_mut()
                    .min_by_key(|l| l.last_used)
                    .expect("non-empty set has an LRU victim");
                *victim = fresh;
            }
            false
        }

        pub(crate) fn access_repeat(&mut self, addr: u64, n: u64) {
            if n == 0 {
                return;
            }
            let line = addr / self.line_bytes;
            let set_idx = (line % self.set_count) as usize;
            let tag = line / self.set_count;
            self.tick += n;
            self.hits += n;
            let entry = self.sets[set_idx]
                .iter_mut()
                .find(|l| l.tag == tag)
                .expect("access_repeat requires a resident line");
            entry.last_used = self.tick;
        }

        pub(crate) fn hits(&self) -> u64 {
            self.hits
        }

        pub(crate) fn misses(&self) -> u64 {
            self.misses
        }

        pub(crate) fn hit_rate(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.hits as f64 / total as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::StampCache;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(4096, 4, 64);
        assert!(!c.access(100));
        assert!(c.access(100));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut c = Cache::new(4096, 4, 64);
        c.access(0);
        assert!(c.access(56));
        assert!(!c.access(64), "next line is distinct");
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-mapped-by-construction: 1 set, 2 ways.
        let mut c = Cache::new(128, 2, 64);
        c.access(0); // line A
        c.access(64); // line B
        c.access(0); // touch A -> B is LRU
        c.access(128); // evicts B
        assert!(c.access(0), "A must still be resident");
        assert!(!c.access(64), "B must have been evicted");
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(64 * 1024, 8, 64);
        // Stream 1 MB twice: second pass still misses (LRU streaming).
        for _pass in 0..2 {
            for line in 0..(1 << 14) {
                c.access(line * 64);
            }
        }
        assert!(c.hit_rate() < 0.05, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn working_set_smaller_than_capacity_hits_after_warmup() {
        let mut c = Cache::new(64 * 1024, 8, 64);
        for _pass in 0..10 {
            for line in 0..256 {
                c.access(line * 64);
            }
        }
        assert!(c.hit_rate() > 0.85, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn clear_resets_state() {
        let mut c = Cache::new(4096, 4, 64);
        c.access(0);
        c.clear();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0), "cleared cache must cold-miss");
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        Cache::new(1024, 0, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        Cache::new(3 * 2 * 64, 2, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_panics() {
        Cache::new(4096, 4, 48);
    }

    /// One step of a random access stream: an access, or a repeat run on
    /// the line just accessed (the shape span replay issues).
    fn stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
        // A few hundred lines over a handful of sets keeps sets full and
        // evictions frequent; `repeat` is 0 for a plain access.
        proptest::collection::vec((0u64..(1 << 15), prop_oneof![Just(0u64), 1u64..9]), 1..600)
    }

    proptest! {
        #[test]
        fn recency_order_matches_stamp_lru(
            ops in stream(),
            ways in prop_oneof![Just(1usize), Just(2), Just(3), Just(8), Just(16)],
            sets_log2 in 0u32..6,
            tagged in any::<bool>(),
        ) {
            let capacity = (1usize << sets_log2) * ways * 64;
            let mut fast = Cache::new(capacity, ways, 64);
            let mut oracle = StampCache::new(capacity, ways, 64);
            for &(addr, repeat) in &ops {
                // Tag half the streams the way replay does (MCU in the top
                // byte) so high address bits take part too.
                let addr = if tagged { addr | (3 << 56) } else { addr };
                prop_assert_eq!(fast.access(addr), oracle.access(addr));
                fast.access_repeat(addr, repeat);
                oracle.access_repeat(addr, repeat);
            }
            prop_assert_eq!(fast.hits(), oracle.hits());
            prop_assert_eq!(fast.misses(), oracle.misses());
            prop_assert_eq!(fast.hit_rate().to_bits(), oracle.hit_rate().to_bits());
        }
    }
}
