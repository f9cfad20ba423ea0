//! Set-associative caches with true-LRU replacement.
//!
//! Timing-only: the cache tracks tags, not data. Accesses report hit/miss
//! and maintain the statistics the power model consumes (every access
//! toggles the array's bitlines regardless of hit/miss).

use crate::config::CacheGeometry;

/// Statistics of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines filled (equals misses for this no-prefetch design).
    pub fills: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, true-LRU, tag-only cache model.
///
/// # Examples
///
/// ```
/// use gals_uarch::{Cache, CacheGeometry};
///
/// let mut l1 = Cache::new(CacheGeometry { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 1 });
/// assert!(!l1.access(0x40));  // cold miss
/// assert!(l1.access(0x40));   // now resident
/// assert!(l1.access(0x44));   // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `log2(line_bytes)` — geometry is validated power-of-two, so the
    /// per-access index/tag split is two shifts and a mask, not three
    /// divisions (this runs for every fetch tick and every load).
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU ordering per set: lower = more recently used rank. `lru[set*ways + way]`.
    lru: Vec<u8>,
    stats: CacheStats,
}

const INVALID_TAG: u64 = u64::MAX;

impl Cache {
    /// Builds a cache from a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see
    /// [`CacheGeometry::sets`]) or associativity exceeds 255.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        assert!(geometry.ways <= 255, "associativity above 255 unsupported");
        let slots = (sets * u64::from(geometry.ways)) as usize;
        assert!(
            geometry.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            geometry,
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            tags: vec![INVALID_TAG; slots],
            lru: (0..slots)
                .map(|i| (i % geometry.ways as usize) as u8)
                .collect(),
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u32 {
        self.geometry.latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index_tag(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        (line & self.set_mask, line >> self.set_shift)
    }

    /// Looks up `addr`; on miss the line is filled (allocate-on-miss for
    /// both reads and writes). Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let (set, tag) = self.index_tag(addr);
        let ways = self.geometry.ways as usize;
        let base = (set as usize) * ways;
        let slice = &mut self.tags[base..base + ways];
        if let Some(way) = slice.iter().position(|&t| t == tag) {
            self.touch(base, ways, way);
            return true;
        }
        self.stats.misses += 1;
        self.stats.fills += 1;
        // Victim = way with the highest LRU rank.
        let victim = (0..ways)
            .max_by_key(|&w| self.lru[base + w])
            .expect("ways >= 1");
        self.tags[base + victim] = tag;
        self.touch(base, ways, victim);
        false
    }

    fn touch(&mut self, base: usize, ways: usize, way: usize) {
        let old = self.lru[base + way];
        for w in 0..ways {
            if self.lru[base + w] < old {
                self.lru[base + w] += 1;
            }
        }
        self.lru[base + way] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(ways: u32) -> Cache {
        Cache::new(CacheGeometry {
            size_bytes: 4 * 64 * u64::from(ways),
            ways,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(2);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(2); // 4 sets, 2 ways
                              // Three lines mapping to set 0: line numbers 0, 4, 8 (addr = line*64).
        assert!(!c.access(0));
        assert!(!c.access(4 * 64));
        assert!(c.access(0)); // touch line 0 so line 4*64 is LRU
        assert!(!c.access(8 * 64)); // evicts 4*64
        assert!(c.access(0));
        assert!(!c.access(4 * 64)); // was evicted
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = small(1); // 4 sets, 1 way
        assert!(!c.access(0));
        assert!(!c.access(4 * 64)); // same set, evicts
        assert!(!c.access(0));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = small(2);
        for i in 0..8 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().miss_rate(), 1.0);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn paper_l1d_geometry_behaves() {
        let mut l1 = Cache::new(CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 1,
        });
        // A 8 KB strided walk fits entirely: second pass all hits.
        for pass in 0..2 {
            for a in (0..8192u64).step_by(64) {
                let hit = l1.access(a);
                if pass == 1 {
                    assert!(hit, "address {a} should hit on second pass");
                }
            }
        }
        // A 64 KB walk misses everywhere except the 128 lines the 8 KB
        // pass left resident (1024 lines - 128 hits = 896 misses).
        let mut big = 0;
        for a in (0..65536u64).step_by(64) {
            if !l1.access(a) {
                big += 1;
            }
        }
        assert_eq!(big, 896);
        // A second 64 KB sequential pass through a 16 KB LRU cache misses
        // on every line (classic streaming thrash).
        let mut second = 0;
        for a in (0..65536u64).step_by(64) {
            if !l1.access(a) {
                second += 1;
            }
        }
        assert_eq!(second, 1024);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small(2);
        c.access(0);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0), "contents survive stats reset");
    }
}
