//! Set-associative cache model with LRU replacement: the instruction
//! and data caches of the ARM hard-core baseline models. The paper's
//! MicroBlaze runs from local BRAM and has none.

/// Geometry and miss cost of a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Extra cycles charged on a miss.
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> u32 {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss counters for a cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 1.0 for an unused cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Clone, Debug)]
struct CacheLine {
    tag: u32,
    valid: bool,
    /// Lower value = more recently used.
    lru: u32,
}

/// A set-associative cache with true-LRU replacement.
///
/// The model tracks hits and misses only (no dirty/writeback modeling);
/// stores are treated as write-allocate.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<CacheLine>,
    stats: CacheStats,
    tick: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let n = (config.sets() * config.ways) as usize;
        Cache {
            config,
            lines: vec![CacheLine { tag: 0, valid: false, lru: 0 }; n],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// Accumulated hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Simulates one access; returns the extra cycles charged
    /// (0 on hit, `miss_penalty` on miss).
    pub fn access(&mut self, addr: u32) -> u32 {
        self.tick = self.tick.wrapping_add(1);
        let line_addr = addr / self.config.line_bytes;
        let set = line_addr % self.config.sets();
        let tag = line_addr / self.config.sets();
        let base = (set * self.config.ways) as usize;
        let ways = self.config.ways as usize;

        // Hit?
        for i in base..base + ways {
            if self.lines[i].valid && self.lines[i].tag == tag {
                self.lines[i].lru = self.tick;
                self.stats.hits += 1;
                return 0;
            }
        }

        // Miss: fill LRU way.
        self.stats.misses += 1;
        let victim = (base..base + ways)
            .min_by_key(|&i| if self.lines[i].valid { self.lines[i].lru } else { 0 })
            .expect("cache has at least one way");
        self.lines[victim] = CacheLine { tag, valid: true, lru: self.tick };
        self.config.miss_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 16 bytes, direct mapped.
        Cache::new(CacheConfig { size_bytes: 64, line_bytes: 16, ways: 1, miss_penalty: 7 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x00), 7);
        assert_eq!(c.access(0x04), 0); // same line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = tiny();
        // 0x00 and 0x40 map to the same set (4 sets × 16 bytes).
        assert_eq!(c.access(0x00), 7);
        assert_eq!(c.access(0x40), 7);
        assert_eq!(c.access(0x00), 7); // evicted
    }

    #[test]
    fn associativity_absorbs_conflicts() {
        let mut c =
            Cache::new(CacheConfig { size_bytes: 128, line_bytes: 16, ways: 2, miss_penalty: 7 });
        // Two addresses mapping to the same set now coexist.
        assert_eq!(c.access(0x00), 7);
        assert_eq!(c.access(0x40), 7);
        assert_eq!(c.access(0x00), 0);
        assert_eq!(c.access(0x40), 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c =
            Cache::new(CacheConfig { size_bytes: 32, line_bytes: 16, ways: 2, miss_penalty: 1 });
        // One set, two ways.
        c.access(0x00); // A
        c.access(0x10); // B
        c.access(0x00); // touch A
        c.access(0x20); // C evicts B
        assert_eq!(c.access(0x00), 0, "A must still be resident");
        assert_eq!(c.access(0x10), 1, "B was evicted");
    }

    #[test]
    fn hit_rate_of_unused_cache_is_one() {
        assert!((tiny().stats().hit_rate() - 1.0).abs() < f64::EPSILON);
    }
}
