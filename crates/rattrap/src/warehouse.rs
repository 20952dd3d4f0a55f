//! App Warehouse and the mobile code cache (§IV-D, Fig. 8).
//!
//! Code transfer happens when an application sends its *first*
//! offloading request, once and for all: the warehouse preserves the
//! code and maintains a cache table keyed by AID. Later requests carry
//! only a `Reference` and fetch the code server-side. The table also
//! maps AIDs to the containers (CIDs) that already executed the app, so
//! the Dispatcher can route requests to a runtime where the code is
//! already loaded and skip the ClassLoader.

use std::collections::BTreeMap;
use virt::InstanceId;
/// The cache key (the hex ids of Fig. 8) lives beside the runtimes that
/// track loaded code by it.
pub use virt::{aid_of, Aid};

/// One cache-table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Package name the code came from.
    pub app_id: String,
    /// Stored code size in bytes.
    pub code_bytes: u64,
    /// Containers that have loaded this code (the CID column).
    pub containers: Vec<InstanceId>,
    /// Cache hits so far.
    pub hits: u64,
    /// Monotone counter of last use, for LRU eviction.
    last_used: u64,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarehouseStats {
    /// Lookups that found the code cached.
    pub hits: u64,
    /// Lookups that required a code transfer.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Upload bytes avoided thanks to hits.
    pub bytes_saved: u64,
}

/// The App Warehouse.
#[derive(Debug)]
pub struct AppWarehouse {
    entries: BTreeMap<Aid, CacheEntry>,
    capacity_bytes: u64,
    used_bytes: u64,
    clock: u64,
    stats: WarehouseStats,
}

impl AppWarehouse {
    /// A warehouse bounded at `capacity_bytes` of stored code.
    pub fn new(capacity_bytes: u64) -> Self {
        AppWarehouse {
            entries: BTreeMap::new(),
            capacity_bytes,
            used_bytes: 0,
            clock: 0,
            stats: WarehouseStats::default(),
        }
    }

    /// Look up `aid`. A hit bumps the hit counters and records the
    /// avoided transfer; a miss only counts.
    pub fn lookup(&mut self, aid: &Aid) -> bool {
        self.clock += 1;
        match self.entries.get_mut(aid) {
            Some(e) => {
                e.hits += 1;
                e.last_used = self.clock;
                self.stats.hits += 1;
                self.stats.bytes_saved += e.code_bytes;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Store code after a transfer (the "Maintain" arrow of Fig. 8).
    /// Evicts least-recently-used entries if needed.
    pub fn insert(&mut self, aid: Aid, app_id: &str, code_bytes: u64) {
        self.clock += 1;
        if let Some(old) = self.entries.remove(&aid) {
            self.used_bytes -= old.code_bytes;
        }
        while self.used_bytes + code_bytes > self.capacity_bytes && !self.entries.is_empty() {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&aid, _)| aid)
                .expect("non-empty");
            let victim = self.entries.remove(&lru).expect("exists");
            self.used_bytes -= victim.code_bytes;
            self.stats.evictions += 1;
        }
        if code_bytes > self.capacity_bytes {
            return; // cannot cache something bigger than the warehouse
        }
        self.used_bytes += code_bytes;
        self.entries.insert(
            aid,
            CacheEntry {
                app_id: app_id.to_string(),
                code_bytes,
                containers: Vec::new(),
                hits: 0,
                last_used: self.clock,
            },
        );
    }

    /// Record that `container` has loaded the code for `aid` (CID map).
    /// Returns whether the code is cached at all — when it is, the
    /// app's CID column lists `container` from here on.
    pub fn note_loaded(&mut self, aid: &Aid, container: InstanceId) -> bool {
        let Some(e) = self.entries.get_mut(aid) else {
            return false;
        };
        if !e.containers.contains(&container) {
            e.containers.push(container);
        }
        true
    }

    /// Containers that already hold this app's code, preferred-first.
    pub fn containers_with(&self, aid: &Aid) -> &[InstanceId] {
        self.entries
            .get(aid)
            .map(|e| e.containers.as_slice())
            .unwrap_or(&[])
    }

    /// Forget a torn-down container in every CID column.
    pub fn invalidate_container(&mut self, container: InstanceId) {
        for e in self.entries.values_mut() {
            e.containers.retain(|&c| c != container);
        }
    }

    /// Cache statistics.
    pub fn stats(&self) -> WarehouseStats {
        self.stats
    }

    /// Bytes of code currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached apps.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no code is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mib(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn aid_is_stable_and_distinct() {
        assert_eq!(aid_of("com.bench.ocr"), aid_of("com.bench.ocr"));
        assert_ne!(aid_of("com.bench.ocr"), aid_of("com.bench.chessgame"));
        assert_eq!(
            aid_of("com.bench.ocr").to_string().len(),
            7,
            "paper-style short hex"
        );
    }

    /// The AID as it was derived and rendered when it was a `String`.
    /// Its multiplier is not FNV's prime `0x100_0000_01b3`, but both are
    /// `0x1b3` modulo 2^28, so the 28 bits kept match `aid_of`'s FNV-1a.
    fn rendered(app_id: &str) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in app_id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        format!("{:07x}", h & 0xfff_ffff)
    }

    #[test]
    fn integer_aid_renders_and_orders_like_the_string_it_replaced() {
        let mut rng = simkit::SimRng::new(0xa1d);
        let mut names: Vec<String> = workloads::WorkloadKind::ALL
            .iter()
            .map(|k| k.app_id().to_string())
            .collect();
        for i in 0..1_000 {
            let len = rng.uniform_u64(0, 40) as usize;
            let tail: String = (0..len)
                .map(|_| rng.uniform_u64(0x20, 0x7e) as u8 as char)
                .collect();
            names.push(format!("pkg{i}.{tail}"));
        }
        for name in &names {
            let aid = aid_of(name);
            assert_eq!(aid.to_string(), rendered(name), "{name}");
            assert_eq!(aid.hex().as_slice(), rendered(name).as_bytes(), "{name}");
        }
        for pair in names.windows(2) {
            let by_id = aid_of(&pair[0]).cmp(&aid_of(&pair[1]));
            assert_eq!(
                by_id,
                rendered(&pair[0]).cmp(&rendered(&pair[1])),
                "{pair:?}"
            );
        }
    }

    #[test]
    fn first_lookup_misses_then_hits() {
        let mut w = AppWarehouse::new(mib(100));
        let aid = aid_of("com.bench.chessgame");
        assert!(!w.lookup(&aid));
        w.insert(aid, "com.bench.chessgame", mib(2));
        assert!(w.lookup(&aid));
        assert!(w.lookup(&aid));
        let s = w.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.bytes_saved, 2 * mib(2), "each hit avoids one code upload");
    }

    #[test]
    fn cid_mapping_tracks_containers() {
        let mut w = AppWarehouse::new(mib(10));
        let aid = aid_of("app");
        w.insert(aid, "app", 1000);
        w.note_loaded(&aid, InstanceId(3));
        w.note_loaded(&aid, InstanceId(7));
        w.note_loaded(&aid, InstanceId(3)); // dedup
        assert_eq!(w.containers_with(&aid), &[InstanceId(3), InstanceId(7)]);
        w.invalidate_container(InstanceId(3));
        assert_eq!(w.containers_with(&aid), &[InstanceId(7)]);
        assert!(w.containers_with(&aid_of("other")).is_empty());
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut w = AppWarehouse::new(mib(5));
        let a = aid_of("a");
        let b = aid_of("b");
        let c = aid_of("c");
        w.insert(a, "a", mib(2));
        w.insert(b, "b", mib(2));
        assert!(w.lookup(&a), "touch a so b becomes LRU");
        w.insert(c, "c", mib(2)); // evicts b
        assert!(w.lookup(&a));
        assert!(!w.lookup(&b), "b was evicted");
        assert!(w.lookup(&c));
        assert_eq!(w.stats().evictions, 1);
        assert!(w.used_bytes() <= mib(5));
    }

    #[test]
    fn oversized_code_is_not_cached() {
        let mut w = AppWarehouse::new(1000);
        let aid = aid_of("huge");
        w.insert(aid, "huge", 5000);
        assert!(!w.lookup(&aid));
        assert_eq!(w.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_entry() {
        let mut w = AppWarehouse::new(mib(10));
        let aid = aid_of("app");
        w.insert(aid, "app", 1000);
        w.insert(aid, "app", 3000);
        assert_eq!(w.used_bytes(), 3000);
        assert_eq!(w.len(), 1);
    }
}
