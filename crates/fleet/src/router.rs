//! The front-end Router: code-cache-affinity routing over a
//! consistent-hash ring.
//!
//! Requests are keyed by AID (the App Warehouse cache key, Fig. 8).
//! Routing prefers a host that already holds a warm container for the
//! app (the per-host warehouse's CID hints), falls back to the AID's
//! consistent-hash home host, and spills clockwise around the ring
//! when the preferred hosts refuse admission. Adding or removing one
//! host only remaps the ring arcs that host owned — the rest of the
//! fleet keeps its code caches warm.

use rattrap::warehouse::Aid;
use std::collections::{BTreeMap, BTreeSet};

/// Why the router picked the host it picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteReason {
    /// A warm container for the AID already lives there.
    Affinity,
    /// The AID's consistent-hash home host.
    Hash,
    /// Home (and any warm hosts) refused admission; spilled clockwise.
    Spill,
}

impl RouteReason {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            RouteReason::Affinity => "affinity",
            RouteReason::Hash => "hash",
            RouteReason::Spill => "spill",
        }
    }
}

/// A routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Target host index.
    pub host: usize,
    /// Why.
    pub reason: RouteReason,
}

/// One vnode on the ring.
#[derive(Debug, Clone, Copy)]
struct RingPoint {
    at: u64,
    host: usize,
    /// Ring positions back (cyclically) to the same host's previous
    /// point. A walk `k` steps in meets a host for the first time
    /// exactly where `gap > k`, so routes need no set of hosts seen.
    gap: usize,
}

/// Consistent-hash ring over the currently routable hosts.
#[derive(Debug)]
pub struct Router {
    /// Sorted by `(at, host)`.
    points: Vec<RingPoint>,
    vnodes: usize,
    /// Distinct hosts on the ring, counted at `rebuild`.
    hosts: usize,
}

/// FNV-1a over a byte string, with a final avalanche so vnode points
/// spread even for short keys.
fn hash_bytes(bytes: impl IntoIterator<Item = u8>, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Router {
    /// An empty ring with `vnodes` points per host. More vnodes means
    /// smoother arc ownership; 64 is plenty for single-digit fleets.
    pub fn new(vnodes: usize) -> Self {
        assert!(vnodes > 0, "at least one virtual node per host");
        Router {
            points: Vec::new(),
            vnodes,
            hosts: 0,
        }
    }

    /// Rebuild the ring over `routable`. Called whenever membership
    /// changes (activation, drain, crash, rejoin) — placement of every
    /// AID whose arc owner survived is unchanged.
    pub fn rebuild(&mut self, routable: &BTreeSet<usize>) {
        self.points.clear();
        self.hosts = routable.len();
        for &host in routable {
            for v in 0..self.vnodes {
                let key = host.to_le_bytes().into_iter().chain(v.to_le_bytes());
                let at = hash_bytes(key, 0x9e37_79b9);
                self.points.push(RingPoint { at, host, gap: 0 });
            }
        }
        self.points.sort_unstable_by_key(|p| (p.at, p.host));
        // Two laps, so that a host's first point sees its last one.
        let n = self.points.len();
        let mut last = BTreeMap::new();
        for i in 0..2 * n {
            let p = &mut self.points[i % n];
            if let Some(prev) = last.insert(p.host, i) {
                p.gap = i - prev;
            }
        }
    }

    /// Route one request.
    ///
    /// * `warm` — hosts whose warehouse holds a live container for the
    ///   AID (CID hints), in ascending host order.
    /// * `admissible` — whether a host will accept one more request
    ///   (active, queue not full).
    ///
    /// Preference: warm hosts (first admissible), then the hash home,
    /// then clockwise spillover. `None` means every routable host
    /// refused admission — the caller sheds.
    ///
    /// The ring is walked lazily: `admissible` is asked once per
    /// distinct host, in ring order (callers' closures read admission
    /// state, so that order is part of the contract), until one accepts
    /// or every host has refused — ~`H·ln H` points, not `H × vnodes`.
    pub fn route(
        &self,
        aid: &Aid,
        warm: &[usize],
        mut admissible: impl FnMut(usize) -> bool,
    ) -> Option<RouteDecision> {
        if let Some(&h) = warm.iter().find(|&&h| admissible(h)) {
            return Some(RouteDecision {
                host: h,
                reason: RouteReason::Affinity,
            });
        }
        // The ring keys on the AID as the cache table prints it.
        let key = hash_bytes(aid.hex(), 0);
        let (before, from) = self
            .points
            .split_at(self.points.partition_point(|p| p.at < key));
        from.iter()
            .chain(before)
            .enumerate()
            .filter(|&(k, p)| p.gap > k) // else the walk already met this host
            .map(|(_, p)| p.host)
            .take(self.hosts)
            .enumerate()
            .find(|&(_, host)| admissible(host))
            .map(|(refused, host)| RouteDecision {
                host,
                reason: if refused == 0 {
                    RouteReason::Hash
                } else {
                    RouteReason::Spill
                },
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rattrap::warehouse::aid_of;

    fn ring(hosts: &[usize]) -> Router {
        let mut r = Router::new(64);
        r.rebuild(&hosts.iter().copied().collect());
        r
    }

    #[test]
    fn routing_is_deterministic_and_stable() {
        let r = ring(&[0, 1, 2, 3]);
        let aid = aid_of("com.bench.ocr");
        let a = r.route(&aid, &[], |_| true).unwrap();
        let b = r.route(&aid, &[], |_| true).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.reason, RouteReason::Hash);
    }

    #[test]
    fn warm_host_wins_over_hash_home() {
        let r = ring(&[0, 1, 2, 3]);
        let aid = aid_of("com.bench.ocr");
        let home = r.route(&aid, &[], |_| true).unwrap().host;
        let warm = (home + 1) % 4;
        let d = r.route(&aid, &[warm], |_| true).unwrap();
        assert_eq!(d.host, warm);
        assert_eq!(d.reason, RouteReason::Affinity);
    }

    #[test]
    fn spillover_walks_the_ring_past_full_hosts() {
        let r = ring(&[0, 1, 2, 3]);
        let aid = aid_of("com.bench.chessgame");
        let home = r.route(&aid, &[], |_| true).unwrap().host;
        let d = r.route(&aid, &[], |h| h != home).unwrap();
        assert_ne!(d.host, home);
        assert_eq!(d.reason, RouteReason::Spill);
    }

    #[test]
    fn all_full_sheds() {
        let r = ring(&[0, 1]);
        assert!(r.route(&aid_of("com.bench.ocr"), &[], |_| false).is_none());
    }

    #[test]
    fn membership_change_only_remaps_lost_arcs() {
        let four = ring(&[0, 1, 2, 3]);
        let three = ring(&[0, 1, 2]);
        // Every AID routed to a surviving host keeps its placement.
        for app in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            let aid = aid_of(app);
            let before = four.route(&aid, &[], |_| true).unwrap().host;
            let after = three.route(&aid, &[], |_| true).unwrap().host;
            if before != 3 {
                assert_eq!(before, after, "surviving arc moved for {app}");
            }
        }
    }

    #[test]
    fn vnodes_spread_hosts_over_the_ring() {
        let r = ring(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.hosts, 8);
        // Many distinct keys must not all land on one host.
        let mut hit = BTreeSet::new();
        for i in 0..64 {
            let aid = aid_of(&format!("app{i}"));
            hit.insert(r.route(&aid, &[], |_| true).unwrap().host);
        }
        assert!(hit.len() >= 6, "only {} hosts hit", hit.len());
    }

    #[test]
    fn empty_ring_sheds_without_asking() {
        let r = Router::new(64);
        assert_eq!(r.hosts, 0);
        let d = r.route(&aid_of("com.bench.ocr"), &[], |_| -> bool {
            panic!("no host to ask")
        });
        assert!(d.is_none());
    }

    /// Hosts in ring order starting at `key`'s arc, deduplicated — the
    /// spillover order, materialised (what `route` did per call before
    /// the walk became lazy).
    fn ring_walk(r: &Router, key: u64) -> Vec<usize> {
        if r.points.is_empty() {
            return Vec::new();
        }
        let start = r.points.partition_point(|p| p.at < key);
        let mut seen = BTreeSet::new();
        let mut order = Vec::new();
        for i in 0..r.points.len() {
            let h = r.points[(start + i) % r.points.len()].host;
            if seen.insert(h) {
                order.push(h);
            }
        }
        order
    }

    /// `route` over the materialised order: the reference for both the
    /// decision and the sequence of hosts asked.
    fn route_over_full_walk(
        r: &Router,
        aid: &Aid,
        warm: &[usize],
        mut admissible: impl FnMut(usize) -> bool,
    ) -> Option<RouteDecision> {
        if let Some(&h) = warm.iter().find(|&&h| admissible(h)) {
            return Some(RouteDecision {
                host: h,
                reason: RouteReason::Affinity,
            });
        }
        // The reference hashes the rendered string, as the router did
        // when an AID was one.
        let order = ring_walk(r, hash_bytes(aid.to_string().bytes(), 0));
        for (i, h) in order.into_iter().enumerate() {
            if admissible(h) {
                return Some(RouteDecision {
                    host: h,
                    reason: if i == 0 {
                        RouteReason::Hash
                    } else {
                        RouteReason::Spill
                    },
                });
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The lazy walk decides what the full walk decided and asks
        /// `admissible` about the same hosts in the same order (control
        /// plane closures read admission state, so order is behaviour).
        #[test]
        fn lazy_route_matches_full_ring_walk(
            hosts in prop::collection::btree_set(0usize..1000, 1..201),
            vnodes in prop_oneof![Just(1usize), Just(8usize), Just(64usize)],
            warm in prop::collection::vec(0usize..1000, 0..4),
            app in 0u32..64,
            policy in 0u8..5,
            salt in any::<u64>(),
        ) {
            let mut r = Router::new(vnodes);
            r.rebuild(&hosts);
            prop_assert_eq!(r.hosts, hosts.len());
            let survivor = *hosts.iter().nth(salt as usize % hosts.len()).expect("in range");
            let accepts = |h: usize| match policy {
                0 => false,
                1 => h == survivor,
                2 => true,
                // A tenth, then a half, of the hosts accept.
                3 => hash_bytes(h.to_le_bytes(), salt).is_multiple_of(10),
                _ => hash_bytes(h.to_le_bytes(), salt).is_multiple_of(2),
            };
            let aid = aid_of(&format!("app{app}"));
            let (mut asked, mut asked_ref) = (Vec::new(), Vec::new());
            let got = r.route(&aid, &warm, |h| {
                asked.push(h);
                accepts(h)
            });
            let want = route_over_full_walk(&r, &aid, &warm, |h| {
                asked_ref.push(h);
                accepts(h)
            });
            prop_assert_eq!(got, want);
            prop_assert_eq!(asked, asked_ref);
        }
    }
}
