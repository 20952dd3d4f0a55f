//! The geo router: latency-aware cell selection over the multi-region
//! topology, reusing the fleet's consistent-hash [`Router`] inside
//! each cell.
//!
//! A request homed in region `r` sees every cell priced as
//! `device RTT − affinity bonus` (the bonus applies when the cell
//! holds a warm container for the app), so a nearby edge PoP wins by
//! default, a warm regional core can beat a cold edge, and saturated
//! geographies spill clockwise around the region ring. Within the
//! chosen cell, placement is the fleet router's warm-affinity /
//! hash-home / clockwise-spill walk over the cell's own ring.

use crate::config::Topology;
use fleet::Router;
use rattrap::warehouse::Aid;
use simkit::SimDuration;

/// Where the geo router decided to send a request, and why — the
/// control plane's own decision type.
pub use fleet::control::CellDecision as GeoDecision;

/// Latency-aware router over cells.
#[derive(Debug)]
pub struct GeoRouter {
    affinity_bonus: SimDuration,
}

impl GeoRouter {
    /// A router that values a warm code cache at `affinity_bonus` of
    /// proximity.
    pub fn new(affinity_bonus: SimDuration) -> Self {
        GeoRouter { affinity_bonus }
    }

    /// Cells in preference order for a device homed in `region`:
    /// ascending `device RTT − bonus·warm`, ties broken by clockwise
    /// ring distance from home, edge before core, then cell index —
    /// fully deterministic.
    fn cell_order(
        &self,
        topo: &Topology,
        region: usize,
        warm: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut order: Vec<(i64, usize, usize, usize)> = (0..topo.n_cells())
            .map(|cell| {
                let mut cost = topo.device_rtt(region, cell).as_micros() as i64;
                if warm(cell) {
                    cost -= self.affinity_bonus.as_micros() as i64;
                }
                let hops = topo.clockwise_hops(region, topo.region_of_cell(cell));
                (cost, hops, cell % 2, cell)
            })
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, _, _, cell)| cell).collect()
    }

    /// Route one request: walk cells in preference order, asking each
    /// cell's own ring for a placement; the first cell that admits
    /// wins. `None` means every host in every region refused.
    pub fn route(
        &self,
        topo: &Topology,
        region: usize,
        aid: &Aid,
        cell_routers: &[Router],
        cell_warm: impl Fn(usize) -> Vec<usize>,
        mut admissible: impl FnMut(usize) -> bool,
    ) -> Option<GeoDecision> {
        // Each cell's warm list is built once and serves both the
        // ordering and the in-cell placement.
        let warm: Vec<Vec<usize>> = (0..topo.n_cells()).map(cell_warm).collect();
        let order = self.cell_order(topo, region, |cell| !warm[cell].is_empty());
        for cell in order {
            if let Some(d) = cell_routers[cell].route(aid, &warm[cell], &mut admissible) {
                return Some(GeoDecision {
                    cell,
                    host: d.host,
                    reason: d.reason,
                    cross_region: topo.region_of_cell(cell) != region,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeoConfig;
    use fleet::RouteReason;
    use rattrap::warehouse::aid_of;

    fn topo3() -> Topology {
        Topology::new(&GeoConfig::paper_default(3, 7))
    }

    fn cell_routers(topo: &Topology) -> Vec<Router> {
        (0..topo.n_cells())
            .map(|cell| {
                let mut r = Router::new(64);
                r.rebuild(&topo.hosts_in(cell).collect());
                r
            })
            .collect()
    }

    #[test]
    fn home_edge_wins_when_everyone_is_cold() {
        let topo = topo3();
        let order = GeoRouter::new(SimDuration::from_millis(5)).cell_order(&topo, 1, |_| false);
        assert_eq!(order[0], topo.edge_cell(1), "home edge first");
        assert_eq!(order[1], topo.core_cell(1), "home core second");
    }

    #[test]
    fn warm_home_core_beats_cold_home_edge() {
        let topo = topo3();
        let r = GeoRouter::new(SimDuration::from_millis(5));
        // Bonus (5 ms) exceeds the metro RTT (2 ms): warmth wins.
        let order = r.cell_order(&topo, 0, |c| c == topo.core_cell(0));
        assert_eq!(order[0], topo.core_cell(0));
        // …but not a 40 ms ring hop: a remote warm edge stays behind
        // the whole home region.
        let order = r.cell_order(&topo, 0, |c| c == topo.edge_cell(1));
        assert_eq!(order[0], topo.edge_cell(0));
        assert_eq!(order[1], topo.core_cell(0));
    }

    #[test]
    fn saturated_home_region_spills_clockwise() {
        let topo = topo3();
        let routers = cell_routers(&topo);
        let r = GeoRouter::new(SimDuration::from_millis(5));
        let home: Vec<usize> = topo
            .hosts_in(topo.edge_cell(0))
            .chain(topo.hosts_in(topo.core_cell(0)))
            .collect();
        let d = r
            .route(
                &topo,
                0,
                &aid_of("com.bench.ocr"),
                &routers,
                |_| vec![],
                |h| !home.contains(&h),
            )
            .expect("someone admits");
        assert!(d.cross_region);
        // Regions 1 and 2 are both one hop away; clockwise tie-break
        // prefers region 1's edge.
        assert_eq!(d.cell, topo.edge_cell(1));
    }

    #[test]
    fn total_saturation_sheds() {
        let topo = topo3();
        let routers = cell_routers(&topo);
        let r = GeoRouter::new(SimDuration::from_millis(5));
        assert!(r
            .route(
                &topo,
                0,
                &aid_of("com.bench.ocr"),
                &routers,
                |_| vec![],
                |_| false
            )
            .is_none());
    }

    #[test]
    fn in_cell_placement_reuses_the_fleet_ring() {
        let topo = topo3();
        let routers = cell_routers(&topo);
        let r = GeoRouter::new(SimDuration::from_millis(5));
        let aid = aid_of("com.bench.chessgame");
        let warm_host = topo.hosts_in(0).next_back().unwrap();
        let d = r
            .route(
                &topo,
                0,
                &aid,
                &routers,
                |c| {
                    if c == 0 {
                        vec![warm_host]
                    } else {
                        vec![]
                    }
                },
                |_| true,
            )
            .expect("admits");
        assert_eq!(d.host, warm_host);
        assert_eq!(d.reason, RouteReason::Affinity);
        assert!(!d.cross_region);
    }
}
