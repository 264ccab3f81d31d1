//! The whole production Grid: sites, information service, resource broker.
//!
//! [`ProductionGrid::teragrid`] assembles an eleven-centre Grid shaped like
//! the paper's testbed ("The TeraGrid is a production Grid infrastructure
//! which contains 11 supercomputing centers across U.S.", §VIII-A), all
//! trusting one CA. The information service exposes per-site load
//! ([`SiteInfo`]), and [`ProductionGrid::select`] is the resource-selection
//! step the middleware performs before submitting ("resource selection and
//! provision", §IV).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simkit::{Duration, SimTime};

use crate::error::GridError;
use crate::security::{CertAuthority, Credential};
use crate::site::{GridSite, SiteSpec};

/// Point-in-time load snapshot of one site.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteInfo {
    /// Site name.
    pub name: String,
    /// Cores on nodes that are up.
    pub total_cores: u32,
    /// Currently idle cores.
    pub free_cores: u32,
    /// Jobs waiting in the queue.
    pub queue_len: usize,
    /// Estimated queue wait for a 1-core job.
    pub est_wait: Duration,
}

/// How the broker picks a site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrokerPolicy {
    /// Most idle cores right now.
    MostFreeCores,
    /// Smallest estimated wait for the requested size.
    ShortestWait,
    /// Rotate over capable sites.
    RoundRobin,
    /// Pin to a named site.
    Fixed(String),
}

/// A multi-site production Grid with a shared trust root.
pub struct ProductionGrid {
    ca: Rc<RefCell<CertAuthority>>,
    sites: Vec<Rc<GridSite>>,
    rr_next: Cell<usize>,
}

impl ProductionGrid {
    /// Build a Grid from explicit site specs; WAN links originate at
    /// `access_host`.
    pub fn new(access_host: &str, ca_seed: u64, specs: Vec<SiteSpec>) -> ProductionGrid {
        let ca = Rc::new(RefCell::new(CertAuthority::new(
            "/C=US/O=SimTeraGrid/CN=CA",
            ca_seed,
        )));
        let sites = specs
            .into_iter()
            .map(|spec| GridSite::new(spec, access_host, Rc::clone(&ca)))
            .collect();
        ProductionGrid {
            ca,
            sites,
            rr_next: Cell::new(0),
        }
    }

    /// The paper's testbed: eleven supercomputing centres of varied size
    /// (scaled down so simulations stay fast), all reachable from the
    /// access layer over ~85 KB/s WAN paths.
    pub fn teragrid(access_host: &str) -> ProductionGrid {
        let centres: [(&str, usize, u32); 11] = [
            ("ncsa", 64, 8),
            ("sdsc", 48, 8),
            ("tacc", 96, 16),
            ("psc", 32, 8),
            ("indiana", 32, 4),
            ("purdue", 24, 8),
            ("ornl", 40, 8),
            ("anl", 24, 8),
            ("lsu", 16, 8),
            ("nics", 72, 12),
            ("ucanl", 16, 4),
        ];
        let specs = centres
            .iter()
            .map(|&(name, nodes, cores)| SiteSpec::teragrid_like(name, nodes, cores))
            .collect();
        ProductionGrid::new(access_host, 0x7e7a_617d, specs)
    }

    /// The Grid-wide certificate authority.
    pub fn ca(&self) -> &Rc<RefCell<CertAuthority>> {
        &self.ca
    }

    /// Issue a user credential *and* add the DN to every site's grid-map —
    /// the paper-era "getting a TeraGrid allocation" step (unmetered).
    pub fn enroll_user(
        &self,
        dn: &str,
        local_user: &str,
        now: SimTime,
        lifetime: Duration,
    ) -> Credential {
        let cred = self.ca.borrow_mut().issue(dn, now, lifetime);
        for site in &self.sites {
            site.gatekeeper().borrow_mut().grant(dn, local_user);
        }
        cred
    }

    /// Enrol with a per-site service-unit budget (`core_hours` at *each*
    /// site, as TeraGrid awarded site-specific allocations).
    pub fn enroll_user_with_allocation(
        &self,
        dn: &str,
        local_user: &str,
        now: SimTime,
        lifetime: Duration,
        core_hours: f64,
    ) -> Credential {
        let cred = self.ca.borrow_mut().issue(dn, now, lifetime);
        for site in &self.sites {
            site.gatekeeper()
                .borrow_mut()
                .grant_with_allocation(dn, local_user, core_hours);
        }
        cred
    }

    /// Grid-wide usage report: `(dn, site, allocation)` rows for every
    /// metered account, sorted.
    pub fn usage_report(&self) -> Vec<(String, String, crate::gram::Allocation)> {
        let mut rows = Vec::new();
        for site in &self.sites {
            for (dn, alloc) in site.gatekeeper().borrow().usage_report() {
                rows.push((dn, site.name().to_owned(), alloc));
            }
        }
        rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        rows
    }

    /// All sites.
    pub fn sites(&self) -> &[Rc<GridSite>] {
        &self.sites
    }

    /// Look up a site by name.
    pub fn site(&self, name: &str) -> Result<&Rc<GridSite>, GridError> {
        self.sites
            .iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| GridError::NoSuchSite(name.to_owned()))
    }

    /// Information-service snapshot of every site.
    pub fn info(&self, now: SimTime) -> Vec<SiteInfo> {
        self.sites
            .iter()
            .map(|s| {
                let sched = s.scheduler().borrow();
                SiteInfo {
                    name: s.name().to_owned(),
                    total_cores: sched.total_cores(),
                    free_cores: sched.free_cores(),
                    queue_len: sched.queue_len(),
                    est_wait: sched.estimate_wait(now, 1),
                }
            })
            .collect()
    }

    /// Pick a site able to run a `cores`-wide job under `policy`.
    pub fn select(
        &self,
        policy: &BrokerPolicy,
        cores: u32,
        now: SimTime,
    ) -> Result<Rc<GridSite>, GridError> {
        self.select_excluding(policy, cores, now, &[])
    }

    /// [`ProductionGrid::select`] with a site blacklist — the retry path's
    /// "anywhere but where it just failed".
    pub fn select_excluding(
        &self,
        policy: &BrokerPolicy,
        cores: u32,
        now: SimTime,
        excluded: &[String],
    ) -> Result<Rc<GridSite>, GridError> {
        let capable = || {
            self.sites.iter().filter(move |s| {
                s.scheduler().borrow().total_cores() >= cores
                    && !excluded.iter().any(|e| e == s.name())
            })
        };
        let chosen = match policy {
            BrokerPolicy::Fixed(name) => {
                if capable().next().is_none() || excluded.iter().any(|e| e == name) {
                    return Err(GridError::NoCapableSite);
                }
                let site = self.site(name)?;
                if site.scheduler().borrow().total_cores() < cores {
                    return Err(GridError::NoCapableSite);
                }
                Some(site)
            }
            // `max_by_key` keeps the last of equal maxima, `min_by_key`
            // the first of equal minima
            BrokerPolicy::MostFreeCores => {
                capable().max_by_key(|s| s.scheduler().borrow().free_cores())
            }
            BrokerPolicy::ShortestWait => {
                capable().min_by_key(|s| s.scheduler().borrow().estimate_wait(now, cores))
            }
            BrokerPolicy::RoundRobin => {
                let n = capable().count();
                if n == 0 {
                    return Err(GridError::NoCapableSite);
                }
                let idx = self.rr_next.get() % n;
                self.rr_next.set(self.rr_next.get().wrapping_add(1));
                capable().nth(idx)
            }
        };
        chosen.map(Rc::clone).ok_or(GridError::NoCapableSite)
    }
}

/// The broker as it was before it picked without collecting: gather the
/// capable sites into a `Vec`, then choose. Kept as an executable
/// reference for the property below.
#[cfg(test)]
mod collecting_model {
    use super::*;

    pub fn select_excluding(
        grid: &ProductionGrid,
        policy: &BrokerPolicy,
        cores: u32,
        now: SimTime,
        excluded: &[String],
    ) -> Result<Rc<GridSite>, GridError> {
        let capable: Vec<&Rc<GridSite>> = grid
            .sites
            .iter()
            .filter(|s| s.scheduler().borrow().total_cores() >= cores)
            .filter(|s| !excluded.iter().any(|e| e == s.name()))
            .collect();
        if capable.is_empty() {
            return Err(GridError::NoCapableSite);
        }
        let chosen = match policy {
            BrokerPolicy::Fixed(name) => {
                if excluded.iter().any(|e| e == name) {
                    return Err(GridError::NoCapableSite);
                }
                let site = grid.site(name)?;
                if site.scheduler().borrow().total_cores() < cores {
                    return Err(GridError::NoCapableSite);
                }
                Rc::clone(site)
            }
            BrokerPolicy::MostFreeCores => Rc::clone(
                capable
                    .iter()
                    .max_by_key(|s| s.scheduler().borrow().free_cores())
                    .expect("non-empty"),
            ),
            BrokerPolicy::ShortestWait => Rc::clone(
                capable
                    .iter()
                    .min_by_key(|s| s.scheduler().borrow().estimate_wait(now, cores))
                    .expect("non-empty"),
            ),
            BrokerPolicy::RoundRobin => {
                let idx = grid.rr_next.get() % capable.len();
                grid.rr_next.set(grid.rr_next.get().wrapping_add(1));
                Rc::clone(capable[idx])
            }
        };
        Ok(chosen)
    }
}

#[cfg(test)]
mod broker_equivalence {
    use super::*;
    use crate::scheduler::{ClusterScheduler, SchedRequest};
    use proptest::prelude::*;
    use simkit::Sim;

    /// A grid of small sites, so equal free cores and equal waits — the
    /// tie-breaks — come up often, loaded by long jobs.
    fn loaded_grid(sizes: &[(usize, u32)], jobs: &[(usize, u32)]) -> (ProductionGrid, Sim) {
        let specs = sizes
            .iter()
            .enumerate()
            .map(|(i, &(nodes, per_node))| SiteSpec::teragrid_like(&format!("s{i}"), nodes, per_node))
            .collect();
        let grid = ProductionGrid::new("appliance", 1, specs);
        let mut sim = Sim::new(0);
        for &(site, cores) in jobs {
            let Some(site) = grid.sites().get(site) else {
                continue;
            };
            let total = site.scheduler().borrow().total_cores();
            let req = SchedRequest {
                cores: cores.min(total),
                walltime_limit: Duration::from_secs(1000),
                actual_runtime: Duration::from_secs(1000),
            };
            ClusterScheduler::submit(site.scheduler(), &mut sim, req, |_, _| {});
        }
        (grid, sim)
    }

    proptest! {
        /// Every policy picks the site the collecting broker picked, or
        /// fails the same way, call after call — round-robin's cursor
        /// included.
        #[test]
        fn select_matches_the_collecting_broker(
            sizes in proptest::collection::vec((1usize..4, 1u32..5), 1..6),
            jobs in proptest::collection::vec((0usize..6, 1u32..8), 0..10),
            calls in proptest::collection::vec(
                (0u8..4, 0usize..7, 1u32..14, proptest::collection::vec(0usize..7, 0..3)),
                1..30,
            ),
        ) {
            let (grid, sim) = loaded_grid(&sizes, &jobs);
            let (reference, _) = loaded_grid(&sizes, &jobs);
            for (policy, fixed, cores, excluded) in &calls {
                let policy = match policy {
                    0 => BrokerPolicy::Fixed(format!("s{fixed}")),
                    1 => BrokerPolicy::MostFreeCores,
                    2 => BrokerPolicy::ShortestWait,
                    _ => BrokerPolicy::RoundRobin,
                };
                let excluded: Vec<String> = excluded.iter().map(|i| format!("s{i}")).collect();
                let name = |s: Rc<GridSite>| s.name().to_owned();
                let got = grid.select_excluding(&policy, *cores, sim.now(), &excluded).map(name);
                let want = collecting_model::select_excluding(
                    &reference, &policy, *cores, sim.now(), &excluded,
                )
                .map(name);
                prop_assert_eq!(got, want);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::{ExecutionModel, Gatekeeper};
    use crate::scheduler::{ClusterScheduler, SchedRequest};
    use simkit::Sim;

    #[test]
    fn teragrid_has_eleven_sites() {
        let grid = ProductionGrid::teragrid("appliance");
        assert_eq!(grid.sites().len(), 11);
        assert!(grid.site("tacc").is_ok());
        assert!(matches!(
            grid.site("imaginary"),
            Err(GridError::NoSuchSite(_))
        ));
    }

    #[test]
    fn enroll_user_grants_everywhere() {
        let mut sim = Sim::new(0);
        let grid = ProductionGrid::teragrid("appliance");
        let cred = grid.enroll_user(
            "/CN=alice",
            "alice",
            SimTime::ZERO,
            Duration::from_secs(86400),
        );
        for site in grid.sites() {
            site.storage().borrow_mut().put("a.exe", 10.0).unwrap();
            let h = Gatekeeper::submit(
                site.gatekeeper(),
                &mut sim,
                &cred.proxy(),
                "&(executable=a.exe)(maxWallTime=1)",
                ExecutionModel {
                    actual_runtime: Duration::from_secs(1),
                    output_bytes: 0.0,
                },
            );
            assert!(h.is_ok(), "{:?} at {}", h.err(), site.name());
        }
        sim.run();
    }

    #[test]
    fn info_reflects_load() {
        let mut sim = Sim::new(0);
        let grid = ProductionGrid::teragrid("appliance");
        let site = Rc::clone(grid.site("lsu").unwrap());
        let total = site.scheduler().borrow().total_cores();
        ClusterScheduler::submit(
            site.scheduler(),
            &mut sim,
            SchedRequest {
                cores: total,
                walltime_limit: Duration::from_secs(1000),
                actual_runtime: Duration::from_secs(1000),
            },
            |_, _| {},
        );
        let info = grid.info(sim.now());
        let lsu = info.iter().find(|i| i.name == "lsu").unwrap();
        assert_eq!(lsu.free_cores, 0);
        assert_eq!(lsu.total_cores, total);
    }

    #[test]
    fn broker_most_free_picks_emptiest() {
        let mut sim = Sim::new(0);
        let grid = ProductionGrid::teragrid("appliance");
        // Load every site except "tacc" completely.
        for site in grid.sites() {
            if site.name() == "tacc" {
                continue;
            }
            let total = site.scheduler().borrow().total_cores();
            ClusterScheduler::submit(
                site.scheduler(),
                &mut sim,
                SchedRequest {
                    cores: total,
                    walltime_limit: Duration::from_secs(1000),
                    actual_runtime: Duration::from_secs(1000),
                },
                |_, _| {},
            );
        }
        let chosen = grid
            .select(&BrokerPolicy::MostFreeCores, 1, sim.now())
            .unwrap();
        assert_eq!(chosen.name(), "tacc");
    }

    #[test]
    fn broker_fixed_and_errors() {
        let grid = ProductionGrid::teragrid("appliance");
        let s = grid
            .select(&BrokerPolicy::Fixed("psc".into()), 1, SimTime::ZERO)
            .unwrap();
        assert_eq!(s.name(), "psc");
        assert!(grid
            .select(&BrokerPolicy::Fixed("nowhere".into()), 1, SimTime::ZERO)
            .is_err());
        // nothing can run a 10k-core job
        let err = grid
            .select(&BrokerPolicy::MostFreeCores, 10_000, SimTime::ZERO)
            .map(|s| s.name().to_owned())
            .unwrap_err();
        assert_eq!(err, GridError::NoCapableSite);
    }

    #[test]
    fn broker_round_robin_rotates() {
        let grid = ProductionGrid::teragrid("appliance");
        let a = grid
            .select(&BrokerPolicy::RoundRobin, 1, SimTime::ZERO)
            .unwrap();
        let b = grid
            .select(&BrokerPolicy::RoundRobin, 1, SimTime::ZERO)
            .unwrap();
        assert_ne!(a.name(), b.name());
    }

    #[test]
    fn broker_shortest_wait_avoids_busy_site() {
        let mut sim = Sim::new(0);
        let specs = vec![
            SiteSpec::teragrid_like("busy", 2, 4),
            SiteSpec::teragrid_like("idle", 2, 4),
        ];
        let grid = ProductionGrid::new("appliance", 1, specs);
        let busy = Rc::clone(grid.site("busy").unwrap());
        ClusterScheduler::submit(
            busy.scheduler(),
            &mut sim,
            SchedRequest {
                cores: 8,
                walltime_limit: Duration::from_secs(5000),
                actual_runtime: Duration::from_secs(5000),
            },
            |_, _| {},
        );
        let chosen = grid
            .select(&BrokerPolicy::ShortestWait, 4, sim.now())
            .unwrap();
        assert_eq!(chosen.name(), "idle");
    }
}
