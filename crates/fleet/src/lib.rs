#![warn(missing_docs)]

//! # onserve-fleet — scale-out for the onServe appliance
//!
//! The paper's §VIII-D concludes a single appliance is limited by disk or
//! network I/O, never CPU, and points at the remedy without building it:
//! the appliance is *virtual*, so deploy more of them. This crate is that
//! missing tier, built entirely on the deterministic `simkit` clock:
//!
//! * [`workload`] — seeded open-loop arrival processes (Poisson, bursty
//!   on/off, diurnal) and a closed-loop user population with think times,
//!   emitting mixed upload/invoke traffic.
//! * [`dispatcher`] — the front end: owns the published UDDI binding,
//!   admits requests under a bounded in-flight limit (shedding overload as
//!   a SOAP fault) and routes to replicas under round-robin,
//!   least-outstanding or utilization-weighted policies.
//! * [`fleet`] — replica lifecycle over `vappliance` (boot latency counts)
//!   with the storage topology switch §VIII-D demands: one shared
//!   blobstore host vs a replicated per-appliance store.
//! * [`autoscaler`] — a sampling control loop with cooldown and
//!   boot-latency awareness that never scales below one replica, and
//!   replaces crash-lost capacity outside the cooldown.
//! * [`chaos`] — materializes a `simkit` fault plan's crash and
//!   slow-replica schedules against the fleet: seeded, replayable kills
//!   (no drain) and silent latency degradations.
//! * [`health`] — the observability plane: windowed per-replica and
//!   per-tenant series fed from the dispatcher with zero effect on the
//!   event schedule, a peer-relative gray-failure detector
//!   (probation-weighted routing, then ejection), and Prometheus-text /
//!   time-series-CSV export.
//! * [`geo`] — the geography plane: multi-site replica placement over
//!   modelled WAN links, nearest-site routing with cross-site spill,
//!   whole-site outage windows with held-and-pulled answers, and
//!   HTCondor-C-style federation that forwards pinned work away from a
//!   severed site without losing it.
//! * [`rollout`] — zero-downtime version rollouts by replacement: rolling,
//!   canary with judgment and auto-rollback, and the stop-the-world
//!   baseline, never retiring through a `min_healthy` floor.
//! * [`audit`] — every fleet invariant stated once (door and tenant
//!   ledgers, routing, pins, fairness, the rollout floor, the fleet's
//!   rotation and replica ledger) and checked at every event boundary of
//!   a run, whichever planes are on.
//!
//! ## Quick start
//!
//! ```
//! use fleet::{Fleet, FleetSpec, StorageTopology};
//! use simkit::{Sim, MB};
//! use vappliance::ApplianceImage;
//!
//! let mut sim = Sim::new(7);
//! let image = ApplianceImage {
//!     name: "onserve".into(),
//!     bytes: 600.0 * MB,
//!     boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
//!     recipe_fingerprint: 1,
//! };
//! let mut spec = FleetSpec::with_image(image);
//! spec.initial_replicas = 2;
//! spec.topology = StorageTopology::Replicated;
//! let fleet = Fleet::new(&mut sim, spec);
//! sim.run(); // boot both appliances (~1 virtual minute)
//! assert_eq!(fleet.active_replicas(), 2);
//! ```

pub mod audit;
pub mod autoscaler;
pub mod chaos;
pub mod dispatcher;
pub mod fleet;
pub mod geo;
pub mod health;
pub mod rollout;
pub mod workload;

pub use audit::Audit;
pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleAction, ScaleDecision};
pub use chaos::ChaosMonkey;
pub use dispatcher::{
    AffinityConfig, Backend, DispatchCounters, Dispatcher, DispatcherConfig, Exit, Policy,
    QosConfig, QosTier, Request, Responder, RetryConfig, TenantQos,
};
pub use fleet::{answer_version, Fleet, FleetSpec, StorageTopology};
pub use geo::{GeoCounters, GeoPlane, SiteMap, WanLink};
pub use health::{
    DetectorAction, DetectorEvent, GrayFailureDetector, HealthConfig, HealthPlane, ReplicaHealth,
};
pub use rollout::{
    CanaryConfig, RetireEvent, RolloutConfig, RolloutController, RolloutOutcome, RolloutStrategy,
};
pub use workload::{
    start_closed_loop, start_open_loop, ArrivalProcess, Arrivals, Mix, ServiceTarget, SubmitFn,
    WorkloadStats,
};
