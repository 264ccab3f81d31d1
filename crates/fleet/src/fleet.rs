//! Replica lifecycle and storage topology.
//!
//! A [`Fleet`] boots N copies of the onServe virtual appliance through
//! [`vappliance::Appliance::deploy`] — so cold-start latency (image copy +
//! VM boot + service start, ~1 minute) counts against every scale-up — and
//! wires each booted replica into the shared [`Dispatcher`]. The front-end
//! UDDI registry carries one `bindingTemplate` per replica per service, the
//! classic replicated-SOA publication shape.
//!
//! The storage switch is the point of the whole exercise: §VIII-D says the
//! appliance is disk-bound, so adding replicas only helps if the executable
//! database replicates with them. [`StorageTopology::Shared`] binds every
//! replica's [`blobstore::TimedDb`] to one storage host (a NAS: all
//! database I/O serializes on its disk); [`StorageTopology::Replicated`]
//! gives each replica its own store on its own appliance disk.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::{Rc, Weak};

use blobstore::{Blob, BlobDb, TimedDb};
use onserve::deployment::{synth_executable, Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use simkit::{Host, HostSpec, Link, Sim, GBIT_PER_S};
use simkit::{Duration, SpanId};
use vappliance::{Appliance, ApplianceImage, DeploySpec};
use wsstack::{BindingTemplate, SoapFault, UddiRegistry};

use crate::dispatcher::{Backend, Dispatcher, DispatcherConfig, Exit, Request, Responder};
use crate::geo::GeoPlane;

/// Where the executable database lives relative to the replicas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageTopology {
    /// One storage host serves every replica's database — all blob I/O
    /// contends for a single disk (the paper's bottleneck, preserved).
    Shared,
    /// Every replica carries its own database on its own disk — storage
    /// capacity grows with the fleet.
    Replicated,
}

impl StorageTopology {
    /// Short label for tables and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            StorageTopology::Shared => "shared",
            StorageTopology::Replicated => "replicated",
        }
    }
}

/// Everything needed to boot and grow a fleet.
#[derive(Clone)]
pub struct FleetSpec {
    /// Per-replica deployment template. `appliance_name` becomes the
    /// replica name prefix (`replica0`, `replica1`, ...); the other names
    /// are suffixed per replica to keep metric prefixes unique.
    pub base: DeploymentSpec,
    /// Appliance image every replica boots from.
    pub image: ApplianceImage,
    /// Where the executable database lives.
    pub topology: StorageTopology,
    /// Hardware of the shared storage host (ignored under
    /// [`StorageTopology::Replicated`]). Defaults to a commodity box; turn
    /// the disk rates down to model the thin NAS the paper warns about.
    pub shared_storage_spec: HostSpec,
    /// Front-end routing and admission parameters.
    pub dispatcher: DispatcherConfig,
    /// Replicas to boot immediately.
    pub initial_replicas: usize,
}

impl FleetSpec {
    /// Spec with the paper's defaults around the given image: replicated
    /// storage, least-outstanding routing, one replica.
    pub fn with_image(image: ApplianceImage) -> FleetSpec {
        FleetSpec {
            base: DeploymentSpec {
                appliance_name: "replica".into(),
                ..DeploymentSpec::default()
            },
            image,
            topology: StorageTopology::Replicated,
            shared_storage_spec: HostSpec::commodity("blobstore"),
            dispatcher: DispatcherConfig::default(),
            initial_replicas: 1,
        }
    }
}

/// One catalogued executable, replayed onto every replica that boots.
#[derive(Clone)]
struct CatalogEntry {
    file_name: String,
    len: usize,
    profile: ExecutionProfile,
    /// `(grid user, passphrase)` the service runs jobs as; `None` uses
    /// the deployment's default identity. Tenants are enrolled on each
    /// replica before the upload so MyProxy can delegate for them.
    owner: Option<(String, String)>,
}

/// Where a replica is in its life. The dispatcher holds its slot exactly
/// while it is `Active` or `Draining`.
enum State {
    /// Ordered: image copy, VM boot and catalog replay under way.
    Booting,
    /// In rotation and advertised.
    Active(Rc<Deployment>),
    /// Out of rotation and unadvertised, finishing the work it holds.
    Draining(Rc<Deployment>),
    /// Out of the dispatcher — drained, crashed or ejected — and its VM
    /// destroyed.
    Gone,
}

/// One replica: the fleet's record of it, and the [`Backend`] the
/// dispatcher routes to.
struct Replica {
    name: String,
    appliance: Rc<Appliance>,
    /// Artifact version this replica builds and serves — frozen at boot
    /// from [`Fleet::target_version`]; rollouts replace replicas rather
    /// than mutate them. Stamped into the top byte of every binary answer
    /// digest (see [`answer_version`]).
    version: u32,
    boot_span: SpanId,
    state: RefCell<State>,
    /// A gray-failure latency multiplier set by [`Fleet::degrade_replica`]
    /// (1.0 = full speed), read by each answer as it completes.
    slow_factor: Cell<f64>,
    /// Set at activation when the fleet carries a geo plane: which site
    /// this replica lives on. Requests then pay the WAN round trip back to
    /// their origin, and a severed site swallows requests / holds answers
    /// for its outage window.
    geo: OnceCell<(Rc<GeoPlane>, String)>,
    /// This record, for the answers in flight that read `slow_factor`.
    me: Weak<Replica>,
}

impl Replica {
    fn is_active(&self) -> bool {
        matches!(*self.state.borrow(), State::Active(_))
    }

    fn is_booting(&self) -> bool {
        matches!(*self.state.borrow(), State::Booting)
    }

    /// The middleware it serves from, while it holds a dispatcher slot.
    fn deployment(&self) -> Option<Rc<Deployment>> {
        match &*self.state.borrow() {
            State::Active(d) | State::Draining(d) => Some(Rc::clone(d)),
            State::Booting | State::Gone => None,
        }
    }

    /// Active → draining; `false` from any other state.
    fn start_draining(&self) -> bool {
        let mut state = self.state.borrow_mut();
        let State::Active(d) = &*state else {
            return false;
        };
        *state = State::Draining(Rc::clone(d));
        true
    }
}

struct Inner {
    next_id: usize,
    replicas: Vec<Rc<Replica>>,
    /// Catalogued executables in upload order — the replay order for
    /// replicas that boot later.
    catalog: Vec<CatalogEntry>,
    /// File names in `catalog`: the front door asks "already catalogued?"
    /// on every upload.
    catalogued: BTreeSet<String>,
    booted: u64,
    retired: u64,
    lost: u64,
    /// Front-end UDDI key per service name.
    service_keys: BTreeMap<String, String>,
}

impl Inner {
    /// Replicas in rotation, in boot order.
    fn actives(&self) -> impl Iterator<Item = &Rc<Replica>> {
        self.replicas.iter().filter(|r| r.is_active())
    }

    /// The replica in rotation under `name`.
    fn active(&self, name: &str) -> Option<&Rc<Replica>> {
        self.actives().find(|r| r.name == name)
    }

    /// The replica ever ordered under `name`.
    fn replica(&self, name: &str) -> Option<&Rc<Replica>> {
        self.replicas.iter().find(|r| r.name == name)
    }
}

/// A replicated onServe installation behind one front end.
pub struct Fleet {
    base: DeploymentSpec,
    image: ApplianceImage,
    topology: StorageTopology,
    dispatcher: Rc<Dispatcher>,
    image_link: Rc<Link>,
    registry: Rc<RefCell<UddiRegistry>>,
    shared_storage: Option<Rc<Host>>,
    /// Optional geo plane ([`Fleet::attach_geo`]): replicas get placed on
    /// sites and pay WAN costs; the dispatcher stays site-blind unless the
    /// plane is *also* attached there ([`Dispatcher::set_geo`]).
    geo: RefCell<Option<Rc<GeoPlane>>>,
    /// Artifact version stamped into the *next* replica to boot. Bumped
    /// by rollout controllers; existing replicas keep the version they
    /// booted at.
    target_version: Cell<u32>,
    /// Whether per-replica `version` labels feed the health plane.
    /// Off until the first [`Fleet::set_target_version`] call so
    /// rollout-free runs keep a byte-identical Prometheus exposition.
    version_labels: Cell<bool>,
    inner: RefCell<Inner>,
}

impl Fleet {
    /// Assemble the fleet and start booting `initial_replicas` appliances.
    /// Replicas join the rotation as they finish booting and provisioning;
    /// drain the simulation (or watch [`Fleet::active_replicas`]) before
    /// offering load.
    pub fn new(sim: &mut Sim, spec: FleetSpec) -> Rc<Fleet> {
        let image_link = Link::new(
            "imgstore",
            "store",
            "vmm",
            GBIT_PER_S,
            Duration::from_millis(5),
        );
        let shared_storage = match spec.topology {
            StorageTopology::Shared => Some(Host::new(&spec.shared_storage_spec)),
            StorageTopology::Replicated => None,
        };
        let fleet = Rc::new(Fleet {
            base: spec.base,
            image: spec.image,
            topology: spec.topology,
            dispatcher: Dispatcher::new(spec.dispatcher),
            image_link,
            registry: Rc::new(RefCell::new(UddiRegistry::new())),
            shared_storage,
            geo: RefCell::new(None),
            target_version: Cell::new(1),
            version_labels: Cell::new(false),
            inner: RefCell::new(Inner {
                next_id: 0,
                replicas: Vec::new(),
                catalog: Vec::new(),
                catalogued: BTreeSet::new(),
                booted: 0,
                retired: 0,
                lost: 0,
                service_keys: BTreeMap::new(),
            }),
        });
        let weak = Rc::downgrade(&fleet);
        fleet.dispatcher.set_exit_hook(move |sim, name, exit| {
            if let Some(fleet) = weak.upgrade() {
                fleet.on_exit(sim, name, exit);
            }
        });
        let weak = Rc::downgrade(&fleet);
        fleet.dispatcher.set_upload_hook(move |sim, req| {
            if let Some(fleet) = weak.upgrade() {
                let _ = sim;
                if let Request::Upload {
                    file_name,
                    payload,
                    profile,
                } = req
                {
                    fleet.catalog_service(file_name, payload.len(), *profile, None);
                }
            }
        });
        for _ in 0..spec.initial_replicas {
            fleet.scale_up(sim);
        }
        fleet
    }

    /// The front-end router (also the workload sink).
    pub fn dispatcher(&self) -> &Rc<Dispatcher> {
        &self.dispatcher
    }

    /// Attach a geo plane: every current and future replica is placed on
    /// a site (round-robin in boot order) and pays the plane's WAN cost
    /// for cross-site answers; severed sites swallow requests and hold
    /// answers for the outage window. This alone keeps the *dispatcher*
    /// site-blind — the site-oblivious control in the geo bench. Call
    /// [`Dispatcher::set_geo`] with the same plane for latency-aware
    /// routing and federation. If a health plane is already attached its
    /// per-replica series get `site` labels; attach health first when you
    /// want labelled exposition.
    pub fn attach_geo(&self, plane: Rc<GeoPlane>) {
        let names: Vec<String> = self
            .inner
            .borrow()
            .replicas
            .iter()
            .filter(|r| r.is_booting() || r.is_active())
            .map(|r| r.name.clone())
            .collect();
        for name in names {
            let site = plane.place(&name);
            if let Some(health) = self.dispatcher.health_plane() {
                health.set_site(&name, &site);
            }
        }
        *self.geo.borrow_mut() = Some(plane);
    }

    /// The attached geo plane, if any.
    pub fn geo_plane(&self) -> Option<Rc<GeoPlane>> {
        self.geo.borrow().clone()
    }

    /// A site was just severed (chaos tier): emit telemetry and — when
    /// federation is on — park the dispatcher's in-flight watchdogs on
    /// that site past the reconnect, so work already inside the partition
    /// is waited out instead of ejected. The unreachability itself comes
    /// from the plane's outage window, which must already be registered.
    pub fn sever_site(self: &Rc<Self>, sim: &mut Sim, site: &str) {
        let Some(geo) = self.geo.borrow().clone() else {
            return;
        };
        let span = sim.span_begin("fleet.site_severed");
        sim.span_attr(span, "site", site.to_owned());
        sim.counter_add("fleet.site_severed", 1);
        if geo.federation() {
            if let Some(at) = geo.reconnect_at(site, sim.now()) {
                let parked = self.dispatcher.park_site(sim, site, at);
                sim.span_attr(span, "parked", parked as u64);
            }
        }
        sim.span_end(span);
    }

    /// A severed site reconnected: telemetry only — held answers deliver
    /// themselves ([`GeoPlane`] outage semantics) and routing readmits
    /// the site the moment its outage window closes.
    pub fn restore_site(&self, sim: &mut Sim, site: &str) {
        if self.geo.borrow().is_none() {
            return;
        }
        let span = sim.span_begin("fleet.site_restored");
        sim.span_attr(span, "site", site.to_owned());
        sim.counter_add("fleet.site_restored", 1);
        sim.span_end(span);
    }

    /// The front-end UDDI registry: one businessService per published
    /// executable, one bindingTemplate per replica currently advertising
    /// it.
    pub fn registry(&self) -> &Rc<RefCell<UddiRegistry>> {
        &self.registry
    }

    /// The chosen storage topology.
    pub fn topology(&self) -> StorageTopology {
        self.topology
    }

    /// Replicas serving traffic right now.
    pub fn active_replicas(&self) -> usize {
        self.inner.borrow().actives().count()
    }

    /// Replicas still booting or provisioning.
    pub fn booting_replicas(&self) -> usize {
        self.inner.borrow().replicas.iter().filter(|r| r.is_booting()).count()
    }

    /// Capacity already paid for: active plus booting. The autoscaler
    /// sizes against this so it doesn't double-order replicas that are
    /// still in their ~1-minute boot.
    pub fn effective_replicas(&self) -> usize {
        self.active_replicas() + self.booting_replicas()
    }

    /// Replicas that ever reached the rotation.
    pub fn booted_total(&self) -> u64 {
        self.inner.borrow().booted
    }

    /// Replicas retired on purpose ([`Fleet::scale_down`],
    /// [`Fleet::retire_replica`]) and destroyed once out of the
    /// dispatcher — drained, or ejected by a watchdog while draining.
    pub fn retired_total(&self) -> u64 {
        self.inner.borrow().retired
    }

    /// Active replicas the dispatcher ejected: crashes
    /// ([`Fleet::crash_replica`], which the gray-failure detector's
    /// ejections reuse) and request-timeout watchdogs. Disjoint from
    /// [`Fleet::retired_total`], so the autoscaler can tell involuntary
    /// loss from its own scale-downs; every replica that reached the
    /// rotation is active, retired or lost.
    pub fn lost_total(&self) -> u64 {
        self.inner.borrow().lost
    }

    /// Names of the replicas serving traffic right now, in boot order.
    pub fn active_replica_names(&self) -> Vec<String> {
        let inner = self.inner.borrow();
        inner.actives().map(|r| r.name.clone()).collect()
    }

    /// Boot one more replica; it joins the rotation after image copy, VM
    /// boot, service start and catalog provisioning. Returns the new
    /// replica's name (it builds at the current [`Fleet::target_version`]).
    pub fn scale_up(self: &Rc<Self>, sim: &mut Sim) -> String {
        let (id, name) = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_id;
            inner.next_id += 1;
            (id, format!("{}{}", self.base.appliance_name, id))
        };
        let boot_span = sim.span_begin("fleet.boot");
        sim.span_attr(boot_span, "replica", name.clone());
        let fleet = Rc::clone(self);
        let boot_name = name.clone();
        let appliance = Appliance::deploy(
            sim,
            &self.image,
            &self.image_link,
            &DeploySpec::default_for(&name),
            move |sim, app| {
                fleet.on_replica_running(sim, id, Rc::clone(app), boot_name);
            },
        );
        let replica = Rc::new_cyclic(|me| Replica {
            name: name.clone(),
            appliance,
            version: self.target_version.get(),
            boot_span,
            state: RefCell::new(State::Booting),
            slow_factor: Cell::new(1.0),
            geo: OnceCell::new(),
            me: Weak::clone(me),
        });
        self.inner.borrow_mut().replicas.push(replica);
        name
    }

    /// Version stamped into the next replica to boot.
    pub fn target_version(&self) -> u32 {
        self.target_version.get()
    }

    /// Set the version stamped into subsequently booted replicas.
    /// Replicas already booted (or booting) keep their version — a
    /// rollout upgrades by replacement, never in place. The first call
    /// turns on `version="vN"` health-plane labels, retro-tagging every
    /// active replica so the exposition shows both sides of the roll.
    pub fn set_target_version(&self, version: u32) {
        self.target_version.set(version);
        self.version_labels.set(true);
        if let Some(health) = self.dispatcher.health_plane() {
            for r in self.inner.borrow().actives() {
                health.set_version(&r.name, &format!("v{}", r.version));
            }
        }
    }

    /// The artifact version an *active* replica serves (`None` when
    /// `name` is retired, crashed, still booting, or unknown).
    pub fn replica_version(&self, name: &str) -> Option<u32> {
        self.inner.borrow().active(name).map(|r| r.version)
    }

    /// Is `name` still booting or provisioning (ordered but not yet in
    /// rotation)? `false` once active, retired, crashed, or unknown —
    /// so a controller waiting on a boot can tell "not yet" from
    /// "never coming".
    pub fn replica_booting(&self, name: &str) -> bool {
        let inner = self.inner.borrow();
        inner.replica(name).is_some_and(|r| r.is_booting())
    }

    /// Active replicas per artifact version — the rollout controller's
    /// progress gauge (a finished roll has exactly one entry).
    pub fn version_counts(&self) -> BTreeMap<u32, usize> {
        let mut counts = BTreeMap::new();
        for r in self.inner.borrow().actives() {
            *counts.entry(r.version).or_insert(0) += 1;
        }
        counts
    }

    /// Gray-degrade an active replica: every response it produces from now
    /// on is delayed to `factor ×` its normal service latency. The replica
    /// still answers and emits no crash signal — only the health plane's
    /// latency statistics can tell. `factor` 1.0 restores full speed.
    /// Returns `false` if `name` is not an active replica.
    pub fn degrade_replica(self: &Rc<Self>, sim: &mut Sim, name: &str, factor: f64) -> bool {
        assert!(factor >= 1.0, "slow factor must be >= 1.0, got {factor}");
        {
            let inner = self.inner.borrow();
            let Some(replica) = inner.active(name) else {
                return false;
            };
            replica.slow_factor.set(factor);
        }
        let span = sim.span_begin("fleet.replica_degraded");
        sim.span_attr(span, "replica", name.to_owned());
        sim.span_attr(span, "factor", factor);
        sim.counter_add("fleet.replica_degraded", 1);
        sim.span_end(span);
        true
    }

    /// The gray-failure latency multiplier currently applied to `name`
    /// (`None` when it is not an active replica).
    pub fn replica_slow_factor(&self, name: &str) -> Option<f64> {
        let inner = self.inner.borrow();
        inner.active(name).map(|r| r.slow_factor.get())
    }

    /// Kill an active replica with no drain: the dispatcher ejects it,
    /// resolving every in-flight request on it as a backend loss (retried
    /// on survivors when retry is enabled), and the fleet tears it down
    /// the way it tears down any ejected replica — the VM hard-destroyed
    /// ([`Appliance::destroy_now`]), its front-end bindings gone, counted
    /// in [`Fleet::lost_total`]. Returns `false` if `name` is not an
    /// active replica.
    pub fn crash_replica(self: &Rc<Self>, sim: &mut Sim, name: &str) -> bool {
        let active = self.inner.borrow().active(name).is_some();
        active && self.dispatcher.eject_backend(sim, name)
    }

    /// Take the cheapest active replica out of rotation with
    /// [`Fleet::retire_replica`]: the one holding the fewest affinity pins
    /// (orphaning the minimum number of sessions), breaking ties on fewest
    /// outstanding attempts, then on newest boot — so with no pins and no
    /// load the choice degrades to the classic newest-first. Refuses
    /// (returns `false`) when it would leave no capacity at all.
    pub fn scale_down(self: &Rc<Self>, sim: &mut Sim) -> bool {
        let pin_counts = self.dispatcher.live_pin_counts();
        let victim = {
            let inner = self.inner.borrow();
            let ranked = inner.actives().enumerate().min_by_key(|(i, r)| {
                let pins = pin_counts.get(&r.name).copied().unwrap_or(0);
                let load = self.dispatcher.outstanding_on(&r.name);
                (pins, load, std::cmp::Reverse(*i))
            });
            ranked.map(|(_, r)| r.name.clone())
        };
        victim.is_some_and(|name| self.retire_replica(sim, &name))
    }

    /// Take a *specific* active replica out of rotation with a full
    /// drain — the rollout controller's retirement path, and
    /// [`Fleet::scale_down`]'s: stop advertising, orphan its affinity
    /// pins, let in-flight work finish, then destroy the appliance.
    /// Refuses (returns `false`) when `name` is not an active replica or
    /// when retiring it would leave no capacity.
    pub fn retire_replica(self: &Rc<Self>, sim: &mut Sim, name: &str) -> bool {
        if self.active_replicas() <= 1 {
            return false;
        }
        let draining = self.inner.borrow().replica(name).is_some_and(|r| r.start_draining());
        if !draining {
            return false;
        }
        self.unadvertise(name);
        self.dispatcher.remove_backend(sim, name);
        true
    }

    /// Arm (or disarm, with `None`) seeded blobstore write-fault
    /// injection on one active replica's executable database: every DB
    /// write there then flips a coin from the injector's stream and may
    /// fail, surfacing as a SOAP fault on the upload path and feeding
    /// the health plane's per-replica error series. Returns `false` if
    /// `name` is not an active replica.
    pub fn inject_write_faults(
        &self,
        name: &str,
        injector: Option<Rc<simkit::fault::FaultInjector>>,
    ) -> bool {
        let inner = self.inner.borrow();
        let Some(deployment) = inner.active(name).and_then(|r| r.deployment()) else {
            return false;
        };
        deployment.onserve.db().inject_faults(injector);
        true
    }

    /// Upload `file_name` to every active replica, catalog it for future
    /// replicas, and advertise it in the front-end UDDI. `done` fires when
    /// the slowest replica finishes provisioning. (The workload path — a
    /// front-door upload through the dispatcher — lands in the same
    /// catalog via the dispatcher's upload hook.)
    pub fn publish<F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        file_name: &str,
        len: usize,
        profile: ExecutionProfile,
        done: F,
    ) where
        F: FnOnce(&mut Sim) + 'static,
    {
        self.publish_as(sim, file_name, len, profile, None, done);
    }

    /// [`Fleet::publish`] with an explicit owning tenant: the service runs
    /// jobs as `owner`'s `(grid user, passphrase)`, who is enrolled on
    /// every replica (current and future) before the upload. Invocations
    /// that carry the owner as their principal then share that tenant's
    /// cached grid session wherever session affinity routes them.
    pub fn publish_as<F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        file_name: &str,
        len: usize,
        profile: ExecutionProfile,
        owner: Option<(&str, &str)>,
        done: F,
    ) where
        F: FnOnce(&mut Sim) + 'static,
    {
        let owner: Option<(String, String)> =
            owner.map(|(u, p)| (u.to_owned(), p.to_owned()));
        self.catalog_service(file_name, len, profile, owner.clone());
        let targets: Vec<Rc<Deployment>> = self
            .inner
            .borrow()
            .actives()
            .filter_map(|r| r.deployment())
            .collect();
        if targets.is_empty() {
            // replicas still booting will provision from the catalog
            done(sim);
            return;
        }
        let remaining = Rc::new(std::cell::Cell::new(targets.len()));
        let done = Rc::new(RefCell::new(Some(done)));
        // one file, shipped to every target
        let payload = synth_executable(len);
        for d in targets {
            let req = owned_upload_request(
                sim,
                &d,
                file_name,
                payload.clone(),
                profile,
                owner.as_ref(),
            );
            let remaining = Rc::clone(&remaining);
            let done = Rc::clone(&done);
            d.portal.upload(sim, req, move |sim, res| {
                debug_assert!(res.is_ok(), "catalog provisioning failed");
                let _ = res;
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    if let Some(done) = done.borrow_mut().take() {
                        done(sim);
                    }
                }
            });
        }
    }

    // -- internal -----------------------------------------------------------

    /// Record a service in the catalog and advertise active replicas for
    /// it in the front-end registry.
    fn catalog_service(
        &self,
        file_name: &str,
        len: usize,
        profile: ExecutionProfile,
        owner: Option<(String, String)>,
    ) {
        let service = service_name(file_name);
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.catalogued.insert(file_name.to_owned()) {
                return;
            }
            inner.catalog.push(CatalogEntry {
                file_name: file_name.to_owned(),
                len,
                profile,
                owner,
            });
        }
        for replica in self.active_replica_names() {
            self.advertise(&service, &replica);
        }
    }

    /// Add `replica`'s endpoint for `service` to the front-end registry,
    /// publishing the businessService on first sight.
    fn advertise(&self, service: &str, replica: &str) {
        let binding = BindingTemplate {
            access_point: access_point(replica, service),
            wsdl_location: format!("{}?wsdl", access_point(replica, service)),
        };
        let mut inner = self.inner.borrow_mut();
        let mut registry = self.registry.borrow_mut();
        match inner.service_keys.get(service) {
            Some(key) => {
                // duplicate adds are harmless (replica already advertised)
                let _ = registry.add_binding(key, binding);
            }
            None => {
                let key = registry
                    .publish(
                        "onserve-fleet",
                        service,
                        "fleet front-end endpoint",
                        binding,
                    )
                    .expect("front-end service names are unique");
                inner.service_keys.insert(service.to_owned(), key);
            }
        }
    }

    /// Remove every front-end binding pointing at `replica`.
    fn unadvertise(&self, replica: &str) {
        let inner = self.inner.borrow();
        let mut registry = self.registry.borrow_mut();
        for (service, key) in &inner.service_keys {
            // LastBinding is deliberately ignored: the final advertised
            // endpoint stays until another replica takes over.
            let _ = registry.remove_binding(key, &access_point(replica, service));
        }
    }

    /// A replica's VM reached `Running`: assemble the middleware on it,
    /// replay the catalog, then join the rotation.
    fn on_replica_running(
        self: Rc<Self>,
        sim: &mut Sim,
        id: usize,
        appliance: Rc<Appliance>,
        name: String,
    ) {
        let rspec = DeploymentSpec {
            appliance_name: name.clone(),
            client_name: format!("{name}-client"),
            lan_name: format!("{name}-lan"),
            myproxy_name: format!("{name}-myproxy"),
            myproxy_path_name: format!("{name}-mp"),
            ..self.base.clone()
        };
        let host = Rc::clone(appliance.host());
        let db_host = match &self.shared_storage {
            Some(storage) => Rc::clone(storage),
            None => Rc::clone(&host),
        };
        let db = TimedDb::new(
            Rc::new(RefCell::new(BlobDb::new())),
            db_host,
            rspec.config.write_strategy,
        );
        let d = Rc::new(Deployment::build_with_host_and_db(sim, &rspec, host, db));
        // stamp the replica's frozen version before catalog replay so
        // every service it provisions is built at that version
        let version = self.inner.borrow().replica(&name).map_or(1, |r| r.version);
        d.onserve.set_artifact_version(version);
        self.provision_next(sim, id, d, 0);
    }

    /// Replay catalog entry `idx` onto the fresh replica, then recurse;
    /// activates the replica when the catalog is exhausted. The length is
    /// re-checked each step so executables uploaded mid-boot are included.
    fn provision_next(self: Rc<Self>, sim: &mut Sim, id: usize, d: Rc<Deployment>, idx: usize) {
        let entry = {
            let inner = self.inner.borrow();
            inner.catalog.get(idx).cloned()
        };
        match entry {
            None => self.activate(sim, id, d),
            Some(entry) => {
                let req = owned_upload_request(
                    sim,
                    &d,
                    &entry.file_name,
                    synth_executable(entry.len),
                    entry.profile,
                    entry.owner.as_ref(),
                );
                let d2 = Rc::clone(&d);
                let fleet = self;
                d.portal.upload(sim, req, move |sim, res| {
                    debug_assert!(res.is_ok(), "catalog replay failed");
                    let _ = res;
                    fleet.provision_next(sim, id, d2, idx + 1);
                });
            }
        }
    }

    /// Put a provisioned replica into the rotation and advertise it.
    fn activate(self: Rc<Self>, sim: &mut Sim, id: usize, d: Rc<Deployment>) {
        let expected = format!("{}{}", self.base.appliance_name, id);
        let (replica, services) = {
            let mut inner = self.inner.borrow_mut();
            inner.booted += 1;
            let services: Vec<String> = inner
                .catalog
                .iter()
                .map(|c| service_name(&c.file_name))
                .collect();
            let replica = inner.replica(&expected).cloned();
            (replica.expect("booting replica present"), services)
        };
        *replica.state.borrow_mut() = State::Active(d);
        let name = &replica.name;
        sim.counter_add("fleet.booted", 1);
        sim.span_end(replica.boot_span);
        for service in services {
            self.advertise(&service, name);
        }
        if self.version_labels.get() {
            if let Some(health) = self.dispatcher.health_plane() {
                health.set_version(name, &format!("v{}", replica.version));
            }
        }
        if let Some(g) = self.geo_plane() {
            // idempotent for replicas placed at attach time; a replacement
            // booted later gets the next site round-robin here
            let site = g.place(name);
            if let Some(health) = self.dispatcher.health_plane() {
                health.set_site(name, &site);
            }
            let _ = replica.geo.set((g, site));
        }
        self.dispatcher.add_backend(replica);
    }

    /// A replica left the dispatcher's rotation — the one place a replica
    /// is torn down and counted, whoever took it out. An ejection
    /// hard-destroys the VM, a drain destroys it idle. A draining replica
    /// was retiring by choice and counts as retired however it left; an
    /// active one only leaves by ejection — a crash, or its watchdog — and
    /// is a loss: unadvertised and counted for the autoscaler to replace.
    fn on_exit(&self, sim: &mut Sim, name: &str, exit: Exit) {
        let Some(replica) = self.inner.borrow().replica(name).cloned() else {
            return;
        };
        let _ = match exit {
            Exit::Drained => replica.appliance.destroy(),
            Exit::Ejected => replica.appliance.destroy_now(),
        };
        if let State::Draining(_) = replica.state.replace(State::Gone) {
            self.inner.borrow_mut().retired += 1;
            sim.counter_add("fleet.retired", 1);
            return;
        }
        self.inner.borrow_mut().lost += 1;
        let span = sim.span_begin("fleet.replica_lost");
        sim.span_attr(span, "replica", name.to_owned());
        sim.counter_add("fleet.replica_lost", 1);
        self.unadvertise(name);
        sim.span_end(span);
    }
}

/// Build an [`onserve::portal::UploadRequest`] against `d`, running as
/// `owner` when given (enrolling the tenant first — enrolment is
/// idempotent) or as the deployment's default grid identity.
fn owned_upload_request(
    sim: &Sim,
    d: &Rc<Deployment>,
    file_name: &str,
    payload: Blob,
    profile: ExecutionProfile,
    owner: Option<&(String, String)>,
) -> onserve::portal::UploadRequest {
    let mut req = d.upload_request_of(file_name, payload, profile, &[]);
    if let Some((user, pass)) = owner {
        d.enroll_tenant(sim, user, pass, None);
        req.grid_user = user.clone();
        req.grid_passphrase = pass.clone();
    }
    req
}

/// The service name onServe derives from an executable's file name.
fn service_name(file_name: &str) -> String {
    file_name
        .strip_suffix(".exe")
        .unwrap_or(file_name)
        .to_owned()
}

/// The endpoint a replica serves a generated service at.
fn access_point(replica: &str, service: &str) -> String {
    format!("http://{replica}:8080/axis2/services/{service}")
}

/// Bits of a fleet-served answer digest that carry the payload digest;
/// the top byte carries the serving replica's artifact version.
const ANSWER_DIGEST_MASK: u64 = 0x00ff_ffff_ffff_ffff;

/// The artifact version a fleet-served invoke answer was tagged with by
/// the replica that served it (`None` for non-binary answers or answers
/// that never passed through a fleet replica). The core digest is an
/// invocation counter nowhere near 2^56, so the top byte is free.
pub fn answer_version(value: &wsstack::SoapValue) -> Option<u32> {
    match value {
        wsstack::SoapValue::Binary { digest, .. } => {
            let v = (digest >> 56) as u32;
            (v != 0).then_some(v)
        }
        _ => None,
    }
}

impl Replica {
    /// Wrap `done` so a gray-degraded replica ([`Fleet::degrade_replica`])
    /// stretches the request's service time to `factor ×` normal: the real
    /// work completes as usual, then the response is held for the extra
    /// `(factor − 1) × elapsed`. At factor 1.0 (the default) the responder
    /// is invoked directly — no event is scheduled, so healthy runs are
    /// bit-for-bit unchanged.
    fn stretch(&self, start: simkit::SimTime, done: Responder) -> Responder {
        let me = Weak::clone(&self.me);
        Box::new(move |sim: &mut Sim, res| {
            let f = me.upgrade().map_or(1.0, |r| r.slow_factor.get());
            if f > 1.0 {
                let elapsed = sim.now() - start;
                let extra = Duration::from_secs_f64(elapsed.as_secs_f64() * (f - 1.0));
                if !extra.is_zero() {
                    sim.schedule(extra, move |sim| done(sim, res));
                    return;
                }
            }
            done(sim, res);
        })
    }

    /// Wrap `done` with the geo plane's delivery semantics. When the
    /// answer is ready: if the replica's site is severed *at that moment*
    /// the answer is held at the site and pulled back on reconnect
    /// (HTCondor-C result pull — this covers outages that begin after the
    /// request was accepted); then the WAN round trip back to the
    /// request's origin site is charged. Intra-site delivery adds zero
    /// delay and schedules no event, so a single-site fleet is
    /// bit-for-bit unchanged.
    fn geo_deliver(geo: Rc<GeoPlane>, site: String, origin: String, done: Responder) -> Responder {
        Box::new(move |sim: &mut Sim, res| {
            let mut delay = Duration::ZERO;
            if let Some(at) = geo.reconnect_at(&site, sim.now()) {
                delay += at - sim.now();
                geo.note_result_pulled();
                sim.counter_add("geo.result_pulled", 1);
            }
            delay += geo.round_trip(&origin, &site);
            if delay.is_zero() {
                done(sim, res);
            } else {
                sim.schedule(delay, move |sim| done(sim, res));
            }
        })
    }
}

impl Backend for Replica {
    fn name(&self) -> &str {
        &self.name
    }

    fn healthy(&self) -> bool {
        !matches!(*self.state.borrow(), State::Gone)
    }

    fn serve(&self, sim: &mut Sim, req: Request, done: Responder) {
        let Some(deployment) = self.deployment() else {
            // connection refused: the VM behind this endpoint is gone
            let name = self.name.clone();
            done(
                sim,
                Err(SoapFault::server(&format!("replica {name} unreachable"))),
            );
            return;
        };
        let done = match self.geo.get() {
            Some((geo, site)) => {
                if geo.is_down(site, sim.now()) {
                    // the partition swallows the request whole: no refusal,
                    // no answer — only the front door's watchdog can tell
                    geo.note_blackholed();
                    sim.counter_add("geo.blackholed", 1);
                    return;
                }
                // ambient origin of the request being dispatched right now
                Self::geo_deliver(Rc::clone(geo), site.clone(), geo.origin(), done)
            }
            None => done,
        };
        let done = self.stretch(sim.now(), done);
        match req {
            Request::Invoke { service, args, .. } => {
                let refs: Vec<(&str, wsstack::SoapValue)> =
                    args.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                let version = self.version;
                let done: Responder = Box::new(move |sim: &mut Sim, res| {
                    let res = res.map(|v| match v {
                        wsstack::SoapValue::Binary { bytes, digest } => {
                            wsstack::SoapValue::Binary {
                                bytes,
                                digest: (digest & ANSWER_DIGEST_MASK)
                                    | (u64::from(version) & 0xff) << 56,
                            }
                        }
                        other => other,
                    });
                    done(sim, res)
                });
                deployment.invoke(sim, &service, &refs, done);
            }
            Request::Upload {
                file_name,
                payload,
                profile,
            } => {
                let req = deployment.upload_request_of(&file_name, payload, profile, &[]);
                deployment.portal.upload(sim, req, move |sim, res| {
                    done(
                        sim,
                        res.map(|_| wsstack::SoapValue::Bool(true))
                            .map_err(|e| SoapFault::server(&format!("upload: {e}"))),
                    );
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    fn image() -> ApplianceImage {
        ApplianceImage {
            name: "onserve".into(),
            bytes: 600.0 * simkit::MB,
            boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
            recipe_fingerprint: 1,
        }
    }

    fn spec(topology: StorageTopology, replicas: usize) -> FleetSpec {
        let mut spec = FleetSpec::with_image(image());
        spec.topology = topology;
        spec.initial_replicas = replicas;
        spec
    }

    fn invoke(service: &str) -> Request {
        Request::Invoke {
            service: service.into(),
            args: Vec::new(),
            principal: None,
        }
    }

    #[test]
    fn boots_replicas_provisions_and_serves_through_the_front_end() {
        let mut sim = Sim::new(11);
        let fleet = Fleet::new(&mut sim, spec(StorageTopology::Replicated, 2));
        assert_eq!(fleet.active_replicas(), 0);
        assert_eq!(fleet.booting_replicas(), 2);
        sim.run();
        assert_eq!(fleet.active_replicas(), 2);
        assert_eq!(fleet.booted_total(), 2);

        let published = Rc::new(Cell::new(false));
        let p = Rc::clone(&published);
        fleet.publish(
            &mut sim,
            "app.exe",
            4 * 1024 * 1024,
            ExecutionProfile::quick(),
            move |_| p.set(true),
        );
        sim.run();
        assert!(published.get());
        // one businessService, one bindingTemplate per replica
        let services: Vec<wsstack::BusinessService> = fleet
            .registry()
            .borrow_mut()
            .find("app")
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].bindings.len(), 2);

        let ok = Rc::new(Cell::new(false));
        let ok2 = Rc::clone(&ok);
        fleet.dispatcher().clone().submit(
            &mut sim,
            invoke("app"),
            Box::new(move |_, res| ok2.set(res.is_ok())),
        );
        sim.run();
        assert!(ok.get());
        let c = fleet.dispatcher().counters();
        assert_eq!((c.accepted, c.completed, c.faulted), (1, 1, 0));
    }

    #[test]
    fn front_door_upload_is_replayed_onto_later_replicas() {
        let mut sim = Sim::new(12);
        let fleet = Fleet::new(&mut sim, spec(StorageTopology::Replicated, 1));
        sim.run();
        // upload through the dispatcher, like the workload generator does
        fleet.dispatcher().clone().submit(
            &mut sim,
            Request::Upload {
                file_name: "tool.exe".into(),
                payload: synth_executable(2 * 1024 * 1024),
                profile: ExecutionProfile::quick(),
            },
            Box::new(|_, res| assert!(res.is_ok())),
        );
        sim.run();
        fleet.scale_up(&mut sim);
        sim.run();
        assert_eq!(fleet.active_replicas(), 2);
        // the late replica replayed the catalog and advertises the service
        let registry = fleet.registry();
        let mut registry = registry.borrow_mut();
        let services = registry.find("tool");
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].bindings.len(), 2);
    }

    /// Where the stored row of `file` sits in memory on every active
    /// replica, in boot order.
    fn replica_rows(fleet: &Fleet, file: &str) -> Vec<Option<*const u8>> {
        let inner = fleet.inner.borrow();
        let rows = inner.actives().map(|replica| {
            let d = replica.deployment().unwrap();
            let db = d.onserve.db().db().borrow();
            db.stored_row(file).ok().map(|row| row.as_ptr())
        });
        rows.collect()
    }

    #[test]
    fn a_front_door_upload_is_one_file_on_every_replica() {
        let mut sim = Sim::new(14);
        let fleet = Fleet::new(&mut sim, spec(StorageTopology::Replicated, 4));
        sim.run();
        let upload = |sim: &mut Sim, file: &str| {
            let answer = Rc::new(RefCell::new(None));
            let a = Rc::clone(&answer);
            fleet.dispatcher().clone().submit(
                sim,
                Request::Upload {
                    file_name: file.into(),
                    payload: synth_executable(64 * 1024),
                    profile: ExecutionProfile::quick(),
                },
                Box::new(move |_, res| *a.borrow_mut() = Some(res)),
            );
            sim.run();
            let answer = answer.borrow_mut().take();
            answer.expect("the join settles")
        };
        upload(&mut sim, "tool.exe").expect("stored everywhere");
        // the same buffer four times, not four equal ones
        let rows = replica_rows(&fleet, "tool.exe");
        assert!(rows[0].is_some());
        assert_eq!(rows, [rows[0]; 4]);
        // `publish` fans out the same way
        fleet.publish(&mut sim, "app.exe", 64 * 1024, ExecutionProfile::quick(), |_| {});
        sim.run();
        let rows = replica_rows(&fleet, "app.exe");
        assert!(rows[0].is_some());
        assert_eq!(rows, [rows[0]; 4]);

        // one replica's write fails: the join faults, the others keep the row
        let victim = fleet.active_replica_names()[1].clone();
        let injector = simkit::FaultPlan::new(5).write_fail(1.0).injector();
        assert!(fleet.inject_write_faults(&victim, Some(injector)));
        let fault = upload(&mut sim, "late.exe").expect_err("one store failed");
        assert!(fault.to_string().contains("write failed"), "{fault}");
        let rows = replica_rows(&fleet, "late.exe");
        assert!(rows[0].is_some());
        assert_eq!(rows, [rows[0], None, rows[0], rows[0]]);
    }

    #[test]
    fn a_file_name_through_the_door_twice_is_catalogued_and_replayed_once() {
        let mut sim = Sim::new(13);
        let fleet = Fleet::new(&mut sim, spec(StorageTopology::Replicated, 1));
        sim.run();
        let faults = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let faults = Rc::clone(&faults);
            fleet.dispatcher().clone().submit(
                &mut sim,
                Request::Upload {
                    file_name: "tool.exe".into(),
                    payload: synth_executable(64 * 1024),
                    profile: ExecutionProfile::quick(),
                },
                Box::new(move |_, res| faults.borrow_mut().extend(res.err())),
            );
            sim.run();
        }
        // the replica's database refused the second copy ...
        let faults = faults.borrow();
        assert_eq!(faults.len(), 1);
        let refused = faults[0].to_string();
        assert!(refused.contains("duplicate executable name"), "{refused}");
        // ... and the catalog took the name once
        assert_eq!(fleet.inner.borrow().catalog.len(), 1);
        assert_eq!(fleet.inner.borrow().catalogued.len(), 1);

        // a replica booted afterwards replays one entry: a second replay
        // would fault in its database and trip `provision_next`'s assert
        fleet.scale_up(&mut sim);
        sim.run();
        assert_eq!(fleet.active_replicas(), 2);
        for replica in fleet.inner.borrow().actives() {
            let d = replica.deployment().unwrap();
            assert_eq!(d.onserve.db().db().borrow().len(), 1, "{}", replica.name);
        }
        let mut registry = fleet.registry.borrow_mut();
        let services = registry.find("tool");
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].bindings.len(), 2);
    }

    #[test]
    fn scale_down_victim_is_the_least_pinned_replica_not_the_newest() {
        let mut sim = Sim::new(14);
        let mut s = spec(StorageTopology::Replicated, 3);
        s.dispatcher.policy = crate::dispatcher::Policy::RoundRobin;
        s.dispatcher.affinity = Some(crate::dispatcher::AffinityConfig::default());
        let fleet = Fleet::new(&mut sim, s);
        sim.run();
        fleet.publish(
            &mut sim,
            "app.exe",
            1024,
            ExecutionProfile::quick(),
            |_| {},
        );
        sim.run();
        let names = fleet.active_replica_names();
        assert_eq!(names.len(), 3);
        // an unpinned request advances round-robin past the oldest
        // replica, then two principals pin themselves to the other two —
        // leaving the OLDEST replica pin-free
        fleet
            .dispatcher()
            .clone()
            .submit(&mut sim, invoke("app"), Box::new(|_, r| assert!(r.is_ok())));
        for principal in ["alice", "bob"] {
            let req = Request::Invoke {
                service: "app".into(),
                args: Vec::new(),
                principal: Some(principal.into()),
            };
            fleet
                .dispatcher()
                .clone()
                .submit(&mut sim, req, Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        let pins = fleet.dispatcher().live_pin_counts();
        assert_eq!(pins[&names[0]], 0);
        assert_eq!(pins[&names[1]], 1);
        assert_eq!(pins[&names[2]], 1);
        assert!(fleet.scale_down(&mut sim));
        sim.run();
        let survivors = fleet.active_replica_names();
        assert_eq!(
            survivors,
            vec![names[1].clone(), names[2].clone()],
            "the pin-free oldest replica retires, not the newest"
        );
    }

    #[test]
    fn scale_down_drains_in_flight_work_then_destroys() {
        let mut sim = Sim::new(13);
        let fleet = Fleet::new(&mut sim, spec(StorageTopology::Replicated, 2));
        sim.run();
        fleet.publish(
            &mut sim,
            "slow.exe",
            1024 * 1024,
            ExecutionProfile::quick().lasting(Duration::from_secs(30)),
            |_| {},
        );
        sim.run();
        // occupy both replicas so the retiring one has in-flight work
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let done = Rc::clone(&done);
            fleet.dispatcher().clone().submit(
                &mut sim,
                invoke("slow"),
                Box::new(move |_, res| {
                    assert!(res.is_ok());
                    done.set(done.get() + 1);
                }),
            );
        }
        assert!(fleet.scale_down(&mut sim));
        // out of rotation immediately, but not destroyed until drained
        assert_eq!(fleet.active_replicas(), 1);
        assert_eq!(fleet.retired_total(), 0);
        sim.run();
        assert_eq!(done.get(), 2, "draining replica finished its request");
        assert_eq!(fleet.retired_total(), 1);
        // the last replica can never be retired
        assert!(!fleet.scale_down(&mut sim));
        assert_eq!(fleet.active_replicas(), 1);
    }

    #[test]
    fn crash_mid_request_retries_on_the_survivor() {
        let mut sim = Sim::new(15);
        let fleet = Fleet::new(&mut sim, spec(StorageTopology::Replicated, 2));
        sim.run();
        fleet.publish(
            &mut sim,
            "slow.exe",
            1024 * 1024,
            ExecutionProfile::quick().lasting(Duration::from_secs(60)),
            |_| {},
        );
        sim.run();
        // one long request per replica, then kill one replica mid-flight
        let ok = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let ok = Rc::clone(&ok);
            fleet.dispatcher().clone().submit(
                &mut sim,
                invoke("slow"),
                Box::new(move |_, res| {
                    assert!(res.is_ok(), "request survived the crash: {res:?}");
                    ok.set(ok.get() + 1);
                }),
            );
        }
        let fleet2 = Rc::clone(&fleet);
        sim.schedule(Duration::from_secs(5), move |sim| {
            let victim = fleet2.active_replica_names()[0].clone();
            assert!(fleet2.crash_replica(sim, &victim));
            assert!(
                !fleet2.crash_replica(sim, &victim),
                "double-kill is refused"
            );
        });
        sim.run();
        assert_eq!(ok.get(), 2, "both requests completed despite the crash");
        assert_eq!(fleet.active_replicas(), 1);
        assert_eq!(fleet.lost_total(), 1);
        assert_eq!(fleet.retired_total(), 0);
        let c = fleet.dispatcher().counters();
        assert_eq!((c.accepted, c.completed, c.faulted), (2, 2, 0));
        assert_eq!(c.retried, 1);
        assert_eq!(c.ejected, 1);
        // the dead replica's front-end bindings are gone
        let registry = fleet.registry();
        let mut registry = registry.borrow_mut();
        assert_eq!(registry.find("slow")[0].bindings.len(), 1);
    }

    #[test]
    fn shared_topology_charges_all_database_io_to_one_host() {
        let run = |topology| {
            let mut sim = Sim::new(14);
            let fleet = Fleet::new(&mut sim, spec(topology, 2));
            sim.run();
            fleet.publish(
                &mut sim,
                "app.exe",
                8 * 1024 * 1024,
                ExecutionProfile::quick(),
                |_| {},
            );
            sim.run();
            for _ in 0..4 {
                fleet
                    .dispatcher()
                    .clone()
                    .submit(&mut sim, invoke("app"), Box::new(|_, res| assert!(res.is_ok())));
            }
            sim.run();
            let r = sim.recorder_ref();
            r.total("blobstore.disk.read.busy") + r.total("blobstore.disk.write.busy")
        };
        assert!(run(StorageTopology::Shared) > 0.0);
        assert_eq!(run(StorageTopology::Replicated), 0.0);
    }
}
