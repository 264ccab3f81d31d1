//! The onServe middleware: upload→generate→publish, and the SaaS→JSE
//! invocation pipeline.
//!
//! Scenario A (§VII-A): an uploaded executable is stored in the database,
//! a Web service is generated from the template and deployed into the
//! SOAP container, and the service is published in the UDDI registry.
//!
//! Scenario B (§VII-B): invoking a generated service runs the translation
//! pipeline — *file retrieval* from the database, *authentication* through
//! the Cyberaide agent, *upload* (staging) to the selected site, *job
//! description generation*, *job submission*, and tentative output polling
//! until the result comes back as the SOAP response.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::{Rc, Weak};

use blobstore::{DbError, ParamSpec, TimedDb, WriteStrategy};
use bytes::Bytes;
use cyberaide::{CyberaideAgent, OutputPoller, PollError};
use gridsim::{BrokerPolicy, GridError, JobDescription};
use simkit::{Duration, Host, Sim, SpanId};
use wsstack::container::Responder;
use wsstack::uddi::BindingTemplate;
use wsstack::{ClientStub, ServiceArchive, SoapContainer, SoapFault, SoapValue, UddiRegistry};

use crate::generator;
use crate::params::validate_args;
use crate::profile::ExecutionProfile;
use crate::watchdog::Watchdog;

/// Middleware configuration (every ◆ ablation from DESIGN.md lives here).
#[derive(Clone, Debug)]
pub struct OnServeConfig {
    /// How uploads reach the database (◆ double-write flaw vs direct).
    pub write_strategy: WriteStrategy,
    /// Tentative output-poll interval (◆ drives the periodic disk peaks).
    pub poll_interval: Duration,
    /// Give up polling after this long.
    pub poll_timeout: Duration,
    /// Watchdog limit for a whole invocation.
    pub invocation_timeout: Duration,
    /// Skip re-staging executables already at the site (◆ the paper's
    /// build always re-uploads: "large files ... will even be reloaded
    /// when executed a 2nd time", §VIII-B).
    pub reuse_staged_files: bool,
    /// Reuse an authenticated Grid session across invocations instead of
    /// performing the MyProxy credential exchange every time (◆ the
    /// paper's build authenticates per invocation, which is why the
    /// credential traffic dominates Figure 6).
    pub cache_grid_sessions: bool,
    /// Site-selection policy.
    pub broker: BrokerPolicy,
    /// Grid-side retries on *transient* failures (gatekeeper outage, node
    /// failure, storage full): re-select a site excluding the failed one
    /// and run again. The paper's build has none (`0`); this is a
    /// beyond-paper resilience extension (DESIGN.md section 6).
    pub job_retries: u32,
}

impl Default for OnServeConfig {
    fn default() -> Self {
        OnServeConfig {
            write_strategy: WriteStrategy::DoubleWrite,
            poll_interval: Duration::from_secs(9),
            poll_timeout: Duration::from_secs(24 * 3600),
            invocation_timeout: Duration::from_secs(48 * 3600),
            reuse_staged_files: false,
            cache_grid_sessions: false,
            broker: BrokerPolicy::MostFreeCores,
            job_retries: 0,
        }
    }
}

/// What publishing an upload produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublishedService {
    /// UDDI service key.
    pub service_key: String,
    /// Generated service name.
    pub service_name: String,
    /// SOAP endpoint.
    pub endpoint: String,
    /// Serialized WSDL (what the registry's `wsdl_location` serves).
    pub wsdl_text: String,
}

/// Upload-path failures.
#[derive(Clone, Debug, PartialEq)]
pub enum UploadError {
    /// Database rejected the executable.
    Db(DbError),
    /// WSDL/archive generation failed (bad parameter declarations).
    Generation(String),
    /// The registry rejected publication.
    Registry(String),
    /// Update target does not exist.
    NoSuchService(String),
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::Db(e) => write!(f, "database: {e}"),
            UploadError::Generation(m) => write!(f, "generation: {m}"),
            UploadError::Registry(m) => write!(f, "registry: {m}"),
            UploadError::NoSuchService(s) => write!(f, "no such service: {s}"),
        }
    }
}

impl std::error::Error for UploadError {}

/// Invocation-path failures (rendered as `soap:Server` faults on the
/// wire).
#[derive(Clone, Debug, PartialEq)]
pub enum InvokeError {
    /// Unknown service (undeployed/unpublished).
    NoSuchService(String),
    /// Arguments failed validation against the declared parameters.
    BadArguments(String),
    /// Fetching the executable from the database failed.
    Db(DbError),
    /// Grid-side failure (auth, staging, submission, polling).
    Grid(String),
    /// The job failed on the Grid.
    JobFailed(String),
    /// The watchdog killed the invocation.
    WatchdogTimeout,
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::NoSuchService(s) => write!(f, "no such service: {s}"),
            InvokeError::BadArguments(m) => write!(f, "bad arguments: {m}"),
            InvokeError::Db(e) => write!(f, "database: {e}"),
            InvokeError::Grid(m) => write!(f, "grid: {m}"),
            InvokeError::JobFailed(m) => write!(f, "job failed: {m}"),
            InvokeError::WatchdogTimeout => write!(f, "watchdog: invocation timed out"),
        }
    }
}

impl std::error::Error for InvokeError {}

impl From<InvokeError> for SoapFault {
    fn from(e: InvokeError) -> SoapFault {
        match &e {
            InvokeError::NoSuchService(_) | InvokeError::BadArguments(_) => {
                SoapFault::client(&e.to_string())
            }
            _ => SoapFault::server(&e.to_string()),
        }
    }
}

/// Shared failure continuation threaded through the invocation pipeline.
type FailFn = Rc<dyn Fn(&mut Sim, InvokeError)>;

struct ServiceMeta {
    exe_name: String,
    params: Vec<ParamSpec>,
    owner_user: String,
    owner_pass: String,
    profile: ExecutionProfile,
    service_key: String,
    version: generator::ServiceVersion,
}

/// The middleware.
pub struct OnServe {
    host: Rc<Host>,
    container: Rc<RefCell<SoapContainer>>,
    registry: Rc<RefCell<UddiRegistry>>,
    db: Rc<TimedDb>,
    agent: Rc<CyberaideAgent>,
    config: OnServeConfig,
    services: RefCell<BTreeMap<String, ServiceMeta>>,
    staged: RefCell<BTreeSet<(String, String)>>,
    grid_sessions: RefCell<BTreeMap<String, cyberaide::SessionId>>,
    invocations: Cell<u64>,
    invocation_failures: Cell<u64>,
    /// Authentications performed against the agent (cache misses included).
    auths: Cell<u64>,
    /// Invocations served from a cached grid session (re-auths avoided).
    session_hits: Cell<u64>,
    /// Stale cached sessions evicted (and logged out of the agent).
    session_evictions: Cell<u64>,
    /// Version stamped into subsequent generator builds. Rollout
    /// controllers bump this on vN+1 appliances before provisioning;
    /// already-deployed services keep the version they were built at.
    artifact_version: Cell<u32>,
}

impl OnServe {
    /// Assemble the middleware on an appliance.
    pub fn new(
        host: Rc<Host>,
        container: Rc<RefCell<SoapContainer>>,
        registry: Rc<RefCell<UddiRegistry>>,
        db: Rc<TimedDb>,
        agent: Rc<CyberaideAgent>,
        config: OnServeConfig,
    ) -> Rc<OnServe> {
        Rc::new(OnServe {
            host,
            container,
            registry,
            db,
            agent,
            config,
            services: RefCell::new(BTreeMap::new()),
            staged: RefCell::new(BTreeSet::new()),
            grid_sessions: RefCell::new(BTreeMap::new()),
            invocations: Cell::new(0),
            invocation_failures: Cell::new(0),
            auths: Cell::new(0),
            session_hits: Cell::new(0),
            session_evictions: Cell::new(0),
            artifact_version: Cell::new(1),
        })
    }

    /// The UDDI registry.
    pub fn registry(&self) -> &Rc<RefCell<UddiRegistry>> {
        &self.registry
    }

    /// The SOAP container.
    pub fn container(&self) -> &Rc<RefCell<SoapContainer>> {
        &self.container
    }

    /// The executable database.
    pub fn db(&self) -> &Rc<TimedDb> {
        &self.db
    }

    /// The Cyberaide agent.
    pub fn agent(&self) -> &Rc<CyberaideAgent> {
        &self.agent
    }

    /// The appliance host.
    pub fn host(&self) -> &Rc<Host> {
        &self.host
    }

    /// Active configuration.
    pub fn config(&self) -> &OnServeConfig {
        &self.config
    }

    /// `(invocations, failures)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.invocations.get(), self.invocation_failures.get())
    }

    /// `(authentications, cache hits, stale evictions)` — how often the
    /// grid-session cache saved a MyProxy round trip, and how often a
    /// cached proxy had to be evicted (and logged out) for staleness.
    pub fn session_counters(&self) -> (u64, u64, u64) {
        (
            self.auths.get(),
            self.session_hits.get(),
            self.session_evictions.get(),
        )
    }

    /// Version stamped into the next generator build on this appliance.
    pub fn artifact_version(&self) -> generator::ServiceVersion {
        generator::ServiceVersion(self.artifact_version.get())
    }

    /// Set the version stamped into subsequent builds. Existing
    /// deployments are untouched — they keep serving the build they
    /// were provisioned with.
    pub fn set_artifact_version(&self, version: u32) {
        self.artifact_version.set(version);
    }

    /// Version of the build a published service currently serves.
    pub fn service_version(&self, service_name: &str) -> Option<generator::ServiceVersion> {
        self.services.borrow().get(service_name).map(|m| m.version)
    }

    /// Scenario A: store the uploaded executable, generate + deploy the
    /// Web service, publish it. (Network/CPU costs of *receiving* the
    /// upload belong to the portal.)
    #[allow(clippy::too_many_arguments)]
    pub fn upload_executable<F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        file_name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        data: Bytes,
        owner: (&str, &str),
        profile: ExecutionProfile,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<PublishedService, UploadError>) + 'static,
    {
        let this = Rc::clone(self);
        let owner_user = owner.0.to_owned();
        let owner_pass = owner.1.to_owned();
        let file_name2 = file_name.to_owned();
        let description2 = description.to_owned();
        let up_span = sim.span_begin("onserve.upload");
        sim.span_attr(up_span, "file", file_name);
        // single close point: every exit path funnels through `done`
        let done = move |sim: &mut Sim, res: Result<PublishedService, UploadError>| {
            match &res {
                Ok(_) => sim.span_end(up_span),
                Err(e) => sim.span_fail(up_span, &e.to_string()),
            }
            done(sim, res)
        };
        let prev = sim.set_span_parent(up_span);
        self.db.clone().store(
            sim,
            file_name,
            description,
            params.clone(),
            data,
            move |sim, res, _timing| {
                let id = match res {
                    Ok(id) => id,
                    Err(e) => return done(sim, Err(UploadError::Db(e))),
                };
                let record = this
                    .db
                    .db()
                    .borrow()
                    .record_by_id(id)
                    .expect("just inserted")
                    .clone();
                let generated = match generator::generate_versioned(
                    &record,
                    this.host.name(),
                    generator::ServiceVersion(this.artifact_version.get()),
                ) {
                    Ok(g) => g,
                    Err(m) => return done(sim, Err(UploadError::Generation(m))),
                };
                let built_version = generated.version;
                // the ant build burns appliance CPU before deployment
                let this2 = Rc::clone(&this);
                let host = Rc::clone(&this.host);
                let build_span = sim.span_child("generator.build", up_span);
                sim.span_attr(build_span, "cpu_secs", generated.build_cpu_secs);
                host.compute(sim, generated.build_cpu_secs, move |sim| {
                    sim.span_end(build_span);
                    let service_name = generated.service_name.clone();
                    let wsdl_text = generated.wsdl.to_text();
                    let endpoint = generated.wsdl.endpoint.clone();
                    let handler = Self::make_handler(&this2, &service_name);
                    let archive = ServiceArchive {
                        name: service_name.clone(),
                        wsdl: generated.wsdl,
                        archive_bytes: generated.archive_bytes,
                        handler,
                    };
                    let this3 = Rc::clone(&this2);
                    let container = Rc::clone(&this2.container);
                    let prev = sim.set_span_parent(up_span);
                    SoapContainer::deploy(&container, sim, archive, move |sim, dres| {
                        if let Err(f) = dres {
                            return done(
                                sim,
                                Err(UploadError::Generation(format!("deploy failed: {f}"))),
                            );
                        }
                        let pub_span = sim.span_child("uddi.publish", up_span);
                        let publish = this3.registry.borrow_mut().publish(
                            "Cyberaide onServe",
                            &service_name,
                            &description2,
                            BindingTemplate {
                                access_point: endpoint.clone(),
                                wsdl_location: format!("{endpoint}?wsdl"),
                            },
                        );
                        match publish {
                            Err(e) => {
                                sim.span_fail(pub_span, &e.to_string());
                                this3.container.borrow_mut().undeploy(&service_name);
                                done(sim, Err(UploadError::Registry(e.to_string())))
                            }
                            Ok(service_key) => {
                                sim.span_attr(pub_span, "service_key", service_key.as_str());
                                sim.span_end(pub_span);
                                this3.services.borrow_mut().insert(
                                    service_name.clone(),
                                    ServiceMeta {
                                        exe_name: file_name2.clone(),
                                        params,
                                        owner_user,
                                        owner_pass,
                                        profile,
                                        service_key: service_key.clone(),
                                        version: built_version,
                                    },
                                );
                                done(
                                    sim,
                                    Ok(PublishedService {
                                        service_key,
                                        service_name,
                                        endpoint,
                                        wsdl_text,
                                    }),
                                )
                            }
                        }
                    });
                    sim.set_span_parent(prev);
                });
            },
        );
        sim.set_span_parent(prev);
    }

    /// Replace a published service's executable (and optionally its
    /// declared parameters, description and execution profile) in place:
    /// same service name, same UDDI key, same endpoint. Cached stagings of
    /// the old binary are invalidated so the next invocation ships the new
    /// one even under `reuse_staged_files`.
    #[allow(clippy::too_many_arguments)]
    pub fn update_executable<F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        service_name: &str,
        data: Bytes,
        new_params: Option<Vec<ParamSpec>>,
        new_description: Option<String>,
        new_profile: Option<ExecutionProfile>,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<(), UploadError>) + 'static,
    {
        let (exe_name, old_params, old_desc) = {
            let services = self.services.borrow();
            match services.get(service_name) {
                None => {
                    drop(services);
                    return done(
                        sim,
                        Err(UploadError::NoSuchService(service_name.to_owned())),
                    );
                }
                Some(m) => {
                    let desc = self
                        .db
                        .db()
                        .borrow()
                        .record(&m.exe_name)
                        .map(|r| r.description.clone())
                        .unwrap_or_default();
                    (m.exe_name.clone(), m.params.clone(), desc)
                }
            }
        };
        let params = new_params.unwrap_or(old_params);
        let description = new_description.unwrap_or(old_desc);
        // drop the old row; the timed store writes the replacement
        let _ = self.db.db().borrow_mut().delete(&exe_name);
        let this = Rc::clone(self);
        let service_name = service_name.to_owned();
        let exe_arg = exe_name.clone();
        let desc_arg = description.clone();
        self.db.clone().store(
            sim,
            &exe_arg,
            &desc_arg,
            params.clone(),
            data,
            move |sim, res, _timing| {
                let id = match res {
                    Ok(id) => id,
                    Err(e) => return done(sim, Err(UploadError::Db(e))),
                };
                let record = this
                    .db
                    .db()
                    .borrow()
                    .record_by_id(id)
                    .expect("just inserted")
                    .clone();
                let generated = match generator::generate_versioned(
                    &record,
                    this.host.name(),
                    generator::ServiceVersion(this.artifact_version.get()),
                ) {
                    Ok(g) => g,
                    Err(m) => return done(sim, Err(UploadError::Generation(m))),
                };
                let built_version = generated.version;
                let this2 = Rc::clone(&this);
                let host = Rc::clone(&this.host);
                host.compute(sim, generated.build_cpu_secs, move |sim| {
                    let handler = Self::make_handler(&this2, &service_name);
                    let archive = ServiceArchive {
                        name: service_name.clone(),
                        wsdl: generated.wsdl,
                        archive_bytes: generated.archive_bytes,
                        handler,
                    };
                    let this3 = Rc::clone(&this2);
                    let container = Rc::clone(&this2.container);
                    SoapContainer::deploy(&container, sim, archive, move |sim, dres| {
                        if let Err(f) = dres {
                            return done(
                                sim,
                                Err(UploadError::Generation(format!("redeploy failed: {f}"))),
                            );
                        }
                        {
                            let mut services = this3.services.borrow_mut();
                            let meta = services
                                .get_mut(&service_name)
                                .expect("service present for update");
                            meta.params = params;
                            meta.version = built_version;
                            if let Some(p) = new_profile {
                                meta.profile = p;
                            }
                            let _ = this3
                                .registry
                                .borrow_mut()
                                .update_description(&meta.service_key, &description);
                        }
                        // invalidate cached stagings of the replaced binary
                        this3
                            .staged
                            .borrow_mut()
                            .retain(|(_, exe)| exe != &exe_name);
                        done(sim, Ok(()));
                    });
                });
            },
        );
    }

    /// Unpublish + undeploy + delete a service and its executable.
    pub fn remove_service(&self, service_name: &str) -> bool {
        let meta = match self.services.borrow_mut().remove(service_name) {
            Some(m) => m,
            None => return false,
        };
        let _ = self.registry.borrow_mut().delete(&meta.service_key);
        self.container.borrow_mut().undeploy(service_name);
        let _ = self.db.db().borrow_mut().delete(&meta.exe_name);
        true
    }

    /// Build a typed client for a published service by reading its WSDL
    /// from the container (the `?wsdl` endpoint a real client would hit).
    pub fn client_for(&self, service_name: &str) -> Result<ClientStub, InvokeError> {
        let wsdl = self
            .container
            .borrow()
            .wsdl_for(service_name)
            .cloned()
            .ok_or_else(|| InvokeError::NoSuchService(service_name.to_owned()))?;
        Ok(ClientStub::from_wsdl(wsdl))
    }

    /// The generated `GridService` template instance for one service.
    fn make_handler(this: &Rc<Self>, service_name: &str) -> Rc<dyn wsstack::container::ServiceHandler> {
        let weak: Weak<OnServe> = Rc::downgrade(this);
        let service_name = service_name.to_owned();
        Rc::new(
            move |sim: &mut Sim,
                  _op: &str,
                  args: &BTreeMap<String, SoapValue>,
                  respond: Responder| {
                match weak.upgrade() {
                    None => respond(sim, Err(SoapFault::server("middleware shut down"))),
                    Some(onserve) => {
                        OnServe::execute_service(&onserve, sim, &service_name, args, respond)
                    }
                }
            },
        )
    }

    /// Scenario B: the full SaaS→JSE translation for one invocation.
    pub fn execute_service(
        self: &Rc<Self>,
        sim: &mut Sim,
        service_name: &str,
        args: &BTreeMap<String, SoapValue>,
        respond: Responder,
    ) {
        self.invocations.set(self.invocations.get() + 1);
        let invocation_no = self.invocations.get();
        let inv_span = sim.span_begin("onserve.invoke");
        sim.span_attr(inv_span, "service", service_name);
        sim.span_attr(inv_span, "invocation", invocation_no);
        sim.counter_add("onserve.invocations", 1);
        // one-shot responder shared between the pipeline and the watchdog
        let slot: Rc<RefCell<Option<Responder>>> = Rc::new(RefCell::new(Some(respond)));
        let fail: FailFn = {
            let this = Rc::clone(self);
            let slot = Rc::clone(&slot);
            Rc::new(move |sim: &mut Sim, e: InvokeError| {
                if let Some(r) = slot.borrow_mut().take() {
                    this.invocation_failures
                        .set(this.invocation_failures.get() + 1);
                    sim.counter_add("onserve.failures", 1);
                    sim.span_fail(inv_span, &e.to_string());
                    r(sim, Err(e.into()));
                }
            })
        };
        let (meta_exe, rendered, profile, owner_user, owner_pass) = {
            let services = self.services.borrow();
            let meta = match services.get(service_name) {
                Some(m) => m,
                None => {
                    drop(services);
                    return fail(sim, InvokeError::NoSuchService(service_name.to_owned()));
                }
            };
            match validate_args(&meta.params, args) {
                Err(m) => {
                    drop(services);
                    return fail(sim, InvokeError::BadArguments(m));
                }
                Ok(rendered) => (
                    meta.exe_name.clone(),
                    rendered,
                    meta.profile,
                    meta.owner_user.clone(),
                    meta.owner_pass.clone(),
                ),
            }
        };
        let slot_for_dog = Rc::clone(&slot);
        let this = Rc::clone(self);
        let timeout_secs = self.config.invocation_timeout.as_secs_f64();
        let dog = Rc::new(Watchdog::arm(
            sim,
            self.config.invocation_timeout,
            move |sim| {
                if let Some(r) = slot_for_dog.borrow_mut().take() {
                    this.invocation_failures
                        .set(this.invocation_failures.get() + 1);
                    sim.counter_add("onserve.failures", 1);
                    sim.span_attr(inv_span, "timeout_secs", timeout_secs);
                    sim.span_fail(inv_span, "watchdog_timeout");
                    r(sim, Err(InvokeError::WatchdogTimeout.into()));
                }
            },
        ));
        // Step 1 — file retrieval from the database (temp write included)
        let this = Rc::clone(self);
        let fail1 = Rc::clone(&fail);
        let exe_arg = meta_exe.clone();
        let prev = sim.set_span_parent(inv_span);
        self.db.clone().load_for_use(sim, &exe_arg, move |sim, res, _t| {
            let fail = fail1;
            let data = match res {
                Ok(d) => d,
                Err(e) => return fail(sim, InvokeError::Db(e)),
            };
            // Step 2 — authentication via the agent (or a cached session,
            // when the ablation is on and the proxy is still fresh)
            let agent = Rc::clone(&this.agent);
            let owner_for_cache = owner_user.clone();
            let retries = this.config.job_retries;
            type WithSession = Box<dyn FnOnce(&mut Sim, cyberaide::SessionId)>;
            let with_session: WithSession = {
                let this2 = Rc::clone(&this);
                let fail2 = Rc::clone(&fail);
                let slot2 = Rc::clone(&slot);
                Box::new(move |sim: &mut Sim, session: cyberaide::SessionId| {
                    let ctx = Rc::new(AttemptCtx {
                        onserve: this2,
                        session,
                        exe_name: meta_exe,
                        rendered,
                        profile,
                        data_len: data.len() as f64,
                        invocation_no,
                        attempts_left: Cell::new(retries),
                        excluded_sites: RefCell::new(Vec::new()),
                        fail: fail2,
                        slot: slot2,
                        dog,
                        span: inv_span,
                    });
                    OnServe::grid_attempt(ctx, sim);
                })
            };
            let this_auth = Rc::clone(&this);
            let cached = if this.config.cache_grid_sessions {
                let candidate = this.grid_sessions.borrow().get(&owner_for_cache).copied();
                match candidate {
                    // keep a safety margin so the proxy outlives the job
                    Some(s)
                        if agent
                            .session_expires(s)
                            .is_some_and(|exp| exp > sim.now() + Duration::from_secs(600)) =>
                    {
                        Some(s)
                    }
                    // stale: evict *and* log out, or the agent's session
                    // map grows by one dead proxy per expiry
                    Some(stale) => {
                        this.grid_sessions.borrow_mut().remove(&owner_for_cache);
                        agent.logout(stale);
                        this.session_evictions.set(this.session_evictions.get() + 1);
                        sim.counter_add("onserve.session_evicted", 1);
                        None
                    }
                    None => None,
                }
            } else {
                None
            };
            match cached {
                Some(session) => {
                    this.session_hits.set(this.session_hits.get() + 1);
                    sim.counter_add("onserve.session_cache_hit", 1);
                    with_session(sim, session)
                }
                None => {
                    this.auths.set(this.auths.get() + 1);
                    let fail_auth = Rc::clone(&fail);
                    let prev = sim.set_span_parent(inv_span);
                    agent.authenticate(sim, &owner_user, &owner_pass, move |sim, auth| {
                        match auth {
                            Ok(session) => {
                                if this_auth.config.cache_grid_sessions {
                                    this_auth
                                        .grid_sessions
                                        .borrow_mut()
                                        .insert(owner_for_cache, session);
                                }
                                with_session(sim, session);
                            }
                            Err(e) => fail_auth(sim, InvokeError::Grid(e.to_string())),
                        }
                    });
                    sim.set_span_parent(prev);
                }
            }
        });
        sim.set_span_parent(prev);
    }
}


/// One grid-side attempt of an invocation: everything from site selection
/// to output polling, re-enterable for the retry extension.
struct AttemptCtx {
    onserve: Rc<OnServe>,
    session: cyberaide::SessionId,
    exe_name: String,
    rendered: Vec<String>,
    profile: ExecutionProfile,
    data_len: f64,
    invocation_no: u64,
    attempts_left: Cell<u32>,
    excluded_sites: RefCell<Vec<String>>,
    fail: FailFn,
    slot: Rc<RefCell<Option<Responder>>>,
    dog: Rc<Watchdog>,
    /// The invocation root span every grid-side stage nests under.
    span: SpanId,
}

impl AttemptCtx {
    /// Drop the Grid session if sessions are per-invocation (the paper's
    /// behaviour); cached sessions stay alive for the next invocation.
    fn logout(&self) {
        if !self.onserve.config.cache_grid_sessions {
            self.onserve.agent.logout(self.session);
        }
    }

    /// Route a failure: retry (when transient, budget left, and the
    /// watchdog hasn't already answered) or surface it.
    fn fail_or_retry(
        self: &Rc<Self>,
        sim: &mut Sim,
        err: InvokeError,
        failed_site: Option<String>,
        transient: bool,
    ) {
        if transient && self.attempts_left.get() > 0 && !self.dog.timed_out() {
            self.attempts_left.set(self.attempts_left.get() - 1);
            if let Some(site) = failed_site {
                self.excluded_sites.borrow_mut().push(site);
            }
            OnServe::grid_attempt(Rc::clone(self), sim);
            return;
        }
        self.logout();
        if self.dog.disarm(sim) {
            (self.fail)(sim, err);
        } else {
            // watchdog already answered; drop silently
            let _ = err;
        }
    }
}

impl OnServe {
    /// Steps 3–7 of the pipeline (site selection → staging → job
    /// description → submission → polling) as one attempt.
    fn grid_attempt(ctx: Rc<AttemptCtx>, sim: &mut Sim) {
        let this = Rc::clone(&ctx.onserve);
        // Step 3 — resource selection (minus sites that already failed)
        let site = {
            let excluded = ctx.excluded_sites.borrow();
            this.agent.grid().select_excluding(
                &this.config.broker,
                ctx.profile.cores,
                sim.now(),
                &excluded,
            )
        };
        let site = match site {
            Ok(s) => s,
            Err(e) => {
                return ctx.fail_or_retry(sim, InvokeError::Grid(e.to_string()), None, false)
            }
        };
        // Step 4 — upload (staging), unless cached and reuse is on
        let key = (site.name().to_owned(), ctx.exe_name.clone());
        let already = this.config.reuse_staged_files
            && this.staged.borrow().contains(&key)
            && site.storage().borrow().has(&ctx.exe_name);
        let ctx2 = Rc::clone(&ctx);
        let site_for_stage = Rc::clone(&site);
        let after_stage = move |sim: &mut Sim, staged: Result<(), GridError>| {
            let ctx = ctx2;
            if let Err(e) = staged {
                let site_name = site.name().to_owned();
                return ctx.fail_or_retry(
                    sim,
                    InvokeError::Grid(e.to_string()),
                    Some(site_name),
                    true,
                );
            }
            ctx.onserve
                .staged
                .borrow_mut()
                .insert((site.name().to_owned(), ctx.exe_name.clone()));
            // Step 5 — job description generation
            let output_file = format!(
                "{}-{}-{}.out",
                ctx.exe_name,
                ctx.invocation_no,
                ctx.attempts_left.get()
            );
            let jd = JobDescription::new(&ctx.exe_name)
                .args(ctx.rendered.iter().cloned())
                .cores(ctx.profile.cores)
                .walltime(ctx.profile.walltime_limit())
                .capture_stdout(&output_file);
            let exec = ctx.profile.sample(sim.rng());
            // Step 6 — job submission
            let ctx3 = Rc::clone(&ctx);
            let site2 = Rc::clone(&site);
            let prev = sim.set_span_parent(ctx.span);
            ctx.onserve.agent.clone().submit_job(
                sim,
                ctx.session,
                &site,
                &jd,
                exec,
                move |sim, submitted| {
                    let ctx = ctx3;
                    let handle = match submitted {
                        Ok(h) => h,
                        Err(e) => {
                            let transient = matches!(
                                e,
                                GridError::Unavailable(_) | GridError::StorageFull { .. }
                            );
                            let site_name = site2.name().to_owned();
                            return ctx.fail_or_retry(
                                sim,
                                InvokeError::Grid(e.to_string()),
                                Some(site_name),
                                transient,
                            );
                        }
                    };
                    // Step 7 — tentative output polling
                    let poller = OutputPoller {
                        interval: ctx.onserve.config.poll_interval,
                        timeout: ctx.onserve.config.poll_timeout,
                    };
                    let ctx4 = Rc::clone(&ctx);
                    let site_name = site2.name().to_owned();
                    let prev = sim.set_span_parent(ctx.span);
                    poller.start(
                        sim,
                        Rc::clone(&ctx.onserve.agent),
                        ctx.session,
                        site2,
                        handle,
                        move |sim, polled| {
                            let ctx = ctx4;
                            match polled {
                                Ok(stats) => {
                                    ctx.logout();
                                    if ctx.dog.disarm(sim) {
                                        if let Some(r) = ctx.slot.borrow_mut().take() {
                                            sim.span_attr(
                                                ctx.span,
                                                "output_bytes",
                                                stats.final_bytes as u64,
                                            );
                                            sim.span_attr(ctx.span, "polls", stats.polls);
                                            sim.span_end(ctx.span);
                                            r(
                                                sim,
                                                Ok(SoapValue::Binary {
                                                    bytes: stats.final_bytes,
                                                    digest: ctx.invocation_no,
                                                }),
                                            );
                                        }
                                    }
                                }
                                Err((e, _stats)) => {
                                    let (err, transient) = match e {
                                        PollError::JobFailed(o) => {
                                            let transient = matches!(
                                                o,
                                                gridsim::JobOutcome::NodeFailure
                                                    | gridsim::JobOutcome::Cancelled
                                            );
                                            (InvokeError::JobFailed(format!("{o:?}")), transient)
                                        }
                                        PollError::TimedOut { polls } => (
                                            InvokeError::Grid(format!(
                                                "output polling timed out after {polls} polls"
                                            )),
                                            false,
                                        ),
                                        PollError::Grid(g) => {
                                            (InvokeError::Grid(g.to_string()), false)
                                        }
                                    };
                                    ctx.fail_or_retry(sim, err, Some(site_name), transient);
                                }
                            }
                        },
                    );
                    sim.set_span_parent(prev);
                },
            );
            sim.set_span_parent(prev);
        };
        if already {
            after_stage(sim, Ok(()));
        } else {
            let ctx_stage = Rc::clone(&ctx);
            let prev = sim.set_span_parent(ctx.span);
            ctx.onserve.agent.clone().stage_file(
                sim,
                ctx.session,
                &site_for_stage,
                &ctx_stage.exe_name,
                ctx_stage.data_len,
                after_stage,
            );
            sim.set_span_parent(prev);
        }
    }
}
