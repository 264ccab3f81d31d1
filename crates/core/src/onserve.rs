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

use blobstore::{Blob, DbError, ParamSpec, StoreTiming, TimedDb, WriteStrategy};
use cyberaide::{CyberaideAgent, OutputPoller, PollError, PollStats, SessionId};
use gridsim::gram::ExecutionModel;
use gridsim::{
    BrokerPolicy, GridError, GridSite, JobDescription, JobHandle, JobOutcome, SecurityError,
};
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

/// A published service as the middleware knows it. Shared as one
/// immutable snapshot: an update swaps in a new one, invocations already
/// running keep the one they were admitted with.
#[derive(Clone)]
struct ServiceMeta {
    exe_name: String,
    params: Vec<ParamSpec>,
    owner_user: String,
    owner_pass: String,
    profile: ExecutionProfile,
    service_key: String,
}

/// The middleware.
pub struct OnServe {
    host: Rc<Host>,
    container: Rc<RefCell<SoapContainer>>,
    registry: Rc<RefCell<UddiRegistry>>,
    db: Rc<TimedDb>,
    agent: Rc<CyberaideAgent>,
    config: OnServeConfig,
    services: RefCell<BTreeMap<String, Rc<ServiceMeta>>>,
    staged: RefCell<BTreeSet<(String, String)>>,
    grid_sessions: RefCell<BTreeMap<String, SessionId>>,
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

/// Run `f` with `span` as the ambient parent, so the spans the callee opens
/// nest under it.
fn under_span(sim: &mut Sim, span: SpanId, f: impl FnOnce(&mut Sim)) {
    let prev = sim.set_span_parent(span);
    f(sim);
    sim.set_span_parent(prev);
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
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
        data: impl Into<Blob>,
        owner: (&str, &str),
        profile: ExecutionProfile,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<PublishedService, UploadError>) + 'static,
    {
        let this = Rc::clone(self);
        let description2 = description.to_owned();
        let meta = ServiceMeta {
            exe_name: file_name.to_owned(),
            params: params.clone(),
            owner_user: owner.0.to_owned(),
            owner_pass: owner.1.to_owned(),
            profile,
            service_key: String::new(),
        };
        let publish = move |sim: &mut Sim, span: SpanId, service_name: String| {
            this.publish(sim, span, service_name, &description2, meta)
        };
        self.provision(
            sim,
            file_name,
            description,
            params,
            data.into(),
            false,
            publish,
            done,
        );
    }

    /// Replace a published service's executable (and optionally its
    /// declared parameters, description and execution profile) in place:
    /// same service name, same UDDI key, same endpoint. The old build keeps
    /// serving until the new one is deployed — and for good if the update
    /// fails. Cached stagings of the old binary are invalidated so the next
    /// invocation ships the new one even under `reuse_staged_files`.
    #[allow(clippy::too_many_arguments)]
    pub fn update_executable<F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        service_name: &str,
        data: impl Into<Blob>,
        new_params: Option<Vec<ParamSpec>>,
        new_description: Option<String>,
        new_profile: Option<ExecutionProfile>,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<(), UploadError>) + 'static,
    {
        let Some(old) = self.services.borrow().get(service_name).cloned() else {
            let unknown = UploadError::NoSuchService(service_name.to_owned());
            return done(sim, Err(unknown));
        };
        let exe_name = old.exe_name.clone();
        let description = new_description.unwrap_or_else(|| {
            let db = self.db.db().borrow();
            db.record(&exe_name)
                .map(|r| r.description.clone())
                .unwrap_or_default()
        });
        let new = ServiceMeta {
            params: new_params.unwrap_or_else(|| old.params.clone()),
            profile: new_profile.unwrap_or(old.profile),
            ..ServiceMeta::clone(&old)
        };
        let params = new.params.clone();
        let this = Rc::clone(self);
        let description2 = description.clone();
        let swap = move |_: &mut Sim, _: SpanId, service_name: String| {
            let _ = this
                .registry
                .borrow_mut()
                .update_description(&new.service_key, &description2);
            this.forget_stagings(&new.exe_name);
            let mut services = this.services.borrow_mut();
            services.insert(service_name, Rc::new(new));
            Ok(())
        };
        let data = data.into();
        self.provision(sim, &exe_name, &description, params, data, true, swap, done);
    }

    /// The provisioning pipeline of §VII-A, shared by upload and update:
    /// store the executable, generate the Web service from the stored
    /// record, build it, deploy it. `replacing` says whether the store may
    /// displace a row of the same name; `epilogue` is what the caller does
    /// with the deployed service (publish it, or swap it in for the old
    /// build) and yields what `done` receives.
    #[allow(clippy::too_many_arguments)]
    fn provision<T, E, F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        file_name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        data: Blob,
        replacing: bool,
        epilogue: E,
        done: F,
    ) where
        E: FnOnce(&mut Sim, SpanId, String) -> Result<T, UploadError> + 'static,
        F: FnOnce(&mut Sim, Result<T, UploadError>) + 'static,
    {
        let span = sim.span_begin("onserve.upload");
        sim.span_attr(span, "file", file_name);
        // single close point: every exit path funnels through `done`
        let done = move |sim: &mut Sim, deployed: Result<String, UploadError>| {
            let res = deployed.and_then(|service_name| epilogue(sim, span, service_name));
            sim.span_close(span, &res);
            done(sim, res)
        };
        let this = Rc::clone(self);
        let stored = move |sim: &mut Sim, res: Result<u64, DbError>, _: StoreTiming| {
            let generated = res.map_err(UploadError::Db).and_then(|id| {
                let db = this.db.db().borrow();
                let record = db.record_by_id(id).expect("just inserted");
                generator::generate_versioned(record, this.host.name(), this.artifact_version())
                    .map_err(UploadError::Generation)
            });
            match generated {
                Ok(generated) => this.build_and_deploy(sim, span, generated, done),
                Err(e) => done(sim, Err(e)),
            }
        };
        under_span(sim, span, |sim| {
            if replacing {
                self.db
                    .replace(sim, file_name, description, params, data, stored);
            } else {
                self.db
                    .store(sim, file_name, description, params, data, stored);
            }
        });
    }

    /// The ant build, then hot deployment into the SOAP container; `done`
    /// receives the deployed service's name.
    fn build_and_deploy<F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        span: SpanId,
        generated: generator::GeneratedService,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<String, UploadError>) + 'static,
    {
        // the ant build burns appliance CPU before deployment
        let build_span = sim.span_child("generator.build", span);
        sim.span_attr(build_span, "cpu_secs", generated.build_cpu_secs);
        let build_cpu_secs = generated.build_cpu_secs;
        let this = Rc::clone(self);
        let built = move |sim: &mut Sim| {
            sim.span_end(build_span);
            let service_name = generated.service_name;
            let archive = ServiceArchive {
                name: service_name.clone(),
                wsdl: generated.wsdl,
                archive_bytes: generated.archive_bytes,
                handler: Self::make_handler(&this, &service_name),
            };
            let deployed = move |sim: &mut Sim, res: Result<(), SoapFault>| {
                let res = res
                    .map(|()| service_name)
                    .map_err(|f| UploadError::Generation(format!("deploy failed: {f}")));
                done(sim, res)
            };
            under_span(sim, span, |sim| {
                SoapContainer::deploy(&this.container, sim, archive, deployed)
            });
        };
        self.host.compute(sim, build_cpu_secs, built);
    }

    /// Scenario A's epilogue: publish the deployed service in UDDI and
    /// start answering for it. A rejected publication takes the fresh
    /// deployment down again.
    fn publish(
        &self,
        sim: &mut Sim,
        span: SpanId,
        service_name: String,
        description: &str,
        mut meta: ServiceMeta,
    ) -> Result<PublishedService, UploadError> {
        let (endpoint, wsdl_text) = {
            let container = self.container.borrow();
            let wsdl = container.wsdl_for(&service_name).expect("just deployed");
            (wsdl.endpoint.clone(), wsdl.to_text())
        };
        let pub_span = sim.span_child("uddi.publish", span);
        let published = self.registry.borrow_mut().publish(
            "Cyberaide onServe",
            &service_name,
            description,
            BindingTemplate {
                access_point: endpoint.clone(),
                wsdl_location: format!("{endpoint}?wsdl"),
            },
        );
        match published {
            Err(e) => {
                sim.span_fail(pub_span, &e.to_string());
                self.container.borrow_mut().undeploy(&service_name);
                Err(UploadError::Registry(e.to_string()))
            }
            Ok(service_key) => {
                sim.span_attr(pub_span, "service_key", service_key.as_str());
                sim.span_end(pub_span);
                meta.service_key = service_key.clone();
                self.services
                    .borrow_mut()
                    .insert(service_name.clone(), Rc::new(meta));
                Ok(PublishedService {
                    service_key,
                    service_name,
                    endpoint,
                    wsdl_text,
                })
            }
        }
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
        self.forget_stagings(&meta.exe_name);
        true
    }

    /// Forget every site `exe_name` was staged to: the binary under that
    /// name was replaced or removed, so a cached copy is stale.
    fn forget_stagings(&self, exe_name: &str) {
        self.staged.borrow_mut().retain(|(_, exe)| exe != exe_name);
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
    fn make_handler(
        this: &Rc<Self>,
        service_name: &str,
    ) -> Rc<dyn wsstack::container::ServiceHandler> {
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

    /// Scenario B: the full SaaS→JSE translation for one invocation. The
    /// request is admitted (known service, valid arguments) before the
    /// watchdog is armed; from there the steps of [`Invocation`] run in
    /// paper order, and every way out is [`Reply::finish`].
    pub fn execute_service(
        self: &Rc<Self>,
        sim: &mut Sim,
        service_name: &str,
        args: &BTreeMap<String, SoapValue>,
        respond: Responder,
    ) {
        let reply = Reply::open(self, sim, service_name, respond);
        let (meta, rendered) = match self.admit(service_name, args) {
            Ok(admitted) => admitted,
            Err(e) => return reply.finish(sim, Err(e)),
        };
        let on_timeout = {
            let reply = Rc::clone(&reply);
            move |sim: &mut Sim| reply.finish(sim, Err(InvokeError::WatchdogTimeout))
        };
        let invocation = Rc::new(Invocation {
            watchdog: Watchdog::arm(sim, self.config.invocation_timeout, on_timeout),
            reply,
            meta,
            rendered,
            session: Cell::new(None),
            data_len: Cell::new(0.0),
            attempts_left: Cell::new(self.config.job_retries),
            excluded_sites: RefCell::new(Vec::new()),
        });
        invocation.retrieve(sim);
    }

    /// Admission: the service as published right now, and the arguments
    /// validated against its declared parameters and rendered for the
    /// command line.
    fn admit(
        &self,
        service_name: &str,
        args: &BTreeMap<String, SoapValue>,
    ) -> Result<(Rc<ServiceMeta>, Vec<String>), InvokeError> {
        let services = self.services.borrow();
        let meta = services
            .get(service_name)
            .ok_or_else(|| InvokeError::NoSuchService(service_name.to_owned()))?;
        let rendered = validate_args(&meta.params, args).map_err(InvokeError::BadArguments)?;
        Ok((Rc::clone(meta), rendered))
    }

    /// The cached Grid session of `owner`, when the ablation is on and the
    /// proxy will outlive the job by a safety margin. A stale one is
    /// evicted *and* logged out, or the agent's session map grows by one
    /// dead proxy per expiry.
    fn cached_session(&self, sim: &mut Sim, owner: &str) -> Option<SessionId> {
        if !self.config.cache_grid_sessions {
            return None;
        }
        let session = self.grid_sessions.borrow().get(owner).copied()?;
        let fresh = self
            .agent
            .session_expires(session)
            .is_some_and(|exp| exp > sim.now() + Duration::from_secs(600));
        if fresh {
            bump(&self.session_hits);
            sim.counter_add("onserve.session_cache_hit", 1);
            return Some(session);
        }
        self.grid_sessions.borrow_mut().remove(owner);
        self.agent.logout(session);
        bump(&self.session_evictions);
        sim.counter_add("onserve.session_evicted", 1);
        None
    }
}

/// The close point of one invocation: who to answer and the span to close.
/// The pipeline and the watchdog race to [`Reply::finish`]; whichever gets
/// there first answers, the other finds the responder gone.
struct Reply {
    onserve: Rc<OnServe>,
    /// Serial number of the invocation on this appliance; returned as the
    /// answer's digest.
    number: u64,
    span: SpanId,
    responder: Cell<Option<Responder>>,
}

impl Reply {
    /// Count the invocation and open its root span.
    fn open(
        onserve: &Rc<OnServe>,
        sim: &mut Sim,
        service_name: &str,
        respond: Responder,
    ) -> Rc<Reply> {
        bump(&onserve.invocations);
        let number = onserve.invocations.get();
        let span = sim.span_begin("onserve.invoke");
        sim.span_attr(span, "service", service_name);
        sim.span_attr(span, "invocation", number);
        sim.counter_add("onserve.invocations", 1);
        Rc::new(Reply {
            onserve: Rc::clone(onserve),
            number,
            span,
            responder: Cell::new(Some(respond)),
        })
    }

    /// Every accepted request terminates here, exactly once: count a
    /// failure, close the span, answer the consumer.
    fn finish(&self, sim: &mut Sim, result: Result<PollStats, InvokeError>) {
        let Some(respond) = self.responder.take() else {
            return;
        };
        let span = self.span;
        let answer = match result {
            Ok(stats) => {
                sim.span_attr(span, "output_bytes", stats.final_bytes as u64);
                sim.span_attr(span, "polls", stats.polls);
                sim.span_end(span);
                Ok(SoapValue::Binary {
                    bytes: stats.final_bytes,
                    digest: self.number,
                })
            }
            Err(e) => {
                bump(&self.onserve.invocation_failures);
                sim.counter_add("onserve.failures", 1);
                if e == InvokeError::WatchdogTimeout {
                    let limit = self.onserve.config.invocation_timeout;
                    sim.span_attr(span, "timeout_secs", limit.as_secs_f64());
                    sim.span_fail(span, "watchdog_timeout");
                } else {
                    sim.span_fail(span, &e.to_string());
                }
                Err(e.into())
            }
        };
        respond(sim, answer);
    }
}

/// One admitted invocation: the §VII-B pipeline as steps in paper order,
/// each handing on to the next from its completion callback. The grid-side
/// part (site selection onward) is re-enterable for the retry extension.
struct Invocation {
    reply: Rc<Reply>,
    watchdog: Watchdog,
    /// The service as published when the request was admitted.
    meta: Rc<ServiceMeta>,
    /// The validated arguments, rendered for the command line.
    rendered: Vec<String>,
    /// The Grid session, from authentication until the pipeline exits.
    session: Cell<Option<SessionId>>,
    data_len: Cell<f64>,
    attempts_left: Cell<u32>,
    excluded_sites: RefCell<Vec<String>>,
}

impl Invocation {
    fn onserve(&self) -> &OnServe {
        &self.reply.onserve
    }

    fn session(&self) -> SessionId {
        self.session.get().expect("grid steps run in a session")
    }

    /// Step 1 — file retrieval from the database (temp write included).
    fn retrieve(self: &Rc<Self>, sim: &mut Sim) {
        let inv = Rc::clone(self);
        under_span(sim, self.reply.span, |sim| {
            let db = &self.onserve().db;
            db.load_for_use(sim, &self.meta.exe_name, move |sim, res, _| match res {
                Ok(len) => {
                    inv.data_len.set(len as f64);
                    inv.with_session(sim)
                }
                Err(e) => inv.exit(sim, Err(InvokeError::Db(e))),
            });
        });
    }

    /// Step 2 — a Grid session: a cached one when the ablation is on and
    /// the proxy is still fresh, else a new authentication.
    fn with_session(self: &Rc<Self>, sim: &mut Sim) {
        match self.onserve().cached_session(sim, &self.meta.owner_user) {
            Some(session) => {
                self.session.set(Some(session));
                self.select_site(sim)
            }
            None => self.authenticate(sim),
        }
    }

    /// Step 2 — authentication via the agent (the MyProxy exchange).
    fn authenticate(self: &Rc<Self>, sim: &mut Sim) {
        let onserve = self.onserve();
        bump(&onserve.auths);
        let inv = Rc::clone(self);
        let authenticated = move |sim: &mut Sim, auth: Result<SessionId, SecurityError>| {
            let session = match auth {
                Ok(session) => session,
                Err(e) => return inv.exit(sim, Err(InvokeError::Grid(e.to_string()))),
            };
            let onserve = inv.onserve();
            if onserve.config.cache_grid_sessions {
                let owner = inv.meta.owner_user.clone();
                onserve.grid_sessions.borrow_mut().insert(owner, session);
            }
            inv.session.set(Some(session));
            inv.select_site(sim)
        };
        let (user, pass) = (&self.meta.owner_user, &self.meta.owner_pass);
        under_span(sim, self.reply.span, |sim| {
            onserve.agent.authenticate(sim, user, pass, authenticated)
        });
    }

    /// Step 3 — resource selection (minus sites that already failed). A
    /// retry re-enters here, in the same session.
    fn select_site(self: &Rc<Self>, sim: &mut Sim) {
        let onserve = self.onserve();
        let site = onserve.agent.grid().select_excluding(
            &onserve.config.broker,
            self.meta.profile.cores,
            sim.now(),
            &self.excluded_sites.borrow(),
        );
        match site {
            Ok(site) => self.stage(sim, site),
            Err(e) => self.exit(sim, Err(InvokeError::Grid(e.to_string()))),
        }
    }

    /// Step 4 — upload (staging), unless cached and reuse is on.
    fn stage(self: &Rc<Self>, sim: &mut Sim, site: Rc<GridSite>) {
        let onserve = self.onserve();
        let exe = &self.meta.exe_name;
        let key = (site.name().to_owned(), exe.clone());
        let already = onserve.config.reuse_staged_files
            && onserve.staged.borrow().contains(&key)
            && site.storage().borrow().has(exe);
        if already {
            return self.describe(sim, site);
        }
        let inv = Rc::clone(self);
        let site2 = Rc::clone(&site);
        let staged = move |sim: &mut Sim, staged: Result<(), GridError>| match staged {
            Ok(()) => {
                inv.onserve().staged.borrow_mut().insert(key);
                inv.describe(sim, site2)
            }
            Err(e) => inv.fail(sim, InvokeError::Grid(e.to_string()), site2.name(), true),
        };
        under_span(sim, self.reply.span, |sim| {
            let (agent, bytes) = (&onserve.agent, self.data_len.get());
            agent.stage_file(sim, self.session(), &site, exe, bytes, staged);
        });
    }

    /// Step 5 — job description generation. The run time the executable
    /// will take is drawn here: after staging, before submission.
    fn describe(self: &Rc<Self>, sim: &mut Sim, site: Rc<GridSite>) {
        let (exe, profile) = (&self.meta.exe_name, &self.meta.profile);
        let output_file = format!(
            "{exe}-{}-{}.out",
            self.reply.number,
            self.attempts_left.get()
        );
        let jd = JobDescription::new(exe)
            .args(self.rendered.iter().cloned())
            .cores(profile.cores)
            .walltime(profile.walltime_limit())
            .capture_stdout(&output_file);
        let exec = profile.sample(sim.rng());
        self.submit(sim, site, &jd, exec);
    }

    /// Step 6 — job submission.
    fn submit(
        self: &Rc<Self>,
        sim: &mut Sim,
        site: Rc<GridSite>,
        jd: &JobDescription,
        exec: ExecutionModel,
    ) {
        let inv = Rc::clone(self);
        let site2 = Rc::clone(&site);
        let submitted = move |sim: &mut Sim, submitted: Result<JobHandle, GridError>| {
            let e = match submitted {
                Ok(handle) => return inv.poll(sim, site2, handle),
                Err(e) => e,
            };
            let transient = matches!(e, GridError::Unavailable(_) | GridError::StorageFull { .. });
            let err = InvokeError::Grid(e.to_string());
            inv.fail(sim, err, site2.name(), transient)
        };
        under_span(sim, self.reply.span, |sim| {
            let agent = &self.onserve().agent;
            agent.submit_job(sim, self.session(), &site, jd, exec, submitted);
        });
    }

    /// Step 7 — tentative output polling; the output is the answer.
    fn poll(self: &Rc<Self>, sim: &mut Sim, site: Rc<GridSite>, handle: JobHandle) {
        let onserve = self.onserve();
        let poller = OutputPoller {
            interval: onserve.config.poll_interval,
            timeout: onserve.config.poll_timeout,
        };
        let inv = Rc::clone(self);
        let site_name = site.name().to_owned();
        let polled = move |sim: &mut Sim, polled: Result<PollStats, (PollError, PollStats)>| {
            let (err, transient) = match polled {
                Ok(stats) => return inv.exit(sim, Ok(stats)),
                Err((PollError::JobFailed(o), _)) => (
                    InvokeError::JobFailed(format!("{o:?}")),
                    matches!(o, JobOutcome::NodeFailure | JobOutcome::Cancelled),
                ),
                Err((PollError::TimedOut { polls }, _)) => (
                    InvokeError::Grid(format!("output polling timed out after {polls} polls")),
                    false,
                ),
                Err((PollError::Grid(g), _)) => (InvokeError::Grid(g.to_string()), false),
            };
            inv.fail(sim, err, &site_name, transient)
        };
        under_span(sim, self.reply.span, |sim| {
            let agent = Rc::clone(&onserve.agent);
            poller.start(sim, agent, self.session(), site, handle, polled);
        });
    }

    /// A grid-side step failed at `site`: retry elsewhere (when transient,
    /// budget left, and the watchdog hasn't already answered) or surface it.
    fn fail(self: &Rc<Self>, sim: &mut Sim, err: InvokeError, site: &str, transient: bool) {
        if transient && self.attempts_left.get() > 0 && !self.watchdog.timed_out() {
            self.attempts_left.set(self.attempts_left.get() - 1);
            self.excluded_sites.borrow_mut().push(site.to_owned());
            return self.select_site(sim);
        }
        self.exit(sim, Err(err))
    }

    /// Every way out of the pipeline: drop the Grid session if sessions are
    /// per-invocation (the paper's behaviour; cached ones stay alive for
    /// the next invocation), call off the watchdog, and finish — a no-op
    /// when the watchdog has already answered.
    fn exit(&self, sim: &mut Sim, result: Result<PollStats, InvokeError>) {
        if let Some(session) = self.session.take() {
            if !self.onserve().config.cache_grid_sessions {
                self.onserve().agent.logout(session);
            }
        }
        self.watchdog.disarm(sim);
        self.reply.finish(sim, result);
    }
}
