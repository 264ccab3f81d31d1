//! One-call assembly of the full measured system.
//!
//! Examples, integration tests and every benchmark binary need the same
//! topology: a client machine on a fast LAN, the onServe appliance, the
//! MyProxy service, and an eleven-site production Grid behind ~85 KB/s WAN
//! paths — the paper's Figure 2 stack on the paper's §VIII testbed. A
//! [`Deployment`] builds it with one call and offers the two high-level
//! verbs the scenarios need: [`Portal::upload`] (via `deployment.portal`)
//! and [`Deployment::invoke`].

use std::cell::RefCell;
use std::rc::Rc;

use blobstore::{Blob, BlobDb, ParamSpec, TimedDb};
use bytes::Bytes;
use cyberaide::agent::AgentConfig;
use cyberaide::CyberaideAgent;
use gridsim::{MyProxyServer, ProductionGrid};
use simkit::{Duplex, Duration, Host, HostSpec, Sim, SimTime, GBIT_PER_S, KB};
use wsstack::{HttpChannel, SoapContainer, SoapFault, SoapValue};

use crate::onserve::{OnServe, OnServeConfig};
use crate::portal::{Portal, UploadRequest};
use crate::profile::ExecutionProfile;

/// Topology + middleware parameters.
#[derive(Clone, Debug)]
pub struct DeploymentSpec {
    /// Appliance host name / metric prefix. Give each deployment a unique
    /// name (and unique `lan_name`/`myproxy_*`) to run several appliances
    /// in one simulation.
    pub appliance_name: String,
    /// Client host name / metric prefix.
    pub client_name: String,
    /// Name of the client↔appliance LAN path (metric prefix `<name>.fwd`/
    /// `<name>.rev`).
    pub lan_name: String,
    /// Name of the MyProxy server host.
    pub myproxy_name: String,
    /// Name of the appliance↔MyProxy path.
    pub myproxy_path_name: String,
    /// Middleware configuration (write strategy, poll interval, ...).
    pub config: OnServeConfig,
    /// Agent configuration (proxy lifetime, status-interface ablation).
    pub agent: AgentConfig,
    /// Client ↔ appliance LAN bandwidth (bytes/s); the paper's portal test
    /// ran on 1000 Mbit/s.
    pub lan_bandwidth: f64,
    /// Client ↔ appliance LAN latency.
    pub lan_latency: Duration,
    /// Grid identity used by uploads.
    pub grid_user: String,
    /// MyProxy passphrase for that identity.
    pub grid_passphrase: String,
    /// Override every site's WAN bandwidth (bytes/s); `None` keeps the
    /// paper's ~85 KB/s.
    pub wan_bandwidth_override: Option<f64>,
}

impl Default for DeploymentSpec {
    fn default() -> Self {
        DeploymentSpec {
            appliance_name: "appliance".into(),
            client_name: "client".into(),
            lan_name: "lan".into(),
            myproxy_name: "myproxy".into(),
            myproxy_path_name: "mp".into(),
            config: OnServeConfig::default(),
            agent: AgentConfig::default(),
            lan_bandwidth: GBIT_PER_S,
            lan_latency: Duration::from_millis(1),
            grid_user: "alice".into(),
            grid_passphrase: "s3cret".into(),
            wan_bandwidth_override: None,
        }
    }
}

/// The assembled system.
pub struct Deployment {
    /// The appliance host ("appliance" metric prefix — the machine the
    /// paper's figures monitor).
    pub appliance: Rc<Host>,
    /// The client machine ("client" metric prefix).
    pub client: Rc<Host>,
    /// The production Grid.
    pub grid: Rc<ProductionGrid>,
    /// The toolkit agent.
    pub agent: Rc<CyberaideAgent>,
    /// The middleware.
    pub onserve: Rc<OnServe>,
    /// The portal front end.
    pub portal: Rc<Portal>,
    /// SOAP channel client → appliance container.
    pub channel: Rc<HttpChannel>,
    /// The MyProxy credential repository (for enrolling further tenants).
    pub myproxy: Rc<RefCell<MyProxyServer>>,
    /// The deployment's parameters.
    pub spec: DeploymentSpec,
}

/// Deterministic compressible payload for synthetic executables: a
/// repeating structured pattern salted by `seed`.
pub fn synth_payload(len: usize, seed: u64) -> Bytes {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // `x >> 40` is a 24-bit value, so its `{:08x}` rendering always starts
    // with the template's two zeros; only the six digits after them change.
    let mut segment = *b"SEG00000000:PAYLOAD-DATA-BLOCK;";
    // the last segment may overrun `len` before the truncate
    let mut data = Vec::with_capacity(len + segment.len());
    let mut x = seed | 1;
    while data.len() < len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = x >> 40;
        for (i, digit) in segment[5..11].iter_mut().enumerate() {
            *digit = HEX[(v >> (20 - 4 * i)) as usize & 0xf];
        }
        data.extend_from_slice(&segment);
    }
    data.truncate(len);
    Bytes::from(data)
}

/// The synthetic executable of `len` bytes a client uploads: what
/// [`Deployment::upload_request`], the fleet's workload generators and its
/// catalogue replay all ship. One call is one upload — callers fanning a
/// file out to several replicas clone the result.
pub fn synth_executable(len: usize) -> Blob {
    synth_payload(len, 0x5eed ^ len as u64).into()
}

impl Deployment {
    /// Build the full system at `sim.now()`; the appliance is taken as
    /// already running (for on-demand cold starts, see
    /// [`Deployment::build_on_demand`]).
    pub fn build(sim: &mut Sim, spec: &DeploymentSpec) -> Deployment {
        let appliance = Host::new(&HostSpec::commodity(&spec.appliance_name));
        Self::build_with_host(sim, spec, appliance)
    }

    /// Build the system around an *existing* appliance host — e.g. the VM
    /// a [`vappliance::Appliance`] just booted.
    pub fn build_with_host(
        sim: &mut Sim,
        spec: &DeploymentSpec,
        appliance: Rc<Host>,
    ) -> Deployment {
        let db = TimedDb::new(
            Rc::new(RefCell::new(BlobDb::new())),
            Rc::clone(&appliance),
            spec.config.write_strategy,
        );
        Self::build_with_host_and_db(sim, spec, appliance, db)
    }

    /// Build the system around an existing appliance host *and* an
    /// externally-owned executable database. A fleet uses this to choose
    /// the storage topology: a [`TimedDb`] bound to the appliance host is
    /// replica-local storage, while one bound to a separate shared storage
    /// host routes every replica's database I/O through the same disk (the
    /// NAS/SAN topology §VIII-D warns about).
    pub fn build_with_host_and_db(
        sim: &mut Sim,
        spec: &DeploymentSpec,
        appliance: Rc<Host>,
        db: Rc<TimedDb>,
    ) -> Deployment {
        let client = Host::new(&HostSpec::commodity(&spec.client_name));

        // the Grid + the uploader's enrolment + MyProxy
        let grid = ProductionGrid::teragrid(&spec.appliance_name);
        if let Some(bw) = spec.wan_bandwidth_override {
            for site in grid.sites() {
                site.uplink().set_bandwidth(sim, bw);
                site.downlink().set_bandwidth(sim, bw);
            }
        }
        let grid = Rc::new(grid);
        let cred = grid.enroll_user(
            &format!("/O=SimTeraGrid/CN={}", spec.grid_user),
            &spec.grid_user,
            sim.now(),
            Duration::from_secs(365 * 86400),
        );
        let myproxy: Rc<RefCell<MyProxyServer>> = Rc::new(RefCell::new(MyProxyServer::new()));
        myproxy.borrow_mut().store(
            &spec.grid_user,
            &spec.grid_passphrase,
            cred.delegate(sim.now(), Duration::from_secs(30 * 86400)),
        );
        let myproxy_host = Host::new(&HostSpec::commodity(&spec.myproxy_name));
        let myproxy_path = Rc::new(Duplex::new(
            &spec.myproxy_path_name,
            &spec.appliance_name,
            &spec.myproxy_name,
            200.0 * KB,
            Duration::from_millis(30),
        ));

        let myproxy_for_deployment = Rc::clone(&myproxy);
        let agent = CyberaideAgent::new(
            Rc::clone(&grid),
            myproxy,
            myproxy_host,
            myproxy_path,
            Rc::clone(&appliance),
            spec.agent.clone(),
        );

        let container = SoapContainer::new(Rc::clone(&appliance));
        let registry = Rc::new(RefCell::new(wsstack::UddiRegistry::new()));
        let onserve = OnServe::new(
            Rc::clone(&appliance),
            Rc::clone(&container),
            registry,
            db,
            Rc::clone(&agent),
            spec.config.clone(),
        );

        let lan = Rc::new(Duplex::new(
            &spec.lan_name,
            &spec.client_name,
            &spec.appliance_name,
            spec.lan_bandwidth,
            spec.lan_latency,
        ));
        let portal = Portal::new(Rc::clone(&onserve), Rc::clone(&lan));
        let channel = HttpChannel::new(lan, container);

        Deployment {
            appliance,
            client,
            grid,
            agent,
            onserve,
            portal,
            channel,
            myproxy: myproxy_for_deployment,
            spec: spec.clone(),
        }
    }

    /// Enrol an additional tenant: Grid identity (optionally with a
    /// service-unit allocation at every site) plus a MyProxy credential
    /// under `passphrase`, ready for [`UploadRequest::grid_user`].
    pub fn enroll_tenant(
        &self,
        sim: &Sim,
        user: &str,
        passphrase: &str,
        allocation_core_hours: Option<f64>,
    ) {
        let dn = format!("/O=SimTeraGrid/CN={user}");
        let lifetime = Duration::from_secs(365 * 86400);
        let cred = match allocation_core_hours {
            None => self.grid.enroll_user(&dn, user, sim.now(), lifetime),
            Some(su) => self
                .grid
                .enroll_user_with_allocation(&dn, user, sim.now(), lifetime, su),
        };
        self.myproxy.borrow_mut().store(
            user,
            passphrase,
            cred.delegate(sim.now(), Duration::from_secs(30 * 86400)),
        );
    }

    /// The §V step-1 path: deploy the appliance VM *on demand* from an
    /// image, then assemble the middleware on it once it boots. `done`
    /// receives the ready deployment; the cold-start cost (image copy +
    /// boot + service start) is visible as the delay before `done` fires.
    pub fn build_on_demand<F>(
        sim: &mut Sim,
        spec: DeploymentSpec,
        image: &vappliance::ApplianceImage,
        image_link: &Rc<simkit::Link>,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Deployment) + 'static,
    {
        let deploy_spec = vappliance::DeploySpec::default_for(&spec.appliance_name);
        vappliance::Appliance::deploy(sim, image, image_link, &deploy_spec, move |sim, app| {
            let d = Deployment::build_with_host(sim, &spec, Rc::clone(app.host()));
            done(sim, d);
        });
    }

    /// Build an [`UploadRequest`] with a synthetic payload of `len` bytes.
    pub fn upload_request(
        &self,
        file_name: &str,
        len: usize,
        profile: ExecutionProfile,
        params: &[(&str, &str)],
    ) -> UploadRequest {
        self.upload_request_of(file_name, synth_executable(len), profile, params)
    }

    /// [`Deployment::upload_request`] around a payload the caller already
    /// holds.
    pub fn upload_request_of(
        &self,
        file_name: &str,
        data: Blob,
        profile: ExecutionProfile,
        params: &[(&str, &str)],
    ) -> UploadRequest {
        UploadRequest {
            file_name: file_name.to_owned(),
            data,
            description: format!("synthetic executable {file_name}"),
            params: params
                .iter()
                .map(|&(n, t)| ParamSpec::new(n, t))
                .collect(),
            grid_user: self.spec.grid_user.clone(),
            grid_passphrase: self.spec.grid_passphrase.clone(),
            profile,
        }
    }

    /// Invoke a published service the way a real consumer would: look the
    /// WSDL up, build the `wsimport` stub, call `execute` over the SOAP
    /// channel.
    pub fn invoke<F>(
        &self,
        sim: &mut Sim,
        service_name: &str,
        args: &[(&str, SoapValue)],
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<SoapValue, SoapFault>) + 'static,
    {
        let stub = match self.onserve.client_for(service_name) {
            Ok(s) => s,
            Err(e) => {
                let fault: SoapFault = e.into();
                sim.schedule(Duration::ZERO, move |sim| done(sim, Err(fault)));
                return;
            }
        };
        stub.call(sim, &self.channel, "execute", args, done);
    }

    /// Convenience for tests/benches: run the simulation until `deadline`
    /// and return how many invocations completed vs failed.
    pub fn run_until(&self, sim: &mut Sim, deadline: SimTime) -> (u64, u64) {
        sim.run_until(deadline);
        self.onserve.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stored size of every synthetic executable is simulated disk
    /// time in every golden CSV and `.prom` file. These are the lengths of
    /// the streams the codec produced when the goldens were recorded; a
    /// codec or `synth_payload` edit that moves them moves the goldens.
    #[test]
    fn synthetic_executables_keep_their_stored_length() {
        for (len, stored) in [(1024, 335), (65_536, 16_709), (5 * 1024 * 1024, 1_293_199)] {
            let data = synth_payload(len, 0x5eed ^ len as u64);
            assert_eq!(blobstore::compress(&data).len(), stored, "{len} bytes");
        }
    }
}
