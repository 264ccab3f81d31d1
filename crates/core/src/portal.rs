//! The Cyberaide portal: the upload front end.
//!
//! "By clicking the new button, the 'Upload file and generate Web Service'
//! dialog is displayed" (Figure 3); confirming it ships the file to the
//! portal server, where "a small JSP script creates a parameter list that
//! is then used to start the Java program that conducts further treatment"
//! (§VII-A). The portal models exactly the Figure 8 measurement: reception
//! over the 1000 Mbit/s LAN (the tall network-input peak), high CPU from
//! "the reception and storage of the file and also because of tomcat
//! handling the request and loading the java-classes", then the onServe
//! treatment (storage → service build → publishing).

use std::rc::Rc;

use blobstore::{Blob, ParamSpec};
use simkit::{Duplex, Sim};
use wsstack::container::parse_cpu_cost;

use crate::onserve::{OnServe, PublishedService, UploadError};
use crate::profile::ExecutionProfile;

/// HTTP multipart framing around the uploaded file.
pub const FORM_OVERHEAD_BYTES: f64 = 1536.0;

/// One filled-in upload dialog.
#[derive(Clone, Debug)]
pub struct UploadRequest {
    /// File chosen in the dialog.
    pub file_name: String,
    /// The executable payload. Cloning the request shares it: a fleet
    /// fan-out hands every replica the same [`Blob`].
    pub data: Blob,
    /// The optional description field.
    pub description: String,
    /// Declared parameters (name/type rows).
    pub params: Vec<ParamSpec>,
    /// Grid identity the generated service will run jobs as.
    pub grid_user: String,
    /// MyProxy passphrase for that identity.
    pub grid_passphrase: String,
    /// Behaviour of the executable when run (simulation substitute for the
    /// binary's semantics).
    pub profile: ExecutionProfile,
}

/// The portal server front end.
pub struct Portal {
    onserve: Rc<OnServe>,
    /// client browser ↔ portal path (the 1 Gbit/s LAN of §VIII-C).
    client_path: Rc<Duplex>,
}

impl Portal {
    /// Front the given middleware over `client_path`.
    pub fn new(onserve: Rc<OnServe>, client_path: Rc<Duplex>) -> Rc<Portal> {
        Rc::new(Portal {
            onserve,
            client_path,
        })
    }

    /// The middleware behind the portal.
    pub fn onserve(&self) -> &Rc<OnServe> {
        &self.onserve
    }

    /// The client ↔ portal path.
    pub fn client_path(&self) -> &Rc<Duplex> {
        &self.client_path
    }

    /// Handle one "Upload file and generate Web Service" submission:
    /// network reception, request handling CPU, then the full onServe
    /// treatment. `done` fires when the confirmation page (or error)
    /// returns to the browser.
    pub fn upload<F>(self: &Rc<Self>, sim: &mut Sim, request: UploadRequest, done: F)
    where
        F: FnOnce(&mut Sim, Result<PublishedService, UploadError>) + 'static,
    {
        let bytes = request.data.len() as f64 + FORM_OVERHEAD_BYTES;
        let span = sim.span_begin("portal.upload");
        sim.span_attr(span, "file", request.file_name.as_str());
        sim.span_attr(span, "bytes", request.data.len() as u64);
        let portal = Rc::clone(self);
        self.client_path.forward.transfer(sim, bytes, move |sim| {
            // "The CPU utilization is very high due to the reception and
            // storage of the file and also because of tomcat handling the
            // request and loading the java-classes" — 2× the plain parse
            // cost.
            let cpu = parse_cpu_cost(bytes) * 2.0;
            let portal2 = Rc::clone(&portal);
            let host = Rc::clone(portal.onserve.host());
            host.compute(sim, cpu, move |sim| {
                let portal3 = Rc::clone(&portal2);
                let prev = sim.set_span_parent(span);
                portal2.onserve.clone().upload_executable(
                    sim,
                    &request.file_name,
                    &request.description,
                    request.params.clone(),
                    request.data.clone(),
                    (&request.grid_user, &request.grid_passphrase),
                    request.profile,
                    move |sim, result| {
                        // confirmation page back to the browser
                        portal3
                            .client_path
                            .backward
                            .transfer(sim, 6.0 * 1024.0, move |sim| {
                                sim.span_close(span, &result);
                                done(sim, result);
                            });
                    },
                );
                sim.set_span_parent(prev);
            });
        });
    }
}
