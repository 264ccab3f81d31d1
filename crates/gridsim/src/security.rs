//! Simulated Grid security: certificates, proxies, MyProxy.
//!
//! Production Grids are "accessed with strict secure interface, for example,
//! with x.509 Certificates and Proxies" (§II-B). The middleware must obtain
//! a proxy credential (the paper's agent performs "Authentication ...
//! before any use of the Grid is possible", §VII-B) and every gatekeeper
//! validates it. What matters to the middleware is the *protocol logic* —
//! trust roots, expiry, delegation depth, revocation, passphrase checks —
//! not RSA arithmetic, so signatures are simulated with keyed FNV-1a
//! fingerprints. The failure modes are all real and all reachable, which is
//! what the failure-injection tests exercise.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use simkit::{Duration, SimTime};

/// Security failures shared by certificates, proxies and MyProxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecurityError {
    /// A certificate in the chain is past `not_after`.
    Expired,
    /// A certificate in the chain is before `not_before`.
    NotYetValid,
    /// The end-entity certificate was not issued by a trusted CA.
    UntrustedIssuer,
    /// A fingerprint does not verify against the issuer.
    BadSignature,
    /// The end-entity certificate has been revoked.
    Revoked,
    /// Proxy delegation chain longer than the validator allows.
    DepthExceeded,
    /// Chain is malformed (issuer/subject mismatch, empty, ...).
    BrokenChain,
    /// MyProxy: no credential stored under that user name.
    UnknownUser,
    /// MyProxy: wrong passphrase.
    BadPassphrase,
    /// MyProxy: the stored credential can no longer delegate (expired).
    StoredCredentialExpired,
}

impl fmt::Display for SecurityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SecurityError::Expired => "credential expired",
            SecurityError::NotYetValid => "credential not yet valid",
            SecurityError::UntrustedIssuer => "untrusted issuer",
            SecurityError::BadSignature => "bad signature",
            SecurityError::Revoked => "certificate revoked",
            SecurityError::DepthExceeded => "proxy delegation too deep",
            SecurityError::BrokenChain => "malformed certificate chain",
            SecurityError::UnknownUser => "unknown MyProxy user",
            SecurityError::BadPassphrase => "bad MyProxy passphrase",
            SecurityError::StoredCredentialExpired => "stored credential expired",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SecurityError {}

fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // separator so ("ab","c") != ("a","bc")
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One simulated x.509 certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimCert {
    /// Distinguished name of the holder.
    pub subject: String,
    /// Distinguished name of the signer.
    pub issuer: String,
    /// Issuer-unique serial.
    pub serial: u64,
    /// Validity window start.
    pub not_before: SimTime,
    /// Validity window end.
    pub not_after: SimTime,
    /// `true` for proxy certificates.
    pub is_proxy: bool,
    /// Simulated signature (keyed fingerprint over all other fields).
    pub fingerprint: u64,
}

impl SimCert {
    fn payload_hash(&self) -> u64 {
        fnv1a(&[
            self.subject.as_bytes(),
            self.issuer.as_bytes(),
            &self.serial.to_le_bytes(),
            &self.not_before.ticks().to_le_bytes(),
            &self.not_after.ticks().to_le_bytes(),
            &[self.is_proxy as u8],
        ])
    }

    fn sign(&mut self, signer_key: u64) {
        self.fingerprint = self.payload_hash() ^ signer_key.rotate_left(17);
    }

    fn verify(&self, signer_key: u64) -> bool {
        self.fingerprint == self.payload_hash() ^ signer_key.rotate_left(17)
    }

    /// Time-window check at `now`.
    pub fn time_valid(&self, now: SimTime) -> Result<(), SecurityError> {
        if now < self.not_before {
            return Err(SecurityError::NotYetValid);
        }
        if now >= self.not_after {
            return Err(SecurityError::Expired);
        }
        Ok(())
    }
}

/// A certificate authority: issues user certificates, tracks revocations.
pub struct CertAuthority {
    name: String,
    key: u64,
    next_serial: u64,
    revoked: std::collections::HashSet<u64>,
}

impl CertAuthority {
    /// New CA with the given distinguished name; `seed` derives the signing
    /// key.
    pub fn new(name: &str, seed: u64) -> Self {
        CertAuthority {
            name: name.to_owned(),
            key: fnv1a(&[name.as_bytes(), &seed.to_le_bytes()]),
            next_serial: 1,
            revoked: std::collections::HashSet::new(),
        }
    }

    /// The CA's distinguished name (the trust anchor identity).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Issue an end-entity credential for `subject`, valid for `lifetime`
    /// from `now`. The returned [`Credential`] carries the private key and
    /// can delegate proxies.
    pub fn issue(&mut self, subject: &str, now: SimTime, lifetime: Duration) -> Credential {
        let serial = self.next_serial;
        self.next_serial += 1;
        let mut cert = SimCert {
            subject: subject.to_owned(),
            issuer: self.name.clone(),
            serial,
            not_before: now,
            not_after: now + lifetime,
            is_proxy: false,
            fingerprint: 0,
        };
        cert.sign(self.key);
        let secret = fnv1a(&[subject.as_bytes(), &serial.to_le_bytes(), &self.key.to_le_bytes()]);
        Credential {
            proxy: Rc::new(ProxyCert { chain: vec![cert] }),
            secret,
        }
    }

    /// Revoke a previously issued certificate by serial.
    pub fn revoke(&mut self, serial: u64) {
        self.revoked.insert(serial);
    }

    /// Whether `serial` is on the revocation list.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked.contains(&serial)
    }

    fn verify_root(&self, cert: &SimCert) -> Result<(), SecurityError> {
        if cert.issuer != self.name {
            return Err(SecurityError::UntrustedIssuer);
        }
        if !cert.verify(self.key) {
            return Err(SecurityError::BadSignature);
        }
        if self.is_revoked(cert.serial) {
            return Err(SecurityError::Revoked);
        }
        Ok(())
    }
}

/// The public part of a credential: the certificate chain, end-entity
/// certificate first, most recent proxy last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProxyCert {
    /// EEC first, then each delegation step.
    pub chain: Vec<SimCert>,
}

impl ProxyCert {
    /// The acting identity (subject of the end-entity certificate).
    pub fn identity(&self) -> &str {
        &self.chain[0].subject
    }

    /// Number of delegation steps (0 = bare end-entity certificate).
    pub fn depth(&self) -> usize {
        self.chain.len().saturating_sub(1)
    }

    /// Instant at which the *effective* credential stops being valid (the
    /// minimum `not_after` along the chain).
    pub fn expires_at(&self) -> SimTime {
        self.chain
            .iter()
            .map(|c| c.not_after)
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// Validate the chain at `now` against a trust root, enforcing
    /// `max_depth` delegation steps.
    pub fn validate(
        &self,
        trust_root: &CertAuthority,
        now: SimTime,
        max_depth: usize,
    ) -> Result<(), SecurityError> {
        let eec = self.chain.first().ok_or(SecurityError::BrokenChain)?;
        if eec.is_proxy {
            return Err(SecurityError::BrokenChain);
        }
        trust_root.verify_root(eec)?;
        eec.time_valid(now)?;
        if self.depth() > max_depth {
            return Err(SecurityError::DepthExceeded);
        }
        let mut parent = eec;
        let mut parent_key = derive_key_for(eec, trust_root);
        for proxy in &self.chain[1..] {
            if !proxy.is_proxy {
                return Err(SecurityError::BrokenChain);
            }
            if proxy.issuer != parent.subject {
                return Err(SecurityError::BrokenChain);
            }
            if !proxy.verify(parent_key) {
                return Err(SecurityError::BadSignature);
            }
            proxy.time_valid(now)?;
            parent_key = proxy_secret(parent_key, proxy.serial);
            parent = proxy;
        }
        Ok(())
    }
}

// The "private key" of an EEC is derivable only with the CA key in this
// simulation; validators hold the CA, which in real PKI corresponds to
// verifying with the *public* key. The indirection keeps forged chains
// failing exactly where they would in reality.
fn derive_key_for(eec: &SimCert, ca: &CertAuthority) -> u64 {
    fnv1a(&[
        eec.subject.as_bytes(),
        &eec.serial.to_le_bytes(),
        &ca.key.to_le_bytes(),
    ])
}

fn proxy_secret(parent_secret: u64, serial: u64) -> u64 {
    fnv1a(&[&parent_secret.to_le_bytes(), &serial.to_le_bytes()])
}

/// A credential as *held* by a party: chain plus the current private key.
///
/// The chain is immutable once signed, so it sits behind a shared handle:
/// a clone of the credential, the proxy presented to a gatekeeper and the
/// session an agent keeps all read the same certificates.
#[derive(Clone, Debug)]
pub struct Credential {
    proxy: Rc<ProxyCert>,
    secret: u64,
}

impl Credential {
    /// The public chain (what gets sent to a gatekeeper), as an owned
    /// handle onto the shared certificates — it outlives the credential it
    /// came from and derefs to [`ProxyCert`]; take `ProxyCert::clone` of it
    /// for a chain of your own to edit.
    pub fn proxy(&self) -> Rc<ProxyCert> {
        Rc::clone(&self.proxy)
    }

    /// The acting identity.
    pub fn identity(&self) -> &str {
        self.proxy.identity()
    }

    /// Effective expiry (minimum along the chain).
    pub fn expires_at(&self) -> SimTime {
        self.proxy.expires_at()
    }

    /// Delegate a new proxy valid for `lifetime` from `now` (clamped to the
    /// parent's expiry — a delegated proxy can never outlive its parent).
    pub fn delegate(&self, now: SimTime, lifetime: Duration) -> Credential {
        let parent_chain = &self.proxy.chain;
        let parent = parent_chain.last().expect("non-empty chain");
        let serial = fnv1a(&[
            &self.secret.to_le_bytes(),
            &now.ticks().to_le_bytes(),
            &(parent_chain.len() as u64).to_le_bytes(),
        ]);
        let mut cert = SimCert {
            subject: format!("{}/CN=proxy", parent.subject),
            issuer: parent.subject.clone(),
            serial,
            not_before: now,
            not_after: (now + lifetime).min(self.expires_at()),
            is_proxy: true,
            fingerprint: 0,
        };
        cert.sign(self.secret);
        // the one copy delegation needs: the parent's chain plus the new cert
        let mut chain = Vec::with_capacity(parent_chain.len() + 1);
        chain.extend_from_slice(parent_chain);
        chain.push(cert);
        Credential {
            proxy: Rc::new(ProxyCert { chain }),
            secret: proxy_secret(self.secret, serial),
        }
    }
}

/// MyProxy-style online credential repository: users store a long-lived
/// delegated credential under a passphrase; tools later retrieve short
/// proxies from it. This is the "MyProxy" box in the paper's Figure 2.
pub struct MyProxyServer {
    store: HashMap<String, (u64, Credential)>, // user -> (pass hash, credential)
}

impl Default for MyProxyServer {
    fn default() -> Self {
        Self::new()
    }
}

impl MyProxyServer {
    /// Empty repository.
    pub fn new() -> Self {
        MyProxyServer {
            store: HashMap::new(),
        }
    }

    fn pass_hash(user: &str, passphrase: &str) -> u64 {
        fnv1a(&[user.as_bytes(), passphrase.as_bytes()])
    }

    /// Store (replacing) `credential` for `user` under `passphrase`.
    pub fn store(&mut self, user: &str, passphrase: &str, credential: Credential) {
        self.store.insert(
            user.to_owned(),
            (Self::pass_hash(user, passphrase), credential),
        );
    }

    /// Retrieve a fresh proxy of at most `lifetime`, delegated from the
    /// stored credential.
    pub fn retrieve(
        &self,
        user: &str,
        passphrase: &str,
        now: SimTime,
        lifetime: Duration,
    ) -> Result<Credential, SecurityError> {
        let (hash, cred) = self
            .store
            .get(user)
            .ok_or(SecurityError::UnknownUser)?;
        if *hash != Self::pass_hash(user, passphrase) {
            return Err(SecurityError::BadPassphrase);
        }
        if cred.expires_at() <= now {
            return Err(SecurityError::StoredCredentialExpired);
        }
        Ok(cred.delegate(now, lifetime))
    }

    /// Remove a stored credential; returns whether it existed.
    pub fn destroy(&mut self, user: &str) -> bool {
        self.store.remove(user).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour() -> Duration {
        Duration::from_secs(3600)
    }

    fn setup() -> (CertAuthority, Credential) {
        let mut ca = CertAuthority::new("/C=US/O=SimGrid/CN=CA", 42);
        let cred = ca.issue("/O=SimGrid/CN=alice", SimTime::ZERO, hour().saturating_mul(24));
        (ca, cred)
    }

    #[test]
    fn eec_validates_at_issue_time() {
        let (ca, cred) = setup();
        cred.proxy().validate(&ca, SimTime::from_secs(10), 4).unwrap();
    }

    #[test]
    fn delegated_proxy_validates() {
        let (ca, cred) = setup();
        let p1 = cred.delegate(SimTime::from_secs(60), hour());
        let p2 = p1.delegate(SimTime::from_secs(120), hour());
        p2.proxy().validate(&ca, SimTime::from_secs(300), 4).unwrap();
        assert_eq!(p2.proxy().depth(), 2);
        assert_eq!(p2.identity(), "/O=SimGrid/CN=alice");
    }

    #[test]
    fn delegation_extends_a_copy_and_leaves_the_parent_chain_alone() {
        let (ca, cred) = setup();
        let parent = cred.delegate(SimTime::from_secs(60), hour());
        let held = parent.proxy();
        let before = ProxyCert::clone(&held);
        let child = parent.delegate(SimTime::from_secs(120), hour());
        let chain = child.proxy();
        assert_eq!(chain.chain.len(), before.chain.len() + 1);
        assert_eq!(chain.chain[..before.chain.len()], before.chain[..]);
        let added = chain.chain.last().unwrap();
        assert!(added.is_proxy);
        assert_eq!(added.issuer, before.chain.last().unwrap().subject);
        // the parent — and a handle taken before delegating — still read
        // the chain they had, and every holder reads one copy of it
        assert_eq!(*held, before);
        assert_eq!(*parent.proxy(), before);
        assert!(Rc::ptr_eq(&held, &parent.proxy()));
        assert!(Rc::ptr_eq(&held, &parent.clone().proxy()));
        assert_eq!(parent.expires_at(), before.expires_at());
        held.validate(&ca, SimTime::from_secs(300), 4).unwrap();
        chain.validate(&ca, SimTime::from_secs(300), 4).unwrap();
    }

    #[test]
    fn proxy_expiry_enforced() {
        let (ca, cred) = setup();
        let p = cred.delegate(SimTime::ZERO, hour());
        let err = p
            .proxy()
            .validate(&ca, SimTime::from_secs(3601), 4)
            .unwrap_err();
        assert_eq!(err, SecurityError::Expired);
    }

    #[test]
    fn proxy_cannot_outlive_parent() {
        let (_, cred) = setup();
        let p = cred.delegate(SimTime::ZERO, Duration::from_secs(100 * 24 * 3600));
        assert_eq!(p.expires_at(), cred.expires_at());
    }

    #[test]
    fn depth_limit_enforced() {
        let (ca, cred) = setup();
        let mut c = cred;
        for _ in 0..3 {
            c = c.delegate(SimTime::ZERO, hour());
        }
        assert!(c.proxy().validate(&ca, SimTime::from_secs(1), 3).is_ok());
        assert_eq!(
            c.proxy().validate(&ca, SimTime::from_secs(1), 2),
            Err(SecurityError::DepthExceeded)
        );
    }

    #[test]
    fn untrusted_issuer_rejected() {
        let (_, cred) = setup();
        let other_ca = CertAuthority::new("/CN=EvilCA", 13);
        assert_eq!(
            cred.proxy().validate(&other_ca, SimTime::from_secs(1), 4),
            Err(SecurityError::UntrustedIssuer)
        );
    }

    #[test]
    fn same_name_different_key_fails_signature() {
        let (_, cred) = setup();
        let impostor = CertAuthority::new("/C=US/O=SimGrid/CN=CA", 999);
        assert_eq!(
            cred.proxy().validate(&impostor, SimTime::from_secs(1), 4),
            Err(SecurityError::BadSignature)
        );
    }

    #[test]
    fn revocation_rejected() {
        let (mut ca, cred) = setup();
        ca.revoke(cred.proxy().chain[0].serial);
        assert_eq!(
            cred.proxy().validate(&ca, SimTime::from_secs(1), 4),
            Err(SecurityError::Revoked)
        );
    }

    #[test]
    fn tampered_chain_fails() {
        let (ca, cred) = setup();
        let p = cred.delegate(SimTime::ZERO, hour());
        let mut chain = ProxyCert::clone(&p.proxy());
        chain.chain[1].subject = "/O=SimGrid/CN=mallory/CN=proxy".into();
        assert!(matches!(
            chain.validate(&ca, SimTime::from_secs(1), 4),
            Err(SecurityError::BadSignature) | Err(SecurityError::BrokenChain)
        ));
    }

    #[test]
    fn chain_order_enforced() {
        let (ca, cred) = setup();
        let p = cred.delegate(SimTime::ZERO, hour());
        let mut bad = ProxyCert::clone(&p.proxy());
        bad.chain.reverse();
        assert_eq!(
            bad.validate(&ca, SimTime::from_secs(1), 4),
            Err(SecurityError::BrokenChain)
        );
    }

    #[test]
    fn not_yet_valid() {
        let mut ca = CertAuthority::new("/CN=CA", 1);
        let cred = ca.issue("/CN=bob", SimTime::from_secs(100), hour());
        assert_eq!(
            cred.proxy().validate(&ca, SimTime::from_secs(50), 4),
            Err(SecurityError::NotYetValid)
        );
    }

    #[test]
    fn myproxy_roundtrip() {
        let (ca, cred) = setup();
        let mut mp = MyProxyServer::new();
        mp.store("alice", "s3cret", cred.delegate(SimTime::ZERO, hour().saturating_mul(12)));
        let short = mp
            .retrieve("alice", "s3cret", SimTime::from_secs(10), hour())
            .unwrap();
        short.proxy().validate(&ca, SimTime::from_secs(20), 4).unwrap();
        assert_eq!(short.proxy().depth(), 2); // stored delegation + retrieval delegation
    }

    #[test]
    fn myproxy_failures() {
        let (_, cred) = setup();
        let mut mp = MyProxyServer::new();
        mp.store("alice", "pw", cred.delegate(SimTime::ZERO, Duration::from_secs(60)));
        assert_eq!(
            mp.retrieve("bob", "pw", SimTime::ZERO, hour()).unwrap_err(),
            SecurityError::UnknownUser
        );
        assert_eq!(
            mp.retrieve("alice", "wrong", SimTime::ZERO, hour())
                .unwrap_err(),
            SecurityError::BadPassphrase
        );
        assert_eq!(
            mp.retrieve("alice", "pw", SimTime::from_secs(61), hour())
                .unwrap_err(),
            SecurityError::StoredCredentialExpired
        );
        assert!(mp.destroy("alice"));
        assert!(!mp.destroy("alice"));
    }

    #[test]
    fn retrieved_proxy_lifetime_clamped() {
        let (_, cred) = setup();
        let mut mp = MyProxyServer::new();
        mp.store("alice", "pw", cred.delegate(SimTime::ZERO, Duration::from_secs(100)));
        let short = mp.retrieve("alice", "pw", SimTime::from_secs(50), hour()).unwrap();
        assert_eq!(short.expires_at(), SimTime::from_secs(100));
    }
}
