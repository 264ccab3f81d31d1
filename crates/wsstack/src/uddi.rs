//! A UDDI-style registry.
//!
//! "All the created Web services are published in an UDDI registry together
//! with the descriptions, the WSDL files, and the service endpoint to make
//! it easier to find a service" (§V). The paper runs jUDDI behind
//! `javax.xml.registry`; this module reproduces the same contract —
//! publish, inquire by name pattern, fetch details, delete — with
//! deterministic keys, so the onServe `UddiManager` equivalent and the
//! service-discovery scenario (§VII-B) work unchanged.

use std::collections::{BTreeMap, BTreeSet};

/// Where a published service can be reached and described.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BindingTemplate {
    /// Service endpoint URL.
    pub access_point: String,
    /// URL of the WSDL document.
    pub wsdl_location: String,
}

/// One published businessService.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BusinessService {
    /// Registry-assigned key.
    pub service_key: String,
    /// Owning business (onServe publishes everything under one entity).
    pub business: String,
    /// Service name (what inquiries match on).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Endpoint bindings.
    pub bindings: Vec<BindingTemplate>,
}

/// Registry faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UddiError {
    /// No service under that key.
    UnknownKey(String),
    /// Publishing under a name that exists with a different key.
    DuplicateName(String),
    /// Adding a bindingTemplate whose access point is already bound.
    DuplicateBinding(String),
    /// Removing the last bindingTemplate of a service (delete it instead).
    LastBinding(String),
}

impl std::fmt::Display for UddiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UddiError::UnknownKey(k) => write!(f, "unknown service key {k}"),
            UddiError::DuplicateName(n) => write!(f, "service name already published: {n}"),
            UddiError::DuplicateBinding(a) => write!(f, "access point already bound: {a}"),
            UddiError::LastBinding(k) => {
                write!(f, "cannot remove the last binding of service {k}")
            }
        }
    }
}

impl std::error::Error for UddiError {}

/// The registry: publish / inquire / get / delete.
#[derive(Default)]
pub struct UddiRegistry {
    services: BTreeMap<String, BusinessService>, // key -> record
    /// `(name.to_lowercase(), key)` per service: the keys of the services
    /// whose names fold to one string sit together, ascending. Inquiries
    /// match case-insensitively while `publish` rejects only an exact-case
    /// duplicate, so a folded name can have several (`Blast` and `blast`).
    by_folded_name: BTreeSet<(String, String)>,
    next_key: u64,
    /// Publish/inquiry counters for the evaluation report.
    publishes: u64,
    inquiries: u64,
}

impl UddiRegistry {
    /// Empty registry.
    pub fn new() -> UddiRegistry {
        UddiRegistry::default()
    }

    /// Publish a service; names must be unique (matching how onServe names
    /// generated services after their executables). Returns the assigned
    /// key.
    pub fn publish(
        &mut self,
        business: &str,
        name: &str,
        description: &str,
        binding: BindingTemplate,
    ) -> Result<String, UddiError> {
        let first = (name.to_lowercase(), String::new());
        if self
            .keys_from(&first)
            .any(|k| self.services[k].name == name)
        {
            return Err(UddiError::DuplicateName(name.to_owned()));
        }
        self.next_key += 1;
        self.publishes += 1;
        // uuid-shaped deterministic key
        let key = format!(
            "uuid:{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            self.next_key,
            (self.next_key >> 8) & 0xffff,
            0x4000 | (self.next_key & 0x0fff),
            0x8000 | ((self.next_key * 7) & 0x3fff),
            self.next_key.wrapping_mul(0x9e37_79b9)
        );
        let record = BusinessService {
            service_key: key.clone(),
            business: business.to_owned(),
            name: name.to_owned(),
            description: description.to_owned(),
            bindings: vec![binding],
        };
        self.by_folded_name.insert((first.0, key.clone()));
        self.services.insert(key.clone(), record);
        Ok(key)
    }

    /// UDDI `find_service`: `%` is the any-substring wildcard, matching is
    /// case-insensitive (as in the UDDI spec's default behaviour). Hits
    /// come back in ascending service-key order. A `%`-free pattern is one
    /// lookup in the folded-name index; a wildcard walks every service.
    pub fn find(&mut self, name_pattern: &str) -> Vec<&BusinessService> {
        self.inquiries += 1;
        let pat = name_pattern.to_lowercase();
        if pat.contains('%') {
            return self.scan(&pat);
        }
        let first = (pat, String::new());
        self.keys_from(&first)
            .map(|key| &self.services[key])
            .collect()
    }

    /// Keys of the services whose folded name is `first.0`, ascending.
    /// `first.1` is empty — the bound no real key sorts below.
    fn keys_from<'a>(&'a self, first: &'a (String, String)) -> impl Iterator<Item = &'a String> {
        self.by_folded_name
            .range(first..)
            .take_while(move |(folded, _)| *folded == first.0)
            .map(|(_, key)| key)
    }

    /// Every service whose folded name matches the already-folded
    /// `pattern`, by walking the registry in key order.
    fn scan(&self, pattern: &str) -> Vec<&BusinessService> {
        self.services
            .values()
            .filter(|s| pattern_matches(pattern, &s.name.to_lowercase()))
            .collect()
    }

    /// UDDI `get_serviceDetail`.
    pub fn get(&mut self, service_key: &str) -> Result<&BusinessService, UddiError> {
        self.inquiries += 1;
        self.services
            .get(service_key)
            .ok_or_else(|| UddiError::UnknownKey(service_key.to_owned()))
    }

    /// Update the free-text description of a published service.
    pub fn update_description(
        &mut self,
        service_key: &str,
        description: &str,
    ) -> Result<(), UddiError> {
        let svc = self
            .services
            .get_mut(service_key)
            .ok_or_else(|| UddiError::UnknownKey(service_key.to_owned()))?;
        svc.description = description.to_owned();
        Ok(())
    }

    /// Add a bindingTemplate to a published service — a replicated
    /// endpoint behind the same service name, as SOA registries model
    /// load-balanced deployments (one businessService, N
    /// bindingTemplates). Access points must be unique within the service.
    pub fn add_binding(
        &mut self,
        service_key: &str,
        binding: BindingTemplate,
    ) -> Result<(), UddiError> {
        let svc = self
            .services
            .get_mut(service_key)
            .ok_or_else(|| UddiError::UnknownKey(service_key.to_owned()))?;
        if svc
            .bindings
            .iter()
            .any(|b| b.access_point == binding.access_point)
        {
            return Err(UddiError::DuplicateBinding(binding.access_point));
        }
        svc.bindings.push(binding);
        Ok(())
    }

    /// Remove the bindingTemplate with the given access point (a retired
    /// replica). A service always keeps at least one binding.
    pub fn remove_binding(
        &mut self,
        service_key: &str,
        access_point: &str,
    ) -> Result<BindingTemplate, UddiError> {
        let svc = self
            .services
            .get_mut(service_key)
            .ok_or_else(|| UddiError::UnknownKey(service_key.to_owned()))?;
        let idx = svc
            .bindings
            .iter()
            .position(|b| b.access_point == access_point)
            .ok_or_else(|| UddiError::UnknownKey(access_point.to_owned()))?;
        if svc.bindings.len() == 1 {
            return Err(UddiError::LastBinding(service_key.to_owned()));
        }
        Ok(svc.bindings.remove(idx))
    }

    /// Unpublish a service.
    pub fn delete(&mut self, service_key: &str) -> Result<BusinessService, UddiError> {
        let svc = self
            .services
            .remove(service_key)
            .ok_or_else(|| UddiError::UnknownKey(service_key.to_owned()))?;
        self.by_folded_name
            .remove(&(svc.name.to_lowercase(), service_key.to_owned()));
        Ok(svc)
    }

    /// Number of published services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// `(publishes, inquiries)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.publishes, self.inquiries)
    }
}

/// `%`-wildcard matching (UDDI's approximate-match syntax).
fn pattern_matches(pattern: &str, name: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return pattern == name;
    }
    let mut pos = 0usize;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        match name[pos..].find(part) {
            Some(found) => {
                // a non-leading-wildcard pattern anchors the first part
                if i == 0 && found != 0 {
                    return false;
                }
                pos += found + part.len();
            }
            None => return false,
        }
    }
    // a non-trailing-wildcard pattern anchors the last part
    if !parts.last().expect("non-empty split").is_empty() && !name.ends_with(parts.last().unwrap())
    {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding(n: &str) -> BindingTemplate {
        BindingTemplate {
            access_point: format!("http://appliance:8080/services/{n}"),
            wsdl_location: format!("http://appliance:8080/services/{n}?wsdl"),
        }
    }

    fn registry_with(names: &[&str]) -> UddiRegistry {
        let mut r = UddiRegistry::new();
        for n in names {
            r.publish("Cyberaide onServe", n, "desc", binding(n)).unwrap();
        }
        r
    }

    #[test]
    fn publish_and_get() {
        let mut r = UddiRegistry::new();
        let key = r
            .publish("Cyberaide onServe", "Blast", "alignment", binding("Blast"))
            .unwrap();
        let svc = r.get(&key).unwrap();
        assert_eq!(svc.name, "Blast");
        assert_eq!(svc.business, "Cyberaide onServe");
        assert_eq!(svc.bindings[0].access_point, "http://appliance:8080/services/Blast");
        assert!(key.starts_with("uuid:"));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut r = registry_with(&["Blast"]);
        let err = r
            .publish("x", "Blast", "", binding("Blast"))
            .unwrap_err();
        assert_eq!(err, UddiError::DuplicateName("Blast".into()));
    }

    #[test]
    fn unknown_key_errors() {
        let mut r = UddiRegistry::new();
        assert!(matches!(r.get("uuid:nope"), Err(UddiError::UnknownKey(_))));
        assert!(matches!(r.delete("uuid:nope"), Err(UddiError::UnknownKey(_))));
    }

    #[test]
    fn exact_find() {
        let mut r = registry_with(&["Blast", "Solver", "BlastPlus"]);
        let hits = r.find("Blast");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "Blast");
    }

    #[test]
    fn wildcard_find() {
        let mut r = registry_with(&["Blast", "Solver", "BlastPlus", "megaBlast"]);
        assert_eq!(r.find("Blast%").len(), 2); // Blast, BlastPlus
        assert_eq!(r.find("%Blast").len(), 2); // Blast, megaBlast
        assert_eq!(r.find("%last%").len(), 3);
        assert_eq!(r.find("%").len(), 4);
        assert_eq!(r.find("%zzz%").len(), 0);
    }

    #[test]
    fn find_is_case_insensitive() {
        let mut r = registry_with(&["Blast"]);
        assert_eq!(r.find("blast").len(), 1);
        assert_eq!(r.find("BLAST%").len(), 1);
    }

    #[test]
    fn delete_frees_name() {
        let mut r = registry_with(&["Blast"]);
        let key = r.find("Blast")[0].service_key.clone();
        let svc = r.delete(&key).unwrap();
        assert_eq!(svc.name, "Blast");
        assert!(r.is_empty());
        // name can be reused after deletion
        assert!(r.publish("b", "Blast", "", binding("Blast")).is_ok());
    }

    #[test]
    fn names_differing_only_in_case_coexist_and_are_found_in_key_order() {
        let mut r = registry_with(&["Blast", "Solver", "blast"]);
        // only an exact-case duplicate is refused
        for taken in ["Blast", "blast"] {
            assert_eq!(
                r.publish("x", taken, "", binding(taken)).unwrap_err(),
                UddiError::DuplicateName(taken.into())
            );
        }
        let hits: Vec<(String, String)> = r
            .find("BLAST")
            .iter()
            .map(|s| (s.name.clone(), s.service_key.clone()))
            .collect();
        assert_eq!(hits.len(), 2);
        assert_eq!((hits[0].0.as_str(), hits[1].0.as_str()), ("Blast", "blast"));
        assert!(hits[0].1 < hits[1].1, "ascending by key: {hits:?}");
    }

    #[test]
    fn delete_reclaims_the_folded_name() {
        let mut r = registry_with(&["Blast", "blast"]);
        let first = r.find("blast")[0].service_key.clone();
        r.delete(&first).unwrap();
        // the sibling under the same folded name survives, alone
        let left: Vec<&str> = r.find("BLAST").iter().map(|s| s.name.as_str()).collect();
        assert_eq!(left, ["blast"]);
        let second = r.find("blast")[0].service_key.clone();
        r.delete(&second).unwrap();
        assert!(r.find("blast").is_empty());
        assert!(r.by_folded_name.is_empty(), "the index let go of both");
        // and the name is free again, found under its new key only
        let again = r.publish("b", "Blast", "", binding("Blast")).unwrap();
        let hits = r.find("blast");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].service_key, again);
    }

    #[test]
    fn keys_are_unique_and_deterministic() {
        let mut r1 = registry_with(&["a", "b", "c"]);
        let mut r2 = registry_with(&["a", "b", "c"]);
        let k1: Vec<String> = r1.find("%").iter().map(|s| s.service_key.clone()).collect();
        let k2: Vec<String> = r2.find("%").iter().map(|s| s.service_key.clone()).collect();
        assert_eq!(k1, k2);
        let mut uniq = k1.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn update_description_in_place() {
        let mut r = registry_with(&["Blast"]);
        let key = r.find("Blast")[0].service_key.clone();
        r.update_description(&key, "new words").unwrap();
        assert_eq!(r.get(&key).unwrap().description, "new words");
        assert!(matches!(
            r.update_description("uuid:none", "x"),
            Err(UddiError::UnknownKey(_))
        ));
    }

    #[test]
    fn bindings_grow_and_shrink_with_replicas() {
        let mut r = registry_with(&["Blast"]);
        let key = r.find("Blast")[0].service_key.clone();
        r.add_binding(
            &key,
            BindingTemplate {
                access_point: "http://app2:8080/services/Blast".into(),
                wsdl_location: "http://app2:8080/services/Blast?wsdl".into(),
            },
        )
        .unwrap();
        assert_eq!(r.get(&key).unwrap().bindings.len(), 2);
        // duplicate access point rejected
        assert!(matches!(
            r.add_binding(
                &key,
                BindingTemplate {
                    access_point: "http://app2:8080/services/Blast".into(),
                    wsdl_location: "x".into(),
                },
            ),
            Err(UddiError::DuplicateBinding(_))
        ));
        let gone = r
            .remove_binding(&key, "http://app2:8080/services/Blast")
            .unwrap();
        assert_eq!(gone.access_point, "http://app2:8080/services/Blast");
        // the last binding cannot be removed
        assert!(matches!(
            r.remove_binding(&key, "http://appliance:8080/services/Blast"),
            Err(UddiError::LastBinding(_))
        ));
        assert_eq!(r.get(&key).unwrap().bindings.len(), 1);
        assert!(matches!(
            r.add_binding("uuid:none", binding("x")),
            Err(UddiError::UnknownKey(_))
        ));
    }

    #[test]
    fn counters_track_usage() {
        let mut r = registry_with(&["a", "b"]);
        let _ = r.find("%");
        let key = r.find("a")[0].service_key.clone();
        let _ = r.get(&key);
        assert_eq!(r.counters(), (2, 3));
    }
}

/// The folded-name index answers inquiries; the scan it replaced for
/// `%`-free patterns is the reference it must agree with.
#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Publish(String),
        /// Delete the `nth % len` live service.
        Delete(usize),
        Find(String),
    }

    /// A nine-letter alphabet whose names collide when folded, with
    /// non-ASCII letters and the context-sensitive final sigma.
    fn name_strategy() -> impl Strategy<Value = String> {
        proptest::string::string_regex("[abABäÄσΣς]{1,3}").expect("regex")
    }

    fn pattern_strategy() -> impl Strategy<Value = String> {
        prop_oneof![
            name_strategy(),
            name_strategy().prop_map(|n| format!("{n}%")),
            name_strategy().prop_map(|n| format!("%{n}")),
            name_strategy().prop_map(|n| format!("%{n}%")),
            (name_strategy(), name_strategy()).prop_map(|(a, b)| format!("{a}%{b}")),
            Just("%".to_owned()),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            name_strategy().prop_map(Op::Publish),
            name_strategy().prop_map(Op::Publish),
            (0usize..1 << 16).prop_map(Op::Delete),
            pattern_strategy().prop_map(Op::Find),
            pattern_strategy().prop_map(Op::Find),
        ]
    }

    fn keys(hits: Vec<&BusinessService>) -> Vec<String> {
        hits.into_iter().map(|s| s.service_key.clone()).collect()
    }

    proptest! {
        /// Over arbitrary publish / delete / find programs the index
        /// returns exactly what walking the registry returns, in the same
        /// order, and holds one entry per live service.
        #[test]
        fn indexed_find_matches_the_scan(
            ops in proptest::collection::vec(op_strategy(), 1..120),
        ) {
            let mut r = UddiRegistry::new();
            for op in &ops {
                match op {
                    Op::Publish(name) => {
                        let exists = r.services.values().any(|s| &s.name == name);
                        let res = r.publish("b", name, "", BindingTemplate {
                            access_point: format!("http://x/{name}"),
                            wsdl_location: String::new(),
                        });
                        prop_assert_eq!(res.is_err(), exists, "publish {}", name);
                    }
                    Op::Delete(nth) => {
                        if !r.is_empty() {
                            let key = r.services.keys().nth(nth % r.len()).unwrap().clone();
                            r.delete(&key).unwrap();
                            prop_assert!(r.find("%").iter().all(|s| s.service_key != key));
                        }
                    }
                    Op::Find(pattern) => {
                        let expect = keys(r.scan(&pattern.to_lowercase()));
                        prop_assert_eq!(keys(r.find(pattern)), expect, "find {}", pattern);
                    }
                }
                for (folded, key) in &r.by_folded_name {
                    prop_assert_eq!(&r.services[key].name.to_lowercase(), folded);
                }
                prop_assert_eq!(r.by_folded_name.len(), r.len());
            }
        }
    }
}
