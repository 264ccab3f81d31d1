//! Property-based invariants of the Web-service substrate.

use proptest::prelude::*;
use wsstack::soap::Envelope;
use wsstack::uddi::BindingTemplate;
use wsstack::{ParamType, SoapValue, UddiRegistry, WsdlDocument, WsdlOperation, WsdlParam, XmlNode};

/// Text that survives our parser's whitespace normalization: either empty
/// or with non-whitespace at both ends.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("([!-~]([ -~]{0,20}[!-~])?)?").expect("regex")
}

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9_.:-]{0,12}").expect("regex")
}

fn arb_xml() -> impl Strategy<Value = XmlNode> {
    let leaf = (arb_name(), arb_text(), proptest::collection::vec((arb_name(), arb_text()), 0..3))
        .prop_map(|(name, text, attrs)| {
            let mut n = XmlNode::text_node(&name, &text);
            n.attrs = attrs;
            n
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            arb_name(),
            proptest::collection::vec((arb_name(), arb_text()), 0..3),
            proptest::collection::vec(inner, 1..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut n = XmlNode::new(&name);
                n.attrs = attrs;
                n.children = children;
                n
            })
    })
}

fn arb_soap_value() -> impl Strategy<Value = SoapValue> {
    prop_oneof![
        arb_text().prop_map(SoapValue::Str),
        any::<i64>().prop_map(SoapValue::Int),
        (-1e30f64..1e30).prop_map(SoapValue::Double),
        any::<bool>().prop_map(SoapValue::Bool),
        (0.0f64..1e9, any::<u64>()).prop_map(|(bytes, digest)| SoapValue::Binary {
            bytes: bytes.trunc(),
            digest
        }),
    ]
}

/// Text the sizer must count the way the writer escapes it: every
/// character of the escaping table, multi-byte characters, spaces, empty.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9 &<>\"'é日✓:/-]{0,12}").expect("regex")
}

/// Values of all five kinds, over each kind's whole domain: any bit
/// pattern for doubles and payload sizes (subnormal, huge, NaN, ±∞, -0).
fn arb_hostile_soap_value() -> impl Strategy<Value = SoapValue> {
    let arb_f64 = || {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            any::<f64>(),
            Just(0.0),
            Just(-0.0),
            Just(f64::MIN_POSITIVE / 4.0),
            Just(f64::MAX),
            Just(1024.0),
        ]
    };
    prop_oneof![
        arb_hostile_text().prop_map(SoapValue::Str),
        any::<i64>().prop_map(SoapValue::Int),
        (-5i64..5).prop_map(SoapValue::Int),
        arb_f64().prop_map(SoapValue::Double),
        any::<bool>().prop_map(SoapValue::Bool),
        (arb_f64(), any::<u64>()).prop_map(|(bytes, digest)| SoapValue::Binary { bytes, digest }),
    ]
}

/// Trees with attributes and text drawn from the hostile alphabet (not
/// required to re-parse: element names are written unescaped).
fn arb_hostile_xml() -> impl Strategy<Value = XmlNode> {
    let attrs = || proptest::collection::vec((arb_hostile_text(), arb_hostile_text()), 0..3);
    let leaf = (arb_hostile_text(), arb_hostile_text(), attrs()).prop_map(|(name, text, attrs)| {
        let mut n = XmlNode::text_node(&name, &text);
        n.attrs = attrs;
        n
    });
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            arb_hostile_text(),
            arb_hostile_text(),
            attrs(),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, text, attrs, children)| {
                // text beside children is carried but never written
                let mut n = XmlNode::text_node(&name, &text);
                n.attrs = attrs;
                n.children = children;
                n
            })
    })
}

fn arb_param_type() -> impl Strategy<Value = ParamType> {
    prop_oneof![
        Just(ParamType::Str),
        Just(ParamType::Int),
        Just(ParamType::Double),
        Just(ParamType::Bool),
        Just(ParamType::Binary),
    ]
}

/// One step of a registry program.
#[derive(Debug, Clone)]
enum UddiOp {
    Publish(String),
    /// Delete the `nth % live` service still published.
    Delete(usize),
    Find(String),
}

/// Names over a small alphabet, so that many collide once case-folded:
/// ASCII in both cases, an umlaut in both cases, and all three sigmas
/// (`Σ` lowercases to `σ` or `ς` depending on its position).
fn arb_uddi_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[abABäÄσΣς]{1,3}").expect("regex")
}

fn arb_uddi_pattern() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_uddi_name(),
        arb_uddi_name().prop_map(|n| format!("{n}%")),
        arb_uddi_name().prop_map(|n| format!("%{n}")),
        arb_uddi_name().prop_map(|n| format!("%{n}%")),
        Just("%".to_owned()),
    ]
}

fn arb_uddi_op() -> impl Strategy<Value = UddiOp> {
    prop_oneof![
        arb_uddi_name().prop_map(UddiOp::Publish),
        arb_uddi_name().prop_map(UddiOp::Publish),
        (0usize..1 << 16).prop_map(UddiOp::Delete),
        arb_uddi_pattern().prop_map(UddiOp::Find),
        arb_uddi_pattern().prop_map(UddiOp::Find),
    ]
}

/// `%`-wildcard matching written the slow obvious way, independent of the
/// registry's own matcher: `%` stands for any run of characters.
fn glob(pattern: &[char], name: &[char]) -> bool {
    match pattern.split_first() {
        None => name.is_empty(),
        Some((&'%', rest)) => (0..=name.len()).any(|skip| glob(rest, &name[skip..])),
        Some((c, rest)) => name.first() == Some(c) && glob(rest, &name[1..]),
    }
}

proptest! {
    /// XML writer → parser is the identity for arbitrary trees.
    #[test]
    fn xml_roundtrip(doc in arb_xml()) {
        let text = doc.to_xml();
        let parsed = XmlNode::parse(&text);
        prop_assert!(parsed.is_ok(), "parse failed on {}: {:?}", text, parsed.err());
        prop_assert_eq!(parsed.unwrap(), doc);
    }

    /// SOAP envelopes round-trip through full serialization for arbitrary
    /// argument sets.
    #[test]
    fn envelope_roundtrip(
        service in proptest::string::string_regex("[A-Za-z][A-Za-z0-9_]{0,12}").expect("regex"),
        op in proptest::string::string_regex("[a-z][A-Za-z0-9_]{0,12}").expect("regex"),
        args in proptest::collection::btree_map(
            proptest::string::string_regex("[a-z][a-z0-9_]{0,8}").expect("regex"),
            arb_soap_value(),
            0..6,
        ),
    ) {
        let mut env = Envelope::request(&service, &op);
        env.args = args;
        let text = env.to_xml().to_xml();
        let doc = XmlNode::parse(&text).unwrap();
        let parsed = Envelope::parse(&doc);
        prop_assert!(parsed.is_ok(), "{:?} on {}", parsed.err(), text);
        prop_assert_eq!(parsed.unwrap(), env);
    }

    /// WSDL documents round-trip for arbitrary signatures.
    #[test]
    fn wsdl_roundtrip(
        service in proptest::string::string_regex("[A-Za-z][A-Za-z0-9_]{0,12}").expect("regex"),
        doc_text in arb_text(),
        ops in proptest::collection::vec(
            (
                proptest::string::string_regex("[a-z][A-Za-z0-9_]{0,10}").expect("regex"),
                proptest::collection::vec(
                    (proptest::string::string_regex("[a-z][a-z0-9_]{0,8}").expect("regex"), arb_param_type()),
                    0..5,
                ),
                arb_param_type(),
            ),
            1..4,
        ),
    ) {
        let operations: Vec<WsdlOperation> = ops
            .into_iter()
            .map(|(name, params, output)| WsdlOperation {
                name,
                inputs: params
                    .into_iter()
                    .map(|(n, t)| WsdlParam { name: n, ty: t })
                    .collect(),
                output,
            })
            .collect();
        let w = WsdlDocument {
            service,
            endpoint: "http://appliance:8080/services/x".into(),
            documentation: doc_text,
            operations,
        };
        let parsed = WsdlDocument::parse_text(&w.to_text());
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        prop_assert_eq!(parsed.unwrap(), w);
    }

    /// UDDI: every published service is found by its exact name, by the
    /// universal wildcard, and by any substring pattern of its name.
    #[test]
    fn uddi_find_properties(
        names in proptest::collection::btree_set(
            proptest::string::string_regex("[A-Za-z][A-Za-z0-9_-]{0,14}").expect("regex"),
            1..20,
        ),
    ) {
        let mut reg = UddiRegistry::new();
        for n in &names {
            reg.publish("b", n, "", BindingTemplate {
                access_point: format!("http://x/{n}"),
                wsdl_location: String::new(),
            }).unwrap();
        }
        prop_assert_eq!(reg.find("%").len(), names.len());
        for n in &names {
            let exact = reg.find(n);
            prop_assert!(exact.iter().any(|s| &s.name == n), "exact miss for {}", n);
            if n.len() >= 3 {
                let mid = &n[1..n.len() - 1];
                let pat = format!("%{mid}%");
                prop_assert!(
                    reg.find(&pat).iter().any(|s| &s.name == n),
                    "substring miss: {} in {}", pat, n
                );
            }
        }
    }

    /// UDDI against a model that only remembers what was published: over
    /// arbitrary interleavings of publish / delete / find, with names that
    /// collide when case-folded, every inquiry returns exactly the live
    /// services whose folded name matches, ascending by key; only an
    /// exact-case duplicate is refused; a deleted service is never
    /// returned and its name can be published again.
    #[test]
    fn uddi_matches_a_model_over_interleavings(
        ops in proptest::collection::vec(arb_uddi_op(), 1..120),
    ) {
        let mut reg = UddiRegistry::new();
        let mut live: Vec<(String, String)> = Vec::new(); // (key, name)
        for op in &ops {
            match op {
                UddiOp::Publish(name) => {
                    let res = reg.publish("b", name, "", BindingTemplate {
                        access_point: format!("http://x/{name}"),
                        wsdl_location: String::new(),
                    });
                    if live.iter().any(|(_, n)| n == name) {
                        prop_assert!(res.is_err(), "exact duplicate {} accepted", name);
                    } else {
                        prop_assert!(res.is_ok(), "{} refused: {:?}", name, res);
                        live.push((res.unwrap(), name.clone()));
                    }
                }
                UddiOp::Delete(nth) => {
                    if !live.is_empty() {
                        let (key, name) = live.remove(nth % live.len());
                        prop_assert_eq!(reg.delete(&key).unwrap().name, name);
                        prop_assert!(reg.delete(&key).is_err());
                    }
                }
                UddiOp::Find(pattern) => {
                    let folded: Vec<char> = pattern.to_lowercase().chars().collect();
                    let mut expect: Vec<(String, String)> = live
                        .iter()
                        .filter(|(_, n)| {
                            glob(&folded, &n.to_lowercase().chars().collect::<Vec<_>>())
                        })
                        .cloned()
                        .collect();
                    expect.sort();
                    let got: Vec<(String, String)> = reg
                        .find(pattern)
                        .iter()
                        .map(|s| (s.service_key.clone(), s.name.clone()))
                        .collect();
                    prop_assert_eq!(got, expect, "find {}", pattern);
                }
            }
            prop_assert_eq!(reg.len(), live.len());
        }
    }

    /// Wire size grows monotonically with binary payload size.
    #[test]
    fn envelope_wire_size_monotone(a in 0.0f64..1e8, b in 0.0f64..1e8) {
        let mk = |bytes: f64| {
            Envelope::request("S", "op")
                .arg("d", SoapValue::Binary { bytes, digest: 1 })
                .wire_size()
        };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(mk(lo) <= mk(hi));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The counted size of a tree is the length of the document the writer
    /// produces — `wire_size` feeds link transfer time, so one byte off
    /// moves every golden.
    #[test]
    fn xml_wire_size_is_the_written_length(doc in arb_hostile_xml()) {
        prop_assert_eq!(doc.wire_size(), doc.to_xml().len() as f64, "{}", doc.to_xml());
    }

    /// The counted size of an envelope is the length of its serialized
    /// document plus the real bytes of its binary payloads, for every value
    /// kind, with the escaping table's characters in service, operation,
    /// argument names and values, and with no arguments at all.
    #[test]
    fn envelope_wire_size_is_the_written_length_plus_payloads(
        service in arb_hostile_text(),
        op in arb_hostile_text(),
        args in proptest::collection::btree_map(arb_hostile_text(), arb_hostile_soap_value(), 0..7),
    ) {
        let mut env = Envelope::request(&service, &op);
        env.args = args;
        let text = env.to_xml().to_xml();
        let payloads: f64 = env
            .args
            .values()
            .filter(|v| matches!(v, SoapValue::Binary { .. }))
            .map(SoapValue::wire_bytes)
            .sum();
        let expect = text.len() as f64 + payloads;
        let got = env.wire_size();
        prop_assert!(
            got.to_bits() == expect.to_bits() || (got.is_nan() && expect.is_nan()),
            "{} vs {} on {}", got, expect, text
        );
    }
}
