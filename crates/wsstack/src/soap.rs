//! SOAP 1.1 envelopes, typed values and faults.
//!
//! Every interaction with a generated service — and with the Cyberaide
//! agent itself, which "is a Web service and exposes its functions as Web
//! methods" (§VI) — is a SOAP call. Envelopes here are real documents
//! built on [`XmlNode`], so their serialized size drives the transport
//! model, and malformed payloads fail in the same places they would have
//! failed in Axis2.

use std::collections::BTreeMap;
use std::fmt;

use crate::xml::{attr_len, element_len, escaped_len, XmlNode};

/// SOAP envelope namespace (1.1, as in the paper's toolchain).
pub const SOAP_ENV_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";

// The envelope's fixed names, shared by `Envelope::to_xml` (which writes
// them) and `Envelope::wire_size` (which only counts them).
const ENVELOPE: &str = "soap:Envelope";
const ENVELOPE_ATTRS: [(&str, &str); 3] = [
    ("xmlns:soap", SOAP_ENV_NS),
    ("xmlns:xsd", "http://www.w3.org/2001/XMLSchema"),
    ("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance"),
];
/// Bytes the envelope's three namespace attributes serialize to.
const ENVELOPE_ATTRS_LEN: usize = {
    let (mut len, mut i) = (0, 0);
    while i < ENVELOPE_ATTRS.len() {
        let (key, value) = ENVELOPE_ATTRS[i];
        len += attr_len(key.len(), escaped_len(value, true));
        i += 1;
    }
    len
};
const BODY: &str = "soap:Body";
const OP_PREFIX: &str = "ns:";
const OP_NS_ATTR: &str = "xmlns:ns";
const OP_NS_PREFIX: &str = "urn:onserve:";
const XSI_TYPE: &str = "xsi:type";

/// A `fmt::Write` sink that keeps only how long its input is once
/// escaped as element text.
struct EscapedLen(usize);

impl fmt::Write for EscapedLen {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += escaped_len(s, false);
        Ok(())
    }
}

/// A typed argument/result value.
#[derive(Clone, Debug, PartialEq)]
pub enum SoapValue {
    /// `xsd:string`
    Str(String),
    /// `xsd:int`
    Int(i64),
    /// `xsd:double`
    Double(f64),
    /// `xsd:boolean`
    Bool(bool),
    /// `xsd:base64Binary` — carried as a *size* plus digest, because the
    /// simulation transfers payload bytes through the resource model, not
    /// through memory.
    Binary {
        /// Payload size in bytes.
        bytes: f64,
        /// Content digest standing in for the actual bits.
        digest: u64,
    },
}

impl SoapValue {
    /// XSD type name used in WSDL and envelopes.
    pub fn type_name(&self) -> &'static str {
        match self {
            SoapValue::Str(_) => "xsd:string",
            SoapValue::Int(_) => "xsd:int",
            SoapValue::Double(_) => "xsd:double",
            SoapValue::Bool(_) => "xsd:boolean",
            SoapValue::Binary { .. } => "xsd:base64Binary",
        }
    }

    /// Extra on-the-wire bytes this value adds beyond its XML element
    /// scaffolding (binary payloads are base64-inflated by 4/3).
    pub fn wire_bytes(&self) -> f64 {
        match self {
            SoapValue::Str(s) => s.len() as f64,
            SoapValue::Int(_) | SoapValue::Double(_) => 16.0,
            SoapValue::Bool(_) => 5.0,
            SoapValue::Binary { bytes, .. } => bytes * 4.0 / 3.0,
        }
    }

    /// The element text of this value, before XML escaping. Written once so
    /// the document ([`SoapValue::to_xml`]) and its size
    /// ([`Envelope::wire_size`]) come from the same formatter.
    fn write_text(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            SoapValue::Str(s) => out.write_str(s),
            SoapValue::Int(i) => write!(out, "{i}"),
            SoapValue::Double(d) => write!(out, "{d:e}"),
            SoapValue::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            // stand-in marker: size + digest instead of megabytes of
            // base64 in the in-memory document
            SoapValue::Binary { bytes, digest } => write!(out, "base64:{bytes}:{digest:016x}"),
        }
    }

    fn to_xml(&self, name: &str) -> XmlNode {
        let mut node = XmlNode::new(name);
        self.write_text(&mut node.text)
            .expect("writing to a String cannot fail");
        node.attr(XSI_TYPE, self.type_name())
    }

    fn from_xml(node: &XmlNode) -> Result<SoapValue, SoapFault> {
        let ty = node.get_attr(XSI_TYPE).unwrap_or("xsd:string");
        let text = node.text.as_str();
        let bad = |what: &str| SoapFault::client(&format!("bad {what} value: {text}"));
        match ty {
            "xsd:string" => Ok(SoapValue::Str(text.to_owned())),
            "xsd:int" => text
                .parse()
                .map(SoapValue::Int)
                .map_err(|_| bad("int")),
            "xsd:double" => text
                .parse()
                .map(SoapValue::Double)
                .map_err(|_| bad("double")),
            "xsd:boolean" => match text {
                "true" | "1" => Ok(SoapValue::Bool(true)),
                "false" | "0" => Ok(SoapValue::Bool(false)),
                _ => Err(bad("boolean")),
            },
            "xsd:base64Binary" => {
                let mut parts = text.splitn(3, ':');
                let tag = parts.next();
                let bytes = parts.next().and_then(|p| p.parse::<f64>().ok());
                let digest = parts
                    .next()
                    .and_then(|p| u64::from_str_radix(p, 16).ok());
                match (tag, bytes, digest) {
                    (Some("base64"), Some(bytes), Some(digest)) => {
                        Ok(SoapValue::Binary { bytes, digest })
                    }
                    _ => Err(bad("base64Binary")),
                }
            }
            other => Err(SoapFault::client(&format!("unknown xsi:type {other}"))),
        }
    }
}

/// A SOAP fault (the error half of every invocation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoapFault {
    /// `Client`, `Server`, `VersionMismatch`, ...
    pub code: String,
    /// Human-readable fault string.
    pub message: String,
}

impl SoapFault {
    /// `soap:Client` fault — the caller's payload is at fault.
    pub fn client(message: &str) -> SoapFault {
        SoapFault {
            code: "soap:Client".into(),
            message: message.to_owned(),
        }
    }

    /// `soap:Server` fault — processing failed on the service side.
    pub fn server(message: &str) -> SoapFault {
        SoapFault {
            code: "soap:Server".into(),
            message: message.to_owned(),
        }
    }
}

impl fmt::Display for SoapFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for SoapFault {}

/// A request or response envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Target service name.
    pub service: String,
    /// Operation (web-method) name.
    pub operation: String,
    /// Named arguments/results, in a deterministic order.
    pub args: BTreeMap<String, SoapValue>,
}

impl Envelope {
    /// Build a request envelope.
    pub fn request(service: &str, operation: &str) -> Envelope {
        Envelope {
            service: service.to_owned(),
            operation: operation.to_owned(),
            args: BTreeMap::new(),
        }
    }

    /// Builder: add an argument.
    pub fn arg(mut self, name: &str, value: SoapValue) -> Envelope {
        self.args.insert(name.to_owned(), value);
        self
    }

    /// Serialize to the full SOAP document.
    pub fn to_xml(&self) -> XmlNode {
        let mut op = XmlNode::new(&format!("{OP_PREFIX}{}", self.operation))
            .attr(OP_NS_ATTR, &format!("{OP_NS_PREFIX}{}", self.service));
        for (name, value) in &self.args {
            op.children.push(value.to_xml(name));
        }
        let mut envelope = XmlNode::new(ENVELOPE);
        for (key, value) in ENVELOPE_ATTRS {
            envelope = envelope.attr(key, value);
        }
        envelope.child(XmlNode::new(BODY).child(op))
    }

    /// Total request size on the wire: the length of
    /// `self.to_xml().to_xml()` plus the real size of binary payloads.
    ///
    /// Called once per transfer and once per dispatch, so the document is
    /// counted, not built: element by element, inside out, with each
    /// argument's text measured by the formatter that would print it.
    pub fn wire_size(&self) -> f64 {
        let mut args_len = 0;
        for (name, value) in &self.args {
            let mut text = EscapedLen(0);
            value.write_text(&mut text).expect("counting cannot fail");
            let attrs = attr_len(XSI_TYPE.len(), escaped_len(value.type_name(), true));
            args_len += element_len(name.len(), attrs, text.0);
        }
        let op_ns = OP_NS_PREFIX.len() + escaped_len(&self.service, true);
        let op = element_len(
            OP_PREFIX.len() + self.operation.len(),
            attr_len(OP_NS_ATTR.len(), op_ns),
            args_len,
        );
        let body = element_len(BODY.len(), 0, op);
        element_len(ENVELOPE.len(), ENVELOPE_ATTRS_LEN, body) as f64
            + self
                .args
                .values()
                .map(|v| match v {
                    // the in-document marker is tiny; add the real payload
                    SoapValue::Binary { .. } => v.wire_bytes(),
                    _ => 0.0,
                })
                .sum::<f64>()
    }

    /// Parse an envelope back out of a document.
    pub fn parse(doc: &XmlNode) -> Result<Envelope, SoapFault> {
        if doc.name != ENVELOPE {
            return Err(SoapFault::client("not a SOAP envelope"));
        }
        let body = doc
            .find(BODY)
            .ok_or_else(|| SoapFault::client("missing soap:Body"))?;
        let op_node = body
            .children
            .first()
            .ok_or_else(|| SoapFault::client("empty soap:Body"))?;
        let operation = op_node
            .name
            .strip_prefix(OP_PREFIX)
            .unwrap_or(&op_node.name)
            .to_owned();
        let service = op_node
            .get_attr(OP_NS_ATTR)
            .and_then(|ns| ns.strip_prefix(OP_NS_PREFIX))
            .unwrap_or("")
            .to_owned();
        let mut args = BTreeMap::new();
        for child in &op_node.children {
            args.insert(child.name.clone(), SoapValue::from_xml(child)?);
        }
        Ok(Envelope {
            service,
            operation,
            args,
        })
    }

    /// Wrap a fault in a response document.
    pub fn fault_to_xml(fault: &SoapFault) -> XmlNode {
        XmlNode::new(ENVELOPE)
            .attr("xmlns:soap", SOAP_ENV_NS)
            .child(
                XmlNode::new(BODY).child(
                    XmlNode::new("soap:Fault")
                        .child(XmlNode::text_node("faultcode", &fault.code))
                        .child(XmlNode::text_node("faultstring", &fault.message)),
                ),
            )
    }

    /// Extract a fault from a response document, if it is one.
    pub fn parse_fault(doc: &XmlNode) -> Option<SoapFault> {
        let fault = doc.path(&[BODY, "soap:Fault"])?;
        Some(SoapFault {
            code: fault.find("faultcode").map(|n| n.text.clone())?,
            message: fault.find("faultstring").map(|n| n.text.clone())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::request("Solver", "execute")
            .arg("gridSize", SoapValue::Int(128))
            .arg("eps", SoapValue::Double(1e-6))
            .arg("verbose", SoapValue::Bool(true))
            .arg("label", SoapValue::Str("run 1 <&>".into()))
            .arg(
                "payload",
                SoapValue::Binary {
                    bytes: 1024.0,
                    digest: 0xdead_beef,
                },
            )
    }

    #[test]
    fn envelope_roundtrip() {
        let env = sample();
        let doc = env.to_xml();
        let parsed = Envelope::parse(&doc).unwrap();
        assert_eq!(parsed, env);
    }

    #[test]
    fn envelope_roundtrip_through_text() {
        let env = sample();
        let text = env.to_xml().to_xml();
        let doc = XmlNode::parse(&text).unwrap();
        assert_eq!(Envelope::parse(&doc).unwrap(), env);
    }

    #[test]
    fn binary_payload_dominates_wire_size() {
        let small = Envelope::request("S", "op").arg("x", SoapValue::Int(1));
        let big = Envelope::request("S", "op").arg(
            "x",
            SoapValue::Binary {
                bytes: 5.0 * 1024.0 * 1024.0,
                digest: 1,
            },
        );
        assert!(big.wire_size() > small.wire_size() + 5.0 * 1024.0 * 1024.0);
        // base64 inflation
        assert!(big.wire_size() > 5.0 * 1024.0 * 1024.0 * 4.0 / 3.0);
    }

    #[test]
    fn fault_roundtrip() {
        let f = SoapFault::server("staging failed");
        let doc = Envelope::fault_to_xml(&f);
        assert_eq!(Envelope::parse_fault(&doc), Some(f));
    }

    #[test]
    fn non_fault_has_no_fault() {
        assert_eq!(Envelope::parse_fault(&sample().to_xml()), None);
    }

    #[test]
    fn parse_rejects_non_envelope() {
        let err = Envelope::parse(&XmlNode::new("html")).unwrap_err();
        assert_eq!(err.code, "soap:Client");
    }

    #[test]
    fn parse_rejects_empty_body() {
        let doc = XmlNode::new("soap:Envelope").child(XmlNode::new("soap:Body"));
        assert!(Envelope::parse(&doc).is_err());
    }

    #[test]
    fn value_parse_errors_are_client_faults() {
        let bad = XmlNode::text_node("x", "not-a-number").attr("xsi:type", "xsd:int");
        let err = SoapValue::from_xml(&bad).unwrap_err();
        assert_eq!(err.code, "soap:Client");
        let unknown = XmlNode::text_node("x", "v").attr("xsi:type", "xsd:hyperreal");
        assert!(SoapValue::from_xml(&unknown).is_err());
    }

    #[test]
    fn bool_accepts_numeric_forms() {
        let one = XmlNode::text_node("b", "1").attr("xsi:type", "xsd:boolean");
        assert_eq!(SoapValue::from_xml(&one).unwrap(), SoapValue::Bool(true));
    }

    #[test]
    fn untyped_defaults_to_string() {
        let n = XmlNode::text_node("s", "plain");
        assert_eq!(
            SoapValue::from_xml(&n).unwrap(),
            SoapValue::Str("plain".into())
        );
    }

    #[test]
    fn double_roundtrip_precision() {
        for &x in &[0.0, -1.5, 1e300, 1e-300, std::f64::consts::PI] {
            let n = SoapValue::Double(x).to_xml("d");
            assert_eq!(SoapValue::from_xml(&n).unwrap(), SoapValue::Double(x));
        }
    }
}
