//! A small XML document model: writer and parser.
//!
//! SOAP envelopes, WSDL documents and UDDI payloads are all XML; this
//! module provides exactly the subset they need — elements, attributes,
//! character data, escaping — with a strict parser (mismatched tags and
//! malformed entities are errors, comments and declarations are skipped).
//! Namespaces are carried as plain prefixed names, which is how the 2010
//! toolchain effectively treated them too.

use std::fmt;

/// An XML element: name, attributes, children, optional text.
///
/// Mixed content is restricted to "text or children", which covers every
/// payload in this system and keeps equality/roundtrip semantics simple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlNode {
    /// Element name (may carry a namespace prefix, e.g. `soap:Envelope`).
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements.
    pub children: Vec<XmlNode>,
    /// Character data (ignored when `children` is non-empty).
    pub text: String,
}

impl XmlNode {
    /// New empty element.
    pub fn new(name: &str) -> XmlNode {
        XmlNode {
            name: name.to_owned(),
            attrs: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder: element with text content.
    pub fn text_node(name: &str, text: &str) -> XmlNode {
        XmlNode {
            text: text.to_owned(),
            ..XmlNode::new(name)
        }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, key: &str, value: &str) -> XmlNode {
        self.attrs.push((key.to_owned(), value.to_owned()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, child: XmlNode) -> XmlNode {
        self.children.push(child);
        self
    }

    /// Attribute lookup.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child with the given name.
    pub fn find(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Descend a path of child names.
    pub fn path(&self, path: &[&str]) -> Option<&XmlNode> {
        let mut cur = self;
        for p in path {
            cur = cur.find(p)?;
        }
        Some(cur)
    }

    /// Serialize to a string (no pretty-printing; sizes feed the transport
    /// model, so determinism matters more than looks).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, true, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        if self.children.is_empty() {
            escape_into(&self.text, false, out);
        } else {
            for c in &self.children {
                c.write(out);
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Serialized size in bytes — the transport model's payload size.
    /// Exactly `to_xml().len()`, counted without writing the document.
    pub fn wire_size(&self) -> f64 {
        self.wire_len() as f64
    }

    fn wire_len(&self) -> usize {
        let attrs = self
            .attrs
            .iter()
            .map(|(k, v)| attr_len(k.len(), escaped_len(v, true)))
            .sum();
        let content = if self.children.is_empty() {
            escaped_len(&self.text, false)
        } else {
            self.children.iter().map(Self::wire_len).sum()
        };
        element_len(self.name.len(), attrs, content)
    }

    /// Parse a document (exactly one root element; leading declaration,
    /// comments and whitespace are skipped).
    pub fn parse(text: &str) -> Result<XmlNode, XmlError> {
        let mut p = XmlParser {
            b: text.as_bytes(),
            pos: 0,
        };
        p.skip_misc();
        let node = p.element()?;
        p.skip_misc();
        if p.pos != p.b.len() {
            return Err(XmlError::at(p.pos, "trailing content after root"));
        }
        Ok(node)
    }
}

impl fmt::Display for XmlNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Parse failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl XmlError {
    fn at(pos: usize, message: &str) -> XmlError {
        XmlError {
            pos,
            message: message.to_owned(),
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for XmlError {}

/// The escaping table, read by the writer and by the sizer: the entity
/// `c` is written as, if it is not written as itself.
const fn entity(c: char, in_attr: bool) -> Option<&'static str> {
    match c {
        '&' => Some("&amp;"),
        '<' => Some("&lt;"),
        '>' => Some("&gt;"),
        '"' if in_attr => Some("&quot;"),
        '\'' if in_attr => Some("&apos;"),
        _ => None,
    }
}

fn escape_into(s: &str, in_attr: bool, out: &mut String) {
    for c in s.chars() {
        match entity(c, in_attr) {
            Some(e) => out.push_str(e),
            None => out.push(c),
        }
    }
}

/// Bytes `escape_into` would append for `s`. Every escaped character is
/// one ASCII byte, so the count runs over bytes, not chars. `const`, so
/// the length of a fixed piece of scaffolding is a compile-time number.
pub(crate) const fn escaped_len(s: &str, in_attr: bool) -> usize {
    let bytes = s.as_bytes();
    let mut len = bytes.len();
    let mut i = 0;
    while i < bytes.len() {
        if let Some(e) = entity(bytes[i] as char, in_attr) {
            len += e.len() - 1;
        }
        i += 1;
    }
    len
}

/// Bytes [`XmlNode::write`] emits for one attribute (` key="value"`) whose
/// escaped value is `value_len` long.
pub(crate) const fn attr_len(key_len: usize, value_len: usize) -> usize {
    " ".len() + key_len + "=\"".len() + value_len + "\"".len()
}

/// Bytes [`XmlNode::write`] emits for one element whose attributes take
/// `attrs_len` and whose escaped text or serialized children take
/// `content_len`: `<name attrs/>` when there is no content (a child is
/// never zero bytes), `<name attrs>content</name>` otherwise.
pub(crate) const fn element_len(name_len: usize, attrs_len: usize, content_len: usize) -> usize {
    let open = "<".len() + name_len + attrs_len;
    if content_len == 0 {
        open + "/>".len()
    } else {
        open + ">".len() + content_len + "</".len() + name_len + ">".len()
    }
}

struct XmlParser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn skip_ws(&mut self) {
        while self.b.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, `<?...?>` declarations and `<!--...-->` comments.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                match self.find_from("?>", self.pos) {
                    Some(end) => self.pos = end + 2,
                    None => return,
                }
            } else if self.starts_with("<!--") {
                match self.find_from("-->", self.pos) {
                    Some(end) => self.pos = end + 3,
                    None => return,
                }
            } else {
                return;
            }
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.b[self.pos..].starts_with(s.as_bytes())
    }

    fn find_from(&self, needle: &str, from: usize) -> Option<usize> {
        let hay = &self.b[from..];
        hay.windows(needle.len())
            .position(|w| w == needle.as_bytes())
            .map(|i| i + from)
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while self.b.get(self.pos).is_some_and(|&b| {
            b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
        }) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(XmlError::at(self.pos, "expected name"));
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.pos]).into_owned())
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        if self.b.get(self.pos) != Some(&b'<') {
            return Err(XmlError::at(self.pos, "expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut node = XmlNode::new(&name);
        // attributes
        loop {
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(&b'/') => {
                    if self.b.get(self.pos + 1) == Some(&b'>') {
                        self.pos += 2;
                        return Ok(node);
                    }
                    return Err(XmlError::at(self.pos, "stray '/'"));
                }
                Some(&b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.b.get(self.pos) != Some(&b'=') {
                        return Err(XmlError::at(self.pos, "expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.b.get(self.pos) {
                        Some(&q @ (b'"' | b'\'')) => q,
                        _ => return Err(XmlError::at(self.pos, "expected quoted attribute")),
                    };
                    self.pos += 1;
                    let vstart = self.pos;
                    while self.b.get(self.pos).is_some_and(|&b| b != quote) {
                        self.pos += 1;
                    }
                    if self.b.get(self.pos) != Some(&quote) {
                        return Err(XmlError::at(self.pos, "unterminated attribute"));
                    }
                    let raw = String::from_utf8_lossy(&self.b[vstart..self.pos]).into_owned();
                    self.pos += 1;
                    node.attrs.push((key, unescape(&raw, vstart)?));
                }
                None => return Err(XmlError::at(self.pos, "unexpected end in tag")),
            }
        }
        // content: children or text
        loop {
            // Where does the next markup start?
            let text_start = self.pos;
            while self.b.get(self.pos).is_some_and(|&b| b != b'<') {
                self.pos += 1;
            }
            if self.pos > text_start {
                let raw = String::from_utf8_lossy(&self.b[text_start..self.pos]).into_owned();
                let unescaped = unescape(&raw, text_start)?;
                if node.children.is_empty() {
                    node.text.push_str(&unescaped);
                } else if !unescaped.trim().is_empty() {
                    return Err(XmlError::at(
                        text_start,
                        "mixed text and element content unsupported",
                    ));
                }
            }
            if self.b.get(self.pos).is_none() {
                return Err(XmlError::at(self.pos, "unexpected end of document"));
            }
            if self.starts_with("<!--") {
                match self.find_from("-->", self.pos) {
                    Some(end) => {
                        self.pos = end + 3;
                        continue;
                    }
                    None => return Err(XmlError::at(self.pos, "unterminated comment")),
                }
            }
            if self.starts_with("</") {
                self.pos += 2;
                let end_name = self.name()?;
                if end_name != node.name {
                    return Err(XmlError::at(
                        self.pos,
                        &format!("mismatched close: {} vs {}", node.name, end_name),
                    ));
                }
                self.skip_ws();
                if self.b.get(self.pos) != Some(&b'>') {
                    return Err(XmlError::at(self.pos, "expected '>'"));
                }
                self.pos += 1;
                if !node.children.is_empty() {
                    node.text.clear();
                } else if node.text.chars().all(char::is_whitespace) {
                    // whitespace-only content normalizes to empty, so
                    // pretty-printed input and compact output compare equal
                    node.text.clear();
                }
                return Ok(node);
            }
            // child element; text before children must be whitespace
            if node.children.is_empty() && !node.text.trim().is_empty() {
                return Err(XmlError::at(
                    self.pos,
                    "mixed text and element content unsupported",
                ));
            }
            node.text.clear();
            let child = self.element()?;
            node.children.push(child);
        }
    }
}

fn unescape(s: &str, base: usize) -> Result<String, XmlError> {
    if !s.contains('&') {
        return Ok(s.to_owned());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        let semi = tail
            .find(';')
            .ok_or_else(|| XmlError::at(base, "unterminated entity"))?;
        let entity = &tail[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| XmlError::at(base, "bad numeric entity"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| XmlError::at(base, "invalid codepoint"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| XmlError::at(base, "bad numeric entity"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| XmlError::at(base, "invalid codepoint"))?,
                );
            }
            _ => return Err(XmlError::at(base, &format!("unknown entity &{entity};"))),
        }
        rest = &tail[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let doc = XmlNode::new("root")
            .attr("version", "1.0")
            .child(XmlNode::text_node("greeting", "hello"))
            .child(XmlNode::new("empty"));
        assert_eq!(
            doc.to_xml(),
            r#"<root version="1.0"><greeting>hello</greeting><empty/></root>"#
        );
    }

    #[test]
    fn roundtrip_simple() {
        let doc = XmlNode::new("a")
            .attr("k", "v")
            .child(XmlNode::text_node("b", "text"))
            .child(XmlNode::new("c").attr("x", "1"));
        assert_eq!(XmlNode::parse(&doc.to_xml()).unwrap(), doc);
    }

    #[test]
    fn roundtrip_escaping() {
        let doc = XmlNode::text_node("m", "a<b & c>\"d'")
            .attr("attr", "x<&>\"'y");
        let parsed = XmlNode::parse(&doc.to_xml()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_with_declaration_and_comments() {
        let text = r#"<?xml version="1.0"?>
            <!-- a comment -->
            <root>
              <item>1</item>
              <!-- inner comment -->
              <item>2</item>
            </root>"#;
        let doc = XmlNode::parse(text).unwrap();
        assert_eq!(doc.find_all("item").count(), 2);
    }

    #[test]
    fn whitespace_only_text_normalizes() {
        let doc = XmlNode::parse("<a>\n   <b/>\n</a>").unwrap();
        assert_eq!(doc, XmlNode::new("a").child(XmlNode::new("b")));
        let empty = XmlNode::parse("<a>   </a>").unwrap();
        assert_eq!(empty, XmlNode::new("a"));
    }

    #[test]
    fn numeric_entities() {
        let doc = XmlNode::parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.text, "AB");
    }

    #[test]
    fn mismatched_tags_error() {
        let err = XmlNode::parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn trailing_content_error() {
        assert!(XmlNode::parse("<a/><b/>").is_err());
    }

    #[test]
    fn unknown_entity_error() {
        assert!(XmlNode::parse("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn mixed_content_rejected() {
        assert!(XmlNode::parse("<a>text<b/></a>").is_err());
        assert!(XmlNode::parse("<a><b/>text</a>").is_err());
    }

    #[test]
    fn attributes_single_quotes() {
        let doc = XmlNode::parse("<a k='v1' j=\"v2\"/>").unwrap();
        assert_eq!(doc.get_attr("k"), Some("v1"));
        assert_eq!(doc.get_attr("j"), Some("v2"));
    }

    #[test]
    fn namespaced_names() {
        let doc = XmlNode::parse(
            r#"<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body/></soap:Envelope>"#,
        )
        .unwrap();
        assert_eq!(doc.name, "soap:Envelope");
        assert!(doc.find("soap:Body").is_some());
    }

    #[test]
    fn path_and_find_helpers() {
        let doc = XmlNode::new("a").child(XmlNode::new("b").child(XmlNode::text_node("c", "x")));
        assert_eq!(doc.path(&["b", "c"]).unwrap().text, "x");
        assert!(doc.path(&["b", "missing"]).is_none());
    }

    #[test]
    fn unterminated_inputs_error() {
        assert!(XmlNode::parse("<a>").is_err());
        assert!(XmlNode::parse("<a attr=>").is_err());
        assert!(XmlNode::parse("<a attr=\"x>").is_err());
        assert!(XmlNode::parse("<").is_err());
        assert!(XmlNode::parse("").is_err());
    }

    #[test]
    fn wire_size_matches_serialization() {
        let doc = XmlNode::text_node("x", "abc");
        assert_eq!(doc.wire_size(), doc.to_xml().len() as f64);
    }

    #[test]
    fn unicode_roundtrip() {
        let doc = XmlNode::text_node("msg", "héllo — 日本語 ✓");
        assert_eq!(XmlNode::parse(&doc.to_xml()).unwrap(), doc);
    }
}
