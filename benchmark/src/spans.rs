//! Spans recorded at layer boundaries: kept in memory while the run
//! measures, written out once it has ended.
//!
//! A span names its parent, and spans of one request share its id. A
//! layer's *self time* is its span's duration minus the part its child
//! spans cover — what that layer itself cost, not what it waited for.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    /// `None` for the root span of a request.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total self time per span name over `spans`, with how many spans of
/// that name there were. Children of one parent must not overlap each
/// other (true of both recorders here: stages run back to back).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    // (request, parent name) → time covered by children
    let mut covered: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *covered.entry((s.request, parent)).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let children = covered.get(&(s.request, s.name)).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns().saturating_sub(children);
        e.1 += 1;
    }
    out
}

/// Writes `{"source":…,"spans":[{request,name,parent,start_ns,end_ns},…]}`.
pub fn write_json(path: &Path, source: &str, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"source\":\"{source}\",\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(w, "\n{{\"request\":{},\"name\":\"{}\",", s.request, s.name)?;
        match s.parent {
            Some(p) => write!(w, "\"parent\":\"{p}\",")?,
            None => write!(w, "\"parent\":null,")?,
        }
        write!(w, "\"start_ns\":{},\"end_ns\":{}}}", s.start_ns, s.end_ns)?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        a: u64,
        b: u64,
    ) -> Span {
        Span {
            request,
            name,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, "request", None, 0, 100),
            span(1, "frame", Some("request"), 0, 10),
            span(1, "execute", Some("request"), 10, 70),
            span(2, "request", None, 200, 250),
            span(2, "frame", Some("request"), 200, 220),
        ];
        let t = self_times(&spans);
        // request 1: 100 − 70 covered; request 2: 50 − 20 covered.
        assert_eq!(t["request"], (30 + 30, 2));
        assert_eq!(t["frame"], (10 + 20, 2));
        assert_eq!(t["execute"], (60, 1));
    }

    #[test]
    fn written_file_is_json() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("spans-test-{}.json", std::process::id()));
        let spans = [
            span(7, "request", None, 5, 9),
            span(7, "wire", Some("request"), 6, 9),
        ];
        write_json(&path, "test", &spans).unwrap();
        let v = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let Some(Json::Arr(items)) = v.get("spans") else {
            panic!("no spans array")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&Json::Null));
        assert_eq!(items[1].get("parent"), Some(&Json::str("request")));
        assert_eq!(items[1].get("end_ns").and_then(Json::num), Some(9.0));
    }
}
