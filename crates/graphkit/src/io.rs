//! Graph serialization: a DIMACS-flavored weighted edge-list format.
//!
//! ```text
//! c comment lines start with 'c'
//! p <nodes> <edges>
//! e <u> <v> <weight>
//! ```
//!
//! Node ids are 0-based. The format round-trips exactly (edges are
//! written in canonical `u < v` order), so experiment instances can be
//! exported, shared, and re-loaded bit-for-bit.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::graph::{Graph, GraphBuilder};
use crate::ids::NodeId;

/// Errors from [`parse_graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The `p` header line is missing or malformed.
    BadHeader(String),
    /// An `e` line did not have three integer fields.
    BadEdge {
        /// 1-based line number.
        line: usize,
        /// The offending line.
        content: String,
    },
    /// An edge referenced a node outside `0..n`.
    NodeOutOfRange {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown line type was encountered.
    UnknownLine {
        /// 1-based line number.
        line: usize,
        /// The offending line.
        content: String,
    },
    /// The header promised a different edge count.
    EdgeCountMismatch {
        /// Edge count declared in the `p` header.
        expected: usize,
        /// Edges actually present.
        found: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad header: {s}"),
            ParseError::BadEdge { line, content } => {
                write!(f, "bad edge on line {line}: {content}")
            }
            ParseError::NodeOutOfRange { line } => {
                write!(f, "node id out of range on line {line}")
            }
            ParseError::UnknownLine { line, content } => {
                write!(f, "unknown line {line}: {content}")
            }
            ParseError::EdgeCountMismatch { expected, found } => {
                write!(f, "header declared {expected} edges, found {found}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a graph. Deterministic: canonical edge order.
pub fn write_graph(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "c compact-routing graph");
    let _ = writeln!(out, "p {} {}", g.n(), g.m());
    for (u, v, w) in g.all_edges() {
        let _ = writeln!(out, "e {} {} {}", u.0, v.0, w);
    }
    out
}

/// Parse the format produced by [`write_graph`].
pub fn parse_graph(text: &str) -> Result<Graph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_edges = 0usize;
    let mut found_edges = 0usize;
    for (ix, raw) in text.lines().enumerate() {
        let line = ix + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        match fields.next() {
            Some("p") => {
                // Node ids are u32, so a count past u32::MAX is no header.
                let n = parse_field::<u32>(fields.next())
                    .ok_or_else(|| ParseError::BadHeader(trimmed.to_string()))?;
                declared_edges = parse_field::<usize>(fields.next())
                    .ok_or_else(|| ParseError::BadHeader(trimmed.to_string()))?;
                builder = Some(GraphBuilder::with_nodes(n as usize));
            }
            Some("e") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| ParseError::BadHeader("missing p line".into()))?;
                let (u, v, w) = (
                    parse_field::<u32>(fields.next()),
                    parse_field::<u32>(fields.next()),
                    parse_field::<u64>(fields.next()),
                );
                match (u, v, w) {
                    // Self-loops and zero weights break the builder's
                    // preconditions: malformed edges, not panics.
                    (Some(u), Some(v), Some(w)) if u != v && w >= 1 => {
                        if u as usize >= b.num_nodes() || v as usize >= b.num_nodes() {
                            return Err(ParseError::NodeOutOfRange { line });
                        }
                        b.add_edge(NodeId(u), NodeId(v), w);
                        found_edges += 1;
                    }
                    _ => return Err(ParseError::BadEdge { line, content: trimmed.to_string() }),
                }
            }
            _ => return Err(ParseError::UnknownLine { line, content: trimmed.to_string() }),
        }
    }
    if found_edges != declared_edges {
        return Err(ParseError::EdgeCountMismatch { expected: declared_edges, found: found_edges });
    }
    let b = builder.ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    Ok(b.build())
}

fn parse_field<T: FromStr>(f: Option<&str>) -> Option<T> {
    f.and_then(|s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn sample() -> Graph {
        graph_from_edges(4, &[(0, 1, 5), (1, 2, 1), (2, 3, 7), (0, 3, 2)])
    }

    #[test]
    fn roundtrip_exact() {
        let g = sample();
        let text = write_graph(&g);
        let g2 = parse_graph(&text).unwrap();
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.m(), g2.m());
        let e1: Vec<_> = g.all_edges().collect();
        let e2: Vec<_> = g2.all_edges().collect();
        assert_eq!(e1, e2);
        // Serialization itself is canonical.
        assert_eq!(text, write_graph(&g2));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "c hello\n\np 2 1\nc mid\ne 0 1 9\n";
        let g = parse_graph(text).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(9));
    }

    #[test]
    fn rejects_missing_header() {
        assert!(matches!(parse_graph("e 0 1 2\n"), Err(ParseError::BadHeader(_))));
        assert!(matches!(parse_graph(""), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn rejects_bad_edge() {
        assert!(matches!(
            parse_graph("p 2 1\ne 0 x 2\n"),
            Err(ParseError::BadEdge { line: 2, .. })
        ));
        assert!(matches!(parse_graph("p 2 1\ne 0 1\n"), Err(ParseError::BadEdge { .. })));
    }

    #[test]
    fn rejects_zero_weight_edge() {
        assert!(matches!(
            parse_graph("p 2 1\ne 0 1 0\n"),
            Err(ParseError::BadEdge { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_self_loop() {
        assert!(matches!(
            parse_graph("p 2 1\ne 1 1 4\n"),
            Err(ParseError::BadEdge { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_node_count_past_u32() {
        assert!(matches!(parse_graph("p 5000000000 0\n"), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            parse_graph("p 2 1\ne 0 5 2\n"),
            Err(ParseError::NodeOutOfRange { line: 2 })
        ));
    }

    #[test]
    fn rejects_unknown_line() {
        assert!(matches!(parse_graph("p 2 1\nq 1 2 3\n"), Err(ParseError::UnknownLine { .. })));
    }

    #[test]
    fn rejects_count_mismatch() {
        assert!(matches!(
            parse_graph("p 2 2\ne 0 1 1\n"),
            Err(ParseError::EdgeCountMismatch { expected: 2, found: 1 })
        ));
    }

    #[test]
    fn error_display_messages() {
        let e = ParseError::EdgeCountMismatch { expected: 2, found: 1 };
        assert!(e.to_string().contains("declared 2"));
        assert!(ParseError::BadHeader("x".into()).to_string().contains("bad header"));
    }

    #[test]
    fn generated_families_roundtrip() {
        for fam in crate::gen::Family::ALL {
            let g = fam.generate(60, 9);
            let g2 = parse_graph(&write_graph(&g)).unwrap();
            let e1: Vec<_> = g.all_edges().collect();
            let e2: Vec<_> = g2.all_edges().collect();
            assert_eq!(e1, e2, "{}", fam.label());
        }
    }
}
