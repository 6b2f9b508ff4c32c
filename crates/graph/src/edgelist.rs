//! Edge-list parsing and serialisation.
//!
//! The SNAP datasets the paper uses ship as whitespace-separated
//! `src dst [weight]` text files with `#` comment lines; this module reads
//! and writes that format.

use crate::{GraphError, Result};

/// A raw list of (possibly weighted, possibly directed) edges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeList {
    pub edges: Vec<(u32, u32, f32)>,
}

impl EdgeList {
    pub(crate) fn new() -> Self {
        EdgeList::default()
    }

    pub(crate) fn with_capacity(cap: usize) -> Self {
        EdgeList {
            edges: Vec::with_capacity(cap),
        }
    }

    pub(crate) fn push(&mut self, src: u32, dst: u32, weight: f32) {
        self.edges.push((src, dst, weight));
    }

    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Largest node id referenced plus one, or 0 for an empty list.
    pub(crate) fn max_node_plus_one(&self) -> u32 {
        self.edges
            .iter()
            .map(|&(s, d, _)| s.max(d) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Parse `src dst [weight]` lines. Lines starting with `#` or `%` and
    /// blank lines are skipped. A missing weight defaults to `1.0` — the
    /// paper's initial assignment for `nnz_list`.
    pub fn parse(text: &str) -> Result<Self> {
        let mut list = EdgeList::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let parse_err = || GraphError::Parse {
                line: idx + 1,
                content: line.to_string(),
            };
            let src: u32 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(parse_err)?;
            let dst: u32 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(parse_err)?;
            let weight: f32 = match parts.next() {
                Some(t) => t.parse().map_err(|_| parse_err())?,
                None => 1.0,
            };
            if parts.next().is_some() {
                return Err(parse_err());
            }
            list.push(src, dst, weight);
        }
        Ok(list)
    }

    /// Serialise to the `src dst weight` text format. Unit weights are
    /// omitted to keep files in the common SNAP shape.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.edges.len() * 12);
        for &(s, d, w) in &self.edges {
            let line = if w == 1.0 {
                writeln!(out, "{s}\t{d}")
            } else {
                writeln!(out, "{s}\t{d}\t{w}")
            };
            line.expect("writing to a String cannot fail");
        }
        out
    }

    /// Iterate over edges.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.edges.iter().copied()
    }
}

impl FromIterator<(u32, u32)> for EdgeList {
    fn from_iter<T: IntoIterator<Item = (u32, u32)>>(iter: T) -> Self {
        EdgeList {
            edges: iter.into_iter().map(|(s, d)| (s, d, 1.0)).collect(),
        }
    }
}

impl FromIterator<(u32, u32, f32)> for EdgeList {
    fn from_iter<T: IntoIterator<Item = (u32, u32, f32)>>(iter: T) -> Self {
        EdgeList {
            edges: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_and_weights() {
        let text = "# SNAP header\n\n0 1\n1\t2\t0.5\n% matrix-market comment\n2 0\n";
        let list = EdgeList::parse(text).unwrap();
        assert_eq!(list.edges, vec![(0, 1, 1.0), (1, 2, 0.5), (2, 0, 1.0)]);
        assert_eq!(list.max_node_plus_one(), 3);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["a b", "1", "1 2 3 4", "1 2 x"] {
            let err = EdgeList::parse(bad).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{bad}");
        }
    }

    #[test]
    fn roundtrips_text() {
        let list: EdgeList = vec![(0u32, 1u32, 1.0f32), (1, 2, 2.5)]
            .into_iter()
            .collect();
        let text = list.to_text();
        assert_eq!(text, "0\t1\n1\t2\t2.5\n");
        assert_eq!(EdgeList::parse(&text).unwrap(), list);
    }

    #[test]
    fn empty_list() {
        let list = EdgeList::parse("").unwrap();
        assert!(list.is_empty());
        assert_eq!(list.max_node_plus_one(), 0);
    }
}
