//! Plain-text weighted edge-list I/O.
//!
//! Format: one edge per line, `u v [w]`, whitespace separated; `#` and `%`
//! prefix comments (SNAP / Matrix-Market-adjacent conventions). Weight
//! defaults to 1 and must be finite and non-negative. The vertex count is
//! `max id + 1` unless a `# n <count>` header line gives it; a header
//! count must cover every id and fit the `u32` id space.

use crate::edgelist::{EdgeList, EdgeListBuilder};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed or inconsistent line: its 1-based number, and its
    /// content or what is wrong with it.
    Parse(usize, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(line, s) => write!(f, "parse error on line {line}: {s:?}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a weighted edge list from any reader. Duplicate edges merge by
/// summing their weights; a merged weight, or a self-loop's doubled arc
/// weight, that overflows `f64` is a parse error on the last line naming
/// the edge.
pub fn read_edge_list<R: Read>(reader: R) -> Result<EdgeList, IoError> {
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut declared_n: Option<usize> = None;
    // The largest vertex id and the 1-based line that first names it.
    let mut max_id: Option<(u32, usize)> = None;
    // The 1-based lines that hold no edge, ascending: with them an edge's
    // index recovers its line, without storing a line per edge.
    let mut skipped: Vec<usize> = Vec::new();
    let br = BufReader::new(reader);
    for (idx, line) in br.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with(['#', '%']) {
            skipped.push(idx + 1);
        }
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("n") {
                if let Some(Ok(n)) = it.next().map(str::parse::<usize>) {
                    if u32::try_from(n).is_err() {
                        return Err(IoError::Parse(idx + 1, line.clone()));
                    }
                    declared_n = Some(n);
                }
            }
            continue;
        }
        if t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| s.and_then(|x| x.parse::<u32>().ok());
        let (u, v) = match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => (u, v),
            _ => return Err(IoError::Parse(idx + 1, line.clone())),
        };
        // Ids run below the vertex count, which must itself fit a `u32`,
        // so `u32::MAX` is never a valid id.
        if u.max(v) == u32::MAX {
            let msg = format!("vertex {} exceeds the u32 id space", u32::MAX);
            return Err(IoError::Parse(idx + 1, msg));
        }
        let w = match it.next() {
            None => 1.0,
            Some(s) => match s.parse::<f64>() {
                Ok(w) if w.is_finite() && w >= 0.0 => w,
                _ => return Err(IoError::Parse(idx + 1, line.clone())),
            },
        };
        if max_id.is_none_or(|(m, _)| u.max(v) > m) {
            max_id = Some((u.max(v), idx + 1));
        }
        edges.push((u, v, w));
    }
    let n = match (declared_n, max_id) {
        (Some(n), Some((m, line))) if n <= m as usize => {
            let msg = format!("vertex {m} is out of range for the `# n {n}` header");
            return Err(IoError::Parse(line, msg));
        }
        (Some(n), _) => n,
        (None, Some((m, _))) => m as usize + 1,
        (None, None) => 0,
    };
    let mut b = EdgeListBuilder::with_capacity(n, edges.len());
    for &(u, v, w) in &edges {
        b.add_edge(u, v, w);
    }
    b.try_build().map_err(|e| {
        let pair = |&(u, v, _): &(u32, u32, f64)| (u.min(v), u.max(v)) == (e.u, e.v);
        let i = edges.iter().rposition(pair).unwrap_or(0);
        let mut line = i + 1;
        for &s in &skipped {
            if s <= line {
                line += 1;
            }
        }
        IoError::Parse(line, e.to_string())
    })
}

/// Reads a weighted edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes an edge list (with an `# n` header) to any writer.
pub fn write_edge_list<W: Write>(el: &EdgeList, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# n {}", el.num_vertices())?;
    for e in el.edges() {
        if (e.w - 1.0).abs() < f64::EPSILON {
            writeln!(w, "{} {}", e.u, e.v)?;
        } else {
            writeln!(w, "{} {} {}", e.u, e.v, e.w)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes an edge list to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(el: &EdgeList, path: P) -> Result<(), IoError> {
    write_edge_list(el, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_lines() {
        let text = "# comment\n# n 10\n0 1\n1 2 2.5\n% mm comment\n\n3 3 4\n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 10);
        assert_eq!(el.num_edges(), 3);
        assert_eq!(el.total_weight(), 1.0 + 2.5 + 4.0);
    }

    #[test]
    fn n_inferred_from_max_id() {
        let el = read_edge_list("5 9\n".as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 10);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = read_edge_list("0 1\nnot an edge\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    fn parse_error_line(text: &str) -> usize {
        match read_edge_list(text.as_bytes()) {
            Err(IoError::Parse(line, _)) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn header_smaller_than_max_id_is_rejected() {
        assert_eq!(parse_error_line("# n 3\n0 1\n1 7\n2 0\n"), 3);
        // The header may follow the edges it must cover.
        assert_eq!(parse_error_line("0 1\n1 3\n# n 3\n"), 2);
    }

    #[test]
    fn non_finite_and_negative_weights_are_rejected() {
        for w in ["NaN", "inf", "-inf", "-1.5"] {
            assert_eq!(
                parse_error_line(&format!("0 1\n1 2 {w}\n")),
                2,
                "weight {w}"
            );
        }
    }

    #[test]
    fn overflowing_merged_weights_are_rejected_on_their_last_line() {
        assert_eq!(parse_error_line("0 1 1e308\n1 0 1e308\n"), 2);
        // Comment and blank lines shift the reported line.
        assert_eq!(
            parse_error_line("# n 4\n1 0 1e308\n\n2 3\n% c\n0 1 1e308\n2 2\n"),
            6
        );
        // A self-loop's arc weight is doubled.
        assert_eq!(parse_error_line("0 1\n2 2 1e308\n"), 2);
        match read_edge_list("0 1 1e308\n1 0 1e308\n".as_bytes()) {
            Err(IoError::Parse(_, msg)) => assert!(msg.contains("0-1"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
        let el = read_edge_list("0 1 1e308\n1 2 1e308\n0 2 1e308\n".as_bytes()).unwrap();
        assert_eq!(el.num_edges(), 3);
    }

    #[test]
    fn header_beyond_the_id_space_is_rejected() {
        assert_eq!(parse_error_line("0 1\n# n 4294967296\n"), 2);
    }

    #[test]
    fn id_beyond_the_id_space_is_rejected() {
        // `4294967295` would imply a vertex count of 2^32.
        assert_eq!(parse_error_line("0 1\n4294967295 0\n1 4294967295\n"), 2);
        assert_eq!(parse_error_line("# n 4294967295\n0 4294967295\n"), 2);
        let el = read_edge_list("4294967294 0\n".as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), u32::MAX as usize);
    }

    #[test]
    fn roundtrip() {
        let mut b = EdgeListBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 0.5);
        b.add_edge(5, 5, 2.0);
        let el = b.build();
        let mut buf = Vec::new();
        write_edge_list(&el, &mut buf).unwrap();
        let el2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(el2.num_vertices(), 6);
        assert_eq!(el2.num_edges(), 3);
        assert_eq!(el2.total_weight(), el.total_weight());
    }

    #[test]
    fn empty_input() {
        let el = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
    }
}
