//! Plain-text edge-list serialization.
//!
//! Format: the first significant line is `n` (the node count); every
//! following significant line is `u v` (one directed edge `u → v`). This
//! is the interchange format the experiment harness snapshots witness
//! graphs in, and the form a serve job carries its topology in.
//!
//! - Lines end at `\n`, and line numbers in errors count every line.
//! - Blank lines are skipped, and so is a line whose first non-whitespace
//!   character is `#`.
//! - Fields are separated by runs of any `char::is_whitespace` character:
//!   space, `\t`, `\r` (so CRLF files parse), `\x0B`, `\x0C`, and
//!   non-ASCII whitespace such as U+00A0 and U+3000.
//! - A node id or count is what `str::parse::<usize>` accepts: decimal
//!   digits with an optional leading `+`; leading zeros are fine and a
//!   value past `usize::MAX` is an error.
//! - A repeated edge is merged, not rejected: the graph keeps one copy.
//!
//! One tokenizer reads the format in a single byte pass. It feeds two
//! consumers: [`parse_edge_list`] builds a [`Digraph`], and [`in_rows`]
//! buckets the edges by target straight into the in-neighbour CSR rows a
//! [`CompiledTopology`] is built from, with no `Digraph` in between. Both
//! accept and reject the same texts with the same errors.

use crate::{CompiledTopology, Digraph, GraphError, NodeId, NodeSet};

/// Serializes a graph to the edge-list format (round-trips with
/// [`parse_edge_list`]).
///
/// # Examples
///
/// ```
/// use iabc_graph::{generators, parse};
/// let g = generators::cycle(3);
/// let text = parse::to_edge_list(&g);
/// let back = parse::parse_edge_list(&text)?;
/// assert_eq!(g, back);
/// # Ok::<(), iabc_graph::GraphError>(())
/// ```
pub fn to_edge_list(g: &Digraph) -> String {
    let mut out = format!(
        "# iabc digraph: n={} m={}\n{}\n",
        g.node_count(),
        g.edge_count(),
        g.node_count()
    );
    for (u, v) in g.edges() {
        out.push_str(&format!("{} {}\n", u.index(), v.index()));
    }
    out
}

/// Parses the edge-list format produced by [`to_edge_list`].
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed input (a missing or
/// malformed count line, a line that is not two integers),
/// [`GraphError::NodeOutOfRange`] for an id `>= n` and
/// [`GraphError::SelfLoop`] for `v v`, at the first offending line.
pub fn parse_edge_list(text: &str) -> Result<Digraph, GraphError> {
    read_edge_list(text, Digraph::new, |graph, u, v| {
        graph.add_edge(NodeId::new(u), NodeId::new(v));
    })
}

/// An edge list's in-adjacency as CSR rows: for every node, the sources
/// of its in-edges in the order the text lists them. Compile it against a
/// fault set with [`InRows::compile`]; the fault set can only be built
/// once [`InRows::node_count`] is known.
#[derive(Debug, Clone)]
pub struct InRows {
    n: usize,
    /// `offsets[v]..offsets[v + 1]` indexes node `v`'s row in `sources`.
    offsets: Vec<u32>,
    sources: Vec<u32>,
}

/// Reads an edge list straight into in-neighbour CSR rows, with no
/// [`Digraph`]: the tokenizer behind [`parse_edge_list`], feeding a
/// counting sort by target.
///
/// # Errors
///
/// Exactly those of [`parse_edge_list`] on the same text.
///
/// # Panics
///
/// Panics if the declared node count exceeds `u32::MAX`, the bound every
/// [`CompiledTopology`] has.
///
/// # Examples
///
/// ```
/// use iabc_graph::{generators, parse, CompiledTopology, NodeSet};
///
/// let g = generators::chord(7, 3);
/// let text = parse::to_edge_list(&g);
/// let faults = NodeSet::from_indices(7, [2]);
/// let rows = parse::in_rows(&text)?;
/// assert_eq!(rows.node_count(), 7);
/// assert_eq!(rows.compile(&faults), CompiledTopology::compile(&g, &faults));
/// # Ok::<(), iabc_graph::GraphError>(())
/// ```
pub fn in_rows(text: &str) -> Result<InRows, GraphError> {
    // Each line holds at most one edge, so the line count sizes the edge
    // buffer once. Counting in 255-byte chunks lets the count vectorize.
    let lines: usize = text
        .as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
        .sum();
    // Counting sort by target: `offsets[v + 2]` counts `v`'s in-edges.
    let (edges, mut offsets) = read_edge_list(
        text,
        |n| {
            // Ids are below `n`, so they fit the `u32` edge buffer too.
            assert!(u32::try_from(n).is_ok(), "node count exceeds u32");
            (Vec::with_capacity(lines + 1), vec![0u32; n + 2])
        },
        |(edges, offsets), u, v| {
            offsets[v + 2] += 1;
            edges.push((u as u32, v as u32));
        },
    )?;
    // After the prefix sum `offsets[v + 1]` is row `v`'s start. The
    // scatter advances it to the row's end, which is row `v + 1`'s start.
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut sources = vec![0u32; edges.len()];
    for (u, v) in edges {
        let cursor = &mut offsets[v as usize + 1];
        sources[*cursor as usize] = u;
        *cursor += 1;
    }
    offsets.pop();
    Ok(InRows {
        n: offsets.len() - 1,
        offsets,
        sources,
    })
}

impl InRows {
    /// Number of nodes the count line declared.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Compiles the rows and `faults` into a [`CompiledTopology`], equal
    /// to compiling the [`parse_edge_list`] graph of the same text. A row
    /// that arrived out of order is sorted, and a repeated edge merged,
    /// on the way in.
    ///
    /// # Panics
    ///
    /// Panics if the fault set universe differs from the node count.
    pub fn compile(&self, faults: &NodeSet) -> CompiledTopology {
        CompiledTopology::from_in_rows(self.n, faults, |v, row| {
            row.extend_from_slice(
                &self.sources[self.offsets[v] as usize..self.offsets[v + 1] as usize],
            );
            if !row.windows(2).all(|w| w[0] < w[1]) {
                row.sort_unstable();
                row.dedup();
            }
        })
    }
}

/// The one edge-list tokenizer, a single forward pass over the bytes. It
/// reads the count line and builds the consumer's state with `start(n)`,
/// then hands `edge` every edge `(u, v)` in text order. Each edge has
/// passed the checks [`Digraph::try_add_edge`] makes, in its order: `u`
/// in range, `v` in range, `u != v`.
///
/// A line spelled exactly `u v\n`, with one space and at most 9 plain
/// digits per id, is read in place. Any other line (other whitespace, a
/// sign, a longer id, a comment, or an error) goes through [`Lines`],
/// which implements the whole format; both read a plain line the same.
fn read_edge_list<T>(
    text: &str,
    start: impl FnOnce(usize) -> T,
    mut edge: impl FnMut(&mut T, usize, usize),
) -> Result<T, GraphError> {
    let mut lines = Lines {
        text,
        pos: 0,
        number: 1,
    };
    let count = lines.next().ok_or_else(|| GraphError::Parse {
        line: 0,
        message: "empty input: missing node count".into(),
    })?;
    let n = match count.first.value {
        Some(n) if count.fields == 1 => n,
        _ => return Err(count.error(text, "expected node count")),
    };
    let mut state = start(n);
    let bytes = text.as_bytes();
    loop {
        while let Some((u, v, next)) = plain_edge(bytes, lines.pos, n) {
            edge(&mut state, u, v);
            lines.pos = next;
            lines.number += 1;
        }
        let Some(line) = lines.next() else {
            return Ok(state);
        };
        let (u, v) = line.edge(text, n)?;
        edge(&mut state, u, v);
    }
}

/// The valid edge on a line spelled exactly `u v\n` (or `u v` at the end
/// of the text) starting at `pos`, and the position after it. `None`
/// hands the line to [`Lines`]: another spelling, or an edge it must
/// reject.
#[inline]
fn plain_edge(bytes: &[u8], pos: usize, n: usize) -> Option<(usize, usize, usize)> {
    let (u, pos) = plain_id(bytes, pos)?;
    if bytes.get(pos) != Some(&b' ') {
        return None;
    }
    let (v, pos) = plain_id(bytes, pos + 1)?;
    let next = match bytes.get(pos) {
        Some(b'\n') => pos + 1,
        None => pos,
        Some(_) => return None,
    };
    (u < n && v < n && u != v).then_some((u, v, next))
}

/// One to nine ASCII digits at `pos` and the position after them. Nine
/// digits never overflow a `usize` of 32 bits or more.
#[inline]
fn plain_id(bytes: &[u8], pos: usize) -> Option<(usize, usize)> {
    let mut value = 0;
    let mut end = pos;
    while let Some(digit) = bytes
        .get(end)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d < 10)
    {
        if end - pos == 9 {
            return None;
        }
        value = value * 10 + usize::from(digit);
        end += 1;
    }
    (end > pos).then_some((value, end))
}

/// The general line reader: every line the format allows, and every
/// error it reports.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based number of the line `pos` is on.
    number: usize,
}

/// One significant line, split into whitespace-separated fields.
struct Line {
    number: usize,
    /// Where the last field ends: the line with surrounding whitespace
    /// trimmed is `first.start..end`.
    end: usize,
    /// Number of fields, counted up to 3.
    fields: usize,
    first: Field,
    second: Field,
}

/// A field's byte range and its value as `str::parse::<usize>` gives it
/// (`None` where that fails).
#[derive(Clone, Copy)]
struct Field {
    start: usize,
    end: usize,
    value: Option<usize>,
}

impl Line {
    fn error(&self, text: &str, expected: &str) -> GraphError {
        GraphError::Parse {
            line: self.number,
            message: format!("{expected}, found {:?}", &text[self.first.start..self.end]),
        }
    }

    /// The line read as an edge of an `n`-node graph.
    fn edge(&self, text: &str, n: usize) -> Result<(usize, usize), GraphError> {
        if self.fields != 2 {
            return Err(self.error(text, "expected `u v`"));
        }
        let id = |field: Field| {
            field.value.ok_or_else(|| GraphError::Parse {
                line: self.number,
                message: format!(
                    "expected integer node id, found {:?}",
                    &text[field.start..field.end]
                ),
            })
        };
        let (u, v) = (id(self.first)?, id(self.second)?);
        for node in [u, v] {
            if node >= n {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        Ok((u, v))
    }
}

impl Lines<'_> {
    /// Advances past the next significant line (not blank, not a comment)
    /// and returns its fields, or `None` at the end of the text.
    fn next(&mut self) -> Option<Line> {
        let bytes = self.text.as_bytes();
        let unset = Field {
            start: 0,
            end: 0,
            value: None,
        };
        while self.pos < bytes.len() {
            let mut line = Line {
                number: self.number,
                end: 0,
                fields: 0,
                first: unset,
                second: unset,
            };
            loop {
                self.skip_blanks();
                match bytes.get(self.pos) {
                    None => break,
                    Some(b'\n') => {
                        self.pos += 1;
                        self.number += 1;
                        break;
                    }
                    Some(b'#') if line.fields == 0 => {
                        self.pos = bytes[self.pos..]
                            .iter()
                            .position(|&b| b == b'\n')
                            .map_or(bytes.len(), |at| self.pos + at);
                    }
                    Some(_) => {
                        let field = self.field();
                        match line.fields {
                            0 => line.first = field,
                            1 => line.second = field,
                            _ => {}
                        }
                        line.end = field.end;
                        line.fields = (line.fields + 1).min(3);
                    }
                }
            }
            if line.fields > 0 {
                return Some(line);
            }
        }
        None
    }

    /// Skips whitespace up to the next field or line end.
    fn skip_blanks(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            match b {
                b' ' | b'\t' | b'\r' | b'\x0B' | b'\x0C' => self.pos += 1,
                0x80.. => match self.wide_char() {
                    (true, len) => self.pos += len,
                    (false, _) => return,
                },
                _ => return,
            }
        }
    }

    /// Whether the non-ASCII character at `pos` is whitespace, and its
    /// UTF-8 length.
    fn wide_char(&self) -> (bool, usize) {
        let c = self.text[self.pos..]
            .chars()
            .next()
            .expect("callers saw a byte at `pos`");
        (c.is_whitespace(), c.len_utf8())
    }

    /// Reads the field at `pos`: a maximal run of non-whitespace.
    fn field(&mut self) -> Field {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes[start] == b'+' {
            self.pos += 1;
        }
        let digits_from = self.pos;
        let mut value = Some(0usize);
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    value = value
                        .and_then(|v| v.checked_mul(10))
                        .and_then(|v| v.checked_add(usize::from(b - b'0')));
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\n' | b'\r' | b'\x0B' | b'\x0C' => break,
                0x80.. => match self.wide_char() {
                    (true, _) => break,
                    (false, len) => {
                        value = None;
                        self.pos += len;
                    }
                },
                _ => {
                    value = None;
                    self.pos += 1;
                }
            }
        }
        if self.pos == digits_from {
            value = None;
        }
        Field {
            start,
            end: self.pos,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fingerprint, generators};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_preserves_graph() {
        for g in [
            generators::complete(5),
            generators::chord(7, 5),
            generators::hypercube(3),
            Digraph::new(4),
        ] {
            let text = to_edge_list(&g);
            assert_eq!(parse_edge_list(&text).unwrap(), g);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_edge_list("# header\n\n3\n# edge below\n0 1\n\n1 2\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn malformed_count_is_parse_error() {
        let err = parse_edge_list("abc\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn malformed_edge_is_parse_error() {
        let err = parse_edge_list("3\n0 1 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let err = parse_edge_list("3\n0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let err = parse_edge_list("3\n0 x\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn out_of_range_edge_propagates() {
        let err = parse_edge_list("2\n0 5\n").unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    #[test]
    fn empty_input_is_error() {
        assert!(parse_edge_list("# only comments\n").is_err());
    }

    /// What the line-by-line parser (`lines` / `trim` / `split_whitespace`
    /// / `str::parse`) this tokenizer replaced returned on each text, as
    /// its `Debug` form.
    const PINNED: &[(&str, &str)] = &[
        (
            "",
            r##"Err(Parse { line: 0, message: "empty input: missing node count" })"##,
        ),
        (
            "# only comments\n\n",
            r##"Err(Parse { line: 0, message: "empty input: missing node count" })"##,
        ),
        (
            "abc\n",
            r##"Err(Parse { line: 1, message: "expected node count, found \"abc\"" })"##,
        ),
        (
            "3 4\n",
            r##"Err(Parse { line: 1, message: "expected node count, found \"3 4\"" })"##,
        ),
        (
            "-3\n",
            r##"Err(Parse { line: 1, message: "expected node count, found \"-3\"" })"##,
        ),
        ("+3\n0 1\n", r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##),
        ("003\n2 0\n", r##"Ok(Digraph { n: 3, edges: [(2, 0)] })"##),
        (
            "\u{feff}3\n",
            r##"Err(Parse { line: 1, message: "expected node count, found \"\\u{feff}3\"" })"##,
        ),
        (
            "99999999999999999999\n",
            r##"Err(Parse { line: 1, message: "expected node count, found \"99999999999999999999\"" })"##,
        ),
        (
            "3\n0\n",
            r##"Err(Parse { line: 2, message: "expected `u v`, found \"0\"" })"##,
        ),
        (
            "3\n0 1 2\n",
            r##"Err(Parse { line: 2, message: "expected `u v`, found \"0 1 2\"" })"##,
        ),
        (
            "3\n0 1 # trailing comment\n",
            r##"Err(Parse { line: 2, message: "expected `u v`, found \"0 1 # trailing comment\"" })"##,
        ),
        (
            "3\n0 x\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"x\"" })"##,
        ),
        (
            "3\nx 9\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"x\"" })"##,
        ),
        (
            "3\n5 x\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"x\"" })"##,
        ),
        ("3\n5 7\n", r##"Err(NodeOutOfRange { node: 5, n: 3 })"##),
        ("3\n1 7\n", r##"Err(NodeOutOfRange { node: 7, n: 3 })"##),
        ("3\n1 1\n", r##"Err(SelfLoop { node: 1 })"##),
        ("3\n5 5\n", r##"Err(NodeOutOfRange { node: 5, n: 3 })"##),
        (
            "3\n99999999999999999999 1\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"99999999999999999999\"" })"##,
        ),
        (
            "3\n1 18446744073709551616\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"18446744073709551616\"" })"##,
        ),
        (
            "3\n4294967296 1\n",
            r##"Err(NodeOutOfRange { node: 4294967296, n: 3 })"##,
        ),
        ("3\n+1 02\n", r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##),
        (
            "3\n++1 2\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"++1\"" })"##,
        ),
        (
            "3\n0 +\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"+\"" })"##,
        ),
        (
            "3\n0 -0\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"-0\"" })"##,
        ),
        (
            "3\n0 #1\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"#1\"" })"##,
        ),
        (
            "3\n٣ 1\n",
            r##"Err(Parse { line: 2, message: "expected integer node id, found \"٣\"" })"##,
        ),
        ("3\n0\u{b}1\n", r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##),
        (
            "3\n0\u{c}1\u{85}\n",
            r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##,
        ),
        (
            "3\n\u{a0}0\u{a0}1\u{a0}\n",
            r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##,
        ),
        (
            "3\n0\u{3000}1\u{3000}\n",
            r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##,
        ),
        (
            "3\n1\u{2028}2\n",
            r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##,
        ),
        ("3\n0\r1\n", r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##),
        (
            "3\r\n0 1\r\n1 2\r\n",
            r##"Ok(Digraph { n: 3, edges: [(0, 1), (1, 2)] })"##,
        ),
        (
            "3\r0 1\r",
            r##"Err(Parse { line: 1, message: "expected node count, found \"3\\r0 1\"" })"##,
        ),
        (
            "3\n0 1\n0 1\n1 0\n",
            r##"Ok(Digraph { n: 3, edges: [(0, 1), (1, 0)] })"##,
        ),
        (
            "3\n  # indented\n\t0 1\n",
            r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##,
        ),
        ("3\n0 1", r##"Ok(Digraph { n: 3, edges: [(0, 1)] })"##),
        (
            "\n\n3\n\n\nx\n",
            r##"Err(Parse { line: 6, message: "expected `u v`, found \"x\"" })"##,
        ),
        (
            "3\n0 1\n\0\n",
            r##"Err(Parse { line: 3, message: "expected `u v`, found \"\\0\"" })"##,
        ),
        ("0\n", r##"Ok(Digraph { n: 0, edges: [] })"##),
        ("0\n0 0\n", r##"Err(NodeOutOfRange { node: 0, n: 0 })"##),
        ("1\n0 0\n", r##"Err(SelfLoop { node: 0 })"##),
        (
            "2\n1\u{1c}0\n",
            r##"Err(Parse { line: 2, message: "expected `u v`, found \"1\\u{1c}0\"" })"##,
        ),
        (
            "2\n1\u{2}0\n",
            r##"Err(Parse { line: 2, message: "expected `u v`, found \"1\\u{2}0\"" })"##,
        ),
        (
            "3\n000000001 2\n",
            r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##,
        ),
        (
            "3\n0000000001 2\n",
            r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##,
        ),
        (
            "3\n1 000000002\n2 0",
            r##"Ok(Digraph { n: 3, edges: [(1, 2), (2, 0)] })"##,
        ),
        ("3\n1 2 \n", r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##),
        ("3\n1  2\n", r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##),
        ("3\n1 2\r\n", r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##),
        ("3\n 1 2\n", r##"Ok(Digraph { n: 3, edges: [(1, 2)] })"##),
        (
            "3\n1 2\n1 3\n",
            r##"Err(NodeOutOfRange { node: 3, n: 3 })"##,
        ),
        ("3\n1 2\n2 2\n", r##"Err(SelfLoop { node: 2 })"##),
        (
            "3\n1 2\n123456789 0\n",
            r##"Err(NodeOutOfRange { node: 123456789, n: 3 })"##,
        ),
        (
            "3\n1 2\n1234567890 0\n",
            r##"Err(NodeOutOfRange { node: 1234567890, n: 3 })"##,
        ),
        (
            "3\n1 2\n1 2 3\n",
            r##"Err(Parse { line: 3, message: "expected `u v`, found \"1 2 3\"" })"##,
        ),
        (
            "3\n1 2\n1\n",
            r##"Err(Parse { line: 3, message: "expected `u v`, found \"1\"" })"##,
        ),
        (
            "3\n1 2\n1 \n",
            r##"Err(Parse { line: 3, message: "expected `u v`, found \"1\"" })"##,
        ),
        (
            "3\n1 2\n1 x\n",
            r##"Err(Parse { line: 3, message: "expected integer node id, found \"x\"" })"##,
        ),
        (
            "3\n1 2\n#\n2 1\n",
            r##"Ok(Digraph { n: 3, edges: [(1, 2), (2, 1)] })"##,
        ),
    ];

    /// Both consumers of the tokenizer agree with the line parser on every
    /// pinned text.
    #[test]
    fn tokenizer_accepts_and_rejects_what_the_line_parser_did() {
        for &(text, want) in PINNED {
            assert_eq!(format!("{:?}", parse_edge_list(text)), want, "{text:?}");
            assert_consumers_agree(text, &[]);
        }
    }

    /// Both consumers of the tokenizer agree: the same compiled topology
    /// and fingerprint, or the same error.
    fn assert_consumers_agree(text: &str, faulty: &[usize]) {
        let via_digraph = parse_edge_list(text).map(|g| {
            let faults = NodeSet::from_indices(g.node_count(), faulty.iter().copied());
            CompiledTopology::compile(&g, &faults)
        });
        let via_rows = in_rows(text).map(|rows| {
            let faults = NodeSet::from_indices(rows.node_count(), faulty.iter().copied());
            rows.compile(&faults)
        });
        match (&via_digraph, &via_rows) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{text:?}");
                assert_eq!(fingerprint::topology(a), fingerprint::topology(b));
            }
            _ => assert_eq!(via_digraph, via_rows, "{text:?}"),
        }
    }

    /// A random digraph written as an edge list the long way round: its
    /// lines shuffled and some repeated. Half the lines are plain `u v`
    /// (the tokenizer's in-place case); in the rest each id is spelled
    /// with a `+`, leading zeros or neither, between runs of ASCII and
    /// non-ASCII whitespace.
    fn scrambled_edge_list(rng: &mut StdRng, g: &Digraph) -> String {
        const SPACES: [&str; 8] = [
            " ", "\t", "  ", "\u{b}", "\u{c}", "\u{a0}", "\u{3000}", "\r",
        ];
        let spell = |rng: &mut StdRng, id: usize| match rng.random_range(0..4) {
            0 => format!("+{id}"),
            1 => format!("{id:03}"),
            2 => format!("+00{id}"),
            _ => id.to_string(),
        };
        let mut lines: Vec<(usize, usize)> =
            g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        let copies: Vec<(usize, usize)> = lines
            .iter()
            .filter(|_| rng.random_bool(0.2))
            .copied()
            .collect();
        lines.extend(copies);
        lines.shuffle(rng);
        let mut text = format!(
            "# n={}\r\n\n {} \n",
            g.node_count(),
            spell(rng, g.node_count())
        );
        for (u, v) in lines {
            if rng.random_bool(0.5) {
                text.push_str(&format!("{u} {v:02}\n"));
                continue;
            }
            let pad = |rng: &mut StdRng| SPACES[rng.random_range(0..SPACES.len())];
            text.push_str(pad(rng));
            text.push_str(&spell(rng, u));
            text.push_str(pad(rng));
            text.push_str(pad(rng));
            text.push_str(&spell(rng, v));
            text.push_str(if rng.random_bool(0.3) { "\r\n" } else { "\n" });
            if rng.random_bool(0.05) {
                text.push_str("  # a comment\n\n");
            }
        }
        text
    }

    #[test]
    fn scrambled_random_digraphs_parse_to_the_same_topology() {
        let mut rng = StdRng::seed_from_u64(0x1abc);
        for _ in 0..60 {
            let n = rng.random_range(1..40);
            let density = rng.random_range(0.05..0.9);
            let mut g = Digraph::new(n);
            for u in 0..n {
                for v in (0..n).filter(|&v| v != u) {
                    if rng.random_bool(density) {
                        g.add_edge(NodeId::new(u), NodeId::new(v));
                    }
                }
            }
            let text = scrambled_edge_list(&mut rng, &g);
            assert_eq!(parse_edge_list(&text).unwrap(), g, "{text:?}");
            let faulty: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.2)).collect();
            assert_consumers_agree(&text, &faulty);
        }
    }
}
