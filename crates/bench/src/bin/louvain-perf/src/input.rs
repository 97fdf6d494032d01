//! The input text the program under test receives. Each workload is one
//! fixed graph, as the paper's datasets are; `--seed` picks the order of
//! the edge-list lines and the orientation of each edge. The parser
//! canonicalizes and sorts, so every seed must parse back to the same
//! graph and every solve must give the same answer. Seeds therefore vary
//! the bytes the program reads but not the work it does, and the spread
//! across seeds is measurement noise.

use louvain_graph::io::write_edge_list;
use louvain_graph::EdgeList;

/// SplitMix64: a small, well-mixed, seedable generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by widening multiplication.
    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }
}

/// Renders `edges` with `write_edge_list`, then shuffles the edge lines
/// (the `# n` header stays first) and swaps the endpoints of about half
/// of them, as `seed` dictates.
pub fn render(edges: &EdgeList, seed: u64) -> Vec<u8> {
    let mut text = Vec::new();
    write_edge_list(edges, &mut text).expect("rendering into memory cannot fail");
    let text = String::from_utf8(text).expect("edge-list text is ASCII");
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let mut body: Vec<&str> = lines.collect();
    let mut rng = SplitMix64(seed);
    for i in (1..body.len()).rev() {
        body.swap(i, rng.below(i + 1));
    }
    let mut out = String::with_capacity(text.len());
    out.push_str(header);
    out.push('\n');
    for line in body {
        let mut fields = line.splitn(3, ' ');
        match (fields.next(), fields.next(), fields.next()) {
            (Some(u), Some(v), rest) if rng.next() & 1 == 1 => {
                out.push_str(v);
                out.push(' ');
                out.push_str(u);
                if let Some(w) = rest {
                    out.push(' ');
                    out.push_str(w);
                }
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_graph::io::read_edge_list;
    use louvain_graph::EdgeListBuilder;

    #[test]
    fn every_seed_parses_back_to_the_same_graph() {
        let mut b = EdgeListBuilder::new(6);
        for (u, v, w) in [
            (0, 1, 1.0),
            (1, 2, 2.5),
            (3, 4, 1.0),
            (5, 5, 1.0),
            (0, 5, 0.25),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let texts: Vec<Vec<u8>> = (0..4).map(|s| render(&g, s)).collect();
        for t in &texts {
            let back = read_edge_list(t.as_slice()).unwrap();
            assert_eq!(back.num_vertices(), g.num_vertices());
            assert_eq!(back.edges(), g.edges());
        }
        assert!(
            texts.windows(2).any(|p| p[0] != p[1]),
            "seeds vary the text"
        );
        assert_eq!(render(&g, 3), texts[3], "a seed always gives the same text");
    }
}
