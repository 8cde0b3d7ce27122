//! Canonical FNV-1a fingerprints for run identity.
//!
//! Every place in the workspace that needs a compact, stable digest — cell
//! seeds in the sweep runner, the large-n state-bit goldens, and the serving
//! tier's content-addressed run keys — hashes through this one module, so
//! the key schema is defined exactly once.
//!
//! The hash is 64-bit FNV-1a (offset basis `0xcbf2_9ce4_8422_2325`, prime
//! `0x0000_0100_0000_01b3`), folded byte-at-a-time. Multi-byte integers are
//! fed little-endian; `f64`s are fed as their IEEE-754 bit patterns, which is
//! what makes fingerprints of final states *bit-for-bit* comparisons rather
//! than approximate ones.
//!
//! # Examples
//!
//! ```
//! use iabc_graph::fingerprint::{self, Fnv64};
//!
//! // Incremental and one-shot hashing agree.
//! let mut h = Fnv64::new();
//! h.write(b"census[n=4,f=1]");
//! assert_eq!(h.finish(), fingerprint::bytes(b"census[n=4,f=1]"));
//! ```

use crate::{CompiledTopology, NodeSet};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// Not a `std::hash::Hasher`: the std trait reserves the right to change
/// per-type encodings between releases, while run identities must be stable
/// across builds. Every `write_*` method documents its exact byte feed.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.write(&[v])
    }

    /// Folds a `u32` as 4 little-endian bytes.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Folds a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Folds a `usize` widened to `u64` (8 little-endian bytes), so the
    /// fingerprint is identical on 32- and 64-bit hosts.
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Folds an `f64` as the 8 little-endian bytes of its IEEE-754 bit
    /// pattern. Distinguishes `+0.0` from `-0.0` and every NaN payload —
    /// exactly the bit-for-bit contract the engines are pinned to.
    pub fn write_f64_bits(&mut self, v: f64) -> &mut Self {
        self.write(&v.to_bits().to_le_bytes())
    }

    /// Folds a string as its UTF-8 bytes, length-prefixed (u64 LE) so that
    /// adjacent strings can't alias (`"ab", "c"` vs `"a", "bc"`).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_usize(s.len());
        self.write(s.as_bytes())
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a over raw bytes.
pub fn bytes(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(data);
    h.finish()
}

/// FNV-1a over a state vector's f64 bit patterns.
///
/// This is the fingerprint the large-n engine goldens pin (per-value
/// `to_bits().to_le_bytes()`, no length prefix — the byte feed predates this
/// module and the goldens must not move).
pub fn state_bits(states: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    for &v in states {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Fingerprint of a compiled topology plus its fault set.
///
/// Covers the CSR exactly as the engines consume it: node count, in-edge
/// offsets, in-neighbor lists, per-node fault flags, and the faulty-edge
/// sub-CSR. Two `(Digraph, NodeSet)` pairs that compile to the same
/// execution shape fingerprint identically; anything that changes a single
/// gather slot changes the digest. The bytes are those `TopologyFeed`
/// folds, row by row.
pub fn topology(topo: &CompiledTopology) -> u64 {
    let mut feed = TopologyFeed::new(topo.node_count(), |v| topo.is_faulty(v));
    for v in 0..topo.node_count() {
        feed.row(topo.in_neighbors_of(v));
    }
    feed.finish()
}

/// The byte feed of [`topology`], fed one in-neighbour row at a time, so a
/// caller holding CSR rows (`parse::InRows::fingerprint`) hashes them
/// without compiling a [`CompiledTopology`]. This is the only copy of the
/// feed: both fingerprints go through it.
///
/// For `n` nodes it folds `n` (as a `usize`), then for each node `v` in
/// id order: the offset of `v`'s row in the concatenated rows, each
/// in-neighbour (`u32`), `v`'s fault flag (`u8`), the offset of `v`'s run
/// in the faulty-edge sub-CSR, and for each faulty in-neighbour its
/// `(slot, sender)` pair (`u32`, `u32`), `slot` being its position in the
/// row.
#[derive(Debug, Clone)]
pub(crate) struct TopologyFeed<F> {
    hasher: Fnv64,
    is_faulty: F,
    /// The node whose row comes next.
    node: usize,
    /// Edges in the rows fed so far.
    offset: usize,
    /// Faulty in-edges in the rows fed so far.
    faulty_offset: usize,
    /// The current row's faulty `(slot, sender)` pairs, found while its
    /// neighbours are folded and folded after its fault flag.
    faulty: Vec<(u32, u32)>,
}

impl<F: Fn(usize) -> bool> TopologyFeed<F> {
    /// A feed for `n` nodes; `is_faulty(v)` is node `v`'s fault flag.
    pub(crate) fn new(n: usize, is_faulty: F) -> Self {
        let mut hasher = Fnv64::new();
        hasher.write_usize(n);
        Self {
            hasher,
            is_faulty,
            node: 0,
            offset: 0,
            faulty_offset: 0,
            faulty: Vec::new(),
        }
    }

    /// Folds the next node's in-neighbours, strictly ascending. Rows
    /// arrive in node order, one per node.
    pub(crate) fn row(&mut self, row: &[u32]) {
        let h = &mut self.hasher;
        h.write_usize(self.offset);
        self.faulty.clear();
        for (slot, &sender) in row.iter().enumerate() {
            h.write_u32(sender);
            if (self.is_faulty)(sender as usize) {
                self.faulty.push((slot as u32, sender));
            }
        }
        h.write_u8(u8::from((self.is_faulty)(self.node)));
        h.write_usize(self.faulty_offset);
        for &(slot, sender) in &self.faulty {
            h.write_u32(slot);
            h.write_u32(sender);
        }
        self.faulty_offset += self.faulty.len();
        self.offset += row.len();
        self.node += 1;
    }

    /// The digest of the rows fed so far.
    pub(crate) fn finish(&self) -> u64 {
        self.hasher.finish()
    }
}

/// Fingerprint of a fault set alone: universe size plus the sorted member
/// indices.
pub fn fault_set(faults: &NodeSet) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(faults.universe());
    for idx in faults.to_indices() {
        h.write_usize(idx);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn matches_reference_fnv1a_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn state_bits_is_byte_equivalent_to_manual_fold() {
        let states = [1.5f64, -0.0, f64::NAN, 7.25e300];
        let mut hash = FNV_OFFSET;
        for &v in &states {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        assert_eq!(state_bits(&states), hash);
    }

    #[test]
    fn topology_distinguishes_fault_placement() {
        let g = generators::complete(5);
        let a = CompiledTopology::compile(&g, &NodeSet::from_indices(5, [0]));
        let b = CompiledTopology::compile(&g, &NodeSet::from_indices(5, [1]));
        let c = CompiledTopology::compile(&g, &NodeSet::from_indices(5, [0]));
        assert_ne!(topology(&a), topology(&b));
        assert_eq!(topology(&a), topology(&c));
    }

    #[test]
    fn topology_distinguishes_edge_sets() {
        let faults = NodeSet::with_universe(6);
        let ring = CompiledTopology::compile(&generators::circulant(6, [1]), &faults);
        let chord = CompiledTopology::compile(&generators::circulant(6, [1, 2]), &faults);
        assert_ne!(topology(&ring), topology(&chord));
    }

    #[test]
    fn write_str_prefixes_length_against_aliasing() {
        let mut ab_c = Fnv64::new();
        ab_c.write_str("ab").write_str("c");
        let mut a_bc = Fnv64::new();
        a_bc.write_str("a").write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn fault_set_covers_universe_and_members() {
        let a = fault_set(&NodeSet::from_indices(8, [1, 3]));
        let b = fault_set(&NodeSet::from_indices(9, [1, 3]));
        let c = fault_set(&NodeSet::from_indices(8, [1, 4]));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
