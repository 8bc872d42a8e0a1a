//! Paged sparse memory.

use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse 64-bit byte-addressable memory backed by 4 KiB pages.
///
/// Reads of untouched memory return zero; pages are allocated on first write.
/// Multi-byte accesses may span page boundaries.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only: pages are probed by page number, never iterated"
    )]
    pages: std::collections::HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

/// A fixed multiplicative hasher for page numbers (one rotate, xor and
/// multiply per word, as in rustc's FxHash). Page numbers are
/// program-chosen, not adversarial, so SipHash's flooding resistance buys
/// nothing here, and the map is never iterated, so the hash cannot reach
/// any output.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl PageHasher {
    /// The 64-bit golden-ratio constant (odd, so the multiply is a
    /// bijection that spreads consecutive page numbers apart).
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for PageHasher {
    /// The product's low bits depend only on the key's low bits, and the
    /// map picks buckets by low bits: rotating the well-mixed high bits
    /// down keeps page numbers with a power-of-two stride apart.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Number of resident (written-to) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// The page holding `addr`, allocated (zeroed) on first touch.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian `u64` at `addr` (no alignment requirement).
    pub fn read_u64(&self, addr: u64) -> u64 {
        // Fast path: whole word within one resident page.
        let off = (addr & PAGE_MASK) as usize;
        if off + 8 <= PAGE_SIZE {
            return match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => p[off..off + 8].try_into().map(u64::from_le_bytes).unwrap_or(0),
                None => 0,
            };
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian `u64` at `addr` (no alignment requirement).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        let bytes = value.to_le_bytes();
        if off + 8 <= PAGE_SIZE {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&bytes);
            return;
        }
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Reads an `f64` stored at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies a byte slice into memory starting at `addr`, a page at a
    /// time: one page lookup and one block copy per touched page, so
    /// loading an image costs O(pages), not O(bytes). Addresses wrap past
    /// `u64::MAX` to 0, and an empty slice allocates no page.
    pub fn write_bytes(&mut self, mut addr: u64, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
            // Every chunk but the last fills its page, so the next one
            // starts at the next page boundary.
            addr = (addr | PAGE_MASK).wrapping_add(1);
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = SparseMemory::new();
        m.write_u64(64, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(64), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(64), 0xef, "little-endian layout");
    }

    #[test]
    fn page_boundary_straddle() {
        let mut m = SparseMemory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // last 3 bytes of page 0
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = SparseMemory::new();
        m.write_f64(8, -1234.5e-6);
        assert_eq!(m.read_f64(8), -1234.5e-6);
    }

    /// Page numbers 2^16 apart share their low 16 bits; the map indexes
    /// buckets by the hash's low bits, so those must still differ.
    #[test]
    fn strided_page_numbers_spread_over_the_low_hash_bits() {
        let buckets: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|i| {
                let mut h = PageHasher::default();
                h.write_u64(i << 16);
                h.finish() & 63
            })
            .collect();
        assert!(buckets.len() >= 32, "64 strided pages fill only {} of 64 buckets", buckets.len());
    }

    #[test]
    fn write_bytes_places_each_byte() {
        let mut m = SparseMemory::new();
        m.write_bytes(10, &[1, 2, 3]);
        assert_eq!(m.read_u8(10), 1);
        assert_eq!(m.read_u8(11), 2);
        assert_eq!(m.read_u8(12), 3);
    }
}
