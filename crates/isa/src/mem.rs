//! Paged sparse memory, and the copy-on-write pages it shares with the
//! data segments of [`Program`](crate::Program)s.

use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// One 4 KiB page of bytes.
type Page = [u8; PAGE_SIZE];

/// A sparse 64-bit byte-addressable memory backed by 4 KiB pages.
///
/// Reads of untouched memory return zero; pages are allocated on first write.
/// Multi-byte accesses may span page boundaries.
///
/// Pages are shared copy-on-write: a clone of a memory, and the memory
/// [`Program::initial_memory`](crate::Program::initial_memory) builds from
/// [`Segment`]s, hold the same pages as their source until one of them
/// writes a page. That write copies only the page it lands on,
/// so a clone costs one reference count per page, never a page copy.
///
/// Two memories are equal when they hold the same resident pages with the
/// same bytes.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    #[expect(
        clippy::disallowed_types,
        reason = "pages are probed by page number; the only walk is the order-free `eq`"
    )]
    pages: std::collections::HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>,
}

impl PartialEq for SparseMemory {
    fn eq(&self, other: &SparseMemory) -> bool {
        self.pages == other.pages
    }
}

impl Eq for SparseMemory {}

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

    /// The page holding `addr`, allocated (zeroed) on first touch and
    /// copied on the first write while another memory or segment shares it.
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        Arc::make_mut(
            self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Arc::new([0; PAGE_SIZE])),
        )
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
    /// time: one page lookup and one block copy per touched page.
    /// Addresses wrap past `u64::MAX` to 0, and an empty slice allocates no
    /// page.
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

    /// Writes `segment`'s bytes over the current contents, exactly as
    /// [`write_bytes`](SparseMemory::write_bytes) of them would. A page the
    /// segment covers whole is mapped by sharing the segment's page; only
    /// the partly covered pages at its two ends are copied, so that the
    /// bytes around the segment keep their values.
    pub(crate) fn load(&mut self, segment: &Segment) {
        for (addr, span, page) in segment.spans() {
            if span.len() == PAGE_SIZE {
                self.pages.insert(addr >> PAGE_SHIFT, Arc::clone(page));
            } else {
                self.write_bytes(addr + span.start as u64, &page[span]);
            }
        }
    }
}

/// An initial-data segment: `len` bytes at `base`, held as the 4 KiB pages
/// of the address space they fall in, ready to be shared by every
/// [`SparseMemory`] that
/// [`Program::initial_memory`](crate::Program::initial_memory) builds.
///
/// The bytes of the first and last page that lie outside the segment are
/// zero, so equal segments hold equal pages and the derived equality
/// compares base and bytes. Addresses wrap past `u64::MAX` to 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    base: u64,
    len: usize,
    /// Page `i` holds the addresses from `(base & !PAGE_MASK) + i * PAGE_SIZE`.
    pages: Vec<Arc<Page>>,
}

impl Segment {
    /// Address of the segment's first byte.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// A segment holding `bytes` at `base`.
    pub(crate) fn from_bytes(base: u64, bytes: &[u8]) -> Segment {
        let mut segment = SegmentWriter::new(base);
        segment.write(bytes);
        segment.finish()
    }

    /// A segment holding `words`, little-endian, from `base`.
    pub(crate) fn from_u64s(base: u64, words: impl IntoIterator<Item = u64>) -> Segment {
        let mut segment = SegmentWriter::new(base);
        segment.write_u64s(words);
        segment.finish()
    }

    /// The segment's bytes in address order, one slice per page.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.spans().map(|(_, span, page)| &page[span])
    }

    /// `(page address, bytes of the page inside the segment, page)` for
    /// every page, in address order.
    fn spans(&self) -> impl Iterator<Item = (u64, Range<usize>, &Arc<Page>)> {
        let start = (self.base & PAGE_MASK) as usize;
        let end = start + self.len;
        let first = self.base & !PAGE_MASK;
        self.pages.iter().enumerate().map(move |(i, page)| {
            let at = i * PAGE_SIZE;
            let span = start.max(at) - at..end.min(at + PAGE_SIZE) - at;
            (first.wrapping_add(at as u64), span, page)
        })
    }
}

/// Builds a [`Segment`] from bytes appended in address order, filling one
/// page at a time: no buffer the size of the segment is ever allocated.
#[derive(Debug)]
struct SegmentWriter {
    segment: Segment,
    /// The page being filled; bytes below `fill` are written.
    page: Box<Page>,
    fill: usize,
}

impl SegmentWriter {
    /// An empty segment at `base`.
    fn new(base: u64) -> SegmentWriter {
        SegmentWriter {
            segment: Segment { base, len: 0, pages: Vec::new() },
            page: Box::new([0; PAGE_SIZE]),
            fill: (base & PAGE_MASK) as usize,
        }
    }

    /// Appends `bytes` to the segment.
    fn write(&mut self, mut bytes: &[u8]) {
        self.segment.len += bytes.len();
        while !bytes.is_empty() {
            let (chunk, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - self.fill));
            self.page[self.fill..self.fill + chunk.len()].copy_from_slice(chunk);
            self.fill += chunk.len();
            bytes = rest;
            if self.fill == PAGE_SIZE {
                self.push_page();
            }
        }
    }

    /// Appends little-endian `u64`s, a page at a time: the words that fit
    /// in the page being filled go in one tight loop, and only a word that
    /// straddles a page boundary takes the byte path.
    fn write_u64s(&mut self, words: impl IntoIterator<Item = u64>) {
        let mut words = words.into_iter();
        loop {
            let mut filled = 0;
            for (slot, word) in self.page[self.fill..].chunks_exact_mut(8).zip(&mut words) {
                slot.copy_from_slice(&word.to_le_bytes());
                filled += 8;
            }
            self.fill += filled;
            self.segment.len += filled;
            if self.fill == PAGE_SIZE {
                self.push_page();
                continue;
            }
            // The page has room left: either the words ran out, or the
            // next one straddles the page boundary.
            match words.next() {
                Some(word) => self.write(&word.to_le_bytes()),
                None => return,
            }
        }
    }

    /// Moves the page being filled into the segment and starts the next.
    fn push_page(&mut self) {
        self.segment.pages.push(Arc::new(*self.page));
        self.fill = 0;
    }

    /// The finished segment, its last page zero-padded.
    fn finish(mut self) -> Segment {
        if self.segment.len > 0 && self.fill > 0 {
            self.page[self.fill..].fill(0);
            self.push_page();
        }
        self.segment
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
