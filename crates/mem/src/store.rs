//! Sparse functional backing store.
//!
//! Timing models answer *when*; [`Store`] answers *what*. It is a sparse,
//! page-granular byte store so that experiments can move hundreds of
//! gigabytes of address space around without allocating it all: only pages
//! actually written are materialised. Unwritten memory reads as zero, like
//! fresh DRAM after the BDK's init.

use enzian_sim::FxHashMap;

use crate::addr::Addr;

const PAGE_SHIFT: u32 = 16; // 64 KiB pages
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// A sparse byte-addressable memory.
///
/// # Example
///
/// ```
/// use enzian_mem::{Store, Addr};
///
/// let mut store = Store::new();
/// store.write(Addr(0x4000_0000), b"enzian");
/// let mut buf = [0u8; 6];
/// store.read(Addr(0x4000_0000), &mut buf);
/// assert_eq!(&buf, b"enzian");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Store {
    pages: FxHashMap<u64, Box<[u8; PAGE_BYTES]>>,
}

impl Store {
    /// Creates an empty store; all addresses read as zero.
    pub fn new() -> Self {
        Store::default()
    }

    /// Number of 64 KiB pages materialised so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Writes `data` starting at `addr`, materialising pages as needed.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let mut pos = addr.0;
        let mut remaining = data;
        while !remaining.is_empty() {
            let page = pos >> PAGE_SHIFT;
            let offset = (pos & (PAGE_BYTES as u64 - 1)) as usize;
            let n = remaining.len().min(PAGE_BYTES - offset);
            let buf = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
            buf[offset..offset + n].copy_from_slice(&remaining[..n]);
            remaining = &remaining[n..];
            pos += n as u64;
        }
    }

    /// Reads into `buf` starting at `addr`; unwritten bytes read as zero.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut out = buf;
        while !out.is_empty() {
            let page = pos >> PAGE_SHIFT;
            let offset = (pos & (PAGE_BYTES as u64 - 1)) as usize;
            let n = out.len().min(PAGE_BYTES - offset);
            match self.pages.get(&page) {
                Some(p) => out[..n].copy_from_slice(&p[offset..offset + n]),
                None => out[..n].fill(0),
            }
            out = &mut out[n..];
            pos += n as u64;
        }
    }

    /// Reads a u64 in little-endian order.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a u64 in little-endian order.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads one 128-byte cache line at the line containing `addr`.
    pub fn read_line(&self, addr: Addr) -> [u8; 128] {
        let mut line = [0u8; 128];
        self.read(addr.line().base(), &mut line);
        line
    }

    /// Writes one 128-byte cache line at the line containing `addr`.
    pub fn write_line(&mut self, addr: Addr, line: &[u8; 128]) {
        self.write(addr.line().base(), line);
    }

    /// Drops all resident pages, returning the store to all-zeros.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let s = Store::new();
        let mut buf = [0xffu8; 32];
        s.read(Addr(12345), &mut buf);
        assert_eq!(buf, [0u8; 32]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_page_boundary() {
        let mut s = Store::new();
        let base = Addr((PAGE_BYTES as u64) - 3); // straddles two pages
        let data: Vec<u8> = (0..10).collect();
        s.write(base, &data);
        assert_eq!(s.resident_pages(), 2);
        let mut buf = [0u8; 10];
        s.read(base, &mut buf);
        assert_eq!(&buf[..], &data[..]);
    }

    #[test]
    fn u64_and_line_accessors() {
        let mut s = Store::new();
        s.write_u64(Addr(128), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.read_u64(Addr(128)), 0xDEAD_BEEF_CAFE_F00D);

        let mut line = [0u8; 128];
        line[0] = 0xAB;
        line[127] = 0xCD;
        s.write_line(Addr(256), &line);
        // Any address within the line reads the same line.
        assert_eq!(s.read_line(Addr(300)), line);
    }

    #[test]
    fn overwrite_and_clear() {
        let mut s = Store::new();
        s.write(Addr(0), b"aaaa");
        s.write(Addr(2), b"bb");
        let mut buf = [0u8; 4];
        s.read(Addr(0), &mut buf);
        assert_eq!(&buf, b"aabb");
        s.clear();
        s.read(Addr(0), &mut buf);
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn sparse_usage_stays_sparse() {
        let mut s = Store::new();
        // Touch one byte every 1 GiB across 512 GiB: 512 pages, not 512 GiB.
        for i in 0..512u64 {
            s.write(Addr(i << 30), &[1]);
        }
        assert_eq!(s.resident_pages(), 512);
    }
}
