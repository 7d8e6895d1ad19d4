//! Sparse, copy-on-write byte memory for the bulk stores of a model.
//!
//! The SoC's large memories — 64 MiB of DDR, the SD card's flash, the
//! boot ROM and the device's configuration memory — are mostly never
//! written in any one run, yet every checkpoint has to capture them.
//! [`PagedBytes`] keeps such a memory as [`PAGE_SIZE`]-byte pages
//! behind [`Arc`]:
//!
//! * a page that was never written is **absent** and reads as zeros,
//!   so an untouched memory costs one null pointer per page;
//! * [`Clone`] copies only the page table, so a checkpoint shares every
//!   page with the live memory;
//! * a write un-shares only the pages it touches
//!   ([`Arc::make_mut`]), so a fork pays for what it dirties.
//!
//! Equality is byte equality: an absent page equals an all-zero page,
//! and pages that two stores share compare by pointer, so comparing two
//! forks of one checkpoint reads only the pages either side dirtied.

use std::fmt;
use std::sync::Arc;

/// Bytes per page. A constant rather than an option: 4 KiB keeps the
/// page table of a 64 MiB memory at 16 Ki entries (128 KiB) while a
/// DMA burst or an SD block dirties at most two pages.
pub const PAGE_SIZE: usize = 4096;

type Page = [u8; PAGE_SIZE];

/// What every absent page reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

/// A fixed-length, zero-initialised byte store kept as shared pages
/// (see the [module docs](self)).
#[derive(Clone)]
pub struct PagedBytes {
    len: usize,
    pages: Vec<Option<Arc<Page>>>,
}

impl PagedBytes {
    /// A store of `len` bytes, all zero and none resident.
    pub fn new(len: usize) -> Self {
        PagedBytes {
            len,
            pages: vec![None; len.div_ceil(PAGE_SIZE)],
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length store.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages that have been written at least once (shared or not).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Copy the bytes at `off..off + buf.len()` into `buf`. Panics
    /// when the range runs past the end, like slice indexing.
    pub fn read(&self, off: usize, buf: &mut [u8]) {
        self.check(off, buf.len());
        let mut done = 0;
        while done < buf.len() {
            let at = off + done;
            let (page, in_page) = (at / PAGE_SIZE, at % PAGE_SIZE);
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&self.page(page)[in_page..in_page + n]);
            done += n;
        }
    }

    /// Copy `data` to `off..off + data.len()`, making each touched page
    /// resident and unshared. Panics when the range runs past the end.
    pub fn write(&mut self, off: usize, data: &[u8]) {
        self.check(off, data.len());
        let mut done = 0;
        while done < data.len() {
            let at = off + done;
            let (page, in_page) = (at / PAGE_SIZE, at % PAGE_SIZE);
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let page = self.pages[page].get_or_insert_with(|| Arc::new(ZERO_PAGE));
            Arc::make_mut(page)[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// The byte at `off`, or `None` past the end.
    pub(crate) fn get(&self, off: usize) -> Option<u8> {
        (off < self.len).then(|| self.page(off / PAGE_SIZE)[off % PAGE_SIZE])
    }

    /// The first offset at which the two stores differ, or `None` when
    /// they are byte-equal. When one store is a prefix of the other,
    /// the difference is at the shorter one's end.
    pub(crate) fn first_difference(&self, other: &PagedBytes) -> Option<usize> {
        let common = self.len.min(other.len);
        for i in 0..self.pages.len().min(other.pages.len()) {
            let (a, b) = (self.page(i), other.page(i));
            if std::ptr::eq(a, b) || a == b {
                continue;
            }
            let at = i * PAGE_SIZE + a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(0);
            if at < common {
                return Some(at);
            }
            break;
        }
        (self.len != other.len).then_some(common)
    }

    fn page(&self, i: usize) -> &Page {
        self.pages[i].as_deref().unwrap_or(&ZERO_PAGE)
    }

    fn check(&self, off: usize, n: usize) {
        assert!(
            off.checked_add(n).is_some_and(|end| end <= self.len),
            "access of {n} bytes at {off:#x} runs past the end of a {}-byte store",
            self.len
        );
    }
}

impl PartialEq for PagedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.first_difference(other).is_none()
    }
}

impl Eq for PagedBytes {}

/// Prints the shape, never the contents: a 64 MiB memory in a failure
/// message is noise.
impl fmt::Debug for PagedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedBytes")
            .field("len", &self.len)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_vec(m: &PagedBytes, off: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0xAA; len];
        m.read(off, &mut v);
        v
    }

    /// Pages `a` and `b` hold by the same pointer.
    fn shared_pages(a: &PagedBytes, b: &PagedBytes) -> usize {
        a.pages
            .iter()
            .zip(&b.pages)
            .filter(|(x, y)| matches!((x, y), (Some(x), Some(y)) if Arc::ptr_eq(x, y)))
            .count()
    }

    #[test]
    fn fresh_store_reads_zero_and_holds_no_pages() {
        let m = PagedBytes::new(3 * PAGE_SIZE + 100);
        assert_eq!(m.len(), 3 * PAGE_SIZE + 100);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(read_vec(&m, PAGE_SIZE - 7, 20), vec![0; 20]);
        assert_eq!(m.get(m.len() - 1), Some(0));
        assert_eq!(m.get(m.len()), None);
    }

    #[test]
    fn writes_and_reads_straddle_page_boundaries() {
        let mut m = PagedBytes::new(4 * PAGE_SIZE);
        let data: Vec<u8> = (0..=255).cycle().take(PAGE_SIZE + 10).collect();
        let off = PAGE_SIZE - 5;
        m.write(off, &data);
        assert_eq!(m.resident_pages(), 3, "the write spans three pages");
        assert_eq!(read_vec(&m, off, data.len()), data);
        // Neighbouring bytes stay zero on both sides.
        assert_eq!(m.get(off - 1), Some(0));
        assert_eq!(m.get(off + data.len()), Some(0));
        // A read straddling a resident and an absent page.
        let tail = read_vec(&m, off + data.len() - 2, PAGE_SIZE);
        assert_eq!(&tail[..2], &data[data.len() - 2..]);
        assert!(tail[2..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn write_past_the_end_panics() {
        PagedBytes::new(100).write(98, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn read_past_the_end_panics() {
        PagedBytes::new(100).read(usize::MAX, &mut [0]);
    }

    #[test]
    fn clones_are_isolated_in_both_directions() {
        let mut live = PagedBytes::new(8 * PAGE_SIZE);
        live.write(10, &[1; 8]);
        let snap = live.clone();
        live.write(10, &[2; 8]);
        assert_eq!(read_vec(&snap, 10, 8), vec![1; 8], "live write leaked");
        let mut fork = snap.clone();
        fork.write(5 * PAGE_SIZE, &[3; 4]);
        assert_eq!(snap.get(5 * PAGE_SIZE), Some(0), "fork write leaked");
        assert_eq!(live.get(5 * PAGE_SIZE), Some(0));
        assert_eq!(fork.get(10), Some(1));
    }

    #[test]
    fn a_write_after_a_clone_unshares_only_its_page() {
        let mut live = PagedBytes::new(16 * PAGE_SIZE);
        for p in 0..16 {
            live.write(p * PAGE_SIZE, &[p as u8 + 1]);
        }
        let snap = live.clone();
        assert_eq!(shared_pages(&live, &snap), 16);
        live.write(7 * PAGE_SIZE + 100, &[9]);
        assert_eq!(shared_pages(&live, &snap), 15);
        assert_eq!(live.resident_pages(), 16);
        assert!(!Arc::ptr_eq(
            live.pages[7].as_ref().unwrap(),
            snap.pages[7].as_ref().unwrap()
        ));
    }

    #[test]
    fn equality_is_byte_equality() {
        let a = PagedBytes::new(2 * PAGE_SIZE);
        let mut b = a.clone();
        // An explicitly written zero page equals an absent one.
        b.write(PAGE_SIZE, &[0; 64]);
        assert_eq!(b.resident_pages(), 1);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.write(PAGE_SIZE + 63, &[7]);
        assert_ne!(a, b);
        assert_eq!(a.first_difference(&b), Some(PAGE_SIZE + 63));
        // Same bytes in separately allocated pages compare equal.
        let mut c = PagedBytes::new(2 * PAGE_SIZE);
        c.write(PAGE_SIZE + 63, &[7]);
        assert_eq!(b, c);
        assert_eq!(b.first_difference(&c), None);
        // Lengths differ: a prefix differs at the shorter end.
        let short = PagedBytes::new(PAGE_SIZE + 10);
        assert_ne!(a, short);
        assert_eq!(a.first_difference(&short), Some(PAGE_SIZE + 10));
        assert_eq!(short.first_difference(&a), Some(PAGE_SIZE + 10));
    }

    #[test]
    fn debug_prints_shape_not_contents() {
        let mut m = PagedBytes::new(64 << 20);
        m.write(0, &[0x5A; 3 * PAGE_SIZE]);
        let s = format!("{m:?}");
        assert_eq!(s, "PagedBytes { len: 67108864, resident_pages: 3 }");
    }
}
