//! Frame-addressed configuration memory.
//!
//! The configuration quantum of the modelled device is the 7-series
//! frame: **101 words of 32 bits**. Frames are addressed linearly by a
//! frame address (FAR); the ICAP writes them through FDRI with FAR
//! auto-increment. The configuration memory is shared state between
//! the ICAP (writer) and the RP/RM machinery (which identifies the
//! currently-loaded module by hashing its frame range).

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_sim::state::{StateBlob, StateError, StateValue};
use rvcap_sim::PagedBytes;

/// Words per configuration frame (UG470: 101 for 7-series).
pub const FRAME_WORDS: usize = 101;

/// Bytes per frame in the backing store: frame `f` sits at byte
/// offset `f × FRAME_BYTES`, its words little-endian.
const FRAME_BYTES: usize = FRAME_WORDS * 4;

#[derive(Debug)]
struct Inner {
    /// Frame contents, copy-on-write: a checkpoint shares the pages.
    frames: PagedBytes,
    /// Bit `f % 32` of word `f / 32` is set once frame `f` has been
    /// written — the difference between "never configured" and a
    /// frame of zeros.
    configured: Vec<u32>,
    /// Total frames written since power-up.
    writes: u64,
}

impl Inner {
    fn total_frames(&self) -> usize {
        self.frames.len() / FRAME_BYTES
    }

    fn is_configured(&self, far: usize) -> bool {
        far < self.total_frames() && self.configured[far / 32] >> (far % 32) & 1 == 1
    }

    fn frame(&self, far: usize) -> [u32; FRAME_WORDS] {
        let mut bytes = [0u8; FRAME_BYTES];
        self.frames.read(far * FRAME_BYTES, &mut bytes);
        let mut words = [0u32; FRAME_WORDS];
        for (w, b) in words.iter_mut().zip(bytes.chunks_exact(4)) {
            *w = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        }
        words
    }
}

/// Shared handle to the device's configuration memory.
#[derive(Debug, Clone)]
pub struct ConfigMem {
    inner: Rc<RefCell<Inner>>,
}

impl ConfigMem {
    /// Create a configuration memory of `total_frames` frames.
    pub fn new(total_frames: usize) -> Self {
        ConfigMem {
            inner: Rc::new(RefCell::new(Inner {
                frames: PagedBytes::new(total_frames * FRAME_BYTES),
                configured: vec![0; total_frames.div_ceil(32)],
                writes: 0,
            })),
        }
    }

    /// Total frame count of the device.
    pub fn total_frames(&self) -> usize {
        self.inner.borrow().total_frames()
    }

    /// Write one frame at `far`. Panics on an out-of-range FAR — the
    /// ICAP FSM validates the range before committing, so reaching
    /// this is a model bug.
    pub fn write_frame(&self, far: u32, words: &[u32; FRAME_WORDS]) {
        let mut inner = self.inner.borrow_mut();
        let f = far as usize;
        if f >= inner.total_frames() {
            panic!("FAR {far:#x} out of range");
        }
        let mut bytes = [0u8; FRAME_BYTES];
        for (b, w) in bytes.chunks_exact_mut(4).zip(words) {
            b.copy_from_slice(&w.to_le_bytes());
        }
        inner.frames.write(f * FRAME_BYTES, &bytes);
        inner.configured[f / 32] |= 1 << (f % 32);
        inner.writes += 1;
    }

    /// Read one frame (None if never configured).
    pub fn read_frame(&self, far: u32) -> Option<[u32; FRAME_WORDS]> {
        let inner = self.inner.borrow();
        inner
            .is_configured(far as usize)
            .then(|| inner.frame(far as usize))
    }

    /// Is `far..far+frames` inside the device?
    pub fn in_range(&self, far: u32, frames: usize) -> bool {
        (far as usize)
            .checked_add(frames)
            .is_some_and(|end| end <= self.total_frames())
    }

    /// Are all frames of the range configured (written at least once)?
    pub fn range_configured(&self, far: u32, frames: usize) -> bool {
        let inner = self.inner.borrow();
        (far as usize..far as usize + frames).all(|i| inner.is_configured(i))
    }

    /// Hash the content of a frame range — used to identify which RM
    /// image currently occupies an RP. FNV-1a over the words; stable
    /// and cheap, and collisions between a handful of registered RM
    /// images are not a realistic concern. `None` when any frame of the
    /// range was never configured.
    pub fn range_hash(&self, far: u32, frames: usize) -> Option<u64> {
        let inner = self.inner.borrow();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in far as usize..far as usize + frames {
            if !inner.is_configured(i) {
                return None;
            }
            for w in inner.frame(i) {
                h ^= w as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Some(h)
    }

    /// Lifetime count of frame writes.
    pub fn total_writes(&self) -> u64 {
        self.inner.borrow().writes
    }

    /// Checkpoint the frame store. Saved by the ICAP (the sole frame
    /// writer); the frames travel page-shared and the configured set as
    /// a bitmap, so a checkpoint copies no frame.
    pub fn save_state(&self) -> StateValue {
        let inner = self.inner.borrow();
        let mut b = StateBlob::new("fabric.config_mem", 2);
        b.put_u64("total_frames", inner.total_frames() as u64);
        b.put_u64("writes", inner.writes);
        b.put_paged("frames", inner.frames.clone());
        b.put_words("configured", inner.configured.clone());
        StateValue::Blob(Box::new(b))
    }

    /// Inverse of [`ConfigMem::save_state`]: unconfigured frames go
    /// back to "never written".
    pub fn restore_state(&self, v: &StateValue) -> Result<(), StateError> {
        let b = v.as_blob("fabric.config_mem")?;
        b.expect("fabric.config_mem", 2)?;
        let mut inner = self.inner.borrow_mut();
        if b.get_u64("total_frames")? as usize != inner.total_frames() {
            return Err(b.structure_error(format!(
                "device has {} frames, state was captured with {}",
                inner.total_frames(),
                b.get_u64("total_frames")?
            )));
        }
        let frames = b.get_paged("frames")?;
        if frames.len() != inner.frames.len() {
            return Err(b.structure_error(format!(
                "frame store is {} bytes in state, this device has {}",
                frames.len(),
                inner.frames.len()
            )));
        }
        let configured = b.get_words("configured")?;
        if configured.len() != inner.configured.len() {
            return Err(b.structure_error(format!(
                "configured bitmap is {} words in state, this device has {}",
                configured.len(),
                inner.configured.len()
            )));
        }
        inner.frames = frames.clone();
        inner.configured.copy_from_slice(configured);
        inner.writes = b.get_u64("writes")?;
        Ok(())
    }
}

/// Hash a flat word payload the same way [`ConfigMem::range_hash`]
/// hashes configured frames — an [`crate::rm::RmImage`] precomputes
/// this so the RP can match memory content against registered images.
pub fn payload_hash(words: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h ^= w as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(fill: u32) -> [u32; FRAME_WORDS] {
        let mut f = [0u32; FRAME_WORDS];
        for (i, w) in f.iter_mut().enumerate() {
            *w = fill.wrapping_add(i as u32);
        }
        f
    }

    #[test]
    fn write_read_round_trip() {
        let cm = ConfigMem::new(16);
        assert_eq!(cm.read_frame(3), None);
        cm.write_frame(3, &frame(7));
        assert_eq!(cm.read_frame(3), Some(frame(7)));
        assert_eq!(cm.total_writes(), 1);
    }

    #[test]
    fn range_checks() {
        let cm = ConfigMem::new(10);
        assert!(cm.in_range(0, 10));
        assert!(!cm.in_range(1, 10));
        assert!(!cm.in_range(u32::MAX, 2));
        cm.write_frame(2, &frame(0));
        cm.write_frame(3, &frame(1));
        assert!(cm.range_configured(2, 2));
        assert!(!cm.range_configured(2, 3));
    }

    #[test]
    fn range_hash_matches_payload_hash() {
        let cm = ConfigMem::new(8);
        let f0 = frame(100);
        let f1 = frame(200);
        cm.write_frame(4, &f0);
        cm.write_frame(5, &f1);
        let mut flat = Vec::new();
        flat.extend_from_slice(&f0);
        flat.extend_from_slice(&f1);
        assert_eq!(cm.range_hash(4, 2), Some(payload_hash(&flat)));
    }

    #[test]
    fn hash_of_unconfigured_range_is_none() {
        let cm = ConfigMem::new(8);
        cm.write_frame(0, &frame(0));
        assert_eq!(cm.range_hash(0, 2), None);
    }

    #[test]
    fn rewriting_changes_hash() {
        let cm = ConfigMem::new(4);
        cm.write_frame(0, &frame(1));
        let h1 = cm.range_hash(0, 1);
        cm.write_frame(0, &frame(2));
        let h2 = cm.range_hash(0, 1);
        assert_ne!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_write_panics() {
        let cm = ConfigMem::new(4);
        cm.write_frame(4, &frame(0));
    }

    #[test]
    fn checkpoint_keeps_contents_and_the_never_configured_set() {
        let cm = ConfigMem::new(64);
        cm.write_frame(3, &frame(7));
        cm.write_frame(9, &[0; FRAME_WORDS]);
        let saved = cm.save_state();
        cm.write_frame(3, &frame(8));
        cm.write_frame(5, &frame(1));
        cm.restore_state(&saved).unwrap();
        assert_eq!(cm.read_frame(3), Some(frame(7)), "a later write leaked");
        assert_eq!(cm.read_frame(5), None, "a later frame stayed configured");
        assert_eq!(cm.read_frame(9), Some([0; FRAME_WORDS]));
        assert_eq!(cm.total_writes(), 2);
        assert!(!cm.range_configured(3, 3));
        assert_eq!(cm.save_state(), saved);
    }

    #[test]
    fn restore_rejects_wrong_geometry_and_old_versions() {
        let saved = ConfigMem::new(64).save_state();
        let structure = |cm: &ConfigMem, v: &StateValue| {
            matches!(cm.restore_state(v), Err(StateError::Structure { .. }))
        };
        assert!(structure(&ConfigMem::new(65), &saved));
        // A store or a bitmap of the wrong length, at the right count.
        let tamper = |field: &str, value: StateValue| {
            let b = saved.as_blob("t").unwrap();
            let mut t = StateBlob::new("fabric.config_mem", 2);
            for (name, v) in b.fields() {
                t.put(
                    name,
                    if name == field {
                        value.clone()
                    } else {
                        v.clone()
                    },
                );
            }
            StateValue::Blob(Box::new(t))
        };
        let cm = ConfigMem::new(64);
        let short_store = PagedBytes::new(63 * FRAME_BYTES);
        assert!(structure(
            &cm,
            &tamper("frames", StateValue::Paged(short_store))
        ));
        assert!(structure(
            &cm,
            &tamper("configured", StateValue::Words(vec![0; 3]))
        ));
        let v1 = StateValue::Blob(Box::new(StateBlob::new("fabric.config_mem", 1)));
        assert!(matches!(
            cm.restore_state(&v1),
            Err(StateError::VersionMismatch { got: 1, .. })
        ));
    }

    #[test]
    fn shared_handles() {
        let a = ConfigMem::new(4);
        let b = a.clone();
        a.write_frame(1, &frame(9));
        assert!(b.read_frame(1).is_some());
    }
}
