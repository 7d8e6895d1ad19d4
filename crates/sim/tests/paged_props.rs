//! Property test for the copy-on-write page store: random writes,
//! reads, clones and restores of [`PagedBytes`] behave exactly like a
//! flat `Vec<u8>` model, and every retained clone keeps the bytes of
//! its clone point however the live store and its forks move on.

use proptest::prelude::*;
use rvcap_sim::{PagedBytes, PAGE_SIZE};

/// Five pages and a ragged tail, so accesses hit the partial last page.
const LEN: usize = 5 * PAGE_SIZE + 123;

/// One operation: `(kind, offset, length, fill)`. Kinds 0–2 write a
/// ramp, 3 writes zeros, 4 reads, 5 retains a clone, 6 restores the
/// live store from a retained clone (a fork).
type Op = (u8, usize, usize, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..7, 0usize..LEN, 0usize..2 * PAGE_SIZE + 10, any::<u8>()),
        1..48,
    )
}

/// The whole contents, for comparison against the model.
fn contents(m: &PagedBytes) -> Vec<u8> {
    let mut v = vec![0xEE; m.len()];
    m.read(0, &mut v);
    v
}

/// A store holding `bytes`, built independently of the one under test.
fn flat(bytes: &[u8]) -> PagedBytes {
    let mut m = PagedBytes::new(bytes.len());
    m.write(0, bytes);
    m
}

proptest! {
    #[test]
    fn store_matches_a_flat_model_and_clones_keep_their_bytes(ops in ops()) {
        let mut live = PagedBytes::new(LEN);
        let mut model = vec![0u8; LEN];
        let mut retained: Vec<(PagedBytes, Vec<u8>)> = Vec::new();
        for (step, &(kind, off, len, fill)) in ops.iter().enumerate() {
            let len = len.min(LEN - off);
            match kind {
                0..=3 => {
                    let data: Vec<u8> = (0..len)
                        .map(|i| if kind == 3 { 0 } else { fill.wrapping_add(i as u8) })
                        .collect();
                    live.write(off, &data);
                    model[off..off + len].copy_from_slice(&data);
                }
                4 => {
                    let mut got = vec![0xEE; len];
                    live.read(off, &mut got);
                    prop_assert!(got[..] == model[off..off + len], "read at step {}", step);
                }
                5 => retained.push((live.clone(), model.clone())),
                _ => {
                    if let Some((snap, bytes)) = retained.get(fill as usize % retained.len().max(1)) {
                        live = snap.clone();
                        model = bytes.clone();
                    }
                }
            }
            prop_assert!(live.resident_pages() <= LEN.div_ceil(PAGE_SIZE));
        }
        prop_assert!(contents(&live) == model, "live store diverged from the model");
        prop_assert_eq!(&live, &flat(&model));
        for (i, (snap, bytes)) in retained.iter().enumerate() {
            prop_assert!(contents(snap) == *bytes, "clone {} lost its clone-point bytes", i);
            prop_assert_eq!(snap, &flat(bytes));
            prop_assert_eq!(snap == &live, *bytes == model, "equality of clone {} and live", i);
        }
    }
}
