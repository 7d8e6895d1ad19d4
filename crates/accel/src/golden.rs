//! Golden (reference) filter implementations.
//!
//! The per-pixel kernels are shared with the streaming hardware models
//! in [`crate::rm`], so hardware output is bit-identical to these by
//! construction *of the kernel* — the tests verify the streaming
//! machinery (windowing, beat packing, backpressure) preserves it.
//! The whole-image filters here build every window from nine
//! [`Image::get_clamped`] taps, independently of the streaming model's
//! row-slice windowing, so they also check its border handling.

use crate::image::Image;

/// The 3×3 neighbourhood of one pixel, row-major, borders replicated:
/// `w[3 * (dr + 1) + (dc + 1)]` is the pixel at offset (dr, dc).
pub type Window = [u8; 9];

/// 3×3 Gaussian blur kernel (1-2-1 separable, /16).
pub fn gaussian_pixel(w: &Window) -> u8 {
    let p = |i: usize| w[i] as u16;
    let acc = p(0) + 2 * p(1) + p(2) + 2 * p(3) + 4 * p(4) + 2 * p(5) + p(6) + 2 * p(7) + p(8);
    (acc / 16) as u8
}

/// 3×3 median filter: a fixed median-of-9 exchange network of 19
/// compare-exchanges. Each `x(a, b)` puts the smaller value at `a` and
/// the larger at `b`; afterwards position 4 holds the median.
pub fn median_pixel(w: &Window) -> u8 {
    let [mut p0, mut p1, mut p2, mut p3, mut p4, mut p5, mut p6, mut p7, mut p8] = *w;
    fn x(a: &mut u8, b: &mut u8) {
        (*a, *b) = ((*a).min(*b), (*a).max(*b));
    }
    x(&mut p1, &mut p2);
    x(&mut p4, &mut p5);
    x(&mut p7, &mut p8);
    x(&mut p0, &mut p1);
    x(&mut p3, &mut p4);
    x(&mut p6, &mut p7);
    x(&mut p1, &mut p2);
    x(&mut p4, &mut p5);
    x(&mut p7, &mut p8);
    x(&mut p0, &mut p3);
    x(&mut p5, &mut p8);
    x(&mut p4, &mut p7);
    x(&mut p3, &mut p6);
    x(&mut p1, &mut p4);
    x(&mut p2, &mut p5);
    x(&mut p4, &mut p7);
    x(&mut p4, &mut p2);
    x(&mut p6, &mut p4);
    x(&mut p4, &mut p2);
    p4
}

/// 3×3 Sobel gradient magnitude (|Gx| + |Gy|, saturated).
pub fn sobel_pixel(w: &Window) -> u8 {
    let p = |i: usize| w[i] as i32;
    let gx = -p(0) - 2 * p(3) - p(6) + p(2) + 2 * p(5) + p(8);
    let gy = -p(0) - 2 * p(1) - p(2) + p(6) + 2 * p(7) + p(8);
    (gx.abs() + gy.abs()).min(255) as u8
}

/// The window of pixel (r, c): nine clamped taps.
fn window(img: &Image, r: usize, c: usize) -> Window {
    let (r, c) = (r as isize, c as isize);
    let mut w = [0; 9];
    for (i, px) in w.iter_mut().enumerate() {
        let (dr, dc) = ((i / 3) as isize - 1, (i % 3) as isize - 1);
        *px = img.get_clamped(r + dr, c + dc);
    }
    w
}

fn apply(img: &Image, kernel: fn(&Window) -> u8) -> Image {
    let mut out = Image::new(img.width(), img.height());
    for r in 0..img.height() {
        for c in 0..img.width() {
            out.set(r, c, kernel(&window(img, r, c)));
        }
    }
    out
}

/// Gaussian blur of a whole image.
pub fn gaussian(img: &Image) -> Image {
    apply(img, gaussian_pixel)
}

/// Median filter of a whole image.
pub fn median(img: &Image) -> Image {
    apply(img, median_pixel)
}

/// Sobel edge map of a whole image.
pub fn sobel(img: &Image) -> Image {
    apply(img, sobel_pixel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// By the 0-1 principle a compare-exchange network selects the
    /// median of every input iff it does so for every 0/1 input, so
    /// these 512 windows prove the network exact for all `u8` windows.
    #[test]
    fn median_network_is_exact_on_every_binary_window() {
        for bits in 0u32..512 {
            let w: Window = std::array::from_fn(|i| (bits >> i & 1) as u8);
            let mut sorted = w;
            sorted.sort();
            assert_eq!(median_pixel(&w), sorted[4], "window {w:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn median_network_matches_sort(v in proptest::collection::vec(any::<u8>(), 9)) {
            let w: Window = v.clone().try_into().unwrap();
            let mut sorted = w;
            sorted.sort();
            prop_assert_eq!(median_pixel(&w), sorted[4]);
        }
    }

    /// FNV-1a hashes of the three filters on one ragged noise image,
    /// as computed by the earlier kernels that read their window
    /// through a clamping closure: the `[u8; 9]` kernels are
    /// bit-identical to them.
    #[test]
    fn golden_outputs_are_pinned() {
        let fnv = |img: Image| {
            img.as_bytes()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
                })
        };
        let img = Image::noise(37, 29, 5);
        assert_eq!(fnv(gaussian(&img)), 0xe386_c9fd_ac88_7de4);
        assert_eq!(fnv(median(&img)), 0x4681_01ba_0abe_a301);
        assert_eq!(fnv(sobel(&img)), 0xc188_44ca_0ad0_82dc);
    }

    #[test]
    fn gaussian_preserves_flat_regions() {
        let img = Image::from_pixels(8, 8, vec![100; 64]);
        assert_eq!(gaussian(&img).as_bytes(), img.as_bytes());
    }

    #[test]
    fn gaussian_smooths_an_impulse() {
        let mut img = Image::new(5, 5);
        img.set(2, 2, 160);
        let out = gaussian(&img);
        assert_eq!(out.get(2, 2), 40); // 160*4/16
        assert_eq!(out.get(2, 1), 20); // 160*2/16
        assert_eq!(out.get(1, 1), 10); // 160*1/16
        assert_eq!(out.get(0, 0), 0);
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut img = Image::from_pixels(5, 5, vec![50; 25]);
        img.set(2, 2, 255); // lone outlier
        let out = median(&img);
        assert_eq!(out.get(2, 2), 50);
    }

    #[test]
    fn median_preserves_majority() {
        let img = Image::checkerboard(6, 6, 3);
        let out = median(&img);
        // Center of a 3×3 cell keeps its value.
        assert_eq!(out.get(1, 1), 0);
        assert_eq!(out.get(1, 4), 255);
    }

    #[test]
    fn sobel_zero_on_flat_strong_on_edge() {
        let img = Image::from_pixels(6, 6, vec![77; 36]);
        assert!(sobel(&img).as_bytes().iter().all(|&p| p == 0));
        // A vertical step edge saturates.
        let mut step = Image::new(6, 6);
        for r in 0..6 {
            for c in 3..6 {
                step.set(r, c, 255);
            }
        }
        let out = sobel(&step);
        assert_eq!(out.get(3, 3), 255);
        assert_eq!(out.get(3, 0), 0);
    }

    #[test]
    fn sobel_detects_horizontal_edges_too() {
        let mut step = Image::new(6, 6);
        for r in 3..6 {
            for c in 0..6 {
                step.set(r, c, 200);
            }
        }
        let out = sobel(&step);
        assert!(out.get(3, 3) > 0);
        assert_eq!(out.get(0, 3), 0);
    }

    #[test]
    fn filters_differ_on_noise() {
        let img = Image::noise(32, 32, 1);
        let g = gaussian(&img);
        let m = median(&img);
        let s = sobel(&img);
        assert_ne!(g, m);
        assert_ne!(g, s);
        assert_ne!(m, s);
    }
}
