//! The paper's RM library: three filters, one partition.

use rvcap_fabric::resources::Resources;
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::RpGeometry;

use crate::golden;
use crate::image::Image;
use crate::rm::StreamingFilter;

/// The three reconfigurable filters of §IV-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// 3×3 Gaussian blur.
    Gaussian,
    /// 3×3 median.
    Median,
    /// 3×3 Sobel gradient magnitude.
    Sobel,
}

impl FilterKind {
    /// All three, in Table III/IV order.
    pub const ALL: [FilterKind; 3] = [FilterKind::Gaussian, FilterKind::Median, FilterKind::Sobel];

    /// Module name (and SD file stem).
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::Gaussian => "Gaussian",
            FilterKind::Median => "Median",
            FilterKind::Sobel => "Sobel",
        }
    }

    /// Synthesis resource cost (Table III, calibrated constants).
    pub fn resources(self) -> Resources {
        match self {
            FilterKind::Gaussian => Resources::new(901, 773, 4, 0),
            FilterKind::Median => Resources::new(2325, 998, 2, 0),
            FilterKind::Sobel => Resources::new(1830, 3224, 2, 16),
        }
    }

    /// The per-pixel kernel.
    pub fn kernel(self) -> fn(&golden::Window) -> u8 {
        match self {
            FilterKind::Gaussian => golden::gaussian_pixel,
            FilterKind::Median => golden::median_pixel,
            FilterKind::Sobel => golden::sobel_pixel,
        }
    }

    /// Apply the golden reference implementation.
    pub fn golden(self, img: &Image) -> Image {
        match self {
            FilterKind::Gaussian => golden::gaussian(img),
            FilterKind::Median => golden::median(img),
            FilterKind::Sobel => golden::sobel(img),
        }
    }

    /// Streaming pace (cycles per output beat × 100). The HLS window
    /// operators on the 8-pixel-wide interface do not close timing at
    /// II = 1; the per-filter values are calibrated so the measured
    /// `T_c` matches Table IV (Gaussian 606 µs, Median 598 µs, Sobel
    /// 588 µs for 512×512).
    pub fn interval_x100(self) -> u64 {
        match self {
            FilterKind::Gaussian => 185,
            FilterKind::Median => 182,
            FilterKind::Sobel => 179,
        }
    }
}

/// Build the paper's library: each filter as an RM image sized for
/// `geometry`, with a streaming behaviour for `width`×`height` frames.
pub fn filter_library(geometry: &RpGeometry, width: usize, height: usize) -> RmLibrary {
    let mut lib = RmLibrary::new();
    for kind in FilterKind::ALL {
        let image = RmImage::synthesize(kind.name(), geometry.frames(), kind.resources());
        lib.register(
            image,
            Box::new(move || {
                Box::new(StreamingFilter::new(
                    kind.name(),
                    kind.kernel(),
                    width,
                    height,
                    kind.interval_x100(),
                ))
            }),
        );
    }
    lib
}

/// The exact paper configuration: paper RP geometry, 512×512 frames.
pub fn paper_filter_library() -> RmLibrary {
    filter_library(&RpGeometry::paper_rp(), Image::PAPER_DIM, Image::PAPER_DIM)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_three_distinct_modules() {
        let lib = paper_filter_library();
        assert_eq!(lib.len(), 3);
        let hashes: Vec<u64> = lib.images().map(|i| i.hash()).collect();
        assert_eq!(hashes.len(), 3);
        assert!(hashes[0] != hashes[1] && hashes[1] != hashes[2]);
        // All sized for the paper RP.
        assert!(lib.images().all(|i| i.frames() == 1611));
    }

    #[test]
    fn resources_fit_the_paper_rp() {
        let rp = Resources::PAPER_RP;
        for kind in FilterKind::ALL {
            assert!(kind.resources().fits_in(&rp), "{:?}", kind);
        }
    }

    #[test]
    fn behaviours_are_attached() {
        let lib = filter_library(&RpGeometry::scaled(1, 0, 0), 16, 16);
        for kind in FilterKind::ALL {
            let img = lib.by_name(kind.name()).unwrap();
            assert!(lib.behavior_for_hash(img.hash()).is_some());
        }
    }
}
