//! The paper's experimental setup (§IV-A): the Genesys2 SoC with the
//! 3200-LUT/6400-FF/30-BRAM/20-DSP partition and its 650 892-byte
//! partial bitstream, pre-staged in DDR.

use rvcap_core::drivers::ReconfigModule;
use rvcap_core::system::{RvCapSoc, SocBuilder};
use rvcap_fabric::resources::Resources;
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::RpGeometry;
use rvcap_soc::map::DDR_BASE;

/// A built paper-configuration system with one staged module.
pub struct PaperRig {
    /// The SoC.
    pub soc: RvCapSoc,
    /// Descriptor of the staged bitstream.
    pub module: ReconfigModule,
    /// The module image.
    pub image: RmImage,
}

/// DDR address bitstreams are staged at.
pub const STAGE_ADDR: u64 = DDR_BASE + 0x40_0000;

/// Build a rig for an arbitrary RP geometry with one synthesized
/// module staged in DDR (backdoor, as if `init_RModules` already ran).
pub fn rig_with_geometry(geometry: RpGeometry) -> PaperRig {
    rig_with_builder(SocBuilder::new(), geometry)
}

/// Like [`rig_with_geometry`] but starting from a customized builder
/// (ablations override burst size, FIFO depth, …).
pub fn rig_with_builder(builder: SocBuilder, geometry: RpGeometry) -> PaperRig {
    rig_with_rps(builder, vec![geometry])
}

/// Build a rig with several reconfigurable partitions. The staged
/// module targets RP 0; the remaining partitions sit idle with their
/// isolators and module hosts registered — the multi-partition designs
/// of §III, where one reconfiguration touches one RP while the rest of
/// the shell keeps its place.
pub fn rig_with_rps(builder: SocBuilder, geometries: Vec<RpGeometry>) -> PaperRig {
    let img = RmImage::synthesize(
        "Module0",
        geometries[0].frames(),
        Resources::new(901, 773, 4, 0),
    );
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let soc = builder.with_rps(geometries).with_library(lib).build();
    let module = soc.stage_module(0, &img, STAGE_ADDR);
    PaperRig {
        soc,
        module,
        image: img,
    }
}

/// The paper's exact configuration (1611-frame RP, 650 892 B).
pub fn rvcap_rig() -> PaperRig {
    let rig = rig_with_geometry(RpGeometry::paper_rp());
    assert_eq!(rig.module.pbit_size, 650_892);
    rig
}
