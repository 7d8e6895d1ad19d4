//! The reconfiguration driver as *actual RISC-V machine code*.
//!
//! The other examples run the drivers as Rust ports of the paper's C
//! listings. This one goes all the way down: the Listing-1 flow —
//! decouple, select ICAP, program the DMA, poll for completion,
//! recouple — hand-written in RV64 assembly, assembled by
//! `rvcap-rv64`, and executed instruction by instruction on the
//! interpreter, with every load/store crossing the simulated AXI
//! fabric. `rdcycle` brackets measure the timing from inside the
//! program, and the result is cross-checked against the Rust driver.
//!
//! ```text
//! cargo run --release --example bare_metal
//! ```

use rvcap_core::drivers::{DmaMode, RvCapDriver};
use rvcap_core::system::SocBuilder;
use rvcap_fabric::resources::Resources;
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::RpGeometry;
use rvcap_rv64::{assemble, Cpu, Reg, RunExit};
use rvcap_soc::cpu::InterpreterBus;
use rvcap_soc::map::DDR_BASE;

const STAGE: u64 = DDR_BASE + 0x40_0000;

/// Listing 1 in assembly. Registers: s0 = DMA, s1 = RP ctrl, s2 =
/// switch ctrl. Returns (cycles total) via rdcycle in a0/a1 brackets.
fn listing1_asm(pbit_size: u32) -> String {
    format!(
        "
        li   s0, 0x41000000      # DMA register window
        li   s1, 0x41010000      # RP control interface
        li   s2, 0x41020000      # stream switch control
        li   s3, 0x80400000      # bitstream staging address in DDR
        rdcycle a0               # T start

        # --- init_reconfig_process ---
        li   t0, 1
        sw   t0, 0(s1)           # decouple_accel(1)
        sw   t0, 0(s2)           # select_ICAP(1)
        sw   t0, 0(s0)           # dma_start: DMACR.RS
        # dma_write_stream(start_address, pbit_size)
        sw   s3, 0x18(s0)        # MM2S_SA
        sw   zero, 0x1C(s0)      # MM2S_SA_MSB
        li   t1, {pbit_size}
        sw   t1, 0x28(s0)        # MM2S_LENGTH — transfer starts

        # --- poll DMASR.IDLE (blocking mode) ---
        poll:
        lw   t2, 4(s0)
        andi t2, t2, 2
        beqz t2, poll
        li   t3, 0x1000
        sw   t3, 4(s0)           # W1C the IOC flag

        sw   zero, 0(s1)         # decouple_accel(0)
        sw   zero, 0(s2)         # select_ICAP(0)
        rdcycle a1               # T end
        ecall
        "
    )
}

fn main() {
    let geometry = RpGeometry::scaled(4, 1, 0);
    let img = RmImage::synthesize("ASM", geometry.frames(), Resources::new(300, 300, 1, 0));
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry.clone()])
        .with_library(lib)
        .build();
    let pbit_size = soc.stage_module(0, &img, STAGE).pbit_size;
    println!(
        "bitstream: {} bytes, staged at {STAGE:#x}; driver: {} RV64 instructions",
        pbit_size,
        assemble(&listing1_asm(pbit_size), 0x1_0000).unwrap().len()
    );

    // ---- run the assembly driver on the interpreter ----
    let program = assemble(&listing1_asm(pbit_size), 0x1_0000).expect("assembles");
    let mut cpu = Cpu::new(program, 0x1_0000);
    let ddr = soc.handles.ddr.clone();
    let mut bus = InterpreterBus::new(&mut soc.core, ddr);
    let result = cpu.run(&mut bus, 50_000_000);
    assert_eq!(result.exit, RunExit::Halted, "driver must run to ecall");
    let cycles = cpu.reg(Reg::a(1)) - cpu.reg(Reg::a(0));
    println!(
        "assembly driver: {} instructions retired, flow took {} cycles = {:.1} µs",
        result.instructions,
        cycles,
        cycles as f64 / 100.0
    );

    // The ICAP may still be consuming the trailer; settle and check.
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();
    let record = soc.handles.icap.last_load().expect("a load happened");
    assert!(record.crc_ok, "bitstream must load intact");
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("ASM")
    );
    println!(
        "ICAP: {} frames at FAR {:#x}, CRC ok — partition hosts {:?}",
        record.frames,
        record.far_start,
        soc.handles.rm_hosts[0].active_module()
    );

    // ---- cross-check against the Rust driver on a fresh system ----
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let mut soc2 = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .build();
    let module = soc2.stage_module(0, &img, STAGE);
    let driver = RvCapDriver::new(0, soc2.handles.plic.clone());
    let t = driver.init_reconfig_process(&mut soc2.core, &module, DmaMode::Blocking);
    let rust_cycles = (t.td_ticks + t.tr_ticks) * 20;
    println!(
        "Rust driver (blocking): Td+Tr = {} cycles = {:.1} µs",
        rust_cycles,
        rust_cycles as f64 / 100.0
    );
    let ratio = cycles as f64 / rust_cycles as f64;
    println!(
        "assembly/Rust ratio: {ratio:.3} (the assembly flow skips the C driver's \
         lookup/validation software, so it runs a touch faster)"
    );
    assert!(
        (0.5..=1.2).contains(&ratio),
        "both drivers must measure the same transfer"
    );
    println!("bare-metal OK");
}
