//! Interrupt-driven bare-metal flow on the RV64 interpreter: the
//! non-blocking (paper-default) completion mode, all the way down to
//! machine code — mtvec, WFI, trap entry, PLIC claim/complete, mret.

use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::resources::Resources;
use rvcap_repro::fabric::rm::{RmImage, RmLibrary};
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::rv64::{assemble, Cpu, Reg, RunExit};
use rvcap_repro::soc::cpu::InterpreterBus;
use rvcap_repro::soc::map::{DDR_BASE, IRQ_DMA_MM2S};

const STAGE: u64 = DDR_BASE + 0x40_0000;

/// Listing 1 in interrupt mode, as machine code:
///  - handler at `vec`: claim from the PLIC, W1C the DMA IOC flag,
///    complete at the PLIC, set a5 = 1, mret;
///  - main: program mtvec/mie/mstatus, DMA with IOC enable, PLIC
///    enable, then `wfi` until the handler ran.
fn irq_driver_asm(pbit_size: u32) -> String {
    format!(
        "
        j    main
        # ---- trap handler (mtvec points here) ----
        handler:
        li   t5, 0x0C000000      # PLIC base
        lui  t6, 0x200
        add  t5, t5, t6
        lw   t4, 4(t5)           # claim (0x200004)
        li   t3, 0x1000
        sw   t3, 4(s0)           # DMA: W1C the IOC status bit
        sw   t4, 4(t5)           # complete
        li   a5, 1               # flag: transfer done
        mret

        main:
        li   s0, 0x41000000      # DMA registers
        li   s1, 0x41010000      # RP control
        li   s2, 0x41020000      # switch control
        li   s3, 0x80400000      # staged bitstream
        # trap setup
        li   t0, 4               # address of `handler` (main at 0, j +4)
        csrw mtvec, t0
        li   t0, 0x800           # MEIE
        csrw mie, t0
        li   t0, 8               # mstatus.MIE
        csrrs zero, mstatus, t0
        # PLIC: enable the DMA MM2S source
        li   t5, 0x0C000000
        lui  t6, 0x2
        add  t6, t5, t6
        li   t0, {irq_bit}
        sw   t0, 0(t6)           # PLIC_ENABLE @ 0x2000
        # Listing 1
        li   t0, 1
        sw   t0, 0(s1)           # decouple_accel(1)
        sw   t0, 0(s2)           # select_ICAP(1)
        li   t0, 0x1001          # RS | IOC_IrqEn
        sw   t0, 0(s0)           # dma_start + dma_config(non-blocking)
        sw   s3, 0x18(s0)        # MM2S_SA
        sw   zero, 0x1C(s0)
        li   t1, {pbit_size}
        sw   t1, 0x28(s0)        # MM2S_LENGTH — go
        # sleep until the completion interrupt
        sleep:
        wfi
        beqz a5, sleep
        sw   zero, 0(s1)         # decouple_accel(0)
        sw   zero, 0(s2)
        ecall
        ",
        irq_bit = 1u32 << IRQ_DMA_MM2S,
    )
}

#[test]
fn wfi_interrupt_driven_reconfiguration() {
    let geometry = RpGeometry::scaled(2, 0, 0);
    let img = RmImage::synthesize("IRQASM", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .build();
    let module = soc.stage_module(0, &img, STAGE);

    let program = assemble(&irq_driver_asm(module.pbit_size), 0).expect("assembles");
    let mut cpu = Cpu::new(program, 0);
    let ddr = soc.handles.ddr.clone();
    let plic = soc.handles.plic.clone();
    let mut bus = InterpreterBus::new(&mut soc.core, ddr).with_irq(plic, IRQ_DMA_MM2S);
    let result = cpu.run(&mut bus, 10_000_000);
    assert_eq!(result.exit, RunExit::Halted, "driver must reach ecall");
    assert_eq!(cpu.reg(Reg::a(5)), 1, "handler must have run");
    assert_eq!(cpu.interrupts_taken, 1, "exactly one external interrupt");
    // MIE restored by mret.
    assert_ne!(cpu.csrs.mstatus & rvcap_repro::rv64::cpu::MSTATUS_MIE, 0);

    // The load completed and the partition is active.
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();
    assert!(soc.handles.icap.last_load().unwrap().crc_ok);
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("IRQASM")
    );
    // WFI means the CPU retired orders of magnitude fewer instructions
    // than a polling loop would need: the whole flow is ~50 retired
    // instructions; the transfer is ~74k cycles.
    assert!(
        result.instructions < 200,
        "{} instructions — WFI should sleep, not spin",
        result.instructions
    );
    assert!(result.cycles > 5_000, "cycles cover the whole transfer");
}

#[test]
fn interrupts_masked_when_mie_clear() {
    // Same flow but without setting mstatus.MIE: the interrupt stays
    // pending, WFI still wakes (per spec), and the handler never runs.
    let asm = "
        li   a5, 0
        li   t0, 4
        csrw mtvec, t0           # (bogus vector; must never be used)
        li   t0, 0x800
        csrw mie, t0             # MEIE set, but mstatus.MIE clear
        wfi                      # wakes on pending irq without trapping
        ecall
    ";
    let geometry = RpGeometry::scaled(1, 0, 0);
    let img = RmImage::synthesize("MASKED", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .build();
    // Fire the DMA via the Rust driver so an IRQ pends while the
    // assembly sleeps.
    use rvcap_repro::core::drivers::{DmaMode, RvCapDriver};
    let module = soc.stage_module(0, &img, STAGE);
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    // Program the DMA but don't claim the interrupt: leave it pending.
    driver.decouple_accel(&mut soc.core, true);
    driver.select_icap(&mut soc.core, true);
    driver.dma_start(&mut soc.core);
    driver.dma_config(&mut soc.core, DmaMode::NonBlocking);
    driver.dma_write_stream(&mut soc.core, module.start_address, module.pbit_size);

    let program = assemble(asm, 0).unwrap();
    let mut cpu = Cpu::new(program, 0);
    let ddr = soc.handles.ddr.clone();
    let plic = soc.handles.plic.clone();
    let mut bus = InterpreterBus::new(&mut soc.core, ddr).with_irq(plic, IRQ_DMA_MM2S);
    let result = cpu.run(&mut bus, 1_000_000);
    assert_eq!(result.exit, RunExit::Halted);
    assert_eq!(cpu.interrupts_taken, 0, "masked: no trap");
    assert_eq!(cpu.reg(Reg::a(5)), 0, "handler never ran");
}
