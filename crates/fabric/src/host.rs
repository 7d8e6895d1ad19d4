//! The RM host: binds a reconfigurable partition's configuration state
//! to the streaming behaviour of whichever module is loaded.
//!
//! Real hardware needs no such component — the configured LUTs *are*
//! the module. In the simulation, the host watches the ICAP's load
//! records and, whenever a load touching its partition completes,
//! re-evaluates the partition content: if the configuration-memory
//! hash matches a registered [`RmImage`](crate::rm::RmImage) **and**
//! the load passed CRC, the corresponding behaviour is instantiated
//! (freshly reset, like real post-configuration state). Otherwise the
//! partition is inert — beats entering it are consumed by nothing and
//! nothing comes out, exactly like logic holding garbage.

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_axi::AxisChannel;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError, StateValue};

use crate::config_mem::ConfigMem;
use crate::icap::IcapHandle;
use crate::rm::{RmBehavior, RmLibrary};
use crate::rp::Rp;

/// Shared observer of an [`RmHost`]'s state (read by the RP-controller
/// register file and by tests).
#[derive(Debug, Clone, Default)]
pub struct RmHostHandle {
    active: Rc<RefCell<Option<String>>>,
    reconfig_count: Rc<RefCell<u64>>,
}

impl RmHostHandle {
    /// Name of the currently active module, if any.
    pub fn active_module(&self) -> Option<String> {
        self.active.borrow().clone()
    }

    /// Number of successful activations since power-up.
    pub fn reconfig_count(&self) -> u64 {
        *self.reconfig_count.borrow()
    }
}

/// The host component for one partition.
pub struct RmHost {
    name: String,
    rp: Rp,
    cm: ConfigMem,
    icap: IcapHandle,
    library: Rc<RmLibrary>,
    input: AxisChannel,
    output: AxisChannel,
    active: Option<Box<dyn RmBehavior>>,
    seen_loads: usize,
    handle: RmHostHandle,
}

impl RmHost {
    /// Create a host for `rp`, watching `icap` for loads.
    pub fn new(
        name: impl Into<String>,
        rp: Rp,
        cm: ConfigMem,
        icap: IcapHandle,
        library: Rc<RmLibrary>,
        input: AxisChannel,
        output: AxisChannel,
    ) -> (Self, RmHostHandle) {
        let handle = RmHostHandle::default();
        (
            RmHost {
                name: name.into(),
                rp,
                cm,
                icap,
                library,
                input,
                output,
                active: None,
                seen_loads: 0,
                handle: handle.clone(),
            },
            handle,
        )
    }

    /// Does a load record touch this partition's frame range?
    fn touches_rp(&self, far_start: u32, frames: usize) -> bool {
        let rp_start = self.rp.far_base as u64;
        let rp_end = rp_start + self.rp.frames() as u64;
        let ld_start = far_start as u64;
        let ld_end = ld_start + frames as u64;
        ld_start < rp_end && rp_start < ld_end
    }

    fn refresh_activation(&mut self) {
        let fresh = self.icap.records_since(self.seen_loads);
        let relevant = fresh
            .iter()
            .any(|r| self.touches_rp(r.far_start, r.frames.max(1)));
        self.seen_loads += fresh.len();
        if !relevant {
            return;
        }
        // Any touching load invalidates the current module until the
        // content is re-verified.
        self.active = None;
        *self.handle.active.borrow_mut() = None;
        let last_ok = fresh
            .iter()
            .rev()
            .find(|r| self.touches_rp(r.far_start, r.frames.max(1)));
        let Some(last) = last_ok else { return };
        if !last.crc_ok {
            return;
        }
        let Some(hash) = self.rp.loaded_hash(&self.cm) else {
            return;
        };
        let Some(image) = self.library.by_hash(hash) else {
            return;
        };
        // The partition is valid as soon as its content matches a
        // registered image; a behaviour (when registered) gives it
        // function, but configuration-only tests track activation too.
        *self.handle.active.borrow_mut() = Some(image.name.clone());
        *self.handle.reconfig_count.borrow_mut() += 1;
        if let Some(mut behavior) = self.library.behavior_for_hash(hash) {
            behavior.reset();
            self.active = Some(behavior);
        }
    }
}

impl Component for RmHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if self.icap.load_count() != self.seen_loads {
            self.refresh_activation();
        }
        if let Some(behavior) = &mut self.active {
            behavior.tick(ctx.cycle, &self.input, &self.output);
        }
        // No active module: input beats pile up behind the isolator /
        // in the channel, which is what driving a dead partition does.
    }

    fn busy(&self) -> bool {
        self.active.as_ref().is_some_and(|b| b.busy())
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        // An unseen ICAP load must be evaluated now. A hosted
        // behaviour is opaque (the `RmBehavior` trait declares no
        // activity), so an occupied partition is conservatively always
        // active; only an empty/inert partition can be skipped.
        if self.icap.load_count() != self.seen_loads || self.active.is_some() {
            now
        } else {
            rvcap_sim::Cycle::MAX
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // The hint has two inputs: unseen ICAP load records (covered
        // by the handle's record-push notify) and a hosted behaviour —
        // which only ever appears by processing a load record, and
        // from then on self-reschedules via the "always now" hint.
        // The stream channels need no subscription: an inert partition
        // ignores them, an occupied one is always-now anyway.
        self.icap.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        // The hosted behaviour is not serialized as code — only its
        // name and its (usually empty) pipeline state. Restore
        // re-instantiates it from the library, exactly like a load.
        let mut b = StateBlob::new("fabric.rm_host", 1);
        b.put("input", self.input.save_state());
        b.put_u64("seen_loads", self.seen_loads as u64);
        b.put_u64("reconfig_count", *self.handle.reconfig_count.borrow());
        match &*self.handle.active.borrow() {
            Some(name) => b.put_str("active", name.clone()),
            None => b.put_opt_u64("active", None),
        }
        b.put(
            "behavior",
            self.active
                .as_ref()
                .map_or(StateValue::OptU64(None), |beh| beh.save_state()),
        );
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("fabric.rm_host", 1)?;
        self.input.restore_state(state.get("input")?)?;
        self.seen_loads = state.get_u64("seen_loads")? as usize;
        *self.handle.reconfig_count.borrow_mut() = state.get_u64("reconfig_count")?;
        let active_name = match state.get("active")? {
            StateValue::Str(name) => Some(name.clone()),
            StateValue::OptU64(None) => None,
            other => {
                return Err(state.structure_error(format!(
                    "active module is {}, expected str or none",
                    other.kind()
                )))
            }
        };
        *self.handle.active.borrow_mut() = active_name.clone();
        self.active = None;
        if let Some(name) = active_name {
            let image = self.library.by_name(&name).ok_or_else(|| {
                state.structure_error(format!("active module {name} is not in the library"))
            })?;
            if let Some(mut behavior) = self.library.behavior_for_hash(image.hash()) {
                behavior.reset();
                behavior.restore_state(state.get("behavior")?)?;
                self.active = Some(behavior);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{BitstreamBuilder, KINTEX7_IDCODE};
    use crate::icap::Icap;
    use crate::resources::Resources;
    use crate::rm::{RmImage, RmLibrary};
    use crate::rp::{Rp, RpGeometry};
    use rvcap_axi::stream::pack_bytes;
    use rvcap_axi::AxisBeat;
    use rvcap_sim::{Cycle, Fifo, Freq, Simulator};

    /// A behaviour that doubles each beat's data word.
    struct Doubler {
        in_flight: u32,
    }

    impl RmBehavior for Doubler {
        fn name(&self) -> &str {
            "Doubler"
        }
        fn tick(&mut self, cycle: Cycle, input: &AxisChannel, output: &AxisChannel) {
            if output.can_push(cycle) {
                if let Some(b) = input.try_pop(cycle) {
                    output
                        .try_push(
                            cycle,
                            AxisBeat {
                                data: b.data.wrapping_mul(2),
                                ..b
                            },
                        )
                        .expect("can_push checked");
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.in_flight = 0;
        }
    }

    struct Rig {
        sim: Simulator,
        icap_in: AxisChannel,
        rm_in: AxisChannel,
        rm_out: AxisChannel,
        handle: RmHostHandle,
        img: RmImage,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let cm = ConfigMem::new(1024);
        let icap_in: AxisChannel = Fifo::new("icap.in", 1 << 16);
        let (icap, icap_h) = Icap::new("icap", icap_in.clone(), cm.clone(), KINTEX7_IDCODE);
        let geometry = RpGeometry::scaled(1, 0, 0); // 36 frames
        let rp = Rp::new("RP0", geometry, 64);
        let img = RmImage::synthesize("Doubler", rp.frames(), Resources::new(10, 10, 0, 0));
        let mut lib = RmLibrary::new();
        lib.register(img.clone(), Box::new(|| Box::new(Doubler { in_flight: 0 })));
        let rm_in: AxisChannel = Fifo::new("rm.in", 64);
        let rm_out: AxisChannel = Fifo::new("rm.out", 64);
        let (host, handle) = RmHost::new(
            "host",
            rp,
            cm,
            icap_h,
            Rc::new(lib),
            rm_in.clone(),
            rm_out.clone(),
        );
        sim.register(Box::new(icap));
        sim.register(Box::new(host));
        Rig {
            sim,
            icap_in,
            rm_in,
            rm_out,
            handle,
            img,
        }
    }

    fn load(r: &mut Rig, payload: &[u32], far: u32) {
        let bs = BitstreamBuilder::kintex7().partial(far, payload);
        for b in pack_bytes(&bs.to_bytes(), 4) {
            r.icap_in.force_push(b);
        }
        r.sim.run_until_quiescent(1_000_000).unwrap();
    }

    #[test]
    fn unconfigured_partition_is_inert() {
        let mut r = rig();
        r.rm_in.force_push(AxisBeat::wide(21, true));
        r.sim.step_n(100);
        assert!(r.rm_out.is_empty());
        assert_eq!(r.rm_in.len(), 1, "beat neither processed nor dropped");
        assert_eq!(r.handle.active_module(), None);
    }

    #[test]
    fn loading_the_image_activates_behaviour() {
        let mut r = rig();
        let payload = r.img.payload.clone();
        load(&mut r, &payload, 64);
        assert_eq!(r.handle.active_module().as_deref(), Some("Doubler"));
        assert_eq!(r.handle.reconfig_count(), 1);
        r.rm_in.force_push(AxisBeat::wide(21, true));
        r.sim.step_n(10);
        let out = r.rm_out.force_pop().unwrap();
        assert_eq!(out.data, 42);
    }

    #[test]
    fn unknown_image_stays_inert() {
        let mut r = rig();
        let other = RmImage::synthesize("Stranger", 36, Resources::ZERO);
        load(&mut r, &other.payload, 64);
        assert_eq!(r.handle.active_module(), None);
        r.rm_in.force_push(AxisBeat::wide(5, true));
        r.sim.step_n(20);
        assert!(r.rm_out.is_empty());
    }

    #[test]
    fn corrupt_load_deactivates_previous_module() {
        let mut r = rig();
        let payload = r.img.payload.clone();
        load(&mut r, &payload, 64);
        assert!(r.handle.active_module().is_some());
        // Now feed a corrupted copy: CRC fails, partition must go dark.
        let bs = BitstreamBuilder::kintex7().partial(64, &payload);
        let mut bytes = bs.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        for b in pack_bytes(&bytes, 4) {
            r.icap_in.force_push(b);
        }
        r.sim.run_until_quiescent(1_000_000).unwrap();
        assert_eq!(r.handle.active_module(), None);
        assert_eq!(r.handle.reconfig_count(), 1);
    }

    #[test]
    fn load_elsewhere_does_not_disturb_partition() {
        let mut r = rig();
        let payload = r.img.payload.clone();
        load(&mut r, &payload, 64);
        // A different 36-frame load far away.
        let other = RmImage::synthesize("Elsewhere", 36, Resources::ZERO);
        load(&mut r, &other.payload, 500);
        assert_eq!(r.handle.active_module().as_deref(), Some("Doubler"));
    }
}
