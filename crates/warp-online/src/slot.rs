//! The reconfigurable WCLA slot.
//!
//! The offline flow maps a fresh [`WclaDevice`] per run; an online
//! runtime instead owns **one** fabric that is reconfigured in place
//! when a re-warp evicts the previous circuit. The slot is the
//! peripheral mapped at [`WCLA_BASE`](warp_wcla::WCLA_BASE), once, when
//! the session builds its machine: the session keeps a clone and swaps
//! the hosted device when a warp event lands, while the bus keeps
//! talking to the same address window for every repeat. An empty slot
//! (before the first warp) reads as zero and ignores writes — the
//! unconfigured fabric.

use std::sync::{Arc, Mutex};

use mb_sim::{Bram, BusResponse, Peripheral};
use warp_wcla::WclaDevice;

/// The fabric slot: every clone hosts the same device.
///
/// Shared via `Arc<Mutex<_>>` (not `Rc<RefCell<_>>`) so the session that
/// owns it stays `Send` — a server migrates sessions between worker
/// threads. The lock is uncontended: the mapped clone touches it from
/// the bus during a slice, the session reconfigures it between slices,
/// and the slot is never shared across sessions.
#[derive(Clone, Default)]
pub(crate) struct SharedSlot {
    inner: Arc<Mutex<Option<WclaDevice>>>,
}

impl SharedSlot {
    /// Reconfigures the fabric: the previous circuit (if any) is
    /// evicted and replaced.
    pub(crate) fn install(&self, device: WclaDevice) {
        *self.inner.lock().expect("wcla slot lock") = Some(device);
    }
}

impl Peripheral for SharedSlot {
    fn name(&self) -> &str {
        "wcla-slot"
    }

    fn read(&mut self, offset: u32, dmem: &mut Bram) -> BusResponse {
        match self.inner.lock().expect("wcla slot lock").as_mut() {
            Some(device) => device.read(offset, dmem),
            None => BusResponse::immediate(0),
        }
    }

    fn write(&mut self, offset: u32, value: u32, dmem: &mut Bram) -> u32 {
        match self.inner.lock().expect("wcla slot lock").as_mut() {
            Some(device) => device.write(offset, value, dmem),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slot_is_inert() {
        let mut slot = SharedSlot::default();
        let mut dmem = Bram::new(256);
        assert_eq!(slot.read(0x04, &mut dmem).value, 0);
        assert_eq!(slot.read(0x04, &mut dmem).wait, 0);
        assert_eq!(slot.write(0x00, 1, &mut dmem), 0);
        assert_eq!(dmem.read_word(0).unwrap(), 0, "writes to an empty slot do nothing");
    }

    #[test]
    fn installed_device_serves_every_clone() {
        use mb_isa::MbFeatures;
        use warp_cdfg::decompile_loop;
        use warp_wcla::{device::regs, WclaCircuit};

        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let kernel = decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
        let (circuit, _) = WclaCircuit::build(kernel).unwrap();
        let (device, stats) = WclaDevice::new(Arc::new(circuit), 85_000_000);

        let slot = SharedSlot::default();
        let mut mapped_a = slot.clone();
        let mut mapped_b = slot.clone();
        slot.install(device);

        let mut dmem = Bram::new(64 * 1024);
        dmem.load_words(0x1000, &[0x8000_0000, 1]).unwrap();
        mapped_a.write(regs::COUNT, 2, &mut dmem);
        mapped_a.write(regs::BASE0, 0x1000, &mut dmem);
        mapped_a.write(regs::BASE0 + 4, 0x2000, &mut dmem);
        // The second clone drives the same fabric.
        mapped_b.write(regs::CTRL, 1, &mut dmem);

        assert_eq!(dmem.read_word(0x2000).unwrap(), 0x0000_0001);
        assert_eq!(stats.lock().unwrap().invocations, 1);
    }
}
