//! The reconfigurable WCLA slot.
//!
//! The offline flow maps a fresh [`WclaDevice`] per run; an online
//! runtime instead owns **one** fabric that is reconfigured in place
//! when a re-warp evicts the previous circuit. The slot is the
//! peripheral mapped at [`WCLA_BASE`](warp_wcla::WCLA_BASE): the
//! session keeps a handle and swaps the hosted device when a warp
//! event lands, while the bus keeps talking to the same address window.
//! An empty slot (before the first warp) reads as zero and ignores
//! writes — the unconfigured fabric.

use std::sync::{Arc, Mutex};

use mb_sim::{Bram, BusResponse, Peripheral};
use warp_wcla::WclaDevice;

/// Session-side handle to the fabric slot.
///
/// Shared via `Arc<Mutex<_>>` (not `Rc<RefCell<_>>`) so the session that
/// owns it stays `Send` — a server migrates sessions between worker
/// threads. The lock is uncontended: the port touches it from the bus
/// during a slice, the session reconfigures it between slices, and the
/// slot is never shared across sessions.
#[derive(Clone, Default)]
pub(crate) struct SharedSlot {
    inner: Arc<Mutex<Option<WclaDevice>>>,
}

impl SharedSlot {
    pub(crate) fn new() -> Self {
        SharedSlot::default()
    }

    /// Reconfigures the fabric: the previous circuit (if any) is
    /// evicted and replaced.
    pub(crate) fn install(&self, device: WclaDevice) {
        *self.inner.lock().expect("wcla slot lock") = Some(device);
    }

    /// The bus-facing peripheral for [`System::map_peripheral`].
    ///
    /// [`System::map_peripheral`]: mb_sim::System::map_peripheral
    pub(crate) fn port(&self) -> SlotPort {
        SlotPort { inner: Arc::clone(&self.inner) }
    }
}

/// The peripheral face of the slot (one per mapped system; all share
/// the same hosted device).
pub(crate) struct SlotPort {
    inner: Arc<Mutex<Option<WclaDevice>>>,
}

impl Peripheral for SlotPort {
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
        let slot = SharedSlot::new();
        let mut port = slot.port();
        let mut dmem = Bram::new(256);
        assert_eq!(port.read(0x04, &mut dmem).value, 0);
        assert_eq!(port.read(0x04, &mut dmem).wait, 0);
        assert_eq!(port.write(0x00, 1, &mut dmem), 0);
        assert_eq!(dmem.read_word(0).unwrap(), 0, "writes to an empty slot do nothing");
    }

    #[test]
    fn installed_device_serves_all_ports() {
        use mb_isa::MbFeatures;
        use warp_cdfg::decompile_loop;
        use warp_wcla::{device::regs, WclaCircuit};

        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let kernel = decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
        let (circuit, _) = WclaCircuit::build(kernel).unwrap();
        let (device, stats) = WclaDevice::new(circuit, 85_000_000);

        let slot = SharedSlot::new();
        let mut port_a = slot.port();
        let mut port_b = slot.port();
        slot.install(device);

        let mut dmem = Bram::new(64 * 1024);
        dmem.load_words(0x1000, &[0x8000_0000, 1]).unwrap();
        port_a.write(regs::COUNT, 2, &mut dmem);
        port_a.write(regs::BASE0, 0x1000, &mut dmem);
        port_a.write(regs::BASE0 + 4, 0x2000, &mut dmem);
        // The second port drives the same fabric.
        port_b.write(regs::CTRL, 1, &mut dmem);

        assert_eq!(dmem.read_word(0x2000).unwrap(), 0x0000_0001);
        assert_eq!(stats.lock().unwrap().invocations, 1);
    }
}
