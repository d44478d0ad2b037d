//! On-chip peripheral bus (OPB) and peripherals.

use crate::Bram;

/// Base address of the OPB peripheral window.
///
/// Data addresses below this go to the data BRAM over the local memory
/// bus; addresses at or above it are routed to peripherals.
pub const OPB_BASE: u32 = 0x8000_0000;

/// Address of the exit port peripheral: a word store to this address
/// halts the simulated system with the stored value as exit code.
pub const EXIT_PORT_BASE: u32 = 0x8000_0000;

/// Result of an OPB read: the value and the bus wait cycles consumed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusResponse {
    /// Value returned to the CPU.
    pub value: u32,
    /// Wait cycles beyond the base load/store latency. A peripheral that
    /// stalls the processor (e.g. the WCLA while hardware executes)
    /// returns the full stall here.
    pub wait: u32,
}

impl BusResponse {
    /// A zero-wait response.
    #[must_use]
    pub fn immediate(value: u32) -> Self {
        BusResponse { value, wait: 0 }
    }
}

/// A memory-mapped OPB peripheral.
///
/// Peripherals receive mutable access to the data BRAM on every call,
/// modelling the dual-ported BRAM of the paper's warp system (the WCLA's
/// data address generator reads and writes application data directly).
///
/// Peripherals are `Send`: a [`System`](crate::System) with its mapped
/// peripherals is an owned, movable session — a long-running host (the
/// `warp-serve` scheduler) migrates sessions between worker threads at
/// slice boundaries, so nothing behind the bus may be thread-pinned.
pub trait Peripheral: Send {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Handles a word read at a byte offset within the peripheral window.
    fn read(&mut self, offset: u32, dmem: &mut Bram) -> BusResponse;

    /// Handles a word write; returns wait cycles.
    fn write(&mut self, offset: u32, value: u32, dmem: &mut Bram) -> u32;

    /// If the peripheral has requested a system halt, its exit code.
    fn exit_request(&self) -> Option<u32> {
        None
    }

    /// Restores power-on state, so a [`System`](crate::System) can
    /// rerun in place without remapping its peripherals. Stateless
    /// peripherals need not implement it.
    fn reset(&mut self) {}
}

/// The exit port: writing a word halts the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExitPort {
    code: Option<u32>,
}

impl ExitPort {
    /// Creates an exit port that has not yet been triggered.
    #[must_use]
    pub fn new() -> Self {
        ExitPort::default()
    }
}

impl Peripheral for ExitPort {
    fn name(&self) -> &str {
        "exit-port"
    }

    fn read(&mut self, _offset: u32, _dmem: &mut Bram) -> BusResponse {
        BusResponse::immediate(self.code.unwrap_or(0))
    }

    fn write(&mut self, _offset: u32, value: u32, _dmem: &mut Bram) -> u32 {
        self.code = Some(value);
        0
    }

    fn exit_request(&self) -> Option<u32> {
        self.code
    }

    fn reset(&mut self) {
        self.code = None;
    }
}

/// A registered peripheral and its address window.
pub(crate) struct Mapping {
    pub base: u32,
    pub size: u32,
    pub dev: Box<dyn Peripheral>,
}

/// The OPB bus: routes CPU accesses at or above [`OPB_BASE`] to
/// registered peripherals.
#[derive(Default)]
pub(crate) struct OpbBus {
    pub mappings: Vec<Mapping>,
}

impl OpbBus {
    pub fn map(&mut self, base: u32, size: u32, dev: Box<dyn Peripheral>) {
        self.mappings.push(Mapping { base, size, dev });
    }

    pub fn find(&mut self, addr: u32) -> Option<(&mut Mapping, u32)> {
        for m in &mut self.mappings {
            if addr >= m.base && addr < m.base + m.size {
                let off = addr - m.base;
                return Some((m, off));
            }
        }
        None
    }

    pub fn exit_request(&self) -> Option<u32> {
        self.mappings.iter().find_map(|m| m.dev.exit_request())
    }

    /// Resets every mapped peripheral to power-on state (an in-place
    /// rerun).
    pub fn reset_all(&mut self) {
        for m in &mut self.mappings {
            m.dev.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_port_latches_code() {
        let mut p = ExitPort::new();
        let mut dmem = Bram::new(16);
        assert_eq!(p.exit_request(), None);
        p.write(0, 42, &mut dmem);
        assert_eq!(p.exit_request(), Some(42));
        assert_eq!(p.read(0, &mut dmem).value, 42);
    }

    #[test]
    fn reset_clears_the_exit_latch() {
        let mut bus = OpbBus::default();
        bus.map(OPB_BASE, 16, Box::new(ExitPort::new()));
        let mut dmem = Bram::new(16);
        bus.find(OPB_BASE).unwrap().0.dev.write(0, 7, &mut dmem);
        assert_eq!(bus.exit_request(), Some(7));
        bus.reset_all();
        assert_eq!(bus.exit_request(), None, "reset must clear the exit latch");
    }

    #[test]
    fn bus_routes_by_address() {
        let mut bus = OpbBus::default();
        bus.map(OPB_BASE, 16, Box::new(ExitPort::new()));
        assert!(bus.find(OPB_BASE + 4).is_some());
        assert!(bus.find(OPB_BASE + 16).is_none());
        assert!(bus.find(0).is_none());
    }
}
