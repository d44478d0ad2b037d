//! The WCLA as an OPB peripheral.
//!
//! The patched binary communicates with the WCLA "using the on-chip
//! peripheral bus" (paper Section 3): it writes the trip count, stream
//! base addresses, accumulator seeds, and invariant values into
//! memory-mapped registers, starts the hardware, and then performs a
//! *blocking* status read — the OPB holds the MicroBlaze in wait states
//! (idle, for the energy model) until the loop-control hardware raises
//! done. Accumulator results are read back through the same window.

use std::sync::{Arc, Mutex};

use mb_sim::{Bram, BusResponse, Peripheral};

use crate::executor::{self, ExecScratch};
use crate::WclaCircuit;

/// OPB base address of the WCLA register window.
pub const WCLA_BASE: u32 = 0x8000_0100;
/// Size of the register window in bytes.
pub const WCLA_WINDOW: u32 = 0x100;

/// Register offsets within the window.
pub mod regs {
    /// Write: start hardware execution.
    pub const CTRL: u32 = 0x00;
    /// Read: done flag; the read blocks (bus wait states) for the whole
    /// hardware execution.
    pub const STATUS: u32 = 0x04;
    /// Write: trip count.
    pub const COUNT: u32 = 0x08;
    /// Write: stream base address `i` (i < 3): `BASE0 + 4*i`.
    pub const BASE0: u32 = 0x0C;
    /// Accumulator `k` seed (write) / result (read): `ACC0 + 4*k`.
    pub const ACC0: u32 = 0x20;
    /// Invariant `k` value (write): `INV0 + 4*k`.
    pub const INV0: u32 = 0x40;
}

/// Cumulative hardware activity (drives the energy model).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WclaStats {
    /// Hardware invocations.
    pub invocations: u64,
    /// Total kernel iterations executed in hardware.
    pub iterations: u64,
    /// Total fabric cycles.
    pub fabric_cycles: u64,
    /// Total MicroBlaze cycles spent stalled on the blocking read.
    pub mb_stall_cycles: u64,
    /// DADG loads.
    pub loads: u64,
    /// DADG stores.
    pub stores: u64,
}

impl WclaStats {
    /// Hardware-active seconds at the given fabric clock.
    #[must_use]
    pub fn hw_seconds(&self, fabric_clock_hz: u64) -> f64 {
        self.fabric_cycles as f64 / fabric_clock_hz as f64
    }
}

/// The WCLA peripheral instance.
pub struct WclaDevice {
    circuit: Arc<WclaCircuit>,
    mb_clock_hz: u64,
    count: u32,
    bases: [u32; 3],
    accs: Vec<u32>,
    invs: Vec<u32>,
    pending_wait: u32,
    scratch: ExecScratch,
    stats: Arc<Mutex<WclaStats>>,
}

impl WclaDevice {
    /// Creates a device for a compiled circuit; returns the device and a
    /// shared handle to its activity statistics. The device shares the
    /// circuit (a cached compile stays one allocation however many
    /// devices host it).
    ///
    /// The handle is `Arc<Mutex<_>>` rather than `Rc<RefCell<_>>`: the
    /// device is mapped into a [`System`](mb_sim::System) that a
    /// multi-session host migrates between worker threads, so the stats
    /// channel back to the online session must be `Send`. The lock is
    /// uncontended in practice — the device mutates it from the bus and
    /// the session reads it between slices, never concurrently.
    #[must_use]
    pub fn new(circuit: Arc<WclaCircuit>, mb_clock_hz: u64) -> (Self, Arc<Mutex<WclaStats>>) {
        let stats = Arc::new(Mutex::new(WclaStats::default()));
        let n_accs = circuit.kernel.accs.len();
        let n_invs = circuit.kernel.invariants.len();
        let scratch = ExecScratch::new(&circuit.tape);
        (
            WclaDevice {
                circuit,
                mb_clock_hz,
                count: 0,
                bases: [0; 3],
                accs: vec![0; n_accs],
                invs: vec![0; n_invs],
                pending_wait: 0,
                scratch,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }

    /// The compiled circuit this device hosts.
    #[must_use]
    pub fn circuit(&self) -> &WclaCircuit {
        &self.circuit
    }

    fn run(&mut self, dmem: &mut Bram) {
        let kernel = &self.circuit.kernel;
        // The base registers hold the *initial* stream addresses; the
        // executor advances its cursors in a private copy so a re-start
        // without rewriting BASEi replays from the programmed bases,
        // exactly as the register file semantics demand.
        let mut ptrs = self.bases;
        let outcome = executor::execute_flat(
            &self.circuit.tape,
            &self.circuit.model,
            self.count,
            &mut ptrs[..kernel.streams.len()],
            &mut self.accs,
            &self.invs,
            dmem,
            &mut self.scratch,
        )
        .expect("hardware generated an address outside the data BRAM");

        // Convert hardware time into MicroBlaze stall cycles.
        let stall = (outcome.fabric_cycles as f64 * self.mb_clock_hz as f64
            / self.circuit.model.fabric_clock_hz as f64)
            .ceil() as u32;
        self.pending_wait = stall.max(1);

        let mut st = self.stats.lock().expect("wcla stats lock");
        st.invocations += 1;
        st.iterations += outcome.iterations;
        st.fabric_cycles += outcome.fabric_cycles;
        st.mb_stall_cycles += u64::from(self.pending_wait);
        st.loads += outcome.loads;
        st.stores += outcome.stores;
    }
}

impl Peripheral for WclaDevice {
    fn name(&self) -> &str {
        "wcla"
    }

    fn read(&mut self, offset: u32, _dmem: &mut Bram) -> BusResponse {
        match offset {
            regs::STATUS => {
                let wait = std::mem::take(&mut self.pending_wait);
                BusResponse { value: 1, wait }
            }
            o if (regs::ACC0..regs::ACC0 + 16).contains(&o) => {
                let k = ((o - regs::ACC0) / 4) as usize;
                BusResponse::immediate(self.accs.get(k).copied().unwrap_or(0))
            }
            _ => BusResponse::immediate(0),
        }
    }

    fn write(&mut self, offset: u32, value: u32, dmem: &mut Bram) -> u32 {
        match offset {
            regs::CTRL => self.run(dmem),
            regs::COUNT => self.count = value,
            o if (regs::BASE0..regs::BASE0 + 12).contains(&o) => {
                self.bases[((o - regs::BASE0) / 4) as usize] = value;
            }
            o if (regs::ACC0..regs::ACC0 + 16).contains(&o) => {
                let k = ((o - regs::ACC0) / 4) as usize;
                if k < self.accs.len() {
                    self.accs[k] = value;
                }
            }
            o if (regs::INV0..regs::INV0 + 16).contains(&o) => {
                let k = ((o - regs::INV0) / 4) as usize;
                if k < self.invs.len() {
                    self.invs[k] = value;
                }
            }
            _ => {}
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_isa::MbFeatures;
    use warp_cdfg::decompile_loop;

    #[test]
    fn device_runs_kernel_and_reports_stall() {
        let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
        let kernel = decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
        let (circuit, _) = WclaCircuit::build(kernel).unwrap();
        let (mut dev, stats) = WclaDevice::new(Arc::new(circuit), 85_000_000);

        let mut dmem = Bram::new(64 * 1024);
        dmem.load_words(0x1000, &[0x8000_0000, 1, 0xFFFF_0000]).unwrap();

        dev.write(regs::COUNT, 3, &mut dmem);
        dev.write(regs::BASE0, 0x1000, &mut dmem);
        dev.write(regs::BASE0 + 4, 0x2000, &mut dmem);
        dev.write(regs::CTRL, 1, &mut dmem);

        // Results: bit reversal of the inputs.
        assert_eq!(dmem.read_word(0x2000).unwrap(), 0x0000_0001);
        assert_eq!(dmem.read_word(0x2004).unwrap(), 0x8000_0000);
        assert_eq!(dmem.read_word(0x2008).unwrap(), 0x0000_FFFF);

        // The status read stalls once, then is free.
        let r = dev.read(regs::STATUS, &mut dmem);
        assert_eq!(r.value, 1);
        assert!(r.wait > 0, "blocking read must stall the processor");
        let r2 = dev.read(regs::STATUS, &mut dmem);
        assert_eq!(r2.wait, 0);

        let st = stats.lock().unwrap();
        assert_eq!(st.invocations, 1);
        assert_eq!(st.iterations, 3);
        assert_eq!(st.loads, 3);
        assert_eq!(st.stores, 3);
        assert!(st.fabric_cycles > 0);
    }

    #[test]
    fn accumulator_seed_and_readback() {
        let built = workloads::by_name("crc32").unwrap().build(MbFeatures::paper_default());
        let kernel = decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
        let (circuit, _) = WclaCircuit::build(kernel.clone()).unwrap();
        let (mut dev, _) = WclaDevice::new(Arc::new(circuit), 85_000_000);

        let mut dmem = Bram::new(4096);
        let msg = [5u32, 7, 11];
        dmem.load_words(0x100, &msg).unwrap();

        dev.write(regs::COUNT, 3, &mut dmem);
        dev.write(regs::BASE0, 0x100, &mut dmem);
        dev.write(regs::ACC0, 0xFFFF_FFFF, &mut dmem); // seed = initial state
        dev.write(regs::CTRL, 1, &mut dmem);

        let expected = msg.iter().fold(0xFFFF_FFFFu32, |s, &w| s.rotate_left(1) ^ w);
        assert_eq!(dev.read(regs::ACC0, &mut dmem).value, expected);
    }
}
