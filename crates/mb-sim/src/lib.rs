//! Cycle-approximate MicroBlaze system simulator.
//!
//! Models the system of Figure 1 in the DATE 2005 warp-processing paper: a
//! MicroBlaze-style CPU with Harvard local-memory buses to separate
//! instruction and data block RAMs, and an on-chip peripheral bus (OPB)
//! with memory-mapped peripherals. Like the paper's system it has no
//! caches.
//!
//! Timing follows the paper's 3-stage pipeline description: one-cycle ALU
//! operations, three-cycle multiplies, two-cycle loads/stores, and branch
//! latencies of one to three cycles depending on the branch kind, whether
//! it is taken, and whether its delay slot is used.
//!
//! The simulator produces instruction [`Trace`]s — the same information
//! the paper obtained from the Xilinx Microprocessor Debug Engine — which
//! feed the on-chip profiler model and the ARM baseline simulators.
//!
//! # Example
//!
//! ```
//! use mb_isa::{Assembler, Insn, Reg};
//! use mb_sim::{MbConfig, System};
//!
//! let mut a = Assembler::new(0);
//! a.li(Reg::R3, 10);
//! a.label("loop");
//! a.push(Insn::addik(Reg::R3, Reg::R3, -1));
//! a.bnei(Reg::R3, "loop");
//! // Exit via the MMIO exit port.
//! a.li(Reg::R4, mb_sim::EXIT_PORT_BASE as i32);
//! a.push(Insn::swi(Reg::R0, Reg::R4, 0));
//! let program = a.finish().unwrap();
//!
//! let mut sys = System::new(MbConfig::default());
//! sys.load_program(&program).unwrap();
//! let outcome = sys.run(100_000).unwrap();
//! assert!(outcome.exited());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod config;
mod cpu;
mod image;
mod machine;
mod mem;
mod periph;
mod predecode;
mod sink;
mod stats;
mod timing;
mod trace;

pub use config::{MbConfig, MB_CLOCK_HZ};
pub use cpu::Cpu;
pub use image::ProgramImage;
pub use machine::{Engine, Outcome, RunError, StopReason, System};
pub use mem::{Bram, MemError};
pub use periph::{BusResponse, ExitPort, Peripheral, EXIT_PORT_BASE, OPB_BASE};
pub use sink::{BlockRetire, NullSink, TraceSink};
pub use stats::ExecStats;
pub use timing::{branch_latency, insn_latency};
pub use trace::{Trace, TraceEvent};
