//! Bring your own binary: write a program with the assembler, let the
//! warp processor find, partition, and accelerate its kernel.
//!
//! This is the downstream-user path: no `workloads` involvement — just
//! a binary, the profiler, and the CAD chain, exactly as warp processing
//! promises ("dynamically and transparently re-implementing critical
//! software kernels as custom circuits").
//!
//! The kernel here computes a saturating luminance mix over two pixel
//! streams: `out[i] = (a[i] & 0x00FF00FF) + (b[i] >> 1) ^ 0x0F0F0F0F`.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use std::sync::Arc;

use mb_isa::{Assembler, Insn, Reg};
use mb_sim::{MbConfig, System, EXIT_PORT_BASE};
use warp_profiler::{Profiler, ProfilerConfig};
use warp_wcla::device::WCLA_WINDOW;
use warp_wcla::patch::{apply_patch, stub_base_for, PatchPlan};
use warp_wcla::{WclaCircuit, WclaDevice, WCLA_BASE};

const N: i32 = 1024;
const A_ADDR: u32 = 0x1000;
const B_ADDR: u32 = 0x2000;
const OUT_ADDR: u32 = 0x3000;

fn build_program() -> mb_isa::Program {
    let mut a = Assembler::new(0);
    a.equ("a", A_ADDR).unwrap();
    a.equ("b", B_ADDR).unwrap();
    a.equ("out", OUT_ADDR).unwrap();

    a.la(Reg::R5, "a");
    a.la(Reg::R6, "b");
    a.la(Reg::R7, "out");
    a.li(Reg::R4, N);
    a.label("mix_loop");
    a.push(Insn::lwi(Reg::R9, Reg::R5, 0));
    a.push(Insn::Imm { imm: 0x00FF });
    a.push(Insn::Andi { rd: Reg::R9, ra: Reg::R9, imm: 0x00FF });
    a.push(Insn::lwi(Reg::R10, Reg::R6, 0));
    a.push(Insn::bsrli(Reg::R10, Reg::R10, 1));
    a.push(Insn::addk(Reg::R9, Reg::R9, Reg::R10));
    a.push(Insn::Imm { imm: 0x0F0F });
    a.push(Insn::Xori { rd: Reg::R9, ra: Reg::R9, imm: 0x0F0F });
    a.push(Insn::swi(Reg::R9, Reg::R7, 0));
    a.push(Insn::addik(Reg::R5, Reg::R5, 4));
    a.push(Insn::addik(Reg::R6, Reg::R6, 4));
    a.push(Insn::addik(Reg::R7, Reg::R7, 4));
    a.push(Insn::addik(Reg::R4, Reg::R4, -1));
    a.bnei(Reg::R4, "mix_loop");
    a.li(Reg::R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(Reg::R0, Reg::R31, 0));
    a.finish().expect("program assembles")
}

fn pixels(seed: u32) -> Vec<u32> {
    let mut x = seed;
    (0..N)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x
        })
        .collect()
}

fn main() {
    let program = build_program();
    let a = pixels(7);
    let b = pixels(99);

    // 1. Run in software, gathering the trace the on-chip profiler sees.
    let mut sys = System::new(MbConfig::paper_default());
    sys.load_program(&program).unwrap();
    sys.load_data(A_ADDR, &a).unwrap();
    sys.load_data(B_ADDR, &b).unwrap();
    let (sw, trace) = sys.run_traced(100_000_000).unwrap();
    println!("software run: {} cycles", sw.cycles);

    // 2. Profile: the hottest backward branch closes our mix loop.
    let mut profiler = Profiler::new(ProfilerConfig::paper_default());
    profiler.observe_trace(&trace);
    let hot = profiler.best().expect("a loop was observed");
    println!("profiler: hottest loop {hot}");

    // 3. ROCPART: decompile and compile to the WCLA.
    let kernel = warp_cdfg::decompile_loop(&program, hot.head, hot.tail)
        .expect("the loop is regular enough for the WCLA");
    let (circuit, _) = WclaCircuit::build(kernel).expect("kernel fits the fabric");
    println!(
        "circuit: {} LUTs, {:.1} ns critical path, {} B bitstream",
        circuit.netlist.lut_count(),
        circuit.compiled.timing.critical_path_ns,
        circuit.compiled.bitstream.len_bytes()
    );

    // 4. Patch the binary and re-run with the WCLA device.
    let head_word = program.word_at(circuit.kernel.head).unwrap();
    let plan = PatchPlan::new(
        &circuit.kernel,
        head_word,
        stub_base_for(program.end()),
        circuit.kernel.tail + 4,
    )
    .expect("stub builds");
    let mut warped = System::new(MbConfig::paper_default());
    warped.load_program(&program).unwrap();
    warped.load_data(A_ADDR, &a).unwrap();
    warped.load_data(B_ADDR, &b).unwrap();
    let (device, _) = WclaDevice::new(Arc::new(circuit), 85_000_000);
    warped.map_peripheral(WCLA_BASE, WCLA_WINDOW, Box::new(device));
    apply_patch(&mut warped, &plan).unwrap();
    let hw = warped.run(100_000_000).unwrap();
    println!("warped run:   {} cycles", hw.cycles);

    // 5. Verify against the obvious Rust model.
    for i in 0..N as usize {
        let want = ((a[i] & 0x00FF_00FF).wrapping_add(b[i] >> 1)) ^ 0x0F0F_0F0F;
        let got = warped.dmem().read_word(OUT_ADDR + 4 * i as u32).unwrap();
        assert_eq!(got, want, "pixel {i}");
    }
    println!("verified: hardware output matches the Rust model");
    println!("speedup: {:.1}x", sw.cycles as f64 / hw.cycles as f64);
}
