//! Cross-crate pipeline invariants that no single crate can check alone.

use mb_isa::MbFeatures;
use mb_sim::MbConfig;
use warp_wcla::patch::{apply_patch, revert_patch, stub_base_for, PatchPlan};
use warp_wcla::WclaCircuit;

/// A patched-then-reverted binary must behave exactly like the original.
#[test]
fn patch_revert_restores_software_behavior() {
    let built = workloads::by_name("bitmnp").unwrap().build(MbFeatures::paper_default());
    let kernel =
        warp_cdfg::decompile_loop(&built.program, built.kernel.head, built.kernel.tail).unwrap();
    let head_word = built.program.word_at(kernel.head).unwrap();
    let plan =
        PatchPlan::new(&kernel, head_word, stub_base_for(built.program.end()), kernel.tail + 4)
            .unwrap();

    let mut sys = built.instantiate(&MbConfig::paper_default());
    apply_patch(&mut sys, &plan).unwrap();
    revert_patch(&mut sys, &plan).unwrap();
    let outcome = sys.run(200_000_000).unwrap();
    assert!(outcome.exited());
    built.verify(sys.dmem()).unwrap();
}

/// The WCLA's cycle model must never claim hardware is slower than an
/// equivalent ideal software loop would allow it to be fast — i.e. the
/// per-iteration hardware time stays below the software kernel's
/// per-iteration time for every paper workload (the premise of warping).
#[test]
fn hardware_iteration_beats_software_iteration() {
    for workload in workloads::paper_suite() {
        let built = workload.build(MbFeatures::paper_default());
        let kernel =
            warp_cdfg::decompile_loop(&built.program, built.kernel.head, built.kernel.tail)
                .unwrap();
        let (circuit, _) = WclaCircuit::build(kernel).unwrap();

        // Software: count the kernel's per-iteration cycles from a trace.
        let mut sys = built.instantiate(&MbConfig::paper_default());
        let (_, trace) = sys.run_traced(500_000_000).unwrap();
        let (start, end) = built.kernel.range();
        let kernel_cycles = trace.cycles_in_range(start, end);
        let backward = trace
            .iter()
            .filter(|e| e.pc == built.kernel.tail && e.is_backward_taken_branch())
            .count() as u64;
        let iterations = backward + circuit_invocations(&built);
        let sw_ns_per_iter = kernel_cycles as f64 / iterations.max(1) as f64 / 85e6 * 1e9;

        let hw_ns_per_iter =
            circuit.model.cycles_per_iteration as f64 / circuit.model.fabric_clock_hz as f64 * 1e9;
        assert!(
            hw_ns_per_iter < sw_ns_per_iter,
            "{}: HW {hw_ns_per_iter:.1} ns/iter vs SW {sw_ns_per_iter:.1} ns/iter",
            workload.name
        );
    }
}

/// Number of not-taken exits = number of invocations of the loop.
fn circuit_invocations(built: &workloads::BuiltWorkload) -> u64 {
    // Every loop entry ends with exactly one not-taken tail branch.
    // matmul re-enters per (i, j); the others once.
    if built.name == "matmul" {
        (workloads::matmul_dim() * workloads::matmul_dim()) as u64
    } else {
        1
    }
}

/// Bitstream sizes stay within an on-chip configuration budget.
#[test]
fn bitstreams_are_kilobytes_not_megabytes() {
    for workload in workloads::all() {
        let built = workload.build(MbFeatures::paper_default());
        let kernel =
            warp_cdfg::decompile_loop(&built.program, built.kernel.head, built.kernel.tail)
                .unwrap();
        let (circuit, _) = WclaCircuit::build(kernel).unwrap();
        let bytes = circuit.compiled.bitstream.len_bytes();
        assert!(
            bytes < 4 * 1024 * 1024,
            "{}: bitstream {bytes} B exceeds on-chip budget",
            workload.name
        );
    }
}
