//! Fast-path equivalence: the pre-decoded fetch store, the superblock
//! engine, and the trace sinks must be invisible to simulated results.
//!
//! Five contracts are locked in here:
//!
//! 1. the pre-decoded fetch path produces an instruction-for-instruction
//!    identical [`Trace`], identical [`ExecStats`], and identical
//!    [`Outcome`] to the decode-per-fetch reference loop
//!    (`MbConfig::with_predecode(false)`);
//! 2. the superblock engine (`MbConfig::with_blocks`) and the megablock
//!    trace engine above it (`MbConfig::with_traces`, the default)
//!    match the per-instruction step engine the same way — including
//!    across mid-run patches, guard-failure side exits, and cycle
//!    budgets that expire mid-block or mid-trace;
//! 3. write-time invalidation: after an imem patch through
//!    [`System::write_imem`] — the WCLA binary-patching interface, which
//!    drops the written words' pre-decoded slots and the blocks over
//!    them — the patched words execute, never stale pre-decoded ones,
//!    stale fused blocks, or stale chained traces;
//! 4. every configuration dispatches the engine it reports via
//!    [`System::active_engine`], never a silent downgrade;
//! 5. the default configuration retires exactly the pinned number of
//!    instructions on each tier (step, block, trace) of every workload,
//!    so a trace engine that stops chaining fails here even while it
//!    still reports [`Engine::Trace`].

use mb_isa::{encode, Assembler, Insn, MbFeatures, MemSize, Reg};
use mb_sim::{Engine, MbConfig, NullSink, System, Trace, EXIT_PORT_BASE};
use workloads::BuiltWorkload;

/// Trace engine on (the default configuration).
fn fast_config() -> MbConfig {
    MbConfig::paper_default()
}

/// Superblocks without loop-trace chaining (the PR 5 block engine).
fn block_config() -> MbConfig {
    MbConfig::paper_default().with_traces(false)
}

/// Pre-decoded fetch but per-instruction stepping (the PR 3 fast path).
fn step_config() -> MbConfig {
    MbConfig::paper_default().with_blocks(false)
}

fn reference_config() -> MbConfig {
    MbConfig::paper_default().with_predecode(false).with_blocks(false)
}

#[test]
fn every_config_reports_the_engine_it_dispatches() {
    assert_eq!(System::new(fast_config()).active_engine(), Engine::Trace);
    assert_eq!(System::new(block_config()).active_engine(), Engine::Block);
    assert_eq!(System::new(step_config()).active_engine(), Engine::Step);
    assert_eq!(System::new(reference_config()).active_engine(), Engine::Reference);
}

/// Every registry workload built on its default inputs and on one seeded
/// input set, so the engines are also compared on other data.
fn default_and_seeded_builds() -> Vec<BuiltWorkload> {
    let features = MbFeatures::paper_default();
    workloads::all()
        .iter()
        .flat_map(|w| [w.build(features), w.build_seeded(features, 0xD1FF)])
        .collect()
}

/// `(workload, step, block, trace)`: the instructions each tier retires
/// in one default-configuration `run` of every registry workload, no
/// prewarm — the run `simperf`'s `engine_coverage` fractions come from.
const ENGINE_TIERS: &[(&str, u64, u64, u64)] = &[
    ("brev", 6, 97, 78_824),
    ("g3fax", 6, 68, 29_942),
    ("canrdr", 6, 72, 53_612),
    ("bitmnp", 6, 80, 46_436),
    ("idct", 6, 26_440, 4_656),
    ("matmul", 6, 10_143, 60_386),
    ("fir", 6, 85, 22_584),
    ("crc32", 6, 20, 15_984),
    ("phased", 3, 967, 40_776),
];

#[test]
fn every_workload_retires_the_pinned_count_on_each_engine_tier() {
    let suite = workloads::all();
    let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
    let pinned: Vec<&str> = ENGINE_TIERS.iter().map(|t| t.0).collect();
    assert_eq!(names, pinned, "one pinned row per registry workload");
    for (workload, &(name, step, block, trace)) in suite.iter().zip(ENGINE_TIERS) {
        let mut sys = workload.build(MbFeatures::paper_default()).instantiate(&fast_config());
        assert_eq!(sys.active_engine(), Engine::Trace);
        assert!(sys.run(500_000_000).unwrap().exited(), "{name} must exit");
        let stats = sys.stats();
        assert_eq!(
            (stats.step_instructions(), stats.block_instructions(), stats.trace_instructions()),
            (step, block, trace),
            "{name}: (step, block, trace) retired instructions"
        );
    }
}

#[test]
fn predecoded_fetch_matches_decode_per_fetch_reference() {
    for built in default_and_seeded_builds() {
        let mut fast = built.instantiate(&fast_config());
        let (fast_out, fast_trace) = fast.run_traced(500_000_000).unwrap();

        let mut reference = built.instantiate(&reference_config());
        let (ref_out, ref_trace) = reference.run_traced(500_000_000).unwrap();

        assert_eq!(fast_out, ref_out, "{}: outcome must be identical", built.name);
        assert_eq!(
            fast_trace, ref_trace,
            "{}: traces must match instruction-for-instruction",
            built.name
        );
        assert_eq!(fast.stats(), reference.stats(), "{}: ExecStats must match", built.name);
        assert_eq!(fast.cpu(), reference.cpu(), "{}: final CPU state must match", built.name);
    }
}

#[test]
fn untraced_run_has_identical_stats_to_traced_run() {
    // NullSink vs full-trace sink is a compile-time policy; the
    // simulated outcome and statistics must not notice.
    let built = workloads::by_name("canrdr").unwrap().build(MbFeatures::paper_default());

    let mut untraced = built.instantiate(&fast_config());
    let out_untraced = untraced.run(500_000_000).unwrap();

    let mut traced = built.instantiate(&fast_config());
    let (out_traced, _) = traced.run_traced(500_000_000).unwrap();

    assert_eq!(out_untraced, out_traced);
    assert_eq!(untraced.stats(), traced.stats());
    assert_eq!(untraced.cpu(), traced.cpu());
    built.verify(untraced.dmem()).unwrap();
}

/// Builds a two-iteration loop whose body instruction at a known PC can
/// be patched between iterations.
fn patchable_loop() -> (mb_isa::Program, u32, u32) {
    let mut a = Assembler::new(0);
    a.li(Reg::R3, 2); // one word: addik r3, r0, 2
    a.label("top");
    a.push(Insn::addik(Reg::R4, Reg::R4, 5)); // the patch target
    a.push(Insn::addik(Reg::R3, Reg::R3, -1));
    a.bnei(Reg::R3, "top");
    a.li(Reg::R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(Reg::R0, Reg::R31, 0));
    let program = a.finish().unwrap();
    let body_pc = 4; // first instruction after the one-word li
    let branch_pc = 12;
    (program, body_pc, branch_pc)
}

/// Steps until the PC equals `target`, with a safety bound.
fn step_until(sys: &mut System, target: u32) {
    let mut guard = 0;
    while sys.cpu().pc() != target {
        sys.step(&mut NullSink).unwrap();
        guard += 1;
        assert!(guard < 10_000, "never reached pc {target:#x}");
    }
}

/// Runs the patch-mid-execution scenario on one configuration: execute
/// the loop body once (hot in the pre-decoded slots), rewrite the body
/// instruction through `write_imem`, finish the program.
fn run_patch_scenario(config: &MbConfig) -> System {
    let (program, body_pc, branch_pc) = patchable_loop();
    let mut sys = System::new(config.clone());
    sys.load_program(&program).unwrap();
    // First iteration has executed the body once when the branch is
    // reached — exactly when a stale decode-cache entry would exist.
    step_until(&mut sys, branch_pc);
    sys.write_imem(body_pc, &[encode(&Insn::addik(Reg::R4, Reg::R4, 7))]).unwrap();
    let out = sys.run(10_000).unwrap();
    assert!(out.exited());
    sys
}

#[test]
fn imem_patch_invalidates_predecoded_store() {
    // fast_config has the block engine on, so this exercises both the
    // predecode-slot and the fused-block invalidation paths.
    let fast = run_patch_scenario(&fast_config());
    // Iteration 1 added 5, iteration 2 must execute the patched word.
    assert_eq!(fast.cpu().reg(Reg::R4), 12, "stale pre-decoded instruction executed");

    // And the whole machine state matches the per-instruction step
    // engine and the decode-per-fetch loop subjected to the identical
    // patch sequence.
    let stepped = run_patch_scenario(&step_config());
    let reference = run_patch_scenario(&reference_config());
    assert_eq!(reference.cpu().reg(Reg::R4), 12);
    assert_eq!(fast.cpu(), stepped.cpu());
    assert_eq!(fast.stats(), stepped.stats());
    assert_eq!(fast.cpu(), reference.cpu());
    assert_eq!(fast.stats(), reference.stats());
}

#[test]
fn faulting_block_preserves_step_engine_prefix_state() {
    // An `imm` directly before a register-indexed load that faults: the
    // step engine clears a pending prefix only *after* a successful
    // Type-A access, so it still holds the prefix at the fault point —
    // the block engine must restore it when unwinding the fused block,
    // leaving bit-identical CPU state on the error path too.
    let run = |config: &MbConfig| {
        let mut a = Assembler::new(0);
        a.li(Reg::R2, 0x0010_0000); // beyond the 64 KiB dmem, below the OPB window
        a.push(Insn::Imm { imm: 0x0123 });
        a.push(Insn::Load { size: MemSize::Word, rd: Reg::R1, ra: Reg::R2, rb: Reg::R0 });
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        let program = a.finish().unwrap();
        let mut sys = System::new(config.clone());
        sys.load_program(&program).unwrap();
        let err = sys.run(10_000).unwrap_err();
        (sys, err)
    };
    let (blocks, err_b) = run(&fast_config());
    let (stepped, err_s) = run(&step_config());
    assert_eq!(err_b, err_s, "both engines must raise the identical fault");
    assert!(blocks.cpu().has_imm_prefix(), "the pending prefix must survive the Type-A fault");
    assert_eq!(blocks.cpu(), stepped.cpu(), "post-fault CPU state must match");
    assert_eq!(blocks.stats(), stepped.stats(), "post-fault stats must match");
}

#[test]
fn trace_block_and_step_engines_match_on_all_workloads() {
    for built in default_and_seeded_builds() {
        let mut traces = built.instantiate(&fast_config());
        assert_eq!(traces.active_engine(), Engine::Trace);
        let (out_t, trace_t) = traces.run_traced(500_000_000).unwrap();

        let mut blocks = built.instantiate(&block_config());
        assert_eq!(blocks.active_engine(), Engine::Block);
        let (out_b, trace_b) = blocks.run_traced(500_000_000).unwrap();

        let mut stepped = built.instantiate(&step_config());
        assert_eq!(stepped.active_engine(), Engine::Step);
        let (out_s, trace_s) = stepped.run_traced(500_000_000).unwrap();

        assert_eq!(out_b, out_s, "{}: outcome must be identical", built.name);
        assert_eq!(out_t, out_s, "{}: trace-engine outcome must be identical", built.name);
        assert_eq!(
            trace_b, trace_s,
            "{}: block retirement must synthesize the identical event stream",
            built.name
        );
        assert_eq!(
            trace_t, trace_s,
            "{}: loop-trace retirement (guard side exits included) must \
             synthesize the identical event stream",
            built.name
        );
        assert_eq!(blocks.stats(), stepped.stats(), "{}: ExecStats must match", built.name);
        assert_eq!(traces.stats(), stepped.stats(), "{}: trace ExecStats must match", built.name);
        assert_eq!(blocks.cpu(), stepped.cpu(), "{}: final CPU state must match", built.name);
        assert_eq!(traces.cpu(), stepped.cpu(), "{}: trace CPU state must match", built.name);
        built.verify(blocks.dmem()).unwrap();
        built.verify(traces.dmem()).unwrap();
    }
}

#[test]
fn sliced_block_execution_stops_at_step_engine_boundaries() {
    // Slice budgets small enough that they constantly expire mid-block:
    // the engine must split at the exact instruction boundary the step
    // engine would have used, observable as identical PC / stats /
    // outcome after every slice.
    let built = workloads::by_name("brev").unwrap().build(MbFeatures::paper_default());
    let budgets = [1u64, 3, 7, 17, 33, 129, 513];

    let mut blocks = built.instantiate(&fast_config());
    let mut stepped = built.instantiate(&step_config());
    let mut trace_b = Trace::new();
    let mut trace_s = Trace::new();
    for (i, &budget) in budgets.iter().cycle().enumerate() {
        let out_b = blocks.run_with_sink(budget, &mut trace_b).unwrap();
        let out_s = stepped.run_with_sink(budget, &mut trace_s).unwrap();
        assert_eq!(out_b, out_s, "slice {i} (budget {budget}) diverged");
        assert_eq!(
            blocks.cpu().pc(),
            stepped.cpu().pc(),
            "slice {i} (budget {budget}): boundary PC diverged"
        );
        assert_eq!(blocks.stats(), stepped.stats(), "slice {i}: stats diverged");
        if out_b.exited() {
            break;
        }
        assert!(i < 20_000_000, "workload never exited under sliced execution");
    }
    assert_eq!(trace_b, trace_s, "sliced traces must be event-identical");
    assert_eq!(blocks.cpu(), stepped.cpu());
    built.verify(blocks.dmem()).unwrap();
}

/// A 100-iteration counting loop: one-word `li`, two-op body, backward
/// `bnei` — the shape the trace tier chains. Returns the program plus
/// the body and guard-word PCs.
fn hot_loop() -> (mb_isa::Program, u32, u32) {
    let mut a = Assembler::new(0);
    a.li(Reg::R3, 100);
    a.label("top");
    a.push(Insn::addik(Reg::R4, Reg::R4, 5));
    a.push(Insn::addik(Reg::R3, Reg::R3, -1));
    a.bnei(Reg::R3, "top");
    a.li(Reg::R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(Reg::R0, Reg::R31, 0));
    (a.finish().unwrap(), 4, 12)
}

#[test]
fn mid_trace_patches_to_body_and_guard_words_take_effect() {
    // Run one slice so the loop trace is chained and hot, then — in the
    // warp-online hot-patch window between slices — rewrite both a body
    // word and the guard word itself. The stale trace must be dropped:
    // the patched body executes and the patched (no longer a branch)
    // guard word falls through to the exit. Every engine must agree.
    let run = |config: &MbConfig| {
        let (program, body_pc, guard_pc) = hot_loop();
        let mut sys = System::new(config.clone());
        sys.load_program(&program).unwrap();
        let out = sys.run_with_sink(100, &mut NullSink).unwrap();
        assert!(!out.exited(), "slice must stop mid-loop");
        sys.write_imem(body_pc, &[encode(&Insn::addik(Reg::R4, Reg::R4, 7))]).unwrap();
        sys.write_imem(guard_pc, &[encode(&Insn::addik(Reg::R5, Reg::R5, 1))]).unwrap();
        let out = sys.run(1_000_000).unwrap();
        assert!(out.exited());
        sys
    };
    let traces = run(&fast_config());
    let blocks = run(&block_config());
    let stepped = run(&step_config());
    let reference = run(&reference_config());
    assert_eq!(traces.cpu().reg(Reg::R5), 1, "patched guard word must execute");
    assert_eq!(traces.cpu(), stepped.cpu());
    assert_eq!(traces.stats(), stepped.stats());
    assert_eq!(blocks.cpu(), stepped.cpu());
    assert_eq!(blocks.stats(), stepped.stats());
    assert_eq!(reference.cpu(), stepped.cpu());
}

#[test]
fn scattered_writes_mid_slice_still_invalidate_traces() {
    // A dozen scattered writes to unreachable words before patching the
    // hot body: each write invalidates only its own word, and the body
    // patch must still drop the stale block and trace.
    let run = |config: &MbConfig| {
        let (program, body_pc, _) = hot_loop();
        let mut sys = System::new(config.clone());
        sys.load_program(&program).unwrap();
        let out = sys.run_with_sink(100, &mut NullSink).unwrap();
        assert!(!out.exited(), "slice must stop mid-loop");
        for i in 0..12u32 {
            sys.write_imem(0x8000 + i * 64, &[encode(&Insn::addik(Reg::R5, Reg::R5, 1))]).unwrap();
        }
        sys.write_imem(body_pc, &[encode(&Insn::addik(Reg::R4, Reg::R4, 7))]).unwrap();
        let out = sys.run(1_000_000).unwrap();
        assert!(out.exited());
        sys
    };
    let traces = run(&fast_config());
    let blocks = run(&block_config());
    let stepped = run(&step_config());
    assert_eq!(traces.cpu(), stepped.cpu());
    assert_eq!(traces.stats(), stepped.stats());
    assert_eq!(blocks.cpu(), stepped.cpu());
    assert_eq!(blocks.stats(), stepped.stats());
}

#[test]
fn guard_failure_side_exit_resumes_at_the_architectural_boundary() {
    // A nested loop: the inner guard fails every 4th iteration (side
    // exit to the outer decrement, a non-chainable forward fall-
    // through), and the outer backward branch re-enters the inner
    // trace. Slice budgets force boundaries inside and around the
    // side exits; everything must match the step engine exactly.
    let program = {
        let mut a = Assembler::new(0);
        a.li(Reg::R10, 25); // outer iterations
        a.label("outer");
        a.li(Reg::R3, 4); // inner iterations
        a.label("inner");
        a.push(Insn::addik(Reg::R4, Reg::R4, 3));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.bnei(Reg::R3, "inner");
        a.push(Insn::addik(Reg::R10, Reg::R10, -1));
        a.bnei(Reg::R10, "outer");
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        a.finish().unwrap()
    };
    for budget in [5u64, 23, 101, 1_000_000] {
        let mut traces = System::new(fast_config());
        let mut stepped = System::new(step_config());
        traces.load_program(&program).unwrap();
        stepped.load_program(&program).unwrap();
        let mut trace_t = Trace::new();
        let mut trace_s = Trace::new();
        loop {
            let out_t = traces.run_with_sink(budget, &mut trace_t).unwrap();
            let out_s = stepped.run_with_sink(budget, &mut trace_s).unwrap();
            assert_eq!(out_t, out_s, "budget {budget} diverged");
            assert_eq!(traces.cpu().pc(), stepped.cpu().pc(), "budget {budget}: boundary PC");
            if out_t.exited() {
                break;
            }
        }
        assert_eq!(trace_t, trace_s, "budget {budget}: event streams must match");
        assert_eq!(traces.cpu(), stepped.cpu(), "budget {budget}");
        assert_eq!(traces.stats(), stepped.stats(), "budget {budget}");
        assert_eq!(traces.cpu().reg(Reg::R4), 25 * 4 * 3);
    }
}

#[test]
fn trailing_imm_guard_prefix_survives_slice_boundaries() {
    // A loop whose guard needs an `imm` prefix (32-bit backward
    // displacement): the trailing `imm` fuses into the guard when the
    // trace chains. A slice boundary landing between the `imm` and the
    // branch must leave the architectural prefix pending, exactly as
    // the step engine would (the trace engine skips the guard on budget
    // expiry). Full-CPU equality every slice catches a dropped prefix.
    let program = {
        let mut a = Assembler::new(0);
        a.li(Reg::R3, 50);
        a.push(Insn::addik(Reg::R4, Reg::R4, 9));
        a.push(Insn::addik(Reg::R3, Reg::R3, -1));
        a.push(Insn::Imm { imm: -1 });
        a.push(Insn::Bci { cond: mb_isa::Cond::Ne, ra: Reg::R3, imm: -12, delay: false });
        a.li(Reg::R31, EXIT_PORT_BASE as i32);
        a.push(Insn::swi(Reg::R0, Reg::R31, 0));
        a.finish().unwrap()
    };
    for budget in [1u64, 2, 3, 4, 5, 7, 11] {
        let mut fast = System::new(fast_config());
        let mut stepped = System::new(step_config());
        fast.load_program(&program).unwrap();
        stepped.load_program(&program).unwrap();
        let mut trace_f = Trace::new();
        let mut trace_s = Trace::new();
        loop {
            let out_f = fast.run_with_sink(budget, &mut trace_f).unwrap();
            let out_s = stepped.run_with_sink(budget, &mut trace_s).unwrap();
            assert_eq!(out_f, out_s, "budget {budget} diverged");
            assert_eq!(
                fast.cpu(),
                stepped.cpu(),
                "budget {budget}: full CPU state (incl. imm prefix) at the boundary"
            );
            if out_f.exited() {
                break;
            }
        }
        assert_eq!(trace_f, trace_s, "budget {budget}: event streams must match");
        assert_eq!(fast.stats(), stepped.stats(), "budget {budget}");
        assert_eq!(fast.cpu().reg(Reg::R4), 50 * 9);
    }
}
