//! Generated loop kernels through the WCLA executor.
//!
//! Seeded random kernels cover every DFG operation, one to three
//! streams with zero, negative and misaligned strides, in-place and
//! overlapping streams, up to four accumulators and invariants, trip
//! counts across several 64-iteration chunks, and stream bases inside,
//! near the end of, and far outside the data BRAM. A run that stays in
//! range must equal [`LoopKernel::interpret`] over live memory. A run
//! that faults must equal the same kernel stepped one iteration per
//! call: the same [`MemError`], memory, pointers and accumulators.

use std::cell::{Cell, RefCell};

use mb_isa::Reg;
use mb_sim::{Bram, MemError};
use warp_cdfg::{AccUpdate, Dfg, KernelEnv, LoopKernel, MemStream, NodeId, Op, StoreOp};
use warp_wcla::executor::{execute_flat, ExecScratch, FlatOutcome};
use warp_wcla::{ExecModel, Tape};

const BRAM_BYTES: u32 = 8 * 1024;
const CASES: usize = 3000;

/// The computed operations; shift amounts are drawn per node.
const COMPUTED: [Op; 15] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::AndNot,
    Op::Shl(0),
    Op::Shr(0),
    Op::Sar(0),
    Op::ShlDyn,
    Op::ShrDyn,
    Op::SarDyn,
    Op::Sext8,
    Op::Sext16,
];

/// splitmix64: deterministic kernels and data without a rand
/// dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn word(&mut self) -> u32 {
        self.next() as u32
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A byte offset from a stream cursor: usually word-aligned.
    fn offset(&mut self) -> i32 {
        if self.percent(3) {
            self.pick(&[-2, 1, 3, 6])
        } else {
            4 * (self.below(9) as i32 - 4)
        }
    }

    /// A stream stride: zero, negative, and now and then misaligned.
    fn stride(&mut self) -> i32 {
        if self.percent(3) {
            self.pick(&[-6, 2])
        } else {
            self.pick(&[0, 4, 4, 4, -4, 8, -8, 12, -16])
        }
    }

    /// A first stream base: mostly well inside the BRAM, sometimes near
    /// its end, wild, wrapping past zero, or misaligned.
    fn base(&mut self) -> u32 {
        match self.below(20) {
            0..=11 => BRAM_BYTES / 4 + 4 * self.below(u64::from(BRAM_BYTES) / 8) as u32,
            12..=14 => BRAM_BYTES - 4 * (1 + self.below(16)) as u32,
            15 | 16 => self.word(),
            17 | 18 => 0u32.wrapping_sub(4 * (1 + self.below(8)) as u32),
            _ => BRAM_BYTES / 2 + 1 + self.below(3) as u32,
        }
    }
}

/// One generated invocation: a kernel, the registers it is seeded
/// with, and the data BRAM it starts from.
struct Case {
    kernel: LoopKernel,
    env: KernelEnv,
    memory: Bram,
}

fn generate(rng: &mut Rng, ops_seen: &mut [usize; COMPUTED.len()]) -> Case {
    let mut streams: Vec<MemStream> = Vec::new();
    let mut pointers = Vec::new();
    for si in 0..1 + rng.below(3) as usize {
        let (base, stride) = match (si, rng.below(3)) {
            (0, _) | (_, 0) => (rng.base(), rng.stride()),
            // In place: another cursor on the first stream's words.
            (_, 1) => (pointers[0], if rng.percent(70) { streams[0].stride } else { rng.stride() }),
            // Overlapping: a few words off the first stream.
            _ => {
                let skew = 4 * (rng.below(9) as i32 - 4);
                let stride = if rng.percent(70) { streams[0].stride } else { rng.stride() };
                (pointers[0].wrapping_add(skew as u32), stride)
            }
        };
        let mut load_offsets = Vec::new();
        for _ in 0..rng.below(4) {
            let offset = rng.offset();
            if !load_offsets.contains(&offset) {
                load_offsets.push(offset);
            }
        }
        streams.push(MemStream {
            base: Reg::new(3 + si as u8),
            stride,
            load_offsets,
            store_offsets: Vec::new(),
        });
        pointers.push(base);
    }

    // Inputs first: every fetched word, the invariants, the
    // accumulators the body reads, and a constant or three.
    let mut dfg = Dfg::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    for (stream, s) in streams.iter().enumerate() {
        for &offset in &s.load_offsets {
            nodes.push(dfg.push(Op::LoadValue { stream, offset }, vec![]));
        }
    }
    let invariants: Vec<Reg> = (0..rng.below(5) as u8).map(|k| Reg::new(20 + k)).collect();
    for &reg in &invariants {
        nodes.push(dfg.push(Op::Invariant { reg }, vec![]));
    }
    let acc_regs: Vec<Reg> = (0..rng.below(5) as u8).map(|k| Reg::new(10 + k)).collect();
    for &reg in &acc_regs {
        if rng.percent(85) {
            nodes.push(dfg.push(Op::Acc { reg }, vec![]));
        }
    }
    for _ in 0..1 + rng.below(3) {
        let value = if rng.percent(50) { rng.below(40) as u32 } else { rng.word() };
        nodes.push(dfg.constant(value));
    }

    for _ in 0..rng.below(25) {
        // Now and then a second node loading a word already loaded.
        if rng.percent(5) {
            if let op @ Op::LoadValue { .. } = dfg.node(rng.pick(&nodes)).op {
                nodes.push(dfg.push(op, vec![]));
            }
        }
        let i = rng.below(COMPUTED.len() as u64) as usize;
        ops_seen[i] += 1;
        let op = match COMPUTED[i] {
            Op::Shl(_) => Op::Shl(rng.below(40) as u8),
            Op::Shr(_) => Op::Shr(rng.below(40) as u8),
            Op::Sar(_) => Op::Sar(rng.below(40) as u8),
            op => op,
        };
        // Favour recent nodes, so chains grow deep.
        let arg = |rng: &mut Rng| {
            let back = rng.below(nodes.len() as u64).min(rng.below(nodes.len() as u64));
            nodes[nodes.len() - 1 - back as usize]
        };
        let args = (0..op.arity()).map(|_| arg(rng)).collect();
        nodes.push(dfg.push(op, args));
    }

    let mut stores = Vec::new();
    for _ in 0..rng.below(5) {
        let stream = rng.below(streams.len() as u64) as usize;
        let offset = rng.offset();
        streams[stream].store_offsets.push(offset);
        stores.push(StoreOp { stream, offset, value: rng.pick(&nodes) });
    }
    let accs: Vec<AccUpdate> =
        acc_regs.iter().map(|&reg| AccUpdate { reg, next: rng.pick(&nodes) }).collect();

    let mut memory = Bram::new(BRAM_BYTES);
    let data: Vec<u32> = (0..BRAM_BYTES / 4).map(|_| rng.word()).collect();
    memory.load_words(0, &data).unwrap();
    let env = KernelEnv {
        counter: rng.below(301) as u32,
        pointers: streams.iter().zip(&pointers).map(|(s, &p)| (s.base, p)).collect(),
        accs: accs.iter().map(|a| (a.reg, rng.word())).collect(),
        invariants: invariants.iter().map(|&r| (r, rng.word())).collect(),
    };
    let kernel = LoopKernel {
        head: 0,
        tail: 0,
        counter: Reg::R6,
        streams,
        dfg,
        stores,
        accs,
        invariants,
        dead_temps: Vec::new(),
        body_insns: 0,
    };
    Case { kernel, env, memory }
}

/// The kernel interpreter over live memory: each load sees every
/// earlier store. `None` if an access left the BRAM or was misaligned.
fn interpret(case: &Case) -> Option<(Bram, KernelEnv, u64)> {
    let memory = RefCell::new(case.memory.clone());
    let faulted = Cell::new(false);
    let mut env = case.env.clone();
    let iterations = case.kernel.interpret(
        &mut env,
        |addr| {
            memory.borrow().read_word(addr).unwrap_or_else(|_| {
                faulted.set(true);
                0
            })
        },
        |addr, value| {
            faulted.set(faulted.get() || memory.borrow_mut().write_word(addr, value).is_err())
        },
    );
    (!faulted.get()).then(|| (memory.into_inner(), env, iterations))
}

/// Executor state: stream cursors and accumulators, by kernel index.
#[derive(Clone, PartialEq, Eq, Debug)]
struct State {
    ptrs: Vec<u32>,
    accs: Vec<u32>,
}

fn model() -> ExecModel {
    ExecModel {
        fabric_clock_hz: 250_000_000,
        mem_ops: 1,
        compute_cycles: 1,
        mac_cycles: 0,
        startup_cycles: 4,
        cycles_per_iteration: 1,
    }
}

/// Runs `count` iterations of `case` in one call.
fn execute(
    case: &Case,
    tape: &Tape,
    count: u32,
    state: &mut State,
    memory: &mut Bram,
) -> Result<FlatOutcome, MemError> {
    let invs: Vec<u32> = case.kernel.invariants.iter().map(|r| case.env.invariants[r]).collect();
    let mut scratch = ExecScratch::new(tape);
    execute_flat(
        tape,
        &model(),
        count,
        &mut state.ptrs,
        &mut state.accs,
        &invs,
        memory,
        &mut scratch,
    )
}

#[test]
fn generated_kernels_run_as_the_interpreter_and_fault_as_single_steps() {
    let mut rng = Rng(0x005E_ED0F_C011);
    let mut ops_seen = [0; COMPUTED.len()];
    let (mut in_range, mut long_in_range, mut faulted) = (0, 0, 0);
    for case_no in 0..CASES {
        let case = generate(&mut rng, &mut ops_seen);
        let kernel = &case.kernel;
        let tape = Tape::lower(kernel);
        let initial = State {
            ptrs: kernel.streams.iter().map(|s| case.env.pointers[&s.base]).collect(),
            accs: kernel.accs.iter().map(|a| case.env.accs[&a.reg]).collect(),
        };
        let count = case.env.counter;
        let mut state = initial.clone();
        let mut memory = case.memory.clone();
        let result = execute(&case, &tape, count, &mut state, &mut memory);
        let what = format!("case {case_no}: {count} iterations of {kernel:#?}");

        match interpret(&case) {
            Some((ref_memory, ref_env, iterations)) => {
                in_range += 1;
                long_in_range += usize::from(count > 128);
                let outcome = result.unwrap_or_else(|e| panic!("{what}: faulted {e:?}"));
                assert!(memory.words() == ref_memory.words(), "{what}: memory diverged");
                let ref_state = State {
                    ptrs: kernel.streams.iter().map(|s| ref_env.pointers[&s.base]).collect(),
                    accs: kernel.accs.iter().map(|a| ref_env.accs[&a.reg]).collect(),
                };
                assert_eq!(state, ref_state, "{what}: registers diverged");
                let loads: usize = kernel.streams.iter().map(|s| s.load_offsets.len()).sum();
                let expected = FlatOutcome {
                    iterations,
                    fabric_cycles: model().total_cycles(iterations),
                    loads: iterations * loads as u64,
                    stores: iterations * kernel.stores.len() as u64,
                };
                assert_eq!(outcome, expected, "{what}: counts diverged");
            }
            None => {
                faulted += 1;
                let error = result.expect_err(&what);
                let mut stepped = initial.clone();
                let mut stepped_memory = case.memory.clone();
                let stepped_error = (0..count)
                    .find_map(|_| execute(&case, &tape, 1, &mut stepped, &mut stepped_memory).err())
                    .unwrap_or_else(|| panic!("{what}: stepping never faulted"));
                assert_eq!(error, stepped_error, "{what}: another fault");
                assert!(memory.words() == stepped_memory.words(), "{what}: memory diverged");
                assert_eq!(state, stepped, "{what}: registers diverged");
            }
        }
    }

    // The generator must keep reaching what it claims to cover.
    assert!(ops_seen.iter().all(|&n| n >= 500), "operations drawn: {ops_seen:?}");
    assert!(in_range >= CASES / 3 && long_in_range >= CASES / 10, "{in_range} in range");
    assert!(faulted >= CASES / 5, "{faulted} faulted");
}
