//! Word-level data-flow graph IR.

use std::fmt;

use mb_isa::Reg;

/// Index of a node within a [`Dfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A data-flow operation.
///
/// All operations are 32-bit with wrapping semantics; shift amounts are
/// taken modulo 32 (matching both the MicroBlaze shifter and the
/// synthesized hardware).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// The value loaded this iteration from `stream` at `offset` bytes
    /// from the stream's moving base.
    LoadValue {
        /// Index into the kernel's stream table.
        stream: usize,
        /// Byte offset from the stream cursor.
        offset: i32,
    },
    /// A loop-invariant scalar input (register unchanged by the body).
    Invariant {
        /// The register carrying the invariant.
        reg: Reg,
    },
    /// The previous iteration's value of a loop-carried accumulator.
    Acc {
        /// The accumulator's register.
        reg: Reg,
    },
    /// A compile-time constant.
    Const(u32),
    /// Addition (args: a, b).
    Add,
    /// Subtraction (args: a, b) computing `a - b`.
    Sub,
    /// Low 32 bits of the product (args: a, b) — maps onto the MAC.
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// `a & !b`.
    AndNot,
    /// Logical shift left by a constant (pure wiring in hardware).
    Shl(u8),
    /// Logical shift right by a constant.
    Shr(u8),
    /// Arithmetic shift right by a constant.
    Sar(u8),
    /// Dynamic logical shift left (args: value, amount).
    ShlDyn,
    /// Dynamic logical shift right.
    ShrDyn,
    /// Dynamic arithmetic shift right.
    SarDyn,
    /// Sign-extend the low byte.
    Sext8,
    /// Sign-extend the low half-word.
    Sext16,
}

impl Op {
    /// Number of value arguments the operation takes.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            Op::LoadValue { .. } | Op::Invariant { .. } | Op::Acc { .. } | Op::Const(_) => 0,
            Op::Shl(_) | Op::Shr(_) | Op::Sar(_) | Op::Sext8 | Op::Sext16 => 1,
            _ => 2,
        }
    }

    /// Whether this is a leaf (input) operation.
    #[must_use]
    pub fn is_input(&self) -> bool {
        matches!(self, Op::LoadValue { .. } | Op::Invariant { .. } | Op::Acc { .. })
    }
}

/// One node: an operation and its arguments.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Argument node ids (length = `op.arity()`).
    pub args: Vec<NodeId>,
}

/// A word-level data-flow graph in topological order (arguments always
/// precede their users).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Dfg {
    nodes: Vec<Node>,
}

impl Dfg {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Dfg::default()
    }

    /// Adds a node, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the operation's arity
    /// or if an argument id is out of range (graph must stay topological).
    pub fn push(&mut self, op: Op, args: Vec<NodeId>) -> NodeId {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op:?}");
        for a in &args {
            assert!((a.0 as usize) < self.nodes.len(), "argument {a} out of range");
        }
        self.nodes.push(Node { op, args });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Convenience: adds a constant node.
    pub fn constant(&mut self, value: u32) -> NodeId {
        self.push(Op::Const(value), vec![])
    }

    /// The node for an id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All nodes in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Counts nodes of a class (for synthesis-cost reporting).
    #[must_use]
    pub fn count_where(&self, mut pred: impl FnMut(&Op) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.op)).count()
    }

    /// Evaluates the whole graph given resolvers for the three input
    /// kinds, returning every node's value.
    ///
    /// This is the reference semantics: [`LoopKernel::interpret`] runs
    /// it, and the synthesized netlist and the WCLA executor are
    /// cross-checked against it.
    ///
    /// [`LoopKernel::interpret`]: crate::LoopKernel::interpret
    pub fn eval(
        &self,
        mut load: impl FnMut(usize, i32) -> u32,
        mut invariant: impl FnMut(Reg) -> u32,
        mut acc: impl FnMut(Reg) -> u32,
    ) -> Vec<u32> {
        let mut vals = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let a = |i: usize| -> u32 { vals[n.args[i].0 as usize] };
            let v = match n.op {
                Op::LoadValue { stream, offset } => load(stream, offset),
                Op::Invariant { reg } => invariant(reg),
                Op::Acc { reg } => acc(reg),
                Op::Const(c) => c,
                Op::Add => a(0).wrapping_add(a(1)),
                Op::Sub => a(0).wrapping_sub(a(1)),
                Op::Mul => a(0).wrapping_mul(a(1)),
                Op::And => a(0) & a(1),
                Op::Or => a(0) | a(1),
                Op::Xor => a(0) ^ a(1),
                Op::AndNot => a(0) & !a(1),
                Op::Shl(k) => a(0) << (k & 31),
                Op::Shr(k) => a(0) >> (k & 31),
                Op::Sar(k) => ((a(0) as i32) >> (k & 31)) as u32,
                Op::ShlDyn => a(0) << (a(1) & 31),
                Op::ShrDyn => a(0) >> (a(1) & 31),
                Op::SarDyn => ((a(0) as i32) >> (a(1) & 31)) as u32,
                Op::Sext8 => a(0) as u8 as i8 as i32 as u32,
                Op::Sext16 => a(0) as u16 as i16 as i32 as u32,
            };
            vals.push(v);
        }
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval_simple_expression() {
        // out = (load0 + 5) ^ (load0 >> 2)
        let mut g = Dfg::new();
        let x = g.push(Op::LoadValue { stream: 0, offset: 0 }, vec![]);
        let five = g.constant(5);
        let sum = g.push(Op::Add, vec![x, five]);
        let sh = g.push(Op::Shr(2), vec![x]);
        let out = g.push(Op::Xor, vec![sum, sh]);
        let vals = g.eval(|_, _| 100, |_| 0, |_| 0);
        assert_eq!(vals[out.0 as usize], (100u32 + 5) ^ (100 >> 2));
    }

    #[test]
    fn eval_covers_all_ops() {
        let mut g = Dfg::new();
        let a = g.constant(0x8000_0010);
        let b = g.constant(3);
        let ops = [
            (Op::Add, 0x8000_0013u32),
            (Op::Sub, 0x8000_000D),
            (Op::Mul, 0x8000_0030),
            (Op::And, 0),
            (Op::Or, 0x8000_0013),
            (Op::Xor, 0x8000_0013),
            (Op::AndNot, 0x8000_0010),
            (Op::ShlDyn, 0x0000_0080),
            (Op::ShrDyn, 0x1000_0002),
            (Op::SarDyn, 0xF000_0002),
        ];
        let mut ids = Vec::new();
        for (op, _) in &ops {
            ids.push(g.push(*op, vec![a, b]));
        }
        let s1 = g.push(Op::Shl(4), vec![a]);
        let s2 = g.push(Op::Shr(4), vec![a]);
        let s3 = g.push(Op::Sar(4), vec![a]);
        let e8 = g.push(Op::Sext8, vec![a]);
        let e16 = g.push(Op::Sext16, vec![a]);
        let vals = g.eval(|_, _| 0, |_| 0, |_| 0);
        for ((_, want), id) in ops.iter().zip(&ids) {
            assert_eq!(vals[id.0 as usize], *want);
        }
        assert_eq!(vals[s1.0 as usize], 0x0000_0100);
        assert_eq!(vals[s2.0 as usize], 0x0800_0001);
        assert_eq!(vals[s3.0 as usize], 0xF800_0001);
        assert_eq!(vals[e8.0 as usize], 0x10);
        assert_eq!(vals[e16.0 as usize], 0x10);
    }

    #[test]
    fn inputs_route_through_resolvers() {
        let mut g = Dfg::new();
        let l = g.push(Op::LoadValue { stream: 1, offset: 8 }, vec![]);
        let i = g.push(Op::Invariant { reg: Reg::R20 }, vec![]);
        let c = g.push(Op::Acc { reg: Reg::R22 }, vec![]);
        let vals = g.eval(
            |s, o| (s as u32) * 1000 + o as u32,
            |r| u32::from(r.number()) * 10,
            |r| u32::from(r.number()),
        );
        assert_eq!(vals[l.0 as usize], 1008);
        assert_eq!(vals[i.0 as usize], 200);
        assert_eq!(vals[c.0 as usize], 22);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut g = Dfg::new();
        let a = g.constant(1);
        let _ = g.push(Op::Add, vec![a]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topological_order_enforced() {
        let mut g = Dfg::new();
        let _ = g.push(Op::Add, vec![NodeId(5), NodeId(6)]);
    }

    #[test]
    fn count_where_classifies() {
        let mut g = Dfg::new();
        let a = g.constant(1);
        let b = g.constant(2);
        g.push(Op::Mul, vec![a, b]);
        g.push(Op::Add, vec![a, b]);
        assert_eq!(g.count_where(|o| matches!(o, Op::Mul)), 1);
        assert_eq!(g.count_where(Op::is_input), 0);
    }
}
