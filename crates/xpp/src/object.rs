//! Object kinds: the configurable behaviours of PAE function units.
//!
//! A *configuration* in the XPP sense assigns each processing element a
//! behaviour (its "object") and wires objects together with data and event
//! channels. This module enumerates the object vocabulary of the simulator:
//!
//! * ALU objects (word arithmetic, one result per fire),
//! * register/flow objects (constants, merges, demuxes, gates, counters and
//!   event logic — the functions FREG/BREG registers provide in the XPP),
//! * memory objects (dual-ported RAM and FIFO modes of the RAM-PAEs),
//! * I/O objects (the streaming ports at the array edge).
//!
//! The execution semantics (token consumption/production rules) live in the
//! [`crate::array`] module; here we define the kinds, their port shapes and
//! the pure ALU evaluation functions.

use crate::word::Word;

/// Binary ALU operations (two data inputs, one data output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AluOp {
    /// Wrapping 24-bit addition.
    Add,
    /// Wrapping 24-bit subtraction (`in0 - in1`).
    Sub,
    /// 24×24→48-bit multiply, low 24 bits.
    Mul,
    /// 24×24→48-bit multiply, arithmetic right shift by the constant, then
    /// wrap to 24 bits (the multiplier's shift-extract stage).
    MulShr(u32),
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// `1` if `in0 < in1`, else `0`.
    Lt,
    /// `1` if `in0 == in1`, else `0`.
    Eq,
    /// Left shift of `in0` by `in1` (clamped to 0..=47).
    Shl,
    /// Arithmetic right shift of `in0` by `in1` (clamped to 0..=47).
    Shr,
}

impl AluOp {
    /// Evaluates the operation on two words.
    #[inline]
    pub fn eval(self, a: Word, b: Word) -> Word {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.mul_shr(b, 0),
            AluOp::MulShr(s) => a.mul_shr(b, s),
            AluOp::And => a.and(b),
            AluOp::Or => a.or(b),
            AluOp::Xor => a.xor(b),
            AluOp::Min => {
                if a.value() <= b.value() {
                    a
                } else {
                    b
                }
            }
            AluOp::Max => {
                if a.value() >= b.value() {
                    a
                } else {
                    b
                }
            }
            AluOp::Lt => Word::new((a.value() < b.value()) as i32),
            AluOp::Eq => Word::new((a.value() == b.value()) as i32),
            AluOp::Shl => a.shl(b.value().clamp(0, 47) as u32),
            AluOp::Shr => a.shr(b.value().clamp(0, 47) as u32),
        }
    }

    /// True if the op uses the PAE multiplier (higher energy).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn uses_multiplier(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::MulShr(_))
    }
}

/// Unary operations (one data input, one data output) — these model the
/// constant-operand registers of the ALU-PAEs and the simple functions of
/// the forward/backward registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum UnaryOp {
    /// Identity (a routing register / pipeline balancing stage).
    Pass,
    /// Wrapping negation.
    Neg,
    /// Absolute value (wraps for `WORD_MIN`).
    Abs,
    /// Left shift by a constant.
    ShlK(u32),
    /// Arithmetic right shift by a constant.
    ShrK(u32),
    /// Add a constant.
    AddK(Word),
    /// Multiply by a constant, then arithmetic right shift (Q-format scale).
    MulKShr(Word, u32),
    /// Bitwise AND with a constant mask.
    AndK(Word),
    /// Bitwise XOR with a constant.
    XorK(Word),
    /// `1` if the input equals the constant, else `0`.
    EqK(Word),
    /// `1` if the input is less than the constant, else `0`.
    LtK(Word),
    /// `1` if the input is greater than or equal to the constant, else `0`.
    GeK(Word),
}

impl UnaryOp {
    /// Evaluates the operation.
    #[inline]
    pub fn eval(self, a: Word) -> Word {
        match self {
            UnaryOp::Pass => a,
            UnaryOp::Neg => a.wrapping_neg(),
            UnaryOp::Abs => {
                if a.value() < 0 {
                    a.wrapping_neg()
                } else {
                    a
                }
            }
            UnaryOp::ShlK(s) => a.shl(s),
            UnaryOp::ShrK(s) => a.shr(s),
            UnaryOp::AddK(k) => a.wrapping_add(k),
            UnaryOp::MulKShr(k, s) => a.mul_shr(k, s),
            UnaryOp::AndK(k) => a.and(k),
            UnaryOp::XorK(k) => a.xor(k),
            UnaryOp::EqK(k) => Word::new((a == k) as i32),
            UnaryOp::LtK(k) => Word::new((a.value() < k.value()) as i32),
            UnaryOp::GeK(k) => Word::new((a.value() >= k.value()) as i32),
        }
    }

    /// True if the op uses the PAE multiplier.
    pub(crate) fn uses_multiplier(self) -> bool {
        matches!(self, UnaryOp::MulKShr(..))
    }
}

/// Configuration of a [`ObjectKind::Counter`].
///
/// A counter emits `period` values `start, start+step, …` and then reloads.
/// When `gated` it waits for a token on its event input before each burst
/// (the mechanism used to sequence the FFT stages); otherwise it reloads
/// immediately. On emitting the last value of a burst it also emits a `true`
/// wrap event (if that output is connected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterCfg {
    /// First value of each burst.
    pub start: i64,
    /// Increment per emission.
    pub step: i64,
    /// Number of values per burst (must be ≥ 1).
    pub period: u64,
    /// If true, a burst starts only after consuming a go event.
    pub gated: bool,
}

impl CounterCfg {
    /// An ungated modulo-`period` up-counter from zero.
    pub fn modulo(period: u64) -> Self {
        CounterCfg {
            start: 0,
            step: 1,
            period,
            gated: false,
        }
    }

    /// A gated burst counter from zero.
    pub fn gated_burst(period: u64) -> Self {
        CounterCfg {
            start: 0,
            step: 1,
            period,
            gated: true,
        }
    }
}

/// Depth of a RAM-PAE in words.
pub(crate) const RAM_WORDS: usize = 512;

/// The behaviour assigned to a processing element.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ObjectKind {
    /// Binary ALU operation: `in0, in1 → out0`.
    Alu(AluOp),
    /// Unary operation: `in0 → out0`.
    Unary(UnaryOp),
    /// Constant source: emits its value whenever the output has space.
    Const(Word),
    /// Burst/modulo counter: `[ev-in0 go] → out0 value, ev-out0 wrap`.
    Counter(CounterCfg),
    /// Consumes selector + both inputs, emits the selected one:
    /// `ev0 ? in1 : in0 → out0`.
    Select,
    /// Consumes selector + only the selected input: `ev0 ? in1 : in0 → out0`.
    Merge,
    /// Routes `in0` to `out0` (selector false) or `out1` (true). Routing to
    /// an unconnected output discards the token (a decimator).
    Demux,
    /// Pass-through (selector false) or crossed (true): `in0,in1 → out0,out1`.
    Swap,
    /// Passes `in0` when the event is true, discards it when false.
    Gate,
    /// Accumulate-and-dump: adds `in0` into an internal register every fire;
    /// when the event is true, emits the sum on `out0` and clears. Models an
    /// ALU with its BREG feedback path (single-cycle MAC loop).
    AccumDump,
    /// Converts a word to an event (`true` iff non-zero).
    ToEvent,
    /// Converts an event to a word (0 or 1).
    ToData,
    /// Event inverter.
    EventNot,
    /// Event AND.
    EventAnd,
    /// Event OR.
    EventOr,
    /// Dual-ported 512×24 RAM: `in0 rd_addr, in1 wr_addr, in2 wr_data →
    /// out0 rd_data`. Writes commit before reads within a cycle. Addresses
    /// wrap modulo 512.
    Ram {
        /// Initial contents (zero-padded to 512 words).
        preload: Vec<Word>,
    },
    /// RAM-PAE in FIFO mode. With `ring` set, the preloaded contents
    /// recirculate forever (the paper's "circular lookup tables, implemented
    /// as preloaded FIFOs") and the input port disappears.
    RamFifo {
        /// Maximum occupancy (≤ 512).
        depth: usize,
        /// Initial contents.
        preload: Vec<Word>,
        /// Recirculate contents instead of consuming them.
        ring: bool,
    },
    /// External data input port (named stream into the array).
    Input(String),
    /// External data output port.
    Output(String),
    /// External event input port.
    InputEvent(String),
    /// External event output port.
    OutputEvent(String),
}

/// Port counts of an object kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PortShape {
    /// Data input ports.
    pub din: usize,
    /// Data output ports.
    pub dout: usize,
    /// Event input ports.
    pub evin: usize,
    /// Event output ports.
    pub evout: usize,
}

/// The physical resource class an object occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SlotClass {
    /// An ALU-PAE function unit (64 on the XPP-64A).
    Alu,
    /// A forward/backward register (2 per PAE).
    Reg,
    /// A RAM-PAE (16 on the XPP-64A).
    Ram,
    /// A streaming I/O channel (8 on the XPP-64A).
    Io,
}

impl ObjectKind {
    /// Port counts for this kind.
    pub(crate) fn shape(&self) -> PortShape {
        use ObjectKind::*;
        match self {
            Alu(_) => PortShape {
                din: 2,
                dout: 1,
                evin: 0,
                evout: 0,
            },
            Unary(_) => PortShape {
                din: 1,
                dout: 1,
                evin: 0,
                evout: 0,
            },
            Const(_) => PortShape {
                din: 0,
                dout: 1,
                evin: 0,
                evout: 0,
            },
            Counter(c) => PortShape {
                din: 0,
                dout: 1,
                evin: if c.gated { 1 } else { 0 },
                evout: 1,
            },
            Select | Merge => PortShape {
                din: 2,
                dout: 1,
                evin: 1,
                evout: 0,
            },
            Demux => PortShape {
                din: 1,
                dout: 2,
                evin: 1,
                evout: 0,
            },
            Swap => PortShape {
                din: 2,
                dout: 2,
                evin: 1,
                evout: 0,
            },
            Gate => PortShape {
                din: 1,
                dout: 1,
                evin: 1,
                evout: 0,
            },
            AccumDump => PortShape {
                din: 1,
                dout: 1,
                evin: 1,
                evout: 0,
            },
            ToEvent => PortShape {
                din: 1,
                dout: 0,
                evin: 0,
                evout: 1,
            },
            ToData => PortShape {
                din: 0,
                dout: 1,
                evin: 1,
                evout: 0,
            },
            EventNot => PortShape {
                din: 0,
                dout: 0,
                evin: 1,
                evout: 1,
            },
            EventAnd | EventOr => PortShape {
                din: 0,
                dout: 0,
                evin: 2,
                evout: 1,
            },
            Ram { .. } => PortShape {
                din: 3,
                dout: 1,
                evin: 0,
                evout: 0,
            },
            RamFifo { ring, .. } => PortShape {
                din: if *ring { 0 } else { 1 },
                dout: 1,
                evin: 0,
                evout: 0,
            },
            Input(_) => PortShape {
                din: 0,
                dout: 1,
                evin: 0,
                evout: 0,
            },
            Output(_) => PortShape {
                din: 1,
                dout: 0,
                evin: 0,
                evout: 0,
            },
            InputEvent(_) => PortShape {
                din: 0,
                dout: 0,
                evin: 0,
                evout: 1,
            },
            OutputEvent(_) => PortShape {
                din: 0,
                dout: 0,
                evin: 1,
                evout: 0,
            },
        }
    }

    /// Whether a given data-input port may legally stay unconnected.
    ///
    /// Only the RAM ports are optional: a read-only RAM leaves the write
    /// ports open and vice versa (validated pairwise at `build()`).
    pub(crate) fn data_input_optional(&self, _port: usize) -> bool {
        matches!(self, ObjectKind::Ram { .. })
    }

    /// The physical resource class this object consumes.
    pub(crate) fn slot_class(&self) -> SlotClass {
        use ObjectKind::*;
        match self {
            Alu(_) | AccumDump => SlotClass::Alu,
            Unary(op) if op.uses_multiplier() => SlotClass::Alu,
            Unary(_) | Const(_) | Counter(_) | Select | Merge | Demux | Swap | Gate | ToEvent
            | ToData | EventNot | EventAnd | EventOr => SlotClass::Reg,
            Ram { .. } | RamFifo { .. } => SlotClass::Ram,
            Input(_) | Output(_) | InputEvent(_) | OutputEvent(_) => SlotClass::Io,
        }
    }

    /// A short kind name for diagnostics and statistics.
    pub fn kind_name(&self) -> &'static str {
        use ObjectKind::*;
        match self {
            Alu(_) => "alu",
            Unary(_) => "unary",
            Const(_) => "const",
            Counter(_) => "counter",
            Select => "select",
            Merge => "merge",
            Demux => "demux",
            Swap => "swap",
            Gate => "gate",
            AccumDump => "accum",
            ToEvent => "to_event",
            ToData => "to_data",
            EventNot => "ev_not",
            EventAnd => "ev_and",
            EventOr => "ev_or",
            Ram { .. } => "ram",
            RamFifo { .. } => "fifo",
            Input(_) => "input",
            Output(_) => "output",
            InputEvent(_) => "input_ev",
            OutputEvent(_) => "output_ev",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_evaluate() {
        let a = Word::new(12);
        let b = Word::new(-5);
        assert_eq!(AluOp::Add.eval(a, b).value(), 7);
        assert_eq!(AluOp::Sub.eval(a, b).value(), 17);
        assert_eq!(AluOp::Mul.eval(a, b).value(), -60);
        assert_eq!(AluOp::MulShr(2).eval(a, b).value(), -15);
        assert_eq!(AluOp::Min.eval(a, b).value(), -5);
        assert_eq!(AluOp::Max.eval(a, b).value(), 12);
        assert_eq!(AluOp::Lt.eval(a, b).value(), 0);
        assert_eq!(AluOp::Lt.eval(b, a).value(), 1);
        assert_eq!(AluOp::Eq.eval(a, a).value(), 1);
        assert_eq!(AluOp::Shl.eval(Word::new(1), Word::new(4)).value(), 16);
        assert_eq!(AluOp::Shr.eval(Word::new(-16), Word::new(2)).value(), -4);
        assert_eq!(AluOp::And.eval(Word::new(6), Word::new(3)).value(), 2);
        assert_eq!(AluOp::Or.eval(Word::new(6), Word::new(3)).value(), 7);
        assert_eq!(AluOp::Xor.eval(Word::new(6), Word::new(3)).value(), 5);
    }

    #[test]
    fn alu_shift_clamps_negative_amounts() {
        assert_eq!(AluOp::Shl.eval(Word::new(1), Word::new(-3)).value(), 1);
        assert_eq!(AluOp::Shr.eval(Word::new(8), Word::new(-1)).value(), 8);
    }

    #[test]
    fn unary_ops_evaluate() {
        assert_eq!(UnaryOp::Pass.eval(Word::new(9)).value(), 9);
        assert_eq!(UnaryOp::Neg.eval(Word::new(9)).value(), -9);
        assert_eq!(UnaryOp::Abs.eval(Word::new(-9)).value(), 9);
        assert_eq!(UnaryOp::Abs.eval(Word::new(9)).value(), 9);
        assert_eq!(UnaryOp::ShlK(3).eval(Word::new(2)).value(), 16);
        assert_eq!(UnaryOp::ShrK(1).eval(Word::new(-7)).value(), -4);
        assert_eq!(UnaryOp::AddK(Word::new(5)).eval(Word::new(-2)).value(), 3);
        assert_eq!(
            UnaryOp::MulKShr(Word::new(3), 1).eval(Word::new(5)).value(),
            7
        );
        assert_eq!(
            UnaryOp::AndK(Word::new(0xF)).eval(Word::new(0x12)).value(),
            2
        );
        assert_eq!(UnaryOp::XorK(Word::new(1)).eval(Word::new(3)).value(), 2);
        assert_eq!(UnaryOp::EqK(Word::new(7)).eval(Word::new(7)).value(), 1);
        assert_eq!(UnaryOp::EqK(Word::new(7)).eval(Word::new(8)).value(), 0);
        assert_eq!(UnaryOp::LtK(Word::new(0)).eval(Word::new(-1)).value(), 1);
        assert_eq!(UnaryOp::GeK(Word::new(0)).eval(Word::new(0)).value(), 1);
    }

    #[test]
    fn multiplier_classification() {
        assert!(AluOp::Mul.uses_multiplier());
        assert!(AluOp::MulShr(4).uses_multiplier());
        assert!(!AluOp::Add.uses_multiplier());
        assert!(UnaryOp::MulKShr(Word::ONE, 0).uses_multiplier());
        assert!(!UnaryOp::Pass.uses_multiplier());
    }

    #[test]
    fn shapes_are_consistent() {
        assert_eq!(
            ObjectKind::Alu(AluOp::Add).shape(),
            PortShape {
                din: 2,
                dout: 1,
                evin: 0,
                evout: 0
            }
        );
        let gated = ObjectKind::Counter(CounterCfg::gated_burst(8));
        assert_eq!(gated.shape().evin, 1);
        let free = ObjectKind::Counter(CounterCfg::modulo(8));
        assert_eq!(free.shape().evin, 0);
        assert_eq!(ObjectKind::Ram { preload: vec![] }.shape().din, 3);
        let ring = ObjectKind::RamFifo {
            depth: 4,
            preload: vec![],
            ring: true,
        };
        assert_eq!(ring.shape().din, 0);
        let fifo = ObjectKind::RamFifo {
            depth: 4,
            preload: vec![],
            ring: false,
        };
        assert_eq!(fifo.shape().din, 1);
    }

    #[test]
    fn slot_classes() {
        assert_eq!(ObjectKind::Alu(AluOp::Add).slot_class(), SlotClass::Alu);
        assert_eq!(ObjectKind::AccumDump.slot_class(), SlotClass::Alu);
        assert_eq!(
            ObjectKind::Unary(UnaryOp::MulKShr(Word::ONE, 0)).slot_class(),
            SlotClass::Alu
        );
        assert_eq!(
            ObjectKind::Unary(UnaryOp::Pass).slot_class(),
            SlotClass::Reg
        );
        assert_eq!(ObjectKind::Const(Word::ZERO).slot_class(), SlotClass::Reg);
        assert_eq!(
            ObjectKind::Ram { preload: vec![] }.slot_class(),
            SlotClass::Ram
        );
        assert_eq!(ObjectKind::Input("x".into()).slot_class(), SlotClass::Io);
    }

    #[test]
    fn kind_names_are_distinct_enough() {
        assert_eq!(ObjectKind::Select.kind_name(), "select");
        assert_eq!(ObjectKind::Merge.kind_name(), "merge");
        assert_ne!(
            ObjectKind::Input("a".into()).kind_name(),
            ObjectKind::Output("a".into()).kind_name()
        );
    }

    #[test]
    fn ram_inputs_are_optional_others_not() {
        assert!(ObjectKind::Ram { preload: vec![] }.data_input_optional(0));
        assert!(!ObjectKind::Alu(AluOp::Add).data_input_optional(0));
    }
}
