//! The bytecode interpreter: fetch, tag check, decode, execute.
//!
//! [`Process::run_until_trap`] is the interpreter loop. Once per call it
//! checks the process state and hoists what no instruction can change:
//! handles on the predecoded instruction stream and the code image, the
//! process' tag, and which segments the memory arms may index directly.
//! Each instruction then pays only the fetch — an aligned, in-range `pc`
//! indexes the predecoded stream, and the *live* tag byte of the code image
//! is checked against the process' tag (instruction-set tagging) — the
//! counters and `execute`. The loop *traps* to the caller on every system
//! call, exit or fault — the hook the single-process runner and the
//! N-variant monitor both build on. [`Process::step`] runs the same fetch
//! and `execute` for one instruction.
//!
//! `execute` is the only place opcode semantics live. Its hot arms take
//! shortcuts that are exact by construction:
//!
//! - `LoadL`/`StoreL` index the stack image, and `LoadB` the globals or
//!   stack image, when the whole access lies in a segment that overlaps no
//!   segment earlier in the lookup's precedence (code, then globals, then
//!   stack) — there the lookup could only have named that segment;
//! - binary operators pop the right operand and rewrite the left one in
//!   place on the operand stack.
//!
//! Every other case — a word straddling a segment end, a custom layout with
//! overlapping segments, an image that did not predecode — runs the
//! byte-accurate code. Fault kinds, fault addresses, the residual operand
//! stack after an underflow, `pc`, the counters and the `max_steps` budget
//! are therefore exactly those of a byte-at-a-time machine.

use crate::bytecode::{Instr, Op, INSTR_SIZE};
use crate::fault::Fault;
use crate::process::{DirectSegments, Process, ProcessState};
use nvariant_simos::{SyscallRequest, Sysno};
use nvariant_types::{VirtAddr, Word};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The result of executing a single instruction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepResult {
    /// The instruction completed; execution may continue.
    Continue,
    /// The process issued a system call and is waiting for its result
    /// (deliver it with [`Process::complete_syscall`]).
    Syscall(SyscallRequest),
    /// The process halted.
    Exited(i32),
    /// The process faulted.
    Faulted(Fault),
}

/// Why [`Process::run_until_trap`] stopped.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrapReason {
    /// A system call was issued.
    Syscall(SyscallRequest),
    /// The process exited.
    Exited(i32),
    /// The process faulted.
    Faulted(Fault),
}

impl From<TrapReason> for StepResult {
    fn from(trap: TrapReason) -> Self {
        match trap {
            TrapReason::Syscall(req) => StepResult::Syscall(req),
            TrapReason::Exited(status) => StepResult::Exited(status),
            TrapReason::Faulted(fault) => StepResult::Faulted(fault),
        }
    }
}

/// What the interpreter hoists out of its loop: nothing an instruction
/// executes can change any of it.
struct Hoisted {
    /// The code image whose live tag bytes the fetch checks.
    code: Arc<[u8]>,
    /// The predecoded view of `code`; empty when the image did not
    /// predecode, which sends every fetch down the byte path.
    instrs: Arc<[Instr]>,
    code_base: u32,
    expected_tag: u8,
    direct: DirectSegments,
}

impl Hoisted {
    fn new(process: &Process) -> Self {
        Hoisted {
            code: Arc::clone(&process.code),
            instrs: process
                .instrs
                .clone()
                .unwrap_or_else(|| Arc::from(Vec::new())),
            code_base: process.layout.code_base,
            expected_tag: process.expected_tag,
            direct: process.direct_segments(),
        }
    }
}

impl Process {
    /// Executes instructions until the process traps (system call, exit or
    /// fault) or `max_steps` instructions have been executed, whichever
    /// comes first.
    ///
    /// Exceeding the step budget is reported as a
    /// [`Fault::StepLimitExceeded`] — the monitor treats a runaway variant
    /// the same way it treats any other fault.
    pub fn run_until_trap(&mut self, max_steps: u64) -> TrapReason {
        let hoisted = Hoisted::new(self);
        self.run_with(&hoisted, max_steps)
    }

    fn run_with(&mut self, hoisted: &Hoisted, max_steps: u64) -> TrapReason {
        if max_steps > 0 {
            if let Some(trap) = self.stopped() {
                return trap;
            }
            for _ in 0..max_steps {
                if let Some(trap) = self.step_with(hoisted) {
                    return trap;
                }
            }
        }
        self.set_faulted(Fault::StepLimitExceeded);
        TrapReason::Faulted(Fault::StepLimitExceeded)
    }

    /// Executes one instruction.
    pub fn step(&mut self) -> StepResult {
        let trap = match self.stopped() {
            Some(trap) => Some(trap),
            None => self.step_with(&Hoisted::new(self)),
        };
        trap.map_or(StepResult::Continue, StepResult::from)
    }

    /// The trap a process that is no longer running reports.
    fn stopped(&self) -> Option<TrapReason> {
        match self.state {
            ProcessState::Running => None,
            ProcessState::Exited(status) => Some(TrapReason::Exited(status)),
            ProcessState::Faulted(fault) => Some(TrapReason::Faulted(fault)),
        }
    }

    /// Fetches and executes one instruction of a running process; `None`
    /// means execution may continue.
    // Forced inlining, here and on `execute`, is measured: with plain
    // `#[inline]` on both, a `sharded-sweep` pass ran about 28% slower on a
    // 2-CPU x86-64 host.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn step_with(&mut self, hoisted: &Hoisted) -> Option<TrapReason> {
        let instr = match self.fetch(hoisted) {
            Ok(instr) => instr,
            Err(fault) => return Some(self.fault(fault)),
        };
        self.pc = self.pc.wrapping_add(INSTR_SIZE);
        self.instructions_executed += 1;
        self.execute(instr, hoisted.direct)
    }

    /// Fetch. An aligned, in-range pc indexes the predecoded stream
    /// directly — no allocation, no re-decode. The tag check reads the live
    /// tag byte from the (possibly retagged) code image, not the stream,
    /// because the stream is shared across tags and tests may restamp
    /// `expected_tag` out from under the image.
    #[inline]
    fn fetch(&self, hoisted: &Hoisted) -> Result<Instr, Fault> {
        let off = self.pc.wrapping_sub(hoisted.code_base);
        if off.is_multiple_of(INSTR_SIZE) {
            let slot = (off / INSTR_SIZE) as usize;
            if let (Some(&instr), Some(&found)) =
                (hoisted.instrs.get(slot), hoisted.code.get(off as usize))
            {
                return if found == hoisted.expected_tag {
                    Ok(instr)
                } else {
                    Err(Fault::TagMismatch {
                        pc: VirtAddr::new(self.pc),
                        expected: hoisted.expected_tag,
                        found,
                    })
                };
            }
        }
        self.fetch_bytes()
    }

    /// Byte-accurate fetch: out-of-range or misaligned pc, execution
    /// redirected into a data segment (the monitor's code-injection
    /// scenarios), or an image that didn't predecode. Faults exactly as a
    /// byte walk would.
    #[cold]
    fn fetch_bytes(&self) -> Result<Instr, Fault> {
        let pc = VirtAddr::new(self.pc);
        let mut raw = [0u8; INSTR_SIZE as usize];
        for (i, byte) in raw.iter_mut().enumerate() {
            *byte = self.read_byte(pc + i as u32)?;
        }
        let instr = crate::bytecode::decode_slot(raw, pc.as_u32()).map_err(|failure| {
            Fault::IllegalInstruction {
                pc,
                raw: failure.raw,
            }
        })?;
        if instr.tag != self.expected_tag {
            return Err(Fault::TagMismatch {
                pc,
                expected: self.expected_tag,
                found: instr.tag,
            });
        }
        Ok(instr)
    }

    fn fault(&mut self, fault: Fault) -> TrapReason {
        self.state = ProcessState::Faulted(fault);
        TrapReason::Faulted(fault)
    }

    fn pop(&mut self) -> Result<Word, Fault> {
        self.ostack.pop().ok_or(Fault::OperandStackUnderflow)
    }

    /// Executes one fetched instruction; `None` means execution may
    /// continue.
    #[inline(always)]
    fn execute(&mut self, instr: Instr, direct: DirectSegments) -> Option<TrapReason> {
        macro_rules! try_fault {
            ($e:expr) => {
                match $e {
                    Ok(value) => value,
                    Err(fault) => return Some(self.fault(fault)),
                }
            };
        }

        let operand = instr.operand;
        match instr.op {
            Op::Nop => {}
            Op::Push => self.ostack.push(Word::from_u32(operand)),
            Op::Dup => {
                let top = try_fault!(self.pop());
                self.ostack.push(top);
                self.ostack.push(top);
            }
            Op::Pop => {
                try_fault!(self.pop());
            }
            Op::Swap => {
                let a = try_fault!(self.pop());
                let b = try_fault!(self.pop());
                self.ostack.push(a);
                self.ostack.push(b);
            }

            Op::LoadG => {
                let addr = VirtAddr::new(self.layout.globals_base.wrapping_add(operand));
                let value = try_fault!(self.read_word(addr));
                self.ostack.push(value);
            }
            Op::StoreG => {
                let value = try_fault!(self.pop());
                let addr = VirtAddr::new(self.layout.globals_base.wrapping_add(operand));
                try_fault!(self.write_word(addr, value));
            }
            Op::LoadL => {
                let addr = self.fp.wrapping_sub(operand);
                let value = match self.direct_stack_word(direct, addr) {
                    Some(value) => value,
                    None => try_fault!(self.read_word(VirtAddr::new(addr))),
                };
                self.ostack.push(value);
            }
            Op::StoreL => {
                let value = try_fault!(self.pop());
                let addr = self.fp.wrapping_sub(operand);
                match self.direct_stack_word_mut(direct, addr) {
                    Some(bytes) => *bytes = value.to_le_bytes(),
                    None => try_fault!(self.write_word(VirtAddr::new(addr), value)),
                }
            }
            Op::LeaG => {
                self.ostack.push(Word::from_u32(
                    self.layout.globals_base.wrapping_add(operand),
                ));
            }
            Op::LeaL => {
                self.ostack
                    .push(Word::from_u32(self.fp.wrapping_sub(operand)));
            }
            Op::LoadW => {
                let addr = try_fault!(self.pop()).as_addr();
                let value = try_fault!(self.read_word(addr));
                self.ostack.push(value);
            }
            Op::StoreW => {
                let addr = try_fault!(self.pop()).as_addr();
                let value = try_fault!(self.pop());
                try_fault!(self.write_word(addr, value));
            }
            Op::LoadB => {
                let addr = try_fault!(self.pop()).as_u32();
                let value = match self.direct_byte(direct, addr) {
                    Some(value) => value,
                    None => try_fault!(self.read_byte(VirtAddr::new(addr))),
                };
                self.ostack.push(Word::from_u32(u32::from(value)));
            }
            Op::StoreB => {
                let addr = try_fault!(self.pop()).as_addr();
                let value = try_fault!(self.pop());
                try_fault!(self.write_byte(addr, (value.as_u32() & 0xFF) as u8));
            }

            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Mod
            | Op::BitAnd
            | Op::BitOr
            | Op::BitXor
            | Op::Shl
            | Op::Shr
            | Op::Eq
            | Op::Ne
            | Op::Lt
            | Op::Le
            | Op::Gt
            | Op::Ge => {
                // In place: pop the right operand, rewrite the left one. An
                // underflow or a zero divisor leaves the stack exactly as
                // popping both operands would.
                let rhs = try_fault!(self.pop());
                let Some(top) = self.ostack.last_mut() else {
                    return Some(self.fault(Fault::OperandStackUnderflow));
                };
                match binary(instr.op, *top, rhs) {
                    Ok(result) => *top = result,
                    Err(fault) => {
                        self.ostack.pop();
                        return Some(self.fault(fault));
                    }
                }
            }
            Op::Neg => {
                let value = try_fault!(self.pop());
                self.ostack
                    .push(Word::from_i32(value.as_i32().wrapping_neg()));
            }
            Op::Not => {
                let value = try_fault!(self.pop());
                self.ostack.push(Word::from_bool(value.as_u32() == 0));
            }
            Op::BitNot => {
                let value = try_fault!(self.pop());
                self.ostack.push(Word::from_u32(!value.as_u32()));
            }

            Op::Jmp => self.pc = self.layout.code_base.wrapping_add(operand),
            Op::Jz => {
                let value = try_fault!(self.pop());
                if value.as_u32() == 0 {
                    self.pc = self.layout.code_base.wrapping_add(operand);
                }
            }
            Op::Jnz => {
                let value = try_fault!(self.pop());
                if value.as_u32() != 0 {
                    self.pc = self.layout.code_base.wrapping_add(operand);
                }
            }

            Op::Call => {
                let target = self.layout.code_base.wrapping_add(operand);
                try_fault!(self.push_frame(target));
            }
            Op::CallPtr => {
                let target = try_fault!(self.pop()).as_u32();
                try_fault!(self.push_frame(target));
            }
            Op::Enter => {
                // A subtraction that wraps has run off the bottom of the
                // address space, past the stack: an overflow, not a jump to
                // a high address.
                let (sp, wrapped) = self.sp.overflowing_sub(operand);
                self.sp = sp;
                if wrapped || sp < self.layout.stack_base() {
                    return Some(self.fault(Fault::StackOverflow));
                }
            }
            Op::Ret => {
                let fp = VirtAddr::new(self.fp);
                let return_addr = try_fault!(self.read_word(fp));
                let saved_fp = try_fault!(self.read_word(fp + 4));
                self.sp = self.fp.wrapping_add(8);
                self.fp = saved_fp.as_u32();
                self.pc = return_addr.as_u32();
            }

            Op::Syscall => {
                let number = operand >> 8;
                let argc = (operand & 0xFF) as usize;
                let Some(sysno) = Sysno::from_u32(number) else {
                    return Some(self.fault(Fault::InvalidSyscall { number }));
                };
                let mut args = Vec::with_capacity(argc);
                for _ in 0..argc {
                    args.push(try_fault!(self.pop()));
                }
                args.reverse();
                self.syscalls_made += 1;
                return Some(TrapReason::Syscall(SyscallRequest::new(sysno, args)));
            }

            Op::Halt => {
                self.state = ProcessState::Exited(0);
                return Some(TrapReason::Exited(0));
            }
        }
        None
    }

    /// Pushes a call frame (return address and saved frame pointer) onto the
    /// memory stack and transfers control to `target`.
    fn push_frame(&mut self, target: u32) -> Result<(), Fault> {
        let (new_sp, wrapped) = self.sp.overflowing_sub(8);
        if wrapped || new_sp < self.layout.stack_base() {
            return Err(Fault::StackOverflow);
        }
        // Saved frame pointer at the higher address, return address below it:
        // a buffer overflow that writes upward reaches the return address
        // first, exactly like the classic stack-smash layout.
        self.write_word(VirtAddr::new(new_sp + 4), Word::from_u32(self.fp))?;
        self.write_word(VirtAddr::new(new_sp), Word::from_u32(self.pc))?;
        self.fp = new_sp;
        self.sp = new_sp;
        self.pc = target;
        Ok(())
    }
}

/// The value of binary operator `op` applied to `lhs` and `rhs`.
#[inline]
fn binary(op: Op, lhs: Word, rhs: Word) -> Result<Word, Fault> {
    Ok(match op {
        Op::Add => Word::from_u32(lhs.as_u32().wrapping_add(rhs.as_u32())),
        Op::Sub => Word::from_u32(lhs.as_u32().wrapping_sub(rhs.as_u32())),
        Op::Mul => Word::from_u32(lhs.as_u32().wrapping_mul(rhs.as_u32())),
        Op::Div => {
            if rhs.as_i32() == 0 {
                return Err(Fault::DivideByZero);
            }
            Word::from_i32(lhs.as_i32().wrapping_div(rhs.as_i32()))
        }
        Op::Mod => {
            if rhs.as_i32() == 0 {
                return Err(Fault::DivideByZero);
            }
            Word::from_i32(lhs.as_i32().wrapping_rem(rhs.as_i32()))
        }
        Op::BitAnd => Word::from_u32(lhs.as_u32() & rhs.as_u32()),
        Op::BitOr => Word::from_u32(lhs.as_u32() | rhs.as_u32()),
        Op::BitXor => Word::from_u32(lhs.as_u32() ^ rhs.as_u32()),
        Op::Shl => Word::from_u32(lhs.as_u32().wrapping_shl(rhs.as_u32() & 31)),
        Op::Shr => Word::from_u32(lhs.as_u32().wrapping_shr(rhs.as_u32() & 31)),
        Op::Eq => Word::from_bool(lhs == rhs),
        Op::Ne => Word::from_bool(lhs != rhs),
        Op::Lt => Word::from_bool(lhs.as_i32() < rhs.as_i32()),
        Op::Le => Word::from_bool(lhs.as_i32() <= rhs.as_i32()),
        Op::Gt => Word::from_bool(lhs.as_i32() > rhs.as_i32()),
        Op::Ge => Word::from_bool(lhs.as_i32() >= rhs.as_i32()),
        _ => unreachable!("not a binary operator: {op}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::encode_all;
    use crate::compile::{compile_program, CompiledProgram};
    use crate::parser::parse_program;
    use crate::process::MemoryLayout;
    use crate::typecheck::TypeInfo;
    use nvariant_types::StateHasher;
    use std::collections::BTreeMap;

    fn process_for(src: &str) -> Process {
        let program = parse_program(src).unwrap();
        let compiled = compile_program(&program).unwrap();
        Process::new(&compiled, MemoryLayout::default())
    }

    /// Runs a process that makes no system calls other than the final exit
    /// and returns the exit status.
    fn run_to_exit(process: &mut Process) -> i32 {
        match process.run_until_trap(1_000_000) {
            TrapReason::Syscall(req) if req.sysno == Sysno::Exit => {
                let status = req.arg(0).as_i32();
                process.set_exited(status);
                status
            }
            TrapReason::Syscall(req) => panic!("unexpected syscall {req}"),
            TrapReason::Exited(status) => status,
            TrapReason::Faulted(fault) => panic!("unexpected fault: {fault}"),
        }
    }

    #[test]
    fn arithmetic_and_return_value() {
        let mut p = process_for("fn main() -> int { return (2 + 3) * 4 - 10 / 2; }");
        assert_eq!(run_to_exit(&mut p), 15);
    }

    #[test]
    fn signed_arithmetic_and_comparisons() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var a: int = 0 - 7;
                var b: int = 3;
                if (a < b) {
                    if (a / b == 0 - 2) {
                        if (a % b == 0 - 1) { return 1; }
                    }
                }
                return 0;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 1);
    }

    #[test]
    fn while_loop_and_locals() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var i: int = 0;
                var total: int = 0;
                while (i < 10) {
                    total = total + i;
                    i = i + 1;
                }
                return total;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 45);
    }

    #[test]
    fn break_and_continue() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var i: int = 0;
                var total: int = 0;
                while (1) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    total = total + i;
                }
                return total;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 25);
    }

    #[test]
    fn function_calls_with_arguments() {
        let mut p = process_for(
            r"
            fn add3(a: int, b: int, c: int) -> int { return a + b + c; }
            fn twice(x: int) -> int { return add3(x, x, 0); }
            fn main() -> int { return twice(7) + add3(1, 2, 3); }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 20);
    }

    #[test]
    fn recursion() {
        let mut p = process_for(
            r"
            fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() -> int { return fib(10); }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 55);
    }

    #[test]
    fn globals_buffers_and_pointers() {
        let mut p = process_for(
            r"
            var table: buf[16];
            var cursor: int = 0;
            fn put(value: int) {
                table[cursor] = value;
                cursor = cursor + 1;
            }
            fn main() -> int {
                var p: ptr;
                put(10);
                put(20);
                put(30);
                p = &cursor;
                *p = *p + 100;
                return table[0] + table[1] + table[2] + cursor;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 163);
    }

    #[test]
    fn logical_operators_short_circuit() {
        let mut p = process_for(
            r"
            var side_effects: int = 0;
            fn bump() -> int { side_effects = side_effects + 1; return 1; }
            fn main() -> int {
                if (0 && bump()) { return 100; }
                if (1 || bump()) {
                    if (side_effects == 0) { return 1; }
                }
                return 0;
            }
            ",
        );
        assert_eq!(run_to_exit(&mut p), 1);
    }

    #[test]
    fn division_by_zero_faults() {
        let mut p = process_for("fn main() -> int { var z: int = 0; return 5 / z; }");
        match p.run_until_trap(10_000) {
            TrapReason::Faulted(Fault::DivideByZero) => {}
            other => panic!("expected divide-by-zero, got {other:?}"),
        }
        assert!(matches!(p.state(), ProcessState::Faulted(_)));
    }

    #[test]
    fn wild_pointer_write_segfaults() {
        let mut p = process_for(
            r"
            fn main() -> int {
                var p: ptr;
                p = 0x40;
                *p = 7;
                return 0;
            }
            ",
        );
        match p.run_until_trap(10_000) {
            TrapReason::Faulted(Fault::Segfault { addr }) => {
                assert_eq!(addr.as_u32(), 0x40);
            }
            other => panic!("expected segfault, got {other:?}"),
        }
    }

    #[test]
    fn partitioned_variant_faults_on_low_half_absolute_address() {
        // The Figure 1 scenario: an absolute address valid for variant 0 is
        // unmapped in the partitioned variant.
        let program = parse_program(
            r"
            var target: int = 5;
            fn main() -> int {
                var p: ptr;
                p = 0x00100000;
                *p = 99;
                return target;
            }
            ",
        )
        .unwrap();
        let compiled = compile_program(&program).unwrap();
        let mut p0 = Process::new(&compiled, MemoryLayout::default());
        let mut p1 = Process::new(&compiled, MemoryLayout::default().with_partition_bit());
        assert_eq!(run_to_exit(&mut p0), 99);
        match p1.run_until_trap(10_000) {
            TrapReason::Faulted(Fault::Segfault { .. }) => {}
            other => panic!("expected segfault in partitioned variant, got {other:?}"),
        }
    }

    #[test]
    fn tag_mismatch_faults_immediately() {
        let program = parse_program("fn main() -> int { return 0; }").unwrap();
        let compiled = compile_program(&program).unwrap();
        // Code stamped with tag 0 but the variant expects tag 1.
        let mut p = Process::new(&compiled, MemoryLayout::default());
        p.expected_tag = 1;
        match p.step() {
            StepResult::Faulted(Fault::TagMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 1);
                assert_eq!(found, 0);
            }
            other => panic!("expected tag mismatch, got {other:?}"),
        }
    }

    #[test]
    fn syscall_traps_and_resumes() {
        let mut p = process_for("fn main() -> int { return getuid() + 1; }");
        match p.run_until_trap(10_000) {
            TrapReason::Syscall(req) => {
                assert_eq!(req.sysno, Sysno::GetUid);
                assert!(req.args.is_empty());
            }
            other => panic!("expected getuid trap, got {other:?}"),
        }
        p.complete_syscall(Word::from_u32(48));
        match p.run_until_trap(10_000) {
            TrapReason::Syscall(req) => {
                assert_eq!(req.sysno, Sysno::Exit);
                assert_eq!(req.arg(0).as_u32(), 49);
            }
            other => panic!("expected exit trap, got {other:?}"),
        }
    }

    #[test]
    fn step_limit_is_reported_as_fault() {
        let mut p = process_for("fn main() -> int { while (1) { } return 0; }");
        match p.run_until_trap(1_000) {
            TrapReason::Faulted(Fault::StepLimitExceeded) => {}
            other => panic!("expected step limit fault, got {other:?}"),
        }
    }

    #[test]
    fn deep_recursion_overflows_the_stack() {
        let mut p = process_for(
            r"
            fn spin(n: int) -> int { return spin(n + 1); }
            fn main() -> int { return spin(0); }
            ",
        );
        match p.run_until_trap(50_000_000) {
            TrapReason::Faulted(Fault::StackOverflow) => {}
            other => panic!("expected stack overflow, got {other:?}"),
        }
    }

    #[test]
    fn instruction_counter_advances() {
        let mut p = process_for("fn main() -> int { return 1 + 2; }");
        let _ = p.run_until_trap(10_000);
        assert!(p.instructions_executed() > 3);
        assert_eq!(p.syscalls_made(), 1);
    }

    #[test]
    fn exited_process_stays_exited() {
        let mut p = process_for("fn main() -> int { return 3; }");
        let _ = run_to_exit(&mut p);
        assert_eq!(p.step(), StepResult::Exited(3));
        assert_eq!(p.run_until_trap(10), TrapReason::Exited(3));
    }

    /// A process over hand-assembled code, starting at its first
    /// instruction, with a zeroed globals image of `globals` bytes.
    fn assembled(instrs: &[Instr], globals: usize, layout: MemoryLayout) -> Process {
        let compiled = CompiledProgram::new(
            encode_all(instrs),
            vec![0; globals],
            BTreeMap::new(),
            BTreeMap::new(),
            0,
            TypeInfo::default(),
        );
        Process::new(&compiled, layout)
    }

    /// Everything an instruction can change: the registers, the operand
    /// stack, the state, the counters and (through the digest) both
    /// memory images.
    fn observe(p: &Process) -> (u32, u32, u32, Vec<Word>, ProcessState, u64, u64, u64) {
        let mut digest = StateHasher::new();
        p.digest_into(&mut digest);
        (
            p.pc,
            p.sp,
            p.fp,
            p.ostack.clone(),
            p.state,
            p.instructions_executed,
            p.syscalls_made,
            digest.finish(),
        )
    }

    /// Runs `process` through the interpreter loop, and a clone through the
    /// same loop with no predecoded stream and no direct segments, so that
    /// every fetch and memory access takes the byte-accurate path. Asserts
    /// both stop with the same trap in the same state; returns the former.
    fn run_against_byte_path(mut process: Process, max_steps: u64) -> (TrapReason, Process) {
        let mut reference = process.clone();
        let byte_path = Hoisted {
            instrs: Arc::from(Vec::new()),
            direct: DirectSegments {
                globals: None,
                stack: None,
            },
            ..Hoisted::new(&reference)
        };
        let expected = reference.run_with(&byte_path, max_steps);
        let trap = process.run_until_trap(max_steps);
        assert_eq!(trap, expected);
        assert_eq!(observe(&process), observe(&reference));
        (trap, process)
    }

    const HALT: Instr = Instr {
        tag: 0,
        op: Op::Halt,
        operand: 0,
    };

    #[test]
    fn the_default_layout_takes_the_direct_arms() {
        let layout = MemoryLayout::default();
        let p = assembled(&[HALT], 16, layout);
        assert_eq!(
            p.direct_segments(),
            DirectSegments {
                globals: Some(layout.globals_base),
                stack: Some(layout.stack_base()),
            }
        );
    }

    #[test]
    fn local_words_at_the_stack_ends_match_the_byte_walk() {
        let layout = MemoryLayout::default();
        let (base, top) = (layout.stack_base(), layout.stack_top);
        // (fp - operand, the first byte the walk cannot map)
        let cases = [
            (base - 2, Some(base - 2)),
            (base, None),
            (top - 4, None),
            (top - 2, Some(top)),
        ];
        for (addr, unmapped) in cases {
            for op in [Op::LoadL, Op::StoreL] {
                let mut p = assembled(
                    &[Instr::new(Op::Push, 0xAABB_CCDD), Instr::new(op, 8), HALT],
                    16,
                    layout,
                );
                p.fp = addr + 8;
                let (trap, p) = run_against_byte_path(p, 10);
                match unmapped {
                    Some(at) => {
                        assert_eq!(
                            trap,
                            TrapReason::Faulted(Fault::Segfault {
                                addr: VirtAddr::new(at)
                            }),
                            "{op} at {addr:#x}"
                        );
                        assert_eq!(p.pc, layout.code_base + 2 * INSTR_SIZE);
                        assert_eq!(p.instructions_executed, 2);
                    }
                    None => assert_eq!(trap, TrapReason::Exited(0), "{op} at {addr:#x}"),
                }
            }
        }
    }

    #[test]
    fn byte_loads_at_segment_edges_match_the_byte_walk() {
        let layout = MemoryLayout::default();
        let globals_end = layout.globals_base + 16;
        // (address, the byte read or the faulting address)
        let cases = [
            (layout.stack_top, Err(layout.stack_top)),
            (layout.stack_top - 1, Ok(0xA5)),
            (globals_end, Err(globals_end)),
            (globals_end - 1, Ok(0x5A)),
            // The opcode byte of the first instruction: code reads too.
            (layout.code_base + 1, Ok(Op::Push.as_u8())),
        ];
        for (addr, expected) in cases {
            let mut p = assembled(
                &[Instr::new(Op::Push, addr), Instr::simple(Op::LoadB), HALT],
                16,
                layout,
            );
            p.globals[15] = 0x5A;
            *p.stack.last_mut().unwrap() = 0xA5;
            let (trap, p) = run_against_byte_path(p, 10);
            match expected {
                Ok(byte) => {
                    assert_eq!(trap, TrapReason::Exited(0), "{addr:#x}");
                    assert_eq!(p.ostack, [Word::from_u32(u32::from(byte))], "{addr:#x}");
                }
                Err(at) => {
                    assert_eq!(
                        trap,
                        TrapReason::Faulted(Fault::Segfault {
                            addr: VirtAddr::new(at)
                        }),
                        "{addr:#x}"
                    );
                    assert!(p.ostack.is_empty());
                }
            }
        }
    }

    #[test]
    fn globals_overlapping_the_stack_win_the_lookup() {
        let base = MemoryLayout::default();
        // Globals start 8 bytes below the stack and run 8 bytes into it,
        // where the segment lookup names globals, not the stack.
        let layout = MemoryLayout {
            globals_base: base.stack_base() - 8,
            ..base
        };
        let probe = layout.stack_base() + 4;
        let mut p = assembled(
            &[
                Instr::new(Op::LoadL, 0),
                Instr::new(Op::Push, probe),
                Instr::simple(Op::LoadB),
                Instr::new(Op::Push, 0x1122_3344),
                Instr::new(Op::StoreL, 0),
                HALT,
            ],
            16,
            layout,
        );
        assert_eq!(
            p.direct_segments(),
            DirectSegments {
                globals: Some(layout.globals_base),
                stack: None,
            }
        );
        p.fp = probe;
        p.globals[12..16].copy_from_slice(&[1, 2, 3, 4]);
        p.stack[4..8].copy_from_slice(&[9; 4]);
        let (trap, p) = run_against_byte_path(p, 10);
        assert_eq!(trap, TrapReason::Exited(0));
        assert_eq!(p.ostack, [Word::from_u32(0x0403_0201), Word::from_u32(1)]);
        assert_eq!(p.globals[12..16], 0x1122_3344u32.to_le_bytes());
        assert_eq!(p.stack[4..8], [9; 4]);

        // Globals overlapping the code lose their direct arm the same way.
        let over_code = MemoryLayout {
            globals_base: base.code_base,
            ..base
        };
        assert_eq!(
            assembled(&[HALT], 16, over_code).direct_segments(),
            DirectSegments {
                globals: None,
                stack: Some(over_code.stack_base()),
            }
        );
    }

    #[test]
    fn binary_operators_underflow_and_divide_like_popping_both_operands() {
        let layout = MemoryLayout::default();
        for op in [Op::Add, Op::Ne] {
            for pushed in 0..2u32 {
                let mut code: Vec<Instr> =
                    (0..pushed).map(|i| Instr::new(Op::Push, 7 + i)).collect();
                code.extend([Instr::simple(op), HALT]);
                let (trap, p) = run_against_byte_path(assembled(&code, 0, layout), 10);
                assert_eq!(trap, TrapReason::Faulted(Fault::OperandStackUnderflow));
                assert!(p.ostack.is_empty(), "{op} with {pushed} operand(s)");
                assert_eq!(p.pc, layout.code_base + (pushed + 1) * INSTR_SIZE);
                assert_eq!(p.instructions_executed, u64::from(pushed) + 1);
            }
        }
        let code = [
            Instr::new(Op::Push, 5),
            Instr::new(Op::Push, 7),
            Instr::new(Op::Push, 0),
            Instr::simple(Op::Div),
            HALT,
        ];
        let (trap, p) = run_against_byte_path(assembled(&code, 0, layout), 10);
        assert_eq!(trap, TrapReason::Faulted(Fault::DivideByZero));
        assert_eq!(p.ostack, [Word::from_u32(5)]);
    }

    #[test]
    fn enter_that_wraps_sp_overflows_the_stack() {
        let layout = MemoryLayout::default();
        let sp = layout.stack_base() + 16;
        let mut p = assembled(&[Instr::new(Op::Enter, sp + 32), HALT], 0, layout);
        p.sp = sp;
        assert_eq!(
            p.run_until_trap(10),
            TrapReason::Faulted(Fault::StackOverflow)
        );
    }

    #[test]
    fn call_that_wraps_sp_overflows_the_stack() {
        let mut p = assembled(&[Instr::new(Op::Call, 0), HALT], 0, MemoryLayout::default());
        p.sp = 4;
        assert_eq!(
            p.run_until_trap(10),
            TrapReason::Faulted(Fault::StackOverflow)
        );
    }

    #[test]
    fn the_step_budget_is_exact() {
        for n in [1u64, 2, 7, 1000] {
            let mut p = assembled(&[Instr::new(Op::Jmp, 0)], 0, MemoryLayout::default());
            assert_eq!(
                p.run_until_trap(n),
                TrapReason::Faulted(Fault::StepLimitExceeded)
            );
            assert_eq!(p.instructions_executed(), n);
            assert_eq!(p.state(), ProcessState::Faulted(Fault::StepLimitExceeded));
        }
    }

    #[test]
    fn a_zero_budget_executes_nothing_and_faults_even_a_stopped_process() {
        let mut p = assembled(&[Instr::new(Op::Jmp, 0)], 0, MemoryLayout::default());
        let pc = p.pc;
        assert_eq!(
            p.run_until_trap(0),
            TrapReason::Faulted(Fault::StepLimitExceeded)
        );
        assert_eq!((p.pc, p.instructions_executed()), (pc, 0));

        let mut exited = assembled(&[HALT], 0, MemoryLayout::default());
        exited.set_exited(3);
        assert_eq!(exited.clone().run_until_trap(1), TrapReason::Exited(3));
        assert_eq!(
            exited.run_until_trap(0),
            TrapReason::Faulted(Fault::StepLimitExceeded)
        );
        assert_eq!(
            exited.state(),
            ProcessState::Faulted(Fault::StepLimitExceeded)
        );
    }
}
