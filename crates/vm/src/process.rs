//! Variant process images: memory layout, segments, registers and counters.
//!
//! The layout is the classic one the paper's attack classes assume:
//!
//! ```text
//!   high addresses
//!   +--------------------+  stack_top
//!   |  stack (grows ↓)   |  return addresses & saved frame pointers live here
//!   +--------------------+  stack_top - stack_size
//!   |        ...         |
//!   +--------------------+  globals_base + globals.len()
//!   |  globals + rodata  |  declaration order fixes adjacency
//!   +--------------------+  globals_base
//!   |        ...         |
//!   +--------------------+  code_base + code.len()
//!   |   code (tagged)    |  read-only
//!   +--------------------+  code_base
//!   low addresses
//! ```
//!
//! Address-space partitioning is realized by shifting every base by the
//! partition bit (`0x8000_0000`), so the same program runs at disjoint
//! addresses in the two variants.

use crate::bytecode::Instr;
use crate::compile::CompiledProgram;
use crate::fault::Fault;
use nvariant_simos::ProcessMem;
use nvariant_types::{Errno, StateHasher, VirtAddr, Word};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Placement of the code, globals and stack segments in the 32-bit virtual
/// address space of one variant.
///
/// # Example
///
/// ```
/// use nvariant_vm::MemoryLayout;
///
/// let base = MemoryLayout::default();
/// let partitioned = base.with_partition_bit();
/// assert_eq!(partitioned.code_base, base.code_base | 0x8000_0000);
/// assert_eq!(partitioned.stack_top, base.stack_top | 0x8000_0000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryLayout {
    /// Base address of the (read-only) code segment.
    pub code_base: u32,
    /// Base address of the globals + rodata segment.
    pub globals_base: u32,
    /// Address one past the top of the stack (the stack grows downward from
    /// here).
    pub stack_top: u32,
    /// Size of the stack segment in bytes.
    pub stack_size: u32,
}

impl Default for MemoryLayout {
    fn default() -> Self {
        MemoryLayout {
            code_base: 0x0000_1000,
            globals_base: 0x0010_0000,
            stack_top: 0x0080_0000,
            stack_size: 0x0002_0000,
        }
    }
}

impl MemoryLayout {
    /// Returns the layout shifted into the upper half of the address space
    /// (the `R1(a) = a + 0x80000000` reexpression of Table 1).
    #[must_use]
    pub fn with_partition_bit(self) -> Self {
        MemoryLayout {
            code_base: self.code_base | 0x8000_0000,
            globals_base: self.globals_base | 0x8000_0000,
            stack_top: self.stack_top | 0x8000_0000,
            stack_size: self.stack_size,
        }
    }

    /// Returns the layout shifted by an additional byte offset, as in the
    /// *extended* address-space partitioning of Bruschi et al. (Table 1).
    #[must_use]
    pub fn with_offset(self, offset: u32) -> Self {
        MemoryLayout {
            code_base: self.code_base.wrapping_add(offset),
            globals_base: self.globals_base.wrapping_add(offset),
            stack_top: self.stack_top.wrapping_add(offset),
            stack_size: self.stack_size,
        }
    }

    /// Lowest stack address.
    #[must_use]
    pub fn stack_base(&self) -> u32 {
        self.stack_top - self.stack_size
    }
}

/// Execution state of a variant process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessState {
    /// The process is runnable.
    Running,
    /// The process exited with the given status.
    Exited(i32),
    /// The process was terminated by a fault.
    Faulted(Fault),
}

/// A variant process: one compiled program instantiated at one memory layout
/// with one instruction tag.
///
/// # Example
///
/// ```
/// use nvariant_vm::{compile_program, parse_program, MemoryLayout, Process};
///
/// let program = parse_program("var x: int = 7; fn main() -> int { return x; }")?;
/// let compiled = compile_program(&program)?;
/// let process = Process::new(&compiled, MemoryLayout::default());
/// let addr = process.global_addr("x").unwrap();
/// assert_eq!(process.read_word(addr).unwrap().as_i32(), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Process {
    pub(crate) layout: MemoryLayout,
    /// The (possibly retagged) code image, shared with the compiled program
    /// and every sibling process at the same tag — code is write-protected,
    /// so one reference-counted image serves them all.
    pub(crate) code: Arc<[u8]>,
    /// Predecoded view of `code`: instruction `i` covers bytes
    /// `i * INSTR_SIZE ..`. Opcode and operand are tag-independent, so the
    /// tag-0 stream serves every retagged image; the fetch stage reads the
    /// live tag byte from `code`. `None` falls back to byte decoding.
    pub(crate) instrs: Option<Arc<[Instr]>>,
    pub(crate) globals: Vec<u8>,
    pub(crate) stack: Vec<u8>,
    pub(crate) pc: u32,
    pub(crate) sp: u32,
    pub(crate) fp: u32,
    pub(crate) ostack: Vec<Word>,
    pub(crate) state: ProcessState,
    pub(crate) expected_tag: u8,
    pub(crate) instructions_executed: u64,
    pub(crate) syscalls_made: u64,
    symbols: BTreeMap<String, (u32, u32)>,
    functions: BTreeMap<String, u32>,
}

impl Process {
    /// Instantiates a process from a compiled program with instruction tag 0.
    #[must_use]
    pub fn new(compiled: &CompiledProgram, layout: MemoryLayout) -> Self {
        Self::with_tag(compiled, layout, 0)
    }

    /// Instantiates a process whose code image is stamped with `tag` and
    /// whose fetch stage requires that tag (instruction-set tagging).
    ///
    /// Retags the image on every call for tags other than 0; batch
    /// instantiators (the campaign engine) retag once via
    /// [`CompiledProgram::retagged_image`] and use [`Process::with_image`].
    #[must_use]
    pub fn with_tag(compiled: &CompiledProgram, layout: MemoryLayout, tag: u8) -> Self {
        Self::with_image(compiled, layout, tag, compiled.retagged_image(tag))
    }

    /// Instantiates a process around an already-retagged shared code image
    /// (obtained from [`CompiledProgram::retagged_image`] with the same
    /// `tag`), so instantiating many sibling processes copies no code.
    #[must_use]
    pub fn with_image(
        compiled: &CompiledProgram,
        layout: MemoryLayout,
        tag: u8,
        image: Arc<[u8]>,
    ) -> Self {
        debug_assert_eq!(image.len(), compiled.code().len());
        Process {
            layout,
            code: image,
            instrs: compiled.stream(),
            globals: compiled.globals_image.clone(),
            stack: vec![0; layout.stack_size as usize],
            pc: layout.code_base + compiled.entry_offset,
            sp: layout.stack_top,
            fp: layout.stack_top,
            ostack: Vec::new(),
            state: ProcessState::Running,
            expected_tag: tag,
            instructions_executed: 0,
            syscalls_made: 0,
            symbols: compiled
                .globals_map
                .iter()
                .map(|(name, (offset, ty))| (name.clone(), (*offset, ty.size())))
                .collect(),
            functions: compiled.functions.clone(),
        }
    }

    /// The memory layout this process runs at.
    #[must_use]
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Current execution state.
    #[must_use]
    pub fn state(&self) -> ProcessState {
        self.state
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> VirtAddr {
        VirtAddr::new(self.pc)
    }

    /// The instruction tag this process' fetch stage requires.
    #[must_use]
    pub fn expected_tag(&self) -> u8 {
        self.expected_tag
    }

    /// Number of bytecode instructions executed so far.
    #[must_use]
    pub fn instructions_executed(&self) -> u64 {
        self.instructions_executed
    }

    /// Number of system calls issued so far.
    #[must_use]
    pub fn syscalls_made(&self) -> u64 {
        self.syscalls_made
    }

    /// Marks the process as exited (used by the kernel's `exit` handling).
    pub fn set_exited(&mut self, status: i32) {
        self.state = ProcessState::Exited(status);
    }

    /// Marks the process as faulted (used by the monitor when it terminates a
    /// divergent variant).
    pub fn set_faulted(&mut self, fault: Fault) {
        self.state = ProcessState::Faulted(fault);
    }

    /// The virtual address of a named global variable, if it exists.
    #[must_use]
    pub fn global_addr(&self, name: &str) -> Option<VirtAddr> {
        self.symbols
            .get(name)
            .map(|(offset, _)| VirtAddr::new(self.layout.globals_base + offset))
    }

    /// The size in bytes of a named global variable, if it exists.
    #[must_use]
    pub fn global_size(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).map(|(_, size)| *size)
    }

    /// The virtual address of a named function's first instruction.
    #[must_use]
    pub fn function_addr(&self, name: &str) -> Option<VirtAddr> {
        self.functions
            .get(name)
            .map(|offset| VirtAddr::new(self.layout.code_base + offset))
    }

    /// Pushes a value onto the operand stack (used to deliver system-call
    /// results).
    pub fn complete_syscall(&mut self, value: Word) {
        self.ostack.push(value);
    }

    /// Folds the process' mutable execution state — registers, operand
    /// stack, globals and stack images, execution state and instruction tag
    /// — into `digest`.
    ///
    /// The stack grows down from the top of its image, so its low end is a
    /// run of zeros no call ever reached. It is folded as the length of that
    /// leading zero run followed by the remaining bytes: still a pure
    /// function of the image, but the untouched region costs a scan, not a
    /// hash.
    ///
    /// Deliberately excluded: the code image (write-protected, fixed at
    /// construction and implied by the tag), the symbol tables (immutable),
    /// and the `instructions_executed` / `syscalls_made` counters (monotone
    /// bookkeeping whose inclusion would make every state look new and
    /// defeat the model checker's visited-state pruning).
    pub fn digest_into(&self, digest: &mut StateHasher) {
        digest.write_u32(self.pc);
        digest.write_u32(self.sp);
        digest.write_u32(self.fp);
        digest.write_u8(self.expected_tag);
        match self.state {
            ProcessState::Running => digest.write_u8(0),
            ProcessState::Exited(status) => {
                digest.write_u8(1);
                digest.write_u32(status as u32);
            }
            ProcessState::Faulted(fault) => {
                digest.write_u8(2);
                fault.digest_into(digest);
            }
        }
        digest.write_usize(self.ostack.len());
        for word in &self.ostack {
            digest.write_u32(word.as_u32());
        }
        digest.write_bytes(&self.globals);
        let untouched = leading_zero_len(&self.stack);
        digest.write_usize(untouched);
        digest.write_bytes(&self.stack[untouched..]);
    }

    // ----- memory access ------------------------------------------------------

    fn segment_for(&self, addr: u32) -> Option<(Segment, usize)> {
        let code_end = self.layout.code_base + self.code.len() as u32;
        let globals_end = self.layout.globals_base + self.globals.len() as u32;
        let stack_base = self.layout.stack_base();
        if addr >= self.layout.code_base && addr < code_end {
            Some((Segment::Code, (addr - self.layout.code_base) as usize))
        } else if addr >= self.layout.globals_base && addr < globals_end {
            Some((Segment::Globals, (addr - self.layout.globals_base) as usize))
        } else if addr >= stack_base && addr < self.layout.stack_top {
            Some((Segment::Stack, (addr - stack_base) as usize))
        } else {
            None
        }
    }

    /// Which writable segments the interpreter may index directly: those
    /// [`Process::segment_for`] resolves for every one of their addresses,
    /// i.e. that overlap no segment earlier in its precedence (code, then
    /// globals, then stack). Computed once per interpreter call.
    pub(crate) fn direct_segments(&self) -> DirectSegments {
        let layout = &self.layout;
        // Ranges as `segment_for` reads them; a wrapped end is an empty
        // range there, and `overlaps` treats it as one.
        let code = (
            layout.code_base,
            layout.code_base.wrapping_add(self.code.len() as u32),
        );
        let globals = layout
            .globals_base
            .checked_add(self.globals.len() as u32)
            .map(|end| (layout.globals_base, end));
        let stack = layout
            .stack_top
            .checked_sub(layout.stack_size)
            .map(|base| (base, layout.stack_top));
        let overlaps = |(a0, a1): (u32, u32), (b0, b1): (u32, u32)| a0.max(b0) < a1.min(b1);
        DirectSegments {
            globals: globals
                .filter(|&g| !overlaps(g, code))
                .map(|(base, _)| base),
            stack: stack
                .filter(|&s| !overlaps(s, code) && globals.is_none_or(|g| !overlaps(s, g)))
                .map(|(base, _)| base),
        }
    }

    /// The stack word at `addr`, when the stack is direct and holds all four
    /// bytes; `None` leaves the access to [`Process::read_word`].
    #[inline]
    pub(crate) fn direct_stack_word(&self, direct: DirectSegments, addr: u32) -> Option<Word> {
        let off = addr.wrapping_sub(direct.stack?) as usize;
        let bytes = self.stack.get(off..)?.first_chunk::<4>()?;
        Some(Word::from_le_bytes(*bytes))
    }

    /// The stack bytes of the word at `addr`, under the same condition as
    /// [`Process::direct_stack_word`].
    #[inline]
    pub(crate) fn direct_stack_word_mut(
        &mut self,
        direct: DirectSegments,
        addr: u32,
    ) -> Option<&mut [u8; 4]> {
        let off = addr.wrapping_sub(direct.stack?) as usize;
        self.stack.get_mut(off..)?.first_chunk_mut::<4>()
    }

    /// The byte at `addr`, when it lies in a direct globals or stack
    /// segment; `None` leaves the access to [`Process::read_byte`].
    #[inline]
    pub(crate) fn direct_byte(&self, direct: DirectSegments, addr: u32) -> Option<u8> {
        let in_segment = |bytes: &[u8], base: Option<u32>| {
            base.and_then(|base| bytes.get(addr.wrapping_sub(base) as usize).copied())
        };
        in_segment(&self.globals, direct.globals).or_else(|| in_segment(&self.stack, direct.stack))
    }

    /// Reads one byte of process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if the address is unmapped.
    pub fn read_byte(&self, addr: VirtAddr) -> Result<u8, Fault> {
        match self.segment_for(addr.as_u32()) {
            Some((Segment::Code, off)) => Ok(self.code[off]),
            Some((Segment::Globals, off)) => Ok(self.globals[off]),
            Some((Segment::Stack, off)) => Ok(self.stack[off]),
            None => Err(Fault::Segfault { addr }),
        }
    }

    /// Writes one byte of process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] for unmapped addresses and
    /// [`Fault::WriteProtection`] for the read-only code segment.
    pub fn write_byte(&mut self, addr: VirtAddr, value: u8) -> Result<(), Fault> {
        match self.segment_for(addr.as_u32()) {
            Some((Segment::Code, _)) => Err(Fault::WriteProtection { addr }),
            Some((Segment::Globals, off)) => {
                self.globals[off] = value;
                Ok(())
            }
            Some((Segment::Stack, off)) => {
                self.stack[off] = value;
                Ok(())
            }
            None => Err(Fault::Segfault { addr }),
        }
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if any of the four bytes is unmapped.
    pub fn read_word(&self, addr: VirtAddr) -> Result<Word, Fault> {
        if let Ok(bytes) = self.read_slice(addr, 4) {
            Ok(Word::from_le_bytes([
                bytes[0], bytes[1], bytes[2], bytes[3],
            ]))
        } else {
            // Byte-accurate slow path: the range straddles a segment end,
            // so fault (or succeed, under adjacent custom layouts) exactly
            // where a byte-at-a-time walk would.
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_byte(addr + i as u32)?;
            }
            Ok(Word::from_le_bytes(bytes))
        }
    }

    /// Writes a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] or [`Fault::WriteProtection`] as for
    /// [`Process::write_byte`].
    pub fn write_word(&mut self, addr: VirtAddr, value: Word) -> Result<(), Fault> {
        if let Some(span) = self.write_span(addr, 4) {
            span.copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_byte(addr + i as u32, *b)?;
        }
        Ok(())
    }

    /// Borrows `len` bytes of process memory without copying, when the
    /// whole range lies within a single segment — the common case for
    /// word accesses, syscall buffers and string reads. Ranges that cross
    /// a segment boundary are refused (even if every byte is mapped under
    /// an adjacent custom layout, a contiguous borrow cannot exist);
    /// callers needing byte-exact semantics fall back to
    /// [`Process::read_bytes`], which does.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] naming the first byte that does not fit
    /// in the segment containing `addr` (or `addr` itself if unmapped).
    pub fn read_slice(&self, addr: VirtAddr, len: usize) -> Result<&[u8], Fault> {
        let (segment, off) = self
            .segment_for(addr.as_u32())
            .ok_or(Fault::Segfault { addr })?;
        let bytes = match segment {
            Segment::Code => &self.code[..],
            Segment::Globals => &self.globals,
            Segment::Stack => &self.stack,
        };
        match bytes.get(off..off + len) {
            Some(slice) => Ok(slice),
            None => Err(Fault::Segfault {
                addr: addr + (bytes.len() - off) as u32,
            }),
        }
    }

    /// Mutably borrows `len` bytes when the whole range lies within one
    /// *writable* segment; `None` sends the caller to the byte-at-a-time
    /// path, which reports [`Fault::WriteProtection`] / [`Fault::Segfault`]
    /// byte-accurately.
    fn write_span(&mut self, addr: VirtAddr, len: usize) -> Option<&mut [u8]> {
        let (segment, off) = self.segment_for(addr.as_u32())?;
        let bytes = match segment {
            Segment::Code => return None,
            Segment::Globals => &mut self.globals,
            Segment::Stack => &mut self.stack,
        };
        bytes.get_mut(off..off + len)
    }

    /// Reads `len` bytes of process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if any byte is unmapped.
    pub fn read_bytes(&self, addr: VirtAddr, len: usize) -> Result<Vec<u8>, Fault> {
        if let Ok(slice) = self.read_slice(addr, len) {
            return Ok(slice.to_vec());
        }
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            out.push(self.read_byte(addr + i as u32)?);
        }
        Ok(out)
    }

    /// Writes a byte slice into process memory.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] or [`Fault::WriteProtection`] as for
    /// [`Process::write_byte`].
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), Fault> {
        if let Some(span) = self.write_span(addr, data.len()) {
            span.copy_from_slice(data);
            return Ok(());
        }
        for (i, b) in data.iter().enumerate() {
            self.write_byte(addr + i as u32, *b)?;
        }
        Ok(())
    }

    /// Reads a NUL-terminated string (excluding the terminator).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segfault`] if the string runs off mapped memory
    /// before a terminator is found within `max` bytes.
    pub fn read_cstring(&self, addr: VirtAddr, max: usize) -> Result<Vec<u8>, Fault> {
        // Fast path: scan the containing segment directly. Valid only when
        // the segment holds the full `max` window or terminates the string
        // within it — otherwise the byte walk decides what lies beyond the
        // segment end.
        if let Some((segment, off)) = self.segment_for(addr.as_u32()) {
            let bytes = match segment {
                Segment::Code => &self.code[..],
                Segment::Globals => &self.globals,
                Segment::Stack => &self.stack,
            };
            let window = &bytes[off..bytes.len().min(off + max)];
            match window.iter().position(|&b| b == 0) {
                Some(nul) => return Ok(window[..nul].to_vec()),
                None if window.len() == max => return Ok(window.to_vec()),
                None => {}
            }
        }
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_byte(addr + i as u32)?;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
        }
        Ok(out)
    }
}

/// The base address of each writable segment the interpreter may index
/// directly (see [`Process::direct_segments`]); `None` sends every access
/// to that segment through the byte-accurate lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DirectSegments {
    pub(crate) globals: Option<u32>,
    pub(crate) stack: Option<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    Code,
    Globals,
    Stack,
}

impl ProcessMem for Process {
    fn read_mem(&self, addr: u32, len: usize) -> Result<Vec<u8>, Errno> {
        self.read_bytes(VirtAddr::new(addr), len)
            .map_err(|_| Errno::Efault)
    }

    fn write_mem(&mut self, addr: u32, data: &[u8]) -> Result<(), Errno> {
        self.write_bytes(VirtAddr::new(addr), data)
            .map_err(|_| Errno::Efault)
    }
}

/// Length of the run of zero bytes at the start of `bytes`, scanned 16
/// bytes at a time and finished bytewise.
fn leading_zero_len(bytes: &[u8]) -> usize {
    let words = bytes
        .chunks_exact(16)
        .take_while(|word| u128::from_le_bytes((*word).try_into().expect("16-byte chunk")) == 0)
        .count();
    let run = words * 16;
    run + bytes[run..].iter().take_while(|&&byte| byte == 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::parser::parse_program;

    fn compiled() -> CompiledProgram {
        let program = parse_program(
            r"
            var logbuf: buf[16];
            var server_uid: uid_t = 48;
            fn main() -> int { return 0; }
            ",
        )
        .unwrap();
        compile_program(&program).unwrap()
    }

    #[test]
    fn layout_partitioning_and_offset() {
        let layout = MemoryLayout::default();
        assert!(layout.code_base < layout.globals_base);
        assert!(layout.globals_base < layout.stack_base());
        let hi = layout.with_partition_bit();
        assert_eq!(hi.globals_base & 0x8000_0000, 0x8000_0000);
        assert_eq!(hi.stack_size, layout.stack_size);
        let extended = hi.with_offset(0x40);
        assert_eq!(extended.code_base, hi.code_base + 0x40);
    }

    #[test]
    fn globals_are_initialized_and_addressable() {
        let c = compiled();
        let p = Process::new(&c, MemoryLayout::default());
        let uid_addr = p.global_addr("server_uid").unwrap();
        assert_eq!(p.read_word(uid_addr).unwrap().as_u32(), 48);
        assert_eq!(p.global_size("logbuf"), Some(16));
        // Declaration order fixes adjacency: the buffer sits below the UID.
        let buf_addr = p.global_addr("logbuf").unwrap();
        assert!(buf_addr < uid_addr);
        assert_eq!(uid_addr.offset_from(buf_addr), Some(16));
        assert!(p.global_addr("missing").is_none());
    }

    #[test]
    fn partitioned_variant_reads_same_logical_data_at_different_addresses() {
        let c = compiled();
        let p0 = Process::new(&c, MemoryLayout::default());
        let p1 = Process::new(&c, MemoryLayout::default().with_partition_bit());
        let a0 = p0.global_addr("server_uid").unwrap();
        let a1 = p1.global_addr("server_uid").unwrap();
        assert_ne!(a0, a1);
        assert_eq!(a1.without_high_bit(), a0);
        assert_eq!(p0.read_word(a0).unwrap(), p1.read_word(a1).unwrap());
        // An address valid in variant 1 is unmapped in variant 0.
        assert!(p0.read_word(a1).is_err());
        assert!(p1.read_word(a0).is_err());
    }

    #[test]
    fn execution_states_digest_distinctly() {
        let c = compiled();
        let digest = |state: ProcessState| {
            let mut p = Process::new(&c, MemoryLayout::default());
            match state {
                ProcessState::Running => {}
                ProcessState::Exited(status) => p.set_exited(status),
                ProcessState::Faulted(fault) => p.set_faulted(fault),
            }
            let mut hasher = StateHasher::new();
            p.digest_into(&mut hasher);
            hasher.finish()
        };
        let segfault = |addr| {
            ProcessState::Faulted(Fault::Segfault {
                addr: VirtAddr::new(addr),
            })
        };
        let states = [
            ProcessState::Running,
            ProcessState::Exited(0),
            ProcessState::Exited(1),
            segfault(4),
            segfault(8),
            ProcessState::Faulted(Fault::WriteProtection {
                addr: VirtAddr::new(4),
            }),
            ProcessState::Faulted(Fault::StackOverflow),
            ProcessState::Faulted(Fault::DivideByZero),
        ];
        let digests: std::collections::HashSet<u64> = states.into_iter().map(digest).collect();
        assert_eq!(digests.len(), states.len());
    }

    #[test]
    fn leading_zero_run_is_found_across_chunk_boundaries() {
        for len in [0usize, 1, 15, 16, 17, 40] {
            for first in 0..=len {
                let mut bytes = vec![0u8; len];
                if first < len {
                    bytes[first] = 1;
                }
                assert_eq!(leading_zero_len(&bytes), first, "len {len}, first {first}");
            }
        }
    }

    #[test]
    fn memory_faults() {
        let c = compiled();
        let mut p = Process::new(&c, MemoryLayout::default());
        assert!(matches!(
            p.read_byte(VirtAddr::new(0x0000_0004)),
            Err(Fault::Segfault { .. })
        ));
        let code_addr = VirtAddr::new(p.layout().code_base);
        assert!(matches!(
            p.write_byte(code_addr, 0),
            Err(Fault::WriteProtection { .. })
        ));
        // Stack is writable.
        let stack_addr = VirtAddr::new(p.layout().stack_top - 8);
        p.write_word(stack_addr, Word::from_u32(0xAABB_CCDD))
            .unwrap();
        assert_eq!(p.read_word(stack_addr).unwrap().as_u32(), 0xAABB_CCDD);
    }

    #[test]
    fn cstring_reads() {
        let c = compiled();
        let mut p = Process::new(&c, MemoryLayout::default());
        let addr = p.global_addr("logbuf").unwrap();
        p.write_bytes(addr, b"GET /index.html\0").unwrap();
        assert_eq!(p.read_cstring(addr, 64).unwrap(), b"GET /index.html");
        // A max that stops before the terminator returns the prefix.
        assert_eq!(p.read_cstring(addr, 3).unwrap(), b"GET");
    }

    #[test]
    fn process_mem_trait_maps_faults_to_efault() {
        let c = compiled();
        let mut p = Process::new(&c, MemoryLayout::default());
        assert_eq!(p.read_mem(0x4, 1), Err(Errno::Efault));
        assert_eq!(p.write_mem(0x4, b"x"), Err(Errno::Efault));
        let addr = p.global_addr("logbuf").unwrap().as_u32();
        assert!(p.write_mem(addr, b"ok\0").is_ok());
        assert_eq!(p.read_cstr(addr, 16).unwrap(), b"ok");
    }

    #[test]
    fn tagging_restamps_code() {
        let c = compiled();
        let p0 = Process::new(&c, MemoryLayout::default());
        let p1 = Process::with_tag(&c, MemoryLayout::default(), 1);
        assert_eq!(p0.expected_tag(), 0);
        assert_eq!(p1.expected_tag(), 1);
        // First code byte is the tag of the first instruction.
        assert_eq!(p0.code[0], 0);
        assert_eq!(p1.code[0], 1);
        // Operands are untouched.
        assert_eq!(p0.code[1..6], p1.code[1..6]);
    }

    #[test]
    fn function_addresses_are_exposed() {
        let c = compiled();
        let p = Process::new(&c, MemoryLayout::default());
        let main_addr = p.function_addr("main").unwrap();
        assert!(main_addr.as_u32() >= p.layout().code_base);
        assert!(p.function_addr("nope").is_none());
    }
}
