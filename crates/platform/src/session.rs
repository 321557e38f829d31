//! Virtual memory sessions: what a running virus sees.
//!
//! A [`Session`] is the view a virus process has of memory on the server:
//! `malloc`-style allocation, 64-bit loads and stores. Every access is
//! recorded into a trace; stores are applied to the backing DIMM
//! immediately. When the virus body finishes, [`Session::finish`] yields a
//! [`RecordedRun`] that the server replays analytically for the duration of
//! the experiment (see [`crate::replay`]).
//!
//! The paper pins application data to a chosen MCU by disabling hardware
//! interleaving in firmware (§IV "Memory Configuration"); a session is
//! created against a target MCU accordingly. With interleaving enabled,
//! consecutive cache lines stripe across all four MCUs instead.

use serde::{Deserialize, Serialize};

/// A virtual address inside a session.
pub type VirtAddr = u64;

/// The abstract memory interface a virus interpreter drives.
///
/// Implemented by [`Session`]; the `dstress-vpl` interpreter is written
/// against this trait so it can also run against mocks in tests.
pub trait MemoryBus {
    /// Allocates `bytes` of zero-initialized memory, returning its virtual
    /// base address.
    ///
    /// # Errors
    ///
    /// Fails when the backing DIMM is exhausted.
    fn alloc(&mut self, bytes: u64) -> Result<VirtAddr, SessionError>;

    /// Loads a 64-bit word.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or unaligned addresses.
    fn read_u64(&mut self, addr: VirtAddr) -> Result<u64, SessionError>;

    /// Stores a 64-bit word.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or unaligned addresses.
    fn write_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), SessionError>;

    /// Stores `values` as consecutive 64-bit words starting at `addr` — the
    /// bulk path behind fill loops. Semantically identical to one
    /// [`Self::write_u64`] per word, including per-word trace recording;
    /// implementations may batch the underlying stores (a [`Session`]
    /// translates once per row instead of once per word).
    ///
    /// # Errors
    ///
    /// Fails on unmapped or unaligned addresses; words before the failing
    /// one are already stored, exactly as with the per-word loop.
    fn fill(&mut self, addr: VirtAddr, values: &[u64]) -> Result<(), SessionError> {
        for (i, &value) in values.iter().enumerate() {
            self.write_u64(addr + i as u64 * 8, value)?;
        }
        Ok(())
    }

    /// Stores `count` copies of one 64-bit word starting at `addr` — the
    /// bulk path behind constant-fill loops (the VPL VM lowers a fused
    /// store-immediate loop to one call). Semantically identical to `count`
    /// [`Self::write_u64`] calls, including per-word trace recording.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or unaligned addresses; words before the failing
    /// one are already stored, exactly as with the per-word loop.
    fn fill_const(&mut self, addr: VirtAddr, value: u64, count: u64) -> Result<(), SessionError> {
        for i in 0..count {
            self.write_u64(addr + i * 8, value)?;
        }
        Ok(())
    }

    /// Loads `count` consecutive 64-bit words starting at `addr` into
    /// `out` (cleared first) — the bulk path behind read-pressure loops
    /// (the VPL VM lowers a fused accumulate loop to one call).
    /// Semantically identical to `count` [`Self::read_u64`] calls,
    /// including per-word trace recording.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or unaligned addresses; words before the failing
    /// one are already recorded, exactly as with the per-word loop.
    fn read_span(
        &mut self,
        addr: VirtAddr,
        count: u64,
        out: &mut Vec<u64>,
    ) -> Result<(), SessionError> {
        out.clear();
        out.reserve(count as usize);
        for i in 0..count {
            out.push(self.read_u64(addr + i * 8)?);
        }
        Ok(())
    }

    /// Copies `count` consecutive 64-bit words from `src` to `dst` — the
    /// bulk path behind copy loops (the VPL VM lowers a fused
    /// `dst[off + i] = src[i]` loop to one call). Semantically identical to
    /// one [`Self::read_u64`] of `src + 8k` then one [`Self::write_u64`] of
    /// `dst + 8k` per word, in order, including the interleaved per-word
    /// trace recording — and so also when the spans overlap.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or unaligned addresses; every access before the
    /// failing one has happened, exactly as with the per-word loop.
    fn copy_span(&mut self, dst: VirtAddr, src: VirtAddr, count: u64) -> Result<(), SessionError> {
        for k in 0..count {
            let word = self.read_u64(src + k * 8)?;
            self.write_u64(dst + k * 8, word)?;
        }
        Ok(())
    }
}

/// Error raised by session memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The target DIMM has no room for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes remaining on the target DIMM.
        available: u64,
    },
    /// Address not 8-byte aligned.
    Unaligned(VirtAddr),
    /// Address not inside any allocation.
    Unmapped(VirtAddr),
    /// Allocation of zero bytes requested.
    ZeroAllocation,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of memory: requested {requested} bytes, {available} available"
                )
            }
            SessionError::Unaligned(a) => write!(f, "address {a:#x} is not 64-bit aligned"),
            SessionError::Unmapped(a) => write!(f, "address {a:#x} is not mapped"),
            SessionError::ZeroAllocation => write!(f, "cannot allocate zero bytes"),
        }
    }
}

impl std::error::Error for SessionError {}

/// One recorded memory access: which MCU and DIMM-local physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOp {
    /// MCU index (0–3).
    pub mcu: u8,
    /// DIMM-local physical byte address.
    pub local_addr: u64,
    /// Whether the access was a store.
    pub is_write: bool,
}

/// One maximal contiguous stretch of a recorded trace: `words` successive
/// 64-bit accesses of the same kind, stride 8, on one MCU.
///
/// [`RecordedRun`] stores its trace as spans; consumers that care about
/// bulk structure (the replay profile, benches) walk [`RecordedRun::spans`]
/// directly instead of re-discovering contiguity per word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// MCU index (0–3).
    pub mcu: u8,
    /// DIMM-local physical byte address of the first word.
    pub local_addr: u64,
    /// Number of consecutive words.
    pub words: u64,
    /// Whether the accesses were stores.
    pub is_write: bool,
}

/// The result of executing a virus body once: its DRAM access trace.
///
/// Stores were already applied to the DIMMs; the trace is replayed
/// analytically to model the access intensity over a full run.
///
/// Stored as *spans*: virus traces are dominated by fill/reduce loops
/// streaming stride-8 over whole arrays, so instead of one address + one
/// metadata byte per access, each maximal contiguous stretch of same-kind
/// accesses collapses to `(start, words, meta)`. A fused fill of 65 536
/// words becomes a handful of row-sized span records rather than 65 536
/// entries, the recording bus appends a span in O(1) with two vector
/// pushes (12 bytes), and the replay path
/// ([`crate::replay::ReplayProfile::build`]) consumes spans wholesale.
///
/// The encoding is *canonical*: [`RecordedRun::push`] greedily merges into
/// the last span, and a stretch longer than a span holds (`2^24 − 1`
/// words) continues greedily in the next, so two runs hold identical span
/// vectors exactly when their logical per-word traces are identical —
/// derived `PartialEq` (and the server's replay-profile cache keyed on it)
/// still compares logical traces. [`RecordedRun::iter`] re-materializes
/// per-word [`TraceOp`]s for consumers that want the flat view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedRun {
    /// First DIMM-local physical byte address of each span.
    addrs: Vec<u64>,
    /// Per span: the metadata byte (bit 7 = write flag, bits 0–6 = MCU)
    /// in the top 8 bits, the length in words in the low 24.
    lens: Vec<u32>,
    /// Total logical word accesses across all spans.
    total: usize,
    /// The MCU the session allocated from.
    pub target_mcu: usize,
    /// Whether the trace hit the recording cap (the replay then uses the
    /// recorded prefix as the periodic unit).
    pub truncated: bool,
}

/// Write flag inside [`RecordedRun`] metadata bytes.
const META_WRITE: u8 = 0x80;
/// Bits of a [`RecordedRun`] span entry that hold its length.
const LEN_BITS: u32 = 24;
/// The longest span one entry holds.
const MAX_SPAN: u32 = (1 << LEN_BITS) - 1;

impl RecordedRun {
    /// An empty run (no accesses — idle memory under test).
    pub fn idle(target_mcu: usize) -> Self {
        RecordedRun {
            addrs: Vec::new(),
            lens: Vec::new(),
            total: 0,
            target_mcu,
            truncated: false,
        }
    }

    /// Empties the run for a new recording on `target_mcu`, keeping the
    /// span table's allocation (the server hands a finished run's buffer
    /// to the next session this way).
    pub(crate) fn reset(&mut self, target_mcu: usize) {
        self.addrs.clear();
        self.lens.clear();
        self.total = 0;
        self.target_mcu = target_mcu;
        self.truncated = false;
    }

    /// A run holding the given operations (test/workload construction).
    #[cfg(test)]
    pub fn from_trace(ops: impl IntoIterator<Item = TraceOp>, target_mcu: usize) -> Self {
        let mut run = RecordedRun::idle(target_mcu);
        for op in ops {
            run.push(op);
        }
        run
    }

    /// Number of recorded (logical, per-word) operations.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends one access, merging into the last span when contiguous.
    #[inline]
    pub fn push(&mut self, op: TraceOp) {
        let meta = op.mcu | if op.is_write { META_WRITE } else { 0 };
        self.push_span_packed(meta, op.local_addr, 1);
    }

    /// Appends `words` consecutive same-kind accesses starting at
    /// `local_addr` in O(1) — bit-identical to `words` [`Self::push`]
    /// calls thanks to the canonical greedy merge.
    #[inline]
    pub fn push_span(&mut self, mcu: u8, local_addr: u64, words: u64, is_write: bool) {
        let meta = mcu | if is_write { META_WRITE } else { 0 };
        self.push_span_packed(meta, local_addr, words);
    }

    #[inline]
    fn push_span_packed(&mut self, meta: u8, local_addr: u64, words: u64) {
        if words == 0 {
            return;
        }
        self.total += words as usize;
        let mut addr = local_addr;
        let mut left = words;
        // Greedy merge into the trailing span keeps the encoding canonical
        // (a function of the logical op sequence, not of call batching).
        if let (Some(&last_addr), Some(last)) = (self.addrs.last(), self.lens.last_mut()) {
            let len = *last & MAX_SPAN;
            if (*last >> LEN_BITS) as u8 == meta && addr == last_addr.wrapping_add(len as u64 * 8) {
                let take = left.min((MAX_SPAN - len) as u64);
                *last += take as u32;
                addr = addr.wrapping_add(take * 8);
                left -= take;
            }
        }
        while left > 0 {
            let take = left.min(MAX_SPAN as u64);
            self.addrs.push(addr);
            self.lens.push((meta as u32) << LEN_BITS | take as u32);
            addr = addr.wrapping_add(take * 8);
            left -= take;
        }
    }

    /// The `i`-th recorded access. Walks the span table — meant for tests
    /// and spot checks, not bulk consumption (use [`Self::iter`] or
    /// [`Self::spans`] for that).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> TraceOp {
        assert!(
            i < self.total,
            "trace index {i} out of range {}",
            self.total
        );
        let mut skip = i;
        for span in self.spans() {
            if (skip as u64) < span.words {
                return TraceOp {
                    mcu: span.mcu,
                    local_addr: span.local_addr.wrapping_add(skip as u64 * 8),
                    is_write: span.is_write,
                };
            }
            skip -= span.words as usize;
        }
        unreachable!("span lengths sum to total");
    }

    /// Iterates the recorded spans in program order.
    pub fn spans(&self) -> impl Iterator<Item = TraceSpan> + '_ {
        self.addrs
            .iter()
            .zip(&self.lens)
            .map(|(&local_addr, &entry)| {
                let meta = (entry >> LEN_BITS) as u8;
                TraceSpan {
                    mcu: meta & !META_WRITE,
                    local_addr,
                    words: (entry & MAX_SPAN) as u64,
                    is_write: meta & META_WRITE != 0,
                }
            })
    }

    /// Iterates the recorded accesses word by word, in program order.
    pub fn iter(&self) -> impl Iterator<Item = TraceOp> + '_ {
        self.spans().flat_map(|span| {
            (0..span.words).map(move |j| TraceOp {
                mcu: span.mcu,
                local_addr: span.local_addr.wrapping_add(j * 8),
                is_write: span.is_write,
            })
        })
    }

    /// Appends every access of `other` (workload composition), merging
    /// across the boundary when the traces are contiguous.
    pub fn append_run(&mut self, other: &RecordedRun) {
        for (&addr, &entry) in other.addrs.iter().zip(&other.lens) {
            self.push_span_packed((entry >> LEN_BITS) as u8, addr, (entry & MAX_SPAN) as u64);
        }
    }
}

/// One contiguous allocation.
#[derive(Debug, Clone, Copy)]
struct Segment {
    virt_base: u64,
    bytes: u64,
    phys_base: u64,
}

/// A live memory session against a server.
///
/// Created by [`crate::XGene2Server::session`]. See the crate-level example.
#[derive(Debug)]
pub struct Session<'a> {
    server: &'a mut crate::server::XGene2Server,
    target_mcu: usize,
    segments: Vec<Segment>,
    next_virt: u64,
    trace: RecordedRun,
    max_trace: usize,
}

impl<'a> Session<'a> {
    pub(crate) fn new(
        server: &'a mut crate::server::XGene2Server,
        target_mcu: usize,
        max_trace: usize,
    ) -> Self {
        let trace = server.spare_trace(target_mcu);
        Session {
            server,
            target_mcu,
            segments: Vec::new(),
            next_virt: 0x1_0000,
            trace,
            max_trace,
        }
    }

    /// The MCU this session allocates from.
    pub fn target_mcu(&self) -> usize {
        self.target_mcu
    }

    /// Translates a virtual address to `(mcu, local physical address)`.
    #[inline]
    fn translate(&self, addr: VirtAddr) -> Result<(usize, u64), SessionError> {
        if !addr.is_multiple_of(8) {
            return Err(SessionError::Unaligned(addr));
        }
        let seg = self
            .segments
            .iter()
            .find(|s| addr >= s.virt_base && addr < s.virt_base + s.bytes)
            .ok_or(SessionError::Unmapped(addr))?;
        let offset = addr - seg.virt_base;
        if self.server.interleaving() {
            // Consecutive 64-byte lines stripe across the four MCUs.
            let line = (seg.phys_base + offset) / 64;
            let within = (seg.phys_base + offset) % 64;
            let mcu = (line % crate::server::MCUS as u64) as usize;
            let local = (line / crate::server::MCUS as u64) * 64 + within;
            Ok((mcu, local))
        } else {
            Ok((self.target_mcu, seg.phys_base + offset))
        }
    }

    #[inline]
    fn record(&mut self, mcu: usize, local_addr: u64, is_write: bool) {
        if self.trace.len() >= self.max_trace {
            self.trace.truncated = true;
            return;
        }
        self.trace.push(TraceOp {
            mcu: mcu as u8,
            local_addr,
            is_write,
        });
    }

    /// Bulk variant of [`Self::record`]: `n` consecutive word accesses
    /// starting at `local_addr`, cap-checked once instead of per word.
    /// Bit-identical trace to `n` `record` calls, including the truncation
    /// flag when the span runs past the recording cap.
    fn record_span(&mut self, mcu: usize, local_addr: u64, n: u64, is_write: bool) {
        let room = self.max_trace.saturating_sub(self.trace.len());
        let keep = (n as usize).min(room);
        if keep < n as usize {
            self.trace.truncated = true;
        }
        self.trace
            .push_span(mcu as u8, local_addr, keep as u64, is_write);
    }

    /// Records `n` interleaved copy accesses — read `src_local + 8k`, then
    /// write `dst_local + 8k` — cap-checked once. Bit-identical trace to
    /// `2n` alternating `record` calls, including a cap that lands between
    /// a read and its write.
    fn record_copy(
        &mut self,
        (src_mcu, src_local): (usize, u64),
        (dst_mcu, dst_local): (usize, u64),
        n: u64,
    ) {
        let room = self.max_trace.saturating_sub(self.trace.len()) as u64;
        let pairs = n.min(room / 2);
        for k in 0..pairs {
            self.trace.push(TraceOp {
                mcu: src_mcu as u8,
                local_addr: src_local + k * 8,
                is_write: false,
            });
            self.trace.push(TraceOp {
                mcu: dst_mcu as u8,
                local_addr: dst_local + k * 8,
                is_write: true,
            });
        }
        if pairs < n {
            if room > 2 * pairs {
                self.trace.push(TraceOp {
                    mcu: src_mcu as u8,
                    local_addr: src_local + pairs * 8,
                    is_write: false,
                });
            }
            self.trace.truncated = true;
        }
    }

    /// Consumes the session, returning the recorded run.
    pub fn finish(self) -> RecordedRun {
        self.trace
    }
}

// `#[inline]` throughout: the VPL bytecode VM is monomorphized over this
// bus, and these bodies are the per-access hot path it inlines.
impl MemoryBus for Session<'_> {
    #[inline]
    fn alloc(&mut self, bytes: u64) -> Result<VirtAddr, SessionError> {
        if bytes == 0 {
            return Err(SessionError::ZeroAllocation);
        }
        // Round to whole rows so big arrays land on row boundaries, as the
        // paper's 8 KB-chunk analysis assumes for page-aligned mallocs.
        let row_bytes = self.server.row_bytes();
        let rounded = bytes.div_ceil(row_bytes) * row_bytes;
        let phys_base = self.server.allocate(self.target_mcu, rounded).ok_or({
            SessionError::OutOfMemory {
                requested: bytes,
                available: self.server.available(self.target_mcu),
            }
        })?;
        let virt = self.next_virt;
        self.segments.push(Segment {
            virt_base: virt,
            bytes: rounded,
            phys_base,
        });
        self.next_virt += rounded;
        Ok(virt)
    }

    #[inline]
    fn read_u64(&mut self, addr: VirtAddr) -> Result<u64, SessionError> {
        let (mcu, local) = self.translate(addr)?;
        self.record(mcu, local, false);
        Ok(self.server.read_local(mcu, local))
    }

    #[inline]
    fn write_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), SessionError> {
        let (mcu, local) = self.translate(addr)?;
        self.record(mcu, local, true);
        self.server.write_local(mcu, local, value);
        Ok(())
    }

    /// Row-granular fast path: translates once per DRAM row and stores each
    /// in-row span with a single row lookup. Allocations are row-aligned
    /// (see [`Self::alloc`]), so a chunk bounded by the current row never
    /// straddles a segment. Trace recording stays per word — the replay
    /// profile must not notice the batching. With interleaving enabled,
    /// lines stripe across MCUs every 64 bytes and batching buys nothing,
    /// so that case keeps the word-at-a-time default.
    fn fill(&mut self, addr: VirtAddr, values: &[u64]) -> Result<(), SessionError> {
        if self.server.interleaving() {
            for (i, &value) in values.iter().enumerate() {
                self.write_u64(addr + i as u64 * 8, value)?;
            }
            return Ok(());
        }
        let row_bytes = self.server.row_bytes();
        let mut done = 0usize;
        while done < values.len() {
            let chunk_addr = addr + done as u64 * 8;
            let (mcu, local) = self.translate(chunk_addr)?;
            let row_remaining = ((row_bytes - local % row_bytes) / 8) as usize;
            let n = row_remaining.min(values.len() - done);
            self.record_span(mcu, local, n as u64, true);
            self.server
                .write_local_span(mcu, local, &values[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Row-granular constant fill: one materialized row-sized buffer serves
    /// every chunk, so the caller never builds a `count`-long slice. Same
    /// chunking and trace recording as [`Self::fill`]; interleaved mode
    /// keeps the word-at-a-time default for the same reason.
    fn fill_const(&mut self, addr: VirtAddr, value: u64, count: u64) -> Result<(), SessionError> {
        if self.server.interleaving() {
            for i in 0..count {
                self.write_u64(addr + i * 8, value)?;
            }
            return Ok(());
        }
        let row_bytes = self.server.row_bytes();
        let row_buf = vec![value; (row_bytes / 8) as usize];
        let mut done = 0u64;
        while done < count {
            let chunk_addr = addr + done * 8;
            let (mcu, local) = self.translate(chunk_addr)?;
            let row_remaining = (row_bytes - local % row_bytes) / 8;
            let n = row_remaining.min(count - done);
            self.record_span(mcu, local, n, true);
            self.server
                .write_local_span(mcu, local, &row_buf[..n as usize]);
            done += n;
        }
        Ok(())
    }

    /// Row-granular bulk read: translates once per DRAM row and loads each
    /// in-row span with a single row lookup. Same chunking and per-word
    /// trace recording as [`Self::fill`]; interleaved mode keeps the
    /// word-at-a-time default for the same reason.
    fn read_span(
        &mut self,
        addr: VirtAddr,
        count: u64,
        out: &mut Vec<u64>,
    ) -> Result<(), SessionError> {
        if self.server.interleaving() {
            out.clear();
            out.reserve(count as usize);
            for i in 0..count {
                out.push(self.read_u64(addr + i * 8)?);
            }
            return Ok(());
        }
        out.clear();
        out.resize(count as usize, 0);
        let row_bytes = self.server.row_bytes();
        let mut done = 0u64;
        while done < count {
            let chunk_addr = addr + done * 8;
            let (mcu, local) = self.translate(chunk_addr)?;
            let row_remaining = (row_bytes - local % row_bytes) / 8;
            let n = row_remaining.min(count - done);
            self.record_span(mcu, local, n, false);
            self.server
                .read_local_span(mcu, local, &mut out[done as usize..(done + n) as usize]);
            done += n;
        }
        Ok(())
    }

    /// Row-granular copy: translates each span once per chunk that stays
    /// inside one row of both, moves the chunk with one row read and one
    /// row write, and records the same interleaved per-word trace as the
    /// word loop, a recording cap between a read and its write included.
    /// Overlapping spans keep the word-at-a-time default (a chunked copy
    /// would read source words the word loop has already overwritten), and
    /// so does interleaved mode, as in [`Self::fill`].
    fn copy_span(&mut self, dst: VirtAddr, src: VirtAddr, count: u64) -> Result<(), SessionError> {
        let bytes = count.saturating_mul(8);
        let overlap = src < dst.saturating_add(bytes) && dst < src.saturating_add(bytes);
        if self.server.interleaving() || overlap {
            for k in 0..count {
                let word = self.read_u64(src + k * 8)?;
                self.write_u64(dst + k * 8, word)?;
            }
            return Ok(());
        }
        let row_bytes = self.server.row_bytes();
        let mut row_buf = vec![0u64; count.min(row_bytes / 8) as usize];
        let mut done = 0u64;
        while done < count {
            let from = self.translate(src + done * 8)?;
            let to = match self.translate(dst + done * 8) {
                Ok(to) => to,
                Err(e) => {
                    // The word loop reads the source word before its
                    // destination write fails.
                    self.record(from.0, from.1, false);
                    return Err(e);
                }
            };
            let row_remaining = |local: u64| (row_bytes - local % row_bytes) / 8;
            let n = row_remaining(from.1)
                .min(row_remaining(to.1))
                .min(count - done);
            self.record_copy(from, to, n);
            let words = &mut row_buf[..n as usize];
            self.server.read_local_span(from.0, from.1, words);
            self.server.write_local_span(to.0, to.1, words);
            done += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::server::XGene2Server;

    fn server() -> XGene2Server {
        XGene2Server::new(ServerConfig::small())
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut server = server();
        let mut s = server.session(2);
        let base = s.alloc(1024).unwrap();
        s.write_u64(base, 0xDEAD).unwrap();
        s.write_u64(base + 8, 0xBEEF).unwrap();
        assert_eq!(s.read_u64(base).unwrap(), 0xDEAD);
        assert_eq!(s.read_u64(base + 8).unwrap(), 0xBEEF);
    }

    #[test]
    fn unwritten_memory_reads_default_fill() {
        let mut server = server();
        let fill = server.config().dimm.default_fill;
        let mut s = server.session(2);
        let base = s.alloc(64).unwrap();
        assert_eq!(s.read_u64(base + 32).unwrap(), fill);
    }

    #[test]
    fn alignment_and_mapping_checks() {
        let mut server = server();
        let mut s = server.session(1);
        let base = s.alloc(64).unwrap();
        assert_eq!(
            s.read_u64(base + 1).unwrap_err(),
            SessionError::Unaligned(base + 1)
        );
        assert!(matches!(
            s.read_u64(0x8).unwrap_err(),
            SessionError::Unmapped(_)
        ));
        assert_eq!(s.alloc(0).unwrap_err(), SessionError::ZeroAllocation);
    }

    #[test]
    fn allocations_round_to_rows_and_do_not_overlap() {
        let mut server = server();
        let row = server.row_bytes();
        let mut s = server.session(0);
        let a = s.alloc(10).unwrap();
        let b = s.alloc(10).unwrap();
        assert_eq!(b - a, row, "second allocation must start a new row");
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut server = server();
        let capacity = server.config().dimm.geometry.capacity_bytes();
        let mut s = server.session(3);
        assert!(s.alloc(capacity / 2).is_ok());
        let err = s.alloc(capacity).unwrap_err();
        assert!(matches!(err, SessionError::OutOfMemory { .. }));
    }

    #[test]
    fn trace_records_accesses_in_order() {
        let mut server = server();
        let mut s = server.session(2);
        let base = s.alloc(64).unwrap();
        s.write_u64(base, 1).unwrap();
        s.read_u64(base).unwrap();
        let run = s.finish();
        assert_eq!(run.len(), 2);
        assert!(run.get(0).is_write);
        assert!(!run.get(1).is_write);
        assert_eq!(run.get(0).local_addr, run.get(1).local_addr);
        assert_eq!(run.target_mcu, 2);
        assert!(!run.truncated);
    }

    #[test]
    fn trace_truncates_at_cap() {
        let mut config = ServerConfig::small();
        config.access.max_trace_len = 4;
        let mut server = XGene2Server::new(config);
        let mut s = server.session(2);
        let base = s.alloc(128).unwrap();
        for i in 0..10 {
            s.write_u64(base + i * 8, i).unwrap();
        }
        let run = s.finish();
        assert_eq!(run.len(), 4);
        assert!(run.truncated);
    }

    #[test]
    fn writes_reach_the_target_dimm_even_when_truncated() {
        let mut config = ServerConfig::small();
        config.access.max_trace_len = 1;
        let mut server = XGene2Server::new(config);
        let mut s = server.session(2);
        let base = s.alloc(64).unwrap();
        s.write_u64(base, 1).unwrap();
        s.write_u64(base + 8, 2).unwrap();
        assert_eq!(s.read_u64(base + 8).unwrap(), 2);
    }

    #[test]
    fn interleaving_spreads_lines_across_mcus() {
        let mut config = ServerConfig::small();
        config.interleaving = true;
        let mut server = XGene2Server::new(config);
        let mut s = server.session(0);
        let base = s.alloc(4096).unwrap();
        for line in 0..8 {
            s.read_u64(base + line * 64).unwrap();
        }
        let run = s.finish();
        let mcus: std::collections::HashSet<u8> = run.iter().map(|t| t.mcu).collect();
        assert_eq!(mcus.len(), 4, "8 consecutive lines must touch all 4 MCUs");
    }

    #[test]
    fn without_interleaving_everything_stays_on_target() {
        let mut server = server();
        let mut s = server.session(3);
        let base = s.alloc(4096).unwrap();
        for line in 0..8 {
            s.read_u64(base + line * 64).unwrap();
        }
        let run = s.finish();
        assert!(run.iter().all(|t| t.mcu == 3));
    }

    #[test]
    fn fill_matches_word_at_a_time_writes() {
        // The batched fill must be indistinguishable from a write_u64 loop:
        // same stored contents, same recorded trace — across row boundaries
        // and from an unaligned (mid-row) start.
        let values: Vec<u64> = (0..2500u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut batched_server = server();
        let batched = {
            let mut s = batched_server.session(2);
            let base = s.alloc(values.len() as u64 * 8 + 64).unwrap();
            s.fill(base + 16, &values).unwrap();
            s.finish()
        };
        let mut word_server = server();
        let looped = {
            let mut s = word_server.session(2);
            let base = s.alloc(values.len() as u64 * 8 + 64).unwrap();
            for (i, &v) in values.iter().enumerate() {
                s.write_u64(base + 16 + i as u64 * 8, v).unwrap();
            }
            s.finish()
        };
        assert_eq!(batched, looped, "trace must not notice the batching");
        // The stored bits agree word for word (phys base 0: first alloc).
        for i in 0..values.len() as u64 + 4 {
            let local = 16 + i * 8;
            assert_eq!(
                batched_server.read_local(2, local),
                word_server.read_local(2, local),
                "divergence at local address {local:#x}"
            );
        }
        assert_eq!(
            batched_server.dimm(2).materialized_rows(),
            word_server.dimm(2).materialized_rows()
        );
    }

    #[test]
    fn fill_const_matches_word_at_a_time_writes() {
        // Constant fill must be indistinguishable from a write_u64 loop of
        // the same constant — contents and trace — across row boundaries
        // and from a mid-row start.
        let count = 2500u64;
        let value = 0xCCCC_CCCC_CCCC_CCCC;
        let mut batched_server = server();
        let batched = {
            let mut s = batched_server.session(2);
            let base = s.alloc(count * 8 + 64).unwrap();
            s.fill_const(base + 16, value, count).unwrap();
            s.finish()
        };
        let mut word_server = server();
        let looped = {
            let mut s = word_server.session(2);
            let base = s.alloc(count * 8 + 64).unwrap();
            for i in 0..count {
                s.write_u64(base + 16 + i * 8, value).unwrap();
            }
            s.finish()
        };
        assert_eq!(batched, looped, "trace must not notice the batching");
        for i in 0..count + 4 {
            let local = 16 + i * 8;
            assert_eq!(
                batched_server.read_local(2, local),
                word_server.read_local(2, local),
                "divergence at local address {local:#x}"
            );
        }
    }

    #[test]
    fn read_span_matches_word_at_a_time_reads() {
        // Bulk reads must be indistinguishable from a read_u64 loop —
        // values and trace — across row boundaries and from a mid-row
        // start, over mixed written and default-filled rows.
        let count = 2500u64;
        let mut batched_server = server();
        let mut spanned = Vec::new();
        let batched = {
            let mut s = batched_server.session(2);
            let base = s.alloc(count * 8 + 64).unwrap();
            // Write only the first half: the tail reads default contents.
            s.fill_const(base, 0x5A5A_5A5A_5A5A_5A5A, count / 2)
                .unwrap();
            s.read_span(base + 16, count, &mut spanned).unwrap();
            s.finish()
        };
        let mut word_server = server();
        let mut looped_values = Vec::new();
        let looped = {
            let mut s = word_server.session(2);
            let base = s.alloc(count * 8 + 64).unwrap();
            s.fill_const(base, 0x5A5A_5A5A_5A5A_5A5A, count / 2)
                .unwrap();
            for i in 0..count {
                looped_values.push(s.read_u64(base + 16 + i * 8).unwrap());
            }
            s.finish()
        };
        assert_eq!(spanned, looped_values, "values must match per-word reads");
        assert_eq!(batched, looped, "trace must not notice the batching");
    }

    #[test]
    fn read_span_rejects_bad_addresses_like_read_u64() {
        let mut server = server();
        let mut s = server.session(0);
        let base = s.alloc(64).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            s.read_span(base + 1, 2, &mut out).unwrap_err(),
            SessionError::Unaligned(base + 1)
        );
        let unmapped = 0xdead_beef_0000u64;
        assert_eq!(
            s.read_span(unmapped, 2, &mut out).unwrap_err(),
            SessionError::Unmapped(unmapped)
        );
    }

    #[test]
    fn fill_const_rejects_bad_addresses_like_write_u64() {
        let mut server = server();
        let mut s = server.session(0);
        let base = s.alloc(64).unwrap();
        assert_eq!(
            s.fill_const(base + 1, 7, 2).unwrap_err(),
            SessionError::Unaligned(base + 1)
        );
        // Running past the allocation fails at the first unmapped row with
        // the in-range prefix applied, like the per-word loop.
        let row_words = server.row_bytes() / 8;
        let mut s = server.session(0);
        let base = s.alloc(8).unwrap(); // rounds to one row
        assert!(matches!(
            s.fill_const(base, 9, row_words + 1).unwrap_err(),
            SessionError::Unmapped(_)
        ));
        assert_eq!(s.read_u64(base).unwrap(), 9);
    }

    #[test]
    fn fill_contents_reach_the_dimm() {
        let mut server = server();
        let values: Vec<u64> = (0..1500u64).collect();
        let mut s = server.session(1);
        let base = s.alloc(values.len() as u64 * 8).unwrap();
        s.fill(base, &values).unwrap();
        for i in [0u64, 1, 1023, 1024, 1499] {
            assert_eq!(s.read_u64(base + i * 8).unwrap(), i);
        }
    }

    #[test]
    fn fill_with_interleaving_falls_back_to_word_writes() {
        let mut config = ServerConfig::small();
        config.interleaving = true;
        let mut server = XGene2Server::new(config);
        let values: Vec<u64> = (0..64u64).collect();
        let mut s = server.session(0);
        let base = s.alloc(values.len() as u64 * 8).unwrap();
        s.fill(base, &values).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(s.read_u64(base + i as u64 * 8).unwrap(), v);
        }
        let run = s.finish();
        let mcus: std::collections::HashSet<u8> =
            run.iter().filter(|t| t.is_write).map(|t| t.mcu).collect();
        assert_eq!(mcus.len(), 4, "interleaved fill must stripe across MCUs");
    }

    #[test]
    fn fill_rejects_bad_addresses_like_write_u64() {
        let mut server = server();
        let mut s = server.session(0);
        let base = s.alloc(64).unwrap();
        assert_eq!(
            s.fill(base + 1, &[1, 2]).unwrap_err(),
            SessionError::Unaligned(base + 1)
        );
        assert!(matches!(
            s.fill(0x8, &[1]).unwrap_err(),
            SessionError::Unmapped(_)
        ));
        // A fill running past the allocation fails at the first unmapped
        // row, with the in-range prefix applied — like the per-word loop.
        let row_words = server.row_bytes() / 8;
        let mut s = server.session(0);
        let base = s.alloc(8).unwrap(); // rounds to one row
        let too_many = vec![7u64; row_words as usize + 1];
        assert!(matches!(
            s.fill(base, &too_many).unwrap_err(),
            SessionError::Unmapped(_)
        ));
        assert_eq!(s.read_u64(base).unwrap(), 7);
    }

    /// The per-word loop [`MemoryBus::copy_span`] stands for.
    fn copy_words(
        s: &mut Session<'_>,
        dst: VirtAddr,
        src: VirtAddr,
        count: u64,
    ) -> Result<(), SessionError> {
        for k in 0..count {
            let word = s.read_u64(src + k * 8)?;
            s.write_u64(dst + k * 8, word)?;
        }
        Ok(())
    }

    /// On a fresh server with a `max_trace`-access cap: fills a two-row
    /// source with distinct words, runs `copy(session, src, dst)` with a
    /// one-row destination after it, reads the destination area back, and
    /// returns the copy's result, the values read and the trace.
    fn copy_scenario(
        max_trace: usize,
        copy: impl Fn(&mut Session<'_>, VirtAddr, VirtAddr) -> Result<(), SessionError>,
    ) -> (Result<(), SessionError>, Vec<u64>, RecordedRun) {
        let mut config = ServerConfig::small();
        config.access.max_trace_len = max_trace;
        let mut server = XGene2Server::new(config);
        let row_words = server.row_bytes() / 8;
        let mut s = server.session(2);
        let src = s.alloc(2 * row_words * 8).unwrap();
        let dst = s.alloc(2 * row_words * 8).unwrap();
        let values: Vec<u64> = (0..2 * row_words).map(|k| k * 0x0101 + 1).collect();
        s.fill(src, &values).unwrap();
        let result = copy(&mut s, src, dst);
        let mut back = Vec::new();
        s.read_span(src, 4 * row_words, &mut back).unwrap();
        (result, back, s.finish())
    }

    #[test]
    fn copy_span_matches_word_at_a_time_copies() {
        let row_words = server().row_bytes() / 8;
        // Misaligned by different amounts on each side, so chunks end at
        // the source's and at the destination's row boundaries.
        let count = row_words + row_words / 2 + 7;
        let (src_skip, dst_skip) = (3 * 8, 5 * 8);
        let filled = 2 * row_words as usize;
        let pairs = 2 * count as usize;
        // Caps before, inside (between a read and its write, and between
        // pairs) and after the copy's accesses.
        for max_trace in [
            filled,
            filled + 1,
            filled + 2,
            filled + 7,
            filled + pairs - 1,
            filled + pairs,
            filled + pairs + 1,
            1 << 30,
        ] {
            let bulk = copy_scenario(max_trace, |s, src, dst| {
                s.copy_span(dst + dst_skip, src + src_skip, count)
            });
            let words = copy_scenario(max_trace, |s, src, dst| {
                copy_words(s, dst + dst_skip, src + src_skip, count)
            });
            assert!(bulk.0.is_ok(), "cap {max_trace}");
            assert_eq!(bulk, words, "cap {max_trace}");
            assert_eq!(
                bulk.2.truncated,
                max_trace < filled + pairs + 4 * row_words as usize
            );
        }
        // Overlapping spans (forward and backward) smear like the word
        // loop, which re-reads words it has already overwritten.
        for (from, to) in [(0, 8), (8 * 9, 0)] {
            let bulk = copy_scenario(1 << 30, |s, src, _| {
                s.copy_span(src + to, src + from, count)
            });
            let words = copy_scenario(1 << 30, |s, src, _| {
                copy_words(s, src + to, src + from, count)
            });
            assert_eq!(bulk, words, "overlap {from} -> {to}");
        }
        // A destination that runs out mid-copy fails at the same word,
        // after the same source read; an unmapped one before any write.
        let past_end = 2 * row_words * 8 - 16;
        let unmapped = 0xdead_beef_0000u64;
        for dst in [Some(past_end), None] {
            let target = |base: VirtAddr| dst.map_or(unmapped, |d| base + d);
            let bulk = copy_scenario(1 << 30, |s, src, to| s.copy_span(target(to), src, count));
            let words = copy_scenario(1 << 30, |s, src, to| copy_words(s, target(to), src, count));
            assert!(matches!(bulk.0, Err(SessionError::Unmapped(_))));
            assert_eq!(bulk, words, "failing destination {dst:?}");
        }
    }

    /// A fixed mix of accesses: a row fill, then single-word reads in
    /// reverse (one span each), then a span read.
    fn workload(s: &mut Session<'_>, words: u64) {
        let base = s.alloc(words * 8).unwrap();
        let values: Vec<u64> = (0..words).collect();
        s.fill(base, &values).unwrap();
        for i in (0..words).rev() {
            s.read_u64(base + i * 8).unwrap();
        }
        let mut out = Vec::new();
        s.read_span(base, words, &mut out).unwrap();
    }

    #[test]
    fn recycled_buffer_records_like_a_fresh_one() {
        let mut config = ServerConfig::small();
        config.access.max_trace_len = 48;
        let mut server = XGene2Server::new(config);
        // More distinct capped runs handed over by value than the profile
        // cache holds: the entries they evict become the spare buffer.
        for words in 40..45 {
            server.reset_memory();
            let mut s = server.session(1);
            workload(&mut s, words);
            let capped = s.finish();
            assert!(capped.truncated, "the accesses exceed the 48-access cap");
            server.evaluate_runs_total(capped, 1, 0).unwrap();
        }

        server.reset_memory();
        let mut s = server.session(2);
        assert!(
            s.trace.addrs.capacity() > 0 && s.trace.is_empty() && !s.trace.truncated,
            "the session records into the cleared spare buffer"
        );
        workload(&mut s, 10);
        let recycled = s.finish();

        let mut fresh_server = XGene2Server::new(config);
        let mut s = fresh_server.session(2);
        workload(&mut s, 10);
        let fresh = s.finish();

        assert_eq!(recycled, fresh);
        assert_eq!(
            recycled.spans().collect::<Vec<_>>(),
            fresh.spans().collect::<Vec<_>>()
        );
        assert_eq!(recycled.len(), 30);
        assert_eq!(recycled.len(), fresh.len());
        assert_eq!(recycled.target_mcu, 2);
        assert!(!recycled.truncated);
    }

    #[test]
    fn idle_run_is_empty() {
        let run = RecordedRun::idle(1);
        assert!(run.is_empty());
        assert_eq!(run.len(), 0);
    }

    #[test]
    fn packed_trace_roundtrips_ops() {
        // The SoA encoding (packed mcu/write byte + address vector) must
        // reproduce every TraceOp exactly, through push, get, and iter.
        let ops = [
            TraceOp {
                mcu: 0,
                local_addr: 0,
                is_write: false,
            },
            TraceOp {
                mcu: 3,
                local_addr: !7u64,
                is_write: true,
            },
            TraceOp {
                mcu: 127,
                local_addr: 0x8192,
                is_write: true,
            },
        ];
        let run = RecordedRun::from_trace(ops, 1);
        assert_eq!(run.len(), 3);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(run.get(i), *op);
        }
        let collected: Vec<TraceOp> = run.iter().collect();
        assert_eq!(collected, ops);
        let mut merged = RecordedRun::idle(1);
        merged.append_run(&run);
        merged.append_run(&run);
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.get(5), ops[2]);
    }

    mod layout {
        use super::*;
        use proptest::prelude::*;

        /// One logical stretch of a trace: `words` same-kind accesses from
        /// `addr`, stride 8, wrapping past `u64::MAX`.
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Stretch {
            mcu: u8,
            addr: u64,
            words: u64,
            is_write: bool,
            /// How the recording splits it into calls (see `record`).
            cuts: u64,
        }

        /// The model: the flat `TraceOp` sequence the stretches denote,
        /// expanded lazily so a stretch past any span-length cap stays cheap
        /// to hold.
        fn model(stretches: &[Stretch]) -> impl Iterator<Item = TraceOp> + '_ {
            stretches.iter().flat_map(|s| {
                (0..s.words).map(move |j| TraceOp {
                    mcu: s.mcu,
                    local_addr: s.addr.wrapping_add(j * 8),
                    is_write: s.is_write,
                })
            })
        }

        /// Records `stretches` with the batching `cuts` selects: each stretch
        /// is cut into pieces, and each piece goes in word by word through
        /// `push`, in one `push_span`, or through `append_run` of a run that
        /// holds it.
        fn record(stretches: &[Stretch], salt: u64) -> RecordedRun {
            let mut run = RecordedRun::idle(0);
            for (k, s) in stretches.iter().enumerate() {
                let mut cuts = s.cuts ^ salt.rotate_left(k as u32);
                let mut done = 0;
                while done < s.words {
                    let left = s.words - done;
                    let piece = if cuts & 3 == 0 {
                        left
                    } else {
                        (cuts >> 2) % left + 1
                    };
                    let addr = s.addr.wrapping_add(done * 8);
                    match (cuts >> 8) % 3 {
                        0 if piece <= 64 => {
                            for j in 0..piece {
                                run.push(TraceOp {
                                    mcu: s.mcu,
                                    local_addr: addr.wrapping_add(j * 8),
                                    is_write: s.is_write,
                                });
                            }
                        }
                        1 => {
                            let mut part = RecordedRun::idle(3);
                            part.push_span(s.mcu, addr, piece, s.is_write);
                            run.append_run(&part);
                        }
                        _ => run.push_span(s.mcu, addr, piece, s.is_write),
                    }
                    done += piece;
                    cuts = cuts.rotate_left(11) ^ 0x9e37_79b9_7f4a_7c15;
                }
            }
            run
        }

        /// Stretches whose addresses often continue the previous one (so calls
        /// merge), sometimes wrap past `u64::MAX`, and, one time in four, one
        /// stretch longer than `2^24` words.
        fn stretches() -> impl Strategy<Value = Vec<Stretch>> {
            let stretch = (
                0u8..4,
                any::<bool>(),
                0u32..4,
                any::<u64>(),
                1u64..40,
                any::<u64>(),
            );
            (
                proptest::collection::vec(stretch, 0..12),
                0u32..4,
                any::<usize>(),
            )
                .prop_map(|(raw, one_in_four, at)| {
                    let mut out: Vec<Stretch> = Vec::new();
                    for (mcu, is_write, kind, addr, words, cuts) in raw {
                        let next = out.last().map_or(0, |p| p.addr.wrapping_add(p.words * 8));
                        let addr = match kind {
                            0 | 1 => next,
                            2 => u64::MAX - 8 * (addr % 4),
                            _ => addr,
                        };
                        out.push(Stretch {
                            mcu,
                            addr,
                            words,
                            is_write,
                            cuts,
                        });
                    }
                    if one_in_four == 0 {
                        let k = at % (out.len() + 1);
                        let next = k
                            .checked_sub(1)
                            .map_or(0, |p| out[p].addr.wrapping_add(out[p].words * 8));
                        let words = (1 << 24) + (at as u64 % 3);
                        let stretch = Stretch {
                            mcu: (at % 4) as u8,
                            addr: next,
                            words,
                            is_write: true,
                            cuts: at as u64,
                        };
                        out.insert(k, stretch);
                    }
                    out
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// However the calls are batched, a run holds the model's trace:
            /// `iter()` yields it, `len()` counts it, and two runs are equal
            /// exactly when their traces are.
            #[test]
            fn trace_layout_matches_the_flat_model(
                a in stretches(),
                other in stretches(),
                salt in any::<u64>(),
            ) {
                let run = record(&a, 0);
                let rebatched = record(&a, salt);
                let total: u64 = a.iter().map(|s| s.words).sum();
                prop_assert_eq!(run.len() as u64, total);
                prop_assert!(run.iter().eq(model(&a)));
                prop_assert_eq!(&run, &rebatched);
                prop_assert_eq!(rebatched.len() as u64, total);
                // A different stretch list may or may not denote the same trace.
                let (b, same) = if salt % 2 == 0 {
                    let same = model(&a).eq(model(&other));
                    (other, same)
                } else {
                    // One more word at the end: never the same trace.
                    let mut b = a.clone();
                    let grew = b.last_mut().map(|s| s.words += 1).is_some();
                    (b, !grew)
                };
                prop_assert_eq!(run == record(&b, salt >> 1), same);
            }
        }
    }
}
