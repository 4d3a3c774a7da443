//! DIFC pipes (§5.2, "Pipes").
//!
//! Laminar mediates IPC over pipes by labeling the inode associated with
//! the pipe's message buffer. Message delivery is **unreliable**: an
//! error code due to an incorrect label or a full buffer can leak
//! information, so undeliverable messages are *silently dropped*. Reads
//! are **nonblocking**, and readers cannot rely on an explicit EOF when
//! the writer may change labels — a reader simply sees "no data".
//!
//! The buffer also carries capability messages for the
//! `write_capability` syscall (Fig. 3): capability passing is mediated by
//! the kernel over the same labeled channel.
//!
//! Every mutator reports the inverse of its change to a `log` callback
//! (a [`QueueUndo`]); the syscall transaction journals it, so undoing a
//! read or write costs what the call moved, not the queue's depth.

use crate::vfs::file::PipeEnd;
use laminar_difc::Capability;
use std::collections::VecDeque;

/// Default capacity of a pipe buffer in bytes (64 KiB, like Linux).
pub const PIPE_CAPACITY: usize = 64 * 1024;

/// Maximum queued messages (byte chunks + capabilities) per pipe. The
/// byte budget alone does not bound the queue: capabilities carry no
/// bytes, and a stream of tiny writes costs a `PipeMsg` allocation each,
/// so the message count needs its own ceiling.
pub const PIPE_MSG_LIMIT: usize = 4096;

/// One in-flight message: either bytes or a kernel-mediated capability.
#[derive(Clone, Debug)]
pub(crate) enum PipeMsg {
    Bytes(Vec<u8>),
    Cap(Capability),
}

impl PipeMsg {
    /// Bytes the message counts against the byte budget.
    pub(crate) fn len(&self) -> usize {
        match self {
            PipeMsg::Bytes(b) => b.len(),
            PipeMsg::Cap(_) => 0,
        }
    }
}

/// The inverse of one queue change (see [`PipeBuffer::undo`]).
#[derive(Debug)]
pub(crate) enum QueueUndo {
    /// A message was queued at the back: drop it.
    Push,
    /// A whole message was dequeued (moved here): requeue it at the head.
    Pop(PipeMsg),
    /// A partial read took these bytes off the head message: put them
    /// back in front of it.
    Split(Vec<u8>),
    /// A reader or writer count had this value.
    Refs(PipeEnd, u32),
}

/// The kernel-side message buffer of a pipe inode.
#[derive(Clone, Debug)]
pub(crate) struct PipeBuffer {
    msgs: VecDeque<PipeMsg>,
    bytes_queued: usize,
    capacity: usize,
    readers: u32,
    writers: u32,
}

impl PipeBuffer {
    pub(crate) fn new(capacity: usize) -> Self {
        PipeBuffer {
            msgs: VecDeque::new(),
            bytes_queued: 0,
            capacity,
            readers: 1,
            writers: 1,
        }
    }

    /// Attempts to enqueue bytes. Returns `true` if the message was
    /// queued, `false` if it was dropped because the buffer is full —
    /// callers must NOT surface the distinction to the writer (silent
    /// drop semantics).
    ///
    /// A zero-byte write is a successful no-op: it conveys nothing, so
    /// queueing an empty message would only let a writer grow the queue
    /// without ever touching the byte budget.
    pub(crate) fn push_bytes(
        &mut self,
        data: &[u8],
        log: &mut dyn FnMut(QueueUndo),
    ) -> bool {
        if data.is_empty() {
            return true;
        }
        if self.bytes_queued + data.len() > self.capacity
            || self.msgs.len() >= PIPE_MSG_LIMIT
        {
            return false;
        }
        self.bytes_queued += data.len();
        self.msgs.push_back(PipeMsg::Bytes(data.to_vec()));
        log(QueueUndo::Push);
        true
    }

    /// Enqueues a capability message (capabilities are small; they bypass
    /// the byte budget but still drop once [`PIPE_MSG_LIMIT`] messages
    /// are queued).
    pub(crate) fn push_cap(
        &mut self,
        cap: Capability,
        log: &mut dyn FnMut(QueueUndo),
    ) -> bool {
        if self.msgs.len() >= PIPE_MSG_LIMIT {
            return false;
        }
        self.msgs.push_back(PipeMsg::Cap(cap));
        log(QueueUndo::Push);
        true
    }

    /// Nonblocking read of at most `max` bytes. Skips over capability
    /// messages is not allowed — byte reads only consume byte messages at
    /// the head; a capability at the head yields "no data" until it is
    /// claimed with [`Self::pop_cap`]. Whole messages read are moved into
    /// the log; a split head logs only the bytes taken from it.
    pub(crate) fn pop_bytes(
        &mut self,
        max: usize,
        log: &mut dyn FnMut(QueueUndo),
    ) -> Vec<u8> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(PipeMsg::Bytes(b)) = self.msgs.front_mut() else { break };
            let take = (max - out.len()).min(b.len());
            out.extend_from_slice(&b[..take]);
            self.bytes_queued -= take;
            if take < b.len() {
                log(QueueUndo::Split(b.drain(..take).collect()));
            } else if let Some(msg) = self.msgs.pop_front() {
                log(QueueUndo::Pop(msg));
            }
        }
        out
    }

    /// Nonblocking receive of a capability message at the head of the
    /// queue, if any.
    pub(crate) fn pop_cap(
        &mut self,
        log: &mut dyn FnMut(QueueUndo),
    ) -> Option<Capability> {
        let Some(&PipeMsg::Cap(cap)) = self.msgs.front() else { return None };
        log(QueueUndo::Pop(self.msgs.pop_front()?));
        Some(cap)
    }

    /// Adds (`fork`) or drops (`close`, `exit`) one reference to a pipe
    /// end; the count saturates at zero.
    pub(crate) fn count_ref(
        &mut self,
        end: PipeEnd,
        add: bool,
        log: &mut dyn FnMut(QueueUndo),
    ) {
        let refs = self.refs_mut(end);
        log(QueueUndo::Refs(end, *refs));
        *refs = if add { refs.saturating_add(1) } else { refs.saturating_sub(1) };
    }

    fn refs_mut(&mut self, end: PipeEnd) -> &mut u32 {
        match end {
            PipeEnd::Read => &mut self.readers,
            PipeEnd::Write => &mut self.writers,
        }
    }

    /// Applies the inverse of one logged change. Records must be undone
    /// newest first, so the queue is as the change left it.
    pub(crate) fn undo(&mut self, undo: QueueUndo) {
        match undo {
            QueueUndo::Push => {
                if let Some(msg) = self.msgs.pop_back() {
                    self.bytes_queued -= msg.len();
                }
            }
            QueueUndo::Pop(msg) => {
                self.bytes_queued += msg.len();
                self.msgs.push_front(msg);
            }
            QueueUndo::Split(taken) => {
                if let Some(PipeMsg::Bytes(b)) = self.msgs.front_mut() {
                    self.bytes_queued += taken.len();
                    b.splice(..0, taken);
                }
            }
            QueueUndo::Refs(end, n) => *self.refs_mut(end) = n,
        }
    }

    /// Bytes currently queued.
    pub(crate) fn queued(&self) -> usize {
        self.bytes_queued
    }

    /// Messages currently queued (byte chunks and capabilities).
    pub(crate) fn msg_count(&self) -> usize {
        self.msgs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::Tag;

    fn nolog(_: QueueUndo) {}

    #[test]
    fn bytes_round_trip() {
        let mut p = PipeBuffer::new(16);
        assert!(p.push_bytes(b"hello", &mut nolog));
        assert_eq!(p.pop_bytes(3, &mut nolog), b"hel");
        assert_eq!(p.pop_bytes(10, &mut nolog), b"lo");
        assert_eq!(p.pop_bytes(10, &mut nolog), b"");
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn full_buffer_drops_silently() {
        let mut p = PipeBuffer::new(4);
        assert!(p.push_bytes(b"abcd", &mut nolog));
        // Over capacity: dropped, not partially written.
        assert!(!p.push_bytes(b"e", &mut nolog));
        assert_eq!(p.pop_bytes(16, &mut nolog), b"abcd");
    }

    #[test]
    fn caps_are_ordered_with_bytes() {
        let mut p = PipeBuffer::new(64);
        let c = Capability::plus(Tag::from_raw(1));
        assert!(p.push_bytes(b"x", &mut nolog));
        assert!(p.push_cap(c, &mut nolog));
        // Byte read stops at the capability boundary only after draining
        // preceding bytes.
        assert_eq!(p.pop_bytes(8, &mut nolog), b"x");
        assert_eq!(p.pop_bytes(8, &mut nolog), b"");
        assert_eq!(p.pop_cap(&mut nolog), Some(c));
        assert_eq!(p.pop_cap(&mut nolog), None);
    }

    #[test]
    fn cap_at_head_blocks_byte_reads() {
        let mut p = PipeBuffer::new(64);
        let c = Capability::minus(Tag::from_raw(2));
        assert!(p.push_cap(c, &mut nolog));
        assert!(p.push_bytes(b"later", &mut nolog));
        assert_eq!(p.pop_bytes(8, &mut nolog), b"");
        assert_eq!(p.pop_cap(&mut nolog), Some(c));
        assert_eq!(p.pop_bytes(8, &mut nolog), b"later");
    }

    /// Regression: zero-byte writes used to enqueue a fresh empty
    /// `PipeMsg::Bytes` each, growing `msgs` without bound (the byte
    /// budget never filled). They are now a no-op success.
    #[test]
    fn zero_byte_write_is_a_noop_success() {
        let mut p = PipeBuffer::new(4);
        for _ in 0..10_000 {
            assert!(p.push_bytes(b"", &mut nolog), "zero-byte write must report success");
        }
        assert_eq!(p.msg_count(), 0, "zero-byte writes must not queue messages");
        assert_eq!(p.queued(), 0);
        // Even on a full buffer a zero-byte write succeeds (no drop).
        assert!(p.push_bytes(b"abcd", &mut nolog));
        assert!(p.push_bytes(b"", &mut nolog));
        assert_eq!(p.pop_bytes(8, &mut nolog), b"abcd");
    }

    /// Regression: the message-count ceiling applies to byte messages
    /// too — tiny writes can no longer queue unboundedly many chunks
    /// under a large byte budget.
    #[test]
    fn byte_messages_respect_the_message_limit() {
        let mut p = PipeBuffer::new(PIPE_CAPACITY);
        for _ in 0..PIPE_MSG_LIMIT {
            assert!(p.push_bytes(b"x", &mut nolog));
        }
        assert!(!p.push_bytes(b"x", &mut nolog), "message {PIPE_MSG_LIMIT} must drop");
        assert_eq!(p.msg_count(), PIPE_MSG_LIMIT);
    }

    /// Regression: `push_cap` used `> 4096`, admitting 4097 messages.
    /// The boundary is now `>=` against the named constant.
    #[test]
    fn cap_queue_boundary_is_exact() {
        let mut p = PipeBuffer::new(8);
        let c = Capability::plus(Tag::from_raw(3));
        for i in 0..PIPE_MSG_LIMIT {
            assert!(p.push_cap(c, &mut nolog), "cap {i} should fit");
        }
        assert_eq!(p.msg_count(), PIPE_MSG_LIMIT);
        assert!(
            !p.push_cap(c, &mut nolog),
            "cap {PIPE_MSG_LIMIT} must drop, not be admitted"
        );
        assert_eq!(p.msg_count(), PIPE_MSG_LIMIT);
    }

    #[test]
    fn reader_writer_counts() {
        let mut p = PipeBuffer::new(8);
        p.count_ref(PipeEnd::Read, true, &mut nolog);
        for _ in 0..3 {
            p.count_ref(PipeEnd::Read, false, &mut nolog);
        }
        assert_eq!(p.readers, 0);
        p.count_ref(PipeEnd::Write, false, &mut nolog);
        assert_eq!(p.writers, 0);
    }

    /// Undoing the logged records newest first restores the queue
    /// exactly, including a read that split the head message.
    #[test]
    fn undo_restores_every_change_exactly() {
        let c = Capability::plus(Tag::from_raw(4));
        let mut p = PipeBuffer::new(64);
        assert!(p.push_bytes(b"abc", &mut nolog));
        assert!(p.push_bytes(b"defg", &mut nolog));
        let mut log = Vec::new();
        assert!(p.push_cap(c, &mut |u| log.push(u)));
        assert_eq!(p.pop_bytes(5, &mut |u| log.push(u)), b"abcde");
        p.count_ref(PipeEnd::Write, true, &mut |u| log.push(u));
        assert_eq!(log.len(), 4, "push, pop, split, refs");
        while let Some(u) = log.pop() {
            p.undo(u);
        }
        // The logged cap push is undone too.
        assert_eq!((p.queued(), p.msg_count(), p.writers), (7, 2, 1));
        assert_eq!(p.pop_bytes(64, &mut nolog), b"abcdefg");
        assert_eq!(p.pop_cap(&mut nolog), None);
    }
}
