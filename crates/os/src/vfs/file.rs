//! File descriptors and per-process fd tables.

use crate::vfs::inode::{InodeId, InodeKind};
use crate::vfs::pipe::PipeBuffer;
use std::collections::BTreeMap;
use std::fmt;

/// A file descriptor (index into the owning process's fd table).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Open-mode flags for `open`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpenMode {
    /// Read only.
    Read,
    /// Write only.
    Write,
    /// Read and write.
    ReadWrite,
}

impl OpenMode {
    /// May this mode read?
    #[must_use]
    pub fn readable(self) -> bool {
        matches!(self, OpenMode::Read | OpenMode::ReadWrite)
    }

    /// May this mode write?
    #[must_use]
    pub fn writable(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::ReadWrite)
    }
}

/// Which end of a pipe an fd refers to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PipeEnd {
    /// The read end.
    Read,
    /// The write end.
    Write,
}

/// Which end of a socket pair an fd refers to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SocketEnd {
    /// The first endpoint.
    A,
    /// The second endpoint.
    B,
}

/// Kernel-side open-file description.
#[derive(Clone, Debug)]
pub(crate) struct OpenFile {
    pub inode: InodeId,
    pub mode: OpenMode,
    pub offset: u64,
    pub pipe_end: Option<PipeEnd>,
    pub socket_end: Option<SocketEnd>,
}

impl OpenFile {
    /// The queue that a read (`inbound`) or a write through this pipe or
    /// socket end uses; `None` for other fds, or for a pipe end used
    /// against its direction.
    pub(crate) fn queue(&self, inbound: bool) -> Option<Queue> {
        match (self.pipe_end, self.socket_end) {
            (Some(end), _) => ((end == PipeEnd::Read) == inbound).then_some(Queue::Pipe),
            (None, Some(end)) => {
                Some(if (end == SocketEnd::A) == inbound { Queue::Ba } else { Queue::Ab })
            }
            (None, None) => None,
        }
    }
}

/// One message queue of a channel inode: a pipe's buffer, or one
/// direction of a socket pair.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Queue {
    Pipe,
    /// Written by end A, read by end B.
    Ab,
    /// Written by end B, read by end A.
    Ba,
}

impl Queue {
    /// This queue's buffer in a channel inode's `kind`; `None` if the
    /// inode is not a channel of the matching kind.
    pub(crate) fn of(self, kind: &mut InodeKind) -> Option<&mut PipeBuffer> {
        match (self, kind) {
            (Queue::Pipe, InodeKind::Pipe { buffer }) => Some(buffer),
            (Queue::Ab, InodeKind::Socket { ab, .. }) => Some(ab),
            (Queue::Ba, InodeKind::Socket { ba, .. }) => Some(ba),
            _ => None,
        }
    }
}

/// A process's table of open files.
#[derive(Debug, Default)]
pub(crate) struct FdTable {
    files: BTreeMap<Fd, OpenFile>,
    next: u32,
}

impl FdTable {
    pub(crate) fn insert(&mut self, file: OpenFile) -> Fd {
        let fd = Fd(self.next);
        self.next += 1;
        self.files.insert(fd, file);
        fd
    }

    pub(crate) fn get(&self, fd: Fd) -> Option<&OpenFile> {
        self.files.get(&fd)
    }

    pub(crate) fn get_mut(&mut self, fd: Fd) -> Option<&mut OpenFile> {
        self.files.get_mut(&fd)
    }

    pub(crate) fn remove(&mut self, fd: Fd) -> Option<OpenFile> {
        self.files.remove(&fd)
    }

    /// Undoes the newest install of `fd` (`removed == None`: drop it and
    /// rewind the fd counter) or the removal of `removed`.
    pub(crate) fn restore(&mut self, fd: Fd, removed: Option<OpenFile>) {
        match removed {
            Some(file) => {
                self.files.insert(fd, file);
            }
            None => {
                self.files.remove(&fd);
                self.next = fd.0;
            }
        }
    }

    /// Duplicate for fork(): the child gets copies of every open file
    /// description (offsets are copied, not shared — a simplification).
    pub(crate) fn clone_for_fork(&self) -> FdTable {
        FdTable { files: self.files.clone(), next: self.next }
    }

    /// The pipe ends open in this table, for reader/writer refcounting.
    pub(crate) fn pipe_ends(&self) -> Vec<(InodeId, PipeEnd)> {
        self.files.values().filter_map(|f| f.pipe_end.map(|e| (f.inode, e))).collect()
    }

    /// Number of open descriptors (what the per-process fd quota counts).
    pub(crate) fn len(&self) -> usize {
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_mode_predicates() {
        assert!(OpenMode::Read.readable() && !OpenMode::Read.writable());
        assert!(!OpenMode::Write.readable() && OpenMode::Write.writable());
        assert!(OpenMode::ReadWrite.readable() && OpenMode::ReadWrite.writable());
    }

    #[test]
    fn fd_table_alloc_and_remove() {
        let mut t = FdTable::default();
        let f0 = t.insert(OpenFile {
            inode: InodeId(1),
            mode: OpenMode::Read,
            offset: 0,
            pipe_end: None,
            socket_end: None,
        });
        let f1 = t.insert(OpenFile {
            inode: InodeId(2),
            mode: OpenMode::Write,
            offset: 0,
            pipe_end: None,
            socket_end: None,
        });
        assert_ne!(f0, f1);
        assert_eq!(t.len(), 2);
        assert!(t.remove(f0).is_some());
        assert!(t.get(f0).is_none());
        assert!(t.get(f1).is_some());
        // Fds are not reused.
        let f2 = t.insert(OpenFile {
            inode: InodeId(3),
            mode: OpenMode::Read,
            offset: 0,
            pipe_end: None,
            socket_end: None,
        });
        assert_ne!(f2, f0);
    }

    #[test]
    fn fork_copies_table() {
        let mut t = FdTable::default();
        let fd = t.insert(OpenFile {
            inode: InodeId(1),
            mode: OpenMode::ReadWrite,
            offset: 5,
            pipe_end: None,
            socket_end: None,
        });
        let copy = t.clone_for_fork();
        assert_eq!(copy.get(fd).unwrap().offset, 5);
        assert_eq!(copy.len(), 1);
    }
}
