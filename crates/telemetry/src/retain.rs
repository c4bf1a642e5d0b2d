//! Bounded retention with amortized O(1) eviction.
//!
//! Evicting the oldest entry on every push (`Vec::remove(0)`) shifts the
//! whole buffer, so a full 4096-entry span or sample log paid O(cap) per
//! retired transaction. [`Retained`] instead lets its buffer run `slack =
//! max(cap / 16, 1)` entries past the bound and then drops the oldest
//! `slack` in one `drain`: each entry is moved O(1) times on average.
//! Entries older than the newest `cap` are hidden from
//! [`Retained::as_slice`] and already count as dropped, so every
//! observable result equals that of the shifting buffer.

use serde::{Deserialize, Serialize};

/// The newest `cap` pushed entries, oldest first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Retained<T> {
    buf: Vec<T>,
    cap: usize,
    /// Entries drained from the front of `buf`.
    removed: u64,
}

impl<T> Retained<T> {
    /// An empty buffer retaining at most `cap` entries (minimum 1).
    pub(crate) fn new(cap: usize) -> Self {
        Retained {
            buf: Vec::new(),
            cap: cap.max(1),
            removed: 0,
        }
    }

    /// Appends `item`, evicting the oldest entry once `cap` are retained.
    pub(crate) fn push(&mut self, item: T) {
        let slack = (self.cap / 16).max(1);
        if self.buf.len() >= self.cap.saturating_add(slack) {
            self.buf.drain(..slack);
            self.removed += slack as u64;
        }
        self.buf.push(item);
    }

    /// Entries pushed but no longer retained: those older than the
    /// newest `cap` still in `buf`.
    fn hidden(&self) -> usize {
        self.buf.len().saturating_sub(self.cap)
    }

    /// The retained entries, oldest first.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.buf[self.hidden()..]
    }

    /// Entries evicted because the bound was hit.
    pub(crate) fn dropped(&self) -> u64 {
        self.removed + self.hidden() as u64
    }
}
