//! Identifiers for segments and tasks.
//!
//! In the paper a *task* is the unit of work that downloads one video
//! segment (Section III). Tasks and segments are therefore in one-to-one
//! correspondence, but the two identifier types are kept distinct so that an
//! index into the playback timeline cannot be confused with an index into
//! the scheduling timeline.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a video segment within a stream (0-based).
///
/// # Examples
///
/// ```
/// use ecas_types::ids::SegmentIndex;
/// let s = SegmentIndex::new(3);
/// assert_eq!(s.value(), 3);
/// assert_eq!(s.next().value(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct SegmentIndex(usize);

impl SegmentIndex {
    /// Constructs a segment index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub fn value(self) -> usize {
        self.0
    }

    /// Returns the index of the following segment.
    #[must_use]
    pub fn next(self) -> Self {
        Self(self.0 + 1)
    }

    /// Returns the index of the preceding segment, or `None` for the first.
    #[must_use]
    pub fn prev(self) -> Option<Self> {
        self.0.checked_sub(1).map(Self)
    }
}

impl fmt::Display for SegmentIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment#{}", self.0)
    }
}

impl From<usize> for SegmentIndex {
    fn from(index: usize) -> Self {
        Self(index)
    }
}

/// Identifier of a download task (0-based).
///
/// A task downloads exactly one segment; [`TaskId`] `i` corresponds to
/// [`SegmentIndex`] `i`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TaskId(usize);

impl TaskId {
    /// Constructs a task identifier.
    #[must_use]
    pub fn new(id: usize) -> Self {
        Self(id)
    }

    /// Returns the raw identifier.
    #[must_use]
    pub fn value(self) -> usize {
        self.0
    }

    /// The segment this task downloads.
    #[must_use]
    pub fn segment(self) -> SegmentIndex {
        SegmentIndex::new(self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

impl From<usize> for TaskId {
    fn from(id: usize) -> Self {
        Self(id)
    }
}

impl From<SegmentIndex> for TaskId {
    fn from(segment: SegmentIndex) -> Self {
        Self(segment.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_prev_next_roundtrip() {
        let s = SegmentIndex::new(5);
        assert_eq!(s.next().prev(), Some(s));
        assert_eq!(SegmentIndex::new(0).prev(), None);
    }

    #[test]
    fn task_maps_to_segment() {
        assert_eq!(TaskId::new(7).segment(), SegmentIndex::new(7));
        assert_eq!(TaskId::from(SegmentIndex::new(2)), TaskId::new(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SegmentIndex::new(1).to_string(), "segment#1");
        assert_eq!(TaskId::new(1).to_string(), "task#1");
    }
}
