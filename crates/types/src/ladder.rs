//! Bitrate ladders: the discrete sets of encodings a DASH server offers.
//!
//! The paper uses two ladders:
//!
//! * **Table II** — the six-level ladder used in the quality-assessment
//!   study (144p/0.1 Mbps up to 1080p/5.8 Mbps), see
//!   [`BitrateLadder::table_ii`];
//! * **Section V** — the fourteen-level ladder used in the trace-driven
//!   evaluation, see [`BitrateLadder::evaluation`].
//!
//! A [`BitrateLadder`] is an immutable, strictly-ascending list of
//! [`LadderEntry`] values indexed by [`LevelIndex`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::{Mbps, MegaBytes, Seconds};

/// A named video resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
// ecas-lint: allow(pub-surface, reason = "re-exported field type of LadderEntry")
pub enum Resolution {
    /// 256 x 144.
    R144p,
    /// 426 x 240.
    R240p,
    /// 640 x 360.
    R360p,
    /// 854 x 480.
    R480p,
    /// 1280 x 720.
    R720p,
    /// 1920 x 1080.
    R1080p,
}

impl Resolution {
    /// Vertical pixel count.
    #[must_use]
    pub fn height(self) -> u32 {
        match self {
            Resolution::R144p => 144,
            Resolution::R240p => 240,
            Resolution::R360p => 360,
            Resolution::R480p => 480,
            Resolution::R720p => 720,
            Resolution::R1080p => 1080,
        }
    }

    /// Horizontal pixel count (16:9 aspect, even values per encoder
    /// conventions).
    #[must_use]
    pub fn width(self) -> u32 {
        match self {
            Resolution::R144p => 256,
            Resolution::R240p => 426,
            Resolution::R360p => 640,
            Resolution::R480p => 854,
            Resolution::R720p => 1280,
            Resolution::R1080p => 1920,
        }
    }

    /// All named resolutions, ascending.
    #[must_use]
    pub fn all() -> [Resolution; 6] {
        [
            Resolution::R144p,
            Resolution::R240p,
            Resolution::R360p,
            Resolution::R480p,
            Resolution::R720p,
            Resolution::R1080p,
        ]
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}p", self.height())
    }
}

/// Index of a level within a [`BitrateLadder`] (0 = lowest bitrate).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct LevelIndex(usize);

impl LevelIndex {
    /// Constructs a level index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub fn value(self) -> usize {
        self.0
    }
}

impl fmt::Display for LevelIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "level#{}", self.0)
    }
}

impl From<usize> for LevelIndex {
    fn from(index: usize) -> Self {
        Self(index)
    }
}

/// One rung of a bitrate ladder: a bitrate and, when the bitrate matches a
/// standard YouTube encoding, its named resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LadderEntry {
    bitrate: Mbps,
    resolution: Option<Resolution>,
}

impl LadderEntry {
    /// Constructs an entry with an explicit resolution.
    #[must_use]
    pub fn with_resolution(bitrate: Mbps, resolution: Resolution) -> Self {
        Self {
            bitrate,
            resolution: Some(resolution),
        }
    }

    /// Constructs an entry without a named resolution.
    #[must_use]
    pub fn new(bitrate: Mbps) -> Self {
        Self {
            bitrate,
            resolution: None,
        }
    }

    /// The encoding bitrate.
    #[must_use]
    pub fn bitrate(&self) -> Mbps {
        self.bitrate
    }

    /// The named resolution, when the bitrate corresponds to one of the
    /// Table II encodings.
    #[must_use]
    pub fn resolution(&self) -> Option<Resolution> {
        self.resolution
    }
}

impl fmt::Display for LadderEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resolution {
            Some(r) => write!(f, "{} ({r})", self.bitrate),
            None => write!(f, "{}", self.bitrate),
        }
    }
}

/// Error returned when constructing an invalid [`BitrateLadder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildLadderError {
    /// The ladder had no entries.
    Empty,
    /// Bitrates were not strictly ascending.
    NotAscending {
        /// Index of the first offending entry.
        at: usize,
    },
    /// A bitrate was zero; segments must carry data.
    ZeroBitrate,
}

impl fmt::Display for BuildLadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildLadderError::Empty => write!(f, "bitrate ladder was empty"),
            BuildLadderError::NotAscending { at } => {
                write!(f, "bitrate ladder not strictly ascending at index {at}")
            }
            BuildLadderError::ZeroBitrate => write!(f, "bitrate ladder contained a zero bitrate"),
        }
    }
}

impl std::error::Error for BuildLadderError {}

/// The bitrate ladder from Table II of the paper (Mbps, with resolutions).
const TABLE_II: [(f64, Resolution); 6] = [
    (0.1, Resolution::R144p),
    (0.375, Resolution::R240p),
    (0.75, Resolution::R360p),
    (1.5, Resolution::R480p),
    (3.0, Resolution::R720p),
    (5.8, Resolution::R1080p),
];

/// The fourteen-level evaluation ladder from Section V of the paper (Mbps).
const EVALUATION: [f64; 14] = [
    0.1, 0.2, 0.24, 0.375, 0.55, 0.75, 1.0, 1.5, 2.3, 2.56, 3.0, 3.6, 4.3, 5.8,
];

/// An immutable, strictly-ascending set of available bitrates.
///
/// # Examples
///
/// ```
/// use ecas_types::ladder::BitrateLadder;
/// use ecas_types::units::Mbps;
///
/// let ladder = BitrateLadder::table_ii();
/// assert_eq!(ladder.len(), 6);
/// let level = ladder.highest_at_most(Mbps::new(2.0)).unwrap();
/// assert_eq!(ladder.bitrate(level), Mbps::new(1.5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BitrateLadder {
    entries: Vec<LadderEntry>,
}

impl BitrateLadder {
    /// Builds a ladder from entries, validating strict ascent.
    ///
    /// # Errors
    ///
    /// Returns [`BuildLadderError`] if `entries` is empty, contains a zero
    /// bitrate, or is not strictly ascending.
    pub fn from_entries(entries: Vec<LadderEntry>) -> Result<Self, BuildLadderError> {
        if entries.is_empty() {
            return Err(BuildLadderError::Empty);
        }
        for (i, e) in entries.iter().enumerate() {
            if e.bitrate.is_zero() {
                return Err(BuildLadderError::ZeroBitrate);
            }
            if i > 0 && entries[i - 1].bitrate >= e.bitrate {
                return Err(BuildLadderError::NotAscending { at: i });
            }
        }
        Ok(Self { entries })
    }

    /// Builds a ladder from bare bitrates, attaching named resolutions where
    /// the bitrate exactly matches a Table II encoding.
    ///
    /// # Errors
    ///
    /// Returns [`BuildLadderError`] under the same conditions as
    /// [`Self::from_entries`].
    pub fn from_bitrates(bitrates: Vec<Mbps>) -> Result<Self, BuildLadderError> {
        let entries = bitrates
            .into_iter()
            .map(|b| {
                let named = TABLE_II
                    .iter()
                    .find(|(mbps, _)| (b.value() - mbps).abs() < 1e-12)
                    .map(|&(_, r)| r);
                match named {
                    Some(r) => LadderEntry::with_resolution(b, r),
                    None => LadderEntry::new(b),
                }
            })
            .collect();
        Self::from_entries(entries)
    }

    /// The six-level ladder of Table II (144p/0.1 Mbps … 1080p/5.8 Mbps).
    #[must_use]
    pub fn table_ii() -> Self {
        let entries = TABLE_II
            .iter()
            .map(|&(mbps, r)| LadderEntry::with_resolution(Mbps::new(mbps), r))
            .collect();
        // ecas-lint: allow(panic-safety, reason = "the static Table II data is well-formed; exercised by unit tests")
        Self::from_entries(entries).expect("static Table II ladder is valid")
    }

    /// The fourteen-level evaluation ladder of Section V.
    #[must_use]
    pub fn evaluation() -> Self {
        Self::from_bitrates(EVALUATION.iter().map(|&m| Mbps::new(m)).collect())
            // ecas-lint: allow(panic-safety, reason = "the static evaluation ladder is well-formed; exercised by unit tests")
            .expect("static evaluation ladder is valid")
    }

    /// Number of levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ladder has no levels (never true for a constructed
    /// ladder, provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the entry at `level`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, level: LevelIndex) -> Option<&LadderEntry> {
        self.entries.get(level.value())
    }

    /// Returns the bitrate at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn bitrate(&self, level: LevelIndex) -> Mbps {
        self.entries[level.value()].bitrate()
    }

    /// Iterates over the entries, lowest bitrate first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &LadderEntry> + ExactSizeIterator {
        self.entries.iter()
    }

    /// Iterates over all level indices, lowest first.
    pub fn levels(&self) -> impl DoubleEndedIterator<Item = LevelIndex> + ExactSizeIterator {
        (0..self.entries.len()).map(LevelIndex::new)
    }

    /// The lowest-bitrate entry.
    #[must_use]
    pub fn lowest(&self) -> &LadderEntry {
        // ecas-lint: allow(panic-safety, reason = "ladder constructors reject empty ladders")
        self.entries.first().expect("ladder is never empty")
    }

    /// The highest-bitrate entry.
    #[must_use]
    pub fn highest(&self) -> &LadderEntry {
        // ecas-lint: allow(panic-safety, reason = "ladder constructors reject empty ladders")
        self.entries.last().expect("ladder is never empty")
    }

    /// The index of the highest level.
    #[must_use]
    pub fn highest_level(&self) -> LevelIndex {
        LevelIndex::new(self.entries.len() - 1)
    }

    /// The index of the lowest level.
    #[must_use]
    pub fn lowest_level(&self) -> LevelIndex {
        LevelIndex::new(0)
    }

    /// Finds the level whose bitrate equals `bitrate` (within 1e-12 Mbps).
    #[must_use]
    pub fn index_of(&self, bitrate: Mbps) -> Option<LevelIndex> {
        self.entries
            .iter()
            .position(|e| (e.bitrate().value() - bitrate.value()).abs() < 1e-12)
            .map(LevelIndex::new)
    }

    /// The highest level whose bitrate does not exceed `budget`, or `None`
    /// if even the lowest level exceeds it.
    #[must_use]
    pub fn highest_at_most(&self, budget: Mbps) -> Option<LevelIndex> {
        self.entries
            .iter()
            .rposition(|e| e.bitrate() <= budget)
            .map(LevelIndex::new)
    }

    /// The highest level whose bitrate does not exceed `budget`, falling
    /// back to the lowest level when nothing fits.
    #[must_use]
    pub fn highest_at_most_or_lowest(&self, budget: Mbps) -> LevelIndex {
        self.highest_at_most(budget)
            .unwrap_or_else(|| self.lowest_level())
    }

    /// One level up from `level`, clamped to the top of the ladder.
    #[must_use]
    pub fn up(&self, level: LevelIndex) -> LevelIndex {
        LevelIndex::new((level.value() + 1).min(self.entries.len() - 1))
    }

    /// One level down from `level`, clamped to the bottom of the ladder.
    #[must_use]
    pub fn down(&self, level: LevelIndex) -> LevelIndex {
        LevelIndex::new(level.value().saturating_sub(1))
    }

    /// Size of one segment of `duration` encoded at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn segment_size(&self, level: LevelIndex, duration: Seconds) -> MegaBytes {
        self.bitrate(level).data_over(duration)
    }
}

impl fmt::Display for BitrateLadder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ladder[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_matches_paper() {
        let l = BitrateLadder::table_ii();
        assert_eq!(l.len(), 6);
        assert_eq!(l.lowest().bitrate(), Mbps::new(0.1));
        assert_eq!(l.lowest().resolution(), Some(Resolution::R144p));
        assert_eq!(l.highest().bitrate(), Mbps::new(5.8));
        assert_eq!(l.highest().resolution(), Some(Resolution::R1080p));
    }

    #[test]
    fn evaluation_ladder_has_fourteen_levels_and_named_subset() {
        let l = BitrateLadder::evaluation();
        assert_eq!(l.len(), 14);
        // The Table II bitrates keep their resolutions.
        let i480 = l.index_of(Mbps::new(1.5)).unwrap();
        assert_eq!(l.get(i480).unwrap().resolution(), Some(Resolution::R480p));
        // Intermediate bitrates have no named resolution.
        let i = l.index_of(Mbps::new(2.3)).unwrap();
        assert_eq!(l.get(i).unwrap().resolution(), None);
    }

    #[test]
    fn rejects_invalid_ladders() {
        assert_eq!(
            BitrateLadder::from_bitrates(vec![]),
            Err(BuildLadderError::Empty)
        );
        assert_eq!(
            BitrateLadder::from_bitrates(vec![Mbps::new(1.0), Mbps::new(1.0)]),
            Err(BuildLadderError::NotAscending { at: 1 })
        );
        assert_eq!(
            BitrateLadder::from_bitrates(vec![Mbps::new(2.0), Mbps::new(1.0)]),
            Err(BuildLadderError::NotAscending { at: 1 })
        );
        assert_eq!(
            BitrateLadder::from_bitrates(vec![Mbps::zero()]),
            Err(BuildLadderError::ZeroBitrate)
        );
    }

    #[test]
    fn highest_at_most_selection() {
        let l = BitrateLadder::table_ii();
        assert_eq!(
            l.bitrate(l.highest_at_most(Mbps::new(2.0)).unwrap()),
            Mbps::new(1.5)
        );
        assert_eq!(
            l.bitrate(l.highest_at_most(Mbps::new(100.0)).unwrap()),
            Mbps::new(5.8)
        );
        assert_eq!(l.highest_at_most(Mbps::new(0.05)), None);
        assert_eq!(
            l.bitrate(l.highest_at_most_or_lowest(Mbps::new(0.05))),
            Mbps::new(0.1)
        );
    }

    #[test]
    fn up_down_clamp_at_boundaries() {
        let l = BitrateLadder::table_ii();
        assert_eq!(l.down(l.lowest_level()), l.lowest_level());
        assert_eq!(l.up(l.highest_level()), l.highest_level());
        assert_eq!(l.up(LevelIndex::new(0)), LevelIndex::new(1));
        assert_eq!(l.down(LevelIndex::new(3)), LevelIndex::new(2));
    }

    #[test]
    fn segment_size_matches_rate_times_time() {
        let l = BitrateLadder::evaluation();
        let lvl = l.index_of(Mbps::new(5.8)).unwrap();
        let sz = l.segment_size(lvl, Seconds::new(2.0));
        assert!((sz.value() - 1.45).abs() < 1e-12);
    }

    #[test]
    fn resolutions_are_ordered_and_displayed() {
        let all = Resolution::all();
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].height() < w[1].height());
            assert!(w[0].width() < w[1].width());
        }
        assert_eq!(Resolution::R1080p.to_string(), "1080p");
    }

    #[test]
    fn levels_iterator_covers_all() {
        let l = BitrateLadder::table_ii();
        let levels: Vec<_> = l.levels().collect();
        assert_eq!(levels.len(), 6);
        assert_eq!(levels[0], l.lowest_level());
        assert_eq!(*levels.last().unwrap(), l.highest_level());
    }
}
