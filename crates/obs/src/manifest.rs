//! Reproducible run manifests.
//!
//! A [`RunManifest`] records everything needed to replay an experiment
//! bit-for-bit: the seeds and names of every trace, the bitrate ladder,
//! a content hash of the player configuration, the approaches compared and
//! the crate version that produced the run. Serialized next to every
//! experiment's output, it turns "which run produced this figure?" into a
//! file diff.
//!
//! Hashing uses FNV-1a 64 over the manifest's compact JSON form — stable
//! across runs and platforms because the serialization order is the struct
//! field order and floats round-trip exactly. [`stable_hash`] streams that
//! JSON from the typed value straight into an [`FnvHasher`]
//! (`Serialize::write_json` into its `fmt::Write` side), so hashing a
//! config or a cell key allocates nothing; the bytes hashed are the ones
//! `serde_json::to_string` would return.
//!
//! The same hasher is an `io::Write` sink for binary encoders: a session
//! trace's content hash is FNV-1a over its `.bin` bytes, streamed by the
//! trace encoder into the hasher (`SessionTrace::content_hash` in
//! `ecas-trace`). One hash function, two sinks: JSON for keys, configs and
//! manifests, the binary layout for traces.

use std::{fmt, io};

use serde::{Deserialize, Serialize};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64 hash that folds in every byte written to it.
///
/// It is a sink on both sides of the standard library: `fmt::Write`
/// (text, how [`stable_hash`] streams compact JSON) and `io::Write`
/// (bytes, how a binary encoder streams its layout). Neither side ever
/// fails, and nothing written is buffered or kept.
///
/// ```
/// use std::io::Write;
///
/// let mut hasher = ecas_obs::FnvHasher::new();
/// hasher.write_all(b"foo").unwrap();
/// hasher.write_all(b"bar").unwrap();
/// assert_eq!(hasher.finish(), ecas_obs::fnv1a_64(b"foobar"));
/// ```
#[derive(Debug)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A hasher at the FNV offset basis: the hash of no bytes.
    #[must_use]
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// The hash of every byte written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }

    fn fold(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        });
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for FnvHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.fold(s.as_bytes());
        Ok(())
    }
}

impl io::Write for FnvHasher {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.fold(buf);
        Ok(buf.len())
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.fold(buf);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// FNV-1a 64-bit hash.
///
/// ```
/// // Stable, documented constants: empty input hashes to the offset basis.
/// assert_eq!(ecas_obs::fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hasher = FnvHasher::new();
    hasher.fold(bytes);
    hasher.finish()
}

/// Content hash of any serializable value: FNV-1a 64 over its compact JSON
/// form. The JSON is streamed straight into an [`FnvHasher`], so no value
/// tree and no string is built; the bytes hashed are exactly
/// `serde_json::to_string(value)`.
#[must_use]
pub fn stable_hash<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut hasher = FnvHasher::new();
    // The hasher never fails and serialization only forwards sink errors.
    let _ = value.write_json(&mut hasher);
    hasher.finish()
}

/// One trace in a run: its name and the seed regenerating it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRef {
    /// Trace name (e.g. `trace1`).
    pub name: String,
    /// The RNG seed that regenerates the trace.
    pub seed: u64,
}

/// Everything needed to replay an experiment bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Scenario or tool name.
    pub scenario: String,
    /// Version of the workspace that produced the run.
    pub crate_version: String,
    /// The Eq. (11) energy/QoE weighting factor.
    pub eta: f64,
    /// Ladder bitrates in Mbps, lowest first.
    pub ladder_mbps: Vec<f64>,
    /// [`stable_hash`] of the player configuration, hex-encoded.
    pub config_hash: String,
    /// The traces replayed, in run order.
    pub traces: Vec<TraceRef>,
    /// Approach labels, in run order.
    pub approaches: Vec<String>,
}

impl RunManifest {
    /// The manifest's own content hash (FNV-1a 64 of its compact JSON).
    ///
    /// Two runs configured identically produce equal hashes; any drift in
    /// seeds, ladder, configuration or code version changes it.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        stable_hash(self)
    }

    /// [`RunManifest::stable_hash`] as a fixed-width hex string.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.stable_hash())
    }

    /// Serializes the manifest as pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (cannot happen for this type).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        // ecas-lint: allow(panic-safety, reason = "manifest types contain no non-serializable values; documented above")
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Parses a manifest from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest {
            scenario: "paper-evaluation".to_string(),
            crate_version: "0.1.0".to_string(),
            eta: 0.5,
            ladder_mbps: vec![0.33, 1.0, 5.8],
            config_hash: "00112233aabbccdd".to_string(),
            traces: vec![
                TraceRef {
                    name: "trace1".to_string(),
                    seed: 0xECA5_0901,
                },
                TraceRef {
                    name: "trace2".to_string(),
                    seed: 0xECA5_0902,
                },
            ],
            approaches: vec!["Youtube".to_string(), "Ours".to_string()],
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn equal_manifests_hash_equal() {
        assert_eq!(manifest().stable_hash(), manifest().stable_hash());
        assert_eq!(manifest().hash_hex(), manifest().hash_hex());
        assert_eq!(manifest().hash_hex().len(), 16);
    }

    #[test]
    fn any_field_change_changes_hash() {
        let base = manifest();
        let mut m = manifest();
        m.eta = 0.75;
        assert_ne!(base.stable_hash(), m.stable_hash());
        let mut m = manifest();
        m.traces[0].seed += 1;
        assert_ne!(base.stable_hash(), m.stable_hash());
        let mut m = manifest();
        m.crate_version = "0.2.0".to_string();
        assert_ne!(base.stable_hash(), m.stable_hash());
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = manifest();
        let parsed = RunManifest::from_json(&m.to_json_pretty()).unwrap();
        assert_eq!(m, parsed);
        assert_eq!(m.stable_hash(), parsed.stable_hash());
    }

    #[test]
    fn stable_hash_covers_any_serializable() {
        assert_eq!(stable_hash("x"), stable_hash("x"));
        assert_ne!(stable_hash("x"), stable_hash("y"));
    }
}
