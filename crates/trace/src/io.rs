//! Trace serialization: the `.bin` format, and the Mahimahi importer
//! ([`read_mahimahi`]) for external packet traces.
//!
//! A [`SessionTrace`] has one file encoding, the `.bin` v1 layout
//! (`ECAS` magic + version, then little-endian lengths and values), and
//! four `SessionTrace` methods defined here:
//!
//! * [`SessionTrace::read_from`] / [`SessionTrace::write_to`] move a
//!   trace through any `Read` / `Write`;
//! * [`SessionTrace::load`] / [`SessionTrace::save`] do the same against
//!   a path, whatever its extension.
//!
//! The reader trusts nothing it decodes: every value must be finite and
//! every unit pass its domain check, each channel must be non-empty and
//! in time order, every accelerometer magnitude finite, the video length
//! positive and no longer than [`MAX_TRACE_S`], and no byte may follow
//! the last sample. Anything else is [`TraceIoError::Corrupt`].
//!
//! [`SessionTrace::content_hash`] names a trace by its `.bin` bytes: one
//! encoder writes the v1 layout either into the buffer `write_to` hands
//! its writer or straight into an FNV-1a hasher
//! ([`ecas_obs::FnvHasher`]), so the hash of a trace is
//! `fnv1a_64(&bytes)` of the file `save` writes, computed without
//! building those bytes. Cache keys and record headers carry this hash.
//!
//! Reader/writer functions take `R: Read` / `W: Write` by value; pass
//! `&mut reader` when the caller needs to keep using the stream afterwards.
//!
//! [`write_atomic`] is the one way the workspace publishes a file: the
//! bytes stream into a temp file that is then renamed over the target,
//! so a reader never sees a torn write. `save` goes through it, as do
//! cache entries, records, corpus indexes and the bench tools' outputs.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ecas_obs::FnvHasher;
use ecas_types::units::{Dbm, Mbps, MegaBytes, MetersPerSec2, Seconds};

use crate::population::MAX_TRACE_S;
use crate::record::wire::Reader;
use crate::sample::{AccelSample, NetworkSample, SignalSample};
use crate::series::TimeSeries;
use crate::session::{SessionTrace, TraceMeta};

/// Magic prefix of the binary trace format.
pub(crate) const BINARY_MAGIC: &[u8; 4] = b"ECAS";
/// Current version of the binary trace format.
pub(crate) const BINARY_VERSION: u8 = 1;

/// Error produced by trace I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The payload did not conform to the expected format.
    Corrupt(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Corrupt(msg) => write!(f, "corrupt trace payload: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl SessionTrace {
    /// Reads a `.bin` trace from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O failure or a malformed payload
    /// (see the [module docs](self) for what the reader checks).
    pub fn read_from<R: Read>(mut reader: R) -> Result<Self, TraceIoError> {
        let mut data = Vec::new();
        reader.read_to_end(&mut data)?;
        decode_binary_impl(&data)
    }

    /// Writes the trace's `.bin` bytes to `writer`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O failure.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<(), TraceIoError> {
        let mut bytes = Vec::new();
        write_binary(self, &mut bytes)?;
        writer.write_all(&bytes)?;
        Ok(())
    }

    /// The trace's content hash: FNV-1a 64 over its `.bin` v1 bytes —
    /// exactly what [`write_to`](Self::write_to) writes — streamed into
    /// the hasher without building them. Every channel value enters as
    /// its raw little-endian bits, so a one-ULP change, or `0.0` against
    /// `-0.0`, changes the hash.
    ///
    /// ```
    /// use ecas_trace::videos::EvalTraceSpec;
    ///
    /// let trace = EvalTraceSpec::table_v()[0].generate();
    /// let mut bytes = Vec::new();
    /// trace.write_to(&mut bytes).unwrap();
    /// assert_eq!(trace.content_hash(), ecas_obs::fnv1a_64(&bytes));
    /// ```
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut hasher = FnvHasher::new();
        // ecas-lint: allow(panic-safety, reason = "the hasher never fails; only a string or channel longer than u32::MAX, far past any trace in memory, can")
        write_binary(self, &mut hasher).expect("a trace's lengths fit the .bin layout");
        hasher.finish()
    }

    /// Loads a `.bin` trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] when the file cannot be read or its
    /// payload is malformed.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        decode_binary_impl(&fs::read(path)?)
    }

    /// Saves the trace's `.bin` bytes to `path` through [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] when the file cannot be created or
    /// written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), TraceIoError> {
        write_atomic(path.as_ref(), |out| self.write_to(out))
    }
}

/// Publishes the bytes `write` puts into a temp file in `path`'s
/// directory by renaming it to `path`, so a concurrent reader sees the
/// old file or the new one, never a torn write. Every file the workspace
/// writes goes through here. `write` gets a buffered writer over the temp
/// file, so large outputs stream instead of being built in memory.
///
/// The temp name embeds the process id and a process-wide counter: two
/// writers racing on one path (threads, or processes sharing a
/// directory) each write their own temp file, and the `rename` is
/// atomic, so the published file is always one writer's complete bytes.
/// A failed write, `write`'s own error included, removes its temp file
/// and leaves `path` as it was.
///
/// # Errors
///
/// Returns `write`'s error, or the I/O error of creating, flushing or
/// renaming the temp file.
pub fn write_atomic<E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp)
        .map_err(E::from)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            write(&mut out)?;
            out.flush().map_err(E::from)
        })
        .and_then(|()| fs::rename(&tmp, path).map_err(E::from));
    if written.is_err() {
        // Best effort: the write error is what the caller needs to see.
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Writes a length or sample count as the layout's little-endian `u32`;
/// one that does not fit is an error, never a truncated field.
fn put_len<W: Write>(out: &mut W, len: usize, what: &str) -> io::Result<()> {
    let len = u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} {len} does not fit the .bin layout's u32 field"),
        )
    })?;
    out.write_all(&len.to_le_bytes())
}

fn put_string<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    put_len(out, s.len(), "string length")?;
    out.write_all(s.as_bytes())
}

fn put_f64s<W: Write>(out: &mut W, values: &[f64]) -> io::Result<()> {
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Takes the next `N` bytes; running out is [`TraceIoError::Corrupt`]
/// naming the field `what`.
fn take<const N: usize>(r: &mut Reader<'_>, what: &'static str) -> Result<[u8; N], TraceIoError> {
    let raw = r
        .take(N, what)
        .map_err(|_| TraceIoError::Corrupt(format!("truncated {what}")))?;
    let mut out = [0u8; N];
    out.copy_from_slice(raw);
    Ok(out)
}

fn get_u32(r: &mut Reader<'_>, what: &'static str) -> Result<u32, TraceIoError> {
    take(r, what).map(u32::from_le_bytes)
}

/// Reads the next `f64`; no field may hold a NaN or an infinity (an
/// infinite throughput made the optimal planner panic on a NaN cost).
fn get_f64(r: &mut Reader<'_>, what: &'static str) -> Result<f64, TraceIoError> {
    let value = f64::from_le_bytes(take(r, what)?);
    if !value.is_finite() {
        return Err(TraceIoError::Corrupt(format!("non-finite {what} {value}")));
    }
    Ok(value)
}

/// A unit outside its domain, or a channel or trace the constructors
/// refuse, is a corrupt payload.
fn corrupt(e: impl fmt::Display) -> TraceIoError {
    TraceIoError::Corrupt(e.to_string())
}

fn get_string(r: &mut Reader<'_>) -> Result<String, TraceIoError> {
    let len = get_u32(r, "string length")? as usize;
    let raw = r
        .take(len, "string payload")
        .map_err(|_| TraceIoError::Corrupt("truncated string payload".into()))?;
    String::from_utf8(raw.to_vec())
        .map_err(|e| TraceIoError::Corrupt(format!("invalid utf-8 string: {e}")))
}

/// Reads a channel's sample count and refuses one the remaining bytes
/// cannot hold at `size` bytes per sample, so a hostile count is a typed
/// error before anything is allocated.
fn get_count(r: &mut Reader<'_>, what: &'static str, size: usize) -> Result<usize, TraceIoError> {
    let n = get_u32(r, what)? as usize;
    if n > r.remaining() / size {
        return Err(TraceIoError::Corrupt(format!(
            "{what} {n} exceeds what {} remaining bytes could hold",
            r.remaining()
        )));
    }
    Ok(n)
}

/// Writes the `.bin` v1 layout of `session` to `out`: the one encoder
/// behind both [`SessionTrace::write_to`] and [`SessionTrace::content_hash`].
fn write_binary<W: Write>(session: &SessionTrace, out: &mut W) -> io::Result<()> {
    out.write_all(BINARY_MAGIC)?;
    out.write_all(&[BINARY_VERSION])?;

    let meta = session.meta();
    put_string(out, &meta.name)?;
    put_f64s(
        out,
        &[
            meta.video_length.value(),
            meta.data_size.value(),
            meta.avg_vibration.value(),
        ],
    )?;
    put_string(out, &meta.description)?;
    match meta.seed {
        Some(seed) => {
            out.write_all(&[1])?;
            out.write_all(&seed.to_le_bytes())?;
        }
        None => out.write_all(&[0])?,
    }

    put_len(out, session.network().len(), "network count")?;
    for s in session.network().iter() {
        put_f64s(out, &[s.time.value(), s.throughput.value()])?;
    }
    put_len(out, session.signal().len(), "signal count")?;
    for s in session.signal().iter() {
        put_f64s(out, &[s.time.value(), s.dbm.value()])?;
    }
    put_len(out, session.accel().len(), "accel count")?;
    for s in session.accel().iter() {
        put_f64s(out, &[s.time.value(), s.x, s.y, s.z])?;
    }
    Ok(())
}

fn decode_binary_impl(data: &[u8]) -> Result<SessionTrace, TraceIoError> {
    let mut r = Reader::new(data);
    let magic: [u8; 4] = take(&mut r, "magic")?;
    if &magic != BINARY_MAGIC {
        return Err(TraceIoError::Corrupt(format!(
            "bad magic {magic:?}, want {BINARY_MAGIC:?}"
        )));
    }
    let [version] = take(&mut r, "version")?;
    if version != BINARY_VERSION {
        return Err(TraceIoError::Corrupt(format!(
            "unsupported version {version}, want {BINARY_VERSION}"
        )));
    }

    let name = get_string(&mut r)?;
    let video_length = Seconds::try_new(get_f64(&mut r, "video length")?).map_err(corrupt)?;
    // A zero length plays no segment, and a huge one sizes the player's
    // per-segment buffers: both panic or abort the simulator.
    if !(video_length.value() > 0.0 && video_length.value() <= MAX_TRACE_S) {
        return Err(TraceIoError::Corrupt(format!(
            "video length {} s is outside (0, {MAX_TRACE_S}] s",
            video_length.value()
        )));
    }
    let data_size = MegaBytes::try_new(get_f64(&mut r, "data size")?).map_err(corrupt)?;
    let avg_vibration =
        MetersPerSec2::try_new(get_f64(&mut r, "avg vibration")?).map_err(corrupt)?;
    let description = get_string(&mut r)?;
    let seed = match take(&mut r, "seed flag")? {
        [0] => None,
        [1] => Some(u64::from_le_bytes(take(&mut r, "seed")?)),
        [other] => return Err(TraceIoError::Corrupt(format!("invalid seed flag {other}"))),
    };

    let meta = TraceMeta {
        name,
        video_length,
        data_size,
        avg_vibration,
        description,
        seed,
    };

    let n = get_count(&mut r, "network count", 16)?;
    let mut network = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Seconds::try_new(get_f64(&mut r, "network time")?).map_err(corrupt)?;
        let throughput = Mbps::try_new(get_f64(&mut r, "throughput")?).map_err(corrupt)?;
        network.push(NetworkSample::new(t, throughput));
    }

    let n = get_count(&mut r, "signal count", 16)?;
    let mut signal = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Seconds::try_new(get_f64(&mut r, "signal time")?).map_err(corrupt)?;
        let dbm = Dbm::try_new(get_f64(&mut r, "signal dbm")?).map_err(corrupt)?;
        signal.push(SignalSample::new(t, dbm));
    }

    let n = get_count(&mut r, "accel count", 32)?;
    let mut accel = Vec::with_capacity(n);
    for _ in 0..n {
        accel.push(AccelSample::new(
            Seconds::try_new(get_f64(&mut r, "accel time")?).map_err(corrupt)?,
            get_f64(&mut r, "accel x")?,
            get_f64(&mut r, "accel y")?,
            get_f64(&mut r, "accel z")?,
        ));
    }
    // An axis whose square overflows makes the Eq. (5) window mean
    // infinite and every vibration level over the sample NaN.
    if let Some(i) = accel.iter().position(|s| !s.magnitude().is_finite()) {
        return Err(TraceIoError::Corrupt(format!(
            "accelerometer sample {i} has a non-finite magnitude"
        )));
    }
    if r.remaining() > 0 {
        return Err(TraceIoError::Corrupt(format!(
            "{} bytes follow the last accel sample",
            r.remaining()
        )));
    }

    let network = TimeSeries::new(network).map_err(corrupt)?;
    let signal = TimeSeries::new(signal).map_err(corrupt)?;
    let accel = TimeSeries::new(accel).map_err(corrupt)?;
    SessionTrace::new(meta, network, signal, accel).map_err(corrupt)
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::synth::context::{Context, ContextSchedule};
    use crate::synth::SessionGenerator;

    fn session() -> SessionTrace {
        SessionGenerator::new(
            "io-test",
            ContextSchedule::constant(Context::Walking),
            Seconds::new(12.0),
            99,
        )
        .generate()
    }

    /// `save` writes `.bin` bytes whatever the extension, and `load`
    /// reads them back.
    #[test]
    fn load_save_roundtrip() {
        let s = session();
        let dir = std::env::temp_dir().join(format!("ecas-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["trace.bin", "trace.json", "trace"] {
            let path = dir.join(name);
            s.save(&path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), bin_bytes(&s), "{name}");
            let back = SessionTrace::load(&path).unwrap();
            assert_eq!(s, back, "{name} did not roundtrip");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = SessionTrace::load("/nonexistent/ecas-io-test.bin").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    /// A writer that fails after writing some bytes publishes nothing:
    /// the old file keeps its bytes and no temp file is left behind. A
    /// writer that succeeds replaces the file whole.
    #[test]
    fn a_failed_atomic_write_leaves_the_old_file() {
        let dir = std::env::temp_dir().join(format!("ecas-io-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, |out| out.write_all(b"old bytes\n")).unwrap();

        let failed = write_atomic(&path, |out| {
            out.write_all(&[b'x'; 20_000])?;
            Err(io::Error::other("the writer gave up"))
        });
        assert_eq!(failed.unwrap_err().to_string(), "the writer gave up");
        assert_eq!(std::fs::read(&path).unwrap(), b"old bytes\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.json"], "temp litter left behind");

        write_atomic(&path, |out| out.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A tiny trace with every field set, small enough to spell out its
    /// `.bin` bytes field by field.
    fn pinned_trace() -> SessionTrace {
        let meta = TraceMeta {
            name: "pin".into(),
            video_length: Seconds::new(2.0),
            data_size: MegaBytes::new(1.5),
            avg_vibration: MetersPerSec2::new(0.25),
            description: "v1".into(),
            seed: Some(7),
        };
        let network = TimeSeries::new(vec![
            NetworkSample::new(Seconds::new(0.0), Mbps::new(4.0)),
            NetworkSample::new(Seconds::new(1.0), Mbps::new(2.5)),
        ])
        .unwrap();
        let signal =
            TimeSeries::new(vec![SignalSample::new(Seconds::new(0.0), Dbm::new(-90.0))]).unwrap();
        let accel =
            TimeSeries::new(vec![AccelSample::new(Seconds::new(0.5), 0.0, -1.0, 9.75)]).unwrap();
        SessionTrace::new(meta, network, signal, accel).unwrap()
    }

    /// The v1 `.bin` layout, pinned byte for byte: little-endian `u32`
    /// lengths and counts, little-endian `f64` values, no padding.
    #[test]
    fn binary_layout_is_pinned() {
        let expected = concat!(
            "4543415301",                       // "ECAS", version 1
            "0300000070696e",                   // name "pin"
            "0000000000000040",                 // video length 2.0 s
            "000000000000f83f",                 // data size 1.5 MB
            "000000000000d03f",                 // avg vibration 0.25
            "020000007631",                     // description "v1"
            "010700000000000000",               // seed Some(7)
            "02000000",                         // 2 network samples
            "00000000000000000000000000001040", // (0 s, 4 Mbps)
            "000000000000f03f0000000000000440", // (1 s, 2.5 Mbps)
            "01000000",                         // 1 signal sample
            "000000000000000000000000008056c0", // (0 s, -90 dBm)
            "01000000",                         // 1 accel sample
            "000000000000e03f0000000000000000", // (0.5 s, x 0,
            "000000000000f0bf0000000000802340", //  y -1, z 9.75)
        );
        let trace = pinned_trace();
        let bytes = bin_bytes(&trace);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected);
        let back = SessionTrace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    /// A sample count the remaining bytes cannot hold is corrupt before
    /// anything is allocated: the 42-byte file that claims `u32::MAX`
    /// network samples must not ask for 64 GiB.
    #[test]
    fn binary_rejects_hostile_sample_counts() {
        let mut header = b"ECAS\x01".to_vec();
        header.extend_from_slice(&0u32.to_le_bytes()); // empty name
        for v in [2.0f64, 1.5, 0.25] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        header.extend_from_slice(&0u32.to_le_bytes()); // empty description
        header.push(0); // no seed
        for (empty_before, channel) in ["network", "signal", "accel"].into_iter().enumerate() {
            let mut bytes = header.clone();
            for _ in 0..empty_before {
                bytes.extend_from_slice(&0u32.to_le_bytes());
            }
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(bytes.len(), 42 + 4 * empty_before);
            let err = SessionTrace::read_from(bytes.as_slice()).unwrap_err();
            assert!(matches!(err, TraceIoError::Corrupt(_)), "{channel}: {err}");
        }
    }

    fn bin_bytes(trace: &SessionTrace) -> Vec<u8> {
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        bytes
    }

    /// The content hash is FNV-1a 64 over exactly the bytes a `.bin` file
    /// holds, for every Table V row, a fleet user and the pinned trace,
    /// and each of them reads back from those bytes.
    #[test]
    fn content_hash_is_fnv1a_of_the_bin_bytes() {
        let mut traces: Vec<SessionTrace> = crate::videos::EvalTraceSpec::table_v()
            .iter()
            .map(crate::videos::EvalTraceSpec::generate)
            .collect();
        traces.push(
            crate::population::PopulationSpec::new(1000, 7)
                .mean_duration(Seconds::new(24.0))
                .user(3)
                .synthesize(),
        );
        traces.push(pinned_trace());
        for trace in &traces {
            let bytes = bin_bytes(trace);
            assert_eq!(
                trace.content_hash(),
                ecas_obs::fnv1a_64(&bytes),
                "{}",
                trace.meta().name
            );
            let back = SessionTrace::read_from(bytes.as_slice()).unwrap();
            assert_eq!(&back, trace);
        }
        assert_eq!(pinned_trace().content_hash(), 0x67b3_39fa_3597_4e09);
    }

    /// `pinned_trace` with its parts edited by `edit`.
    fn edited(
        edit: impl FnOnce(&mut TraceMeta, &mut [NetworkSample], &mut [SignalSample], &mut [AccelSample]),
    ) -> SessionTrace {
        let (mut meta, network, signal, accel) = pinned_trace().into_parts();
        let mut network = network.as_slice().to_vec();
        let mut signal = signal.as_slice().to_vec();
        let mut accel = accel.as_slice().to_vec();
        edit(&mut meta, &mut network, &mut signal, &mut accel);
        SessionTrace::new(
            meta,
            TimeSeries::new(network).unwrap(),
            TimeSeries::new(signal).unwrap(),
            TimeSeries::new(accel).unwrap(),
        )
        .unwrap()
    }

    /// The next `f64` up from `v` (away from zero for negatives).
    fn ulp(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    /// Every value and metadata field enters the hash: a one-ULP change
    /// to any single channel value, and a change to the name, the
    /// description, the seed's presence or the sign of a zero, each give
    /// a hash no other variant has.
    #[test]
    fn content_hash_covers_every_field() {
        let mut variants = vec![pinned_trace()];
        for i in 0..2 {
            variants.push(edited(|_, n, _, _| {
                n[i].time = Seconds::new(ulp(n[i].time.value()))
            }));
            variants.push(edited(|_, n, _, _| {
                n[i].throughput = Mbps::new(ulp(n[i].throughput.value()));
            }));
        }
        variants.push(edited(|_, _, s, _| {
            s[0].time = Seconds::new(ulp(s[0].time.value()))
        }));
        variants.push(edited(|_, _, s, _| {
            s[0].dbm = Dbm::new(ulp(s[0].dbm.value()))
        }));
        variants.push(edited(|_, _, _, a| {
            a[0].time = Seconds::new(ulp(a[0].time.value()))
        }));
        variants.push(edited(|_, _, _, a| a[0].x = ulp(a[0].x)));
        variants.push(edited(|_, _, _, a| a[0].y = ulp(a[0].y)));
        variants.push(edited(|_, _, _, a| a[0].z = ulp(a[0].z)));
        variants.push(edited(|m, _, _, _| m.name = "pio".into()));
        variants.push(edited(|m, _, _, _| m.description = "v2".into()));
        variants.push(edited(|m, _, _, _| m.seed = None));
        variants.push(edited(|m, _, _, _| m.data_size = MegaBytes::new(0.0)));
        variants.push(edited(|m, _, _, _| m.data_size = MegaBytes::new(-0.0)));
        let hashes: std::collections::BTreeSet<u64> =
            variants.iter().map(SessionTrace::content_hash).collect();
        assert_eq!(hashes.len(), variants.len(), "two variants share a hash");
        for trace in &variants {
            assert_eq!(trace.content_hash(), ecas_obs::fnv1a_64(&bin_bytes(trace)));
        }
    }

    /// An accelerometer axis that is NaN or infinite, or whose square
    /// overflows, is corrupt: loaded, it would make Eq. (5) NaN.
    #[test]
    fn binary_rejects_non_finite_accel_magnitudes() {
        for axis in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
            let bytes = bin_bytes(&edited(|_, _, _, a| a[0].z = axis));
            let err = SessionTrace::read_from(bytes.as_slice()).unwrap_err();
            assert!(matches!(err, TraceIoError::Corrupt(_)), "{axis}: {err}");
        }
    }

    /// No `f64` field holds a NaN or an infinity. Loaded, an infinite
    /// throughput made every energy infinite and panicked the optimal
    /// planner on a NaN cost.
    #[test]
    fn binary_rejects_non_finite_values() {
        let bytes = bin_bytes(&pinned_trace());
        // Every f64 of the layout `binary_layout_is_pinned` spells out.
        for at in [12, 20, 28, 55, 63, 71, 79, 91, 99, 111, 119, 127, 135] {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
                let err = SessionTrace::read_from(bad.as_slice()).unwrap_err();
                assert!(
                    matches!(&err, TraceIoError::Corrupt(msg) if msg.starts_with("non-finite")),
                    "byte {at} = {value}: {err}"
                );
            }
        }
    }

    /// A video length that is not finite, not positive, or longer than
    /// any recipe synthesizes is corrupt: loaded, an infinite length
    /// panicked the simulator (`capacity overflow`), 1e12 s aborted it on
    /// a failed allocation, and a zero length played no segment. The
    /// longest trace a recipe makes still loads.
    #[test]
    fn video_length_outside_what_recipes_synthesize_is_corrupt() {
        let with_length = |seconds: f64| {
            bin_bytes(&edited(|m, _, _, _| {
                m.video_length = Seconds::new(seconds);
            }))
        };
        let bad = [f64::INFINITY, 1e12, 0.0, -0.0, MAX_TRACE_S.next_up()];
        for seconds in bad {
            let err = SessionTrace::read_from(with_length(seconds).as_slice()).unwrap_err();
            assert!(
                matches!(&err, TraceIoError::Corrupt(msg) if msg.contains("video length")),
                "{seconds}: {err}"
            );
        }
        for seconds in [f64::MIN_POSITIVE, MAX_TRACE_S] {
            let trace = SessionTrace::read_from(with_length(seconds).as_slice()).unwrap();
            assert_eq!(trace.meta().video_length.value(), seconds);
        }
    }

    /// The longest trace a recipe synthesizes, a fleet user whose
    /// duration reaches the ceiling at the longest mean, loads back.
    #[test]
    fn the_longest_fleet_user_loads() {
        let mean = Seconds::new(crate::population::MAX_SESSION_S);
        let user = crate::population::PopulationSpec::new(4169, 3)
            .mean_duration(mean)
            .user(4168);
        assert_eq!(user.duration.value(), MAX_TRACE_S);
        let trace = user.synthesize();
        assert_eq!(trace.meta().video_length.value(), MAX_TRACE_S);
        let back = SessionTrace::read_from(bin_bytes(&trace).as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn binary_roundtrip() {
        let s = session();
        let back = SessionTrace::read_from(bin_bytes(&s).as_slice()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn binary_rejects_bad_magic_and_version() {
        let bytes = bin_bytes(&session());

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SessionTrace::read_from(bad.as_slice()).is_err());

        let mut bad = bytes.clone();
        bad[4] = 200;
        assert!(SessionTrace::read_from(bad.as_slice()).is_err());
    }

    /// Every proper prefix of the pinned trace's 143 bytes fails to
    /// decode, and so do trailing bytes. Every byte inverted and every
    /// bit flipped decodes to a typed error or to a trace whose video
    /// length the simulator can play; none panics.
    #[test]
    fn binary_rejects_truncation_everywhere() {
        let bytes = bin_bytes(&pinned_trace());
        assert_eq!(bytes.len(), 143);
        for cut in 0..bytes.len() {
            assert!(
                SessionTrace::read_from(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(SessionTrace::read_from(longer.as_slice()).is_err());

        let mut loaded = 0;
        for at in 0..bytes.len() {
            for mask in [0xff, 1, 2, 4, 8, 16, 32, 64, 128] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                if let Ok(trace) = SessionTrace::read_from(bad.as_slice()) {
                    let length = trace.meta().video_length.value();
                    assert!(
                        length > 0.0 && length <= MAX_TRACE_S,
                        "byte {at} ^ {mask:#04x} loaded a {length} s video"
                    );
                    loaded += 1;
                }
            }
        }
        // Flips inside a value that stays in its domain still load.
        assert!(loaded > 0);
    }
}

/// Largest bin count [`read_mahimahi`] will allocate. At the default
/// 1-second bin width this is a ~23-day trace — far beyond any real
/// Mahimahi capture (they span minutes) while keeping the `counts`
/// vector under ~16 MiB even for hostile input.
pub const MAX_MAHIMAHI_BINS: usize = 2_000_000;

/// Parses a Mahimahi-style uplink/downlink trace into a throughput
/// channel.
///
/// Mahimahi records one line per 1500-byte MTU packet-delivery
/// opportunity, each line holding the opportunity's timestamp in
/// milliseconds. The throughput over a window is therefore
/// `opportunities * 1500 * 8 / window` bits. This importer bins the
/// opportunities into `bin`-second windows and emits one
/// [`NetworkSample`] per bin — the standard preprocessing used by
/// trace-driven ABR studies.
///
/// Blank lines are skipped. Timestamps may be unsorted (Mahimahi files
/// are sorted, but we tolerate noise).
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] for a `bin` width that is zero or
/// not finite, on unparsable lines, an empty payload, or a trace whose
/// horizon would require more than [`MAX_MAHIMAHI_BINS`] bins — a single
/// far-future timestamp must not translate into a multi-gigabyte
/// allocation.
pub fn read_mahimahi<R: Read>(
    mut reader: R,
    bin: Seconds,
) -> Result<TimeSeries<NetworkSample>, TraceIoError> {
    if bin.is_zero() || !bin.value().is_finite() {
        return Err(TraceIoError::Corrupt(format!(
            "mahimahi bin width {} s is not finite and positive",
            bin.value()
        )));
    }
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let mut stamps_ms: Vec<f64> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ms: f64 = line
            .parse()
            .map_err(|e| TraceIoError::Corrupt(format!("bad mahimahi line {}: {e}", lineno + 1)))?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(TraceIoError::Corrupt(format!(
                "invalid mahimahi timestamp {ms} on line {}",
                lineno + 1
            )));
        }
        stamps_ms.push(ms);
    }
    if stamps_ms.is_empty() {
        return Err(TraceIoError::Corrupt("empty mahimahi payload".into()));
    }
    ecas_types::float::total_sort(&mut stamps_ms);

    let bin_s = bin.value();
    let horizon = stamps_ms[stamps_ms.len() - 1] / 1000.0;
    let raw_bins = (horizon / bin_s).floor() + 1.0;
    if !raw_bins.is_finite() || raw_bins > MAX_MAHIMAHI_BINS as f64 {
        return Err(TraceIoError::Corrupt(format!(
            "mahimahi horizon {horizon:.0}s at bin width {bin_s}s needs {raw_bins:.0} bins \
             (max {MAX_MAHIMAHI_BINS}); trace has an implausible far-future timestamp"
        )));
    }
    let n_bins = raw_bins as usize;
    let mut counts = vec![0usize; n_bins];
    for &ms in &stamps_ms {
        let idx = ((ms / 1000.0) / bin_s) as usize;
        counts[idx.min(n_bins - 1)] += 1;
    }
    let samples: Vec<NetworkSample> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            // c packets of 1500 bytes per bin.
            let mbps = c as f64 * 1500.0 * 8.0 / 1e6 / bin_s;
            NetworkSample::new(Seconds::new(i as f64 * bin_s), Mbps::new(mbps))
        })
        .collect();
    TimeSeries::new(samples).map_err(corrupt)
}

#[cfg(test)]
// Tests assert exact fixture values; clippy::float_cmp guards library code.
#[allow(clippy::float_cmp)]
mod mahimahi_tests {
    use super::*;

    #[test]
    fn constant_rate_trace_parses() {
        // One packet per millisecond = 1500 B/ms = 12 Mbps.
        let text: String = (0..5000).map(|ms| format!("{ms}\n")).collect();
        let series = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap();
        assert_eq!(series.len(), 5);
        for s in series.iter().take(4) {
            assert!(
                (s.throughput.value() - 12.0).abs() < 0.1,
                "{}",
                s.throughput
            );
        }
    }

    #[test]
    fn bursty_trace_has_distinct_bins() {
        // 1000 opportunities in second 0, none in second 1, 100 in second 2.
        let mut text = String::new();
        for i in 0..1000 {
            text.push_str(&format!("{}\n", i % 1000));
        }
        for i in 0..100 {
            text.push_str(&format!("{}\n", 2000 + i));
        }
        let series = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap();
        assert_eq!(series.len(), 3);
        assert!(series.as_slice()[0].throughput.value() > 10.0);
        assert_eq!(series.as_slice()[1].throughput.value(), 0.0);
        assert!((series.as_slice()[2].throughput.value() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_tolerated() {
        let text = "2500\n100\n1700\n900\n";
        let series = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap();
        assert_eq!(series.len(), 3);
    }

    /// A zero width divides the horizon by zero and an infinite one starts
    /// bin 0 at `0 × ∞ = NaN`: both are typed errors, not panics.
    #[test]
    fn zero_and_infinite_bin_widths_are_corrupt() {
        for bin in [Seconds::zero(), Seconds::new(f64::INFINITY)] {
            let err = read_mahimahi("0\n1000\n".as_bytes(), bin).unwrap_err();
            assert!(
                matches!(&err, TraceIoError::Corrupt(msg) if msg.contains("bin width")),
                "width {bin:?}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_garbage_and_empty() {
        assert!(read_mahimahi("abc\n".as_bytes(), Seconds::new(1.0)).is_err());
        assert!(read_mahimahi("-5\n".as_bytes(), Seconds::new(1.0)).is_err());
        assert!(read_mahimahi("".as_bytes(), Seconds::new(1.0)).is_err());
    }

    /// Regression: a single far-future timestamp used to size the bin
    /// vector directly from the maximum stamp — `1e12` ms at a 1-second
    /// bin width asked for a multi-gigabyte allocation and aborted the
    /// process. Hostile external input must be rejected as `Corrupt`,
    /// not amplified into an OOM.
    #[test]
    fn far_future_timestamp_is_corrupt_not_oom() {
        // One normal packet, then one a billion seconds in the future.
        let text = "0\n1000000000000\n";
        let err = read_mahimahi(text.as_bytes(), Seconds::new(1.0)).unwrap_err();
        assert!(
            matches!(&err, TraceIoError::Corrupt(msg) if msg.contains("far-future")),
            "expected Corrupt(far-future), got {err:?}"
        );
        // Same guard against tiny bin widths blowing up the bin count.
        assert!(read_mahimahi("0\n3600000\n".as_bytes(), Seconds::new(1e-6)).is_err());
        // A trace right at the cap still parses.
        let ok_ms = (MAX_MAHIMAHI_BINS - 1) as f64 * 1000.0;
        let text = format!("0\n{ok_ms}\n");
        assert!(read_mahimahi(text.as_bytes(), Seconds::new(1.0)).is_ok());
    }
}
