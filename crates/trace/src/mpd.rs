//! A minimal DASH MPD (Media Presentation Description) writer.
//!
//! DASH servers describe a video's representations in an MPD XML manifest;
//! everything the streaming stack here needs — the bitrate ladder, the
//! segment duration, the presentation length — lives in a small, static
//! subset of that schema. [`Manifest::to_xml`] writes that subset (what
//! `tracetool mpd` prints): a valid static MPD with one video adaptation
//! set, a `SegmentTemplate`, and one `Representation` per ladder rung.
//!
//! The layer is write-only: no program reads an MPD back, so there is no
//! parser to trust with foreign bytes. Real links enter as Mahimahi logs
//! ([`crate::io::read_mahimahi`]).

use ecas_types::ladder::BitrateLadder;
use ecas_types::units::Seconds;
use serde::Serialize;

/// The manifest subset the simulator consumes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Manifest {
    /// Available representations, ascending by bandwidth.
    pub ladder: BitrateLadder,
    /// Segment duration `τ`.
    pub segment_duration: Seconds,
    /// Total media presentation duration.
    pub duration: Seconds,
}

impl Manifest {
    /// Creates a manifest.
    ///
    /// # Panics
    ///
    /// Panics if `segment_duration` is zero.
    #[must_use]
    pub fn new(ladder: BitrateLadder, segment_duration: Seconds, duration: Seconds) -> Self {
        assert!(
            !segment_duration.is_zero(),
            "segment duration must be positive"
        );
        Self {
            ladder,
            segment_duration,
            duration,
        }
    }

    /// The paper's evaluation manifest for a video of `duration`
    /// (fourteen-level ladder, 2-second segments).
    #[must_use]
    pub fn paper(duration: Seconds) -> Self {
        Self::new(BitrateLadder::evaluation(), Seconds::new(2.0), duration)
    }

    /// Serializes the manifest as a static MPD document.
    #[must_use]
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        out.push_str(&format!(
            "<MPD xmlns=\"urn:mpeg:dash:schema:mpd:2011\" type=\"static\" \
             mediaPresentationDuration=\"{}\" minBufferTime=\"PT2S\" \
             profiles=\"urn:mpeg:dash:profile:isoff-main:2011\">\n",
            iso8601(self.duration)
        ));
        out.push_str("  <Period>\n");
        out.push_str("    <AdaptationSet mimeType=\"video/mp4\" segmentAlignment=\"true\">\n");
        out.push_str(&format!(
            "      <SegmentTemplate timescale=\"1000\" duration=\"{}\" \
             media=\"video_$RepresentationID$_$Number$.m4s\" \
             initialization=\"init_$RepresentationID$.mp4\" startNumber=\"1\"/>\n",
            (self.segment_duration.value() * 1000.0).round() as u64
        ));
        for (i, entry) in self.ladder.iter().enumerate() {
            let bandwidth = (entry.bitrate().value() * 1e6).round() as u64;
            match entry.resolution() {
                Some(res) => out.push_str(&format!(
                    "      <Representation id=\"{i}\" bandwidth=\"{bandwidth}\" \
                     width=\"{}\" height=\"{}\" codecs=\"avc1.64001f\"/>\n",
                    res.width(),
                    res.height()
                )),
                None => out.push_str(&format!(
                    "      <Representation id=\"{i}\" bandwidth=\"{bandwidth}\" \
                     codecs=\"avc1.64001f\"/>\n"
                )),
            }
        }
        out.push_str("    </AdaptationSet>\n  </Period>\n</MPD>\n");
        out
    }
}

/// Formats seconds as an ISO 8601 duration (`PT…S` form).
fn iso8601(duration: Seconds) -> String {
    let total = duration.value();
    let hours = (total / 3600.0).floor();
    let minutes = ((total - hours * 3600.0) / 60.0).floor();
    let seconds = total - hours * 3600.0 - minutes * 60.0;
    let mut out = String::from("PT");
    if hours > 0.0 {
        out.push_str(&format!("{hours:.0}H"));
    }
    if minutes > 0.0 {
        out.push_str(&format!("{minutes:.0}M"));
    }
    // Trim trailing zeros of the fractional part for tidiness.
    let s = format!("{seconds:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    out.push_str(&format!("{s}S"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tracetool mpd 449` prints exactly this document.
    const PAPER_449S_MPD: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" type="static" mediaPresentationDuration="PT7M29S" minBufferTime="PT2S" profiles="urn:mpeg:dash:profile:isoff-main:2011">
  <Period>
    <AdaptationSet mimeType="video/mp4" segmentAlignment="true">
      <SegmentTemplate timescale="1000" duration="2000" media="video_$RepresentationID$_$Number$.m4s" initialization="init_$RepresentationID$.mp4" startNumber="1"/>
      <Representation id="0" bandwidth="100000" width="256" height="144" codecs="avc1.64001f"/>
      <Representation id="1" bandwidth="200000" codecs="avc1.64001f"/>
      <Representation id="2" bandwidth="240000" codecs="avc1.64001f"/>
      <Representation id="3" bandwidth="375000" width="426" height="240" codecs="avc1.64001f"/>
      <Representation id="4" bandwidth="550000" codecs="avc1.64001f"/>
      <Representation id="5" bandwidth="750000" width="640" height="360" codecs="avc1.64001f"/>
      <Representation id="6" bandwidth="1000000" codecs="avc1.64001f"/>
      <Representation id="7" bandwidth="1500000" width="854" height="480" codecs="avc1.64001f"/>
      <Representation id="8" bandwidth="2300000" codecs="avc1.64001f"/>
      <Representation id="9" bandwidth="2560000" codecs="avc1.64001f"/>
      <Representation id="10" bandwidth="3000000" width="1280" height="720" codecs="avc1.64001f"/>
      <Representation id="11" bandwidth="3600000" codecs="avc1.64001f"/>
      <Representation id="12" bandwidth="4300000" codecs="avc1.64001f"/>
      <Representation id="13" bandwidth="5800000" width="1920" height="1080" codecs="avc1.64001f"/>
    </AdaptationSet>
  </Period>
</MPD>
"#;

    #[test]
    fn paper_manifest_xml_is_pinned() {
        assert_eq!(
            Manifest::paper(Seconds::new(449.0)).to_xml(),
            PAPER_449S_MPD
        );
    }

    #[test]
    fn iso8601_output_is_pinned() {
        for (secs, text) in [
            (0.5, "PT0.5S"),
            (449.0, "PT7M29S"),
            (3600.0, "PT1H0S"),
            (3725.25, "PT1H2M5.25S"),
        ] {
            assert_eq!(iso8601(Seconds::new(secs)), text, "{secs} s");
        }
    }

    #[test]
    fn emitted_xml_looks_like_an_mpd() {
        let xml = Manifest::paper(Seconds::new(60.0)).to_xml();
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("urn:mpeg:dash:schema:mpd:2011"));
        assert!(xml.contains("mediaPresentationDuration=\"PT1M0S\""));
        assert!(xml.contains("<SegmentTemplate"));
        assert_eq!(xml.matches("<Representation").count(), 14);
        // Named resolutions carry width/height.
        assert!(xml.contains("width=\"1920\" height=\"1080\""));
    }
}
