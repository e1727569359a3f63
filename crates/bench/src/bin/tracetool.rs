//! `tracetool` — generate, inspect and convert session traces from the
//! command line.
//!
//! ```text
//! tracetool generate <quiet|walking|vehicle|commute> <seconds> <seed> <out.bin>
//! tracetool tablev <id> <out.bin>
//! tracetool inspect <trace.bin>
//! tracetool mahimahi <packets.txt> <bin-seconds>
//! tracetool mpd <seconds> [out.mpd]
//! ```
//!
//! `generate` synthesizes the [`RecordedSession`] recipe a session record
//! would store, so the trace takes the recipe's name
//! (`walking-300s-seed7`, `commute-60s-seed1`) and its duration lies in
//! the recipes' 4 s to one hour. Traces are written in the one trace
//! format, `.bin`: an output path with another extension is an error
//! before anything is synthesized or written. `inspect` reads any path
//! and lets the file's `ECAS` magic decide.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::process::ExitCode;

use ecas_bench::Cli;
use ecas_core::record::RecordedSession;
use ecas_core::trace::analysis::SessionStats;
use ecas_core::trace::io::{read_mahimahi, write_atomic};
use ecas_core::trace::session::SessionTrace;
use ecas_core::trace::synth::context::Context;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::units::Seconds;

fn cli() -> Cli {
    Cli::new("tracetool", "generate, inspect and convert session traces")
        .subcommand(
            Cli::new("generate", "synthesize a session trace")
                .positional("context", "quiet | walking | vehicle | commute")
                .positional("seconds", "session duration in seconds (4 to 3600)")
                .positional("seed", "generator seed")
                .positional("out", "output .bin path"),
        )
        .subcommand(
            Cli::new("tablev", "write one of the five Table V evaluation traces")
                .positional("id", "Table V trace id (1..5)")
                .positional("out", "output .bin path"),
        )
        .subcommand(
            Cli::new("inspect", "summarize a stored trace").positional("trace", ".bin trace file"),
        )
        .subcommand(
            Cli::new(
                "mahimahi",
                "bin a mahimahi packet log into a throughput series",
            )
            .positional("packets", "mahimahi packet-times file")
            .positional("bin-seconds", "bin width in seconds"),
        )
        .subcommand(
            Cli::new("mpd", "render the paper's DASH manifest")
                .positional("seconds", "video duration in seconds")
                .optional_positional("out", "output path (stdout if omitted)"),
        )
}

fn main() -> ExitCode {
    let parsed = cli().parse();
    let Some((name, sub)) = parsed.subcommand() else {
        // Unreachable: a missing subcommand is a parse error.
        return ExitCode::from(2);
    };
    let p = sub.positionals();
    let result = match name {
        "generate" => generate(&p[0], &p[1], &p[2], &p[3]),
        "tablev" => tablev(&p[0], &p[1]),
        "inspect" => inspect(&p[0]),
        "mahimahi" => mahimahi(&p[0], &p[1]),
        "mpd" => mpd(&p[0], p.get(1)),
        _ => return ExitCode::from(2),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Refuses an output path that does not end in `.bin`, the one trace
/// format, before anything is synthesized or written.
fn check_bin_path(path: &str) -> Result<(), String> {
    match Path::new(path).extension() {
        Some(ext) if ext == "bin" => Ok(()),
        _ => Err(format!("output path {path:?} does not end in .bin")),
    }
}

fn save(session: &SessionTrace, path: &str) -> Result<(), String> {
    session.save(path).map_err(|e| e.to_string())?;
    println!("wrote {path}");
    Ok(())
}

fn generate(context: &str, seconds: &str, seed: &str, out: &str) -> Result<(), String> {
    check_bin_path(out)?;
    let seconds: f64 = seconds.parse().map_err(|e| format!("bad seconds: {e}"))?;
    let seed: u64 = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
    let constant = |context| RecordedSession::Synthetic {
        context,
        seconds,
        seed,
    };
    let recipe = match context {
        "quiet" => constant(Context::QuietRoom),
        "walking" => constant(Context::Walking),
        "vehicle" => constant(Context::MovingVehicle),
        "commute" => RecordedSession::Commute { seconds, seed },
        other => return Err(format!("unknown context {other:?}")),
    };
    save(&recipe.generate().map_err(|e| e.to_string())?, out)
}

fn tablev(id: &str, out: &str) -> Result<(), String> {
    check_bin_path(out)?;
    let id: u8 = id.parse().map_err(|e| format!("bad id: {e}"))?;
    let spec = EvalTraceSpec::table_v()
        .into_iter()
        .find(|s| s.id == id)
        .ok_or_else(|| format!("no Table V trace with id {id}"))?;
    save(&spec.generate(), out)
}

fn inspect(path: &str) -> Result<(), String> {
    let session = SessionTrace::load(path).map_err(|e| e.to_string())?;
    let meta = session.meta();
    println!("name:           {}", meta.name);
    println!("description:    {}", meta.description);
    println!("video length:   {:.0} s", meta.video_length.value());
    println!("data size:      {:.1} MB", meta.data_size.value());
    println!("avg vibration:  {:.2} m/s^2", meta.avg_vibration.value());
    println!(
        "seed:           {}",
        meta.seed.map_or("-".to_string(), |s| s.to_string())
    );
    let stats = SessionStats::of(&session);
    println!(
        "throughput:     p25 {:.1} / p50 {:.1} / p75 {:.1} Mbps (mean {:.1})",
        stats.throughput.p25, stats.throughput.p50, stats.throughput.p75, stats.throughput.mean
    );
    println!(
        "signal:         p25 {:.1} / p50 {:.1} / p75 {:.1} dBm",
        stats.signal.p25, stats.signal.p50, stats.signal.p75
    );
    println!(
        "below 5.8 Mbps: {:.0}% of the time",
        100.0 * stats.below_top_bitrate
    );
    println!(
        "accel channel:  {} samples at ~{:.0} Hz",
        session.accel().len(),
        session.accel().sample_rate().unwrap_or(0.0)
    );
    Ok(())
}

fn mpd(seconds: &str, out: Option<&String>) -> Result<(), String> {
    let seconds: f64 = seconds.parse().map_err(|e| format!("bad seconds: {e}"))?;
    let duration = Seconds::try_new(seconds).map_err(|e| e.to_string())?;
    let manifest = ecas_core::trace::mpd::Manifest::paper(duration);
    let xml = manifest.to_xml();
    match out {
        Some(path) => {
            write_atomic(Path::new(path), |out| out.write_all(xml.as_bytes()))
                .map_err(|e| e.to_string())?;
            println!("wrote {path} ({} representations)", manifest.ladder.len());
        }
        None => print!("{xml}"),
    }
    Ok(())
}

fn mahimahi(path: &str, bin: &str) -> Result<(), String> {
    let bin: f64 = bin.parse().map_err(|e| format!("bad bin width: {e}"))?;
    if !(bin.is_finite() && bin > 0.0) {
        return Err(format!("bad bin width {bin}: expected finite seconds > 0"));
    }
    let mut file = File::open(path).map_err(|e| e.to_string())?;
    let mut text = String::new();
    file.read_to_string(&mut text).map_err(|e| e.to_string())?;
    let series = read_mahimahi(text.as_bytes(), Seconds::new(bin)).map_err(|e| e.to_string())?;
    println!(
        "{} bins over {:.0} s, mean {:.2} Mbps",
        series.len(),
        series.duration().value(),
        series.mean_throughput().value()
    );
    for s in series.iter().take(20) {
        println!("{:8.1}s  {:6.2} Mbps", s.time.value(), s.throughput.value());
    }
    if series.len() > 20 {
        println!("... ({} more bins)", series.len() - 20);
    }
    Ok(())
}
