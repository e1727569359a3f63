//! perf — times the three hot paths and records their deterministic
//! work counters, producing the committed `BENCH_*.json` trajectory.
//!
//! Hot paths (see `crates/bench/src/baseline.rs`):
//!
//! * `sim_loop` — the event simulator's inner download loop over the
//!   Table V sessions (work: the `sim/*` counters);
//! * `radio_integration` — the shared radio-energy chunked integration
//!   kernel over each full session window (work: chunk count);
//! * `optimal_solver` — the Eq. (11) shortest-path optimal planner
//!   (work: `abr/dp_cells`, the forward DP's task × level cells).
//!
//! `--smoke` restricts to trace 1 (the profile `BENCH_core.json` is
//! committed with); `--out <file>` writes the baseline; `--check <file>`
//! is the CI regression gate (exact work-counter match, generous
//! throughput-collapse floor); `--work-only` prints just the
//! deterministic counters, byte-identical across same-seed runs.

use std::collections::BTreeMap;
use std::process::ExitCode;

use ecas_bench::baseline::{
    Baseline, HostInfo, HotPath, BENCH_SCHEMA, TARGET_SESS_S_PER_CORE_S, THROUGHPUT_COLLAPSE_FACTOR,
};
use ecas_bench::{Cli, Report, Table};
use ecas_core::abr::optimal::OptimalPlanner;
use ecas_core::sim::controller::FixedLevel;
use ecas_core::sim::{radio, Simulator};
use ecas_core::trace::session::SessionTrace;
use ecas_core::trace::videos::EvalTraceSpec;
use ecas_core::types::ladder::BitrateLadder;
use ecas_core::types::units::Seconds;
use ecas_obs::perf::{session_seconds_per_core_second, PerfStats, Profiler, Stopwatch};
use ecas_obs::{names, MemoryRecorder};

/// One hot path measured: its deterministic work plus timing samples.
struct Measured {
    name: &'static str,
    sim_seconds: Seconds,
    work: BTreeMap<String, u64>,
    samples: Vec<f64>,
}

impl Measured {
    fn into_hot_path(self) -> HotPath {
        // Under --work-only no timing ran; the zero-sample stats never
        // reach validate() or the report (work_json ignores them).
        let throughput = PerfStats::from_samples(&self.samples).unwrap_or(PerfStats {
            samples: 0,
            p10: 0.0,
            median: 0.0,
            p90: 0.0,
        });
        HotPath {
            name: self.name.to_string(),
            sim_seconds: self.sim_seconds,
            work: self.work,
            throughput,
        }
    }
}

/// Counters from a recorder snapshot whose names start with `prefix`.
fn counters_with_prefix(recorder: &MemoryRecorder, prefix: &str) -> BTreeMap<String, u64> {
    recorder
        .metrics()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect()
}

/// Times `iters` repetitions of `body` (which processes `sim_seconds`
/// simulated seconds per call) under a profiler span, returning
/// sess-s-per-core-s samples.
fn time_path(
    profiler: &Profiler,
    name: &str,
    iters: u64,
    sim_seconds: Seconds,
    mut body: impl FnMut(),
) -> Vec<f64> {
    let _span = profiler.span(name);
    let total = Stopwatch::start();
    let samples = (0..iters)
        .map(|_| {
            let watch = Stopwatch::start();
            body();
            // Clamp: a sub-nanosecond measurement would serialize as
            // infinity, which JSON cannot represent.
            let core = Seconds::new(watch.elapsed_seconds().max(1e-9));
            session_seconds_per_core_second(sim_seconds, core)
        })
        .collect();
    profiler.record_throughput(
        name,
        sim_seconds * iters as f64,
        Seconds::new(total.elapsed_seconds().max(1e-9)),
    );
    samples
}

fn measure_sim_loop(
    profiler: &Profiler,
    sessions: &[SessionTrace],
    iters: u64,
    work_only: bool,
) -> Measured {
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let recorder = MemoryRecorder::new();
    let mut sim_seconds = Seconds::zero();
    for session in sessions {
        let mut controller = FixedLevel::highest();
        let _ = sim.run_with_probe(session, &mut controller, &recorder);
        sim_seconds += session.meta().video_length;
    }
    let samples = if work_only {
        Vec::new()
    } else {
        time_path(
            profiler,
            names::PERF_PATH_SIM_LOOP,
            iters,
            sim_seconds,
            || {
                for session in sessions {
                    let mut controller = FixedLevel::highest();
                    let _ = sim.run(session, &mut controller);
                }
            },
        )
    };
    Measured {
        name: names::PERF_PATH_SIM_LOOP,
        sim_seconds,
        work: counters_with_prefix(&recorder, "sim/"),
        samples,
    }
}

fn measure_radio_integration(
    profiler: &Profiler,
    sessions: &[SessionTrace],
    iters: u64,
    work_only: bool,
) -> Measured {
    let sim = Simulator::paper(BitrateLadder::evaluation());
    let power = sim.power();
    let integrate_all = || {
        let mut chunks = 0u64;
        for session in sessions {
            let end = session.meta().video_length.value();
            let out = radio::integrate(session.network(), session.signal(), power, None, 0.0, end)
                .expect("fault-free integration terminates");
            chunks += out.chunks;
        }
        chunks
    };
    let chunks = integrate_all();
    let sim_seconds: Seconds = sessions.iter().map(|s| s.meta().video_length).sum();
    let samples = if work_only {
        Vec::new()
    } else {
        time_path(
            profiler,
            names::PERF_PATH_RADIO_INTEGRATION,
            iters,
            sim_seconds,
            || {
                let _ = integrate_all();
            },
        )
    };
    Measured {
        name: names::PERF_PATH_RADIO_INTEGRATION,
        sim_seconds,
        work: BTreeMap::from([(names::RADIO_INTEGRATION_CHUNKS.to_string(), chunks)]),
        samples,
    }
}

fn measure_optimal_solver(
    profiler: &Profiler,
    sessions: &[SessionTrace],
    iters: u64,
    work_only: bool,
) -> Measured {
    let planner = OptimalPlanner::paper(BitrateLadder::evaluation());
    let recorder = MemoryRecorder::new();
    let mut sim_seconds = Seconds::zero();
    for session in sessions {
        let _ = planner.plan_with_probe(session, &recorder);
        sim_seconds += session.meta().video_length;
    }
    let samples = if work_only {
        Vec::new()
    } else {
        time_path(
            profiler,
            names::PERF_PATH_OPTIMAL_SOLVER,
            iters,
            sim_seconds,
            || {
                for session in sessions {
                    let _ = planner.plan(session);
                }
            },
        )
    };
    Measured {
        name: names::PERF_PATH_OPTIMAL_SOLVER,
        sim_seconds,
        work: counters_with_prefix(&recorder, "abr/"),
        samples,
    }
}

fn main() -> ExitCode {
    let args = Cli::new(
        "perf",
        "hot-path timing and deterministic work counters (BENCH_*.json)",
    )
    .formats()
    .smoke()
    .switch(
        "--work-only",
        "print only the deterministic work counters (byte-stable JSON)",
    )
    .option("--iters", "n", "timed iterations per hot path (default: 5)")
    .option(
        "--out",
        "file",
        "write the measured baseline JSON to <file>",
    )
    .option(
        "--check",
        "file",
        "regression gate: compare against the committed baseline in <file>",
    )
    .parse();
    let smoke = args.smoke();
    let work_only = args.switch("--work-only");
    let iters: u64 = match args.option("--iters").map(str::parse) {
        None => 5,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("perf: --iters expects a count of 1 or more");
            return ExitCode::from(2);
        }
    };

    let specs = EvalTraceSpec::table_v();
    let specs = if smoke { &specs[..1] } else { &specs[..] };
    let sessions: Vec<SessionTrace> = specs.iter().map(EvalTraceSpec::generate).collect();

    let profiler = Profiler::new();
    let measured = [
        measure_sim_loop(&profiler, &sessions, iters, work_only),
        measure_radio_integration(&profiler, &sessions, iters, work_only),
        measure_optimal_solver(&profiler, &sessions, iters, work_only),
    ];
    let baseline = Baseline {
        schema: BENCH_SCHEMA.to_string(),
        profile: if smoke { "smoke" } else { "full" }.to_string(),
        iters,
        host: HostInfo::current(),
        paths: measured.into_iter().map(Measured::into_hot_path).collect(),
    };

    if work_only {
        print!("{}", baseline.work_json());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = baseline.validate() {
        eprintln!("perf: inconsistent measurement: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(path) = args.option("--out") {
        if let Err(e) = std::fs::write(path, baseline.to_json()) {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline written to {path}");
    }

    let mut report = Report::new(format!(
        "Hot-path performance ({} profile, {} sessions, {iters} iters)",
        baseline.profile,
        sessions.len()
    ));
    let mut table = Table::new(vec![
        "path",
        "sim-s/iter",
        "work ops",
        "p10",
        "median",
        "p90",
    ]);
    for p in &baseline.paths {
        let ops: u64 = p.work.values().sum();
        table.row(vec![
            p.name.clone(),
            format!("{:.0}", p.sim_seconds.value()),
            ops.to_string(),
            format!("{:.3e}", p.throughput.p10),
            format!("{:.3e}", p.throughput.median),
            format!("{:.3e}", p.throughput.p90),
        ]);
    }
    report.table(
        "throughput in simulated session-seconds per core-second",
        table,
    );
    report.note(format!(
        "target: sim_loop >= {TARGET_SESS_S_PER_CORE_S:.0e} sess-s/core-s; work counters are \
         deterministic, timings are host-local"
    ));
    report.emit(args.format());

    if let Some(path) = args.option("--check") {
        let committed = match std::fs::read_to_string(path) {
            Ok(text) => match Baseline::from_json(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("perf: bad baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("perf: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let issues = committed.compare(&baseline, THROUGHPUT_COLLAPSE_FACTOR);
        if !issues.is_empty() {
            for issue in &issues {
                eprintln!("perf: regression vs {path}: {issue}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("baseline check against {path} passed");
    }
    ExitCode::SUCCESS
}
