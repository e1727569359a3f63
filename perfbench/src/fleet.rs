//! `fleet`: repeated `FleetEngine::run` over `fleet --smoke`-shaped
//! fleets (default mix, 24 s mean duration, approach Ours, no cache).
//!
//! Unit `i` simulates a fresh fleet whose seed derives from the workload
//! seed and `i`. The traced unit drives `refill → run_grid → absorb →
//! finalize` itself, span by span, and must reproduce the engine's
//! report exactly.

use ecas_core::fleet::{ClassReport, FleetEngine, FleetReducer, FleetReport};
use ecas_core::obs::fnv1a_64;
use ecas_core::sweep::{ExecPolicy, SweepEngine};
use ecas_core::trace::population::{PopulationSpec, SessionBatch};
use ecas_core::types::units::Seconds;
use ecas_core::{Approach, ExperimentRunner};

use crate::spans::SpanTable;
use crate::sys::UnitClock;
use crate::{derive_seed, Config, Ops, Traced, Unit};

/// Mean session duration of `fleet --smoke` (seconds).
const MEAN_DURATION_S: f64 = 24.0;
/// Salt separating fleet seeds from other workloads' seeds.
const SALT: u64 = 0xF1EE_7000;

/// The fleet of unit `unit`.
fn unit_spec(seed: u64, users: u64, unit: u64) -> PopulationSpec {
    PopulationSpec::new(users, derive_seed(seed, SALT, unit))
        .mean_duration(Seconds::new(MEAN_DURATION_S))
}

/// Digest of the users of the first unit's fleet: seed, arrival hour,
/// class and duration of every user.
#[must_use]
pub fn input_digest(seed: u64, users: u64) -> u64 {
    let spec = unit_spec(seed, users, 0);
    let mut bytes = Vec::new();
    for i in 0..users {
        let user = spec.user(i);
        bytes.extend(user.seed.to_le_bytes());
        bytes.extend(user.hour.to_bits().to_le_bytes());
        bytes.extend(user.duration.value().to_bits().to_le_bytes());
        bytes.extend(format!("{}/{}/{}", user.context, user.battery, user.signal).bytes());
    }
    fnv1a_64(&bytes)
}

/// Session-seconds of a fleet: the sum of its users' video lengths.
fn session_seconds(spec: &PopulationSpec) -> f64 {
    (0..spec.users())
        .map(|i| spec.user(i).duration.value())
        .sum()
}

fn shares_sum_to_one(classes: &[ClassReport]) -> bool {
    (classes.iter().map(|c| c.share).sum::<f64>() - 1.0).abs() < 1e-9
}

/// The per-report checks: `users` and arrivals add up to the fleet,
/// every class split sums to 1, and no NaN reached the tails.
fn report_holds(report: &FleetReport, users: u64) -> bool {
    report.users == users
        && report.arrivals_by_hour.iter().sum::<u64>() == users
        && shares_sum_to_one(&report.by_context)
        && shares_sum_to_one(&report.by_battery)
        && shares_sum_to_one(&report.by_signal)
        && report.qoe_nan == 0
        && report.energy_nan == 0
}

pub(crate) struct Fleet {
    seed: u64,
    users: u64,
    batch: usize,
    jobs: usize,
    engine: FleetEngine,
    sweep: SweepEngine,
    policy: ExecPolicy,
    /// The first unit's fleet run `Sequential` with another batch size.
    reference: FleetReport,
    /// The report of the last untraced unit.
    last: Option<(u64, FleetReport)>,
}

impl Fleet {
    /// The engines and the check reference. A fleet's users are
    /// synthesized lazily, inside the unit, so the reference is most of
    /// set-up.
    pub(crate) fn setup(config: &Config, jobs: usize) -> Self {
        let sizes = config.sizes;
        let reference_batch = sizes.fleet_batch / 2 + 1;
        let reference = FleetEngine::paper().batch_size(reference_batch).run(
            &unit_spec(config.seed, sizes.fleet_users, 0),
            &ExecPolicy::Sequential,
        );
        Self {
            seed: config.seed,
            users: sizes.fleet_users,
            batch: sizes.fleet_batch,
            jobs,
            engine: FleetEngine::paper().batch_size(sizes.fleet_batch),
            sweep: SweepEngine::new(ExperimentRunner::paper()),
            policy: ExecPolicy::Parallel { jobs },
            reference,
            last: None,
        }
    }

    fn ops(&self, report: &FleetReport, unit: u64, spec: &PopulationSpec) -> Ops {
        let mut holds = report_holds(report, self.users);
        if unit == 0 {
            holds &= *report == self.reference;
        }
        Ops {
            attempted: self.users,
            failed: if holds { 0 } else { self.users },
            session_s: session_seconds(spec),
        }
    }
}

impl Unit for Fleet {
    fn noun(&self) -> &'static str {
        "users"
    }

    fn run(&mut self, unit: u64, clock: &mut UnitClock) -> Result<Ops, String> {
        let spec = unit_spec(self.seed, self.users, unit);
        clock.start()?;
        let report = self.engine.run(&spec, &self.policy);
        clock.stop()?;
        let ops = self.ops(&report, unit, &spec);
        self.last = Some((unit, report));
        Ok(ops)
    }

    fn traced(&mut self, unit: u64, table: &mut SpanTable) -> Result<Traced, String> {
        let spec = unit_spec(self.seed, self.users, unit);
        let approaches = [Approach::Ours];
        let mut batch = SessionBatch::with_capacity(self.batch.min(self.users as usize));
        let mut reducer = FleetReducer::new();
        let (mut refill_s, mut grid_s, mut fold_s) = (0.0, 0.0, 0.0);

        let root = table.open("fleet.unit", unit, None);
        let mut start = 0u64;
        while start < spec.users() {
            refill_s += table
                .time("population.refill", unit, Some(root), || {
                    batch.refill(&spec, start, self.batch);
                })
                .1;
            let (results, s) = table.time("sweep.run_grid", unit, Some(root), || {
                self.sweep
                    .run_grid(batch.sessions(), &approaches, &self.policy)
            });
            grid_s += s;
            fold_s += table
                .time("fleet.absorb", unit, Some(root), || {
                    for (user, result) in batch.specs().iter().zip(&results) {
                        reducer.absorb(user, result);
                    }
                })
                .1;
            start += batch.len() as u64;
        }
        let (report, s) = table.time("fleet.finalize", unit, Some(root), || reducer.finalize());
        fold_s += s;
        let unit_s = table.close(root);

        match &self.last {
            Some((last_unit, engine_report)) if *last_unit == unit && *engine_report == report => {}
            _ => {
                return Err(format!(
                    "fleet unit {unit}: the traced refill/run_grid/absorb/finalize loop \
                     does not reproduce FleetEngine::run's report"
                ))
            }
        }
        let ops = self.ops(&report, unit, &spec);

        // Sequential probe beside the unit: the same sessions, synthesized
        // again untimed, through ExperimentRunner::run one by one.
        let mut sim_s = 0.0;
        let mut start = 0u64;
        while start < spec.users() {
            batch.refill(&spec, start, self.batch);
            sim_s += table
                .time("probe.sim", unit, None, || {
                    for session in batch.sessions() {
                        std::hint::black_box(self.sweep.runner().run(session, &Approach::Ours));
                    }
                })
                .1;
            start += batch.len() as u64;
        }

        let users = self.users as f64;
        Ok(Traced {
            root,
            ops,
            layers: vec![
                ("population.refill_s", refill_s),
                ("population.serial_share", (refill_s + fold_s) / unit_s),
                ("population.users", users),
                ("sweep.busy_s", grid_s),
                ("sweep.cells", users),
                ("sweep.pool_efficiency", sim_s / (grid_s * self.jobs as f64)),
                ("sim.busy_s", sim_s),
                ("sim.segments", report.segments as f64),
                ("fleet.fold_s", fold_s),
            ],
        })
    }
}
