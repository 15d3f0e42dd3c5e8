//! The traced run: each pass's run specs replayed through every layer's
//! public function, in the engine's order, one span per call.
//!
//! A replayed pass mirrors `run_campaign` with one worker (and, for the
//! mutate matrix, `run_mutation` plus `KillMatrix::to_json`). Probes that
//! split suite preparation into parsing and abstraction, and the bare twin
//! of every run (same spec, no checkers), run after the pass on a track of
//! their own, so they never count towards the pass.

use std::hint::black_box;
use std::time::Instant;

use abv_campaign::{execute_run, CampaignPlan, CampaignReport, CheckerMode, RunOutcome, RunSpec};
use abv_checker::{CheckReport, Checker};
use abv_core::{abstract_property, reuse_at_cycle_accurate};
use abv_mutate::KillMatrix;
use designs::{AbsLevel, PropertyClass, SuiteEntry};
use desim::SimStats;
use psl::ClockedProperty;

use crate::spans::{Recorder, SpanId, PASS_TRACK, PROBE_TRACK};
use crate::workload::{PassOutput, Plan};

/// The engine's suite preparation for a run, as `execute_run` does it.
fn prepare(spec: &RunSpec) -> Vec<(String, ClockedProperty)> {
    let cell = &spec.spec;
    if cell.checkers == CheckerMode::ExpectedPassing {
        designs::passing_properties_at(cell.design, cell.level)
    } else {
        designs::properties_at(cell.design, cell.level)
    }
}

/// The abstraction step of [`prepare`] over an already parsed suite: the
/// body of `properties_at` / `passing_properties_at` after
/// `DesignKind::suite`.
fn abstract_at(spec: &RunSpec, suite: &[SuiteEntry]) -> Vec<(String, ClockedProperty)> {
    let cell = &spec.spec;
    match cell.level {
        AbsLevel::Rtl => suite.iter().map(SuiteEntry::named).collect(),
        AbsLevel::TlmCa => suite
            .iter()
            .map(|e| {
                let q = reuse_at_cycle_accurate(&e.rtl).expect("suite has a clock context");
                (e.name.to_owned(), q)
            })
            .collect(),
        AbsLevel::TlmAt | AbsLevel::TlmAtBulk => {
            let cfg = cell.design.config();
            suite
                .iter()
                .filter(|e| {
                    cell.checkers != CheckerMode::ExpectedPassing
                        || e.class == PropertyClass::AtCompatible
                })
                .filter_map(|e| {
                    let abs = abstract_property(&e.rtl, &cfg).expect("suite abstracts");
                    abs.into_property().map(|q| (e.name.to_owned(), q))
                })
                .collect()
        }
    }
}

/// The engine's `execute_run`, one span per layer call.
fn replay_run(rec: &mut Recorder, id: SpanId, spec: &RunSpec) -> RunOutcome {
    rec.begin("run", PASS_TRACK, id);
    let all = rec.span("designs.prep", PASS_TRACK, id, || prepare(spec));
    let props = spec.spec.checkers.select(all);
    let cell = &spec.spec;
    let mut built = rec.span("designs.build", PASS_TRACK, id, || {
        designs::build(cell.design, cell.level, spec.size, spec.seed, cell.fault)
            .expect("validated plan cell builds")
    });
    let checkers = rec.span("checker.attach", PASS_TRACK, id, || {
        let binding = built.binding();
        Checker::attach_all(&mut built.sim, &props, binding).expect("suite attaches at its level")
    });
    let start = Instant::now();
    let stats = rec.span("desim.run", PASS_TRACK, id, || built.run());
    let wall = start.elapsed();
    let report = rec.span("checker.collect", PASS_TRACK, id, || {
        Checker::collect(&mut built.sim, &checkers, built.end_ns)
    });
    rec.span("desim.teardown", PASS_TRACK, id, || drop(built));
    rec.end(PASS_TRACK);
    RunOutcome {
        wall,
        stats,
        report,
        trace: Vec::new(),
    }
}

/// What a replayed pass produced besides its output: the run specs it
/// executed and each run's bare-twin counters.
pub struct Replayed {
    pub output: PassOutput,
    pub specs: Vec<RunSpec>,
    pub bare: Vec<SimStats>,
}

/// Replays a workload's passes and checks them against `execute_run`.
pub struct Replay {
    plan: Plan,
    /// `execute_run`'s counters and report for each run spec.
    reference: Vec<(SimStats, CheckReport)>,
}

impl Replay {
    /// Computes the reference outcome of every run spec, and checks that
    /// the parse-then-abstract probe yields what the engine installs.
    ///
    /// # Errors
    ///
    /// Names the first run spec whose probe disagrees with the engine.
    pub fn new(plan: Plan) -> Result<Replay, String> {
        let specs = plan.campaign_plan().run_specs();
        for spec in &specs {
            let suite = spec.spec.design.suite();
            if abstract_at(spec, &suite) != prepare(spec) {
                return Err(format!(
                    "abstraction probe differs from the engine at {}",
                    spec.spec
                ));
            }
        }
        let reference = specs
            .iter()
            .map(|spec| {
                let out = execute_run(spec);
                (out.stats, out.report)
            })
            .collect();
        Ok(Replay { plan, reference })
    }

    /// One traced pass followed by its probes.
    pub fn pass(&self, rec: &mut Recorder, pass: u32) -> Replayed {
        let id = SpanId {
            pass,
            run: None,
            level: None,
        };
        rec.begin("pass", PASS_TRACK, id);
        let expanded: CampaignPlan;
        let (plan, mutation) = match &self.plan {
            Plan::Mutate(plan) => {
                expanded = plan.campaign_plan();
                (&expanded, Some(plan))
            }
            Plan::Campaign(plan) => (plan, None),
        };
        rec.span("campaign.validate", PASS_TRACK, id, || plan.validate())
            .expect("workload plan is valid");
        let specs = plan.run_specs();
        let started = Instant::now();
        let outcomes: Vec<Option<RunOutcome>> = specs
            .iter()
            .enumerate()
            .map(|(run, spec)| {
                let id = run_id(pass, run, spec);
                Some(replay_run(rec, id, spec))
            })
            .collect();
        let campaign = rec.span("campaign.assemble", PASS_TRACK, id, || {
            CampaignReport::assemble(plan, 1, started.elapsed(), &specs, outcomes)
        });
        let matrix = mutation.map(|plan| {
            let matrix = rec.span("mutate.fold", PASS_TRACK, id, || {
                KillMatrix::fold(plan, &campaign)
            });
            let json = rec.span("mutate.json", PASS_TRACK, id, || matrix.to_json());
            (matrix, json)
        });
        rec.end(PASS_TRACK);
        let bare = specs
            .iter()
            .enumerate()
            .map(|(run, spec)| probe(rec, run_id(pass, run, spec), spec))
            .collect();
        Replayed {
            output: PassOutput { campaign, matrix },
            specs,
            bare,
        }
    }

    /// Runs of a replayed pass whose counters or report differ from what
    /// `execute_run` returns for the same spec.
    pub fn mismatches(&self, replayed: &Replayed) -> usize {
        let campaign = &replayed.output.campaign;
        if campaign.runs_per_cell != 1 || campaign.cells.len() != self.reference.len() {
            return self.reference.len();
        }
        // With one run per cell, each cell holds exactly its run's outcome.
        campaign
            .cells
            .iter()
            .zip(&self.reference)
            .filter(|(cell, (stats, report))| cell.stats != *stats || cell.report != *report)
            .count()
    }
}

fn run_id(pass: u32, run: usize, spec: &RunSpec) -> SpanId {
    SpanId {
        pass,
        run: Some(run as u32),
        level: Some(spec.spec.level),
    }
}

/// The probes of one run: parse the suite, abstract it, and run the bare
/// twin. Returns the twin's counters.
fn probe(rec: &mut Recorder, id: SpanId, spec: &RunSpec) -> SimStats {
    let suite = rec.span("psl.parse", PROBE_TRACK, id, || spec.spec.design.suite());
    let props = rec.span("core.abstract", PROBE_TRACK, id, || {
        abstract_at(spec, &suite)
    });
    black_box(props);
    let cell = &spec.spec;
    let mut twin = designs::build(cell.design, cell.level, spec.size, spec.seed, cell.fault)
        .expect("validated plan cell builds");
    rec.span("desim.run_bare", PROBE_TRACK, id, || twin.run())
}
