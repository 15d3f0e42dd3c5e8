//! The seed-independent verdict oracle behind `error_rate`.
//!
//! - `verify-full`: each property's expected verdict follows from its
//!   [`PropertyClass`]. At RTL and TLM-CA every property passes. At TLM-AT
//!   `AtCompatible` passes, `CaOnly` and `ReviewExpectedFail` fail, and
//!   `DeletedAtTlm` is absent.
//! - `verify-bare`: no checker is installed, and every pass's kernel
//!   counters equal the first pass's.
//! - `mutate-matrix`: the baseline is clean, there are no RTL-to-TLM
//!   detection regressions (Theorem III.1), the kill-matrix JSON is
//!   byte-identical across passes and, at the default seed, the mutation
//!   scores are 7/7, 7/7 and 5/5 at every level.
//!
//! Every check counts runs: a run whose verdicts disagree is one error.

use std::collections::HashSet;

use abv_campaign::CampaignReport;
use abv_checker::CheckReport;
use abv_mutate::KillMatrix;
use designs::{AbsLevel, DesignKind, Fault, PropertyClass};
use desim::SimStats;

use crate::workload::{PassOutput, Workload, DEFAULT_SEED};

/// Mutants per design at every level. At the default seed all of them are
/// killed: scores 7/7, 7/7 and 5/5.
const PINNED_MUTANTS: [(DesignKind, usize); 3] = [
    (DesignKind::Des56, 7),
    (DesignKind::ColorConv, 7),
    (DesignKind::Fir, 5),
];

/// The properties a cell installs with the whole suite
/// ([`CheckerMode::All`]), in order, each with whether it must pass,
/// derived from the suite's [`PropertyClass`] alone.
pub fn expected_verdicts(design: DesignKind, level: AbsLevel) -> Vec<(String, bool)> {
    let at = level == AbsLevel::TlmAt;
    design
        .suite()
        .into_iter()
        .filter(|entry| !at || entry.class != PropertyClass::DeletedAtTlm)
        .map(|entry| {
            let pass = !at || entry.class == PropertyClass::AtCompatible;
            (entry.name.to_owned(), pass)
        })
        .collect()
}

/// True if `report` carries exactly the expected properties, in order,
/// with the expected verdicts.
fn verdicts_agree(report: &CheckReport, expected: &[(String, bool)]) -> bool {
    report.properties.len() == expected.len()
        && report
            .properties
            .iter()
            .zip(expected)
            .all(|(p, (name, pass))| p.name == *name && (p.failure_count == 0) == *pass)
}

/// Checks passes against the oracle, remembering what the first pass
/// produced.
pub struct Oracle {
    workload: Workload,
    seed: u64,
    first_stats: Option<Vec<SimStats>>,
    first_matrix: Option<(KillMatrix, String)>,
}

impl Oracle {
    pub fn new(workload: Workload, seed: u64) -> Oracle {
        Oracle {
            workload,
            seed,
            first_stats: None,
            first_matrix: None,
        }
    }

    /// The number of runs of `out` that disagree with the oracle.
    pub fn check(&mut self, out: &PassOutput) -> u64 {
        match (self.workload, &out.matrix) {
            (Workload::MutateMatrix, Some((matrix, json))) => self.check_matrix(matrix, json),
            (Workload::MutateMatrix, None) => out.campaign.cells.len() as u64,
            (Workload::VerifyFull, _) => check_grid(&out.campaign),
            (Workload::VerifyBare, _) => self.check_bare(&out.campaign),
        }
    }

    fn check_bare(&mut self, report: &CampaignReport) -> u64 {
        let stats: Vec<SimStats> = report.cells.iter().map(|c| c.stats).collect();
        let first = self.first_stats.get_or_insert_with(|| stats.clone());
        report
            .cells
            .iter()
            .zip(first.iter())
            .filter(|(cell, first)| !cell.report.properties.is_empty() || cell.stats != **first)
            .map(|(cell, _)| cell.runs as u64)
            .sum()
    }

    fn check_matrix(&mut self, matrix: &KillMatrix, json: &str) -> u64 {
        let mut bad: HashSet<(DesignKind, Fault, AbsLevel)> = HashSet::new();
        for (design, fault, cell) in cells(matrix) {
            let baseline_fails = fault == Fault::None && cell.failures > 0;
            // At the default seed every catalogued mutant is killed.
            let pinned_escape = self.seed == DEFAULT_SEED && fault != Fault::None && !cell.killed;
            if baseline_fails || pinned_escape {
                bad.insert((design, fault, cell.level));
            }
        }
        for d in matrix.detection_regressions() {
            bad.insert((d.design, d.fault, d.survives_at));
        }
        let mut errors = 0u64;
        if self.seed == DEFAULT_SEED {
            for (design, pinned_total) in PINNED_MUTANTS {
                for &level in &matrix.levels {
                    let total = matrix
                        .design(design)
                        .map_or(0, |dm| dm.mutation_score(level).1);
                    errors += total.abs_diff(pinned_total) as u64;
                }
            }
        }
        let (first, first_json) = self
            .first_matrix
            .get_or_insert_with(|| (matrix.clone(), json.to_owned()));
        if json != first_json.as_str() {
            let changed: Vec<_> = cells(matrix)
                .zip(cells(first))
                .filter(|(now, then)| now != then)
                .map(|(now, _)| (now.0, now.1, now.2.level))
                .collect();
            // A document that differs outside every cell still counts once.
            errors += u64::from(changed.is_empty());
            bad.extend(changed);
        }
        errors + bad.len() as u64
    }
}

/// Runs of a `verify-full` grid (every cell with the whole suite) whose
/// verdicts disagree with the [`PropertyClass`] expectation.
fn check_grid(report: &CampaignReport) -> u64 {
    report
        .cells
        .iter()
        .filter(|cell| {
            let expected = expected_verdicts(cell.spec.design, cell.spec.level);
            !verdicts_agree(&cell.report, &expected)
        })
        .map(|cell| cell.runs as u64)
        .sum()
}

/// Every `(design, fault, level)` cell of a kill matrix, in plan order.
fn cells(
    matrix: &KillMatrix,
) -> impl Iterator<Item = (DesignKind, Fault, &abv_mutate::MutantCell)> {
    matrix.designs.iter().flat_map(|dm| {
        dm.mutants
            .iter()
            .flat_map(move |row| row.cells.iter().map(move |c| (dm.design, row.fault, c)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Plan;
    use abv_campaign::{run_campaign, CampaignPlan, CheckerMode};

    fn small_grid(checkers: CheckerMode) -> CampaignPlan {
        let mut plan = CampaignPlan::new("oracle").size(24).seed(DEFAULT_SEED);
        for design in DesignKind::ALL {
            for level in AbsLevel::ALL {
                plan = plan.cell(design, level, checkers);
            }
        }
        plan
    }

    fn output(campaign: CampaignReport) -> PassOutput {
        PassOutput {
            campaign,
            matrix: None,
        }
    }

    #[test]
    fn class_expectation_matches_the_suites() {
        let at = expected_verdicts(DesignKind::ColorConv, AbsLevel::TlmAt);
        let failing: Vec<&str> = at
            .iter()
            .filter(|(_, pass)| !pass)
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(failing, ["c9", "c10"]);
        let rtl = expected_verdicts(DesignKind::Des56, AbsLevel::Rtl);
        assert_eq!(rtl.len(), 9);
        assert!(rtl.iter().all(|(_, pass)| *pass));
        let fir_at = expected_verdicts(DesignKind::Fir, AbsLevel::TlmAt);
        assert!(fir_at.contains(&("f4".to_owned(), false)));
    }

    #[test]
    fn one_flipped_grid_verdict_is_counted() {
        let mut report = run_campaign(&small_grid(CheckerMode::All), 1).expect("valid grid");
        let mut oracle = Oracle::new(Workload::VerifyFull, DEFAULT_SEED);
        let clean = output(report.clone());
        assert_eq!(oracle.check(&clean), 0);
        // ColorConv at TLM-AT: flip c9, a review-expected failure, to pass.
        let cell = &mut report.cells[5];
        assert_eq!(cell.spec.level, AbsLevel::TlmAt);
        let c9 = cell
            .report
            .properties
            .iter_mut()
            .find(|p| p.name == "c9")
            .expect("c9 is installed at TLM-AT");
        assert!(c9.failure_count > 0);
        c9.failure_count = 0;
        assert_eq!(oracle.check(&output(report)), 1);
    }

    #[test]
    fn bare_counter_drift_is_counted() {
        let report = run_campaign(&small_grid(CheckerMode::None), 1).expect("valid grid");
        let mut oracle = Oracle::new(Workload::VerifyBare, DEFAULT_SEED);
        assert_eq!(oracle.check(&output(report.clone())), 0);
        let mut drifted = report;
        drifted.cells[2].stats.events_processed += 1;
        assert_eq!(oracle.check(&output(drifted)), 1);
    }

    #[test]
    fn one_flipped_kill_is_counted() {
        let out = Plan::new(Workload::MutateMatrix, DEFAULT_SEED).run_pass();
        let mut oracle = Oracle::new(Workload::MutateMatrix, DEFAULT_SEED);
        assert_eq!(oracle.check(&out), 0);
        let (mut matrix, _) = out.matrix.expect("mutate pass folds a matrix");
        // A mutant killed at RTL now escapes at TLM-AT: a detection
        // regression, a missed pinned kill and a changed JSON document,
        // all in one run.
        let row = &mut matrix.designs[0].mutants[1];
        let at = row.cells.iter_mut().find(|c| c.level == AbsLevel::TlmAt);
        at.expect("plan runs TLM-AT").killed = false;
        let json = matrix.to_json();
        let flipped = PassOutput {
            campaign: out.campaign,
            matrix: Some((matrix, json)),
        };
        assert_eq!(oracle.check(&flipped), 1);
    }
}
