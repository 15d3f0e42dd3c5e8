//! The three workloads and one untraced pass of each, through the same
//! public entry points the `rtl2tlm mutate` and `rtl2tlm campaign`
//! commands use.

use abv_campaign::{run_campaign, CampaignPlan, CampaignReport, CheckerMode, TraceSettings};
use abv_mutate::{run_mutation, KillMatrix, MutationPlan};
use designs::{AbsLevel, DesignKind};

/// Seed of the figures recorded in `README.md` (the mutation plan's own
/// default, so the kill matrix is the one the tier-1 test pins).
pub const DEFAULT_SEED: u64 = 2015;

/// Workload size of the Table I grid.
const GRID_SIZE: usize = 400;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full fault catalogue × 3 IPs × 3 levels at size 8.
    MutateMatrix,
    /// Table I "All C" grid: 3 IPs × 3 levels, all checkers, size 400.
    VerifyFull,
    /// The same grid without checkers.
    VerifyBare,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MutateMatrix,
        Workload::VerifyFull,
        Workload::VerifyBare,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MutateMatrix => "mutate-matrix",
            Workload::VerifyFull => "verify-full",
            Workload::VerifyBare => "verify-bare",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The trace process this workload's spans go to.
    pub fn pid(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("workload is listed") as u64
    }
}

/// A workload's plan, built from the seed alone.
#[derive(Debug, Clone)]
pub enum Plan {
    Mutate(MutationPlan),
    Campaign(CampaignPlan),
}

/// What one pass produced: the campaign report and, for the mutate
/// matrix, the folded kill matrix and its JSON rendering.
pub struct PassOutput {
    pub campaign: CampaignReport,
    pub matrix: Option<(KillMatrix, String)>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let grid = |checkers| {
            let mut plan = CampaignPlan::new(workload.name())
                .size(GRID_SIZE)
                .seed(seed);
            for design in DesignKind::ALL {
                for level in AbsLevel::ALL {
                    plan = plan.cell(design, level, checkers);
                }
            }
            plan
        };
        match workload {
            Workload::MutateMatrix => Plan::Mutate(MutationPlan::new().seed(seed)),
            Workload::VerifyFull => Plan::Campaign(grid(CheckerMode::All)),
            Workload::VerifyBare => Plan::Campaign(grid(CheckerMode::None)),
        }
    }

    /// The campaign grid the pass executes.
    pub fn campaign_plan(&self) -> CampaignPlan {
        match self {
            Plan::Mutate(plan) => plan.campaign_plan(),
            Plan::Campaign(plan) => plan.clone(),
        }
    }

    /// One untraced pass with one campaign worker: `rtl2tlm mutate --json`
    /// or `rtl2tlm campaign`.
    pub fn run_pass(&self) -> PassOutput {
        match self {
            Plan::Mutate(plan) => {
                let outcome =
                    run_mutation(plan, 1, TraceSettings::off()).expect("mutation plan is valid");
                let json = outcome.matrix.to_json();
                PassOutput {
                    campaign: outcome.campaign,
                    matrix: Some((outcome.matrix, json)),
                }
            }
            Plan::Campaign(plan) => PassOutput {
                campaign: run_campaign(plan, 1).expect("grid plan is valid"),
                matrix: None,
            },
        }
    }
}
