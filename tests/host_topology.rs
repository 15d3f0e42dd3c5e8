//! Host topology differential: one suite host per `Checker::attach_all`
//! call against one single-member host per property (`Checker::attach`).
//!
//! Checkers never write signals and every member sees the same events and
//! committed values under both topologies, so the reports must be equal in
//! every field (failure residual text, latency histograms, arena stats)
//! and the design's own kernel activity must not move. Only the number of
//! checker events differs, and it is pinned exactly: the suite host costs
//! one wake per clock change or bus notification it subscribes to plus one
//! sampling event per matched edge or transaction, whatever the suite
//! size.

use abv_checker::{CheckReport, Checker};
use designs::{AbsLevel, BuiltDesign, DesignKind, Fault};
use desim::{Component, Event, SignalId, SimCtx, SimStats, Simulation};
use psl::{ClockEdge, ClockedProperty, EvalContext};
use rtlkit::{Clock, EdgeDetector};
use tlmkit::{Transaction, TransactionBus};

/// Counts what the checkers would be woken by, without touching the
/// design: clock changes (split into rising and falling) and bus
/// notifications.
#[derive(Default)]
struct Probe {
    clk: Option<SignalId>,
    last: u64,
    changes: u64,
    rising: u64,
    falling: u64,
    txs: u64,
}

impl Component for Probe {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        if ev.kind == 1 {
            self.txs += 1;
            return;
        }
        let v = ctx.read(self.clk.expect("subscribed to the clock"));
        self.changes += 1;
        self.rising += u64::from(self.last == 0 && v != 0);
        self.falling += u64::from(self.last != 0 && v == 0);
        self.last = v;
    }
}

/// How many sampling events one clock- or transaction-context property
/// needs under `probe`'s counts.
fn samples(p: &ClockedProperty, probe: &Probe) -> u64 {
    match p.context {
        EvalContext::Transaction { .. } => probe.txs,
        EvalContext::Clock { edge, .. } => match edge {
            ClockEdge::Pos => probe.rising,
            ClockEdge::Neg => probe.falling,
            ClockEdge::Any | ClockEdge::True => probe.changes,
        },
    }
}

fn run(
    mut built: BuiltDesign,
    attach: impl Fn(&mut BuiltDesign) -> Vec<Checker>,
) -> (SimStats, CheckReport) {
    let checkers = attach(&mut built);
    let stats = built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    (stats, report)
}

/// Runs `props` on fresh instances from `fresh` under both topologies, a
/// bare twin and a probe twin, and checks the invariants above.
fn compare(label: &str, props: &[(String, ClockedProperty)], fresh: impl Fn() -> BuiltDesign) {
    let (suite_stats, suite) = run(fresh(), |b| {
        let binding = b.binding();
        Checker::attach_all(&mut b.sim, props, binding).expect("suite attaches")
    });
    let (single_stats, single) = run(fresh(), |b| {
        let binding = b.binding();
        props
            .iter()
            .map(|(name, p)| {
                Checker::attach(&mut b.sim, name, p, binding.clone()).expect("attaches")
            })
            .collect()
    });
    let bare = fresh().run();
    let mut twin = fresh();
    let id = twin.sim.add_component(Probe {
        clk: twin.clk,
        ..Probe::default()
    });
    if let Some(clk) = twin.clk {
        twin.sim.subscribe(clk, id, 0);
    }
    if let Some(bus) = &twin.bus {
        bus.subscribe(id, 1);
    }
    twin.run();
    let probe = twin.sim.component::<Probe>(id).expect("probe installed");

    assert_eq!(suite, single, "{label}: reports differ");
    assert_eq!(suite.properties.len(), props.len(), "{label}");
    // Sampling deltas exist under both topologies (but not in the bare
    // twin); checkers never write a signal or add a timestamp.
    assert_eq!(
        suite_stats.delta_cycles, single_stats.delta_cycles,
        "{label}: deltas"
    );
    for stats in [&suite_stats, &single_stats] {
        assert_eq!(stats.timestamps, bare.timestamps, "{label}: timestamps");
        assert_eq!(
            stats.signal_changes, bare.signal_changes,
            "{label}: changes"
        );
    }

    let is_tx = |p: &ClockedProperty| p.context.is_transaction();
    let wake = |tx: bool| if tx { probe.txs } else { probe.changes };
    // One wake per subscribed notification, one sample per edge or
    // transaction that at least one member samples at.
    let mut suite_expected = 0;
    for tx in [false, true] {
        let members: Vec<_> = props
            .iter()
            .map(|(_, p)| p)
            .filter(|p| is_tx(p) == tx)
            .collect();
        if members.is_empty() {
            continue;
        }
        suite_expected += wake(tx);
        let edges = |e: ClockEdge| {
            members
                .iter()
                .any(|p| matches!(p.context, EvalContext::Clock { edge, .. } if edge == e))
        };
        suite_expected += if tx {
            probe.txs
        } else if edges(ClockEdge::Any) || edges(ClockEdge::True) {
            probe.changes
        } else {
            u64::from(edges(ClockEdge::Pos)) * probe.rising
                + u64::from(edges(ClockEdge::Neg)) * probe.falling
        };
    }
    // The per-property topology pays the wake and the sample per member.
    let single_expected: u64 = props
        .iter()
        .map(|(_, p)| wake(is_tx(p)) + samples(p, probe))
        .sum();
    assert_eq!(
        suite_stats.events_processed - bare.events_processed,
        suite_expected,
        "{label}: suite-host checker events"
    );
    assert_eq!(
        single_stats.events_processed - bare.events_processed,
        single_expected,
        "{label}: single-member checker events"
    );
}

#[test]
fn one_suite_host_matches_one_host_per_property_on_every_design_level_and_fault() {
    let levels = [
        AbsLevel::Rtl,
        AbsLevel::TlmCa,
        AbsLevel::TlmAt,
        AbsLevel::TlmAtBulk,
    ];
    for design in DesignKind::ALL {
        for level in levels {
            for fault in Fault::catalogue(design) {
                if designs::check_supported(design, level, fault).is_err() {
                    continue;
                }
                let label = format!("{} {} {fault}", design.label(), level.label());
                let props = designs::properties_at(design, level);
                compare(&label, &props, || {
                    designs::build(design, level, 3, 2015, fault).expect("supported cell")
                });
            }
        }
    }
}

/// Toggles `a` at every rising edge, sets `b` at every third, and publishes
/// a transaction at every fourth.
struct MixedModel {
    clk: SignalId,
    a: SignalId,
    b: SignalId,
    bus: TransactionBus,
    det: EdgeDetector,
    edges: u64,
}

impl Component for MixedModel {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        if !self.det.is_rising(ctx.read(self.clk)) {
            return;
        }
        self.edges += 1;
        ctx.write(self.a, self.edges % 2);
        ctx.write(self.b, u64::from(self.edges.is_multiple_of(3)));
        if self.edges.is_multiple_of(4) {
            self.bus
                .publish(ctx, Transaction::write(0, self.edges, ev.time));
        }
    }
}

fn mixed() -> BuiltDesign {
    let mut sim = Simulation::new();
    let clk = Clock::install(&mut sim, "clk", 10);
    let a = sim.add_signal("a", 0);
    let b = sim.add_signal("b", 0);
    let bus = TransactionBus::new();
    let model = sim.add_component(MixedModel {
        clk: clk.signal,
        a,
        b,
        bus: bus.clone(),
        det: EdgeDetector::new(),
        edges: 0,
    });
    sim.subscribe(clk.signal, model, 0);
    BuiltDesign {
        sim,
        clk: Some(clk.signal),
        bus: Some(bus),
        end_ns: 400,
    }
}

#[test]
fn mixed_full_binding_suite_matches_per_property_hosts() {
    let props: Vec<(String, ClockedProperty)> = [
        ("pos", "always (!a || next[2] b) @clk_pos"),
        ("neg", "always (a <= 1 && b <= 1) @clk_neg"),
        ("any", "always (!b || next a) @clk"),
        ("tx", "always (!b || next_et[1, 40] a) @T_b"),
        ("pos_guarded", "always (a || next a) @(clk_pos && b == 0)"),
    ]
    .into_iter()
    .map(|(n, src)| (n.to_owned(), src.parse().expect("parses")))
    .collect();
    // Whole suite, each edge kind alone, and the bus alone.
    compare("mixed", &props, mixed);
    for one in props.chunks(1) {
        compare(&format!("mixed {}", one[0].0), one, mixed);
    }
    let (stats, report) = run(mixed(), |b| {
        let binding = b.binding();
        Checker::attach_all(&mut b.sim, &props, binding).expect("suite attaches")
    });
    assert!(stats.events_processed > 0);
    assert!(
        report.total_failures() > 0,
        "the suite exercises failures: {report}"
    );
    assert!(
        report.properties.iter().any(|p| p.failure_count == 0),
        "and passes: {report}"
    );
}
