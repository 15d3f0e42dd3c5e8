//! Suite-host attach behaviour: per-member trace-track blocks and
//! compile errors surfaced through the single-property facade.

use abv_checker::{Binding, Checker, CompileError, InstallError};
use abv_obs::{ArgValue, Phase, Tracer};
use desim::{SimTime, Simulation};
use psl::ClockedProperty;
use rtlkit::Clock;
use tlmkit::TX_TRACE_TRACK;

/// Width of one member's track block: its property-level track plus one
/// track per pool slot.
const MEMBER_BLOCK: u64 = 1000;

fn named(pairs: &[(&str, &str)]) -> Vec<(String, ClockedProperty)> {
    pairs
        .iter()
        .map(|(n, src)| ((*n).to_owned(), src.parse().expect("parses")))
        .collect()
}

#[test]
fn members_get_disjoint_labelled_track_blocks() {
    let mut sim = Simulation::new();
    let (tracer, sink) = Tracer::memory();
    sim.set_tracer(tracer);
    let clk = Clock::install(&mut sim, "clk", 10);
    sim.add_signal("rdy", 1);
    sim.add_signal("ds", 0);
    let binding = Binding::clock(clk.signal);
    // Two multi-member suites and a single attach in one simulation.
    let first = named(&[
        ("a", "always (!ds || next[3] rdy) @clk_pos"),
        ("b", "always rdy @clk_neg"),
        ("c", "always (rdy || next rdy) @clk"),
    ]);
    let second = named(&[
        ("d", "always next rdy @clk_pos"),
        ("e", "always ds == 0 @clk"),
    ]);
    let mut checkers = Checker::attach_all(&mut sim, &first, binding.clone()).expect("attaches");
    checkers.extend(Checker::attach_all(&mut sim, &second, binding.clone()).expect("attaches"));
    let f = "always (!ds || next rdy) @clk_pos".parse().expect("parses");
    checkers.push(Checker::attach(&mut sim, "f", &f, binding).expect("attaches"));
    sim.run_until(SimTime::from_ns(200));
    let report = Checker::collect(&mut sim, &checkers, 200);
    assert!(report.all_pass(), "{report}");

    let blocks: Vec<(String, u64)> = checkers
        .iter()
        .map(|c| {
            let checker = c.checker_ref(&sim);
            (checker.name().to_owned(), checker.trace_tid())
        })
        .collect();
    for (i, (_, x)) in blocks.iter().enumerate() {
        for &reserved in &[0, TX_TRACE_TRACK] {
            assert!(!(*x..x + MEMBER_BLOCK).contains(&reserved), "{blocks:?}");
        }
        for (_, y) in &blocks[i + 1..] {
            assert!(
                x + MEMBER_BLOCK <= *y || y + MEMBER_BLOCK <= *x,
                "{blocks:?}"
            );
        }
    }

    let events = sink.borrow_mut().take_events();
    let labels: Vec<(String, u64)> = events
        .iter()
        .filter(|e| e.phase == Phase::Meta && e.name == "thread_name" && e.tid % MEMBER_BLOCK == 0)
        .map(|e| match &e.args[0].1 {
            ArgValue::Str(name) => (name.clone(), e.tid),
            other => panic!("thread_name carries a string, got {other:?}"),
        })
        .collect();
    assert_eq!(
        labels, blocks,
        "one labelled row per property, in attach order"
    );
    // Every checker event lands in its own property's block.
    assert!(events.iter().any(|e| e.phase == Phase::Begin));
    for e in events.iter().filter(|e| e.tid > TX_TRACE_TRACK) {
        let owner = blocks
            .iter()
            .find(|(_, base)| (*base..base + MEMBER_BLOCK).contains(&e.tid))
            .unwrap_or_else(|| panic!("{e:?} outside every member block"));
        if e.phase == Phase::Begin {
            assert_eq!(e.name, owner.0, "instance span on its property's block");
        }
    }
}

#[test]
fn attach_over_a_missing_signal_names_the_signal() {
    let mut sim = Simulation::new();
    let clk = Clock::install(&mut sim, "clk", 10);
    let p = "always (rdy || ghost) @clk_pos".parse().expect("parses");
    sim.add_signal("rdy", 1);
    let err = Checker::attach(&mut sim, "p", &p, Binding::clock(clk.signal)).unwrap_err();
    assert_eq!(
        err,
        InstallError::Compile(CompileError::MissingSignal {
            signal: "ghost".into()
        })
    );
}
