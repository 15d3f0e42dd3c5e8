//! Wall-clock spans kept in memory: recorded around each layer call,
//! reduced to per-span self time, and exported as Chrome trace-event JSON
//! through `abv-obs`.

use std::time::Instant;

use abv_obs::TraceEvent;
use designs::AbsLevel;

/// Track of the spans that make up a pass.
pub const PASS_TRACK: u64 = 0;
/// Track of the probe calls made between passes (parse, abstraction and
/// bare-twin runs), outside any pass span.
pub const PROBE_TRACK: u64 = 1;

/// Coordinates shared by the spans of one run: the traced pass and the
/// run's work-list index (`None` for pass-level spans).
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    pub pass: u32,
    pub run: Option<u32>,
    pub level: Option<AbsLevel>,
}

enum Mark {
    Begin {
        name: &'static str,
        track: u64,
        id: SpanId,
        ns: u64,
    },
    End {
        track: u64,
        ns: u64,
    },
}

/// One closed span with its self time: its duration minus the part its
/// child spans on the same track cover.
#[derive(Debug, Clone, Copy)]
pub struct SpanTime {
    pub name: &'static str,
    pub id: SpanId,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder with wall-clock timestamps relative to its
/// creation.
pub struct Recorder {
    origin: Instant,
    marks: Vec<Mark>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            marks: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, track: u64, id: SpanId) {
        let ns = self.now_ns();
        self.marks.push(Mark::Begin {
            name,
            track,
            id,
            ns,
        });
    }

    pub fn end(&mut self, track: u64) {
        let ns = self.now_ns();
        self.marks.push(Mark::End { track, ns });
    }

    /// Records `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        track: u64,
        id: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, track, id);
        let out = f();
        self.end(track);
        out
    }

    /// Every closed span with its self time, in end order.
    pub fn span_times(&self) -> Vec<SpanTime> {
        let mut open: [Vec<(SpanTime, u64)>; 2] = [Vec::new(), Vec::new()];
        let mut closed = Vec::new();
        for mark in &self.marks {
            match *mark {
                Mark::Begin {
                    name,
                    track,
                    id,
                    ns,
                } => {
                    let span = SpanTime {
                        name,
                        id,
                        dur_ns: 0,
                        self_ns: 0,
                    };
                    open[track as usize].push((span, ns));
                }
                Mark::End { track, ns } => {
                    let stack = &mut open[track as usize];
                    let (mut span, start) = stack.pop().expect("span ends match begins");
                    span.dur_ns = ns - start;
                    // `self_ns` held the children's total until now.
                    span.self_ns = span.dur_ns.saturating_sub(span.self_ns);
                    if let Some((parent, _)) = stack.last_mut() {
                        parent.self_ns += span.dur_ns;
                    }
                    closed.push(span);
                }
            }
        }
        closed
    }

    /// The spans of passes below `passes` as Chrome trace events in
    /// process `pid`, with wall-clock nanoseconds as timestamps.
    pub fn trace_events(&self, pid: u64, process: &str, passes: u32) -> Vec<TraceEvent> {
        let mut events = vec![
            TraceEvent::process_name(pid, process),
            TraceEvent::thread_name(pid, PASS_TRACK, "pass"),
            TraceEvent::thread_name(pid, PROBE_TRACK, "probe"),
        ];
        let mut kept: [Vec<bool>; 2] = [Vec::new(), Vec::new()];
        for mark in &self.marks {
            match *mark {
                Mark::Begin {
                    name,
                    track,
                    id,
                    ns,
                } => {
                    let keep = id.pass < passes;
                    kept[track as usize].push(keep);
                    if keep {
                        let mut ev = TraceEvent::span_begin(name, pid, track, ns)
                            .with_arg("pass", u64::from(id.pass));
                        if let Some(run) = id.run {
                            ev = ev.with_arg("run", u64::from(run));
                        }
                        if let Some(level) = id.level {
                            ev = ev.with_arg("level", level.label());
                        }
                        events.push(ev);
                    }
                }
                Mark::End { track, ns } => {
                    if kept[track as usize].pop() == Some(true) {
                        events.push(TraceEvent::span_end(pid, track, ns));
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        let id = SpanId {
            pass: 0,
            run: None,
            level: None,
        };
        rec.begin("outer", PASS_TRACK, id);
        rec.span("inner", PASS_TRACK, id, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span("probe", PROBE_TRACK, id, || ());
        rec.end(PASS_TRACK);
        let spans = rec.span_times();
        let outer = spans.iter().find(|s| s.name == "outer").expect("closed");
        let inner = spans.iter().find(|s| s.name == "inner").expect("closed");
        assert!(inner.dur_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.dur_ns);
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        let events = rec.trace_events(4, "w", 1);
        let begins = events.iter().filter(|e| e.phase == abv_obs::Phase::Begin);
        let ends = events.iter().filter(|e| e.phase == abv_obs::Phase::End);
        assert_eq!(begins.count(), 3);
        assert_eq!(ends.count(), 3);
        assert!(rec.trace_events(4, "w", 0).len() == 3, "only metadata");
    }
}
