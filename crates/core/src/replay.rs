//! The `swque-mc-replay-v1` counterexample grammar.
//!
//! When the `swque-mc` model checker finds a property violation it shrinks
//! the violating event sequence and emits it as a **replay string**: a
//! single line that is self-contained — target, configuration, injected
//! mutation, expected property, and the event trace — so a `#[test]` can
//! re-execute the exact counterexample against the real queue forever. The
//! grammar lives here in `swque-core` (next to the event vocabulary it
//! serializes) so the checker, the committed replay corpus, and
//! `check_json` all parse with one implementation.
//!
//! # Grammar
//!
//! ```text
//! replay  := "swque-mc-replay-v1" " kind=" target " cap=" int " width=" int
//!            " inject=" name-or-dash " expect=" name-or-dash " events=" events
//! target  := an IqKind label (e.g. "CIRC-PC") | "CTRL"
//! events  := "-" (empty trace) | event ("," event)*
//! event   := "d" src "." src             dispatch; src := tag int | "-" (ready)
//!          | "w" tag                     wakeup broadcast of a tag
//!          | "s" int                     select with issue width int
//!          | "q" int                     squash_younger(seq)
//!          | "f"                         flush
//!          | "p" int ":" int             poll_mode_switch(retired, llc_misses)
//!          | "i" int                     idle_tick(cycles)
//!          | "e" int ":" int             controller interval: mpki/flpi in
//!                                        milli-units (500:10 = MPKI 0.5, FLPI 0.010)
//!          | "r" int                     controller periodic-reset probe at
//!                                        a retired-instruction total
//! ```
//!
//! Field order is fixed, separators are single spaces, and
//! [`Replay::render`] is the canonical form: `parse(render(r)) == r` for
//! every representable value, which the property tests pin.
//!
//! Example:
//!
//! ```
//! use swque_core::replay::Replay;
//!
//! let text = "swque-mc-replay-v1 kind=CIRC-PC cap=4 width=1 inject=- expect=- \
//!             events=d-.-,d0.-,s1,w0,s1,q1,f";
//! let replay = Replay::parse(text).unwrap();
//! assert_eq!(replay.capacity, 4);
//! assert_eq!(replay.events.len(), 7);
//! assert_eq!(replay.render(), text.replace("             ", " "));
//! ```

use std::fmt;

use crate::queue::IqKind;
use crate::types::Tag;

/// The leading magic every replay string starts with.
pub const REPLAY_MAGIC: &str = "swque-mc-replay-v1";

/// One event of a replay trace. The first seven drive an
/// [`IssueQueue`](crate::IssueQueue); the last two drive the SWQUE
/// controller as a standalone transition system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Dispatch one instruction waiting on the given source tags (`None`
    /// = that operand is already ready). Sequence numbers, payloads, and
    /// destination tags are assigned by the replay executor (seq = the
    /// running dispatch count), which is what makes traces self-contained.
    Dispatch {
        /// Source operand tags still being waited on.
        srcs: [Option<Tag>; 2],
    },
    /// Broadcast a completed tag.
    Wakeup(Tag),
    /// Run one select cycle with this issue width (all FUs free).
    Select {
        /// Issue width for this cycle's budget.
        width: usize,
    },
    /// Squash every entry younger than this sequence number.
    SquashYounger(u64),
    /// Pipeline flush.
    Flush,
    /// Offer the queue a mode-switch poll with these running totals.
    Poll {
        /// Retired-instruction total at the poll.
        retired: u64,
        /// LLC demand-miss total at the poll.
        misses: u64,
    },
    /// Replay idle cycles in bulk.
    IdleTick(u64),
    /// Controller target only: one interval evaluation with MPKI/FLPI in
    /// milli-units (`mpki_milli = 500` is an MPKI of 0.5).
    Interval {
        /// Misses-per-kilo-instruction, scaled by 1000.
        mpki_milli: u32,
        /// Low-priority-issue fraction, scaled by 1000.
        flpi_milli: u32,
    },
    /// Controller target only: a periodic-reset probe at a
    /// retired-instruction total.
    Reset(u64),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let src = |s: Option<Tag>| match s {
            Some(t) => t.to_string(),
            None => "-".to_string(),
        };
        match self {
            Event::Dispatch { srcs } => write!(f, "d{}.{}", src(srcs[0]), src(srcs[1])),
            Event::Wakeup(t) => write!(f, "w{t}"),
            Event::Select { width } => write!(f, "s{width}"),
            Event::SquashYounger(seq) => write!(f, "q{seq}"),
            Event::Flush => write!(f, "f"),
            Event::Poll { retired, misses } => write!(f, "p{retired}:{misses}"),
            Event::IdleTick(cycles) => write!(f, "i{cycles}"),
            Event::Interval { mpki_milli, flpi_milli } => write!(f, "e{mpki_milli}:{flpi_milli}"),
            Event::Reset(insts) => write!(f, "r{insts}"),
        }
    }
}

/// What a replay drives: a queue organization or the SWQUE controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayTarget {
    /// An issue-queue organization.
    Queue(IqKind),
    /// The mode controller as a standalone transition system.
    Controller,
}

impl ReplayTarget {
    /// The `kind=` field value.
    pub fn label(&self) -> &'static str {
        match self {
            ReplayTarget::Queue(kind) => kind.label(),
            ReplayTarget::Controller => "CTRL",
        }
    }
}

/// A parsed replay: one minimized, self-contained counterexample (or
/// regression trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// What the trace drives.
    pub target: ReplayTarget,
    /// Queue capacity (0 for the controller target).
    pub capacity: usize,
    /// Issue width (0 for the controller target).
    pub width: usize,
    /// Named mutation the executor must inject before replaying, or
    /// `None` (`inject=-`) for the clean tree. Names are interpreted by
    /// the `swque-mc` harness (e.g. `circ-pc-no-correct`).
    pub inject: Option<String>,
    /// Property this trace is expected to violate, or `None` (`expect=-`)
    /// for a trace that must replay clean.
    pub expect: Option<String>,
    /// The event trace.
    pub events: Vec<Event>,
}

/// A replay parse failure: what was wrong and roughly where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayParseError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for ReplayParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ReplayParseError {}

fn err(message: impl Into<String>) -> ReplayParseError {
    ReplayParseError { message: message.into() }
}

/// Strips `prefix=` from `field` or errors naming the expected field.
fn field<'a>(field: Option<&'a str>, key: &str) -> Result<&'a str, ReplayParseError> {
    let text = field.ok_or_else(|| err(format!("missing `{key}=` field")))?;
    text.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| err(format!("expected `{key}=…`, got `{text}`")))
}

fn parse_num<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, ReplayParseError> {
    text.parse().map_err(|_| err(format!("{what}: `{text}` is not a valid number")))
}

fn parse_src(text: &str) -> Result<Option<Tag>, ReplayParseError> {
    if text == "-" {
        Ok(None)
    } else {
        parse_num(text, "dispatch source tag").map(Some)
    }
}

fn parse_pair(text: &str, what: &str) -> Result<(u64, u64), ReplayParseError> {
    let (a, b) = text
        .split_once(':')
        .ok_or_else(|| err(format!("{what}: expected `<int>:<int>`, got `{text}`")))?;
    Ok((parse_num(a, what)?, parse_num(b, what)?))
}

fn parse_event(text: &str) -> Result<Event, ReplayParseError> {
    let Some(head) = text.chars().next() else {
        return Err(err("empty event"));
    };
    let rest = &text[head.len_utf8()..];
    match head {
        'd' => {
            let (a, b) = rest
                .split_once('.')
                .ok_or_else(|| err(format!("dispatch: expected two sources in `{text}`")))?;
            Ok(Event::Dispatch { srcs: [parse_src(a)?, parse_src(b)?] })
        }
        'w' => Ok(Event::Wakeup(parse_num(rest, "wakeup tag")?)),
        's' => Ok(Event::Select { width: parse_num(rest, "select width")? }),
        'q' => Ok(Event::SquashYounger(parse_num(rest, "squash seq")?)),
        'f' if rest.is_empty() => Ok(Event::Flush),
        'p' => {
            let (retired, misses) = parse_pair(rest, "poll totals")?;
            Ok(Event::Poll { retired, misses })
        }
        'i' => Ok(Event::IdleTick(parse_num(rest, "idle cycles")?)),
        'e' => {
            let (mpki, flpi) = parse_pair(rest, "interval metrics")?;
            let clamp = |v: u64, what: &str| {
                u32::try_from(v).map_err(|_| err(format!("{what} out of range in `{text}`")))
            };
            Ok(Event::Interval {
                mpki_milli: clamp(mpki, "mpki_milli")?,
                flpi_milli: clamp(flpi, "flpi_milli")?,
            })
        }
        'r' => Ok(Event::Reset(parse_num(rest, "reset insts")?)),
        _ => Err(err(format!("unknown event `{text}`"))),
    }
}

fn parse_name(text: &str) -> Option<String> {
    (text != "-").then(|| text.to_string())
}

impl Replay {
    /// Parses a replay string.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayParseError`] describing the first malformed field
    /// or event.
    pub fn parse(text: &str) -> Result<Replay, ReplayParseError> {
        let mut parts = text.split_whitespace();
        match parts.next() {
            Some(REPLAY_MAGIC) => {}
            other => {
                return Err(err(format!(
                    "replay must start with `{REPLAY_MAGIC}`, got `{}`",
                    other.unwrap_or("")
                )))
            }
        }
        let kind_text = field(parts.next(), "kind")?;
        let target = if kind_text == "CTRL" {
            ReplayTarget::Controller
        } else {
            ReplayTarget::Queue(IqKind::from_label(kind_text).ok_or_else(|| {
                err(format!("kind: `{kind_text}` is neither an IqKind label nor `CTRL`"))
            })?)
        };
        let capacity = parse_num(field(parts.next(), "cap")?, "cap")?;
        let width = parse_num(field(parts.next(), "width")?, "width")?;
        let inject = parse_name(field(parts.next(), "inject")?);
        let expect = parse_name(field(parts.next(), "expect")?);
        let events_text = field(parts.next(), "events")?;
        if let Some(extra) = parts.next() {
            return Err(err(format!("unexpected trailing field `{extra}`")));
        }
        let mut events = Vec::new();
        if events_text != "-" {
            for ev in events_text.split(',') {
                let event = parse_event(ev)?;
                let ctrl_event = matches!(event, Event::Interval { .. } | Event::Reset(_));
                if ctrl_event != (target == ReplayTarget::Controller) {
                    return Err(err(format!(
                        "event `{ev}` does not belong to target `{}`",
                        target.label()
                    )));
                }
                events.push(event);
            }
        }
        Ok(Replay { target, capacity, width, inject, expect, events })
    }

    /// The canonical single-line text form; `parse(render()) == self`.
    pub fn render(&self) -> String {
        let name = |n: &Option<String>| n.clone().unwrap_or_else(|| "-".to_string());
        let events = if self.events.is_empty() {
            "-".to_string()
        } else {
            self.events.iter().map(Event::to_string).collect::<Vec<_>>().join(",")
        };
        format!(
            "{REPLAY_MAGIC} kind={} cap={} width={} inject={} expect={} events={}",
            self.target.label(),
            self.capacity,
            self.width,
            name(&self.inject),
            name(&self.expect),
            events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_renders_a_queue_replay() {
        let text = "swque-mc-replay-v1 kind=CIRC-PC cap=4 width=2 inject=circ-pc-no-correct \
                    expect=pc-age-ordered events=d-.-,d0.1,w0,s2,w1,s1,q0,f,p10000:42,i3";
        let r = Replay::parse(text).unwrap();
        assert_eq!(r.target, ReplayTarget::Queue(IqKind::CircPc));
        assert_eq!((r.capacity, r.width), (4, 2));
        assert_eq!(r.inject.as_deref(), Some("circ-pc-no-correct"));
        assert_eq!(r.expect.as_deref(), Some("pc-age-ordered"));
        assert_eq!(r.events.len(), 10);
        assert_eq!(r.events[0], Event::Dispatch { srcs: [None, None] });
        assert_eq!(r.events[1], Event::Dispatch { srcs: [Some(0), Some(1)] });
        assert_eq!(r.events[8], Event::Poll { retired: 10_000, misses: 42 });
        assert_eq!(Replay::parse(&r.render()), Ok(r));
    }

    #[test]
    fn parses_a_controller_replay_and_an_empty_trace() {
        let text = "swque-mc-replay-v1 kind=CTRL cap=0 width=0 inject=controller-no-stabilize \
                    expect=ctrl-instability-reduction events=e0:50,e0:50,r1000000";
        let r = Replay::parse(text).unwrap();
        assert_eq!(r.target, ReplayTarget::Controller);
        assert_eq!(r.events[0], Event::Interval { mpki_milli: 0, flpi_milli: 50 });
        assert_eq!(r.events[2], Event::Reset(1_000_000));
        assert_eq!(Replay::parse(&r.render()), Ok(r));

        let empty = Replay::parse(
            "swque-mc-replay-v1 kind=SHIFT cap=2 width=1 inject=- expect=- events=-",
        )
        .unwrap();
        assert!(empty.events.is_empty() && empty.inject.is_none() && empty.expect.is_none());
        assert_eq!(Replay::parse(&empty.render()), Ok(empty));
    }

    #[test]
    fn rejects_malformed_replays_with_named_errors() {
        // Deliberately malformed traces are assembled with `format!`, so
        // every string literal that carries the magic prefix is a
        // well-formed trace, parsed by the test that holds it.
        let m = REPLAY_MAGIC;
        let cases = [
            (String::new(), "must start with"),
            ("swque-mc-replay-v2 kind=CIRC cap=2 width=1 inject=- expect=- events=-".into(), "start"),
            (format!("{m} cap=2"), "kind"),
            (format!("{m} kind=NOPE cap=2 width=1 inject=- expect=- events=-"), "NOPE"),
            (format!("{m} kind=CIRC cap=x width=1 inject=- expect=- events=-"), "cap"),
            (format!("{m} kind=CIRC cap=2 width=1 inject=- expect=- events=z9"), "unknown"),
            (format!("{m} kind=CIRC cap=2 width=1 inject=- expect=- events=d0"), "two"),
            (format!("{m} kind=CIRC cap=2 width=1 inject=- expect=- events=p7"), "poll"),
            (format!("{m} kind=CIRC cap=2 width=1 inject=- expect=- events=e1:2"), "does not belong"),
            (format!("{m} kind=CTRL cap=0 width=0 inject=- expect=- events=s1"), "does not belong"),
            (format!("{m} kind=CIRC cap=2 width=1 inject=- expect=- events=- x=1"), "trailing"),
        ];
        for (text, needle) in cases {
            let e = Replay::parse(&text).expect_err(&text);
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn every_queue_kind_round_trips_through_the_kind_field() {
        for kind in IqKind::ALL {
            let r = Replay {
                target: ReplayTarget::Queue(kind),
                capacity: 4,
                width: 2,
                inject: None,
                expect: None,
                events: vec![Event::Select { width: 2 }],
            };
            assert_eq!(Replay::parse(&r.render()), Ok(r));
        }
    }
}
