//! Contract tests added alongside the `swque-mc` model checker
//! (see `crates/mc` and DESIGN.md §12): the checker enforces these
//! properties exhaustively at small scopes, and these randomized tests
//! drive the same contracts at production scopes.
//!
//! * `has_ready` ⇔ a nonzero-budget select grants, per kind, per cycle
//!   (two select passes for the two-cycle scan organizations).
//! * `state_digest` equality tracks `Debug`-render equality, and no
//!   host-parallelism knob (worker threads, `SWQUE_THREADS`) moves it.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test code: the woken-tag sets are probed, never iterated, and the digest \
              test sets SWQUE_THREADS to prove the knob does not move the state"
)]

use std::collections::HashSet;

use swque_rng::prop::{check, Gen};

use swque_core::{DispatchReq, IqConfig, IqKind, IssueBudget, IssueQueue, Tag};
use swque_isa::FuClass;

#[derive(Debug, Clone)]
enum Op {
    Dispatch { wait_tag: Option<Tag>, fu: u8 },
    Wakeup(Tag),
    Select { width: u8 },
    SquashTail { keep_frac: u8 },
    Flush,
}

fn random_op(g: &mut Gen) -> Op {
    match g.weighted(&[4, 3, 3, 1, 1]) {
        0 => Op::Dispatch {
            wait_tag: g.option(|g| g.gen_range(1u16..24)),
            fu: g.gen_range(0u8..4),
        },
        1 => Op::Wakeup(g.gen_range(1u16..24)),
        2 => Op::Select { width: g.gen_range(1u8..5) },
        3 => Op::SquashTail { keep_frac: g.gen_range(0u8..8) },
        _ => Op::Flush,
    }
}

fn fu_of(i: u8) -> FuClass {
    match i % 4 {
        0 => FuClass::IntAlu,
        1 => FuClass::IntMulDiv,
        2 => FuClass::LdSt,
        _ => FuClass::Fpu,
    }
}

/// Select passes `has_ready` is allowed to look ahead of: the CIRC-PC
/// scan (and the SWQUE organizations that embed it) grants a freshly
/// woken wrap-around entry only on the second pass.
fn scan_passes(kind: IqKind) -> usize {
    match kind {
        IqKind::CircPc | IqKind::Swque | IqKind::SwqueMulti => 2,
        _ => 1,
    }
}

/// Applies `op`, mirroring liveness in `woken`/`live` the way the
/// dispatcher's scoreboard would.
fn apply(
    q: &mut Box<dyn IssueQueue>,
    op: &Op,
    seq: &mut u64,
    live: &mut Vec<u64>,
    woken: &mut HashSet<Tag>,
) {
    match op {
        Op::Dispatch { wait_tag, fu } => {
            let tag = wait_tag.filter(|t| !woken.contains(t));
            if q.has_space() {
                q.dispatch(DispatchReq::new(
                    *seq,
                    *seq,
                    Some(200 + (*seq % 50) as Tag),
                    [tag, None],
                    fu_of(*fu),
                ))
                .expect("has_space held");
                live.push(*seq);
                *seq += 1;
            }
        }
        Op::Wakeup(tag) => {
            q.wakeup(*tag);
            woken.insert(*tag);
        }
        Op::Select { width } => {
            let w = *width as usize;
            let mut budget = IssueBudget::new(w, [w, w, w, w]);
            for grant in q.select(&mut budget) {
                live.retain(|&s| s != grant.seq);
            }
        }
        Op::SquashTail { keep_frac } => {
            live.sort_unstable();
            let keep = live.len() * (*keep_frac as usize) / 8;
            let cut = live.get(keep.saturating_sub(1)).copied().unwrap_or(0);
            q.squash_younger(cut);
            live.retain(|&s| s <= cut);
        }
        Op::Flush => {
            q.flush();
            live.clear();
        }
    }
}

/// `has_ready` is documented as "a nonzero-budget select could grant":
/// drive the two against each other after every operation, on a clone so
/// the probe never perturbs the queue under test. Wrap-around and
/// post-squash states arrive via the random soup.
#[test]
fn has_ready_and_select_stay_in_lockstep() {
    check(64, |g| {
        let ops: Vec<Op> = g.vec(1..100, random_op);
        let config = IqConfig { capacity: 8, issue_width: 4, ..IqConfig::default() };
        for kind in IqKind::ALL {
            let mut q = kind.build(&config);
            let mut seq = 0u64;
            let mut live: Vec<u64> = Vec::new();
            let mut woken: HashSet<Tag> = HashSet::new();
            for op in &ops {
                apply(&mut q, op, &mut seq, &mut live, &mut woken);
                let mut probe = q.clone_box();
                let mut granted = 0usize;
                for _ in 0..scan_passes(kind) {
                    let mut budget = IssueBudget::new(4, [4, 4, 4, 4]);
                    granted += probe.select(&mut budget).len();
                }
                if q.has_ready() {
                    assert!(
                        granted >= 1,
                        "{kind}: has_ready() but {} scan pass(es) granted nothing\n{q:?}",
                        scan_passes(kind)
                    );
                } else {
                    assert_eq!(granted, 0, "{kind}: grant without has_ready()\n{q:?}");
                }
            }
        }
    });
}

/// Digest equality ⇔ `Debug`-render equality: two identically driven
/// instances agree at every step, and a single extra dispatch separates
/// both the render and the digest.
#[test]
fn state_digest_tracks_debug_render_equality() {
    check(48, |g| {
        let ops: Vec<Op> = g.vec(1..80, random_op);
        let config = IqConfig { capacity: 8, issue_width: 4, ..IqConfig::default() };
        for kind in IqKind::ALL {
            let mut a = kind.build(&config);
            let mut b = kind.build(&config);
            let (mut seq_a, mut seq_b) = (0u64, 0u64);
            let (mut live_a, mut live_b) = (Vec::new(), Vec::new());
            let (mut woken_a, mut woken_b) = (HashSet::new(), HashSet::new());
            for op in &ops {
                apply(&mut a, op, &mut seq_a, &mut live_a, &mut woken_a);
                apply(&mut b, op, &mut seq_b, &mut live_b, &mut woken_b);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{kind}: lockstep drive");
                assert_eq!(a.state_digest(), b.state_digest(), "{kind}: equal render, equal digest");
            }
            if a.has_space() {
                a.dispatch(DispatchReq::new(seq_a, seq_a, None, [None, None], FuClass::IntAlu))
                    .expect("has_space held");
                assert_ne!(format!("{a:?}"), format!("{b:?}"), "{kind}: dispatch shows in Debug");
                assert_ne!(a.state_digest(), b.state_digest(), "{kind}: digest separates states");
            }
        }
    });
}

/// No host-parallelism knob may move a digest: the same queue state
/// digests identically under different `SWQUE_THREADS` settings (the
/// bench harness's worker knob) and from a spawned worker thread.
#[test]
fn state_digest_is_stable_across_thread_settings() {
    fn drive_and_digest(kind: IqKind) -> u64 {
        let config = IqConfig { capacity: 6, issue_width: 2, ..IqConfig::default() };
        let mut q = kind.build(&config);
        for s in 0..4u64 {
            q.dispatch(DispatchReq::new(s, s, None, [Some(7), None], FuClass::IntAlu))
                .expect("space");
        }
        q.wakeup(7);
        let mut budget = IssueBudget::new(2, [2, 2, 2, 2]);
        let _ = q.select(&mut budget);
        q.state_digest()
    }

    for kind in IqKind::ALL {
        let home = drive_and_digest(kind);
        for threads in ["1", "8"] {
            std::env::set_var("SWQUE_THREADS", threads);
            assert_eq!(drive_and_digest(kind), home, "{kind}: digest moved under SWQUE_THREADS");
        }
        std::env::remove_var("SWQUE_THREADS");
        let from_worker =
            std::thread::spawn(move || drive_and_digest(kind)).join().expect("worker");
        assert_eq!(from_worker, home, "{kind}: digest moved across threads");
    }
}
