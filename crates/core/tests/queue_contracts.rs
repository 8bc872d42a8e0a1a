//! Contract tests added alongside the `swque-mc` model checker
//! (see `crates/mc` and DESIGN.md §12): the checker enforces these
//! properties exhaustively at small scopes, and these randomized tests
//! drive the same contracts at production scopes.
//!
//! * `has_ready` ⇔ a nonzero-budget select grants, per kind, per cycle
//!   (two select passes for the two-cycle scan organizations).
//! * `arch_key` (the checker's state identity) is equal for equal
//!   architectural states — lockstep drives, the same drive at other
//!   absolute seqs, drives differing only in statistics, waiter-table
//!   layout or monotone totals — separates unequal ones, renames stale
//!   seqs, and no host-parallelism knob (`SWQUE_THREADS`, a worker
//!   thread) moves it.
//! * `clone_into` (the model checker's in-place fork) forks exactly what
//!   `clone_box` forks, into any destination.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test code: the woken-tag sets are probed, never iterated, and the key \
              test sets SWQUE_THREADS to prove the knob does not move the state"
)]

use std::collections::HashSet;

use swque_rng::prop::{check, Gen};

use swque_core::cycle::CycleStamp;
use swque_core::{
    ArchKey, DispatchReq, Grant, IntervalMetrics, IqConfig, IqKind, IqMode, IssueBudget,
    IssueQueue, RandomQueue, ShiftQueue, SwqueController, SwqueParams, Tag,
};
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
        0 => {
            Op::Dispatch { wait_tag: g.option(|g| g.gen_range(1u16..24)), fu: g.gen_range(0u8..4) }
        }
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
/// dispatcher's scoreboard would; returns a select's grants.
fn apply(
    q: &mut Box<dyn IssueQueue>,
    op: &Op,
    seq: &mut u64,
    live: &mut Vec<u64>,
    woken: &mut HashSet<Tag>,
) -> Vec<Grant> {
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
            let grants = q.select(&mut budget).to_vec();
            live.retain(|s| grants.iter().all(|g| g.seq != *s));
            return grants;
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
    Vec::new()
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

/// The model checker's renaming, over a live list in seq order: a live
/// seq becomes `BASE + rank`, any other seq ≥ `BASE` the stale marker,
/// and smaller values (a never-used slot's zeroed seq) stay.
const BASE: u64 = 1000;
const STALE: u64 = u64::MAX;

fn renamer(live: &[u64]) -> impl Fn(u64) -> u64 + '_ {
    move |seq| {
        if seq < BASE {
            return seq;
        }
        match live.binary_search(&seq) {
            Ok(rank) => BASE + rank as u64,
            Err(_) => STALE,
        }
    }
}

/// `q`'s key words under the renaming of its live list.
fn key_words(q: &dyn IssueQueue, live: &[u64]) -> Vec<u64> {
    let (rename, mut words) = (renamer(live), Vec::new());
    q.arch_key(&mut ArchKey::new(&mut words, &rename));
    words
}

fn dispatch_ready(q: &mut Box<dyn IssueQueue>, seq: u64) {
    q.dispatch(DispatchReq::new(seq, seq, None, [None, None], FuClass::IntAlu))
        .expect("has_space held");
}

fn empty_select(q: &mut Box<dyn IssueQueue>) {
    let mut budget = IssueBudget::new(2, [2, 2, 2, 2]);
    assert!(q.select(&mut budget).is_empty(), "{}: empty select granted", q.name());
}

/// Lockstep-driven queues get equal keys at every step, and one extra
/// dispatch separates them; driven at different absolute seqs (the same
/// architecture elsewhere in the program), they still get equal keys.
#[test]
fn arch_key_tracks_lockstep_state_at_any_absolute_seq() {
    check(48, |g| {
        let ops: Vec<Op> = g.vec(1..80, random_op);
        let config = IqConfig { capacity: 8, issue_width: 4, ..IqConfig::default() };
        for kind in IqKind::ALL {
            // `a` and `b` in lockstep; `c` the same ops 4000 seqs later
            // (a multiple of the 50-tag destination cycle, so the dst tags
            // match too).
            let mut a = kind.build(&config);
            let mut b = kind.build(&config);
            let mut c = kind.build(&config);
            let (mut seq_a, mut seq_b, mut seq_c) = (BASE, BASE, BASE + 4000);
            let (mut live_a, mut live_b, mut live_c) = (Vec::new(), Vec::new(), Vec::new());
            let mut woken = [HashSet::new(), HashSet::new(), HashSet::new()];
            for op in &ops {
                apply(&mut a, op, &mut seq_a, &mut live_a, &mut woken[0]);
                apply(&mut b, op, &mut seq_b, &mut live_b, &mut woken[1]);
                apply(&mut c, op, &mut seq_c, &mut live_c, &mut woken[2]);
                let key_a = key_words(a.as_ref(), &live_a);
                assert_eq!(key_a, key_words(b.as_ref(), &live_b), "{kind}: lockstep drive");
                assert_eq!(key_a, key_words(c.as_ref(), &live_c), "{kind}: seqs shifted by 4000");
            }
            if a.has_space() {
                dispatch_ready(&mut a, seq_a);
                live_a.push(seq_a);
                assert_ne!(
                    key_words(a.as_ref(), &live_a),
                    key_words(b.as_ref(), &live_b),
                    "{kind}: one extra dispatch must separate the keys"
                );
            }
        }
    });
}

/// Statistics, the waiter table's layout and monotone totals stay out
/// of the key: extra empty selects (stats only), a source woken after
/// dispatch instead of dispatched ready (the table grew) and an extra
/// empty SWQUE interval (totals only) all leave it unchanged.
#[test]
fn arch_key_omits_stats_waiters_and_totals() {
    let config = IqConfig { capacity: 4, issue_width: 2, ..IqConfig::default() };
    for kind in IqKind::ALL {
        let (mut a, mut b) = (kind.build(&config), kind.build(&config));
        for _ in 0..3 {
            empty_select(&mut b);
        }
        a.dispatch(DispatchReq::new(BASE, BASE, None, [Some(5), None], FuClass::IntAlu))
            .expect("space");
        a.wakeup(5);
        dispatch_ready(&mut b, BASE);
        assert_ne!(a.stats(), b.stats(), "{kind}: the drives must differ in stats");
        let live = [BASE];
        assert_eq!(key_words(a.as_ref(), &live), key_words(b.as_ref(), &live), "{kind}");
    }

    // SWQUE: one calm interval (no misses, nothing issued) vs two leaves
    // the controller in CIRC-PC with its base threshold; only the
    // interval totals and the interval counter differ.
    for kind in [IqKind::Swque, IqKind::SwqueMulti] {
        let (mut a, mut b) = (kind.build(&config), kind.build(&config));
        let interval = config.swque.interval_insts;
        let at = CycleStamp::new;
        assert!(!a.poll_mode_switch(at(1), interval, 0));
        assert!(!b.poll_mode_switch(at(1), interval, 0));
        assert!(!b.poll_mode_switch(at(2), interval + interval, 0));
        assert_ne!(a.swque_stats(), b.swque_stats(), "{kind}: the drives must differ");
        assert_eq!(key_words(a.as_ref(), &[]), key_words(b.as_ref(), &[]), "{kind}");
    }
}

/// `select` hands out one queue-owned buffer: a select that grants, an
/// empty select and another granting select all return slices of the
/// same allocation (a fresh `Vec` per call would give the empty select a
/// dangling pointer and regrow on the third). The buffer is scratch: a
/// drained queue whose last select granted and its clone after an empty
/// select have equal keys.
#[test]
fn select_reuses_one_grant_buffer_outside_the_key() {
    let config = IqConfig { capacity: 8, issue_width: 4, ..IqConfig::default() };
    let budget = |n| IssueBudget::new(n, [n; 4]);
    for kind in IqKind::ALL {
        let mut q = kind.build(&config);
        for seq in BASE..BASE + 6 {
            dispatch_ready(&mut q, seq);
        }
        let granted = q.select(&mut budget(3));
        assert_eq!(granted.len(), 3, "{kind}");
        let first = granted.as_ptr() as usize;
        let empty = q.select(&mut budget(0));
        assert!(empty.is_empty(), "{kind}");
        assert_eq!(empty.as_ptr() as usize, first, "{kind}: the empty select kept the buffer");
        let granted = q.select(&mut budget(3));
        assert_eq!((granted.len(), granted.as_ptr() as usize), (3, first), "{kind}: regrew");

        let mut drained = kind.build(&config);
        dispatch_ready(&mut drained, BASE);
        assert_eq!(drained.select(&mut budget(1)).len(), 1, "{kind}");
        let mut emptied = drained.clone();
        empty_select(&mut emptied);
        assert_eq!(key_words(drained.as_ref(), &[]), key_words(emptied.as_ref(), &[]), "{kind}");
    }
}

/// A seq left behind in an invalidated slot becomes the stale marker,
/// and no raw seq ≥ `BASE` ever reaches the key words.
#[test]
fn arch_key_renames_stale_seqs_to_the_marker() {
    let config = IqConfig { capacity: 4, issue_width: 2, ..IqConfig::default() };
    for kind in IqKind::ALL {
        let mut q = kind.build(&config);
        let seqs = [BASE + 37, BASE + 38];
        for seq in seqs {
            dispatch_ready(&mut q, seq);
        }
        let mut budget = IssueBudget::new(1, [1, 1, 1, 1]);
        let issued = q.select(&mut budget);
        assert_eq!(issued.len(), 1, "{kind}");
        let live: Vec<u64> = seqs.into_iter().filter(|&s| s != issued[0].seq).collect();
        let words = key_words(q.as_ref(), &live);
        assert!(words.iter().all(|w| !seqs.contains(w)), "{kind}: a raw seq leaked");
        assert!(words.contains(&BASE), "{kind}: the live seq is rank 0");
        // SHIFT compacts its issued entry away; every slot array keeps it.
        assert_eq!(words.contains(&STALE), kind != IqKind::Shift, "{kind}");
    }
}

/// The controller's key carries the adapted FLPI threshold as f64 bits
/// and the instability counter: identical drives agree, a threshold
/// reduction separates, and a periodic reset (a total moves, the
/// threshold returns to its base) joins again.
#[test]
fn controller_key_tracks_threshold_and_instability() {
    let words = |c: &SwqueController| {
        let (no_seqs, mut words) = (|seq| seq, Vec::new());
        c.arch_key(&mut ArchKey::new(&mut words, &no_seqs));
        words
    };
    let unstable = IntervalMetrics { mpki: 0.0, flpi: 0.05 };
    let calm = IntervalMetrics { mpki: 0.0, flpi: 0.0 };
    let missy = IntervalMetrics { mpki: 2.0, flpi: 0.0 };
    let fresh = SwqueController::new(SwqueParams::default());
    let mut c = fresh.clone();
    c.evaluate(unstable);
    assert_ne!(words(&c), words(&fresh), "instability counter and mode are state");
    let mut twin = fresh.clone();
    twin.evaluate(unstable);
    assert_eq!(words(&c), words(&twin));
    // Two FLPI-driven departures lower the AGE threshold; an MPKI-driven
    // departure reaches the same mode and counter at the base threshold.
    c.evaluate(calm);
    c.evaluate(unstable);
    assert_eq!(c.threshold_reductions(), 1);
    let mut base = fresh.clone();
    base.evaluate(missy);
    assert_eq!((c.mode(), c.instability()), (base.mode(), base.instability()));
    assert_ne!(words(&c), words(&base), "the reduced threshold is state");
    let reset = SwqueParams::default().reset_interval_insts;
    c.maybe_periodic_reset(reset);
    base.maybe_periodic_reset(reset);
    assert_eq!(words(&c), words(&base), "after a reset only the totals differ");
}

/// No host-parallelism knob may move a key: the same queue state keys
/// identically under different `SWQUE_THREADS` settings (the bench
/// harness's worker knob) and from a spawned worker thread.
#[test]
fn arch_key_is_stable_across_thread_settings() {
    fn drive_and_key(kind: IqKind) -> Vec<u64> {
        let config = IqConfig { capacity: 6, issue_width: 2, ..IqConfig::default() };
        let mut q = kind.build(&config);
        let mut live: Vec<u64> = (BASE..BASE + 4).collect();
        for &s in &live {
            q.dispatch(DispatchReq::new(s, s, None, [Some(7), None], FuClass::IntAlu))
                .expect("space");
        }
        q.wakeup(7);
        let mut budget = IssueBudget::new(2, [2, 2, 2, 2]);
        for grant in q.select(&mut budget) {
            live.retain(|&s| s != grant.seq);
        }
        key_words(q.as_ref(), &live)
    }

    for kind in IqKind::ALL {
        let home = drive_and_key(kind);
        for threads in ["1", "8"] {
            std::env::set_var("SWQUE_THREADS", threads);
            assert_eq!(drive_and_key(kind), home, "{kind}: key moved under SWQUE_THREADS");
        }
        std::env::remove_var("SWQUE_THREADS");
        let from_worker = std::thread::spawn(move || drive_and_key(kind)).join().expect("worker");
        assert_eq!(from_worker, home, "{kind}: key moved across threads");
    }
}

/// Everything a fork is compared on before it is driven: key words (seqs
/// unrenamed, since both sides hold the same ones), statistics, mode,
/// occupancy, space and readiness.
fn observables(q: &dyn IssueQueue) -> impl PartialEq + std::fmt::Debug {
    let (same, mut words) = (|seq| seq, Vec::new());
    q.arch_key(&mut ArchKey::new(&mut words, &same));
    (words, q.stats(), q.swque_stats(), q.mode(), q.len(), q.has_space(), q.has_ready())
}

/// `kind` built as the planted-bug variant of the model checker's
/// negative runs, for the kinds that have one.
fn planted(kind: IqKind, config: &IqConfig) -> Option<Box<dyn IssueQueue>> {
    Some(match kind {
        IqKind::Shift => Box::new(ShiftQueue::position_order(config)),
        IqKind::Age => Box::new(RandomQueue::age_youngest_first(config, false)),
        IqKind::AgeMulti => Box::new(RandomQueue::age_youngest_first(config, true)),
        _ => return None,
    })
}

/// `clone_into` is `clone_box` done in place. After every op of a random
/// soup, at capacities 2, 4 and 128, each kind (and each planted-bug
/// variant, whose flags only a copy can carry into a plain queue of its
/// type) is copied into four destinations — a stale fork of the same
/// kind (the previous copy, since driven elsewhere), a queue of another
/// kind, one of the same kind at another capacity and a fresh one — and
/// each copy must match a `clone_box` of the queue on its observables
/// and on the grants of the next 32 ops. The SWQUE kinds start in
/// CIRC-PC mode, with a switch to AGE pending, or in AGE mode.
#[test]
fn clone_into_forks_exactly_what_clone_box_forks() {
    check(12, |g| {
        let ops: Vec<Op> = g.vec(1..40, random_op);
        let next: Vec<Op> = g.vec(32..33, random_op);
        let start = g.gen_range(0u8..3);
        for capacity in [2, 4, 128] {
            let config = IqConfig { capacity, issue_width: 4, ..IqConfig::default() };
            let other = IqConfig { capacity: if capacity == 128 { 4 } else { 128 }, ..config };
            let queues = IqKind::ALL.into_iter().enumerate().flat_map(|(k, kind)| {
                let plain = Some(kind.build(&config));
                [plain, planted(kind, &config)].into_iter().flatten().map(move |q| (k, kind, q))
            });
            for (k, kind, mut q) in queues {
                if start > 0 {
                    // A high-MPKI interval asks SWQUE to switch to AGE.
                    let interval = config.swque.interval_insts;
                    let switching =
                        q.poll_mode_switch(CycleStamp::new(1), interval, interval.get());
                    assert_eq!(switching, q.swque_stats().is_some(), "{kind}");
                    if start == 2 {
                        q.flush();
                        assert_eq!(q.mode() == IqMode::Age, switching, "{kind}");
                    }
                }
                let (mut seq, mut live, mut woken) = (0u64, Vec::new(), HashSet::new());
                let mut stale = kind.build(&config);
                for op in &ops {
                    apply(&mut q, op, &mut seq, &mut live, &mut woken);
                    let dsts = [
                        ("a stale fork", std::mem::replace(&mut stale, kind.build(&config))),
                        ("another kind", IqKind::ALL[(k + 1) % IqKind::ALL.len()].build(&config)),
                        ("another capacity", kind.build(&other)),
                        ("a fresh queue", kind.build(&config)),
                    ];
                    for (what, mut dst) in dsts {
                        q.clone_into(&mut dst);
                        let mut reference = q.clone_box();
                        let at = format!("{} at capacity {capacity}, into {what}", q.name());
                        assert_eq!(observables(&*dst), observables(&*reference), "{at}");
                        let drive = |fork: &mut Box<dyn IssueQueue>| {
                            let (mut seq, mut live, mut woken) = (seq, live.clone(), woken.clone());
                            let grants: Vec<Vec<Grant>> = next
                                .iter()
                                .map(|op| apply(fork, op, &mut seq, &mut live, &mut woken))
                                .collect();
                            (grants, observables(&**fork))
                        };
                        assert_eq!(drive(&mut dst), drive(&mut reference), "{at}, driven");
                        if what == "a stale fork" {
                            stale = dst;
                        }
                    }
                }
            }
        }
    });
}
