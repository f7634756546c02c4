//! Closed-loop clients.
//!
//! Each client thread owns a session and sends its next operation only after
//! the previous one returned, timing every call from outside the engine.
//! Operations are drawn from a shuffled card deck holding each operation in
//! proportion to its mix weight (the card-deck selection TPC-C allows), so
//! every run executes the nominal mix almost exactly.  Independent random
//! draws would let the count of a rare, expensive query (su-htap's Q6 takes
//! most of the analytical client's time) swing by more than 10% between
//! seeds and move the run's figures with it.

use olxpbench::engine::{EngineResult, HybridDatabase, Session};
use olxpbench::framework::{
    AnalyticalQuery, HybridTransaction, OnlineTransaction, TransactionMix, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The client class an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Oltp,
    Hybrid,
    Olap,
}

impl Class {
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Oltp => "oltp",
            Class::Hybrid => "hybrid",
            Class::Olap => "olap",
        }
    }
}

/// One operation template of a workload.
#[derive(Clone)]
pub enum Op {
    Online(Arc<dyn OnlineTransaction>),
    Hybrid(Arc<dyn HybridTransaction>),
    Olap(Arc<dyn AnalyticalQuery>),
}

impl Op {
    pub fn name(&self) -> &str {
        match self {
            Op::Online(t) => t.name(),
            Op::Hybrid(t) => t.name(),
            Op::Olap(q) => q.name(),
        }
    }

    pub fn class(&self) -> Class {
        match self {
            Op::Online(_) => Class::Oltp,
            Op::Hybrid(_) => Class::Hybrid,
            Op::Olap(_) => Class::Olap,
        }
    }

    fn execute(&self, session: &Session, rng: &mut StdRng) -> EngineResult<()> {
        match self {
            Op::Online(t) => t.execute(session, rng),
            Op::Hybrid(t) => t.execute(session, rng),
            Op::Olap(q) => q.execute(session, rng),
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's operation list.
    pub op: usize,
    /// Wall-clock nanoseconds the call took.
    pub nanos: u64,
    /// False when the call returned an error (after the workload's own
    /// retries).
    pub ok: bool,
}

/// Every operation template of `workload`, in a fixed order.
pub fn operations(workload: &dyn Workload) -> Vec<Op> {
    let mut ops: Vec<Op> = Vec::new();
    ops.extend(workload.online_transactions().into_iter().map(Op::Online));
    ops.extend(workload.hybrid_transactions().into_iter().map(Op::Hybrid));
    ops.extend(workload.analytical_queries().into_iter().map(Op::Olap));
    ops
}

/// Deck of operation indices for one client class: each operation of the
/// class appears in proportion to its weight in `mix` (analytical queries
/// weigh 1 each), reduced by the weights' greatest common divisor.
pub fn deck(ops: &[Op], class: Class, mix: &TransactionMix) -> Vec<usize> {
    let weighted: Vec<(usize, u32)> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.class() == class)
        .map(|(i, op)| {
            let w = if class == Class::Olap {
                1
            } else {
                mix.weight_of(op.name())
            };
            (i, w)
        })
        .filter(|&(_, w)| w > 0)
        .collect();
    let gcd = weighted.iter().fold(0, |g, &(_, w)| gcd(g, w)).max(1);
    weighted
        .iter()
        .flat_map(|&(i, w)| std::iter::repeat_n(i, (w / gcd) as usize))
        .collect()
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Run one closed-loop client per deck until `duration` has passed.  Returns
/// the elapsed wall-clock time and each client's samples.
pub fn run(
    db: &Arc<HybridDatabase>,
    ops: &[Op],
    decks: &[Vec<usize>],
    seed: u64,
    duration: Duration,
) -> (Duration, Vec<Vec<Sample>>) {
    let started = Instant::now();
    let deadline = started + duration;
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = decks
            .iter()
            .enumerate()
            .map(|(client, cards)| {
                let session = db.session();
                let mut cards = cards.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(client as u64),
                    );
                    let mut samples = Vec::new();
                    let mut next = cards.len();
                    while Instant::now() < deadline {
                        if next == cards.len() {
                            shuffle(&mut cards, &mut rng);
                            next = 0;
                        }
                        let op = cards[next];
                        next += 1;
                        let call = Instant::now();
                        let ok = ops[op].execute(&session, &mut rng).is_ok();
                        let nanos = call.elapsed().as_nanos() as u64;
                        samples.push(Sample { op, nanos, ok });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (started.elapsed(), samples)
}

/// Fisher–Yates shuffle.
fn shuffle(cards: &mut [usize], rng: &mut StdRng) {
    for i in (1..cards.len()).rev() {
        let j = rng.gen_range(0..=i);
        cards.swap(i, j);
    }
}
