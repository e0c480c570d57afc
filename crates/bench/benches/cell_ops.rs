//! Micro-benchmark of a cell's connection registry under hand-off churn:
//! each iteration takes a random connection out of one cell and inserts it
//! into the other, as `attempt_handoff` does, with the cells holding 60
//! or 100 connections (a paper-ring cell under AC3 holds about 80). The
//! `handoff` rows keep no arrival index, as under the static guard band
//! and NS; the `handoff_indexed` rows keep one in each cell, as once a
//! predictive scheme has evaluated `B_i,0` there.
//!
//! Before timing, 2,000 steps of the same churn are checked against a
//! `BTreeMap` model of each cell: lookups, id-ordered iteration, the
//! arrival index's contents and `check_invariants`.

use std::collections::BTreeMap;

use qres_cellnet::{Bandwidth, Cell, CellId, ConnInfo, ConnectionId};
use qres_des::{SimTime, StreamRng};
use qres_microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// Two adjacent cells trading connections.
struct Churn {
    cells: [Cell; 2],
    /// Each cell's connection ids, to pick one at random.
    ids: [Vec<ConnectionId>; 2],
    rng: StreamRng,
    now: f64,
    /// The cell the next hand-off leaves.
    from: usize,
}

impl Churn {
    /// `conns` one-BU connections per cell, ids dealt alternately, in
    /// cells of `conns + 1` BUs, so a hand-off in always fits.
    fn new(conns: usize, indexed: bool) -> Self {
        let capacity = Bandwidth::from_bus(conns as u32 + 1);
        let mut cells = [0, 1].map(|i| Cell::new(CellId(i), capacity));
        let mut ids = [Vec::new(), Vec::new()];
        for j in 0..2 * conns {
            let id = ConnectionId(j as u64);
            cells[j % 2]
                .insert(ConnInfo {
                    id,
                    bandwidth: Bandwidth::from_bus(1),
                    prev: None,
                    entered_at: SimTime::from_secs(j as f64 * 0.01),
                    known_next: None,
                })
                .expect("fits");
            ids[j % 2].push(id);
        }
        if indexed {
            for cell in &mut cells {
                cell.arrivals();
            }
        }
        Churn {
            cells,
            ids,
            rng: StreamRng::seed_from_u64(0xCE11),
            now: 2.0 * conns as f64 * 0.01,
            from: 0,
        }
    }

    /// One hand-off from `self.from` to the other cell; returns the
    /// record removed and the record inserted.
    fn step(&mut self) -> (ConnInfo, ConnInfo) {
        let (from, to) = (self.from, 1 - self.from);
        self.from = to;
        self.now += 0.01;
        let pick = self.rng.gen_index(self.ids[from].len());
        let id = self.ids[from].swap_remove(pick);
        let left = self.cells[from].remove(id).expect("present");
        let info = ConnInfo {
            prev: Some(CellId(from as u32)),
            entered_at: SimTime::from_secs(self.now),
            ..left
        };
        self.cells[to].insert(info).expect("fits");
        self.ids[to].push(id);
        (left, info)
    }
}

/// Panics unless `cell` agrees with `model` in every way a reader sees.
fn assert_matches(cell: &mut Cell, model: &BTreeMap<ConnectionId, ConnInfo>, step: usize) {
    assert!(cell.check_invariants(), "step {step}: invariants");
    assert!(cell.connections().eq(model.values()), "step {step}: order");
    for (id, info) in model {
        assert_eq!(cell.get(*id), Some(info), "step {step}: get {id:?}");
    }
    let mut indexed: Vec<ConnInfo> = cell
        .arrivals()
        .groups()
        .flat_map(|g| {
            g.arrivals.iter().map(move |a| ConnInfo {
                id: a.id,
                bandwidth: a.bandwidth,
                prev: g.prev,
                entered_at: a.entered_at,
                known_next: g.known_next,
            })
        })
        .collect();
    indexed.sort_by_key(|c| c.id);
    assert!(indexed.iter().eq(model.values()), "step {step}: index");
}

/// Runs 2,000 steps of `Churn::new(conns, indexed)`, checking both cells
/// after each.
fn check_against_model(conns: usize, indexed: bool) {
    let mut churn = Churn::new(conns, indexed);
    let mut models: [BTreeMap<ConnectionId, ConnInfo>; 2] =
        [0, 1].map(|i| churn.cells[i].connections().map(|c| (c.id, *c)).collect());
    for step in 0..2_000 {
        let from = churn.from;
        let (left, moved) = churn.step();
        assert_eq!(models[from].remove(&left.id), Some(left), "step {step}");
        assert!(churn.cells[from].get(left.id).is_none(), "step {step}");
        models[1 - from].insert(moved.id, moved);
        // The index check builds an arrival index, so an unindexed churn
        // is checked on clones.
        for (cell, model) in churn.cells.iter().zip(&models) {
            let mut cell = cell.clone();
            assert_matches(&mut cell, model, step);
        }
    }
}

fn bench_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("cell_ops");
    for (label, indexed) in [("handoff", false), ("handoff_indexed", true)] {
        for conns in [60usize, 100] {
            check_against_model(conns, indexed);
            let mut churn = Churn::new(conns, indexed);
            group.bench_with_input(BenchmarkId::new(label, conns), &conns, |b, _| {
                b.iter(|| black_box(churn.step()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_handoff);
criterion_main!(benches);
