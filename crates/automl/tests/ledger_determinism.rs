//! Ledger determinism: the search emits the same multiset of ledger
//! lines whether it trains candidates on 1 thread or 4, so sorting the
//! lines yields byte-identical content. This is the contract that makes
//! the ledger both diffable across machines and a correctness oracle
//! for the parallel training path (`aml_telemetry::ledger` module docs).
//!
//! An integration test (own process) because it installs a global
//! telemetry sink; the library tests of the involved crates keep their
//! global state behind their own locks.

use aml_automl::ModelFamily;
use aml_dataset::{split::train_test_split, synth, Dataset};
use aml_telemetry::sink::{self, Sink};
use aml_telemetry::{LedgerEvent, Snapshot};
use std::sync::Mutex;

/// Captures ledger lines in memory.
struct CollectingLedger {
    lines: Mutex<Vec<String>>,
}

impl Sink for CollectingLedger {
    fn on_ledger_event(&self, event: &LedgerEvent) {
        self.lines.lock().unwrap().push(event.to_json_line());
    }
    fn wants_ledger(&self) -> bool {
        true
    }
    fn finish(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
        Ok(())
    }
    fn target(&self) -> String {
        "collector".into()
    }
}

struct Fwd(&'static CollectingLedger);

impl Sink for Fwd {
    fn on_ledger_event(&self, e: &LedgerEvent) {
        self.0.on_ledger_event(e)
    }
    fn wants_ledger(&self) -> bool {
        true
    }
    fn finish(&self, s: &Snapshot) -> std::io::Result<()> {
        self.0.finish(s)
    }
    fn target(&self) -> String {
        self.0.target()
    }
}

fn splits() -> (Dataset, Dataset) {
    let ds = synth::two_moons(300, 0.2, 5).unwrap();
    train_test_split(&ds, 0.25, true, 1).unwrap()
}

/// Run a successive-halving search with `parallelism` threads and return
/// the ledger lines it emitted.
fn ledger_lines_of_run(train: &Dataset, val: &Dataset, parallelism: usize) -> Vec<String> {
    let collector = Box::leak(Box::new(CollectingLedger {
        lines: Mutex::new(Vec::new()),
    }));
    sink::install(Box::new(Fwd(collector)));
    run_search_strategy(train, val, parallelism);
    for (target, result) in sink::finish(&Snapshot::default()) {
        assert!(result.is_ok(), "finish({target}) failed");
    }
    std::mem::take(&mut collector.lines.lock().unwrap())
}

fn run_search_strategy(train: &Dataset, val: &Dataset, parallelism: usize) {
    aml_automl::search::run_search(
        aml_automl::SearchStrategy::SuccessiveHalving,
        12,
        &ModelFamily::ALL,
        train,
        val,
        7,
        parallelism,
        &aml_automl::SearchLimits::default(),
    )
    .expect("search succeeds");
}

#[test]
fn ledger_is_identical_across_thread_counts() {
    let (train, val) = splits();

    let mut one = ledger_lines_of_run(&train, &val, 1);
    let mut four = ledger_lines_of_run(&train, &val, 4);

    assert!(
        !one.is_empty(),
        "the search must emit ledger events when a ledger sink is installed"
    );
    assert!(
        one.iter().any(|l| l.contains("\"type\":\"trial_started\"")),
        "expected trial_started lines"
    );
    assert!(
        one.iter()
            .any(|l| l.contains("\"type\":\"trial_finished\"")),
        "expected trial_finished lines"
    );
    // Every trial_started line carries the typed params map.
    assert!(
        one.iter()
            .filter(|l| l.contains("\"type\":\"trial_started\""))
            .all(|l| l.contains("\"params\":{")),
        "trial_started lines must carry typed params"
    );
    // Exactly one search_space line per run (the gate resets when the
    // sinks finish, so both runs of this process get their own).
    for lines in [&one, &four] {
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"search_space\""))
                .count(),
            1,
            "expected exactly one search_space line per run"
        );
    }

    // Same multiset of lines: sorting makes the content byte-identical.
    one.sort();
    four.sort();
    assert_eq!(
        one, four,
        "ledger content must not depend on the thread count"
    );
}
