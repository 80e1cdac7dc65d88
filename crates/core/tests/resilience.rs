//! Integration tests for resilient cell execution and the crash-safe
//! run journal:
//!
//! * a flaky cell (panics once, succeeds on retry) recovers without
//!   surfacing a failure,
//! * a cell that exhausts its retry budget is quarantined — recorded
//!   with its failure class and attempt count, and skipped (not
//!   re-run) if submitted again,
//! * a hung cell (`--inject-hang` hook) is cancelled by the per-cell
//!   watchdog within a bounded wall-clock and classified `timed_out`,
//! * arming the journal in resume mode replays completed cells without
//!   re-simulating, and the replayed run's CSVs are byte-identical,
//! * journal replay is idempotent under arbitrary truncation of the
//!   journal file (proptest),
//! * a one-byte flip, insertion or deletion anywhere in a journal or a
//!   cache entry never panics and never yields rows that were not
//!   written (proptest).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use isol_bench::experiments::fig4;
use isol_bench::journal::{parse_journal, render_header, render_record, Header, Record};
use isol_bench::{cache, journal, run_cells, runner, Cell, Fidelity, OutputSink};
use proptest::prelude::*;

/// Watchdog deadlines, retry budget, injection hooks, and the journal
/// are process-global, so tests that touch them must not interleave.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

/// Restores every process-global knob this suite touches, so a failing
/// assertion cannot leak a watchdog or quarantine into other tests.
struct ResilienceGuard;

impl Drop for ResilienceGuard {
    fn drop(&mut self) {
        runner::set_watchdog(None, None);
        runner::set_cell_retries(1);
        runner::set_retry_backoff(Duration::from_millis(50));
        runner::set_inject_hang(None);
        runner::set_inject_panic(None);
        runner::set_jobs(0);
        runner::reset_resilience();
        let _ = runner::take_failures();
        journal::disarm();
        cache::set_mode(cache::CacheMode::Off);
    }
}

fn arm_defaults() -> ResilienceGuard {
    runner::set_watchdog(None, None);
    runner::set_cell_retries(1);
    runner::set_retry_backoff(Duration::from_millis(1));
    runner::set_inject_hang(None);
    runner::set_inject_panic(None);
    runner::reset_resilience();
    let _ = runner::take_failures();
    journal::disarm();
    cache::set_mode(cache::CacheMode::Off);
    ResilienceGuard
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isol-bench-res-it-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn flaky_cell_recovers_on_retry() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    runner::set_cell_retries(2);
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    CALLS.store(0, Ordering::SeqCst);
    let cell = Cell::from_fn("res", "res-flaky", || {
        if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient failure (first attempt only)");
        }
        vec![vec![42.0]]
    });
    let results = run_cells(vec![cell]);
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].as_ref().expect("cell must recover on retry")[0][0],
        42.0
    );
    assert_eq!(CALLS.load(Ordering::SeqCst), 2, "exactly one retry");
    let stats = runner::resilience_stats();
    assert!(stats.retries >= 1, "retry must be counted");
    assert!(stats.quarantined.is_empty(), "a recovered cell is clean");
    assert!(
        runner::take_failures().is_empty(),
        "a recovered cell must not surface a failure"
    );
}

#[test]
fn exhausted_retries_quarantine_the_label() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    runner::set_cell_retries(1);
    let doomed = Cell::from_fn("res", "res-doomed", || {
        panic!("always fails");
    });
    let results = run_cells(vec![doomed]);
    assert_eq!(results, vec![None]);
    let fails = runner::take_failures();
    assert_eq!(fails.len(), 1);
    assert_eq!(fails[0].label, "res-doomed");
    assert_eq!(fails[0].class, runner::FailureClass::Panic);
    assert_eq!(fails[0].attempts, 2, "initial attempt + one retry");
    assert!(runner::resilience_stats()
        .quarantined
        .contains(&"res-doomed".to_owned()));

    // A quarantined label is skipped outright — even if the task would
    // now succeed, it must not run.
    static RAN: AtomicUsize = AtomicUsize::new(0);
    RAN.store(0, Ordering::SeqCst);
    let retried = Cell::from_fn("res", "res-doomed", || {
        RAN.fetch_add(1, Ordering::SeqCst);
        vec![vec![1.0]]
    });
    let results = run_cells(vec![retried]);
    assert_eq!(results, vec![None], "quarantined cell yields no result");
    assert_eq!(
        RAN.load(Ordering::SeqCst),
        0,
        "quarantined task must not run"
    );
    let fails = runner::take_failures();
    assert_eq!(fails.len(), 1);
    assert_eq!(fails[0].attempts, 0, "a skip consumes no attempts");
}

#[test]
fn watchdog_cancels_a_hung_cell_within_bound() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let soft = Duration::from_millis(60);
    runner::set_watchdog(Some(soft), Some(Duration::from_millis(500)));
    runner::set_cell_retries(0);
    runner::set_inject_hang(Some("res-hang"));
    let hung = Cell::from_fn("res", "res-hang", || vec![vec![1.0]]);
    let healthy = Cell::from_fn("res", "res-ok", || vec![vec![2.0]]);
    let started = Instant::now();
    let results = run_cells(vec![hung, healthy]);
    let elapsed = started.elapsed();
    assert_eq!(results.len(), 2);
    assert!(results[0].is_none(), "hung cell must be cancelled");
    assert_eq!(
        results[1].as_ref().expect("healthy cell unaffected")[0][0],
        2.0
    );
    // The hang would spin forever; only the watchdog bounds it. Allow
    // generous slack over the soft deadline for scheduler noise.
    assert!(
        elapsed < soft + Duration::from_secs(10),
        "watchdog must bound the hang (took {elapsed:?})"
    );
    let fails = runner::take_failures();
    let hung_fail = fails
        .iter()
        .find(|f| f.label == "res-hang")
        .expect("hung cell recorded");
    assert_eq!(hung_fail.class, runner::FailureClass::TimedOut);
    let stats = runner::resilience_stats();
    assert!(stats.watchdog_soft >= 1, "soft deadline must have fired");
    assert!(stats.quarantined.contains(&"res-hang".to_owned()));
}

/// Runs the fig4 smoke grid, returning every emitted CSV as
/// `name -> bytes`.
fn fig4_csvs(tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = temp_dir(&format!("out-{tag}"));
    runner::set_jobs(2);
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    fig4::run(Fidelity::Smoke, &mut sink).expect("fig4 run");
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn journal_resume_replays_cells_byte_identically() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let journal_dir = temp_dir("journal");
    // Cold run with an armed fresh journal (cache stays off: the
    // journal alone must carry the resume).
    let summary = journal::arm(&journal_dir, false, "smoke").expect("arm fresh");
    assert!(summary.fresh);
    assert_eq!(summary.replayable, 0);
    let cold = fig4_csvs("journal-cold");
    assert!(runner::take_failures().is_empty(), "cold run must be clean");

    // Resume: every completed cell replays from the journal.
    let summary = journal::arm(&journal_dir, true, "smoke").expect("arm resume");
    assert!(!summary.fresh, "matching journal must not be discarded");
    assert!(summary.replayable > 0);
    let resumed = fig4_csvs("journal-resume");
    assert_eq!(
        journal::resumed_count(),
        summary.replayable,
        "every journaled cell must replay"
    );
    assert_eq!(cold, resumed, "resumed CSVs must be byte-identical");

    // A fidelity mismatch discards the journal instead of replaying
    // stale rows.
    let summary = journal::arm(&journal_dir, true, "standard").expect("arm mismatched");
    assert!(summary.fresh, "mismatched header must start fresh");
    assert_eq!(summary.replayable, 0);
    fs::remove_dir_all(&journal_dir).ok();
}

/// Deterministic journal content derived from a seed list: completed
/// cells, some with awkward labels (quotes, backslashes, newlines), and
/// bit-pattern floats. ASCII only, so any byte offset is a valid
/// truncation point.
fn journal_fixture(seeds: &[u64]) -> (Header, Vec<Record>, String) {
    let header = Header {
        salt: 0xABCD_EF01_2345_6789,
        fidelity: "smoke".to_owned(),
    };
    let mut text = render_header(&header);
    let mut records = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let label = if s % 5 == 0 {
            format!("cell-{i} \"{s}\" \\ tail\nsecond line")
        } else {
            format!("cell-{i}")
        };
        let v = f64::from_bits(s);
        let v = if v.is_nan() { 0.0 } else { v };
        let rec = Record::Cell {
            fp: format!("{s:032x}"),
            experiment: "fig4".to_owned(),
            label,
            outcome: "miss".to_owned(),
            rows: vec![vec![v, -1.5], vec![], vec![(i as f64) * 0.125]],
        };
        text.push_str(&render_record(&rec));
        records.push(rec);
    }
    assert!(text.is_ascii(), "fixture must allow arbitrary byte cuts");
    (header, records, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating the journal at ANY byte yields a clean prefix of the
    /// original records (never garbage, never an error), and replaying
    /// that prefix — re-rendering and re-parsing it — is idempotent.
    /// This is the property that makes `--resume` after SIGKILL safe.
    #[test]
    fn journal_replay_is_idempotent_under_truncation(
        seeds in proptest::collection::vec(0u64..=u64::MAX, 0..12),
        cut_frac in 0.0f64..=1.0,
    ) {
        let (header, records, text) = journal_fixture(&seeds);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = ((text.len() as f64) * cut_frac) as usize;
        let cut = cut.min(text.len());
        let (h, parsed, durable) = parse_journal(&text[..cut]);

        // The parsed records are exactly a prefix of what was written.
        prop_assert!(parsed.len() <= records.len());
        prop_assert_eq!(&parsed[..], &records[..parsed.len()]);
        // Records are only reachable through a complete, valid header.
        if h.is_none() {
            prop_assert!(parsed.is_empty());
        } else {
            prop_assert_eq!(h.as_ref(), Some(&header));
        }
        // A cut inside record k loses records k.. but nothing before.
        if cut == text.len() {
            prop_assert_eq!(parsed.len(), records.len());
        }

        // Idempotence: re-render the durable prefix and re-parse it.
        let mut round = h.as_ref().map(render_header).unwrap_or_default();
        for rec in &parsed {
            round.push_str(&render_record(rec));
        }
        // The durable length covers exactly those bytes: what a resumed
        // run keeps before it appends.
        prop_assert_eq!(&round[..], &text[..durable]);
        let (h2, parsed2, _) = parse_journal(&round);
        prop_assert_eq!(h2, h);
        prop_assert_eq!(parsed2, parsed);
    }
}

/// Applies one byte mutation at `at % len`: 0 flips the byte (XOR with
/// `byte`, forced non-zero), 1 inserts `byte` before it, 2 deletes it.
fn mutate(bytes: &[u8], op: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % bytes.len();
    match op {
        0 => out[at] ^= byte.max(1),
        1 => out.insert(at, byte),
        _ => {
            out.remove(at);
        }
    }
    out
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One mutated byte in a journal loses at most the record it lands
    /// in and everything after it: the parsed records are a prefix of
    /// the written ones that keeps every record before the mutation,
    /// and the header comes back only if the mutation missed it.
    /// Mutations stay ASCII: the resume path reads the file as UTF-8
    /// and starts fresh on anything else.
    #[test]
    fn journal_byte_mutation_keeps_a_durable_prefix(
        seeds in proptest::collection::vec(0u64..=u64::MAX, 1..8),
        op in 0u8..3,
        at in 0usize..1_000_000,
        byte in 0u8..0x80,
    ) {
        let (header, records, text) = journal_fixture(&seeds);
        let mutated = mutate(text.as_bytes(), op, at, byte);
        let at = at % text.len();
        let mutated = String::from_utf8(mutated).expect("ASCII in, ASCII out");
        let (h, parsed, _) = parse_journal(&mutated);

        prop_assert!(parsed.len() <= records.len());
        prop_assert_eq!(&parsed[..], &records[..parsed.len()]);
        let header_len = render_header(&header).len();
        if at < header_len {
            prop_assert!(h.as_ref() != Some(&header), "mutated header accepted");
            prop_assert!(h.is_some() || parsed.is_empty());
        } else {
            prop_assert_eq!(h.as_ref(), Some(&header));
            // Every record that ends before the mutation survives.
            let mut end = header_len;
            let intact = records
                .iter()
                .take_while(|r| {
                    end += render_record(r).len();
                    end <= at
                })
                .count();
            prop_assert!(parsed.len() >= intact, "lost a record before the mutation");
        }
    }

    /// One mutated byte in a stored cache entry is a miss or a hit on
    /// the identical rows, bit for bit — never a panic, never other
    /// rows.
    #[test]
    fn cache_entry_byte_mutation_is_a_miss_or_identical(
        op in 0u8..3,
        at in 0usize..1_000_000,
        byte in 0u8..=255,
        seed in 0u64..=u64::MAX,
    ) {
        let dir = temp_dir("cache-fuzz");
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let rows = vec![vec![f64::from_bits(seed), nan], vec![], vec![-0.0, 0.1 + 0.2]];
        let spec = format!("fuzz/cell-{seed}\nfidelity=Smoke\n\"quoted\" \\ spec");
        cache::store_rows(&dir, &spec, &rows).expect("store");
        let path = cache::entry_path(&dir, &spec);
        let good = fs::read(&path).expect("stored entry");
        fs::write(&path, mutate(&good, op, at, byte)).expect("write mutated");
        if let Some(back) = cache::load_rows(&dir, &spec) {
            prop_assert_eq!(bits(&back), bits(&rows));
        }
        fs::remove_dir_all(&dir).ok();
    }
}
