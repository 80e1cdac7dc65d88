//! `paper_grid`: the smoke-fidelity grids Table I is derived from.
//!
//! The experiments stage their cells, the cells run one at a time
//! through the library's resilient runner with the cell cache and the
//! run journal on (in a directory of the pass's own, empty at the
//! start), and the finish steps and `table1::derive` reduce the rows:
//! the cells, cache and journal of `figures --jobs 1 --shards 1 table1`,
//! with one runner call per cell so that each cell gets its own span.

use std::collections::BTreeMap;
use std::path::Path;

use isol_bench::cell::FinishFn;
use isol_bench::experiments::{fig3, fig4, fig5, fig6, fig7, q10, table1};
use isol_bench::{cache, journal, runner, Cell, CellRows, Fidelity, OutputSink, Staged};

use crate::spans::Spans;
use crate::{digest, Config, Metric, Pass};

const FIDELITY: Fidelity = Fidelity::Smoke;

/// The committed fig4 goldens the pass's CSVs must equal byte for byte.
const GOLDENS: [(&str, &str); 2] = [
    (
        "fig4_bandwidth_cpu_1ssd.csv",
        include_str!("../../crates/core/tests/golden/fig4_bandwidth_cpu_1ssd.csv"),
    ),
    (
        "fig4_bandwidth_cpu_7ssd.csv",
        include_str!("../../crates/core/tests/golden/fig4_bandwidth_cpu_7ssd.csv"),
    ),
];

/// One experiment's slice of the batch and its typed finish step.
struct Staging<R> {
    name: &'static str,
    range: std::ops::Range<usize>,
    finish: FinishFn<R>,
}

fn stage<R>(
    spans: &mut Spans,
    batch: &mut Vec<Cell>,
    name: &'static str,
    make: impl FnOnce(Fidelity) -> Staged<R>,
) -> Staging<R> {
    let staged = spans.time(&format!("stage:{name}"), None, || make(FIDELITY));
    let (cells, finish) = staged.into_parts();
    let start = batch.len();
    batch.extend(cells);
    Staging {
        name,
        range: start..batch.len(),
        finish,
    }
}

/// Runs a finish step in a `reduce` span; a step that fails marks its
/// experiment's cells failed.
fn finish<R>(
    s: Staging<R>,
    results: &[Option<CellRows>],
    sink: &mut OutputSink,
    spans: &mut Spans,
    failed: &mut std::collections::BTreeSet<usize>,
) -> Option<R> {
    let slice = results[s.range.clone()].to_vec();
    let out = spans.time(&format!("reduce:{}", s.name), None, || {
        (s.finish)(slice, sink)
    });
    match out {
        Ok(r) => Some(r),
        Err(_) => {
            failed.extend(s.range);
            None
        }
    }
}

/// Times the staging of every experiment (scenario and hierarchy
/// construction for all cells) without running anything.
#[must_use]
pub fn setup(cfg: &Config) -> f64 {
    let mut spans = Spans::new();
    let mut batch = Vec::new();
    stage(&mut spans, &mut batch, "fig3", fig3::stage);
    stage(&mut spans, &mut batch, "fig4", fig4::stage);
    if !cfg.quick {
        stage(&mut spans, &mut batch, "fig5", fig5::stage);
        stage(&mut spans, &mut batch, "fig6", fig6::stage);
        stage(&mut spans, &mut batch, "fig7", fig7::stage);
        stage(&mut spans, &mut batch, "q10", q10::stage);
    }
    spans.total("stage")
}

/// One pass over the grid (fig3 and fig4 only when `cfg.quick`).
///
/// # Errors
///
/// Fails when the pass's cache, journal or CSV directory cannot be
/// created.
pub fn pass(cfg: &Config, dir: &Path) -> Result<Pass, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let csv_dir = dir.join("csv");
    let mut csv_sink = OutputSink::with_dir(&csv_dir).map_err(io)?;
    let mut quiet = OutputSink::quiet();
    cache::set_dir(dir.join("cache"));
    cache::set_mode(cache::CacheMode::ReadWrite);
    cache::reset_stats();
    runner::reset_resilience();

    let mut spans = Spans::new();
    let whole = spans.open("pass", None);
    journal::arm(&dir.join("journal"), false, "smoke").map_err(io)?;
    let mut batch = Vec::new();
    let s3 = stage(&mut spans, &mut batch, "fig3", fig3::stage);
    let s4 = stage(&mut spans, &mut batch, "fig4", fig4::stage);
    let rest = (!cfg.quick).then(|| {
        (
            stage(&mut spans, &mut batch, "fig5", fig5::stage),
            stage(&mut spans, &mut batch, "fig6", fig6::stage),
            stage(&mut spans, &mut batch, "fig7", fig7::stage),
            stage(&mut spans, &mut batch, "q10", q10::stage),
        )
    });

    let mut ranges: Vec<(&str, std::ops::Range<usize>)> =
        vec![(s3.name, s3.range.clone()), (s4.name, s4.range.clone())];
    if let Some((s5, s6, s7, sq)) = &rest {
        ranges.extend([
            (s5.name, s5.range.clone()),
            (s6.name, s6.range.clone()),
            (s7.name, s7.range.clone()),
            (sq.name, sq.range.clone()),
        ]);
    }
    let mut labels = Vec::with_capacity(batch.len());
    let mut results: Vec<Option<CellRows>> = Vec::with_capacity(batch.len());
    let mut failed = std::collections::BTreeSet::new();
    for (i, cell) in batch.into_iter().enumerate() {
        labels.push(cell.label().to_owned());
        let out = spans.time("cell", Some(i), || isol_bench::run_cells(vec![cell]));
        if !runner::take_failures().is_empty() {
            failed.insert(i);
        }
        results.push(out.into_iter().next().flatten());
    }

    let f3 = finish(s3, &results, &mut quiet, &mut spans, &mut failed);
    let fig4_range = s4.range.clone();
    let f4 = finish(s4, &results, &mut csv_sink, &mut spans, &mut failed);
    let mut extra = Vec::new();
    if let Some((s5, s6, s7, sq)) = rest {
        let f5 = finish(s5, &results, &mut quiet, &mut spans, &mut failed);
        let f6 = finish(s6, &results, &mut quiet, &mut spans, &mut failed);
        let f7 = finish(s7, &results, &mut quiet, &mut spans, &mut failed);
        let q = finish(sq, &results, &mut quiet, &mut spans, &mut failed);
        if let (Some(f3), Some(f4), Some(f5), Some(f6), Some(f7), Some(q)) =
            (&f3, &f4, f5, f6, f7, q)
        {
            let t1 = spans.time("reduce:table1", None, || {
                table1::derive(f3, f4, &f5, &f6, &f7, &q, FIDELITY)
            });
            extra = verdict_metrics(&t1);
        }
    }
    journal::disarm();
    spans.close(whole);
    cache::set_mode(cache::CacheMode::Off);

    // --- output checks and digests (outside the timed pass) ---
    for (name, golden) in GOLDENS {
        let got = std::fs::read_to_string(csv_dir.join(name)).unwrap_or_default();
        if got != golden {
            failed.extend(fig4_range.clone());
        }
    }
    failed.extend(
        results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| i),
    );
    let seconds: BTreeMap<String, f64> = cache::take_cell_stats()
        .into_iter()
        .map(|c| (c.label, c.seconds))
        .collect();
    let cell_spans = spans.durations("cell");
    let cell_s: Vec<f64> = labels
        .iter()
        .zip(&cell_spans)
        .map(|(l, &span)| seconds.get(l).copied().unwrap_or(span))
        .collect();
    // Per-experiment cell time: the successor of the runtime table in
    // EXPERIMENTS.md.
    extra.extend(ranges.into_iter().map(|(name, r)| {
        Metric::new(&format!("experiment_s.{name}"), cell_s[r].iter().sum(), "s")
    }));
    let cells = labels
        .into_iter()
        .zip(&results)
        .map(|(l, r)| (l, r.as_deref().map_or(0, digest::rows)))
        .collect();
    Ok(Pass {
        run_s: cell_s.iter().sum(),
        spans,
        cells,
        cell_s,
        failed,
        sim: None,
        extra,
        ..Pass::default()
    })
}

/// Table I agreement: verdict cells (5 knobs × D1–D4) and whole rows
/// equal to the paper's.
fn verdict_metrics(t1: &table1::Table1Result) -> Vec<Metric> {
    let mut cells = 0usize;
    let mut rows = 0usize;
    for r in &t1.rows {
        let Some(paper) = table1::paper_verdicts(r.knob) else {
            continue;
        };
        let ours = [r.overhead, r.fairness, r.tradeoffs, r.bursts];
        let same = ours.iter().zip(&paper).filter(|(a, b)| a == b).count();
        cells += same;
        rows += usize::from(same == 4);
    }
    vec![
        Metric::new("paper_verdicts_matched", cells as f64, "count"),
        Metric::new("table1_rows_matched", rows as f64, "count"),
    ]
}
