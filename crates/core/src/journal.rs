//! Crash-safe run journal: append-only JSONL progress log + resume.
//!
//! A `figures` run is a grid of pure, seeded cells; losing the process
//! (SIGKILL, OOM) should not lose the grid's progress. When the harness
//! arms the journal ([`arm`]), every completed cell appends one
//! self-checksummed JSONL line recording its **spec fingerprint** (the
//! same content-addressed key as [`crate::cache`]), its experiment and
//! label, its outcome token, and its result rows in the exact hex-bits
//! codec the cache uses. That is everything `--resume` reads; failed
//! cells are not journaled (they simply run again on resume, and
//! `failures.json` carries their class, attempts and message).
//!
//! # Crash safety
//!
//! The file is append-only and each line is written with a single
//! `write_all` and flushed before the cell's result is considered
//! durable; a SIGKILL can at worst tear the final line. The parser
//! treats a truncated or corrupt **tail** line as a clean end of
//! journal ([`parse_journal`] stops there), so a killed run resumes
//! from its last durable cell. Every line additionally carries an
//! FNV-1a checksum over its own payload, so a torn line can never be
//! mistaken for a complete one. Before a resumed run appends, the file
//! is cut back to its durable prefix, so a torn tail never glues onto
//! the resumed run's first record (which would hide every record after
//! it from the next resume).
//!
//! # Resume byte-identity
//!
//! `figures --resume` loads the journal and, for each staged cell whose
//! fingerprint has a durable `cell` line, returns the journaled rows
//! without simulating — bit-exact, because rows round-trip through
//! [`serde::rows`]'s `f64::to_bits` hex codec — and reports the
//! *journaled* outcome token in the per-cell telemetry. Every
//! downstream step (finish closures, CSV emission) is a deterministic
//! function of the rows, so a resumed run's CSVs and `timings.json`
//! cell outcomes are byte-identical to an uninterrupted run's. Cells
//! with no durable line (including previously failed ones) simply run.
//! The experiment and label are checked on replay as a safety net over
//! the fingerprint.
//!
//! The header line pins the engine salt and fidelity; a journal written
//! by a different engine version or fidelity is discarded on resume
//! rather than replayed (same invalidation bar as the cell cache).
//! Traced cells bypass the journal entirely — their trace files are a
//! side effect of actually running.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use simcore::fnv1a_64;

/// Default journal directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/isol-bench/journal";

/// Journal-format magic; bump the `v` on layout changes.
const MAGIC: &str = "isol-bench-run v2";

/// The journal file under `dir`.
#[must_use]
pub fn file_path(dir: &Path) -> PathBuf {
    dir.join("run.jsonl")
}

/// The journal header: engine salt + fidelity pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Engine salt the run was keyed under (see [`crate::cache`]).
    pub salt: u64,
    /// Fidelity token (`smoke`, `standard`, `full`).
    pub fidelity: String,
}

/// One durable journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed cell: fingerprint, identity, outcome token, and
    /// bit-exact result rows.
    Cell {
        /// 32-hex spec fingerprint (the cache key).
        fp: String,
        /// Owning experiment.
        experiment: String,
        /// Cell label (scenario name).
        label: String,
        /// Cache outcome token the original run reported.
        outcome: String,
        /// Result rows.
        rows: Vec<Vec<f64>>,
    },
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on malformed escapes.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'u' => {
                let hex: String = (0..4).map(|_| chars.next()).collect::<Option<_>>()?;
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Reads one `"key":"<string>"` field, returning (value, rest).
fn take_str<'a>(rest: &'a str, key: &str) -> Option<(String, &'a str)> {
    let rest = rest.strip_prefix(&format!("\"{key}\":\""))?;
    // Scan for the closing unescaped quote.
    let mut end = None;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            end = Some(i);
            break;
        }
    }
    let end = end?;
    Some((unescape(&rest[..end])?, &rest[end + 1..]))
}

/// Renders the header line.
#[must_use]
pub fn render_header(header: &Header) -> String {
    format!(
        "{{\"journal\":\"{MAGIC}\",\"salt\":\"{:016x}\",\"fidelity\":\"{}\"}}\n",
        header.salt,
        escape(&header.fidelity)
    )
}

/// Strict parse of the header line (without trailing newline).
#[must_use]
pub fn parse_header(line: &str) -> Option<Header> {
    let rest = line.strip_prefix("{\"journal\":\"")?;
    let rest = rest.strip_prefix(MAGIC)?.strip_prefix("\",")?;
    let (salt_hex, rest) = take_str(rest, "salt")?;
    // Only the canonical rendering: a case-flipped or zero-padded salt
    // must not read as the same header.
    let canonical = salt_hex.len() == 16
        && salt_hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !canonical {
        return None;
    }
    let salt = u64::from_str_radix(&salt_hex, 16).ok()?;
    let rest = rest.strip_prefix(',')?;
    let (fidelity, rest) = take_str(rest, "fidelity")?;
    (rest == "}").then_some(Header { salt, fidelity })
}

/// Renders one record as a checksummed JSONL line (with trailing
/// newline). The `ck` field is FNV-1a over everything before it, so a
/// torn write can never parse as complete.
#[must_use]
pub fn render_record(record: &Record) -> String {
    let Record::Cell {
        fp,
        experiment,
        label,
        outcome,
        rows,
    } = record;
    let body = format!(
        "{{\"cell\":\"{}\",\"experiment\":\"{}\",\"label\":\"{}\",\"outcome\":\"{}\",\"rows\":\"{}\"",
        escape(fp),
        escape(experiment),
        escape(label),
        escape(outcome),
        escape(&serde::rows::encode_rows(rows)),
    );
    format!("{body},\"ck\":\"{:016x}\"}}\n", fnv1a_64(body.as_bytes()))
}

/// Strict parse of one record line (without trailing newline); `None`
/// on any anomaly — wrong shape, bad escape, checksum mismatch,
/// trailing garbage.
#[must_use]
pub fn parse_record(line: &str) -> Option<Record> {
    // Verify the checksum over the body prefix first; everything after
    // it must be exactly the ck field and the closing brace.
    let ck_at = line.rfind(",\"ck\":\"")?;
    let (body, tail) = line.split_at(ck_at);
    let ck_hex = tail.strip_prefix(",\"ck\":\"")?.strip_suffix("\"}")?;
    if u64::from_str_radix(ck_hex, 16).ok()? != fnv1a_64(body.as_bytes()) {
        return None;
    }
    let rest = body.strip_prefix('{')?;
    let (fp, rest) = take_str(rest, "cell")?;
    let rest = rest.strip_prefix(',')?;
    let (experiment, rest) = take_str(rest, "experiment")?;
    let rest = rest.strip_prefix(',')?;
    let (label, rest) = take_str(rest, "label")?;
    let rest = rest.strip_prefix(',')?;
    let (outcome, rest) = take_str(rest, "outcome")?;
    let rest = rest.strip_prefix(',')?;
    let (rows_text, rest) = take_str(rest, "rows")?;
    if !rest.is_empty() {
        return None;
    }
    let rows = serde::rows::decode_rows(&rows_text)?;
    Some(Record::Cell {
        fp,
        experiment,
        label,
        outcome,
        rows,
    })
}

/// Parses a whole journal text: the header (if valid), every durable
/// record, and the byte length of that durable prefix (newlines
/// included). Parsing stops at the first malformed line — a SIGKILL can
/// tear only the tail, so a bad line *is* the end of the journal, not
/// an error. The returned records are exactly the durable prefix;
/// replaying them is idempotent under any truncation point of the file
/// (the resilience proptest asserts this).
#[must_use]
pub fn parse_journal(text: &str) -> (Option<Header>, Vec<Record>, usize) {
    let mut lines = text.split_inclusive('\n');
    // The header must be a complete line (trailing newline present).
    let Some((first, header)) = lines
        .next()
        .and_then(|l| Some((l, parse_header(l.strip_suffix('\n')?)?)))
    else {
        return (None, Vec::new(), 0);
    };
    let mut durable = first.len();
    let mut records = Vec::new();
    for line in lines {
        // A line without its newline is a torn tail: clean EOF.
        let Some(rec) = line.strip_suffix('\n').and_then(parse_record) else {
            break;
        };
        durable += line.len();
        records.push(rec);
    }
    (Some(header), records, durable)
}

/// A journaled completed cell, keyed for replay.
#[derive(Debug, Clone)]
struct ReplayCell {
    experiment: String,
    label: String,
    outcome: String,
    rows: Vec<Vec<f64>>,
}

#[derive(Debug)]
struct Armed {
    file: fs::File,
    replay: BTreeMap<String, ReplayCell>,
    resumed: usize,
}

static STATE: Mutex<Option<Armed>> = Mutex::new(None);

fn state() -> std::sync::MutexGuard<'static, Option<Armed>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// What [`arm`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmSummary {
    /// Durable completed-cell records loaded for replay (0 unless
    /// resuming).
    pub replayable: usize,
    /// Whether an existing journal was discarded (missing, wrong
    /// header, or `resume == false`).
    pub fresh: bool,
}

/// Arms the journal at `file_path(dir)`.
///
/// With `resume == false` (a fresh run) any existing journal is
/// truncated and a new header written. With `resume == true` the
/// existing journal is loaded — if its header matches the current
/// engine salt and `fidelity`, its completed cells become replayable,
/// the file is cut back to its durable prefix (dropping a torn tail),
/// and new records append after them; otherwise the journal is
/// discarded and the run starts fresh.
///
/// # Errors
///
/// Propagates filesystem failures creating or opening the journal.
pub fn arm(dir: &Path, resume: bool, fidelity: &str) -> std::io::Result<ArmSummary> {
    fs::create_dir_all(dir)?;
    let path = file_path(dir);
    let header = Header {
        salt: crate::cache::active_salt(),
        fidelity: fidelity.to_owned(),
    };
    let mut replay = BTreeMap::new();
    let mut durable = None;
    if resume {
        if let Ok(text) = fs::read_to_string(&path) {
            let (found, records, len) = parse_journal(&text);
            if found.as_ref() == Some(&header) {
                durable = Some(len);
                for Record::Cell {
                    fp,
                    experiment,
                    label,
                    outcome,
                    rows,
                } in records
                {
                    replay.insert(
                        fp,
                        ReplayCell {
                            experiment,
                            label,
                            outcome,
                            rows,
                        },
                    );
                }
            }
        }
    }
    let fresh = durable.is_none();
    let file = if let Some(len) = durable {
        // Cut a torn tail away before appending: glued onto it, the
        // first resumed record would fail its checksum and hide every
        // later record from the next resume.
        let f = fs::OpenOptions::new().append(true).open(&path)?;
        f.set_len(len as u64)?;
        f
    } else {
        let mut f = fs::File::create(&path)?;
        f.write_all(render_header(&header).as_bytes())?;
        f.flush()?;
        f
    };
    let replayable = replay.len();
    *state() = Some(Armed {
        file,
        replay,
        resumed: 0,
    });
    Ok(ArmSummary { replayable, fresh })
}

/// Disarms the journal (tests; a process normally stays armed to exit).
pub fn disarm() {
    *state() = None;
}

/// Whether the journal is armed.
#[must_use]
pub fn armed() -> bool {
    state().is_some()
}

/// Cells answered from the journal since [`arm`].
#[must_use]
pub fn resumed_count() -> usize {
    state().as_ref().map_or(0, |a| a.resumed)
}

/// Looks up a replayable completed cell by fingerprint. The experiment
/// and label must also match (belt over the fingerprint's suspenders).
/// Returns the journaled `(rows, outcome token)`.
#[must_use]
pub fn replay(fp: &str, experiment: &str, label: &str) -> Option<(Vec<Vec<f64>>, String)> {
    let mut guard = state();
    let armed = guard.as_mut()?;
    let cell = armed.replay.get(fp)?;
    if cell.experiment != experiment || cell.label != label {
        return None;
    }
    armed.resumed += 1;
    Some((cell.rows.clone(), cell.outcome.clone()))
}

/// Appends a completed cell (no-op unless armed). Called by the cache
/// layer after a cell's rows are in hand.
pub fn record_cell(fp: &str, experiment: &str, label: &str, outcome: &str, rows: &[Vec<f64>]) {
    let mut guard = state();
    let Some(armed) = guard.as_mut() else {
        return;
    };
    let line = render_record(&Record::Cell {
        fp: fp.to_owned(),
        experiment: experiment.to_owned(),
        label: label.to_owned(),
        outcome: outcome.to_owned(),
        rows: rows.to_vec(),
    });
    // One write_all per line + flush: a crash tears at most this line,
    // and the checksum keeps a torn line from ever parsing.
    if armed.file.write_all(line.as_bytes()).is_ok() {
        let _ = armed.file.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(fp: &str, rows: Vec<Vec<f64>>) -> Record {
        Record::Cell {
            fp: fp.to_owned(),
            experiment: "fig4".to_owned(),
            label: format!("fig4-{fp}"),
            outcome: "off".to_owned(),
            rows,
        }
    }

    #[test]
    fn records_round_trip() {
        let awkward = Record::Cell {
            fp: "c3".to_owned(),
            experiment: "fig4".to_owned(),
            label: "fig4-x \"quoted\" \\ tail\nline".to_owned(),
            outcome: "miss".to_owned(),
            rows: vec![vec![0.1 + 0.2]],
        };
        let recs = vec![
            cell("a1", vec![vec![1.5, f64::INFINITY], vec![-0.0]]),
            awkward,
            cell("b2", vec![]),
        ];
        for r in &recs {
            let line = render_record(r);
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one line per record");
            let back = parse_record(line.trim_end_matches('\n')).expect("parses");
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            salt: 0x1505_1955_0000_0001,
            fidelity: "smoke".to_owned(),
        };
        let line = render_header(&h);
        assert_eq!(parse_header(line.trim_end()).as_ref(), Some(&h));
        // Non-canonical salts (upper case, zero-padded) are rejected.
        let h = Header {
            salt: 0xabcd_ef01_2345_6789,
            ..h
        };
        let line = render_header(&h);
        assert_eq!(parse_header(line.trim_end()).as_ref(), Some(&h));
        let upper = line.replace("abcdef", "ABCDEF");
        assert!(parse_header(upper.trim_end()).is_none());
        let padded = line.replace("\"abcd", "\"0abcd");
        assert!(parse_header(padded.trim_end()).is_none());
    }

    #[test]
    fn corrupt_lines_fail_closed() {
        let line = render_record(&cell("c", vec![vec![3.0]]));
        let line = line.trim_end();
        assert!(parse_record(line).is_some());
        // Any single-byte truncation must fail.
        for cut in [0, 1, line.len() / 2, line.len() - 1] {
            assert!(parse_record(&line[..cut]).is_none(), "cut at {cut}");
        }
        // A flipped payload byte must trip the checksum.
        let flipped = line.replace("4008000000000000", "4008000000000001");
        assert_ne!(flipped, line);
        assert!(parse_record(&flipped).is_none());
    }

    #[test]
    fn truncated_tail_is_clean_eof() {
        let header = render_header(&Header {
            salt: 7,
            fidelity: "smoke".to_owned(),
        });
        let l1 = render_record(&cell("a", vec![vec![1.0]]));
        let l2 = render_record(&cell("b", vec![vec![2.0]]));
        let full = format!("{header}{l1}{l2}");
        // Tearing anywhere inside l2 leaves exactly [a] durable.
        for cut in header.len() + l1.len() + 1..full.len() {
            let (h, recs, durable) = parse_journal(&full[..cut]);
            assert!(h.is_some());
            assert_eq!(recs.len(), 1, "cut at {cut}");
            assert_eq!(durable, header.len() + l1.len(), "cut at {cut}");
        }
        let (h, recs, durable) = parse_journal(&full);
        assert!(h.is_some());
        assert_eq!(recs.len(), 2);
        assert_eq!(durable, full.len());
        // A torn header means no journal at all.
        let (h, recs, durable) = parse_journal(&full[..header.len() - 1]);
        assert!(h.is_none());
        assert!(recs.is_empty());
        assert_eq!(durable, 0);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("isol-journal-unit-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn arm_replay_and_reappend() {
        let dir = temp_dir("replay");
        let sum = arm(&dir, false, "smoke").unwrap();
        assert!(sum.fresh);
        assert_eq!(sum.replayable, 0);
        assert!(armed());
        record_cell("fp1", "fig4", "fig4-a", "off", &[vec![4.0, 5.0]]);
        disarm();
        // Resume: the completed cell replays.
        let sum = arm(&dir, true, "smoke").unwrap();
        assert!(!sum.fresh);
        assert_eq!(sum.replayable, 1);
        assert!(replay("fp1", "wrong-exp", "fig4-a").is_none());
        assert!(replay("fp-missing", "fig4", "fig4-a").is_none());
        let (rows, outcome) = replay("fp1", "fig4", "fig4-a").expect("replayable");
        assert_eq!(rows, vec![vec![4.0, 5.0]]);
        assert_eq!(outcome, "off");
        assert_eq!(resumed_count(), 1);
        // A different fidelity discards the journal.
        disarm();
        let sum = arm(&dir, true, "standard").unwrap();
        assert!(sum.fresh);
        assert_eq!(sum.replayable, 0);
        disarm();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_cuts_a_torn_tail_before_appending() {
        let dir = temp_dir("torn");
        let rows = [vec![1.0]];
        arm(&dir, false, "smoke").unwrap();
        record_cell("fp-a", "fig4", "fig4-a", "off", &rows);
        record_cell("fp-b", "fig4", "fig4-b", "off", &rows);
        disarm();
        // A SIGKILL mid-write tears the last line: fp-b is not durable.
        let path = file_path(&dir);
        let len = fs::metadata(&path).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let sum = arm(&dir, true, "smoke").unwrap();
        assert!(!sum.fresh);
        assert!(replay("fp-a", "fig4", "fig4-a").is_some());
        assert!(replay("fp-b", "fig4", "fig4-b").is_none());
        record_cell("fp-c", "fig4", "fig4-c", "off", &rows);
        record_cell("fp-d", "fig4", "fig4-d", "off", &rows);
        disarm();
        // A second resume sees every durable cell, the first resume's
        // included.
        let sum = arm(&dir, true, "smoke").unwrap();
        for fp in ["a", "c", "d"] {
            let found = replay(&format!("fp-{fp}"), "fig4", &format!("fig4-{fp}"));
            assert!(found.is_some(), "fp-{fp} lost by the second resume");
        }
        assert_eq!(sum.replayable, 3);
        disarm();
        fs::remove_dir_all(&dir).ok();
    }
}
