//! Conformance suite for the declarative scenario DSL: every committed
//! `scenarios/*.toml` must parse, re-serialize equivalently, and build
//! a runnable host; malformed inputs must fail with line-numbered
//! errors — never a panic. Byte mutations and boundary values applied
//! to every committed scenario check the same contract (proptest).

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use isol_bench::scenario_file::ScenarioSpec;
use proptest::prelude::*;

/// The committed scenario directory at the repository root.
fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_scenarios() -> Vec<(PathBuf, String)> {
    let mut out: Vec<(PathBuf, String)> = fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let src = fs::read_to_string(&p).expect("scenario file readable");
            (p, src)
        })
        .collect();
    out.sort();
    assert!(
        out.len() >= 2,
        "expected committed scenario files in scenarios/"
    );
    out
}

#[test]
fn every_committed_scenario_parses_and_builds() {
    for (path, src) in committed_scenarios() {
        let spec = ScenarioSpec::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!spec.name.is_empty());
        // Building the host exercises cgroup creation, knob wiring, and
        // tenant attachment — everything short of running the clock.
        let host = spec.build().build_host(spec.duration);
        drop(host);
    }
}

#[test]
fn every_committed_scenario_round_trips() {
    for (path, src) in committed_scenarios() {
        let spec = ScenarioSpec::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rendered = spec.to_toml();
        let again = ScenarioSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("{}: re-parse of to_toml(): {e}", path.display()));
        assert_eq!(spec, again, "{}: to_toml() not equivalent", path.display());
        // Normalized rendering is a fixed point.
        assert_eq!(
            rendered,
            again.to_toml(),
            "{}: render unstable",
            path.display()
        );
    }
}

#[test]
fn the_app_mix_scenario_runs_all_four_engines() {
    let src = fs::read_to_string(scenarios_dir().join("app_mix.toml")).expect("app_mix.toml");
    let spec = ScenarioSpec::parse(&src).expect("app_mix parses");
    let mut kinds = spec.tenant_kinds();
    kinds.sort_unstable();
    assert_eq!(kinds, vec!["fileserver", "kv", "mlscan", "oltp"]);
}

// ===== Rejection: malformed inputs fail with line-numbered errors =====

/// A minimal valid scenario the rejection cases mutate.
const BASE: &str = r#"name = "t"
cores = 2
duration_ms = 20
knob = "none"

[[device]]
profile = "flash"

[[cgroup]]
name = "g"

[[tenant]]
name = "a"
cgroup = "g"
workload = "kv"
"#;

/// Asserts `src` is rejected with a line-numbered error mentioning
/// `needle` — and that parsing does not panic.
fn assert_rejected(src: &str, needle: &str) {
    let result = std::panic::catch_unwind(|| ScenarioSpec::parse(src));
    let err = result
        .unwrap_or_else(|_| panic!("parse panicked instead of erroring (wanted: {needle})"))
        .expect_err(&format!("accepted malformed input (wanted: {needle})"));
    assert!(err.line > 0, "error has no line number: {err}");
    let msg = err.to_string();
    assert!(
        msg.contains(needle),
        "error {msg:?} does not mention {needle:?}"
    );
}

#[test]
fn unknown_knob_is_rejected_with_line() {
    assert_rejected(
        &BASE.replace("knob = \"none\"", "knob = \"io.warp\""),
        "unknown knob",
    );
}

#[test]
fn unknown_root_key_is_rejected() {
    assert_rejected(&format!("turbo = 9\n{BASE}"), "unknown key 'turbo'");
}

#[test]
fn unknown_workload_key_is_rejected() {
    assert_rejected(
        &format!("{BASE}theta_boost = 2\n"),
        "unknown key 'theta_boost'",
    );
}

#[test]
fn unknown_workload_kind_is_rejected() {
    assert_rejected(
        &BASE.replace("workload = \"kv\"", "workload = \"spark\""),
        "unknown workload",
    );
}

#[test]
fn dangling_cgroup_parent_is_rejected() {
    assert_rejected(
        &BASE.replace("name = \"g\"", "name = \"g\"\nparent = \"ghost\""),
        "unknown parent cgroup",
    );
}

#[test]
fn duplicate_cgroup_is_rejected() {
    assert_rejected(
        &BASE.replace("[[tenant]]", "[[cgroup]]\nname = \"g\"\n\n[[tenant]]"),
        "duplicate cgroup",
    );
}

#[test]
fn zero_devices_is_rejected() {
    let src: String = BASE
        .lines()
        .filter(|l| !l.contains("[[device]]") && !l.contains("profile"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_rejected(&src, "no [[device]]");
}

#[test]
fn device_index_out_of_range_is_rejected() {
    assert_rejected(
        &BASE.replace("cgroup = \"g\"", "cgroup = \"g\"\ndevices = [0, 3]"),
        "out of range",
    );
}

#[test]
fn tenant_with_unknown_cgroup_is_rejected() {
    assert_rejected(
        &BASE.replace("cgroup = \"g\"", "cgroup = \"nope\""),
        "unknown cgroup",
    );
}

#[test]
fn tenant_in_management_cgroup_is_rejected() {
    assert_rejected(
        &BASE.replace(
            "[[tenant]]",
            "[[cgroup]]\nname = \"leaf\"\nparent = \"g\"\n\n[[tenant]]",
        ),
        "management",
    );
}

#[test]
fn type_mismatch_is_rejected_with_line() {
    assert_rejected(
        &BASE.replace("cores = 2", "cores = \"two\""),
        "must be an integer",
    );
}

#[test]
fn syntax_error_is_rejected_with_line() {
    assert_rejected(&BASE.replace("cores = 2", "cores = "), "");
}

#[test]
fn unknown_table_is_rejected() {
    assert_rejected(
        &format!("{BASE}\n[[gpu]]\nmodel = \"x\"\n"),
        "unknown table",
    );
}

#[test]
fn missing_required_key_is_rejected() {
    let src: String = BASE
        .lines()
        .filter(|l| !l.starts_with("knob"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_rejected(&src, "missing required key 'knob'");
}

#[test]
fn zero_window_is_rejected() {
    assert_rejected(
        &BASE.replace("workload = \"kv\"", "workload = \"kv\"\nwindow = 0"),
        "'window' must be positive",
    );
}

/// A fio tenant with one extra `key = value` line.
fn fio_with(line: &str) -> String {
    BASE.replace(
        "workload = \"kv\"",
        &format!("workload = \"fio\"\nrw = \"randread\"\n{line}"),
    )
}

#[test]
fn zero_iodepth_is_rejected() {
    assert_rejected(&fio_with("iodepth = 0"), "'iodepth' must be positive");
}

#[test]
fn zero_block_size_is_rejected() {
    assert_rejected(&fio_with("block_size = 0"), "'block_size' must be positive");
}

#[test]
fn non_positive_rate_is_rejected() {
    for rate in ["0.0", "-1.0", "0"] {
        assert_rejected(
            &fio_with(&format!("rate_mib_s = {rate}")),
            "'rate_mib_s' must be positive",
        );
    }
}

#[test]
fn durations_that_overflow_nanoseconds_are_rejected() {
    assert_rejected(
        &BASE.replace("duration_ms = 20", "duration_ms = 18446744073710"),
        "'duration_ms' is too large",
    );
    assert_rejected(
        &BASE.replace(
            "duration_ms = 20",
            "duration_ms = 20\nwarmup_ms = 18446744073710",
        ),
        "'warmup_ms' is too large",
    );
    assert_rejected(
        &BASE.replace(
            "workload = \"kv\"",
            "workload = \"kv\"\nthink_us = 18446744073709552",
        ),
        "'think_us' is too large",
    );
}

#[test]
fn infinite_float_is_rejected() {
    // `to_toml` would write it back as `inf`, which does not parse.
    assert_rejected(
        &BASE.replace("workload = \"kv\"", "workload = \"kv\"\ntheta = 1e999"),
        "'theta' must be finite",
    );
}

#[test]
fn cgroup_name_the_hierarchy_refuses_is_rejected() {
    for name in ["", "g/h", "g\0"] {
        let src = BASE
            .replace("name = \"g\"", &format!("name = \"{name}\""))
            .replace("cgroup = \"g\"", &format!("cgroup = \"{name}\""));
        assert_rejected(&src, "invalid cgroup name");
    }
}

// ===== Fuzz: mutated committed scenarios never panic =====

/// The contract every input meets: a line-numbered error, or a spec
/// whose `build()` returns and whose `to_toml()` parses back to it.
fn check_contract(src: &str) -> Result<(), TestCaseError> {
    let parsed = catch_unwind(|| ScenarioSpec::parse(src));
    prop_assert!(parsed.is_ok(), "parse panicked on:\n{}", src);
    match parsed.expect("checked above") {
        Err(e) => prop_assert!(e.line >= 1, "error without a line: {} in:\n{}", e, src),
        Ok(spec) => {
            let built = catch_unwind(AssertUnwindSafe(|| drop(spec.build())));
            prop_assert!(built.is_ok(), "build panicked on:\n{}", src);
            let again = ScenarioSpec::parse(&spec.to_toml());
            prop_assert_eq!(again, Ok(spec), "to_toml() does not round-trip:\n{}", src);
        }
    }
    Ok(())
}

/// One byte mutation at `at % len`: 0 flips the byte (XOR with `byte`,
/// forced non-zero), 1 inserts `byte` before it, 2 deletes it, 3 cuts
/// the text there.
fn mutate(bytes: &[u8], op: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % bytes.len();
    match op {
        0 => out[at] ^= byte.max(1),
        1 => out.insert(at, byte),
        2 => {
            out.remove(at);
        }
        _ => out.truncate(at),
    }
    out
}

/// Values on the edge of some key's range: zero, a negative float, the
/// first millisecond count whose nanoseconds overflow `u64`, and
/// `i64::MAX`.
const EDGE_VALUES: [&str; 4] = ["0", "-1.0", "18446744073710", "9223372036854775807"];

#[test]
fn edge_values_in_every_committed_key_never_panic() {
    for (path, src) in committed_scenarios() {
        let lines: Vec<&str> = src.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some((key, _)) = line.split_once(" = ") else {
                continue;
            };
            for v in EDGE_VALUES {
                let mut mutant = lines.clone();
                let edited = format!("{key} = {v}");
                mutant[i] = &edited;
                if let Err(e) = check_contract(&mutant.join("\n")) {
                    panic!("{}: {key} = {v}: {e}", path.display());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One flipped, inserted or deleted byte, or a cut, anywhere in a
    /// committed scenario. Mutations stay ASCII, as the files are.
    #[test]
    fn byte_mutations_of_committed_scenarios_never_panic(
        file in 0usize..64,
        op in 0u8..4,
        at in 0usize..1_000_000,
        byte in 0u8..0x80,
    ) {
        let scenarios = committed_scenarios();
        let (_, src) = &scenarios[file % scenarios.len()];
        let mutant = String::from_utf8(mutate(src.as_bytes(), op, at, byte))
            .expect("ASCII in, ASCII out");
        check_contract(&mutant)?;
    }
}
