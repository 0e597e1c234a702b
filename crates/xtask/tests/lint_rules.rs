//! Behavioural tests for every conformance rule: each dirty fixture fires
//! its rule at known locations, the clean fixture fires nothing, the
//! escape hatch suppresses (and audits itself), and — the acceptance
//! check — injecting an `unwrap()` into the real
//! `crates/engine/src/pool.rs` or stripping a `// SAFETY:` comment turns
//! the lint red with a `file:line` diagnostic.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{lint_workspace, Diagnostic, LintError, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn lint(root: &Path) -> Vec<Diagnostic> {
    lint_workspace(root).expect("fixture tree readable")
}

/// 1-based line of the first occurrence of `needle` in a fixture file.
fn line_of(path: &Path, needle: &str) -> usize {
    let text = fs::read_to_string(path).expect("fixture file readable");
    text.lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("`{needle}` not found in {}", path.display()))
}

#[test]
fn clean_fixture_fires_nothing() {
    let diags = lint(&fixture("clean"));
    assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
}

#[test]
fn r1_no_unwrap_fires_exactly_once() {
    let root = fixture("r1_panic");
    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::NoUnwrap);
    assert_eq!(d.path, Path::new("crates/engine/src/lib.rs"));
    assert_eq!(
        d.line,
        line_of(&root.join("crates/engine/src/lib.rs"), "s.parse().unwrap()")
    );
}

#[test]
fn r2_safety_comment_fires_exactly_once() {
    let root = fixture("r2_unsafe");
    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::SafetyComment);
    assert_eq!(d.path, Path::new("crates/util/src/lib.rs"));
    // The documented + audited block passes; the undocumented one (the
    // second transmute) is the hit.
    let lib = root.join("crates/util/src/lib.rs");
    let text = fs::read_to_string(&lib).unwrap();
    let second = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("unsafe {"))
        .nth(1)
        .map(|(i, _)| i + 1)
        .unwrap();
    assert_eq!(d.line, second);
}

#[test]
fn r3_unsafe_audit_requires_a_live_test_reference() {
    let root = fixture("r3_audit");
    let diags = lint(&root);
    assert_eq!(diags.len(), 2, "{diags:?}");
    let lib = root.join("crates/util/src/lib.rs");
    for d in &diags {
        assert_eq!(d.rule, Rule::UnsafeAudit);
        assert_eq!(d.path, Path::new("crates/util/src/lib.rs"));
    }
    // bits_untested: documented but no `tested by:` marker.
    assert_eq!(diags[0].line, line_of(&lib, "bits_untested") + 2);
    assert!(diags[0].message.contains("names no exercising test"));
    // bits_rotted: cites a test that does not exist.
    assert_eq!(diags[1].line, line_of(&lib, "bits_rotted") + 2);
    assert!(diags[1].message.contains("a_test_renamed_away"));
}

#[test]
fn r4_no_f32_fires_exactly_once_and_only_in_coordinate_crates() {
    let root = fixture("r3_f32");
    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::NoF32);
    assert_eq!(d.path, Path::new("crates/geo/src/lib.rs"));
    assert_eq!(
        d.line,
        line_of(&root.join("crates/geo/src/lib.rs"), "-> f32")
    );
}

#[test]
fn r5_seqcst_fires_exactly_once() {
    let root = fixture("r4_seqcst");
    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::SeqCstJustify);
    assert_eq!(d.path, Path::new("crates/engine/src/lib.rs"));
    // The unjustified bump(), not the justified bump_fenced() and not the
    // test module.
    let lib = root.join("crates/engine/src/lib.rs");
    let text = fs::read_to_string(&lib).unwrap();
    let first = text
        .lines()
        .position(|l| l.contains("fetch_add(1, Ordering::SeqCst)"))
        .unwrap()
        + 1;
    assert_eq!(d.line, first);
}

#[test]
fn r6_missing_deny_attr_fires_exactly_once() {
    let diags = lint(&fixture("r5_attr"));
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::LintWall);
    assert_eq!(d.path, Path::new("crates/plain/src/lib.rs"));
    assert_eq!(d.line, 1);
}

#[test]
fn r6_missing_manifest_opt_in_fires_exactly_once() {
    let diags = lint(&fixture("r5_manifest"));
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::LintWall);
    assert_eq!(d.path, Path::new("crates/plain/Cargo.toml"));
}

#[test]
fn r7_wire_exhaustive_flags_the_half_wired_opcode() {
    let root = fixture("r7_wire");
    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::WireExhaustive);
    assert_eq!(d.path, Path::new("crates/net/src/proto.rs"));
    let proto = root.join("crates/net/src/proto.rs");
    assert_eq!(d.line, line_of(&proto, "pub const REQ_GHOST"));
    assert!(d.message.contains("REQ_GHOST"));
    assert!(d.message.contains("decode"), "{}", d.message);
    assert!(d.message.contains("test"), "{}", d.message);
}

#[test]
fn r8_lock_order_flags_inversion_and_seqcst_escalation() {
    let root = fixture("r8_lock");
    let diags = lint(&root);
    assert_eq!(diags.len(), 3, "{diags:?}");
    for d in &diags {
        assert_eq!(d.rule, Rule::LockOrder);
    }
    // The inverted acquisition fires at the service.read() inside
    // `inverted`, not at the correctly ordered pair in `ordered`; the
    // wrapped one fires at the `.read()` line of `inverted_wrapped`.
    let lib = root.join("crates/srv/src/lib.rs");
    let text = fs::read_to_string(&lib).unwrap();
    let first_after = |fn_decl: &str, needle: &str| {
        text.lines()
            .enumerate()
            .skip(line_of(&lib, fn_decl))
            .find(|(_, l)| l.contains(needle))
            .map(|(i, _)| i + 1)
            .unwrap()
    };
    let d_order: Vec<_> = diags
        .iter()
        .filter(|d| d.path == Path::new("crates/srv/src/lib.rs"))
        .collect();
    assert_eq!(
        d_order.iter().map(|d| d.line).collect::<Vec<_>>(),
        [
            first_after("fn inverted(", "service.read()"),
            first_after("fn inverted_wrapped(", ".read()"),
        ]
    );
    for d in d_order {
        assert!(d.message.contains("`service`"), "{}", d.message);
    }
    // The justified-but-uninventoried SeqCst is an escalation.
    let d_seq = diags
        .iter()
        .find(|d| d.path == Path::new("crates/srv/src/seq.rs"))
        .unwrap();
    assert_eq!(
        d_seq.line,
        line_of(&root.join("crates/srv/src/seq.rs"), "fetch_add")
    );
    assert!(d_seq.message.contains("escalation"));
}

#[test]
fn escape_hatch_suppresses_every_covered_rule() {
    let diags = lint(&fixture("allowed"));
    assert!(diags.is_empty(), "hatch did not suppress: {diags:?}");
}

#[test]
fn r9_unknown_rule_in_allow_suppresses_nothing_and_is_flagged() {
    let root = fixture("hatch_unknown");
    let diags = lint(&root);
    assert_eq!(diags.len(), 2, "{diags:?}");
    let lib = root.join("crates/a/src/lib.rs");
    let d_allow = diags.iter().find(|d| d.rule == Rule::AllowAudit).unwrap();
    assert_eq!(d_allow.line, line_of(&lib, "allow(no_panics)"));
    assert!(d_allow.message.contains("no_panics"));
    assert!(d_allow.message.contains("known rules"));
    // The violation the typo'd allow failed to cover still fires.
    let d_unwrap = diags.iter().find(|d| d.rule == Rule::NoUnwrap).unwrap();
    assert_eq!(d_unwrap.line, line_of(&lib, "s.parse().unwrap()"));
}

#[test]
fn r9_reasonless_allow_is_flagged_but_still_suppresses() {
    let root = fixture("hatch_reasonless");
    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::AllowAudit);
    assert_eq!(
        d.line,
        line_of(&root.join("crates/a/src/lib.rs"), "allow(no_unwrap)")
    );
    assert!(d.message.contains("no reason"));
}

#[test]
fn r9_test_code_allows_may_be_terse_but_not_typod() {
    let root = fixture("hatch_in_test");
    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::AllowAudit);
    assert_eq!(
        d.line,
        line_of(&root.join("crates/a/src/lib.rs"), "allow(safety_coment)")
    );
    assert!(d.message.contains("safety_coment"));
}

#[test]
fn empty_scan_is_a_hard_error_not_a_clean_pass() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty-scan");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates")).unwrap();
    match lint_workspace(&root) {
        Err(LintError::NoSources { root: r }) => assert_eq!(r, root),
        other => panic!("expected NoSources, got {other:?}"),
    }
}

#[test]
fn config_typos_are_hard_errors() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-config");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates")).unwrap();
    fs::write(root.join("xtask.toml"), "[lock_order]\nordr = [\"a\"]\n").unwrap();
    match lint_workspace(&root) {
        Err(LintError::Config(e)) => assert!(e.to_string().contains("ordr")),
        other => panic!("expected Config error, got {other:?}"),
    }
}

#[test]
fn json_rendering_is_machine_readable() {
    let diags = lint(&fixture("r1_panic"));
    let json = xtask::json::render(&diags);
    assert!(json.contains("\"rule\": \"no_unwrap\""));
    assert!(json.contains("\"path\": \"crates/engine/src/lib.rs\""));
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
}

#[test]
fn the_real_tree_is_clean() {
    let diags = lint(&repo_root());
    assert!(
        diags.is_empty(),
        "workspace no longer conforms:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Builds a scratch workspace containing the real `pol-engine` sources and
/// returns its root.
fn scratch_engine_tree(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let engine = root.join("crates/engine");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(engine.join("src")).unwrap();
    let real = repo_root().join("crates/engine");
    fs::copy(real.join("Cargo.toml"), engine.join("Cargo.toml")).unwrap();
    for f in [
        "lib.rs",
        "pool.rs",
        "dataset.rs",
        "keyed.rs",
        "error.rs",
        "metrics.rs",
    ] {
        let src = real.join("src").join(f);
        if src.is_file() {
            fs::copy(&src, engine.join("src").join(f)).unwrap();
        }
    }
    root
}

#[test]
fn inserting_unwrap_into_pool_rs_turns_the_lint_red() {
    let root = scratch_engine_tree("unwrap-in-pool");
    assert!(
        lint(&root).is_empty(),
        "scratch copy of engine must start clean"
    );

    let pool = root.join("crates/engine/src/pool.rs");
    let mut text = fs::read_to_string(&pool).unwrap();
    text.push_str("\n/// Deliberately non-conforming.\npub fn broken() -> u32 {\n    \"7\".parse().unwrap()\n}\n");
    let bad_line = text.lines().count() - 1;
    fs::write(&pool, text).unwrap();

    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::NoUnwrap);
    assert_eq!(d.path, Path::new("crates/engine/src/pool.rs"));
    assert_eq!(d.line, bad_line);
    // The rendered diagnostic is the promised file:line form.
    assert!(d.to_string().starts_with(&format!(
        "crates/engine/src/pool.rs:{bad_line}: [no_unwrap]"
    )));
}

#[test]
fn removing_a_safety_comment_turns_the_lint_red() {
    let root = scratch_engine_tree("safety-removed");
    let extra = root.join("crates/engine/src/ffi.rs");
    fs::write(
        &extra,
        "//! Scratch module with a documented unsafe block.\n\n\
         /// Bit-level view of a float.\n\
         pub fn bits(x: f64) -> u64 {\n\
         \x20   // SAFETY: f64 and u64 have identical size; all bit\n\
         \x20   // patterns are valid u64 values; tested by: scratch_bits.\n\
         \x20   unsafe { std::mem::transmute(x) }\n\
         }\n\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn scratch_bits() {\n\
         \x20       assert_eq!(f64::from_bits(super::bits(1.5)), 1.5);\n\
         \x20   }\n\
         }\n",
    )
    .unwrap();
    assert!(lint(&root).is_empty(), "documented unsafe must pass");

    // Strip the SAFETY comment and lint again.
    let text = fs::read_to_string(&extra).unwrap();
    let stripped: String = text
        .lines()
        .filter(|l| !l.contains("SAFETY:") && !l.contains("patterns are valid"))
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&extra, &stripped).unwrap();

    let diags = lint(&root);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, Rule::SafetyComment);
    assert_eq!(d.path, Path::new("crates/engine/src/ffi.rs"));
    assert_eq!(
        d.line,
        stripped
            .lines()
            .position(|l| l.contains("unsafe {"))
            .unwrap()
            + 1
    );
}
