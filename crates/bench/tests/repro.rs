//! Every experiment of `polinv repro`, run on `quick_scenario` in one
//! shared world, with every paper claim asserted and every CSV written.
//! `polinv repro all` checks the same claims on the standard scenario
//! (`ci.sh gate`); this is the tier-1 half.

use pol_bench::repro::{World, EXPERIMENTS};
use pol_bench::{quick_scenario, TRAIN_SEED};
use std::path::Path;

#[test]
fn every_experiment_holds_its_claims_at_quick_scale() {
    let world = World::new(quick_scenario(TRAIN_SEED));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro");
    let mut failed = Vec::new();
    for e in EXPERIMENTS {
        let report = (e.run)(&world).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let written = report.write_csvs(&out).expect("write the CSVs");
        assert!(written.iter().all(|p| p.is_file()), "{}", e.name);
        if !report.holds() {
            failed.push(format!("== {}\n{report}", e.name));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
