//! `polbench` — the repository's benchmark. Every layer is timed from
//! outside through its public functions; see README.md for what each
//! number means and why it is estimated the way it is.
//!
//! ```text
//! polbench --workload W --seed N --seconds S --trace 0|1   one run
//! polbench calibrate [--seed N] [--out FILE]              five suites
//! polbench compare A.json B.json
//! polbench manifest                                         BENCHMARK.json
//! ```

mod alloc;
mod batch;
mod calibrate;
mod env;
mod estimate;
mod harness;
mod json;
mod names;
mod pools;
mod scenario;
mod serve;
mod stream;
mod trace;
mod wire;

use json::{obj, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Outputs checked, and how many were wrong (a `Busy`, an error reply
    /// and mismatched bytes all count).
    pub attempted: u64,
    pub failed: u64,
    /// The six end-to-end metrics, by name.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics this workload exercises; the rest print as 0.
    pub layers: BTreeMap<String, f64>,
    /// Diagnostics for the summary: literal medians and quartiles, sizes,
    /// repetition counts.
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn set_layers<const N: usize>(&mut self, rows: [(&str, f64); N]) {
        for (name, value) in rows {
            self.layer(name, value);
        }
    }

    pub fn detail(&mut self, name: &str, value: Json) {
        self.details.push((name.to_string(), value));
    }
}

/// The value following `name` on the command line.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `<target dir>/tmp`: scratch files live beside the build, on the
/// repository's filesystem and inside the checkout.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("the binary is not inside a target directory")?;
    Ok(target.join("tmp"))
}

/// One run: the driver's form of the command line.
fn run(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let seed: u64 = flag(args, "--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed must be a number")?;
    let seconds: u64 = flag(args, "--seconds")
        .map_or(Ok(names::RUN_SECONDS), str::parse)
        .map_err(|_| "--seconds must be a number")?;
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if !names::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let known: Vec<&str> = names::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {workload}; one of {}",
            known.join(", ")
        ));
    }

    names::check_manifest(Path::new("BENCHMARK.json"))?;

    let scratch = scratch_root()?.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut fingerprint = env::fingerprint(&scratch);
    let steal_before = env::ProcSnapshot::take(None);

    let inputs = scenario::inputs(seed);
    let records = inputs.records;
    let outcome = match workload {
        "batch_build" => batch::run(inputs, seconds, traced, &scratch),
        "stream_ingest" => stream::run(inputs, seconds, traced, &scratch),
        "serve_lookup" => serve::run(false, &inputs, seed, seconds, traced, &scratch),
        _ => serve::run(true, &inputs, seed, seconds, traced, &scratch),
    };
    let trace_file = scratch_root()?.join(format!("trace-{workload}-{seed}.json"));
    if traced {
        trace::write(&trace_file).map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    }
    std::fs::remove_dir_all(&scratch).ok();
    let mut outcome = outcome?;

    let steal_share = env::ProcSnapshot::take(None).steal_share_since(&steal_before);
    if steal_share > 0.02 {
        eprintln!(
            "warning: the hypervisor stole {:.1} % of machine time during this run",
            steal_share * 100.0
        );
    }
    if traced {
        outcome.layer("trace.spans", trace::summarize().spans as f64);
    }

    // The summary: the fingerprint, every number by name with its unit,
    // the diagnostics. It makes no claim; a comparison does.
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let per_layer = names::per_layer();
    let metrics: Vec<(String, Json)> = if traced {
        per_layer
            .iter()
            .map(|(name, unit, _)| {
                let value = outcome.layers.get(name).copied().unwrap_or(0.0);
                (
                    name.clone(),
                    obj(vec![("value", value.into()), ("unit", (*unit).into())]),
                )
            })
            .collect()
    } else {
        // Every workload reports every end-to-end metric: a missing one
        // is a fault of the benchmark, not a zero.
        names::END_TO_END
            .iter()
            .map(|m| {
                let (_, value) = outcome
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .ok_or_else(|| format!("{workload} did not measure {}", m.name))?;
                Ok((
                    m.name.to_string(),
                    obj(vec![("value", (*value).into()), ("unit", m.unit.into())]),
                ))
            })
            .collect::<Result<_, String>>()?
    };
    fingerprint.extend([
        ("seed", seed.into()),
        ("scenario", scenario::describe().into()),
        ("records", records.into()),
        ("seconds", seconds.into()),
        ("steal_share", steal_share.into()),
    ]);
    let mut summary = vec![
        ("workload".to_string(), workload.into()),
        ("traced".to_string(), traced.into()),
        ("environment".to_string(), obj(fingerprint)),
        ("attempted".to_string(), outcome.attempted.into()),
        ("failed".to_string(), outcome.failed.into()),
        ("failed_share".to_string(), failed_share.into()),
        ("metrics".to_string(), Json::Obj(metrics.clone())),
        ("details".to_string(), Json::Obj(outcome.details)),
    ];
    if traced {
        summary.push((
            "trace_file".to_string(),
            trace_file.display().to_string().into(),
        ));
    }
    summary.push(("claim".to_string(), Json::Null));
    print!("{}", Json::Obj(summary).pretty());

    // The driver's line: exactly these keys, last on standard output.
    let line = obj(vec![
        ("correct", (outcome.failed == 0).into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve-child") => wire::child_main(&args[1..]),
        Some("calibrate") => calibrate::calibrate(&args[1..]),
        Some("compare") => calibrate::compare(&args[1..]),
        Some("manifest") => {
            print!("{}", names::manifest().pretty());
            Ok(())
        }
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("polbench: {message}");
            ExitCode::FAILURE
        }
    }
}
