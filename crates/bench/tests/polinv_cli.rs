//! The shipped `polinv` binary, driven end to end over real sockets:
//! `build` → `verify` → `serve` the file `build` wrote, mapped →
//! `reload` a POLMAN2 chain over stdin → a corrupt file and one under a
//! retired format's magic, refused by `verify`, `serve` and `reload` →
//! thousands of open sockets → stdin EOF. Every answer is compared with
//! the same query made on an `Inventory` in this process. `repro`'s
//! command line (one experiment, an unknown name) is checked here too;
//! its experiments are `tests/repro.rs`'s.
//!
//! The library tests reach all of this through `Server` and
//! `InventoryService`; this file is the one place the command-line
//! parsing, the format sniffing behind `serve`, the stdin control
//! channel and the process's own descriptor budget are exercised.

use pol_core::codec::columnar;
use pol_core::features::GroupKey;
use pol_core::Inventory;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, cell_center};
use pol_serve::proto::encode_response;
use pol_serve::{Client, Request, Response, StatsReport};
use pol_stream::DeltaPublisher;
use std::fs::{self, File};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The longest any wait on a child may take.
const WAIT: Duration = Duration::from_secs(10);

/// Sockets that carry lookups while the idle fleet is held open.
const ACTIVE_SOCKETS: usize = 64;

/// An empty directory of this file's own under `CARGO_TARGET_TMPDIR`.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("polinv_cli")
        .join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

fn polinv(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_polinv"))
        .args(args)
        .output()
        .expect("spawn polinv")
}

/// Runs one subcommand that must succeed; its stdout.
fn polinv_ok(args: &[&str]) -> String {
    let out = polinv(args);
    assert!(
        out.status.success(),
        "polinv {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("polinv prints UTF-8")
}

/// The first whole line of `text` at or after byte `from` that starts
/// with `prefix`. A last line without its newline is still being
/// written and does not count.
fn find_line(text: &str, from: usize, prefix: &str) -> Option<String> {
    let whole = text.get(from..text.rfind('\n')? + 1)?;
    whole
        .lines()
        .find(|l| l.starts_with(prefix))
        .map(str::to_string)
}

/// Polls `path` for a line starting with `prefix`; on timeout the panic
/// carries the child's stderr.
fn wait_for_line(path: &Path, from: usize, prefix: &str, child_stderr: &Path) -> String {
    let deadline = Instant::now() + WAIT;
    loop {
        let text = fs::read_to_string(path).unwrap_or_default();
        if let Some(line) = find_line(&text, from, prefix) {
            return line;
        }
        assert!(
            Instant::now() < deadline,
            "no `{prefix}` line in {} within {WAIT:?}; child stderr:\n{}",
            path.display(),
            fs::read_to_string(child_stderr).unwrap_or_default()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A running `polinv serve`. Killed and reaped on drop, so a failed
/// assertion leaves no server behind.
struct Serving {
    child: Child,
    stderr: PathBuf,
}

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Serving {
    /// Serves `snapshot` on an ephemeral loopback port, the child's
    /// output going to files under `dir`.
    fn start(snapshot: &Path, dir: &Path) -> (Serving, SocketAddr) {
        let (stdout, stderr) = (dir.join("serve.out"), dir.join("serve.err"));
        let child = Command::new(env!("CARGO_BIN_EXE_polinv"))
            .args(["serve", arg(snapshot), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(File::create(&stdout).expect("create serve.out"))
            .stderr(File::create(&stderr).expect("create serve.err"))
            .spawn()
            .expect("spawn polinv serve");
        let serving = Serving { child, stderr };
        let line = wait_for_line(&stdout, 0, "listening on ", &serving.stderr);
        let addr = line["listening on ".len()..]
            .parse()
            .expect("a socket address after `listening on`");
        (serving, addr)
    }

    /// Sends `reload <path>` down the control channel; the server's
    /// verdict line (`reloaded …` or `reload rejected …`).
    fn reload(&mut self, path: &Path) -> String {
        let mark = fs::metadata(&self.stderr).map_or(0, |m| m.len() as usize);
        let stdin = self.child.stdin.as_mut().expect("control channel open");
        writeln!(stdin, "reload {}", path.display()).expect("write control line");
        wait_for_line(&self.stderr, mark, "reload", &self.stderr)
    }

    /// Closes stdin, which asks the server to drain and exit; its
    /// `shut down after …` line.
    fn stop(mut self) -> String {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + WAIT;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll the child") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "polinv serve still running {WAIT:?} after stdin EOF"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let log = fs::read_to_string(&self.stderr).unwrap_or_default();
        assert!(status.success(), "polinv serve exited {status}:\n{log}");
        find_line(&log, 0, "shut down after")
            .unwrap_or_else(|| panic!("polinv serve exited without draining:\n{log}"))
    }
}

/// What the server must answer to a summary lookup, from `inv` itself.
fn expected(inv: &Inventory, req: &Request) -> Response {
    let cell = |lat, lon| cell_at(LatLon::new(lat, lon).expect("in range"), inv.resolution());
    let stats = match *req {
        Request::PointSummary { lat, lon } => inv.summary(cell(lat, lon)),
        Request::SegmentSummary { lat, lon, segment } => inv.summary_for(cell(lat, lon), segment),
        Request::RouteSummary {
            lat,
            lon,
            origin,
            dest,
            segment,
        } => inv.summary_route(cell(lat, lon), origin, dest, segment),
        _ => unreachable!("the pool holds summary lookups only"),
    };
    Response::Summary(stats.cloned())
}

/// Some 600 lookups spread over every key of `inv`, all three grouping
/// sets among them.
fn lookups(inv: &Inventory) -> Vec<Request> {
    inv.iter()
        .step_by(inv.len() / 600 + 1)
        .map(|(key, _)| {
            let at = cell_center(key.cell());
            let (lat, lon) = (at.lat(), at.lon());
            match *key {
                GroupKey::Cell(_) => Request::PointSummary { lat, lon },
                GroupKey::CellType(_, segment) => Request::SegmentSummary { lat, lon, segment },
                GroupKey::CellRoute(_, origin, dest, segment) => Request::RouteSummary {
                    lat,
                    lon,
                    origin,
                    dest,
                    segment,
                },
            }
        })
        .collect()
}

/// `CellStats` has no `PartialEq`; the wire encoding is canonical, so
/// equal bytes are equal answers. A `Busy` or `Error` reply fails too.
fn assert_answer(inv: &Inventory, req: &Request, got: &Response) {
    assert!(
        encode_response(got) == encode_response(&expected(inv, req)),
        "{req:?} answered {got:?}"
    );
}

/// Every lookup of `pool` as a frame of its own, then again as
/// `BATCH`×32, each answer equal to `inv`'s.
fn assert_serves(addr: SocketAddr, inv: &Inventory, pool: &[Request]) {
    let mut client = Client::connect(addr).expect("connect");
    for req in pool {
        let got = client.request_once(req).expect("single frame");
        assert_answer(inv, req, &got);
    }
    for chunk in pool.chunks(32) {
        let reply = client.request_once(&Request::Batch(chunk.to_vec()));
        let Ok(Response::Batch(children)) = reply else {
            panic!("BATCH of {} answered {reply:?}", chunk.len());
        };
        assert_eq!(children.len(), chunk.len());
        for (req, got) in chunk.iter().zip(&children) {
            assert_answer(inv, req, got);
        }
    }
}

/// The server's `STATS` reply, over a connection of its own.
fn stats(addr: SocketAddr) -> StatsReport {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("STATS")
}

/// What `polinv build` and `verify` left on disk, and the inventories
/// the servers' answers are held to.
struct Fixture {
    /// `polinv build`'s output: the POLINV3 file `serve` maps.
    built: PathBuf,
    /// `built`, decoded.
    base: Inventory,
    /// A second, smaller build with another seed.
    delta: Inventory,
    /// `base` with `delta` merged in.
    merged: Inventory,
    /// Lookups over the keys of `merged`: some miss on `base`.
    pool: Vec<Request>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("fixture");
        let (built, delta_built) = (dir.join("inv.pol"), dir.join("delta.pol"));
        let wrote = polinv_ok(&[
            "build",
            "--out",
            arg(&built),
            "--vessels",
            "30",
            "--days",
            "6",
        ]);
        assert!(wrote.starts_with(&format!("wrote {}", built.display())));
        // The POLINV3 report: one row per section.
        let audit = polinv_ok(&["verify", arg(&built)]);
        assert!(audit.contains(": OK (POLINV3 columnar)\n"), "{audit}");
        let kernel = format!("  crc64 kernel      {}\n", pol_sketch::crc64::kernel());
        assert!(audit.contains(&kernel), "no `{kernel}` in:\n{audit}");
        for section in columnar::SectionKind::ALL {
            let row = format!("  section {:<10} ", section.name());
            assert!(audit.contains(&row), "no `{row}` row in:\n{audit}");
        }
        polinv_ok(&[
            "build",
            "--out",
            arg(&delta_built),
            "--vessels",
            "20",
            "--days",
            "6",
            "--seed",
            "7",
        ]);

        let base = columnar::load(&built).expect("load the built file");
        let delta = columnar::load(&delta_built).expect("load the second build");
        let mut merged = base.clone();
        merged.merge(&delta);
        let pool = lookups(&merged);
        assert!(pool.len() > 400, "thin pool: {}", pool.len());
        Fixture {
            built,
            base,
            delta,
            merged,
            pool,
        }
    })
}

/// min(10 000, soft `RLIMIT_NOFILE` − 512): the idle fleet this process
/// can hold beside its active sockets and the harness's own files. The
/// child inherits the same limit and holds only the other ends.
fn idle_fleet_size() -> usize {
    let limits = fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let soft = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("a `Max open files` row");
    // "unlimited" does not parse and does not bind.
    let soft = soft.parse::<usize>().unwrap_or(usize::MAX);
    soft.saturating_sub(512).min(10_000)
}

/// `repro` runs one experiment on the standard scenario and exits 0 when
/// its checks hold; Table 1 writes no CSV, so `--out` stays empty.
#[test]
fn repro_runs_one_experiment() {
    let out = scratch("repro");
    let printed = polinv_ok(&["repro", "table1", "--out", arg(&out)]);
    assert!(printed.starts_with("== table1 · Table 1"), "{printed}");
    assert!(
        printed.contains("commercial fleet positional reports"),
        "{printed}"
    );
    assert!(
        printed.ends_with("repro: 0 checks, 0 failed\n"),
        "{printed}"
    );
}

/// An unknown experiment is a usage error that names every experiment.
#[test]
fn repro_refuses_an_unknown_name() {
    let out = polinv(&["repro", "table9"]);
    let said = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{said}");
    for e in pol_bench::repro::EXPERIMENTS {
        assert!(said.contains(e.name), "{} missing from: {said}", e.name);
    }
}

/// `repro --out` with no value is a usage error naming the flag, before
/// any experiment runs or writes into the default directory.
#[test]
fn repro_refuses_an_out_flag_without_a_value() {
    let run = polinv(&["repro", "table1", "--out"]);
    let said = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{said}");
    assert!(said.contains("--out"), "{said}");
    assert!(String::from_utf8_lossy(&run.stdout).is_empty(), "{said}");
}

/// A `build` number flag that does not parse, or has no value, is a
/// usage error naming the flag, before anything is simulated or written.
#[test]
fn build_refuses_a_malformed_number_before_simulating() {
    let dir = scratch("bad_build_flags");
    let out = dir.join("inv.pol");
    for (flag, value) in [
        ("--vessels", Some("many")),
        ("--days", Some("-3")),
        ("--res", Some("6.5")),
        ("--res", Some("16")),
        ("--seed", Some("0x2a")),
        ("--seed", None),
    ] {
        let mut args = vec!["build", "--out", arg(&out), flag];
        args.extend(value);
        let run = polinv(&args);
        let said = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {said}");
        assert!(said.contains(flag), "{args:?}: {said}");
        assert!(!said.contains("simulating"), "{args:?}: {said}");
        assert!(!out.exists(), "{args:?} wrote {}", out.display());
    }
}

/// `query --segment` with a name no segment has is a usage error that
/// lists the segments, before the file is opened (it does not exist);
/// so are a `--segment` with no value and a `<lat>` or `<lon>` that is
/// not a number, each named.
#[test]
fn query_refuses_an_unknown_segment_before_loading() {
    let missing = scratch("bad_segment").join("absent.pol");
    let run = polinv(&["query", arg(&missing), "51.9", "4.1", "--segment", "bogus"]);
    let said = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{said}");
    assert!(said.contains("--segment `bogus`"), "{said}");
    for segment in pol_ais::MarketSegment::ALL {
        assert!(said.contains(segment.name()), "{segment} missing: {said}");
    }
    for (rest, named) in [
        (&["51.9", "4.1", "--segment"][..], "--segment"),
        (&["north", "4.1"][..], "lat/lon"),
        (&["51.9", "4.1e"][..], "lat/lon"),
    ] {
        let args = [&["query", arg(&missing)][..], rest].concat();
        let run = polinv(&args);
        let said = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {said}");
        assert!(said.contains(named), "{args:?}: {said}");
        assert!(!said.contains("cannot load"), "{args:?}: {said}");
    }
}

/// `serve --workers` that does not parse, or `--addr` with no value, is
/// a usage error naming the flag, before the file is opened or a socket
/// bound.
#[test]
fn serve_refuses_a_malformed_worker_count_before_loading() {
    let missing = scratch("bad_workers").join("absent.pol");
    for (rest, flag) in [
        (&["--workers", "eight"][..], "--workers"),
        (&["--addr"][..], "--addr"),
        (&["--addr", "--workers", "2"][..], "--addr"),
    ] {
        let args = [&["serve", arg(&missing)][..], rest].concat();
        let run = polinv(&args);
        let said = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {said}");
        assert!(said.contains(flag), "{args:?}: {said}");
        assert!(!said.contains("cannot serve"), "{args:?}: {said}");
        assert!(String::from_utf8_lossy(&run.stdout).is_empty(), "{args:?}");
    }
}

/// What this file is for. The file `polinv build` wrote is served from
/// the mapped store with no command in between; a chain reloads over it;
/// a damaged file and one in the retired row format are refused by
/// `verify`, `serve` and `reload` alike, the last with the old snapshot
/// still answering.
#[test]
fn polinv3_server_reloads_a_chain_refuses_a_corrupt_file_holds_the_fleet_and_drains() {
    let fx = fixture();
    let dir = scratch("serve_v3");
    let (mut serving, addr) = Serving::start(&fx.built, &dir);
    assert_serves(addr, &fx.base, &fx.pool);
    let before = stats(addr);
    assert_eq!(before.store, "mapped-columnar");
    assert!(before.chain_len < 2, "a lone snapshot is no chain");

    // A POLMAN2 chain, written the way an ingester does.
    let chain_dir = dir.join("chain");
    fs::create_dir_all(&chain_dir).unwrap();
    let mut publisher = DeltaPublisher::create(&chain_dir);
    publisher.publish(&fx.base).unwrap();
    publisher.publish(&fx.delta).unwrap();
    let manifest = publisher.manifest_path();
    assert!(polinv_ok(&["verify", arg(manifest)]).contains(": OK (POLMAN2 delta chain)\n"));

    let verdict = serving.reload(manifest);
    assert!(
        verdict.starts_with(&format!("reloaded {}", manifest.display())),
        "{verdict}"
    );
    assert_serves(addr, &fx.merged, &fx.pool);
    let chained = stats(addr);
    assert!(chained.chain_len >= 2, "chain_len {}", chained.chain_len);
    assert_eq!(chained.delta_generation, 1);
    assert_eq!(chained.generation, before.generation + 1);

    // Two files nothing may accept: the built file with one byte
    // flipped, and the retired row format's magic over padding. `verify`
    // and `serve` turn each away, `reload` refuses it and the chain keeps
    // answering.
    let mut flipped = fs::read(&fx.built).unwrap();
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x40;
    let mut retired = b"POLINV2\0".to_vec();
    retired.resize(4096, 0);
    let refused = [
        ("corrupt.pol", flipped, "failed its CRC-64 check"),
        (
            "retired.pol",
            retired,
            "not a patterns-of-life inventory file",
        ),
    ];
    for (nth, (name, bytes, why)) in (1..).zip(refused) {
        let path = dir.join(name);
        fs::write(&path, bytes).unwrap();
        for cmd in ["verify", "serve"] {
            let out = polinv(&[cmd, arg(&path)]);
            let said = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success() && said.contains(why), "{cmd}: {said}");
        }
        let verdict = serving.reload(&path);
        assert!(
            verdict.starts_with("reload rejected") && verdict.contains(why),
            "{verdict}"
        );
        assert_serves(addr, &fx.merged, &fx.pool);
        let after = stats(addr);
        assert_eq!(after.generation, chained.generation);
        assert_eq!(after.reloads_failed, nth);
    }

    // The open-socket phase: a fleet of silent sockets sits in the
    // child's readiness table while a few carry lookups. No latency is
    // asserted: how fast is polbench's to say.
    let fleet = idle_fleet_size();
    // Written past the harness's capture: the size depends on the box,
    // and a small fleet should be seen in a green run too.
    writeln!(
        std::io::stderr(),
        "polinv_cli: holding {fleet} idle + {ACTIVE_SOCKETS} active sockets"
    )
    .ok();
    let mut idle = Vec::with_capacity(fleet);
    for i in 0..fleet {
        let socket = TcpStream::connect_timeout(&addr, WAIT)
            .unwrap_or_else(|e| panic!("idle socket {i} of {fleet}: {e}"));
        idle.push(socket);
        // Connections are accepted in order, so a PONG on a newer one
        // says the accept queue (128 deep) is empty again. Unpaced, a
        // descheduled server overflows it and each dropped SYN costs
        // the connecting side a one-second retransmit.
        if i % 32 == 31 {
            Client::connect(addr)
                .and_then(|mut c| c.ping())
                .expect("ping between waves");
        }
    }
    let mut active: Vec<Client> = (0..ACTIVE_SOCKETS)
        .map(|_| Client::connect(addr).expect("active socket"))
        .collect();
    for (i, req) in fx.pool.iter().enumerate() {
        let got = active[i % ACTIVE_SOCKETS]
            .request_once(req)
            .expect("lookup beside the fleet");
        assert_answer(&fx.merged, req, &got);
    }
    let crowded = active[0].stats().unwrap();
    let held = (fleet + ACTIVE_SOCKETS) as u64;
    assert!(
        crowded.peak_connections >= held && crowded.open_connections >= held,
        "{} open, peak {}, {held} held",
        crowded.open_connections,
        crowded.peak_connections
    );
    assert_eq!((crowded.busy_rejections, crowded.shed_at_loop), (0, 0));

    // EOF with the whole fleet still connected.
    let last = serving.stop();
    assert!(last.ends_with("(0 busy, 0 malformed)"), "{last}");
    drop(idle);
}

/// `serve` maps a chain link by link, and a `reload` of the manifest one
/// link longer maps that link: the server answers what the chain folded
/// in this process answers, and `STATS` names the mapped store and the
/// new lineage.
#[test]
fn serve_maps_a_chain_and_a_reload_maps_its_new_link() {
    let fx = fixture();
    let dir = scratch("serve_chain");
    let chain_dir = dir.join("chain");
    fs::create_dir_all(&chain_dir).unwrap();
    let mut publisher = DeltaPublisher::create(&chain_dir);
    for link in [&fx.base, &fx.delta, &fx.base] {
        publisher.publish(link).unwrap();
    }
    let manifest = publisher.manifest_path().to_path_buf();
    let (mut serving, addr) = Serving::start(&manifest, &dir);
    let served = stats(addr);
    assert_eq!((served.chain_len, served.delta_generation), (3, 2));

    publisher.publish(&fx.delta).unwrap();
    let verdict = serving.reload(&manifest);
    assert!(verdict.starts_with("reloaded"), "{verdict}");
    let (folded, _) = pol_core::codec::manifest::load_chain(&manifest).unwrap();
    assert_serves(addr, &folded, &fx.pool);
    let report = stats(addr);
    assert_eq!(report.store, "mapped-columnar");
    assert_eq!((report.chain_len, report.delta_generation), (4, 3));
    let rendered = report.render();
    for field in ["store=mapped-columnar", "chain_len=4", "delta_generation=3"] {
        assert!(rendered.contains(field), "no `{field}` in:\n{rendered}");
    }
    assert!(serving.stop().ends_with("(0 busy, 0 malformed)"));
}
