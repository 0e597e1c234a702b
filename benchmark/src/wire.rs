//! What every workload needs to talk to a server and to check what it
//! says: the raw framed connection, the `Inventory` oracle for a request,
//! and the server child process.

use crate::scenario::Inputs;
use crate::{alloc, env};
use pol_apps::destination::DestinationPredictor;
use pol_apps::eta::EtaEstimator;
use pol_core::codec::columnar;
use pol_core::{run_fused, Inventory};
use pol_engine::Engine;
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, cell_center, CellIndex};
use pol_serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use pol_serve::{Request, Response, Server, ServerConfig};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A framed loopback connection that hands back raw payload bytes.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Buffers one frame; [`Conn::flush`] sends what is buffered.
    pub fn queue(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Reads one response payload.
    pub fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// One request, one response.
    pub fn exchange(&mut self, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        self.queue(payload)?;
        self.flush()?;
        self.recv()
    }
}

/// What the in-memory `Inventory` answers to `req`: the reference every
/// served response is compared with, byte for byte after encoding.
pub fn oracle_answer(inv: &Inventory, req: &Request) -> Response {
    let cell_of = |lat: f64, lon: f64| LatLon::new(lat, lon).map(|p| cell_at(p, inv.resolution()));
    let sorted = |mut cells: Vec<CellIndex>| {
        cells.sort_unstable_by_key(|c| c.raw());
        Response::Cells(cells.iter().map(|c| c.raw()).collect())
    };
    match req {
        Request::Ping => Response::Pong,
        Request::PointSummary { lat, lon } => {
            Response::Summary(cell_of(*lat, *lon).and_then(|c| inv.summary(c).cloned()))
        }
        Request::SegmentSummary { lat, lon, segment } => Response::Summary(
            cell_of(*lat, *lon).and_then(|c| inv.summary_for(c, *segment).cloned()),
        ),
        Request::RouteSummary {
            lat,
            lon,
            origin,
            dest,
            segment,
        } => Response::Summary(
            cell_of(*lat, *lon)
                .and_then(|c| inv.summary_route(c, *origin, *dest, *segment).cloned()),
        ),
        Request::BboxScan {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        } => match BBox::new(*min_lat, *min_lon, *max_lat, *max_lon) {
            Some(bbox) => sorted(inv.cells_in(&bbox)),
            None => Response::Error("invalid bounding box".into()),
        },
        Request::TopDestinationCells { dest, segment } => {
            sorted(inv.cells_with_top_destination(*dest, *segment))
        }
        Request::Eta {
            lat,
            lon,
            segment,
            route,
        } => match LatLon::new(*lat, *lon) {
            Some(pos) => Response::Eta(EtaEstimator::new(inv).estimate(pos, *segment, *route)),
            None => Response::Error("coordinates out of range".into()),
        },
        Request::PredictDestination {
            segment,
            top_n,
            track,
        } => {
            let mut predictor = DestinationPredictor::new(inv, *segment);
            for (lat, lon) in track {
                match LatLon::new(*lat, *lon) {
                    Some(pos) => {
                        predictor.observe(pos);
                    }
                    None => return Response::Error("track coordinate out of range".into()),
                }
            }
            Response::Destinations(predictor.top(*top_n as usize))
        }
        Request::Batch(children) => {
            Response::Batch(children.iter().map(|c| oracle_answer(inv, c)).collect())
        }
        // The benchmark never sends the introspection endpoints through
        // the oracle.
        Request::Stats | Request::Health | Request::Ready => {
            Response::Error("not an inventory query".into())
        }
    }
}

/// A point summary of the cell with the most records: the probe the
/// other workloads send a freshly opened or reloaded server.
pub fn busiest_cell_request(inv: &Inventory) -> Request {
    let busiest = inv
        .cells()
        .max_by_key(|c| (inv.summary(*c).map_or(0, |s| s.records), c.raw()))
        .map(cell_center);
    let (lat, lon) = busiest.map_or((0.0, 0.0), |p| (p.lat(), p.lon()));
    Request::PointSummary { lat, lon }
}

/// Server settings both the child and the in-process servers use:
/// defaults, with as many workers as processors.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        worker_threads: env::nproc(),
        ..ServerConfig::default()
    }
}

/// Runs the fused build and returns the inventory with its POLINV3 bytes.
pub fn build_snapshot(engine: &Engine, inputs: &Inputs) -> Result<(Inventory, Vec<u8>), String> {
    let out = run_fused(
        engine,
        inputs.positions.clone(),
        &inputs.statics,
        &inputs.ports,
        &inputs.cfg,
    )
    .map_err(|e| format!("oracle build failed: {e}"))?;
    let bytes = columnar::to_bytes(&out.inventory);
    Ok((out.inventory, bytes))
}

// ---------------------------------------------------------------------
// The server child
// ---------------------------------------------------------------------

/// `polbench serve-child <snapshot> <workers> <count-allocs 0|1>`: serves
/// one snapshot on an ephemeral loopback port, announces the address on
/// stdout, answers `counters` lines on stdin, and exits when stdin closes
/// (so it cannot outlive the benchmark).
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [snapshot, workers, count] = args else {
        return Err("usage: polbench serve-child <snapshot> <workers> <count-allocs>".into());
    };
    let workers: usize = workers
        .parse()
        .map_err(|_| "workers must be a number".to_string())?;
    alloc::set_counting(count == "1");
    let config = ServerConfig {
        worker_threads: workers,
        ..ServerConfig::default()
    };
    let mut server = Server::start_snapshot(Path::new(snapshot), "127.0.0.1:0", config)
        .map_err(|e| format!("cannot serve {snapshot}: {e}"))?;
    println!("listening on {}", server.local_addr());
    for line in std::io::stdin().lock().lines() {
        match line.as_deref() {
            Ok("counters") => {
                let (allocs, bytes) = alloc::counters();
                println!("counters {allocs} {bytes}");
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    server.shutdown();
    Ok(())
}

/// A running server child.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerChild {
    pub fn spawn(snapshot: &Path, count_allocs: bool) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg(snapshot)
            .arg(env::nproc().to_string())
            .arg(if count_allocs { "1" } else { "0" })
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("child stdout not captured")?);
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "server child announced {line:?} instead of its address"
            ));
        };
        Ok(ServerChild {
            child,
            stdin,
            stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `(allocation calls, bytes)` the child counted (zero unless it was
    /// spawned counting).
    pub fn counters(&mut self) -> (u64, u64) {
        let asked = self
            .stdin
            .as_mut()
            .is_some_and(|s| writeln!(s, "counters").is_ok());
        let mut line = String::new();
        if !asked || self.stdout.read_line(&mut line).is_err() {
            return (0, 0);
        }
        let mut fields = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0));
        (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Closing stdin asks for a clean exit; the kill covers a child
        // that is wedged. Either way it is reaped before we return.
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
