//! A local cluster process group.
//!
//! `plab cluster launch` funnels here: split the labeling, spawn one
//! `plab serve <part> --addr 127.0.0.1:0 --partial` child per backend,
//! read each child's bound address off its stderr (`listening on …`),
//! assemble the [`ClusterMap`], and start the [router](crate::router)
//! in-process. Children bind ephemeral ports themselves, so there is no
//! pick-a-port race; the map is written to the working directory for
//! post-mortem tooling.
//!
//! Shutdown is drain-then-kill: the router stops accepting and joins
//! its threads first (in-flight upward batches finish), then every
//! child is killed and reaped. The launcher prints child pids up front
//! precisely so chaos tests can SIGKILL one mid-load.

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pl_serve::{ClusterMap, Partitioner, TaggedLabeling};
use pl_wire::FrontendOptions;

use crate::router::{route_with, RouterConfig, RouterHandle};
use crate::split::{split_all, SplitReport};

/// What to launch.
#[derive(Debug, Clone)]
pub struct LaunchOptions {
    /// Binary to spawn backends with (normally `plab` itself, via
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Working directory for part files and the map.
    pub dir: PathBuf,
    /// Number of backends.
    pub backends: usize,
    /// Owners per vertex.
    pub replicas: usize,
    /// HRW seed.
    pub seed: u64,
    /// Upward router address (e.g. `127.0.0.1:0`).
    pub router_addr: String,
    /// Fault-plan spec forwarded to every backend (chaos mode).
    pub fault_plan: Option<String>,
    /// Router tuning.
    pub config: RouterConfig,
    /// The router's own front-end: connection cap, idle and stall
    /// deadlines, and a fault plan injected at the router (the backends
    /// get [`fault_plan`](Self::fault_plan) via their CLI flag).
    pub router_front: FrontendOptions,
    /// Enable trace rings cluster-wide: the router process turns its own
    /// tracing on and every backend is spawned with `--trace`, so a
    /// traced batch yields spans on both sides of the wire.
    pub trace: bool,
}

/// A running cluster: the router handle plus the backend children.
pub struct ClusterHandle {
    /// `(backend id, child, bound address)` per backend.
    pub children: Vec<(u32, Child, String)>,
    /// The in-process router.
    pub router: RouterHandle,
    /// The assembled (and saved) map.
    pub map: ClusterMap,
    /// Split accounting per backend.
    pub reports: Vec<SplitReport>,
}

impl ClusterHandle {
    /// Drains the router, then kills and reaps every backend child.
    pub fn shutdown(self) -> pl_wire::Stats {
        let stats = self.router.shutdown();
        for (_, mut child, _) in self.children {
            child.kill().ok();
            child.wait().ok();
        }
        stats
    }
}

/// Reads the child's stderr until the `listening on ADDR` line, then
/// detaches a drainer thread so the pipe can never fill and block the
/// backend.
fn wait_for_addr(backend: u32, child: &mut Child) -> Result<String, String> {
    let stderr = child
        .stderr
        .take()
        .ok_or_else(|| format!("backend {backend}: no stderr pipe"))?;
    let mut reader = std::io::BufReader::new(stderr);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut line = String::new();
    loop {
        if Instant::now() > deadline {
            return Err(format!("backend {backend}: no listening line in 30s"));
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(format!("backend {backend}: exited before binding")),
            Ok(_) => {
                if let Some(addr) = line.trim().strip_prefix("listening on ") {
                    let addr = addr.trim().to_string();
                    std::thread::Builder::new()
                        .name(format!("plcluster-drain-{backend}"))
                        .spawn(move || {
                            let mut sink = String::new();
                            while matches!(reader.read_line(&mut sink), Ok(k) if k > 0) {
                                sink.clear();
                            }
                        })
                        .ok();
                    return Ok(addr);
                }
            }
            Err(e) => return Err(format!("backend {backend}: reading stderr: {e}")),
        }
    }
}

/// Splits `tagged`, spawns the backends, waits for their addresses, and
/// starts the router. The map is saved as `cluster.plcm` in
/// `opts.dir`.
pub fn launch(tagged: &TaggedLabeling, opts: &LaunchOptions) -> Result<ClusterHandle, String> {
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("creating {:?}: {e}", opts.dir))?;
    let part = Partitioner::new(opts.seed, opts.backends, opts.replicas);
    let (parts, reports) = split_all(tagged, &part).map_err(|e| e.to_string())?;
    let mut part_paths: Vec<PathBuf> = Vec::with_capacity(parts.len());
    for (b, sub) in parts.iter().enumerate() {
        let path = opts.dir.join(format!("part_{b}.plab"));
        sub.save(&path)
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        part_paths.push(path);
    }

    let mut children: Vec<(u32, Child, String)> = Vec::with_capacity(opts.backends);
    let spawn_one = |b: u32, path: &Path| -> Result<(u32, Child, String), String> {
        let mut cmd = Command::new(&opts.exe);
        cmd.arg("serve")
            .arg(path)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--partial")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(plan) = &opts.fault_plan {
            cmd.arg("--fault-plan").arg(plan);
        }
        if opts.trace {
            cmd.arg("--trace");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning backend {b}: {e}"))?;
        let addr = wait_for_addr(b, &mut child)?;
        Ok((b, child, addr))
    };
    for (b, path) in part_paths.iter().enumerate() {
        match spawn_one(b as u32, path) {
            Ok(entry) => children.push(entry),
            Err(e) => {
                for (_, mut child, _) in children {
                    child.kill().ok();
                    child.wait().ok();
                }
                return Err(e);
            }
        }
    }

    let map = ClusterMap {
        epoch: 1,
        seed: opts.seed,
        replicas: part.replicas() as u32,
        n: u32::try_from(tagged.labeling.len()).expect("more than u32::MAX labels"), // lint: panic-ok(launch is operator tooling; vertex ids are u32 on the wire, so a larger graph cannot be served at all)
        tag: tagged.tag as u8,
        backends: children.iter().map(|(_, _, addr)| addr.clone()).collect(),
    };
    map.save(opts.dir.join("cluster.plcm"))
        .map_err(|e| format!("writing cluster.plcm: {e}"))?;

    if opts.trace {
        pl_obs::set_tracing(true);
    }
    match route_with(
        map.clone(),
        &opts.router_addr,
        opts.config.clone(),
        opts.router_front.clone(),
    ) {
        Ok(router) => Ok(ClusterHandle {
            children,
            router,
            map,
            reports,
        }),
        Err(e) => {
            for (_, mut child, _) in children {
                child.kill().ok();
                child.wait().ok();
            }
            Err(format!("binding router on {}: {e}", opts.router_addr))
        }
    }
}
