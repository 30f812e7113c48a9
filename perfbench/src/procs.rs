//! The system under test as processes: spawning `aeetes` with its banner
//! parsed, a `/proc` sampler over its whole process tree (fleet replicas
//! included), and shutdown that leaves no process behind.

use crate::client::Conn;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Resource use of a process tree at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Summed `VmHWM` (peak resident set) of the tree's live processes, kB.
    pub hwm_kb: u64,
    /// Processes found in the tree.
    pub procs: usize,
}

impl Usage {
    pub fn hwm_mb(&self) -> f64 {
        self.hwm_kb as f64 * 1024.0 / 1e6
    }
}

/// `(state, ppid, utime + stime)` from `/proc/<pid>/stat`.
pub fn read_stat(pid: u32) -> Option<(char, u32, u64)> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may itself hold spaces or
    // parentheses: fields resume after the last `)`.
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let state = f.first()?.chars().next()?;
    let ppid = f.get(1)?.parse().ok()?;
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((state, ppid, utime + stime))
}

/// `VmHWM` of `pid` in kB (absent once the process has exited).
pub fn read_hwm_kb(pid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `root` and every process descending from it, found by walking the
/// parent links of all of `/proc`.
pub fn tree(root: u32) -> Vec<u32> {
    let mut links: Vec<(u32, u32)> = Vec::new();
    if let Ok(dir) = fs::read_dir("/proc") {
        for entry in dir.flatten() {
            if let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) {
                if let Some((_, ppid, _)) = read_stat(pid) {
                    links.push((pid, ppid));
                }
            }
        }
    }
    let mut found = vec![root];
    let mut i = 0;
    while i < found.len() {
        let parent = found[i];
        found.extend(links.iter().filter(|&&(_, pp)| pp == parent).map(|&(p, _)| p));
        i += 1;
    }
    found
}

/// Samples the whole tree under `root`.
pub fn sample_tree(root: u32) -> Usage {
    let mut usage = Usage::default();
    for pid in tree(root) {
        if let Some(kb) = read_hwm_kb(pid) {
            usage.hwm_kb += kb;
            usage.procs += 1;
        }
    }
    usage
}

/// CPU nanoseconds (user + system) used so far by each process of a tree,
/// keyed by pid. A process's count keeps the time of its threads that have
/// already exited, such as the threads a reload spawns to rebuild a shard
/// between two samples.
pub struct CpuTimes(HashMap<u32, u64>);

pub fn cpu_times(root: u32) -> CpuTimes {
    CpuTimes(tree(root).into_iter().filter_map(|pid| Some((pid, process_cpu_ns(pid)?))).collect())
}

impl CpuTimes {
    pub fn covers(&self, pid: u32) -> bool {
        self.0.contains_key(&pid)
    }

    /// CPU nanoseconds the tree has used since `before`; a process that
    /// started in between counts whole.
    pub fn cpu_ns_since(&self, before: &CpuTimes) -> u64 {
        self.0.iter().map(|(pid, &v)| v.saturating_sub(before.0.get(pid).copied().unwrap_or(0))).sum()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU nanoseconds `pid` has used, all its threads (live and exited)
/// together, or `None` once it is gone: the kernel's per-process CPU
/// clock, the sum the `utime` and `stime` of `/proc/<pid>/stat` give in
/// clock ticks, here in nanoseconds.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED), the clock id
    // clock_getcpuclockid(3) returns.
    let clock = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    (unsafe { clock_gettime(clock, &mut ts) } == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Clock ticks per second (`AT_CLKTCK` from the auxiliary vector).
pub fn clk_tck() -> u64 {
    const AT_CLKTCK: u64 = 17;
    if let Ok(aux) = fs::read("/proc/self/auxv") {
        for pair in aux.chunks_exact(16) {
            let key = u64::from_ne_bytes(pair[..8].try_into().expect("8 bytes"));
            let value = u64::from_ne_bytes(pair[8..].try_into().expect("8 bytes"));
            if key == AT_CLKTCK && value > 0 {
                return value;
            }
        }
    }
    100
}

/// A spawned `aeetes` process whose stdout and stderr go to files in the
/// work directory (a file never fills up and blocks the child the way an
/// unread pipe would). Dropping it kills and reaps the whole tree.
pub struct Proc {
    child: Option<Child>,
    pub pid: u32,
    out: PathBuf,
}

impl Proc {
    pub fn spawn(bin: &Path, args: &[String], work: &Path, tag: &str) -> Result<Proc, String> {
        let out = work.join(format!("{tag}.out"));
        let err = work.join(format!("{tag}.err"));
        let file = |p: &Path| fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(file(&out)?)
            .stderr(file(&err)?)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        Ok(Proc { pid: child.id(), child: Some(child), out })
    }

    /// Polls stdout until a line starting with `prefix` appears; returns
    /// every line up to and including it.
    pub fn wait_banner(&mut self, prefix: &str, timeout: Duration) -> Result<Vec<String>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let text = fs::read_to_string(&self.out).unwrap_or_default();
            let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
            if let Some(pos) = complete.lines().position(|l| l.starts_with(prefix)) {
                return Ok(complete.lines().take(pos + 1).map(str::to_string).collect());
            }
            if let Some(status) = self.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("process exited ({status}) before printing `{prefix}`"));
            }
            if Instant::now() > deadline {
                return Err(format!("no `{prefix}` banner within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Waits up to `timeout` for the process to exit and reaps it; kills
    /// the tree if it is still running then.
    pub fn finish(&mut self, timeout: Duration) -> Option<std::process::ExitStatus> {
        let deadline = Instant::now() + timeout;
        let child = self.child.as_mut()?;
        loop {
            if let Ok(Some(status)) = child.try_wait() {
                self.child = None;
                return Some(status);
            }
            if Instant::now() > deadline {
                self.kill_tree();
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// SIGKILLs the process and all its descendants, then reaps them.
    pub fn kill_tree(&mut self) {
        let Some(mut child) = self.child.take() else { return };
        let pids = tree(self.pid);
        for pid in pids.iter().skip(1) {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).stderr(Stdio::null()).status();
        }
        let _ = child.kill();
        let _ = child.wait();
        // Descendants are not our children: wait until they are gone.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pids.iter().skip(1).any(|&p| matches!(read_stat(p), Some((s, _, _)) if s != 'Z')) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill_tree();
    }
}

/// A running `serve` or `fleet`, ready to take requests.
pub struct Server {
    pub proc: Proc,
    pub addr: String,
    /// `(pid, address)` of each fleet replica, from the fleet banner.
    pub replicas: Vec<(u32, String)>,
    /// Spawn to first `ok` health answer (with every replica up).
    pub ready_in: Duration,
}

/// Which deployment to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// `aeetes serve --frozen --workers 2`.
    Serve,
    /// `aeetes fleet --frozen --replicas 2 --workers 1`.
    Fleet,
}

impl Server {
    pub fn start(bin: &Path, artifact: &Path, deploy: Deploy, work: &Path, tag: &str) -> Result<Server, String> {
        let engine = artifact.display().to_string();
        let mut args: Vec<String> = match deploy {
            Deploy::Serve => vec!["serve", "--frozen", "--workers", "2"],
            Deploy::Fleet => vec!["fleet", "--frozen", "--replicas", "2", "--workers", "1"],
        }
        .into_iter()
        .map(String::from)
        .collect();
        args.extend(["--engine".into(), engine, "--listen".into(), "127.0.0.1:0".into()]);
        let started = Instant::now();
        let mut proc = Proc::spawn(bin, &args, work, tag)?;
        let banner = proc.wait_banner("listening on ", Duration::from_secs(60))?;
        let addr = banner.last().and_then(|l| l.strip_prefix("listening on ")).ok_or("bad banner")?.trim().to_string();
        let replicas: Vec<(u32, String)> = banner
            .iter()
            .filter_map(|l| {
                // "replica <i> pid <pid> at <addr>"
                let f: Vec<&str> = l.split_whitespace().collect();
                match f.as_slice() {
                    ["replica", _, "pid", pid, "at", addr] => Some((pid.parse().ok()?, addr.to_string())),
                    _ => None,
                }
            })
            .collect();
        let want_replicas = if deploy == Deploy::Fleet { 2 } else { 0 };
        let mut conn = Conn::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let line = conn.call(r#"{"id":"ready","type":"health"}"#).map_err(|e| format!("health: {e}"))?;
            let v = serde_json::from_str(&line).map_err(|e| format!("health: {e}"))?;
            let ok = v.get("health").and_then(serde_json::Value::as_str) == Some("ok");
            let up = v.get("replicas_up").and_then(serde_json::Value::as_u64).unwrap_or(0) as usize;
            if ok && up >= want_replicas {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("not healthy within 60 s: {line}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let ready_in = started.elapsed();
        Ok(Server { proc, addr, replicas, ready_in })
    }

    /// Asks for a graceful shutdown and waits for the whole tree to exit;
    /// kills whatever is still running after 15 s.
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.call(r#"{"id":"bye","type":"shutdown"}"#);
        }
        let pids = tree(self.proc.pid);
        if self.proc.finish(Duration::from_secs(15)).is_some() {
            let deadline = Instant::now() + Duration::from_secs(5);
            while pids.iter().skip(1).any(|&p| matches!(read_stat(p), Some((s, _, _)) if s != 'Z')) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Dropping `self` kills anything left (and is a no-op otherwise).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parses_this_process() {
        let (state, ppid, _) = read_stat(std::process::id()).expect("own stat");
        assert!(state == 'R' || state == 'S');
        assert!(ppid > 0);
        assert!(read_hwm_kb(std::process::id()).unwrap() > 0);
        assert!(clk_tck() > 0);
    }

    #[test]
    fn process_cpu_keeps_exited_threads() {
        let me = std::process::id();
        let before = process_cpu_ns(me).expect("own CPU clock");
        let burned = std::thread::spawn(|| {
            let started = Instant::now();
            let mut x = 0u64;
            while started.elapsed() < Duration::from_millis(200) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
            }
            started.elapsed()
        })
        .join()
        .unwrap();
        let used = process_cpu_ns(me).unwrap() - before;
        // The thread is gone; its time must still be counted (allowing for
        // time it spent descheduled).
        assert!(used as f64 >= 0.5 * burned.as_nanos() as f64, "counted {used} ns of a {burned:?} spin");
    }

    /// The release binary under test: `AEETES_BIN`, as `run.py --selftest`
    /// sets it.
    fn aeetes_bin() -> PathBuf {
        PathBuf::from(std::env::var("AEETES_BIN").expect("AEETES_BIN names the aeetes binary (run `python3 perfbench/run.py --selftest`)"))
    }

    #[test]
    fn sampler_finds_the_fleet_replicas() {
        let bin = aeetes_bin();
        let work = std::env::temp_dir().join(format!("perfbench-fleet-{}", std::process::id()));
        let _ = fs::remove_dir_all(&work);
        fs::create_dir_all(&work).unwrap();
        let run = |args: &[&str]| assert!(Command::new(&bin).args(args).current_dir(&work).output().unwrap().status.success(), "{args:?}");
        run(&["generate", "--out", "data", "--profile", "pubmed", "--scale", "0.02"]);
        run(&["build", "--frozen", "--dict", "data/dict.txt", "--rules", "data/rules.tsv", "--out", "engine.aeet"]);
        let fleet = Server::start(&bin, &work.join("engine.aeet"), Deploy::Fleet, &work, "fleet").unwrap();
        assert_eq!(fleet.replicas.len(), 2, "banner names both replicas");
        let pids = tree(fleet.proc.pid);
        for (pid, _) in &fleet.replicas {
            assert!(pids.contains(pid), "replica {pid} missing from the sampled tree {pids:?}");
        }
        let usage = sample_tree(fleet.proc.pid);
        assert_eq!(usage.procs, 3, "coordinator plus two replicas");
        assert!(usage.hwm_kb > 0);
        let times = cpu_times(fleet.proc.pid);
        for (pid, _) in &fleet.replicas {
            assert!(times.0.get(pid).is_some_and(|&ns| ns > 0), "replica {pid} is timed");
        }
        let replicas: Vec<u32> = fleet.replicas.iter().map(|r| r.0).collect();
        fleet.stop();
        assert!(replicas.iter().all(|&p| matches!(read_stat(p), None | Some(('Z', _, _)))), "replicas stopped with the fleet");
        let _ = fs::remove_dir_all(&work);
    }

    #[test]
    fn tree_finds_grandchildren() {
        let work = std::env::temp_dir().join(format!("perfbench-tree-{}", std::process::id()));
        fs::create_dir_all(&work).unwrap();
        let args: Vec<String> = vec!["-c".into(), "sleep 30 & sleep 30 & wait".into()];
        let mut sh = Proc::spawn(Path::new("/bin/sh"), &args, &work, "sh").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while tree(sh.pid).len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let pids = tree(sh.pid);
        assert_eq!(pids.len(), 3, "shell plus two sleeps: {pids:?}");
        assert_eq!(sample_tree(sh.pid).procs, 3);
        sh.kill_tree();
        assert!(pids.iter().all(|&p| matches!(read_stat(p), None | Some(('Z', _, _)))));
        let _ = fs::remove_dir_all(&work);
    }
}
