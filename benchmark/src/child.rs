//! Child processes and scratch directories that cannot outlive the run.
//!
//! Three layers, because each exit path needs its own:
//! * normal return or panic unwinding → `Drop` kills and reaps children
//!   and removes the scratch directory;
//! * SIGINT / SIGTERM → a handler sets a flag, every loop in the
//!   benchmark polls it ([`check_interrupt`]) and unwinds through the
//!   same `Drop`s;
//! * SIGKILL of the benchmark itself → the kernel delivers SIGKILL to
//!   each child (`PR_SET_PDEATHSIG`), since no user code gets to run.

use std::io::{self, BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn prctl(option: i32, ...) -> i32;
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only an atomic store: async-signal-safe.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Routes SIGINT and SIGTERM into [`check_interrupt`]. Call once, early.
pub fn install_signal_handlers() {
    for sig in [SIGINT, SIGTERM] {
        // SAFETY: `signal` is given a valid signal number and a handler
        // that performs a single atomic store, which is
        // async-signal-safe; no other code in this process installs
        // handlers.
        unsafe { signal(sig, on_signal) };
    }
}

/// `Err` once a termination signal has arrived; phases call this in
/// their wait loops so cleanup runs by unwinding, not by dying.
pub fn check_interrupt() -> io::Result<()> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "interrupted by signal",
        ))
    } else {
        Ok(())
    }
}

/// Sleeps until `deadline` in short steps, giving up on a signal.
pub fn sleep_until(deadline: Instant) -> io::Result<()> {
    loop {
        check_interrupt()?;
        let now = Instant::now();
        if now >= deadline {
            return Ok(());
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

/// A spawned server whose stdout is drained by a thread (so it can
/// never block on a full pipe) and which is killed and reaped on drop.
pub struct Proc {
    name: &'static str,
    child: Child,
    lines: Receiver<String>,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `cmd` from the calling thread. The parent-death signal
    /// is tied to the *thread* that forked, so this must be the main
    /// thread, which lives as long as the process.
    pub fn spawn(name: &'static str, mut cmd: Command) -> io::Result<Proc> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the closure runs between fork and exec and makes one
        // raw `prctl` syscall, which is async-signal-safe and touches
        // no memory shared with the parent.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL as u64) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let drain = std::thread::Builder::new()
            .name(format!("drain-{name}"))
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    // Keep draining after the receiver is gone.
                    let _ = tx.send(line);
                }
            })?;
        Ok(Proc {
            name,
            child,
            lines,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the first stdout line `pick` accepts, failing if the
    /// child exits or `timeout` passes first.
    pub fn wait_for_line<T>(
        &mut self,
        timeout: Duration,
        mut pick: impl FnMut(&str) -> Option<T>,
    ) -> io::Result<T> {
        let deadline = Instant::now() + timeout;
        loop {
            check_interrupt()?;
            match self.lines.recv_timeout(Duration::from_millis(50)) {
                Ok(line) => {
                    if let Some(found) = pick(&line) {
                        return Ok(found);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("{}: no banner within {timeout:?}", self.name),
                        ));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        format!("{}: exited before its banner", self.name),
                    ));
                }
            }
        }
    }

    /// Whether the child has exited on its own (a crash mid-run).
    pub fn has_exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Errors mean it is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join(); // ends at EOF, which the kill guarantees
        }
    }
}

/// A scratch directory under `benchmark/out/` removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(parent: &Path) -> io::Result<ScratchDir> {
        let dir = parent.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_wait_sees_lines_and_reports_early_exit() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo first; echo second 42; exec sleep 30"]);
        let mut p = Proc::spawn("sh", cmd).unwrap();
        let n: u32 = p
            .wait_for_line(Duration::from_secs(5), |l| {
                l.strip_prefix("second ")?.parse().ok()
            })
            .unwrap();
        assert_eq!(n, 42);
        assert!(!p.has_exited());
        let pid = p.pid();
        drop(p); // kills the sleeper
        assert!(!Path::new(&format!("/proc/{pid}")).exists());

        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo nope"]);
        let mut p = Proc::spawn("sh", cmd).unwrap();
        let err = p
            .wait_for_line(Duration::from_secs(5), |_| None::<()>)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn scratch_dir_is_removed() {
        let parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/scratch-test");
        let kept;
        {
            let d = ScratchDir::create(&parent).unwrap();
            kept = d.path().to_path_buf();
            std::fs::write(kept.join("smd.sock"), b"").unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists());
        std::fs::remove_dir_all(&parent).unwrap();
    }
}
