//! `smd_daemon` checks its command line: a bad flag or value exits 2
//! with one line on stderr before the daemon binds or prints its
//! listening banner.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `smd_daemon` with `args` and returns (exit code, stdout,
/// stderr). A daemon still running after 10 s accepted the
/// command line: it is killed and the test fails instead of hanging.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smd_daemon"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn smd_daemon");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait for smd_daemon").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("smd_daemon {args:?} was still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect smd_daemon output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_bad_command_line_exits_2_without_a_banner() {
    // A socket of its own: a daemon that wrongly accepts a line must
    // not bind anyone else's.
    let dir = std::env::temp_dir().join(format!("smd-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("smd.sock");
    let socket = socket.to_str().unwrap();
    for args in [
        &["--socket", socket, "--capacity-mib", "4G"][..],
        &["--socket", socket, "--bogus", "1"],
        &["--capacity-mib", "8", "--socket"],
    ] {
        let (code, out, err) = run(args);
        assert_eq!(code, Some(2), "{args:?}: stdout {out:?} stderr {err:?}");
        assert!(
            !out.contains("softmem-smd: serving"),
            "{args:?} printed the banner: {out:?}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: stderr {err:?}");
        assert!(err.starts_with("smd_daemon: "), "{args:?}: stderr {err:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
