//! Shared by the test binaries that watch the server's threads from outside.

use std::time::{Duration, Instant};

/// How often the thread of this process called `name` has given up the CPU
/// of its own accord (`voluntary_ctxt_switches` in
/// `/proc/self/task/*/status`): once per wait it blocked in. Allocates.
///
/// A spawned thread takes its name only once it runs, so one that is not
/// there yet is waited for.
pub fn voluntary_switches(name: &str) -> u64 {
    let wanted = format!("Name:\t{name}\n");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        let found = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
            .find(|status| status.starts_with(&wanted));
        match found {
            Some(status) => break status,
            None => assert!(Instant::now() < deadline, "no thread named {name}"),
        }
        std::thread::yield_now();
    };
    let count = status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("voluntary_ctxt_switches");
    count.trim().parse().expect("a count")
}
