//! Per-thread record lanes: which *flow* the records a thread emits
//! right now belong to.
//!
//! Each flow's [`crate::TraceHandle`] batches records before flushing
//! to the shared [`crate::Recorder`], so when several traced flows share
//! one recorder, its arrival order interleaves them by flush, not by
//! time. The lane is the fix: the simulator's event loop tags the
//! current thread with the flow id whose event it is dispatching, the
//! recorder stamps every record with the tag at arrival, and the JSONL
//! exporter orders each record stream by `(t_ns, lane, arrival)` — a
//! canonical order that depends only on what each flow emitted and
//! when, so it is the same under either event scheduler.
//!
//! The tag is a `thread_local` so instrumented code (`verus-core`'s
//! controller) needs no API change and the hot path stays a single
//! TLS cell write per event. Code that never tags (the UDP transport,
//! unit tests) leaves every record on [`NONE`], and the exporter skips
//! the reorder entirely — existing single-stream artifacts keep their
//! bytes.

use std::cell::Cell;

/// The "untagged" lane. Records carrying it are exported in plain
/// arrival order (sorting is skipped unless some record is tagged).
pub const NONE: u32 = u32::MAX;

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(NONE) };
}

/// Tags this thread: records emitted until the next [`set`]/[`clear`]
/// belong to `lane` (the simulator uses the flow id).
pub fn set(lane: u32) {
    LANE.with(|l| l.set(lane));
}

/// Untags this thread (back to [`NONE`]).
pub fn clear() {
    LANE.with(|l| l.set(NONE));
}

/// The current thread's lane tag.
#[must_use]
pub fn current() -> u32 {
    LANE.with(|l| l.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_is_per_thread() {
        clear();
        assert_eq!(current(), NONE);
        set(7);
        assert_eq!(current(), 7);
        let other = std::thread::spawn(|| {
            let before = current();
            set(9);
            (before, current())
        });
        let (before, after) = other.join().unwrap_or((0, 0));
        assert_eq!(before, NONE, "fresh thread starts untagged");
        assert_eq!(after, 9);
        assert_eq!(current(), 7, "other thread's tag does not leak");
        clear();
        assert_eq!(current(), NONE);
    }
}
