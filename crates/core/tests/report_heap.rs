//! Exporting a campaign report frees what it allocates: repeated
//! `CampaignReport::to_telemetry` calls on one report leave the live heap
//! where it started. This binary installs its own counting allocator,
//! which tracks the live heap bytes of each thread.

use ascp_core::campaign::{CampaignReport, ScenarioOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn count(delta: isize) {
    // Const-initialized and without a destructor, so always accessible.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn repeated_telemetry_exports_leave_the_heap_where_it_started() {
    let outcomes = (0..20)
        .map(|i| ScenarioOutcome {
            name: format!("scenario_{i}"),
            index: i,
            metrics: vec![("mean_dps".into(), i as f64), ("locked".into(), 1.0)],
            ..ScenarioOutcome::default()
        })
        .collect();
    let report = CampaignReport {
        outcomes,
        threads: 1,
        wall_s: 0.0,
        warm_hits: 0,
        resumed: 0,
        trace: None,
    };
    let json = report.to_telemetry().to_json();
    assert!(json.contains("\"scenario_19.mean_dps\": 19"), "{json}");
    let before = LIVE.with(Cell::get);
    for _ in 0..1000 {
        assert_eq!(report.to_telemetry().to_json(), json);
    }
    let grown = LIVE.with(Cell::get) - before;
    assert_eq!(grown, 0, "1000 exports left {grown} bytes on the heap");
}
