//! Allocation budget of the record read path and of the wire path: what
//! parsing one published SPF record, crawling one domain in memory, and
//! crawling one domain over DNS may ask of the allocator.
//!
//! A counting global allocator keeps one counter per thread, so a
//! measurement sees the allocations of the threads doing the work and
//! nothing else: the parse budget reads its own thread's counter, the
//! crawl budgets their own plus those of the threads started for the
//! crawl — its workers and, over DNS, the fleet's name-server threads.
//! The tests take a lock so none runs while another counts. Run with
//! `--nocapture` to see the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lazy_gatekeepers::prelude::*;

/// Mean allocations one `parse_lenient` of a population SPF root may make.
const PARSE_BUDGET: f64 = 6.0;
/// Mean allocations a one-worker crawl may make per domain.
const CRAWL_BUDGET: f64 = 9.0;
/// Mean allocations a one-worker crawl over a 2-shard [`WireFleet`] may
/// make per domain, client and servers together.
const WIRE_CRAWL_BUDGET: f64 = 55.0;

/// The population both budgets are read on: 1:200, seed 11.
const SCALE: u64 = 200;
const SEED: u64 = 11;

const SLOTS: usize = 64;

struct Counting;

/// Allocation and byte counters, one slot per thread; threads past the
/// last slot share it.
static ALLOCATIONS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> usize {
    SLOT.try_with(|slot| {
        if slot.get() == usize::MAX {
            slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1));
        }
        slot.get()
    })
    .unwrap_or(SLOTS - 1)
}

fn count(size: usize) {
    let slot = slot();
    ALLOCATIONS[slot].fetch_add(1, Ordering::Relaxed);
    BYTES[slot].fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are atomics and the slot lookup never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// `(allocations, bytes)` counted so far on this thread.
fn this_thread() -> (u64, u64) {
    let slot = slot();
    (
        ALLOCATIONS[slot].load(Ordering::Relaxed),
        BYTES[slot].load(Ordering::Relaxed),
    )
}

/// `(allocations, bytes)` counted on this thread and on every thread
/// first seen at or after slot `from`.
fn this_thread_and_newer(from: usize) -> (u64, u64) {
    let own = slot();
    let mut total = (0, 0);
    for i in (from..SLOTS).chain((own < from).then_some(own)) {
        total.0 += ALLOCATIONS[i].load(Ordering::Relaxed);
        total.1 += BYTES[i].load(Ordering::Relaxed);
    }
    total
}

fn population() -> Population {
    Population::build(PopulationConfig {
        scale: Scale { denominator: SCALE },
        seed: SEED,
    })
}

#[test]
fn parse_lenient_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let population = population();
    let roots: Vec<String> = population
        .domains
        .iter()
        .flat_map(|d| population.store.txt_strings(d))
        .filter(|text| spf_core::is_spf_record(text))
        .collect();
    assert!(roots.len() > 10_000, "{} SPF roots", roots.len());

    let before = this_thread();
    let mut kept = 0usize;
    for text in &roots {
        kept += parse_lenient(text).record.terms.len();
    }
    let after = this_thread();
    let per_record = (after.0 - before.0) as f64 / roots.len() as f64;
    let bytes_per_record = (after.1 - before.1) as f64 / roots.len() as f64;
    println!(
        "parse_lenient: {per_record:.2} allocations ({bytes_per_record:.0} B) per record \
         over {} SPF roots ({kept} terms)",
        roots.len()
    );
    assert!(
        per_record <= PARSE_BUDGET,
        "{per_record:.2} allocations per record > {PARSE_BUDGET}"
    );
}

#[test]
fn a_crawled_domain_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let population = population();
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
    let config = CrawlConfig::with_workers(1);

    let first_new_thread = NEXT_SLOT.load(Ordering::Relaxed);
    let before = this_thread_and_newer(first_new_thread);
    let output = crawl(&walker, &population.domains, config);
    let after = this_thread_and_newer(first_new_thread);
    assert!(
        first_new_thread < SLOTS - 1,
        "the crawl's worker has a counter of its own"
    );

    let domains = output.reports.len() as f64;
    let per_domain = (after.0 - before.0) as f64 / domains;
    let bytes_per_domain = (after.1 - before.1) as f64 / domains;
    println!(
        "crawl (1 worker): {per_domain:.2} allocations ({bytes_per_domain:.0} B) per domain \
         over {domains} domains"
    );
    assert!(
        per_domain <= CRAWL_BUDGET,
        "{per_domain:.2} allocations per domain > {CRAWL_BUDGET}"
    );
}

#[test]
fn a_wire_crawled_domain_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let population = population();
    let first_new_thread = NEXT_SLOT.load(Ordering::Relaxed);
    let fleet =
        WireFleet::spawn(&population.store, 2, ServerConfig::default()).expect("fleet spawns");
    let resolver = Arc::new(fleet.resolver(WireClientConfig::crawl()));
    let walker = Walker::new(Arc::clone(&resolver));
    let config = CrawlConfig::with_workers(1).backend(Backend::wire(2));

    let before = this_thread_and_newer(first_new_thread);
    let output = crawl(&walker, &population.domains, config);
    let after = this_thread_and_newer(first_new_thread);
    assert!(
        first_new_thread + 5 < SLOTS - 1,
        "the fleet's four server threads and the crawl's worker have counters of their own"
    );

    let domains = output.reports.len() as f64;
    let per_domain = (after.0 - before.0) as f64 / domains;
    let bytes_per_domain = (after.1 - before.1) as f64 / domains;
    let snapshot = resolver.snapshot();
    println!(
        "wire crawl (1 worker, 2 shards): {per_domain:.2} allocations ({bytes_per_domain:.0} B) \
         per domain over {domains} domains, {:.4} datagrams per domain",
        snapshot.amplification(output.reports.len() as u64)
    );
    assert!(
        per_domain <= WIRE_CRAWL_BUDGET,
        "{per_domain:.2} allocations per domain > {WIRE_CRAWL_BUDGET}"
    );
}
