//! The flight recorder: an always-on, bounded, sharded ring-buffer
//! [`Sink`] plus postmortem dumps.
//!
//! Production and chaos runs cannot afford (or want) a full JSONL
//! stream, but when something breaks the *recent* event history is
//! exactly what a postmortem needs. [`FlightRecorder`] keeps the last
//! 256 events in each of 8 rings under per-ring mutexes (every event
//! with an [`Event::shard`] hashes to "its" ring, so one noisy shard
//! cannot evict another's history), stamped with a global sequence
//! number so a dump interleaves rings back into true arrival order.
//! Both sizes are fixed; the only knobs are the dump path and the
//! trigger kinds given to [`FlightRecorder::with_dump`].
//!
//! A dump — triggered automatically the first time a trigger event
//! kind (e.g. `slo_alert`) is recorded, or manually on a chaos
//! assertion failure — writes a replayable JSONL artifact: one
//! [`Event::Message`] header describing the trigger, then the buffered
//! events oldest-first. The triggering event is always the final line,
//! since it is the newest thing in the buffer. The artifact parses
//! with [`crate::parse_jsonl`], so every existing tool (including
//! `telemetry_check`'s lossless gate) works on postmortems.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use gddr_ser::ToJson;

use crate::event::Event;
use crate::sink::Sink;

/// Ring shards; events hash across them by owning shard id.
const RINGS: usize = 8;

/// Events retained per ring shard.
const CAPACITY: usize = 256;

/// FNV-1a over a short string (ring placement for shard-less events).
fn kind_hash(kind: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in kind.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Bounded sharded ring-buffer sink. Cheap enough to stay installed
/// for every production and chaos run: recording is one atomic
/// fetch-add, one uncontended per-ring mutex, one clone, no I/O.
pub struct FlightRecorder {
    rings: Vec<Mutex<VecDeque<(u64, Event)>>>,
    seq: AtomicU64,
    /// Event kinds that trigger the automatic dump. The first
    /// occurrence wins; later triggers are ignored so the artifact
    /// captures the *initial* failure.
    dump_on: Vec<String>,
    /// Where the automatic dump is written.
    dump_path: PathBuf,
    dumped: AtomicBool,
}

impl FlightRecorder {
    /// A recorder that auto-dumps to `path` on the first event whose
    /// kind is in `dump_on`.
    pub fn with_dump(path: impl Into<PathBuf>, dump_on: &[&str]) -> Self {
        FlightRecorder {
            rings: (0..RINGS)
                .map(|_| Mutex::new(VecDeque::with_capacity(CAPACITY)))
                .collect(),
            seq: AtomicU64::new(0),
            dump_on: dump_on.iter().map(|k| (*k).to_string()).collect(),
            dump_path: path.into(),
            dumped: AtomicBool::new(false),
        }
    }

    fn ring_for(&self, event: &Event) -> &Mutex<VecDeque<(u64, Event)>> {
        let key = event.shard().unwrap_or_else(|| kind_hash(event.kind()));
        &self.rings[(key % RINGS as u64) as usize]
    }

    /// Ignores lock poisoning: a panicking worker thread must not take
    /// the recorder (whose whole point is surviving that panic) with it.
    fn lock(
        ring: &Mutex<VecDeque<(u64, Event)>>,
    ) -> std::sync::MutexGuard<'_, VecDeque<(u64, Event)>> {
        ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Events currently buffered across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| Self::lock(r).len()).sum()
    }

    /// Whether nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the automatic dump already fired.
    pub fn has_dumped(&self) -> bool {
        self.dumped.load(Ordering::Relaxed)
    }

    /// All buffered events, interleaved back into arrival order.
    fn drain_ordered(&self) -> Vec<(u64, Event)> {
        let mut all: Vec<(u64, Event)> = Vec::new();
        for ring in &self.rings {
            all.extend(Self::lock(ring).iter().cloned());
        }
        all.sort_by_key(|(seq, _)| *seq);
        all
    }

    /// Writes a postmortem JSONL artifact: a `Message` header naming
    /// the trigger, then the buffered events oldest-first. Does not
    /// clear the buffer.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn dump(&self, trigger: &str, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let header = Event::Message {
            name: "flight_recorder".to_string(),
            text: format!("postmortem trigger: {trigger}"),
        };
        writeln!(out, "{}", header.to_json().to_string())?;
        for (_, event) in self.drain_ordered() {
            writeln!(out, "{}", event.to_json().to_string())?;
        }
        out.flush()
    }

    /// Marks the auto-dump latch taken and dumps if this call won the
    /// race. Returns whether a dump was written.
    pub fn dump_once(&self, trigger: &str) -> bool {
        if self
            .dumped
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        // A failed postmortem write must not take serving down; the
        // latch stays set so the artifact reflects the first trigger.
        self.dump(trigger, &self.dump_path).is_ok()
    }
}

impl Sink for FlightRecorder {
    fn record(&self, event: &Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = Self::lock(self.ring_for(event));
            if ring.len() == CAPACITY {
                ring.pop_front();
            }
            ring.push_back((seq, event.clone()));
        }
        if self.dump_on.iter().any(|k| k == event.kind()) {
            self.dump_once(&format!("{} event", event.kind()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_jsonl;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gddr_ring_{tag}_{}.jsonl", std::process::id()))
    }

    fn counter(i: u64) -> Event {
        Event::Counter {
            name: format!("c{}", i % 3),
            delta: 1,
            total: i,
        }
    }

    fn served(shard: u64, epoch: u64) -> Event {
        Event::RungServed {
            shard,
            epoch,
            rung: "fresh".to_string(),
            shed: false,
            trace: 0,
        }
    }

    /// A recorder that never auto-dumps.
    fn recorder() -> FlightRecorder {
        FlightRecorder::with_dump(temp_path("unused"), &[])
    }

    #[test]
    fn buffer_is_bounded_and_ordered() {
        let rec = recorder();
        let retained = (RINGS * CAPACITY) as u64;
        let total = 3 * retained;
        for i in 0..total {
            rec.record(&served(i % RINGS as u64, i));
        }
        assert_eq!(rec.len(), RINGS * CAPACITY);
        let epochs: Vec<u64> = rec
            .drain_ordered()
            .iter()
            .map(|(_, e)| match e {
                Event::RungServed { epoch, .. } => *epoch,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // The newest CAPACITY per ring shard, interleaved in arrival order.
        assert_eq!(epochs, (total - retained..total).collect::<Vec<_>>());
    }

    /// Every shard-tagged kind a replica set streams.
    fn shard_history(shard: u64, epoch: u64) -> Vec<Event> {
        vec![
            served(shard, epoch),
            Event::Failover {
                shard,
                from_replica: 0,
                to_replica: 1,
                reason: "pool_dead".to_string(),
                clock: epoch,
            },
            Event::HedgeFired {
                shard,
                epoch,
                primary: 1,
                standby: 0,
                wins: 1,
                batch: 2,
            },
            Event::ReplicaRecovered {
                shard,
                replica: 0,
                probes: 8,
                clock: epoch,
            },
        ]
    }

    #[test]
    fn one_noisy_shard_cannot_evict_anothers_history() {
        let rec = recorder();
        let quiet = shard_history(1, 7);
        for event in &quiet {
            rec.record(event);
        }
        for i in 0..CAPACITY as u64 {
            for event in shard_history(2, i) {
                rec.record(&event);
            }
        }
        let kept: Vec<Event> = rec.drain_ordered().into_iter().map(|(_, e)| e).collect();
        for event in &quiet {
            assert!(kept.contains(event), "{} was evicted", event.kind());
        }
    }

    #[test]
    fn dump_writes_replayable_jsonl_with_trigger_last() {
        let path = temp_path("manual");
        let rec = recorder();
        for i in 0..10 {
            rec.record(&counter(i));
        }
        let alert = Event::SloAlert {
            shard: 3,
            metric: "serve.fresh_fraction".to_string(),
            burn_rate: 8.0,
            threshold: 4.0,
            window: 64,
            epoch: 10,
        };
        rec.record(&alert);
        rec.dump("unit test", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(matches!(&events[0], Event::Message { name, .. } if name == "flight_recorder"));
        assert_eq!(events.last(), Some(&alert));
        assert_eq!(events.len(), 12);
        // The buffer survives the dump.
        assert_eq!(rec.len(), 11);
    }

    #[test]
    fn auto_dump_fires_once_on_configured_kind() {
        let path = temp_path("auto");
        let rec = FlightRecorder::with_dump(&path, &["slo_alert"]);
        for i in 0..5 {
            rec.record(&counter(i));
        }
        assert!(!rec.has_dumped());
        let alert = Event::SloAlert {
            shard: 0,
            metric: "m".to_string(),
            burn_rate: 5.0,
            threshold: 4.0,
            window: 64,
            epoch: 5,
        };
        rec.record(&alert);
        assert!(rec.has_dumped());
        let first = std::fs::read_to_string(&path).unwrap();
        // A second trigger must not overwrite the first postmortem.
        rec.record(&alert);
        let second = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(first, second);
        let events = parse_jsonl(&first).unwrap();
        assert_eq!(events.last(), Some(&alert));
    }
}
