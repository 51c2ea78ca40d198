//! The host-speed reference: a fixed piece of work, timed next to every
//! slice, that says how fast this host runs code like the cluster's right now.
//!
//! The benchmark runs on a few virtual CPUs of a shared machine, and how fast
//! those run changes under it: the same binary, pinned to one CPU, measured
//! 9 300 and then 11 900 multicasts a second ten minutes apart, and its slices
//! move by a quarter within a run. What moves is not the clock rate (a
//! register-only loop is steady to a few per cent) but everything that touches
//! memory the neighbours compete for: cache-missing loads, the allocator, the
//! kernel's socket and wake-up paths. The reference does a fixed amount of
//! each of the three, none of it code of the repository, so no change to the
//! program under test moves it. An end-to-end metric is reported *at the
//! nominal host speed*: a slice's rate is multiplied by how much longer than
//! [`NOMINAL`] the reference took just before and just after it, and times are
//! divided by it. `calibration.txt` has the spreads with and without.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the reference work takes on the benchmark's host when its neighbours
/// are quiet. It only fixes the scale: a host on which the reference takes
/// `NOMINAL` reports its metrics as measured.
pub const NOMINAL: Duration = Duration::from_millis(70);

/// Bytes of the table the walk chases pointers through: larger than a core's
/// private caches, so every step is a load from the shared cache.
const TABLE_BYTES: usize = 8 << 20;
/// Steps of the pointer walk per measurement (about a third of [`NOMINAL`]).
const WALK_STEPS: usize = 400_000;
/// Map insertions, each with a small heap allocation, per measurement.
const ALLOCATIONS: usize = 200_000;
/// Allocations after which the map is dropped and started afresh.
const MAP_ENTRIES: usize = 200;
/// Loopback round trips per measurement, sent in bursts of [`BURST`].
const ROUND_TRIPS: usize = 3_200;
const BURST: usize = 32;
const MESSAGE_BYTES: usize = 64;

/// The reference work and what it needs: a pointer table, and an echo thread
/// behind a loopback TCP connection.
pub struct Reference {
    table: Vec<u32>,
    at: usize,
    key: u64,
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Reference {
    /// Builds the table and starts the echo thread. The thread sleeps in
    /// `read` between measurements.
    pub fn start() -> io::Result<Self> {
        // One cycle through the whole table (Sattolo's shuffle), so the walk
        // cannot settle into a short, cached loop.
        let entries = TABLE_BYTES / std::mem::size_of::<u32>();
        let mut table: Vec<u32> = (0..entries as u32).collect();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for i in (1..entries).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table.swap(i, (x % i as u64) as usize);
        }

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut peer, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let mut message = [0u8; MESSAGE_BYTES];
            // Ends when the other side shuts the connection down.
            while peer.read_exact(&mut message).is_ok() && peer.write_all(&message).is_ok() {}
        });
        Ok(Reference {
            table,
            at: 0,
            key: 1,
            stream,
            echo: Some(echo),
        })
    }

    /// Does the reference work once and returns how long it took as a
    /// multiple of [`NOMINAL`]: above 1 the host is slower than nominal.
    pub fn slowdown(&mut self) -> Result<f64, String> {
        self.work()
            .map(|took| took.as_secs_f64() / NOMINAL.as_secs_f64())
            .map_err(|e| format!("host-speed reference: {e}"))
    }

    fn work(&mut self) -> io::Result<Duration> {
        let begin = Instant::now();

        let mut at = self.at;
        for _ in 0..WALK_STEPS {
            at = self.table[at] as usize;
        }
        self.at = at;

        let mut key = self.key;
        for _ in 0..ALLOCATIONS / MAP_ENTRIES {
            let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
            for i in 0..MAP_ENTRIES as u64 {
                key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                map.insert(key ^ i, vec![i as u8; 24 + (key % 64) as usize]);
            }
            std::hint::black_box(map.values().map(Vec::len).sum::<usize>());
        }
        self.key = key;

        let mut message = [7u8; MESSAGE_BYTES];
        for _ in 0..ROUND_TRIPS / BURST {
            for _ in 0..BURST {
                self.stream.write_all(&message)?;
            }
            for _ in 0..BURST {
                self.stream.read_exact(&mut message)?;
            }
        }

        Ok(begin.elapsed())
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_completes_and_its_thread_ends() {
        let mut reference = Reference::start().unwrap();
        let first = reference.slowdown().unwrap();
        let second = reference.slowdown().unwrap();
        assert!(first.is_finite() && first > 0.0);
        assert!(second.is_finite() && second > 0.0);
        // The walk moved on: the second measurement does not replay the first.
        assert_ne!(reference.at, 0);
        drop(reference); // joins the echo thread; a hang here fails the test
    }
}
