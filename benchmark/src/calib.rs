//! The host-speed reference.
//!
//! The reference host is a two-core guest on a shared machine. Its speed
//! shifts by 10–30 % between regimes that outlast a run (a neighbour on
//! the sibling hyperthread, on the shared cache, on the disk), so wall
//! time alone says as much about the neighbours as about PartiX: ten runs
//! of one build spread by a fifth of their median. Around every slice of a
//! run and around every set-up the benchmark therefore times this fixed
//! kernel — its own code, none of the product's, the same work whatever
//! the seed — and reports times at reference speed: a slice around which
//! the kernel took 1.2× its reference time counts as 1.2× slower than it
//! would have been on the undisturbed host.
//!
//! The kernel has one part per thing a neighbour can slow down, each a
//! few milliseconds: instruction throughput, branchy compute, dependent
//! loads past the private caches, streaming reads, page faults, a thread
//! hand-off and a small synced append. Its time is the geometric mean of
//! the parts, so that no part outweighs another; no part alone tracks all
//! four workloads as well as their mean does (README, "Repeatability").

use crate::stats::{median, Rng};
use std::fs::File;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Barrier, Condvar, Mutex};
use std::time::Instant;

/// Geometric mean of the parts' seconds on the undisturbed reference host
/// with two threads running the kernel at once: the speed at which a
/// run's times are reported. Only the ratio to it enters a result.
pub const REFERENCE_S: f64 = 0.0022;

pub const PARTS: [&str; 7] = [
    "ipc", "sort", "chase", "stream", "fault", "handoff", "fsync",
];
/// The kernel is repeated and each part's median taken, which drops a
/// repetition during which the guest was descheduled.
const REPS: usize = 5;
const TABLE_SLOTS: usize = 4 << 20; // × 4 B = 16 MB: past the private caches and the TLB's reach
const FAULT_BYTES: usize = 4 << 20;
const HANDOFF_TURNS: usize = 100;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

pub struct Kernel {
    threads: usize,
    text: Vec<u8>,
    words: Vec<u64>,
    /// One cycle through every slot, in a scrambled order.
    table: Vec<u32>,
    turn: Mutex<usize>,
    moved: Condvar,
    files: Vec<(PathBuf, Mutex<File>)>,
}

impl Kernel {
    /// For `threads` threads running it at once. Built from a constant,
    /// never from `--seed`: the reference is the same work on every run.
    pub fn new(threads: usize) -> Kernel {
        let mut rng = Rng::new(0x5EED_CA11_B8A7_E000);
        // Sattolo's shuffle: a permutation that is one single cycle
        let mut table: Vec<u32> = (0..TABLE_SLOTS as u32).collect();
        for i in (1..table.len()).rev() {
            table.swap(i, rng.below(i));
        }
        let dir = crate::workloads::out_dir();
        std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
        let files = (0..threads)
            .map(|id| {
                let path = dir.join(format!("calib-{}-{id}", std::process::id()));
                let file = File::create(&path).expect("create a calibration file");
                (path, Mutex::new(file))
            })
            .collect();
        Kernel {
            threads,
            text: (0..256 << 10).map(|_| rng.next() as u8).collect(),
            words: (0..32 << 10).map(|_| rng.next()).collect(),
            table,
            turn: Mutex::new(0),
            moved: Condvar::new(),
            files,
        }
    }

    /// Seconds of each part, once through.
    fn once(&self, id: usize, file: &mut File) -> [f64; PARTS.len()] {
        let mut parts = [0.0; PARTS.len()];
        let mut next = 0;
        let mut lap = |start: Instant| {
            parts[next] = start.elapsed().as_secs_f64();
            next += 1;
        };

        // ipc: eight independent multiply chains over cache-resident text
        let start = Instant::now();
        let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..24 {
            for chunk in black_box(&self.text).chunks_exact(8) {
                for (lane, &byte) in lanes.iter_mut().zip(chunk) {
                    *lane = (*lane ^ u64::from(byte))
                        .wrapping_mul(0x0000_0100_0000_01B3)
                        .rotate_left(5);
                }
            }
        }
        black_box(lanes);
        lap(start);

        // sort: unpredictable branches
        let start = Instant::now();
        let mut words = self.words.clone();
        words.sort_unstable();
        black_box(words);
        lap(start);

        // chase: dependent loads, each a cache and TLB miss
        let start = Instant::now();
        let mut slot = id as u32;
        for _ in 0..20_000 {
            slot = self.table[slot as usize];
        }
        black_box(slot);
        lap(start);

        // stream: the same table front to back
        let start = Instant::now();
        let sum = black_box(&self.table)
            .iter()
            .fold(0u64, |sum, &v| sum.wrapping_add(u64::from(v)));
        black_box(sum);
        lap(start);

        // fault: fresh anonymous pages, touched once and given back
        let start = Instant::now();
        // SAFETY: a private anonymous mapping of FAULT_BYTES, written only
        // inside its bounds and unmapped before the pointer goes away.
        unsafe {
            let (read_write, private_anonymous) = (3, 0x22);
            let pages = mmap(
                std::ptr::null_mut(),
                FAULT_BYTES,
                read_write,
                private_anonymous,
                -1,
                0,
            );
            assert!(pages as isize != -1, "mmap failed");
            for offset in (0..FAULT_BYTES).step_by(4096) {
                pages.add(offset).write_volatile(1);
            }
            munmap(pages, FAULT_BYTES);
        }
        lap(start);

        // hand-off: the threads pass a token round, as a client and a pool
        // worker do
        let start = Instant::now();
        let mut turn = self.turn.lock().expect("no thread panics holding it");
        for _ in 0..HANDOFF_TURNS {
            while *turn % self.threads != id {
                turn = self.moved.wait(turn).expect("no thread panics holding it");
            }
            *turn += 1;
            self.moved.notify_all();
        }
        drop(turn);
        lap(start);

        // fsync: small synced appends, as a WAL makes them
        let start = Instant::now();
        for _ in 0..3 {
            file.write_all(&[7u8; 256]).expect("append to the calibration file");
            file.sync_data().expect("sync the calibration file");
        }
        lap(start);
        parts
    }

    /// Thread `id`'s share of one measurement; all `threads` threads call
    /// it together. Returns how many times its reference time the kernel
    /// took: above 1 on a slowed host.
    pub fn run(&self, id: usize) -> f64 {
        let mut file = self.files[id].1.lock().expect("one thread per file");
        let reps: Vec<_> = (0..REPS).map(|_| self.once(id, &mut file)).collect();
        let log_sum: f64 = (0..PARTS.len())
            .map(|part| median(&mut reps.iter().map(|r| r[part]).collect::<Vec<_>>()).ln())
            .sum();
        (log_sum / PARTS.len() as f64).exp() / REFERENCE_S
    }

    /// One measurement from a thread that has no clients running: starts
    /// the threads itself and returns their mean.
    pub fn measure(&self) -> f64 {
        let together = Barrier::new(self.threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|id| {
                    let together = &together;
                    scope.spawn(move || {
                        together.wait();
                        self.run(id)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kernel thread"))
                .sum::<f64>()
                / self.threads as f64
        })
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        for (path, _) in &self.files {
            let _ = std::fs::remove_file(path);
        }
    }
}
