//! An exact memo of MOSFET bias solves.
//!
//! Each op-amp analysis makes five [`Mosfet::vgs_for_current`] bias
//! solves (m1, m5, m6, and the diode-connected m3 twice), and a circuit
//! evaluation runs up to nine analyses: the nominal one and up to eight
//! corner/mismatch points, fewer when the sweep stops at the robustness
//! bound (see [`robustness_graded`]). Most of those solves repeat an
//! input the process has already solved. Widths, lengths and the tail
//! current are quantized, and the corners share one polarity's
//! parameters: FF and FS have the same fast NMOS, SS and SF the same slow
//! one, and the mismatch points pair up. [`BiasMemo`] stores the result
//! of each solve under the bits of every value the solve reads, so a
//! repeat returns the stored result of identical inputs, and every result
//! stays bit-identical to the uncached solve.
//!
//! The circuit problems share one process-wide table,
//! [`BiasMemo::shared`], of [`SLOTS`] direct-mapped entries behind one
//! lock. An evicted or colliding entry costs only speed.
//!
//! A missed solve replays its bisection from a certified bracket and
//! calls [`Mosfet::id`] about three times (see
//! [`Mosfet::vgs_for_current`]), so a hit saves less than it did against
//! a full bisection, but the memo still pays. On the two arms of the
//! Fig. 5 pair (seed 42, 60 generations, 2-core host), a drivable-load
//! evaluation took 96–103 µs with the memo turned off and 50–55 µs with
//! it, measured in a build instrumented with counters and timers.
//!
//! [`robustness_graded`]: crate::yield_est::robustness_graded

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::mosfet::Mosfet;
use crate::process::{DeviceType, Process};

/// Slots of the process-wide table, [`BiasMemo::shared`]: 4096 entries of
/// 15 words each, 480 KiB.
pub const SLOTS: usize = 4096;

/// Words of a key: the device type, W, L, the target current, V_DS,
/// V_GS,max, and the seven parameters of that polarity the solve reads
/// (`vt0`, `kp`, `esat`, `lambda`, `theta1`, `theta2`, `vk`).
const KEY_WORDS: usize = 13;

type Key = [u64; KEY_WORDS];

/// One slot: the key, then the result as a `Some` flag and the bits of
/// the value. An all-zero slot is empty: no key has a zero device word.
type Entry = [u64; KEY_WORDS + 2];

/// A fixed-capacity, direct-mapped table of exact
/// [`Mosfet::vgs_for_current`] results.
///
/// # Examples
///
/// ```
/// use analog_circuits::bias::BiasMemo;
/// use analog_circuits::mosfet::Mosfet;
/// use analog_circuits::process::{DeviceType, Process};
///
/// let memo = BiasMemo::with_slots(64);
/// let m = Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6);
/// let p = Process::nominal();
/// let direct = m.vgs_for_current(&p, 50e-6, 0.9, 1.8);
/// assert_eq!(memo.vgs_for_current(&m, &p, 50e-6, 0.9, 1.8), direct); // miss
/// assert_eq!(memo.vgs_for_current(&m, &p, 50e-6, 0.9, 1.8), direct); // hit
/// ```
#[derive(Debug)]
pub struct BiasMemo {
    slots: usize,
    table: Mutex<Table>,
}

#[derive(Debug)]
struct Table {
    entries: Box<[Entry]>,
    #[cfg(test)]
    lookups: u64,
    #[cfg(test)]
    hits: u64,
}

impl BiasMemo {
    /// A private, empty table of `slots` entries. The circuit problems use
    /// [`BiasMemo::shared`]; a private table serves tests that need a cold
    /// memo, or one so small that nearly every lookup collides.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots > 0, "a bias memo needs at least one slot");
        BiasMemo {
            slots,
            table: Mutex::new(Table {
                // Zeroed on allocation: every slot starts empty.
                entries: vec![[0; KEY_WORDS + 2]; slots].into_boxed_slice(),
                #[cfg(test)]
                lookups: 0,
                #[cfg(test)]
                hits: 0,
            }),
        }
    }

    /// The process-wide table of [`SLOTS`] entries that every circuit
    /// problem and thread shares, allocated on first use.
    pub fn shared() -> &'static BiasMemo {
        static SHARED: OnceLock<BiasMemo> = OnceLock::new();
        SHARED.get_or_init(|| BiasMemo::with_slots(SLOTS))
    }

    /// [`Mosfet::vgs_for_current`] of `m`, from the table when it holds
    /// these exact inputs, else solved and stored. Bit-identical to the
    /// uncached solve either way.
    pub fn vgs_for_current(
        &self,
        m: &Mosfet,
        process: &Process,
        target_id: f64,
        vds: f64,
        vgs_max: f64,
    ) -> Option<f64> {
        let key = key(m, process, target_id, vds, vgs_max);
        let slot = slot_of(&key, self.slots);
        if let Some(hit) = self.lock().probe(slot, &key) {
            return hit;
        }
        // Solved outside the lock: other threads keep using the table.
        let vgs = m.vgs_for_current(process, target_id, vds, vgs_max);
        self.lock().entries[slot] = entry(&key, vgs);
        vgs
    }

    /// The table, also after a panic on another thread: every write
    /// replaces a whole slot, so a poisoned table is still valid.
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(lookups, hits)` since the table was made.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (u64, u64) {
        let table = self.lock();
        (table.lookups, table.hits)
    }
}

impl Table {
    /// The stored result of `key` in `slot`, when the slot holds it.
    fn probe(&mut self, slot: usize, key: &Key) -> Option<Option<f64>> {
        #[cfg(test)]
        {
            self.lookups += 1;
        }
        let entry = &self.entries[slot];
        if entry[..KEY_WORDS] != key[..] {
            return None;
        }
        #[cfg(test)]
        {
            self.hits += 1;
        }
        Some((entry[KEY_WORDS] == 1).then(|| f64::from_bits(entry[KEY_WORDS + 1])))
    }
}

/// The bits of every value [`Mosfet::vgs_for_current`] reads.
fn key(m: &Mosfet, process: &Process, target_id: f64, vds: f64, vgs_max: f64) -> Key {
    let p = process.transistor(m.device);
    let device = match m.device {
        DeviceType::Nmos => 1,
        DeviceType::Pmos => 2,
    };
    [
        device,
        m.w.to_bits(),
        m.l.to_bits(),
        target_id.to_bits(),
        vds.to_bits(),
        vgs_max.to_bits(),
        p.vt0.to_bits(),
        p.kp.to_bits(),
        p.esat.to_bits(),
        p.lambda.to_bits(),
        p.theta1.to_bits(),
        p.theta2.to_bits(),
        p.vk.to_bits(),
    ]
}

fn entry(key: &Key, vgs: Option<f64>) -> Entry {
    let mut entry = [0; KEY_WORDS + 2];
    entry[..KEY_WORDS].copy_from_slice(key);
    entry[KEY_WORDS] = u64::from(vgs.is_some());
    entry[KEY_WORDS + 1] = vgs.map_or(0, f64::to_bits);
    entry
}

/// The slot of `key` in a table of `slots` entries: an FxHash-style mix
/// of the key words, mapped onto the slots by its high bits.
fn slot_of(key: &Key, slots: usize) -> usize {
    let hash = key.iter().fold(0u64, |h, &word| {
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    ((u128::from(hash) * slots as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{self, ClockContext};
    use crate::sizing::DesignVector;
    use crate::specs::Spec;
    use crate::yield_est;

    /// The nominal stage plus the eight-point corner sweep of one design,
    /// as the circuit problems evaluate it, through `memo`.
    fn evaluate_reference(memo: &BiasMemo) {
        let dv = DesignVector::reference();
        let process = Process::nominal();
        let clock = ClockContext::standard();
        let report = integrator::prepare_with(&dv, &process, &clock, Some(memo)).at_load(dv.cl);
        assert!(report.is_biased());
        let plan = yield_est::prepared_plan(&process);
        let spec = Spec::featured();
        yield_est::robustness_prepared(&dv, &plan, &clock, &spec, Some(&report), Some(memo));
    }

    #[test]
    fn reference_design_reuses_its_corner_solves() {
        let memo = BiasMemo::with_slots(SLOTS);
        // 9 analyses × 5 solves. Five distinct NMOS parameter sets give
        // m1 and m5 4 repeats each; seven PMOS sets give the two m3
        // solves 2 × 2 and m6 2.
        evaluate_reference(&memo);
        assert_eq!(memo.counts(), (45, 14));
        evaluate_reference(&memo);
        assert_eq!(memo.counts(), (90, 59));
    }

    #[test]
    fn stores_none_and_zero_current_results() {
        let memo = BiasMemo::with_slots(8);
        let p = Process::nominal();
        let tiny = Mosfet::new(DeviceType::Nmos, 0.5e-6, 2e-6);
        let m = Mosfet::new(DeviceType::Pmos, 20e-6, 0.5e-6);
        for _ in 0..2 {
            assert_eq!(memo.vgs_for_current(&tiny, &p, 10e-3, 0.9, 1.8), None);
            assert_eq!(memo.vgs_for_current(&m, &p, 0.0, 0.9, 1.8), Some(m.vt(&p)));
        }
    }

    #[test]
    fn one_slot_table_stays_exact() {
        let memo = BiasMemo::with_slots(1);
        let p = Process::nominal();
        let a = Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6);
        let b = Mosfet::new(DeviceType::Nmos, 12e-6, 0.5e-6);
        for m in [a, b, a, a, b] {
            assert_eq!(
                memo.vgs_for_current(&m, &p, 40e-6, 0.9, 1.8),
                m.vgs_for_current(&p, 40e-6, 0.9, 1.8)
            );
        }
        assert_eq!(memo.counts(), (5, 1));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn rejects_an_empty_table() {
        let _ = BiasMemo::with_slots(0);
    }
}
