//! Fixture: a wall-clock read in simulation code breaks
//! bit-determinism across runs and thread counts.

pub fn busy_spin(spins: u64) -> u64 {
    let t0 = std::time::Instant::now();
    spins.wrapping_mul(u64::from(t0.elapsed().subsec_nanos()))
}
