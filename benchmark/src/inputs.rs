//! The benchmark's own seeded inputs.
//!
//! Everything the measured program sees is generated here from `--seed`;
//! nothing is shared with `fmm_bench::workloads` (which later changes may
//! edit), and the generator is a fixed SplitMix64 rather than the `rand`
//! shim, so the same seed gives the same particles on every commit. The
//! unit test pins a checksum of each generator's first values.

/// SplitMix64: one multiply-xorshift chain per draw, full 64-bit period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream` (generator kind, client, request index…).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const STREAM_UNIFORM: u64 = 1;
const STREAM_PLUMMER: u64 = 2;
const STREAM_SAMPLE: u64 = 3;
const STREAM_REQUEST: u64 = 4;

/// `n` uniform points in the unit cube (the paper's uniform distribution).
pub fn uniform(n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = Rng::new(seed, STREAM_UNIFORM);
    (0..n)
        .map(|_| [rng.unit(), rng.unit(), rng.unit()])
        .collect()
}

/// One off-centre Plummer sphere (scale radius 0.12 about
/// (0.30, 0.35, 0.40)), clamped into the unit cube: a dense core away from
/// the box centre, so leaf occupancy is heavily skewed.
pub fn plummer(n: usize, seed: u64) -> Vec<[f64; 3]> {
    const CENTER: [f64; 3] = [0.30, 0.35, 0.40];
    const SCALE: f64 = 0.12;
    let mut rng = Rng::new(seed, STREAM_PLUMMER);
    (0..n)
        .map(|_| {
            // Invert the Plummer mass profile for the radius, then pick a
            // uniform direction.
            let m = rng.unit().max(1e-9);
            let r = (SCALE / (m.powf(-2.0 / 3.0) - 1.0).max(1e-9).sqrt()).min(0.45);
            let cos_t = 2.0 * rng.unit() - 1.0;
            let sin_t = (1.0 - cos_t * cos_t).sqrt();
            let phi = 2.0 * std::f64::consts::PI * rng.unit();
            [
                (CENTER[0] + r * sin_t * phi.cos()).clamp(0.001, 0.999),
                (CENTER[1] + r * sin_t * phi.sin()).clamp(0.001, 0.999),
                (CENTER[2] + r * cos_t).clamp(0.001, 0.999),
            ]
        })
        .collect()
}

/// `count` particle indices below `n` at which accuracy is checked against
/// direct summation.
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, STREAM_SAMPLE);
    (0..count).map(|_| rng.below(n)).collect()
}

/// The particles of one served request: `n` uniform points with unit
/// charges, distinct per `(seed, client, class, index)`.
pub fn request_points(n: usize, seed: u64, client: u64, class: u64, index: u64) -> Vec<[f64; 3]> {
    let stream = STREAM_REQUEST + 4 * (client + 64 * (class + 4 * index));
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| [rng.unit(), rng.unit(), rng.unit()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the little-endian bit patterns of the first 1024
    /// coordinates.
    fn fnv(points: &[[f64; 3]]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in points.iter().flatten().take(1024) {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn generators_are_pinned_for_seed_1() {
        assert_eq!(fnv(&uniform(400, 1)), 0x4dd2_867b_06cb_684c);
        assert_eq!(fnv(&plummer(400, 1)), 0x3ff6_ec9a_04f5_f80c);
        assert_eq!(fnv(&request_points(400, 1, 0, 1, 2)), 0x9bd6_cf87_1d92_1d76);
        let idx = sample_indices(1000, 1024, 1);
        let h = idx.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &i| {
            (h ^ i as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(h, 0x28db_089f_b6bf_2fbe);
    }

    #[test]
    fn seeds_and_streams_differ() {
        assert_ne!(uniform(8, 1), uniform(8, 2));
        assert_ne!(request_points(8, 1, 0, 0, 0), request_points(8, 1, 1, 0, 0));
        assert_ne!(request_points(8, 1, 0, 0, 0), request_points(8, 1, 0, 0, 1));
        assert!(plummer(2000, 3)
            .iter()
            .flatten()
            .all(|&c| (0.001..=0.999).contains(&c)));
    }
}
