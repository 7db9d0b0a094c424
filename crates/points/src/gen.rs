//! Synthetic dataset generators.
//!
//! These reproduce the paper's test geometries: random points in the volume
//! of a cube/hypercube (`cube` in the paper, any dimension here), random
//! points on the surface of a sphere (`sphere`), and a highly non-uniform 3D
//! surface point cloud standing in for the paper's scanned dinosaur
//! (`dino`, see DESIGN.md §5). Every generator is a function of its seed
//! through one [`Rng`] stream, so a point set, and every operator built on
//! it, keeps its bits as long as that stream and the draws do.

use crate::pointset::PointSet;

/// The workspace's one general RNG: the ChaCha stream cipher with 8 rounds
/// (ChaCha8, RFC 8439 quarter-round), keyed from a `u64` by splitmix64 and
/// read one 32-bit word at a time.
pub struct Rng {
    /// Cipher input: constants, 256-bit key, 64-bit block counter, zero nonce.
    state: [u32; 16],
    /// The current output block; `word` is its next unread word.
    block: [u32; 16],
    word: usize,
}

impl Rng {
    /// The stream keyed by `seed`.
    pub fn new(mut seed: u64) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
        for key in state[4..12].chunks_exact_mut(2) {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            key.copy_from_slice(&[z as u32, (z >> 32) as u32]);
        }
        Rng {
            state,
            block: [0; 16],
            word: 16,
        }
    }

    fn next_u32(&mut self) -> u32 {
        if self.word == 16 {
            let mut x = self.state;
            // 8 rounds: four double rounds of column and diagonal quarter-rounds.
            for _ in 0..4 {
                for [a, b, c, d] in [
                    [0, 4, 8, 12],
                    [1, 5, 9, 13],
                    [2, 6, 10, 14],
                    [3, 7, 11, 15],
                    [0, 5, 10, 15],
                    [1, 6, 11, 12],
                    [2, 7, 8, 13],
                    [3, 4, 9, 14],
                ] {
                    x[a] = x[a].wrapping_add(x[b]);
                    x[d] = (x[d] ^ x[a]).rotate_left(16);
                    x[c] = x[c].wrapping_add(x[d]);
                    x[b] = (x[b] ^ x[c]).rotate_left(12);
                    x[a] = x[a].wrapping_add(x[b]);
                    x[d] = (x[d] ^ x[a]).rotate_left(8);
                    x[c] = x[c].wrapping_add(x[d]);
                    x[b] = (x[b] ^ x[c]).rotate_left(7);
                }
            }
            for (out, (&w, &s)) in self.block.iter_mut().zip(x.iter().zip(&self.state)) {
                *out = w.wrapping_add(s);
            }
            let counter =
                (u64::from(self.state[13]) << 32 | u64::from(self.state[12])).wrapping_add(1);
            self.state[12..14].copy_from_slice(&[counter as u32, (counter >> 32) as u32]);
            self.word = 0;
        }
        self.word += 1;
        self.block[self.word - 1]
    }

    /// Two words, the first one low.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        (u64::from(self.next_u32()) << 32) | lo
    }

    /// Uniform in `[0, 1)`: the top 53 bits of a `u64`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform over `0..n` by a modulo (exact for a power-of-two `n`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The property tests' case loop: runs `body` on `count` cases, case `c` on
/// the stream `Rng::new(c)`, so a rerun replays every case. A failing case
/// panics again with its index and `count` in front of its own message.
#[doc(hidden)]
pub fn cases(count: u64, mut body: impl FnMut(&mut Rng)) {
    for c in 0..count {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut Rng::new(c))));
        if let Err(payload) = run {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("a panic without a message");
            panic!("case {c} of {count} failed: {msg}");
        }
    }
}

/// `n` points uniformly random in the unit hypercube `[0, 1]^dim`.
pub fn uniform_cube(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut r = Rng::new(seed);
    PointSet::from_fn(n, dim, |_, _| r.unit())
}

/// `n` points uniformly random on the surface of the unit sphere in `dim`
/// dimensions (Gaussian direction method).
pub fn sphere_surface(n: usize, dim: usize, seed: u64) -> PointSet {
    assert!(dim >= 2, "sphere surface needs dim >= 2");
    let mut r = Rng::new(seed);
    let mut coords = Vec::with_capacity(n * dim);
    let mut buf = vec![0.0f64; dim];
    for _ in 0..n {
        // Box-Muller pairs for standard normals.
        loop {
            let mut norm2 = 0.0;
            let mut k = 0;
            while k < dim {
                let u1 = r.unit().max(1e-300);
                let u2 = r.unit();
                let mag = (-2.0 * u1.ln()).sqrt();
                buf[k] = mag * (std::f64::consts::TAU * u2).cos();
                norm2 += buf[k] * buf[k];
                k += 1;
                if k < dim {
                    buf[k] = mag * (std::f64::consts::TAU * u2).sin();
                    norm2 += buf[k] * buf[k];
                    k += 1;
                }
            }
            if norm2 > 1e-20 {
                let inv = 1.0 / norm2.sqrt();
                for v in &buf {
                    coords.push(v * inv);
                }
                break;
            }
        }
    }
    PointSet::new(dim, coords)
}

/// Procedural "dino" surrogate: a highly non-uniform 3D surface point cloud
/// assembled from parametric body parts (ellipsoid body, curved neck and
/// head, tapering tail, four legs). The distribution of points across parts
/// is intentionally uneven, mimicking a scanned-model point cloud: dense on
/// the body, sparse on extremities, with large empty regions in the bounding
/// box.
pub fn dino(n: usize, seed: u64) -> PointSet {
    let mut r = Rng::new(seed);
    let mut coords = Vec::with_capacity(n * 3);
    // Part selection weights: body 45%, neck 12%, head 8%, tail 15%, legs 20%.
    for _ in 0..n {
        let t = r.unit();
        let p = if t < 0.45 {
            ellipsoid_surface(&mut r, [0.0, 0.0, 0.9], [1.4, 0.7, 0.65])
        } else if t < 0.57 {
            // Neck: tube along a quarter-circle arc rising from the body front.
            let s = r.unit();
            let ang = s * 1.2; // radians along the arc
            let cx = 1.2 + 0.9 * ang.sin();
            let cz = 1.2 + 0.9 * (1.0 - ang.cos());
            tube_ring(&mut r, [cx, 0.0, cz], 0.22 - 0.08 * s)
        } else if t < 0.65 {
            ellipsoid_surface(&mut r, [2.25, 0.0, 2.25], [0.38, 0.22, 0.2])
        } else if t < 0.80 {
            // Tail: tube along a droop curve behind the body.
            let s = r.unit();
            let cx = -1.3 - 1.6 * s;
            let cz = 0.9 - 0.55 * s + 0.25 * (3.0 * s).sin() * s;
            tube_ring(&mut r, [cx, 0.0, cz], (0.28 * (1.0 - s)).max(0.02))
        } else {
            // Legs: four vertical tapered cylinders.
            let (lx, ly) = match r.below(4) {
                0 => (0.8, 0.45),
                1 => (0.8, -0.45),
                2 => (-0.8, 0.45),
                _ => (-0.8, -0.45),
            };
            let s = r.unit(); // height fraction, 0 = foot
            let radius = 0.13 + 0.08 * s;
            let theta = r.unit() * std::f64::consts::TAU;
            [
                lx + radius * theta.cos(),
                ly + radius * theta.sin(),
                s * 0.55,
            ]
        };
        coords.extend_from_slice(&p);
    }
    PointSet::new(3, coords)
}

/// Uniform-ish sample on an axis-aligned ellipsoid surface (rejection-free
/// direction sampling; slight pole bias is irrelevant for our purposes).
fn ellipsoid_surface(r: &mut Rng, c: [f64; 3], radii: [f64; 3]) -> [f64; 3] {
    // Random direction via trig method: z uniform in [-1, 1).
    let z = -1.0 + r.unit() * 2.0;
    let theta = r.unit() * std::f64::consts::TAU;
    let rho = (1.0 - z * z).sqrt();
    let dir = [rho * theta.cos(), rho * theta.sin(), z];
    [
        c[0] + radii[0] * dir[0],
        c[1] + radii[1] * dir[1],
        c[2] + radii[2] * dir[2],
    ]
}

/// A point on a circular ring of the given radius around `c` in the y/z-ish
/// normal plane (used to shell out tube-like body parts).
fn tube_ring(r: &mut Rng, c: [f64; 3], radius: f64) -> [f64; 3] {
    let theta = r.unit() * std::f64::consts::TAU;
    [
        c[0],
        c[1] + radius * theta.cos(),
        c[2] + radius * theta.sin(),
    ]
}

/// The paper's named distributions, for harness CLI parsing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distribution3d {
    /// Uniform in the unit cube volume.
    Cube,
    /// Uniform on the unit sphere surface.
    Sphere,
    /// Procedural dinosaur surface surrogate.
    Dino,
}

impl Distribution3d {
    /// Generates `n` points of this distribution.
    pub fn generate(self, n: usize, seed: u64) -> PointSet {
        match self {
            Distribution3d::Cube => uniform_cube(n, 3, seed),
            Distribution3d::Sphere => sphere_surface(n, 3, seed),
            Distribution3d::Dino => dino(n, seed),
        }
    }

    /// Parses the harness CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cube" => Some(Distribution3d::Cube),
            "sphere" => Some(Distribution3d::Sphere),
            "dino" => Some(Distribution3d::Dino),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Distribution3d::Cube => "cube",
            Distribution3d::Sphere => "sphere",
            Distribution3d::Dino => "dino",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;

    #[test]
    fn cube_in_bounds_and_deterministic() {
        let a = uniform_cube(200, 3, 7);
        let b = uniform_cube(200, 3, 7);
        assert_eq!(a, b);
        for p in a.iter() {
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        let c = uniform_cube(200, 3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn sphere_has_unit_norm() {
        for dim in [2, 3, 5] {
            let s = sphere_surface(100, dim, 3);
            for p in s.iter() {
                let n2: f64 = p.iter().map(|x| x * x).sum();
                assert!((n2 - 1.0).abs() < 1e-12, "dim {dim}: |p|^2 = {n2}");
            }
        }
    }

    #[test]
    fn dino_is_nonuniform_3d() {
        let d = dino(2000, 5);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.len(), 2000);
        let bb = BoundingBox::of_all(&d);
        // Elongated along x (tail to head) relative to y.
        assert!(bb.extent(0) > 2.0 * bb.extent(1));
        // Non-uniform: count points near the body center vs a corner octant.
        let c = bb.center();
        let mut near_center = 0usize;
        for p in d.iter() {
            if crate::pointset::dist(p, &c) < bb.diameter() * 0.25 {
                near_center += 1;
            }
        }
        assert!(near_center > 0);
        assert!(near_center < d.len());
    }

    #[test]
    fn generated_point_sets_keep_their_bits() {
        // FNV-1a over every coordinate's bits at seeds 0, 1, 42 and u64::MAX:
        // a stream or a draw that moves by one bit changes the hash.
        let hash = |gen: &dyn Fn(u64) -> PointSet| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for seed in [0, 1, 42, u64::MAX] {
                for x in gen(seed).coords() {
                    h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
                }
            }
            h
        };
        let n = 1000;
        let got = [
            hash(&|s| uniform_cube(n, 1, s)),
            hash(&|s| uniform_cube(n, 2, s)),
            hash(&|s| uniform_cube(n, 3, s)),
            hash(&|s| uniform_cube(n, 5, s)),
            hash(&|s| sphere_surface(n, 2, s)),
            hash(&|s| sphere_surface(n, 3, s)),
            hash(&|s| sphere_surface(n, 5, s)),
            hash(&|s| dino(n, s)),
        ];
        let want = [
            0x8d04_6525_2bf3_ab5b,
            0xdee9_a9bc_a3c0_c422,
            0x8b19_8fef_17e4_a6eb,
            0xc7f6_6776_8078_cf17,
            0x786c_53c0_3daf_9d33,
            0x51d1_3c96_05b4_4f26,
            0x6588_8b21_712f_8d4f,
            0x91c0_eec6_82bb_f93c,
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn a_failing_case_names_its_index_and_fails_again_on_a_rerun() {
        let fourth = || {
            let payload = std::panic::catch_unwind(|| {
                let mut run = 0;
                cases(8, |r| {
                    run += 1;
                    assert!(run < 4, "draw {}", r.below(1000));
                })
            })
            .unwrap_err();
            payload.downcast_ref::<String>().cloned().unwrap()
        };
        let msg = fourth();
        assert!(msg.starts_with("case 3 of 8 failed: draw "), "{msg}");
        assert_eq!(fourth(), msg, "case 3 draws the same on every run");
    }

    #[test]
    fn distribution_parse_round_trip() {
        for d in [
            Distribution3d::Cube,
            Distribution3d::Sphere,
            Distribution3d::Dino,
        ] {
            assert_eq!(Distribution3d::parse(d.name()), Some(d));
        }
        assert_eq!(Distribution3d::parse("torus"), None);
    }
}
