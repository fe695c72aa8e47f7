//! Translation operators T1, T2, T3 as K×K matrices.
//!
//! In Anderson's method a translation is just "evaluate the source sphere's
//! approximation at the destination sphere's integration points" (paper
//! Fig. 2), which is linear in the source samples — a K×K matrix whose
//! entries depend only on the *relative geometry* of the two spheres. The
//! same matrices therefore serve every level (geometry is scale-invariant:
//! sphere radii are fixed ratios of box sides) and every box pair with the
//! same relative position, which is what makes the aggregation into
//! level-3 BLAS possible.
//!
//! Matrices are stored **transposed**: the traversal applies them to panels
//! of potential vectors laid out one-vector-per-row (`n_boxes × K`), so the
//! update is `OUT (n×K) += IN (n×K) · Tᵗ (K×K)` — a single GEMM with unit
//! stride everywhere.
//!
//! The paper observes that the symmetry of the sphere points makes the
//! matrices permutations of one another (§3.5). Here that is exact: when the
//! rule is invariant under a sign flip g ([`SphereRule::mirrors`]), the
//! matrix of the mirrored geometry is the stored one with rows and columns
//! permuted by g's point involution σ, to the bit. So one matrix is built
//! per mirror orbit and the rest are derived from it by `conjugate`.

use fmm_linalg::Matrix;
use fmm_sphere::{inner_kernel_row, outer_kernel_row, Mirror, SphereRule};
use fmm_tree::{interactive_field_union, supernode_decomposition, Separation};
use rayon::prelude::*;
use std::collections::HashMap;

/// Offsets of the eight child centres relative to their parent's centre,
/// in child-side units, indexed by octant.
#[inline]
pub fn child_center_offset(octant: usize) -> [f64; 3] {
    [
        (octant & 1) as f64 - 0.5,
        ((octant >> 1) & 1) as f64 - 0.5,
        ((octant >> 2) & 1) as f64 - 0.5,
    ]
}

/// The translation-matrix side of an FMM instance: all T1/T3 matrices, the
/// cube of T2 matrices the configured traversal can reach, and (with
/// supernodes) the parent-level supernode T2 matrices.
#[derive(Debug, Clone)]
pub struct TranslationSet {
    pub k: usize,
    /// Separation the T2 cube was built for.
    pub separation: Separation,
    /// `t1t[oct]`: child-outer → parent-outer (transposed).
    pub t1t: Vec<Matrix>,
    /// `t3t[oct]`: parent-inner → child-inner (transposed).
    pub t3t: Vec<Matrix>,
    /// T2 matrices (transposed) in a dense (4d+3)³ cube indexed by
    /// [`TranslationSet::t2_index_for`]; `None` for every offset the
    /// traversal never asks for. Without supernodes that is the near field
    /// only: from depth 3 on every one of the 1206 interactive offsets of
    /// the 11³ = 1331 cube is some box's, so all are stored (the paper does
    /// the same). With supernodes it is also every child-level offset the
    /// decomposition folded into a parent source; only the leftover
    /// children of the eight octants are stored (218 at two-separation).
    pub t2t: Vec<Option<Matrix>>,
    /// Supernode T2 matrices keyed by the doubled parent-centre offset.
    // det: matrices are fetched by offset key only, never iterated.
    pub t2t_super: HashMap<[i32; 3], Matrix>,
    /// T1/T3 matrices evaluated from the series; the other stored ones
    /// were derived from a mirror image ([`TranslationSet::derived`]).
    pub built_t1t3: usize,
    /// T2 matrices, supernode ones included, evaluated from the series.
    pub built_t2: usize,
}

/// Floating point work to build one K×K translation matrix with truncation
/// M: per entry a dot product, clamp and weight (~10 flops), then per series
/// term one divide, four multiplies and two add/subtracts (the Legendre
/// step `((2n−1)·u·Pₙ₋₁ − (n−1)·Pₙ₋₂)/n` and the accumulation
/// `acc += cₙ·Pₙ`) — 7 flops. Used by the precomputation-vs-replication
/// experiments (paper Figs. 8–9).
pub const fn matrix_build_flops(k: usize, m: usize) -> u64 {
    (k as u64) * (k as u64) * (7 * (m as u64 + 1) + 10)
}

/// One translation matrix, stored transposed: `kernel_row(j, row)` writes
/// the kernel row of destination point j, which is *column* j of the
/// result. The rows are written where they are produced, contiguously, and
/// the square is then transposed in place.
fn transposed_from_rows(k: usize, mut kernel_row: impl FnMut(usize, &mut [f64])) -> Matrix {
    let mut mt = Matrix::zeros(k, k);
    for j in 0..k {
        kernel_row(j, mt.row_mut(j));
    }
    let a = mt.as_mut_slice();
    for i in 0..k {
        for j in i + 1..k {
            a.swap(i * k + j, j * k + i);
        }
    }
    mt
}

/// `scale·s_j + shift`: where destination sample j sits relative to the
/// source sphere's centre.
fn sample_point(rule: &SphereRule, j: usize, scale: f64, shift: [f64; 3]) -> [f64; 3] {
    let s = rule.points[j];
    [
        scale * s[0] + shift[0],
        scale * s[1] + shift[1],
        scale * s[2] + shift[2],
    ]
}

/// `out[a][b] = m[σa][σb]`, written row by row in order: the matrix of the
/// mirror image of `m`'s geometry under the flip whose point involution is
/// `sigma`. Equal to the series evaluated at that image, bit for bit.
fn conjugate(m: &Matrix, sigma: &[usize]) -> Matrix {
    let k = sigma.len();
    let mut out = Vec::with_capacity(k * k);
    for &sa in sigma {
        let row = m.row(sa);
        out.extend(sigma.iter().map(|&sb| row[sb]));
    }
    Matrix::from_vec(k, k, out)
}

/// What a stored matrix is a function of: its family and its geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    /// T1 of a child octant.
    T1(usize),
    /// T3 of a child octant.
    T3(usize),
    /// Child-level T2 by source-centre offset.
    T2([i32; 3]),
    /// Supernode T2 by doubled parent-centre offset.
    Super([i32; 3]),
}

impl Key {
    /// The key of g's mirror image of this geometry: g sends octant `oct`
    /// to `oct ^ g.flips` and an offset to its flipped offset.
    fn image(self, g: &Mirror) -> Key {
        match self {
            Key::T1(oct) => Key::T1(oct ^ g.flips),
            Key::T3(oct) => Key::T3(oct ^ g.flips),
            Key::T2(o) => Key::T2(g.apply(o)),
            Key::Super(key) => Key::Super(g.apply(key)),
        }
    }

    /// The largest offset component, 0 for an octant.
    fn reach(self) -> i32 {
        match self {
            Key::T1(_) | Key::T3(_) => 0,
            Key::T2(v) | Key::Super(v) => v.into_iter().map(i32::abs).max().unwrap_or(0),
        }
    }

    /// A dense index, below `16 + 2(2r+1)³`, for keys of reach ≤ r.
    fn slot(self, r: i32) -> usize {
        let w = (2 * r + 1) as usize;
        let cube = |v: [i32; 3]| {
            let [x, y, z] = v.map(|c| (c + r) as usize);
            (z * w + y) * w + x
        };
        match self {
            Key::T1(oct) => oct,
            Key::T3(oct) => 8 + oct,
            Key::T2(o) => 16 + cube(o),
            Key::Super(key) => 16 + w * w * w + cube(key),
        }
    }
}

/// The series evaluation of each family's matrices, from their geometry
/// key alone; sphere radii are in units of the *child* box side.
struct Direct<'a> {
    rule: &'a SphereRule,
    m: usize,
    outer_ratio: f64,
    inner_ratio: f64,
}

impl Direct<'_> {
    fn eval(&self, key: Key) -> Matrix {
        match key {
            Key::T1(oct) => self.t1(oct),
            Key::T3(oct) => self.t3(oct),
            Key::T2(o) => self.t2(o),
            Key::Super(key) => self.t2_super(key),
        }
    }

    /// T1: parent sample j is the child's outer approximation evaluated at
    /// the parent integration point (2ρ s_j, relative to the parent
    /// centre), i.e. at 2ρ s_j − c_oct relative to the child centre.
    fn t1(&self, oct: usize) -> Matrix {
        let (rule, c) = (self.rule, child_center_offset(oct));
        transposed_from_rows(rule.len(), |j, row| {
            let x = sample_point(rule, j, 2.0 * self.outer_ratio, c.map(|v| -v));
            outer_kernel_row(rule, self.m, self.outer_ratio, x, row)
        })
    }

    /// T3: child sample j is the parent's inner approximation evaluated at
    /// c_oct + b s_j relative to the parent centre.
    fn t3(&self, oct: usize) -> Matrix {
        let (rule, c) = (self.rule, child_center_offset(oct));
        transposed_from_rows(rule.len(), |j, row| {
            let x = sample_point(rule, j, self.inner_ratio, c);
            inner_kernel_row(rule, self.m, 2.0 * self.inner_ratio, x, row)
        })
    }

    /// T2: target sample j is the source box's outer approximation
    /// evaluated at b s_j − o relative to the source centre, where o is the
    /// source-centre offset (source − target) in child boxes.
    fn t2(&self, o: [i32; 3]) -> Matrix {
        self.t2_at(self.outer_ratio, o.map(|v| v as f64))
    }

    /// Supernode T2: a parent-level source (outer radius 2ρ) keyed by the
    /// doubled, half-integral offset.
    fn t2_super(&self, key: [i32; 3]) -> Matrix {
        self.t2_at(2.0 * self.outer_ratio, key.map(|v| v as f64 / 2.0))
    }

    fn t2_at(&self, a: f64, o: [f64; 3]) -> Matrix {
        let rule = self.rule;
        transposed_from_rows(rule.len(), |j, row| {
            let x = sample_point(rule, j, self.inner_ratio, o.map(|v| -v));
            outer_kernel_row(rule, self.m, a, x, row)
        })
    }

    /// Every distinct key of `keys` with its matrix, in walk order, and the
    /// keys evaluated from the series — one per mirror orbit. A serial walk
    /// marks a key as its orbit's representative when no image of it is
    /// one yet (the mirrors form a group, so an orbit met before has its
    /// representative among the key's images). The representatives are
    /// evaluated in one parallel region, and every other key is conjugated
    /// from its representative in another. A derived matrix has the bits
    /// of its own series evaluation, so neither the route nor the thread
    /// count moves a bit.
    fn orbits(&self, keys: &[Key]) -> (Vec<(Key, Matrix)>, Vec<Key>) {
        let mirrors = self.rule.mirrors();
        let r = keys.iter().map(|key| key.reach()).max().unwrap_or(0);
        let w = (2 * r + 1) as usize;
        // Per slot: the representative of the key there, once met.
        let mut rep_of: Vec<Option<usize>> = vec![None; 16 + 2 * w * w * w];
        let mut reps = Vec::new();
        // Per distinct key: its representative and the mirror that maps
        // the representative to it (`None`: the key is one).
        let mut route = Vec::with_capacity(keys.len());
        for &key in keys {
            if rep_of[key.slot(r)].is_some() {
                continue;
            }
            let image = mirrors.iter().find_map(|g| {
                let image = key.image(g);
                let rep = rep_of[image.slot(r)].filter(|&i| reps[i] == image);
                rep.map(|i| (i, Some(g)))
            });
            let (rep, g) = image.unwrap_or_else(|| {
                reps.push(key);
                (reps.len() - 1, None)
            });
            rep_of[key.slot(r)] = Some(rep);
            route.push((key, rep, g));
        }
        let built: Vec<Matrix> = reps.par_iter().map(|&key| self.eval(key)).collect();
        let derived: Vec<Option<Matrix>> = route
            .par_iter()
            .map(|&(_, rep, g)| g.map(|g: &Mirror| conjugate(&built[rep], &g.sigma)))
            .collect();
        // The representatives were met in walk order: each `None` takes the
        // next built matrix.
        let mut built = built.into_iter();
        let matrices = route
            .iter()
            .zip(derived)
            .map(|(&(key, ..), mt)| {
                let mt = mt.or_else(|| built.next());
                (key, mt.expect("one per representative"))
            })
            .collect();
        (matrices, reps)
    }
}

impl TranslationSet {
    /// The eight T1 and the eight T3 matrices (transposed, by octant) for
    /// sphere radii in units of the *child* box side, and how many of the
    /// sixteen were evaluated from the series: a mirror g sends octant
    /// `oct` to `oct ^ g.flips`, so only one octant per mirror orbit is
    /// evaluated. The same walk as [`TranslationSet::build`], on the pool.
    pub fn build_t1_t3(
        rule: &SphereRule,
        m: usize,
        outer_ratio: f64,
        inner_ratio: f64,
    ) -> (Vec<Matrix>, Vec<Matrix>, usize) {
        let direct = Direct {
            rule,
            m,
            outer_ratio,
            inner_ratio,
        };
        let keys: Vec<Key> = (0..8).map(Key::T1).chain((0..8).map(Key::T3)).collect();
        let (matrices, reps) = direct.orbits(&keys);
        let mut t1t: Vec<Matrix> = matrices.into_iter().map(|(_, mt)| mt).collect();
        let t3t = t1t.split_off(8);
        (t1t, t3t, reps.len())
    }

    /// Build the matrices for a rule, truncation, sphere radii (in units of
    /// the box side at the *child* level) and separation.
    ///
    /// `with_supernodes` builds the set the supernode traversal uses — the
    /// parent-level source matrices and the leftover child-level ones — and
    /// not the rest of the T2 cube, so it serves `downward_pass(…,
    /// supernodes = true, …)` only; without it, the plain traversal only.
    ///
    /// One walk over every key of every family evaluates one matrix per
    /// mirror orbit and derives the rest by index permutation. The
    /// icosahedron and the odd-degree product rules (all seven flips) thus
    /// build 189 of the 1206 T2 matrices, one per orbit of
    /// [−5,5]³∖[−2,2]³, and 2 of the 16 T1/T3; the even-degree product
    /// rules (the y, z and yz flips) 351 and 4; a rule with no mirrors,
    /// everything. Both the evaluations and the derivations run on the
    /// shared thread pool whatever [`crate::Executor`] evaluates with: a
    /// set is shared by every instance with its [`crate::TranslationKey`],
    /// and the executor governs evaluation only. The bits do not depend on
    /// the thread count.
    pub fn build(
        rule: &SphereRule,
        m: usize,
        outer_ratio: f64,
        inner_ratio: f64,
        separation: Separation,
        with_supernodes: bool,
    ) -> Self {
        let direct = Direct {
            rule,
            m,
            outer_ratio,
            inner_ratio,
        };
        let mut keys: Vec<Key> = (0..8).map(Key::T1).chain((0..8).map(Key::T3)).collect();
        if with_supernodes {
            let decompositions: Vec<_> = (0..8)
                .map(|oct| {
                    supernode_decomposition([oct & 1, (oct >> 1) & 1, (oct >> 2) & 1], separation)
                })
                .collect();
            // The supernode key set is shared across octants.
            let parents = decompositions.iter().flat_map(|sd| &sd.parents);
            keys.extend(parents.map(|p| Key::Super(p.center_offset_half)));
            let children = decompositions.iter().flat_map(|sd| &sd.children);
            keys.extend(children.map(|&o| Key::T2(o)));
        } else {
            keys.extend(interactive_field_union(separation).into_iter().map(Key::T2));
        }
        let (matrices, reps) = direct.orbits(&keys);

        let w = (4 * separation.d() + 3) as usize;
        let mut t1t = Vec::with_capacity(8);
        let mut t3t = Vec::with_capacity(8);
        let mut t2t: Vec<Option<Matrix>> = vec![None; w * w * w];
        // det: keyed lookups only (see the field's justification).
        let mut t2t_super = HashMap::new();
        for (key, mt) in matrices {
            match key {
                Key::T1(_) => t1t.push(mt),
                Key::T3(_) => t3t.push(mt),
                Key::T2(o) => t2t[Self::t2_index_for(separation, o)] = Some(mt),
                Key::Super(key) => {
                    t2t_super.insert(key, mt);
                }
            }
        }
        let built_t1t3 = reps
            .iter()
            .filter(|key| matches!(key, Key::T1(_) | Key::T3(_)))
            .count();

        TranslationSet {
            k: rule.len(),
            separation,
            t1t,
            t3t,
            t2t,
            t2t_super,
            built_t1t3,
            built_t2: reps.len() - built_t1t3,
        }
    }

    /// Dense-cube index of a T2 offset.
    #[inline]
    pub fn t2_index_for(separation: Separation, o: [i32; 3]) -> usize {
        let d = separation.d();
        let r = 2 * d + 1; // offsets span [−r, r]
        let w = (2 * r + 1) as usize;
        debug_assert!(o.iter().all(|v| v.abs() <= r));
        (((o[2] + r) as usize * w) + (o[1] + r) as usize) * w + (o[0] + r) as usize
    }

    /// T2 matrix (transposed) for an offset; `None` inside the near field.
    #[inline]
    pub fn t2(&self, o: [i32; 3]) -> Option<&Matrix> {
        self.t2t[Self::t2_index_for(self.separation, o)].as_ref()
    }

    /// Number of distinct T2 matrices stored.
    pub fn t2_count(&self) -> usize {
        self.t2t.iter().filter(|m| m.is_some()).count()
    }

    /// Number of matrices stored, of every family.
    pub fn matrix_count(&self) -> usize {
        self.t1t.len() + self.t3t.len() + self.t2_count() + self.t2t_super.len()
    }

    /// Matrices evaluated from the series.
    pub fn built(&self) -> usize {
        self.built_t1t3 + self.built_t2
    }

    /// Matrices derived from a mirror image by index permutation. Every
    /// one is still stored: the GEMM runs each output column as one fma
    /// chain with p ascending, and applying a stored matrix through
    /// σ-permuted panels would run p in σ order and change bits
    /// (DESIGN §5.2).
    pub fn derived(&self) -> usize {
        self.matrix_count() - self.built()
    }

    /// Memory footprint of all stored matrices in bytes (the paper tracks
    /// this: 1331 double-precision K×K matrices are 1.53 MB at K = 12 and
    /// 53.9 MB at K = 72).
    pub fn memory_bytes(&self) -> usize {
        self.matrix_count() * self.k * self.k * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FmmConfig;
    use crate::plan::TraversalPlan;
    use fmm_linalg::Kernel;
    use fmm_sphere::{InnerApprox, OuterApprox};

    fn apply_t(mt: &Matrix, g: &[f64]) -> Vec<f64> {
        // OUT = IN · Tᵗ for a single row-vector.
        let k = g.len();
        let mut out = vec![0.0; k];
        for j in 0..k {
            let mut acc = 0.0;
            for i in 0..k {
                acc += g[i] * mt[(i, j)];
            }
            out[j] = acc;
        }
        out
    }

    fn rule5() -> SphereRule {
        SphereRule::for_order(5)
    }

    /// High-order rule for tight identity checks (test-only; building a
    /// full TranslationSet at K = 66 would be slow in debug builds, so the
    /// identity tests construct single matrices directly).
    fn rule10() -> SphereRule {
        SphereRule::product(10)
    }

    #[test]
    fn t2_cube_has_1206_matrices() {
        let ts = TranslationSet::build(&rule5(), 3, 1.0, 1.0, Separation::Two, false);
        assert_eq!(ts.t2_count(), 1206);
        assert_eq!(ts.t2t.len(), 11 * 11 * 11);
        assert!(ts.t2([0, 0, 0]).is_none());
        assert!(ts.t2([2, -1, 0]).is_none());
        assert!(ts.t2([3, 0, 0]).is_some());
        assert!(ts.t2([-5, 4, 2]).is_some());
    }

    #[test]
    fn supernode_matrix_count_is_bounded_by_offsets() {
        let ts = TranslationSet::build(&rule5(), 3, 1.0, 1.0, Separation::Two, true);
        assert!(!ts.t2t_super.is_empty());
        // Keys are odd triples (4P − 2o + 1).
        for key in ts.t2t_super.keys() {
            for v in key {
                assert!(v % 2 != 0, "doubled centre offset must be odd: {:?}", key);
            }
        }
    }

    #[test]
    fn each_setting_builds_exactly_what_its_plan_references() {
        let plan = TraversalPlan::build_with(3, Separation::Two, Kernel::Scalar);
        for supernodes in [false, true] {
            let ts = TranslationSet::build(&rule5(), 3, 1.0, 1.0, Separation::Two, supernodes);
            let idx = referenced_t2(supernodes);
            assert!(idx.iter().all(|&i| ts.t2t[i as usize].is_some()));
            assert_eq!(ts.t2_count(), idx.len(), "supernodes = {supernodes}");
            let mut keys: Vec<[i32; 3]> = plan
                .octants
                .iter()
                .flat_map(|op| op.sn_parent_keys.iter().copied())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            if supernodes {
                assert!(keys.iter().all(|key| ts.t2t_super.contains_key(key)));
                assert_eq!(ts.t2t_super.len(), keys.len());
                // 218 leftover children + 784 parent sources, against the
                // 1206 + 784 the full cube would hold.
                assert_eq!((idx.len(), keys.len()), (218, 784));
            } else {
                assert!(ts.t2t_super.is_empty());
                assert_eq!(idx.len(), 1206);
            }
        }
    }

    #[test]
    fn t1_combines_children_into_parent() {
        // Particles in one child box; T1 applied to the child's outer
        // samples must reproduce the parent's directly-built outer samples.
        let rule = rule10();
        let m = 6;
        let rho = 1.6;
        // Child box side 1, octant 5 = (1,0,1): centre offset (0.5,-0.5,0.5).
        let oct = 5;
        let cc = child_center_offset(oct);
        let t1t = transposed_from_rows(rule.len(), |j, row| {
            let s = rule.points[j];
            let x = [
                2.0 * rho * s[0] - cc[0],
                2.0 * rho * s[1] - cc[1],
                2.0 * rho * s[2] - cc[2],
            ];
            outer_kernel_row(&rule, m, rho, x, row);
        });
        let pos = vec![
            [cc[0] + 0.2, cc[1] - 0.3, cc[2] + 0.1],
            [cc[0] - 0.4, cc[1] + 0.1, cc[2] - 0.2],
        ];
        let q = vec![1.0, -0.5];
        let child = OuterApprox::from_particles(&rule, cc, rho, &pos, &q);
        let parent_direct = OuterApprox::from_particles(&rule, [0.0; 3], 2.0 * rho, &pos, &q);
        let parent_via_t1 = apply_t(&t1t, &child.g);
        for (a, b) in parent_via_t1.iter().zip(&parent_direct.g) {
            assert!(
                (a - b).abs() < 1e-4 * b.abs().max(1.0),
                "T1 sample mismatch: {} vs {}",
                a,
                b
            );
        }
    }

    #[test]
    fn t2_converts_outer_to_inner() {
        let rule = rule10();
        let m = 6;
        let (rho, b_in) = (1.6, 1.0);
        let o = [4.0, -3.0, 2.0]; // source centre − target centre, box units
        let t2t = transposed_from_rows(rule.len(), |j, row| {
            let s = rule.points[j];
            let x = [b_in * s[0] - o[0], b_in * s[1] - o[1], b_in * s[2] - o[2]];
            outer_kernel_row(&rule, m, rho, x, row);
        });
        let src_center = o;
        let pos = vec![
            [src_center[0] + 0.3, src_center[1], src_center[2] - 0.2],
            [src_center[0] - 0.1, src_center[1] + 0.4, src_center[2]],
        ];
        let q = vec![2.0, 1.0];
        let src_outer = OuterApprox::from_particles(&rule, src_center, rho, &pos, &q);
        let inner_direct = InnerApprox::from_particles(&rule, [0.0; 3], b_in, &pos, &q);
        let inner_via_t2 = apply_t(&t2t, &src_outer.g);
        for (a, b) in inner_via_t2.iter().zip(&inner_direct.g) {
            assert!(
                (a - b).abs() < 1e-4 * b.abs().max(0.2),
                "T2 sample mismatch: {} vs {}",
                a,
                b
            );
        }
    }

    #[test]
    fn t3_pushes_parent_inner_to_child() {
        let rule = rule10();
        let m = 6;
        let b_in = 1.0;
        // Far sources; parent inner at origin with radius 2b (parent side
        // 2); child at octant 2 = (0,1,0): centre (−0.5, 0.5, −0.5).
        let oct = 2;
        let cc = child_center_offset(oct);
        let t3t = transposed_from_rows(rule.len(), |j, row| {
            let s = rule.points[j];
            let x = [
                cc[0] + b_in * s[0],
                cc[1] + b_in * s[1],
                cc[2] + b_in * s[2],
            ];
            inner_kernel_row(&rule, m, 2.0 * b_in, x, row);
        });
        let pos = vec![[9.0, 2.0, -4.0], [-8.0, 6.0, 5.0]];
        let q = vec![1.0, 3.0];
        let parent_inner = InnerApprox::from_particles(&rule, [0.0; 3], 2.0 * b_in, &pos, &q);
        let child_direct = InnerApprox::from_particles(&rule, cc, b_in, &pos, &q);
        let child_via_t3 = apply_t(&t3t, &parent_inner.g);
        for (a, b) in child_via_t3.iter().zip(&child_direct.g) {
            assert!(
                (a - b).abs() < 1e-4 * b.abs().max(0.2),
                "T3 sample mismatch: {} vs {}",
                a,
                b
            );
        }
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.as_slice().len() == b.as_slice().len()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn t1_t3_matrices_are_exact_permutations_of_each_other() {
        // The paper: "due to the symmetry of the distribution of the
        // integration points on the spheres, the eight matrices required to
        // represent T1 (T3) are permutations of each other". Under the
        // icosahedral rule every octant is the flip `oct` of octant 0, and
        // its matrices are octant 0's conjugated by that flip's σ, exactly.
        let rule = rule5();
        let ts = TranslationSet::build(&rule, 5, 1.0, 1.0, Separation::Two, false);
        let mirrors = rule.mirrors();
        assert_eq!(mirrors.len(), 7);
        for g in &mirrors {
            let oct = g.flips;
            assert!(same_bits(&ts.t1t[oct], &conjugate(&ts.t1t[0], &g.sigma)));
            assert!(same_bits(&ts.t3t[oct], &conjugate(&ts.t3t[0], &g.sigma)));
        }
    }

    /// Builds the set for `order` under both supernode settings and holds
    /// every stored matrix, derived or built, to the bits of its own series
    /// evaluation. Returns `(mirrors, [(built T1/T3, built T2, stored T2)
    /// without and with supernodes])`.
    fn derived_against_direct(order: usize) -> (usize, [(usize, usize, usize); 2]) {
        let cfg = FmmConfig::order(order);
        let rule = cfg.rule();
        let direct = Direct {
            rule: &rule,
            m: cfg.m_trunc,
            outer_ratio: cfg.outer_ratio,
            inner_ratio: cfg.inner_ratio,
        };
        let r = 2 * cfg.separation.d() + 1;
        let counts = [false, true].map(|supernodes| {
            let ts = TranslationSet::build(
                &rule,
                cfg.m_trunc,
                cfg.outer_ratio,
                cfg.inner_ratio,
                cfg.separation,
                supernodes,
            );
            for oct in 0..8 {
                assert!(same_bits(&ts.t1t[oct], &direct.t1(oct)), "T1 {oct}");
                assert!(same_bits(&ts.t3t[oct], &direct.t3(oct)), "T3 {oct}");
            }
            for z in -r..=r {
                for y in -r..=r {
                    for x in -r..=r {
                        if let Some(mt) = ts.t2([x, y, z]) {
                            let o = [x, y, z];
                            assert!(same_bits(mt, &direct.t2(o)), "T2 {o:?}");
                        }
                    }
                }
            }
            for (key, mt) in &ts.t2t_super {
                assert!(same_bits(mt, &direct.t2_super(*key)), "supernode {key:?}");
            }
            assert_eq!(ts.built() + ts.derived(), ts.matrix_count());
            (
                ts.built_t1t3,
                ts.built_t2,
                ts.t2_count() + ts.t2t_super.len(),
            )
        });
        (rule.mirrors().len(), counts)
    }

    /// One matrix is built per mirror orbit, and every derived matrix has
    /// the bits a direct build gives it, for each rule kind `for_order`
    /// picks: tetrahedron (order 1, 3 mirrors), octahedron (3, 7),
    /// icosahedron (5, 7), product rules at even degree (6, 8: the y, z
    /// and yz flips) and at odd degree (7: all seven). Under all seven
    /// flips the 1206 T2 offsets fall into 189 orbits, one per point of
    /// [0,5]³∖[0,2]³; under the y and z flips into 351, by Burnside
    /// (1206 + 96 + 96 + 6)/4: 96 offsets have oy = 0, 96 have oz = 0 and 6
    /// have both.
    #[test]
    fn derived_matrices_match_direct_builds() {
        let cases = [
            (1, 3, [(4, 306, 1206), (4, 252, 1002)]),
            (3, 7, [(2, 189, 1206), (2, 135, 1002)]),
            (5, 7, [(2, 189, 1206), (2, 135, 1002)]),
            (6, 3, [(4, 351, 1206), (4, 263, 1002)]),
            (7, 7, [(2, 189, 1206), (2, 135, 1002)]),
            (8, 3, [(4, 351, 1206), (4, 263, 1002)]),
        ];
        for (order, mirrors, counts) in cases {
            assert_eq!(
                derived_against_direct(order),
                (mirrors, counts),
                "order {order}"
            );
        }
    }

    /// The same at the high orders, K = 120, 128 and 153.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn derived_matrices_match_direct_builds_high_order() {
        let cases = [
            (14, 3, [(4, 351, 1206), (4, 263, 1002)]),
            (15, 7, [(2, 189, 1206), (2, 135, 1002)]),
            (16, 3, [(4, 351, 1206), (4, 263, 1002)]),
        ];
        for (order, mirrors, counts) in cases {
            assert_eq!(
                derived_against_direct(order),
                (mirrors, counts),
                "order {order}"
            );
        }
    }

    #[test]
    fn memory_accounting_matches_paper_scale() {
        // K = 12: 1331 matrices ≈ 1.53 MB (paper §3.3.4). We store 1206 +
        // 16 parent/child matrices, so slightly less.
        let ts = TranslationSet::build(&rule5(), 3, 1.0, 1.0, Separation::Two, false);
        let mb = ts.memory_bytes() as f64 / 1e6;
        assert!(mb > 1.3 && mb < 1.6, "memory {} MB", mb);
    }

    /// The T2 cube indices the plan resolves under a supernode setting
    /// (the union over octants), ascending.
    fn referenced_t2(supernodes: bool) -> Vec<u32> {
        let plan = TraversalPlan::build_with(3, Separation::Two, Kernel::Scalar);
        let mut idx: Vec<u32> = plan
            .octants
            .iter()
            .flat_map(|op| {
                if supernodes {
                    &op.sn_child_idx
                } else {
                    &op.t2_idx
                }
            })
            .copied()
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }

    /// FNV-1a over `to_bits()` of every matrix the traversal can reach
    /// under `supernodes`: T1, T3, the referenced T2 cube entries in index
    /// order, the supernode matrices in key order.
    fn set_checksum(order: usize, supernodes: bool) -> u64 {
        checksum(&build_order(order, supernodes), supernodes)
    }

    fn build_order(order: usize, supernodes: bool) -> TranslationSet {
        let cfg = FmmConfig::order(order);
        TranslationSet::build(
            &cfg.rule(),
            cfg.m_trunc,
            cfg.outer_ratio,
            cfg.inner_ratio,
            cfg.separation,
            supernodes,
        )
    }

    fn checksum(ts: &TranslationSet, supernodes: bool) -> u64 {
        let idx = referenced_t2(supernodes);
        let mut keys: Vec<[i32; 3]> = ts.t2t_super.keys().copied().collect();
        keys.sort_unstable();
        let t2 = idx.iter().map(|&i| {
            ts.t2t[i as usize]
                .as_ref()
                .expect("every plan index resolves for the matching setting")
        });
        let sup = keys.iter().map(|key| &ts.t2t_super[key]);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for mt in ts.t1t.iter().chain(&ts.t3t).chain(t2).chain(sup) {
            for v in mt.as_slice() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The gate on the series body: every matrix entry, to the bit, as
    /// recorded at the commit before the lane-blocked body replaced the
    /// scalar loops. A "faster" recurrence that moves one bit fails here.
    /// Order 8 was re-pinned once, when the product rule's azimuths became
    /// exact sign images of one another (its points moved by ≤ 1.1e-15).
    #[test]
    fn translation_checksums_are_pinned() {
        assert_eq!(set_checksum(5, false), 0xbaf6_6b9c_fbdd_bd95, "order 5");
        assert_eq!(
            set_checksum(5, true),
            0x7c72_9f20_04ad_f8f5,
            "order 5, supernodes"
        );
        assert_eq!(set_checksum(8, false), 0x8e6f_939f_0128_f4e0, "order 8");
    }

    /// The build's two parallel phases split by thread count; the stored
    /// bits and the built/derived counts must not.
    #[test]
    fn set_bits_do_not_depend_on_threads() {
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                [(5, false), (5, true), (8, false)].map(|(order, supernodes)| {
                    let ts = build_order(order, supernodes);
                    (checksum(&ts, supernodes), ts.built(), ts.derived())
                })
            })
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn matrix_build_flops_monotone() {
        assert!(matrix_build_flops(72, 10) > matrix_build_flops(12, 10));
        assert!(matrix_build_flops(12, 20) > matrix_build_flops(12, 5));
    }
}
