//! SIMD-vs-scalar property suite: every kernel variant compiled into this
//! build (portable, AVX2, NEON, and the runtime dispatcher itself) must
//! agree bit-for-bit with the scalar reference over *adversarial* inputs —
//! not just the valid rectangles production pages hold.
//!
//! Adversarial means: degenerate (zero-area) rects, exactly-touching edges
//! (coarse-grid coordinates make them common), negative coordinates,
//! infinities, NaN, inverted (`min > max`) rectangles that would never
//! survive page-decode validation, and set lengths straddling the kernels'
//! chunk boundaries (0, 1, 63, 64, 65 for the 64-wide portable mask; the
//! 4-lane AVX2 and 2-lane NEON tails fall out of the same lengths).
//!
//! The NaN policy pinned here (and documented in `rtree_geom::simd`):
//!
//! - **Intersection** uses IEEE ordered comparisons — any compare against
//!   NaN is false, so a NaN coordinate in either operand means *no match*.
//! - **Distance** max chains use select semantics
//!   (`if a > b { a } else { b }`), matching `_mm256_max_pd`; a NaN term
//!   drops out of the chain, and a NaN distance (possible via `∞ − ∞`)
//!   satisfies no bound.

use proptest::prelude::*;
use rtree_geom::{KernelKind, Point, Rect, RectSoA};

type IntersectFn = fn(&RectSoA, &Rect, &mut Vec<u32>);
type DistFn = fn(&RectSoA, &Point, f64, &mut Vec<(u32, f64)>);

/// Every non-scalar intersection variant this build + CPU can run. The
/// dispatcher is included so whatever the environment selected is covered
/// too.
fn intersect_variants() -> Vec<(&'static str, IntersectFn)> {
    let mut v: Vec<(&'static str, IntersectFn)> = vec![
        ("portable", |s, q, o| {
            s.as_slices().intersecting_portable(q, o)
        }),
        ("dispatch", RectSoA::intersecting),
    ];
    #[cfg(target_arch = "x86_64")]
    if KernelKind::Avx2.is_available() {
        v.push(("avx2", |s, q, o| s.as_slices().intersecting_avx2(q, o)));
    }
    #[cfg(target_arch = "aarch64")]
    v.push(("neon", |s, q, o| s.as_slices().intersecting_neon(q, o)));
    v
}

fn dist_variants() -> Vec<(&'static str, DistFn)> {
    let mut v: Vec<(&'static str, DistFn)> = vec![
        ("portable", |s, p, b, o| {
            s.as_slices().min_dist2_within_portable(p, b, o)
        }),
        ("dispatch", |s, p, b, o| {
            s.as_slices().min_dist2_within(p, b, o)
        }),
    ];
    #[cfg(target_arch = "x86_64")]
    if KernelKind::Avx2.is_available() {
        v.push(("avx2", |s, p, b, o| {
            s.as_slices().min_dist2_within_avx2(p, b, o)
        }));
    }
    #[cfg(target_arch = "aarch64")]
    v.push(("neon", |s, p, b, o| {
        s.as_slices().min_dist2_within_neon(p, b, o)
    }));
    v
}

/// Compare (index, distance) lists with NaN treated as equal to itself —
/// the variants must agree on *which* entries yield NaN, not on NaN's
/// (non-)equality.
fn assert_dist_eq(name: &str, fast: &[(u32, f64)], slow: &[(u32, f64)]) {
    assert_eq!(fast.len(), slow.len(), "{name}: lengths differ");
    for (f, s) in fast.iter().zip(slow) {
        assert_eq!(f.0, s.0, "{name}: index mismatch");
        assert!(
            f.1 == s.1 || (f.1.is_nan() && s.1.is_nan()),
            "{name}: distance mismatch at {}: {} vs {}",
            f.0,
            f.1,
            s.1
        );
    }
}

/// Adversarial coordinates: a coarse grid (touching edges), negatives,
/// infinities, NaN, and a continuous range.
fn adversarial_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        (-8i8..=8).prop_map(|i| f64::from(i) / 8.0),
        -1.0f64..=1.0,
        -1.0f64..=1.0,
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-0.0f64),
        Just(1e300),
        Just(-1e300),
    ]
}

/// Fully adversarial rectangles: no ordering between lo and hi is imposed,
/// so inverted (`min > max`) and NaN rectangles are common.
fn adversarial_rect() -> impl Strategy<Value = Rect> {
    (
        adversarial_coord(),
        adversarial_coord(),
        adversarial_coord(),
        adversarial_coord(),
    )
        .prop_map(|(x0, y0, x1, y1)| Rect {
            lo: Point::new(x0, y0),
            hi: Point::new(x1, y1),
        })
}

fn adversarial_point() -> impl Strategy<Value = Point> {
    (adversarial_coord(), adversarial_coord()).prop_map(|(x, y)| Point::new(x, y))
}

/// Rect sets at sizes pinned to the chunk boundaries (0, 1, …, 63, 64, 65,
/// 127, 128) plus arbitrary fill lengths: a full-size set is generated and
/// truncated to the selected boundary.
fn adversarial_set() -> impl Strategy<Value = Vec<Rect>> {
    const LENS: [usize; 12] = [0, 1, 2, 3, 4, 5, 63, 64, 65, 102, 127, 128];
    (
        0usize..18,
        prop::collection::vec(adversarial_rect(), 130usize),
    )
        .prop_map(|(sel, mut v)| {
            let n = if sel < LENS.len() {
                LENS[sel]
            } else {
                6 + sel * 7
            };
            v.truncate(n.min(130));
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Intersection: every variant == scalar reference, over adversarial
    /// rects and queries at chunk-boundary lengths.
    #[test]
    fn intersection_variants_match_scalar(
        rects in adversarial_set(),
        queries in prop::collection::vec(adversarial_rect(), 1..8),
    ) {
        let soa = RectSoA::from_rects(&rects);
        let mut slow = Vec::new();
        for q in &queries {
            slow.clear();
            soa.intersecting_scalar(q, &mut slow);
            for (name, run) in intersect_variants() {
                let mut fast = Vec::new();
                run(&soa, q, &mut fast);
                prop_assert_eq!(&fast, &slow, "{} vs scalar, query {:?}", name, q);
            }
        }
    }

    /// Point containment: every variant == scalar `Rect::contains_point`
    /// reference, over adversarial rects and points (including NaN points,
    /// which are contained by nothing).
    #[test]
    fn containment_variants_match_scalar(
        rects in adversarial_set(),
        p in adversarial_point(),
    ) {
        let soa = RectSoA::from_rects(&rects);
        let mut slow = Vec::new();
        soa.as_slices().containing_point_scalar(&p, &mut slow);
        let mut fast = Vec::new();
        soa.as_slices().containing_point(&p, &mut fast);
        prop_assert_eq!(&fast, &slow, "dispatch vs scalar, point {:?}", p);
    }

    /// Distance pruning: every variant == scalar reference — same surviving
    /// indices, same distances (NaN agreeing with NaN) — over adversarial
    /// inputs and bounds (including infinite and NaN bounds).
    #[test]
    fn distance_variants_match_scalar(
        rects in adversarial_set(),
        p in adversarial_point(),
        bound in prop_oneof![
            0.0f64..=4.0,
            0.0f64..=4.0,
            0.0f64..=4.0,
            0.0f64..=4.0,
            Just(f64::INFINITY),
            Just(0.0f64),
            Just(f64::NAN),
        ],
    ) {
        let soa = RectSoA::from_rects(&rects);
        let mut slow = Vec::new();
        soa.as_slices().min_dist2_within_scalar(&p, bound, &mut slow);
        for (name, run) in dist_variants() {
            let mut fast = Vec::new();
            run(&soa, &p, bound, &mut fast);
            assert_dist_eq(name, &fast, &slow);
        }
    }
}

// ---- Pinned, non-property regressions ---------------------------------

/// NaN policy, pinned: a NaN rectangle intersects nothing, and a NaN query
/// matches nothing — in every variant.
#[test]
fn nan_matches_nothing() {
    let nan_rect = Rect {
        lo: Point::new(f64::NAN, 0.0),
        hi: Point::new(1.0, 1.0),
    };
    let soa = RectSoA::from_rects(&[nan_rect, Rect::new(0.0, 0.0, 1.0, 1.0)]);
    let everything = Rect::new(-1e308, -1e308, 1e308, 1e308);
    let nan_query = Rect {
        lo: Point::new(f64::NAN, f64::NAN),
        hi: Point::new(f64::NAN, f64::NAN),
    };
    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &everything, &mut out);
        assert_eq!(out, vec![1], "{name}: NaN rect must not match");
        out.clear();
        run(&soa, &nan_query, &mut out);
        assert!(out.is_empty(), "{name}: NaN query must match nothing");
    }
}

/// Inverted rectangles (satellite fix): `min > max` never survives decode
/// validation, but if one reaches the kernels anyway, every variant —
/// including the scalar reference, which used to trip `Rect::new`'s debug
/// validity assertion via `RectSoA::get` — must agree: the empty interval
/// intersects nothing that lies on the empty side.
#[test]
fn inverted_rects_agree_across_variants() {
    let inverted_x = Rect {
        lo: Point::new(0.8, 0.0),
        hi: Point::new(0.2, 1.0), // hi.x < lo.x
    };
    let inverted_both = Rect {
        lo: Point::new(0.9, 0.9),
        hi: Point::new(0.1, 0.1),
    };
    let valid = Rect::new(0.0, 0.0, 1.0, 1.0);
    let soa = RectSoA::from_rects(&[inverted_x, inverted_both, valid]);

    // An inverted rect r intersects q iff the closed-interval comparisons
    // hold: lo <= q.hi && q.lo <= hi. A query spanning [0,1]² satisfies
    // them even for inverted rects (0.8 <= 1 && 0 <= 0.2) — the kernels
    // compute the comparisons, they do not re-validate.
    let wide = Rect::new(0.0, 0.0, 1.0, 1.0);
    // A query strictly right of hi.x = 0.2 but left of lo.x = 0.8 misses
    // the inverted-x rect under the same comparisons (q.lo.x = 0.3 > 0.2).
    let gap = Rect::new(0.3, 0.0, 0.5, 1.0);

    let mut reference_wide = Vec::new();
    soa.intersecting_scalar(&wide, &mut reference_wide);
    assert_eq!(reference_wide, vec![0, 1, 2]);
    let mut reference_gap = Vec::new();
    soa.intersecting_scalar(&gap, &mut reference_gap);
    assert_eq!(reference_gap, vec![2]);

    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &wide, &mut out);
        assert_eq!(out, reference_wide, "{name} on wide query");
        out.clear();
        run(&soa, &gap, &mut out);
        assert_eq!(out, reference_gap, "{name} on gap query");
    }

    // `get` reassembles the stored coordinates verbatim — no validation,
    // no panic (this is the regression: it used to assert in debug builds).
    assert_eq!(soa.get(0), inverted_x);
}

/// Exactly-touching edges and corners are hits in every variant (closed
/// intervals), including at negative coordinates.
#[test]
fn touching_edges_hit_in_every_variant() {
    let soa = RectSoA::from_rects(&[
        Rect::new(-1.0, -1.0, -0.5, -0.5), // shares corner (-0.5,-0.5)
        Rect::new(-0.5, -1.0, 0.0, -0.5),  // shares edge y = -0.5
        Rect::new(5.0, 5.0, 6.0, 6.0),     // disjoint
    ]);
    let q = Rect::new(-0.5, -0.5, 0.0, 0.0);
    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &q, &mut out);
        assert_eq!(out, vec![0, 1], "{name}");
    }
}

/// Every chunk-boundary length agrees on a dense all-hit / all-miss set —
/// catches off-by-ones in the vector-loop tails directly.
#[test]
fn chunk_boundary_lengths_agree() {
    for n in [0usize, 1, 2, 3, 4, 5, 63, 64, 65, 102, 127, 128, 130] {
        let rects: Vec<Rect> = (0..n)
            .map(|i| {
                let x = i as f64 * 0.001;
                Rect::new(x, 0.0, x + 0.5, 0.5)
            })
            .collect();
        let soa = RectSoA::from_rects(&rects);
        let hit_all = Rect::new(0.0, 0.0, 1.0, 1.0);
        let hit_none = Rect::new(10.0, 10.0, 11.0, 11.0);
        let p = Point::new(0.25, 0.25);
        let mut slow = Vec::new();
        soa.intersecting_scalar(&hit_all, &mut slow);
        assert_eq!(slow.len(), n);
        let mut slow_d = Vec::new();
        soa.as_slices()
            .min_dist2_within_scalar(&p, 1.0, &mut slow_d);
        for (name, run) in intersect_variants() {
            let mut out = Vec::new();
            run(&soa, &hit_all, &mut out);
            assert_eq!(out, slow, "{name} all-hit at n={n}");
            out.clear();
            run(&soa, &hit_none, &mut out);
            assert!(out.is_empty(), "{name} all-miss at n={n}");
        }
        for (name, run) in dist_variants() {
            let mut out = Vec::new();
            run(&soa, &p, 1.0, &mut out);
            assert_dist_eq(name, &out, &slow_d);
        }
    }
}

/// Infinity handling, pinned: an infinite rectangle intersects every finite
/// query; distance to it is 0 from anywhere — even from a point at `∞`,
/// where the `∞ − ∞ = NaN` intermediate drops out of the select-max chain
/// and the final clamp against 0 leaves a well-defined gap of 0. Distances
/// are never NaN.
#[test]
fn infinities_are_total() {
    let everywhere = Rect {
        lo: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        hi: Point::new(f64::INFINITY, f64::INFINITY),
    };
    let soa = RectSoA::from_rects(&[everywhere]);
    for (name, run) in intersect_variants() {
        let mut out = Vec::new();
        run(&soa, &Rect::new(0.0, 0.0, 0.1, 0.1), &mut out);
        assert_eq!(out, vec![0], "{name}");
    }
    let p = Point::new(0.5, 0.5);
    let mut slow = Vec::new();
    soa.as_slices().min_dist2_within_scalar(&p, 0.0, &mut slow);
    assert_eq!(slow, vec![(0, 0.0)], "distance to the infinite rect is 0");
    // A point at +∞ produces ∞ − ∞ = NaN inside the chain; select-max
    // drops it and the clamp against 0 yields a gap of 0 — every variant,
    // including scalar, reports distance 0, never NaN.
    let far = Point::new(f64::INFINITY, 0.0);
    let mut slow_far = Vec::new();
    soa.as_slices()
        .min_dist2_within_scalar(&far, f64::INFINITY, &mut slow_far);
    assert_eq!(slow_far, vec![(0, 0.0)], "NaN drops out, gap clamps to 0");
    for (name, run) in dist_variants() {
        let mut out = Vec::new();
        run(&soa, &far, f64::INFINITY, &mut out);
        assert_dist_eq(name, &out, &slow_far);
    }
}
