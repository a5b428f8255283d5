//! GCC's default unrolling heuristic and the features it consults.
//!
//! The paper's motivating example (Figure 3) lists the information GCC's
//! hard-coded heuristic looks at: `ninsns`, `av_ninsns`, `niter`,
//! `expected_loop_iterations`, `num_loop_branches` and `simple_p`. This
//! module computes those features over our RTL and re-creates the decision
//! logic of GCC 4.3's `decide_unroll_constant_iterations` /
//! `decide_unroll_runtime_iterations` (size caps, unroll-times cap,
//! divisor preference for constant trip counts, power-of-two factors for
//! runtime trip counts).

use crate::func::{LoopRegion, RtlFunction};
use crate::node::InsnBody;

/// Sentinel exported for an unknown `niter` — GCC reports a huge bound when
/// the trip count is not a compile-time constant (the value visible in the
/// paper's Figure 3 listing).
pub const NITER_UNKNOWN: f64 = 6.138_492_672_488_243e17;

/// Names of the GCC heuristic features, in the order
/// [`gcc_features`] produces them (paper Figure 3(a)).
pub const GCC_FEATURE_NAMES: [&str; 6] = [
    "ninsns",
    "av_ninsns",
    "niter",
    "expected_loop_iterations",
    "num_loop_branches",
    "simple_p",
];

/// GCC 4.3 parameter defaults used by the unrolling decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GccParams {
    /// `PARAM_MAX_UNROLLED_INSNS`.
    pub max_unrolled_insns: usize,
    /// `PARAM_MAX_AVERAGE_UNROLLED_INSNS`.
    pub max_average_unrolled_insns: usize,
    /// `PARAM_MAX_UNROLL_TIMES`.
    pub max_unroll_times: usize,
}

impl Default for GccParams {
    fn default() -> Self {
        GccParams {
            max_unrolled_insns: 200,
            max_average_unrolled_insns: 80,
            max_unroll_times: 8,
        }
    }
}

/// The six features of the GCC heuristic for one loop.
pub fn gcc_features(func: &RtlFunction, region: &LoopRegion) -> Vec<f64> {
    let ninsns = func.loop_ninsns(region);
    let branches = num_loop_branches(func, region);
    // GCC's `av_ninsns` estimates the insns executed on an average
    // iteration; without profile data it discounts the control overhead.
    let av_ninsns = ninsns.saturating_sub(branches).max(1);
    let niter = region
        .trip_count()
        .map_or(NITER_UNKNOWN, |t| t as f64);
    let expected = region.trip_count().map_or(49.0, |t| t as f64);
    vec![
        ninsns as f64,
        av_ninsns as f64,
        niter,
        expected,
        branches as f64,
        f64::from(u8::from(region.is_simple())),
    ]
}

/// Number of conditional branches inside the loop span.
pub fn num_loop_branches(func: &RtlFunction, region: &LoopRegion) -> usize {
    match func.loop_span(region) {
        Some((s, e)) => func.insns[s..e]
            .iter()
            .filter(|i| matches!(*i.body, InsnBody::CondJump { .. }))
            .count(),
        None => 0,
    }
}

/// GCC's default unroll-factor decision for one loop.
///
/// Returns 0 (leave the loop alone) or a factor in `2..=max_unroll_times`.
pub fn gcc_default_factor(func: &RtlFunction, region: &LoopRegion, params: &GccParams) -> usize {
    let ninsns = func.loop_ninsns(region).max(1);
    let branches = num_loop_branches(func, region);
    let av_ninsns = ninsns.saturating_sub(branches).max(1);

    // Size-derived cap on the unroll times.
    let mut nunroll = params.max_unrolled_insns / ninsns;
    nunroll = nunroll.min(params.max_average_unrolled_insns / av_ninsns);
    nunroll = nunroll.min(params.max_unroll_times);
    if nunroll < 2 {
        return 0;
    }

    match region.trip_count() {
        Some(niter) => {
            // Constant iterations: refuse tiny loops, prefer a factor that
            // divides the trip count (no epilogue iterations).
            if niter < 2 * nunroll as u64 {
                return 0;
            }
            for f in (2..=nunroll as u64).rev() {
                if niter % f == 0 {
                    return f as usize;
                }
            }
            nunroll
        }
        None => {
            // Runtime iterations: GCC unrolls by a power of two so the
            // entry test is cheap; non-simple ("stupid") loops use the
            // same size logic.
            let mut f = 1usize;
            while f * 2 <= nunroll {
                f *= 2;
            }
            if f < 2 {
                0
            } else {
                f
            }
        }
    }
}

/// Applies [`gcc_default_factor`] to every loop of `func`.
pub fn gcc_default_factors(
    func: &RtlFunction,
    params: &GccParams,
) -> std::collections::HashMap<usize, usize> {
    func.loops
        .iter()
        .map(|l| (l.id, gcc_default_factor(func, l, params)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::RtlProgram;

    fn lower(src: &str) -> RtlProgram {
        let ast = fegen_lang::parse_program(src).unwrap();
        lower_program(&ast).unwrap()
    }

    #[test]
    fn features_have_documented_shape() {
        let p = lower(
            "void f(int a[64]) { int i; for (i = 0; i < 64; i = i + 1) { a[i] = i; } }",
        );
        let f = &p.functions[0];
        let feats = gcc_features(f, &f.loops[0]);
        assert_eq!(feats.len(), GCC_FEATURE_NAMES.len());
        let niter = feats[2];
        assert_eq!(niter, 64.0);
        let simple_p = feats[5];
        assert_eq!(simple_p, 1.0);
        assert!(feats[0] >= 4.0, "ninsns = {}", feats[0]);
    }

    #[test]
    fn unknown_trip_count_uses_sentinel() {
        let p = lower("void f(int n) { int i; i = 0; while (i < n) { i = i + 1; } }");
        let f = &p.functions[0];
        let feats = gcc_features(f, &f.loops[0]);
        assert_eq!(feats[2], NITER_UNKNOWN);
        assert_eq!(feats[3], 49.0);
        assert_eq!(feats[5], 0.0);
    }

    #[test]
    fn constant_trip_count_prefers_divisor() {
        let p = lower(
            "void f(int a[60]) { int i; for (i = 0; i < 60; i = i + 1) { a[i] = i; } }",
        );
        let f = &p.functions[0];
        let factor = gcc_default_factor(f, &f.loops[0], &GccParams::default());
        assert!(factor >= 2);
        assert_eq!(60 % factor, 0, "factor {factor} should divide 60");
    }

    #[test]
    fn tiny_trip_count_is_not_unrolled() {
        let p = lower("void f(int a[4]) { int i; for (i = 0; i < 4; i = i + 1) { a[i] = i; } }");
        let f = &p.functions[0];
        assert_eq!(gcc_default_factor(f, &f.loops[0], &GccParams::default()), 0);
    }

    #[test]
    fn runtime_loop_gets_power_of_two() {
        let p = lower(
            "void f(int a[64], int n) { int i; for (i = 0; i < n; i = i + 1) { a[i] = i; } }",
        );
        let f = &p.functions[0];
        let factor = gcc_default_factor(f, &f.loops[0], &GccParams::default());
        assert!(factor.is_power_of_two() && factor >= 2, "factor {factor}");
    }

    #[test]
    fn huge_body_is_not_unrolled() {
        // A body with > max_unrolled_insns/2 instructions cannot unroll.
        let mut body = String::new();
        for k in 0..120 {
            body.push_str(&format!("a[i] = a[i] + {k};\n"));
        }
        let src = format!(
            "void f(int a[64], int n) {{ int i; for (i = 0; i < n; i = i + 1) {{ {body} }} }}"
        );
        let p = lower(&src);
        let f = &p.functions[0];
        assert_eq!(gcc_default_factor(f, &f.loops[0], &GccParams::default()), 0);
    }

    #[test]
    fn default_factors_cover_all_loops() {
        let p = lower(
            "void f(int m[8][8]) {\n\
               int i; int j;\n\
               for (i = 0; i < 8; i = i + 1) {\n\
                 for (j = 0; j < 8; j = j + 1) { m[i][j] = 0; }\n\
               }\n\
             }",
        );
        let f = &p.functions[0];
        let factors = gcc_default_factors(f, &GccParams::default());
        assert_eq!(factors.len(), 2);
    }
}
