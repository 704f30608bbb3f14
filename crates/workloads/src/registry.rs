//! The 23 application models of Table II.
//!
//! Each model synthesizes the page-level access pattern the paper documents
//! for that application, scaled so that simulations complete quickly while
//! preserving every ratio that matters (footprint vs. GPU memory at a given
//! oversubscription rate, reuse distance vs. TLB reach, page-set counter
//! statistics at classification time).
//!
//! Footprints here are in the 1–4 K page range (4–16 MB), ~4–8× smaller
//! than the paper's (3–130 MB). The simulator's scaled TLB configuration
//! (`uvm_sim::scaled_config`) shrinks TLB reach by the same factor so that
//! page-walk-level reuse visibility matches the paper's setup.

use uvm_util::Rng;

use crate::app::{App, PatternType, Suite};
use crate::patterns;

fn rng_for(app: &App) -> Rng {
    Rng::seed_from_u64(app.seed)
}

// ---------------------------------------------------------------------------
// Type I — streaming
// ---------------------------------------------------------------------------

fn build_hot(app: &App) -> Vec<u64> {
    // hotspot: reads temperature + power grids, writes result; each page
    // visited twice in a short window during a single pass.
    patterns::streaming(app.footprint_pages, 2)
}

fn build_leu(app: &App) -> Vec<u64> {
    // leukocyte: frame-by-frame single pass.
    patterns::streaming(app.footprint_pages, 1)
}

fn build_cut(app: &App) -> Vec<u64> {
    // cutcp: lattice points streamed, two touches per page.
    patterns::streaming(app.footprint_pages, 2)
}

fn build_2dc(app: &App) -> Vec<u64> {
    // 2DCONV: stencil input streamed once.
    patterns::streaming(app.footprint_pages, 1)
}

fn build_gem(app: &App) -> Vec<u64> {
    // GEMM C = A×B: A row-tiles streamed once; for each A tile the whole B
    // operand is reswept. B alone exceeds GPU memory at both studied
    // oversubscription rates, which is why LRU underperforms on GEM even
    // though it is a type I application (Fig. 3's "except GEM").
    let a_pages = 384u64;
    let b_pages = 2048u64;
    let c_pages = app.footprint_pages - a_pages - b_pages;
    let a_tile = 64u64;
    let n_tiles = a_pages / a_tile;
    let b_base = a_pages;
    let c_base = a_pages + b_pages;
    let mut out = Vec::new();
    for t in 0..n_tiles {
        // Touch this A tile, then stream B against it.
        let a_seq: Vec<u64> = (t * a_tile..(t + 1) * a_tile).collect();
        let b_seq: Vec<u64> = (b_base..b_base + b_pages).collect();
        out.extend(patterns::interleave(&a_seq, 2, &b_seq, 64));
        // Write back the C tile produced by this row block.
        let c_per_tile = c_pages / n_tiles;
        out.extend(c_base + t * c_per_tile..c_base + (t + 1) * c_per_tile);
    }
    out
}

// ---------------------------------------------------------------------------
// Type II — thrashing
// ---------------------------------------------------------------------------

fn build_srd(app: &App) -> Vec<u64> {
    // srad_v2: iterative stencil, whole footprint swept per iteration.
    patterns::thrashing(app.footprint_pages, 6)
}

fn build_hsd(app: &App) -> Vec<u64> {
    // hotspot3D: 3-D stencil, many iterations — the paper's best case for
    // HPE (2.81x over LRU at 75%).
    patterns::thrashing(app.footprint_pages, 8)
}

fn build_mrq(app: &App) -> Vec<u64> {
    // mri-q: Q computation re-reads sample data per chunk.
    patterns::thrashing(app.footprint_pages, 4)
}

fn build_stn(app: &App) -> Vec<u64> {
    // stencil: smaller-footprint iterative sweep.
    patterns::thrashing(app.footprint_pages, 6)
}

// ---------------------------------------------------------------------------
// Type III — part repetitive
// ---------------------------------------------------------------------------

fn build_pat(app: &App) -> Vec<u64> {
    // pathfinder: row pass with some rows (page sets) revisited.
    patterns::part_repetitive(app.footprint_pages, 16, 0.30, 1, &mut rng_for(app))
}

fn build_dwt(app: &App) -> Vec<u64> {
    // dwt2d: wavelet levels revisit a fraction of the image sets.
    patterns::part_repetitive(app.footprint_pages, 16, 0.40, 2, &mut rng_for(app))
}

fn build_bkp(app: &App) -> Vec<u64> {
    // backprop: layer pass, some weight sets revisited.
    patterns::part_repetitive(app.footprint_pages, 16, 0.25, 1, &mut rng_for(app))
}

fn build_kmn(app: &App) -> Vec<u64> {
    // kmeans: largest footprint; per-page (feature-row) reuse counts vary,
    // making page-set counters indivisible by the set size — the paper's
    // motivating outlier for classifying by ratio_1 (irregular#2).
    let mut rng = rng_for(app);
    let features = app.footprint_pages - 256;
    // Centroids are seeded with one pass over the centroid region.
    let mut out: Vec<u64> = (features..app.footprint_pages).collect();
    for _ in 0..2 {
        let pass = patterns::page_irregular(features, 256, 3, &mut rng);
        // Centroid pages interjected between feature reads.
        out.extend(patterns::with_hot_region(
            &pass, features, 256, 24, 1, &mut rng,
        ));
    }
    out
}

fn build_sad(app: &App) -> Vec<u64> {
    // sad: per-macroblock reuse varies by page; two passes.
    let mut rng = rng_for(app);
    let n = app.footprint_pages;
    let mut out = patterns::page_irregular(n, 256, 2, &mut rng);
    out.extend(patterns::page_irregular(n, 256, 2, &mut rng));
    out
}

// ---------------------------------------------------------------------------
// Type IV — most repetitive
// ---------------------------------------------------------------------------

fn build_nw(app: &App) -> Vec<u64> {
    // nw: the paper's even/odd example (Section IV-C). The input matrix's
    // even pages are swept for several (jittered) rounds while the output
    // array streams alongside (the streaming faults keep HIR flushes
    // flowing so the even-page reuse reaches the page set chain); then the
    // odd pages likewise; finally a full traceback pass over the input.
    let mut rng = rng_for(app);
    let input = 1024u64;
    let out_half = (app.footprint_pages - input) / 2;
    let even = patterns::parity_phase_jittered(input, 0, 6, 8, &mut rng);
    let out_a: Vec<u64> = (input..input + out_half).collect();
    let odd = patterns::parity_phase_jittered(input, 1, 6, 8, &mut rng);
    let out_b: Vec<u64> = (input + out_half..app.footprint_pages).collect();
    let mut seq = patterns::interleave(&even, 64, &out_a, 8);
    seq.extend(patterns::interleave(&odd, 64, &out_b, 8));
    seq.extend(patterns::streaming(input, 1));
    seq
}

fn build_bfs(app: &App) -> Vec<u64> {
    // bfs: per level, the edge array is reswept (embedded thrashing — the
    // reason the paper's dynamic adjustment must switch BFS from LRU to
    // MRU-C) while frontier node pages are touched irregularly.
    let mut rng = rng_for(app);
    let edge_pages = 1024u64;
    let node_pages = app.footprint_pages - edge_pages;
    // Node array (levels, visited flags) is initialized with one full pass.
    let mut out: Vec<u64> = (edge_pages..edge_pages + node_pages).collect();
    for _ in 0..6 {
        let sweep = patterns::streaming(edge_pages, 1);
        out.extend(patterns::with_hot_region(
            &sweep, edge_pages, node_pages, 16, 2, &mut rng,
        ));
    }
    out
}

fn build_mvt(app: &App) -> Vec<u64> {
    // MVT: touches pages with an address stride of 4 (Section V-B), which
    // wastes HIR entry space (only 4 of 16 counters per entry used). A
    // partial (probabilistic) resweep of each column keeps the page-set
    // counters indivisible at every oversubscription rate, matching MVT's
    // irregular classification.
    let mut rng = rng_for(app);
    let n = app.footprint_pages;
    let mut out = Vec::new();
    for _pass in 0..2 {
        for offset in 0..4 {
            let cols = patterns::strided(n, 4, offset, 1);
            out.extend_from_slice(&cols);
            out.extend(cols.iter().copied().filter(|_| rng.gen_bool(0.4)));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Type V — repetitive-thrashing
// ---------------------------------------------------------------------------

fn build_hwl(app: &App) -> Vec<u64> {
    // heartwall: windowed frame processing (each window of pages reswept a
    // few times before moving on), whole pass repeated per frame batch.
    // Windows are 512 pages — comfortably larger than the warp-concurrency
    // shuffle plus TLB reach, so the resweeps stay visible as page walks —
    // and four rounds per window drive the per-set touch count past the
    // saturating counter maximum, which absorbs the walk-count jitter that
    // fault-queue skew introduces (the reason the paper saturates at 64).
    let one = patterns::region_moving(app.footprint_pages, 3, 6);
    let mut out = Vec::new();
    for _ in 0..3 {
        out.extend_from_slice(&one);
    }
    out
}

fn build_sgm(app: &App) -> Vec<u64> {
    // sgemm: like GEM, a thrashing B-operand resweep (part of its pattern
    // "is like type II", Section V-A), but with per-set-uniform touches so
    // ratio_1 stays small and SGM classifies as regular. Two wide A tiles
    // mean GPU memory first fills during B's *first* sweep, when all
    // counters are still small-and-regular — the paper's SGM observation.
    let a_pages = 512u64;
    let b_pages = 1024u64;
    let b_base = a_pages;
    let c_base = a_pages + b_pages;
    let c_pages = app.footprint_pages - c_base;
    let one = {
        let mut pass = Vec::new();
        for t in 0..2u64 {
            let a_seq: Vec<u64> = (t * 256..(t + 1) * 256).collect();
            let b_seq: Vec<u64> = (b_base..b_base + b_pages).collect();
            pass.extend(patterns::interleave(&a_seq, 4, &b_seq, 16));
            let c_per = c_pages / 2;
            pass.extend(c_base + t * c_per..c_base + (t + 1) * c_per);
        }
        pass
    };
    // Repetitive-thrashing: the whole kernel pass repeats.
    let mut out = one.clone();
    out.extend(one);
    out
}

fn build_his(app: &App) -> Vec<u64> {
    // histo: input stream with hot histogram bins touched irregularly; the
    // bin sets' indivisible counters push ratio_1 over the threshold.
    let mut rng = rng_for(app);
    let input_pages = 1024u64;
    let bin_pages = app.footprint_pages - input_pages;
    // Histogram bins are zeroed with one full pass before accumulation.
    let mut out: Vec<u64> = (input_pages..input_pages + bin_pages).collect();
    for _ in 0..2 {
        let pass = patterns::streaming(input_pages, 1);
        out.extend(patterns::with_hot_region(
            &pass,
            input_pages,
            bin_pages,
            8,
            3,
            &mut rng,
        ));
    }
    out
}

fn build_spv(app: &App) -> Vec<u64> {
    // spmv: matrix windows reswept (large, regular counters -> irregular#1)
    // plus an irregularly-touched x-vector region.
    let mut rng = rng_for(app);
    let matrix_pages = app.footprint_pages - 256;
    let one = patterns::region_moving(matrix_pages, 4, 6);
    // The x vector is read in full when first loaded.
    let mut out: Vec<u64> = (matrix_pages..app.footprint_pages).collect();
    for _ in 0..3 {
        out.extend(patterns::with_hot_region(
            &one,
            matrix_pages,
            256,
            48,
            1,
            &mut rng,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Type VI — region moving
// ---------------------------------------------------------------------------

fn build_bpt(app: &App) -> Vec<u64> {
    // b+tree: query batches traverse one subtree region (512 pages) at a
    // time; four rounds per region saturate the per-set counters (see the
    // HWL comment).
    patterns::region_moving(app.footprint_pages, 3, 6)
}

fn build_hyb(app: &App) -> Vec<u64> {
    // hybridsort: bucket-by-bucket processing (512-page buckets).
    patterns::region_moving(app.footprint_pages, 4, 6)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

macro_rules! app {
    ($name:literal, $abbr:literal, $suite:ident, $pattern:ident,
     $pages:literal, $compute:literal, $seed:literal, $build:ident) => {
        App {
            name: $name,
            abbr: $abbr,
            suite: Suite::$suite,
            pattern: PatternType::$pattern,
            footprint_pages: $pages,
            compute_per_op: $compute,
            seed: $seed,
            build: $build,
        }
    };
}

/// The 23 applications of Table II, in paper order (by pattern type).
pub static APPS: [App; 23] = [
    // Type I
    app!("hotspot", "HOT", Rodinia, Streaming, 2048, 6, 101, build_hot),
    app!(
        "leukocyte",
        "LEU",
        Rodinia,
        Streaming,
        1536,
        8,
        102,
        build_leu
    ),
    app!("cutcp", "CUT", Parboil, Streaming, 1024, 10, 103, build_cut),
    app!("2DCONV", "2DC", Polybench, Streaming, 2048, 4, 104, build_2dc),
    app!("GEMM", "GEM", Polybench, Streaming, 2560, 6, 105, build_gem),
    // Type II
    app!("srad_v2", "SRD", Rodinia, Thrashing, 2048, 5, 201, build_srd),
    app!(
        "hotspot3D",
        "HSD",
        Rodinia,
        Thrashing,
        2304,
        5,
        202,
        build_hsd
    ),
    app!("mri-q", "MRQ", Parboil, Thrashing, 1280, 8, 203, build_mrq),
    app!("stencil", "STN", Parboil, Thrashing, 768, 5, 204, build_stn),
    // Type III
    app!(
        "pathfinder",
        "PAT",
        Rodinia,
        PartRepetitive,
        1536,
        4,
        301,
        build_pat
    ),
    app!(
        "dwt2d",
        "DWT",
        Rodinia,
        PartRepetitive,
        2560,
        5,
        302,
        build_dwt
    ),
    app!(
        "backprop",
        "BKP",
        Rodinia,
        PartRepetitive,
        1280,
        6,
        303,
        build_bkp
    ),
    app!(
        "kmeans",
        "KMN",
        Rodinia,
        PartRepetitive,
        4096,
        4,
        304,
        build_kmn
    ),
    app!(
        "sad",
        "SAD",
        Parboil,
        PartRepetitive,
        2048,
        5,
        305,
        build_sad
    ),
    // Type IV
    app!("nw", "NW", Rodinia, MostRepetitive, 1536, 4, 401, build_nw),
    app!(
        "bfs",
        "BFS",
        Rodinia,
        MostRepetitive,
        1536,
        3,
        402,
        build_bfs
    ),
    app!(
        "MVT",
        "MVT",
        Polybench,
        MostRepetitive,
        1024,
        4,
        403,
        build_mvt
    ),
    // Type V
    app!(
        "heartwall",
        "HWL",
        Rodinia,
        RepetitiveThrashing,
        1536,
        6,
        501,
        build_hwl
    ),
    app!(
        "sgemm",
        "SGM",
        Parboil,
        RepetitiveThrashing,
        1792,
        6,
        502,
        build_sgm
    ),
    app!(
        "histo",
        "HIS",
        Parboil,
        RepetitiveThrashing,
        1536,
        4,
        503,
        build_his
    ),
    app!(
        "spmv",
        "SPV",
        Parboil,
        RepetitiveThrashing,
        2304,
        4,
        504,
        build_spv
    ),
    // Type VI
    app!(
        "b+tree",
        "B+T",
        Rodinia,
        RegionMoving,
        1536,
        5,
        601,
        build_bpt
    ),
    app!(
        "hybridsort",
        "HYB",
        Rodinia,
        RegionMoving,
        2048,
        5,
        602,
        build_hyb
    ),
];

/// Returns all 23 registered applications in paper order.
pub fn all() -> &'static [App] {
    &APPS
}

/// Looks up an application by its paper abbreviation (case-sensitive,
/// e.g. `"HSD"`).
pub fn by_abbr(abbr: &str) -> Option<&'static App> {
    APPS.iter().find(|a| a.abbr == abbr)
}

/// Returns the applications of one pattern type, in registry order.
pub fn by_pattern(pattern: PatternType) -> Vec<&'static App> {
    APPS.iter().filter(|a| a.pattern == pattern).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The apps whose generators draw from their seed must generate a
    /// different trace under a different seed; the rest draw nothing.
    #[test]
    fn stochastic_apps_follow_their_seed() {
        let reseeded: Vec<&str> = all()
            .iter()
            .filter(|app| {
                let other = App {
                    seed: app.seed ^ 1,
                    ..(*app).clone()
                };
                assert_eq!(app.global_sequence(), app.global_sequence());
                other.global_sequence() != app.global_sequence()
            })
            .map(|a| a.abbr())
            .collect();
        assert_eq!(
            reseeded,
            ["PAT", "DWT", "BKP", "KMN", "SAD", "NW", "BFS", "MVT", "HIS", "SPV"]
        );
    }

    #[test]
    fn twenty_three_apps_with_unique_abbrs() {
        assert_eq!(all().len(), 23);
        let abbrs: HashSet<&str> = all().iter().map(|a| a.abbr()).collect();
        assert_eq!(abbrs.len(), 23);
        let seeds: HashSet<u64> = all().iter().map(|a| a.seed()).collect();
        assert_eq!(seeds.len(), 23);
    }

    #[test]
    fn pattern_counts_match_table2() {
        // Table II: I=5, II=4, III=5, IV=3, V=4, VI=2.
        let counts: Vec<usize> = PatternType::ALL
            .iter()
            .map(|&p| by_pattern(p).len())
            .collect();
        assert_eq!(counts, vec![5, 4, 5, 3, 4, 2]);
    }

    #[test]
    fn lookup_by_abbr() {
        assert_eq!(by_abbr("HSD").unwrap().name(), "hotspot3D");
        assert_eq!(by_abbr("B+T").unwrap().suite(), Suite::Rodinia);
        assert!(by_abbr("hsd").is_none());
        assert!(by_abbr("XXX").is_none());
    }

    #[test]
    fn every_sequence_stays_in_footprint_and_is_deterministic() {
        for app in all() {
            let seq = app.global_sequence();
            assert!(!seq.is_empty(), "{} empty", app.abbr());
            assert!(
                seq.iter().all(|&p| p < app.footprint_pages()),
                "{} out of footprint",
                app.abbr()
            );
            assert_eq!(
                seq,
                app.global_sequence(),
                "{} nondeterministic",
                app.abbr()
            );
        }
    }

    #[test]
    fn every_page_of_every_footprint_is_touched() {
        for app in all() {
            let seq = app.global_sequence();
            let mut seen = vec![false; app.footprint_pages() as usize];
            for &p in &seq {
                seen[p as usize] = true;
            }
            let untouched = seen.iter().filter(|&&s| !s).count();
            // Stochastic generators may skip a handful of pages; footprints
            // must still be essentially fully populated.
            assert!(
                (untouched as f64) < 0.02 * app.footprint_pages() as f64,
                "{}: {untouched} of {} pages untouched",
                app.abbr(),
                app.footprint_pages()
            );
        }
    }

    #[test]
    fn thrashing_apps_resweep_their_footprint() {
        for abbr in ["SRD", "HSD", "MRQ", "STN"] {
            let app = by_abbr(abbr).unwrap();
            let seq = app.global_sequence();
            let refs_per_page = seq.len() as u64 / app.footprint_pages();
            assert!(refs_per_page >= 4, "{abbr} sweeps {refs_per_page}x");
            // Perfectly cyclic: position of page p repeats every footprint.
            assert_eq!(seq[0], seq[app.footprint_pages() as usize]);
        }
    }

    #[test]
    fn nw_has_even_then_odd_phases() {
        let app = by_abbr("NW").unwrap();
        let seq = app.global_sequence();
        let input = 1024u64;
        // Input-matrix touches (pages < 1024) in the first half of the
        // sequence are all even; after the even phase ends, all input
        // touches before the final traceback pass are odd.
        let traceback_start = seq.len() - input as usize;
        let first_odd = seq
            .iter()
            .position(|&p| p < input && p % 2 == 1)
            .expect("odd phase exists");
        for &p in &seq[..first_odd] {
            if p < input {
                assert_eq!(p % 2, 0, "even phase contains odd page {p}");
            }
        }
        for &p in &seq[first_odd..traceback_start] {
            if p < input {
                assert_eq!(p % 2, 1, "odd phase contains even page {p}");
            }
        }
        // Traceback pass covers the full input sequentially.
        assert_eq!(
            seq[traceback_start..].to_vec(),
            (0..input).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mvt_touches_with_stride_4() {
        let app = by_abbr("MVT").unwrap();
        let seq = app.global_sequence();
        // First pass, first offset: all pages congruent to 0 mod 4.
        let quarter = app.footprint_pages() as usize / 4;
        assert!(seq[..quarter].iter().all(|p| p % 4 == 0));
    }

    #[test]
    fn gem_resweeps_b_operand() {
        let app = by_abbr("GEM").unwrap();
        let seq = app.global_sequence();
        // B pages (384..384+2048) are each touched once per A tile (6 tiles).
        let b_page = 1000u64;
        let touches = seq.iter().filter(|&&p| p == b_page).count();
        assert_eq!(touches, 6);
    }

    #[test]
    fn region_moving_apps_never_return() {
        for abbr in ["B+T", "HYB"] {
            let app = by_abbr(abbr).unwrap();
            let seq = app.global_sequence();
            let mut max_seen = 0u64;
            // Pages strictly below (max_seen - region) must not reappear.
            let region = app.footprint_pages() / if abbr == "B+T" { 3 } else { 4 };
            for &p in &seq {
                assert!(
                    p + 2 * region > max_seen,
                    "{abbr} returned to distant page {p} after {max_seen}"
                );
                max_seen = max_seen.max(p);
            }
        }
    }
}
