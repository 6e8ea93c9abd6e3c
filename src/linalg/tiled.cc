#include "linalg/tiled.h"

#include <cassert>

// Runtime ISA dispatch for the public entry points (GCC ifunc); the
// tile templates below are always inlined into each clone.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DADU_TILED_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define DADU_TILED_CLONES
#endif

namespace dadu::linalg {

namespace {

/** Output rows per product tile: each row's left entry is a branch. */
constexpr int kTileRows = 2;
/** Output columns per product tile: one contiguous stretch of a row.
 *  Twelve doubles are six SSE2 (three AVX2) accumulator registers
 *  per row. */
constexpr int kTileCols = 12;
/** Columns per solve strip. A substitution row is one dependent
 *  chain of subtractions per column, so the strip is twice as wide
 *  to keep enough independent chains in flight. */
constexpr int kSolveCols = 24;

/**
 * Run @p fn.template operator()<NR>(k0) over @p cols columns in
 * strips: full Wide-wide strips, then at most one each of 12 (below
 * a 24 width), 8, 4, 2 and 1, so every strip has a fixed trip count.
 */
template <int Wide, typename Fn>
[[gnu::always_inline]] inline void
forEachStrip(std::size_t cols, Fn &&fn)
{
    static_assert(Wide == 12 || Wide == 24, "step-down covers < 24");
    std::size_t k0 = 0;
    for (; k0 + Wide <= cols; k0 += Wide)
        fn.template operator()<Wide>(k0);
    if constexpr (Wide == 24) {
        if (k0 + 12 <= cols) {
            fn.template operator()<12>(k0);
            k0 += 12;
        }
    }
    if (k0 + 8 <= cols) {
        fn.template operator()<8>(k0);
        k0 += 8;
    }
    if (k0 + 4 <= cols) {
        fn.template operator()<4>(k0);
        k0 += 4;
    }
    if (k0 + 2 <= cols) {
        fn.template operator()<2>(k0);
        k0 += 2;
    }
    if (k0 < cols)
        fn.template operator()<1>(k0);
}

/** Left-operand entry (row i of C, shared index j). */
template <bool Trans>
[[gnu::always_inline]] inline double
leftAt(const ConstMatView &l, std::size_t i, std::size_t j)
{
    return Trans ? l.p[j * l.stride + i] : l.p[i * l.stride + j];
}

/**
 * One MR×NR block of C at (i0, k0), accumulated over the whole
 * shared dimension in ascending order. The zero-skip is a per-row
 * branch: a skipped row leaves its accumulators untouched, exactly
 * as the scalar loop never adds that term.
 */
template <bool Trans, int MR, int NR>
[[gnu::always_inline]] inline void
productTile(const ConstMatView &l, const ConstMatView &r,
            const MatView &c, std::size_t i0, std::size_t k0)
{
    double acc[MR][NR];
    for (int a = 0; a < MR; ++a)
        for (int b = 0; b < NR; ++b)
            acc[a][b] = c.p[(i0 + a) * c.stride + k0 + b];
    for (std::size_t j = 0; j < r.rows; ++j) {
        const double *rr = r.p + j * r.stride + k0;
        for (int a = 0; a < MR; ++a) {
            const double x = leftAt<Trans>(l, i0 + a, j);
            if (x == 0.0)
                continue;
            for (int b = 0; b < NR; ++b)
                acc[a][b] += x * rr[b];
        }
    }
    for (int a = 0; a < MR; ++a)
        for (int b = 0; b < NR; ++b)
            c.p[(i0 + a) * c.stride + k0 + b] = acc[a][b];
}

template <bool Trans, int MR>
[[gnu::always_inline]] inline void
productBand(const ConstMatView &l, const ConstMatView &r,
            const MatView &c, std::size_t i0)
{
    forEachStrip<kTileCols>(c.cols, [&]<int NR>(std::size_t k0) {
        productTile<Trans, MR, NR>(l, r, c, i0, k0);
    });
}

template <bool Trans>
[[gnu::always_inline]] inline void
product(const ConstMatView &l, const ConstMatView &r, const MatView &c)
{
    std::size_t i0 = 0;
    for (; i0 + kTileRows <= c.rows; i0 += kTileRows)
        productBand<Trans, kTileRows>(l, r, c, i0);
    for (; i0 < c.rows; ++i0)
        productBand<Trans, 1>(l, r, c, i0);
}

/**
 * The LDLᵀ substitutions on the NR columns of @p b at k0. Each row
 * of the strip is one accumulator block: forward rows subtract the
 * finished rows above in ascending j, backward rows the finished
 * rows below in ascending j — the one-column solve's order.
 */
template <int NR>
[[gnu::always_inline]] inline void
solveStrip(const ConstMatView &l, const double *d, const MatView &b,
           std::size_t k0)
{
    const std::size_t n = b.rows;
    double *col = b.p + k0;
    for (std::size_t i = 0; i < n; ++i) {
        double acc[NR];
        double *bi = col + i * b.stride;
        for (int c = 0; c < NR; ++c)
            acc[c] = bi[c];
        for (std::size_t j = 0; j < i; ++j) {
            const double lij = l.p[i * l.stride + j];
            const double *bj = col + j * b.stride;
            for (int c = 0; c < NR; ++c)
                acc[c] -= lij * bj[c];
        }
        for (int c = 0; c < NR; ++c)
            bi[c] = acc[c];
    }
    for (std::size_t i = 0; i < n; ++i) {
        double *bi = col + i * b.stride;
        for (int c = 0; c < NR; ++c)
            bi[c] /= d[i];
    }
    for (std::size_t ii = 0; ii < n; ++ii) {
        const std::size_t i = n - 1 - ii;
        double acc[NR];
        double *bi = col + i * b.stride;
        for (int c = 0; c < NR; ++c)
            acc[c] = bi[c];
        for (std::size_t j = i + 1; j < n; ++j) {
            const double lji = l.p[j * l.stride + i];
            const double *bj = col + j * b.stride;
            for (int c = 0; c < NR; ++c)
                acc[c] -= lji * bj[c];
        }
        for (int c = 0; c < NR; ++c)
            bi[c] = acc[c];
    }
}

} // namespace

DADU_TILED_CLONES void
gemmAccumulate(ConstMatView l, ConstMatView r, MatView c)
{
    assert(l.cols == r.rows && c.rows == l.rows && c.cols == r.cols);
    product<false>(l, r, c);
}

DADU_TILED_CLONES void
gemmTransposeAccumulate(ConstMatView l, ConstMatView r, MatView c)
{
    assert(l.rows == r.rows && c.rows == l.cols && c.cols == r.cols);
    product<true>(l, r, c);
}

DADU_TILED_CLONES void
ldltSolveInPlace(ConstMatView l, const double *d, MatView b)
{
    assert(l.rows == b.rows && l.cols == b.rows);
    forEachStrip<kSolveCols>(b.cols, [&]<int NR>(std::size_t k0) {
        solveStrip<NR>(l, d, b, k0);
    });
}

} // namespace dadu::linalg
