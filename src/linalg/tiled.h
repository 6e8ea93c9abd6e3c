/**
 * @file
 * Register-tiled dense kernels over strided row-major views.
 *
 * One product kernel serves every MatrixX matrix-matrix product and
 * the block products of the iLQR Riccati sweep:
 *
 *   gemmAccumulate:           C += L · R
 *   gemmTransposeAccumulate:  C += Lᵀ · R
 *
 * and ldltSolveInPlace runs the multi-RHS substitutions of
 * Ldlt::solveInPlace(MatrixX&).
 *
 * Bitwise contract (the rule of the scalar loops these replaced):
 * every product element is one running sum that starts from C's
 * current value and adds L's terms in ascending order of the shared
 * index, skipping a term whose left-operand entry is == 0.0 (so ±0
 * entries of L never multiply an inf/NaN of R). Every solve element
 * runs the same subtractions in the same order as the one-column
 * substitution. Tiling only changes which elements are in flight
 * together, never the order of any one element's operations, and the
 * build disables FP contraction, so results are bitwise identical to
 * the plain loops.
 *
 * The tile bodies are written in the Pack<W> style of the SoA
 * kernels: fixed trip-count loops over a small accumulator block the
 * compiler keeps in registers and vectorizes, no intrinsics. On
 * x86-64 GCC the kernels are also compiled for AVX2 and the loader
 * picks that clone when the CPU has it; lanes are independent IEEE
 * multiplies and adds, so both clones give the same bits.
 */

#ifndef DADU_LINALG_TILED_H
#define DADU_LINALG_TILED_H

#include <cstddef>

namespace dadu::linalg {

/** Read-only row-major view: element (i, j) is p[i * stride + j]. */
struct ConstMatView
{
    const double *p;
    std::size_t rows;
    std::size_t cols;
    std::size_t stride;
};

/** Writable row-major view: element (i, j) is p[i * stride + j]. */
struct MatView
{
    double *p;
    std::size_t rows;
    std::size_t cols;
    std::size_t stride;
};

/** c += l · r (l: m×k, r: k×n, c: m×n). c must not overlap l or r. */
void gemmAccumulate(ConstMatView l, ConstMatView r, MatView c);

/** c += lᵀ · r (l: k×m, r: k×n, c: m×n). c must not overlap l or r. */
void gemmTransposeAccumulate(ConstMatView l, ConstMatView r, MatView c);

/**
 * Solve (L·D·Lᵀ) X = B in place for every column of @p b, with @p l
 * unit lower-triangular (n×n, only the strict lower part is read)
 * and @p d the n pivots: forward substitution, division by D, then
 * backward substitution, each column bitwise equal to the one-column
 * solve.
 */
void ldltSolveInPlace(ConstMatView l, const double *d, MatView b);

} // namespace dadu::linalg

#endif // DADU_LINALG_TILED_H
