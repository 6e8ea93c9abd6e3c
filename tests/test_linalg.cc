/**
 * @file
 * Unit tests for the fixed-size and dynamic linear algebra types,
 * and bitwise tests of the register-tiled kernels (linalg/tiled.h)
 * against the plain loops they replaced.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "linalg/factorize.h"
#include "linalg/mat.h"
#include "linalg/matrixx.h"
#include "linalg/tiled.h"
#include "linalg/vec.h"

namespace {

using namespace dadu::linalg;

TEST(Vec, BasicArithmetic)
{
    const Vec3 a{1, 2, 3};
    const Vec3 b{4, 5, 6};
    const Vec3 s = a + b;
    EXPECT_DOUBLE_EQ(s[0], 5);
    EXPECT_DOUBLE_EQ(s[1], 7);
    EXPECT_DOUBLE_EQ(s[2], 9);
    const Vec3 d = b - a;
    EXPECT_DOUBLE_EQ(d[0], 3);
    EXPECT_DOUBLE_EQ((a * 2.0)[2], 6);
    EXPECT_DOUBLE_EQ((2.0 * a)[2], 6);
    EXPECT_DOUBLE_EQ((-a)[1], -2);
}

TEST(Vec, DotAndNorm)
{
    const Vec3 a{3, 4, 0};
    EXPECT_DOUBLE_EQ(a.dot(a), 25);
    EXPECT_DOUBLE_EQ(a.norm(), 5);
    EXPECT_DOUBLE_EQ(a.maxAbs(), 4);
}

TEST(Vec, CrossProduct)
{
    const Vec3 x = Vec3::unit(0), y = Vec3::unit(1), z = Vec3::unit(2);
    EXPECT_EQ(cross(x, y), z);
    EXPECT_EQ(cross(y, z), x);
    EXPECT_EQ(cross(z, x), y);
    // Antisymmetry.
    const Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
    EXPECT_LT((cross(a, b) + cross(b, a)).maxAbs(), 1e-15);
}

TEST(Vec, JoinAndHalves)
{
    const Vec6 v = join(Vec3{1, 2, 3}, Vec3{4, 5, 6});
    EXPECT_EQ(topHalf(v), (Vec3{1, 2, 3}));
    EXPECT_EQ(bottomHalf(v), (Vec3{4, 5, 6}));
}

TEST(Vec, UnitAndConstant)
{
    EXPECT_DOUBLE_EQ(Vec6::unit(4)[4], 1);
    EXPECT_DOUBLE_EQ(Vec6::unit(4)[3], 0);
    EXPECT_DOUBLE_EQ(Vec3::constant(2.5)[1], 2.5);
}

TEST(Mat, IdentityAndMultiply)
{
    const Mat3 i = Mat3::identity();
    const Vec3 v{1, 2, 3};
    EXPECT_EQ(i * v, v);
    const Mat3 a{1, 2, 3, 4, 5, 6, 7, 8, 10};
    EXPECT_EQ(a * i, a);
    EXPECT_EQ(i * a, a);
}

TEST(Mat, TransposeRoundTrip)
{
    const Mat3 a{1, 2, 3, 4, 5, 6, 7, 8, 10};
    EXPECT_EQ(a.transpose().transpose(), a);
    // (AB)^T == B^T A^T.
    const Mat3 b{0, 1, 0, -1, 0, 2, 3, 0, 1};
    EXPECT_LT(((a * b).transpose() - b.transpose() * a.transpose()).maxAbs(),
              1e-14);
}

TEST(Mat, SkewMatchesCross)
{
    const Vec3 a{1.5, -2, 0.25}, b{3, 0.5, -1};
    EXPECT_LT((skew(a) * b - cross(a, b)).maxAbs(), 1e-15);
    // skew is antisymmetric.
    EXPECT_LT((skew(a) + skew(a).transpose()).maxAbs(), 1e-15);
}

TEST(Mat, RotationsAreOrthonormal)
{
    for (double q : {0.0, 0.3, -1.2, 2.9}) {
        for (const Mat3 &r : {rotX(q), rotY(q), rotZ(q)}) {
            EXPECT_LT((r * r.transpose() - Mat3::identity()).maxAbs(),
                      1e-14);
        }
    }
}

TEST(Mat, RotZRotatesXToY)
{
    // Coordinate transform: a vector fixed along world x, expressed
    // in a frame rotated +90° about z, appears along -y... E acts as
    // coordinates-of-fixed-vector-in-rotated-frame.
    const Vec3 ex = Vec3::unit(0);
    const Vec3 out = rotZ(M_PI / 2.0) * ex;
    EXPECT_NEAR(out[0], 0.0, 1e-15);
    EXPECT_NEAR(out[1], -1.0, 1e-15);
}

TEST(Mat, Blocks66RoundTrip)
{
    const Mat3 a = Mat3::identity() * 2.0;
    const Mat3 b{1, 2, 3, 4, 5, 6, 7, 8, 9};
    const Mat66 m = blocks66(a, b, b.transpose(), a);
    EXPECT_DOUBLE_EQ(m(0, 0), 2);
    EXPECT_DOUBLE_EQ(m(0, 4), 2);
    EXPECT_DOUBLE_EQ(m(3, 1), 4);
    EXPECT_DOUBLE_EQ(m(4, 0), 2);
}

TEST(Mat, ColRowAccessors)
{
    const Mat3 a{1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(a.col(1), (Vec3{2, 5, 8}));
    EXPECT_EQ(a.row(2), (Vec3{7, 8, 9}));
    Mat3 b;
    b.setCol(0, Vec3{1, 2, 3});
    EXPECT_DOUBLE_EQ(b(2, 0), 3);
}

TEST(MatrixX, BasicOps)
{
    MatrixX a(2, 3);
    a(0, 0) = 1;
    a(1, 2) = 5;
    const MatrixX at = a.transpose();
    EXPECT_EQ(at.rows(), 3u);
    EXPECT_DOUBLE_EQ(at(2, 1), 5);

    const MatrixX i = MatrixX::identity(3);
    const MatrixX ai = a * i;
    EXPECT_DOUBLE_EQ(ai(1, 2), 5);
    EXPECT_DOUBLE_EQ((a + a)(1, 2), 10);
    EXPECT_DOUBLE_EQ((a - a).maxAbs(), 0);
    EXPECT_DOUBLE_EQ((-a)(1, 2), -5);
}

TEST(MatrixX, BlockOps)
{
    MatrixX m(4, 4);
    MatrixX b(2, 2);
    b(0, 0) = 1;
    b(0, 1) = 2;
    b(1, 0) = 3;
    b(1, 1) = 4;
    m.setBlock(1, 2, b);
    EXPECT_DOUBLE_EQ(m(1, 2), 1);
    EXPECT_DOUBLE_EQ(m(2, 3), 4);
    const MatrixX c = m.block(1, 2, 2, 2);
    EXPECT_DOUBLE_EQ(c(1, 1), 4);
}

TEST(VectorX, SegmentOps)
{
    VectorX v{1, 2, 3, 4, 5};
    const VectorX s = v.segment(1, 3);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s[2], 4);
    v.setSegment(0, VectorX{9, 8});
    EXPECT_DOUBLE_EQ(v[0], 9);
    EXPECT_DOUBLE_EQ(v[1], 8);
    EXPECT_DOUBLE_EQ(v[2], 3);
}

MatrixX
randomSpd(int n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    MatrixX a(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            a(i, j) = d(rng);
    MatrixX m = a * a.transpose();
    for (int i = 0; i < n; ++i)
        m(i, i) += n; // ensure positive-definiteness
    return m;
}

class FactorizeTest : public ::testing::TestWithParam<int>
{};

TEST_P(FactorizeTest, CholeskyReconstructs)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 42 + n);
    Cholesky chol(m);
    ASSERT_TRUE(chol.ok());
    const MatrixX l = chol.matrixL();
    EXPECT_LT((l * l.transpose() - m).maxAbs(), 1e-10);
}

TEST_P(FactorizeTest, CholeskySolves)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 7 + n);
    std::mt19937 rng(n);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    VectorX b(n);
    for (int i = 0; i < n; ++i)
        b[i] = d(rng);
    Cholesky chol(m);
    const VectorX x = chol.solve(b);
    EXPECT_LT((m * x - b).maxAbs(), 1e-9);
}

TEST_P(FactorizeTest, CholeskyInverse)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 99 + n);
    const MatrixX minv = Cholesky(m).inverse();
    EXPECT_LT((m * minv - MatrixX::identity(n)).maxAbs(), 1e-9);
}

TEST_P(FactorizeTest, LdltReconstructs)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 5 + n);
    Ldlt ldlt(m);
    ASSERT_TRUE(ldlt.ok());
    const MatrixX l = ldlt.matrixL();
    MatrixX ld = l;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            ld(i, j) *= ldlt.vectorD()[j];
    EXPECT_LT((ld * l.transpose() - m).maxAbs(), 1e-10);
}

TEST_P(FactorizeTest, LdltSolveMatchesCholesky)
{
    const int n = GetParam();
    const MatrixX m = randomSpd(n, 13 + n);
    VectorX b(n);
    for (int i = 0; i < n; ++i)
        b[i] = std::sin(i + 1.0);
    const VectorX x1 = Cholesky(m).solve(b);
    const VectorX x2 = Ldlt(m).solve(b);
    EXPECT_LT((x1 - x2).maxAbs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorizeTest,
                         ::testing::Values(1, 2, 3, 6, 7, 18, 36));

TEST(Factorize, CholeskyRejectsIndefinite)
{
    MatrixX m = MatrixX::identity(3);
    m(2, 2) = -1.0;
    EXPECT_FALSE(Cholesky(m).ok());
}

TEST(Factorize, TriangularSolves)
{
    MatrixX l(3, 3);
    l(0, 0) = 2;
    l(1, 0) = 1;
    l(1, 1) = 3;
    l(2, 0) = 0.5;
    l(2, 1) = -1;
    l(2, 2) = 1.5;
    const VectorX b{2, 5, 1};
    const VectorX x = solveLowerTriangular(l, b);
    EXPECT_LT((l * x - b).maxAbs(), 1e-12);
    const VectorX y = solveLowerTriangularTransposed(l, b);
    EXPECT_LT((l.transpose() * y - b).maxAbs(), 1e-12);
}

// ---------------------------------------------------------------------
// Tiled kernels: bitwise equal to the plain loops they replaced
// ---------------------------------------------------------------------

/** The plain C += L·R loop (MatrixX::multiplyInto's former body). */
void
referenceProduct(const MatrixX &l, const MatrixX &r, MatrixX &c)
{
    for (std::size_t i = 0; i < l.rows(); ++i) {
        for (std::size_t j = 0; j < l.cols(); ++j) {
            const double a = l(i, j);
            if (a == 0.0)
                continue;
            for (std::size_t k = 0; k < r.cols(); ++k)
                c(i, k) += a * r(j, k);
        }
    }
}

/** The plain C += Lᵀ·R loop (transposeMultiplyInto's former body). */
void
referenceTransposeProduct(const MatrixX &l, const MatrixX &r, MatrixX &c)
{
    for (std::size_t k = 0; k < l.rows(); ++k) {
        for (std::size_t i = 0; i < l.cols(); ++i) {
            const double v = l(k, i);
            if (v == 0.0)
                continue;
            for (std::size_t j = 0; j < r.cols(); ++j)
                c(i, j) += v * r(k, j);
        }
    }
}

/** The one-column-at-a-time LDLᵀ solve (Ldlt's former body). */
void
referenceLdltSolve(const MatrixX &l, const VectorX &d, MatrixX &b)
{
    const std::size_t n = b.rows();
    for (std::size_t c = 0; c < b.cols(); ++c) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = b(i, c);
            for (std::size_t j = 0; j < i; ++j)
                s -= l(i, j) * b(j, c);
            b(i, c) = s;
        }
        for (std::size_t i = 0; i < n; ++i)
            b(i, c) /= d[i];
        for (std::size_t ii = 0; ii < n; ++ii) {
            const std::size_t i = n - 1 - ii;
            double s = b(i, c);
            for (std::size_t j = i + 1; j < n; ++j)
                s -= l(j, i) * b(j, c);
            b(i, c) = s;
        }
    }
}

/**
 * Random entries in [-2, 2] with 15% +0.0 and 10% -0.0: the values
 * the zero-skip rule and the signed-zero cases hinge on.
 */
MatrixX
randomWithZeros(std::size_t rows, std::size_t cols, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> val(-2.0, 2.0);
    std::uniform_int_distribution<int> pick(0, 99);
    MatrixX m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            const int p = pick(rng);
            m(i, j) = p < 15 ? 0.0 : p < 25 ? -0.0 : val(rng);
        }
    }
    return m;
}

/**
 * Put one +inf, -inf or (with @p nan) NaN into about half of the
 * rows (or, with @p by_col, columns) of @p m. IEEE leaves the payload
 * of NaN + NaN to the implementation (x86 keeps the first operand's,
 * and a compiler may swap the operands of a commutative add), so an
 * output element must never meet two NaN terms for its bits to be
 * fully determined: one special per row of L (column of Lᵀ) and one
 * ±inf per column of R keep it so. The ±inf in R also checks that
 * a zero of L skips its term rather than adding 0·inf = NaN.
 */
void
addSpecials(MatrixX &m, std::mt19937 &rng, bool by_col, bool nan = true)
{
    const double specials[] = {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
    const std::size_t lines = by_col ? m.cols() : m.rows();
    const std::size_t len = by_col ? m.rows() : m.cols();
    std::uniform_int_distribution<std::size_t> at(0, len - 1);
    std::uniform_int_distribution<int> which(0, 5);
    for (std::size_t line = 0; line < lines; ++line) {
        const int w = which(rng);
        if (w >= (nan ? 3 : 2))
            continue;
        const std::size_t pos = at(rng);
        (by_col ? m(pos, line) : m(line, pos)) = specials[w];
    }
}

bool
sameBits(const MatrixX &a, const MatrixX &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.view().p, b.view().p,
                       a.rows() * a.cols() * sizeof(double)) == 0;
}

/** (m, k, n) product shapes: random 1..40, plus the iLQR sweep's
 *  shapes for iiwa (nv 7), HyQ (nv 18) and Atlas (nv 36). */
std::vector<std::array<std::size_t, 3>>
productShapes()
{
    std::vector<std::array<std::size_t, 3>> shapes;
    std::mt19937 rng(2024);
    std::uniform_int_distribution<std::size_t> dim(1, 40);
    for (int t = 0; t < 80; ++t)
        shapes.push_back({dim(rng), dim(rng), dim(rng)});
    for (std::size_t nv : {7, 18, 36}) {
        const std::size_t nx = 2 * nv;
        shapes.push_back({nx, nv, nx});  // Vxx[:, n:]·A[n:, :]
        shapes.push_back({nv, nv, nx});  // Quu·K, B_bᵀ·VA[n:, :]
        shapes.push_back({nv, nv, nv});  // Vxx[n:, n:]·B_b
        shapes.push_back({nx, nx, nx});  // dense 2nv products
        shapes.push_back({nx, 6, 6});    // floating-joint block
    }
    return shapes;
}

TEST(TiledKernel, ProductsBitwiseEqualPlainLoops)
{
    std::mt19937 rng(7);
    for (const auto &[m, k, n] : productShapes()) {
        SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
        MatrixX l = randomWithZeros(m, k, rng);
        addSpecials(l, rng, false);
        MatrixX lt = randomWithZeros(k, m, rng);
        addSpecials(lt, rng, true);
        MatrixX r = randomWithZeros(k, n, rng);
        addSpecials(r, rng, true, false);
        // Accumulate onto existing contents (±0 included).
        const MatrixX c0 = randomWithZeros(m, n, rng);

        MatrixX want = c0, got = c0;
        referenceProduct(l, r, want);
        gemmAccumulate(l.view(), r.view(), got.mutableView());
        EXPECT_TRUE(sameBits(want, got)) << "C += L·R";

        want = c0;
        got = c0;
        referenceTransposeProduct(lt, r, want);
        gemmTransposeAccumulate(lt.view(), r.view(), got.mutableView());
        EXPECT_TRUE(sameBits(want, got)) << "C += Lᵀ·R";

        // The MatrixX entry points start from +0.0.
        MatrixX zero(m, n);
        want = zero;
        referenceProduct(l, r, want);
        l.multiplyInto(r, got);
        EXPECT_TRUE(sameBits(want, got)) << "multiplyInto";
        EXPECT_TRUE(sameBits(want, l * r)) << "operator*";
        want = zero;
        referenceTransposeProduct(lt, r, want);
        lt.transposeMultiplyInto(r, got);
        EXPECT_TRUE(sameBits(want, got)) << "transposeMultiplyInto";
    }
}

TEST(TiledKernel, StridedBlockViewsBitwiseEqualPlainLoops)
{
    // Operands and output are interior blocks of larger matrices, as
    // in the Riccati sweep's Vxx[:, n:]·A[n:, :]; the frame around
    // the output block must stay untouched.
    std::mt19937 rng(11);
    std::uniform_int_distribution<std::size_t> dim(1, 40);
    for (int t = 0; t < 40; ++t) {
        const std::size_t m = dim(rng), k = dim(rng), n = dim(rng);
        MatrixX big_l = randomWithZeros(m + 3, k + 5, rng);
        addSpecials(big_l, rng, false);
        MatrixX big_r = randomWithZeros(k + 2, n + 4, rng);
        addSpecials(big_r, rng, true, false);
        const MatrixX big_c = randomWithZeros(m + 1, n + 6, rng);

        const MatrixX l = big_l.block(2, 3, m, k);
        const MatrixX r = big_r.block(1, 2, k, n);
        MatrixX want = big_c;
        MatrixX c = big_c.block(1, 4, m, n);
        referenceProduct(l, r, c);
        want.setBlock(1, 4, c);
        MatrixX got = big_c;
        gemmAccumulate(big_l.view(2, 3, m, k), big_r.view(1, 2, k, n),
                       got.mutableView(1, 4, m, n));
        EXPECT_TRUE(sameBits(want, got)) << m << "x" << k << "x" << n;

        MatrixX big_lt = randomWithZeros(k + 3, m + 5, rng);
        addSpecials(big_lt, rng, true);
        const MatrixX lt = big_lt.block(2, 3, k, m);
        want = big_c;
        c = big_c.block(1, 4, m, n);
        referenceTransposeProduct(lt, r, c);
        want.setBlock(1, 4, c);
        got = big_c;
        gemmTransposeAccumulate(big_lt.view(2, 3, k, m),
                                big_r.view(1, 2, k, n),
                                got.mutableView(1, 4, m, n));
        EXPECT_TRUE(sameBits(want, got)) << "T " << m << "x" << k << "x"
                                         << n;
    }
}

TEST(TiledKernel, LdltRowSolveBitwiseEqualColumnSolve)
{
    std::mt19937 rng(13);
    std::uniform_int_distribution<std::size_t> dim(1, 40);
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    for (int t = 0; t < 40; ++t)
        shapes.emplace_back(dim(rng), dim(rng));
    for (std::size_t nv : {7, 18, 36})
        shapes.emplace_back(nv, 1 + 2 * nv); // the gain solve's RHS
    for (const auto &[n, cols] : shapes) {
        SCOPED_TRACE(testing::Message() << n << " x " << cols);
        // A banded SPD matrix leaves exact zeros in L: the solve
        // (which has no zero-skip) must still run every term.
        MatrixX spd = randomSpd(static_cast<int>(n), 3 + n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                if (i > j + 2 || j > i + 2)
                    spd(i, j) = 0.0;
        Ldlt ldlt;
        ASSERT_TRUE(ldlt.compute(spd));
        // The substitutions subtract (not commutative), so any mix
        // of inf/NaN in B has fully determined bits.
        MatrixX b = randomWithZeros(n, cols, rng);
        addSpecials(b, rng, false);
        addSpecials(b, rng, true);

        MatrixX want = b;
        referenceLdltSolve(ldlt.matrixL(), ldlt.vectorD(), want);
        MatrixX got = b;
        ldlt.solveInPlace(got);
        EXPECT_TRUE(sameBits(want, got));

        // Each column also equals the single-vector solve.
        const std::size_t c = cols / 2;
        VectorX x = b.col(c);
        ldlt.solveInPlace(x);
        for (std::size_t i = 0; i < n; ++i) {
            const double gi = got(i, c);
            EXPECT_EQ(std::memcmp(&x[i], &gi, sizeof(double)), 0);
        }
    }
}

} // namespace
