"""Exact least-squares references for the fit kernels, and the error bounds
the kernels are held to.

Every float is an integer times a power of two, so the least-squares line
and polynomial of float data have exact rational solutions: the sums below
run over Python integers, scaled by a common power of two per column, and
the solutions are Fractions. The bounds follow the rounding of each kernel
in growthfit.py, in the notation of Higham, Accuracy and Stability of
Numerical Algorithms: u is the unit roundoff and gamma(k) bounds the
relative error of k roundings. The bounds themselves are evaluated in
floats, with fsum, which moves each by a few ulps of its own size.
"""

from fractions import Fraction
from math import fsum, sqrt

U = 2.0 ** -53


def gamma(k):
    """Higham's gamma_k: k roundings, each within a factor 1 + u, change a
    value by a factor within 1 +- gamma(k)."""
    return k * U / (1 - k * U)


def _integers(values):
    """(ints m, scale s) with values[i] == m[i] / s, s a power of two."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [p * (scale // d) for p, d in ratios], scale


def ols_reference(x, y):
    """(exact, bound): the exact (slope, mean x, mean y, sse, sst) of the
    least-squares line through the float points, as Fractions, and for each
    the bound on |growthfit.ols - exact|.

    ols centres the columns on rounded means, dx = x - xm and dy = y - ym,
    and sums each product with fsum, exactly rounded: with a plain running
    sum its error would grow with n. Write c and c' for the bounds on the
    means' errors and hx = |dx*| + c, hy = |dy*| + c' for each point, where
    dx* and dy* are exact. Because the exact dx* and dy* each sum to 0, the
    means' errors reach the centred sums only as n c**2, n c c' and n c'**2.
    - xm = fsum(x) / n and ym: two roundings, gamma(2) |xm|.
    - Sxx = fsum(dx*dx), and sst = fsum(dy*dy) alike: the subtraction
      within u hx, the product and the sum within gamma(2), in all
      Ex = gamma(5) sum(hx**2) + n c**2.
    - Sxy = fsum(dx*dy) likewise: Exy = gamma(5) sum(hx hy) + n c c'.
    - slope = Sxy / Sxx: (1 + u)(Exy + |s| Ex) / (Sxx - Ex) + u |s|.
    - sse: the computed residual r = y - (ym + slope dx) is r* + a dx* + d
      + g, with |a| within the slope's bound, |d| <= c' + |slope| c, and
      g within the three roundings of r's own formula and slope times dx's
      rounding. sum(r*) and sum(r* dx*) are 0, so a and d enter squared:
      a**2 Sxx + n d**2, plus sum(g (g + 2|r*| + 2|a dx*| + 2d)), plus
      gamma(2) sum(r**2) for the squares and their fsum.
    """
    n = len(x)
    xs, sx = _integers(x)
    ys, sy = _integers(y)
    sum_x, sum_y = sum(xs), sum(ys)
    ndx = [n * v - sum_x for v in xs]       # n sx dx*
    ndy = [n * v - sum_y for v in ys]       # n sy dy*
    qxx = sum(v * v for v in ndx)
    qxy = sum(a * b for a, b in zip(ndx, ndy))
    qyy = sum(v * v for v in ndy)
    xm, ym = Fraction(sum_x, n * sx), Fraction(sum_y, n * sy)
    slope = Fraction(qxy * sx, qxx * sy)
    sxx = Fraction(qxx, (n * sx) ** 2)
    sst = Fraction(qyy, (n * sy) ** 2)
    sse = Fraction(qyy * qxx - qxy * qxy, (n * sy) ** 2 * qxx)
    dx = [v / (n * sx) for v in ndx]        # int / int: correctly rounded
    dy = [v / (n * sy) for v in ndy]
    r = [(b * qxx - qxy * a) / (n * sy * qxx) for a, b in zip(ndx, ndy)]

    s, xmf, ymf = abs(float(slope)), abs(float(xm)), abs(float(ym))
    c, c2 = gamma(2) * xmf, gamma(2) * ymf
    hx = [abs(v) + c for v in dx]
    hy = [abs(v) + c2 for v in dy]
    e_xx = gamma(5) * fsum(v * v for v in hx) + n * c * c
    e_yy = gamma(5) * fsum(v * v for v in hy) + n * c2 * c2
    e_xy = gamma(5) * fsum(a * b for a, b in zip(hx, hy)) + n * c * c2
    e_s = (1 + U) * (e_xy + s * e_xx) / (float(sxx) - e_xx) + U * s
    big = s + e_s
    d = c2 + big * c
    g = [(gamma(3) * (abs(ri) + e_s * abs(v) + d + ymf) + gamma(6) * big * h)
         for ri, v, h in zip(r, dx, hx)]
    e_sse = (e_s * e_s * float(sxx) + n * d * d
             + fsum(gi * (gi + 2 * (abs(ri) + e_s * abs(v) + d))
                    for gi, ri, v in zip(g, r, dx))
             + gamma(2) * fsum((abs(ri) + e_s * abs(v) + d + gi) ** 2
                               for gi, ri, v in zip(g, r, dx)))
    exact = (slope, xm, ym, sse, sst)
    return exact, (e_s, gamma(2) * xmf, gamma(2) * ymf, e_sse, e_yy)


class PolynomialReference:
    """The exact least-squares polynomial of degree `degree` through the
    float points (x, v), from the normal equations over integers.

    Its Gram matrix G = A^T A of the Vandermonde matrix A gives the column
    norms |a_j| = sqrt(G[j][j]), and the residual of any coefficients c
    exceeds the least one by exactly (c - c*)^T G (c - c*).
    """

    def __init__(self, x, v, degree):
        xs, sx = _integers(x)
        vs, sv = _integers(v)
        m = degree + 1
        # moments in the integer variable X = sx x
        power = [1] * len(xs)
        moments, rhs = [], []
        for k in range(2 * degree + 1):
            moments.append(sum(power))
            if k < m:
                rhs.append(sum(p * w for p, w in zip(power, vs)))
            power = [p * t for p, t in zip(power, xs)]
        scale = [Fraction(1, sx ** j) for j in range(m)]     # x**j = scale_j X**j
        self.gram = [[moments[i + j] * scale[i] * scale[j] for j in range(m)]
                     for i in range(m)]
        atv = [rhs[j] * scale[j] / sv for j in range(m)]
        self.inverse = _inverse(self.gram)
        self.coefficients = [sum(g * b for g, b in zip(row, atv)) for row in self.inverse]
        vv = Fraction(sum(w * w for w in vs), sv * sv)
        self.sse = vv - sum(c * b for c, b in zip(self.coefficients, atv))
        self.column_norms = [sqrt(float(self.gram[j][j])) for j in range(m)]
        self.rhs_norm = sqrt(float(vv))

    def excess_sse(self, coefficients):
        """sse(coefficients) - sse(exact), exactly."""
        diff = [Fraction(c) - e for c, e in zip(coefficients, self.coefficients)]
        return sum(di * sum(g * dj for g, dj in zip(row, diff))
                   for di, row in zip(diff, self.gram))


def polyfit_backward_error(degree):
    """eta: growthfit._polyfit's coefficients are the exact least-squares
    solution for A + dA and v + dv with |dA_j| <= eta |a_j| for every
    column and |dv| <= eta |v|, to first order in u.

    - The columns x**j are products of floats: gamma(degree - 1).
    - Each of the degree + 1 Householder reflections moves the column it is
      applied to by at most 36 u of its norm. The norm is fsum, a square
      root and a rounding (2 u); v's first entry adds one more (3 u), and
      half_vv = norm (norm + |h0|) 6 u. The dot product with v, exactly
      rounded, is within 5 u |v| |t| of the exact one; with the division by
      half_vv, f is within 24 u |t| / |v|, f v within 30 u |t|, and the
      update t - f v rounds twice (6 u |t|). 40 u is taken.
    - Back substitution with fsum rows: gamma(2) of each entry of R.
    """
    return (40 * (degree + 1) + degree + 1) * U


def _perturbation(reference):
    """(eta, |v| + sum_j |c*_j| |a_j|, |r*|) for the fit of a reference."""
    eta = polyfit_backward_error(len(reference.coefficients) - 1)
    lever = reference.rhs_norm + fsum(abs(float(c)) * a for c, a in
                                      zip(reference.coefficients, reference.column_norms))
    return eta, lever, sqrt(float(reference.sse))


def polyfit_fitted_bound(reference):
    """First-order bound on |A (c - c*)|, the distance between the fitted
    values of _polyfit's coefficients c and the exact ones. Perturbing A by
    dA and v by dv moves the fitted values by
    A A^+ (dv - dA c*) + A G^-1 dA^T r*. The first term is at most
    eta (|v| + sum_j |c*_j| |a_j|). The second is the G^-1 norm of
    w = dA^T r*, |w_j| <= eta |a_j| |r*|, so at most
    eta |r*| sqrt(sum_jk |a_j| |G^-1_jk| |a_k|)."""
    eta, lever, least = _perturbation(reference)
    norms = reference.column_norms
    spread = fsum(abs(float(g)) * a * b for row, a in zip(reference.inverse, norms)
                  for g, b in zip(row, norms))
    return eta * (lever + least * sqrt(spread))


def polyfit_coefficient_bounds(reference):
    """First-order bounds on |c_k - c*_k| for the coefficients of _polyfit.
    Perturbing A by dA and v by dv moves the solution by
    A^+ (dv - dA c*) + G^-1 dA^T r*, whose row k is at most
    eta (sqrt(G^-1_kk) (|v| + sum_j |c*_j| |a_j|)
         + |r*| sum_j |G^-1_kj| |a_j|)."""
    eta, lever, least = _perturbation(reference)
    norms = reference.column_norms
    return [eta * (sqrt(float(row[k])) * lever
                   + least * fsum(abs(float(g)) * a for g, a in zip(row, norms)))
            for k, row in enumerate(reference.inverse)]


def _inverse(matrix):
    """Inverse of a non-singular square matrix of Fractions (Gauss-Jordan)."""
    m = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(m)]
            for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next(i for i in range(col, m) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        inv = 1 / head[col]
        rows[col] = head = [v * inv for v in head]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], head)]
    return [row[m:] for row in rows]

