"""Polynomial algebra for the observer/controller design chain.

Covers characteristic polynomials built from pole specifications, binomial
observer-gain expansion, the numerator family g_0..g_n that links estimation
error to tracking error, partial-fraction residues at (possibly repeated)
real poles, and the polynomial envelopes of the resulting exponential decays.

Coefficients are stored in ascending degree order. Arithmetic stays in exact
Python integers whenever the inputs are integers; residues are computed by
symbolic differentiation (quotient rule on polynomial pairs), never by
numeric sampling, so clustered poles do not lose accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .integrate import ordered_sum

# Distinct poles closer than this (relative) are rejected rather than merged;
# a near-duplicate almost always means a mistyped configuration.
POLE_SEPARATION_RTOL = 1e-9


class PolynomialError(ValueError):
    pass


@dataclass(frozen=True)
class Poly:
    """Real polynomial, coefficients in ascending degree order.

    The zero polynomial is canonically ``Poly((0,))`` with degree -1; any
    other value has a nonzero leading coefficient (trailing zeros are
    stripped on construction).
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(self.coeffs)
        if not c:
            c = (0,)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def is_zero(self):
        return self.coeffs == (0,)

    @property
    def degree(self):
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def is_monic(self):
        return self.coeffs[-1] == 1

    def __call__(self, s):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * s + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(tuple(out))

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly((0,))
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(tuple(out))
        return Poly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise PolynomialError("negative polynomial power")
        out = Poly((1,))
        for _ in range(k):
            out = out * self
        return out

    def derivative(self):
        if self.degree < 1:
            return Poly((0,))
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))


@dataclass(frozen=True)
class PoleSpec:
    """Multiset of real left-half-plane poles: pairs (s_j, d_j) meaning a
    factor (s + s_j)^d_j with s_j > 0 and integer multiplicity d_j >= 1.

    Only real poles are supported; repeated poles are expressed through the
    multiplicity, never as duplicate entries.
    """

    poles: tuple

    def __post_init__(self):
        poles = tuple((sj, dj) for sj, dj in self.poles)
        if not poles:
            raise PolynomialError("pole spec is empty")
        for sj, dj in poles:
            if not (sj > 0) or isinstance(sj, complex):
                raise PolynomialError(f"pole {sj!r} must be a positive real")
            if not isinstance(dj, int) or dj < 1:
                raise PolynomialError(f"multiplicity {dj!r} must be a positive integer")
        for a in range(len(poles)):
            for b in range(a + 1, len(poles)):
                sa, sb = poles[a][0], poles[b][0]
                if abs(sa - sb) < POLE_SEPARATION_RTOL * max(sa, sb):
                    raise PolynomialError(
                        f"poles {sa} and {sb} coincide or nearly coincide; "
                        "use a multiplicity instead"
                    )
        object.__setattr__(self, "poles", poles)

    @property
    def degree(self):
        return sum(dj for _, dj in self.poles)

    @property
    def slowest(self):
        return min(sj for sj, _ in self.poles)


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial together with the state-feedback gain
    row it encodes: delta(s) = s^n + k_n s^(n-1) + ... + k_1."""

    spec: PoleSpec
    delta: Poly
    gain_row: tuple

    @property
    def order(self):
        return self.delta.degree


def char_poly(spec):
    """Expand a pole spec into its monic polynomial and gain row."""
    if not isinstance(spec, PoleSpec):
        spec = PoleSpec(tuple(spec))
    delta = Poly((1,))
    for sj, dj in spec.poles:
        delta = delta * Poly((sj, 1)) ** dj
    return CharPoly(spec=spec, delta=delta, gain_row=delta.coeffs[:-1])


def leso_gains(order, omega_o):
    """Observer gain vector beta from the binomial expansion of
    (s + omega_o)^order: beta_i = C(order, i) * omega_o^i."""
    if not isinstance(order, int) or order < 2:
        raise PolynomialError(f"observer order {order!r} must be an integer >= 2")
    if not (omega_o > 0):
        raise PolynomialError(f"observer bandwidth {omega_o!r} must be positive")
    return tuple(math.comb(order, i) * omega_o**i for i in range(1, order + 1))


def build_g_family(gain_row, beta, n):
    """Numerator polynomials g_0..g_n for a gain row of length n and observer
    gains beta (length >= n).

    g_n is monic of degree n with coefficient of s^(n-i) equal to
    sum_j beta_j * k_(n+1-i+j) over j = 0..i, with beta_0 = k_(n+1) = 1.
    For i < n, g_i has ascending coefficients (k_(n+1-i), ..., k_n, 1).
    """
    gain_row = tuple(gain_row)
    beta = tuple(beta)
    if len(gain_row) != n:
        raise PolynomialError(f"gain row has length {len(gain_row)}, expected {n}")
    if len(beta) < n:
        raise PolynomialError(f"observer gain vector too short ({len(beta)} < {n})")
    k = gain_row + (1,)  # k[i-1] = k_i, k[n] = k_(n+1) = 1
    b = (1,) + beta  # b[j] = beta_j with beta_0 = 1

    family = []
    for i in range(n):
        family.append(Poly(tuple(k[n - i + j] for j in range(i + 1))))
    top = [0] * (n + 1)
    for i in range(n + 1):
        top[n - i] = ordered_sum(b[j] * k[n - i + j] for j in range(i + 1))
    family.append(Poly(tuple(top)))
    return tuple(family)


def residues(numerator, spec):
    """Partial-fraction residues of numerator(s)/delta(s) at each pole of the
    spec, for a strictly proper fraction.

    Returns one tuple per pole j: (c_j1, ..., c_jdj) where c_jk is the
    coefficient of 1/(s + s_j)^k. Computed exactly from derivatives of
    (s + s_j)^dj * numerator/delta via the quotient rule.
    """
    if not isinstance(spec, PoleSpec):
        spec = PoleSpec(tuple(spec))
    if numerator.degree >= spec.degree:
        raise PolynomialError(
            f"numerator degree {numerator.degree} not below denominator degree "
            f"{spec.degree}; strip the polynomial part first"
        )
    out = []
    for j, (sj, dj) in enumerate(spec.poles):
        q = Poly((1,))
        for idx, (sk, dk) in enumerate(spec.poles):
            if idx != j:
                q = q * Poly((sk, 1)) ** dk
        qprime = q.derivative()
        x = -sj
        qx = q(x)
        c = [0.0] * dj  # c[k-1] holds the 1/(s+s_j)^k coefficient
        num = numerator
        power = 1
        fact = 1
        for d_order in range(dj):
            c[dj - d_order - 1] = num(x) / (fact * qx**power)
            num = num.derivative() * q - power * (num * qprime)
            power += 1
            fact *= d_order + 1
        out.append(tuple(c))
    return tuple(out)


def reconstruct_fraction(residue_rows, spec, s):
    """Evaluate the partial-fraction sum at s (test oracle for residues)."""
    total = 0.0
    for (sj, dj), row in zip(spec.poles, residue_rows):
        base = s + sj
        for k in range(1, dj + 1):
            total += row[k - 1] / base**k
    return total


class ResidueTable:
    """Residues c[i][j][k] of g_(n-i)(s)/delta(s) for i = 1..n.

    Index i selects the numerator g_(n-i), j the pole, k the order of the
    partial-fraction term 1/(s+s_j)^k.
    """

    def __init__(self, char, rows):
        self.char = char
        self.spec = char.spec
        self.n = char.order
        self._rows = dict(rows)

    @classmethod
    def for_gain_family(cls, char, g_family):
        n = char.order
        if len(g_family) != n + 1:
            raise PolynomialError(
                f"expected g_0..g_{n}, got {len(g_family)} polynomials"
            )
        rows = {i: residues(g_family[n - i], char.spec) for i in range(1, n + 1)}
        return cls(char, rows)

    def row(self, i):
        return self._rows[i]

    def c(self, i, j, k):
        return self._rows[i][j][k - 1]


def decay_polys(table):
    """Polynomial envelopes p_ij(tau) such that the inverse transform of
    g_(n-i)/delta is sum_j exp(-s_j tau) * p_ij(tau).

    The coefficient of tau^q in p_ij is c[i][j][q+1] / q!.
    """
    out = {}
    for i in range(1, table.n + 1):
        polys = []
        for j, (sj, dj) in enumerate(table.spec.poles):
            coeffs = tuple(
                table.c(i, j, q + 1) / math.factorial(q) for q in range(dj)
            )
            polys.append(Poly(coeffs))
        out[i] = tuple(polys)
    return out
