"""Stepwise determination of telescoping multipliers.

Given only a term extension F and an ansatz shape, the multipliers that
make (U, V) telescope can be found column by column: fixing what is known
at column x, the telescoping condition evaluated at enough z-samples is an
exact linear system for the new unknowns.  Supported shapes (with the
normalizations that pin the solution ray):

  u1:  U = F A_x,                    V = F (B_x + C_x q^z)        [q-series]
  u2:  U = F (A_x + B_x z),          V = F (C_x + D_x z + E_x z^2), B_0 = 0
  u3:  U = F (A_x + B_x z + C_x z^2),V = F (D_x + E_x z + G_x z^2), B_0 = C_0 = 0

and A_0 = 1 always.  Each step solves for the new column coefficients of U
*and* the row coefficients of V (3, 5, and 6 unknowns respectively) from
at least two more z-samples than unknowns.  The elimination runs over every
sample row, so the extra samples check the solution: an ansatz that cannot
close is reported with the first failing column, never silently
extrapolated.

The solver is fraction-free from end to end.  Each row is the condition at
(x, z) divided by F's scale S_{x,z}: it reads F's reduced part, as the
unreduced product of its factors (none for the built-in families), and
the shift ratios of S, never a value of S, and is formed on the integers
from their numerators and denominators, multiplied through by the product of
those denominators (for u1 also by qd^(z+1), q = qn/qd, which makes q^z
and q^(z+1) integers).  Its right-hand side, U_{x,z} over S_{x,z} at the
known column x, takes the same factor and is an integer numerator over
the column's one denominator, which grows with x and never enters a
coefficient.  The elimination is Bareiss's (``polys.solve_linear``): it
divides only exactly and gives the solution as integer numerators over
one denominator.  ``Fraction``s are made only for :class:`MultiplierData`,
and the next column is read off them, reduced once, as integer
numerators over one denominator.  The built-in 4F3 families are
``pairs.Kernel``s, whose shift ratios are each one ``Fraction`` of two integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from ..exact import format_rational
from ..polys import solve_linear
from .pairs import EvaluationError, GridFunction, Kernel, MarkovPair, Scale, no_factors, over
from .phi32 import SAMPLE_TUPLES, ThreePhiTwo

FORM_U1 = "u1"
FORM_U2 = "u2"
FORM_U3 = "u3"

#: coefficient counts of the z-polynomials (or q^z-linear form) of U and V
_SHAPE = {FORM_U1: (1, 2), FORM_U2: (2, 3), FORM_U3: (3, 3)}


@dataclass
class MultiplierData:
    """Solved multiplier tables for columns 0..x_max.

    ``u_coeffs[x]`` lists the z-polynomial coefficients of U's multiplier
    at column x (a single entry A_x for form u1); ``v_coeffs[x]`` those of
    V's multiplier, where for form u1 they are (B_x, C_x) with multiplier
    B_x + C_x q^z.
    """

    form: str
    u_coeffs: list[list[Fraction]]
    v_coeffs: list[list[Fraction]]
    q: Optional[Fraction] = None

    def a(self, x: int) -> Fraction:
        return self.u_coeffs[x][0]

    def u_multiplier(self, x: int, z: int) -> Fraction:
        return sum(c * z ** k for k, c in enumerate(self.u_coeffs[x]))

    def v_multiplier(self, x: int, z: int) -> Fraction:
        if self.form == FORM_U1:
            b, c = self.v_coeffs[x]
            return b + c * self.q ** z
        return sum(c * z ** k for k, c in enumerate(self.v_coeffs[x]))

    def pair(self, extension: GridFunction) -> MarkovPair:
        x_max = len(self.v_coeffs) - 1

        def u(x: int, z: int) -> Fraction:
            if x > x_max + 1:
                raise ValueError(f"multipliers solved only through x={x_max}")
            return self.u_multiplier(x, z) * extension.reduced(x, z)

        def v(x: int, z: int) -> Fraction:
            if x > x_max:
                raise ValueError(f"multipliers solved only through x={x_max}")
            return self.v_multiplier(x, z) * extension.reduced(x, z)

        # U and V are multipliers times F, so they share F's scale
        return MarkovPair(GridFunction(u, f"U[solved {self.form}]", scale=extension.scale),
                          GridFunction(v, f"V[solved {self.form}]", scale=extension.scale))


@dataclass
class SolveResult:
    ok: bool
    data: Optional[MultiplierData] = None
    reason: str = ""
    failed_x: Optional[int] = None


def solve_multipliers_stepwise(extension: GridFunction, form: str,
                               x_max: int, z_samples: Optional[int] = None) -> SolveResult:
    """Solve the multiplier tables column by column.

    ``z_samples`` defaults to (unknowns + 2); at least that many samples
    are required so every solve is checked on two extra consistency
    points.  For form u1 the base q is the extension's recorded parameter q.
    """
    if form not in _SHAPE:
        raise ValueError(f"unknown ansatz form {form!r}")
    deg_u, deg_v = _SHAPE[form]
    unknowns = deg_u + deg_v
    if z_samples is None:
        z_samples = unknowns + 2
    if z_samples < unknowns + 2:
        raise ValueError(f"form {form} needs z_samples >= {unknowns + 2}")
    q = extension.params.get("q")
    if form == FORM_U1:
        if q is None:
            raise ValueError("form u1 needs the base q in the extension params")
        qn, qd = q.numerator, q.denominator

    u_coeffs: list[list[Fraction]] = [[Fraction(1)] + [Fraction(0)] * (deg_u - 1)]
    v_coeffs: list[list[Fraction]] = []
    # U's multiplier at the known column: integer numerators over one denominator
    column, column_den = [1] + [0] * (deg_u - 1), 1
    factors, sx, sz = extension.factors, extension.scale.sx, extension.scale.sz

    for x in range(x_max + 1):
        rows, rhs = [], []
        nonzero = True  # S_{x,z} != 0; S_{x,0} = 0 would have failed column x - 1's solve
        for z in range(z_samples):
            try:  # sz first: the first undefined point is F_{x,z+1}'s, then F_{x+1,z}'s
                step_z, step_x = sz(x, z), sx(x, z)
            except ZeroDivisionError as exc:
                raise EvaluationError(f"{extension.label or 'extension'} undefined on a step "
                                      f"from (x={x}, z={z}): {exc}", x, z) from exc
            # F_{x,z}, F_{x,z+1} and F_{x+1,z} over S_{x,z}, as f0, f1 and f2 over one
            # denominator, the product of the five denominators; all 0 where S_{x,z} = 0
            f0 = f1 = f2 = 0
            if nonzero:
                (n0, d0), (n1, d1), (n2, d2) = (over(factors(x, z)), over(factors(x, z + 1)),
                                                over(factors(x + 1, z)))
                nz, dz, nx, dx = (step_z.numerator, step_z.denominator,
                                  step_x.numerator, step_x.denominator)
                f0 = n0 * d1 * dz * d2 * dx
                f1 = n1 * nz * d0 * d2 * dx
                f2 = n2 * nx * d0 * d1 * dz
                nonzero = nz != 0
            # unknown order: U(x+1) coefficients, then V(x) coefficients; the row is
            # the condition times that denominator, and for u1 also times qd^(z+1),
            # which turns q^z and q^(z+1) into qn^z qd and qn^(z+1); the right-hand
            # side U_x(z) F_{x,z} takes the same factor, over column_den
            known = sum(c * z ** k for k, c in enumerate(column)) * f0
            if form == FORM_U1:
                lift, power = qd ** (z + 1), qn ** z
                rows.append([f2 * lift, (f0 - f1) * lift, (f0 * qd - f1 * qn) * power])
                rhs.append(known * lift)
            else:
                rows.append([z ** k * f2 for k in range(deg_u)]
                            + [z ** k * f0 - (z + 1) ** k * f1 for k in range(deg_v)])
                rhs.append(known)
        # eliminate over all samples at once: the extra rows either confirm
        # the solution or surface an inconsistency
        solution, status = solve_linear(rows, rhs, column_den)
        if status == "underdetermined":
            return SolveResult(False, reason=f"ansatz underdetermined at x={x}", failed_x=x)
        if solution is None:
            return SolveResult(False, reason=f"ansatz does not close at x={x}", failed_x=x)
        numerators, den = solution
        u_coeffs.append([Fraction(c, den) for c in numerators[:deg_u]])
        v_coeffs.append([Fraction(c, den) for c in numerators[deg_u:]])
        # the next right-hand sides read U(x+1) over its reduced coefficients' lcm
        column_den = lcm(*(c.denominator for c in u_coeffs[-1]))
        column = [c.numerator * (column_den // c.denominator) for c in u_coeffs[-1]]

    data = MultiplierData(form, u_coeffs, v_coeffs, q=q if form == FORM_U1 else None)
    return SolveResult(True, data=data)


# ---------------------------------------------------------------------------
# Built-in extension families for the solver (and the command line).
# ---------------------------------------------------------------------------

def phi32_family(a, b, c, d, q) -> GridFunction:
    """The q-series family solved exactly by form u1: the 3phi2 engine's
    extension, at any nonzero parameters, since the solver needs no convergence."""
    return ThreePhiTwo(a, b, c, d, q).extension()


def f4f3_family(a, h, b) -> GridFunction:
    """Extension of the 4F3(a, a+h, a-h, 1; b, b+h, b-h) series, form u2.

    F_{x,z} = (a)_z (a+h)_z (a-h)_z / ((b)_{x+z} (b+h)_{x+z} (b-h)_{x+z}).
    """
    a, h, b = Fraction(a), Fraction(h), Fraction(b)
    kernel = Kernel(f"4F3({format_rational(a)},{format_rational(h)},{format_rational(b)})",
                    (a, a + h, a - h), (b, b + h, b - h))
    return GridFunction(no_factors, kernel.label, {"a": a, "h": h, "b": b},
                        Scale(kernel.rx, kernel.rz))


def well_poised_family(a, b) -> GridFunction:
    """Extension of the alternating well-poised 4F3(a,a,a,1; b,b,b; -1), form u3.

    F_{x,z} = (a)_z^3 (-1)^z / (b)_{x+z}^3.
    """
    a, b = Fraction(a), Fraction(b)
    kernel = Kernel(f"well-poised({format_rational(a)},{format_rational(b)})", (a, a, a),
                    (b, b, b), -1)
    return GridFunction(no_factors, kernel.label, {"a": a, "b": b}, Scale(kernel.rx, kernel.rz))


@dataclass(frozen=True)
class SolverFamily:
    form: str
    build: object
    defaults: tuple


FAMILIES = {
    # q-series 3phi2(a,b,1;c,d), multipliers A_x and B_x + C_x q^z
    "3phi2-u1": SolverFamily(FORM_U1, phi32_family, SAMPLE_TUPLES[0]),
    # 4F3(a,a+h,a-h,1;b,b+h,b-h), z-linear U and z-quadratic V multipliers
    "4f3-u2": SolverFamily(FORM_U2, f4f3_family, (Fraction(1), Fraction(1, 3), Fraction(2))),
    # alternating well-poised 4F3(a,a,a,1;b,b,b;-1), z-quadratic multipliers
    "4f3-wp-u3": SolverFamily(FORM_U3, well_poised_family, (Fraction(1), Fraction(2))),
}
