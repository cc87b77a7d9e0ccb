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
extrapolated.  It is fraction-free (Bareiss, see ``polys.solve_linear``):
each row's coefficients are cleared to primitive integers and divided only
exactly, while the right-hand sides, U at the known column x over S, whose
denominators grow with x, stay rational (integer numerators over one shared
denominator) and never enter a coefficient.

Each row is the condition at (x, z) divided by F's scale S_{x,z}: it
reads F's reduced part and the shift ratios of S, never a value of S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..exact import format_rational
from ..polys import solve_linear
from .pairs import EvaluationError, GridFunction, MarkovPair, Scale, one

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
                          GridFunction(v, f"V[solved {self.form}]", scale=extension.scale),
                          provenance=f"stepwise:{self.form}")


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
    if form == FORM_U1 and q is None:
        raise ValueError("form u1 needs the base q in the extension params")

    u_coeffs: list[list[Fraction]] = [[Fraction(1)] + [Fraction(0)] * (deg_u - 1)]
    v_coeffs: list[list[Fraction]] = []
    reduced, sx, sz = extension.reduced, extension.scale.sx, extension.scale.sz

    for x in range(x_max + 1):
        rows, rhs = [], []
        nonzero = True  # S_{x,z} != 0; S_{x,0} = 0 would have failed column x - 1's solve
        for z in range(z_samples):
            try:  # sz first: the first undefined point is F_{x,z+1}'s, then F_{x+1,z}'s
                step_z, step_x = sz(x, z), sx(x, z)
            except ZeroDivisionError as exc:
                raise EvaluationError(f"{extension.label or 'extension'} undefined on a step "
                                      f"from (x={x}, z={z}): {exc}", x, z) from exc
            # F_{x,z}, F_{x,z+1} and F_{x+1,z} over S_{x,z}; all 0 where S_{x,z} = 0
            f_xz, f_xz1, f_x1z = (reduced(x, z), reduced(x, z + 1) * step_z,
                                  reduced(x + 1, z) * step_x) if nonzero else (0, 0, 0)
            nonzero = nonzero and step_z != 0
            # unknown order: U(x+1) coefficients, then V(x) coefficients
            row = [z ** k * f_x1z for k in range(deg_u)]
            if form == FORM_U1:
                row += [f_xz - f_xz1, q ** z * f_xz - q ** (z + 1) * f_xz1]
            else:
                row += [z ** k * f_xz - (z + 1) ** k * f_xz1 for k in range(deg_v)]
            rows.append(row)
            rhs.append(sum(c * z ** k for k, c in enumerate(u_coeffs[x])) * f_xz)
        # eliminate over all samples at once: the extra rows either confirm
        # the solution or surface an inconsistency
        solution, status = solve_linear(rows, rhs)
        if status == "underdetermined":
            return SolveResult(False, reason=f"ansatz underdetermined at x={x}", failed_x=x)
        if solution is None:
            return SolveResult(False, reason=f"ansatz does not close at x={x}", failed_x=x)
        u_coeffs.append(list(solution[:deg_u]))
        v_coeffs.append(list(solution[deg_u:]))

    data = MultiplierData(form, u_coeffs, v_coeffs, q=q if form == FORM_U1 else None)
    return SolveResult(True, data=data)


# ---------------------------------------------------------------------------
# Built-in extension families for the solver (and the command line).
# ---------------------------------------------------------------------------

def phi32_family(a, b, c, d, q) -> GridFunction:
    """The q-series family solved exactly by form u1."""
    from .phi32 import ThreePhiTwo
    return ThreePhiTwo(a, b, c, d, q).extension()


def _stepped_family(label: str, params: dict, upper, lower) -> GridFunction:
    """F_{0,0} = 1, rx = 1/lower(x+z) and rz = upper(z)/lower(x+z), all scale."""
    def last_lower(x: int, z: int) -> Fraction:
        """lower(x+z-1), the last factor of F_{x,z}'s denominator, read on the step to (x, z)."""
        value = lower(x + z - 1)
        if value == 0:
            raise EvaluationError(f"{label} undefined at (x={x}, z={z}): lower rising "
                                  f"factorial vanishes at (x={x}, z={z})", x, z)
        return value

    return GridFunction(one, label, params, Scale(
        lambda x, z: 1 / last_lower(x + 1, z), lambda x, z: upper(z) / last_lower(x, z + 1)))


def f4f3_family(a, h, b) -> GridFunction:
    """Extension of the 4F3(a, a+h, a-h, 1; b, b+h, b-h) series, form u2.

    F_{x,z} = (a)_z (a+h)_z (a-h)_z / ((b)_{x+z} (b+h)_{x+z} (b-h)_{x+z}).
    """
    a, h, b = Fraction(a), Fraction(h), Fraction(b)
    return _stepped_family(
        f"4F3({format_rational(a)},{format_rational(h)},{format_rational(b)})",
        {"a": a, "h": h, "b": b},
        lambda z: (a + z) * (a + h + z) * (a - h + z),
        lambda k: (b + k) * (b + h + k) * (b - h + k))


def well_poised_family(a, b) -> GridFunction:
    """Extension of the alternating well-poised 4F3(a,a,a,1; b,b,b; -1), form u3.

    F_{x,z} = (a)_z^3 (-1)^z / (b)_{x+z}^3.
    """
    a, b = Fraction(a), Fraction(b)
    return _stepped_family(f"well-poised({format_rational(a)},{format_rational(b)})",
                           {"a": a, "b": b}, lambda z: -(a + z) ** 3, lambda k: (b + k) ** 3)


@dataclass(frozen=True)
class SolverFamily:
    form: str
    build: object
    defaults: tuple


FAMILIES = {
    # q-series 3phi2(a,b,1;c,d), multipliers A_x and B_x + C_x q^z
    "3phi2-u1": SolverFamily(
        FORM_U1, phi32_family,
        (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11), Fraction(1, 2))),
    # 4F3(a,a+h,a-h,1;b,b+h,b-h), z-linear U and z-quadratic V multipliers
    "4f3-u2": SolverFamily(FORM_U2, f4f3_family, (Fraction(1), Fraction(1, 3), Fraction(2))),
    # alternating well-poised 4F3(a,a,a,1;b,b,b;-1), z-quadratic multipliers
    "4f3-wp-u3": SolverFamily(FORM_U3, well_poised_family, (Fraction(1), Fraction(2))),
}
