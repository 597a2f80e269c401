"""Derangement counting and certificates for two-equal-orbit actions.

A derangement here always means: fixes no point of the designated point
set.  Everything that feeds a verdict is exact integer or rational
arithmetic; random search only ever produces witnesses, never absence
claims.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import fix_any_count
from .group import ENUM_CAP, GroupError, PermutationGroup, ResourceCapExceeded, factorize
from .perm import Perm, fixed_points, fixes_any, least_derangement
from .structure import is_prime, sylow_subgroup


class Inconclusive(RuntimeError):
    """Bounded search ended without an answer; NOT a nonexistence claim."""


class CertificateError(RuntimeError):
    """A certified conclusion failed to hold; the input or code is wrong."""


def _omega_array(group: PermutationGroup, omega) -> np.ndarray:
    pts = np.asarray(sorted(int(x) for x in omega))
    if len(pts) == 0:
        raise GroupError("point set must be nonempty")
    if pts[0] < 0 or pts[-1] >= group.degree:
        raise GroupError("point set out of range")
    return pts


def count_nonderangements(group: PermutationGroup, omega, enum_cap: int = ENUM_CAP) -> int:
    """|{g : g fixes a point of omega}| exactly, by scanning every element.

    omega need not be invariant.  The elements stream in row blocks, so
    the scan holds one block at a time; a group of order over enum_cap
    raises ResourceCapExceeded before any work.
    """
    pts = _omega_array(group, omega)
    if group.order > enum_cap:
        raise ResourceCapExceeded(f"order {group.order} over enumeration cap {enum_cap}")
    return sum(fix_any_count(block, pts) for block in group.element_blocks())


@dataclass(frozen=True)
class PndrValue:
    """Exact proportion of non-derangements: numerator = |union of point
    stabilizers|, denominator = |G|, kept unreduced."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if not (0 <= self.numerator <= self.denominator):
            raise GroupError("proportion outside [0, 1]")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def pndr(group: PermutationGroup, omega, enum_cap: int = ENUM_CAP) -> PndrValue:
    return PndrValue(count_nonderangements(group, omega, enum_cap), group.order)


def pndr_pair_bound(a1: PndrValue, a2: PndrValue) -> Fraction:
    """Exact upper bound for the non-derangement proportion of any group
    inducing these two actions on its two orbits."""
    return a1.fraction + a2.fraction


def find_derangement_detailed(
    group: PermutationGroup,
    omega,
    seed: int = 0,
    budget: int = 10**4,
    enum_cap: int = ENUM_CAP,
) -> tuple[Perm | None, str]:
    """(witness or None, method); None is an exhaustively verified absence.

    Seeded random sampling first (method "random"); on failure a scan of
    every element (method "enumeration").  Raises Inconclusive when the
    group is over the scan cap.
    """
    pts = _omega_array(group, omega)
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        g = group.random_element(rng)
        if not fixes_any(g.images[None, :], pts)[0]:
            return g, "random"
    if group.order > enum_cap:
        raise Inconclusive(
            f"budget {budget} exhausted and order {group.order} over enumeration cap {enum_cap}"
        )
    for block in group.element_blocks():
        hits = np.nonzero(~fixes_any(block, pts))[0]
        if hits.size:
            return Perm(block[hits[0]], validate=False), "enumeration"
    return None, "enumeration"


# ---------------------------------------------------------------------------
# two-orbit actions and Sylow certificates

@dataclass(frozen=True)
class TwoOrbitAction:
    group: PermutationGroup
    omega1: tuple[int, ...]
    omega2: tuple[int, ...]
    n: int

    @staticmethod
    def of(group: PermutationGroup) -> "TwoOrbitAction":
        orbits = group.orbits()
        if len(orbits) != 2:
            raise GroupError(f"need exactly two orbits, found {len(orbits)}")
        o1, o2 = (tuple(int(x) for x in o) for o in orbits)
        if len(o1) != len(o2):
            raise GroupError(f"orbit lengths differ: {len(o1)} vs {len(o2)}")
        if len(o1) + len(o2) != group.degree:
            raise GroupError("orbits do not partition the point set")
        return TwoOrbitAction(group, o1, o2, len(o1))

    @property
    def omega(self) -> tuple[int, ...]:
        return self.omega1 + self.omega2


@dataclass(frozen=True)
class SylowCertificate:
    prime: int
    b: int
    k: int
    d: int
    orbit_lengths: tuple[int, ...]
    elementary_abelian: bool | None
    stabilizer_count: int | None
    derangement_witness: Perm | None
    verdict: str


def _is_elementary_abelian(group: PermutationGroup, p: int) -> bool:
    gens = group.generators
    if any(g.order != p for g in gens):
        return False
    return all(
        (a * b) == (b * a) for i, a in enumerate(gens) for b in gens[i + 1:]
    )


def sylow_certificate(action: TwoOrbitAction, p: int) -> SylowCertificate:
    """Certify the Sylow-orbit facts for a two-equal-orbit action.

    With n = b*p^k (p not dividing b) and b < p: the Sylow p-subgroup P
    must have exactly 2b orbits, all of length p^k.  When k = 1, P must
    additionally be elementary abelian with at most 2b distinct point
    stabilizers, and if it has no derangement then p^d = |P| obeys
    2 <= d <= #stabilizers - p + 1; with b < (p+1)/2 a derangement in P
    is mandatory.  Violations raise CertificateError.
    """
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    n = action.n
    if n % p:
        raise GroupError(f"{p} does not divide the orbit length {n}")
    k = dict(factorize(n))[p]
    pk = p**k
    b = n // pk
    P = sylow_subgroup(action.group, p)
    d = 0
    while p**d < P.order:
        d += 1
    lengths = tuple(sorted(len(o) for o in P.orbits()))

    if b >= p:
        return SylowCertificate(p, b, k, d, lengths, None, None, None,
                                "hypothesis-not-applicable")

    if sorted(lengths) != [pk] * (2 * b):
        raise CertificateError(
            f"expected {2*b} orbits of length {pk}, found {lengths}"
        )
    if k > 1:
        return SylowCertificate(p, b, k, d, lengths, None, None, None,
                                "equal-orbits")

    elementary = _is_elementary_abelian(P, p)
    if not elementary:
        raise CertificateError("Sylow subgroup is not elementary abelian")
    rows = P.element_rows()
    # the stabilizer of x is the set of P's elements that fix x: column x
    stab_count = len({col.tobytes() for col in fixed_points(rows, range(P.degree)).T})
    if stab_count > 2 * b:
        raise CertificateError(
            f"{stab_count} distinct point stabilizers exceeds 2b = {2*b}"
        )
    witness = least_derangement(rows, action.omega)
    if witness is not None:
        return SylowCertificate(p, b, k, d, lengths, True, stab_count, witness,
                                "elementary-abelian-derangement")
    if b < (p + 1) / 2:
        raise CertificateError(
            "no derangement in the Sylow subgroup although b < (p+1)/2"
        )
    if not (2 <= d <= stab_count - p + 1 <= 2 * b - p + 1):
        raise CertificateError(
            f"bounds 2 <= d <= s-p+1 <= 2b-p+1 fail: d={d}, s={stab_count}, b={b}"
        )
    return SylowCertificate(p, b, k, d, lengths, True, stab_count, None,
                            "elementary-abelian")


# ---------------------------------------------------------------------------
# case routing for n = product of at most two primes

def classify_case(n: int) -> str:
    """Which argument covers orbit length n.

    prime-power: previously known; equal-primes: n = p^2, elementary
    abelian Sylow argument; q-not-dividing-p-minus-1: the two-stabilizer
    Sylow argument; direct-verification: n = 6, settled by the desk
    computation; q-at-most-half-p-minus-1: elementary abelian Sylow
    argument again; not-covered: everything else.
    """
    if n < 2:
        raise GroupError(f"need n >= 2, got {n}")
    factors = factorize(n)
    if len(factors) == 1:
        p, e = factors[0]
        return "equal-primes" if e == 2 else "prime-power"
    if len(factors) == 2 and all(e == 1 for _, e in factors):
        q, p = sorted(f[0] for f in factors)
        if (p - 1) % q:
            return "q-not-dividing-p-minus-1"
        if q == p - 1:
            return "direct-verification"
        return "q-at-most-half-p-minus-1"
    return "not-covered"
