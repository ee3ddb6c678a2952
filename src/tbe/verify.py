"""Brute-force ground truth and Monte-Carlo ensemble verification.

Everything here is desk scale and exact by enumeration: full value
tables for polynomials up to 24 qubits, exact minimum sets with an
explicit 1e-12 tie radius, energy gaps, single bit-flip basin
barriers, and the preservation verdicts that compare a truncated
landscape against the full one.

The ensemble half draws random couplings with a prescribed per-mode
variance profile and checks the distributional claims about the
truncation residual: its variance, its approach to Gaussianity when
no single mode dominates, the bit-flip difference variance, and the
sign-agreement rate between full and truncated bit-flip moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .polynomial import IsingPolynomial, mask_octets, octet_width, octet_words
from .truncation import certify, truncate
from .walsh import synthesize_values

__all__ = [
    "TIE_RADIUS",
    "Verdict",
    "LandscapeReport",
    "dense_values",
    "enumerate_landscape",
    "check_preservation",
    "bitflip_descent",
    "basin_agreement",
    "EnsembleSpec",
    "degree_uniform_profile",
    "profile_with_margin",
    "MomentReport",
    "ensemble_residual_check",
    "BitflipVarianceReport",
    "bitflip_variance_check",
    "SignRateReport",
    "sign_preservation_rate",
]

TIE_RADIUS = 1e-12
MAX_ENUM_QUBITS = 24


@dataclass(frozen=True)
class Verdict:
    """Outcome of one asserted claim.

    ``asserted`` is None when the claim's precondition did not hold
    (nothing was checked); otherwise it is the boolean outcome.
    ``margin`` is the slack by which the check passed or failed.
    """

    claim: str
    precondition_held: bool
    asserted: bool | None
    margin: float | None
    details: str


@dataclass(frozen=True)
class LandscapeReport:
    """Exact enumeration results, optionally with truncation verdicts."""

    num_qubits: int
    global_min_value: float
    global_argmin: tuple[int, ...]
    energy_gap: float
    basin_barrier_at: dict[int, float]
    k_max: int | None = None
    epsilon: float | None = None
    truncated_min_value: float | None = None
    truncated_argmin: tuple[int, ...] = ()
    gap_condition_holds: bool | None = None
    barrier_condition_holds: bool | None = None
    verdicts: tuple[Verdict, ...] = field(default_factory=tuple)

    def failed_verdicts(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.precondition_held and v.asserted is False)


def dense_values(poly: IsingPolynomial) -> np.ndarray:
    """Value of the polynomial at every configuration mask; every
    enumeration goes through here, so this holds the one 2^24 cap."""
    if poly.num_qubits > MAX_ENUM_QUBITS:
        raise CapacityError(
            f"enumeration over {poly.num_qubits} qubits exceeds the 2^{MAX_ENUM_QUBITS} cap"
        )
    coeffs = np.zeros(1 << poly.num_qubits)
    coeffs[octet_words(poly.octets)] = poly.coeffs
    return synthesize_values(coeffs)


def _argmin_set(values: np.ndarray) -> tuple[float, np.ndarray]:
    vmin = float(values.min())
    return vmin, np.flatnonzero(values <= vmin + TIE_RADIUS)


def _energy_gap(values: np.ndarray, vmin: float) -> float:
    above = values[values > vmin + TIE_RADIUS]
    return float(above.min() - vmin) if above.size else math.inf


def _barrier(values: np.ndarray, mask: int, n: int) -> float:
    if n == 0:
        return math.inf
    here = values[mask]
    return float(min(values[mask ^ (1 << i)] - here for i in range(n)))


def enumerate_landscape(poly: IsingPolynomial) -> LandscapeReport:
    """Exact minimum set, energy gap, and the basin barrier at every
    global minimizer."""
    values = dense_values(poly)
    n = poly.num_qubits
    vmin, argmin = _argmin_set(values)
    gap = _energy_gap(values, vmin)
    barriers = {int(m): _barrier(values, int(m), n) for m in argmin}
    return LandscapeReport(
        num_qubits=n,
        global_min_value=vmin,
        global_argmin=tuple(int(m) for m in argmin),
        energy_gap=gap,
        basin_barrier_at=barriers,
    )


def check_preservation(full: IsingPolynomial, k_max: int) -> LandscapeReport:
    """Compare the truncated landscape against the full one.

    Enumerates both, then records one verdict per claim:

    * ``gap_vs_barrier``: every minimizer's barrier dominates the
      energy gap (checked only where no neighbour of the minimizer is
      itself a minimizer, since a degenerate neighbour makes the
      barrier vacuously zero);
    * ``optimum_preservation``: when the gap exceeds twice the l1
      certificate, truncated minimizers are full minimizers;
    * ``approximate_recovery``: unconditionally, truncated minimizers
      reach the full optimum within twice the certificate;
    * ``basin_preservation``: minimizers whose barrier exceeds twice
      the certificate stay single bit-flip local minima of the
      truncation, with barrier reduced by at most twice the
      certificate.
    """
    cert = certify(full, k_max)
    eps = cert.epsilon
    n = full.num_qubits
    values = dense_values(full)
    trunc_values = dense_values(truncate(full, k_max))

    vmin, argmin = _argmin_set(values)
    gap = _energy_gap(values, vmin)
    tmin, targmin = _argmin_set(trunc_values)
    barriers = {int(m): _barrier(values, int(m), n) for m in argmin}

    verdicts = []

    argmin_set = set(int(m) for m in argmin)
    clean = [
        m for m in argmin_set
        if n == 0 or all((m ^ (1 << i)) not in argmin_set for i in range(n))
    ]
    if clean and math.isfinite(gap):
        worst = min(barriers[m] - gap for m in clean)
        verdicts.append(
            Verdict(
                claim="gap_vs_barrier",
                precondition_held=True,
                asserted=bool(worst >= -TIE_RADIUS),
                margin=worst,
                details=f"checked {len(clean)} minimizer(s) without degenerate neighbours",
            )
        )
    else:
        verdicts.append(
            Verdict(
                claim="gap_vs_barrier",
                precondition_held=False,
                asserted=None,
                margin=None,
                details="no minimizer free of degenerate neighbours",
            )
        )

    gap_holds = gap > 2 * eps
    if gap_holds:
        contained = all(int(m) in argmin_set for m in targmin)
        verdicts.append(
            Verdict(
                claim="optimum_preservation",
                precondition_held=True,
                asserted=contained,
                margin=gap - 2 * eps,
                details=f"{len(targmin)} truncated minimizer(s) against {len(argmin_set)} full",
            )
        )
    else:
        verdicts.append(
            Verdict(
                claim="optimum_preservation",
                precondition_held=False,
                asserted=None,
                margin=gap - 2 * eps,
                details="energy gap does not exceed twice the certificate",
            )
        )

    excess = max(float(values[int(m)]) - vmin for m in targmin)
    verdicts.append(
        Verdict(
            claim="approximate_recovery",
            precondition_held=True,
            asserted=bool(excess <= 2 * eps + TIE_RADIUS),
            margin=2 * eps + TIE_RADIUS - excess,
            details=f"worst truncated-minimizer excess {excess!r}",
        )
    )

    qualifying = [m for m in argmin_set if barriers[m] > 2 * eps]
    if qualifying:
        ok = True
        worst_margin = math.inf
        for m in qualifying:
            tb = _barrier(trunc_values, m, n)
            margin = tb - (barriers[m] - 2 * eps) + TIE_RADIUS
            worst_margin = min(worst_margin, margin)
            if margin < 0:
                ok = False
        verdicts.append(
            Verdict(
                claim="basin_preservation",
                precondition_held=True,
                asserted=ok,
                margin=worst_margin,
                details=f"checked {len(qualifying)} minimizer(s) with barrier above twice the certificate",
            )
        )
    else:
        verdicts.append(
            Verdict(
                claim="basin_preservation",
                precondition_held=False,
                asserted=None,
                margin=None,
                details="no minimizer's barrier exceeds twice the certificate",
            )
        )

    min_barrier = min(barriers.values()) if barriers else math.inf
    return LandscapeReport(
        num_qubits=n,
        global_min_value=vmin,
        global_argmin=tuple(sorted(argmin_set)),
        energy_gap=gap,
        basin_barrier_at=barriers,
        k_max=k_max,
        epsilon=eps,
        truncated_min_value=tmin,
        truncated_argmin=tuple(int(m) for m in targmin),
        gap_condition_holds=gap_holds,
        barrier_condition_holds=min_barrier > 2 * eps,
        verdicts=tuple(verdicts),
    )


def random_masks(rng: np.random.Generator, n: int, size: int | None = None):
    """Uniform masks over ``n`` qubits as Python ints (a list when ``size``
    is given), drawn a 64-bit word at a time from the low word; up to 64
    qubits that is the one draw ``rng.integers(0, 1 << n, size)`` makes."""
    masks = [0] * (1 if size is None else size)
    for low in range(0, n, 64):
        words = rng.integers(0, (1 << min(64, n - low)) - 1, size=size, dtype=np.uint64, endpoint=True)
        masks = [m | w << low for m, w in zip(masks, np.ravel(words).tolist())]
    return masks[0] if size is None else masks


def mask_bits(masks, n: int) -> np.ndarray:
    """Boolean (len(masks) x n) matrix of a sequence of masks below
    ``2^n``: entry (t, q) is bit q of ``masks[t]``."""
    return octet_bits(mask_octets(masks, octet_width(n)), n)


def octet_bits(octets: np.ndarray, n: int) -> np.ndarray:
    """Boolean (rows x n) matrix of keys over ``n`` qubits given as rows
    of little-endian bytes: entry (t, q) is bit q of key t."""
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def pack_masks(bits: np.ndarray) -> list[int]:
    """The masks whose bits are the rows of a boolean matrix; the
    inverse of ``mask_bits``."""
    octets = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in octets]


def bitflip_descent(poly: IsingPolynomial, start: int) -> tuple[int, int]:
    """Best-improvement single bit-flip descent from a configuration mask.

    At each step flips the coordinate with the most negative energy
    change (lowest index on ties) until no flip strictly decreases the
    value.  Returns the endpoint and the number of flips taken.

    The (term, qubit) incidence is built once, term-major;
    ``bincount`` accumulates each qubit's change term by term.
    """
    n = poly.num_qubits
    if start < 0 or start.bit_length() > n:
        raise ValueError("configuration mask out of range")
    coeffs = poly.coeffs
    incidence = octet_bits(poly.octets, n)
    term_idx, qubit_idx = np.nonzero(incidence)
    mask = start
    chi = np.where(np.count_nonzero(incidence & mask_bits([start], n), axis=1) % 2, -1.0, 1.0)
    steps = 0
    while n:
        contrib = -2.0 * coeffs * chi
        deltas = np.bincount(qubit_idx, weights=contrib[term_idx], minlength=n)
        best_q = int(np.argmin(deltas))
        if not deltas[best_q] < 0.0:
            break
        mask ^= 1 << best_q
        chi[term_idx[qubit_idx == best_q]] *= -1.0
        steps += 1
    return mask, steps


def basin_agreement(
    full: IsingPolynomial, k_max: int, samples: int = 64, seed: int = 0
) -> float:
    """Fraction of random starts whose descent endpoints coincide on
    the full and truncated landscapes.  Reported as a diagnostic only;
    no threshold is attached."""
    trunc = truncate(full, k_max)
    starts = random_masks(np.random.default_rng(seed), full.num_qubits, samples)
    hits = sum(bitflip_descent(full, s)[0] == bitflip_descent(trunc, s)[0] for s in starts)
    return hits / samples


# ---------------------------------------------------------------------------
# random-coupling ensembles


_FOURTH_MOMENT = {"gaussian": 3.0, "rademacher": 1.0, "uniform": 1.8}
FAMILIES = tuple(_FOURTH_MOMENT)


@dataclass(frozen=True)
class EnsembleSpec:
    """Random-coupling ensemble: independent zero-mean couplings with
    per-subset variances.

    ``variance_profile`` maps subset masks to variances; ``family``
    selects the draw distribution (gaussian, rademacher or uniform,
    all scaled to the requested variance).
    """

    variance_profile: dict[int, float]
    family: str = "gaussian"
    trials: int = 1000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in _FOURTH_MOMENT:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.variance_profile:
            raise ValueError("variance profile has no modes")
        for s, v in self.variance_profile.items():
            if v < 0:
                raise ValueError(f"negative variance for mode {s:#x}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def split(self, k_max: int) -> tuple[list[int], list[int]]:
        """(kept, omitted) mode masks relative to a cutoff."""
        kept = sorted(s for s in self.variance_profile if 1 <= s.bit_count() <= k_max)
        omitted = sorted(s for s in self.variance_profile if s.bit_count() > k_max)
        return kept, omitted


def degree_uniform_profile(n: int, per_degree: dict[int, float]) -> dict[int, float]:
    """Assign one variance to every subset of each listed degree."""
    profile: dict[int, float] = {}
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if k in per_degree:
            profile[mask] = per_degree[k]
    return profile


def profile_with_margin(n: int, k_max: int, margin: float) -> dict[int, float]:
    """Profile whose omitted/kept power ratio hits ``margin * k_max / n``.

    Spreads a kept power of 1 uniformly over degree ``k_max`` and the
    matching omitted mass over degree ``k_max + 1``.  ``margin`` of zero
    produces a pure low-degree profile.
    """
    if not 1 <= k_max < n:
        raise ValueError("degrees incompatible with cutoff")
    omitted_total = margin * (k_max / n)
    profile = {}
    kept_count = math.comb(n, k_max)
    omitted_count = math.comb(n, k_max + 1)
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if k == k_max:
            profile[mask] = 1.0 / kept_count
        elif k == k_max + 1 and omitted_total > 0:
            profile[mask] = omitted_total / omitted_count
    return profile


def _draw(rng: np.random.Generator, family: str, variances: np.ndarray, trials: int) -> np.ndarray:
    scale = np.sqrt(variances)
    shape = (trials, variances.size)
    if family == "gaussian":
        return rng.standard_normal(shape) * scale
    if family == "rademacher":
        return (2.0 * rng.integers(0, 2, size=shape) - 1.0) * scale
    return rng.uniform(-1.0, 1.0, size=shape) * (scale * math.sqrt(3.0))


def _chi_at(masks: list[int], z_mask: int) -> np.ndarray:
    return np.array(
        [1.0 if (s & z_mask).bit_count() % 2 == 0 else -1.0 for s in masks]
    )


@dataclass(frozen=True)
class MomentReport:
    """Sample moments of the truncation residual at one configuration."""

    trials: int
    family: str
    num_modes: int
    target_variance: float
    sample_mean: float
    sample_variance: float
    variance_se: float
    variance_ok: bool
    skewness: float
    excess_kurtosis: float
    skewness_se: float
    kurtosis_se: float
    max_variance_ratio: float
    gaussian_gate_applied: bool
    skewness_ok: bool | None
    kurtosis_ok: bool | None
    fourth_moment_bound: float
    fourth_moment_ratio: float
    fourth_moment_ok: bool


def ensemble_residual_check(spec: EnsembleSpec, n: int, k_max: int) -> MomentReport:
    """Draw omitted couplings and check the residual's moments at the
    all-plus configuration (mask 0), where every character is 1.

    The sample variance must match the summed mode variances within
    five standard errors.  When no single mode carries more than 1% of
    the total variance, near-Gaussianity is additionally asserted via
    skewness and excess kurtosis gates of 0.1 plus five standard
    errors each.
    """
    _, omitted = spec.split(k_max)
    rng = np.random.default_rng(spec.rng_seed)
    target = float(sum(spec.variance_profile[s] for s in omitted))
    if omitted:
        variances = np.array([spec.variance_profile[s] for s in omitted])
        draws = _draw(rng, spec.family, variances, spec.trials)
        samples = draws @ np.ones(len(omitted))
        max_ratio = float(variances.max() / target) if target > 0 else 0.0
    else:
        draws = np.zeros((spec.trials, 0))
        samples = np.zeros(spec.trials)
        max_ratio = 0.0

    mean = float(samples.mean())
    var = float(samples.var(ddof=1)) if spec.trials > 1 else 0.0
    centered = samples - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    kurt = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    var_se = math.sqrt(max(m4 - m2**2, 0.0) / spec.trials)
    skew_se = math.sqrt(6.0 / spec.trials)
    kurt_se = math.sqrt(24.0 / spec.trials)

    variance_ok = abs(var - target) <= 5.0 * var_se if target > 0 else var == 0.0
    gate = max_ratio < 0.01 and target > 0
    skew_ok = (abs(skew) < 0.1 + 5.0 * skew_se) if gate else None
    kurt_ok = (abs(kurt) < 0.1 + 5.0 * kurt_se) if gate else None

    bound = _FOURTH_MOMENT[spec.family]
    ratio = 0.0
    if omitted and target > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            per_mode = np.mean(draws**4, axis=0) / np.where(variances > 0, variances**2, 1.0)
        live = variances > 0
        ratio = float(per_mode[live].max()) if live.any() else 0.0
    fourth_ok = ratio <= bound * (1.0 + 10.0 / math.sqrt(spec.trials)) + 1e-12

    return MomentReport(
        trials=spec.trials,
        family=spec.family,
        num_modes=len(omitted),
        target_variance=target,
        sample_mean=mean,
        sample_variance=var,
        variance_se=var_se,
        variance_ok=variance_ok,
        skewness=skew,
        excess_kurtosis=kurt,
        skewness_se=skew_se,
        kurtosis_se=kurt_se,
        max_variance_ratio=max_ratio,
        gaussian_gate_applied=gate,
        skewness_ok=skew_ok,
        kurtosis_ok=kurt_ok,
        fourth_moment_bound=bound,
        fourth_moment_ratio=ratio,
        fourth_moment_ok=fourth_ok,
    )


@dataclass(frozen=True)
class BitflipVarianceReport:
    """Empirical vs analytic variance of one coordinate's bit-flip
    energy difference on the truncated landscape."""

    coordinate: int
    trials: int
    target_variance: float
    sample_variance: float
    variance_se: float
    variance_ok: bool
    avg_variance: float
    avg_bound: float
    avg_bound_ok: bool


def bitflip_variance_check(spec: EnsembleSpec, k_max: int, coordinate: int, n: int) -> BitflipVarianceReport:
    """Check the bit-flip difference variance of the kept landscape.

    Draws kept couplings, measures the empirical variance of the
    energy change when ``coordinate`` flips at the all-plus
    configuration (mask 0), and compares against four times the
    summed variances of kept modes containing it.  Also
    verifies the analytic coordinate-averaged cap: mean variance over
    coordinates never exceeds 4 * k_max * (kept power) / n.  A
    ``coordinate`` outside ``[0, n)`` is a ValueError.
    """
    kept, _ = spec.split(k_max)
    if not 0 <= coordinate < n:
        raise ValueError(f"coordinate {coordinate} is outside [0, {n})")
    bit = 1 << coordinate
    touching = [s for s in kept if s & bit]
    target = 4.0 * sum(spec.variance_profile[s] for s in touching)

    rng = np.random.default_rng(spec.rng_seed)
    if touching:
        variances = np.array([spec.variance_profile[s] for s in touching])
        draws = _draw(rng, spec.family, variances, spec.trials)
        samples = -2.0 * (draws @ np.ones(len(touching)))
    else:
        samples = np.zeros(spec.trials)
    var = float(samples.var(ddof=1)) if spec.trials > 1 else 0.0
    centered = samples - samples.mean()
    m4 = float(np.mean(centered**4))
    m2 = float(np.mean(centered**2))
    se = math.sqrt(max(m4 - m2**2, 0.0) / spec.trials)
    ok = abs(var - target) <= 5.0 * se if target > 0 else var == 0.0

    kept_power = sum(spec.variance_profile[s] for s in kept)
    total = 4.0 * sum(s.bit_count() * spec.variance_profile[s] for s in kept)
    avg = total / n if n else 0.0
    avg_bound = 4.0 * k_max * kept_power / n if n else 0.0

    return BitflipVarianceReport(
        coordinate=coordinate,
        trials=spec.trials,
        target_variance=target,
        sample_variance=var,
        variance_se=se,
        variance_ok=ok,
        avg_variance=avg,
        avg_bound=avg_bound,
        avg_bound_ok=avg <= avg_bound + 1e-12,
    )


@dataclass(frozen=True)
class SignRateReport:
    """Agreement rate between full and truncated bit-flip move signs."""

    trials: int
    num_coordinates: int
    k_max: int
    margin: float | None
    rate: float


def sign_preservation_rate(spec: EnsembleSpec, n: int, k_max: int) -> SignRateReport:
    """Fraction of (trial, coordinate) pairs where the full and
    truncated bit-flip energy differences point the same way, at one
    configuration drawn uniformly from the spec's RNG stream.

    Differences are compared through their nonnegativity, so a zero
    truncated difference counts as an uphill (rejected) move; against
    symmetric noise that baseline sits at one half.
    """
    kept, omitted = spec.split(k_max)
    modes = kept + omitted
    rng = np.random.default_rng(spec.rng_seed)
    at_mask = random_masks(rng, n)
    variances = np.array([spec.variance_profile[s] for s in modes])
    draws = _draw(rng, spec.family, variances, spec.trials)
    chi = _chi_at(modes, at_mask)
    kept_count = len(kept)

    agree = 0
    total = 0
    for i in range(n):
        bit = 1 << i
        cols = np.array([t for t, s in enumerate(modes) if s & bit], dtype=np.int64)
        if cols.size == 0:
            agree += spec.trials
            total += spec.trials
            continue
        contrib = draws[:, cols] * (-2.0 * chi[cols])
        full_diff = contrib.sum(axis=1)
        trunc_cols = cols[cols < kept_count]
        if trunc_cols.size:
            trunc_diff = (draws[:, trunc_cols] * (-2.0 * chi[trunc_cols])).sum(axis=1)
        else:
            trunc_diff = np.zeros(spec.trials)
        agree += int(np.sum((full_diff >= 0) == (trunc_diff >= 0)))
        total += spec.trials

    kept_power = sum(spec.variance_profile[s] for s in kept)
    omitted_power = sum(spec.variance_profile[s] for s in omitted)
    if kept_power > 0 and n:
        margin: float | None = (omitted_power / kept_power) * n / k_max
    elif omitted_power == 0:
        margin = 0.0
    else:
        margin = None

    return SignRateReport(
        trials=spec.trials,
        num_coordinates=n,
        k_max=k_max,
        margin=margin,
        rate=agree / total if total else 1.0,
    )
