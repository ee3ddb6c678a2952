"""Exact ground truth and Monte-Carlo ensemble verification.

The landscape checks are exact: minimum sets with an explicit 1e-12
tie radius, energy gaps, single bit-flip basin barriers, and the
preservation verdicts that compare a truncated landscape against the
full one.  A gap and a barrier are both differences of two values of
the landscape, so a runner-up one flip from a minimizer gives them
equal.  A landscape comes from one of two sources, and the verdicts
read both the same way:

* a CFN's encoding, and its truncation, is a network of value tables
  over register bitstrings, one per register block and one per
  interaction block (``RegisterLandscape``), synthesized a stack of
  blocks at a time and minimized by min-sum elimination
  (``elimination``), the two landscapes on one elimination order.  Its
  cap is the elimination's largest table, 2^24 entries, whatever the
  qubit count: a chain or a grid of hundreds of qubits verifies in well
  under a second.  The CFN's own optimum comes from the same kernel
  (``cfn_optimum``);
* a polynomial with no register structure (a HUBO-JSON file, a QUBO
  with its ancillas) is enumerated into its 2^n values
  (``DenseLandscape``), up to 24 qubits.

The barriers of all minimizers are one evaluation of every (minimizer,
single flip) pair (``_barriers``): rows of one direct sum, or one
gather from the enumerated table, so their cost follows the pairs, not
a pass over the landscape per qubit.

The ensemble half draws random couplings with a prescribed per-mode
variance profile and checks the distributional claims about the
truncation residual: its variance, its approach to Gaussianity when
no single mode dominates, the bit-flip difference variance, and the
sign-agreement rate between full and truncated bit-flip moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cfn import Cfn
from .elimination import MAX_TABLE_ENTRIES, PairwiseNetwork, Steps, first, lowest, network_order
from .encoding import WalshBlocks, encode
from .errors import CapacityError
from .polynomial import IsingPolynomial, characters, held_qubits, key_lists, random_masks, significant
from .truncation import certify, truncate
from .walsh import subset_degrees, synthesize_values

__all__ = [
    "TIE_RADIUS",
    "Verdict",
    "LandscapeReport",
    "dense_values",
    "DenseLandscape",
    "RegisterLandscape",
    "cfn_optimum",
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
# state entries ``_barriers`` evaluates at once: 2^20, a 16th of the
# largest elimination table, so a run's dozen arrays of one entry per
# (mask, flip) pair stay near 100 MB
RUN_ENTRIES = MAX_TABLE_ENTRIES >> 4


@dataclass(frozen=True)
class Verdict:
    """Outcome of one asserted claim.

    ``asserted`` is None when the claim's precondition did not hold
    (nothing was checked, and ``precondition_held`` reads false);
    otherwise it is the boolean outcome.
    ``margin`` is the slack by which the check passed or failed.
    """

    claim: str
    asserted: bool | None
    margin: float | None
    details: str

    @property
    def precondition_held(self) -> bool:
        return self.asserted is not None


@dataclass(frozen=True)
class LandscapeReport:
    """Exact landscape results, optionally with truncation verdicts."""

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
        return tuple(v for v in self.verdicts if v.asserted is False)


def dense_values(poly: IsingPolynomial) -> np.ndarray:
    """Value of the polynomial at every configuration mask: the
    enumeration behind a polynomial with no register structure, capped
    at 2^24 states, as every elimination table is (``MAX_TABLE_ENTRIES``)."""
    if 1 << poly.num_qubits > MAX_TABLE_ENTRIES:
        raise CapacityError(f"enumeration over {poly.num_qubits} qubits exceeds the 2^24 cap")
    term, qubit = held_qubits(poly.qubits, poly.offsets)
    coeffs = np.zeros(1 << poly.num_qubits)
    # each key's mask, summed exactly as floats below 2^24
    coeffs[np.bincount(term, np.left_shift(1, qubit), poly.num_terms()).astype(np.intp)] = poly.coeffs
    return synthesize_values(coeffs)


class DenseLandscape:
    """A polynomial's landscape as its table of 2^n values (``dense_values``)."""

    def __init__(self, poly: IsingPolynomial) -> None:
        self.num_qubits = poly.num_qubits
        self.table = dense_values(poly)

    def lowest(self, radius: float, gap: bool = False) -> tuple[list[int], np.ndarray, float | None]:
        """The masks whose values lie within ``radius`` of the least,
        ascending, and their values; with ``gap``, the least value above
        them (inf when none is)."""
        vmin = float(self.table.min())
        near = self.table <= vmin + radius
        masks = np.flatnonzero(near)
        above = None
        if gap:
            rest = self.table[~near]
            above = float(rest.min()) if rest.size else math.inf
        return masks.tolist(), self.table[masks], above

    def lowest_mask(self) -> int:
        """The lowest mask among the exact ties of the least value."""
        return int(np.argmin(self.table))

    def states(self, masks: list[int]) -> np.ndarray:
        """The masks as an array: a mask indexes the table."""
        return np.array(masks, dtype=np.intp)

    def flipped(self, states: np.ndarray, which: np.ndarray, qubits: np.ndarray) -> np.ndarray:
        """Mask ``which[k]`` of ``states`` with qubit ``qubits[k]``
        flipped, for each k."""
        return states[which] ^ np.left_shift(1, qubits)

    def at(self, states: np.ndarray) -> np.ndarray:
        """The value at each mask: one table gather."""
        return self.table[states]

    def values(self, masks: list[int]) -> np.ndarray:
        return self.table[masks]


def _register_network(blocks: WalshBlocks, k_max: int | None = None) -> PairwiseNetwork:
    """The landscape of ``encode(blocks)``, or of its truncation at
    ``k_max``, as a network over register bitstrings: each register
    block and each interaction block synthesized into a value table
    over its registers, a stack at a time, and the constant.

    Couplings at most 1e-14 of the largest are zeroed, as the
    polynomial drops them, and so are those of degree above ``k_max``,
    as ``truncate`` drops them: the network and the polynomial hold the
    same couplings."""
    layout = blocks.layout
    top = math.inf if k_max is None else k_max
    stacks = (*blocks.register_stacks, *blocks.interaction_stacks)
    largest = max([abs(blocks.constant), *(float(np.abs(stack.coeffs).max(initial=0.0)) for stack in stacks)])

    def synthesized(coeffs: np.ndarray, degrees: np.ndarray) -> np.ndarray:
        # the stack's tables with the empty subset of each register put back
        full = np.zeros((len(coeffs), *degrees.shape))
        full[(slice(None), *(slice(1, None) for _ in degrees.shape))] = coeffs
        kept = np.where(significant(np.abs(full), largest) & (degrees <= top), full, 0.0)
        return synthesize_values(kept.reshape(len(coeffs), -1)).reshape(full.shape)

    unary: list = [None] * layout.num_variables
    for stack in blocks.register_stacks:
        for i, table in zip(stack.registers.tolist(), synthesized(stack.coeffs, subset_degrees(stack.width))):
            unary[i] = table
    pairwise: list = [None] * sum(len(stack.tables) for stack in blocks.interaction_stacks)
    for stack in blocks.interaction_stacks:
        wi, wj = stack.widths
        # the block's rows are register j's subsets, its columns register i's
        tables = synthesized(stack.coeffs, subset_degrees(wj)[:, None] + subset_degrees(wi))
        tables = np.ascontiguousarray(tables.transpose(0, 2, 1))
        for t, (i, j), table in zip(stack.tables.tolist(), stack.pairs.tolist(), tables):
            pairwise[t] = (i, j, table)
    constant = blocks.constant if significant(np.abs(blocks.constant), largest) else 0.0
    return PairwiseNetwork(tuple(1 << w for w in layout.register_widths), constant, tuple(unary), tuple(pairwise))


class RegisterLandscape:
    """The landscape of a CFN's encoding, or of its truncation at
    ``k_max``, as a network over its registers (``_register_network``):
    minimized by min-sum elimination (``elimination.lowest`` and
    ``elimination.first``), never enumerated, so its cap is the
    elimination's largest table, not 2^n.  A value at a mask is one
    direct sum of the tables.

    ``steps`` is the elimination order of the register graph, which the
    full and every truncated landscape of one CFN share (and so does
    ``cfn_optimum``'s network): given one, the landscape takes no order
    of its own."""

    def __init__(self, blocks: WalshBlocks, k_max: int | None = None, steps: Steps | None = None) -> None:
        layout = blocks.layout
        self.num_qubits = layout.total_qubits
        self.network = _register_network(blocks, k_max)
        self.steps = network_order(self.network) if steps is None else steps
        self._registers = tuple(zip(layout.register_offsets, layout.register_widths))
        widths = np.array(layout.register_widths, dtype=np.intp)
        # each qubit's register, and its bit in the register's bitstring
        self._register_of = np.repeat(np.arange(len(widths)), widths)
        self._bit_of = np.arange(self.num_qubits) - np.repeat(np.array(layout.register_offsets, dtype=np.intp), widths)

    def lowest(self, radius: float, gap: bool = False) -> tuple[list[int], np.ndarray, float | None]:
        """As ``DenseLandscape.lowest``."""
        rows, values, above = lowest(self.network, radius, gap, self.steps)
        masks = [sum(b << offset for b, (offset, _) in zip(row, self._registers)) for row in rows.tolist()]
        order = sorted(range(len(masks)), key=masks.__getitem__)
        return [masks[k] for k in order], values[order], above

    def states(self, masks: list[int]) -> np.ndarray:
        """Each mask as a row of register bitstrings."""
        rows = [[(m >> offset) & ((1 << w) - 1) for offset, w in self._registers] for m in masks]
        return np.array(rows, dtype=np.intp).reshape(len(masks), len(self._registers))

    def flipped(self, states: np.ndarray, which: np.ndarray, qubits: np.ndarray) -> np.ndarray:
        """Row ``which[k]`` of ``states`` with qubit ``qubits[k]`` flipped,
        for each k: the bit XORed into its register's bitstring."""
        rows = states[which]
        rows[np.arange(len(rows)), self._register_of[qubits]] ^= np.left_shift(1, self._bit_of[qubits])
        return rows

    def at(self, states: np.ndarray) -> np.ndarray:
        """The value at each row of register bitstrings: one direct sum."""
        return self.network.values(states)

    def values(self, masks: list[int]) -> np.ndarray:
        return self.at(self.states(masks))

    def lowest_mask(self) -> int:
        """The lowest mask among the exact ties of the least direct
        value (``elimination.first``)."""
        row = first(self.network, range(len(self._registers) - 1, -1, -1), self.steps)
        return sum(int(b) << offset for b, (offset, _) in zip(row, self._registers))


def _barriers(land: DenseLandscape | RegisterLandscape, masks: list[int]) -> list[float]:
    """The least single-flip change at each mask (inf with no qubits):
    the value after each flip less the value at the mask, so a
    neighbour that is the runner-up gives exactly the energy gap.

    Every (mask, flip) pair is evaluated at once, mask-major, in runs of
    at most ``RUN_ENTRIES`` state entries (a register landscape's state
    is a row of register bitstrings, a dense one's a mask), so neither
    many qubits nor many minimizers hold more at once.  ``np.minimum.at``
    takes each mask's least change a flip at a time, in qubit order, as
    a loop over the qubits would, signed zeros included."""
    states = land.states(masks)
    here = land.at(states)
    least = np.full(len(masks), math.inf)
    n = land.num_qubits
    per = RUN_ENTRIES // max(1, math.prod(states.shape[1:]))  # pairs a run
    for start in range(0, len(masks) * n, per):
        which, qubit = np.divmod(np.arange(start, min(start + per, len(masks) * n)), n)
        np.minimum.at(least, which, land.at(land.flipped(states, which, qubit)) - here[which])
    return least.tolist()


def cfn_optimum(cfn: Cfn, steps: Steps | None = None) -> tuple[float, tuple[int, ...]]:
    """A CFN's exact optimum and its lexicographically first minimizer
    (1-based), by min-sum elimination on its own tables
    (``elimination.first``).  Values are summed with the float
    additions of ``evaluate_cfn``, in its order: unaries by variable,
    then pairwise tables in file order.  ``steps`` is the elimination
    order of its graph, a ``RegisterLandscape``'s, when one is at hand."""
    network = PairwiseNetwork(
        domains=tuple(v.cardinality for v in cfn.variables),
        constant=0.0,
        unary=tuple(np.asarray(t, dtype=float) for t in cfn.unary_tables),
        pairwise=tuple(
            (t.i, t.j, np.asarray(t.costs, dtype=float).reshape(cfn.cardinality(t.i), cfn.cardinality(t.j)))
            for t in cfn.pairwise_tables
        ),
    )
    row = first(network, range(cfn.num_variables), steps)
    return float(network.values(row[None])[0]), tuple(int(c) + 1 for c in row)


def enumerate_landscape(poly: IsingPolynomial) -> LandscapeReport:
    """Exact minimum set, energy gap, and the basin barrier at every
    global minimizer."""
    return _landscape(DenseLandscape(poly))


def _landscape(land: DenseLandscape | RegisterLandscape) -> LandscapeReport:
    argmin, values, above = land.lowest(TIE_RADIUS, gap=True)
    vmin = float(values.min())
    return LandscapeReport(
        num_qubits=land.num_qubits,
        global_min_value=vmin,
        global_argmin=tuple(argmin),
        energy_gap=above - vmin,
        basin_barrier_at=dict(zip(argmin, _barriers(land, argmin))),
    )


def check_preservation(source: IsingPolynomial | WalshBlocks, k_max: int) -> LandscapeReport:
    """Compare the truncated landscape against the full one.

    A polynomial's two landscapes are enumerated (``DenseLandscape``);
    a CFN's, given as its Walsh blocks, are minimized over its registers
    (``RegisterLandscape``).  Then one verdict is recorded per claim:

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
    if isinstance(source, WalshBlocks):
        poly = encode(source)
        full = RegisterLandscape(source)
        trunc = RegisterLandscape(source, k_max, full.steps)
    else:
        poly = source
        full, trunc = DenseLandscape(source), DenseLandscape(truncate(source, k_max))
    eps = certify(poly, k_max).epsilon
    n = full.num_qubits

    report = _landscape(full)
    vmin, gap, barriers = report.global_min_value, report.energy_gap, report.basin_barrier_at
    targmin, tvalues, _ = trunc.lowest(TIE_RADIUS)
    tmin = float(tvalues.min())

    verdicts = []

    argmin_set = set(report.global_argmin)
    clean = [m for m in argmin_set if all((m ^ (1 << i)) not in argmin_set for i in range(n))]
    if clean and math.isfinite(gap):
        worst = min(barriers[m] - gap for m in clean)
        verdicts.append(
            Verdict(
                claim="gap_vs_barrier",
                asserted=bool(worst >= -TIE_RADIUS),
                margin=worst,
                details=f"checked {len(clean)} minimizer(s) without degenerate neighbours",
            )
        )
    else:
        verdicts.append(
            Verdict(
                claim="gap_vs_barrier",
                asserted=None,
                margin=None,
                details="no minimizer free of degenerate neighbours",
            )
        )

    gap_holds = gap > 2 * eps
    if gap_holds:
        contained = all(m in argmin_set for m in targmin)
        verdicts.append(
            Verdict(
                claim="optimum_preservation",
                asserted=contained,
                margin=gap - 2 * eps,
                details=f"{len(targmin)} truncated minimizer(s) against {len(argmin_set)} full",
            )
        )
    else:
        verdicts.append(
            Verdict(
                claim="optimum_preservation",
                asserted=None,
                margin=gap - 2 * eps,
                details="energy gap does not exceed twice the certificate",
            )
        )

    excess = max(float(v) - vmin for v in full.values(targmin))
    verdicts.append(
        Verdict(
            claim="approximate_recovery",
            asserted=bool(excess <= 2 * eps + TIE_RADIUS),
            margin=2 * eps + TIE_RADIUS - excess,
            details=f"worst truncated-minimizer excess {excess!r}",
        )
    )

    qualifying = [m for m in argmin_set if barriers[m] > 2 * eps]
    if qualifying:
        margins = [b - (barriers[m] - 2 * eps) + TIE_RADIUS for m, b in zip(qualifying, _barriers(trunc, qualifying))]
        # a NaN margin (both barriers infinite, at n = 0) never wins the min
        worst_margin = min(math.inf, *margins)
        verdicts.append(
            Verdict(
                claim="basin_preservation",
                asserted=worst_margin >= 0,
                margin=worst_margin,
                details=f"checked {len(qualifying)} minimizer(s) with barrier above twice the certificate",
            )
        )
    else:
        verdicts.append(
            Verdict(
                claim="basin_preservation",
                asserted=None,
                margin=None,
                details="no minimizer's barrier exceeds twice the certificate",
            )
        )

    min_barrier = min(barriers.values()) if barriers else math.inf
    return replace(
        report,
        k_max=k_max,
        epsilon=eps,
        truncated_min_value=tmin,
        truncated_argmin=tuple(targmin),
        gap_condition_holds=gap_holds,
        barrier_condition_holds=min_barrier > 2 * eps,
        verdicts=tuple(verdicts),
    )


def bitflip_descent(poly: IsingPolynomial, start: int) -> tuple[int, int]:
    """Best-improvement single bit-flip descent from a configuration mask.

    At each step flips the coordinate with the most negative energy
    change (lowest index on ties) until that change is not negative or
    the flip does not lower the value, summed afresh from the terms.
    The value is a function of the mask, so no mask is visited twice
    and the descent ends, even on a plateau of exact ties where the
    change can round to just below zero in every direction (a running
    sum of the changes would not do: near a value of 0 it keeps falling
    by rounding errors).  Returns the endpoint and the number of flips
    taken.

    The (term, qubit) pairs are read once, term-major
    (``held_qubits``), and ``bincount`` accumulates each qubit's change
    term by term.  An idle qubit's change is exactly 0, so it is never
    taken, and ties go to the lowest index.
    """
    if start < 0 or start.bit_length() > poly.num_qubits:
        raise ValueError("configuration mask out of range")
    coeffs = poly.coeffs
    term_idx, qubit_idx = held_qubits(poly.qubits, poly.offsets)
    mask = start
    chi = characters(poly.qubits, poly.offsets, [start])[0]
    energy = float(chi @ coeffs)
    steps = 0
    while qubit_idx.size:
        contrib = -2.0 * coeffs * chi
        deltas = np.bincount(qubit_idx, weights=contrib[term_idx])
        best = int(np.argmin(deltas))
        if not deltas[best] < 0.0:
            break
        chi[term_idx[qubit_idx == best]] *= -1.0
        after = float(chi @ coeffs)
        if not after < energy:
            break
        energy = after
        mask ^= 1 << best
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


def _variance_gate(samples: np.ndarray, target: float) -> tuple[float, bool, float, float, float]:
    """The sample variance (ddof 1; 0 for one sample), whether it is
    within five standard errors of ``target`` (is 0, if ``target`` is
    not positive), and the central moments m2, m3 and m4."""
    var = float(samples.var(ddof=1)) if len(samples) > 1 else 0.0
    centered = samples - samples.mean()
    m2, m3, m4 = (float(np.mean(centered**p)) for p in (2, 3, 4))
    se = math.sqrt(max(m4 - m2**2, 0.0) / len(samples))
    return var, (abs(var - target) <= 5.0 * se if target > 0 else var == 0.0), m2, m3, m4


@dataclass(frozen=True)
class MomentReport:
    """Sample moments of the truncation residual at one configuration."""

    num_modes: int
    target_variance: float
    sample_mean: float
    sample_variance: float
    variance_ok: bool
    skewness: float
    excess_kurtosis: float
    max_variance_ratio: float
    gaussian_gate_applied: bool
    skewness_ok: bool | None
    kurtosis_ok: bool | None
    fourth_moment_bound: float
    fourth_moment_ratio: float
    fourth_moment_ok: bool


def ensemble_residual_check(spec: EnsembleSpec, k_max: int) -> MomentReport:
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
    var, variance_ok, m2, m3, m4 = _variance_gate(samples, target)
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    kurt = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    skew_se = math.sqrt(6.0 / spec.trials)
    kurt_se = math.sqrt(24.0 / spec.trials)

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
        num_modes=len(omitted),
        target_variance=target,
        sample_mean=mean,
        sample_variance=var,
        variance_ok=variance_ok,
        skewness=skew,
        excess_kurtosis=kurt,
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
    target_variance: float
    sample_variance: float
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
    var, ok, *_ = _variance_gate(samples, target)

    kept_power = sum(spec.variance_profile[s] for s in kept)
    total = 4.0 * sum(s.bit_count() * spec.variance_profile[s] for s in kept)
    avg = total / n if n else 0.0
    avg_bound = 4.0 * k_max * kept_power / n if n else 0.0

    return BitflipVarianceReport(
        coordinate=coordinate,
        target_variance=target,
        sample_variance=var,
        variance_ok=ok,
        avg_variance=avg,
        avg_bound=avg_bound,
        avg_bound_ok=avg <= avg_bound + 1e-12,
    )


@dataclass(frozen=True)
class SignRateReport:
    """Agreement rate between full and truncated bit-flip move signs."""

    margin: float | None
    rate: float


def sign_preservation_rate(spec: EnsembleSpec, n: int, k_max: int) -> SignRateReport:
    """Fraction of (trial, coordinate) pairs where the full and
    truncated bit-flip energy differences point the same way, at one
    configuration drawn uniformly from the spec's RNG stream.

    Differences are compared through their nonnegativity, so a zero
    truncated difference counts as an uphill (rejected) move; against
    symmetric noise that baseline sits at one half.  A mode outside
    ``[0, 2^n)`` is a ValueError.
    """
    kept, omitted = spec.split(k_max)
    modes = kept + omitted
    rng = np.random.default_rng(spec.rng_seed)
    at_mask = random_masks(rng, n)
    variances = np.array([spec.variance_profile[s] for s in modes])
    draws = _draw(rng, spec.family, variances, spec.trials)
    keys = key_lists(modes, n)
    chi = characters(*keys, [at_mask])[0]
    term, qubit = held_qubits(*keys)
    qubits = np.flatnonzero(np.bincount(qubit))

    # a coordinate in no mode moves neither landscape, so the two agree
    agree = (n - qubits.size) * spec.trials
    for q in qubits.tolist():
        cols = term[qubit == q]
        contrib = draws[:, cols] * (-2.0 * chi[cols])
        full_diff = contrib.sum(axis=1)
        trunc_diff = contrib[:, cols < len(kept)].sum(axis=1)
        agree += int(np.sum((full_diff >= 0) == (trunc_diff >= 0)))
    total = n * spec.trials

    kept_power = sum(spec.variance_profile[s] for s in kept)
    omitted_power = sum(spec.variance_profile[s] for s in omitted)
    if kept_power > 0 and n:
        margin: float | None = (omitted_power / kept_power) * n / k_max
    elif omitted_power == 0:
        margin = 0.0
    else:
        margin = None

    return SignRateReport(
        margin=margin,
        rate=agree / total if total else 1.0,
    )
