"""Closed-form rate and capacity calculators, all exact rationals.

The proved quantity is the linear capacity with unidentified side
information, 1 / sum_i min(k_i + 1, mu_i - k_i).  Everything else reported
here is flagged: the fully-identifiable rate 1/(Gamma - eta + 1) is
achievable-only, and the mixed-side-information bounds are a conjecture.

The per-class rule lives here and nowhere else: `class_floor` is the rows
class i costs, `class_plan` the branch the scheme sends them by, and
`check_instance` the shape every instance must have.  The protocol, the
oracle and the world model use these copies; this module imports nothing
from the package but its errors, so `ppir capacity` loads it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, UnsupportedParametersError

REGIME_NO_SIDE = "no-side-info"
REGIME_MAX_SIDE = "max-side-info"
REGIME_PIR_SI = "pir-si-equivalent"
REGIME_INTERIOR = "interior"


def check_instance(class_sizes, side_counts):
    """The instance shape as tuples; ParameterError unless every class keeps a new message."""
    class_sizes = tuple(class_sizes)
    side_counts = tuple(side_counts)
    if len(class_sizes) < 2:
        raise ParameterError("at least two classes are required")
    if len(side_counts) != len(class_sizes):
        raise ParameterError("side_counts must have one entry per class")
    for mu, k in zip(class_sizes, side_counts):
        if k < 0 or mu < 1:
            raise ParameterError("invalid class size or side count")
        if mu < k + 1:
            raise ParameterError(
                f"class fully held (size {mu}, {k} side messages): "
                "mixed-side-information regime, use msi_rate_bounds"
            )
    return class_sizes, side_counts


def class_floor(mu: int, k: int, demand: int = 1) -> int:
    """Rows a class of size mu with k held costs at this demand, min(k + demand, mu - k).

    Defined for every 0 <= k <= mu; a fully held class costs nothing.
    """
    return min(k + demand, mu - k)


def class_plan(mu: int, k: int, demand: int = 1):
    """Per-class branch: ("uncoded", rows) or ("parity", rows), parity on a tie."""
    if mu < k + demand:
        raise UnsupportedParametersError(
            f"class of size {mu} cannot yield {demand} new messages past {k} held"
        )
    rows = class_floor(mu, k, demand)
    return ("uncoded" if rows < mu - k else "parity"), rows


def expected_download_rows(class_sizes, side_counts, demand: int = 1) -> int:
    return sum(class_floor(mu, k, demand) for mu, k in zip(class_sizes, side_counts))


def usi_capacity(class_sizes, side_counts) -> Fraction:
    """Exact capacity with unidentified side information."""
    class_sizes, side_counts = check_instance(class_sizes, side_counts)
    return Fraction(1, expected_download_rows(class_sizes, side_counts))


def ppir_rate(num_classes: int) -> Fraction:
    """No-side-information pliable retrieval capacity."""
    return Fraction(1, num_classes)


def pir_si_rate(num_messages: int, total_side: int) -> Fraction:
    """Identified-side-information retrieval capacity, 1/(f - kappa)."""
    if total_side >= num_messages:
        raise ParameterError("side information cannot cover the whole database")
    return Fraction(1, num_messages - total_side)


def fsi_rate(num_classes: int, identified: int) -> Fraction:
    """Achievable rate when side information in `identified` classes is positional."""
    if not 1 <= identified <= num_classes:
        raise ParameterError("identified class count must lie in [1, num_classes]")
    return Fraction(1, num_classes - identified + 1)


def multi_rate(class_sizes, side_counts, demand: int, num_desired: int) -> Fraction:
    """Achievable multi-message rate: demand*num_desired over the download rows."""
    class_sizes = tuple(class_sizes)
    side_counts = tuple(side_counts)
    if demand < 1 or num_desired < 1:
        raise ParameterError("demand and num_desired must be at least 1")
    if num_desired > len(class_sizes):
        raise ParameterError("cannot desire more classes than exist")
    for mu, k in zip(class_sizes, side_counts):
        class_plan(mu, k, demand)  # refuses a class short of demand new messages
    rows = expected_download_rows(class_sizes, side_counts, demand)
    return Fraction(demand * num_desired, rows)


def msi_rate_bounds(num_messages: int, total_side: int, num_classes: int, identified: int):
    """Conjectured (lower, upper) rate bounds in the mixed regime.

    identified counts the fully held classes, |{i : mu_i = k_i}|.
    """
    if identified > num_classes:
        raise ParameterError("identified class count cannot exceed num_classes")
    lower = pir_si_rate(num_messages, total_side)
    upper = Fraction(1, num_classes - identified + 1)
    return lower, upper


def regime_classify(class_sizes, side_counts) -> frozenset:
    class_sizes, side_counts = check_instance(class_sizes, side_counts)
    tags = set()
    if all(k == 0 for k in side_counts):
        tags.add(REGIME_NO_SIDE)
    if all(k == mu - 1 for mu, k in zip(class_sizes, side_counts)):
        tags.add(REGIME_MAX_SIDE)
    if all(class_plan(mu, k)[0] == "parity" for mu, k in zip(class_sizes, side_counts)):
        tags.add(REGIME_PIR_SI)
    if not tags:
        tags.add(REGIME_INTERIOR)
    return frozenset(tags)


def _frac_json(x: Fraction):
    return {"num": x.numerator, "den": x.denominator}


@dataclass(frozen=True)
class RateReport:
    class_sizes: tuple[int, ...]
    side_counts: tuple[int, ...]
    capacity: Fraction
    ppir: Fraction
    pir_si: Fraction
    regimes: frozenset
    fsi: Fraction | None = None
    identified: int | None = None
    multi: Fraction | None = None
    demand: int = 1
    num_desired: int = 1
    msi_bounds: tuple | None = None

    def to_json(self) -> dict:
        doc = {
            "class_sizes": list(self.class_sizes),
            "side_counts": list(self.side_counts),
            "capacity": _frac_json(self.capacity),
            "ppir_rate": _frac_json(self.ppir),
            "pir_si_rate": _frac_json(self.pir_si),
            "regimes": sorted(self.regimes),
            "status": {"capacity": "proved"},
        }
        if self.fsi is not None:
            doc["fsi_rate"] = _frac_json(self.fsi)
            doc["identified"] = self.identified
            doc["status"]["fsi_rate"] = "ACHIEVABLE-ONLY"
        if self.multi is not None:
            doc["multi_rate"] = _frac_json(self.multi)
            doc["demand"] = self.demand
            doc["num_desired"] = self.num_desired
            doc["status"]["multi_rate"] = "ACHIEVABLE-ONLY"
        if self.msi_bounds is not None:
            lo, hi = self.msi_bounds
            doc["msi_bounds"] = [_frac_json(lo), _frac_json(hi)]
            doc["status"]["msi_bounds"] = "CONJECTURE"
        return doc

    def csv_row(self) -> dict:
        return {
            "class_sizes": "x".join(map(str, self.class_sizes)),
            "side_counts": "x".join(map(str, self.side_counts)),
            "capacity": str(self.capacity),
            "ppir_rate": str(self.ppir),
            "pir_si_rate": str(self.pir_si),
            "regimes": "|".join(sorted(self.regimes)),
        }


def rate_report(
    class_sizes,
    side_counts,
    identified: int | None = None,
    demand: int = 1,
    num_desired: int = 1,
) -> RateReport:
    class_sizes, side_counts = check_instance(class_sizes, side_counts)
    num_classes = len(class_sizes)
    f = sum(class_sizes)
    kappa = sum(side_counts)
    cap = usi_capacity(class_sizes, side_counts)
    report = {
        "class_sizes": class_sizes,
        "side_counts": side_counts,
        "capacity": cap,
        "ppir": ppir_rate(num_classes),
        "pir_si": pir_si_rate(f, kappa),
        "regimes": regime_classify(class_sizes, side_counts),
    }
    if identified is not None:
        report["fsi"] = fsi_rate(num_classes, identified)
        report["identified"] = identified
    if demand != 1 or num_desired != 1:
        report["multi"] = multi_rate(class_sizes, side_counts, demand, num_desired)
        report["demand"] = demand
        report["num_desired"] = num_desired
    return RateReport(**report)
