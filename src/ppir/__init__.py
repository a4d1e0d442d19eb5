"""Single-server pliable private information retrieval with side information.

A library and CLI simulator: exact finite-field arithmetic, systematic MDS
erasure codes, the capacity-achieving retrieval scheme for unidentified
side information plus its identifiable and multi-message variants, exact
rate calculators, a broadcast-with-side-information oracle that verifies
the converse constructively on small instances, and privacy audits.

The public names below load on first use (PEP 562), so `import ppir.rates`
or `ppir capacity` does not pay for the oracle, the audits or the harness.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("PpirError",),
    "fields": ("FiniteField", "make_field"),
    "mds": ("SystematicMdsCode", "make_mds"),
    "model": (
        "DatabaseLayout", "InstanceParams", "MessageStore", "SideInfo", "build_layout",
        "enumerate_side_info_sets", "held_messages", "positional_side_info",
        "random_store", "sample_side_info",
    ),
    "protocol": (
        "Answer", "ClassPayload", "JointPayload", "Query", "RetrievalResult",
        "achieved_rate", "decode_answer", "download_cost", "fsi_answer", "fsi_decode",
        "fsi_query", "usi_answer", "usi_query",
    ),
    "rates": (
        "RateReport", "fsi_rate", "msi_rate_bounds", "multi_rate", "rate_report",
        "regime_classify", "usi_capacity",
    ),
    "picod": (
        "CertificateReport", "EncodingMatrix", "PicodInstance", "all_clients_satisfied",
        "answer_to_encoding_matrix", "broadcast_lower_bound", "broadcast_upper_bound",
        "client_satisfied", "decodable", "instance_from_params",
        "min_code_length_bruteforce", "rank_lower_bound_certificate",
    ),
    "audit": ("AuditVerdict", "MUTANT_SERVERS", "UsiServer", "audit_exact", "audit_statistical"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
