"""Single-server pliable private information retrieval with side information.

A library and CLI simulator: exact finite-field arithmetic, systematic MDS
erasure codes, the capacity-achieving retrieval scheme for unidentified
side information plus its identifiable and multi-message variants, exact
rate calculators, a broadcast-with-side-information oracle that verifies
the converse constructively on small instances, and privacy audits.
"""

from .errors import PpirError
from .fields import FiniteField, make_field
from .mds import SystematicMdsCode, make_mds
from .model import (
    DatabaseLayout,
    InstanceParams,
    MessageStore,
    SideInfo,
    build_layout,
    enumerate_side_info_sets,
    held_messages,
    positional_side_info,
    random_store,
    sample_side_info,
)
from .protocol import (
    Answer,
    ClassPayload,
    JointPayload,
    Query,
    RetrievalResult,
    achieved_rate,
    decode_answer,
    download_cost,
    fsi_answer,
    fsi_decode,
    fsi_query,
    usi_answer,
    usi_query,
)
from .rates import (
    RateReport,
    fsi_rate,
    msi_rate_bounds,
    multi_rate,
    rate_report,
    regime_classify,
    usi_capacity,
)
from .picod import (
    CertificateReport,
    EncodingMatrix,
    PicodInstance,
    all_clients_satisfied,
    answer_to_encoding_matrix,
    broadcast_lower_bound,
    broadcast_upper_bound,
    client_satisfied,
    decodable,
    instance_from_params,
    min_code_length_bruteforce,
    rank_lower_bound_certificate,
)
from .audit import (
    AuditVerdict,
    MUTANT_SERVERS,
    UsiServer,
    audit_exact,
    audit_statistical,
)

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "AuditVerdict",
    "CertificateReport",
    "ClassPayload",
    "DatabaseLayout",
    "EncodingMatrix",
    "FiniteField",
    "InstanceParams",
    "JointPayload",
    "MessageStore",
    "MUTANT_SERVERS",
    "PicodInstance",
    "PpirError",
    "Query",
    "RateReport",
    "RetrievalResult",
    "SideInfo",
    "SystematicMdsCode",
    "UsiServer",
    "achieved_rate",
    "all_clients_satisfied",
    "answer_to_encoding_matrix",
    "audit_exact",
    "audit_statistical",
    "broadcast_lower_bound",
    "broadcast_upper_bound",
    "build_layout",
    "client_satisfied",
    "decodable",
    "decode_answer",
    "download_cost",
    "enumerate_side_info_sets",
    "fsi_answer",
    "fsi_decode",
    "fsi_query",
    "fsi_rate",
    "held_messages",
    "instance_from_params",
    "make_field",
    "make_mds",
    "min_code_length_bruteforce",
    "msi_rate_bounds",
    "multi_rate",
    "positional_side_info",
    "random_store",
    "rank_lower_bound_certificate",
    "rate_report",
    "regime_classify",
    "sample_side_info",
    "usi_answer",
    "usi_capacity",
    "usi_query",
]
