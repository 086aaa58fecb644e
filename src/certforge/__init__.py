"""certforge: certifying logical transformations with skeptical checking.

A transformation maps a proof task to a list of tasks and emits a
certificate; an independent checker replays the certificate to validate
that the resulting tasks' validity implies the initial task's validity.
An exporter renders checked applications as lambda-Pi style proof files.
"""

from .cert import (
    CertError,
    KernelCert,
    SurfaceCert,
    cert_dumps,
    cert_loads,
    elaborate,
    leaves,
)
from .checker import CheckReport, ccheck, check_application
from .core import (
    Ident,
    Term,
    Type,
    TypingError,
    alpha_equal,
    fresh_ident,
    subst_term,
    subst_type,
)
from .lp_export import (
    ExportError,
    emit_module,
    emit_preamble,
    encode_task,
    encode_term,
    proof_term,
)
from .task import Premise, Task, TaskError, gen_chain_task, well_typed
from .transforms import (
    CertifyingTransform,
    TransformError,
    compose_transforms,
    t_assert,
    t_axiom,
    t_blast,
    t_clear,
    t_construct,
    t_destruct,
    t_identity,
    t_induction,
    t_inst_type,
    t_instantiate,
    t_intro,
    t_intro_imp,
    t_rewrite,
    t_split,
    t_split_imp,
    t_swap_neg,
    t_trivial,
    t_unfold_iff,
    transform,
)

__all__ = [
    "CertError",
    "CertifyingTransform",
    "CheckReport",
    "ExportError",
    "Ident",
    "KernelCert",
    "Premise",
    "SurfaceCert",
    "Task",
    "TaskError",
    "Term",
    "TransformError",
    "Type",
    "TypingError",
    "alpha_equal",
    "ccheck",
    "cert_dumps",
    "cert_loads",
    "check_application",
    "compose_transforms",
    "elaborate",
    "emit_module",
    "emit_preamble",
    "encode_task",
    "encode_term",
    "fresh_ident",
    "gen_chain_task",
    "leaves",
    "proof_term",
    "subst_term",
    "subst_type",
    "t_assert",
    "t_axiom",
    "t_blast",
    "t_clear",
    "t_construct",
    "t_destruct",
    "t_identity",
    "t_induction",
    "t_inst_type",
    "t_instantiate",
    "t_intro",
    "t_intro_imp",
    "t_rewrite",
    "t_split",
    "t_split_imp",
    "t_swap_neg",
    "t_trivial",
    "t_unfold_iff",
    "transform",
    "well_typed",
]

__version__ = "0.1.0"
