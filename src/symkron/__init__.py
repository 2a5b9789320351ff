"""symkron: exact symmetric-function series over Q and the Kronecker
identity suite built on them.

Everything is exact rational arithmetic on sparse, degree-truncated series
in the power-sum coordinates; no floating point anywhere.  The sparse
product kernel runs compiled when the extension is built; ``backend_name``
reports which one is active (see symkron._kernels).
"""

from symkron import bases, named
from symkron._kernels import backend_name
from symkron.partitions import Partition, conjugate, partitions_of, z
from symkron.series import (
    BASES,
    BasisError,
    Coefficient,
    SymFunc,
    exp_series,
    log_series,
)
from symkron.bases import (
    CharacterTable,
    character,
    character_table,
    from_p,
    schur_by_gram_schmidt,
    to_p,
)
from symkron.products import (
    UnivariateFactor,
    kron_factor,
    kronecker,
    kronecker_coefficient,
    kronecker_nary,
    plethysm,
    scalar_product,
)
from symkron.named import (
    FactorizedSeries,
    NamedSeries,
    TAGS,
    expand,
    exponent,
    factor,
    factorize,
    kronecker_product_form,
)
from symkron.verify import (
    Discrepancy,
    VerificationReport,
    first_difference,
    run_suite,
    suite_exit_status,
    verify_factor_closed_forms,
    verify_intro_identity,
    verify_support_claims,
    verify_table_entry,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo in the package: the named-series expansions and the
    conversion tables and character memos of ``symkron.bases``.

    Lets a cold computation be measured in-process; results do not depend
    on it.
    """
    named._expand_cached.cache_clear()
    bases.clear_caches()


__all__ = [
    "BASES",
    "BasisError",
    "CharacterTable",
    "Coefficient",
    "Discrepancy",
    "FactorizedSeries",
    "NamedSeries",
    "Partition",
    "SymFunc",
    "TAGS",
    "UnivariateFactor",
    "VerificationReport",
    "backend_name",
    "character",
    "character_table",
    "clear_caches",
    "conjugate",
    "exp_series",
    "expand",
    "exponent",
    "factor",
    "factorize",
    "first_difference",
    "from_p",
    "kron_factor",
    "kronecker",
    "kronecker_coefficient",
    "kronecker_nary",
    "kronecker_product_form",
    "log_series",
    "partitions_of",
    "plethysm",
    "run_suite",
    "scalar_product",
    "schur_by_gram_schmidt",
    "suite_exit_status",
    "to_p",
    "verify_factor_closed_forms",
    "verify_intro_identity",
    "verify_support_claims",
    "verify_table_entry",
    "z",
    "__version__",
]
