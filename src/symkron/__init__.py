"""symkron: exact symmetric-function series over Q and the Kronecker
identity suite built on them.

Everything is exact rational arithmetic on sparse, degree-truncated series
in the power-sum coordinates; no floating point anywhere.  The package is
pure Python: the kernels in symkron._kernels exist once each, and
``backend_name`` always reports "python".
"""

from symkron import _kernels, bases, named, partitions
from symkron._kernels import backend_name
from symkron.partitions import Partition, conjugate, partitions_of, z
from symkron.series import (
    BASES,
    BasisError,
    SymFunc,
    exp_series,
)
from symkron.bases import (
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
    """Empty every memo in the package: the named-series expansions, the
    partition lists, the memoized ``z``, the kernels' code -> Partition
    tables, the character columns, dense rows and class sizes and the
    change-of-basis tables of ``symkron.bases``, and the oracle's character
    memo.  This is the one list of the memos.

    Lets a cold computation be measured in-process; results do not depend
    on it, and values computed before stay valid.
    """
    for memo in (named._expand_cached, partitions._partitions, partitions._z,
                 _kernels._decoded, bases._column, bases._class_sizes, bases._char_row,
                 bases._hlam_in_p, bases._plam_in_h, bases._p_in_m):
        memo.cache_clear()
    bases._char_cache.clear()


__all__ = [
    "BASES",
    "BasisError",
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
    "kronecker_product_form",
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
