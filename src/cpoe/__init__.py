"""Correlated product-of-experts Gaussian process regression.

The model splits the data into ordered local experts, couples them through
distance-ranked predecessor sets of adjustable degree, and represents the
joint prior and posterior over all local inducing values through block-sparse
precision matrices.  Special cases recover the exact GP, global sparse GP
(FITC) and independent product-of-experts aggregations.
"""

from .baselines import (
    FullGp,
    ProductOfExperts,
    SparseGp,
)
from .block_sparse import (
    BlockCholesky,
    BlockSparseMatrix,
    FactorizationError,
    PartialInverse,
    block_cholesky,
    fill_reducing_permutation,
    partial_inverse,
)
from .cpoe_model import (
    CpoeModel,
    CpoePosterior,
    LocalFactors,
    VariantSpec,
    assemble_posterior,
    assemble_prior_precision,
    build_local_factors,
    lml_gradient,
    prior_kl_difference,
    stochastic_lml_term,
)
from .expert_graph import (
    ExpertGraph,
    correlation_sets,
    kd_partition,
    order_partitions,
    select_inducing,
)
from .kernels import (
    Kernel,
    NoiseSpec,
    Periodic,
    SpectralMixture,
    SquaredExponential,
    SumKernel,
    full_params,
    split_params,
)
from .metrics import (
    MetricReport,
    abse,
    coverage95,
    crps_gaussian,
    evaluate_predictions,
    kl_univariate,
    nlp,
    rmse,
)
from .prediction import (
    aggregation_weights,
    fuse,
)
from .training import (
    Adam,
    FitResult,
    OptimizerConfig,
    PriorSpec,
    fit_deterministic,
    fit_stochastic,
    log_prior,
)

__version__ = "0.1.0"

_thread_limiter = None


def _openblas_set_num_threads(n: int) -> int | None:
    """Set the thread count of every OpenBLAS loaded in this process.

    Each library is found in the process's memory map and called through its
    own ``*_set_num_threads`` entry point.  Returns the largest count the
    libraries report afterwards, or ``None`` if no library answers.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no memory map to read on this platform
        return None
    counts = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(n)
                counts.append(int(getter()))
                break
    return max(counts) if counts else None


def set_num_threads(n: int | None = None):
    """Cap the BLAS thread pools at ``n`` (default: ``CPOE_THREADS``, else 1).

    The block-sparse pipeline spends its time in many small dense
    factorizations; oversubscribed multithreaded BLAS is an order of magnitude
    slower there, so the bench harness and tests pin this to ``CPOE_THREADS``
    (default 1).  Uses ``threadpoolctl`` when it is installed and returns
    ``n``; otherwise sets the limit on each loaded OpenBLAS directly and
    returns the thread count those libraries report afterwards, or ``None``
    if none was found.
    """
    import os

    global _thread_limiter
    if n is None:
        try:
            n = max(int(os.environ.get("CPOE_THREADS", "1")), 1)
        except ValueError:
            n = 1
    os.environ["CPOE_THREADS"] = str(n)
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return _openblas_set_num_threads(n)
    _thread_limiter = threadpool_limits(limits=n)
    return n
