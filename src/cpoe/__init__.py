"""Correlated product-of-experts Gaussian process regression.

The model splits the data into ordered local experts, couples them through
distance-ranked predecessor sets of adjustable degree, and represents the
joint prior and posterior over all local inducing values through block-sparse
precision matrices.  Special cases recover the exact GP, global sparse GP
(FITC) and independent product-of-experts aggregations.
"""

from .baselines import (
    FullGp,
    SparseGp,
    fit_local_experts,
    poe_lml,
    poe_predict,
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
    log_marginal_likelihood,
    prior_kl_difference,
    stochastic_lml_term,
)
from .expert_graph import (
    ExpertGraph,
    build_predecessors,
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
    kernel_grad,
    kernel_grad_diag,
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
    LocalPrediction,
    PredictiveGaussian,
    aggregate,
    aggregation_weights,
    local_predict,
    predict,
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


def set_num_threads(n: int | None = None):
    """Cap the BLAS thread pools at ``n``.

    The block-sparse pipeline spends its time in many small dense
    factorizations; oversubscribed multithreaded BLAS is an order of magnitude
    slower there, so the bench harness and tests pin this to ``CPOE_THREADS``
    (default 1).  Returns the applied limit.
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

        _thread_limiter = threadpool_limits(limits=n)
    except ImportError:  # fall back to hoping the env vars were set early
        pass
    return n
