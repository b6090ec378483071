"""Federated ADMM and its Bayesian generalization over exponential-family posteriors."""

__version__ = "0.1.0"

from .families import (  # noqa: F401
    DualVec,
    ExpParam,
    Family,
    NatParam,
    dual_axpy,
    dual_inf_norm,
    dual_sum,
    dual_zero,
    kl,
    kl_grad_mu,
    log_partition,
    nat_sub,
    sample,
    to_expectation,
    to_natural,
)
from .losses import (  # noqa: F401
    Delta,
    LinearInT,
    Logistic,
    MomentEstimate,
    MonteCarlo,
    MulticlassLogistic,
    Quadratic,
    Reparam,
    expected_moments,
    loss_grad,
    loss_hess,
    loss_value,
    natural_gradient,
    scale_loss,
)
from .solvers import (  # noqa: F401
    IvonConfig,
    SolveReport,
    SubproblemSpec,
    solve_admm_client,
    solve_conjugate,
    solve_ivon,
    solve_von,
)
from .federation import (  # noqa: F401
    ClientState,
    InnerConfig,
    MethodConfig,
    ServerState,
    init_bayes_states,
    init_point_states,
    run_rounds,
    verify_fixed_point,
)
from .harness import (  # noqa: F401
    Dataset,
    SplitPlan,
    conjugate_oracle,
    gen_blobs,
    gen_outlier_toy,
    gen_ridge,
    load_idx,
    metrics,
    reference_solution,
    split,
)
