"""Mutation checks: each seeded defect must make its named tests fail.

Run from anywhere, with only the standard library and the test dependencies::

    python3 checks/mutants.py

The script copies the checkout (without ``.git``) to a temporary directory
and first runs every selection there unchanged, which must pass.  Then, for
each mutant, it replaces one exact text in one file of the copy, runs that
mutant's pytest selection against the copy's ``src/`` and restores the file.
A mutant is killed when pytest reports failing tests (exit code 1); any
other outcome, a pass or an error such as an unknown test id, leaves it
alive.  An anchor text that is missing, or not unique, is an error before
anything runs, so a refactor that moves the code must move the mutant too.
Exit 0 when every mutant is killed, 1 when one survives, 2 on a bad entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant(
        "chol_spd retries once with jitter",
        "src/bayesadmm/families.py",
        """    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NonPositivePrecision("matrix is not positive definite") from exc
""",
        """    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(mat + 1e-10 * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NonPositivePrecision("matrix is not positive definite") from exc
""",
        ("tests/test_families.py::test_a_singular_precision_is_rejected_after_one_factorization",),
    ),
    Mutant(
        "to_expectation drops its finite-covariance check",
        "src/bayesadmm/families.py",
        """    if not in_cone:
        raise DegenerateMoment("implied covariance is not finite and positive")
""",
        "",
        ("tests/test_families.py::test_to_expectation_rejects_a_covariance_that_overflows",),
    ),
    Mutant(
        "to_expectation factors its covariance again",
        "src/bayesadmm/families.py",
        """        in_cone = np.isfinite(cov).all()
""",
        """        in_cone = np.isfinite(cov).all()
        chol_spd(cov)
""",
        ("tests/test_families.py::test_dual_maps_reuse_the_factor_and_match_refactoring",),
    ),
    Mutant(
        "to_expectation inverts the precision from scratch",
        "src/bayesadmm/families.py",
        """        cov = _chol_inverse(lam._chol)
        m2 = np.outer(lam.m, lam.m) + cov
""",
        """        cov = _chol_inverse(chol_spd(lam.prec))
        m2 = np.outer(lam.m, lam.m) + cov
""",
        ("tests/test_families.py::test_dual_maps_reuse_the_factor_and_match_refactoring",),
    ),
    Mutant(
        "a package error in a metric or the verifier is re-raised",
        "src/bayesadmm/federation.py",
        """                except Exception as exc:
                    return phase, exc
""",
        """                except Exception as exc:
                    if type(exc).__module__ == "bayesadmm.errors":
                        raise
                    return phase, exc
""",
        ("tests/test_cli.py::test_run_keeps_its_record_when_verify_raises_a_package_error",),
    ),
    Mutant(
        "the quadratic gradient takes thetas @ A, not the bits of A @ m",
        "src/bayesadmm/losses.py",
        "        return thetas @ loss.A.T + loss.b\n",
        "        return thetas @ loss.A + loss.b\n",
        ("tests/test_losses.py::test_t_linear_moments_are_the_closed_forms_bit_for_bit",),
    ),
    Mutant(
        "a raising kl becomes a NaN metric",
        "src/bayesadmm/harness.py",
        """            out["kl_to_oracle"] = kl_div(lam_g, oracle.lam)
""",
        """            try:
                out["kl_to_oracle"] = kl_div(lam_g, oracle.lam)
            except Exception:
                out["kl_to_oracle"] = float("nan")
""",
        ("tests/test_cli.py::test_run_reports_a_raising_kl_as_a_metrics_failure",),
    ),
    Mutant(
        "a full precision may hold inf",
        "src/bayesadmm/families.py",
        """            if not np.isfinite(prec).all():
                raise NonPositivePrecision("full precision has non-finite entries")
""",
        "",
        ("tests/test_families.py::test_natparam_rejects_a_non_finite_precision",
         "tests/test_cli.py::test_verify_rejects_a_checkpoint_with_an_infinite_precision"),
    ),
    Mutant(
        "a diag precision may hold inf",
        "src/bayesadmm/families.py",
        "            if not np.all((prec > 0.0) & (prec < np.inf)):\n",
        "            if not np.all(prec > 0.0):\n",
        ("tests/test_families.py::test_natparam_rejects_a_non_finite_precision",),
    ),
    Mutant(
        "the multiclass Hessian drops its transpose",
        "src/bayesadmm/losses.py",
        "    return hess.transpose(0, 1, 3, 2, 4).reshape(k, c * d, c * d)\n",
        "    return hess.reshape(k, c * d, c * d)\n",
        ("tests/test_losses.py::test_multiclass_hessian_matches_einsum",),
    ),
    Mutant(
        "the last partial chunk of draws is dropped",
        "src/bayesadmm/losses.py",
        "for i in range(0, thetas.shape[-2], DRAW_CHUNK))\n",
        "for i in range(0, thetas.shape[-2] - DRAW_CHUNK + 1, DRAW_CHUNK))\n",
        ("tests/test_losses.py::test_batched_monte_carlo_matches_per_draw_loop",
         "tests/test_harness.py::test_batched_posterior_average_matches_per_draw_loop"),
    ),
    Mutant(
        "from_dual factors the precision a second time",
        "src/bayesadmm/families.py",
        "    return _chol_solve_rows(low, b1), prec, low\n",
        "    return _chol_solve_rows(low, b1), prec, np.linalg.cholesky(prec)\n",
        ("tests/test_families.py::test_full_from_dual_factors_once_and_matches_two_factor_path",),
    ),
    Mutant(
        "the multiclass weight diagonal is scaled by 1.000001",
        "src/bayesadmm/losses.py",
        "    weights.reshape(k, c * c, n)[:, :: c + 1] += probs.sum(axis=1)\n",
        "    weights.reshape(k, c * c, n)[:, :: c + 1] += 1.000001 * probs.sum(axis=1)\n",
        ("tests/test_losses.py::test_multiclass_hessian_matches_einsum",),
    ),
    Mutant(
        "a fixed Family's from_dual factors its precision again",
        "src/bayesadmm/families.py",
        "np.broadcast_to(fam._chol, ",
        "np.broadcast_to(chol_spd(fam.fixed_precision), ",
        ("tests/test_families.py::test_a_fixed_family_factors_its_precision_once",),
    ),
    Mutant(
        "the layout check skips the second block's shape",
        "src/bayesadmm/families.py",
        """    if b2.shape != shape:
        raise FamilyMismatch(f"second block shape {b2.shape} != {shape}")
""",
        "",
        ("tests/test_families.py::test_a_block_off_the_family_layout_is_a_family_mismatch",),
    ),
    Mutant(
        "DualVec rejects an asymmetric block like a precision",
        "src/bayesadmm/families.py",
        "_blocks(self.fam, self.b1, self.b2, tol=None)",
        "_blocks(self.fam, self.b1, self.b2, tol=1e-8)",
        ("tests/test_families.py::test_symmetric_shortcut_equals_the_average_bit_for_bit",),
    ),
    Mutant(
        "the checkpoint keys of diag and full precisions are swapped",
        "src/bayesadmm/families.py",
        '_JSON_KEYS = {DIAG: ("s", "u"), FULL: ("S", "V")}',
        '_JSON_KEYS = {DIAG: ("S", "u"), FULL: ("s", "V")}',
        ("tests/test_families.py::test_checkpoint_codec_keeps_its_keys_and_bits",),
    ),
    Mutant(
        "the symmetry shortcut compares values, not bits",
        "src/bayesadmm/families.py",
        "    bits = mat.view(np.uint64)\n",
        "    bits = mat\n",
        ("tests/test_families.py::test_symmetric_shortcut_equals_the_average_bit_for_bit",),
    ),
    Mutant(
        "the public constructors keep a read-only input instead of copying it",
        "src/bayesadmm/families.py",
        """    out = np.array(a, dtype=dtype)
""",
        """    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        return a
    out = np.array(a, dtype=dtype)
""",
        ("tests/test_families.py::test_constructors_do_not_share_the_callers_arrays",),
    ),
    Mutant(
        "_wrap does not freeze its arrays",
        "src/bayesadmm/families.py",
        """    for a in arrays:
        if a is not None:
            a.setflags(write=False)
""",
        "",
        ("tests/test_families.py::test_private_results_equal_the_public_constructors_bit_for_bit",),
    ),
    Mutant(
        "the symmetry shortcut returns an F-ordered block as it is",
        "src/bayesadmm/families.py",
        """    if _exactly_symmetric(mat):
        return np.ascontiguousarray(mat)
    if tol is not None:""",
        """    if _exactly_symmetric(mat):
        return mat
    if tol is not None:""",
        ("tests/test_families.py::test_symmetric_shortcut_equals_the_average_bit_for_bit",),
    ),
    Mutant(
        "the triangular solve drops its finite check",
        "src/bayesadmm/families.py",
        """    _require_finite(a)
    return _trtrs(a, b, lower)
""",
        """    return _trtrs(a, b, lower)
""",
        ("tests/test_families.py::test_triangular_solve_keeps_scipys_errors",),
    ),
    Mutant(
        "_chol_solve does not check its factor",
        "src/bayesadmm/families.py",
        """    _require_finite(low)
    half = _trtrs(low, rhs, lower=True)
""",
        """    half = _trtrs(low, rhs, lower=True)
""",
        ("tests/test_families.py::test_chol_solve_keeps_the_two_triangular_solves_errors",),
    ),
    Mutant(
        "the transposed triangular solve passes the wrong trans",
        "src/bayesadmm/families.py",
        "        a, lower, trans = np.ascontiguousarray(a, dtype=float).T, not lower, b\"T\"\n",
        "        a, lower, trans = np.ascontiguousarray(a, dtype=float).T, not lower, b\"N\"\n",
        ("tests/test_families.py::test_triangular_solve_matches_scipy_bit_for_bit",),
    ),
    Mutant(
        "to_natural inverts m2 - m m^T, full",
        "src/bayesadmm/families.py",
        "_chol_inverse(chol_spd(mu._cov))",
        "_chol_inverse(chol_spd(mu.m2 - np.outer(mu.m, mu.m)))",
        ("tests/test_families.py::test_dual_maps_do_not_cancel_a_large_mean",),
    ),
    Mutant(
        "to_natural inverts m2 - m m^T, diag",
        "src/bayesadmm/families.py",
        "1.0 / mu._cov if kind == DIAG",
        "1.0 / (mu.m2 - mu.m * mu.m) if kind == DIAG",
        ("tests/test_families.py::test_dual_maps_do_not_cancel_a_large_mean",),
    ),
    Mutant(
        "_chol_inverse does not mirror its triangle",
        "src/bayesadmm/families.py",
        "    out[upper] = out.T[upper]\n",
        "",
        ("tests/test_families.py::test_chol_inverse_is_symmetric_and_within_the_inverse_error_bound",),
    ),
    Mutant(
        "_chol_inverse mirrors its upper triangle onto the lower one",
        "src/bayesadmm/families.py",
        "    out[upper] = out.T[upper]\n",
        "    out.T[upper] = out[upper]\n",
        ("tests/test_families.py::test_chol_inverse_equals_the_two_tril_mirror_bit_for_bit",),
    ),
    Mutant(
        "_chol_inverse keeps dpotri's negative zeros",
        "src/bayesadmm/families.py",
        "    out += 0.0\n",
        "",
        ("tests/test_families.py::test_dpotri_leaves_negative_zeros_that_the_mirror_clears",),
    ),
    Mutant(
        "dpotri is told the wrong triangle",
        "src/bayesadmm/families.py",
        "    potri(b\"U\", ctypes.c_int(n), out.ctypes.data, size, info, 1)\n",
        "    potri(b\"L\", ctypes.c_int(n), out.ctypes.data, size, info, 1)\n",
        ("tests/test_families.py::test_chol_inverse_is_symmetric_and_within_the_inverse_error_bound",),
    ),
    Mutant(
        "the compensated sum drops carry -= y",
        "src/bayesadmm/families.py",
        "        self.carry -= self._y\n",
        "",
        ("tests/test_families.py::test_dual_sum_equals_the_four_temporary_loop_bit_for_bit",),
    ),
    Mutant(
        "dual_scale drops its + 0.0",
        "src/bayesadmm/families.py",
        "        return _wrap(DualVec, x.fam, _axpy(a, x.b1, 0.0), _axpy(a, x.b2, 0.0))\n",
        "        return _wrap(DualVec, x.fam, a * x.b1, a * x.b2)\n",
        ("tests/test_families.py::test_dual_axpy_and_dual_scale_equal_their_expressions_bit_for_bit",),
    ),
    Mutant(
        "a delta-method logistic natural gradient wraps its full Hessian",
        "src/bayesadmm/losses.py",
        "    return _natural_rows(kind, g, h, m, True)\n",
        "    return _natural_rows(kind, g, h, m, False)\n",
        ("tests/test_losses.py::test_logistic_natural_gradient_is_exactly_symmetric",),
    ),
    Mutant(
        "a sampled logistic natural gradient wraps its full Hessian",
        "src/bayesadmm/losses.py",
        "            logistic = not isinstance(self.losses[i], (Quadratic, LinearInT))\n",
        "            logistic = not isinstance(self.losses[i], (Quadratic, LinearInT, Logistic))\n",
        ("tests/test_losses.py::test_logistic_natural_gradient_equals_the_public_constructor_bit_for_bit",),
    ),
    Mutant(
        "the wrapped logistic gradient skips _symmetrize",
        "src/bayesadmm/losses.py",
        "            half[k] = _symmetrize(half[k], None)\n",
        "            half[k] = np.ascontiguousarray(half[k])\n",
        ("tests/test_losses.py::test_logistic_natural_gradient_equals_the_public_constructor_bit_for_bit",),
    ),
    Mutant(
        "a VON update steps from the server's coordinates, not the iterate's",
        "src/bayesadmm/solvers.py",
        "        grad, coords = _take(grad, keep), _take(self.coords, keep)\n",
        "        grad, coords = _take(grad, keep), _take(self.server, keep)\n",
        ("tests/test_solvers.py::test_von_equals_the_loop_that_maps_every_coordinate_bit_for_bit",),
    ),
    Mutant(
        "a round maps the server once per client",
        "src/bayesadmm/federation.py",
        "_lam_g_dual=lam_g_dual) for i in von]\n",
        ") for i in von]\n",
        ("tests/test_federation.py::test_a_round_maps_the_server_to_coordinates_once",),
    ),
    Mutant(
        "the kept outer products are built from one factor of x",
        "src/bayesadmm/losses.py",
        "        outer = (loss.X[:, :, None] * loss.X[:, None, :]).reshape(n, d * d)\n",
        "        outer = (loss.X[:, :, None] * np.ones_like(loss.X)[:, None, :]).reshape(n, d * d)\n",
        ("tests/test_losses.py::test_multiclass_hessian_matches_einsum",),
    ),
    Mutant(
        "the one-draw skip is taken at more than one draw",
        "src/bayesadmm/losses.py",
        "        if count == 1:\n",
        "        if count >= 1:\n",
        ("tests/test_losses.py::test_mean_moments_equal_the_accumulated_average_bit_for_bit",),
    ),
    Mutant(
        "the multiclass weights negate, leaving -0.0",
        "src/bayesadmm/losses.py",
        "    np.subtract(0.0, weights, out=weights)\n",
        "    np.negative(weights, out=weights)\n",
        ("tests/test_losses.py::test_mean_moments_equal_the_accumulated_average_bit_for_bit",),
    ),
    Mutant(
        "a fixed family skips the shape check of its precision",
        "src/bayesadmm/families.py",
        """            if prec.shape != (self.dim, self.dim):
                raise FamilyMismatch(f"fixed precision shape {prec.shape} != {(self.dim, self.dim)}")
""",
        "",
        ("tests/test_families.py::test_a_fixed_precision_off_the_layout_is_a_family_mismatch",),
    ),
    Mutant(
        "a fixed family skips the finite check of its precision",
        "src/bayesadmm/families.py",
        """            if not np.isfinite(prec).all():
                raise NonPositivePrecision("fixed precision has non-finite entries")
""",
        "",
        ("tests/test_families.py::test_a_fixed_precision_must_be_finite",),
    ),
    Mutant(
        "verify skips the config-hash comparison",
        "src/bayesadmm/cli.py",
        "    if not isinstance(conf, dict) or _config_hash(conf) != data.get(\"config_hash\"):\n",
        "    if not isinstance(conf, dict):\n",
        ("tests/test_cli.py::test_verify_rejects_a_truncated_config",),
    ),
    Mutant(
        "the checkpoint's client-id check is reduced to a count check",
        "src/bayesadmm/federation.py",
        "    if ids != list(range(len(clients))):\n",
        "    if len(ids) != len(clients):\n",
        ("tests/test_cli.py::test_verify_rejects_client_records_that_do_not_match",),
    ),
    Mutant(
        "run leaves the config out of the checkpoint",
        "src/bayesadmm/cli.py",
        "    checkpoint.update(config=conf, config_hash=config_hash, data_sha256=data_sha256)\n",
        "    checkpoint.update(config_hash=config_hash, data_sha256=data_sha256)\n",
        ("tests/test_cli.py::test_verify_rebuilds_the_run_residuals",),
    ),
    Mutant(
        "a config key is dropped from the module docstring",
        "src/bayesadmm/cli.py",
        "    [experiment] method family rounds seed workers tol_dist delta_method\n",
        "    [experiment] method family rounds seed workers tol_dist\n",
        ("tests/test_cli.py::test_module_docstring_lists_every_config_key",),
    ),
    Mutant(
        "an empty config value takes the key's default",
        "src/bayesadmm/cli.py",
        """    if raw == "":
        raise ConfigError(f"{where}: empty value; leave the key out to take its default")
""",
        """    if raw == "":
        raw = entry.default
""",
        ("tests/test_cli.py::test_bad_config_name_or_empty_value_rejected",),
    ),
    Mutant(
        "sweep grid entries are read as plain floats",
        "src/bayesadmm/cli.py",
        "                _value(item, x, \"sweep\") for x in raw.split(\",\")]\n",
        "                float(x) for x in raw.split(\",\")]\n",
        ("tests/test_cli.py::test_sweep_grid_entries_are_checked_before_any_cell",),
    ),
    Mutant(
        "config values skip the table's checks",
        "src/bayesadmm/cli.py",
        "    if entry.check is not None and not entry.check[0](value):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_nonpositive_config_value_rejected",),
    ),
    Mutant(
        "workers accepts 2 again",
        "src/bayesadmm/cli.py",
        "(lambda v: v == 1, ",
        "(lambda v: v in (1, 2), ",
        ("tests/test_cli.py::test_workers_other_than_one_is_a_config_error_naming_the_removed_pool",),
    ),
    Mutant(
        "a checkpoint's client lam is not loaded",
        "src/bayesadmm/federation.py",
        "            client.lam = nat_from_jsonable(fam, rec[\"lam\"], xor=server.lam_g)\n",
        "",
        ("tests/test_federation.py::test_checkpoint_roundtrip",
         "tests/test_cli.py::test_verify_rebuilds_the_run_residuals"),
    ),
    Mutant(
        "a stored triangle is not mirrored on load",
        "src/bayesadmm/families.py",
        "    out[cols, rows] = flat\n",
        "",
        ("tests/test_families.py::test_triangle_codec_stores_the_upper_triangle_row_by_row_and_mirrors_it",
         "tests/test_cli.py::test_a_runs_full_blocks_are_symmetric_and_survive_the_checkpoint_bit_for_bit"
         "[ridge-von-delta]"),
    ),
    Mutant(
        "the writer stores the lower triangle row by row",
        "src/bayesadmm/families.py",
        "        cut = _upper_indices(a.shape[0])\n",
        "        cut = np.tril_indices(a.shape[0])\n",
        ("tests/test_families.py::test_triangle_codec_stores_the_upper_triangle_row_by_row_and_mirrors_it",
         "tests/test_cli.py::test_a_runs_full_blocks_are_symmetric_and_survive_the_checkpoint_bit_for_bit"
         "[ridge-conjugate]"),
    ),
    Mutant(
        "a triangle's byte count check accepts the full square",
        "src/bayesadmm/families.py",
        """    if len(raw) != 8 * count:
        what = "array" if triangle is None else "upper triangle"
        raise ValueError(f"{what} of shape {shape} needs {8 * count} bytes, got {len(raw)}")
    cut = ... if triangle is None else _upper_indices(shape[0])
    flat = np.frombuffer(raw, dtype="<u8")
    if xor is not None:
        flat = flat ^ np.asarray(xor, dtype="<f8")[cut].ravel().view("<u8")
    flat = flat.view("<f8").astype(float)
    if triangle is None:
""",
        """    if len(raw) not in (8 * count, 8 * math.prod(shape)):
        what = "array" if triangle is None else "upper triangle"
        raise ValueError(f"{what} of shape {shape} needs {8 * count} bytes, got {len(raw)}")
    cut = ... if triangle is None or len(raw) != 8 * count else _upper_indices(shape[0])
    flat = np.frombuffer(raw, dtype="<u8")
    if xor is not None:
        flat = flat ^ np.asarray(xor, dtype="<f8")[cut].ravel().view("<u8")
    flat = flat.view("<f8").astype(float)
    if triangle is None or len(flat) != count:
""",
        ("tests/test_families.py::test_triangle_codec_rejects_what_it_did_not_write[full-square]",
         "tests/test_cli.py::test_verify_rejects_a_full_block_that_is_not_its_upper_triangle"
         "[lam_g-S-format-2-square-with-marker]"),
    ),
    Mutant(
        "run and sweep record no fixed-point residuals",
        "src/bayesadmm/cli.py",
        "        verify_fn=_residuals if setup.server.lam_g is not None else None,\n",
        "        verify_fn=None,\n",
        ("tests/test_cli.py::test_verify_rebuilds_the_run_residuals",),
    ),
    Mutant(
        "a round ignores a report that says its solve did not converge",
        "src/bayesadmm/federation.py",
        "all(r is None or r.converged is not False for _, r in results)",
        "all(r is None or r.converged is not False or True for _, r in results)",
        ("tests/test_federation.py::test_inner_converged_is_false_only_when_a_solve_reports_so",
         "tests/test_cli.py::test_full_logreg_workload_seed_28_escapes_in_round_1"),
    ),
    Mutant(
        "a round reads IVON's missing convergence claim as not converged",
        "src/bayesadmm/federation.py",
        "all(r is None or r.converged is not False for _, r in results)",
        "all(r is None or bool(r.converged) for _, r in results)",
        ("tests/test_federation.py::test_inner_converged_is_false_only_when_a_solve_reports_so",),
    ),
    Mutant(
        "VON does not count a step-halving",
        "src/bayesadmm/solvers.py",
        "                halvings[k] += halved\n",
        "",
        ("tests/test_solvers.py::test_von_equals_the_loop_that_maps_every_coordinate_bit_for_bit",),
    ),
    Mutant(
        "resolve_estimator lets analytic through for a logistic loss",
        "src/bayesadmm/federation.py",
        """    if name == "analytic" and not isinstance(loss, (Quadratic, LinearInT)):
        raise EstimatorUnsupported(f"Analytic moments unavailable for {type(loss).__name__}")
""",
        "",
        ("tests/test_losses.py::test_analytic_unsupported_for_logistic",
         "tests/test_cli.py::test_analytic_estimator_refuses_a_logistic_loss"),
    ),
    Mutant(
        "the delta method keeps a sampling estimator",
        "src/bayesadmm/federation.py",
        "    if delta_method or name not in (\"mc\", \"reparam\"):\n",
        "    if name not in (\"mc\", \"reparam\"):\n",
        ("tests/test_cli.py::test_a_diag_reparam_run_is_seeded_and_the_delta_method_replaces_it",),
    ),
    Mutant(
        "a converged client keeps stepping in the lockstep",
        "src/bayesadmm/solvers.py",
        "        keep = [j for j, gnorm in enumerate(gnorms) if not (gnorm <= tol or taken == steps)]\n",
        "        keep = [j for j, gnorm in enumerate(gnorms) if taken < steps]\n",
        ("tests/test_solvers.py::test_a_client_halving_alone_in_a_stack_changes_no_other_client",),
    ),
    Mutant(
        "one failing factorization halves every client's step",
        "src/bayesadmm/solvers.py",
        "                parts.append((rows, *stack.take(rows).step(beta, tol, taken, steps)))\n",
        "                parts.append((rows, *stack.take(rows).step(beta if rows is groups[0] else 0.5 * beta, tol,\n"
        "                                                           taken, steps)))\n",
        ("tests/test_solvers.py::test_a_client_halving_alone_in_a_stack_changes_no_other_client",),
    ),
    Mutant(
        "the first failure in time is raised, not the lowest client id's",
        "src/bayesadmm/solvers.py",
        "                    outcomes[stack.ids[rows[0]]] = exc\n                    break\n",
        "                    raise exc\n",
        ("tests/test_solvers.py::test_the_lowest_failing_client_id_is_raised_even_when_a_later_one_fails_first",),
    ),
    Mutant(
        "the stacked diagonal add misses the diagonal",
        "src/bayesadmm/losses.py",
        "    weights.reshape(k, c * c, n)[:, :: c + 1] += probs.sum(axis=1)\n",
        "    weights.reshape(k, c * c, n)[:, :: c] += probs.sum(axis=1)\n",
        ("tests/test_losses.py::test_multiclass_hessian_matches_einsum",
         "tests/test_solvers.py::test_lockstep_solves_equal_lone_solves_bit_for_bit"),
    ),
    Mutant(
        "a loss of any size joins a stack",
        "src/bayesadmm/losses.py",
        " if loss.X.size <= STACK_MAX else i, []).append(i)\n",
        ", []).append(i)\n",
        ("tests/test_losses.py::test_natural_gradients_stack_small_losses_and_leave_large_ones_alone",),
    ),
    Mutant(
        "decoding a client block skips the XOR",
        "src/bayesadmm/families.py",
        "        flat = flat ^ np.asarray(xor, dtype=\"<f8\")[cut].ravel().view(\"<u8\")\n",
        "        flat = flat.copy()\n",
        ("tests/test_families.py::test_xor_codec_round_trips_a_client_block_bit_for_bit[full-every-word]",),
    ),
    Mutant(
        "decoding a client's precision XORs against the server's mean",
        "src/bayesadmm/families.py",
        "_block_from_jsonable(fam, data, key, None if xor is None else xor.prec)",
        "_block_from_jsonable(fam, data, key, None if xor is None else xor.m)",
        ("tests/test_families.py::test_xor_codec_round_trips_a_client_block_bit_for_bit[diag-every-word]",),
    ),
    Mutant(
        "the decoded byte count is not checked",
        "src/bayesadmm/families.py",
        """    if len(raw) != 8 * count:
        what = "array" if triangle is None else "upper triangle"
        raise ValueError(f"{what} of shape {shape} needs {8 * count} bytes, got {len(raw)}")
""",
        "",
        ("tests/test_families.py::test_xor_codec_rejects_a_bad_stream_or_length[short]",),
    ),
    Mutant(
        "a loaded checkpoint sets eta0 to dual_zero",
        "src/bayesadmm/federation.py",
        "            server.lam_g = nat_from_jsonable(fam, data[\"lam_g\"])\n",
        "            server.lam_g = nat_from_jsonable(fam, data[\"lam_g\"])\n"
        "            server.eta0 = dual_zero(fam)\n",
        ("tests/test_federation.py::test_checkpoint_roundtrip",
         "tests/test_cli.py::test_verify_rebuilds_the_run_residuals[ridge]"),
    ),
    Mutant(
        "checkpoint_from_jsonable accepts any rounds_completed",
        "src/bayesadmm/federation.py",
        "    if type(done) is not int or done < 0:\n",
        "    if done is None:\n",
        ("tests/test_federation.py::test_a_checkpoints_rounds_completed_must_be_a_count",),
    ),
    Mutant(
        "an engine's error propagates out of run_rounds",
        "src/bayesadmm/federation.py",
        """            if ended is not None:
                failure = event("failure", type(ended).__name__, str(ended), rnd, phase="round")
                return stop(failure, first_event is not None, ended)
""",
        """            if ended is not None:
                raise ended
""",
        ("tests/test_cli.py::test_run_keeps_its_record_when_an_engine_raises",),
    ),
    Mutant(
        "the checkpoint counts a round whose metric failed as not committed",
        "src/bayesadmm/cli.py",
        "result.rounds_committed)",
        "result.rounds_completed)",
        ("tests/test_cli.py::test_run_streams_the_trace_before_a_failing_metric",),
    ),
    Mutant(
        "a conjugate solver on classification data fails only in round 0",
        "src/bayesadmm/cli.py",
        """        if inner.solver == "conjugate":
            raise ConfigError(f"[inner] solver: conjugate needs a loss linear in T, and {name} is not")
""",
        "",
        ("tests/test_cli.py::test_a_conjugate_solver_on_classification_data_is_a_config_error_before_any_output",),
    ),
    Mutant(
        "the solver picker sends a quadratic the diag family cannot represent to the conjugate solve",
        "src/bayesadmm/federation.py",
        "    if in_conjugate_form(loss, fam):\n",
        "    if isinstance(loss, Quadratic) or in_conjugate_form(loss, fam):\n",
        ("tests/test_federation.py::test_lockstep_rounds_equal_client_by_client_rounds_bit_for_bit"
         "[bayes_admm-1-0.0-diag-ridge]",),
    ),
    Mutant(
        "auto sends an isotropic quadratic to VON",
        "src/bayesadmm/federation.py",
        "(cfg.delta_method or isinstance(loss, Quadratic))",
        "cfg.delta_method",
        ("tests/test_cli.py::test_auto_solves_isotropic_quadratics_by_the_proximal_step",),
    ),
    Mutant(
        "a pooled round takes its outcomes in the order the workers finish",
        "src/bayesadmm/federation.py",
        "                    outcomes[k] = pickle.load(results)\n",
        "                    outcomes[outcomes.index(None)] = pickle.load(results)\n",
        ("tests/test_workers.py::test_a_pooled_round_raises_its_lowest_failing_clients_error",),
    ),
    Mutant(
        "run_rounds reaps its workers only when its last round ends",
        "src/bayesadmm/federation.py",
        """        return RunResult(records, first_event is not None, first_event, server, clients)
    finally:
        if pending is not None:
            pending[1].join()
        pool.close()
""",
        """        pool.close()
        return RunResult(records, first_event is not None, first_event, server, clients)
    finally:
        if pending is not None:
            pending[1].join()
""",
        ("tests/test_workers.py::test_run_rounds_reaps_its_workers_on_every_way_out",),
    ),
    Mutant(
        "a worker keeps the write end of its own task pipe",
        "src/bayesadmm/federation.py",
        "                    ends = [task_w, result_r, ",
        "                    ends = [result_r, ",
        ("tests/test_workers.py::test_no_worker_outlives_a_killed_run",),
    ),
    Mutant(
        "a stack of more than one client halves its step instead of splitting",
        "src/bayesadmm/solvers.py",
        "                if len(self.ids) > 1:\n                    raise\n",
        "",
        ("tests/test_solvers.py::test_a_client_halving_alone_in_a_stack_changes_no_other_client",),
    ),
    Mutant(
        "a delta-method logistic natural gradient on a fixed-covariance family builds the Hessian",
        "src/bayesadmm/losses.py",
        "    if kind in (ISOTROPIC, FIXED):\n        return _prob_grads(rows, _probs(rows, m[:, None]))[:, 0], None\n",
        "",
        ("tests/test_losses.py::test_a_large_loss_on_a_fixed_covariance_family_builds_no_hessian",),
    ),
    Mutant(
        "a logistic loss above STACK_MAX goes alone through its expected moments",
        "src/bayesadmm/losses.py",
        "isinstance(loss, (Logistic, MulticlassLogistic)) and loss.dim == fam.dim:\n",
        "isinstance(loss, (Logistic, MulticlassLogistic)) and loss.dim == fam.dim \\\n"
        "                    and loss.X.size <= STACK_MAX:\n",
        ("tests/test_losses.py::test_a_large_loss_on_a_fixed_covariance_family_builds_no_hessian",),
    ),
    Mutant(
        "a failed check keeps the next round's state",
        "src/bayesadmm/federation.py",
        "        if phase is not None:\n            restore(*committed)\n",
        "        if phase is not None:\n",
        ("tests/test_overlap.py::test_a_failing_metric_ends_the_run_at_its_round_with_that_rounds_states",),
    ),
    Mutant(
        "a round's checks settle after the next round's event",
        "src/bayesadmm/federation.py",
        """            if pending is not None:
                (done, helper, committed), pending = pending, None
                if (result := settle(done, helper.result, committed)) is not None:
                    return result
            if isinstance(ended, (ResultNotInFamily, NonFiniteUpdate, PrecisionEscape)):
                return stop(event("divergence", type(ended).__name__, str(ended), rnd), True)
""",
        """            if isinstance(ended, (ResultNotInFamily, NonFiniteUpdate, PrecisionEscape)):
                return stop(event("divergence", type(ended).__name__, str(ended), rnd), True)
            if pending is not None:
                (done, helper, committed), pending = pending, None
                if (result := settle(done, helper.result, committed)) is not None:
                    return result
""",
        ("tests/test_overlap.py::test_a_divergence_after_a_non_finite_metric_is_preceded_by_it",),
    ),
    Mutant(
        "rounds that solve by VON in lockstep check beside the next",
        "src/bayesadmm/federation.py",
        "    return any(pick_solver(cfg.inner, cfg, scale_loss(c.loss, server.tau), server.fam) == \"von\" for c in clients)\n",
        "    return False\n",
        ("tests/test_overlap.py::test_only_rounds_outside_the_lockstep_check_beside_the_next",),
    ),
    Mutant(
        "a round's checks run at numpy's default error state",
        "src/bayesadmm/federation.py",
        "        with np.errstate(all=\"ignore\"):  # its own",
        "        if True:  # its own",
        ("tests/test_overlap.py::test_outputs_do_not_depend_on_the_cpu_count[IVON_BLOWUP]",),
    ),
    Mutant(
        "a round's engine runs at numpy's default error state",
        "src/bayesadmm/federation.py",
        "                with np.errstate(all=\"ignore\"):\n                    info, ended",
        "                if True:\n                    info, ended",
        ("tests/test_overlap.py::test_a_pooled_solves_warnings_show_as_they_do_in_process",),
    ),
    Mutant(
        "run_rounds does not wait for its last checks on the way out",
        "src/bayesadmm/federation.py",
        "        if pending is not None:\n            pending[1].join()\n",
        "",
        ("tests/test_overlap.py::test_an_interrupted_engine_leaves_the_round_before_it_in_the_trace",),
    ),
    Mutant(
        "a run forks its workers while another thread runs",
        "src/bayesadmm/federation.py",
        "        size = min(_usable_cpus(), count) if threading.active_count() == 1 else 0\n",
        "        size = min(_usable_cpus(), count)\n",
        ("tests/test_workers.py::test_a_run_forks_only_while_it_has_one_thread",),
    ),
    Mutant(
        "a task sent to a worker that has ended raises a bare BrokenPipeError",
        "src/bayesadmm/federation.py",
        "                    raise worker.ended() from None\n                busy[worker.results] = worker, k\n",
        "                    raise\n                busy[worker.results] = worker, k\n",
        ("tests/test_workers.py::test_a_worker_that_dies_fails_the_run_instead_of_hanging[between rounds]",),
    ),
    Mutant(
        "the LAPACK routines hold the GIL",
        "src/bayesadmm/families.py",
        "    trtrs = ctypes.CFUNCTYPE(",
        "    trtrs = ctypes.PYFUNCTYPE(",
        ("tests/test_families.py::test_lapack_routines_release_the_gil",),
    ),
    Mutant(
        "the stacked Cholesky solve skips its check between the two solves",
        "src/bayesadmm/families.py",
        "    solve(b\"T\")\n    _require_finite(x)\n",
        "    solve(b\"T\")\n",
        ("tests/test_families.py::test_stacked_cholesky_solves_keep_the_row_solves_errors",),
    ),
)


def pytest(copy: str, tests) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    sources = {}
    for mutant in MUTANTS:
        if mutant.path not in sources:
            with open(os.path.join(ROOT, mutant.path)) as fh:
                sources[mutant.path] = fh.read()
        found = sources[mutant.path].count(mutant.old)
        if found != 1:
            print(f"error: {mutant.name}: anchor text found {found} times in {mutant.path}, "
                  "not once", file=sys.stderr)
            return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".perfbench", "__pycache__", ".pytest_cache", ".hypothesis"))
        selections = sorted({t for mutant in MUTANTS for t in mutant.tests})
        code = pytest(copy, selections)
        if code != 0:
            print(f"error: the unmutated selections do not pass (pytest exit {code})", file=sys.stderr)
            return 2
        survivors = 0
        for mutant in MUTANTS:
            target = os.path.join(copy, mutant.path)
            with open(target, "w") as fh:
                fh.write(sources[mutant.path].replace(mutant.old, mutant.new))
            try:
                code = pytest(copy, mutant.tests)
            finally:
                with open(target, "w") as fh:
                    fh.write(sources[mutant.path])
            killed = code == 1
            survivors += not killed
            print(f"{'killed' if killed else 'ALIVE '}  {mutant.name} (pytest exit {code})")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
