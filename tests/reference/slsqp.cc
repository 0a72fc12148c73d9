#include "reference/slsqp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kgacc/intervals/credible.h"
#include "kgacc/util/check.h"

namespace kgacc {

namespace internal {

namespace {

/// Gaussian elimination with partial pivoting, consuming `a` and `b` in
/// place. The solvers below rebuild the KKT system every round anyway, so
/// destroying it here saves the two copies the value-parameter public
/// wrapper pays.
bool SolveLinearSystemDestructive(std::vector<double>& a,
                                  std::vector<double>& b, int n,
                                  std::vector<double>* x) {
  KGACC_DCHECK(static_cast<int>(a.size()) == n * n);
  KGACC_DCHECK(static_cast<int>(b.size()) == n);
  for (int col = 0; col < n; ++col) {
    // Partial pivoting.
    int pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (int row = col + 1; row < n; ++row) {
      const double v = std::fabs(a[row * n + col]);
      if (v > best) {
        best = v;
        pivot = row;
      }
    }
    if (best < 1e-14) return false;
    if (pivot != col) {
      for (int j = 0; j < n; ++j) std::swap(a[col * n + j], a[pivot * n + j]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (int row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] * inv;
      if (factor == 0.0) continue;
      for (int j = col; j < n; ++j) a[row * n + j] -= factor * a[col * n + j];
      b[row] -= factor * b[col];
    }
  }
  x->assign(n, 0.0);
  for (int row = n - 1; row >= 0; --row) {
    double sum = b[row];
    for (int j = row + 1; j < n; ++j) sum -= a[row * n + j] * (*x)[j];
    (*x)[row] = sum / a[row * n + row];
  }
  return true;
}

}  // namespace

bool SolveLinearSystem(std::vector<double> a, std::vector<double> b, int n,
                       std::vector<double>* x) {
  return SolveLinearSystemDestructive(a, b, n, x);
}

}  // namespace internal

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> NumericGradient(const VectorFn& f,
                                    const std::vector<double>& x, double h,
                                    const std::vector<double>& lo,
                                    const std::vector<double>& hi) {
  const int n = static_cast<int>(x.size());
  std::vector<double> g(n);
  std::vector<double> xp = x;
  for (int i = 0; i < n; ++i) {
    const double step = h * std::max(1.0, std::fabs(x[i]));
    double fwd = std::min(x[i] + step, hi.empty() ? kInf : hi[i]);
    double bwd = std::max(x[i] - step, lo.empty() ? -kInf : lo[i]);
    if (fwd == bwd) {  // Degenerate bound; widen inward.
      fwd = x[i];
    }
    xp[i] = fwd;
    const double f_fwd = f(xp);
    xp[i] = bwd;
    const double f_bwd = f(xp);
    xp[i] = x[i];
    g[i] = (f_fwd - f_bwd) / (fwd - bwd);
  }
  return g;
}

/// Scratch buffers for SolveQp, reused across QP rounds and outer SQP
/// iterations. The solver runs once per interval on the evaluation hot
/// path; without this every 2-variable QP round paid half a dozen small
/// heap allocations.
struct QpWorkspace {
  std::vector<char> pinned;
  std::vector<int> free_idx;
  std::vector<double> kkt;
  std::vector<double> rhs;
  std::vector<double> sol;
};

/// Computes the SQP search direction from the equality-constrained QP
///   min 0.5 d' B d + g' d   s.t.  A d = -c
/// with box handling suited to SQP globalization: variables sitting on a
/// bound whose unconstrained step points outward are *pinned* (d_i = 0) and
/// the system is re-solved; the caller additionally receives `alpha_cap`,
/// the largest step fraction keeping x + alpha d inside the box (ratio
/// test), so the line search never has to clamp and the direction stays a
/// true tangent direction of the linearized constraints.
///
/// `dl`/`du` are the step bounds lo - x / hi - x. `d_out`/`lambda_out` are
/// resized to n/m. Returns false when every KKT system encountered was
/// singular (caller falls back to steepest descent).
bool SolveQp(const std::vector<double>& bmat, const std::vector<double>& g,
             const std::vector<double>& amat, const std::vector<double>& c,
             const std::vector<double>& dl, const std::vector<double>& du,
             int n, int m, QpWorkspace* ws, std::vector<double>* d_out,
             std::vector<double>* lambda_out, double* alpha_cap) {
  constexpr double kAtBound = 1e-14;
  ws->pinned.assign(n, 0);
  std::vector<double>& d = *d_out;
  std::vector<double>& lambda = *lambda_out;
  d.assign(n, 0.0);
  lambda.assign(m, 0.0);

  for (int round = 0; round <= n; ++round) {
    ws->free_idx.clear();
    for (int i = 0; i < n; ++i) {
      if (!ws->pinned[i]) ws->free_idx.push_back(i);
    }
    const std::vector<int>& free_idx = ws->free_idx;
    const int nf = static_cast<int>(free_idx.size());
    const int dim = nf + m;
    std::fill(d.begin(), d.end(), 0.0);
    std::fill(lambda.begin(), lambda.end(), 0.0);

    if (nf == 0) {
      // Every variable is blocked by a bound: no feasible descent direction
      // from this iterate within the box.
      *alpha_cap = 1.0;
      return true;
    }

    ws->kkt.assign(dim * dim, 0.0);
    ws->rhs.assign(dim, 0.0);
    std::vector<double>& kkt = ws->kkt;
    std::vector<double>& rhs = ws->rhs;
    for (int r = 0; r < nf; ++r) {
      const int i = free_idx[r];
      for (int s = 0; s < nf; ++s) {
        kkt[r * dim + s] = bmat[i * n + free_idx[s]];
      }
      for (int k = 0; k < m; ++k) {
        kkt[r * dim + (nf + k)] = amat[k * n + i];
      }
      rhs[r] = -g[i];
    }
    for (int k = 0; k < m; ++k) {
      for (int s = 0; s < nf; ++s) {
        kkt[(nf + k) * dim + s] = amat[k * n + free_idx[s]];
      }
      rhs[nf + k] = -c[k];
    }
    if (!internal::SolveLinearSystemDestructive(kkt, rhs, dim, &ws->sol)) {
      if (round == 0 || nf == n) return false;
      // Pinning made the constraint rows rank-deficient; fall back to the
      // unpinned solution direction with a conservative cap.
      ws->pinned.assign(n, 0);
      continue;
    }
    const std::vector<double>& sol = ws->sol;
    for (int r = 0; r < nf; ++r) d[free_idx[r]] = sol[r];
    for (int k = 0; k < m; ++k) lambda[k] = sol[nf + k];

    // Pin any free variable that sits on a bound and pushes outward.
    bool newly_pinned = false;
    for (int r = 0; r < nf; ++r) {
      const int i = free_idx[r];
      if ((dl[i] >= -kAtBound && d[i] < 0.0) ||
          (du[i] <= kAtBound && d[i] > 0.0)) {
        ws->pinned[i] = 1;
        newly_pinned = true;
      }
    }
    if (newly_pinned) continue;

    // Ratio test: largest alpha with dl <= alpha d <= du for all i.
    double cap = 1.0;
    for (int i = 0; i < n; ++i) {
      if (d[i] > 0.0 && du[i] < d[i]) {
        cap = std::min(cap, du[i] / d[i]);
      } else if (d[i] < 0.0 && dl[i] > d[i]) {
        cap = std::min(cap, dl[i] / d[i]);
      }
    }
    *alpha_cap = std::max(cap, 0.0);
    return true;
  }
  return false;
}

}  // namespace

Result<SlsqpSolve> MinimizeSlsqp(const SlsqpProblem& problem,
                                 std::vector<double> x0,
                                 const SlsqpOptions& options) {
  if (!problem.objective) {
    return Status::InvalidArgument("SLSQP: objective is required");
  }
  const int n = static_cast<int>(x0.size());
  if (n == 0) return Status::InvalidArgument("SLSQP: empty start point");
  const int m = static_cast<int>(problem.eq_constraints.size());
  if (!problem.lower.empty() && static_cast<int>(problem.lower.size()) != n) {
    return Status::InvalidArgument("SLSQP: lower bound size mismatch");
  }
  if (!problem.upper.empty() && static_cast<int>(problem.upper.size()) != n) {
    return Status::InvalidArgument("SLSQP: upper bound size mismatch");
  }
  if (!problem.eq_gradients.empty() &&
      static_cast<int>(problem.eq_gradients.size()) != m) {
    return Status::InvalidArgument("SLSQP: constraint gradient count mismatch");
  }
  std::vector<double> lo(n, -kInf), hi(n, kInf);
  if (!problem.lower.empty()) lo = problem.lower;
  if (!problem.upper.empty()) hi = problem.upper;
  for (int i = 0; i < n; ++i) {
    if (lo[i] > hi[i]) {
      return Status::InvalidArgument("SLSQP: lower bound exceeds upper bound");
    }
    x0[i] = std::clamp(x0[i], lo[i], hi[i]);
  }

  auto eval_constraints_into = [&](const std::vector<double>& x,
                                   std::vector<double>* c) {
    c->resize(m);
    for (int k = 0; k < m; ++k) (*c)[k] = problem.eq_constraints[k](x);
  };
  auto eval_gradient = [&](const std::vector<double>& x) {
    if (problem.gradient) return problem.gradient(x);
    return NumericGradient(problem.objective, x, options.fd_step, lo, hi);
  };
  auto eval_jacobian = [&](const std::vector<double>& x) {
    std::vector<double> a(m * n);
    for (int k = 0; k < m; ++k) {
      std::vector<double> row;
      if (!problem.eq_gradients.empty() && problem.eq_gradients[k]) {
        row = problem.eq_gradients[k](x);
      } else {
        row = NumericGradient(problem.eq_constraints[k], x, options.fd_step,
                              lo, hi);
      }
      KGACC_CHECK(static_cast<int>(row.size()) == n);
      for (int i = 0; i < n; ++i) a[k * n + i] = row[i];
    }
    return a;
  };
  auto max_violation = [&](const std::vector<double>& c) {
    double v = 0.0;
    for (double ci : c) v = std::max(v, std::fabs(ci));
    return v;
  };

  std::vector<double> x = x0;
  double fx = problem.objective(x);
  std::vector<double> g = eval_gradient(x);
  std::vector<double> c;
  eval_constraints_into(x, &c);
  std::vector<double> amat = eval_jacobian(x);

  // Projected KKT stationarity ||g + A'lambda||_inf: a component blocked by
  // an active bound whose multiplier sign is consistent (pushing outward)
  // is stationary regardless of its raw value.
  auto kkt_residual = [&](const std::vector<double>& grad,
                          const std::vector<double>& jac,
                          const std::vector<double>& mult,
                          const std::vector<double>& at) {
    double worst = 0.0;
    for (int i = 0; i < n; ++i) {
      double ri = grad[i];
      for (int k = 0; k < m; ++k) ri += mult[k] * jac[k * n + i];
      const bool at_lo = std::isfinite(lo[i]) &&
                         at[i] - lo[i] <= 1e-12 * (1.0 + std::fabs(lo[i]));
      const bool at_hi = std::isfinite(hi[i]) &&
                         hi[i] - at[i] <= 1e-12 * (1.0 + std::fabs(hi[i]));
      if ((at_lo && ri > 0.0) || (at_hi && ri < 0.0)) ri = 0.0;
      worst = std::max(worst, std::fabs(ri));
    }
    return worst;
  };

  // BFGS model of the Lagrangian Hessian, started at identity.
  std::vector<double> bmat(n * n, 0.0);
  for (int i = 0; i < n; ++i) bmat[i * n + i] = 1.0;

  double penalty = 1.0;
  SlsqpSolve out;

  // Iteration-invariant buffers, hoisted so the loop below (and the QP
  // solves inside it) run allocation-free after the first pass.
  QpWorkspace qp_ws;
  // `lambda` starts zeroed so the stationarity report at the exits below
  // stays well-defined even when the loop never runs (max_iterations <= 0).
  std::vector<double> dl(n), du(n), d, lambda(m, 0.0);
  std::vector<double> x_new(n), c_new;
  std::vector<double> s(n), y(n), bs(n);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // QP step bounds: keep x + d inside the box.
    for (int i = 0; i < n; ++i) {
      dl[i] = lo[i] - x[i];
      du[i] = hi[i] - x[i];
    }
    double alpha_cap = 1.0;
    if (!SolveQp(bmat, g, amat, c, dl, du, n, m, &qp_ws, &d, &lambda,
                 &alpha_cap)) {
      // Degenerate model: take a small feasible steepest-descent step.
      d.assign(n, 0.0);
      for (int i = 0; i < n; ++i) {
        d[i] = std::clamp(-0.1 * g[i], dl[i], du[i]);
      }
      lambda.assign(m, 0.0);
    }

    double step_norm = 0.0;
    for (double di : d) step_norm = std::max(step_norm, std::fabs(di));
    const double viol = max_violation(c);
    const double kkt = kkt_residual(g, amat, lambda, x);
    if (step_norm < options.step_tol && viol < options.constraint_tol &&
        (options.stationarity_tol <= 0.0 ||
         kkt < options.stationarity_tol)) {
      out.x = x;
      out.fx = fx;
      out.max_violation = viol;
      out.kkt_residual = kkt;
      out.iterations = iter;
      out.converged = true;
      return out;
    }

    // L1 exact-penalty merit with Powell's penalty update.
    double lambda_max = 0.0;
    for (double lk : lambda) lambda_max = std::max(lambda_max, std::fabs(lk));
    penalty = std::max(penalty, 2.0 * lambda_max + 1.0);

    auto merit = [&](double f_val, const std::vector<double>& c_val) {
      double phi = f_val;
      for (double ci : c_val) phi += penalty * std::fabs(ci);
      return phi;
    };
    const double phi0 = merit(fx, c);
    // Directional-derivative upper bound: g'd - penalty * ||c||_1.
    double dphi = 0.0;
    for (int i = 0; i < n; ++i) dphi += g[i] * d[i];
    for (double ci : c) dphi -= penalty * std::fabs(ci);

    double alpha = alpha_cap > 0.0 ? alpha_cap : 1.0;
    double f_new = fx;
    c_new = c;
    bool accepted = false;
    for (int ls = 0; ls < 30; ++ls) {
      for (int i = 0; i < n; ++i) {
        x_new[i] = std::clamp(x[i] + alpha * d[i], lo[i], hi[i]);
      }
      f_new = problem.objective(x_new);
      eval_constraints_into(x_new, &c_new);
      const double phi_new = merit(f_new, c_new);
      if (phi_new <= phi0 + 1e-4 * alpha * std::min(dphi, 0.0) ||
          phi_new < phi0 - 1e-16) {
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) {
      // Line search failed: either we are at a merit-stationary point or the
      // model is bad. Report what we have; a merit-stationary iterate only
      // counts as converged when it is feasible, near-stationary in step,
      // AND (when enabled) KKT-stationary — short-step alone is not a
      // certificate.
      out.x = x;
      out.fx = fx;
      out.max_violation = viol;
      out.kkt_residual = kkt;
      out.iterations = iter;
      out.converged = viol < options.constraint_tol && step_norm < 1e-6 &&
                      (options.stationarity_tol <= 0.0 ||
                       kkt < options.stationarity_tol);
      return out;
    }

    // Damped BFGS update with the Lagrangian gradient difference.
    std::vector<double> g_new = eval_gradient(x_new);
    std::vector<double> a_new = eval_jacobian(x_new);
    for (int i = 0; i < n; ++i) s[i] = x_new[i] - x[i];
    for (int i = 0; i < n; ++i) {
      double grad_l_new = g_new[i];
      double grad_l_old = g[i];
      for (int k = 0; k < m; ++k) {
        grad_l_new += lambda[k] * a_new[k * n + i];
        grad_l_old += lambda[k] * amat[k * n + i];
      }
      y[i] = grad_l_new - grad_l_old;
    }
    double sy = 0.0, s_bs = 0.0;
    std::fill(bs.begin(), bs.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) bs[i] += bmat[i * n + j] * s[j];
    }
    for (int i = 0; i < n; ++i) {
      sy += s[i] * y[i];
      s_bs += s[i] * bs[i];
    }
    if (s_bs > 1e-16) {
      if (sy < 0.2 * s_bs) {
        const double theta = 0.8 * s_bs / (s_bs - sy);
        for (int i = 0; i < n; ++i) {
          y[i] = theta * y[i] + (1.0 - theta) * bs[i];
        }
        sy = 0.0;
        for (int i = 0; i < n; ++i) sy += s[i] * y[i];
      }
      if (sy > 1e-16) {
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) {
            bmat[i * n + j] +=
                y[i] * y[j] / sy - bs[i] * bs[j] / s_bs;
          }
        }
      }
    }

    x = x_new;
    fx = f_new;
    g = std::move(g_new);
    std::swap(c, c_new);
    amat = std::move(a_new);
  }

  out.x = x;
  out.fx = fx;
  out.max_violation = max_violation(c);
  // The loop's lambda belongs to the QP solved at the *previous* iterate;
  // report stationarity at the final x with the least-squares multiplier
  // estimate argmin ||g + A'lambda|| instead (solve (A A') lambda = -A g).
  if (m > 0) {
    std::vector<double> aat(m * m, 0.0);
    std::vector<double> rhs(m, 0.0);
    for (int k = 0; k < m; ++k) {
      for (int j = 0; j < m; ++j) {
        for (int i = 0; i < n; ++i) {
          aat[k * m + j] += amat[k * n + i] * amat[j * n + i];
        }
      }
      for (int i = 0; i < n; ++i) rhs[k] -= amat[k * n + i] * g[i];
    }
    std::vector<double> ls_lambda;
    if (internal::SolveLinearSystem(std::move(aat), std::move(rhs), m,
                                    &ls_lambda)) {
      lambda = std::move(ls_lambda);
    }
  }
  out.kkt_residual = kkt_residual(g, amat, lambda, x);
  out.iterations = options.max_iterations;
  out.converged = false;
  return out;
}

Result<SqpHpdResult> HpdIntervalSqp(const BetaDistribution& posterior,
                                    double alpha, const Interval* start) {
  SqpHpdResult out;
  if (posterior.Shape() != BetaShape::kUnimodal) {
    KGACC_ASSIGN_OR_RETURN(const HpdResult closed,
                           HpdInterval(posterior, alpha));
    out.interval = closed.interval;
    return out;
  }
  Interval warm_start;
  if (start != nullptr) {
    warm_start = *start;
  } else {
    KGACC_ASSIGN_OR_RETURN(warm_start, EqualTailedInterval(posterior, alpha));
  }

  // Standard-case HPD via the SQP reference: minimize (u - l) subject to
  // F(u) - F(l) = 1 - alpha with (l, u) in [0, 1]^2 (§4.3).
  SlsqpProblem problem;
  problem.objective = [](const std::vector<double>& x) { return x[1] - x[0]; };
  problem.gradient = [](const std::vector<double>&) {
    return std::vector<double>{-1.0, 1.0};
  };
  problem.eq_constraints.push_back(
      [&posterior, alpha, &out](const std::vector<double>& x) {
        out.cdf_evals += 2;
        return posterior.Cdf(x[1]) - posterior.Cdf(x[0]) - (1.0 - alpha);
      });
  problem.eq_gradients.push_back(
      [&posterior, &out](const std::vector<double>& x) {
        out.pdf_evals += 2;
        return std::vector<double>{-posterior.Pdf(x[0]), posterior.Pdf(x[1])};
      });
  problem.lower = {0.0, 0.0};
  problem.upper = {1.0, 1.0};

  SlsqpOptions options;
  options.max_iterations = 80;
  options.constraint_tol = 1e-10;
  // Endpoint precision: intervals live on [0,1] and the stop rule compares
  // the MoE against thresholds around 5e-2, so 1e-9 endpoints are already
  // six orders of magnitude past any statistical meaning.
  options.step_tol = 1e-9;
  // KKT stationarity: a short first step from a warm start is not a
  // solution certificate; demand a stationary projected Lagrangian
  // gradient, whose natural scale here is O(1) (the objective gradient is
  // (-1, 1)).
  options.stationarity_tol = 1e-6;

  KGACC_ASSIGN_OR_RETURN(
      SlsqpSolve solve,
      MinimizeSlsqp(problem, {warm_start.lower, warm_start.upper}, options));
  if (!solve.converged &&
      (solve.max_violation > 1e-6 || solve.kkt_residual > 1e-6)) {
    return Status::NumericError("HPD SQP failed to satisfy the coverage "
                                "constraint at a stationary point");
  }
  out.interval = Interval{solve.x[0], solve.x[1]};
  out.iterations = solve.iterations;
  return out;
}

}  // namespace kgacc
