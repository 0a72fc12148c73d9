#include "kgacc/opt/brent.h"

#include <cmath>

namespace kgacc {

namespace {

constexpr int kBrentMaxIterations = 200;

}  // namespace

Result<ScalarSolve> FindRootBrent(const std::function<double(double)>& f,
                                  double a, double b) {
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return ScalarSolve{a, 0.0, 0};
  if (fb == 0.0) return ScalarSolve{b, 0.0, 0};
  if ((fa > 0.0) == (fb > 0.0)) {
    return Status::InvalidArgument("FindRootBrent: f(a), f(b) same sign");
  }

  double c = a, fc = fa;
  double d = b - a, e = d;
  for (int iter = 1; iter <= kBrentMaxIterations; ++iter) {
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = e = b - a;
    }
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol1 = 2.0 * 1e-16 * std::fabs(b);
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || fb == 0.0) {
      return ScalarSolve{b, fb, iter};
    }
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      double p, q, r;
      const double s = fb / fa;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        q = fa / fc;
        r = fb / fc;
        p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0));
        q = (q - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::fabs(p);
      const double min1 = 3.0 * xm * q - std::fabs(tol1 * q);
      const double min2 = std::fabs(e * q);
      if (2.0 * p < (min1 < min2 ? min1 : min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    if (std::fabs(d) > tol1) {
      b += d;
    } else {
      b += (xm > 0.0 ? tol1 : -tol1);
    }
    fb = f(b);
  }
  return ScalarSolve{b, fb, kBrentMaxIterations};
}

}  // namespace kgacc
