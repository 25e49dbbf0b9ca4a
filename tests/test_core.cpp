// Tests for the core public API: the placement planner, the linear-load
// verifier, and router construction.

#include <gtest/gtest.h>

#include <string>

#include "src/core/planner.h"
#include "src/core/verifier.h"
#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/util/error.h"

namespace tp {
namespace {

TEST(Planner, MakeRouterNames) {
  EXPECT_EQ(make_router(RouterKind::Odr)->name(), "ODR");
  EXPECT_EQ(make_router(RouterKind::Udr)->name(), "UDR");
  EXPECT_EQ(make_router(RouterKind::Adaptive)->name(), "ADAPTIVE");
}

TEST(Planner, OdrPlanPredictsOverallMaximumAt3D) {
  // The exact prediction is the measured overall maximum floor(k/2)k^(d-2);
  // the paper's Sec. 6.1 interior-link count only appears in the summary.
  for (i32 d = 3; d <= 4; ++d) {
    for (i32 k : {3, 4, 5, 8}) {
      Torus t(d, k);
      const PlacementPlan plan = plan_placement(t, 1, RouterKind::Odr);
      EXPECT_EQ(plan.placement.size(), powi(k, d - 1));
      EXPECT_TRUE(plan.prediction_exact);
      EXPECT_EQ(plan.predicted_emax, odr_linear_emax_overall(k, d));
      EXPECT_EQ(measure_emax(t, plan), plan.predicted_emax)
          << "d=" << d << " k=" << k;
      EXPECT_GT(plan.lower_bound, 0.0);
      EXPECT_NE(plan.summary.find("interior-link count " +
                                  std::to_string(odr_linear_emax(k, d))),
                std::string::npos)
          << plan.summary;
    }
  }
}

TEST(Planner, MeasuredLoadWithinPredictedBound) {
  for (RouterKind kind : {RouterKind::Odr, RouterKind::Udr}) {
    for (i32 tt = 1; tt <= 2; ++tt) {
      Torus t(3, 4);
      const PlacementPlan plan = plan_placement(t, tt, kind);
      const double measured = measure_emax(t, plan);
      if (!plan.prediction_exact) {
        EXPECT_LE(measured, plan.predicted_emax + 1e-9);
      }
      EXPECT_GE(measured, plan.lower_bound - 1e-9);
    }
  }
}

TEST(Planner, TwoDimensionalPlanUsesUpperBound) {
  Torus t(2, 6);
  const PlacementPlan plan = plan_placement(t, 1, RouterKind::Odr);
  EXPECT_FALSE(plan.prediction_exact);  // closed form needs d >= 3
  EXPECT_DOUBLE_EQ(plan.predicted_emax, odr_linear_emax_upper(6, 2));
}

TEST(Planner, AdaptiveKindMeasures) {
  Torus t(2, 4);
  const PlacementPlan plan = plan_placement(t, 1, RouterKind::Adaptive);
  const double measured = measure_emax(t, plan);
  EXPECT_GT(measured, 0.0);
  EXPECT_LE(measured, plan.predicted_emax + 1e-9);
}

TEST(Planner, ValidatesArguments) {
  Torus t(2, 4);
  EXPECT_THROW(plan_placement(t, 0), Error);
  EXPECT_THROW(plan_placement(t, 5), Error);
  Torus mixed(Radices{3, 4});
  EXPECT_THROW(plan_placement(mixed, 1), Error);
}

TEST(Planner, MeasureLoadsMatchesDirectCalls) {
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  EXPECT_LT(measure_loads(t, p, RouterKind::Odr).max_abs_diff(odr_loads(t, p)),
            1e-12);
  EXPECT_LT(measure_loads(t, p, RouterKind::Udr).max_abs_diff(udr_loads(t, p)),
            1e-12);
  EXPECT_LT(measure_loads(t, p, RouterKind::Adaptive)
                .max_abs_diff(adaptive_loads(t, p)),
            1e-12);
}

TEST(Verifier, CertifiesLinearPlacementFamily) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  const VerificationReport report =
      verify_linear_load(2, {4, 6, 8, 10}, family, RouterKind::Odr);
  EXPECT_TRUE(report.linear);
  EXPECT_DOUBLE_EQ(report.c1, 0.5);  // floor(k/2) / k = 1/2 for even k
  EXPECT_EQ(report.points.size(), 4u);
  EXPECT_EQ(report.router_name, "ODR");
  EXPECT_EQ(report.family_name, "linear(c=0)");
}

TEST(Verifier, RejectsFullPopulationFamily) {
  const auto family = [](const Torus& torus) {
    return full_population(torus);
  };
  const VerificationReport report =
      verify_linear_load(2, {4, 6, 8, 10}, family, RouterKind::Odr);
  EXPECT_FALSE(report.linear);
}

TEST(Verifier, UdrFamilyIsLinearToo) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  const VerificationReport report =
      verify_linear_load(2, {4, 6, 8}, family, RouterKind::Udr);
  EXPECT_TRUE(report.linear);
  EXPECT_LE(report.c1, 0.5 + 1e-9);
}

TEST(Verifier, LinearFamilyIsDimensionIndependent) {
  // The paper's Section 2 "desirable case": with the linear placement and
  // ODR, the load coefficient c1 = 1/2 does not grow with d.
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  const DimensionReport report = verify_dimension_independence(
      {2, 3, 4}, {4, 6}, family, RouterKind::Odr);
  EXPECT_TRUE(report.d_independent);
  EXPECT_NEAR(report.worst_c1, 0.5, 1e-9);
  ASSERT_EQ(report.per_dimension.size(), 3u);
  for (const VerificationReport& vr : report.per_dimension)
    EXPECT_NEAR(vr.c1, 0.5, 1e-9);
}

TEST(Verifier, FullPopulationIsNotDimensionIndependent) {
  const auto family = [](const Torus& torus) {
    return full_population(torus);
  };
  const DimensionReport report = verify_dimension_independence(
      {2, 3}, {4, 6, 8}, family, RouterKind::Odr);
  EXPECT_FALSE(report.d_independent);
}

TEST(Verifier, DimensionIndependenceValidation) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  EXPECT_THROW(
      verify_dimension_independence({}, {4}, family, RouterKind::Odr),
      Error);
  EXPECT_THROW(
      verify_dimension_independence({2}, {4}, family, RouterKind::Odr, 0.5),
      Error);
}

TEST(Verifier, NeedsAtLeastOneK) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  EXPECT_THROW(verify_linear_load(2, {}, family, RouterKind::Odr), Error);
}

}  // namespace
}  // namespace tp
