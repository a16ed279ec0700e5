#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"

namespace autoce::nn {
namespace {

TEST(LossTest, MseValueAndGrad) {
  Matrix pred = Matrix::FromRows({{1, 2}});
  Matrix target = Matrix::FromRows({{0, 4}});
  auto r = MseLoss(pred, target);
  // ((1)^2 + (2)^2) / 2 = 2.5
  EXPECT_DOUBLE_EQ(r.loss, 2.5);
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 1.0);    // 2*1/2
  EXPECT_DOUBLE_EQ(r.grad(0, 1), -2.0);   // 2*(-2)/2
}

TEST(LossTest, MsePerfectPrediction) {
  Matrix p = Matrix::FromRows({{3, -1}});
  auto r = MseLoss(p, p);
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
  EXPECT_DOUBLE_EQ(r.grad.Norm(), 0.0);
}

TEST(LossTest, BceWithLogitsStableAtExtremes) {
  Matrix logits = Matrix::FromRows({{1000.0, -1000.0}});
  Matrix target = Matrix::FromRows({{1.0, 0.0}});
  auto r = BceWithLogitsLoss(logits, target);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, 0.0, 1e-9);
}

TEST(LossTest, BceMatchesManualComputation) {
  Matrix logits = Matrix::FromRows({{0.0}});
  Matrix target = Matrix::FromRows({{1.0}});
  auto r = BceWithLogitsLoss(logits, target);
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(r.grad(0, 0), -0.5, 1e-12);
}

TEST(LossTest, SoftmaxRowsSumToOne) {
  Matrix logits = Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}});
  Matrix p = Softmax(logits);
  for (size_t r = 0; r < p.rows(); ++r) {
    double s = 0;
    for (size_t c = 0; c < p.cols(); ++c) s += p(r, c);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
  EXPECT_GT(p(0, 2), p(0, 0));
}

TEST(LossTest, SoftmaxCrossEntropyGradSumsToZero) {
  Matrix logits = Matrix::FromRows({{0.3, -0.7, 1.2}});
  auto r = SoftmaxCrossEntropyLoss(logits, {2});
  double s = 0;
  for (size_t c = 0; c < 3; ++c) s += r.grad(0, c);
  EXPECT_NEAR(s, 0.0, 1e-12);
  EXPECT_LT(r.grad(0, 2), 0.0);  // true class pushes up
}

TEST(LossTest, SoftmaxCrossEntropyUniformLogits) {
  Matrix logits(1, 4, 0.0);
  auto r = SoftmaxCrossEntropyLoss(logits, {0});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-12);
}

TEST(OptimizerTest, SgdMinimizesQuadratic) {
  Matrix param = Matrix::FromRows({{5.0}});
  Matrix grad(1, 1);
  Sgd sgd({&param}, {&grad}, 0.1);
  for (int i = 0; i < 200; ++i) {
    grad(0, 0) = 2.0 * param(0, 0);  // d/dx x^2
    sgd.Step();
  }
  EXPECT_NEAR(param(0, 0), 0.0, 1e-6);
}

TEST(OptimizerTest, AdamMinimizesQuadraticWithOffset) {
  Matrix param = Matrix::FromRows({{-3.0, 7.0}});
  Matrix grad(1, 2);
  Adam adam({&param}, {&grad}, 0.1);
  for (int i = 0; i < 500; ++i) {
    grad(0, 0) = 2.0 * (param(0, 0) - 1.0);
    grad(0, 1) = 2.0 * (param(0, 1) + 2.0);
    adam.Step();
  }
  EXPECT_NEAR(param(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(param(0, 1), -2.0, 1e-3);
}

TEST(OptimizerTest, ClipGradientsScalesLargeNorm) {
  Matrix g = Matrix::FromRows({{3.0, 4.0}});  // norm 5
  ClipGradients({&g}, 1.0);
  EXPECT_NEAR(g.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(g(0, 0) / g(0, 1), 0.75, 1e-12);  // direction preserved
}

TEST(OptimizerTest, ClipGradientsNoopWhenSmall) {
  Matrix g = Matrix::FromRows({{0.3, 0.4}});  // norm 0.5
  ClipGradients({&g}, 1.0);
  EXPECT_DOUBLE_EQ(g(0, 0), 0.3);
}

TEST(OptimizerTest, ClipDisabledWhenNonPositive) {
  Matrix g = Matrix::FromRows({{30, 40}});
  ClipGradients({&g}, 0.0);
  EXPECT_DOUBLE_EQ(g(0, 0), 30.0);
}

}  // namespace
}  // namespace autoce::nn
