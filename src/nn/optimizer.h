#ifndef AUTOCE_NN_OPTIMIZER_H_
#define AUTOCE_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace autoce::nn {

/// \brief Plain SGD with optional gradient clipping.
class Sgd {
 public:
  /// `params[i]` is updated from `grads[i]`; the two lists are parallel and
  /// the pointed-to matrices must outlive the optimizer.
  Sgd(std::vector<Matrix*> params, std::vector<Matrix*> grads,
      double learning_rate, double clip_norm = 0.0);

  /// Applies one update step; does not zero the gradients.
  void Step();

  void set_learning_rate(double lr) { learning_rate_ = lr; }
  double learning_rate() const { return learning_rate_; }

 private:
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
  double learning_rate_;
  double clip_norm_;
};

/// \brief Adam optimizer (Kingma & Ba) with bias correction and optional
/// global-norm gradient clipping.
class Adam {
 public:
  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
       double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
       double epsilon = 1e-8, double clip_norm = 0.0);

  /// Applies one update step; does not zero the gradients.
  void Step();

  void set_learning_rate(double lr) { learning_rate_ = lr; }
  double learning_rate() const { return learning_rate_; }
  int64_t step_count() const { return t_; }

 private:
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
  std::vector<Matrix> m_;  // first moments
  std::vector<Matrix> v_;  // second moments
  double learning_rate_;
  double beta1_, beta2_, epsilon_;
  double clip_norm_;
  int64_t t_ = 0;
};

/// Scales all gradients so their global L2 norm is at most `max_norm`
/// (no-op when max_norm <= 0 or the norm is already within bounds).
void ClipGradients(const std::vector<Matrix*>& grads, double max_norm);

}  // namespace autoce::nn

#endif  // AUTOCE_NN_OPTIMIZER_H_
