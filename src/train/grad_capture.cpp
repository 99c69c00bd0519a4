#include "train/grad_capture.h"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.h"

namespace ber {

GradCapture capture_weight_gradients(Sequential& model,
                                     const NetQuantizer& quantizer,
                                     const NetSnapshot& snap,
                                     const Dataset& data, long batch) {
  const long n = data.size();
  if (n <= 0) {
    throw std::invalid_argument("capture_weight_gradients: empty dataset");
  }
  if (batch < 1) {
    throw std::invalid_argument("capture_weight_gradients: batch must be >= 1");
  }
  const std::vector<Param*> params = model.params();

  // Save everything the probe clobbers: master weights, the caller's
  // accumulated gradients, and normalization buffers (training-mode forward
  // updates BatchNorm running statistics).
  WeightStash master;
  master.save(params);
  std::vector<Tensor> saved_grads;
  saved_grads.reserve(params.size());
  for (Param* p : params) saved_grads.push_back(p->grad);
  const std::vector<Tensor*> buffers = model.buffers();
  std::vector<Tensor> saved_buffers;
  saved_buffers.reserve(buffers.size());
  for (Tensor* b : buffers) saved_buffers.push_back(*b);

  quantizer.write_dequantized(snap, params);
  model.zero_grad();

  GradCapture out;
  double loss_sum = 0.0;
  Tensor images;
  std::vector<int> labels;
  for (long start = 0; start < n; start += batch) {
    const long end = std::min(start + batch, n);
    data.batch(start, end, images, labels);
    Tensor logits = model.forward(images, /*training=*/true);
    LossStats stats = softmax_cross_entropy(logits, labels);
    // Accumulated gradients must be d(mean over n)/d(w): each pass computes
    // the batch mean, so rescale its logit gradient by b / n before backward.
    stats.grad_logits.scale(static_cast<float>(end - start) /
                            static_cast<float>(n));
    model.backward(stats.grad_logits);
    loss_sum += static_cast<double>(stats.loss) * (end - start);
  }
  out.loss = static_cast<float>(loss_sum / n);
  out.grads.reserve(params.size());
  for (Param* p : params) out.grads.push_back(p->grad);

  master.restore(params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->grad = saved_grads[i];
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    *buffers[i] = saved_buffers[i];
  }
  return out;
}

}  // namespace ber
