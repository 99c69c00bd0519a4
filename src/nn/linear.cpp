#include "nn/linear.h"

#include <sstream>
#include <stdexcept>

#include "kernels/backend.h"
#include "tensor/ops.h"

namespace ber {

Linear::Linear(long in_features, long out_features, bool bias)
    : in_features_(in_features), out_features_(out_features), has_bias_(bias) {
  weight_.name = "linear.weight";
  weight_.kind = ParamKind::kWeight;
  weight_.value = Tensor::zeros({out_features, in_features});
  weight_.grad = Tensor::zeros(weight_.value.shape());
  if (has_bias_) {
    bias_.name = "linear.bias";
    bias_.kind = ParamKind::kBias;
    bias_.value = Tensor::zeros({out_features});
    bias_.grad = Tensor::zeros({out_features});
  }
}

Tensor Linear::forward(const Tensor& x, bool training) {
  if (x.dim() != 2 || x.shape(1) != in_features_) {
    throw std::invalid_argument("Linear: bad input " + x.shape_str());
  }
  if (wcodes_.has_value()) {
    if (!training) return forward_on_codes(x, /*fuse_relu=*/false);
    wcodes_.reset();  // optimizer steps make the float weights the truth
  }
  const long n = x.shape(0);
  Tensor out({n, out_features_});
  // out [n, out] = x [n, in] x W^T [in, out]; W stored [out, in].
  kernels::current_backend().gemm_bt(n, out_features_, in_features_, 1.0f,
                                     x.data(), weight_.value.data(), 0.0f,
                                     out.data());
  if (has_bias_) {
    for (long i = 0; i < n; ++i) {
      float* row = out.data() + i * out_features_;
      for (long j = 0; j < out_features_; ++j) row[j] += bias_.value[j];
    }
  }
  if (training) {
    input_ = x;
  } else if (input_.numel() != 0) {
    input_ = Tensor();  // release stale backward cache (cloned models)
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (input_.dim() != 2) {
    throw std::logic_error("Linear::backward: no cached forward pass");
  }
  const long n = input_.shape(0);
  const kernels::Backend& bk = kernels::current_backend();
  // dW [out, in] += gO^T [out, n] x X [n, in]
  bk.gemm_at(out_features_, in_features_, n, 1.0f, grad_out.data(),
             input_.data(), 1.0f, weight_.grad.data());
  if (has_bias_) {
    for (long i = 0; i < n; ++i) {
      const float* row = grad_out.data() + i * out_features_;
      for (long j = 0; j < out_features_; ++j) bias_.grad[j] += row[j];
    }
  }
  // dX [n, in] = gO [n, out] x W [out, in]
  Tensor grad_in({n, in_features_});
  bk.gemm(n, in_features_, out_features_, 1.0f, grad_out.data(),
          weight_.value.data(), 0.0f, grad_in.data());
  return grad_in;
}

void Linear::adopt_weight_codes(QuantizedTensor qt) {
  wcodes_.emplace(std::move(qt), out_features_, in_features_);
  // Refresh the float mirror so weight-space observers agree with the codes.
  dequantize(wcodes_->tensor(),
             std::span<float>(weight_.value.data(),
                              static_cast<std::size_t>(weight_.value.numel())));
}

void Linear::patch_weight_code(std::size_t index, std::uint16_t code) {
  weight_.value.data()[index] = wcodes_->set_code(index, code);
}

Tensor Linear::forward_on_codes(const Tensor& x, bool fuse_relu) {
  if (!wcodes_.has_value()) {
    throw std::logic_error("Linear::forward_on_codes: no codes adopted");
  }
  // Sequential's fused-ReLU dispatch enters here directly, so the input
  // check from forward() must be repeated: qgemm_bt trusts x's geometry.
  if (x.dim() != 2 || x.shape(1) != in_features_) {
    throw std::invalid_argument("Linear: bad input " + x.shape_str());
  }
  const long n = x.shape(0);
  Tensor out({n, out_features_});
  kernels::QEpilogue ep{has_bias_ ? bias_.value.data() : nullptr, fuse_relu};
  kernels::current_backend().qgemm_bt(wcodes_->view(), n, x.data(),
                                      out.data(), ep);
  if (input_.numel() != 0) input_ = Tensor();  // as the float inference path
  return out;
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "Linear(" << in_features_ << "->" << out_features_ << ")";
  return os.str();
}

}  // namespace ber
