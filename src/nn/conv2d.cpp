#include "nn/conv2d.h"

#include <sstream>
#include <stdexcept>

#include "kernels/backend.h"
#include "kernels/conv.h"
#include "tensor/ops.h"

namespace ber {

Conv2d::Conv2d(long in_channels, long out_channels, long kernel, long stride,
               long pad, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  weight_.name = "conv.weight";
  weight_.kind = ParamKind::kWeight;
  weight_.value = Tensor::zeros({out_channels, in_channels, kernel, kernel});
  weight_.grad = Tensor::zeros(weight_.value.shape());
  if (has_bias_) {
    bias_.name = "conv.bias";
    bias_.kind = ParamKind::kBias;
    bias_.value = Tensor::zeros({out_channels});
    bias_.grad = Tensor::zeros({out_channels});
  }
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  if (x.dim() != 4 || x.shape(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input " + x.shape_str());
  }
  if (wcodes_.has_value()) {
    if (!training) return forward_on_codes(x, /*fuse_relu=*/false);
    wcodes_.reset();  // optimizer steps make the float weights the truth
  }
  const kernels::Backend& bk = kernels::current_backend();
  const kernels::ConvShape s{x.shape(0), in_channels_, x.shape(2), x.shape(3),
                             out_channels_, kernel_,   stride_,    pad_};
  Tensor out({s.n, out_channels_, s.oh(), s.ow()});
  kernels::conv2d_forward(bk, s, x.data(), weight_.value.data(),
                          has_bias_ ? bias_.value.data() : nullptr,
                          out.data());
  if (training) {
    input_ = x;
  } else if (input_.numel() != 0) {
    input_ = Tensor();  // a stale cache from the last training forward
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (input_.dim() != 4) {
    throw std::logic_error("Conv2d::backward: no cached forward pass");
  }
  const kernels::Backend& bk = kernels::current_backend();
  const kernels::ConvShape s{input_.shape(0), in_channels_,  input_.shape(2),
                             input_.shape(3), out_channels_, kernel_,
                             stride_,         pad_};
  Tensor grad_in(input_.shape());
  kernels::conv2d_backward(bk, s, input_.data(), grad_out.data(),
                           weight_.value.data(), weight_.grad.data(),
                           has_bias_ ? bias_.grad.data() : nullptr,
                           grad_in.data());
  return grad_in;
}

void Conv2d::adopt_weight_codes(QuantizedTensor qt) {
  wcodes_.emplace(std::move(qt), out_channels_,
                  in_channels_ * kernel_ * kernel_);
  // Refresh the float mirror so weight-space observers agree with the codes.
  dequantize(wcodes_->tensor(),
             std::span<float>(weight_.value.data(),
                              static_cast<std::size_t>(weight_.value.numel())));
}

void Conv2d::patch_weight_code(std::size_t index, std::uint16_t code) {
  weight_.value.data()[index] = wcodes_->set_code(index, code);
}

Tensor Conv2d::forward_on_codes(const Tensor& x, bool fuse_relu) {
  if (!wcodes_.has_value()) {
    throw std::logic_error("Conv2d::forward_on_codes: no codes adopted");
  }
  // Sequential's fused-ReLU dispatch enters here directly, so the input
  // check from forward() must be repeated before touching x's geometry.
  if (x.dim() != 4 || x.shape(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input " + x.shape_str());
  }
  const kernels::Backend& bk = kernels::current_backend();
  const kernels::ConvShape s{x.shape(0), in_channels_, x.shape(2), x.shape(3),
                             out_channels_, kernel_,   stride_,    pad_};
  Tensor out({s.n, out_channels_, s.oh(), s.ow()});
  kernels::QEpilogue ep{has_bias_ ? bias_.value.data() : nullptr, fuse_relu};
  kernels::conv2d_forward_quant(bk, s, x.data(), wcodes_->view(), ep,
                                out.data());
  if (input_.numel() != 0) input_ = Tensor();  // as the float path
  return out;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << in_channels_ << "->" << out_channels_ << ",k" << kernel_
     << ",s" << stride_ << ",p" << pad_ << ")";
  return os.str();
}

}  // namespace ber
