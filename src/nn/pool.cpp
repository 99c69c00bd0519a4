#include "nn/pool.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "core/parallel.h"

namespace ber {

Tensor MaxPool2d::forward(const Tensor& x, bool training) {
  if (x.dim() != 4) throw std::invalid_argument("MaxPool2d: need NCHW");
  const long n = x.shape(0), c = x.shape(1), h = x.shape(2), w = x.shape(3);
  if (h % kernel_ != 0 || w % kernel_ != 0) {
    throw std::invalid_argument("MaxPool2d: size not divisible by kernel");
  }
  const long oh = h / kernel_, ow = w / kernel_;
  Tensor out({n, c, oh, ow});
  // Only backward reads argmax_, so inference leaves the last training
  // forward's routing intact.
  if (training) {
    argmax_.resize(static_cast<std::size_t>(out.numel()));
    in_shape_ = x.shape();
  }
  parallel_for(n, intra_op_threads(x.numel(), kIntraOpMinFloats),
               [&](std::int64_t i) {
    long oidx = i * c * oh * ow;
    for (long ch = 0; ch < c; ++ch) {
      const long plane_base = (i * c + ch) * h * w;
      const float* plane = x.data() + plane_base;
      for (long y = 0; y < oh; ++y) {
        for (long xcol = 0; xcol < ow; ++xcol, ++oidx) {
          float best = plane[(y * kernel_) * w + xcol * kernel_];
          long best_idx = (y * kernel_) * w + xcol * kernel_;
          for (long ki = 0; ki < kernel_; ++ki) {
            for (long kj = 0; kj < kernel_; ++kj) {
              const long idx = (y * kernel_ + ki) * w + xcol * kernel_ + kj;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          out[oidx] = best;
          if (training) {
            argmax_[static_cast<std::size_t>(oidx)] = plane_base + best_idx;
          }
        }
      }
    }
  });
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (in_shape_.empty()) {
    throw std::logic_error("MaxPool2d::backward: no cached forward pass");
  }
  if (grad_out.numel() != static_cast<long>(argmax_.size()) ||
      grad_out.dim() != 4 || grad_out.shape(0) != in_shape_[0]) {
    throw std::invalid_argument("MaxPool2d::backward: bad grad " +
                                grad_out.shape_str());
  }
  Tensor grad_in(in_shape_);
  const long n = in_shape_[0];
  const long per_image = grad_out.numel() / std::max(1L, n);
  // Image i's outputs route only into image i's planes.
  parallel_for(n, intra_op_threads(grad_in.numel(), kIntraOpMinFloats),
               [&](std::int64_t i) {
    for (long o = i * per_image; o < (i + 1) * per_image; ++o) {
      grad_in[argmax_[static_cast<std::size_t>(o)]] += grad_out[o];
    }
  });
  return grad_in;
}

std::string MaxPool2d::name() const {
  std::ostringstream os;
  os << "MaxPool2d(k" << kernel_ << ")";
  return os.str();
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  if (x.dim() != 4) throw std::invalid_argument("GlobalAvgPool: need NCHW");
  const long n = x.shape(0), c = x.shape(1), spatial = x.shape(2) * x.shape(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(spatial);
  for (long i = 0; i < n; ++i) {
    for (long ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * spatial;
      float acc = 0.0f;
      for (long s = 0; s < spatial; ++s) acc += plane[s];
      out.at(i, ch) = acc * inv;
    }
  }
  if (training) in_shape_ = x.shape();
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  if (in_shape_.empty()) {
    throw std::logic_error("GlobalAvgPool::backward: no cached forward pass");
  }
  if (grad_out.shape() != std::vector<long>{in_shape_[0], in_shape_[1]}) {
    throw std::invalid_argument("GlobalAvgPool::backward: bad grad " +
                                grad_out.shape_str());
  }
  Tensor grad_in(in_shape_);
  const long n = in_shape_[0], c = in_shape_[1],
             spatial = in_shape_[2] * in_shape_[3];
  const float inv = 1.0f / static_cast<float>(spatial);
  for (long i = 0; i < n; ++i) {
    for (long ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(i, ch) * inv;
      float* plane = grad_in.data() + (i * c + ch) * spatial;
      for (long s = 0; s < spatial; ++s) plane[s] = g;
    }
  }
  return grad_in;
}

}  // namespace ber
