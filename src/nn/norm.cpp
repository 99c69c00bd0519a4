#include "nn/norm.h"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"

namespace ber {

GroupNorm::GroupNorm(long groups, long channels, float eps)
    : groups_(groups), channels_(channels), eps_(eps) {
  if (channels % groups != 0) {
    throw std::invalid_argument("GroupNorm: channels % groups != 0");
  }
  scale_.name = "gn.scale";
  scale_.kind = ParamKind::kNormScale;
  scale_.value = Tensor::zeros({channels});  // alpha' = 0 -> gamma = 1
  scale_.grad = Tensor::zeros({channels});
  bias_.name = "gn.bias";
  bias_.kind = ParamKind::kNormBias;
  bias_.value = Tensor::zeros({channels});
  bias_.grad = Tensor::zeros({channels});
}

Tensor GroupNorm::forward(const Tensor& x, bool training) {
  if (x.dim() != 4 || x.shape(1) != channels_) {
    throw std::invalid_argument("GroupNorm: bad input " + x.shape_str());
  }
  const long n = x.shape(0), c = x.shape(1), spatial = x.shape(2) * x.shape(3);
  const long cpg = c / groups_;
  const long m = cpg * spatial;  // elements per (n, group)

  Tensor out(x.shape());
  // Only backward reads xhat and inv_std, so inference writes neither (and
  // keeps the caches of the last training forward intact).
  if (training) {
    if (xhat_.shape() != x.shape()) xhat_ = Tensor(x.shape());
    inv_std_ = Tensor({n, groups_});
  }
  parallel_for(n, intra_op_threads(x.numel(), kIntraOpMinFloats),
               [&](std::int64_t i) {
    for (long g = 0; g < groups_; ++g) {
      const long base = (i * c + g * cpg) * spatial;
      const float* src = x.data() + base;
      double sum = 0.0, sq = 0.0;
      for (long e = 0; e < m; ++e) {
        sum += src[e];
        sq += static_cast<double>(src[e]) * src[e];
      }
      const double mu = sum / m;
      const double var = sq / m - mu * mu;
      const float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      float* xh = training ? xhat_.data() + base : nullptr;
      if (training) inv_std_.at(i, g) = istd;
      float* dst = out.data() + base;
      for (long cc = 0; cc < cpg; ++cc) {
        const long ch = g * cpg + cc;
        const float gamma = 1.0f + scale_.value[ch];
        const float beta = bias_.value[ch];
        for (long s = 0; s < spatial; ++s) {
          const long e = cc * spatial + s;
          const float h = (src[e] - static_cast<float>(mu)) * istd;
          if (xh != nullptr) xh[e] = h;
          dst[e] = gamma * h + beta;
        }
      }
    }
  });
  return out;
}

Tensor GroupNorm::backward(const Tensor& grad_out) {
  if (xhat_.dim() != 4) {
    throw std::logic_error("GroupNorm::backward: no cached forward pass");
  }
  if (grad_out.shape() != xhat_.shape()) {
    throw std::invalid_argument("GroupNorm::backward: bad grad " +
                                grad_out.shape_str());
  }
  const long n = grad_out.shape(0), c = grad_out.shape(1),
             spatial = grad_out.shape(2) * grad_out.shape(3);
  const long cpg = c / groups_;
  const long m = cpg * spatial;

  Tensor grad_in(grad_out.shape());
  // Per-image param-grad partials [n, c], added below in image order: the
  // same sequence of += per channel as a serial loop over images.
  std::vector<float> dscale_part(static_cast<std::size_t>(n * c));
  std::vector<float> dbias_part(static_cast<std::size_t>(n * c));
  parallel_for(n, intra_op_threads(grad_out.numel(), kIntraOpMinFloats),
               [&](std::int64_t i) {
    for (long g = 0; g < groups_; ++g) {
      const long base = (i * c + g * cpg) * spatial;
      const float* go = grad_out.data() + base;
      const float* xh = xhat_.data() + base;
      const float istd = inv_std_.at(i, g);
      // Accumulate per-channel param grads and per-group sums of
      // dxhat and dxhat*xhat.
      double sum_dxh = 0.0, sum_dxh_xh = 0.0;
      for (long cc = 0; cc < cpg; ++cc) {
        const long ch = g * cpg + cc;
        const float gamma = 1.0f + scale_.value[ch];
        double dscale = 0.0, dbias = 0.0;
        for (long s = 0; s < spatial; ++s) {
          const long e = cc * spatial + s;
          dscale += static_cast<double>(go[e]) * xh[e];
          dbias += go[e];
          const double dxh = static_cast<double>(go[e]) * gamma;
          sum_dxh += dxh;
          sum_dxh_xh += dxh * xh[e];
        }
        dscale_part[static_cast<std::size_t>(i * c + ch)] =
            static_cast<float>(dscale);
        dbias_part[static_cast<std::size_t>(i * c + ch)] =
            static_cast<float>(dbias);
      }
      float* gi = grad_in.data() + base;
      const float inv_m = 1.0f / static_cast<float>(m);
      for (long cc = 0; cc < cpg; ++cc) {
        const long ch = g * cpg + cc;
        const float gamma = 1.0f + scale_.value[ch];
        for (long s = 0; s < spatial; ++s) {
          const long e = cc * spatial + s;
          const float dxh = go[e] * gamma;
          gi[e] = istd * (dxh - inv_m * static_cast<float>(sum_dxh) -
                          xh[e] * inv_m * static_cast<float>(sum_dxh_xh));
        }
      }
    }
  });
  for (long i = 0; i < n; ++i) {
    for (long ch = 0; ch < c; ++ch) {
      scale_.grad[ch] += dscale_part[static_cast<std::size_t>(i * c + ch)];
      bias_.grad[ch] += dbias_part[static_cast<std::size_t>(i * c + ch)];
    }
  }
  return grad_in;
}

std::string GroupNorm::name() const {
  std::ostringstream os;
  os << "GroupNorm(g" << groups_ << ",c" << channels_ << ")";
  return os.str();
}

BatchNorm2d::BatchNorm2d(long channels, float eps, float momentum)
    : channels_(channels), eps_(eps), momentum_(momentum) {
  scale_.name = "bn.scale";
  scale_.kind = ParamKind::kNormScale;
  scale_.value = Tensor::zeros({channels});
  scale_.grad = Tensor::zeros({channels});
  bias_.name = "bn.bias";
  bias_.kind = ParamKind::kNormBias;
  bias_.value = Tensor::zeros({channels});
  bias_.grad = Tensor::zeros({channels});
  running_mean_ = Tensor::zeros({channels});
  running_var_ = Tensor::full({channels}, 1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool training) {
  if (x.dim() != 4 || x.shape(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input " + x.shape_str());
  }
  const long n = x.shape(0), c = channels_, spatial = x.shape(2) * x.shape(3);
  const long m = n * spatial;

  const bool batch_stats = training || use_batch_stats_in_eval_;
  Tensor out(x.shape());
  Tensor xhat;
  Tensor inv_std({c});
  if (training) xhat = Tensor(x.shape());

  for (long ch = 0; ch < c; ++ch) {
    float mu, var;
    if (batch_stats) {
      double sum = 0.0, sq = 0.0;
      for (long i = 0; i < n; ++i) {
        const float* plane = x.data() + (i * c + ch) * spatial;
        for (long s = 0; s < spatial; ++s) {
          sum += plane[s];
          sq += static_cast<double>(plane[s]) * plane[s];
        }
      }
      mu = static_cast<float>(sum / m);
      var = static_cast<float>(sq / m - static_cast<double>(mu) * mu);
      if (training) {
        running_mean_[ch] =
            (1.0f - momentum_) * running_mean_[ch] + momentum_ * mu;
        running_var_[ch] =
            (1.0f - momentum_) * running_var_[ch] + momentum_ * var;
      }
    } else {
      mu = running_mean_[ch];
      var = running_var_[ch];
    }
    const float istd = 1.0f / std::sqrt(var + eps_);
    inv_std[ch] = istd;
    const float gamma = 1.0f + scale_.value[ch];
    const float beta = bias_.value[ch];
    for (long i = 0; i < n; ++i) {
      const float* src = x.data() + (i * c + ch) * spatial;
      float* dst = out.data() + (i * c + ch) * spatial;
      float* xh =
          training ? xhat.data() + (i * c + ch) * spatial : nullptr;
      for (long s = 0; s < spatial; ++s) {
        const float h = (src[s] - mu) * istd;
        if (xh != nullptr) xh[s] = h;
        dst[s] = gamma * h + beta;
      }
    }
  }
  if (training) {
    xhat_ = std::move(xhat);
    inv_std_ = std::move(inv_std);
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (xhat_.dim() != 4) {
    throw std::logic_error("BatchNorm2d::backward: no cached forward pass");
  }
  const long n = grad_out.shape(0), c = channels_,
             spatial = grad_out.shape(2) * grad_out.shape(3);
  const long m = n * spatial;

  Tensor grad_in(grad_out.shape());
  for (long ch = 0; ch < c; ++ch) {
    const float gamma = 1.0f + scale_.value[ch];
    const float istd = inv_std_[ch];
    double sum_go = 0.0, sum_go_xh = 0.0;
    for (long i = 0; i < n; ++i) {
      const float* go = grad_out.data() + (i * c + ch) * spatial;
      const float* xh = xhat_.data() + (i * c + ch) * spatial;
      for (long s = 0; s < spatial; ++s) {
        sum_go += go[s];
        sum_go_xh += static_cast<double>(go[s]) * xh[s];
      }
    }
    scale_.grad[ch] += static_cast<float>(sum_go_xh);
    bias_.grad[ch] += static_cast<float>(sum_go);
    const float inv_m = 1.0f / static_cast<float>(m);
    for (long i = 0; i < n; ++i) {
      const float* go = grad_out.data() + (i * c + ch) * spatial;
      const float* xh = xhat_.data() + (i * c + ch) * spatial;
      float* gi = grad_in.data() + (i * c + ch) * spatial;
      for (long s = 0; s < spatial; ++s) {
        gi[s] = gamma * istd *
                (go[s] - inv_m * static_cast<float>(sum_go) -
                 xh[s] * inv_m * static_cast<float>(sum_go_xh));
      }
    }
  }
  return grad_in;
}

std::string BatchNorm2d::name() const {
  std::ostringstream os;
  os << "BatchNorm2d(c" << channels_ << ")";
  return os.str();
}

}  // namespace ber
