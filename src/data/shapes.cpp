#include "data/shapes.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/hash.h"
#include "core/rng.h"

namespace ber {

void Dataset::batch(long begin, long end, Tensor& out_images,
                    std::vector<int>& out_labels) const {
  const long n = end - begin;
  const long c = channels(), h = height(), w = width();
  out_images = Tensor({n, c, h, w});
  out_labels.resize(static_cast<std::size_t>(n));
  const long stride = c * h * w;
  // copy_n, not memcpy: an empty batch (head(0)) has a null data pointer.
  std::copy_n(images.data() + begin * stride, n * stride, out_images.data());
  for (long i = 0; i < n; ++i) {
    out_labels[static_cast<std::size_t>(i)] =
        labels[static_cast<std::size_t>(begin + i)];
  }
}

Dataset Dataset::head(long n) const {
  n = std::min(n, size());
  Dataset d;
  d.num_classes = num_classes;
  std::vector<int> lab;
  Tensor img;
  batch(0, n, img, lab);
  d.images = std::move(img);
  d.labels = std::move(lab);
  return d;
}

SyntheticConfig SyntheticConfig::cifar10() { return SyntheticConfig{}; }

SyntheticConfig SyntheticConfig::mnist() {
  SyntheticConfig c;
  c.n_train = 2500;
  c.channels = 1;
  c.noise_std = 0.08;
  c.jitter = 1;
  c.seed = 11;
  return c;
}

SyntheticConfig SyntheticConfig::cifar100() {
  SyntheticConfig c;
  c.n_train = 4000;
  c.num_classes = 20;
  c.noise_std = 0.22;
  c.seed = 13;
  return c;
}

namespace {

// Membership test for shape `cls` at normalized coordinates (x, y) in
// [-1, 1] (already centered/scaled). `t` is a stroke half-width.
bool shape_member(int cls, double x, double y) {
  constexpr double r = 0.85;   // nominal shape radius
  constexpr double t = 0.22;   // stroke half-width
  const double ax = std::abs(x), ay = std::abs(y);
  const double rad = std::sqrt(x * x + y * y);
  const bool in_box = ax <= r && ay <= r;
  switch (cls) {
    case 0:  // filled disk
      return rad <= r;
    case 1:  // square frame
      return in_box && std::max(ax, ay) >= r - 2.0 * t;
    case 2:  // plus
      return in_box && (ax <= t || ay <= t);
    case 3:  // X
      return in_box && (std::abs(x - y) <= 1.4 * t || std::abs(x + y) <= 1.4 * t);
    case 4:  // horizontal stripes
      return in_box && std::fmod(std::abs(y + 2.0), 0.66) < 0.33;
    case 5:  // vertical stripes
      return in_box && std::fmod(std::abs(x + 2.0), 0.66) < 0.33;
    case 6:  // checkerboard
      return in_box && (static_cast<int>(std::floor((x + 2.0) / 0.55)) +
                        static_cast<int>(std::floor((y + 2.0) / 0.55))) % 2 == 0;
    case 7:  // ring
      return rad <= r && rad >= r - 2.0 * t;
    case 8:  // filled triangle (apex up)
      return y >= -r && y <= r && ax <= (r - y) * 0.5;
    case 9:  // filled diamond
      return ax + ay <= r;
    case 10:  // filled square
      return in_box;
    case 11:  // horizontal bar
      return ax <= r && ay <= 1.2 * t;
    case 12:  // vertical bar
      return ay <= r && ax <= 1.2 * t;
    case 13:  // 2x2 dot grid
      return std::min({std::hypot(x - 0.45, y - 0.45), std::hypot(x + 0.45, y - 0.45),
                       std::hypot(x - 0.45, y + 0.45),
                       std::hypot(x + 0.45, y + 0.45)}) <= 1.3 * t;
    case 14:  // half disk (right)
      return rad <= r && x >= 0.0;
    case 15:  // L-shape
      return (ay <= r && x >= -r && x <= -r + 2.0 * t) ||
             (ax <= r && y >= r - 2.0 * t && y <= r);
    case 16:  // T-shape
      return (ax <= r && y <= -r + 2.0 * t && y >= -r) || (ay <= r && ax <= t);
    case 17:  // single diagonal stroke
      return in_box && std::abs(x - y) <= 1.4 * t;
    case 18:  // four corner dots
      return std::min({std::hypot(x - r, y - r), std::hypot(x + r, y - r),
                       std::hypot(x - r, y + r), std::hypot(x + r, y + r)}) <=
             1.6 * t;
    case 19:  // ring + center dot
      return (rad <= r && rad >= r - 1.6 * t) || rad <= 1.2 * t;
    default:
      throw std::invalid_argument("shape_member: unknown class");
  }
}

}  // namespace

void render_shape(int label, int num_classes, const SyntheticConfig& config,
                  std::uint64_t sample_seed, float* img) {
  if (label < 0 || label >= num_classes || num_classes > 20) {
    throw std::invalid_argument("render_shape: bad label/class count");
  }
  Rng rng(hash_mix(config.seed, sample_seed, 0xF00DULL));
  const int hw = config.image_size;
  const double half = (hw - 1) / 2.0;

  const double cx = half + rng.uniform(-config.jitter, config.jitter);
  const double cy = half + rng.uniform(-config.jitter, config.jitter);
  const double scale = rng.uniform(config.scale_lo, config.scale_hi) * half;

  // Foreground / background colors with guaranteed per-image contrast.
  float fg[3], bg[3];
  if (config.channels == 1) {
    bg[0] = static_cast<float>(rng.uniform(0.0, 0.3));
    fg[0] = static_cast<float>(rng.uniform(0.7, 1.0));
  } else {
    // Random base colors; push them apart along a random channel mix until
    // mean contrast is at least 0.4.
    for (int c = 0; c < 3; ++c) {
      bg[c] = static_cast<float>(rng.uniform(0.0, 1.0));
      fg[c] = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    double contrast = 0.0;
    for (int c = 0; c < 3; ++c) contrast += std::abs(fg[c] - bg[c]);
    if (contrast < 1.2) {
      for (int c = 0; c < 3; ++c) {
        fg[c] = std::clamp(fg[c] + (fg[c] >= bg[c] ? 0.5f : -0.5f), 0.0f, 1.0f);
      }
    }
  }

  for (int y = 0; y < hw; ++y) {
    for (int x = 0; x < hw; ++x) {
      const double nx = (x - cx) / scale;
      const double ny = (y - cy) / scale;
      const bool member = shape_member(label, nx, ny);
      for (int c = 0; c < config.channels; ++c) {
        const float base = member ? fg[std::min(c, 2)] : bg[std::min(c, 2)];
        const float noisy =
            base + rng.normal() * static_cast<float>(config.noise_std);
        img[(c * hw + y) * hw + x] = std::clamp(noisy, 0.0f, 1.0f);
      }
    }
  }
}

Dataset make_synthetic(const SyntheticConfig& config, bool train) {
  const int n = train ? config.n_train : config.n_test;
  Dataset d;
  d.num_classes = config.num_classes;
  d.images = Tensor(
      {n, config.channels, config.image_size, config.image_size});
  d.labels.resize(static_cast<std::size_t>(n));
  const long stride =
      config.channels * config.image_size * config.image_size;
  // Domain separation: test sample seeds live in a disjoint index range.
  const std::uint64_t split_base = train ? 0ULL : 0x80000000ULL;
  for (int i = 0; i < n; ++i) {
    const int label = i % config.num_classes;
    d.labels[static_cast<std::size_t>(i)] = label;
    render_shape(label, config.num_classes, config,
                 split_base + static_cast<std::uint64_t>(i),
                 d.images.data() + i * stride);
  }
  return d;
}

}  // namespace ber
