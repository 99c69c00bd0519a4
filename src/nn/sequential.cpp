#include "nn/sequential.h"

#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/serialize.h"
#include "kernels/arena.h"
#include "nn/activation.h"
#include "nn/code_compute.h"

namespace ber {

namespace {

// Exception-safe arena-tensor toggle for the inference region.
struct ArenaTensorRegion {
  ArenaTensorRegion() { set_arena_tensors_enabled(true); }
  ~ArenaTensorRegion() { set_arena_tensors_enabled(false); }
};

}  // namespace

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool training) {
  if (!training && !arena_tensors_enabled()) {
    // Outermost inference forward: run every intermediate activation (and
    // the layers' im2col/GEMM scratch beneath them) out of the thread
    // arena. Once the arena's capacity has converged, repeated forwards
    // perform no heap allocation; only the network output is copied back
    // to the heap. Nested containers (inner Sequentials, Residual bodies)
    // see the toggle already on and just run their layer loop.
    kernels::Arena& arena = kernels::tls_arena();
    const std::size_t used_before = arena.used();
    Tensor result;
    {
      kernels::ArenaScope scope(arena);
      Tensor cur;
      {
        ArenaTensorRegion region;
        cur = run_layers(x, false);
        last_forward_arena_bytes_ =
            (arena.used() - used_before) * sizeof(float);
      }
      result = cur;  // toggle is off again: deep copy to the heap
    }
    return result;
  }
  return run_layers(x, training);
}

Tensor Sequential::run_layers(const Tensor& x, bool training,
                              const ActivationObserver* observer) {
  Tensor cur = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer* l = layers_[i].get();
    if (!training) {
      auto* cc = dynamic_cast<CodeComputeLayer*>(l);
      if (cc != nullptr && cc->code_compute_active()) {
        const bool fuse_relu =
            i + 1 < layers_.size() &&
            dynamic_cast<ReLU*>(layers_[i + 1].get()) != nullptr;
        cur = cc->forward_on_codes(cur, fuse_relu);
        if (observer != nullptr) (*observer)(i, *l, cur);
        if (fuse_relu) ++i;  // the epilogue already applied the ReLU
        continue;
      }
    }
    cur = l->forward(cur, training);
    if (observer != nullptr) (*observer)(i, *l, cur);
  }
  return cur;
}

Tensor Sequential::forward_observed(const Tensor& x,
                                    const ActivationObserver& observer) {
  return run_layers(x, /*training=*/false, &observer);
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& l : layers_) {
    for (Param* p : l->params()) all.push_back(p);
  }
  return all;
}

std::vector<Tensor*> Sequential::buffers() {
  std::vector<Tensor*> all;
  for (auto& l : layers_) {
    for (Tensor* b : l->buffers()) all.push_back(b);
  }
  return all;
}

std::string Sequential::name() const {
  std::ostringstream os;
  os << "Sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    os << layers_[i]->name() << (i + 1 < layers_.size() ? "," : "");
  }
  os << ']';
  return os.str();
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

void Sequential::visit(const std::function<void(Layer&)>& fn) {
  for (auto& l : layers_) {
    fn(*l);
    if (auto* seq = dynamic_cast<Sequential*>(l.get())) {
      seq->visit(fn);
    } else if (auto* res = dynamic_cast<Residual*>(l.get())) {
      fn(res->body());
      res->body().visit(fn);
    }
  }
}

long Sequential::num_weights() {
  long n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

std::string Sequential::signature() {
  std::ostringstream os;
  os << name() << "#";
  for (Param* p : params()) os << p->value.shape_str();
  return os.str();
}

void Sequential::write_weights(BinaryWriter& w) {
  w.write_string(signature());
  const auto ps = params();
  w.write_pod<std::uint64_t>(ps.size());
  for (Param* p : ps) {
    w.write_string(p->name);
    w.write_vector(std::vector<long>(p->value.shape()));
    std::vector<float> data(p->value.data(), p->value.data() + p->value.numel());
    w.write_vector(data);
  }
  const auto bs = buffers();
  w.write_pod<std::uint64_t>(bs.size());
  for (Tensor* b : bs) {
    std::vector<float> data(b->data(), b->data() + b->numel());
    w.write_vector(data);
  }
}

void Sequential::read_weights(BinaryReader& r) {
  const std::string sig = r.read_string();
  if (sig != signature()) {
    throw std::runtime_error("Sequential::read_weights: architecture "
                             "mismatch:\n  file:  " + sig + "\n  model: " +
                             signature());
  }
  const auto ps = params();
  if (r.read_pod<std::uint64_t>() != ps.size()) {
    throw std::runtime_error("Sequential::read_weights: param count mismatch");
  }
  for (Param* p : ps) {
    r.read_string();  // name (informational)
    const auto shape = r.read_vector<long>();
    const auto data = r.read_vector<float>();
    if (static_cast<long>(data.size()) != p->value.numel()) {
      throw std::runtime_error("Sequential::read_weights: size mismatch for " +
                               p->name);
    }
    std::copy(data.begin(), data.end(), p->value.data());
  }
  const auto bs = buffers();
  if (r.read_pod<std::uint64_t>() != bs.size()) {
    throw std::runtime_error("Sequential::read_weights: buffer count mismatch");
  }
  for (Tensor* b : bs) {
    const auto data = r.read_vector<float>();
    if (static_cast<long>(data.size()) != b->numel()) {
      throw std::runtime_error(
          "Sequential::read_weights: buffer size mismatch");
    }
    std::copy(data.begin(), data.end(), b->data());
  }
}

}  // namespace ber
