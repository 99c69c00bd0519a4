#include "nn/sequential.h"

#include <functional>
#include <optional>
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

// Alternates the outermost inference loop between the arena's two regions.
// next() runs before each executed layer: it rewinds the region that holds
// the output of two layers back (dead: the previous layer already consumed
// it) and makes that region current, so the layer's output and scratch
// reuse its bytes while the input, in the other region, stays intact.
// Destruction rewinds both regions to their state at construction and
// restores the region that was current then.
class Sequential::ArenaPingPong {
 public:
  explicit ArenaPingPong(kernels::Arena& arena)
      : arena_(arena), entry_(arena.region()) {}
  ~ArenaPingPong() {
    for (auto& s : slot_) s.reset();
    arena_.set_region(entry_);
  }
  void next() {
    const int r = entry_ ^ static_cast<int>(step_++ & 1);
    slot_[r].reset();
    arena_.set_region(r);
    slot_[r].emplace(arena_);
  }

 private:
  kernels::Arena& arena_;
  const int entry_;
  unsigned step_ = 0;
  std::optional<kernels::ArenaScope> slot_[kernels::Arena::kRegions];
};

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
    // the layers' GEMM scratch beneath them) out of the thread arena,
    // ping-ponging between its two regions so at most two activations are
    // live. Once the arena's capacity has converged, repeated forwards
    // perform no heap allocation; only the network output is copied back
    // to the heap. Nested containers (inner Sequentials, Residual bodies)
    // see the toggle already on and bump inside their layer's region, so
    // a skip input in the other region survives the body.
    kernels::Arena& arena = kernels::tls_arena();
    const std::size_t used_before = arena.used();
    arena.reset_peak();
    Tensor result;
    {
      kernels::ArenaScope scope(arena);
      ArenaPingPong slots(arena);
      Tensor cur;
      {
        ArenaTensorRegion region;
        cur = run_layers(x, false, nullptr, &slots);
        last_forward_arena_bytes_ =
            (arena.peak() - used_before) * sizeof(float);
      }
      result = cur;  // toggle is off again: deep copy to the heap
    }
    return result;
  }
  return run_layers(x, training);
}

Tensor Sequential::run_layers(const Tensor& x, bool training,
                              const ActivationObserver* observer,
                              ArenaPingPong* slots) {
  if (layers_.empty()) return x;
  // `in` aliases x until the first layer has run: copying x would put a
  // third activation in the arena.
  const Tensor* in = &x;
  Tensor cur;
  for (std::size_t i = 0; i < layers_.size(); ++i, in = &cur) {
    Layer* l = layers_[i].get();
    if (slots != nullptr) slots->next();
    if (!training) {
      auto* cc = dynamic_cast<CodeComputeLayer*>(l);
      if (cc != nullptr && cc->code_compute_active()) {
        const bool fuse_relu =
            i + 1 < layers_.size() &&
            dynamic_cast<ReLU*>(layers_[i + 1].get()) != nullptr;
        cur = cc->forward_on_codes(*in, fuse_relu);
        if (observer != nullptr) (*observer)(i, *l, cur);
        if (fuse_relu) ++i;  // the epilogue already applied the ReLU
        continue;
      }
    }
    cur = l->forward(*in, training);
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
