#include "kernels/arena.h"

#include <algorithm>

#include "obs/kernel_stats.h"

namespace ber::kernels {

float* Arena::alloc(std::size_t n) {
  std::vector<Chunk>& chunks = regions_[region_];
  float* p = nullptr;
  for (Chunk& c : chunks) {
    if (c.used + n <= c.size) {
      p = c.buf.get() + c.used;
      c.used += n;
      break;
    }
  }
  if (p == nullptr) {
    // Grow geometrically so capacity converges after a few calls even when
    // shapes vary; existing chunks are left in place (stable pointers).
    // `new float[]` leaves the chunk uninitialized, so its pages are only
    // committed once written.
    std::size_t region_cap = 0;
    for (const Chunk& c : chunks) region_cap += c.size;
    Chunk c;
    c.size = std::max(n, 2 * region_cap);
    c.buf.reset(new float[c.size]);
    c.used = n;
    p = c.buf.get();
    chunks.push_back(std::move(c));
  }
  used_[region_] += n;
  const std::size_t u = used();
  if (u > peak_) {
    peak_ = u;
    // A new lifetime high is rare once a loop has converged, so the gauge
    // update stays off the steady-state alloc path.
    if (u > hwm_) {
      hwm_ = u;
      obs::note_arena_in_use(hwm_ * sizeof(float));
    }
  }
  return p;
}

void Arena::reset() {
  for (std::vector<Chunk>& chunks : regions_) {
    for (Chunk& c : chunks) c.used = 0;
  }
  used_[0] = used_[1] = 0;
}

std::size_t Arena::capacity() const {
  std::size_t total = 0;
  for (const std::vector<Chunk>& chunks : regions_) {
    for (const Chunk& c : chunks) total += c.size;
  }
  return total;
}

ArenaScope::ArenaScope(Arena& arena)
    : arena_(arena),
      region_(arena.region_),
      saved_total_(arena.used_[arena.region_]) {
  const std::vector<Arena::Chunk>& chunks = arena_.regions_[region_];
  saved_used_.reserve(chunks.size());
  for (const Arena::Chunk& c : chunks) saved_used_.push_back(c.used);
}

ArenaScope::~ArenaScope() {
  // Chunks present at entry rewind to their watermark; chunks added inside
  // the scope become fully reusable.
  std::vector<Arena::Chunk>& chunks = arena_.regions_[region_];
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].used = i < saved_used_.size() ? saved_used_[i] : 0;
  }
  arena_.used_[region_] = saved_total_;
}

Arena& tls_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace ber::kernels
