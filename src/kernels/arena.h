// Reusable scratch memory for the compute backends.
//
// GEMM packing buffers, column matrices and inference activations are
// large, short-lived and requested with the same handful of shapes call
// after call. A chunked bump arena keeps that memory alive across calls:
// alloc() is a pointer bump into an existing chunk once capacity has
// converged, so the steady state of a sweep / serving loop performs no heap
// allocation in the conv/GEMM hot path.
//
// Chunks are allocated uninitialized and never moved or freed while the
// arena lives. Uninitialized means reserved-but-unused capacity is never
// committed: geometric growth reserves address space, and the OS backs only
// the pages an alloc() actually wrote, so resident memory follows the peak
// bytes in use, not capacity(). Stable chunks mean pointers handed out stay
// valid even when a later alloc() has to grow the arena, which lets a conv
// lowering hold its column matrix while the nested GEMM allocates packing
// buffers.
//
// Two regions, each its own chunk list. alloc() bumps in the current one
// (region 0 unless set_region() chose otherwise); nested use follows stack
// discipline per region via ArenaScope, which rewinds the region that was
// current at its construction to its construction-time watermark. The
// outermost inference forward (nn/sequential.h) alternates layers between
// the regions, so a layer's output and scratch reuse the bytes of the
// output two layers back: at most two activations are live at once.
//
// One arena per thread (tls_arena()): backends and conv lowering are called
// from evaluator / serving worker threads concurrently, and a thread-local
// arena makes the whole scheme lock-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ber::kernels {

class Arena {
 public:
  static constexpr int kRegions = 2;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `n` floats of scratch (uninitialized) from the current region.
  // The pointer stays valid until the enclosing ArenaScope unwinds past the
  // allocation (or reset()).
  float* alloc(std::size_t n);

  // Byte / int32 views of float-granular scratch for the int8 kernels —
  // same lifetime rules, 4-byte aligned.
  std::uint8_t* alloc_bytes(std::size_t n) {
    return reinterpret_cast<std::uint8_t*>(
        alloc((n + sizeof(float) - 1) / sizeof(float)));
  }
  std::int32_t* alloc_i32(std::size_t n) {
    return reinterpret_cast<std::int32_t*>(alloc(n));
  }

  // The region alloc() draws from; set_region(r) switches it (r is 0 or 1).
  int region() const { return region_; }
  void set_region(int r) { region_ = r; }

  // Rewinds every chunk of both regions to empty; capacity is retained.
  void reset();

  // Introspection (tests prove reuse across calls; Sequential meters its
  // forwards). Counts are floats, summed over both regions.
  std::size_t capacity() const;  // reserved across all chunks
  std::size_t used() const { return used_[0] + used_[1]; }
  std::size_t chunk_count() const {
    return regions_[0].size() + regions_[1].size();
  }
  // Peak used() since the last reset_peak() (or since construction).
  std::size_t peak() const { return peak_; }
  void reset_peak() { peak_ = used(); }

 private:
  friend class ArenaScope;
  struct Chunk {
    std::unique_ptr<float[]> buf;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  std::vector<Chunk> regions_[kRegions];
  std::size_t used_[kRegions] = {0, 0};
  int region_ = 0;
  std::size_t peak_ = 0;
  std::size_t hwm_ = 0;  // lifetime peak of used(), for the process gauge
};

// RAII watermark on the region current at construction: allocations made
// there after construction are released (made reusable) on destruction.
// Scopes on one region must nest like a stack.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  int region_;
  std::size_t saved_total_;
  std::vector<std::size_t> saved_used_;  // per-chunk watermark at entry
};

// The calling thread's scratch arena.
Arena& tls_arena();

}  // namespace ber::kernels
