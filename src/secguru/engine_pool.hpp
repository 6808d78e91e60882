#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "secguru/fast_engine.hpp"

namespace dcv::secguru {

/// A fixed pool of FastEngines with blocking lease semantics.
///
/// A FastEngine (like the Z3 Engine it falls back to) must not be used
/// from several threads at once, but the change-gate server runs NSG
/// checks on concurrent worker threads. The pool keeps `size` engines warm
/// — each with its own lazily created Z3 fallback context — and hands them
/// out one caller at a time: acquire() blocks until an engine is free and
/// returns an RAII lease that releases it on destruction. Engine count,
/// not caller count, bounds Z3-context memory.
class FastEnginePool {
 public:
  explicit FastEnginePool(std::size_t size, FastEngineConfig config = {},
                          obs::MetricsRegistry* metrics = nullptr);

  FastEnginePool(const FastEnginePool&) = delete;
  FastEnginePool& operator=(const FastEnginePool&) = delete;

  /// Exclusive hold on one pooled engine; returns it on destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : owner_(other.owner_), engine_(other.engine_), slot_(other.slot_) {
      other.owner_ = nullptr;
      other.engine_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] FastEngine& operator*() const { return *engine_; }
    [[nodiscard]] FastEngine* operator->() const { return engine_; }

   private:
    friend class FastEnginePool;
    Lease(FastEnginePool* pool, FastEngine* engine, std::size_t slot)
        : owner_(pool), engine_(engine), slot_(slot) {}

    FastEnginePool* owner_;
    FastEngine* engine_;
    std::size_t slot_;
  };

  /// Blocks until an engine is free. Leases are served in wake-up order;
  /// with the gate's bounded worker pool the wait is bounded by one NSG
  /// check per pooled engine.
  [[nodiscard]] Lease acquire();

  [[nodiscard]] std::size_t size() const { return engines_.size(); }
  /// Engines not currently leased (approximate under concurrency).
  [[nodiscard]] std::size_t available() const;

 private:
  void release(std::size_t slot);

  std::vector<std::unique_ptr<FastEngine>> engines_;
  mutable std::mutex mutex_;
  std::condition_variable free_cv_;
  std::vector<std::size_t> free_slots_;
  obs::Gauge* leased_gauge_ = nullptr;
};

}  // namespace dcv::secguru
