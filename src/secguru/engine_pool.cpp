#include "secguru/engine_pool.hpp"

namespace dcv::secguru {

FastEnginePool::FastEnginePool(std::size_t size, FastEngineConfig config,
                               obs::MetricsRegistry* metrics) {
  if (size == 0) size = 1;
  engines_.reserve(size);
  free_slots_.reserve(size);
  for (std::size_t slot = 0; slot < size; ++slot) {
    engines_.push_back(std::make_unique<FastEngine>(config, metrics));
    free_slots_.push_back(size - 1 - slot);  // hand out slot 0 first
  }
  if (metrics != nullptr) {
    leased_gauge_ = &metrics->gauge("dcv_gate_nsg_engines_leased",
                                    "FastEngines currently leased from the "
                                    "NSG-check pool");
  }
}

FastEnginePool::Lease FastEnginePool::acquire() {
  std::unique_lock lock(mutex_);
  free_cv_.wait(lock, [this] { return !free_slots_.empty(); });
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  if (leased_gauge_ != nullptr) {
    leased_gauge_->set(
        static_cast<double>(engines_.size() - free_slots_.size()));
  }
  return Lease(this, engines_[slot].get(), slot);
}

std::size_t FastEnginePool::available() const {
  const std::lock_guard lock(mutex_);
  return free_slots_.size();
}

void FastEnginePool::release(std::size_t slot) {
  {
    const std::lock_guard lock(mutex_);
    free_slots_.push_back(slot);
    if (leased_gauge_ != nullptr) {
      leased_gauge_->set(
          static_cast<double>(engines_.size() - free_slots_.size()));
    }
  }
  free_cv_.notify_one();
}

FastEnginePool::Lease::~Lease() {
  if (owner_ != nullptr) owner_->release(slot_);
}

}  // namespace dcv::secguru
