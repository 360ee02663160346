#include "active/program_cache.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace artmt::active {

ProgramCache::ProgramCache(std::size_t capacity, HashFn hash)
    : capacity_(std::max<std::size_t>(1, capacity)), hash_(hash) {}

void ProgramCache::export_metrics(telemetry::MetricsRegistry& metrics) const {
  metrics.counter("program_cache", "hits").merge_add(stats_.hits);
  metrics.counter("program_cache", "misses").merge_add(stats_.misses);
  metrics.counter("program_cache", "evictions").merge_add(stats_.evictions);
  metrics.counter("program_cache", "collisions").merge_add(stats_.collisions);
}

void ProgramCache::touch(Entry& entry) {
  if (entry.lru_it == lru_.begin()) return;  // already most recent
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

std::shared_ptr<const CompiledProgram> ProgramCache::insert(
    u64 digest, std::shared_ptr<const CompiledProgram> program) {
  const auto it = entries_.find(digest);
  if (it != entries_.end()) {
    // Collision replacement: the new artifact takes over the slot; any
    // holder of the old shared_ptr keeps a valid program.
    it->second.program = program;
    touch(it->second);
    return program;
  }
  if (entries_.size() >= capacity_) {
    const u64 victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(digest);
  entries_.emplace(digest, Entry{program, lru_.begin()});
  return program;
}

std::shared_ptr<const CompiledProgram> ProgramCache::intern(
    std::span<const u8> wire_code, bool preload_mar, bool preload_mbr) {
  const u64 digest = hash_(wire_code, preload_mar, preload_mbr);
  const auto it = entries_.find(digest);
  if (it != entries_.end()) {
    const CompiledProgram& cached = *it->second.program;
    if (cached.preload_mar() == preload_mar &&
        cached.preload_mbr() == preload_mbr &&
        cached.wire_code().size() == wire_code.size() &&
        std::equal(wire_code.begin(), wire_code.end(),
                   cached.wire_code().begin())) {
      ++stats_.hits;
      touch(it->second);
      return it->second.program;
    }
    ++stats_.collisions;
  }
  ++stats_.misses;
  auto compiled = std::make_shared<const CompiledProgram>(
      CompiledProgram::compile(wire_code, preload_mar, preload_mbr));
  return insert(digest, std::move(compiled));
}

void ProgramCache::clear() {
  lru_.clear();
  entries_.clear();
}

}  // namespace artmt::active
