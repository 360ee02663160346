// Digest-keyed interner for compiled active programs. A service's capsule
// carries the same instruction stream on every packet, so the switch parser
// decodes and compiles it once and subsequent packets execute the shared,
// read-only CompiledProgram: the steady-state packet path performs no
// program decode and no per-packet program allocation.
//
// Keys are 64-bit FNV-1a digests over the preload flags and the raw
// instruction bytes. Digest collisions are detected (the stored artifact's
// wire bytes are compared on every hit) and resolved by recompiling, so a
// collision can never execute the wrong program. Capacity is bounded with
// LRU eviction; evicted artifacts stay alive for as long as any in-flight
// packet still holds the shared_ptr.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>

#include "active/compiled_program.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
}  // namespace artmt::telemetry

namespace artmt::active {

class ProgramCache {
 public:
  using HashFn = u64 (*)(std::span<const u8> wire_code, bool preload_mar,
                         bool preload_mbr);

  static constexpr std::size_t kDefaultCapacity = 1024;

  // `hash` is injectable so tests can force collisions; production code
  // uses the default digest.
  explicit ProgramCache(std::size_t capacity = kDefaultCapacity,
                        HashFn hash = &CompiledProgram::compute_digest);

  // Returns the interned artifact for the given wire instruction stream
  // (2 bytes per instruction, EOF excluded), compiling on first sight.
  // Throws ParseError when the stream contains an unknown opcode or an
  // out-of-range argument operand.
  std::shared_ptr<const CompiledProgram> intern(std::span<const u8> wire_code,
                                                bool preload_mar,
                                                bool preload_mbr);

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 collisions = 0;  // digest matched, bytes differed
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

  // Adds the Stats totals to `metrics` as "program_cache" counters; call
  // once per snapshot.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

 private:
  struct Entry {
    std::shared_ptr<const CompiledProgram> program;
    std::list<u64>::iterator lru_it;
  };

  std::shared_ptr<const CompiledProgram> insert(
      u64 digest, std::shared_ptr<const CompiledProgram> program);
  void touch(Entry& entry);

  std::size_t capacity_;
  HashFn hash_;
  Stats stats_;
  std::list<u64> lru_;  // front = most recently used
  std::unordered_map<u64, Entry> entries_;
};

}  // namespace artmt::active
