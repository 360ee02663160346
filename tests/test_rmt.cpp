// Tests for the RMT substrate: register arrays, stages (match entries,
// TCAM accounting, translation masks), the pipeline, and hash engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_set>

#include "alloc_counter.hpp"
#include "rmt/hash.hpp"
#include "rmt/pipeline.hpp"

namespace artmt::rmt {
namespace {

// ---------- register array ----------

TEST(RegisterArray, ReadWrite) {
  RegisterArray arr(8);
  arr.write(3, 42);
  EXPECT_EQ(arr.read(3), 42u);
  EXPECT_EQ(arr.read(0), 0u);
}

TEST(RegisterArray, OutOfRangeThrows) {
  RegisterArray arr(4);
  EXPECT_THROW((void)arr.read(4), UsageError);
  EXPECT_THROW(arr.write(5, 1), UsageError);
}

TEST(RegisterArray, IncrementReturnsNewValue) {
  RegisterArray arr(2);
  EXPECT_EQ(arr.increment(0, 3), 3u);
  EXPECT_EQ(arr.increment(0, 3), 6u);
}

TEST(RegisterArray, IncrementWrapsLikeHardware) {
  RegisterArray arr(1);
  arr.write(0, 0xffffffff);
  EXPECT_EQ(arr.increment(0, 2), 1u);
}

TEST(RegisterArray, MinRead) {
  RegisterArray arr(1);
  arr.write(0, 10);
  EXPECT_EQ(arr.min_read(0, 7), 7u);
  EXPECT_EQ(arr.min_read(0, 12), 10u);
  EXPECT_EQ(arr.read(0), 10u);  // non-mutating
}

TEST(RegisterArray, DumpLoadFill) {
  RegisterArray arr(10);
  arr.fill(2, 3, 9);
  const auto words = arr.dump(1, 5);
  EXPECT_EQ(words, (std::vector<Word>{0, 9, 9, 9, 0}));
  EXPECT_THROW((void)arr.dump(8, 5), UsageError);
  EXPECT_THROW(arr.fill(9, 2, 0), UsageError);
}

// A zero fill skips chunks with no stored line and releases only the lines
// it covers whole. A word written in chunk k must survive a zero fill that
// covers only part of chunk k, or only part of the word's own 16-word line,
// and the next fill over the word must still clear it (a partly covered
// line keeps its storage).
TEST(RegisterArray, PartialZeroFillKeepsChunkDirty) {
  constexpr u32 kChunk = RegisterArray::kChunkWords;
  RegisterArray arr(4 * kChunk);
  const u32 k = 2;
  const u32 word = k * kChunk + 200;  // line [192, 208) of chunk k
  arr.write(word, 0xabcd);
  arr.fill(k * kChunk, 100, 0);  // chunk k, words [0, 100)
  EXPECT_EQ(arr.read(word), 0xabcdu);
  arr.fill(k * kChunk + 192, 8, 0);  // the line, up to the word
  arr.fill(word + 1, 7, 0);          // the line, after the word
  EXPECT_EQ(arr.read(word), 0xabcdu);
  arr.fill(k * kChunk + 100, kChunk - 100, 0);  // the rest of chunk k
  EXPECT_EQ(arr.read(word), 0u);
  // A fill over all of chunk k releases its lines; an increment stores the
  // word's line again, so the next zero fill still clears the word.
  arr.fill(k * kChunk, kChunk, 0);
  arr.increment(word, 5);
  arr.fill(0, arr.size(), 0);
  EXPECT_EQ(arr.read(word), 0u);
}

// Differential check of the line store against a plain vector: a seeded
// mix of every mutator, with fills over ranges that start and end mid-line
// and mid-chunk, span several chunks, reach the final partial chunk and
// line, or are empty. Every word is compared after every op.
void run_fill_differential(u32 size, u64 seed) {
  constexpr u32 kChunk = RegisterArray::kChunkWords;
  RegisterArray arr(size);
  std::vector<Word> model(size, 0);
  std::mt19937_64 rng(seed);
  const auto below = [&rng](u32 n) { return static_cast<u32>(rng() % n); };
  const auto pick_start = [&]() -> u32 {
    switch (below(4)) {
      case 0:  // a chunk boundary
        return std::min(size, below(size / kChunk + 1) * kChunk);
      case 1:  // near the end, often inside the final partial chunk
        return size - std::min(size, below(2 * kChunk));
      default:
        return below(size + 1);
    }
  };
  const auto pick_count = [&](u32 start) -> u32 {
    const u32 room = size - start;
    switch (below(4)) {
      case 0:
        return 0;
      case 1:
        return std::min(room, below(kChunk));
      case 2:  // several chunks
        return std::min(room, below(4 * kChunk));
      default:
        return room;  // through the final chunk
    }
  };

  for (int op = 0; op < 10'000; ++op) {
    const u32 index = below(size);
    const Word value = static_cast<Word>(rng());
    switch (below(8)) {
      case 0:
        arr.write(index, value);
        model[index] = value;
        break;
      case 1:
      case 2:
        model[index] += value;
        ASSERT_EQ(arr.increment(index, value), model[index]);
        break;
      default: {  // fills: zero in four cases of five
        const u32 start = pick_start();
        const u32 count = pick_count(start);
        const Word fill = below(5) == 0 ? (value | 1) : 0;
        arr.fill(start, count, fill);
        std::fill(model.begin() + start, model.begin() + start + count, fill);
        break;
      }
    }
    const std::vector<Word> words = arr.dump(0, size);
    if (words != model) {
      const auto diff =
          std::mismatch(words.begin(), words.end(), model.begin());
      FAIL() << "size " << size << ", op " << op << ": word "
             << (diff.first - words.begin()) << " is " << *diff.first
             << ", expected " << *diff.second;
    }
  }
}

TEST(RegisterArray, DirtyChunkFillMatchesPlainVector) {
  run_fill_differential(1'000, 1);   // final chunk is partial (232 words)
  run_fill_differential(94'208, 2);  // one stage: 368 whole chunks
}

// Register memory stores only the 64-byte lines tenants write: a default
// pipeline's 20 stages of 94,208 zero words would request 7.2 MiB. A stage
// nobody writes owns no heap at all, reads never allocate, the first write
// gives a stage its slot table, and a store of lines that doubles as it
// grows; a zero fill over the whole array gives every line back, and later
// first writes reuse them.
TEST(RegisterArray, StorageFollowsWrittenLines) {
  const unsigned long long construct_before = g_alloc_bytes;
  Pipeline pipeline(PipelineConfig{});
  EXPECT_LT(g_alloc_bytes - construct_before, 32u << 10);

  const unsigned long long read_before = g_alloc_count;
  Word seen = 0;
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    const RegisterArray& memory = pipeline.stage(s).memory();
    for (u32 i = 0; i < memory.size(); ++i) seen |= memory.read(i);
  }
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(g_alloc_count - read_before, 0u);

  // A zero fill of a stage nobody wrote returns at once.
  const unsigned long long clear_before = g_alloc_count;
  pipeline.stage(3).memory().fill(0, pipeline.stage(3).memory().size(), 0);
  EXPECT_EQ(g_alloc_count - clear_before, 0u);

  // 512 writes store at most 512 lines (32 KiB); doubling requests at most
  // as much again on the way, beside the slot table and chunk mask (2
  // bytes per line and per chunk) that the first write allocates.
  RegisterArray& memory = pipeline.stage(3).memory();
  const unsigned long long table_bytes =
      2 * (memory.size() / RegisterArray::kLineWords +
           memory.size() / RegisterArray::kChunkWords);
  std::mt19937_64 rng(27);
  std::vector<u32> written;
  written.reserve(512);
  std::unordered_set<u32> written_lines;
  const unsigned long long write_before = g_alloc_bytes;
  for (u32 i = 0; i < 512; ++i) {
    written.push_back(static_cast<u32>(rng() % memory.size()));
    memory.write(written.back(), i + 1);
  }
  EXPECT_LE(g_alloc_bytes - write_before, (64u << 10) + table_bytes);
  for (const u32 index : written) written_lines.insert(index / 16);
  for (u32 i = 0; i < 512; ++i) {
    // The last write to a word wins.
    const auto last = std::find(written.rbegin(), written.rend(), written[i]);
    EXPECT_EQ(memory.read(written[i]),
              static_cast<Word>(written.rend() - last));
  }

  memory.fill(0, memory.size(), 0);
  for (const u32 index : written) EXPECT_EQ(memory.read(index), 0u);
  const unsigned long long reuse_before = g_alloc_count;
  for (u32 i = 0; i < 512; ++i) {
    u32 index = 0;
    do {
      index = static_cast<u32>(rng() % memory.size());
    } while (written_lines.contains(index / 16));
    memory.write(index, 0xbeef);
    EXPECT_EQ(memory.read(index), 0xbeefu);
  }
  EXPECT_EQ(g_alloc_count - reuse_before, 0u);
}

// Slots are u16 with slot 0 the zero line, so a stage holds at most 65,535
// lines; a larger stage is rejected, and the largest one works.
TEST(RegisterArray, StageAboveU16LinesIsRejected) {
  constexpr u32 kMax = 65'535 * 16;
  EXPECT_THROW(RegisterArray{kMax + 1}, UsageError);
  PipelineConfig config;
  config.logical_stages = 2;
  config.ingress_stages = 1;
  config.words_per_stage = kMax + 1;
  EXPECT_THROW(Pipeline{config}, UsageError);

  config.words_per_stage = kMax;
  Pipeline pipeline(config);
  RegisterArray& memory = pipeline.stage(1).memory();
  for (u32 line = 0; line < kMax / 16; ++line) memory.write(line * 16, line);
  for (u32 line = 0; line < kMax / 16; ++line) {
    ASSERT_EQ(memory.read(line * 16), line);
  }
  EXPECT_EQ(memory.read(kMax - 1), 0u);
}

// A move hands the line storage over: the target reads back every word,
// the source reads as zeros, and later writes to one do not show in the
// other.
TEST(RegisterArray, MovedArrayKeepsItsWords) {
  constexpr u32 kSize = 3'000;
  RegisterArray source(kSize);
  std::vector<Word> model(kSize, 0);
  for (u32 i = 0; i < kSize; i += 7) {
    source.write(i, i * 2 + 1);
    model[i] = i * 2 + 1;
  }
  RegisterArray moved(std::move(source));
  EXPECT_EQ(moved.dump(0, kSize), model);
  // NOLINTNEXTLINE(bugprone-use-after-move): a moved-from array is zeros
  EXPECT_EQ(source.dump(0, kSize), std::vector<Word>(kSize, 0));

  source.write(7, 99);
  EXPECT_EQ(moved.read(7), model[7]);
  moved.write(14, 5);
  EXPECT_EQ(source.read(14), 0u);
  EXPECT_EQ(source.read(7), 99u);
  model[14] = 5;

  RegisterArray assigned(16);
  assigned.write(3, 42);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), kSize);
  EXPECT_EQ(assigned.dump(0, kSize), model);
  // NOLINTNEXTLINE(bugprone-use-after-move): a moved-from array is zeros
  EXPECT_EQ(moved.dump(0, kSize), std::vector<Word>(kSize, 0));
  moved.write(21, 8);
  assigned.fill(0, kSize, 0);
  EXPECT_EQ(moved.read(21), 8u);
  EXPECT_EQ(assigned.read(21), 0u);
}

// ---------- translation mask ----------

TEST(TranslationMask, PowerOfTwoRegion) {
  EXPECT_EQ(translation_mask(0, 256), 255u);
  EXPECT_EQ(translation_mask(100, 356), 255u);
}

TEST(TranslationMask, NonPowerRoundsDown) {
  EXPECT_EQ(translation_mask(0, 300), 255u);
  EXPECT_EQ(translation_mask(0, 255), 127u);
}

TEST(TranslationMask, DegenerateRegions) {
  EXPECT_EQ(translation_mask(5, 5), 0u);
  EXPECT_EQ(translation_mask(5, 6), 0u);
  EXPECT_EQ(translation_mask(5, 7), 1u);
}

// Property: offset + mask always lands inside the region.
TEST(TranslationMask, PropertyStaysInRegion) {
  for (u32 size = 1; size < 1000; size += 7) {
    const Word mask = translation_mask(40, 40 + size);
    EXPECT_LT(40u + mask, 40u + size);
  }
}

// ---------- stage ----------

TEST(Stage, InstallAndLookup) {
  Stage stage(1024, 4);
  ASSERT_TRUE(stage.install(7, 256, 512, 100));
  const FidEntry* entry = stage.lookup(7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->start_word, 256u);
  EXPECT_EQ(entry->limit_word, 512u);
  EXPECT_EQ(entry->offset, 256u);
  EXPECT_EQ(entry->mask, 255u);
  EXPECT_EQ(entry->advance, 100);
  EXPECT_TRUE(entry->covers(256));
  EXPECT_TRUE(entry->covers(511));
  EXPECT_FALSE(entry->covers(512));
}

TEST(Stage, TcamCapacityEnforced) {
  Stage stage(1024, 2);
  EXPECT_TRUE(stage.install(1, 0, 10));
  EXPECT_TRUE(stage.install(2, 10, 20));
  EXPECT_FALSE(stage.install(3, 20, 30));  // full
  EXPECT_EQ(stage.tcam_used(), 2u);
  // Replacing an existing entry does not consume a new slot.
  EXPECT_TRUE(stage.install(1, 0, 16));
  stage.remove(2);
  EXPECT_TRUE(stage.install(3, 20, 30));
}

TEST(Stage, RemoveIsIdempotent) {
  Stage stage(64, 4);
  stage.install(1, 0, 8);
  stage.remove(1);
  stage.remove(1);
  EXPECT_EQ(stage.lookup(1), nullptr);
}

TEST(Stage, OutOfBoundsRegionThrows) {
  Stage stage(64, 4);
  EXPECT_THROW((void)stage.install(1, 0, 65), UsageError);
  EXPECT_THROW((void)stage.install(1, 10, 5), UsageError);
}

// ---------- pipeline ----------

TEST(Pipeline, DefaultGeometryMatchesPaper) {
  PipelineConfig cfg;
  Pipeline pipe(cfg);
  EXPECT_EQ(pipe.stage_count(), 20u);
  EXPECT_EQ(cfg.blocks_per_stage(), 368u);  // 94208 words / 256-word blocks
  EXPECT_EQ(pipe.total_words(), 94'208ull * 20);
}

TEST(Pipeline, IngressEgressSplit) {
  Pipeline pipe(PipelineConfig{});
  EXPECT_TRUE(pipe.is_ingress(0));
  EXPECT_TRUE(pipe.is_ingress(9));
  EXPECT_FALSE(pipe.is_ingress(10));
  EXPECT_FALSE(pipe.is_ingress(19));
  // Recirculated global stages wrap.
  EXPECT_TRUE(pipe.is_ingress(20));
  EXPECT_FALSE(pipe.is_ingress(35));
}

TEST(Pipeline, BadConfigThrows) {
  PipelineConfig cfg;
  cfg.ingress_stages = 25;
  EXPECT_THROW(Pipeline{cfg}, UsageError);
  cfg = PipelineConfig{};
  cfg.block_words = 0;
  EXPECT_THROW(Pipeline{cfg}, UsageError);
}

TEST(Pipeline, TcamAccounting) {
  PipelineConfig cfg;
  Pipeline pipe(cfg);
  pipe.stage(0).install(1, 0, 10);
  pipe.stage(5).install(1, 0, 10);
  pipe.stage(5).install(2, 10, 20);
  EXPECT_EQ(pipe.total_tcam_used(), 3u);
}

TEST(Pipeline, StageIndexChecked) {
  Pipeline pipe(PipelineConfig{});
  EXPECT_THROW((void)pipe.stage(20), UsageError);
}

// ---------- hash ----------

TEST(Hash, Crc32cKnownVector) {
  // CRC32C("123456789") = 0xE3069283
  const std::string s = "123456789";
  const std::vector<u8> bytes(s.begin(), s.end());
  EXPECT_EQ(crc32c(bytes), 0xe3069283u);
}

TEST(Hash, Deterministic) {
  const std::vector<Word> words{1, 2, 3};
  EXPECT_EQ(hash_words(words), hash_words(words));
}

TEST(Hash, EnginesIndependent) {
  const std::vector<Word> words{42, 43};
  EXPECT_NE(hash_words(words, 0), hash_words(words, 1));
  EXPECT_NE(hash_words(words, 1), hash_words(words, 2));
}

TEST(Hash, SensitiveToInput) {
  EXPECT_NE(hash_words(std::vector<Word>{1, 2}),
            hash_words(std::vector<Word>{2, 1}));
}

// hash_words is CRC32C over the big-endian bytes of the engine's seed word
// followed by each word, built here as an explicit buffer.
TEST(Rmt, HashWordsMatchesCrcOfBigEndianBytes) {
  std::mt19937 gen(0x4a5b);
  for (u32 engine = 0; engine < 8; ++engine) {
    for (std::size_t n = 0; n <= 8; ++n) {
      std::vector<Word> words(n);
      for (Word& w : words) w = gen();
      std::vector<u8> bytes;
      const auto append = [&bytes](Word w) {
        for (int shift = 24; shift >= 0; shift -= 8) {
          bytes.push_back(static_cast<u8>(w >> shift));
        }
      };
      append(0x9e3779b9u * (engine + 1));
      for (Word w : words) append(w);
      EXPECT_EQ(hash_words(words, engine), crc32c(bytes))
          << "engine " << engine << ", " << n << " words";
    }
  }
}

TEST(Hash, ReasonablyUniform) {
  // Bucket 10k hashes into 16 bins; no bin should be wildly off 625.
  std::array<int, 16> bins{};
  for (Word i = 0; i < 10000; ++i) {
    const std::vector<Word> words{i, i * 31};
    bins[hash_words(words) % 16]++;
  }
  for (int count : bins) {
    EXPECT_GT(count, 400);
    EXPECT_LT(count, 900);
  }
}

}  // namespace
}  // namespace artmt::rmt
