/// Micro-benchmarks (google-benchmark) for the primitives whose costs
/// explain the macro results: bitmap algebra, RLE/LZ codecs, CRC/SHA-1
/// hashing, heap-file append/scan, and commit-history checkout.

#include <benchmark/benchmark.h>

#include "bitmap/bitmap.h"
#include "bitmap/commit_history.h"
#include "common/crc32.h"
#include "common/io.h"
#include "common/lz.h"
#include "common/random.h"
#include "common/rle.h"
#include "gitlike/sha1.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace decibel {
namespace {

void BM_BitmapOr(benchmark::State& state) {
  const uint64_t nbits = static_cast<uint64_t>(state.range(0));
  Random rng(1);
  Bitmap a(nbits), b(nbits);
  for (uint64_t i = 0; i < nbits / 16; ++i) {
    a.Set(rng.Uniform(nbits));
    b.Set(rng.Uniform(nbits));
  }
  for (auto _ : state) {
    Bitmap c = Bitmap::Or(a, b);
    benchmark::DoNotOptimize(c.Count());
  }
  state.SetBytesProcessed(state.iterations() * (nbits / 8) * 2);
}
BENCHMARK(BM_BitmapOr)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitmapIterate(benchmark::State& state) {
  const uint64_t nbits = static_cast<uint64_t>(state.range(0));
  Random rng(2);
  Bitmap a(nbits);
  for (uint64_t i = 0; i < nbits / 16; ++i) a.Set(rng.Uniform(nbits));
  for (auto _ : state) {
    uint64_t sum = 0;
    a.ForEachSet([&](uint64_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitmapIterate)->Arg(1 << 16)->Arg(1 << 20);

void BM_RleEncodeSparseDelta(benchmark::State& state) {
  // The shape of a commit delta: almost all zeros.
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  Random rng(3);
  for (int i = 0; i < 32; ++i) {
    data[rng.Uniform(data.size())] = static_cast<char>(1 + rng.Uniform(255));
  }
  for (auto _ : state) {
    std::string out;
    rle::Encode(data, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RleEncodeSparseDelta)->Arg(1 << 16)->Arg(1 << 20);

void BM_LzCompress(benchmark::State& state) {
  Random rng(4);
  std::string data;
  for (int i = 0; i < state.range(0) / 16; ++i) {
    // Semi-repetitive, like serialized tuples.
    data += "tuple_" + std::to_string(rng.Uniform(64)) + ",value,";
  }
  for (auto _ : state) {
    std::string out;
    lz::Compress(data, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzCompress)->Arg(1 << 14)->Arg(1 << 18);

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 16);

void BM_Sha1(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(gitlike::Sha1Hex(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(1 << 16);

void BM_HeapFileAppend(benchmark::State& state) {
  const std::string dir = "/tmp/decibel_micro_" + std::to_string(getpid());
  RemoveDirRecursive(dir).ok();
  CreateDir(dir).ok();
  BufferPool pool(8 << 20);
  HeapFile::Options opts;
  opts.page_size = 64 << 10;
  std::string record(128, 'r');
  int file_no = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto file = HeapFile::Create(
        dir + "/f" + std::to_string(file_no++), 128, opts, &pool);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize((*file)->Append(record).ok());
    }
  }
  state.SetBytesProcessed(state.iterations() * 1000 * 128);
  RemoveDirRecursive(dir).ok();
}
BENCHMARK(BM_HeapFileAppend);

void BM_CommitHistoryCheckout(benchmark::State& state) {
  const std::string dir = "/tmp/decibel_micro_ch_" + std::to_string(getpid());
  RemoveDirRecursive(dir).ok();
  CreateDir(dir).ok();
  auto history = CommitHistory::Create(dir + "/h.hist");
  Random rng(9);
  Bitmap bits(1 << 18);
  const int num_commits = static_cast<int>(state.range(0));
  for (int c = 1; c <= num_commits; ++c) {
    for (int i = 0; i < 64; ++i) bits.Set(rng.Uniform(1 << 18));
    (*history)->AppendCommit(static_cast<uint64_t>(c), bits).ok();
  }
  for (auto _ : state) {
    const uint64_t seq = 1 + rng.Uniform(num_commits);
    auto restored = (*history)->Checkout(seq);
    benchmark::DoNotOptimize(restored.ok());
  }
  RemoveDirRecursive(dir).ok();
}
BENCHMARK(BM_CommitHistoryCheckout)->Arg(64)->Arg(256);

}  // namespace
}  // namespace decibel

BENCHMARK_MAIN();
