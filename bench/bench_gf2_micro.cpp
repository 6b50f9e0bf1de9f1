// E13 — engineering microbenchmarks of the GF(2) coding kernels.
//
// These are not paper claims; they qualify the cost of Stage 4's encode /
// decode arithmetic: the table-driven encoder and the packed decoder, both
// over the one portable XOR loop (gf2::xor_bytes). Smoke-grid medians on a
// 4-core container: at 24-byte payloads a w=16 encode_random runs at
// ~26 Mops/s and a full-group packed decode at ~0.7 Mgroups/s (w=64: ~7
// Mops/s and ~49 Kgroups/s). At protocol payload sizes the decoder is far
// from the simulation bottleneck (microseconds per group against
// simulated radio rounds). At the 4 KiB end of the payload axis the XOR
// sweeps are memory-bound and dominate; no scenario or benchmark workload
// sends payloads that long (scenarios use 16 B, coded_bulk 128 B).
//
// Grid: op in {encode_random, decode_group} x w in {4..64} x payload in
// {24 B .. 4 KiB}. encode_random times the protocol transmit path
// (encode_random_word_into); the decode rows time the packed protocol
// receive flow — add_row_packed with arena-style buffer recycling, then
// take_packets.
//
// Determinism: the `checksum` column is an FNV-1a digest over coefficient
// words and payload bytes from fixed-seed validation sweeps, independent
// of --smoke and of the timing loops. It pins the RNG draw discipline and
// the on-air bytes of both paths, so scripts/bench_compare.py fails the
// perf gate on any behavioral drift before tolerances even apply. Only
// ops_per_sec (gated, regression-only) and mib_per_sec (informational)
// vary between machines.
//
// `--smoke` shrinks the grid and iteration counts for CI; rows land in
// BENCH_gf2_micro.json when RADIOCAST_BENCH_JSON_DIR is set.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gf2/coding.hpp"
#include "gf2/simd.hpp"
#include "gf2/solver.hpp"

using namespace radiocast;

namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h = (h ^ data[i]) * kFnvPrime;
}

void fnv_word(std::uint64_t& h, std::uint64_t w) {
  std::uint8_t bytes[8];
  std::memcpy(bytes, &w, 8);
  fnv_bytes(h, bytes, 8);
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::vector<gf2::Payload> make_group(std::size_t w, std::size_t bytes, Rng& rng) {
  std::vector<gf2::Payload> group;
  group.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    gf2::Payload p(bytes);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng() & 0xff);
    group.push_back(std::move(p));
  }
  return group;
}

/// Fixed-seed digest of 64 transmit draws (coeff word + payload bytes) —
/// identical across machines, modes, and timing-loop sizes.
std::uint64_t encode_checksum(const gf2::GroupEncoder& enc) {
  std::uint64_t h = kFnvOffset;
  Rng rng(7);
  gf2::Payload out;
  for (int i = 0; i < 64; ++i) {
    fnv_word(h, enc.encode_random_word_into(rng, out));
    fnv_bytes(h, out.data(), out.size());
  }
  return h;
}

/// One full-group decode through the packed protocol flow. Returns rows
/// consumed; digests rows/redundant counts and the decoded bytes into `h`
/// when non-null.
std::size_t decode_group(std::size_t w, const std::vector<gf2::CodedRow>& rows,
                         std::vector<gf2::Payload>& pool, std::uint64_t* h) {
  gf2::IncrementalDecoder dec(w);
  std::size_t i = 0;
  while (!dec.complete() && i < rows.size()) {
    gf2::Payload buf;
    if (!pool.empty()) {
      buf = std::move(pool.back());
      pool.pop_back();
    }
    buf.assign(rows[i].payload.begin(), rows[i].payload.end());
    if (!dec.add_row_packed(rows[i].coeffs.to_word(), buf)) {
      pool.push_back(std::move(buf));
    }
    ++i;
  }
  if (h != nullptr) {
    fnv_word(*h, i);
    fnv_word(*h, dec.redundant_rows());
  }
  std::vector<gf2::Payload> pkts = dec.take_packets();
  for (gf2::Payload& p : pkts) {
    if (h != nullptr) fnv_bytes(*h, p.data(), p.size());
    pool.push_back(std::move(p));
  }
  return i;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_gf2_micro [--smoke]\n";
      return 2;
    }
  }

  benchutil::banner("E13_gf2_micro",
                    "coding kernels: table encode / packed decode cost");
  print_meta(std::cout, "kernel", gf2::simd_kernel_name());
  print_meta(std::cout, "mode", smoke ? "smoke" : "full");
  benchutil::JsonReport json("gf2_micro");
  json.meta("smoke", smoke ? "1" : "0");
  json.meta("kernel", gf2::simd_kernel_name());

  const std::vector<std::size_t> widths =
      smoke ? std::vector<std::size_t>{16, 64} : std::vector<std::size_t>{4, 16, 32, 64};
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{24, 4096} : std::vector<std::size_t>{24, 256, 4096};
  const int reps = smoke ? 2 : 3;

  radiocast::Table table({"op", "w", "bytes", "checksum", "ops/s", "MiB/s"});

  for (const std::size_t w : widths) {
    for (const std::size_t bytes : sizes) {
      Rng grng(1);
      const std::vector<gf2::Payload> packets = make_group(w, bytes, grng);
      const gf2::GroupEncoder enc(packets);

      // --- encode_random: the transmit path -------------------------
      const std::uint64_t enc_sum = encode_checksum(enc);
      const std::size_t enc_iters =
          (smoke ? 1 : 8) * (bytes >= 1024 ? 5000 : 50000);
      double best = 1e100;
      for (int rep = 0; rep < reps; ++rep) {
        Rng rng(7);
        gf2::Payload out;
        const double t0 = cpu_seconds();
        for (std::size_t i = 0; i < enc_iters; ++i) {
          const std::uint64_t coeffs = enc.encode_random_word_into(rng, out);
          asm volatile("" : : "r"(coeffs), "r"(out.data()) : "memory");
        }
        best = std::min(best, cpu_seconds() - t0);
      }
      const double enc_ops = static_cast<double>(enc_iters) / best;
      const double enc_mib = enc_ops * static_cast<double>(bytes) / (1024.0 * 1024.0);
      table.row()
          .add("encode_random")
          .add(static_cast<std::uint64_t>(w))
          .add(static_cast<std::uint64_t>(bytes))
          .add(hex64(enc_sum))
          .add(enc_ops, 0)
          .add(enc_mib, 1);
      json.row()
          .col("op", "encode_random")
          .col("w", static_cast<std::uint64_t>(w))
          .col("bytes", static_cast<std::uint64_t>(bytes))
          .col("checksum", hex64(enc_sum))
          .col("ops_per_sec", enc_ops)
          .col("mib_per_sec", enc_mib);

      // --- decode_group: the packed receive flow --------------------
      Rng rrng(9);
      std::vector<gf2::CodedRow> rows;
      for (std::size_t i = 0; i < 4 * w + 64; ++i) rows.push_back(enc.encode_random(rrng));
      std::vector<gf2::Payload> pool;
      std::uint64_t dec_sum = kFnvOffset;
      const std::size_t rows_used = decode_group(w, rows, pool, &dec_sum);
      const std::size_t dec_iters =
          (smoke ? 1 : 4) * (bytes >= 1024 ? 250 : 2500);
      best = 1e100;
      for (int rep = 0; rep < reps; ++rep) {
        const double t0 = cpu_seconds();
        for (std::size_t i = 0; i < dec_iters; ++i) {
          decode_group(w, rows, pool, nullptr);
        }
        best = std::min(best, cpu_seconds() - t0);
      }
      const double dec_ops = static_cast<double>(dec_iters) / best;
      const double dec_mib = dec_ops * static_cast<double>(rows_used) *
                             static_cast<double>(bytes) / (1024.0 * 1024.0);
      table.row()
          .add("decode_group")
          .add(static_cast<std::uint64_t>(w))
          .add(static_cast<std::uint64_t>(bytes))
          .add(hex64(dec_sum))
          .add(dec_ops, 0)
          .add(dec_mib, 1);
      json.row()
          .col("op", "decode_group")
          .col("w", static_cast<std::uint64_t>(w))
          .col("bytes", static_cast<std::uint64_t>(bytes))
          .col("rows_used", static_cast<std::uint64_t>(rows_used))
          .col("checksum", hex64(dec_sum))
          .col("ops_per_sec", dec_ops)
          .col("mib_per_sec", dec_mib);
    }
  }

  table.print(std::cout);
  json.write();
  return 0;
}
