// Seed-corpus generator — the reproducible source of fuzz/corpus/.
//
// Usage: ddc_make_corpus <corpus-root>
//
// Writes two seed sets:
//   <root>/framing/     valid envelopes mirroring the wire_tests
//                       vectors (every FrameKind, empty and non-empty
//                       payloads, boundary sender/seq values) plus the
//                       classic malformed shapes (truncations, bad
//                       magic, wrong version, probe-with-payload) so
//                       the fuzzer starts on both sides of every
//                       decoder branch;
//   <root>/classifier/  op-scripts for fuzz_classifier: hand-chosen
//                       headers (node count / dim / k / quanta
//                       resolution) followed by deterministic op
//                       streams, including all-splits pile-ups and
//                       coarse-quanta shapes that exercise the
//                       one-quantum re-homing rule;
//   <root>/pool_receive/ receive scripts for fuzz_pool_receive: centroid
//                       and GM, d = 1..5, exact ties, one-quantum
//                       collections, zero, near-singular and
//                       extreme-magnitude summaries;
//   <root>/shard_batch/ tap scripts for fuzz_shard_batch: each gossip
//                       pattern with clean traffic, then drops,
//                       duplicates and replays, every batch-header and
//                       record mutation, and envelope corruption and
//                       truncation.
//
// File names encode intent; regeneration is byte-stable (no clocks, no
// RNG seeds outside the file contents), so `git diff` after a rerun
// shows exactly how the seed set changed. See fuzz/README.md.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <ddc/wire/framing.hpp>

namespace {

void write_file(const std::filesystem::path& path,
                std::span<const std::byte> bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) {
    std::fprintf(stderr, "make_corpus: cannot write %s\n",
                 path.string().c_str());
    std::exit(2);
  }
}

void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  write_file(path, std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(bytes.data()),
                       bytes.size()));
}

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> values) {
  std::vector<std::byte> out;
  out.reserve(values.size());
  for (const unsigned v : values) {
    out.push_back(static_cast<std::byte>(v));
  }
  return out;
}

void make_framing(const std::filesystem::path& dir) {
  using ddc::wire::FrameKind;
  using ddc::wire::encode_frame;
  std::filesystem::create_directories(dir);

  const auto payload = bytes_of({0xde, 0xad, 0xbe, 0xef});
  write_file(dir / "gossip_payload.bin",
             encode_frame(FrameKind::gossip, 7, 42, payload));
  write_file(dir / "gossip_empty.bin",
             encode_frame(FrameKind::gossip, 0, 0));
  write_file(dir / "probe.bin", encode_frame(FrameKind::probe, 3, 1));
  write_file(dir / "probe_ack.bin",
             encode_frame(FrameKind::probe_ack, 4, 2));
  write_file(dir / "gossip_max_ids.bin",
             encode_frame(FrameKind::gossip, 0xffffffffU,
                          0xffffffffffffffffULL, payload));
  const std::vector<std::byte> big(512, std::byte{0x5a});
  write_file(dir / "gossip_big_payload.bin",
             encode_frame(FrameKind::gossip, 9, 1000, big));

  // Malformed shapes the decoder must reject — seeds for the
  // rejection branches.
  auto truncated = encode_frame(FrameKind::gossip, 7, 42, payload);
  truncated.resize(9);  // mid-seq
  write_file(dir / "truncated_mid_seq.bin", truncated);
  write_file(dir / "empty.bin", std::vector<std::byte>{});
  write_file(dir / "bad_magic.bin",
             bytes_of({0x00, 0x11, 0x22, 0x33, 0x01, 0x00, 0x00, 0x00,
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00}));
  // Valid magic base "DDN" with an unsupported version byte (2).
  write_file(dir / "wrong_version.bin",
             bytes_of({0x44, 0x44, 0x4e, 0x02, 0x01, 0x00, 0x00, 0x00,
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00}));
  auto probe_payload = encode_frame(FrameKind::probe, 3, 1);
  probe_payload.push_back(std::byte{0x01});
  write_file(dir / "probe_with_payload.bin", probe_payload);

  // Shard batch frames (PR 7): a populated batch, the empty barrier
  // token, an ack, and malformed shapes for the batch-grammar rejection
  // branches (truncation, huge record count, out-of-range shard id).
  using ddc::wire::BatchRecord;
  using ddc::wire::BatchTag;
  const auto rec_payload = bytes_of({0x10, 0x20, 0x30});
  const std::vector<BatchRecord> records = {
      {5, 200, BatchTag::forward, rec_payload},
      {200, 5, BatchTag::reply, payload},
      {7, 8, BatchTag::forward, {}},
  };
  const auto batch = ddc::wire::encode_batch(12, 1, 4, records);
  write_file(dir / "batch_records.bin",
             encode_frame(FrameKind::batch, 1, 13, batch));
  write_file(dir / "batch_barrier.bin",
             encode_frame(FrameKind::batch, 0, 1,
                          ddc::wire::encode_batch(3, 0, 2, {})));
  write_file(dir / "batch_ack.bin",
             encode_frame(FrameKind::batch_ack, 2, 4,
                          ddc::wire::encode_batch_ack(3)));
  auto batch_truncated = encode_frame(FrameKind::batch, 1, 13, batch);
  batch_truncated.resize(batch_truncated.size() - 5);  // mid-record
  write_file(dir / "batch_truncated_record.bin", batch_truncated);
  // Record count claims 2^63 records — check_count must refuse.
  auto huge_count = ddc::wire::encode_batch(12, 1, 4, {});
  huge_count.resize(huge_count.size() - 1);  // drop the count varint (0)
  for (int i = 0; i < 9; ++i) huge_count.push_back(std::byte{0xff});
  huge_count.push_back(std::byte{0x7f});
  write_file(dir / "batch_huge_count.bin",
             encode_frame(FrameKind::batch, 1, 13, huge_count));
  write_file(dir / "batch_shard_out_of_range.bin",
             encode_frame(FrameKind::batch, 1, 13,
                          ddc::wire::encode_batch(0, 9, 4, {})));

  // Edge-cut-era shapes (PR 9): an edgecut ownership map scatters a
  // shard's nodes across the global id space, so realistic batches mix
  // widely separated src/dst ids and payload lengths (including zero)
  // in one frame; barrier tokens ride high shard counts; and a dense
  // frame sits exactly on the 127-record varint-length boundary.
  const auto one_byte = bytes_of({0x01});
  const std::vector<BatchRecord> scattered = {
      {3, 1021, BatchTag::forward, {}},
      {517, 2, BatchTag::reply, payload},
      {999, 0, BatchTag::forward, rec_payload},
      {0, 65535, BatchTag::reply, {}},
      {4093, 511, BatchTag::forward, one_byte},
  };
  write_file(dir / "batch_edgecut_scattered.bin",
             encode_frame(FrameKind::batch, 4, 77,
                          ddc::wire::encode_batch(9, 4, 6, scattered)));
  write_file(dir / "batch_barrier_many_shards.bin",
             encode_frame(FrameKind::batch, 30, 900,
                          ddc::wire::encode_batch(40, 30, 32, {})));
  std::vector<BatchRecord> dense;
  std::vector<std::vector<std::byte>> dense_payloads;
  dense.reserve(127);
  dense_payloads.reserve(127);
  for (unsigned r = 0; r < 127; ++r) {
    dense_payloads.push_back(
        r % 3 == 0 ? std::vector<std::byte>{}
                   : bytes_of({r & 0xffU, (r * 37U) & 0xffU}));
    dense.push_back({(r * 97U) % 8191U, (r * 193U) % 8191U,
                     r % 2 == 0 ? BatchTag::forward : BatchTag::reply,
                     dense_payloads.back()});
  }
  write_file(dir / "batch_dense_127.bin",
             encode_frame(FrameKind::batch, 2, 500,
                          ddc::wire::encode_batch(25, 1, 2, dense)));
}

void make_classifier(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);

  // Script header (see fuzz_classifier.cpp): n-sel, dim-sel, k-sel,
  // quanta-sel, then per-node dim values, then op stream.
  // 4 nodes, 1-D, k=2, quanta 2^6; spread values; alternating ops.
  {
    std::vector<std::uint8_t> s = {2, 0, 1, 2};
    for (const std::uint8_t v : {96, 112, 144, 160}) s.push_back(v);
    for (int i = 0; i < 24; ++i) {
      s.push_back(static_cast<std::uint8_t>(i % 3));  // op
      s.push_back(static_cast<std::uint8_t>(i * 7));  // operand(s)
      s.push_back(static_cast<std::uint8_t>(i * 13));
    }
    write_file(dir / "alternating_ops.bin", s);
  }
  // 2 nodes, coarse quanta 2^4 — one-quantum collections everywhere.
  {
    std::vector<std::uint8_t> s = {0, 0, 0, 0, 120, 136};
    for (int i = 0; i < 40; ++i) {
      s.push_back(2);  // exchange
      s.push_back(static_cast<std::uint8_t>(i));
      s.push_back(static_cast<std::uint8_t>(i + 1));
    }
    write_file(dir / "coarse_quanta_exchanges.bin", s);
  }
  // 7 nodes, 3-D, k=3: splits only — maximal in-flight pool.
  {
    std::vector<std::uint8_t> s = {5, 2, 2, 4};
    for (int node = 0; node < 7; ++node) {
      s.push_back(static_cast<std::uint8_t>(100 + 10 * node));
      s.push_back(static_cast<std::uint8_t>(140 - 10 * node));
      s.push_back(static_cast<std::uint8_t>(128 + 5 * node));
    }
    for (int i = 0; i < 30; ++i) {
      s.push_back(0);  // split
      s.push_back(static_cast<std::uint8_t>(i * 3));
    }
    write_file(dir / "split_pileup.bin", s);
  }
  // Identical inputs: distance ties on every partition call.
  {
    std::vector<std::uint8_t> s = {3, 0, 1, 3, 128, 128, 128, 128, 128};
    for (int i = 0; i < 36; ++i) {
      s.push_back(static_cast<std::uint8_t>((i * 5) % 251));
    }
    write_file(dir / "all_ties.bin", s);
  }
}

/// Appends one collection of a fuzz_pool_receive script (see
/// fuzz_pool_receive.cpp): quanta, mean mode and its values, then for GM
/// the covariance mode and its values.
void pool_collection(std::vector<std::uint8_t>& s, bool gm, std::size_t d,
                     std::uint8_t mean_mode, std::uint8_t cov_mode,
                     std::uint8_t salt) {
  s.push_back(salt % 7);  // quanta − 1 (mod the cap)
  s.push_back(mean_mode);
  if (mean_mode != 3) {
    for (std::size_t c = 0; c < d; ++c) {
      s.push_back(static_cast<std::uint8_t>(salt + 37 * c));
    }
  }
  if (!gm) return;
  s.push_back(cov_mode);
  if (cov_mode == 1 || cov_mode == 2 || cov_mode == 4) {
    for (std::size_t t = 0; t < d * d; ++t) {
      s.push_back(static_cast<std::uint8_t>(3 * salt + 29 * t + 101));
    }
  }
  if (cov_mode == 4) s.push_back(static_cast<std::uint8_t>(salt + 5));
}

/// One receive: `own` collections, then `messages` messages of `size`
/// collections each, all with the given modes.
struct PoolReceive {
  std::uint8_t own, messages, size, mean_mode, cov_mode;
};

void make_pool_receive(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  // Script header: protocol (1 = GM), d − 1, k − 1, log2 of the quanta
  // cap; then the receives.
  const auto script = [&dir](const char* name, bool gm, std::size_t d,
                             std::size_t k, std::uint8_t log2_cap,
                             std::initializer_list<PoolReceive> receives) {
    std::vector<std::uint8_t> s = {static_cast<std::uint8_t>(gm ? 1 : 0),
                                   static_cast<std::uint8_t>(d - 1),
                                   static_cast<std::uint8_t>(k - 1), log2_cap};
    std::uint8_t salt = 0;
    for (const PoolReceive& r : receives) {
      s.push_back(static_cast<std::uint8_t>(r.own - 1));
      for (int c = 0; c < r.own; ++c) {
        pool_collection(s, gm, d, r.mean_mode, r.cov_mode, salt++);
      }
      s.push_back(static_cast<std::uint8_t>(r.messages - 1));
      for (int msg = 0; msg < r.messages; ++msg) {
        s.push_back(static_cast<std::uint8_t>(r.size - 1));
        for (int c = 0; c < r.size; ++c) {
          pool_collection(s, gm, d, r.mean_mode, r.cov_mode, salt++);
        }
      }
    }
    write_file(dir / name, s);
  };
  // Mean modes: 0 grid, 1 small, 2 extreme, 3 copy. Covariance modes:
  // 0 zero, 1 SPD, 2 rank one + 1e-13·I, 3 copy, 4 SPD at an extreme scale.
  script("gm_point_masses.bin", true, 2, 2, 4,
         {{2, 3, 2, 0, 0}, {1, 2, 2, 0, 0}, {2, 1, 2, 3, 0}});
  script("gm_one_quantum.bin", true, 1, 3, 0,
         {{3, 3, 3, 0, 0}, {2, 2, 3, 0, 1}});
  script("gm_near_singular.bin", true, 3, 3, 4,
         {{3, 2, 3, 0, 2}, {2, 3, 2, 1, 1}, {1, 2, 3, 3, 3}});
  script("gm_extreme.bin", true, 2, 2, 4,
         {{2, 2, 2, 2, 4}, {2, 3, 2, 2, 0}, {1, 2, 2, 0, 4}});
  script("gm_dynamic_dim.bin", true, 5, 2, 3,
         {{2, 2, 2, 1, 1}, {1, 3, 2, 0, 0}});
  script("centroid_ties.bin", false, 2, 2, 4,
         {{2, 3, 2, 0, 0}, {2, 2, 2, 3, 0}});
  script("centroid_extreme.bin", false, 4, 3, 2,
         {{3, 3, 3, 2, 0}, {2, 2, 3, 1, 0}});
}

void make_shard_batch(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  // Script header (see fuzz_shard_batch.cpp): pattern (push, pull,
  // push-pull), selection, k − 1, seed − 1, nodes − 6, rounds − 1,
  // topology (complete, ring); then one tap decision per frame shard 1
  // sends shard 0: 0 pass, 1 drop, 2 twice, 3 stash, 4 replay + stash
  // index, 5 batch mutation + its operands, 6 envelope mutation + its
  // operands, 7 truncation + length. An exhausted script passes frames.
  const auto script = [&](const char* name, std::uint8_t pattern,
                          std::vector<std::uint8_t> tap) {
    std::vector<std::uint8_t> s = {pattern, 0, 1, 0, 6, 5, 0};
    s.insert(s.end(), tap.begin(), tap.end());
    write_file(dir / name, s);
  };
  script("clean_push.bin", 0, {});
  script("clean_pull.bin", 1, {});
  script("clean_push_pull.bin", 2, {});
  script("drop_everything.bin", 2, std::vector<std::uint8_t>(96, 1));
  {
    std::vector<std::uint8_t> tap;
    for (std::uint8_t i = 0; i < 32; ++i) {
      tap.push_back(static_cast<std::uint8_t>(2 + i % 3));  // 2, 3 or 4
      if (i % 3 == 2) tap.push_back(i);  // the replay's stash index
    }
    script("replays_and_duplicates.bin", 2, tap);
  }
  {
    // Every batch mutation (0 round, 1 shard, 2 cluster size, 3 drop a
    // record, 4 duplicate one, 5–6 new src or dst, 7 tag, 8 payload),
    // each with a few operand bytes.
    std::vector<std::uint8_t> tap;
    for (std::uint8_t m = 0; m < 9; ++m) {
      for (std::uint8_t v = 0; v < 4; ++v) {
        tap.insert(tap.end(), {5, m, v, static_cast<std::uint8_t>(v + 3),
                               static_cast<std::uint8_t>(v * 5)});
      }
    }
    script("batch_mutations.bin", 2, tap);
  }
  {
    std::vector<std::uint8_t> tap;
    for (std::uint8_t i = 0; i < 24; ++i) {
      tap.insert(tap.end(), {6, static_cast<std::uint8_t>(i % 2),
                             static_cast<std::uint8_t>(i * 3), 17});
      tap.insert(tap.end(), {7, static_cast<std::uint8_t>(i * 11)});
    }
    script("envelope_and_truncation.bin", 0, tap);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  make_framing(root / "framing");
  make_classifier(root / "classifier");
  make_pool_receive(root / "pool_receive");
  make_shard_batch(root / "shard_batch");
  std::printf("make_corpus: wrote seed corpus under %s\n",
              root.string().c_str());
  return 0;
}
