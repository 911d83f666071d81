// Tests for the zero-copy snapshot subsystem (common/snapshot.h) and the
// objects that persist through it (graph CSR, TsdIndex, GctIndex).
//
// Four layers of coverage:
//
//  1. Primitives: SnapshotTag/SnapshotTagName, Checksum64, ByteCursor, and
//     FlatArray's owned-vs-borrowed backing-store semantics.
//  2. Container round trips: writer → reader section fidelity, alignment,
//     and the save→load→save byte-identity guarantee the format doc makes.
//  3. Corruption battery: every class of on-disk damage (truncation, bad
//     magic, wrong version, bounds/overlap/duplicate table entries, flipped
//     checksums, tampered payloads, single-byte fuzz) must produce a clean
//     diagnostic load failure — never a crash, an over-read, or a silently
//     wrong index.
//  4. Loaded-vs-built differential: an index bound to a mapped snapshot
//     answers TopR and SearchBatch bit-identically to the index it was
//     saved from, at every thread count.
#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/serialize.h"
#include "core/gct_index.h"
#include "core/tsd_index.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace tsd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::byte> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TSD_CHECK_MSG(in.good(), "cannot read " << path);
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const auto* data = reinterpret_cast<const std::byte*>(chars.data());
  return std::vector<std::byte>(data, data + chars.size());
}

void WriteFileBytes(const std::string& path,
                    std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  TSD_CHECK_MSG(out.good(), "cannot write " << path);
}

// Header field offsets (format doc in common/snapshot.h).
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kEndianOffset = 12;
constexpr std::size_t kTableOffsetOffset = 24;
constexpr std::size_t kSectionCountOffset = 32;
constexpr std::size_t kTableChecksumOffset = 40;
constexpr std::size_t kTableEntrySize = 32;

std::uint64_t TableOffset(const std::vector<std::byte>& bytes) {
  return DecodeU64Le(bytes.data() + kTableOffsetOffset);
}

std::uint32_t SectionCount(const std::vector<std::byte>& bytes) {
  return DecodeU32Le(bytes.data() + kSectionCountOffset);
}

std::span<std::byte> TableEntry(std::vector<std::byte>& bytes,
                                std::size_t index) {
  return std::span<std::byte>(bytes).subspan(
      TableOffset(bytes) + index * kTableEntrySize, kTableEntrySize);
}

/// Recomputes the header's table checksum after the test patched table
/// entries, so Open gets past the checksum gate and exercises the targeted
/// validation rule instead.
void ResealTable(std::vector<std::byte>& bytes) {
  const auto table = std::span<const std::byte>(bytes).subspan(
      TableOffset(bytes),
      std::size_t{SectionCount(bytes)} * kTableEntrySize);
  EncodeU64Le(Checksum64(table), bytes.data() + kTableChecksumOffset);
}

/// Recomputes section `index`'s payload checksum after the test patched its
/// payload bytes, then reseals the table. The container then validates
/// clean and the damage must be caught by object-level structural checks.
void ResealSection(std::vector<std::byte>& bytes, std::size_t index) {
  const auto entry = TableEntry(bytes, index);
  const std::uint64_t offset = DecodeU64Le(entry.data() + 8);
  const std::uint64_t length = DecodeU64Le(entry.data() + 16);
  const auto payload =
      std::span<const std::byte>(bytes).subspan(offset, length);
  EncodeU64Le(Checksum64(payload), entry.data() + 24);
  ResealTable(bytes);
}

/// Finds the table index of the section with `tag`.
std::size_t SectionIndexOf(std::vector<std::byte>& bytes,
                           std::uint64_t tag) {
  for (std::size_t i = 0; i < SectionCount(bytes); ++i) {
    if (DecodeU64Le(TableEntry(bytes, i).data()) == tag) return i;
  }
  TSD_CHECK_MSG(false, "no section " << SnapshotTagName(tag));
  return 0;
}

bool OpenBytes(const std::vector<std::byte>& bytes, SnapshotReader* reader,
               std::string* error) {
  const std::string path = TempPath("tsd_snapshot_test_patched.snap");
  WriteFileBytes(path, bytes);
  const bool ok = SnapshotReader::Open(path, reader, error);
  std::remove(path.c_str());
  return ok;
}

/// A small combined snapshot (graph + TSD + GCT) all the container-level
/// corruption tests mutate. Built once.
const std::vector<std::byte>& CombinedSnapshotBytes() {
  static const std::vector<std::byte> bytes = [] {
    const Graph g = PaperFigure1Graph();
    const TsdIndex tsd = TsdIndex::Build(g);
    const GctIndex gct = GctIndex::Build(g);
    const std::string path = TempPath("tsd_snapshot_test_combined.snap");
    SnapshotWriter writer(path);
    g.AppendToSnapshot(writer);
    tsd.AppendToSnapshot(writer);
    gct.AppendToSnapshot(writer);
    writer.Finish();
    std::vector<std::byte> result = ReadFileBytes(path);
    std::remove(path.c_str());
    return result;
  }();
  return bytes;
}

// ------------------------------------------------------------- primitives

TEST(SnapshotTagTest, RoundTripsAsciiNames) {
  EXPECT_EQ(SnapshotTagName(SnapshotTag("graf.off")), "graf.off");
  EXPECT_EQ(SnapshotTagName(SnapshotTag("x")), "x");
  EXPECT_NE(SnapshotTag("graf.off"), SnapshotTag("graf.adj"));
}

TEST(SnapshotTagTest, DiagnosticsForNonNames) {
  EXPECT_EQ(SnapshotTagName(0), "(empty)");
  EXPECT_EQ(SnapshotTagName(0x01), "?");  // non-printable byte
}

TEST(Checksum64Test, SensitiveToContentOrderAndLength) {
  const std::vector<std::byte> a{std::byte{1}, std::byte{2}, std::byte{3}};
  const std::vector<std::byte> b{std::byte{2}, std::byte{1}, std::byte{3}};
  EXPECT_EQ(Checksum64(a), Checksum64(a));
  EXPECT_NE(Checksum64(a), Checksum64(b));
  // Zero-padded inputs of different lengths must not collide (sections are
  // zero-padded to alignment on disk).
  const std::vector<std::byte> one_zero(1);
  const std::vector<std::byte> two_zeros(2);
  EXPECT_NE(Checksum64({}), Checksum64(one_zero));
  EXPECT_NE(Checksum64(one_zero), Checksum64(two_zeros));
}

TEST(Checksum64Test, EveryBitFlipChangesTheSumAcrossWordBoundaries) {
  // 67 bytes exercises the 4-word blocks, the word tail, and the byte tail.
  std::vector<std::byte> buffer(67);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::byte>(i * 37 + 5);
  }
  const std::uint64_t clean = Checksum64(buffer);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] ^= std::byte{0x40};
    EXPECT_NE(Checksum64(buffer), clean) << "flip at byte " << i;
    buffer[i] ^= std::byte{0x40};
  }
  EXPECT_EQ(Checksum64(buffer), clean);
}

TEST(ByteCursorTest, DecodesLittleEndianScalars) {
  std::byte buffer[12];
  EncodeU32Le(0xA1B2C3D4u, buffer);
  EncodeU64Le(0x0102030405060708ULL, buffer + 4);
  ByteCursor cursor{std::span<const std::byte>(buffer)};
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  ASSERT_TRUE(cursor.ReadU32Le(&u32));
  ASSERT_TRUE(cursor.ReadU64Le(&u64));
  EXPECT_EQ(u32, 0xA1B2C3D4u);
  EXPECT_EQ(u64, 0x0102030405060708ULL);
  EXPECT_EQ(cursor.remaining(), 0u);
}

TEST(ByteCursorTest, RefusesReadsPastTheEndWithoutMoving) {
  std::byte buffer[6] = {};
  ByteCursor cursor{std::span<const std::byte>(buffer)};
  std::uint64_t u64 = 99;
  EXPECT_FALSE(cursor.ReadU64Le(&u64));
  EXPECT_EQ(u64, 99u);            // output untouched
  EXPECT_EQ(cursor.position(), 0u);  // cursor untouched
  std::uint32_t u32 = 0;
  ASSERT_TRUE(cursor.ReadU32Le(&u32));
  EXPECT_FALSE(cursor.Skip(3));
  ASSERT_TRUE(cursor.Skip(2));
  EXPECT_EQ(cursor.remaining(), 0u);
}

TEST(ByteCursorTest, ReadBytesIsZeroCopy) {
  std::byte buffer[8] = {std::byte{7}};
  ByteCursor cursor{std::span<const std::byte>(buffer)};
  std::span<const std::byte> view;
  ASSERT_TRUE(cursor.ReadBytes(5, &view));
  EXPECT_EQ(view.data(), buffer);  // a view into the source, not a copy
  EXPECT_EQ(view.size(), 5u);
  EXPECT_FALSE(cursor.ReadBytes(4, &view));
}

TEST(FlatArrayTest, OwnedVectorBacking) {
  FlatArray<std::uint32_t> array;
  EXPECT_TRUE(array.empty());
  EXPECT_TRUE(array.owns());
  array = std::vector<std::uint32_t>{10, 20, 30};
  EXPECT_TRUE(array.owns());
  EXPECT_EQ(array.size(), 3u);
  EXPECT_EQ(array[1], 20u);
  EXPECT_EQ(array.back(), 30u);
  EXPECT_EQ(array.end() - array.begin(), 3);
}

TEST(FlatArrayTest, BorrowedViewBacking) {
  const std::vector<std::uint32_t> storage{1, 2, 3, 4};
  FlatArray<std::uint32_t> array;
  array = std::vector<std::uint32_t>{9};  // owned first
  array.BindView(storage);                // then rebound to a borrow
  EXPECT_FALSE(array.owns());
  EXPECT_EQ(array.data(), storage.data());
  EXPECT_EQ(array.size(), 4u);
}

TEST(FlatArrayTest, CopySemanticsPreserveBackingKind) {
  const std::vector<std::uint32_t> storage{5, 6, 7};
  FlatArray<std::uint32_t> borrowed;
  borrowed.BindView(storage);
  FlatArray<std::uint32_t> borrowed_copy(borrowed);
  EXPECT_FALSE(borrowed_copy.owns());
  EXPECT_EQ(borrowed_copy.data(), storage.data());

  FlatArray<std::uint32_t> owned;
  owned = std::vector<std::uint32_t>{8, 9};
  FlatArray<std::uint32_t> owned_copy(owned);
  EXPECT_TRUE(owned_copy.owns());
  EXPECT_NE(owned_copy.data(), owned.data());  // deep copy
  EXPECT_EQ(owned_copy[0], 8u);
}

TEST(FlatArrayTest, MoveRebindsOwnedStorageAndClearsTheSource) {
  FlatArray<std::uint64_t> owned;
  owned = std::vector<std::uint64_t>{1, 2, 3};
  FlatArray<std::uint64_t> moved(std::move(owned));
  EXPECT_TRUE(moved.owns());
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[2], 3u);
  EXPECT_EQ(moved.data(), moved.span().data());

  const std::vector<std::uint64_t> storage{4, 5};
  FlatArray<std::uint64_t> borrowed;
  borrowed.BindView(storage);
  FlatArray<std::uint64_t> borrowed_moved;
  borrowed_moved = std::move(borrowed);
  EXPECT_FALSE(borrowed_moved.owns());
  EXPECT_EQ(borrowed_moved.data(), storage.data());
}

// ------------------------------------------------- container round trips

TEST(SnapshotContainerTest, WriterReaderSectionFidelity) {
  const std::string path = TempPath("tsd_snapshot_test_sections.snap");
  const std::vector<std::uint32_t> ints{1, 2, 3, 0xFFFFFFFFu};
  const std::vector<std::uint64_t> meta{7, 8};
  const std::vector<std::byte> raw{std::byte{0xAB}, std::byte{0xCD},
                                   std::byte{0xEF}};  // odd length
  {
    SnapshotWriter writer(path);
    writer.AddArray<std::uint32_t>(SnapshotTag("test.int"), ints);
    writer.AddScalars(SnapshotTag("test.met"), meta);
    writer.AddBytes(SnapshotTag("test.raw"), raw);
    writer.AddArray<std::uint64_t>(SnapshotTag("test.emp"), {});
    writer.Finish();
  }

  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  EXPECT_EQ(reader.num_sections(), 4u);
  EXPECT_EQ(reader.file_size(), ReadFileBytes(path).size());
  EXPECT_TRUE(reader.Has(SnapshotTag("test.int")));
  EXPECT_FALSE(reader.Has(SnapshotTag("missing")));

  std::span<const std::uint32_t> int_view;
  ASSERT_TRUE(reader.Read(SnapshotTag("test.int"), &int_view, &error));
  EXPECT_TRUE(std::ranges::equal(int_view, ints));
  // Zero-copy: the view points into the mapping, 64-byte aligned.
  const auto* base = reader.mapping()->bytes().data();
  EXPECT_GE(reinterpret_cast<const std::byte*>(int_view.data()), base);
  EXPECT_EQ((reinterpret_cast<const std::byte*>(int_view.data()) - base) %
                static_cast<std::ptrdiff_t>(kSnapshotAlignment),
            0);

  std::uint64_t scalars[2] = {};
  ASSERT_TRUE(reader.ReadScalars(SnapshotTag("test.met"), scalars, &error));
  EXPECT_EQ(scalars[0], 7u);
  EXPECT_EQ(scalars[1], 8u);

  std::span<const std::byte> raw_view;
  ASSERT_TRUE(reader.ReadBytes(SnapshotTag("test.raw"), &raw_view, &error));
  EXPECT_TRUE(std::ranges::equal(raw_view, raw));

  std::span<const std::uint64_t> empty_view;
  ASSERT_TRUE(reader.Read(SnapshotTag("test.emp"), &empty_view, &error));
  EXPECT_TRUE(empty_view.empty());
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, TypedReadRejectsMisfits) {
  const std::string path = TempPath("tsd_snapshot_test_misfit.snap");
  {
    SnapshotWriter writer(path);
    writer.AddBytes(SnapshotTag("odd"), std::vector<std::byte>(5));
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;

  std::span<const std::uint64_t> u64_view;
  EXPECT_FALSE(reader.Read(SnapshotTag("odd"), &u64_view, &error));
  EXPECT_NE(error.find("not a multiple"), std::string::npos) << error;

  EXPECT_FALSE(reader.Read(SnapshotTag("gone"), &u64_view, &error));
  EXPECT_NE(error.find("no section"), std::string::npos) << error;

  std::uint64_t too_many[9] = {};
  EXPECT_FALSE(reader.ReadScalars(SnapshotTag("odd"), too_many, &error));
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, WriterRejectsApiMisuse) {
  const std::string path = TempPath("tsd_snapshot_test_misuse.snap");
  SnapshotWriter writer(path);
  const std::vector<std::uint64_t> values{1};
  writer.AddScalars(SnapshotTag("dup"), values);
  EXPECT_THROW(writer.AddScalars(SnapshotTag("dup"), values), CheckError);
  writer.Finish();
  EXPECT_THROW(writer.Finish(), CheckError);
  EXPECT_THROW(writer.AddScalars(SnapshotTag("late"), values), CheckError);
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, EmptySnapshotRoundTrips) {
  const std::string path = TempPath("tsd_snapshot_test_empty.snap");
  {
    SnapshotWriter writer(path);
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  EXPECT_EQ(reader.num_sections(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, SaveLoadSaveIsByteIdentical) {
  // Within one format version, a snapshot's bytes are a pure function of
  // the object contents — the doc-comment guarantee that makes snapshots
  // diffable and cacheable by content hash.
  const Graph g = HolmeKim(300, 4, 0.5, 21);
  const TsdIndex tsd = TsdIndex::Build(g);
  const GctIndex gct = GctIndex::Build(g);
  const std::string first_path = TempPath("tsd_snapshot_test_first.snap");
  const std::string second_path = TempPath("tsd_snapshot_test_second.snap");
  {
    SnapshotWriter writer(first_path);
    g.AppendToSnapshot(writer);
    tsd.AppendToSnapshot(writer);
    gct.AppendToSnapshot(writer);
    writer.Finish();
  }

  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(first_path, &reader, &error)) << error;
  Graph loaded_graph;
  TsdIndex loaded_tsd;
  GctIndex loaded_gct;
  ASSERT_TRUE(Graph::LoadFromSnapshot(reader, &loaded_graph, &error))
      << error;
  ASSERT_TRUE(TsdIndex::LoadFromSnapshot(reader, &loaded_tsd, &error))
      << error;
  ASSERT_TRUE(GctIndex::LoadFromSnapshot(reader, &loaded_gct, &error))
      << error;
  EXPECT_TRUE(loaded_graph.is_mapped());
  EXPECT_TRUE(loaded_tsd.is_mapped());
  EXPECT_TRUE(loaded_gct.is_mapped());
  EXPECT_FALSE(tsd.is_mapped());
  {
    SnapshotWriter writer(second_path);
    loaded_graph.AppendToSnapshot(writer);
    loaded_tsd.AppendToSnapshot(writer);
    loaded_gct.AppendToSnapshot(writer);
    writer.Finish();
  }
  EXPECT_EQ(ReadFileBytes(first_path), ReadFileBytes(second_path));
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

TEST(SnapshotContainerTest, LoadedGraphOutlivesItsReader) {
  const Graph original = PaperFigure1Graph();
  const std::string path = TempPath("tsd_snapshot_test_lifetime.snap");
  {
    SnapshotWriter writer(path);
    original.AppendToSnapshot(writer);
    writer.Finish();
  }
  Graph loaded;
  {
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
    ASSERT_TRUE(Graph::LoadFromSnapshot(reader, &loaded, &error)) << error;
  }
  // The reader is gone; the graph's shared mapping keeps the spans alive.
  EXPECT_TRUE(loaded.is_mapped());
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  EXPECT_TRUE(std::ranges::equal(loaded.edges(), original.edges()));
  EXPECT_TRUE(
      std::ranges::equal(loaded.neighbors(0), original.neighbors(0)));
  std::remove(path.c_str());
}

// ------------------------------------------------------ corruption battery

void ExpectOpenFails(std::vector<std::byte> bytes,
                     const std::string& expected_fragment,
                     const std::string& what) {
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(OpenBytes(bytes, &reader, &error)) << what;
  EXPECT_NE(error.find(expected_fragment), std::string::npos)
      << what << ": diagnostic was '" << error << "'";
}

TEST(SnapshotCorruptionTest, MissingFile) {
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(SnapshotReader::Open(
      TempPath("tsd_snapshot_test_does_not_exist.snap"), &reader, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotCorruptionTest, TruncationAndTrailingGarbage) {
  const std::vector<std::byte>& clean = CombinedSnapshotBytes();
  ExpectOpenFails(std::vector<std::byte>(clean.begin(), clean.begin() + 10),
                  "truncated", "10-byte stub");
  ExpectOpenFails(
      std::vector<std::byte>(clean.begin(), clean.begin() + clean.size() / 2),
      "size mismatch", "half the file");
  std::vector<std::byte> padded = clean;
  padded.resize(padded.size() + 64);
  ExpectOpenFails(std::move(padded), "size mismatch", "trailing garbage");
}

TEST(SnapshotCorruptionTest, BadMagic) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  bytes[0] ^= std::byte{0xFF};
  ExpectOpenFails(std::move(bytes), "bad magic", "flipped magic byte");
}

TEST(SnapshotCorruptionTest, UnsupportedFormatVersion) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  EncodeU32Le(99, bytes.data() + kVersionOffset);
  ExpectOpenFails(std::move(bytes), "unsupported snapshot format version 99",
                  "future version");
}

TEST(SnapshotCorruptionTest, ForeignEndianness) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  // Byte-swap the marker: what a big-endian writer would have produced.
  std::swap(bytes[kEndianOffset], bytes[kEndianOffset + 3]);
  std::swap(bytes[kEndianOffset + 1], bytes[kEndianOffset + 2]);
  ExpectOpenFails(std::move(bytes), "endianness", "byte-swapped marker");
}

TEST(SnapshotCorruptionTest, ImplausibleSectionCount) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  EncodeU32Le(1'000'000, bytes.data() + kSectionCountOffset);
  ExpectOpenFails(std::move(bytes), "section count", "huge section count");
}

TEST(SnapshotCorruptionTest, TableChecksumMismatch) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  bytes[TableOffset(bytes)] ^= std::byte{0x01};  // flip a tag byte
  ExpectOpenFails(std::move(bytes), "table checksum", "flipped table byte");
}

TEST(SnapshotCorruptionTest, PayloadChecksumMismatch) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  const auto entry = TableEntry(bytes, 0);
  const std::uint64_t offset = DecodeU64Le(entry.data() + 8);
  bytes[offset] ^= std::byte{0x01};
  ExpectOpenFails(bytes, "checksum mismatch", "flipped payload byte");

  // The same damage passes the container when checksum verification is off
  // (the knob exists for benchmarking the pure page-table path)...
  const std::string path = TempPath("tsd_snapshot_test_noverify.snap");
  WriteFileBytes(path, bytes);
  SnapshotReader reader;
  std::string error;
  SnapshotReader::Options no_verify;
  no_verify.verify_checksums = false;
  EXPECT_TRUE(SnapshotReader::Open(path, &reader, &error, no_verify))
      << error;
  // ...but the object-level structural validation still stands guard (the
  // first section is the graph meta; a flipped schema-version/vertex-count
  // byte cannot produce a valid graph).
  Graph loaded;
  EXPECT_FALSE(Graph::LoadFromSnapshot(reader, &loaded, &error));
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, OversizedSectionLength) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  EncodeU64Le(std::uint64_t{1} << 60, TableEntry(bytes, 0).data() + 16);
  ResealTable(bytes);
  ExpectOpenFails(std::move(bytes), "out of bounds", "2^60-byte section");
}

TEST(SnapshotCorruptionTest, MisalignedSectionOffset) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  const auto entry = TableEntry(bytes, 0);
  EncodeU64Le(DecodeU64Le(entry.data() + 8) + 8, entry.data() + 8);
  ResealTable(bytes);
  ExpectOpenFails(std::move(bytes), "out of bounds", "misaligned offset");
}

TEST(SnapshotCorruptionTest, SectionInsideHeader) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  EncodeU64Le(0, TableEntry(bytes, 0).data() + 8);
  ResealTable(bytes);
  ExpectOpenFails(std::move(bytes), "out of bounds", "offset 0");
}

TEST(SnapshotCorruptionTest, OverlappingSections) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  // Point section 1 at section 0's payload.
  const auto first = TableEntry(bytes, 0);
  const auto second = TableEntry(bytes, 1);
  EncodeU64Le(DecodeU64Le(first.data() + 8), second.data() + 8);
  ResealTable(bytes);
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(OpenBytes(bytes, &reader, &error));
  EXPECT_NE(error.find("overlap"), std::string::npos) << error;
}

TEST(SnapshotCorruptionTest, DuplicateSectionTag) {
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  const auto first = TableEntry(bytes, 0);
  const auto second = TableEntry(bytes, 1);
  std::copy(first.begin(), first.begin() + 8, second.begin());
  ResealTable(bytes);
  SnapshotReader reader;
  std::string error;
  EXPECT_FALSE(OpenBytes(bytes, &reader, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(SnapshotCorruptionTest, TamperedPayloadThatPassesChecksums) {
  // Rewrite the graph adjacency array's first entry to an out-of-range
  // vertex and RESEAL every checksum: the container validates clean, and
  // the graph's structural validation must be what rejects the file.
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  const std::size_t adj_index =
      SectionIndexOf(bytes, SnapshotTag("graf.adj"));
  const std::uint64_t adj_offset =
      DecodeU64Le(TableEntry(bytes, adj_index).data() + 8);
  EncodeU32Le(0xFFFFFFFFu, bytes.data() + adj_offset);
  ResealSection(bytes, adj_index);

  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(OpenBytes(bytes, &reader, &error)) << error;
  Graph loaded;
  EXPECT_FALSE(Graph::LoadFromSnapshot(reader, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotCorruptionTest, TamperedWeightOrderIsRejected) {
  // Break the descending per-slice weight order TsdIndex::Score relies on.
  std::vector<std::byte> bytes = CombinedSnapshotBytes();
  const std::size_t wgt_index =
      SectionIndexOf(bytes, SnapshotTag("tsdx.wgt"));
  const auto entry = TableEntry(bytes, wgt_index);
  const std::uint64_t offset = DecodeU64Le(entry.data() + 8);
  const std::uint64_t length = DecodeU64Le(entry.data() + 16);
  ASSERT_GE(length, 8u);
  // Last weight of the first multi-edge slice made enormous.
  EncodeU32Le(0x00FFFFFFu, bytes.data() + offset + length - 4);
  ResealSection(bytes, wgt_index);

  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(OpenBytes(bytes, &reader, &error)) << error;
  TsdIndex loaded;
  EXPECT_FALSE(TsdIndex::LoadFromSnapshot(reader, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

// Checksum-valid files whose first slice's end offset points far past its
// array while the last offset still spans the array exactly. The validators
// must reject the offsets before any per-slice loop trusts them.
TEST(SnapshotCorruptionTest, TsdOffsetsBeyondTheForestAreRejected) {
  const std::string path = TempPath("tsd_snapshot_test_tsd_offsets.snap");
  {
    SnapshotWriter writer(path);
    const std::vector<std::uint64_t> meta{1, 2, 5};  // schema, n, max weight
    const std::vector<std::uint64_t> offsets{0, std::uint64_t{1} << 34, 3};
    const std::vector<VertexId> edge_u{0, 0, 0};
    const std::vector<VertexId> edge_v{1, 1, 1};
    const std::vector<std::uint32_t> weight{5, 4, 3};
    writer.AddScalars(SnapshotTag("tsdx.met"), meta);
    writer.AddArray<std::uint64_t>(SnapshotTag("tsdx.off"), offsets);
    writer.AddArray<VertexId>(SnapshotTag("tsdx.edu"), edge_u);
    writer.AddArray<VertexId>(SnapshotTag("tsdx.edv"), edge_v);
    writer.AddArray<std::uint32_t>(SnapshotTag("tsdx.wgt"), weight);
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  TsdIndex tsd;
  EXPECT_FALSE(TsdIndex::LoadFromSnapshot(reader, &tsd, &error));
  EXPECT_NE(error.find("offsets not monotone"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, GraphOffsetsBeyondTheAdjacencyAreRejected) {
  const std::string path = TempPath("tsd_snapshot_test_graph_offsets.snap");
  {
    SnapshotWriter writer(path);
    const std::vector<std::uint64_t> meta{1, 3, 1};  // schema, n, max degree
    const std::vector<std::uint64_t> offsets{0, 3, 2, 2};
    const std::vector<VertexId> adj{1, 0};
    const std::vector<EdgeId> adj_edge_ids{0, 0};
    const std::vector<Edge> edges{Edge{0, 1}};
    writer.AddScalars(SnapshotTag("graf.met"), meta);
    writer.AddArray<std::uint64_t>(SnapshotTag("graf.off"), offsets);
    writer.AddArray<VertexId>(SnapshotTag("graf.adj"), adj);
    writer.AddArray<EdgeId>(SnapshotTag("graf.eid"), adj_edge_ids);
    writer.AddArray<Edge>(SnapshotTag("graf.edg"), edges);
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  Graph graph;
  EXPECT_FALSE(Graph::LoadFromSnapshot(reader, &graph, &error));
  EXPECT_NE(error.find("offsets not monotone"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, SingleByteFlipFuzzNeverCrashes) {
  // Flip one byte at a stride of positions across the whole file. Every
  // outcome must be clean: either the container/object validation rejects
  // the file, or (flips landing in alignment padding) everything loads and
  // the graph is exactly the original.
  const std::vector<std::byte>& clean = CombinedSnapshotBytes();
  const Graph original = PaperFigure1Graph();
  int rejected = 0;
  int survived = 0;
  for (std::size_t pos = 0; pos < clean.size(); pos += 97) {
    std::vector<std::byte> bytes = clean;
    bytes[pos] ^= std::byte{0x20};
    SnapshotReader reader;
    std::string error;
    if (!OpenBytes(bytes, &reader, &error)) {
      EXPECT_FALSE(error.empty()) << "flip at " << pos;
      ++rejected;
      continue;
    }
    Graph graph;
    TsdIndex tsd;
    GctIndex gct;
    if (Graph::LoadFromSnapshot(reader, &graph, &error) &&
        TsdIndex::LoadFromSnapshot(reader, &tsd, &error) &&
        GctIndex::LoadFromSnapshot(reader, &gct, &error)) {
      EXPECT_TRUE(std::ranges::equal(graph.edges(), original.edges()))
          << "padding flip at " << pos << " changed the graph";
      ++survived;
    } else {
      ++rejected;
    }
  }
  // The battery must actually have exercised the reject path.
  EXPECT_GT(rejected, 0);
}

// --------------------------------------------------- object-level rejects

TEST(SnapshotObjectTest, UnknownSchemaVersionsAreRejected) {
  const std::string path = TempPath("tsd_snapshot_test_schema.snap");
  {
    SnapshotWriter writer(path);
    const std::vector<std::uint64_t> future_meta{99, 0, 0};
    writer.AddScalars(SnapshotTag("graf.met"), future_meta);
    writer.AddScalars(SnapshotTag("tsdx.met"), future_meta);
    writer.AddScalars(SnapshotTag("gctx.met"), future_meta);
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;

  Graph graph;
  EXPECT_FALSE(Graph::LoadFromSnapshot(reader, &graph, &error));
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
  TsdIndex tsd;
  EXPECT_FALSE(TsdIndex::LoadFromSnapshot(reader, &tsd, &error));
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
  GctIndex gct;
  EXPECT_FALSE(GctIndex::LoadFromSnapshot(reader, &gct, &error));
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotObjectTest, MissingGroupsAreRejectedNotCrashed) {
  // A graph-only snapshot has no index groups: binding an index must fail
  // with a diagnostic, and the throwing Load wrapper must throw.
  const std::string path = TempPath("tsd_snapshot_test_graph_only.snap");
  {
    SnapshotWriter writer(path);
    PaperFigure1Graph().AppendToSnapshot(writer);
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  TsdIndex tsd;
  EXPECT_FALSE(TsdIndex::LoadFromSnapshot(reader, &tsd, &error));
  EXPECT_FALSE(error.empty());
  GctIndex gct;
  EXPECT_FALSE(GctIndex::LoadFromSnapshot(reader, &gct, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_THROW(TsdIndex::Load(path), CheckError);
  EXPECT_THROW(GctIndex::Load(path), CheckError);
  std::remove(path.c_str());
}

// ------------------------------------------- loaded-vs-built differential

void ExpectSameResults(const TopRResult& expected, const TopRResult& actual,
                       const std::string& what) {
  ASSERT_EQ(actual.entries.size(), expected.entries.size()) << what;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(actual.entries[i].vertex, expected.entries[i].vertex)
        << what << " rank " << i;
    EXPECT_EQ(actual.entries[i].score, expected.entries[i].score)
        << what << " rank " << i;
    EXPECT_EQ(actual.entries[i].contexts, expected.entries[i].contexts)
        << what << " rank " << i;
  }
}

struct DifferentialCase {
  std::string name;
  Graph graph;
};

std::vector<DifferentialCase>& DifferentialGraphs() {
  static std::vector<DifferentialCase> cases = [] {
    std::vector<DifferentialCase> result;
    result.push_back({"Figure1", PaperFigure1Graph()});
    result.push_back({"HolmeKim", HolmeKim(300, 5, 0.5, 7)});
    result.push_back({"ErdosRenyi", ErdosRenyi(200, 1500, 11)});
    result.push_back({"BarabasiAlbert", BarabasiAlbert(250, 4, 13)});
    result.push_back({"RMat", RMat(8, 8, 0.45, 0.25, 0.15, 17)});
    return result;
  }();
  return cases;
}

class SnapshotDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotDifferentialTest, LoadedIndexAnswersBitIdentically) {
  const DifferentialCase& test_case = DifferentialGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  const std::string path = TempPath("tsd_snapshot_test_differential.snap");
  TsdIndex built_tsd = TsdIndex::Build(g);
  GctIndex built_gct = GctIndex::Build(g);
  {
    SnapshotWriter writer(path);
    g.AppendToSnapshot(writer);
    built_tsd.AppendToSnapshot(writer);
    built_gct.AppendToSnapshot(writer);
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  TsdIndex loaded_tsd;
  GctIndex loaded_gct;
  ASSERT_TRUE(TsdIndex::LoadFromSnapshot(reader, &loaded_tsd, &error))
      << error;
  ASSERT_TRUE(GctIndex::LoadFromSnapshot(reader, &loaded_gct, &error))
      << error;
  ASSERT_TRUE(loaded_tsd.is_mapped());
  ASSERT_TRUE(loaded_gct.is_mapped());

  const std::vector<BatchQuery> batch{{2, 5}, {3, 8}, {4, 3}, {6, 10}};
  const std::vector<std::pair<DiversitySearcher*, DiversitySearcher*>>
      pairs{{&built_tsd, &loaded_tsd}, {&built_gct, &loaded_gct}};
  for (const auto& [built, loaded] : pairs) {
    built->set_query_options(QueryOptions{});
    const TopRResult top_expected = built->TopR(8, 3);
    const std::vector<TopRResult> batch_expected = built->SearchBatch(batch);
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      QueryOptions options;
      options.num_threads = threads;
      loaded->set_query_options(options);
      const std::string what = test_case.name + " " + loaded->name() +
                               " threads=" + std::to_string(threads);
      ExpectSameResults(top_expected, loaded->TopR(8, 3), what + " topr");
      const std::vector<TopRResult> batch_actual =
          loaded->SearchBatch(batch);
      ASSERT_EQ(batch_actual.size(), batch_expected.size());
      for (std::size_t q = 0; q < batch.size(); ++q) {
        ExpectSameResults(batch_expected[q], batch_actual[q],
                          what + " batch query " + std::to_string(q));
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, SnapshotDifferentialTest,
                         ::testing::Range(0, 5), [](const auto& info) {
                           return DifferentialGraphs()[info.param].name;
                         });

}  // namespace
}  // namespace tsd
