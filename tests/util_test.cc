// Unit tests for util: Status/Result, Rng, strings, CLI, and the binary
// codec's hashes and bulk double arrays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include "util/binary_io.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace fairdrift {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),  Status::NotFound("").code(),
      Status::FailedPrecondition("").code(), Status::OutOfRange("").code(),
      Status::NumericalError("").code(),   Status::Internal("").code(),
      Status::IoError("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNumericalError),
               "NumericalError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(6);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, BernoulliRate) {
  Rng rng(7);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(8);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(w)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(9);
  std::vector<size_t> p = rng.Permutation(50);
  std::sort(p.begin(), p.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(p[i], i);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(10);
  std::vector<size_t> s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(11);
  std::vector<size_t> s = rng.SampleWithoutReplacement(10, 10);
  std::sort(s.begin(), s.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, ForkStreamsAreIndependent) {
  Rng parent(12);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  EXPECT_NE(c1.seed(), c2.seed());
  // Child draws should not track each other.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.Uniform() == c2.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(13);
  Rng b(13);
  EXPECT_EQ(a.Fork().seed(), b.Fork().seed());
}

// --------------------------------------------------------------- strings

TEST(StringTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringTest, ToLowerAscii) { EXPECT_EQ(ToLower("MePs-3"), "meps-3"); }

TEST(StringTest, StartsWith) {
  EXPECT_TRUE(StartsWith("cat:age", "cat:"));
  EXPECT_FALSE(StartsWith("age", "cat:"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

// ------------------------------------------------------------------- CLI

TEST(CliTest, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--trials", "7", "--scale=0.5", "--verbose"};
  CliFlags flags = CliFlags::Parse(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("trials", 0), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(CliTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliFlags flags = CliFlags::Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("trials", 5), 5);
  EXPECT_EQ(flags.GetString("name", "x"), "x");
  EXPECT_FALSE(flags.Has("trials"));
}

TEST(CliTest, PositionalArguments) {
  const char* argv[] = {"prog", "meps", "--trials", "2", "lsac"};
  CliFlags flags = CliFlags::Parse(5, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "meps");
  EXPECT_EQ(flags.positional()[1], "lsac");
}

TEST(CliTest, BoolValueForms) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=on"};
  CliFlags flags = CliFlags::Parse(4, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
}

TEST(CliTest, UnparsableNumberFallsBack) {
  const char* argv[] = {"prog", "--n=abc"};
  CliFlags flags = CliFlags::Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 9), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("n", 1.5), 1.5);
}

// ------------------------------------------------------------- binary_io

TEST(Xxh64Test, PublishedDigests) {
  // The reference xxHash library's XXH64(data, size, seed 0).
  EXPECT_EQ(Xxh64Hash("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(Xxh64Hash("abc", 3), 0x44bc2cf5ad770999ull);
  std::string ramp;
  for (int rep = 0; rep < 4; ++rep) {
    for (int b = 0; b < 256; ++b) ramp.push_back(static_cast<char>(b));
  }
  EXPECT_EQ(Xxh64Hash(ramp.data(), ramp.size()), 0x6f3914f18fe4df57ull);
}

TEST(Xxh64Test, SameDigestAtEveryAlignmentAndSplit) {
  std::string bytes;
  for (int i = 0; i < 301; ++i) bytes.push_back(static_cast<char>(i * 37));
  for (size_t size : {0u, 3u, 7u, 8u, 31u, 32u, 33u, 100u, 301u}) {
    const uint64_t want = Xxh64Hash(bytes.data(), size);
    // The same bytes from an unaligned start.
    for (size_t offset = 1; offset < 8; ++offset) {
      std::string shifted(offset, '\0');
      shifted.append(bytes, 0, size);
      EXPECT_EQ(Xxh64Hash(shifted.data() + offset, size), want)
          << "size " << size << " offset " << offset;
    }
    // The same bytes fed in two pieces, as FrameChecksum feeds them.
    for (size_t cut = 0; cut <= size; ++cut) {
      Xxh64 split;
      split.Update(bytes.data(), cut);
      split.Update(bytes.data() + cut, size - cut);
      ASSERT_EQ(split.Digest(), want) << "size " << size << " cut " << cut;
    }
  }
}

std::vector<double> AwkwardDoubles() {
  auto from_bits = [](uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  return {0.0,
          -0.0,
          1.5,
          -3.25e300,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min() * 12345,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          from_bits(0x7FF8000000000001ull),   // quiet NaN with a payload
          from_bits(0x7FF0000000000ABCull),   // signalling NaN payload
          from_bits(0xFFFFFFFFFFFFFFFFull)};  // negative NaN, all bits set
}

TEST(BinaryIoTest, BulkDoubleVectorBytesEqualPerElementEncoding) {
  const std::vector<double> values = AwkwardDoubles();
  BinaryWriter bulk;
  bulk.WriteDoubleVector(values);
  BinaryWriter per_element;
  per_element.WriteU64(values.size());
  for (double v : values) per_element.WriteDouble(v);
  EXPECT_EQ(bulk.buffer(), per_element.buffer());

  BinaryReader r(bulk.buffer());
  Result<std::vector<double>> back = r.ReadDoubleVector();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), values.size());
  EXPECT_EQ(std::memcmp(back.value().data(), values.data(),
                        values.size() * sizeof(double)),
            0);
  EXPECT_EQ(r.remaining(), 0u);

  BinaryWriter empty;
  empty.WriteDoubleVector({});
  BinaryReader er(empty.buffer());
  Result<std::vector<double>> none = er.ReadDoubleVector();
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST(BinaryIoTest, DoubleVectorLengthBeyondTheBytesIsDataLoss) {
  const std::vector<double> values = AwkwardDoubles();
  BinaryWriter full;
  full.WriteDoubleVector(values);
  const std::string& bytes = full.buffer();
  // Each of these lengths fails before the vector is allocated: the
  // first two could not be allocated at all, and 2^61 * 8 wraps to 0.
  for (uint64_t claimed : {uint64_t{1} << 61, uint64_t{1} << 40,
                           uint64_t{values.size() + 1}}) {
    BinaryWriter w;
    w.WriteU64(claimed);
    std::string forged = w.buffer() + bytes.substr(8);
    BinaryReader r(forged);
    Result<std::vector<double>> got = r.ReadDoubleVector();
    ASSERT_FALSE(got.ok()) << "claimed " << claimed;
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
  // The true length over an array cut off mid-way, mid-element too.
  for (size_t cut : {bytes.size() - 1, bytes.size() - 8, size_t{12}}) {
    BinaryReader r(bytes.data(), cut);
    Result<std::vector<double>> got = r.ReadDoubleVector();
    ASSERT_FALSE(got.ok()) << "cut at " << cut;
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace fairdrift
