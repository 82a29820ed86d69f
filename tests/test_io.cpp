#include "io/explicit_format.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <vector>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/adhoc.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace csrl {
namespace {

std::string prefix_for(const char* name) {
  return testing::TempDir() + "/csrl_io_" + name;
}

void expect_same_model(const Mrm& a, const Mrm& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(a.reward(s), b.reward(s)) << s;
    EXPECT_DOUBLE_EQ(a.initial_distribution()[s], b.initial_distribution()[s]);
    EXPECT_EQ(a.labelling().labels_of(s), b.labelling().labels_of(s)) << s;
    for (const auto& e : a.rates().row(s))
      EXPECT_DOUBLE_EQ(b.rates().at(s, e.col), e.value);
    EXPECT_EQ(a.rates().row(s).size(), b.rates().row(s).size());
  }
}

TEST(ExplicitFormat, RoundTripBirthDeath) {
  const Mrm original = birth_death_mrm(5, 1.25, 2.5);
  const std::string prefix = prefix_for("bd");
  save_mrm(original, prefix);
  expect_same_model(original, load_mrm(prefix));
}

TEST(ExplicitFormat, RoundTripAdhocCaseStudy) {
  const Mrm original = build_adhoc_mrm();
  const std::string prefix = prefix_for("adhoc");
  save_mrm(original, prefix);
  const Mrm loaded = load_mrm(prefix);
  expect_same_model(original, loaded);
  // The loaded model must check identically.
  const double p_orig =
      Checker(original).value_initially(*parse_formula(kQueryQ3));
  const double p_load =
      Checker(loaded).value_initially(*parse_formula(kQueryQ3));
  EXPECT_NEAR(p_orig, p_load, 1e-12);
}

TEST(ExplicitFormat, RoundTripGeneralInitialDistribution) {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  const Mrm original(Ctmc(b.build()), {1.0, 2.0, 3.0}, Labelling(3),
                     std::vector<double>{0.5, 0.25, 0.25});
  const std::string prefix = prefix_for("dist");
  save_mrm(original, prefix);
  expect_same_model(original, load_mrm(prefix));
}

TEST(ExplicitFormat, HandWrittenFilesWithComments) {
  const std::string prefix = prefix_for("hand");
  std::ofstream(prefix + ".tra") << "# a tiny chain\n2 1\n0 1 2.5\n";
  std::ofstream(prefix + ".lab") << "up goal\n# labels\n0 up\n1 goal\n";
  std::ofstream(prefix + ".rew") << "0 1.5\n";
  std::ofstream(prefix + ".init") << "0\n";  // bare state = point mass
  const Mrm m = load_mrm(prefix);
  EXPECT_EQ(m.num_states(), 2u);
  EXPECT_DOUBLE_EQ(m.rates().at(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(m.reward(0), 1.5);
  EXPECT_DOUBLE_EQ(m.reward(1), 0.0);
  EXPECT_EQ(m.initial_state(), 0u);
  EXPECT_TRUE(m.labelling().has_label(1, "goal"));
}

TEST(ExplicitFormat, RoundTripImpulseRewards) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 2.0);
  CsrBuilder imp(2, 2);
  imp.add(0, 1, 5.5);
  const Mrm original = Mrm(Ctmc(b.build()), {1.0, 0.0}, Labelling(2), 0)
                           .with_impulses(imp.build());
  const std::string prefix = prefix_for("impulse");
  save_mrm(original, prefix);
  const Mrm loaded = load_mrm(prefix);
  ASSERT_TRUE(loaded.has_impulse_rewards());
  EXPECT_DOUBLE_EQ(loaded.impulse(0, 1), 5.5);
  // Saving an impulse-free model at the same prefix clears the .imp file.
  const Mrm plain(Ctmc(original.rates()), original.rewards(), Labelling(2), 0u);
  save_mrm(plain, prefix);
  EXPECT_FALSE(load_mrm(prefix).has_impulse_rewards());
}

TEST(ExplicitFormat, MissingFileThrows) {
  EXPECT_THROW((void)load_mrm(prefix_for("nonexistent")), ModelError);
}

TEST(ExplicitFormat, MalformedTransitionLineReportsLocation) {
  const std::string prefix = prefix_for("badtra");
  std::ofstream(prefix + ".tra") << "2 1\n0 zzz 1.0\n";
  std::ofstream(prefix + ".lab") << "up\n";
  std::ofstream(prefix + ".rew") << "";
  std::ofstream(prefix + ".init") << "0\n";
  try {
    (void)load_mrm(prefix);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find(".tra:2"), std::string::npos)
        << e.what();
  }
}

TEST(ExplicitFormat, OutOfRangeStateThrows) {
  const std::string prefix = prefix_for("range");
  std::ofstream(prefix + ".tra") << "2 1\n0 5 1.0\n";
  std::ofstream(prefix + ".lab") << "\n";
  std::ofstream(prefix + ".rew") << "";
  std::ofstream(prefix + ".init") << "0\n";
  EXPECT_THROW((void)load_mrm(prefix), ModelError);
}

TEST(ExplicitFormat, UndeclaredPropositionThrows) {
  const std::string prefix = prefix_for("undeclared");
  std::ofstream(prefix + ".tra") << "1 0\n";
  std::ofstream(prefix + ".lab") << "up\n0 down\n";
  std::ofstream(prefix + ".rew") << "";
  std::ofstream(prefix + ".init") << "0\n";
  EXPECT_THROW((void)load_mrm(prefix), ModelError);
}

TEST(ExplicitFormat, NegativeRateThrows) {
  const std::string prefix = prefix_for("negrate");
  std::ofstream(prefix + ".tra") << "2 1\n0 1 -3\n";
  std::ofstream(prefix + ".lab") << "\n";
  std::ofstream(prefix + ".rew") << "";
  std::ofstream(prefix + ".init") << "0\n";
  EXPECT_THROW((void)load_mrm(prefix), ModelError);
}

TEST(ExplicitFormat, NegativeHeaderCountsThrow) {
  // Read unsigned, "-1" used to wrap to 2^64 - 1 states and die in the
  // CSR allocation with an uncaught std::length_error.
  for (const char* header : {"-1 0\n", "1 -1\n"}) {
    const std::string prefix = prefix_for("negheader");
    std::ofstream(prefix + ".tra") << header;
    std::ofstream(prefix + ".lab") << "\n";
    std::ofstream(prefix + ".rew") << "";
    std::ofstream(prefix + ".init") << "0\n";
    try {
      (void)load_mrm(prefix);
      FAIL() << "expected ModelError for header " << header;
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find(".tra:1"), std::string::npos)
          << e.what();
    }
  }
}

// Sanitizer runtimes abort on an allocation request above their own size
// limit instead of letting operator new throw std::bad_alloc.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerAllocator = true;
#else
constexpr bool kSanitizerAllocator = false;
#endif
#else
constexpr bool kSanitizerAllocator = false;
#endif

TEST(ExplicitFormat, UnallocatableStateCountThrows) {
  // 2^62 states exceed vector::max_size() (std::length_error); 2^59 states
  // ask the allocator for 2^62 bytes, which it refuses (std::bad_alloc).
  // Either used to escape load_mrm and abort csrl_cli.  Neither request
  // is ever served, so nothing is committed.
  std::vector<const char*> headers{"4611686018427387904 0\n"};
  if (!kSanitizerAllocator) headers.push_back("576460752303423488 0\n");
  for (const char* header : headers) {
    const std::string prefix = prefix_for("hugeheader");
    std::ofstream(prefix + ".tra") << header;
    std::ofstream(prefix + ".lab") << "up\n";
    std::ofstream(prefix + ".rew") << "";
    std::ofstream(prefix + ".init") << "0\n";
    try {
      (void)load_mrm(prefix);
      FAIL() << "expected ModelError for header " << header;
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find(".tra:1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ExplicitFormat, MissingInitialStateThrows) {
  const std::string prefix = prefix_for("noinit");
  std::ofstream(prefix + ".tra") << "1 0\n";
  std::ofstream(prefix + ".lab") << "\n";
  std::ofstream(prefix + ".rew") << "";
  std::ofstream(prefix + ".init") << "# nothing here\n";
  EXPECT_THROW((void)load_mrm(prefix), ModelError);
}

}  // namespace
}  // namespace csrl
