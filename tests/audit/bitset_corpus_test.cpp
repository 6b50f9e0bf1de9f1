// The pinned audit corpus, executed by the bitset round kernel.
//
// corpus_test.cpp certifies the scalar engine against the ModelAuditor on
// the frozen seed grid; this file runs the exact same cases under
// EngineMode::kBitset. An attached auditor makes every round order-sensitive,
// so the audited bitset runs go through the scalar kernel; the unaudited
// ones use the word-parallel kernel unless the case has faults, which also
// send every round to the scalar kernel. Three properties per case:
//
//   1. zero model violations on the audited bitset-engine run,
//   2. audited == unaudited bit-identity within the bitset engine, which
//      pins the word-parallel kernel to the scalar one on every fault-free
//      case, and
//   3. cross-engine result identity: the bitset run's RunResult matches
//      the scalar run's field for field — rounds, stage accounting, and
//      every trace counter. The engines are interchangeable on the whole
//      corpus, which is what lets `engine: bitset` scenarios cite scalar
//      history.
#include <gtest/gtest.h>

#include "audit/corpus.hpp"

namespace radiocast::audit {
namespace {

class BitsetCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(BitsetCorpusTest, BitsetEngineClearsCaseAndMatchesScalar) {
  const CorpusCase& c = GetParam();

  const CorpusOutcome bitset = run_corpus_case(c, radio::EngineMode::kBitset);
  EXPECT_TRUE(bitset.report.clean())
      << c.name << ": " << bitset.report.total() << " violations under bitset";
  EXPECT_TRUE(bitset.bit_identical)
      << c.name << ": audited bitset run diverged from unaudited";
  EXPECT_TRUE(bitset.delivered) << c.name << ": bitset run did not deliver";

  const CorpusOutcome scalar = run_corpus_case(c, radio::EngineMode::kScalar);
  EXPECT_TRUE(results_identical(bitset.audited, scalar.audited))
      << c.name << ": bitset and scalar audited results differ";
  EXPECT_TRUE(results_identical(bitset.unaudited, scalar.unaudited))
      << c.name << ": bitset and scalar unaudited results differ";
}

INSTANTIATE_TEST_SUITE_P(PinnedCorpus, BitsetCorpusTest,
                         ::testing::ValuesIn(pinned_corpus()),
                         [](const ::testing::TestParamInfo<CorpusCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace radiocast::audit
