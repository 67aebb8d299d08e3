#include "llm4d/tensor/doc_mask.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace llm4d {
namespace {

TEST(DocMask, CausalAllowsLowerTriangle)
{
    DocMask m = DocMask::causal(8);
    EXPECT_EQ(m.docCount(), 1);
    for (std::int64_t q = 0; q < 8; ++q)
        for (std::int64_t k = 0; k < 8; ++k)
            EXPECT_EQ(m.allowed(q, k), k <= q) << q << "," << k;
}

TEST(DocMask, CausalTotalPairsIsTriangleNumber)
{
    DocMask m = DocMask::causal(100);
    EXPECT_EQ(m.totalPairs(), 100 * 101 / 2);
}

TEST(DocMask, DocumentBoundariesBlockAttention)
{
    // Paper example: 16 tokens, documents of length [3, 3, 8, 2].
    DocMask m = DocMask::fromDocLengths({3, 3, 8, 2});
    EXPECT_EQ(m.seq(), 16);
    EXPECT_EQ(m.docCount(), 4);
    // Token 3 starts doc 1: cannot see tokens 0-2.
    EXPECT_FALSE(m.allowed(3, 2));
    EXPECT_TRUE(m.allowed(3, 3));
    EXPECT_TRUE(m.allowed(4, 3));
    // Token 5 (last of doc 1) sees 3..5 only.
    EXPECT_EQ(m.docStart(5), 3);
    EXPECT_EQ(m.span(5), 3);
    // Doc 2 spans 6..13.
    EXPECT_TRUE(m.allowed(13, 6));
    EXPECT_FALSE(m.allowed(13, 5));
    // Never attend the future, even within a document.
    EXPECT_FALSE(m.allowed(6, 7));
}

TEST(DocMask, PairCountsDecomposePerDocument)
{
    DocMask m = DocMask::fromDocLengths({3, 3, 8, 2});
    const auto tri = [](std::int64_t n) { return n * (n + 1) / 2; };
    EXPECT_EQ(m.totalPairs(), tri(3) + tri(3) + tri(8) + tri(2));
}

TEST(DocMask, PairsInQueryRangeMatchesChunkWork)
{
    DocMask m = DocMask::fromDocLengths({3, 3, 8, 2});
    // Splitting [0,16) into 4 chunks must partition the total.
    std::int64_t total = 0;
    for (std::int64_t c = 0; c < 4; ++c)
        total += m.pairsInQueryRange(c * 4, (c + 1) * 4);
    EXPECT_EQ(total, m.totalPairs());
    // The paper's observation: the chunk holding the long document carries
    // disproportionate work. Doc 2 (length 8) occupies chunks 1-3; chunk 3
    // has the tail of doc 2 with large spans plus doc 3.
    EXPECT_GT(m.pairsInQueryRange(12, 16), m.pairsInQueryRange(0, 4));
}

TEST(DocMask, FromEosPositions)
{
    // eos at positions 2 and 5 over seq 16 -> docs [0..2], [3..5], [6..15].
    DocMask m = DocMask::fromEosPositions(16, {2, 5});
    EXPECT_EQ(m.docCount(), 3);
    EXPECT_EQ(m.docStart(0), 0);
    EXPECT_EQ(m.docStart(2), 0);
    EXPECT_EQ(m.docStart(3), 3);
    EXPECT_EQ(m.docStart(6), 6);
    EXPECT_EQ(m.docStart(15), 6);
}

TEST(DocMask, EosAtLastTokenProducesNoEmptyDoc)
{
    DocMask m = DocMask::fromEosPositions(8, {7});
    EXPECT_EQ(m.docCount(), 1);
    EXPECT_EQ(m.seq(), 8);
}

TEST(DocMask, DuplicateEosPositionsCollapse)
{
    DocMask m = DocMask::fromEosPositions(8, {3, 3});
    EXPECT_EQ(m.docCount(), 2);
}

TEST(DocMask, SampleCoversSequenceExactly)
{
    Rng rng(1);
    DocMask m = DocMask::sample(8192, 1024.0, rng);
    EXPECT_EQ(m.seq(), 8192);
    EXPECT_GE(m.docCount(), 2);
    // Every token's doc start must be <= its own position.
    for (std::int64_t q = 0; q < m.seq(); q += 97)
        EXPECT_LE(m.docStart(q), q);
}

TEST(DocMask, SampleMeanDocLengthApproximatelyRequested)
{
    Rng rng(2);
    double total_docs = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
        DocMask m = DocMask::sample(65536, 1024.0, rng);
        total_docs += static_cast<double>(m.docCount());
    }
    const double mean_len = 65536.0 * trials / total_docs;
    EXPECT_NEAR(mean_len, 1024.0, 200.0);
}

TEST(DocMask, SampleDeterministicPerSeed)
{
    Rng r1(3), r2(3);
    DocMask a = DocMask::sample(4096, 512.0, r1);
    DocMask b = DocMask::sample(4096, 512.0, r2);
    EXPECT_EQ(a.docIds(), b.docIds());
}

TEST(DocMask, DocMaskReducesWorkVsCausal)
{
    Rng rng(4);
    DocMask doc = DocMask::sample(16384, 1024.0, rng);
    DocMask causal = DocMask::causal(16384);
    EXPECT_LT(doc.totalPairs(), causal.totalPairs() / 4)
        << "packed short documents should slash attention work";
}

// ---- Differential check against the per-token layout. ----

using Index = DocMask::Index;

/**
 * The per-token layout DocMask used before cumulative offsets: the
 * document start of every token, with pair counts summed query by query.
 * O(seq) memory and O(range) per query; kept as the brute-force reference.
 */
class TokenMaskReference
{
  public:
    /** From per-token document ids (nondecreasing, contiguous). */
    explicit TokenMaskReference(const std::vector<Index> &doc_ids)
        : docStart_(doc_ids.size())
    {
        for (std::size_t t = 0; t < doc_ids.size(); ++t) {
            const bool new_doc = t == 0 || doc_ids[t] != doc_ids[t - 1];
            docStart_[t] = new_doc ? static_cast<Index>(t) : docStart_[t - 1];
        }
    }

    static TokenMaskReference
    fromLengths(const std::vector<Index> &lengths)
    {
        std::vector<Index> ids;
        for (std::size_t d = 0; d < lengths.size(); ++d)
            ids.insert(ids.end(), static_cast<std::size_t>(lengths[d]),
                       static_cast<Index>(d));
        return TokenMaskReference(ids);
    }

    /** A new document starts after each eos token. */
    static TokenMaskReference
    fromEos(Index seq, const std::vector<Index> &eos)
    {
        std::vector<Index> ids(static_cast<std::size_t>(seq));
        Index doc = 0;
        for (Index t = 0; t < seq; ++t) {
            ids[static_cast<std::size_t>(t)] = doc;
            if (std::binary_search(eos.begin(), eos.end(), t))
                ++doc;
        }
        return TokenMaskReference(ids);
    }

    Index seq() const { return static_cast<Index>(docStart_.size()); }

    Index docStart(Index q) const
    {
        return docStart_[static_cast<std::size_t>(q)];
    }

    Index span(Index q) const { return q - docStart(q) + 1; }

    Index
    pairsInQueryRange(Index q_lo, Index q_hi) const
    {
        Index pairs = 0;
        for (Index q = q_lo; q < q_hi; ++q)
            pairs += span(q);
        return pairs;
    }

    Index
    pairsBetween(Index q_lo, Index q_hi, Index k_lo, Index k_hi) const
    {
        Index pairs = 0;
        for (Index q = q_lo; q < q_hi; ++q) {
            const Index lo = std::max(docStart(q), k_lo);
            const Index hi = std::min(q, k_hi - 1);
            if (hi >= lo)
                pairs += hi - lo + 1;
        }
        return pairs;
    }

    Index totalPairs() const { return pairsInQueryRange(0, seq()); }

  private:
    std::vector<Index> docStart_;
};

/** Ranges [lo, hi) within [0, seq): random, empty, edge and single-token. */
std::vector<std::pair<Index, Index>>
probeRanges(Index seq, Rng &rng, int random_count)
{
    std::vector<std::pair<Index, Index>> ranges{
        {0, 0}, {seq, seq}, {0, seq}, {0, 1}, {seq - 1, seq}};
    for (int i = 0; i < random_count; ++i) {
        Index a = rng.uniformInt(0, seq);
        Index b = rng.uniformInt(0, seq);
        if (a > b)
            std::swap(a, b);
        ranges.emplace_back(a, b);                  // random
        ranges.emplace_back(a, a);                  // empty, anywhere
        ranges.emplace_back(a, seq);                // touches the end
        ranges.emplace_back(0, b);                  // touches the start
        if (a < seq)
            ranges.emplace_back(a, a + 1);          // single token
    }
    return ranges;
}

void
expectMatchesReference(const DocMask &mask, const TokenMaskReference &ref,
                       std::uint64_t seed, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(mask.seq(), ref.seq());
    EXPECT_EQ(mask.totalPairs(), ref.totalPairs());
    for (Index q = 0; q < mask.seq(); ++q) {
        ASSERT_EQ(mask.docStart(q), ref.docStart(q)) << "q=" << q;
        ASSERT_EQ(mask.span(q), ref.span(q)) << "q=" << q;
    }
    Rng rng(seed);
    const auto queries = probeRanges(mask.seq(), rng, 24);
    const auto keys = probeRanges(mask.seq(), rng, 6);
    for (const auto &[q_lo, q_hi] : queries) {
        ASSERT_EQ(mask.pairsInQueryRange(q_lo, q_hi),
                  ref.pairsInQueryRange(q_lo, q_hi))
            << "[" << q_lo << ", " << q_hi << ")";
        for (const auto &[k_lo, k_hi] : keys) {
            ASSERT_EQ(mask.pairsBetween(q_lo, q_hi, k_lo, k_hi),
                      ref.pairsBetween(q_lo, q_hi, k_lo, k_hi))
                << "q [" << q_lo << ", " << q_hi << ") k [" << k_lo << ", "
                << k_hi << ")";
        }
    }
}

TEST(DocMaskReference, CausalMatchesPerTokenLayout)
{
    for (Index seq : {1, 2, 7, 64, 1000}) {
        expectMatchesReference(DocMask::causal(seq),
                               TokenMaskReference::fromLengths({seq}),
                               static_cast<std::uint64_t>(seq),
                               "causal seq=" + std::to_string(seq));
    }
}

TEST(DocMaskReference, ExplicitLengthsMatchPerTokenLayout)
{
    Rng rng(11);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<Index> lengths(
            static_cast<std::size_t>(rng.uniformInt(1, 40)));
        for (Index &len : lengths)
            len = rng.uniformInt(1, trial % 2 == 0 ? 3 : 200);
        expectMatchesReference(DocMask::fromDocLengths(lengths),
                               TokenMaskReference::fromLengths(lengths),
                               100 + static_cast<std::uint64_t>(trial),
                               "lengths trial " + std::to_string(trial));
    }
}

TEST(DocMaskReference, SampledMasksMatchPerTokenLayout)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        const DocMask exp_mask = DocMask::sample(4096, 300.0, rng);
        expectMatchesReference(exp_mask,
                               TokenMaskReference(exp_mask.docIds()), seed,
                               "sample seed " + std::to_string(seed));
        const DocMask ln_mask =
            DocMask::sampleLogNormal(4096, 200.0, 1.5, rng);
        expectMatchesReference(ln_mask, TokenMaskReference(ln_mask.docIds()),
                               seed, "sampleLogNormal seed " +
                                         std::to_string(seed));
        // Short documents: many offsets per range.
        const DocMask short_mask = DocMask::sample(2048, 2.0, rng);
        expectMatchesReference(short_mask,
                               TokenMaskReference(short_mask.docIds()), seed,
                               "short docs seed " + std::to_string(seed));
    }
}

TEST(DocMaskReference, EosMasksMatchPerTokenLayout)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        const Index seq = rng.uniformInt(1, 3000);
        std::vector<Index> eos(static_cast<std::size_t>(rng.uniformInt(0, 50)));
        for (Index &p : eos)
            p = rng.uniformInt(0, seq - 1);
        std::sort(eos.begin(), eos.end()); // duplicates collapse
        expectMatchesReference(DocMask::fromEosPositions(seq, eos),
                               TokenMaskReference::fromEos(seq, eos), seed,
                               "eos seed " + std::to_string(seed));
    }
}

TEST(DocMaskReference, DocIdsAreContiguousAndCoverSequence)
{
    Rng rng(5);
    const DocMask m = DocMask::sampleLogNormal(8192, 500.0, 1.0, rng);
    const std::vector<Index> ids = m.docIds();
    ASSERT_EQ(static_cast<Index>(ids.size()), m.seq());
    EXPECT_EQ(ids.front(), 0);
    EXPECT_EQ(ids.back(), m.docCount() - 1);
    for (std::size_t t = 1; t < ids.size(); ++t)
        ASSERT_TRUE(ids[t] == ids[t - 1] || ids[t] == ids[t - 1] + 1);
    EXPECT_EQ(DocMask::fromDocLengths({3, 2}).docIds(),
              (std::vector<Index>{0, 0, 0, 1, 1}));
}

TEST(DocMaskReference, LongCausalTotalPairsIsExact)
{
    const Index seq = 131072;
    EXPECT_EQ(DocMask::causal(seq).totalPairs(), seq * (seq + 1) / 2);
    EXPECT_EQ(DocMask::causal(seq).pairsInQueryRange(0, seq),
              seq * (seq + 1) / 2);
}

} // namespace
} // namespace llm4d
