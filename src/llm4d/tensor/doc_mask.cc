#include "llm4d/tensor/doc_mask.h"

#include <algorithm>
#include <cmath>

#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

/** 1 + 2 + ... + n: the pairs of the first n queries of one document. */
DocMask::Index
triangle(DocMask::Index n)
{
    return n * (n + 1) / 2;
}

/**
 * Offsets of documents whose lengths come from @p draw (clamped to
 * [1, tokens left]), packed until the sequence is full.
 */
template <typename Draw>
std::vector<DocMask::Index>
packOffsets(DocMask::Index seq, Draw draw)
{
    std::vector<DocMask::Index> cu{0};
    while (cu.back() < seq) {
        const DocMask::Index len =
            std::clamp<DocMask::Index>(draw(), 1, seq - cu.back());
        cu.push_back(cu.back() + len);
    }
    return cu;
}

} // namespace

DocMask::DocMask(std::vector<Index> cu) : cu_(std::move(cu)) {}

DocMask
DocMask::causal(Index seq)
{
    return fromDocLengths({seq});
}

DocMask
DocMask::fromDocLengths(const std::vector<Index> &lengths)
{
    LLM4D_CHECK(!lengths.empty(), "document list must be non-empty");
    std::vector<Index> cu;
    cu.reserve(lengths.size() + 1);
    cu.push_back(0);
    for (Index len : lengths) {
        LLM4D_CHECK(len > 0, "document length must be positive");
        cu.push_back(cu.back() + len);
    }
    return DocMask(std::move(cu));
}

DocMask
DocMask::fromEosPositions(Index seq, const std::vector<Index> &eos_positions)
{
    LLM4D_CHECK(seq > 0, "sequence must be non-empty");
    LLM4D_CHECK(std::is_sorted(eos_positions.begin(), eos_positions.end()),
                "eos positions must be sorted");
    std::vector<Index> cu{0}; // cu.back(): exclusive end of the last doc
    for (Index p : eos_positions) {
        LLM4D_CHECK(p >= 0 && p < seq, "eos position out of range");
        // The eos token itself belongs to the document it terminates.
        if (p + 1 > cu.back())
            cu.push_back(p + 1);
    }
    if (cu.back() < seq)
        cu.push_back(seq);
    return DocMask(std::move(cu));
}

DocMask
DocMask::sample(Index seq, double mean_doc_len, Rng &rng)
{
    LLM4D_CHECK(seq > 0, "sequence must be non-empty");
    LLM4D_CHECK(mean_doc_len >= 1.0, "mean document length must be >= 1");
    return DocMask(packOffsets(seq, [&] {
        return static_cast<Index>(std::llround(rng.exponential(mean_doc_len)));
    }));
}

DocMask
DocMask::sampleLogNormal(Index seq, double median_len, double sigma,
                         Rng &rng)
{
    LLM4D_CHECK(seq > 0, "sequence must be non-empty");
    LLM4D_CHECK(median_len >= 1.0 && sigma >= 0.0,
                "invalid log-normal document parameters");
    const double mu = std::log(median_len);
    return DocMask(packOffsets(seq, [&] {
        return static_cast<Index>(std::llround(rng.logNormal(mu, sigma)));
    }));
}

std::size_t
DocMask::docOf(Index q) const
{
    // Last offset <= q; cu_[0] == 0 <= q, so the result is a valid doc.
    return static_cast<std::size_t>(
        std::upper_bound(cu_.begin(), cu_.end(), q) - cu_.begin() - 1);
}

DocMask::Index
DocMask::docStart(Index q) const
{
    LLM4D_ASSERT(q >= 0 && q < seq(), "query position out of range");
    return cu_[docOf(q)];
}

DocMask::Index
DocMask::totalPairs() const
{
    Index pairs = 0;
    for (std::size_t d = 0; d + 1 < cu_.size(); ++d)
        pairs += triangle(cu_[d + 1] - cu_[d]);
    return pairs;
}

DocMask::Index
DocMask::pairsInQueryRange(Index q_lo, Index q_hi) const
{
    LLM4D_ASSERT(q_lo >= 0 && q_hi <= seq() && q_lo <= q_hi,
                 "query range out of bounds");
    if (q_lo == q_hi)
        return 0;
    // Query q of a document starting at s attends q - s + 1 keys, so the
    // queries [a, b) of that document sum to triangle(b-s) - triangle(a-s).
    Index pairs = 0;
    for (std::size_t d = docOf(q_lo); cu_[d] < q_hi; ++d) {
        const Index start = cu_[d];
        const Index a = std::max(q_lo, start);
        const Index b = std::min(q_hi, cu_[d + 1]);
        pairs += triangle(b - start) - triangle(a - start);
    }
    return pairs;
}

DocMask::Index
DocMask::pairsBetween(Index q_lo, Index q_hi, Index k_lo, Index k_hi) const
{
    LLM4D_ASSERT(q_lo >= 0 && q_hi <= seq() && q_lo <= q_hi,
                 "query range out of bounds");
    LLM4D_ASSERT(k_lo >= 0 && k_hi <= seq() && k_lo <= k_hi,
                 "key range out of bounds");
    // Query q sees keys [max(docStart(q), k_lo), min(q, k_hi - 1)], so only
    // queries at or after k_lo can see anything.
    const Index first = std::max(q_lo, k_lo);
    if (first >= q_hi || k_lo == k_hi)
        return 0;
    const Index k_last = k_hi - 1;
    Index pairs = 0;
    for (std::size_t d = docOf(first); cu_[d] < q_hi; ++d) {
        const Index lo = std::max(cu_[d], k_lo); // first visible key
        if (k_last < lo)
            break; // this and every later document start past the keys
        const Index a = std::max(first, cu_[d]);
        const Index b = std::min(q_hi, cu_[d + 1]);
        // Queries [a, k_last] see keys [lo, q]: an arithmetic series
        // (a >= lo always holds). Queries past k_last see the whole
        // window [lo, k_last].
        const Index ramp_end = std::min(b, k_last + 1);
        if (ramp_end > a)
            pairs += triangle(ramp_end - lo) - triangle(a - lo);
        const Index flat_begin = std::max(a, k_last + 1);
        if (b > flat_begin)
            pairs += (b - flat_begin) * (k_last - lo + 1);
    }
    return pairs;
}

std::vector<DocMask::Index>
DocMask::docIds() const
{
    std::vector<Index> ids;
    ids.reserve(static_cast<std::size_t>(seq()));
    for (std::size_t d = 0; d + 1 < cu_.size(); ++d)
        ids.insert(ids.end(), static_cast<std::size_t>(cu_[d + 1] - cu_[d]),
                   static_cast<Index>(d));
    return ids;
}

} // namespace llm4d
