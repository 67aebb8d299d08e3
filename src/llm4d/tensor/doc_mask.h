#ifndef LLM4D_TENSOR_DOC_MASK_H_
#define LLM4D_TENSOR_DOC_MASK_H_

/**
 * @file
 * Attention masks over a token sequence.
 *
 * Llama 3 uses *document masking* (paper Sections 1, 4): a packed training
 * sequence contains multiple documents separated by end-of-sequence ids,
 * and a token may only attend to earlier tokens of its own document. The
 * full causal mask is the single-document special case. The mask is the
 * shared source of truth for (a) executable attention correctness, (b) the
 * per-rank compute workload model behind the paper's imbalance results
 * (Figures 11 and 14).
 *
 * Layout: cumulative document offsets, cu = {0, len0, len0+len1, ..., seq}
 * (the `q_cu_lens` array of variable-length attention kernels, SNIPPETS.md
 * snippet 2). Storage is O(docs), not O(seq). With D documents in total
 * and d of them overlapping the queried range:
 *  - docStart(q), span(q), allowed(q, k): O(log D) binary search;
 *  - pairsInQueryRange, pairsBetween: O(log D + d), one closed-form
 *    arithmetic series per overlapping document;
 *  - totalPairs: O(D); docIds(): O(seq), materialized on demand.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "llm4d/simcore/rng.h"

namespace llm4d {

/** Block-causal (document) attention mask over global token positions. */
class DocMask
{
  public:
    using Index = std::int64_t;

    /** Full causal mask: one document spanning the whole sequence. */
    static DocMask causal(Index seq);

    /** Build from explicit document lengths (must sum to the seq length). */
    static DocMask fromDocLengths(const std::vector<Index> &lengths);

    /**
     * Build from token ids: a new document starts after each eos token.
     * @param eos_positions sorted positions of eos tokens within [0, seq).
     */
    static DocMask fromEosPositions(Index seq,
                                    const std::vector<Index> &eos_positions);

    /**
     * Sample document lengths i.i.d. exponential with the given mean
     * (truncated to >= 1 token), packing until the sequence is full — the
     * evaluation's "block causal mask with average document length 1K".
     */
    static DocMask sample(Index seq, double mean_doc_len, Rng &rng);

    /**
     * Sample document lengths i.i.d. log-normal (median @p median_len,
     * shape @p sigma), clamped to [1, remaining]. Heavy-tailed mixes like
     * the long-context training data: some sequences hold one huge
     * document, others many small ones — the source of the Figure 14
     * cross-rank imbalance.
     */
    static DocMask sampleLogNormal(Index seq, double median_len,
                                   double sigma, Rng &rng);

    /** Sequence length covered by the mask. */
    Index seq() const { return cu_.back(); }

    /** Number of documents packed in the sequence. */
    Index docCount() const { return static_cast<Index>(cu_.size()) - 1; }

    /** First attendable key position for query position @p q. */
    Index docStart(Index q) const;

    /** Whether query position @p q may attend key position @p k. */
    bool
    allowed(Index q, Index k) const
    {
        return k <= q && k >= docStart(q);
    }

    /** Number of keys attended by query @p q (its causal-in-doc span). */
    Index span(Index q) const { return q - docStart(q) + 1; }

    /**
     * Total number of (q, k) attention pairs — proportional to attention
     * FLOPs under this mask. For the causal mask this is seq*(seq+1)/2.
     */
    Index totalPairs() const;

    /**
     * Attention pairs contributed by queries in [q_lo, q_hi) — the compute
     * assigned to a CP shard holding that query range.
     */
    Index pairsInQueryRange(Index q_lo, Index q_hi) const;

    /**
     * Attention pairs between queries in [q_lo, q_hi) and keys in
     * [k_lo, k_hi) — the compute of one ring-attention step (a Q shard
     * against one KV chunk).
     */
    Index pairsBetween(Index q_lo, Index q_hi, Index k_lo, Index k_hi) const;

    /** Document id of each token (derived from the offsets, O(seq)). */
    std::vector<Index> docIds() const;

  private:
    /** @param cu cumulative offsets: cu[0] == 0, strictly increasing. */
    explicit DocMask(std::vector<Index> cu);

    /** Index of the document holding position @p q. */
    std::size_t docOf(Index q) const;

    std::vector<Index> cu_; ///< document d spans [cu_[d], cu_[d + 1])
};

} // namespace llm4d

#endif // LLM4D_TENSOR_DOC_MASK_H_
