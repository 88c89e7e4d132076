#include "src/index/inverted_index.h"

#include <algorithm>

#include "src/index/edit_distance.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"
#include "src/support/trace.h"

namespace hac {

namespace {

// Events no InvertedIndex reports in Stats(); queries are its own counter.
struct IndexMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& docs_indexed = reg.GetCounter(metric_names::kIndexDocsIndexed);
  Counter& docs_removed = reg.GetCounter(metric_names::kIndexDocsRemoved);
  Histogram& query_us = reg.GetHistogram(metric_names::kIndexQueryUs);
  Histogram& selectivity_pct =
      reg.GetHistogram(metric_names::kIndexQuerySelectivityPct, "pct");
};

IndexMetrics& GM() {
  static IndexMetrics* m = new IndexMetrics();
  return *m;
}

// Sparse-scope fast path: when the scope has kSparseScopeFactor× fewer set bits than
// a term's posting list, iterate the scope and probe the list (O(|scope| · log n))
// instead of materializing the full list as a bitmap and ANDing over the doc space.
constexpr size_t kSparseScopeFactor = 8;

// Sorted-id vs Bitmap cutover for term-AND-term: below this combined density
// (set bits per doc-space slot) the id-list intersection beats the word-parallel
// bitmap AND, which always pays O(universe/64) regardless of how sparse the terms are.
constexpr size_t kDenseCutover = 8;  // lists denser than 1/8 use bitmaps

}  // namespace

InvertedIndex::InvertedIndex(TokenizerOptions tokenizer_options)
    : tokenizer_(tokenizer_options) {}

InvertedIndex::TermId InvertedIndex::InternTerm(const std::string& term) {
  auto [it, inserted] = dictionary_.emplace(term, static_cast<TermId>(postings_.size()));
  if (inserted) {
    postings_.emplace_back();
    term_names_.push_back(&it->first);
  }
  return it->second;
}

Result<void> InvertedIndex::IndexDocument(DocId doc, std::string_view text) {
  if (doc_terms_.count(doc) != 0) {
    HAC_RETURN_IF_ERROR(RemoveDocument(doc));
  }
  std::vector<std::string> tokens = tokenizer_.UniqueTokens(text);
  std::vector<TermId> term_ids;
  term_ids.reserve(tokens.size());
  for (const std::string& token : tokens) {
    TermId id = InternTerm(token);
    postings_[id].Add(doc);
    term_ids.push_back(id);
  }
  doc_terms_.emplace(doc, std::move(term_ids));
  GM().docs_indexed.Inc();
  return OkResult();
}

Result<void> InvertedIndex::RemoveDocument(DocId doc) {
  auto it = doc_terms_.find(doc);
  if (it == doc_terms_.end()) {
    return Error(ErrorCode::kNotFound, "document " + std::to_string(doc) + " not indexed");
  }
  for (TermId id : it->second) {
    postings_[id].Remove(doc);
  }
  doc_terms_.erase(it);
  GM().docs_removed.Inc();
  return OkResult();
}

Result<Bitmap> InvertedIndex::Evaluate(const QueryExpr& query, const Bitmap& scope,
                                       const DirResolver* resolve_dir) {
  return RunQuery(query, scope, resolve_dir);
}

Result<PostingCursorPtr> InvertedIndex::OpenCursor(const QueryExpr& query,
                                                   const Bitmap& scope,
                                                   const DirResolver* resolve_dir) const {
  HAC_ASSIGN_OR_RETURN(Bitmap result, RunQuery(query, scope, resolve_dir));
  PostingCursorPtr cursor = std::make_unique<BitmapCursor>(std::move(result));
  cursor->SeekGE(0);
  return cursor;
}

Result<Bitmap> InvertedIndex::RunQuery(const QueryExpr& query, const Bitmap& scope,
                                       const DirResolver* resolve_dir) const {
  queries_evaluated_.Inc();
  TraceSpan span(metric_names::kSpanIndexEvaluate);
  const uint64_t t0 = TraceRing::NowUs();
  HAC_ASSIGN_OR_RETURN(Bitmap result, EvaluateNode(query, scope, resolve_dir));
  if (fetch_content_) {
    // Two-level verification pass (see SetContentVerifier).
    Bitmap verified = result;
    result.ForEach([&](uint32_t doc) {
      auto body = fetch_content_(doc);
      if (body.ok() && !MatchesText(query, body.value())) {
        verified.Clear(doc);
      }
    });
    result = std::move(verified);
  }
  GM().query_us.Record(TraceRing::NowUs() - t0);
  const uint64_t scope_count = scope.Count();
  const uint64_t hits = result.Count();
  if (scope_count > 0) {
    // Scope-filter selectivity: fraction of the candidate scope the query kept.
    GM().selectivity_pct.Record(hits * 100 / scope_count);
  }
  span.Arg("scope", scope_count);
  span.Arg("hits", hits);
  return result;
}

Result<Bitmap> InvertedIndex::EvaluateNode(const QueryExpr& node, const Bitmap& scope,
                                           const DirResolver* resolve_dir) const {
  switch (node.kind) {
    case QueryKind::kAll:
      return scope;
    case QueryKind::kTerm: {
      const PostingList* plist = FindPostings(node.text);
      if (plist == nullptr || plist->Empty()) {
        return Bitmap();
      }
      const size_t scope_count = scope.Count();
      if (scope_count * kSparseScopeFactor < plist->Size()) {
        Bitmap bm;
        scope.ForEach([&](uint32_t doc) {
          if (plist->Contains(doc)) {
            bm.Set(doc);
          }
        });
        return bm;
      }
      Bitmap bm = plist->ToBitmap();
      bm &= scope;
      return bm;
    }
    case QueryKind::kPrefix: {
      Bitmap bm;
      for (auto it = dictionary_.lower_bound(node.text);
           it != dictionary_.end() && StartsWith(it->first, node.text); ++it) {
        postings_[it->second].UnionInto(bm);
      }
      bm &= scope;
      return bm;
    }
    case QueryKind::kApprox: {
      // Dictionary scan with a banded edit-distance check; the length pre-filter
      // inside WithinEditDistance rejects most terms in O(1).
      Bitmap bm;
      for (const auto& [term, id] : dictionary_) {
        if (WithinEditDistance(term, node.text, node.approx_distance)) {
          postings_[id].UnionInto(bm);
        }
      }
      bm &= scope;
      return bm;
    }
    case QueryKind::kDirRef: {
      if (node.dir_uid == kInvalidDirUid) {
        return Error(ErrorCode::kInvalidArgument,
                     "unbound dir() reference: " + node.text);
      }
      if (resolve_dir == nullptr || !*resolve_dir) {
        return Error(ErrorCode::kInvalidArgument, "no dir() resolver supplied");
      }
      HAC_ASSIGN_OR_RETURN(Bitmap bm, (*resolve_dir)(node.dir_uid));
      bm &= scope;
      return bm;
    }
    case QueryKind::kAnd: {
      // Term-AND-term with sparse operands: intersect the sorted posting lists
      // directly (galloping when skewed) and filter by scope per match, instead of
      // materializing both lists as full doc-space bitmaps. Identical result —
      // Eval(a AND b, scope) = A ∩ B ∩ scope either way.
      if (node.children[0]->kind == QueryKind::kTerm &&
          node.children[1]->kind == QueryKind::kTerm) {
        const PostingList* a = FindPostings(node.children[0]->text);
        const PostingList* b = FindPostings(node.children[1]->text);
        if (a == nullptr || b == nullptr || a->Empty() || b->Empty()) {
          return Bitmap();
        }
        const size_t universe =
            static_cast<size_t>(std::max(a->docs().back(), b->docs().back())) + 1;
        if ((a->Size() + b->Size()) * kDenseCutover < universe) {
          Bitmap bm;
          for (uint32_t doc : PostingList::IntersectSorted(a->docs(), b->docs())) {
            if (scope.Test(doc)) {
              bm.Set(doc);
            }
          }
          return bm;
        }
      }
      HAC_ASSIGN_OR_RETURN(Bitmap lhs, EvaluateNode(*node.children[0], scope, resolve_dir));
      if (lhs.Empty()) {
        return lhs;  // short-circuit
      }
      HAC_ASSIGN_OR_RETURN(Bitmap rhs, EvaluateNode(*node.children[1], scope, resolve_dir));
      lhs &= rhs;
      return lhs;
    }
    case QueryKind::kOr: {
      HAC_ASSIGN_OR_RETURN(Bitmap lhs, EvaluateNode(*node.children[0], scope, resolve_dir));
      HAC_ASSIGN_OR_RETURN(Bitmap rhs, EvaluateNode(*node.children[1], scope, resolve_dir));
      lhs |= rhs;
      return lhs;
    }
    case QueryKind::kNot: {
      HAC_ASSIGN_OR_RETURN(Bitmap operand,
                           EvaluateNode(*node.children[0], scope, resolve_dir));
      Bitmap bm = scope;
      bm.AndNot(operand);
      return bm;
    }
  }
  return Error(ErrorCode::kInvalidArgument, "bad query node");
}

bool InvertedIndex::MatchesText(const QueryExpr& query, std::string_view text) const {
  std::vector<std::string> tokens = tokenizer_.UniqueTokens(text);
  auto has_token = [&tokens](const std::string& t) {
    return std::binary_search(tokens.begin(), tokens.end(), t);
  };
  auto has_prefix = [&tokens](const std::string& p) {
    auto it = std::lower_bound(tokens.begin(), tokens.end(), p);
    return it != tokens.end() && StartsWith(*it, p);
  };
  auto has_approx = [&tokens](const std::string& t, size_t dist) {
    for (const std::string& token : tokens) {
      if (WithinEditDistance(token, t, dist)) {
        return true;
      }
    }
    return false;
  };
  std::function<bool(const QueryExpr&)> eval = [&](const QueryExpr& node) -> bool {
    switch (node.kind) {
      case QueryKind::kAll:
        return true;
      case QueryKind::kTerm:
        return has_token(node.text);
      case QueryKind::kPrefix:
        return has_prefix(node.text);
      case QueryKind::kApprox:
        return has_approx(node.text, node.approx_distance);
      case QueryKind::kDirRef:
        return true;  // membership cannot be judged from text alone
      case QueryKind::kAnd:
        return eval(*node.children[0]) && eval(*node.children[1]);
      case QueryKind::kOr:
        return eval(*node.children[0]) || eval(*node.children[1]);
      case QueryKind::kNot:
        return !eval(*node.children[0]);
    }
    return false;
  };
  return eval(query);
}

CbaStats InvertedIndex::Stats() const {
  CbaStats s;
  s.documents = doc_terms_.size();
  s.terms = dictionary_.size();
  for (const PostingList& p : postings_) {
    s.postings += p.Size();
  }
  s.queries_evaluated = queries_evaluated_.Value();
  return s;
}

size_t InvertedIndex::IndexSizeBytes() const {
  size_t total = 0;
  for (const auto& [term, id] : dictionary_) {
    total += term.size() + sizeof(TermId) + 48;  // dictionary node overhead
  }
  for (const PostingList& p : postings_) {
    total += p.SizeBytes();
  }
  for (const auto& [doc, terms] : doc_terms_) {
    total += sizeof(DocId) + terms.capacity() * sizeof(TermId) + 32;
  }
  return total;
}

const PostingList* InvertedIndex::FindPostings(const std::string& term) const {
  auto it = dictionary_.find(ToLowerAscii(term));
  return it == dictionary_.end() ? nullptr : &postings_[it->second];
}

Bitmap InvertedIndex::TermDocs(const std::string& term) const {
  const PostingList* plist = FindPostings(term);
  return plist == nullptr ? Bitmap() : plist->ToBitmap();
}

size_t InvertedIndex::TermFrequency(const std::string& term) const {
  const PostingList* plist = FindPostings(term);
  return plist == nullptr ? 0 : plist->Size();
}

std::vector<std::string> InvertedIndex::TermsWithFrequencyBetween(size_t min_df,
                                                                  size_t max_df) const {
  std::vector<std::string> out;
  for (const auto& [term, id] : dictionary_) {
    size_t df = postings_[id].Size();
    if (df >= min_df && df <= max_df) {
      out.push_back(term);
    }
  }
  return out;
}

}  // namespace hac
