#include "text/vocab.h"

#include <algorithm>

#include "common/status.h"

namespace sudowoodo::text {

Vocab::Vocab() {
  tokens_ = {"[PAD]", "[UNK]", "[CLS]", "[SEP]", "[COL]", "[VAL]"};
  for (size_t i = 0; i < tokens_.size(); ++i) {
    ids_[tokens_[i]] = static_cast<int>(i);
  }
}

Vocab Vocab::Build(const std::vector<std::vector<std::string>>& corpus,
                   int max_size, int min_freq) {
  Vocab vocab;
  std::unordered_map<std::string, int64_t> freq;
  for (const auto& text : corpus) {
    for (const auto& tok : text) {
      if (vocab.ids_.count(tok)) continue;  // specials already present
      ++freq[tok];
    }
  }
  std::vector<std::pair<std::string, int64_t>> sorted(freq.begin(), freq.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  for (const auto& [tok, count] : sorted) {
    if (count < min_freq) break;
    if (vocab.size() >= max_size) break;
    vocab.ids_[tok] = vocab.size();
    vocab.tokens_.push_back(tok);
  }
  return vocab;
}

int Vocab::Id(const std::string& token) const {
  auto it = ids_.find(token);
  return it == ids_.end() ? kUnk : it->second;
}

std::vector<int> Vocab::Encode(const std::vector<std::string>& tokens,
                               bool add_cls) const {
  std::vector<int> out;
  out.reserve(tokens.size() + 1);
  EncodeInto(tokens, &out, add_cls);
  return out;
}

void Vocab::EncodeInto(const std::vector<std::string>& tokens,
                       std::vector<int>* out, bool add_cls) const {
  out->clear();
  if (add_cls) out->push_back(kCls);
  for (const auto& tok : tokens) out->push_back(Id(tok));
}

const std::string& Vocab::Token(int id) const {
  SUDO_CHECK(id >= 0 && id < size());
  return tokens_[static_cast<size_t>(id)];
}

}  // namespace sudowoodo::text
