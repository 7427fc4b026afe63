// Frequency-built vocabulary with the serialization scheme's special tokens.

#ifndef SUDOWOODO_TEXT_VOCAB_H_
#define SUDOWOODO_TEXT_VOCAB_H_

#include <string>
#include <unordered_map>
#include <vector>

namespace sudowoodo::text {

/// Token-id mapping. Ids 0..5 are reserved for the special tokens used by
/// the Ditto serialization scheme adopted in the paper (§II-B):
/// [PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3, [COL]=4, [VAL]=5.
class Vocab {
 public:
  static constexpr int kPad = 0;
  static constexpr int kUnk = 1;
  static constexpr int kCls = 2;
  static constexpr int kSep = 3;
  static constexpr int kCol = 4;
  static constexpr int kVal = 5;

  Vocab();

  /// Builds the vocabulary from tokenized texts, keeping at most `max_size`
  /// tokens (including specials) with frequency >= `min_freq`.
  static Vocab Build(const std::vector<std::vector<std::string>>& corpus,
                     int max_size = 8000, int min_freq = 1);

  /// Token id, or kUnk.
  int Id(const std::string& token) const;

  /// Encodes tokens to ids, prepending [CLS] when `add_cls` is true.
  /// Each token maps on its own, so the ids of a concatenation are the
  /// concatenation of the ids.
  std::vector<int> Encode(const std::vector<std::string>& tokens,
                          bool add_cls = true) const;

  /// Encode into `out`, which is cleared first and keeps its capacity: a
  /// caller that reuses `out` allocates nothing once it is wide enough.
  void EncodeInto(const std::vector<std::string>& tokens,
                  std::vector<int>* out, bool add_cls = true) const;

  const std::string& Token(int id) const;
  int size() const { return static_cast<int>(tokens_.size()); }

 private:
  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int> ids_;
};

}  // namespace sudowoodo::text

#endif  // SUDOWOODO_TEXT_VOCAB_H_
