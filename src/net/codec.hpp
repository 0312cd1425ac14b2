#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/channel.hpp"
#include "net/schema.hpp"
#include "net/wire.hpp"

namespace dubhe::net {

/// The payload codec: encode/decode for every payload in net/schema.hpp,
/// by walking its field list. Decoding verifies the frame's type tag,
/// rejects trailing bytes, and throws WireError{kBadPayload} on any
/// malformation, so a frame that decodes is fully validated.

namespace detail {

inline WireError bad_payload(const std::string& what) {
  return WireError(WireErrc::kBadPayload, what);
}

/// A scalar from its big-endian wire bits.
template <WireScalar T>
T from_bits(std::uint64_t bits) {
  if constexpr (std::is_same_v<T, float>) {
    return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
  } else {
    return static_cast<T>(bits);
  }
}

/// Smallest encoding of one list entry: a default entry's size.
template <class T, class Entry>
std::size_t min_entry_size(const Entry& entry) {
  Sizer s;
  T e{};
  entry(s, e);
  return s.payload;
}

/// Big-endian writer into a buffer reserved once, at the Sizer's count.
class Writer {
 public:
  explicit Writer(std::size_t bytes) { out_.reserve(bytes); }

  template <class... T>
  void operator()(const T&... f) {
    (field(f), ...);
  }
  void fixed(const auto& list, std::uint64_t, std::size_t width) {
    for (const auto x : list) put(x, width);
  }
  template <class T, class Entry>
  void list(const std::vector<T>& list, const Entry& entry) {
    count(list.size());
    for (const T& e : list) entry(*this, e);
  }
  void implied(const auto&, const auto&) {}
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put(std::uint64_t bits, std::size_t width) {
    for (std::size_t b = width; b-- > 0;) {
      out_.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
    }
  }
  void count(std::size_t n) {
    if (n > std::size_t{0xFFFFFFFF}) throw bad_payload("list length exceeds u32");
    put(n, 4);
  }
  template <WireScalar T>
  void field(const T& x) {
    if constexpr (std::is_same_v<T, float>) {
      put(std::bit_cast<std::uint32_t>(x), 4);
    } else {
      put(static_cast<std::uint64_t>(x), sizeof(T));
    }
  }
  template <class T>
  void field(const std::vector<T>& l) {
    list(l, entry_fields<T>);
  }
  /// Key material and the packed vector, in their paillier wire forms.
  template <class Paillier>
  void field(const Paillier& x) {
    const std::vector<std::uint8_t> bytes = he::serialize(x);
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  std::vector<std::uint8_t> out_;
};

/// The key of a decode whose payload has no packed field.
struct NoKey {};

/// Big-endian reader; underflow is WireError{kBadPayload}. read_list is the
/// one bounded list read: a count whose smallest possible entries would not
/// fit in the bytes left is refused before anything is allocated. `Key` is
/// the receiver's session key (he::PublicKey), under which a packed field
/// is read, or NoKey, which cannot read one.
template <class Key>
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, const Key& key) : rest_(bytes), key_(key) {}

  template <class... T>
  void operator()(T&... f) {
    (field(f), ...);
  }
  template <class T>
  void fixed(std::vector<T>& list, std::uint64_t count, std::size_t width) {
    read_list(list, count, width, [&](T& x) { x = static_cast<T>(get(width)); });
  }
  template <class T, class Entry>
  void list(std::vector<T>& list, const Entry& entry) {
    read_list(list, get(4), min_entry_size<T>(entry), [&](T& e) { entry(*this, e); });
  }
  void implied(auto& field, const auto& value) { field = value; }
  void finish() const {
    if (!rest_.empty()) {
      throw bad_payload(std::to_string(rest_.size()) + " trailing payload bytes");
    }
  }

 private:
  std::uint64_t get(std::size_t width) {
    if (rest_.size() < width) throw bad_payload("payload underflow");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) v = (v << 8) | rest_[i];
    rest_ = rest_.subspan(width);
    return v;
  }
  template <class T, class ReadOne>
  void read_list(std::vector<T>& list, std::uint64_t count, std::size_t min_entry,
                 const ReadOne& read_one) {
    if (min_entry == 0 || count > rest_.size() / min_entry) {
      throw bad_payload("list of " + std::to_string(count) + " entries overruns the payload");
    }
    list.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) read_one(list.emplace_back());
  }

  template <WireScalar T>
  void field(T& x) {
    const std::uint64_t bits = get(sizeof(T));
    if (std::is_same_v<T, bool> && bits > 1) throw bad_payload("flag byte is not 0 or 1");
    x = from_bits<T>(bits);
  }
  template <class T>
  void field(std::vector<T>& l) {
    list(l, entry_fields<T>);
  }
  void field(he::PrivateKey& k) { k = he::deserialize_private_key_prefix(rest_); }
  void field(he::PackedEncryptedVector& x)
    requires std::same_as<Key, he::PublicKey>
  {
    x = he::deserialize_packed_encrypted_vector(rest_, key_);
    rest_ = {};
  }

  std::span<const std::uint8_t> rest_;
  const Key& key_;
};

template <class M>
bool carries(MsgType type) {
  return std::ranges::find(kTypesOf<M>, type) != kTypesOf<M>.end();
}

}  // namespace detail

/// Validates `m` and encodes it as a frame of type `type`, which must carry
/// M (WireError{kBadType} otherwise). Throws WireError{kBadPayload} for a
/// message validate() refuses.
template <class M>
[[nodiscard]] Frame encode(MsgType type, const M& m) {
  if (!detail::carries<M>(type)) {
    throw WireError(WireErrc::kBadType, to_string(type) + " does not carry this payload");
  }
  if constexpr (requires { m.validate(); }) m.validate();
  Sizer size;
  visit_fields(size, m);
  detail::Writer w(size.payload);
  visit_fields(w, m);
  return Frame{type, w.take()};
}

/// Decodes a frame of type `expected`, which must carry M. A payload with
/// a packed field does not compile without `key`, the receiver's session
/// key (he::PublicKey): every ciphertext must be exactly
/// key.ciphertext_bytes() long and below its n^2, and the vector shares
/// the key's Montgomery context.
template <class M, class Key = detail::NoKey>
[[nodiscard]] M decode(const Frame& f, MsgType expected, const Key& key = {}) {
  if (f.type != expected || !detail::carries<M>(expected)) {
    throw detail::bad_payload("expected " + to_string(expected) + ", got " + to_string(f.type));
  }
  M m{};
  try {
    detail::Reader<Key> r(f.payload, key);
    visit_fields(r, m);
    r.finish();
  } catch (const std::invalid_argument& e) {
    throw detail::bad_payload(e.what());  // the paillier fields' rejections
  }
  if constexpr (requires { m.validate(); }) m.validate();
  return m;
}

/// The payloads a single MsgType carries need not name it; the three that
/// several carry (SeedRequest, WeightsMsg, the packed vector) must.
template <class M>
  requires(kTypesOf<M>.size() == 1)
[[nodiscard]] Frame encode(const M& m) {
  return encode(kTypesOf<M>[0], m);
}

template <class M, class Key = detail::NoKey>
  requires(kTypesOf<M>.size() == 1)
[[nodiscard]] M decode(const Frame& f, const Key& key = {}) {
  return decode<M>(f, kTypesOf<M>[0], key);
}

/// Named decoders the benchmark harness (perfbench/taps.hpp) calls; it is
/// versioned apart from the library, so these stay as forwarders.
inline ClientHello parse_client_hello(const Frame& f) { return decode<ClientHello>(f); }
inline RoundBegin parse_round_begin(const Frame& f) { return decode<RoundBegin>(f); }
inline ShardRoundBegin parse_shard_round_begin(const Frame& f) { return decode<ShardRoundBegin>(f); }
inline SeedRequest parse_seed_request(const Frame& f, MsgType type) { return decode<SeedRequest>(f, type); }

/// Ciphertext-material bytes inside a frame's payload: the raw Paillier
/// ciphertext bytes of its packed field — excluding framing, length
/// prefixes, bitmaps, plaintext values and key material. Never
/// throws: returns 0 for messages that carry no ciphertext and for
/// malformed payloads (which decode rejects separately). This is what the
/// transports feed the ledger's plaintext/encrypted byte split.
[[nodiscard]] std::size_t encrypted_payload_bytes(const Frame& f);

/// Which §6.4 ledger a message type lands in.
[[nodiscard]] fl::MessageKind account_kind(MsgType type);

}  // namespace dubhe::net
