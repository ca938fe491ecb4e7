#ifndef SIMSEL_STORAGE_CODEC_H_
#define SIMSEL_STORAGE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace simsel {

/// \file
/// Little-endian fixed and varint codecs for the on-disk index format,
/// plus the FNV-1a checksum guarding serialized blocks. All Get* functions
/// return false on truncated or malformed input instead of crashing, so a
/// corrupt index file surfaces as Status::Corruption at load time.

void PutFixed32(std::vector<uint8_t>* dst, uint32_t v);
void PutFixed64(std::vector<uint8_t>* dst, uint64_t v);
void PutVarint32(std::vector<uint8_t>* dst, uint32_t v);
void PutVarint64(std::vector<uint8_t>* dst, uint64_t v);
/// Stores the IEEE-754 bit pattern as fixed32.
void PutFloat(std::vector<uint8_t>* dst, float v);
void PutDouble(std::vector<uint8_t>* dst, double v);
/// varint32 length followed by the raw bytes.
void PutLengthPrefixed(std::vector<uint8_t>* dst, std::string_view s);

/// Cursor over a byte span for decoding. `pos` advances past consumed bytes.
struct Decoder {
  const uint8_t* data = nullptr;
  size_t size = 0;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }
  bool exhausted() const { return pos >= size; }
};

bool GetFixed32(Decoder* dec, uint32_t* v);
bool GetFixed64(Decoder* dec, uint64_t* v);
bool GetVarint32(Decoder* dec, uint32_t* v);
bool GetVarint64(Decoder* dec, uint64_t* v);
bool GetFloat(Decoder* dec, float* v);
bool GetDouble(Decoder* dec, double* v);
bool GetLengthPrefixed(Decoder* dec, std::string* s);

/// FNV-1a 64-bit hash; used as the serialization checksum. The seeded
/// overload continues an existing hash, enabling streaming checksums over
/// multiple buffers.
constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t seed = kFnvOffsetBasis);
uint64_t Fnv1a64(uint64_t v);

}  // namespace simsel

#endif  // SIMSEL_STORAGE_CODEC_H_
