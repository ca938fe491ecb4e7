#include "storage/paged_file.h"

#include <cstring>
#include <fstream>

#include "storage/codec.h"

namespace simsel {

PagedFile::PagedFile(size_t page_size) : page_size_(page_size) {
  SIMSEL_CHECK_MSG(page_size_ >= 64, "page size too small");
}

uint64_t PagedFile::Append(const void* data, size_t len) {
  uint64_t offset = data_.size();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  data_.insert(data_.end(), p, p + len);
  return offset;
}

Status PagedFile::ReadAt(uint64_t offset, size_t len, void* dst, bool random,
                         PageReadStats* stats) const {
  if (fault_injector_ != nullptr) {
    Status st = fault_injector_->MaybeFail();
    if (!st.ok()) return st;
  }
  if (offset + len > data_.size()) {
    return Status::OutOfRange("read past end of paged file");
  }
  uint64_t first = offset / page_size_;
  uint64_t last = len == 0 ? first : (offset + len - 1) / page_size_;
  if (random) {
    stats->rand_reads += last - first + 1;
    // A random read repositions the head; the sequential window is lost.
    stats->last_seq_page = last;
  } else {
    for (uint64_t p = first; p <= last; ++p) {
      if (p != stats->last_seq_page) ++stats->seq_reads;
      stats->last_seq_page = p;
    }
  }
  if (len > 0) std::memcpy(dst, data_.data() + offset, len);
  return Status::Ok();
}

Status PagedFile::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for write: " + path);
  std::vector<uint8_t> header;
  PutFixed64(&header, page_size_);
  PutFixed64(&header, data_.size());
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(data_.data()),
            static_cast<std::streamsize>(data_.size()));
  // Checksum covers the header too, so a flipped page-size or length field
  // is detected, not silently accepted.
  uint64_t checksum = Fnv1a64(header.data(), header.size());
  checksum = Fnv1a64(data_.data(), data_.size(), checksum);
  std::vector<uint8_t> footer;
  PutFixed64(&footer, checksum);
  out.write(reinterpret_cast<const char*>(footer.data()),
            static_cast<std::streamsize>(footer.size()));
  if (!out) return Status::Internal("short write: " + path);
  return Status::Ok();
}

Result<PagedFile> PagedFile::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open for read: " + path);
  uint8_t header[16];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) return Status::Corruption("truncated header: " + path);
  Decoder dec{header, sizeof(header), 0};
  uint64_t page_size, payload;
  GetFixed64(&dec, &page_size);
  GetFixed64(&dec, &payload);
  if (page_size < kMinPageBytes || page_size > kMaxPageBytes) {
    return Status::Corruption("implausible page size in: " + path);
  }
  // The length field is checked only by the checksum, which needs the
  // payload read first: bound it by the bytes the file really holds.
  in.seekg(0, std::ios::end);
  const uint64_t file_bytes = static_cast<uint64_t>(in.tellg());
  if (file_bytes < sizeof(header) + 8 ||
      payload != file_bytes - sizeof(header) - 8) {
    return Status::Corruption("payload length disagrees with file size: " +
                              path);
  }
  in.seekg(sizeof(header));
  PagedFile file(static_cast<size_t>(page_size));
  file.data_.resize(payload);
  in.read(reinterpret_cast<char*>(file.data_.data()),
          static_cast<std::streamsize>(payload));
  if (!in) return Status::Corruption("truncated payload: " + path);
  uint8_t footer[8];
  in.read(reinterpret_cast<char*>(footer), sizeof(footer));
  if (!in) return Status::Corruption("truncated checksum: " + path);
  Decoder fdec{footer, sizeof(footer), 0};
  uint64_t checksum;
  GetFixed64(&fdec, &checksum);
  uint64_t expected = Fnv1a64(header, sizeof(header));
  expected = Fnv1a64(file.data_.data(), file.data_.size(), expected);
  if (checksum != expected) {
    return Status::Corruption("checksum mismatch: " + path);
  }
  return file;
}

}  // namespace simsel
