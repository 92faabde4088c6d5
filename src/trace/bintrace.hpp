/**
 * @file
 * The accord.trace/1 compact binary trace format and its replay
 * source.
 *
 * Layout (docs/TRACES.md has the full specification):
 *
 *   bytes 0..8    magic "ACRDBT01"
 *   byte  8       flags (reserved, must be 0)
 *   bytes 9..17   record count, little-endian u64 (0 = unknown)
 *   records       per record:
 *                   control byte  bit0 = writeback, bit1 = class
 *                                 varint follows, bits 2..7 zero
 *                   zigzag-varint delta of the line address vs. the
 *                                 previous record (first record:
 *                                 delta from 0)
 *                   [class varint]  new request class (persists
 *                                 until the next change; initial 0)
 *
 * Varint-delta encoding makes sequential streams ~2 bytes/record vs.
 * 9 for a fixed-width (line, kind) record.  A trace may additionally
 * be gzip-wrapped: the reader auto-detects the wrapper and streams
 * through zlib, so multi-GB traces decode with bounded memory.
 * Built without zlib (ACCORD_HAVE_ZLIB undefined) plain files still
 * work; gzip input is rejected with a clear fatal().
 *
 * tools/convert_trace.py produces this format from ChampSim/gem5-style
 * text traces.
 */

#ifndef ACCORD_TRACE_BINTRACE_HPP
#define ACCORD_TRACE_BINTRACE_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/source.hpp"

namespace accord::trace
{

/** Magic bytes opening every accord.trace/1 file. */
inline constexpr char kBinTraceMagic[8] = {'A', 'C', 'R', 'D',
                                           'B', 'T', '0', '1'};

/**
 * Whether this build can write gzip-wrapped traces (zlib present).
 * Runtime probe because ACCORD_HAVE_ZLIB is private to the trace
 * library; tests and tools use it to skip gzip paths gracefully.
 */
bool binTraceGzipAvailable();

/** Fixed header size: magic + flags + record count. */
inline constexpr std::size_t kBinTraceHeaderBytes = 17;

/** Streams an access stream out in accord.trace/1. */
class BinTraceWriter
{
  public:
    /**
     * Open for writing; fatal() on failure.
     *
     * @param gzip write a gzip-wrapped stream (needs zlib; the record
     *             count stays 0/unknown because the wrapper cannot be
     *             patched after the fact)
     */
    explicit BinTraceWriter(const std::string &path, bool gzip = false);
    ~BinTraceWriter();

    BinTraceWriter(const BinTraceWriter &) = delete;
    BinTraceWriter &operator=(const BinTraceWriter &) = delete;

    /** Append one record. */
    void append(LineAddr line, core::RequestKind kind,
                std::uint16_t cls = 0);

    void
    append(const Request &req)
    {
        append(req.line, req.kind, req.cls);
    }

    /** Flush, patch the record count, close (destructor does too). */
    void close();

    std::uint64_t recordsWritten() const { return records_; }

  private:
    void flushBuffer();

    std::FILE *file_ = nullptr;
    void *gz_ = nullptr;  ///< gzFile when gzip output is active
    std::vector<unsigned char> buffer_;
    std::uint64_t records_ = 0;
    LineAddr prev_line_ = 0;
    std::uint16_t prev_cls_ = 0;
};

/**
 * Streaming accord.trace/1 reader with bounded memory (64 KB chunks).
 * fatal() on a missing file, bad magic, or mid-record truncation.
 */
class BinTraceReader
{
  public:
    explicit BinTraceReader(const std::string &path);
    ~BinTraceReader();

    BinTraceReader(const BinTraceReader &) = delete;
    BinTraceReader &operator=(const BinTraceReader &) = delete;

    /**
     * Read the next record into `out` (line/kind/cls; position is the
     * record's 0-based index).  False at clean end-of-trace.
     */
    bool next(Request &out);

    /** Header record count (0 = unknown, e.g. gzip-streamed write). */
    std::uint64_t declaredCount() const { return declared_; }

    std::uint64_t recordsRead() const { return records_; }

    /** Reopen at the first record. */
    void rewind();

  private:
    void open();
    void closeFile();
    void readHeader();
    bool fill();
    bool tryByte(unsigned char &out);
    unsigned char needByte(const char *what);
    std::uint64_t readVarint(const char *what);

    std::string path_;
    std::FILE *file_ = nullptr;
    void *gz_ = nullptr;  ///< gzFile handle when zlib is available
    std::vector<unsigned char> buffer_;
    std::size_t buf_pos_ = 0;
    std::size_t buf_len_ = 0;
    std::uint64_t declared_ = 0;
    std::uint64_t records_ = 0;
    LineAddr prev_line_ = 0;
    std::uint16_t cls_ = 0;
};

/**
 * Replays an accord.trace/1 file as a TrafficSource.
 *
 * With stripe_count > 1 the reader keeps every stripe_count-th record
 * (offset stripe_index), so N cores can share one trace file without
 * replaying identical streams.  loop=true restarts at end-of-trace
 * (the source becomes unbounded); loop=false exhausts.
 */
class TraceSource final : public TrafficSource
{
  public:
    TraceSource(const std::string &path, bool loop,
                unsigned stripe_count, unsigned stripe_index);

    Request next() override;
    bool exhausted() const override { return !has_pending_; }
    bool bounded() const override { return !loop_; }
    std::uint64_t size() const override;
    bool rewind() override;
    std::string describe() const override;

    /** Records in the underlying file (header count; 0 = unknown). */
    std::uint64_t fileRecords() const { return reader_.declaredCount(); }

  private:
    void advance();

    BinTraceReader reader_;
    bool loop_;
    unsigned stripe_count_;
    unsigned stripe_index_;
    std::uint64_t global_pos_ = 0;
    std::uint64_t emitted_ = 0;
    Request pending_;
    bool has_pending_ = false;
};

} // namespace accord::trace

#endif // ACCORD_TRACE_BINTRACE_HPP
