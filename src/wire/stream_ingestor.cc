#include "wire/stream_ingestor.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <vector>

#include "common/file_util.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace vup::wire {

namespace fs = std::filesystem;

namespace {

constexpr char kWalFile[] = "wal.log";
constexpr char kCheckpointFile[] = "checkpoint.bin";

/// Process-wide wire/WAL counters on the unified metrics registry.
struct WireCounters {
  obs::Counter* frames_decoded;
  obs::Counter* reports_decoded;
  obs::Counter* frames_rejected_corrupt;
  obs::Counter* frames_rejected_version;
  obs::Counter* resyncs;
  obs::Counter* bytes_skipped;
  obs::Counter* wal_appends;
  obs::Counter* wal_recovered_records;
  obs::Counter* wal_tail_dropped_bytes;
  obs::Counter* checkpoints;
  obs::Counter* ingest_rejects_decode;
};

const WireCounters& GlobalWireCounters() {
  static const WireCounters counters = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    constexpr char kRejected[] = "vupred_wire_frames_rejected_total";
    constexpr char kRejectedHelp[] =
        "Wire frames rejected by the decoder, labeled by cause.";
    return WireCounters{
        r.GetCounter("vupred_wire_frames_decoded_total",
                     "Wire frames decoded successfully."),
        r.GetCounter("vupred_wire_reports_decoded_total",
                     "Aggregated reports carried by decoded frames."),
        r.GetCounter(kRejected, kRejectedHelp, {{"cause", "corrupt"}}),
        r.GetCounter(kRejected, kRejectedHelp, {{"cause", "version"}}),
        r.GetCounter("vupred_wire_resyncs_total",
                     "Skip-and-continue resyncs after corrupt frames."),
        r.GetCounter("vupred_wire_bytes_skipped_total",
                     "Bytes discarded while resyncing to the next magic."),
        r.GetCounter("vupred_wire_wal_appends_total",
                     "Frames journaled to the ingest write-ahead log."),
        r.GetCounter("vupred_wire_wal_recovered_records_total",
                     "WAL records replayed during crash recovery."),
        r.GetCounter("vupred_wire_wal_tail_dropped_bytes_total",
                     "Torn/corrupt WAL tail bytes dropped at recovery."),
        r.GetCounter("vupred_wire_checkpoints_total",
                     "Checkpoint/compact cycles completed."),
        r.GetCounter("vupred_ingest_rejects_total",
                     "Reports rejected by ingestion, labeled by rejection "
                     "cause.",
                     {{"cause", "decode"}}),
    };
  }();
  return counters;
}

/// Publishes the delta between two decoder-stat snapshots.
void PublishDecoderDelta(const WireDecoderStats& before,
                         const WireDecoderStats& after) {
  const WireCounters& c = GlobalWireCounters();
  c.frames_decoded->Increment(after.frames_decoded - before.frames_decoded);
  c.reports_decoded->Increment(after.reports_decoded -
                               before.reports_decoded);
  c.frames_rejected_corrupt->Increment(after.frames_rejected_corrupt -
                                       before.frames_rejected_corrupt);
  c.frames_rejected_version->Increment(after.frames_rejected_version -
                                       before.frames_rejected_version);
  c.resyncs->Increment(after.resyncs - before.resyncs);
  c.bytes_skipped->Increment(after.bytes_skipped - before.bytes_skipped);
  const uint64_t rejected = (after.frames_rejected_corrupt -
                             before.frames_rejected_corrupt) +
                            (after.frames_rejected_version -
                             before.frames_rejected_version);
  c.ingest_rejects_decode->Increment(rejected);
}

}  // namespace

std::string StreamIngestor::SessionStats::ToString() const {
  return StrFormat(
      "SessionStats{frames=%llu reports=%llu rejected=%llu "
      "recovered_frames=%llu recovered_reports=%llu tail_dropped=%llu "
      "checkpoints=%llu}",
      static_cast<unsigned long long>(frames_accepted),
      static_cast<unsigned long long>(reports_accepted),
      static_cast<unsigned long long>(reports_rejected),
      static_cast<unsigned long long>(recovered_frames),
      static_cast<unsigned long long>(recovered_reports),
      static_cast<unsigned long long>(wal_tail_dropped_bytes),
      static_cast<unsigned long long>(checkpoints));
}

StreamIngestor::StreamIngestor(Options options, IngestionStore* store,
                               WriteAheadLog wal)
    : options_(std::move(options)),
      store_(store),
      decoder_(std::make_unique<WireDecoder>()),
      wal_(std::make_unique<WriteAheadLog>(std::move(wal))) {}

std::string StreamIngestor::wal_path() const {
  return (fs::path(options_.dir) / kWalFile).string();
}

std::string StreamIngestor::checkpoint_path() const {
  return (fs::path(options_.dir) / kCheckpointFile).string();
}

StatusOr<StreamIngestor> StreamIngestor::Open(Options options,
                                              IngestionStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("null ingestion store");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal(
        StrFormat("cannot create ingest dir %s: %s", options.dir.c_str(),
                  ec.message().c_str()));
  }
  const std::string wal_file =
      (fs::path(options.dir) / kWalFile).string();
  const std::string checkpoint_file =
      (fs::path(options.dir) / kCheckpointFile).string();

  VUP_ASSIGN_OR_RETURN(WriteAheadLog wal, WriteAheadLog::Open(wal_file));
  StreamIngestor ingestor(std::move(options), store, std::move(wal));

  // Recovery step 1: the checkpoint, a plain concatenation of encoded
  // frames (best-effort decoded -- a damaged checkpoint yields what it
  // can; the WAL behind it still replays).
  std::ifstream checkpoint(checkpoint_file, std::ios::binary);
  if (checkpoint) {
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(checkpoint)),
                               std::istreambuf_iterator<char>());
    VUP_RETURN_IF_ERROR(ingestor.RecoverPayload(
        std::span<const uint8_t>(bytes.data(), bytes.size())));
  }

  // Recovery step 2: the WAL, one frame per record, torn tail dropped.
  VUP_ASSIGN_OR_RETURN(
      WriteAheadLog::ReplayStats replayed,
      WriteAheadLog::Replay(
          ingestor.wal_path(),
          [&ingestor](std::span<const uint8_t> payload) -> Status {
            return ingestor.RecoverPayload(payload);
          }));
  ingestor.session_stats_.wal_tail_dropped_bytes =
      replayed.tail_dropped_bytes;
  GlobalWireCounters().wal_recovered_records->Increment(replayed.records);
  GlobalWireCounters().wal_tail_dropped_bytes->Increment(
      replayed.tail_dropped_bytes);
  return ingestor;
}

Status StreamIngestor::RecoverPayload(std::span<const uint8_t> payload) {
  // Same decode+ingest path as live traffic, through a scratch decoder so
  // recovery bytes never interleave with a live stream's pending tail.
  WireDecoder recovery_decoder;
  const WireDecoderStats before = recovery_decoder.stats();
  recovery_decoder.Feed(
      payload, [this](const DecodedFrame& frame,
                      std::span<const uint8_t> raw) {
        (void)raw;
        ++session_stats_.recovered_frames;
        for (const AggregatedReport& report : frame.reports) {
          if (store_->Ingest(report).ok()) {
            ++session_stats_.recovered_reports;
          } else {
            ++session_stats_.reports_rejected;
          }
        }
      });
  PublishDecoderDelta(before, recovery_decoder.stats());
  return Status::OK();
}

Status StreamIngestor::Feed(std::span<const uint8_t> bytes) {
  Status first_error;
  const WireDecoderStats before = decoder_->stats();
  decoder_->Feed(bytes, [this, &first_error](
                            const DecodedFrame& frame,
                            std::span<const uint8_t> raw) {
    // Journal before ingest: a frame the store has seen but the WAL has
    // not would vanish on crash. If the journal write fails the frame is
    // dropped whole (and the error surfaced) so the store never runs
    // ahead of its durability.
    Status journaled = wal_->Append(raw);
    if (!journaled.ok()) {
      if (first_error.ok()) first_error = std::move(journaled);
      return;
    }
    GlobalWireCounters().wal_appends->Increment();
    ++session_stats_.frames_accepted;
    ++frames_since_checkpoint_;
    for (const AggregatedReport& report : frame.reports) {
      if (store_->Ingest(report).ok()) {
        ++session_stats_.reports_accepted;
      } else {
        ++session_stats_.reports_rejected;
      }
    }
    if (options_.checkpoint_every_frames > 0 &&
        frames_since_checkpoint_ >= options_.checkpoint_every_frames) {
      Status checkpointed = Checkpoint();
      if (!checkpointed.ok() && first_error.ok()) {
        first_error = std::move(checkpointed);
      }
    }
  });
  PublishDecoderDelta(before, decoder_->stats());
  return first_error;
}

Status StreamIngestor::Feed(std::string_view bytes) {
  return Feed(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()));
}

Status StreamIngestor::Checkpoint() {
  // Re-encode the full store content as frames.
  std::string encoded;
  for (int64_t vehicle_id : store_->VehicleIds()) {
    const std::vector<AggregatedReport> reports =
        store_->ReportsOf(vehicle_id);
    for (size_t at = 0; at < reports.size(); at += kMaxReportsPerFrame) {
      const size_t take =
          std::min(kMaxReportsPerFrame, reports.size() - at);
      VUP_RETURN_IF_ERROR(EncodeFrame(
          vehicle_id,
          std::span<const AggregatedReport>(reports.data() + at, take),
          &encoded));
    }
  }

  // Temp + rename: readers (and recovery) only ever see the old or the
  // new checkpoint, never a torn one.
  VUP_RETURN_IF_ERROR(WriteFileAtomic(checkpoint_path(), encoded));
  // Truncate the journal last: a crash between rename and truncate only
  // re-replays frames the checkpoint already holds (idempotent).
  VUP_RETURN_IF_ERROR(wal_->Reset());
  ++session_stats_.checkpoints;
  frames_since_checkpoint_ = 0;
  GlobalWireCounters().checkpoints->Increment();
  return Status::OK();
}

}  // namespace vup::wire
