/**
 * @file
 * Campaign serialization: JSON/CSV exports, resumable checkpoints,
 * and the declarative spec-file format.
 *
 * Spec files are INI-style. Keys before the first `[task]` section set
 * campaign fields (name, seed, threads); each `[task]` section defines
 * one or more tasks — the `arch` and `p` keys accept comma-separated
 * lists that expand to the cartesian product of points:
 *
 *     name = bb-sweep
 *     seed = 7
 *
 *     [task]
 *     code = bb72
 *     arch = cyclone, baseline
 *     p = 1e-3, 2e-3, 4e-3
 *     max_shots = 20000
 *     target_rel_err = 0.1
 *
 * Checkpoints are record_codec.h documents of completed tasks keyed
 * by content hash, so a rerun of an edited spec re-executes exactly
 * the tasks whose definition changed. The spool coordinator's merge
 * journal is the same document.
 */

#ifndef CYCLONE_CAMPAIGN_CAMPAIGN_IO_H
#define CYCLONE_CAMPAIGN_CAMPAIGN_IO_H

#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace cyclone {

/** Serialize a campaign result as a JSON document. */
std::string campaignResultToJson(const CampaignResult& result);

/** Serialize the per-task table as CSV with a header row. */
std::string campaignResultToCsv(const CampaignResult& result);

/** Write a string to a file (atomically via rename). */
bool writeTextFile(const std::string& path, const std::string& content);

/**
 * Checkpoint document of every successfully completed task (no
 * error, at least one shot) of `tasks`: shot counts, metadata,
 * backend, every BpOsdStats counter and the streaming counters and
 * scalars, doubles written exactly.
 */
std::string formatCheckpoint(const std::vector<TaskResult>& tasks);

/**
 * Parse a checkpoint document into tasks marked fromCheckpoint, with
 * the LER estimate, Wilson half-width and per-round rate derived by
 * setShotCounts. Throws std::runtime_error, loading nothing, on any
 * defect — including an older checkpoint version.
 */
CampaignCheckpoint parseCheckpoint(const std::string& text);

/** Write formatCheckpoint(result.tasks) to `path`. Returns false on
 *  I/O failure. */
bool saveCheckpoint(const CampaignResult& result, const std::string& path);

/**
 * Load a checkpoint file. Returns false when the file is missing;
 * throws std::runtime_error (leaving `out` untouched) when it exists
 * but parseCheckpoint rejects it. Checkpoints are caches: callers
 * report the reason and start fresh.
 */
bool loadCheckpoint(const std::string& path, CampaignCheckpoint& out);

/** Parse a spec document; throws std::runtime_error with a line. */
CampaignSpec parseCampaignSpec(const std::string& text);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_CAMPAIGN_IO_H
