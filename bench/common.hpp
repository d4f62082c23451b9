// common.hpp -- shared plumbing for the experiment harness.
//
// Every harness drives the pipeline through AnalysisSession (core/session):
// analyze_circuit opens a session and forces the worst-case stage with
// progress output, and batch_sessions wraps run_batch for the multi-circuit
// tables so whole circuits pipeline across the worker pool.

#pragma once

#include <string>
#include <vector>

#include "core/session.hpp"

namespace ndet::bench {

/// The FSM suite names in the paper's Table 2 order.
std::vector<std::string> suite_names();

/// Opens a session on one circuit and forces the database + worst-case
/// stages, with progress output on stderr.
AnalysisSession analyze_circuit(const std::string& name,
                                SessionOptions options = {});

/// Runs one batch request per name through run_batch (worst case plus the
/// given average-case queries, skipped on circuits with no monitored
/// fault), with progress output on stderr.
std::vector<AnalysisSession> batch_sessions(
    const std::vector<std::string>& names,
    std::vector<Procedure1Request> average = {}, SessionOptions options = {});

/// Prints the standard harness banner: what the binary reproduces and which
/// knobs it accepts.
void banner(const std::string& title, const std::string& paper_reference,
            const std::string& knobs);

}  // namespace ndet::bench
