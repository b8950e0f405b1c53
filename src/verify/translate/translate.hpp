// Translation validation for compiled ExecPlans (DESIGN.md §13).
//
// The PlanCompiler and the interpreted Cmu path are two implementations of
// the same per-packet semantics; every compiled publish is an opportunity
// for them to silently diverge.  This pass re-walks the deployment through
// ir::for_each_installed_entry — the shared single source of truth for the
// entry set and its evaluation order — and symbolically executes each
// compiled entry (filter predicate, hash-lane key slices, pre-shifted
// address translation, parameter lowering, SALU op-code, chain plumbing)
// against the interpreted semantics of the corresponding installed entry,
// reporting any divergence as a structured translate.* diagnostic.
//
// The companion merge-soundness prover (merge_prover.cpp) checks each
// MergeRegion fold is a commutative/associative monoid with identity 0 over
// the register's value domain, that every state-writing entry is covered by
// a matching region, and independently re-derives the merge blockers from
// the interpreted deployment (reusing the PR 3 interval machinery in
// src/ir/) — cross-checking the compiler's shard_mergeable verdict in both
// directions: a blocker the compiler missed is an error
// (translate.merge.unsound), a blocker it invented is a warning
// (translate.merge.spurious).
//
// Entry points: the "translate"/"merge" analyzers in the verify registry
// (gated on VerifyContext::exec_plan, which the paranoid gate sets to the
// candidate plan of each reconfiguration before it is published),
// validate_plan() for direct plan-in-hand validation, and
// `flymon_verify --translate`.
#pragma once

#include "verify/diagnostics.hpp"

namespace flymon {
class FlyMonDataPlane;
}  // namespace flymon

namespace flymon::exec {
class ExecPlan;
}  // namespace flymon::exec

namespace flymon::verify::translate {

/// Symbolically compare every compiled entry of `plan` against the
/// interpreted semantics of the deployment installed on `dp`.  Appends
/// translate.{entries,register,lane,filter,sample,key,address,param,prep,
/// op,chain} diagnostics on divergence.
void validate_translation(const FlyMonDataPlane& dp, const exec::ExecPlan& plan,
                          VerifyReport& report);

/// Prove each MergeRegion's fold is a monoid over the register domain,
/// check region coverage of every state-writing entry, and cross-check the
/// compiler's merge blockers against an independent derivation.  Appends
/// translate.merge.* diagnostics.
void prove_merge_soundness(const FlyMonDataPlane& dp, const exec::ExecPlan& plan,
                           VerifyReport& report);

}  // namespace flymon::verify::translate

namespace flymon::verify {

/// Run both translation-validation passes over (deployment, plan) and
/// return the combined report.  This is what the paranoid publish gate and
/// `flymon_verify --translate` consume.
VerifyReport validate_plan(const FlyMonDataPlane& dp,
                           const exec::ExecPlan& plan);

}  // namespace flymon::verify
