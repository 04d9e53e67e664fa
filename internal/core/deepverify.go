package core

import (
	"persistcc/internal/core/verify"
)

// WithDeepVerify makes the manager run the deep static trace verifier
// (internal/core/verify) on every cache file it reads, on top of the
// always-on checksum and bounds checks. Files that fail are quarantined
// and reported as misses — the run falls back to re-translation — with the
// failed checks counted in pcc_core_verify_reject_total. This is the
// paranoid load path behind `pcc-run -verify-install`; RecoverIndex applies
// the same verifier unconditionally, since recovery exists precisely
// because the database is suspect.
func WithDeepVerify() ManagerOption {
	return func(m *Manager) { m.deepVerify = true }
}

// VerifyDeep statically verifies every trace in the file against its
// recorded module table: control flow re-derived from the instruction
// stream, relocation notes re-checked against the loader's patch
// equations, module regions checked for overlap. It catches semantic
// corruption that the integrity trailer cannot — the trailer only proves
// the file holds the bytes that were written, not that those bytes are
// sound.
func (cf *CacheFile) VerifyDeep() *verify.Report {
	mods := make([]verify.Module, len(cf.Modules))
	for i, m := range cf.Modules {
		mods[i] = verify.Module{Path: m.Path, Base: m.Base, Size: m.Size}
	}
	return verify.Traces(mods, cf.Traces)
}

// countVerifyRejects records one rejected file's findings, labeled by the
// check that failed.
func (m *Manager) countVerifyRejects(rep *verify.Report) {
	for _, f := range rep.Findings {
		m.m.verifyRejects.With(f.Check).Inc()
	}
}
