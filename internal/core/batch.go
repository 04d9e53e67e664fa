package core

import "persistcc/internal/vm"

// BatchCommitter returns the commit hook for (*vm.Pipeline).SetCommit:
// each call persists one batch of freshly translated traces through the
// normal accumulate/merge path, so a crash mid-run loses at most one flush
// interval of translations instead of the whole run's.
//
// The run's key set and module table are snapshotted once, on the VM
// thread, when the hook is built (they are fixed for the life of a run).
// The hook itself runs on the pipeline's committer goroutine; that is safe
// because a trace's persisted fields are immutable once it enters the code
// cache — only runtime link/exec state mutates afterwards, and the cache
// file format never reads it — and because CommitFile serializes database
// access behind the manager mutex and the on-disk lock.
func (m *Manager) BatchCommitter(v *vm.VM) func([]*vm.Trace) error {
	ks := KeysFor(v)
	records, _ := currentModules(v)
	return func(batch []*vm.Trace) error {
		cf := &CacheFile{
			AppKey:  ks.App,
			VMKey:   ks.VM,
			ToolKey: ks.Tool,
			AppPath: records[0].Path,
			Modules: records,
		}
		seen := make(map[traceKey]bool)
		for _, t := range batch {
			if t.Module < 0 {
				continue // dynamically generated code: never persisted
			}
			k := traceKey{records[t.Module].Path, t.ModOff}
			if seen[k] {
				continue
			}
			seen[k] = true
			cf.Traces = append(cf.Traces, t)
		}
		if len(cf.Traces) == 0 {
			return nil
		}
		sortTraces(cf)
		cf.recomputePools()
		_, err := m.CommitFile(ks, cf)
		return err
	}
}
