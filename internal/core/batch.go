package core

import "persistcc/internal/vm"

// BatchCommitter returns nil: a run commits once, after it ends.
//
// Deprecated: kept only because bench/trace.go calls it.
func (m *Manager) BatchCommitter(*vm.VM) func([]*vm.Trace) error { return nil }
