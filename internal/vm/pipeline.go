package vm

// Pipeline does nothing: translation is synchronous.
//
// Deprecated: kept only because bench/trace.go calls it.
type Pipeline struct{}

// PipelineOption configures nothing.
//
// Deprecated: kept only because bench/trace.go calls it.
type PipelineOption func(*Pipeline)

// NewPipeline returns a Pipeline that does nothing.
//
// Deprecated: kept only because bench/trace.go calls it.
func NewPipeline(workers int, opts ...PipelineOption) *Pipeline { return &Pipeline{} }

// PipelinePrefetch selects nothing.
//
// Deprecated: kept only because bench/trace.go calls it.
func PipelinePrefetch() PipelineOption { return func(*Pipeline) {} }

// WithPipeline attaches nothing.
//
// Deprecated: kept only because bench/trace.go calls it.
func WithPipeline(*Pipeline) Option { return func(*VM) {} }

// SetCommit does nothing.
//
// Deprecated: kept only because bench/trace.go calls it.
func (*Pipeline) SetCommit(func([]*Trace) error) {}

// Shutdown does nothing.
//
// Deprecated: kept only because bench/trace.go calls it.
func (*Pipeline) Shutdown() {}
