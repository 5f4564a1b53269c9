package analysis

// All returns every analyzer in the suite, in stable order. This is the
// set cmd/edgeslice-lint runs and CI enforces.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, WallTime, NoAlloc, LockIO, MetricName, DeferClose, Reach}
}
